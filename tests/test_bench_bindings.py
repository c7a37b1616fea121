"""The names the benchmark's tracer rebinds still exist and are still called.

perfbench/tracing.py records a layer's spans by rebinding a pairnet name
in the module where its caller looks it up; a name that is gone, or no
longer called, silently drops that layer's metrics from a traced run.
These checks fail first, in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pairnet import model, trainer
from pairnet.datasets import Dataset
from pairnet.partition import Interval, uniform_partition

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_pairnet_name_resolves():
    patches = [p for p in _tracing_module().PATCHES if p[0].startswith("pairnet.")]
    assert patches
    for module_name, attr, span, _ in patches:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr} (span {span}) is gone"


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers around the names the tracer rebinds for fit:
    route and solve_spd in trainer, feature_matrix in trainer and model."""
    seen = {"route": [], "feature_matrix": [], "solve_spd": []}
    bindings = [(trainer, "route"), (trainer, "solve_spd"),
                (trainer, "feature_matrix"), (model, "feature_matrix")]
    for module, name in bindings:
        original = getattr(module, name)

        def counted(*args, _original=original, _log=seen[name], **kwargs):
            _log.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return seen


def test_fit_calls_the_traced_layers(calls):
    box = (Interval(0.0, 1.0), Interval(0.0, 2.0), Interval(-1.0, 1.0))
    gen = np.random.default_rng(3)
    X = np.column_stack([gen.uniform(iv.lo, iv.hi, 2000) for iv in box])
    dataset = Dataset(X, np.sin(X.sum(axis=1)), box)
    _, report = trainer.fit(dataset, uniform_partition(box, (3, 3, 2)),
                            trainer.FitConfig(alphas=(0.2, 0.3, 0.5)))
    solved = sum(not s.fallback for s in report.subspaces)
    assert solved > 0
    assert len(calls["route"]) == 1
    assert len(calls["solve_spd"]) == solved
    # Each cell is solved in the quadratic basis: 2 + s(s+1)/2 with s = 3.
    assert all(args[0].shape == (8, 8) for args in calls["solve_spd"])
    # Fit and its training predictions both run in the quadratic basis:
    # no feature rows go through either binding the tracer counts.
    assert calls["feature_matrix"] == []
