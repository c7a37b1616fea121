"""Tests of the benchmark's own parts: the reference, the tracer, the runner.

    PYTHONPATH=src python3 -m pytest -q perfbench

The reference tests fit the paper's f2 grid with pairnet and then
perturb the model or the report from outside the program, as a wrong
feature, a wrong fusion weight or a corrupted cell would; each
perturbation must be caught.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from pairnet import Dataset, FitConfig, PairNetModel, fit, gen_test, gen_train, mse  # noqa: E402
from pairnet import uniform_partition  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

ALPHAS = (0.1, 0.1, 0.8)


@pytest.fixture(scope="module")
def f2_fit():
    train, test = gen_train("f2"), gen_test("f2")
    part = uniform_partition(train.domain, (6, 6, 6))
    model, report = fit(train, part, FitConfig(alphas=ALPHAS))
    ref = reference.ReferenceFit(part.edges, ALPHAS, train.X, train.y)
    return train, test, model, report, ref


def _all_sse_close(report, ref):
    return all(reference.sse_close(report.subspaces[j].sse, c) for j, c in ref.cells.items())


def _test_mse_close(model, test, ref):
    return reference.mse_close(mse(model, test), ref.mse(test.X, test.y), test.y)


def test_reference_accepts_pairnet_fit(f2_fit):
    train, test, model, report, ref = f2_fit
    assert _all_sse_close(report, ref)
    assert _test_mse_close(model, test, ref)
    assert reference.mse_close(report.train_mse,
                               sum(c.sse for c in ref.cells.values()) / len(train), train.y)


def test_reference_features_at_a_corner():
    # At the lower corner every g_i = 0, so w_k sums the alphas of the
    # complemented inputs: w_0 = 0 and w_{2^n - 1} = 1.
    phi = reference.features(np.zeros((1, 3)), np.zeros(3), np.ones(3), ALPHAS)[0]
    w = phi[:8] * 4.0
    assert np.allclose(w, [0.0, 0.8, 0.1, 0.9, 0.1, 0.9, 0.2, 1.0])
    assert np.allclose(phi[8:], phi[:8] * 0.5 * (1.0 - w))


def _perturb(model, edit):
    return PairNetModel(partition=model.partition,
                        locals=tuple(edit(j, loc) for j, loc in enumerate(model.locals)),
                        activation_scope=model.activation_scope)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda j, loc: dataclasses.replace(loc, alphas=loc.alphas[::-1]),
                 id="fusion-weights-reversed"),
    pytest.param(lambda j, loc: dataclasses.replace(loc, gamma=loc.gamma * 1.001),
                 id="gamma-scaled-1e-3"),
    pytest.param(lambda j, loc: dataclasses.replace(loc, c=loc.c + 0.1) if j == 100 else loc,
                 id="one-cell-shifted"),
])
def test_reference_catches_perturbed_model(f2_fit, edit):
    _, test, model, _, ref = f2_fit
    assert not _test_mse_close(_perturb(model, edit), test, ref)


def test_reference_catches_perturbed_cell_sse(f2_fit):
    _, _, _, report, ref = f2_fit
    cells = list(report.subspaces)
    cells[7] = dataclasses.replace(cells[7], sse=cells[7].sse * (1 + 1e-4))
    assert not _all_sse_close(dataclasses.replace(report, subspaces=tuple(cells)), ref)


def test_reference_catches_fit_with_wrong_fusion_weights(f2_fit):
    train, test, _, _, ref = f2_fit
    model, report = fit(train, uniform_partition(train.domain, (6, 6, 6)),
                        FitConfig(alphas=(0.2, 0.1, 0.7)))
    assert not _all_sse_close(report, ref)
    assert not _test_mse_close(model, test, ref)


def test_reference_accepts_an_ill_conditioned_cell(tmp_path):
    # On this seed cell 23 of fine_cells has 16 rows, and the solver's ridge
    # floor moves its held-out predictions by 6e-5 against the plain
    # minimum-norm fit; the reference must model that ridge.
    import workloads

    w = workloads.FineCells(619213081, str(tmp_path))
    w.build_parts()
    _, part, alphas, train, test, _ = w.parts[0]
    model, report = fit(train, part, FitConfig(alphas=alphas))
    ref = reference.ReferenceFit(part.edges, alphas, train.X, train.y, [23])
    assert report.subspaces[23].n_rows == 16
    assert reference.sse_close(report.subspaces[23].sse, ref.cells[23])
    held = ref.covers(test.X)
    assert held.sum() > 0
    assert _test_mse_close(model, Dataset(test.X[held], test.y[held], test.domain), ref)


def test_self_time_subtracts_children():
    span = ["p", 0.0, 10.0, None, None]
    children = [["a", 1.0, 3.0, 0, None], ["b", 2.0, 4.0, 0, None], ["c", 6.0, 7.0, 0, None]]
    assert tracing._self_time(span, children) == pytest.approx(6.0)


def _traced_fit(tracer):
    import workloads

    train = gen_train("f2")
    part = uniform_partition(train.domain, (3, 3, 3))
    originals = {p: getattr(__import__(p[0], fromlist=["_"]), p[1], None)
                 for p in tracing.PATCHES}
    tracer.install()
    root = tracer.begin_pass()
    try:
        workloads.fit(train, part, FitConfig(alphas=ALPHAS))
    finally:
        tracer.end_pass(root)
        tracer.uninstall()
    for p, fn in originals.items():
        assert getattr(__import__(p[0], fromlist=["_"]), p[1], None) is fn
    return tracing.pass_metrics(tracer.spans, root, tracer.installed)


def test_tracer_records_layers_and_restores_names():
    m = _traced_fit(tracing.Tracer())
    assert m["trainer.cells"][0] == 27
    assert m["linsolve.solves"][0] == 27
    assert m["model.feature_rows_per_train_row"][0] == pytest.approx(3.0)
    assert m["model.cells_visited_per_forward"][0] == 27
    assert m["partition.locate_many_rows"][0] == 16000  # routing and the train-MSE forward
    assert 0 < m["trainer.fit_self_s"][0] < m["trainer.fit_s"][0]


def test_tracer_skips_a_name_that_is_gone(monkeypatch):
    patches = [p for p in tracing.PATCHES if p[1] != "solve_spd"]
    patches.append(("pairnet.trainer", "no_longer_here", "linsolve.solve_spd", None))
    monkeypatch.setattr(tracing, "PATCHES", tuple(patches))
    tracer = tracing.Tracer()
    m = _traced_fit(tracer)
    assert tracer.missing == ["pairnet.trainer.no_longer_here"]
    assert not any(name.startswith("linsolve.") for name in m)
    assert m["trainer.cells"][0] == 27


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_grid",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
