"""The package's public names: each resolves, none twice, no internals,
and every name the benchmark imports from the package still resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import pairnet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Layer-level and helper functions that left the package namespace; each
# stays importable from its module.
REMOVED = {
    "activation": ("pair_activation",),
    "baseline_mlp": ("history_to_csv",),
    "model": ("layer2_weights", "betas", "feature_row", "scope_boxes"),
}
MODULE_ONLY = {
    "baseline_mlp": ("loss_and_grads",),
    "model": ("feature_matrix", "local_forward"),
    "partition": ("locate", "locate_many", "route"),
    "selection": ("sample_alpha_simplex",),
    "trainer": ("min_rows_threshold",),
}


def test_every_exported_name_resolves():
    for name in pairnet.__all__:
        assert hasattr(pairnet, name), name


def test_no_name_listed_twice():
    assert len(set(pairnet.__all__)) == len(pairnet.__all__)


def test_solver_internals_not_exported():
    for name in ("DenseSystem", "SolveDiagnostics", "auto_ridge", "solve_spd"):
        assert name not in pairnet.__all__
        assert not hasattr(pairnet, name)
    assert "SingularSystemError" in pairnet.__all__


def test_partition_encode_is_gone():
    """Routing has one implementation, locate_many; decode stays."""
    assert not hasattr(pairnet.Partition, "encode")
    assert callable(pairnet.Partition.decode)


def test_partition_cell_views_are_gone():
    """A partition is its breakpoints: boxes come from model.cell_boxes."""
    for name in ("cells", "cell", "intervals"):
        assert not hasattr(pairnet.Partition, name), name
    assert callable(pairnet.model.cell_boxes)
    assert isinstance(pairnet.Partition.domain, property)


def test_export_count():
    assert len(pairnet.__all__) == 41


@pytest.mark.parametrize("module,names", [*REMOVED.items(), *MODULE_ONLY.items()])
def test_removed_names_are_not_in_the_package(module, names):
    for name in names:
        assert name not in pairnet.__all__
        assert not hasattr(pairnet, name), name


@pytest.mark.parametrize("module,names", REMOVED.items())
def test_deleted_functions_are_gone(module, names):
    mod = importlib.import_module(f"pairnet.{module}")
    for name in names:
        assert not hasattr(mod, name), f"pairnet.{module}.{name}"


@pytest.mark.parametrize("module,names", MODULE_ONLY.items())
def test_module_only_names_stay_importable(module, names):
    mod = importlib.import_module(f"pairnet.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"pairnet.{module}.{name}"
        assert name in mod.__all__


def _package_imports(path):
    """The names of every ``from pairnet import ...`` in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "pairnet" and node.level == 0
            for alias in node.names]


@pytest.mark.parametrize("filename", ["workloads.py", "test_perfbench.py"])
def test_benchmark_package_imports_resolve(filename):
    """``from pairnet import x`` binds a package attribute or a submodule."""
    names = _package_imports(PERFBENCH / filename)
    assert names
    for name in names:
        if not hasattr(pairnet, name):
            importlib.import_module(f"pairnet.{name}")
