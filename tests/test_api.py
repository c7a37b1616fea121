"""The package's public names: each resolves, none twice, no solver internals."""

import pairnet


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


def test_export_count():
    assert len(pairnet.__all__) == 54
