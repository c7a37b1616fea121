"""Closed-form per-cell fitting: normal equations, policies, reports."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_box, sample_box
from reference_fit import reference_fit
from reference_routing import cell_box, cell_rows
from pairnet.activation import ActivationKind
from pairnet.datasets import Dataset
from pairnet.linsolve import solve_spd
from pairnet.model import (
    LocalPairNet,
    _quadratic_map,
    cell_boxes,
    feature_matrix,
    local_forward,
)
from pairnet.partition import (
    Interval,
    Partition,
    random_partition,
    uniform_partition,
)
from pairnet.selection import SelectionConfig
from pairnet.trainer import (
    FitConfig,
    InsufficientDataError,
    SubspaceFitError,
    fit,
    min_rows_threshold,
    mse,
)

BOX2 = (Interval(0.0, 2.0), Interval(1.0, 3.0))


def _boxes(model):
    """Each cell's box as a tuple of Intervals, read from the model's
    (n, M) box arrays."""
    lo, hi = cell_boxes(model.partition, model.activation_scope)
    return [tuple(map(Interval, a, b)) for a, b in zip(lo.T.tolist(), hi.T.tolist())]


def _cell_intervals(partition, j):
    """Cell j's box as a tuple of Intervals, from the reference's breakpoints."""
    return tuple(map(Interval, *cell_box(partition, j)))


def _realizable(make_local, n_rows, seed, noise=0.0):
    """Targets generated by a known local net over BOX2 on well-spread
    points."""
    gen_net = make_local(n=2, seed=41)
    X = sample_box(BOX2, n_rows, seed=seed)
    y = local_forward(gen_net, X, as_box(BOX2))
    if noise:
        y = y + noise * np.random.default_rng(seed + 1).normal(size=n_rows)
    return gen_net, X, y


class TestThreshold:
    @pytest.mark.parametrize("n,rows", [(1, 4), (2, 8), (3, 16)])
    def test_minimum_rows(self, n, rows):
        assert min_rows_threshold(n) == rows


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="min_rows_policy"):
            FitConfig(alphas=(1.0,), min_rows_policy="skip")
        with pytest.raises(ValueError, match="activation_scope"):
            FitConfig(alphas=(1.0,), activation_scope="cell")
        with pytest.raises(ValueError, match="ridge"):
            FitConfig(alphas=(1.0,), ridge=-0.1)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_non_finite_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite"):
            FitConfig(alphas=(1.0,), ridge=ridge)

    def test_alphas_coerced_to_floats(self):
        cfg = FitConfig(alphas=np.array([0.25, 0.75]))
        assert cfg.alphas == (0.25, 0.75)

    @pytest.mark.parametrize("alphas,match", [
        ((np.nan, 1.0), "lie in"), ((0.5, np.nan), "lie in"), ((np.inf, 0.0), "lie in"),
        ((-np.inf, 1.0), "lie in"), ((-0.5, 1.5), "lie in"), ((0.3, 0.3), "sum to 1"),
    ])
    @pytest.mark.parametrize("make", [
        lambda a: FitConfig(alphas=a),
        lambda a: SelectionConfig(candidates=1, alphas=a),
        lambda a: LocalPairNet(alphas=a, c=np.zeros(4), gamma=np.zeros(4)),
    ], ids=["FitConfig", "SelectionConfig", "LocalPairNet"])
    def test_bad_alphas_refused_at_construction(self, make, alphas, match):
        """A NaN fails every comparison, so each check is written to fail
        on it; the error names the alphas."""
        with pytest.raises(ValueError, match=f"alphas must {match}"):
            make(alphas)


def _fit_one_cell(X, y, box, config, counts=None):
    """Fit a partition of ``box`` (one cell unless ``counts`` says
    otherwise) and return the local net of its first cell."""
    part = uniform_partition(box, counts or (1,) * len(box))
    model, _ = fit(Dataset(X, y, box), part, config)
    return model.locals[0]


class TestFitLocal:
    """One cell's solve, through fit on a one-cell partition."""

    def test_recovers_generating_network(self, make_local):
        gen_net, X, y = _realizable(make_local, 200, seed=7)
        fitted = _fit_one_cell(X, y, BOX2, FitConfig(alphas=gen_net.alphas))
        X_held = sample_box(BOX2, 200, seed=8)
        rms = np.sqrt(np.mean((local_forward(fitted, X_held, as_box(BOX2))
                               - local_forward(gen_net, X_held, as_box(BOX2))) ** 2))
        assert rms <= 1e-8

    def test_matches_per_row_normal_equations(self, make_local):
        """The streaming Gram accumulation equals a naive per-row build."""
        gen_net, X, y = _realizable(make_local, 60, seed=9, noise=0.3)
        cfg = FitConfig(alphas=gen_net.alphas)
        fitted = _fit_one_cell(X, y, BOX2, cfg)

        d = 8
        G = np.zeros((d, d))
        r = np.zeros(d)
        probe = dataclasses.replace(gen_net, c=np.zeros(4), gamma=np.zeros(4))
        for phi, y_i in zip(feature_matrix(probe, X, as_box(BOX2)), y):
            G += np.outer(phi, phi)
            r += phi * y_i
        p, _ = solve_spd(G, r, cfg.ridge)
        np.testing.assert_allclose(
            local_forward(fitted, X, as_box(BOX2)), feature_matrix(probe, X, as_box(BOX2)) @ p,
            rtol=1e-9, atol=1e-9
        )

    def test_insufficient_rows_policies(self, make_local):
        gen_net, X, y = _realizable(make_local, 7, seed=3)  # threshold is 8
        with pytest.raises(SubspaceFitError, match="7 rows < 8") as info:
            _fit_one_cell(X, y, BOX2, FitConfig(alphas=gen_net.alphas, min_rows_policy="error"))
        assert isinstance(info.value.__cause__, InsufficientDataError)
        fitted = _fit_one_cell(X, y, BOX2, FitConfig(alphas=gen_net.alphas))
        assert fitted.fallback_mean == pytest.approx(float(np.mean(y)))
        assert local_forward(fitted, X[0], as_box(BOX2)) == fitted.fallback_mean

    def test_empty_cell_falls_back_to_zero(self, make_local):
        """fit refuses an empty dataset, so the empty cell is the lower
        half of a box whose rows all lie in the upper half."""
        gen_net = make_local(n=2)
        upper = (Interval(BOX2[0].mid, BOX2[0].hi), BOX2[1])
        X = sample_box(upper, 20, seed=2)
        fitted = _fit_one_cell(X, np.ones(20), BOX2,
                               FitConfig(alphas=gen_net.alphas), counts=(2, 1))
        assert fitted.fallback_mean == 0.0


class TestFit:
    def _dataset(self, n_rows=600, seed=5):
        gen = np.random.default_rng(seed)
        X = np.column_stack([gen.uniform(iv.lo, iv.hi, n_rows) for iv in BOX2])
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
        return Dataset(X, y, BOX2)

    def test_report_accounts_for_every_row(self):
        ds = self._dataset()
        model, report = fit(ds, uniform_partition(BOX2, (3, 2)), FitConfig(alphas=(0.4, 0.6)))
        assert report.n_rows == len(ds)
        assert len(report.subspaces) == 6
        assert report.fit_seconds > 0.0
        assert all(s.sse >= 0.0 for s in report.subspaces)

    @pytest.mark.parametrize("n_rows,counts,cfg", [
        (600, (2, 2), FitConfig(alphas=(0.5, 0.5))),
        (40, (4, 4), FitConfig(alphas=(0.5, 0.5))),  # fallback and empty cells
        (600, (3, 2), FitConfig(alphas=(0.3, 0.7), activation_scope="domain")),
        (600, (2, 3), FitConfig(alphas=(0.6, 0.4), activation=ActivationKind("sigmoid", 6.0))),
    ], ids=["subspace", "fallback_and_empty", "domain_scope", "sigmoid"])
    def test_train_mse_matches_eval_exactly(self, n_rows, counts, cfg):
        """The reported training MSE is the same number a later
        evaluation of the model on the training data produces."""
        ds = self._dataset(n_rows=n_rows)
        model, report = fit(ds, uniform_partition(BOX2, counts), cfg)
        if n_rows == 40:
            assert any(s.fallback and s.n_rows for s in report.subspaces)
            assert any(s.n_rows == 0 for s in report.subspaces)
        assert report.train_mse == mse(model, ds)

    def test_cell_sses_sum_to_train_mse(self):
        ds = self._dataset()
        model, report = fit(ds, uniform_partition(BOX2, (2, 2)), FitConfig(alphas=(0.5, 0.5)))
        assert sum(s.sse for s in report.subspaces) / len(ds) == pytest.approx(
            report.train_mse, rel=1e-12
        )

    def test_refinement_never_hurts_with_domain_scope(self):
        """A model fit on partition P stays realizable after splitting one
        interval when activations normalize over the domain, so the finer
        fit cannot be worse."""
        ds = self._dataset(n_rows=900)
        cfg = FitConfig(alphas=(0.3, 0.7), ridge=0.0, activation_scope="domain")
        _, coarse = fit(ds, uniform_partition(BOX2, (2, 2)), cfg)
        edges = uniform_partition(BOX2, (2, 2)).edges
        refined = (tuple(sorted(edges[0] + (0.7,))), edges[1])
        from pairnet.partition import Partition

        _, fine = fit(ds, Partition(refined), cfg)
        assert fine.train_mse <= coarse.train_mse + 1e-9

    def test_domain_scope_is_exactly_realizable_across_cells(self, make_local):
        """Targets produced by a single whole-domain net are matched to
        machine precision by every cell of a domain-scoped fit."""
        gen_net = make_local(n=2, seed=13)
        X = sample_box(BOX2, 800, seed=14)
        ds = Dataset(X, local_forward(gen_net, X, as_box(BOX2)), BOX2)
        cfg = FitConfig(alphas=gen_net.alphas, activation_scope="domain")
        model, report = fit(ds, uniform_partition(BOX2, (2, 3)), cfg)
        assert report.train_mse <= 1e-16
        assert _boxes(model) == [BOX2] * 6

    def test_subspace_scope_records_cells(self):
        ds = self._dataset()
        part = uniform_partition(BOX2, (2, 2))
        model, _ = fit(ds, part, FitConfig(alphas=(0.5, 0.5)))
        assert _boxes(model) == [_cell_intervals(part, j) for j in range(part.size)]

    def test_error_policy_names_the_subspace(self):
        ds = self._dataset(n_rows=20)  # 3x3 cells get ~2 rows each
        with pytest.raises(SubspaceFitError, match=r"subspace \d+ \(\d+, \d+\)"):
            fit(ds, uniform_partition(BOX2, (3, 3)),
                FitConfig(alphas=(0.5, 0.5), min_rows_policy="error"))

    def test_fallback_policy_covers_sparse_cells(self):
        ds = self._dataset(n_rows=20)
        model, report = fit(ds, uniform_partition(BOX2, (3, 3)), FitConfig(alphas=(0.5, 0.5)))
        assert any(s.fallback for s in report.subspaces)
        # fallback cells predict a constant
        for j, s in enumerate(report.subspaces):
            if s.fallback:
                assert model.locals[j].fallback_mean is not None

    def test_input_validation(self):
        ds = self._dataset()
        part = uniform_partition(BOX2, (2, 2))
        with pytest.raises(ValueError, match="empty"):
            fit(Dataset(np.empty((0, 2)), np.empty(0), BOX2), part,
                FitConfig(alphas=(0.5, 0.5)))
        with pytest.raises(ValueError, match="alphas"):
            fit(ds, part, FitConfig(alphas=(1.0,)))
        with pytest.raises(ValueError, match="dims"):
            fit(ds, uniform_partition((BOX2[0],), (2,)), FitConfig(alphas=(1.0,)))

    def test_overflowing_targets_raise_instead_of_nan_parameters(self):
        """Finite targets whose squares overflow would solve to NaN
        parameters; the dataset refuses them first, naming the row. The
        largest targets it accepts fit to a finite model whose train MSE
        is mse's, bitwise."""
        X = np.random.default_rng(0).uniform(0.0, 1.0, size=(200, 1))
        with pytest.raises(ValueError, match=r"row 0 .*y=1\.7e\+308, whose square overflows"):
            Dataset(X, np.full(200, 1.7e308), (Interval(0.0, 1.0),))
        for value in (1e150, 1.3e154):
            ds = Dataset(X, np.full(200, value), (Interval(0.0, 1.0),))
            model, report = fit(ds, uniform_partition(ds.domain, (1,)), FitConfig(alphas=(1.0,)))
            assert np.isfinite(model.locals[0].params).all()
            assert report.train_mse == mse(model, ds)

    def test_provenance_records_the_recipe(self):
        ds = self._dataset()
        model, _ = fit(ds, uniform_partition(BOX2, (2, 2)),
                       FitConfig(alphas=(0.25, 0.75), activation_scope="domain"))
        prov = model.provenance
        assert prov["alphas"] == [0.25, 0.75]
        assert prov["activation"] == "linear"
        assert prov["activation_scope"] == "domain"
        # no wall clock or timestamps: saved models must be byte-identical
        # across equal-seed runs
        assert set(prov) == {"alphas", "activation", "activation_scope"}


def _outcome(dataset, partition, config, fitter):
    """(model, report) of a fit, or the SubspaceFitError it raised."""
    try:
        return fitter(dataset, partition, config)
    except SubspaceFitError as exc:
        return exc


# fit and the reference solve the same cells by different arithmetic, so
# their SSEs agree only to the reference's own rounding noise. Fitting
# the reference on permuted rows moved a cell's SSE by up to 1.0e-7 of
# the cell's sum of y^2, and the training MSE by up to 7.3e-8 relative,
# over 9,400 random cases of test_fit_matches_reference's kind (the
# worst ones domain-scoped cells that see a sliver of the domain box).
_SSE_TOL = 1e-6    # of the cell's sum of y^2
_MSE_RTOL = 1e-6


def _row_space(alphas):
    """Orthonormal rows spanning T's row space, from an SVD of T with its
    rows scaled to unit norm (which keeps the space and its rank)."""
    T = _quadratic_map(np.asarray(alphas))[0]
    return np.linalg.svd(T / np.linalg.norm(T, axis=1, keepdims=True),
                         full_matrices=False)[2]


def assert_solves_full_system(local, X, y, ridge, box, activation):
    """The parameters solve the full 2^(n+1)-wide ridge normal equations
    (G + ridge I) p = r of the features over box (a tuple of Intervals)
    to a normwise backward error of 1e-13, and lie in T's row space to
    1e-12 relative."""
    phi = feature_matrix(local, X, as_box(box), activation)
    A = phi.T @ phi + ridge * np.eye(phi.shape[1])
    r = phi.T @ y
    p = local.params
    backward = np.linalg.norm(A @ p - r) / (np.linalg.norm(A, 2) * np.linalg.norm(p)
                                            + np.linalg.norm(r))
    assert backward <= 1e-13
    V = _row_space(local.alphas)
    assert np.linalg.norm(p - V.T @ (V @ p)) <= 1e-12 * np.linalg.norm(p)


class TestSolvesTheFullSystem:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 10**6),
           a0=st.sampled_from([None, 0.0, 1e-12]),
           tag=st.sampled_from(["linear", "sigmoid"]),
           scope=st.sampled_from(["subspace", "domain"]),
           ridge=st.sampled_from([None, 0.0, 1e-3]))
    def test_parameters_solve_the_full_ridge_system(self, n, seed, a0, tag, scope, ridge):
        """Each solved cell's (c, gamma), fit in the quadratic basis,
        solves the full features' ridge normal equations and lies in T's
        row space, also with an alpha on or near a face of the simplex."""
        gen = np.random.default_rng(seed)
        alphas = gen.dirichlet(np.ones(n))
        if a0 is not None and n > 1:
            alphas[1:] *= (1.0 - a0) / alphas[1:].sum()
            alphas[0] = a0
        domain = tuple(Interval(-1.0 - i, 2.0 + gen.uniform(0.0, 3.0)) for i in range(n))
        partition = random_partition(domain, (1, 2), gen)
        rows = int(gen.integers(1, 8 * 2 ** (n + 1) * partition.size))
        X = np.column_stack([gen.uniform(iv.lo, iv.hi, rows) for iv in domain])
        y = np.cos(X.sum(axis=1)) * X[:, 0] + 0.1 * gen.normal(size=rows)
        dataset = Dataset(X, y, domain)
        config = FitConfig(alphas=alphas, activation=ActivationKind(tag), ridge=ridge,
                           activation_scope=scope)
        model, report = fit(dataset, partition, config)
        for mine, local, cell, box in zip(cell_rows(partition, X), model.locals,
                                          report.subspaces, _boxes(model)):
            if not cell.fallback:
                assert_solves_full_system(local, X[mine], y[mine], cell.ridge, box,
                                          model.activation)


class TestMatchesPerCellReference:
    """fit's blocked sweeps in the quadratic basis against the plain
    per-cell fit of the full features in tests/reference_fit.py."""

    def _assert_same_fit(self, fast, ref, dataset, config):
        (model, report), (ref_model, ref_report) = fast, ref
        assert [s.fallback for s in report.subspaces] == [s.fallback for s in ref_report.subspaces]
        assert [s.n_rows for s in report.subspaces] == [s.n_rows for s in ref_report.subspaces]
        assert (model.activation_scope, model.activation) == (config.activation_scope,
                                                              config.activation)
        part = model.partition
        boxes = _boxes(model)
        assert boxes == [_cell_intervals(part, j) if config.activation_scope == "subspace"
                         else part.domain for j in range(part.size)]
        for rows, loc, want, cell, want_cell, box in zip(
                cell_rows(model.partition, dataset.X), model.locals, ref_model.locals,
                report.subspaces, ref_report.subspaces, boxes):
            assert loc.fallback_mean == want.fallback_mean
            y = dataset.y[rows]
            assert abs(cell.sse - want_cell.sse) <= _SSE_TOL * float(y @ y)
            if cell.fallback:
                continue
            assert cell.escalations == 0
            if config.ridge is None:
                assert cell.ridge == pytest.approx(want_cell.ridge, rel=1e-12)
            else:
                assert cell.ridge == config.ridge
            assert_solves_full_system(loc, dataset.X[rows], y, cell.ridge, box, config.activation)
        assert abs(report.train_mse - ref_report.train_mse) <= _MSE_RTOL * ref_report.train_mse
        assert report.train_mse == mse(model, dataset)

    def test_cells_larger_than_a_gram_chunk(self):
        """A cell of more than 4096 rows is summed in chunks from its
        first row, and later cells straddle row 8192 of the sorted rows,
        between short and empty cells."""
        gen = np.random.default_rng(11)
        crowd = np.column_stack([gen.uniform(0.0, 0.9, 6000), gen.uniform(1.0, 1.9, 6000)])
        spread = np.column_stack([gen.uniform(0.0, 1.8, 3000), gen.uniform(1.0, 2.8, 3000)])
        X = np.vstack([crowd, spread, [[1.9, 2.9]] * 3])
        dataset = Dataset(X, np.sin(X[:, 0]) * X[:, 1], BOX2)
        partition = Partition(((0.0, 1.0, 1.85, 2.0), (1.0, 2.0, 2.85, 3.0)))
        config = FitConfig(alphas=(0.4, 0.6))
        fast = fit(dataset, partition, config)
        counts = [s.n_rows for s in fast[1].subspaces]
        starts = np.cumsum([0] + counts)
        assert max(counts) > 4096 and 0 in counts and any(0 < c < 8 for c in counts)
        assert any(a < 8192 < b for a, b in zip(starts, starts[1:]))
        self._assert_same_fit(fast, reference_fit(dataset, partition, config), dataset, config)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 10**6),
           scope=st.sampled_from(["subspace", "domain"]),
           tag=st.sampled_from(["linear", "sigmoid"]),
           policy=st.sampled_from(["fallback_mean", "error"]),
           ridge=st.sampled_from([None, 0.0]))
    def test_fit_matches_reference(self, n, seed, scope, tag, policy, ridge):
        gen = np.random.default_rng(seed)
        domain = tuple(Interval(-1.0 - i, 2.0 + gen.uniform(0.0, 3.0)) for i in range(n))
        partition = random_partition(domain, (1, 4), gen)
        # Skewed points leave some cells crowded, some short and some empty.
        rows = int(gen.integers(1, 60 * 2**n))
        X = np.column_stack([iv.lo + iv.width * gen.beta(0.6, 1.5, rows) for iv in domain])
        y = np.sin(X.sum(axis=1)) + X[:, 0] * X[:, -1] + 0.1 * gen.normal(size=rows)
        dataset = Dataset(X, y, domain)
        config = FitConfig(alphas=gen.dirichlet(np.ones(n)), activation=ActivationKind(tag),
                           ridge=ridge, min_rows_policy=policy, activation_scope=scope)

        fast = _outcome(dataset, partition, config, fit)
        ref = _outcome(dataset, partition, config, reference_fit)
        if isinstance(ref, Exception):
            assert type(fast) is type(ref) and str(fast) == str(ref)
            assert type(fast.__cause__) is type(ref.__cause__)
            assert str(fast.__cause__) == str(ref.__cause__)
            return
        self._assert_same_fit(fast, ref, dataset, config)
