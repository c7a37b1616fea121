"""Acceptance gate: nine behavioral guarantees, one printed verdict each.

Every test computes a boolean plus a measured detail string and pushes it
through the ``verdict`` fixture, which prints `[ACCEPTANCE k] PASS/FAIL ...`
straight to the terminal (bypassing capture) before asserting.
"""

import dataclasses
import time

import numpy as np
import pytest
from conftest import as_box, default_box, sample_box

from pairnet.activation import LINEAR
from pairnet.baseline_mlp import MLPConfig, loss_and_grads, mlp_train
from pairnet.cli import TABLE2_ALPHAS, _write_rows, table2_rows
from pairnet.datasets import Dataset, gen_test, gen_train
from pairnet.model import LocalPairNet, feature_matrix, forward, local_forward
from pairnet.partition import Interval, Partition, locate_many, uniform_partition
from pairnet.persistence import load_model, save_model
from pairnet.selection import SelectionConfig, select_model
from pairnet.trainer import FitConfig, fit, min_rows_threshold, mse
from reference_routing import cell_box, cell_rows

TAGS = ("f1", "f2", "f3")


@pytest.fixture
def verdict(capfd):
    def emit(index: int, ok: bool, detail: str) -> None:
        line = f"[ACCEPTANCE {index}] {'PASS' if ok else 'FAIL'} {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(scope="module")
def benchmarks():
    return {tag: (gen_train(tag), gen_test(tag)) for tag in TAGS}


@pytest.fixture(scope="module")
def mlp_f2(benchmarks):
    """One 500-epoch default-config backprop run on f2, shared by 7 and 8."""
    train, _ = benchmarks["f2"]
    return mlp_train(train, MLPConfig())


def test_1_dataset_fidelity(verdict):
    spans = {"f1": (4.248, 55.833), "f2": (2.0, 66.023), "f3": (16.0, 1969.527)}
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for tag, (lo, hi) in spans.items():
        train, test = gen_train(tag), gen_test(tag)
        ok &= len(train) == 8000 and len(test) == 6859
        max_tol = 1e-1 if tag == "f3" else 1e-2
        d_lo = abs(float(train.y.min()) - lo)
        d_hi = abs(float(train.y.max()) - hi)
        ok &= d_lo <= 1e-2 and d_hi <= max_tol
        worst = max(worst, d_lo, d_hi / (max_tol / 1e-2))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"dataset fidelity: rows 8000/6859, worst span deviation "
                   f"{worst:.2e} (scaled to the 1e-2 budget), {elapsed:.2f}s")


def test_2_first_order_optimality(verdict, benchmarks):
    train, _ = benchmarks["f1"]
    t0 = time.perf_counter()
    part = uniform_partition(train.domain, (3, 3, 3))
    model, report = fit(train, part, FitConfig(alphas=(0.1, 0.1, 0.8)))
    assert not any(s.fallback for s in report.subspaces)
    groups = cell_rows(part, train.X)
    worst_ratio = 0.0
    for j, local in enumerate(model.locals):
        X, y = train.X[groups[j]], train.y[groups[j]]
        box = cell_box(part, j)

        def objective(c, gamma):
            probe = dataclasses.replace(local, c=c, gamma=gamma)
            resid = local_forward(probe, X, box) - y
            return float(resid @ resid)

        q0 = objective(local.c, local.gamma)
        tol = 1e-5 * max(1.0, q0)
        for block in ("c", "gamma"):
            base = getattr(local, block).copy()
            for i in range(base.size):
                h = 1e-4 * max(1.0, abs(base[i]))
                plus, minus = base.copy(), base.copy()
                plus[i] += h
                minus[i] -= h
                if block == "c":
                    deriv = (objective(plus, local.gamma)
                             - objective(minus, local.gamma)) / (2 * h)
                else:
                    deriv = (objective(local.c, plus)
                             - objective(local.c, minus)) / (2 * h)
                worst_ratio = max(worst_ratio, abs(deriv) / tol)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and elapsed < 30.0
    verdict(2, ok, f"first-order optimality: worst |dQ/dp| at "
                   f"{worst_ratio:.2e} of the 1e-5*max(1,Q) budget, {elapsed:.1f}s")


def _gd_predictions(Phi, y, max_iter=300_000):
    """Steepest descent with exact line search on ||Phi p - y||^2, from 0."""
    G = Phi.T @ Phi
    r = Phi.T @ y
    p = np.zeros(Phi.shape[1])
    gtol = 1e-13 * max(1.0, float(np.abs(r).max()))
    for _ in range(max_iter):
        g = G @ p - r
        if float(np.abs(g).max()) <= gtol:
            break
        denom = float(g @ (G @ g))
        if denom <= 0.0:
            break
        p -= (float(g @ g) / denom) * g
    return Phi @ p


def test_3_oracle_equivalence(verdict):
    box = (Interval(0.5, 2.0), Interval(1.0, 3.0))
    alphas = (0.4, 0.6)
    probe = LocalPairNet(alphas=alphas, c=np.zeros(4), gamma=np.zeros(4))
    worst_gd = worst_pinv = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        X = np.column_stack([rng.uniform(iv.lo, iv.hi, size=50) for iv in box])
        y = np.sin(2.0 * X[:, 0]) + np.sqrt(X[:, 1]) + 0.05 * rng.normal(size=50)
        model, _ = fit(Dataset(X, y, box), uniform_partition(box, (1, 1)),
                       FitConfig(alphas=alphas))
        closed = forward(model, X)
        Phi = feature_matrix(probe, X, as_box(box), LINEAR)
        gd = _gd_predictions(Phi, y)
        pinv = Phi @ (np.linalg.pinv(Phi) @ y)
        worst_gd = max(worst_gd, float(np.sqrt(np.mean((closed - gd) ** 2))))
        worst_pinv = max(worst_pinv, float(np.sqrt(np.mean((closed - pinv) ** 2))))
    ok = worst_gd <= 1e-6 and worst_pinv <= 1e-8
    verdict(3, ok, f"oracle equivalence: closed form vs gradient descent "
                   f"{worst_gd:.2e} RMS (<= 1e-6), vs pseudo-inverse "
                   f"{worst_pinv:.2e} RMS (<= 1e-8)")


def test_4_exact_recovery(verdict, make_local):
    truth = make_local(n=3, seed=9)
    box = default_box(3)
    X = sample_box(box, 200, seed=10)
    held_out = sample_box(box, 200, seed=11)
    model, _ = fit(Dataset(X, local_forward(truth, X, as_box(box)), box),
                   uniform_partition(box, (1, 1, 1)),
                   FitConfig(alphas=tuple(truth.alphas)))
    rms = float(np.sqrt(np.mean(
        (forward(model, held_out) - local_forward(truth, held_out, as_box(box))) ** 2)))
    verdict(4, rms <= 1e-8, f"exact recovery: held-out RMS {rms:.2e} (<= 1e-8)")


def _split_one_interval(part, dim, t):
    edges = [list(e) for e in part.edges]
    edges[dim] = sorted(edges[dim] + [t])
    return Partition(tuple(tuple(e) for e in edges))


def test_5_nested_refinement_monotonicity(verdict, benchmarks):
    # Exact nesting needs domain-scoped activations; see notes on scope.
    config = FitConfig(alphas=(0.1, 0.1, 0.8), ridge=0.0,
                       activation_scope="domain", min_rows_policy="error")
    threshold = min_rows_threshold(3)
    rng = np.random.default_rng(2026)
    worst = -np.inf
    for tag in TAGS:
        train, _ = benchmarks[tag]
        done = attempts = 0
        while done < 20:
            attempts += 1
            assert attempts < 500, "could not draw enough populated splits"
            counts = tuple(int(m) for m in rng.integers(2, 5, size=3))
            part = uniform_partition(train.domain, counts)
            dim = int(rng.integers(3))
            cell = int(rng.integers(counts[dim]))
            lo, hi = part.edges[dim][cell], part.edges[dim][cell + 1]
            t = float(rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)))
            refined = _split_one_interval(part, dim, t)
            if any(np.bincount(locate_many(p, train.X), minlength=p.size).min()
                   < threshold for p in (part, refined)):
                continue
            _, before = fit(train, part, config)
            _, after = fit(train, refined, config)
            worst = max(worst, after.train_mse - before.train_mse)
            done += 1
    ok = worst <= 1e-9
    verdict(5, ok, f"nested refinement: worst train-MSE increase {worst:.2e} "
                   f"over 60 split cases (<= 1e-9)")


# Reference f2 train MSEs for the eight sweep partitions, coarse to fine.
F2_TRAIN_REFERENCE = (0.1713, 0.1091, 0.0348, 0.0253, 0.0111, 0.0065, 0.0041, 0.0018)


def test_6_partition_sweep_trend(verdict, tmp_path):
    t0 = time.perf_counter()
    rows = table2_rows()
    fieldnames = ["partition", "subspaces"]
    for tag in TAGS:
        fieldnames += [f"{tag}_train_mse", f"{tag}_test_mse"]
    out = tmp_path / "table2.csv"
    _write_rows(out, fieldnames, rows)
    elapsed = time.perf_counter() - t0

    ok = len(rows) == 8
    for tag in TAGS:
        ok &= rows[-1][f"{tag}_train_mse"] < rows[0][f"{tag}_train_mse"]
        ok &= rows[-1][f"{tag}_test_mse"] < rows[0][f"{tag}_test_mse"]
    ratios = [row["f2_train_mse"] / ref
              for row, ref in zip(rows, F2_TRAIN_REFERENCE)]
    within = sum(0.1 <= ratio <= 10.0 for ratio in ratios)
    ok &= within >= 6 and elapsed < 120.0
    verdict(6, ok, f"partition sweep: 6-6-6 below 2-2-2 on train and test for "
                   f"all functions, {within}/8 f2 train rows within one order "
                   f"of the reference, {elapsed:.1f}s (csv: {out})")


def test_7_fit_speed(verdict, benchmarks, mlp_f2):
    train, _ = benchmarks["f2"]
    _, report = fit(train, uniform_partition(train.domain, (6, 6, 6)),
                    FitConfig(alphas=TABLE2_ALPHAS))
    _, _, mlp_seconds = mlp_f2
    ratio = mlp_seconds / report.fit_seconds
    ok = report.fit_seconds < 10.0 and ratio >= 10.0
    verdict(7, ok, f"fit speed: 8000 rows at 6-6-6 in {report.fit_seconds:.3f}s "
                   f"single-threaded (< 10s), {ratio:.0f}x faster than the "
                   f"500-epoch backprop baseline ({mlp_seconds:.1f}s)")


def test_8_baseline_soundness(verdict, mlp_f2):
    rng = np.random.default_rng(5)
    X = rng.uniform(0.5, 2.0, size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + np.sin(X[:, 0])
    ds = Dataset(X, y, tuple(Interval(0.5, 2.0) for _ in range(3)))
    net, _, _ = mlp_train(ds, MLPConfig(hidden=(5, 3), epochs=1, seed=3))

    _, grads_W, grads_b = loss_and_grads(net, X, y)
    worst = 0.0
    h = 1e-6
    for which, grads in (("weights", grads_W), ("biases", grads_b)):
        for layer, grad in enumerate(grads):
            for idx in np.ndindex(*getattr(net, which)[layer].shape):
                shifted = {}
                for sign in (+1.0, -1.0):
                    arrays = [a.copy() for a in getattr(net, which)]
                    arrays[layer][idx] += sign * h
                    probe = dataclasses.replace(net, **{which: tuple(arrays)})
                    shifted[sign] = loss_and_grads(probe, X, y)[0]
                fd = (shifted[+1.0] - shifted[-1.0]) / (2 * h)
                an = grad[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                worst = max(worst, rel)

    _, history, _ = mlp_f2
    stable = len(history) == 500 and bool(np.all(np.isfinite(history)))
    ok = worst <= 1e-5 and stable
    verdict(8, ok, f"baseline soundness: worst gradient relative error "
                   f"{worst:.2e} (<= 1e-5), 500-epoch run divergence-free "
                   f"(final MSE {history[-1]:.4f})")


def test_9_determinism_and_persistence(verdict, benchmarks, tmp_path):
    train, test = benchmarks["f2"]
    idx = np.random.default_rng(21).choice(len(train), size=1200, replace=False)
    ds = Dataset(train.X[idx], train.y[idx], train.domain)
    config = SelectionConfig(candidates=3, seed=42)
    model_a, board_a = select_model(ds, config)
    model_b, board_b = select_model(ds, config)
    board_a.to_csv(tmp_path / "a.csv")
    board_b.to_csv(tmp_path / "b.csv")
    save_model(model_a, tmp_path / "a.json")
    save_model(model_b, tmp_path / "b.json")

    same_models = model_a == model_b
    same_boards = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    same_files = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    restored = load_model(tmp_path / "a.json")
    same_forward = np.array_equal(forward(restored, test.X), forward(model_a, test.X))
    ok = same_models and same_boards and same_files and same_forward
    verdict(9, ok, f"determinism and persistence: models identical {same_models}, "
                   f"leaderboards byte-identical {same_boards}, model files "
                   f"byte-identical {same_files}, reloaded forward exact {same_forward}")
