"""Random-search selection: determinism, argmin contract, holdout refit."""

import hashlib

import numpy as np
import pytest

import pairnet.selection as selection_mod
from pairnet.datasets import Dataset, gen_train
from pairnet.partition import Interval
from pairnet.persistence import save_model
from pairnet.selection import (
    Leaderboard,
    SelectionConfig,
    sample_alpha_simplex,
    select_model,
)
from pairnet.trainer import FitConfig, SubspaceFitError, fit, mse


@pytest.fixture(scope="module")
def small_f2():
    """A 1000-row slice of the f2 training grid (keeps fits quick)."""
    full = gen_train("f2")
    idx = np.random.default_rng(0).choice(len(full), size=1000, replace=False)
    return Dataset(full.X[idx], full.y[idx], full.domain)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="K >= 1"):
            SelectionConfig(candidates=0)
        with pytest.raises(ValueError, match="eval_mode"):
            SelectionConfig(candidates=1, eval_mode="test")
        with pytest.raises(ValueError, match="holdout fraction"):
            SelectionConfig(candidates=1, holdout_fraction=0.6)
        with pytest.raises(ValueError, match="holdout fraction"):
            SelectionConfig(candidates=1, holdout_fraction=0.0)


    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
            SelectionConfig(candidates=1, ridge=ridge)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SelectionConfig(candidates=1, seed=-1)


class TestSimplexSampling:
    def test_valid_draws(self, rng):
        for n in (1, 2, 3, 7):
            a = sample_alpha_simplex(n, rng)
            assert a.shape == (n,)
            assert np.all(a >= 0.0)
            assert a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mean_is_uniform(self):
        """Flat-simplex draws have mean 1/n per coordinate; check within
        three standard errors over 10^4 samples."""
        gen = np.random.default_rng(99)
        n = 3
        draws = np.array([sample_alpha_simplex(n, gen) for _ in range(10_000)])
        se = np.sqrt((1 / n) * (1 - 1 / n) / (n + 1) / 10_000)
        np.testing.assert_allclose(draws.mean(axis=0), 1 / n, atol=3 * se)

    def test_n_validation(self, rng):
        with pytest.raises(ValueError):
            sample_alpha_simplex(0, rng)


class TestSelectModel:
    def test_same_seed_same_result(self, small_f2):
        cfg = SelectionConfig(candidates=3, seed=11)
        m1, b1 = select_model(small_f2, cfg)
        m2, b2 = select_model(small_f2, cfg)
        assert m1 == m2
        assert len(b1.entries) == len(b2.entries)
        for e1, e2 in zip(b1.entries, b2.entries):
            assert e1.candidate == e2.candidate
            assert e1.partition == e2.partition
            assert e1.alphas == e2.alphas
            assert e1.eval_mse == e2.eval_mse
            assert e1.train_mse == e2.train_mse

    def test_evaluates_k_plus_one_candidates(self, small_f2):
        _, board = select_model(small_f2, SelectionConfig(candidates=4, seed=2))
        assert len(board.entries) == 5
        assert sorted(e.candidate for e in board.entries) == [0, 1, 2, 3, 4]

    def test_winner_is_argmin(self, small_f2):
        _, board = select_model(small_f2, SelectionConfig(candidates=4, seed=3))
        best = board.best
        assert best is board.entries[0]
        assert all(best.eval_mse <= e.eval_mse for e in board.entries)
        evals = [e.eval_mse for e in board.entries]
        assert evals == sorted(evals)

    def test_ties_keep_the_earlier_candidate(self, small_f2, monkeypatch):
        """With a constant evaluation metric every candidate ties, so the
        initial candidate must win."""
        monkeypatch.setattr(selection_mod, "mse", lambda model, ds: 1.0)
        _, board = select_model(small_f2, SelectionConfig(candidates=3, seed=4))
        assert [e.candidate for e in board.entries] == [0, 1, 2, 3]

    def test_fixed_alphas_are_used_verbatim(self, small_f2):
        cfg = SelectionConfig(candidates=2, seed=5, alphas=(0.2, 0.3, 0.5))
        _, board = select_model(small_f2, cfg)
        assert all(e.alphas == (0.2, 0.3, 0.5) for e in board.entries)

    def test_random_alphas_vary_per_candidate(self, small_f2):
        _, board = select_model(small_f2, SelectionConfig(candidates=3, seed=6))
        assert len({e.alphas for e in board.entries}) == len(board.entries)

    def test_holdout_winner_is_refit_on_full_data(self, small_f2):
        cfg = SelectionConfig(candidates=2, seed=7)
        model, board = select_model(small_f2, cfg)
        refit_cfg = FitConfig(alphas=board.best.alphas)
        expected, _ = fit(small_f2, board.best.partition, refit_cfg)
        assert model == expected
        assert board.refit_seconds > 0
        assert model.provenance["eval_mode"] == "holdout"
        assert model.provenance["seed"] == 7
        assert model.provenance["candidate"] == board.best.candidate

    def test_training_mode_scores_on_the_fit_data(self, small_f2):
        cfg = SelectionConfig(candidates=2, seed=8, eval_mode="training")
        model, board = select_model(small_f2, cfg)
        for e in board.entries:
            assert e.eval_mse == e.train_mse
        assert board.refit_seconds == 0.0

    def test_training_mode_scores_without_predicting_again(self, small_f2, monkeypatch):
        """A candidate's training score is its fit's train_mse, which is
        mse on its own training rows bitwise, so the search calls no mse."""
        calls = []
        monkeypatch.setattr(selection_mod, "mse", lambda model, ds: calls.append(ds))
        _, board = select_model(small_f2, SelectionConfig(candidates=3, seed=8,
                                                          eval_mode="training"))
        assert calls == []
        for e in board.entries:
            model, _ = fit(small_f2, e.partition, FitConfig(alphas=e.alphas))
            assert e.eval_mse == mse(model, small_f2)

    def test_training_mode_returns_the_winning_fit(self, small_f2, tmp_path):
        """Training mode keeps only the best fit so far: what it returns is
        the winner's own fit, bitwise, and saves to the bytes select_model
        wrote when it held every candidate's model (sha256 below)."""
        cfg = SelectionConfig(candidates=2, seed=8, eval_mode="training")
        model, board = select_model(small_f2, cfg)
        expected, _ = fit(small_f2, board.best.partition, FitConfig(alphas=board.best.alphas))
        assert model == expected
        save_model(model, tmp_path / "m.json")
        assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == (
            "53c2cdf088d4266047ebb3ba36a0e3c24896b30473956e7bfd3a99dece90a740")

    def test_training_mode_ties_keep_the_earlier_candidate(self, small_f2):
        """One-cell partitions with fixed alphas make every candidate the
        same fit; strict < keeps candidate 0."""
        cfg = SelectionConfig(candidates=3, seed=2, eval_mode="training", count_range=(1, 1),
                              alphas=(0.1, 0.1, 0.8))
        model, board = select_model(small_f2, cfg)
        assert len({e.eval_mse for e in board.entries}) == 1
        assert board.best.candidate == model.provenance["candidate"] == 0

    def test_all_candidates_failing_raises_last_error(self):
        gen = np.random.default_rng(1)
        X = gen.uniform(1, 2, size=(10, 2))
        tiny = Dataset(X, X.sum(axis=1), (Interval(1, 2), Interval(1, 2)))
        cfg = SelectionConfig(candidates=2, seed=9, count_range=(4, 6),
                              min_rows_policy="error")
        with pytest.raises(SubspaceFitError):
            select_model(tiny, cfg)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0), (Interval(0, 1),))
        with pytest.raises(ValueError, match="empty"):
            select_model(empty, SelectionConfig(candidates=1))


class TestLeaderboard:
    def test_csv_columns_are_deterministic(self, small_f2, tmp_path):
        _, board = select_model(small_f2, SelectionConfig(candidates=2, seed=10))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        board.to_csv(p1)
        _, board2 = select_model(small_f2, SelectionConfig(candidates=2, seed=10))
        board2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "rank,candidate,partition,alphas,eval_mse,train_mse"
        assert "seconds" not in header  # wall clock stays out of the artifact

    def test_total_fit_seconds(self, small_f2):
        _, board = select_model(small_f2, SelectionConfig(candidates=2, seed=12))
        assert board.total_fit_seconds == pytest.approx(
            sum(e.fit_seconds for e in board.entries)
        )
        assert board.total_fit_seconds > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Leaderboard(())
