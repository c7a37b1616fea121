"""Cholesky solver with ridge escalation for small PSD systems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairnet.linsolve import SingularSystemError, solve_spd


class TestSolve:
    def test_identity_system(self):
        r = np.array([3.0, -1.0, 2.0])
        p, diag = solve_spd(np.eye(3), r, ridge=0.0)
        np.testing.assert_array_equal(p, r)
        assert diag.escalations == 0
        assert diag.ridge == 0.0

    def test_hand_solved_2x2(self):
        G, r = np.array([[4.0, 2.0], [2.0, 3.0]]), np.array([10.0, 8.0])
        p, diag = solve_spd(G, r, ridge=0.0)
        np.testing.assert_allclose(p, [7.0 / 4.0, 3.0 / 2.0], rtol=1e-14)
        np.testing.assert_allclose(G @ p, r, rtol=1e-14)
        assert diag.residual <= 1e-12

    def test_singular_rank_one_escalates(self):
        """An exactly rank-1 Gram is only solvable after ridge escalation."""
        G, r = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0])
        p, diag = solve_spd(G, r, ridge=0.0)
        assert diag.escalations >= 1
        assert diag.ridge > 0.0
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-6)  # ridge bias is tiny
        assert np.linalg.norm((G + diag.ridge * np.eye(2)) @ p - r) <= 1e-10
        assert diag.residual <= 1e-10

    def test_escalation_walks_the_ladder(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        p, diag = solve_spd(G, np.array([2.0, 2.0]), ridge=0.0)
        floor = 1e-10 * np.trace(G) / 2
        # final ridge is floor * 10^k for the k-th escalation
        ratio = diag.ridge / floor
        assert ratio == pytest.approx(10.0 ** (diag.escalations - 1), rel=1e-12)

    def test_hopeless_system_raises(self):
        with pytest.raises(SingularSystemError):
            solve_spd(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_cap_reached_raises(self):
        # A negative-definite block stays non-PD at every allowed ridge:
        # trace is tiny, so the cap is far below the needed shift.
        G = np.array([[1e-12, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularSystemError, match="cap"):
            solve_spd(G, np.ones(2), ridge=0.0)

    def test_auto_ridge_default(self):
        """ridge=None solves at the floor 1e-10 * trace/d."""
        G = np.diag([2.0, 4.0])
        p, diag = solve_spd(G, np.array([2.0, 4.0]))
        assert diag.ridge == 1e-10 * 6.0 / 2
        assert diag.escalations == 0
        np.testing.assert_allclose(p, [1.0, 1.0], rtol=1e-9)

    def test_bitwise_deterministic(self, rng):
        A = rng.normal(size=(6, 6))
        G, r = A @ A.T + np.eye(6), rng.normal(size=6)
        p1, d1 = solve_spd(G, r)
        p2, d2 = solve_spd(G, r)
        assert np.array_equal(p1, p2)
        assert d1 == d2

    @settings(max_examples=40)
    @given(seed=st.integers(0, 10**6), d=st.integers(2, 10))
    def test_positive_definite_property(self, seed, d):
        """On well-conditioned SPD systems the exact solution is recovered."""
        gen = np.random.default_rng(seed)
        A = gen.normal(size=(d, d))
        G = A @ A.T + d * np.eye(d)
        r = gen.normal(size=d)
        p, diag = solve_spd(G, r, ridge=0.0)
        expected = np.linalg.solve(G, r)
        np.testing.assert_allclose(p, expected, rtol=1e-8, atol=1e-10)
        assert diag.escalations == 0


class TestResidualNorm:
    def test_matches_triple_loop_oracle(self, rng):
        """The reported residual is |(G + ridge*I) p - r| at the final ridge."""
        d = 7
        A = rng.normal(size=(d, d))
        G = A @ A.T + np.eye(d)
        r = rng.normal(size=d)
        p, diag = solve_spd(G, r, ridge=0.5)
        acc = 0.0
        for i in range(d):
            row = 0.0
            for j in range(d):
                row += (G[i, j] + (diag.ridge if i == j else 0.0)) * p[j]
            acc += (row - r[i]) ** 2
        # Both are rounding noise of the final system; a residual of G alone
        # would be about 0.5 * |p|.
        scale = np.abs(G).sum() * np.abs(p).max() + np.abs(r).max()
        assert abs(diag.residual - np.sqrt(acc)) <= 1e-12 * scale
        assert diag.residual == float(np.linalg.norm((G + 0.5 * np.eye(d)) @ p - r))
