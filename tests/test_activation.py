"""Pair activations: complementary, monotone, endpoint-normalized."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairnet.activation import LINEAR, ActivationKind, _logistic, pair_activation
from pairnet.partition import Interval

SIGMOID = ActivationKind("sigmoid")
IV = Interval(2.0, 6.0)


class TestKinds:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown activation kind"):
            ActivationKind("relu")

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_steepness_rejected(self, s):
        with pytest.raises(ValueError, match="steepness"):
            ActivationKind("sigmoid", s)

    @pytest.mark.parametrize("s", [np.inf, np.nan])
    def test_non_finite_steepness_rejected(self, s):
        with pytest.raises(ValueError, match="steepness"):
            ActivationKind("sigmoid", s)

    def test_default_is_linear(self):
        assert LINEAR.tag == "linear"


class TestEndpoints:
    """g(lo) = 0 and g(hi) = 1 exactly, for both kinds."""

    @pytest.mark.parametrize("kind", [LINEAR, SIGMOID, ActivationKind("sigmoid", 9.5)])
    def test_exact_endpoints(self, kind):
        g_lo, bar_lo = pair_activation(IV.lo, IV, kind)
        g_hi, bar_hi = pair_activation(IV.hi, IV, kind)
        assert g_lo == 0.0 and bar_lo == 1.0
        assert g_hi == 1.0 and bar_hi == 0.0

    @pytest.mark.parametrize("kind", [LINEAR, SIGMOID])
    def test_saturates_outside(self, kind):
        assert pair_activation(IV.lo - 5.0, IV, kind)[0] == 0.0
        assert pair_activation(IV.hi + 5.0, IV, kind)[0] == 1.0

    def test_sigmoid_midpoint_is_half(self):
        g, gbar = pair_activation(IV.mid, IV, SIGMOID)
        assert g == pytest.approx(0.5, abs=1e-15)
        assert gbar == pytest.approx(0.5, abs=1e-15)


class TestLinearValues:
    def test_is_minmax_normalization(self):
        x = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        g, gbar = pair_activation(x, IV, LINEAR)
        np.testing.assert_allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(gbar, 1.0 - g)

    def test_scalar_input_gives_floats(self):
        g, gbar = pair_activation(3.0, IV)
        assert isinstance(g, float) and isinstance(gbar, float)
        assert g == 0.25 and gbar == 0.75


@given(
    x1=st.floats(-10, 10),
    x2=st.floats(-10, 10),
    tag=st.sampled_from(["linear", "sigmoid"]),
    steepness=st.floats(0.5, 20.0),
)
def test_complementary_and_monotone(x1, x2, tag, steepness):
    """g + gbar == 1 exactly and g is non-decreasing."""
    kind = ActivationKind(tag, steepness)
    iv = Interval(-3.0, 4.0)
    lo, hi = sorted((x1, x2))
    g1, bar1 = pair_activation(lo, iv, kind)
    g2, bar2 = pair_activation(hi, iv, kind)
    assert g1 + bar1 == 1.0
    assert g2 + bar2 == 1.0
    assert 0.0 <= g1 <= 1.0
    assert g1 <= g2


class TestLogistic:
    def test_matches_expit_over_a_wide_range(self):
        """The tanh form agrees with scipy's expit to one unit of 1.0, and
        never overflows."""
        from scipy.special import expit

        z = np.concatenate([np.linspace(-800.0, 800.0, 100001),
                            [-1e308, -1e20, -0.0, 0.0, 1e20, 1e308, -np.inf, np.inf]])
        with np.errstate(all="raise"):
            got = _logistic(z)
        np.testing.assert_allclose(got, expit(z), rtol=0, atol=np.finfo(float).eps)
        assert got[-2:].tolist() == [0.0, 1.0]

    def test_import_leaves_scipy_special_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, pairnet; sys.exit('scipy.special' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr or "pairnet imported scipy.special"
