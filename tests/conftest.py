import numpy as np
import pytest

from pairnet.model import LocalPairNet
from pairnet.partition import Interval


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def make_local():
    """Factory for random but valid LocalPairNet instances."""

    def make(n=2, seed=0, fallback_mean=None, scale=1.0):
        gen = np.random.default_rng(seed)
        return LocalPairNet(
            alphas=gen.dirichlet(np.ones(n)),
            c=scale * gen.normal(size=2**n),
            gamma=scale * gen.normal(size=2**n),
            fallback_mean=fallback_mean,
        )

    return make


def default_box(n):
    """The box [i, i + 2] per input i that tests evaluate make_local's
    networks over."""
    return tuple(Interval(float(i), float(i + 2)) for i in range(n))


def as_box(intervals):
    """A tuple-of-Intervals box as the (lo, hi) pair of arrays that
    feature_matrix and local_forward take."""
    return np.array([iv.lo for iv in intervals]), np.array([iv.hi for iv in intervals])


def sample_box(box, n_points, seed):
    """Uniform points inside a tuple-of-Intervals box, shape (N, len(box))."""
    gen = np.random.default_rng(seed)
    cols = [gen.uniform(iv.lo, iv.hi, size=n_points) for iv in box]
    return np.column_stack(cols)
