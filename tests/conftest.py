import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from secbit import randomization_example


def pytest_configure(config):
    # Hypothesis caches constants it reads from the source tree while
    # collecting tests; keep that cache out of the checkout.
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "secbit-hypothesis")


@pytest.fixture
def lemur():
    """The 2x2x2 example where joint randomization beats reversible filtering."""
    return randomization_example()


def random_binary_tripartite(rng, d_e, zero_fraction=0.0, low=0.0, high=1.0):
    """Random 2x2xd_e distribution; optionally with structural zeros."""
    table = rng.uniform(low, high, size=(2, 2, d_e))
    if zero_fraction > 0.0:
        mask = rng.random(size=table.shape) < zero_fraction
        table[mask] = 0.0
    if not table.sum() > 0.0:
        table[0, 0, 0] = 1.0
    return table / table.sum()


def random_stochastic(rng, rows, cols):
    matrix = rng.uniform(0.01, 1.0, size=(rows, cols))
    return matrix / matrix.sum(axis=0, keepdims=True)


def random_proper_filter(rng, cols):
    """Random 2xcols filtration with column sums at most one."""
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return matrix / sums * rng.uniform(0.1, 1.0, size=cols)
