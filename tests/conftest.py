import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from secbit import BipartiteDistribution, MeasureResult, TripartiteDistribution, randomization_example


def pytest_configure(config):
    # Hypothesis caches constants it reads from the source tree while
    # collecting tests; keep that cache out of the checkout.
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "secbit-hypothesis")


@pytest.fixture
def lemur():
    """The 2x2x2 example where joint randomization beats reversible filtering."""
    return randomization_example()


@dataclass
class Allocations:
    """Bytes of Python allocations traced over a block: their peak, and what the block kept."""

    peak: int = 0
    retained: int = 0


@contextmanager
def traced_memory():
    """Trace the block's Python allocations; the yielded record is filled when the block ends."""
    record = Allocations()
    tracemalloc.start()
    try:
        yield record
        record.retained, record.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def result_bits(result):
    """A comparable form of a result that differs whenever one of its bits or types does."""
    if isinstance(result, MeasureResult):
        pairs = [result.witness] + ([result.witness_family(1e-3)] if result.witness_family else [])
        matrices = [f.matrix.tobytes() for pair in pairs if pair is not None for f in pair]
        value = type(result.value).__name__, float(result.value).hex()
        return value, result.witness_kind, repr(result.detail), matrices
    if isinstance(result, (BipartiteDistribution, TripartiteDistribution)):
        return type(result).__name__, result.table.shape, result.table.tobytes()
    if isinstance(result, (list, tuple)):
        return type(result).__name__, [result_bits(r) for r in result]
    if isinstance(result, float):
        return type(result).__name__, result.hex()
    return repr(result)


def random_binary_tripartite(rng, d_e, zero_fraction=0.0, low=0.0, high=1.0):
    """Random 2x2xd_e distribution; optionally with structural zeros."""
    table = rng.uniform(low, high, size=(2, 2, d_e))
    if zero_fraction > 0.0:
        mask = rng.random(size=table.shape) < zero_fraction
        table[mask] = 0.0
    if not table.sum() > 0.0:
        table[0, 0, 0] = 1.0
    return table / table.sum()


def random_enlarged(rng):
    """Random unnormalized (d_a+2)x(d_b+2) distribution, d_a and d_b in 1..4, with structural zeros."""
    d_a = int(rng.integers(1, 5))
    d_b = int(rng.integers(1, 5))
    table = rng.uniform(0.0, 1.0, size=(d_a + 2, d_b + 2))
    table[rng.random(size=table.shape) < 0.3] = 0.0
    if not table.sum() > 0.0:
        table[0, 0] = 1.0
    return BipartiteDistribution(table)


def random_stochastic(rng, rows, cols):
    matrix = rng.uniform(0.01, 1.0, size=(rows, cols))
    return matrix / matrix.sum(axis=0, keepdims=True)


def random_proper_filter(rng, cols):
    """Random 2xcols filtration with column sums at most one."""
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return matrix / sums * rng.uniform(0.1, 1.0, size=cols)
