import math
import tracemalloc

import numpy as np
import oracles
import pytest
from conftest import random_binary_tripartite

from secbit import (
    BipartiteDistribution,
    Filtration,
    TripartiteDistribution,
    apply,
    apply_bipartite,
    embed,
    lower_shear,
    marginal_ab,
    measures,
    properties,
    reversible_inverse,
    row_gluing,
)
from secbit.distributions import _unit_scaled
from secbit.errors import InvalidParamsError

SEEDS = (1, 3, 7)


def _inputs(seed):
    rng = np.random.default_rng([seed, 5])
    non_binary = rng.uniform(0.0, 1.0, size=(3, 2, 2))
    non_binary[0, 1, 0] = 0.0
    wide = rng.uniform(1.0, 2.0, size=(3, 3)) * 10.0 ** rng.choice([0.0, -170.0], size=(3, 3))
    wide[0, 0], wide[1, 1] = 1.0, 1e-170
    return {
        "binary-tripartite": TripartiteDistribution(random_binary_tripartite(rng, 3, zero_fraction=0.2)),
        "non-binary-tripartite": TripartiteDistribution(non_binary),
        "bipartite": BipartiteDistribution(rng.uniform(0.05, 1.0, size=(3, 3))),
        # Entries spanning 1e-170..1: cross-ratio products underflow, so each block is read table by table.
        "wide-bipartite": BipartiteDistribution(wide),
        # 400 trials of a 5 x 5 enlarged table take five blocks of at most 81.
        "many-trials": BipartiteDistribution(rng.uniform(0.05, 1.0, size=(3, 3))),
    }


def _fields(outcomes):
    return [(o.name, o.trials, o.violations, o.worst, o.tolerance) for o in outcomes]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "kind", ["binary-tripartite", "non-binary-tripartite", "bipartite", "wide-bipartite", "many-trials"]
)
def test_shared_trial_loop_matches_per_suite_loops(kind, seed, monkeypatch):
    dist = _inputs(seed)[kind]
    trials = 400 if kind == "many-trials" else 10
    # Record the kernel's one-table calls made inside a call on a stack: a block read table by table.
    inside, single = [0], []
    kernel = measures._cross_ratios

    def spy(table, alice, bob):
        if table.ndim == 2:
            single.append(inside[0] > 0)
            return kernel(table, alice, bob)
        inside[0] += 1
        try:
            return kernel(table, alice, bob)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(measures, "_cross_ratios", spy)
    ours = properties.run_checks(dist, trials, seed)
    # run_checks runs the suites at the power-of-two scale that puts the largest entry in [1/2, 1).
    unit = type(dist)(np.ldexp(dist.table, -math.frexp(dist.table.max())[1]))
    reference = oracles.run_checks(unit, trials, seed)
    assert _fields(ours) == _fields(reference)
    assert len(ours) == {"binary-tripartite": 6, "non-binary-tripartite": 4}.get(kind, 1)
    assert any(single) == (kind == "wide-bipartite")
    if kind == "many-trials":
        assert trials > properties._BLOCK_CELLS // (4 * 5 * 5)


# The six tripartite shapes of the analytics benchmark's property trials.
PROPERTY_SHAPES = ((2, 2, 2), (2, 2, 4), (3, 4, 2), (5, 3, 1), (4, 6, 3), (6, 6, 2))


@pytest.mark.parametrize("shape", PROPERTY_SHAPES)
def test_stacked_trials_apply_the_operations_they_name(shape):
    rng = np.random.default_rng([len(shape), *shape])
    p = TripartiteDistribution(rng.uniform(0.1, 1.0, size=shape) / 7.0)
    unit = _unit_scaled(p)
    enlarged = embed(_unit_scaled(marginal_ab(p)))
    size, d_b = enlarged.dims
    d_a = shape[0]
    for k in range(20):
        filters = properties._order_filters(np.random.default_rng([3, 29, k]), size)
        draws = np.random.default_rng([3, 29, k])
        order = (
            Filtration.permutation(draws.permutation(size)),
            Filtration.diagonal(draws.uniform(0.05, 1.0, size=size)),
            lower_shear(float(draws.uniform(0.1, 5.0)), size),
            row_gluing(float(draws.uniform(0.1, 5.0)), int(draws.integers(2, size)), size),
        )
        moved = properties._moved(filters[None], enlarged.table)
        for stacked, table, filt in zip(filters, moved, order):
            assert stacked.tobytes() == filt.matrix.tobytes()
            expected = apply_bipartite(filt, Filtration.identity(d_b), enlarged).table
            assert table.tobytes() == expected.tobytes()

        pair = properties._reversible_pair(np.random.default_rng([3, 19, k]), d_a)
        draws = np.random.default_rng([3, 19, k])
        perm = draws.permutation(d_a)
        matrix = np.zeros((d_a, d_a))
        matrix[np.arange(d_a), perm] = draws.uniform(0.2, 1.0, size=d_a)
        filt = Filtration(matrix)
        inverse = reversible_inverse(filt)
        assert pair[0].tobytes() == filt.matrix.tobytes() and pair[1].tobytes() == inverse.matrix.tobytes()
        there, back = properties._undone(pair[None], unit.table)
        identity = Filtration.identity(shape[1])
        expected = apply(filt, identity, unit)
        assert there[0].tobytes() == expected.table.tobytes()
        assert back[0].tobytes() == apply(inverse, identity, expected).table.tobytes()


def test_many_trials_stay_in_small_blocks():
    p = BipartiteDistribution(np.random.default_rng(31).uniform(0.05, 1.0, size=(6, 6)))
    tracemalloc.start()
    try:
        outcomes = properties.run_checks(p, 10**4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(o.name, o.trials, o.violations) for o in outcomes] == [("cross-ratio-monotonicity", 10**4, 0)]
    assert peak < 2e6


@pytest.mark.parametrize("trials", [0, -1])
def test_trial_count_below_one_rejected(lemur, trials):
    with pytest.raises(InvalidParamsError):
        properties.run_checks(lemur, trials, 1)
    with pytest.raises(InvalidParamsError):
        properties.check_cross_ratio_monotonicity(BipartiteDistribution(np.eye(2)), trials, 1)
