import math

import numpy as np
import oracles
import pytest
from conftest import random_binary_tripartite, traced_memory

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
from secbit.errors import InvalidParamsError, ZeroMassError

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
        # 400 trials of each tripartite suite; the algebra suite's take several blocks.
        "many-trials-tripartite": TripartiteDistribution(random_binary_tripartite(rng, 3, zero_fraction=0.2)),
        # 400 trials in blocks of 64 cells: every suite, the per-trial ones too, takes several blocks.
        "many-trials-small-blocks": TripartiteDistribution(random_binary_tripartite(rng, 3, zero_fraction=0.2)),
    }


def _fields(outcomes):
    return [(o.name, o.trials, o.violations, o.worst, o.tolerance) for o in outcomes]


# The suites that score one gap a trial.
PER_TRIAL_SUITES = ("lambda-scale-invariance", "eve-monotonicity", "decompose-roundtrip")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "kind",
    [
        "binary-tripartite",
        "non-binary-tripartite",
        "bipartite",
        "wide-bipartite",
        "many-trials",
        "many-trials-tripartite",
        "many-trials-small-blocks",
    ],
)
def test_shared_trial_loop_matches_per_suite_loops(kind, seed, monkeypatch):
    dist = _inputs(seed)[kind]
    trials = 400 if kind.startswith("many-trials") else 10
    if kind == "many-trials-small-blocks":
        monkeypatch.setattr(properties, "_BLOCK_CELLS", 64)
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
    algebra_blocks = []
    tables = properties._algebra_tables

    def count_blocks(ops, table):
        algebra_blocks.append(len(ops))
        return tables(ops, table)

    monkeypatch.setattr(properties, "_algebra_tables", count_blocks)
    # Count the blocks each suite scores.
    suite_blocks = {}
    suite = properties._suite

    def count_suite_blocks(name, tol, salt, trials, seed, draw, score=np.asarray, *cells):
        suite_blocks[name] = 0

        def counted(stack):
            suite_blocks[name] += 1
            return score(stack)

        return suite(name, tol, salt, trials, seed, draw, counted, *cells)

    monkeypatch.setattr(properties, "_suite", count_suite_blocks)
    ours = properties.run_checks(dist, trials, seed)
    # run_checks runs the suites at the power-of-two scale that puts the largest entry in [1/2, 1).
    unit = type(dist)(np.ldexp(dist.table, -math.frexp(dist.table.max())[1]))
    reference = oracles.run_checks(unit, trials, seed)
    assert _fields(ours) == _fields(reference)
    tripartite = {
        "binary-tripartite": 6,
        "non-binary-tripartite": 4,
        "many-trials-tripartite": 6,
        "many-trials-small-blocks": 6,
    }
    assert len(ours) == tripartite.get(kind, 1)
    assert any(single) == (kind == "wide-bipartite")
    assert sum(algebra_blocks) == (trials if kind in tripartite else 0)
    if kind == "many-trials":
        assert trials > properties._BLOCK_CELLS // (4 * 5 * 5)
    if kind in ("many-trials-tripartite", "many-trials-small-blocks"):
        assert len(algebra_blocks) > 1
    for name in set(suite_blocks) & set(PER_TRIAL_SUITES):
        # A per-trial gap is one cell: 400 trials fit one block of 8192 cells, and take 7 of 64.
        assert suite_blocks[name] == (7 if kind == "many-trials-small-blocks" else 1)


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


@pytest.mark.parametrize("shape", PROPERTY_SHAPES)
def test_stacked_algebra_trials_apply_the_operations_they_name(shape):
    rng = np.random.default_rng([len(shape), *shape])
    unit = _unit_scaled(TripartiteDistribution(rng.uniform(0.1, 1.0, size=shape) / 7.0))
    d_a, d_b, _ = shape
    ops = np.stack([properties._algebra_ops(np.random.default_rng([3, 17, k]), d_a, d_b) for k in range(20)])
    filtered, once, composed, mixed, alpha, beta = properties._algebra_tables(ops, unit.table)
    for k in range(20):
        draws = np.random.default_rng([3, 17, k])
        f1, g1 = properties._random_filter(draws, d_a), properties._random_filter(draws, d_b)
        f2, g2 = properties._random_filter(draws, 2), properties._random_filter(draws, 2)
        weights = draws.uniform(0.1, 2.0, size=2)
        drawn = np.hstack([f1.matrix, g1.matrix, f2.matrix, g2.matrix, weights[:, None]])
        assert ops[k].tobytes() == drawn.tobytes()
        assert (alpha[k].item(), beta[k].item()) == tuple(weights)
        expected = apply(f1, g1, unit)
        assert filtered[k].tobytes() == expected.table.tobytes()
        assert once[k].tobytes() == apply(f2, g2, expected).table.tobytes()
        assert composed[k].tobytes() == apply(f2.compose(f1), g2.compose(g1), unit).table.tobytes()
        mixed_input = TripartiteDistribution(weights[0] * unit.table + weights[1] * unit.table)
        assert mixed[k].tobytes() == apply(f1, g1, mixed_input).table.tobytes()


def test_stacked_algebra_tables_raise_the_errors_of_apply():
    # A filter with a dead row kills the whole table; the first bad trial raises.
    unit = _unit_scaled(TripartiteDistribution(np.random.default_rng(2).uniform(0.1, 1.0, size=(2, 3, 2))))
    ops = np.stack([properties._algebra_ops(np.random.default_rng([4, 17, k]), 2, 3) for k in range(5)])
    dead = ops.copy()
    dead[3, :, :2] = 0.0
    with pytest.raises(ZeroMassError, match="distribution has zero total mass"):
        properties._algebra_tables(dead, unit.table)
    huge = ops.copy()
    huge[1, :, :2] = 1e300
    huge[2, :, :2] = 0.0
    with pytest.raises(InvalidParamsError, match="non-finite"):
        with np.errstate(over="ignore"):
            properties._algebra_tables(huge, unit.table * 1e300)


def test_many_trials_stay_in_small_blocks():
    p = BipartiteDistribution(np.random.default_rng(31).uniform(0.05, 1.0, size=(6, 6)))
    with traced_memory() as memory:
        outcomes = properties.run_checks(p, 10**4, 1)
    assert [(o.name, o.trials, o.violations) for o in outcomes] == [("cross-ratio-monotonicity", 10**4, 0)]
    assert memory.peak < 2e6


def test_many_algebra_trials_stay_in_small_blocks():
    p = TripartiteDistribution(np.random.default_rng(37).uniform(0.05, 1.0, size=(6, 6, 2)))
    with traced_memory() as memory:
        outcome = properties.check_apply_algebra(p, 10**4, 1)
    assert (outcome.trials, outcome.violations) == (10**4, 0) and memory.peak < 2e6


PER_TRIAL_SUITES = [
    properties.check_scale_invariance,
    properties.check_eve_monotonicity,
    properties.check_decompose_roundtrip,
]


@pytest.mark.parametrize("check", PER_TRIAL_SUITES)
def test_per_trial_suites_stay_in_bounded_blocks(monkeypatch, check):
    # Memory does not grow with the trial count: at 256 gaps a block, 10^3 and
    # 4 * 10^3 trials run in 4 and 16 blocks.  A suite's first call peaks
    # higher than later ones (decompose's by 5x), so each is run once first.
    monkeypatch.setattr(properties, "_BLOCK_CELLS", 256)
    p = TripartiteDistribution(random_binary_tripartite(np.random.default_rng(43), 2))
    check(p, 10, 1)
    with traced_memory() as few:
        outcomes = [check(p, 10**3, 1)]
    with traced_memory() as many:
        outcomes.append(check(p, 4 * 10**3, 1))
    assert [(o.trials, o.violations) for o in outcomes] == [(10**3, 0), (4 * 10**3, 0)]
    assert many.peak < 1.1 * few.peak


@pytest.mark.parametrize("check", PER_TRIAL_SUITES)
def test_per_trial_suite_block_is_one_float_array(check):
    # One default block of 8192 gaps plus one trial: a block of gaps held as
    # 8192 zero-dimensional arrays peaked at 2.5 MB.
    p = TripartiteDistribution(random_binary_tripartite(np.random.default_rng(43), 2))
    with traced_memory() as memory:
        outcome = check(p, 8193, 1)
    assert (outcome.trials, outcome.violations) == (8193, 0) and memory.peak < 1e6


@pytest.mark.parametrize("trials", [0, -1])
def test_trial_count_below_one_rejected(lemur, trials):
    with pytest.raises(InvalidParamsError):
        properties.run_checks(lemur, trials, 1)
    with pytest.raises(InvalidParamsError):
        properties.check_cross_ratio_monotonicity(BipartiteDistribution(np.eye(2)), trials, 1)
