import numpy as np
import oracles
import pytest
from conftest import random_binary_tripartite

from secbit import BipartiteDistribution, TripartiteDistribution, properties
from secbit.errors import InvalidParamsError

SEEDS = (1, 3, 7)


def _inputs(seed):
    rng = np.random.default_rng([seed, 5])
    non_binary = rng.uniform(0.0, 1.0, size=(3, 2, 2))
    non_binary[0, 1, 0] = 0.0
    return {
        "binary-tripartite": TripartiteDistribution(random_binary_tripartite(rng, 3, zero_fraction=0.2)),
        "non-binary-tripartite": TripartiteDistribution(non_binary),
        "bipartite": BipartiteDistribution(rng.uniform(0.05, 1.0, size=(3, 3))),
    }


def _fields(outcomes):
    return [(o.name, o.trials, o.violations, o.worst, o.tolerance) for o in outcomes]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["binary-tripartite", "non-binary-tripartite", "bipartite"])
def test_shared_trial_loop_matches_per_suite_loops(kind, seed):
    dist = _inputs(seed)[kind]
    ours = properties.run_checks(dist, 10, seed)
    reference = oracles.run_checks(dist, 10, seed)
    assert _fields(ours) == _fields(reference)
    assert len(ours) == {"binary-tripartite": 6, "non-binary-tripartite": 4, "bipartite": 1}[kind]


@pytest.mark.parametrize("trials", [0, -1])
def test_trial_count_below_one_rejected(lemur, trials):
    with pytest.raises(InvalidParamsError):
        properties.run_checks(lemur, trials, 1)
    with pytest.raises(InvalidParamsError):
        properties.check_cross_ratio_monotonicity(BipartiteDistribution(np.eye(2)), trials, 1)
