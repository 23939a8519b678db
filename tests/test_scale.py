"""The scale contract: every measure reads a table times any power of two as the table itself.

For a shift ``k`` that keeps every nonzero entry normal and the largest
finite, ``ldexp(t, k)`` gives the result of ``t`` at unit scale (largest
entry in [1/2, 1)) bit for bit.  Past that range entries round, underflow
or overflow; then a call returns a finite result or raises a
:class:`SecbitError`, and never warns.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import result_bits
from secbit import (
    BipartiteDistribution,
    MeasureResult,
    SecbitError,
    TripartiteDistribution,
    exact_block_statistics,
    marginal_ab,
    mesbf_decoupled,
    mesbf_decoupled_power,
    mesbf_reversible,
    mesbf_reversible_decoupled,
    omega,
    properties,
    secret_bit_fraction,
    secret_bit_fraction_oracle,
    vartheta,
)

# Nonzero entries span 2^-40 of the largest, so a shift can leave the smallest subnormal while the largest is finite.
_ENTRIES = st.one_of(st.just(0.0), st.floats(2.0**-40, 1.0))
_BINARY = st.integers(1, 3).map(lambda d_e: (2, 2, d_e))
_BIPARTITE = st.tuples(st.integers(1, 4), st.integers(1, 4))


def _tables(shapes):
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=_ENTRIES)).filter(
        lambda table: table.max() > 0.0
    )


def _normal_shifts(table):
    """The shifts ``k`` that keep every nonzero entry of ``table`` normal and its largest finite."""
    return -1021 - math.frexp(table[table > 0.0].min())[1], 1024 - math.frexp(table.max())[1]


def _results_at(make, results, table, k):
    """``results`` of ``make(ldexp(table, k))``."""
    with np.errstate(over="ignore", under="ignore"):
        shifted = np.ldexp(table, k)
    return results(make(shifted))


class _CrossRatios(tuple):
    """Values of :func:`omega`, whose documented results include ``inf`` and ``nan``."""


def _finite(result):
    if isinstance(result, _CrossRatios):
        return True
    if isinstance(result, MeasureResult):
        return math.isfinite(result.value)
    if isinstance(result, (list, tuple)):
        return all(map(_finite, result))
    if isinstance(result, properties.CheckOutcome):
        return math.isfinite(result.worst)
    if isinstance(result, dict):
        # The conditional rates are nan only when no block can be accepted.
        accept = result["acceptance_rate"]
        rates = result["disagreement_rate"], result["eve_blank_rate"]
        return math.isfinite(accept) and all(math.isfinite(r) or accept == 0.0 for r in rates)
    return math.isfinite(result)


def _bipartite_results(p):
    d_a, d_b = p.dims
    results = [mesbf_decoupled(p), vartheta(p), properties.run_checks(p, 2, 5)]
    results += [mesbf_decoupled_power(p, copies) for copies in (1, 2, 3)]
    pairs = itertools.product(itertools.combinations(range(d_a), 2), itertools.permutations(range(d_b), 2))
    results.append(_CrossRatios(omega(p, a0, a1, b0, b1) for (a0, a1), (b0, b1) in pairs))
    if p.dims == (2, 2):
        results.append(mesbf_reversible_decoupled(p))
    return results


def _binary_results(p):
    return [
        secret_bit_fraction(p),
        secret_bit_fraction_oracle(p),
        mesbf_reversible(p),
        properties.run_checks(p, 2, 5),
        *(exact_block_statistics(p, n) for n in (1, 2, 7, 300)),
    ]


def _check_contract(make, results, table, data):
    """``results`` of ``ldexp(table, k)``: the unit-scale bits inside the normal shifts, finite or refused past them."""
    low, high = _normal_shifts(table)
    unit = result_bits(_results_at(make, results, table, -math.frexp(table.max())[1]))
    k = data.draw(st.integers(low, high), label="k")
    assert result_bits(_results_at(make, results, table, k)) == unit
    far = data.draw(st.one_of(st.integers(-1100, low - 1), st.integers(high + 1, high + 60)), label="far")
    try:
        outside = _results_at(make, results, table, far)
    except SecbitError:
        return
    assert _finite(outside)


_SETTINGS = settings(derandomize=True, max_examples=60, database=None, deadline=None)


@given(table=_tables(_BIPARTITE), data=st.data())
@_SETTINGS
def test_bipartite_measures_keep_their_bits(table, data):
    _check_contract(BipartiteDistribution, _bipartite_results, table, data)


@given(table=_tables(_BINARY), data=st.data())
@_SETTINGS
def test_binary_measures_keep_their_bits(table, data):
    _check_contract(TripartiteDistribution, _binary_results, table, data)


def _checked_alone(p, trials, seed):
    """:func:`properties.run_checks` of ``p``, less its marginal suite, from the public suites called one by one."""
    suites = [properties.check_scale_invariance, properties.check_eve_monotonicity] if p.is_binary else []
    suites += [properties.check_apply_algebra, properties.check_reversible_undo, properties.check_decompose_roundtrip]
    return [suite(p, trials, seed) for suite in suites]


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e300, 1e308, 1.5e308])
def test_extreme_tables_pass_the_property_checks(scale):
    table = np.random.default_rng(3).uniform(0.1, 1.0, size=(2, 2, 3))
    p = TripartiteDistribution(table / table.max() * scale)
    outcomes = properties.run_checks(p, 20, 1)
    assert all(outcome.passed for outcome in outcomes)
    assert _checked_alone(p, 20, 1) == outcomes[:-1]


@pytest.mark.parametrize("factor", [1.0, 1e6])
def test_raw_counts_pass_the_property_checks(factor):
    counts = np.random.default_rng(9).integers(100, 5001, size=(3, 3, 2)) * factor
    p = TripartiteDistribution(counts)
    for seed in range(20):
        outcomes = properties.run_checks(p, 5, seed)
        assert all(outcome.passed for outcome in outcomes)
        assert _checked_alone(p, 5, seed) == outcomes[:-1]
        assert properties.check_cross_ratio_monotonicity(marginal_ab(p), 5, seed) == outcomes[-1]


def test_a_warning_fails_the_test():
    # pyproject.toml's filterwarnings makes every warning an error in every
    # test, so the never-warns promise above needs no block of its own.
    with pytest.raises(RuntimeWarning):
        warnings.warn("overflow encountered", RuntimeWarning)
