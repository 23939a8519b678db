import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import secbit
from secbit import measures
from secbit.distributions import _unit_scaled
from conftest import random_binary_tripartite, random_enlarged, random_stochastic, result_bits, traced_memory
from oracles import grid_reversible_oracle
from secbit import (
    BipartiteDistribution,
    Filtration,
    TripartiteDistribution,
    apply,
    apply_bipartite,
    apply_eve,
    bipartite_from_entries,
    embed,
    from_entries,
    lower_shear,
    marginal_ab,
    mesbf_decoupled,
    mesbf_decoupled_power,
    mesbf_reversible,
    mesbf_reversible_decoupled,
    omega,
    point_mass_eve,
    product_with_eve,
    row_gluing,
    secret_bit_fraction,
    secret_bit_fraction_oracle,
    shared_bit,
    tensor_power,
    vartheta,
)
from secbit.errors import (
    IndexOutOfRangeError,
    InvalidParamsError,
    LinearProgramError,
    NotBinaryError,
    OutOfRangeError,
    SecbitError,
    TooLargeError,
)


def _loads_scipy(script: str) -> bool:
    """Whether ``script``, run in a fresh interpreter, leaves scipy imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(secbit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", script + "; import sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    )
    return out.stdout.strip() == "True"


class TestSecretBitFraction:
    def test_example_distribution_is_half(self, lemur):
        assert secret_bit_fraction(lemur) == pytest.approx(0.5, abs=1e-12)

    def test_shared_bit_with_any_eve_is_one(self):
        assert secret_bit_fraction(product_with_eve(shared_bit(), [0.3, 0.7])) == 1.0

    def test_small_instance_against_decomposition_lp(self):
        p = from_entries((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.3, (0, 1, 0): 0.2})
        assert secret_bit_fraction(p) == pytest.approx(0.6, abs=1e-12)
        assert secret_bit_fraction_oracle(p) == pytest.approx(0.6, abs=1e-9)

    def test_rejects_non_binary(self):
        p = TripartiteDistribution(np.ones((3, 2, 2)))
        with pytest.raises(NotBinaryError):
            secret_bit_fraction(p)

    def test_scale_invariance_is_exact(self, lemur):
        base = secret_bit_fraction(lemur)
        for alpha in (0.1, 1.0, 7.0):
            scaled = TripartiteDistribution(alpha * lemur.table)
            assert secret_bit_fraction(scaled) == pytest.approx(base, abs=1e-12)

    def test_lp_oracle_agrees_on_random_instances(self):
        rng = np.random.default_rng(101)
        for k in range(1000):
            d_e = int(rng.integers(1, 5))
            p = TripartiteDistribution(
                random_binary_tripartite(rng, d_e, zero_fraction=0.2)
            )
            assert secret_bit_fraction_oracle(p) == pytest.approx(
                secret_bit_fraction(p), abs=1e-12
            )

    def test_import_leaves_scipy_unloaded(self):
        # No library call needs scipy, and importing it would triple
        # start-up time and peak memory.
        assert not _loads_scipy("import secbit")

    def test_oracle_and_reversible_leave_scipy_unloaded(self):
        # The LP oracle runs the in-house simplex.
        assert not _loads_scipy(
            "from secbit import *; p = randomization_example(); secret_bit_fraction_oracle(p); mesbf_reversible(p)"
        )

    def test_oracle_agrees_across_extreme_scales(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            table = random_binary_tripartite(rng, int(rng.integers(1, 9)), zero_fraction=0.3)
            p = TripartiteDistribution(table * 10.0 ** rng.uniform(-300.0, 300.0))
            assert abs(secret_bit_fraction_oracle(p) - secret_bit_fraction(p)) <= 1e-12

    @pytest.mark.parametrize("measure", [secret_bit_fraction, secret_bit_fraction_oracle])
    def test_near_overflow_table(self, measure):
        # The plain sum of these entries is inf; both routes sum a rescaled table.
        assert measure(TripartiteDistribution(np.full((2, 2, 2), 1e308))) == 0.5
        assert measure(from_entries((2, 2, 2), {(0, 0, 0): 1e308, (1, 1, 0): 1e308, (0, 1, 1): 1.7e308})) == (
            pytest.approx(20 / 37, abs=1e-15)
        )

    def test_oracle_degenerate_cases(self):
        assert secret_bit_fraction_oracle(point_mass_eve(shared_bit())) == pytest.approx(
            1.0, abs=1e-9
        )
        p = from_entries((2, 2, 2), {(0, 1, 0): 0.5, (1, 1, 1): 0.5})
        assert secret_bit_fraction_oracle(p) == pytest.approx(0.0, abs=1e-9)

    def test_eve_degradation_never_hurts(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            d_e = int(rng.integers(1, 5))
            p = TripartiteDistribution(
                random_binary_tripartite(rng, d_e, zero_fraction=0.25)
            )
            y = Filtration(random_stochastic(rng, int(rng.integers(1, d_e + 2)), d_e))
            before = secret_bit_fraction(p)
            after = secret_bit_fraction(apply_eve(y, p))
            assert after >= before - 1e-12

    def test_public_messages_cannot_beat_best_branch(self):
        # A public message string appended to Eve's alphabet makes lambda the
        # weighted mean of the per-message values, never above their max.
        rng = np.random.default_rng(107)
        for _ in range(100):
            branches = int(rng.integers(2, 5))
            d_e = int(rng.integers(1, 4))
            conditionals = [
                random_binary_tripartite(rng, d_e, zero_fraction=0.2)
                for _ in range(branches)
            ]
            weights = rng.dirichlet(np.ones(branches))
            mixture = np.concatenate(
                [w * c for w, c in zip(weights, conditionals)], axis=2
            )
            lam_mix = secret_bit_fraction(TripartiteDistribution(mixture))
            lam_best = max(
                secret_bit_fraction(TripartiteDistribution(c)) for c in conditionals
            )
            assert lam_mix <= lam_best + 1e-12


# Beale's LP, on which the simplex with the largest-coefficient rule
# cycles through six degenerate bases: max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7.
_BEALE = (
    np.array([0.75, -20.0, 0.5, -6.0]),
    np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
)

# Small integers, so zero right-hand sides and tied ratios are common.
_LP_DATA = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.integers(-3, 3).map(float)),
            arrays(np.float64, (m, n), elements=st.integers(-2, 2).map(float)),
            arrays(np.float64, m, elements=st.integers(0, 2).map(float)),
        )
    )
)


@given(data=_LP_DATA)
@example(data=_BEALE)
@settings(derandomize=True, max_examples=300, database=None, deadline=None)
def _agrees_with_highs(data):
    from scipy.optimize import linprog

    c, a_ub, b_ub = data
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, None)] * len(c), method="highs")
    if res.status != 0:
        # The origin is feasible, so HiGHS's failure (reported as
        # unbounded or, after presolve, infeasible) means unbounded.
        with pytest.raises(LinearProgramError):
            measures._lp_max(c, a_ub, b_ub)
        return
    value, x = measures._lp_max(c, a_ub, b_ub)
    assert value == pytest.approx(-res.fun, abs=1e-9)
    assert value == pytest.approx(c @ x, abs=1e-9)
    assert (x >= 0.0).all() and (a_ub @ x <= b_ub + 1e-9).all()


class TestLinearProgram:
    def test_agrees_with_highs(self):
        # Skipped, not failed, where scipy is not installed: the library never needs it.
        pytest.importorskip("scipy")
        _agrees_with_highs()

    def test_beale_cycling_example_reaches_its_optimum(self):
        value, x = measures._lp_max(*_BEALE)
        assert value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_unbounded_lp_raises(self):
        with pytest.raises(LinearProgramError) as info:
            measures._lp_max(np.array([1.0, 0.0]), np.array([[-1.0, 1.0]]), np.array([1.0]))
        assert isinstance(info.value, SecbitError) and "unbounded" in str(info.value)

    def test_pivot_cap_raises(self, monkeypatch):
        c, a_ub, b_ub = np.ones(2), np.eye(2), np.ones(2)
        assert measures._lp_max(c, a_ub, b_ub)[0] == 2.0
        monkeypatch.setattr(measures, "_LP_PIVOTS_PER_SIZE", 0)
        with pytest.raises(LinearProgramError) as info:
            measures._lp_max(c, a_ub, b_ub)
        assert "within 0 pivots" in str(info.value)
        # An LP optimal at the origin needs no pivot.
        assert measures._lp_max(-c, a_ub, b_ub)[0] == 0.0

    def test_negative_right_hand_side_refused(self):
        with pytest.raises(InvalidParamsError):
            measures._lp_max(np.ones(1), np.ones((1, 1)), np.array([-1.0]))


class TestReversibleMesbf:
    def test_example_distribution(self, lemur):
        result = mesbf_reversible(lemur)
        assert result.value == pytest.approx(0.5, abs=1e-12)
        assert result.detail["branch"] == "diagonal"
        assert result.witness_kind == "exact"

    def test_shared_bit_reaches_one(self):
        result = mesbf_reversible(product_with_eve(shared_bit(), [0.4, 0.6]))
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_never_worse_than_doing_nothing(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            p = TripartiteDistribution(
                random_binary_tripartite(rng, int(rng.integers(1, 5)), zero_fraction=0.2)
            )
            assert mesbf_reversible(p).value >= secret_bit_fraction(p) - 1e-12

    def test_matches_dense_grid_search(self):
        rng = np.random.default_rng(113)
        for k in range(5):
            table = rng.uniform(0.6, 1.0, size=(2, 2, 3))
            p = TripartiteDistribution(table / table.sum())
            closed = mesbf_reversible(p).value
            assert closed == pytest.approx(grid_reversible_oracle(p), abs=1e-3)

    def test_exact_witness_reproduces_value(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            p = TripartiteDistribution(random_binary_tripartite(rng, 3, low=0.1))
            result = mesbf_reversible(p)
            assert result.witness_kind == "exact"
            achieved = secret_bit_fraction(apply(*result.witness, p))
            assert achieved == pytest.approx(result.value, abs=1e-9)

    def test_limiting_family_approaches_value(self):
        p = from_entries(
            (2, 2, 2),
            {(0, 0, 0): 0.3, (1, 1, 0): 0.3, (0, 0, 1): 0.1, (1, 1, 1): 0.1, (0, 1, 0): 0.2},
        )
        result = mesbf_reversible(p)
        assert result.witness_kind == "limiting"
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6):
            achieved = secret_bit_fraction(apply(*result.witness_family(delta), p))
            gaps.append(result.value - achieved)
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-5

    def test_no_eligible_symbols_gives_zero(self):
        p = from_entries((2, 2, 1), {(0, 0, 0): 0.6, (0, 1, 0): 0.4})
        result = mesbf_reversible(p)
        assert result.value == 0.0
        assert result.witness_kind == "none"


class TestReversibleDecoupled:
    def test_symmetric_instance(self):
        p = bipartite_from_entries(
            (2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
        )
        result = mesbf_reversible_decoupled(p)
        assert result.value == pytest.approx(0.8, abs=1e-12)
        achieved = secret_bit_fraction(apply(*result.witness, point_mass_eve(p)))
        assert achieved == pytest.approx(0.8, abs=1e-9)

    def test_shared_bit(self):
        result = mesbf_reversible_decoupled(shared_bit())
        assert result.value == 1.0
        assert result.witness_kind == "exact"

    def test_single_corner_gives_zero(self):
        result = mesbf_reversible_decoupled(bipartite_from_entries((2, 2), {(0, 0): 1.0}))
        assert result.value == 0.0
        assert result.witness_kind == "none"

    def test_one_zero_product_is_limiting_one(self):
        p = bipartite_from_entries((2, 2), {(0, 0): 0.5, (1, 0): 0.25, (1, 1): 0.25})
        result = mesbf_reversible_decoupled(p)
        assert result.value == pytest.approx(1.0)
        assert result.witness_kind == "limiting"
        achieved = secret_bit_fraction(
            apply(*result.witness_family(1e-8), point_mass_eve(p))
        )
        assert achieved == pytest.approx(1.0, abs=1e-6)

    def test_matches_general_formula_on_binary(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            p = BipartiteDistribution(rng.uniform(0.05, 1.0, size=(2, 2)))
            restricted = mesbf_reversible_decoupled(p).value
            general = mesbf_decoupled(p).value
            assert restricted == pytest.approx(general, abs=1e-12)


class TestWideDynamicRange:
    """Tables whose entries span so wide a range that their products underflow."""

    def test_reversible_keeps_an_underflowing_cross_term(self):
        # ratio * M01 * M10 is about 1e-367 in the antidiagonal branch; a
        # 60-digit mpmath evaluation of the closed form gives the reference.
        p = point_mass_eve(BipartiteDistribution([[1e-7, 1e-182], [1.0, 1e-178]]))
        result = mesbf_reversible(p)
        assert result.detail["branch"] == "antidiagonal"
        assert result.value == pytest.approx(0.969346569968284491, abs=1e-12)

    def test_decoupled_witness_balances_an_underflowing_product(self):
        # ratio * cell0 / cell1 underflows while q = 1e-100 is in range.
        p = BipartiteDistribution([[1e-200, 1e-150], [1e-150, 1.0]])
        result = mesbf_decoupled(p)
        assert result.value == 1.0
        assert result.witness_kind == "exact"
        assert secret_bit_fraction(apply(*result.witness, point_mass_eve(p))) == 1.0

    def test_witness_weights_past_the_float_range_raise_no_bare_error(self):
        # Its phi is 1 / 5e-324, past the float maximum.
        try:
            result = mesbf_decoupled(BipartiteDistribution([[1.0, 0.0], [0.0, 5e-324]]))
        except InvalidParamsError:
            return
        assert 0.5 <= result.value <= 1.0

    def test_seeded_wide_tables_give_results_or_secbit_errors(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            p_ab = BipartiteDistribution(np.exp(rng.uniform(-700.0, 0.0, size=rng.integers(2, 5, size=2))))
            try:
                result = mesbf_decoupled(p_ab)
            except SecbitError:
                continue
            if result.witness_kind == "exact":
                achieved = secret_bit_fraction(apply(*result.witness, point_mass_eve(p_ab)))
                assert achieved == pytest.approx(result.value, abs=1e-9)
        for _ in range(400):
            p = TripartiteDistribution(np.exp(rng.uniform(-700.0, 0.0, size=(2, 2, int(rng.integers(1, 4))))))
            try:
                result = mesbf_reversible(p)
            except SecbitError:
                continue
            if result.witness_kind == "exact":
                assert secret_bit_fraction(apply(*result.witness, p)) == pytest.approx(result.value, abs=1e-9)

    def test_cross_ratio_whose_products_underflow(self):
        # P01 P10 = 1e-341 and P00 P11 = 1e-339 both underflow; their ratio is 0.01.
        p = BipartiteDistribution([[1e-169, 1e-171, 1.0], [1e-170, 1e-170, 1.0]])
        result = mesbf_decoupled(p)
        assert result.value == pytest.approx(1 / 1.1, rel=1e-15)
        assert result.detail["pair"] == (0, 1, 0, 1)
        assert vartheta(p) == pytest.approx(1 / 1.1, rel=1e-15)
        assert mesbf_decoupled_power(p, 2).value == pytest.approx(1 / 1.01, rel=1e-15)
        assert omega(p, 0, 1, 0, 1) == pytest.approx(0.01, rel=1e-15)
        assert omega(p, 0, 1, 1, 0) == pytest.approx(100.0, rel=1e-15)

    def test_reversible_scores_a_branch_whose_ratio_overflows(self):
        # The diagonal ratio 1 / 5e-324 passes the float maximum; the branch
        # reaches 1 - 4.5e-139, which is 1.0 in floats.
        p_ab = BipartiteDistribution([[1.0, 1e-300], [1e-300, 5e-324]])
        result = mesbf_reversible_decoupled(p_ab)
        assert result.value == 1.0
        assert result.detail["branch"] == "diagonal"
        try:
            achieved = secret_bit_fraction(apply(*result.witness, point_mass_eve(p_ab)))
        except InvalidParamsError:
            return
        assert achieved == pytest.approx(result.value, abs=1e-9)

    def test_bipartite_overflow_raises_without_a_warning(self):
        huge = Filtration([[1e200, 1e200], [1e200, 1e200]])
        with pytest.raises(InvalidParamsError, match="non-finite"):
            apply_bipartite(huge, huge, BipartiteDistribution([[1.0, 0.0], [0.0, 1.0]]))

    def test_mantissa_path_peaks_no_higher_than_the_plain_one(self):
        # At 2 x 1024 the scan peaks at about 67 MB on either path (tracemalloc);
        # a scan that kept its gathered cells while dividing peaked at 76.5 MB.
        normal = np.random.default_rng(61).uniform(0.1, 1.0, size=(2, 1024))
        underflowing = normal.copy()
        underflowing[0, 0], underflowing[1, 1] = 1e-200, 1e-170
        for table in (normal, underflowing):
            p = BipartiteDistribution(table)
            with traced_memory() as memory:
                vartheta(p)
            assert memory.peak < 72e6

    @given(
        table=st.tuples(st.integers(1, 4), st.integers(1, 4))
        .flatmap(
            lambda shape: arrays(
                np.float64,
                shape,
                elements=st.one_of(
                    st.just(0.0),
                    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1070, 0)),
                ),
            )
        )
        .filter(lambda table: table.any()),
        copies=st.integers(1, 8),
    )
    @example(table=np.array([[1e-169, 1e-171, 1.0], [1e-170, 1e-170, 1.0]]), copies=2)
    @settings(derandomize=True, max_examples=200, database=None, deadline=None)
    def test_cross_ratio_functions_match_exact_rationals(self, table, copies):
        """Each value is the exact one within relative 1e-12, or a ``SecbitError``.

        A cross ratio below the normal floats may differ from the nearest
        float by one subnormal step, the most it can be rounded to twice.
        """
        p = BipartiteDistribution(table)
        least = oracles.exact_least_cross_ratio(table)
        omega_min = math.inf if least is None else oracles.to_float(least)

        def expected(n):
            return max(0.5, 1.0 / (1.0 + omega_min ** (n / 2.0)))

        assert vartheta(p) == pytest.approx(expected(1), rel=1e-12)
        assert mesbf_decoupled_power(p, copies).value == pytest.approx(expected(copies), rel=1e-12)
        try:
            assert mesbf_decoupled(p).value == pytest.approx(expected(1), rel=1e-12)
        except SecbitError:
            pass
        d_a, d_b = table.shape
        for (a0, a1), (b0, b1) in itertools.product(
            itertools.combinations(range(d_a), 2), itertools.permutations(range(d_b), 2)
        ):
            ratio = oracles.exact_cross_ratio(table, a0, a1, b0, b1)
            if ratio is None:
                expected_omega = math.inf if table[a0, b1] > 0.0 and table[a1, b0] > 0.0 else math.nan
            else:
                expected_omega = oracles.to_float(ratio)
            assert omega(p, a0, a1, b0, b1) == pytest.approx(expected_omega, rel=1e-12, abs=5e-324, nan_ok=True)


class TestDecoupledMesbf:
    def test_uniform_is_half(self):
        result = mesbf_decoupled(BipartiteDistribution(np.full((2, 2), 0.25)))
        assert result.value == pytest.approx(0.5)
        achieved = secret_bit_fraction(
            apply(*result.witness, point_mass_eve(BipartiteDistribution(np.full((2, 2), 0.25))))
        )
        assert achieved == pytest.approx(0.5, abs=1e-12)

    def test_zero_cross_cells_reach_one(self):
        table = np.zeros((3, 3))
        table[0, 0] = table[1, 1] = 0.3
        table[2, 2] = 0.1
        table[0, 2] = table[2, 0] = 0.15
        result = mesbf_decoupled(BipartiteDistribution(table))
        assert result.value == pytest.approx(1.0)
        assert result.detail["pair"] == (0, 1, 0, 1)

    def test_witnesses_reproduce_values(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            d_a, d_b = rng.integers(2, 5, size=2)
            p = BipartiteDistribution(rng.uniform(0.05, 1.0, size=(d_a, d_b)))
            result = mesbf_decoupled(p)
            assert result.witness_kind == "exact"
            achieved = secret_bit_fraction(apply(*result.witness, point_mass_eve(p)))
            assert achieved == pytest.approx(result.value, abs=1e-9)

    def test_refuses_alphabets_beyond_the_pair_cap(self):
        # 46 x 46 alphabets have about 2 million outcome pairs, twice the
        # cap; the scan refuses before it allocates anything.
        p = BipartiteDistribution(np.ones((46, 46)))
        for measure in (mesbf_decoupled, lambda q: mesbf_decoupled_power(q, 2), vartheta):
            with pytest.raises(TooLargeError):
                measure(p)

    def test_single_row_alphabet_falls_back_to_coins(self):
        p = BipartiteDistribution(np.array([[0.2, 0.3, 0.5]]))
        result = mesbf_decoupled(p)
        assert result.value == 0.5
        assert result.detail["branch"] == "coin-toss"

    def test_value_is_scale_invariant(self):
        rng = np.random.default_rng(139)
        p = BipartiteDistribution(rng.uniform(0.05, 1.0, size=(3, 4)))
        value = mesbf_decoupled(p).value
        scaled = BipartiteDistribution(5.5 * p.table)
        assert mesbf_decoupled(scaled).value == pytest.approx(value, abs=1e-12)

    def test_witness_is_the_proper_rescaling_of_the_selecting_filters(self, monkeypatch):
        # Every witness build(q) must equal Filtration(raw).as_proper() bit
        # for bit, where raw keeps outcome a0 (b0) at weight 1 and a1 (b1)
        # at q (phi / q); exact, both-zero and one-zero balancing cells.
        built = []
        balanced = measures._balanced_witness

        def recording(build, ratio, cell0, cell1):
            def build_and_record(q):
                built.append((q, ratio, build(q)))
                return built[-1][2]

            return balanced(build_and_record, ratio, cell0, cell1)

        monkeypatch.setattr(measures, "_balanced_witness", recording)
        rng = np.random.default_rng(149)
        tables = [np.array([[0.4, 0.0], [0.2, 0.4]]), np.array([[0.4, 0.3], [0.0, 0.4]])]
        for d_a in range(2, 7):
            for d_b in range(2, 7):
                for zeros in (0.0, 0.3):
                    table = rng.uniform(0.05, 1.0, size=(d_a, d_b))
                    table[rng.random(size=table.shape) < zeros] = 0.0
                    tables.append(table)
        kinds = set()
        for table in tables:
            built.clear()
            result = mesbf_decoupled(BipartiteDistribution(table / table.sum()))
            if result.detail["pair"] is None:
                continue
            kinds.add(result.witness_kind)
            if result.witness_family is not None:
                result.witness_family(1e-3)
            a0, a1, b0, b1 = result.detail["pair"]
            assert built and result.witness is built[0][2]
            for q, phi, (left, right) in built:
                raw_left, raw_right = np.zeros((2, table.shape[0])), np.zeros((2, table.shape[1]))
                raw_left[0, a0], raw_left[1, a1] = 1.0, q
                raw_right[0, b0], raw_right[1, b1] = 1.0, phi / q
                assert left.matrix.tobytes() == Filtration(raw_left).as_proper().matrix.tobytes()
                assert right.matrix.tobytes() == Filtration(raw_right).as_proper().matrix.tobytes()
        assert kinds == {"exact", "limiting"}


class TestDecoupledPower:
    def test_single_copy_matches_base(self):
        rng = np.random.default_rng(149)
        for _ in range(25):
            p = BipartiteDistribution(rng.uniform(0.05, 1.0, size=(3, 3)))
            assert mesbf_decoupled_power(p, 1).value == pytest.approx(
                mesbf_decoupled(p).value, abs=1e-15
            )

    def test_sixteen_seventeenths(self):
        p = bipartite_from_entries(
            (2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
        )
        result = mesbf_decoupled_power(p, 2)
        assert result.value == pytest.approx(16 / 17, abs=1e-12)
        assert result.detail["omega_min"] == pytest.approx(1 / 16, abs=1e-12)

    def test_matches_explicit_tensor_power(self):
        rng = np.random.default_rng(151)
        p = BipartiteDistribution(rng.uniform(0.1, 1.0, size=(2, 3)))
        for copies in (1, 2, 3):
            direct = mesbf_decoupled(tensor_power(p, copies)).value
            assert mesbf_decoupled_power(p, copies).value == pytest.approx(
                direct, abs=1e-10
            )

    def test_nondecreasing_and_converges_to_one(self):
        p = bipartite_from_entries(
            (2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
        )
        values = [mesbf_decoupled_power(p, n).value for n in range(1, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-9

    def test_rejects_zero_copies(self):
        with pytest.raises(OutOfRangeError):
            mesbf_decoupled_power(shared_bit(), 0)


class TestOmega:
    def test_known_values(self):
        assert omega(shared_bit(), 0, 1, 0, 1) == 0.0
        assert omega(BipartiteDistribution(np.full((2, 2), 0.25)), 0, 1, 0, 1) == 1.0

    def test_infinite_and_undefined(self):
        anti = bipartite_from_entries((2, 2), {(0, 1): 0.5, (1, 0): 0.5})
        assert omega(anti, 0, 1, 0, 1) == math.inf
        corner = bipartite_from_entries((2, 2), {(0, 0): 1.0})
        assert math.isnan(omega(corner, 0, 1, 0, 1))
        # the maximization would instead use the relabeled pair where it is 0
        assert omega(anti, 0, 1, 1, 0) == 0.0
        assert mesbf_decoupled(anti).value == pytest.approx(1.0)

    def test_index_guard(self):
        with pytest.raises(IndexOutOfRangeError):
            omega(shared_bit(), 0, 2, 0, 1)

    @pytest.mark.parametrize(
        "index",
        [True, False, np.True_, np.False_, 1.0, np.float64(1.0), "1", None],
        ids=["bool", "bool-false", "numpy-bool", "numpy-bool-false", "float", "numpy-float", "str", "none"],
    )
    def test_non_integer_index_is_out_of_range(self, index):
        # numpy would read a boolean as a mask and a float as an error of its own.
        p = BipartiteDistribution(np.full((2, 2), 0.25))
        for position in range(4):
            indices = [0, 1, 0, 1]
            indices[position] = index
            with pytest.raises(IndexOutOfRangeError):
                omega(p, *indices)

    def test_numpy_integer_indices_are_accepted(self):
        p = BipartiteDistribution(np.full((2, 2), 0.25))
        assert omega(p, np.int64(0), np.intp(1), np.int32(0), np.uint8(1)) == 1.0


class TestVartheta:
    def test_embedding_preserves_the_maximization(self):
        rng = np.random.default_rng(157)
        for _ in range(100):
            d_a, d_b = rng.integers(2, 5, size=2)
            p = BipartiteDistribution(rng.uniform(0.02, 1.0, size=(d_a, d_b)))
            assert vartheta(embed(p)) == pytest.approx(
                mesbf_decoupled(p).value, abs=1e-12
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(163)
        p = BipartiteDistribution(rng.uniform(0.05, 1.0, size=(4, 4)))
        for alpha in (0.2, 3.0, 11.0):
            scaled = BipartiteDistribution(alpha * p.table)
            assert vartheta(scaled) == pytest.approx(vartheta(p), abs=1e-12)

    def test_shared_bit(self):
        assert vartheta(shared_bit()) == 1.0


class TestCrossRatioMonotonicity:
    """Invariance and monotonicity of the cross-ratio maximization."""

    def test_reversible_operations_leave_it_unchanged(self):
        rng = np.random.default_rng(167)
        for _ in range(100):
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            base = vartheta(p)
            perm = Filtration.permutation(rng.permutation(size_a))
            scale = Filtration.diagonal(rng.uniform(0.05, 1.0, size=size_a))
            identity = Filtration.identity(size_b)
            assert vartheta(apply_bipartite(perm, identity, p)) == pytest.approx(
                base, abs=1e-12
            )
            assert vartheta(apply_bipartite(scale, identity, p)) == pytest.approx(
                base, abs=1e-12
            )

    def test_shear_cannot_increase_it(self):
        rng = np.random.default_rng(173)
        for _ in range(100):
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            r = float(rng.uniform(0.05, 10.0))
            sheared = apply_bipartite(lower_shear(r, size_a), Filtration.identity(size_b), p)
            assert vartheta(sheared) <= vartheta(p) + 1e-12
            sheared_b = apply_bipartite(Filtration.identity(size_a), lower_shear(r, size_b), p)
            assert vartheta(sheared_b) <= vartheta(p) + 1e-12

    def test_gluing_cannot_increase_it(self):
        rng = np.random.default_rng(179)
        for _ in range(100):
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            column = int(rng.integers(2, size_a))
            glued = apply_bipartite(
                row_gluing(float(rng.uniform(0.05, 10.0)), column, size_a),
                Filtration.identity(size_b),
                p,
            )
            assert vartheta(glued) <= vartheta(p) + 1e-12


# Entries are 0 or at least 1e-6, so every rescaled entry stays a normal float.
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
_FACTORS = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
_SCALE_SETTINGS = settings(derandomize=True, max_examples=150, database=None, deadline=None)


def _tables(shapes):
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=_ENTRIES)).filter(
        lambda table: table.sum() > 0.0
    )


class TestScaleInvariance:
    """Every measure is unchanged when the whole table is rescaled."""

    @given(
        table=_tables(st.tuples(st.integers(1, 4), st.integers(1, 4))),
        factor=_FACTORS,
    )
    @example(table=np.array([[1.0, 1e-30], [1e-30, 1.0]]), factor=1e-170)
    @example(table=np.array([[0.7, 0.2, 0.4], [0.3, 0.9, 0.5], [0.1, 0.6, 0.8]]), factor=1e-300)
    @example(table=np.array([[0.6, 0.3], [0.2, 0.5]]), factor=1e160)
    @_SCALE_SETTINGS
    def test_bipartite_measures(self, table, factor):
        p, scaled = BipartiteDistribution(table), BipartiteDistribution(factor * table)
        assert mesbf_decoupled(scaled).value == pytest.approx(mesbf_decoupled(p).value, abs=1e-12)
        for copies in range(1, 9):
            assert mesbf_decoupled_power(scaled, copies).value == pytest.approx(
                mesbf_decoupled_power(p, copies).value, abs=1e-12
            )
        assert vartheta(scaled) == pytest.approx(vartheta(p), abs=1e-12)
        d_a, d_b = table.shape
        for (a0, a1), (b0, b1) in itertools.product(
            itertools.combinations(range(d_a), 2), itertools.permutations(range(d_b), 2)
        ):
            assert omega(scaled, a0, a1, b0, b1) == pytest.approx(
                omega(p, a0, a1, b0, b1), rel=1e-12, nan_ok=True
            )
        if table.shape == (2, 2):
            assert mesbf_reversible_decoupled(scaled).value == pytest.approx(
                mesbf_reversible_decoupled(p).value, abs=1e-12
            )

    @given(table=_tables(st.integers(1, 4).map(lambda d_e: (2, 2, d_e))), factor=_FACTORS)
    @example(
        table=np.array([[[0.67, 0.34, 0.14], [0.11, 0.83, 0.92]], [[0.65, 0.76, 0.59], [0.94, 0.83, 0.1]]]),
        factor=1e-300,
    )
    @example(
        table=np.array([[[0.67, 0.34, 0.14], [0.11, 0.83, 0.92]], [[0.65, 0.76, 0.59], [0.94, 0.83, 0.1]]]),
        factor=1e160,
    )
    @_SCALE_SETTINGS
    def test_binary_measures(self, table, factor):
        p, scaled = TripartiteDistribution(table), TripartiteDistribution(factor * table)
        assert secret_bit_fraction(scaled) == pytest.approx(secret_bit_fraction(p), abs=1e-12)
        assert mesbf_reversible(scaled).value == pytest.approx(mesbf_reversible(p).value, abs=1e-12)
        assert mesbf_reversible_decoupled(marginal_ab(scaled)).value == pytest.approx(
            mesbf_reversible_decoupled(marginal_ab(p)).value, abs=1e-12
        )


def _assert_same_result(got, ref, tol):
    assert got.value == pytest.approx(ref.value, abs=tol)
    assert got.witness_kind == ref.witness_kind
    assert got.detail.keys() == ref.detail.keys()
    for key, expected in ref.detail.items():
        if isinstance(expected, float):
            assert got.detail[key] == pytest.approx(expected, rel=1e-12)
        else:
            assert got.detail[key] == expected
    pairs = [(got.witness, ref.witness)]
    if ref.witness_family is not None:
        pairs.append((got.witness_family(1e-3), ref.witness_family(1e-3)))
    for got_pair, ref_pair in pairs:
        assert (got_pair is None) == (ref_pair is None)
        for got_filter, ref_filter in zip(got_pair or (), ref_pair or ()):
            np.testing.assert_allclose(got_filter.matrix, ref_filter.matrix, rtol=0.0, atol=1e-12)


class TestLoopReference:
    """The vectorized closed forms against their loop forms in ``oracles``."""

    @staticmethod
    def _table(rng, shape):
        table = rng.uniform(0.0, 1.0, size=shape)
        table[rng.random(size=shape) < 0.3] = 0.0
        if not table.sum() > 0.0:
            table.flat[0] = 1.0
        return table

    def test_decoupled_forms(self):
        rng = np.random.default_rng(191)
        for _ in range(600):
            p = BipartiteDistribution(self._table(rng, tuple(rng.integers(1, 7, size=2))))
            _assert_same_result(mesbf_decoupled(p), oracles.mesbf_decoupled(p), 1e-14)
            copies = int(rng.integers(1, 9))
            _assert_same_result(
                mesbf_decoupled_power(p, copies), oracles.mesbf_decoupled_power(p, copies), 1e-12
            )
            assert vartheta(p) == pytest.approx(oracles.vartheta(p), abs=1e-14)

    def test_reversible_forms(self):
        rng = np.random.default_rng(193)
        for _ in range(600):
            p = TripartiteDistribution(self._table(rng, (2, 2, int(rng.integers(1, 5)))))
            _assert_same_result(mesbf_reversible(p), oracles.mesbf_reversible(p), 1e-14)
            p_ab = BipartiteDistribution(self._table(rng, (2, 2)))
            _assert_same_result(
                mesbf_reversible_decoupled(p_ab), oracles.mesbf_reversible_decoupled(p_ab), 1e-14
            )


class TestOutcomePairCache:
    """Outcome pairs are the product of two per-alphabet tables from one bounded cache."""

    def test_cached_arrays_equal_a_fresh_build(self):
        for d_a, d_b in itertools.product(range(1, 17), repeat=2):
            expected = [
                (a0, a1, b0, b1)
                for a0, a1 in itertools.combinations(range(d_a), 2)
                for b0, b1 in itertools.permutations(range(d_b), 2)
            ]
            alice, bob = measures._outcome_pairs(d_a, d_b)
            got = [(*a, *b) for a, b in itertools.product(alice.T.tolist(), bob.T.tolist())]
            assert got == expected
            for table in (alice, bob):
                assert table.dtype == np.intp and table.shape[0] == 2 and not table.flags.writeable

    def test_returned_arrays_are_read_only(self):
        for table in measures._outcome_pairs(3, 4):
            with pytest.raises(ValueError):
                table[0, 0] = 1
        assert measures._outcome_pairs(3, 4)[0][0, 0] == 0

    def test_cache_is_bounded(self):
        measures._pair_table.cache_clear()
        for d_a, d_b in itertools.product(range(1, 17), repeat=2):
            measures._outcome_pairs(d_a, d_b)
        assert measures._pair_table.cache_info().currsize <= 64

    def test_large_tables_are_not_kept(self):
        # Bob's tables at 1022-1024 symbols hold about 1M ordered pairs, 16 MB each;
        # whatever the cache keeps stays below its bound of about 2 MB.
        shapes = ((2, 1024), (2, 1023), (2, 1022))
        tables = [BipartiteDistribution(np.random.default_rng(61).uniform(0.1, 1.0, size=shape)) for shape in shapes]
        measures._pair_table.cache_clear()
        with traced_memory() as memory:
            for p in tables:
                vartheta(p)
                mesbf_decoupled(p)
                mesbf_decoupled_power(p, 3)
        assert memory.retained < 1e6

    def test_pair_cap_raises_before_allocating(self):
        # 46 x 46 alphabets have about 2 million pairs: 64 MB of indices.
        with traced_memory() as memory:
            with pytest.raises(TooLargeError):
                measures._outcome_pairs(46, 46)
        assert memory.peak < 1e6

    def test_one_symbol_alphabets_build_no_pairs(self):
        # One symbol has no outcome pair, so the other alphabet's table of
        # about 4 million ordered pairs is never built.
        for shape in ((1, 2000), (2000, 1)):
            p = BipartiteDistribution(np.random.default_rng(59).uniform(0.1, 1.0, size=shape))
            for measure in (vartheta, lambda p: mesbf_decoupled(p).value, lambda p: mesbf_decoupled_power(p, 2).value):
                measures._pair_table.cache_clear()
                with traced_memory() as memory:
                    value = measure(p)
                assert value == 0.5 and memory.peak < 1e6

    def test_measures_identical_with_a_cold_cache(self):
        def seeded(cls, seed, shape_of):
            rng = np.random.default_rng(seed)
            return [cls(TestLoopReference._table(rng, shape_of(rng))) for _ in range(200)]

        bipartite = seeded(BipartiteDistribution, 191, lambda rng: tuple(rng.integers(1, 7, size=2)))
        binary = seeded(TripartiteDistribution, 193, lambda rng: (2, 2, int(rng.integers(1, 5))))

        def run(cold):
            def call(measure, p, *args):
                if cold:
                    measures._pair_table.cache_clear()
                # A fresh object: a table's scan is kept on its object.
                return measure(type(p)(p.table), *args)

            results = [(call(mesbf_decoupled, p), call(mesbf_decoupled_power, p, 3)) for p in bipartite]
            results += [(call(mesbf_reversible, p),) for p in binary]
            return results, [call(vartheta, p) for p in bipartite]

        fresh_results, fresh_theta = run(cold=True)
        cached_results, cached_theta = run(cold=False)
        assert cached_theta == fresh_theta
        for got, ref in zip(itertools.chain(*cached_results), itertools.chain(*fresh_results)):
            assert (got.value, got.witness_kind, got.detail) == (ref.value, ref.witness_kind, ref.detail)
            assert (got.witness is None) == (ref.witness is None)
            for got_filter, ref_filter in zip(got.witness or (), ref.witness or ()):
                assert np.array_equal(got_filter.matrix, ref_filter.matrix)


def _stack(rng, shape, count):
    """``count`` seeded tables of one shape: uniform, 30% zeros or integers 0-3, each times ``2**k``."""
    kind = int(rng.integers(3))
    if kind == 2:
        tables = rng.integers(0, 4, size=(count, *shape)).astype(float)
    else:
        tables = rng.uniform(0.0, 1.0, size=(count, *shape))
        if kind == 1:
            tables[rng.random(tables.shape) < 0.3] = 0.0
    tables[~(tables.max(axis=(1, 2)) > 0.0), 0, 0] = 1.0
    return tables * 2.0 ** rng.integers(-1070, 1000, size=(count, 1, 1))


# Cross-ratio products 1e-341 and 1e-339 underflow; the least ratio is 0.01.
UNDERFLOWING = [[1e-169, 1e-171, 1.0], [1e-170, 1e-170, 1.0]]


class TestStackedKernel:
    """The cross-ratio kernel on a stack of tables is the single-table kernel, table by table."""

    @staticmethod
    def _assert_per_table(tables):
        least = measures._least_cross_ratios(tables)
        theta = measures._varthetas(tables)
        assert least.shape == theta.shape == (len(tables),)
        for k, table in enumerate(tables):
            assert float(least[k]).hex() == measures._least_cross_ratio(table)[0].hex()
            assert float(theta[k]).hex() == vartheta(BipartiteDistribution(table)).hex()

    def test_seeded_stacks(self):
        rng = np.random.default_rng(211)
        for shape in itertools.product(range(1, 7), repeat=2):
            for _ in range(3):
                self._assert_per_table(_stack(rng, shape, int(rng.integers(1, 9))))

    def test_an_underflowing_table_among_normal_ones(self):
        tables = _stack(np.random.default_rng(213), (2, 3), 7)
        tables[3] = UNDERFLOWING
        self._assert_per_table(tables)
        assert measures._least_cross_ratios(tables)[3] == pytest.approx(0.01, rel=1e-12)

    def test_stacks_longer_than_one_block(self, monkeypatch):
        rng = np.random.default_rng(215)
        # One kernel call takes 36 tables of 6 x 6 (450 outcome pairs) and 136 of 5 x 4 (120 pairs).
        for shape, count in (((6, 6), 200), ((5, 4), 600)):
            self._assert_per_table(_stack(rng, shape, count))
        # Blocks of 6 tables of 2 x 3 (6 pairs), one of them with an underflowing table.
        monkeypatch.setattr(measures, "_STACK_CELLS", 40)
        for shape in ((2, 2), (3, 2)):
            self._assert_per_table(_stack(rng, shape, 50))
        tables = _stack(rng, (2, 3), 50)
        tables[29] = UNDERFLOWING
        self._assert_per_table(tables)


class TestOneScanPerTable:
    """The decoupled closed forms of one table object share one scan, kept on that object."""

    FORMS = {
        "mesbf_decoupled": mesbf_decoupled,
        "mesbf_decoupled_power": lambda p: mesbf_decoupled_power(p, 3),
        "vartheta": vartheta,
    }

    def test_every_order_gives_the_calls_on_fresh_copies(self):
        rng = np.random.default_rng(217)
        for _ in range(200):
            table = _stack(rng, tuple(int(d) for d in rng.integers(1, 7, size=2)), 1)[0]
            fresh = {name: result_bits(form(BipartiteDistribution(table))) for name, form in self.FORMS.items()}
            for order in itertools.permutations(self.FORMS):
                p = BipartiteDistribution(table)
                assert {name: result_bits(self.FORMS[name](p)) for name in order} == fresh

    def test_copies_scan_their_own_table(self):
        table = np.random.default_rng(219).uniform(0.1, 1.0, size=(3, 4)) * 3.0
        p = BipartiteDistribution(table)
        assert p._least_ratio is None
        value = vartheta(p)
        assert p._least_ratio == measures._least_cross_ratio(table)
        # A value kept on p that no scan gives: a copy that read it would return 1.
        object.__setattr__(p, "_least_ratio", (0.0, (0, 1, 0, 1)))
        other = table[::-1].copy()
        for copy, expected in (
            (dataclasses.replace(p), value),
            (dataclasses.replace(p, table=other), vartheta(BipartiteDistribution(other))),
            (_unit_scaled(p), value),
        ):
            assert copy is not p and copy._least_ratio is None
            assert vartheta(copy) == expected < 1.0
            assert mesbf_decoupled(copy).value == expected

    def test_repr_and_equality_are_unchanged(self):
        one = BipartiteDistribution([[1.0]])
        p = BipartiteDistribution([[0.4, 0.1], [0.1, 0.4]])
        shown = (repr(one), repr(p))
        for q in (one, p):
            for form in self.FORMS.values():
                form(q)
        assert (repr(one), repr(p)) == shown
        assert shown[1] == f"BipartiteDistribution(table={p.table!r})"
        assert one == BipartiteDistribution([[1.0]]) and p == p
        assert one._least_ratio is not None
