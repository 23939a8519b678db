import math

import numpy as np
import oracles
import pytest
from conftest import random_binary_tripartite, traced_memory

from secbit import (
    CanonicalParams,
    TripartiteDistribution,
    binary_entropy,
    block_error_rate,
    bob_uncertainty,
    canonical_distribution,
    eve_uncertainty,
    exact_block_statistics,
    minimal_block_length,
    point_mass_eve,
    protocol_report,
    satellite_scenario,
    secret_bit_fraction,
    shared_bit,
    simulate_advantage_distillation,
    string_filter,
)
from secbit import distill
from secbit.errors import (
    EmptyBlockError,
    InvalidParamsError,
    NotBinaryError,
    NotNormalizedError,
    OutOfRangeError,
)

UNIFORM = CanonicalParams(0.6, (0.25, 0.25, 0.25, 0.25))
# The two parameter sets of the benchmark's protocol sweep.
SWEEP_PARAMS = (UNIFORM, CanonicalParams(0.8, (0.35, 0.15, 0.15, 0.35)))


def h2(r):
    if r in (0.0, 1.0):
        return 0.0
    return -r * math.log2(r) - (1 - r) * math.log2(1 - r)


class TestBinaryEntropy:
    def test_endpoints_and_maximum(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_value_and_symmetry(self):
        assert binary_entropy(0.2) == pytest.approx(h2(0.2), abs=1e-15)
        assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)
        assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(OutOfRangeError):
            binary_entropy(1.2)


class TestBlockErrorRate:
    def test_zero_disagreement(self):
        perfect = CanonicalParams(0.9, (0.5, 0.0, 0.0, 0.5))
        for n in (1, 5, 50):
            assert block_error_rate(perfect, n) == 0.0

    def test_single_sample_is_epsilon(self):
        assert block_error_rate(UNIFORM, 1) == pytest.approx(0.2, abs=1e-15)

    def test_strictly_decreasing_in_block_length(self):
        rates = [block_error_rate(UNIFORM, n) for n in range(1, 40)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_log_space_stability_for_huge_blocks(self):
        value = block_error_rate(UNIFORM, 5000)
        assert value == 0.0 or (0.0 <= value < 1e-300)
        assert bob_uncertainty(UNIFORM, 5000) == 0.0
        assert eve_uncertainty(UNIFORM, 5000) == 0.0


class TestUncertainties:
    def test_values_at_one_sample(self):
        assert bob_uncertainty(UNIFORM, 1) == pytest.approx(h2(0.2), abs=1e-12)
        assert eve_uncertainty(UNIFORM, 1) == pytest.approx(h2(0.6), abs=1e-12)

    def test_bob_vanishes_for_large_blocks(self):
        values = [bob_uncertainty(UNIFORM, n) for n in (1, 5, 20, 80)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_perfect_secrecy_degenerates(self):
        perfect = CanonicalParams(1.0, (0.5, 0.0, 0.0, 0.5))
        assert bob_uncertainty(perfect, 1) == 0.0
        assert eve_uncertainty(perfect, 1) == 0.0

    def test_complementary_family_keeps_parties_equal(self):
        # eta01 + eta10 = 1 makes the two ratios complementary fractions of
        # the same denominator, and h(p) = h(1-p).
        family = CanonicalParams(0.6, (0.0, 0.5, 0.5, 0.0))
        for n in (1, 2, 7, 33, 120):
            assert bob_uncertainty(family, n) == pytest.approx(
                eve_uncertainty(family, n), abs=1e-12
            )

    def test_large_block_first_order_approximation(self):
        # h of the block error approaches (rate) * N * log2((1-eps)/eps).
        eps = UNIFORM.epsilon
        for n in (50, 80, 120):
            rate = block_error_rate(UNIFORM, n)
            approx = rate * n * math.log2((1 - eps) / eps)
            exact = bob_uncertainty(UNIFORM, n)
            assert abs(approx - exact) / exact < 0.1


class TestMinimalBlockLength:
    def test_uniform_case_needs_one_sample(self):
        report = minimal_block_length(UNIFORM, 200)
        assert report is not None
        assert report.block_length == 1
        assert report.satisfied

    def test_complementary_family_never_succeeds(self):
        family = CanonicalParams(0.6, (0.0, 0.5, 0.5, 0.0))
        assert minimal_block_length(family, 200) is None

    def test_perfect_secrecy_returns_none(self):
        perfect = CanonicalParams(1.0, (0.5, 0.0, 0.0, 0.5))
        assert minimal_block_length(perfect, 50) is None

    def test_exists_on_a_parameter_grid(self):
        # Anywhere off the two degenerate families a feasible block length
        # exists well before 200.
        for mu in np.linspace(0.55, 0.95, 5):
            for cross in np.linspace(0.1, 0.9, 4):
                eta = ((1 - cross) / 2, cross / 2, cross / 2, (1 - cross) / 2)
                report = minimal_block_length(CanonicalParams(float(mu), eta), 200)
                assert report is not None, (mu, cross)


class TestClosedFormPrecondition:
    # The closed forms need P00 = P11 and P01 = P10: eta00 = eta11 and
    # eta01 = eta10 to within 1e-12, or mu = 1.
    ASYMMETRIC = (
        CanonicalParams(0.6, (0.7, 0.1, 0.1, 0.1)),
        CanonicalParams(0.6, (0.1, 0.3, 0.05, 0.55)),
        CanonicalParams(0.8, (0.35, 0.15, 0.15 + 2e-12, 0.35 - 2e-12)),
    )

    @pytest.mark.parametrize(
        "entry", (block_error_rate, bob_uncertainty, eve_uncertainty, protocol_report, minimal_block_length)
    )
    @pytest.mark.parametrize("params", ASYMMETRIC, ids=("eta00", "eta01", "tolerance"))
    def test_asymmetric_eta_refused(self, entry, params):
        with pytest.raises(InvalidParamsError, match="eta00 = eta11"):
            entry(params, 7)

    def test_symmetric_within_tolerance_accepted(self):
        params = CanonicalParams(0.8, (0.35, 0.15, 0.15 + 5e-13, 0.35 - 5e-13))
        stats = exact_block_statistics(canonical_distribution(params), 7)
        assert protocol_report(params, 7).block_error_rate == pytest.approx(stats["disagreement_rate"], rel=1e-9)

    def test_mu_one_holds_for_any_eta(self):
        params = CanonicalParams(1.0, (0.1, 0.3, 0.05, 0.55))
        for n in (1, 2, 7):
            stats = exact_block_statistics(canonical_distribution(params), n)
            report = protocol_report(params, n)
            assert report.block_error_rate == stats["disagreement_rate"] == 0.0
            assert report.bob_uncertainty == report.eve_uncertainty == 0.0
            assert block_error_rate(params, n) == bob_uncertainty(params, n) == eve_uncertainty(params, n) == 0.0
        assert minimal_block_length(params, 20) is None


class TestStringFilter:
    def test_alternating_blocks(self):
        assert string_filter("0101") == (0, 1)
        assert string_filter("1010") == (1, 0)
        assert string_filter("010") == (0, 0)
        assert string_filter([1]) == (1, 1)

    def test_rejection(self):
        assert string_filter("0011") is None
        assert string_filter("0110") is None

    def test_empty_block(self):
        with pytest.raises(EmptyBlockError):
            string_filter("")

    @pytest.mark.parametrize(
        "block",
        [[0.9, 1.2], [0.0, 1.0], [True, False], [np.True_], "0a1", "012", " 01", "0,1", ["0", "1"], [0, 2]],
    )
    def test_non_bits_rejected(self, block):
        with pytest.raises(InvalidParamsError):
            string_filter(block)

    def test_numpy_integer_bits_give_python_ints(self):
        for block in ([np.int64(1), np.uint8(0)], np.array([1, 0]), np.array([0, 1, 0], dtype=np.int8)):
            got = string_filter(block)
            assert got in ((1, 0), (0, 0)) and all(type(bit) is int for bit in got)
        assert string_filter([np.int64(0), np.int64(0)]) is None


class TestSimulation:
    def test_agrees_with_analytics_at_three_sigma(self):
        p = canonical_distribution(UNIFORM)
        sim = simulate_advantage_distillation(p, 3, 60000, seed=424242)
        eps = UNIFORM.epsilon
        expected = eps**3 / (eps**3 + (1 - eps) ** 3)
        sigma = math.sqrt(expected * (1 - expected) / sim.accepted)
        assert abs(sim.disagreement_rate - expected) <= 3 * sigma
        blank = 0.6**3 / (eps**3 + (1 - eps) ** 3)
        sigma_blank = math.sqrt(blank * (1 - blank) / sim.accepted)
        assert abs(sim.eve_blank_rate - blank) <= 3 * sigma_blank

    def test_agrees_with_exact_products_for_asymmetric_parameters(self):
        params = CanonicalParams(0.7, (0.05, 0.25, 0.1, 0.6))
        p = canonical_distribution(params)
        sim = simulate_advantage_distillation(p, 2, 60000, seed=99)
        exact = exact_block_statistics(p, 2)
        sigma = math.sqrt(
            exact["acceptance_rate"] * (1 - exact["acceptance_rate"]) / sim.samples
        )
        assert abs(sim.acceptance_rate - exact["acceptance_rate"]) <= 3 * sigma
        sigma_d = math.sqrt(
            exact["disagreement_rate"] * (1 - exact["disagreement_rate"]) / sim.accepted
        )
        assert abs(sim.disagreement_rate - exact["disagreement_rate"]) <= 3 * sigma_d

    def test_perfect_shared_bit_blocks(self):
        from secbit import point_mass_eve, shared_bit

        p = point_mass_eve(shared_bit())
        for n in (2, 4):
            sim = simulate_advantage_distillation(p, n, 40000, seed=5)
            expected = 2 * 0.5**n
            sigma = math.sqrt(expected * (1 - expected) / sim.samples)
            assert abs(sim.acceptance_rate - expected) <= 3 * sigma
            assert sim.disagreements == 0

    def test_matches_string_filter_semantics(self):
        p = canonical_distribution(UNIFORM)
        sim = simulate_advantage_distillation(p, 4, 2000, seed=8)
        # Re-derive the counts with the scalar filter: each column draws one
        # symbol for every block whose drawn strings both pass it.
        flat = p.table.ravel()
        d_e = p.dims[2]
        rng = np.random.default_rng([8, 0])
        live = [([], []) for _ in range(2000)]
        for _ in range(4):
            for (a, b), symbol in zip(live, rng.choice(flat.size, size=len(live), p=flat / flat.sum())):
                a.append(symbol // d_e // 2)
                b.append(symbol // d_e % 2)
            live = [(a, b) for a, b in live if string_filter(a) is not None and string_filter(b) is not None]
        assert len(live) == sim.accepted
        assert sum(string_filter(a)[1] != string_filter(b)[1] for a, b in live) == sim.disagreements

    def test_one_column_always_alternates(self):
        sim = simulate_advantage_distillation(canonical_distribution(UNIFORM), 1, 2000, seed=1729)
        assert sim.accepted == 2000

    def test_determinism(self):
        p = canonical_distribution(UNIFORM)
        one = simulate_advantage_distillation(p, 3, 30000, seed=13)
        two = simulate_advantage_distillation(p, 3, 30000, seed=13)
        assert one == two

    def test_guards(self):
        p = canonical_distribution(UNIFORM)
        with pytest.raises(InvalidParamsError):
            simulate_advantage_distillation(p, 3, 0, seed=1)
        from secbit import TripartiteDistribution

        with pytest.raises(NotNormalizedError):
            simulate_advantage_distillation(
                TripartiteDistribution(2.0 * p.table), 3, 10, seed=1
            )
        with pytest.raises(NotBinaryError):
            simulate_advantage_distillation(
                TripartiteDistribution(np.ones((3, 2, 2))), 3, 10, seed=1
            )


@pytest.mark.parametrize(
    "eps,mu",
    [(params.epsilon, params.mu) for params in SWEEP_PARAMS]
    + [(0.0, 0.7), (0.0, 1.0), (0.5, 0.6)],
    ids=["uniform", "asymmetric-sweep", "eps-0", "eps-0-mu-1", "eps-half"],
)
def test_log_sum_equals_numpy_logaddexp(eps, mu):
    """The scalar log-sum is bit for bit ``np.logaddexp``, the ``-inf`` and equal-argument cases included."""

    def reference(n):
        log_eps = n * distill._log(eps)
        log_den = np.logaddexp(log_eps, n * distill._log(1.0 - eps))
        return math.exp(log_eps - log_den), math.exp(n * distill._log(mu) - log_den)

    for n in range(1, 2001):
        got, want = distill._alternating_ratios(eps, mu, n), reference(n)
        assert [x.hex() for x in got] == [x.hex() for x in want], n


def test_satellite_scenario_report_roundtrip():
    p = satellite_scenario(0.2, 0.2, 0.15)
    assert secret_bit_fraction(p) == pytest.approx(0.26, abs=1e-12)
    stats = exact_block_statistics(p, 3)
    assert 0.0 < stats["acceptance_rate"] < 1.0
    sim = simulate_advantage_distillation(p, 3, 30000, seed=21)
    sigma = math.sqrt(stats["acceptance_rate"] * (1 - stats["acceptance_rate"]) / sim.samples)
    assert abs(sim.acceptance_rate - stats["acceptance_rate"]) <= 3 * sigma


def test_protocol_report_fields():
    report = protocol_report(UNIFORM, 3)
    assert report.epsilon == pytest.approx(0.2)
    assert report.block_error_rate == pytest.approx(0.2**3 / (0.2**3 + 0.8**3), abs=1e-12)
    assert report.satisfied


class TestExactStatistics:
    @pytest.mark.parametrize("params", SWEEP_PARAMS, ids=("mu0.6", "mu0.8"))
    @pytest.mark.parametrize("n", (300, 377, 400, 610, 987, 1597, 2000))
    def test_long_blocks_match_the_closed_forms(self, params, n):
        stats = exact_block_statistics(canonical_distribution(params), n)
        assert all(math.isfinite(value) for value in stats.values())
        assert math.isclose(stats["disagreement_rate"], block_error_rate(params, n), rel_tol=1e-9, abs_tol=0.0)
        eps = params.epsilon
        blind = math.exp(n * math.log(params.mu) - np.logaddexp(n * math.log(eps), n * math.log1p(-eps)))
        assert math.isclose(stats["eve_blank_rate"], blind, rel_tol=1e-9, abs_tol=0.0)

    def test_matches_direct_products(self):
        rng = np.random.default_rng(4040)
        impossible = 0
        for _ in range(400):
            d_e, n = int(rng.integers(1, 5)), int(rng.integers(1, 61))
            p = TripartiteDistribution(random_binary_tripartite(rng, d_e, zero_fraction=0.3))
            ours, ref = exact_block_statistics(p, n), oracles.exact_block_statistics(p, n)
            assert 0.0 <= ours["acceptance_rate"] <= 1.0
            if ref["acceptance_rate"] == 0.0:
                impossible += 1
                assert ours["acceptance_rate"] == 0.0
                assert math.isnan(ours["disagreement_rate"]) and math.isnan(ours["eve_blank_rate"])
                continue
            for key, expected in ref.items():
                if expected == 0.0:
                    assert ours[key] == 0.0, (key, n)
                else:
                    assert ours[key] == pytest.approx(expected, rel=1e-12, abs=0.0), (key, n)
        assert 0 < impossible < 100

    def test_structural_zeros_at_one_sample(self):
        stats = exact_block_statistics(point_mass_eve(shared_bit()), 1)
        assert stats == {"acceptance_rate": 1.0, "disagreement_rate": 0.0, "eve_blank_rate": 1.0}

    def test_nan_only_when_nothing_can_be_accepted(self):
        table = np.zeros((2, 2, 1))
        table[0, 1, 0] = 1.0
        p = TripartiteDistribution(table)
        assert exact_block_statistics(p, 1)["disagreement_rate"] == 1.0
        stats = exact_block_statistics(p, 2)
        assert stats["acceptance_rate"] == 0.0
        assert math.isnan(stats["disagreement_rate"]) and math.isnan(stats["eve_blank_rate"])

    @pytest.mark.parametrize("k", (-1000, -1, 1, 1025))
    def test_power_of_two_scales_keep_every_bit(self, k):
        """The table is normalized at unit scale: at k = 1025 its sum passes the float maximum."""
        table = canonical_distribution(UNIFORM).table
        for n in (1, 8, 300):
            assert exact_block_statistics(TripartiteDistribution(np.ldexp(table, k)), n) == exact_block_statistics(
                TripartiteDistribution(table), n
            )


class TestCellBoundedSimulation:
    @pytest.mark.parametrize(
        "n,samples,seed",
        [
            (1, 3000, 2),
            (3, 70_000, 1),
            (17, (1 << 16) + 1000, 3),
            (100, 1 << 16, 4),
            (1000, 2500, 5),
            (2049, 500, 6),
            (5000, 300, 7),
        ],
    )
    def test_matches_the_column_reference(self, n, samples, seed):
        # Short blocks, many accepted; the samples crossing a chunk boundary;
        # and long blocks, all of which break within their first columns.
        p = satellite_scenario(0.2, 0.2, 0.15)
        ours = simulate_advantage_distillation(p, n, samples, seed)
        assert ours == oracles.simulate_advantage_distillation(p, n, samples, seed)

    def test_many_accepted_blocks_match_the_reference(self):
        # Short blocks, where many survive every column, across a chunk boundary.
        for p, n in ((canonical_distribution(UNIFORM), 3), (satellite_scenario(0.2, 0.2, 0.15), 2)):
            ours = simulate_advantage_distillation(p, n, (1 << 16) + 777, 12)
            assert ours.accepted > 1000
            assert ours == oracles.simulate_advantage_distillation(p, n, (1 << 16) + 777, 12)

    @pytest.mark.parametrize("d_e", (1, 3, 5))
    def test_matches_oracle_across_eve_alphabets(self, d_e):
        rng = np.random.default_rng(40 + d_e)
        for zero_fraction in (0.0, 0.3):
            p = TripartiteDistribution(random_binary_tripartite(rng, d_e, zero_fraction))
            for n, samples in ((1, 3000), (2, 5000), (3, 5000), (8, 20_000), (100, 3000)):
                for seed in (1, 2):
                    ours = simulate_advantage_distillation(p, n, samples, seed)
                    assert ours == oracles.simulate_advantage_distillation(p, n, samples, seed)

    @pytest.mark.parametrize(
        "zero",
        [
            # Bob's bit thresholds coincide with Alice's (no (0, 1) cells)
            # or with the top of the cdf (no (1, 1) cells); Eve's symbol 0
            # is never drawn, so no accepted block is blank.
            (0, 1, slice(None)),
            (1, 1, slice(None)),
            (slice(None), slice(None), 0),
        ],
    )
    def test_zero_cells_that_make_thresholds_coincide(self, zero):
        rng = np.random.default_rng(7)
        for d_e in (1, 2, 3):
            table = random_binary_tripartite(rng, d_e, low=0.05)
            table[zero] = 0.0
            if not table.sum() > 0.0:
                continue
            p = TripartiteDistribution(table / table.sum())
            for n in (1, 2, 3, 8):
                ours = simulate_advantage_distillation(p, n, 20_000, 5)
                assert ours == oracles.simulate_advantage_distillation(p, n, 20_000, 5)
                if zero[2] == 0:
                    assert ours.eve_blank_blocks == 0

    @pytest.mark.parametrize("d_e", (1, 2, 3, 4))
    def test_eve_blank_test_across_flat_cdf_stretches(self, d_e):
        # Zero cells leave flat stretches in the cdf: Eve's symbol 0 missing
        # from some honest cells (its threshold is the cell's lower end), a
        # whole honest cell missing, and Eve's last symbols missing.
        rng = np.random.default_rng(60 + d_e)
        zeros = (
            [(0, 0, 0), (1, 1, 0)],
            [(0, 1, 0), (1, 0, 0)],
            [(0, 1, slice(None))],
            [(slice(None), slice(None), slice(1, None))],
            [(0, 0, slice(0, d_e - 1)), (1, 1, slice(1, None))],
        )
        for cells in zeros:
            table = random_binary_tripartite(rng, d_e, low=0.05)
            for cell in cells:
                table[cell] = 0.0
            p = TripartiteDistribution(table / table.sum())
            for n, samples in ((1, 3000), (2, 5000), (3, 20_000), (8, 20_000), (100, 3000)):
                ours = simulate_advantage_distillation(p, n, samples, 3)
                assert ours == oracles.simulate_advantage_distillation(p, n, samples, 3)

    def test_nothing_accepted(self):
        # Alice's bit is always 0, so no string of two or more bits alternates.
        p = TripartiteDistribution(np.array([[[0.3, 0.2], [0.4, 0.1]], [[0.0, 0.0], [0.0, 0.0]]]))
        for n in (2, 3, 50):
            ours = simulate_advantage_distillation(p, n, 4000, 9)
            assert ours.accepted == 0
            assert math.isnan(ours.disagreement_rate) and math.isnan(ours.eve_blank_rate)
            assert ours == oracles.simulate_advantage_distillation(p, n, 4000, 9)

    def test_long_blocks_have_bounded_memory(self):
        # 2^14 blocks of 200, and then the benchmark's three simulator calls.
        # Under tracemalloc, one draw of all a chunk's symbols peaked at
        # about 134 MB on the first, and a cap of 2^20 symbols on the
        # symbols themselves at about 28 MB.  One column of uniform draws
        # for a full chunk holds 512 KB.
        p = canonical_distribution(UNIFORM)
        for n, samples in ((200, 1 << 14), (3, 100_000), (8, 100_000), (100, 1 << 16)):
            with traced_memory() as memory:
                simulate_advantage_distillation(p, n, samples, seed=3)
            assert memory.peak < 3e6, (n, samples, memory.peak)

    def test_few_long_blocks_hold_a_few_columns(self):
        # Read in rows of whole blocks these peaked at about 0.9 MB; each
        # column holds one draw per live block, and all break within a few.
        p = canonical_distribution(UNIFORM)
        with traced_memory() as memory:
            report = simulate_advantage_distillation(p, 100_000, 200, seed=3)
        assert report.accepted == 0
        assert memory.peak < 0.1e6

    def test_memory_is_bounded_beyond_one_draw(self):
        # Blocks are drawn column by column, never whole: one draw of a
        # block's row peaked at about 86 MB here.
        p = canonical_distribution(UNIFORM)
        with traced_memory() as memory:
            report = simulate_advantage_distillation(p, 10**7, 50, seed=3)
        assert report.accepted == 0
        assert memory.peak < 4e6

    def test_agreeing_tables_match_the_reference(self):
        # The honest bits of the two tables agree or disagree at 0.9 of the
        # cells, so at 8 and 13 symbols blocks survive many columns and are
        # accepted; at 40 none is, and one table is enough.  The samples
        # cross a chunk boundary.
        agreeing = np.zeros((2, 2, 2))
        agreeing[0, 0], agreeing[1, 1], agreeing[0, 1], agreeing[1, 0] = (0.3, 0.15), (0.3, 0.15), 0.025, 0.025
        accepted = disagreements = blank = 0
        for n in (8, 13, 40):
            for table in (agreeing, agreeing[:, ::-1])[: 1 if n == 40 else 2]:
                p = TripartiteDistribution(table)
                ours = simulate_advantage_distillation(p, n, (1 << 16) + 777, 12)
                assert ours == oracles.simulate_advantage_distillation(p, n, (1 << 16) + 777, 12)
                accepted += ours.accepted
                disagreements += ours.disagreements
                blank += ours.eve_blank_blocks
        assert accepted > 400 and disagreements > 200 and blank > 0

    @pytest.mark.parametrize("table", ("canonical", "satellite"))
    @pytest.mark.parametrize("n", (100, 10**6))
    def test_draws_per_block_stay_bounded(self, monkeypatch, table, n):
        # Each column draws only for the blocks still alive, so a block takes
        # at most 3 draws in expectation (2.55 on the canonical table) at any
        # N; drawing whole blocks would take N.
        class Counting:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def random(self, *args, **kwargs):
                drawn = self.rng.random(*args, **kwargs)
                self.drawn += drawn.size
                return drawn

        generators = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            generators.append(Counting(default_rng(seed)))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        p = canonical_distribution(UNIFORM) if table == "canonical" else satellite_scenario(0.2, 0.2, 0.15)
        samples = (1 << 16) + 777
        simulate_advantage_distillation(p, n, samples, seed=3)
        assert len(generators) == 2
        assert sum(g.drawn for g in generators) < 3 * samples
