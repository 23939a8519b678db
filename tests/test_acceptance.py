"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import secbit as sb
from conftest import random_binary_tripartite, random_enlarged, random_proper_filter, random_stochastic
from oracles import grid_reversible_oracle


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {title}")
        raise
    print(f"criterion {number}: PASS — {title}")


def test_criterion_01_example_values_exact_and_fast(lemur):
    with criterion(1, "example distribution: lambda and Lambda_R are exactly 1/2"):
        assert sb.secret_bit_fraction(lemur) == pytest.approx(0.5, abs=1e-12)
        assert sb.mesbf_reversible(lemur).value == pytest.approx(0.5, abs=1e-12)
        # warmed-up runtime below one millisecond per evaluation
        for _ in range(3):
            sb.secret_bit_fraction(lemur)
            sb.mesbf_reversible(lemur)
        start = time.perf_counter()
        reps = 100
        for _ in range(reps):
            sb.secret_bit_fraction(lemur)
            sb.mesbf_reversible(lemur)
        per_evaluation = (time.perf_counter() - start) / reps
        assert per_evaluation < 1e-3


def test_criterion_02_irreversible_noise_beats_half(lemur):
    with criterion(2, "small joint noise is irreversible and beats 1/2"):
        noisy = sb.Filtration(np.array([[1.0, 0.01], [0.0, 1.0]]))
        after = sb.secret_bit_fraction(sb.apply(noisy, noisy, lemur))
        assert after > 0.5 + 1e-4
        assert sb.is_reversible(noisy) is False


def test_criterion_03_decoupled_closed_form_vs_grid_oracle():
    with criterion(3, "decoupled closed form agrees with the grid oracle"):
        start = time.perf_counter()
        dims_cycle = [(2, 2), (2, 3), (3, 2), (3, 3)]
        two_by_two = []
        for k in range(20):
            d_a, d_b = dims_cycle[k % 4]
            rng = np.random.default_rng([2024, k])
            m = rng.uniform(0.1, 1.0, size=(d_a, d_b))
            p_ab = sb.BipartiteDistribution(m / m.sum())
            exact = sb.mesbf_decoupled(p_ab).value
            found = sb.brute_force_mesbf(
                sb.point_mass_eve(p_ab), sb.SearchConfig(seed=k)
            ).value
            assert abs(exact - found) <= 2e-2, (k, exact, found)
            assert found <= exact + 1e-9
            if (d_a, d_b) == (2, 2):
                two_by_two.append((k, p_ab, exact))
        for k, p_ab, exact in two_by_two:
            found = sb.brute_force_mesbf(
                sb.point_mass_eve(p_ab), sb.SearchConfig(seed=k, grid_points=40)
            ).value
            assert abs(exact - found) <= 1e-3, (k, exact, found)
        assert time.perf_counter() - start < 60.0


def test_criterion_04_reversible_closed_form_vs_grid_oracle():
    with criterion(4, "reversible closed form agrees with the 200x200 grid search"):
        for k in range(20):
            rng = np.random.default_rng([4040, k])
            table = rng.uniform(0.6, 1.0, size=(2, 2, 3))
            p = sb.TripartiteDistribution(table / table.sum())
            result = sb.mesbf_reversible(p)
            grid = grid_reversible_oracle(p, points=200)
            assert abs(result.value - grid) <= 1e-3, (k, result.value, grid)
            assert result.witness_kind == "exact"
            achieved = sb.secret_bit_fraction(sb.apply(*result.witness, p))
            assert achieved == pytest.approx(result.value, abs=1e-9)


def test_criterion_05_tensor_power_consistency():
    with criterion(5, "N-copy closed form equals the explicit tensor power"):
        p = sb.bipartite_from_entries(
            (2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
        )
        for copies in (1, 2, 3, 4):
            direct = sb.mesbf_decoupled(sb.tensor_power(p, copies)).value
            closed = sb.mesbf_decoupled_power(p, copies).value
            assert abs(direct - closed) <= 1e-10, copies
        assert sb.mesbf_decoupled_power(p, 2).value == pytest.approx(16 / 17, abs=1e-12)


def test_criterion_06_eve_monotonicity_five_hundred():
    with criterion(6, "Eve's local operations never lower lambda (500 trials)"):
        violations = 0
        for k in range(500):
            rng = np.random.default_rng([606, k])
            d_e = int(rng.integers(1, 6))
            p = sb.TripartiteDistribution(
                random_binary_tripartite(rng, d_e, zero_fraction=0.25)
            )
            y = sb.Filtration(random_stochastic(rng, int(rng.integers(1, d_e + 3)), d_e))
            before = sb.secret_bit_fraction(p)
            after = sb.secret_bit_fraction(sb.apply_eve(y, p))
            violations += after < before - 1e-12
        assert violations == 0


def test_criterion_07_cross_ratio_property_suite():
    with criterion(7, "cross-ratio invariance and monotonicity (3 x 500 trials)"):
        invariance_violations = 0
        for k in range(500):
            rng = np.random.default_rng([707, 1, k])
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            base = sb.vartheta(p)
            perm = sb.Filtration.permutation(rng.permutation(size_a))
            scale = sb.Filtration.diagonal(rng.uniform(0.05, 1.0, size=size_a))
            identity = sb.Filtration.identity(size_b)
            for op in (perm, scale):
                moved = sb.vartheta(sb.apply_bipartite(op, identity, p))
                invariance_violations += abs(moved - base) > 1e-12
        assert invariance_violations == 0

        shear_violations = 0
        for k in range(500):
            rng = np.random.default_rng([707, 2, k])
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            shear = sb.lower_shear(float(rng.uniform(0.05, 10.0)), size_a)
            moved = sb.vartheta(sb.apply_bipartite(shear, sb.Filtration.identity(size_b), p))
            shear_violations += moved > sb.vartheta(p) + 1e-12
            shear_b = sb.lower_shear(float(rng.uniform(0.05, 10.0)), size_b)
            moved = sb.vartheta(sb.apply_bipartite(sb.Filtration.identity(size_a), shear_b, p))
            shear_violations += moved > sb.vartheta(p) + 1e-12
        assert shear_violations == 0

        gluing_violations = 0
        for k in range(500):
            rng = np.random.default_rng([707, 3, k])
            p = random_enlarged(rng)
            size_a, size_b = p.dims
            glue = sb.row_gluing(
                float(rng.uniform(0.05, 10.0)), int(rng.integers(2, size_a)), size_a
            )
            moved = sb.vartheta(sb.apply_bipartite(glue, sb.Filtration.identity(size_b), p))
            gluing_violations += moved > sb.vartheta(p) + 1e-12
        assert gluing_violations == 0


def test_criterion_08_decomposition_round_trip():
    with criterion(8, "filtration decomposition round trip and mixing factors"):
        worst = 0.0
        for k in range(100):
            rng = np.random.default_rng([808, k])
            cols = int(rng.integers(2, 6))
            f = sb.Filtration(random_proper_filter(rng, cols))
            factors = sb.decompose(f)
            rebuilt = sb.recompose(factors)
            worst = max(worst, float(np.abs(rebuilt.matrix - f.matrix).max()))
            block = factors.enlarged_product()[:2, 2:]
            for slot, source in enumerate(factors.permutation):
                worst = max(
                    worst, float(np.abs(block[:, slot] - f.matrix[:, source]).max())
                )
        assert worst < 1e-12
        for nu in [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.499]:
            product = np.eye(2)
            for factor in sb.factor_mixing_step(nu):
                product = product @ factor.matrix
            assert np.abs(product - sb.mixing_matrix(nu).matrix).max() <= 1e-12


def test_criterion_09_protocol_analytics():
    with criterion(9, "protocol entropies at N=1 and the strictness edge case"):
        params = sb.CanonicalParams(0.6, (0.25, 0.25, 0.25, 0.25))
        report = sb.protocol_report(params, 1)
        h02 = -(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8))
        h06 = -(0.6 * math.log2(0.6) + 0.4 * math.log2(0.4))
        assert report.bob_uncertainty == pytest.approx(h02, abs=1e-9)
        assert report.eve_uncertainty == pytest.approx(h06, abs=1e-9)
        best = sb.minimal_block_length(params, 200)
        assert best is not None and best.block_length == 1
        complementary = sb.CanonicalParams(0.6, (0.0, 0.5, 0.5, 0.0))
        assert sb.minimal_block_length(complementary, 200) is None


def test_criterion_10_monte_carlo_agreement():
    with criterion(10, "Monte-Carlo block errors match the analytics at 3 sigma"):
        start = time.perf_counter()
        params = sb.CanonicalParams(0.6, (0.25, 0.25, 0.25, 0.25))
        p = sb.canonical_distribution(params)
        sim = sb.simulate_advantage_distillation(p, 3, 200_000, seed=1010)
        eps = params.epsilon
        expected = eps**3 / (eps**3 + (1 - eps) ** 3)
        sigma = math.sqrt(expected * (1 - expected) / sim.accepted)
        assert abs(sim.disagreement_rate - expected) <= 3 * sigma
        assert time.perf_counter() - start < 10.0


def test_criterion_11_satellite_end_to_end():
    with criterion(11, "satellite scenario: lambda exact, searches and reports run"):
        p = sb.satellite_scenario(0.2, 0.2, 0.15)
        assert sb.secret_bit_fraction(p) == pytest.approx(0.26, abs=1e-12)
        estimate = sb.estimate_mesbf(p, sb.SearchConfig(seed=1111))
        assert 0.5 - 1e-12 <= estimate.value <= 1.0
        sim = sb.simulate_advantage_distillation(p, 3, 20_000, seed=1111)
        assert sim.accepted > 0
        assert sb.exact_block_statistics(p, 3)["acceptance_rate"] > 0.0
