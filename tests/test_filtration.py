from dataclasses import replace

import numpy as np
import pytest

from conftest import random_proper_filter
from secbit import filtration
from secbit import (
    Filtration,
    TripartiteDistribution,
    apply,
    apply_bipartite,
    apply_eve,
    decompose,
    embed,
    embed_filtration,
    factor_mixing_step,
    is_reversible,
    lower_shear,
    mixing_matrix,
    point_mass_eve,
    recompose,
    reversible_inverse,
    row_gluing,
    secret_bit_fraction,
    shared_bit,
)
from secbit.errors import (
    BadShapeError,
    CountError,
    DimensionMismatchError,
    InvalidParamsError,
    NonSquareError,
    NotStochasticError,
    OutOfRangeError,
    ZeroMassError,
)


def test_identity_filters_leave_distribution_alone(lemur):
    out = apply(Filtration.identity(2), Filtration.identity(2), lemur)
    np.testing.assert_array_equal(out.table, lemur.table)


def test_small_joint_noise_beats_half(lemur):
    noisy = Filtration(np.array([[1.0, 0.01], [0.0, 1.0]]))
    assert secret_bit_fraction(apply(noisy, noisy, lemur)) > 0.5


def test_projection_halves_shared_bit_mass():
    keep_zero = Filtration(np.array([[1.0, 0.0], [0.0, 0.0]]))
    p = point_mass_eve(shared_bit())
    out = apply(keep_zero, Filtration.identity(2), p)
    assert out.mass == pytest.approx(0.5)
    assert out.table[0, 0, 0] == pytest.approx(0.5)
    assert out.table[1, 1, 0] == 0.0


def test_apply_rejects_wrong_shapes(lemur):
    with pytest.raises(DimensionMismatchError):
        apply(Filtration.identity(3), Filtration.identity(2), lemur)


def test_certain_failure_is_reported(lemur):
    dead = Filtration(np.zeros((2, 2)))
    with pytest.raises(ZeroMassError):
        apply(dead, Filtration.identity(2), lemur)


def test_overflow_is_not_reported_as_certain_failure():
    # 1e200 * 1e200 overflows; einsum's inf * 0 is nan, which is no zero mass.
    huge = Filtration([[1e200, 1e200], [1e200, 1e200]])
    with pytest.raises(InvalidParamsError, match="non-finite"):
        apply(huge, huge, point_mass_eve(shared_bit()))


def test_apply_is_bilinear_and_composes(lemur):
    rng = np.random.default_rng(17)
    for _ in range(50):
        f1 = Filtration(rng.uniform(0.0, 1.0, size=(2, 2)))
        g1 = Filtration(rng.uniform(0.0, 1.0, size=(2, 2)))
        f2 = Filtration(rng.uniform(0.0, 1.0, size=(2, 2)))
        g2 = Filtration(rng.uniform(0.0, 1.0, size=(2, 2)))
        twice = apply(f2, g2, apply(f1, g1, lemur))
        once = apply(f2.compose(f1), g2.compose(g1), lemur)
        np.testing.assert_allclose(twice.table, once.table, atol=1e-12)

        alpha, beta = rng.uniform(0.1, 2.0, size=2)
        mixed = apply(f1, g1, TripartiteDistribution((alpha + beta) * lemur.table))
        split = alpha * apply(f1, g1, lemur).table + beta * apply(f1, g1, lemur).table
        np.testing.assert_allclose(mixed.table, split, atol=1e-12)


class TestApplyEve:
    def test_identity(self, lemur):
        y = Filtration.identity(2)
        np.testing.assert_array_equal(apply_eve(y, lemur).table, lemur.table)

    def test_merging_eve_cannot_hurt_lambda(self, lemur):
        merge = Filtration(np.array([[1.0, 1.0]]))
        merged = apply_eve(merge, lemur)
        assert merged.dims == (2, 2, 1)
        assert secret_bit_fraction(merged) >= secret_bit_fraction(lemur) - 1e-12

    def test_substochastic_rejected(self, lemur):
        y = Filtration(np.array([[0.9, 0.0], [0.0, 0.9]]))
        with pytest.raises(NotStochasticError):
            apply_eve(y, lemur)


class TestReversibility:
    def test_positive_diagonal_is_reversible(self):
        f = Filtration.diagonal([0.4, 0.9])
        inv = reversible_inverse(f)
        assert inv is not None
        np.testing.assert_allclose(inv.matrix, np.diag([2.5, 1 / 0.9]))

    def test_lower_triangular_is_not(self):
        assert not is_reversible(Filtration(np.array([[1.0, 0.0], [0.3, 1.0]])))

    def test_antidiagonal_is_reversible(self):
        f = Filtration(np.array([[0.0, 0.7], [0.2, 0.0]]))
        assert is_reversible(f)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            is_reversible(Filtration(np.zeros((2, 3))))

    def test_undoing_recovers_distribution(self, lemur):
        rng = np.random.default_rng(23)
        identity = Filtration.identity(2)
        for _ in range(50):
            perm = rng.permutation(2)
            matrix = np.zeros((2, 2))
            matrix[np.arange(2), perm] = rng.uniform(0.2, 1.0, size=2)
            filt = Filtration(matrix)
            inverse = reversible_inverse(filt)
            back = apply(inverse, identity, apply(filt, identity, lemur))
            np.testing.assert_allclose(back.table, lemur.table, atol=1e-10)


class TestMixingMatrix:
    def test_endpoints(self):
        np.testing.assert_array_equal(mixing_matrix(0.0).matrix, np.eye(2))
        total = mixing_matrix(0.5).matrix
        np.testing.assert_array_equal(total, np.full((2, 2), 0.5))
        assert np.linalg.matrix_rank(total) == 1

    def test_composition_law(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, y = rng.uniform(0.0, 0.5, size=2)
            left = mixing_matrix(x).matrix @ mixing_matrix(y).matrix
            right = mixing_matrix(x + y - 2 * x * y).matrix
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            mixing_matrix(0.6)


class TestDecomposition:
    def test_identity_decomposes_trivially(self):
        factors = decompose(Filtration.identity(2))
        assert [s.mu for s in factors.steps] == [0.0, 0.0]
        assert [s.nu for s in factors.steps] == [0.0, 0.0]
        assert [s.weight for s in factors.steps] == [1.0, 1.0]

    def test_fixed_round_trip(self):
        f = Filtration(np.array([[0.6, 0.1], [0.2, 0.5]]))
        rebuilt = recompose(decompose(f))
        np.testing.assert_allclose(rebuilt.matrix, f.matrix, atol=1e-12)

    def test_random_round_trips_and_elementary_product(self):
        rng = np.random.default_rng(37)
        for k in range(100):
            cols = int(rng.integers(2, 6))
            f = Filtration(random_proper_filter(rng, cols))
            factors = decompose(f)
            mus = [s.mu for s in factors.steps]
            assert all(mus[i] >= mus[i + 1] - 1e-15 for i in range(len(mus) - 1))
            assert all(0.0 <= s.nu <= 0.5 for s in factors.steps)
            np.testing.assert_allclose(recompose(factors).matrix, f.matrix, atol=1e-12)
            block = factors.enlarged_product()[:2, 2:]
            for slot, source in enumerate(factors.permutation):
                np.testing.assert_allclose(
                    block[:, slot], f.matrix[:, source], atol=1e-12
                )

    def test_totally_mixed_and_dead_columns(self):
        factors = decompose(Filtration(np.array([[0.5, 0.0], [0.5, 0.0]])))
        by_source = {s.source_column: s for s in factors.steps}
        assert by_source[0].mu == pytest.approx(0.5)
        assert by_source[1].weight == 0.0
        assert factors.permutation == (0, 1)
        rebuilt = recompose(factors)
        np.testing.assert_allclose(rebuilt.matrix, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)

    def test_single_totally_mixed_column(self):
        factors = decompose(Filtration(np.array([[0.5], [0.5]])))
        np.testing.assert_allclose(recompose(factors).matrix, [[0.5], [0.5]], atol=1e-15)

    def test_recompose_writes_the_mixing_columns(self):
        # Each column is weight * M(mu) e_omega, bit for bit.
        rng = np.random.default_rng(41)
        for _ in range(500):
            cols = int(rng.integers(1, 7))
            matrix = random_proper_filter(rng, cols)
            matrix[:, rng.random(cols) < 0.2] = 0.0
            matrix[:, rng.random(cols) < 0.1] = 0.25
            factors = decompose(Filtration(matrix))
            expected = np.zeros((2, cols))
            for step in factors.steps:
                expected[:, step.source_column] = mixing_matrix(step.mu).matrix[:, step.omega] * step.weight
            assert recompose(factors).matrix.tobytes() == expected.tobytes()
        steps = (replace(factors.steps[0], mu=0.75),) + factors.steps[1:]
        with pytest.raises(OutOfRangeError, match=r"mixing parameter must lie in \[0, 1/2\], got 0.75"):
            recompose(replace(factors, steps=steps))

    @pytest.mark.parametrize("omega", [2, -1, True, False, 1.0, np.float64(0.0)])
    def test_bias_other_than_zero_or_one_refused(self, omega):
        factors = decompose(Filtration(np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3]])))
        with pytest.raises(InvalidParamsError, match=r"bias omega must be the integer 0 or 1"):
            replace(factors.steps[0], omega=omega)

    def test_integer_biases_accepted(self):
        factors = decompose(Filtration(np.array([[0.6, 0.1], [0.2, 0.5]])))
        assert [type(s.omega) for s in factors.steps] == [int, int]
        numpy_steps = tuple(replace(s, omega=np.int64(s.omega)) for s in factors.steps)
        rebuilt = recompose(replace(factors, steps=numpy_steps))
        assert rebuilt.matrix.tobytes() == recompose(factors).matrix.tobytes()
        numpy_glue = replace(factors, steps=numpy_steps).gluing_matrix(0)
        assert numpy_glue.tobytes() == factors.gluing_matrix(0).tobytes()

    @pytest.mark.parametrize("column", [3, 5, -1, True, 1.0])
    def test_source_column_outside_the_inputs_refused(self, column):
        matrix = np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3]])
        factors = decompose(Filtration(matrix))
        steps = (replace(factors.steps[0], source_column=column),) + factors.steps[1:]
        with pytest.raises(InvalidParamsError, match=rf"source column {column!r} outside 0\.\.2"):
            recompose(replace(factors, steps=steps))

    @pytest.mark.parametrize("columns", [(0, 0, 1), (0, 1)], ids=["repeated", "missing"])
    def test_source_columns_name_each_input_once(self, columns):
        # Unchecked, step 0 moved onto step 1's column recomposed a zero last
        # column, and a stored permutation still read (2, 0, 1).
        factors = decompose(Filtration(np.array([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3]])))
        assert factors.permutation == (2, 0, 1)
        steps = tuple(replace(step, source_column=c) for step, c in zip(factors.steps, columns))
        with pytest.raises(InvalidParamsError, match=r"source columns must hold each integer 0\.\.2 once"):
            replace(factors, steps=steps)

    @pytest.mark.parametrize("input_dim", [-1, True, 2.0])
    def test_input_dim_is_a_count(self, input_dim):
        # Unchecked, input_dim=-1 built and recomposed into numpy's bare
        # ValueError, True read as 1 and 2.0 failed in range().
        with pytest.raises(CountError, match="input_dim"):
            filtration.DecompositionFactors(input_dim=input_dim, steps=())

    def test_bad_shape_rejected(self):
        with pytest.raises(BadShapeError):
            decompose(Filtration(np.zeros((3, 2))))


class TestMixingStepFactors:
    def test_zero_increment_gives_identity(self):
        product = np.eye(2)
        for factor in factor_mixing_step(0.0):
            product = product @ factor.matrix
        np.testing.assert_allclose(product, np.eye(2), atol=1e-15)

    def test_quarter_increment(self):
        product = np.eye(2)
        for factor in factor_mixing_step(0.25):
            product = product @ factor.matrix
        np.testing.assert_allclose(product, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_grid_matches_mixing_matrix(self):
        for nu in [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.499]:
            product = np.eye(2)
            for factor in factor_mixing_step(nu):
                product = product @ factor.matrix
            np.testing.assert_allclose(product, mixing_matrix(nu).matrix, atol=1e-12)

    def test_reversibility_classification(self):
        k1, t1, k2, k3, t2, k3_again = factor_mixing_step(0.3)
        assert is_reversible(k1)
        assert is_reversible(k2)
        assert is_reversible(k3)
        assert is_reversible(k3_again)
        assert not is_reversible(t1)
        assert not is_reversible(t2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            factor_mixing_step(0.51)
        # nu = 1/2 stays representable even though one factor degenerates
        factors = factor_mixing_step(0.5)
        product = np.eye(2)
        for factor in factors:
            product = product @ factor.matrix
        np.testing.assert_allclose(product, np.full((2, 2), 0.5), atol=1e-12)


class TestEnlargedSpace:
    def test_embed_shifts_by_two(self):
        enlarged = embed(shared_bit())
        assert enlarged.dims == (4, 4)
        assert enlarged.table[2, 2] == pytest.approx(0.5)
        assert enlarged.table[3, 3] == pytest.approx(0.5)
        assert enlarged.table[:2, :].sum() == 0.0
        assert enlarged.table[:, :2].sum() == 0.0
        assert enlarged.mass == pytest.approx(shared_bit().mass)

    def test_embedded_filters_reproduce_plain_filtering(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            cols_a, cols_b = rng.integers(2, 5, size=2)
            f_a = Filtration(random_proper_filter(rng, cols_a))
            f_b = Filtration(random_proper_filter(rng, cols_b))
            p_ab = rng.uniform(0.05, 1.0, size=(cols_a, cols_b))
            from secbit import BipartiteDistribution

            p = BipartiteDistribution(p_ab)
            plain = f_a.matrix @ p.table @ f_b.matrix.T
            enlarged = apply_bipartite(
                embed_filtration(f_a), embed_filtration(f_b), embed(p)
            )
            np.testing.assert_allclose(enlarged.table[:2, :2], plain, atol=1e-12)

    def test_embedded_filter_is_improper(self):
        embedded = embed_filtration(Filtration.identity(2))
        assert embedded.rows == 4
        assert not embedded.proper

    def test_embed_filtration_shape_guard(self):
        with pytest.raises(BadShapeError):
            embed_filtration(Filtration(np.zeros((3, 2))))


class TestConstructorArguments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Filtration.identity(2.5),
            lambda: Filtration.identity(True),
            lambda: Filtration.identity(-1),
            lambda: Filtration.coin_toss(2.0),
            lambda: lower_shear(1.0, 2.5),
            lambda: lower_shear(1.0, 1),
            lambda: row_gluing(1.0, 1, 2.0),
            lambda: row_gluing(1.0, 0, 0),
        ],
    )
    def test_sizes_are_counts(self, build):
        with pytest.raises(CountError):
            build()

    @pytest.mark.parametrize("column", [True, 1.5, np.float64(1.0), -1, 3])
    def test_gluing_column_is_an_index(self, column):
        # True once read as column 1, adding r to all of row 0.
        with pytest.raises(BadShapeError):
            row_gluing(1.0, column, 3)

    @pytest.mark.parametrize("order", [[0, 0], [True, False], [-1, 0], [0, 5], [0.0, 1.0], [1]])
    def test_permutation_order_is_a_permutation(self, order):
        with pytest.raises(InvalidParamsError):
            Filtration.permutation(order)

    def test_identities_are_shared_and_read_only(self):
        for size in (True, 2.5, -1, 2**1024):
            with pytest.raises(CountError):
                Filtration.identity(size)
        assert Filtration.identity(1).matrix.tolist() == [[1.0]]
        assert Filtration.identity(np.int64(3)) is Filtration.identity(3)
        matrix = Filtration.identity(3).matrix
        assert matrix.tobytes() == np.eye(3).tobytes() and not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 1] = 1.0

        class Sub(Filtration):
            pass

        assert type(Sub.identity(3)) is Sub and Sub.identity(3) is not Filtration.identity(3)
        assert Sub.identity(3) is Sub.identity(3)

    def test_shared_identities_stay_bounded(self):
        shared = filtration._identity
        for size in range(2 * shared.cache_info().maxsize):
            assert Filtration.identity(size).matrix.shape == (size, size)
        assert shared.cache_info().currsize <= shared.cache_info().maxsize
        # A large identity is built afresh, not kept.
        assert Filtration.identity(65) is not Filtration.identity(65)
        assert Filtration.identity(65).matrix.tobytes() == np.eye(65).tobytes()

    def test_integer_arguments_accepted(self):
        order = np.array([2, 0, 1])
        assert Filtration.permutation(order).matrix.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert Filtration.identity(np.int64(2)).matrix.tolist() == [[1, 0], [0, 1]]
        assert Filtration.coin_toss(0).matrix.shape == (2, 0)
        assert lower_shear(0.5, np.int64(2)).matrix.tolist() == [[1, 0], [0.5, 1]]
        assert row_gluing(0.5, np.int64(1), 2).matrix.tolist() == [[1, 0.5], [0, 1]]
