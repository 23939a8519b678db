import itertools
import math
import sys
import time

import numpy as np
import oracles
import pytest
from conftest import result_bits, traced_memory

from secbit import (
    BipartiteDistribution,
    CanonicalParams,
    Filtration,
    SearchConfig,
    TripartiteDistribution,
    bipartite_from_entries,
    canonical_distribution,
    estimate_mesbf,
    from_entries,
    lower_shear,
    marginal_ab,
    mesbf_decoupled_power,
    product_with_eve,
    row_gluing,
    satellite_scenario,
    secret_bit_fraction,
    shared_bit,
    tensor_power,
)
from secbit import distill, properties
from secbit.distributions import DEFAULT_TENSOR_CELL_CAP, _freeze
from secbit.errors import (
    BadShapeError,
    CountError,
    DimensionOverflowError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NegativeEntryError,
    OutOfRangeError,
    SecbitError,
    ZeroMassError,
)
from secbit.measures import MeasureResult


class TestConstruction:
    def test_perfect_shared_bit_with_trivial_eve(self):
        p = from_entries((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
        assert p.dims == (2, 2, 1)
        assert p.mass == pytest.approx(1.0)
        assert p.table[0, 1, 0] == 0.0

    def test_example_distribution_cells(self, lemur):
        assert lemur.dims == (2, 2, 2)
        assert lemur.table[0, 0, 0] == 6 / 24
        assert lemur.table[1, 1, 0] == 6 / 24
        assert lemur.table[0, 1, 1] == 5 / 24
        assert lemur.table[1, 0, 1] == 5 / 24
        assert lemur.table[1, 1, 1] == 2 / 24
        assert lemur.table[0, 1, 0] == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            from_entries((2, 2, 1), {(0, 0, 0): -0.1, (1, 1, 0): 0.5})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            from_entries((2, 2, 1), {(0, 0, 1): 0.5})

    @pytest.mark.parametrize(
        "build,dims,key",
        [
            # A short key would otherwise fill a whole row of the last axis.
            (from_entries, (2, 2, 3), (0, 0)),
            (from_entries, (2, 2, 3), (0, 0, 0, 0)),
            (from_entries, (2, 2, 3), (0, -1, 0)),
            (bipartite_from_entries, (2, 2), (1,)),
            (bipartite_from_entries, (2, 2), (-1, 0)),
        ],
    )
    def test_index_of_wrong_length_or_negative_rejected(self, build, dims, key):
        with pytest.raises(IndexOutOfRangeError):
            build(dims, {(1,) * len(dims): 0.5, key: 0.5})

    @pytest.mark.parametrize(
        "build,dims,key",
        [
            # numpy reads a boolean in an index as a mask: (1, 1, True)
            # would fill the whole row table[1, 1, :].
            (from_entries, (2, 2, 3), (1, 1, True)),
            (from_entries, (2, 2, 3), (0, np.bool_(False), 2)),
            (bipartite_from_entries, (2, 2), (False, 1)),
            (bipartite_from_entries, (2, 2), (1, np.bool_(True))),
        ],
    )
    def test_boolean_index_rejected(self, build, dims, key):
        with pytest.raises(IndexOutOfRangeError):
            build(dims, {(0,) * len(dims): 0.5, key: 0.5})

    @pytest.mark.parametrize(
        "build,dims",
        [
            (from_entries, (2.0, 2, 1)),
            (from_entries, (2, np.float64(2), 1)),
            (bipartite_from_entries, (2, True)),
            (bipartite_from_entries, ("2", 2)),
        ],
    )
    def test_dims_must_be_integers(self, build, dims):
        with pytest.raises(BadShapeError):
            build(dims, {})

    def test_numpy_integer_index_accepted(self):
        p = from_entries((2, 2, 3), {(np.int64(1), np.int64(1), np.int64(2)): 0.5, (0, 0, 0): 0.5})
        assert p.table[1, 1].tolist() == [0.0, 0.0, 0.5]
        q = bipartite_from_entries((2, 3), {(np.int32(1), np.intp(2)): 1.0})
        assert q.table.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_declared_size_over_the_cell_cap_rejected(self):
        with pytest.raises(DimensionOverflowError):
            from_entries((400, 400, 100), {(0, 0, 0): 1.0})
        with pytest.raises(DimensionOverflowError):
            bipartite_from_entries((10**6, 10**6), {(0, 0): 1.0})

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            from_entries((2, 2, 1), {(0, 0, 0): 0.0})
        with pytest.raises(ZeroMassError):
            TripartiteDistribution(np.zeros((2, 2, 1)))

    def test_tables_are_immutable(self, lemur):
        with pytest.raises(ValueError):
            lemur.table[0, 0, 0] = 1.0


_TABLE_TYPES = (
    pytest.param(TripartiteDistribution, 3, id="tripartite"),
    pytest.param(BipartiteDistribution, 2, id="bipartite"),
    pytest.param(Filtration, 2, id="filtration"),
)


def _nest(entries, ndim):
    """``entries`` as one row of a table with ``ndim`` axes."""
    for _ in range(ndim - 1):
        entries = [entries]
    return entries


class TestTableEntryChecks:
    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    @pytest.mark.parametrize(
        "entries,error",
        [
            (["x"], InvalidParamsError),
            ([1.0, "a"], InvalidParamsError),
            ([1 + 2j], InvalidParamsError),
            ([{}], InvalidParamsError),
        ],
        ids=["string", "number-and-string", "complex", "object"],
    )
    def test_non_numbers_raise_library_errors(self, cls, ndim, entries, error):
        with pytest.raises(error):
            cls(_nest(entries, ndim))

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    @pytest.mark.parametrize(
        "entries",
        [
            np.array([1 + 2j]),
            np.array([1 + 0j]),
            np.array([1.0], dtype=np.complex64),
            [np.complex128(1 + 2j)],
            [np.array(1 + 0j)],
            np.array([np.complex128(1 + 2j)], dtype=object),
        ],
        ids=["array", "real-valued-array", "complex64", "numpy-scalar", "0-d-array", "object-array"],
    )
    def test_complex_numpy_entries_raise_no_warning(self, cls, ndim, entries):
        # numpy casts these to float with only a ComplexWarning, dropping the imaginary part.
        with pytest.raises(InvalidParamsError):
            cls(_nest(entries, ndim) if isinstance(entries, list) else entries.reshape((1,) * (ndim - 1) + (-1,)))

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    @pytest.mark.parametrize(
        "ragged",
        [
            lambda ndim: _nest([[1.0, 2.0], [3.0]], ndim - 1),
            lambda ndim: _nest([1.0, [2.0, 3.0]], ndim),
            lambda ndim: _nest([np.zeros(2), np.zeros((2, 2))], ndim - 1),
        ],
        ids=["rows", "entry", "arrays"],
    )
    def test_ragged_nesting_is_a_shape_error(self, cls, ndim, ragged):
        with pytest.raises(BadShapeError):
            cls(ragged(ndim))

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, cls, ndim, bad):
        with pytest.raises(InvalidParamsError) as info:
            cls(_nest([1.0, bad], ndim))
        assert "non-finite" in str(info.value)

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    def test_nan_reported_before_a_negative_entry(self, cls, ndim):
        for entries in ([np.nan, -1.0], [-1.0, np.nan]):
            with pytest.raises(InvalidParamsError) as info:
                cls(_nest(entries, ndim))
            assert not isinstance(info.value, NegativeEntryError)
        with pytest.raises(NegativeEntryError):
            cls(_nest([1.0, -1.0], ndim))

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES)
    def test_negative_zero_accepted(self, cls, ndim):
        built = cls(_nest([1.0, -0.0], ndim))
        entries = (built.matrix if cls is Filtration else built.table).ravel()
        assert entries.tolist() == [1.0, 0.0] and math.copysign(1.0, entries[1]) == -1.0

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, -0.0],
            [-0.0, -0.0],
            [0.0, 0.0],
            [1.0, math.inf],
            [-0.0, math.inf],
            [1.0, -math.inf],
            [1.0, math.nan],
            [1.0, -math.nan],
            [-math.nan, -1.0],
            [2.0, -1.0],
            [-5e-324, 1.0],
            [5e-324, 2.2e-308],
            [5e-324, 0.0],
            [sys.float_info.max, 0.0],
            [True, False],
            [False, False],
            [3, 0],
            [[1.0, -0.0], [0.0, 2.0]],
            np.zeros((2, 0)),
            np.array([[1.0, 0.0]], dtype=np.float32),
            np.asfortranarray(np.arange(12.0).reshape(3, 4) - 0.0),
            np.arange(48.0).reshape(6, 8)[::2, ::-3],
            np.array([[1.0, -0.0, math.nan]])[:, ::2],
        ],
        ids=lambda v: repr(v).replace(" ", "")[:40],
    )
    @pytest.mark.parametrize("empty", [None, "no mass"])
    def test_one_pass_check_matches_two_reductions(self, values, empty):
        ndim = np.ndim(values)
        try:
            expected = oracles.freeze(values, ndim, "t", empty)
        except Exception as exc:
            with pytest.raises(type(exc)) as info:
                _freeze(values, ndim, "t", empty)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
        else:
            ours = _freeze(values, ndim, "t", empty)
            assert (ours.shape, ours.strides, ours.tobytes()) == (expected.shape, expected.strides, expected.tobytes())
            assert not ours.flags.writeable

    def test_empty_filtration_accepted(self):
        assert Filtration(np.zeros((2, 0))).matrix.shape == (2, 0)

    def test_huge_finite_entries_raise_no_warning(self):
        assert Filtration([[1e308, 1e308]]).matrix.tolist() == [[1e308, 1e308]]

    @pytest.mark.parametrize("cls,ndim", _TABLE_TYPES[:2])
    def test_near_overflow_tables_normalize(self, cls, ndim):
        # Their entries sum past the float maximum: the mass check goes
        # through the largest entry, and normalized() sums a rescaled table.
        p = cls(_nest([1e308, 1e308], ndim))
        assert p.normalized().table.ravel().tolist() == [0.5, 0.5]
        assert p.mass == math.inf

    def test_subnormal_tables_normalize(self):
        p = TripartiteDistribution(np.array([[[5e-324, 1e-323]]]))
        np.testing.assert_allclose(p.normalized().table.ravel(), [1 / 3, 2 / 3], rtol=1e-15)


class TestNormalize:
    def test_scaling_is_undone(self):
        doubled = TripartiteDistribution(2.0 * shared_bit().table[:, :, None])
        back = doubled.normalized()
        assert back.mass == pytest.approx(1.0, abs=1e-15)
        assert back.table[0, 0, 0] == pytest.approx(0.5)

    def test_idempotent_on_normalized(self, lemur):
        again = lemur.normalized()
        np.testing.assert_allclose(again.table, lemur.table, atol=1e-15)

    def test_simple_arithmetic(self):
        p = from_entries((2, 2, 1), {(0, 0, 0): 1.0, (1, 1, 0): 3.0}).normalized()
        assert p.table[0, 0, 0] == pytest.approx(0.25)
        assert p.table[1, 1, 0] == pytest.approx(0.75)


class TestMarginal:
    def test_example_distribution_marginal(self, lemur):
        pab = marginal_ab(lemur)
        assert pab.table[0, 0] == pytest.approx(6 / 24, abs=1e-15)
        assert pab.table[1, 1] == pytest.approx(8 / 24, abs=1e-15)
        assert pab.table[0, 1] == pytest.approx(5 / 24, abs=1e-15)
        assert pab.table[1, 0] == pytest.approx(5 / 24, abs=1e-15)

    def test_degenerate_eve_copies_entries(self):
        p = from_entries((2, 2, 1), {(0, 0, 0): 0.3, (1, 0, 0): 0.7})
        np.testing.assert_allclose(marginal_ab(p).table, p.table[:, :, 0])

    def test_product_marginal_scales_by_eve_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ab = BipartiteDistribution(rng.uniform(0.1, 1.0, size=(3, 2)))
            eve = rng.uniform(0.1, 1.0, size=4)
            joined = product_with_eve(ab, eve)
            np.testing.assert_allclose(
                marginal_ab(joined).table, ab.table * eve.sum(), atol=1e-12
            )

    def test_overflowing_sum_raises_one_error(self):
        with pytest.raises(InvalidParamsError, match="marginal overflows"):
            marginal_ab(TripartiteDistribution(np.full((2, 2, 2), 1e308)))


class TestProductWithEve:
    def test_shared_bit_with_uniform_eve_is_secret(self):
        p = product_with_eve(shared_bit(), [0.5, 0.5])
        assert secret_bit_fraction(p) == pytest.approx(1.0)

    def test_single_outcome_embedding(self):
        p = product_with_eve(shared_bit(), [1.0])
        assert p.dims == (2, 2, 1)

    def test_uniform_honest_parties_have_no_correlations(self):
        p = product_with_eve(BipartiteDistribution(np.full((2, 2), 0.25)), [0.3, 0.7])
        assert np.ptp(p.table.sum(axis=2)) == pytest.approx(0.0, abs=1e-15)


class TestTensorPower:
    def test_single_copy_is_identity(self):
        p = shared_bit()
        np.testing.assert_array_equal(tensor_power(p, 1).table, p.table)

    def test_two_copy_entry(self):
        p = bipartite_from_entries(
            (2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}
        )
        squared = tensor_power(p, 2)
        assert squared.dims == (4, 4)
        assert squared.table[0, 0] == pytest.approx(0.16, abs=1e-15)

    def test_mass_is_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = BipartiteDistribution(rng.uniform(0.0, 1.0, size=(2, 3)) + 1e-3)
            for copies in (2, 3):
                assert tensor_power(p, copies).mass == pytest.approx(
                    p.mass**copies, abs=1e-10
                )

    def test_extreme_scales_raise_one_error(self):
        with pytest.raises(InvalidParamsError, match="2-copy power overflows"):
            tensor_power(BipartiteDistribution(np.full((2, 2), 1e200)), 2)
        # An overflowed entry times a zero one is nan, refused the same way.
        with pytest.raises(InvalidParamsError, match="3-copy power overflows"):
            tensor_power(BipartiteDistribution(np.diag([1e200, 1e200])), 3)
        with pytest.raises(ZeroMassError):
            tensor_power(BipartiteDistribution(np.full((2, 2), 1e-200)), 2)

    def test_cell_cap_enforced(self):
        with pytest.raises(DimensionOverflowError):
            tensor_power(shared_bit(), 13)
        with pytest.raises(OutOfRangeError):
            tensor_power(shared_bit(), 0)

    def test_cell_cap_verdict_is_the_exact_products(self, monkeypatch):
        # The size is decided without building the product: each copy past
        # the first of a table of two or more cells is one np.kron, stubbed
        # here so that no table is built.  A one-cell power takes none.
        class Built(Exception):
            pass

        def kron(*args):
            raise Built

        monkeypatch.setattr(np, "kron", kron)
        for d_a, d_b in itertools.product(range(1, 7), repeat=2):
            p = BipartiteDistribution(np.ones((d_a, d_b)))
            for copies in range(1, 71):
                if (d_a**copies) * (d_b**copies) > DEFAULT_TENSOR_CELL_CAP:
                    with pytest.raises(DimensionOverflowError):
                        tensor_power(p, copies)
                elif copies > 1 and d_a * d_b > 1:
                    with pytest.raises(Built):
                        tensor_power(p, copies)
                else:
                    assert tensor_power(p, copies).table.shape == (d_a**copies, d_b**copies)

    def test_one_cell_powers_take_one_step(self):
        # One np.kron per copy took 2.4-2.8 s at 10^5 copies of these tables.
        started = time.perf_counter()
        assert tensor_power(BipartiteDistribution(np.ones((1, 1))), 10**9).table.tolist() == [[1.0]]
        with pytest.raises(ZeroMassError):
            tensor_power(BipartiteDistribution(np.full((1, 1), 0.5)), 10**9)
        with pytest.raises(InvalidParamsError, match="1000000000-copy power overflows"):
            tensor_power(BipartiteDistribution(np.full((1, 1), 2.0)), 10**9)
        assert time.perf_counter() - started < 1.0

    def test_one_cell_powers_follow_the_per_copy_product(self):
        for x in (0.3, 0.999, 1.7):
            p, product = BipartiteDistribution(np.full((1, 1), x)), 1.0
            for copies in range(1, 61):
                product *= x
                cell = tensor_power(p, copies).table.item()
                assert cell == x**copies, (x, copies)
                assert abs(cell - product) <= copies * 2**-52 * product, (x, copies)

    def test_cell_cap_refuses_a_billion_copies_at_once(self):
        # Built exactly, the cell count 3^c x 3^c took 0.8 s at a million
        # copies and 5.1 s at three million, and grew faster than that.
        p = BipartiteDistribution(np.arange(1.0, 10.0).reshape(3, 3))
        with traced_memory() as memory:
            with pytest.raises(DimensionOverflowError):
                tensor_power(p, 10**9)
        assert memory.peak < 2**20


class TestSharedBit:
    def test_cells(self):
        p = shared_bit()
        np.testing.assert_array_equal(p.table, [[0.5, 0.0], [0.0, 0.5]])
        assert p.mass == pytest.approx(1.0)

    def test_is_a_unit_of_secrecy(self):
        p = product_with_eve(shared_bit(), [0.2, 0.8])
        assert secret_bit_fraction(p) == pytest.approx(1.0)


class TestSatelliteScenario:
    def test_direct_evaluation(self):
        p = satellite_scenario(0.2, 0.2, 0.15)
        expected = 0.5 * (0.8 * 0.8 * 0.85 + 0.2 * 0.2 * 0.15)
        assert p.table[0, 0, 0] == pytest.approx(expected, abs=1e-15)

    def test_noiseless_honest_channels(self):
        p = satellite_scenario(0.0, 0.0, 0.5)
        np.testing.assert_allclose(p.table[:, :, 0], [[0.25, 0.0], [0.0, 0.25]], atol=1e-15)
        np.testing.assert_allclose(p.table[:, :, 1], [[0.25, 0.0], [0.0, 0.25]], atol=1e-15)
        assert secret_bit_fraction(p) == pytest.approx(1.0)

    def test_total_noise_destroys_everything(self):
        p = satellite_scenario(0.5, 0.5, 0.5)
        np.testing.assert_allclose(p.table, np.full((2, 2, 2), 0.125), atol=1e-15)

    def test_rates_outside_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            satellite_scenario(0.6, 0.2, 0.2)

    def test_global_bit_flip_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rates = rng.uniform(0.0, 0.5, size=3)
            p = satellite_scenario(*rates)
            flipped = p.table[::-1, ::-1, ::-1]
            np.testing.assert_allclose(p.table, flipped, atol=1e-12)


class TestCanonicalDistribution:
    def test_perfect_secrecy_limit(self):
        p = canonical_distribution(CanonicalParams(1.0, (0.25, 0.25, 0.25, 0.25)))
        assert p.table[0, 0, 0] == pytest.approx(0.5)
        assert p.table[1, 1, 0] == pytest.approx(0.5)
        assert p.table.sum() == pytest.approx(1.0)
        assert np.count_nonzero(p.table) == 2

    def test_secret_fraction_equals_mu(self):
        p = canonical_distribution(CanonicalParams(0.6, (0.25, 0.25, 0.25, 0.25)))
        assert secret_bit_fraction(p) == pytest.approx(0.6, abs=1e-12)

    def test_disagreement_epsilon(self):
        params = CanonicalParams(0.7, (0.0, 0.4, 0.6, 0.0))
        assert params.epsilon == pytest.approx(1.0 - 0.7, abs=1e-15)

    def test_mass_is_one_for_normalized_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            eta = rng.dirichlet(np.ones(4))
            params = CanonicalParams(rng.uniform(0.51, 1.0), tuple(eta))
            assert canonical_distribution(params).mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "mu,eta",
        [
            (0.5, (0.25, 0.25, 0.25, 0.25)),
            (1.1, (0.25, 0.25, 0.25, 0.25)),
            (0.6, (0.5, 0.5, 0.5, 0.5)),
            (0.6, (-0.1, 0.5, 0.3, 0.3)),
            (0.6, (math.nan, 0.25, 0.25, 0.5)),
            (0.6, (0.25, 0.25, 0.5, math.nan)),
        ],
    )
    def test_invalid_params_rejected(self, mu, eta):
        with pytest.raises(InvalidParamsError):
            CanonicalParams(mu, eta)


_AB = bipartite_from_entries((2, 3), {(0, 0): 0.3, (0, 1): 0.1, (0, 2): 0.05, (1, 0): 0.05, (1, 1): 0.1, (1, 2): 0.4})
_CANON = CanonicalParams(0.6, (0.25, 0.25, 0.25, 0.25))

# Every count parameter of the library's entry points, each called with that count and nothing else varied.
COUNT_PARAMETERS = {
    "tensor_power-copies": lambda n: tensor_power(_AB, n),
    "mesbf_decoupled_power-copies": lambda n: mesbf_decoupled_power(_AB, n),
    "block_error_rate-N": lambda n: distill.block_error_rate(_CANON, n),
    "bob_uncertainty-N": lambda n: distill.bob_uncertainty(_CANON, n),
    "eve_uncertainty-N": lambda n: distill.eve_uncertainty(_CANON, n),
    "protocol_report-N": lambda n: distill.protocol_report(_CANON, n),
    "minimal_block_length-n_max": lambda n: distill.minimal_block_length(_CANON, n),
    "exact_block_statistics-N": lambda n: distill.exact_block_statistics(canonical_distribution(_CANON), n),
    "simulate-N": lambda n: distill.simulate_advantage_distillation(canonical_distribution(_CANON), n, 200, 1),
    "simulate-samples": lambda n: distill.simulate_advantage_distillation(canonical_distribution(_CANON), 3, n, 1),
    "run_checks-trials": lambda n: properties.run_checks(satellite_scenario(0.1, 0.2, 0.3), n, 1),
    "SearchConfig-restarts": lambda n: SearchConfig(restarts=n),
    "SearchConfig-iterations": lambda n: SearchConfig(iterations=n),
    "SearchConfig-grid_points": lambda n: SearchConfig(grid_points=n),
}
BAD_COUNTS = [True, np.True_, 2.5, 2.0, math.nan, math.inf, "2", 0, -1]


@pytest.mark.parametrize("entry", COUNT_PARAMETERS)
def test_counts_are_integers_at_or_above_their_minimum(entry):
    call = COUNT_PARAMETERS[entry]
    for bad in BAD_COUNTS:
        with pytest.raises(SecbitError) as caught:
            call(bad)
        assert isinstance(caught.value, InvalidParamsError) and isinstance(caught.value, OutOfRangeError), (bad, caught)
    # A numpy integer is read as the Python int it holds, down to the types in the result.
    assert result_bits(call(np.int64(3))) == result_bits(call(3))


# Every seed parameter of the library's entry points.  A seed is a count that may be 0.
SEED_PARAMETERS = {
    "estimate_mesbf-seed": lambda s: estimate_mesbf(
        satellite_scenario(0.1, 0.2, 0.3), SearchConfig(restarts=2, iterations=40, seed=s)
    ),
    "simulate-seed": lambda s: distill.simulate_advantage_distillation(canonical_distribution(_CANON), 3, 200, s),
    "run_checks-seed": lambda s: properties.run_checks(satellite_scenario(0.1, 0.2, 0.3), 2, s),
}


@pytest.mark.parametrize("entry", SEED_PARAMETERS)
def test_seeds_are_integers_at_or_above_zero(entry):
    # Unchecked, seed=-1 and seed=1.5 failed inside numpy with a bare
    # ValueError or TypeError, and seed=True was read as seed 1.
    call = SEED_PARAMETERS[entry]
    for bad in (-1, 1.5, True, np.True_):
        with pytest.raises(CountError):
            call(bad)
    assert result_bits(call(np.int64(3))) == result_bits(call(3))
    call(0)
    call(2**70)


_SUITES = (
    properties.check_scale_invariance,
    properties.check_eve_monotonicity,
    properties.check_apply_algebra,
    properties.check_reversible_undo,
    properties.check_decompose_roundtrip,
)
# Every entry point that takes a count or a seed: the two tables above, the
# filter sizes and each property suite alone.
ALL_COUNTS = {
    **COUNT_PARAMETERS,
    **SEED_PARAMETERS,
    "Filtration.identity-size": lambda n: Filtration.identity(n),
    "Filtration.coin_toss-size": lambda n: Filtration.coin_toss(n),
    "lower_shear-size": lambda n: lower_shear(0.5, n),
    "row_gluing-size": lambda n: row_gluing(0.5, 1, n),
    **{f"{suite.__name__}-trials": lambda n, suite=suite: suite(satellite_scenario(0.1, 0.2, 0.3), n, 1)
       for suite in _SUITES},
    **{f"{suite.__name__}-seed": lambda n, suite=suite: suite(satellite_scenario(0.1, 0.2, 0.3), 1, n)
       for suite in _SUITES},
    "check_cross_ratio_monotonicity-trials": lambda n: properties.check_cross_ratio_monotonicity(_AB, n, 1),
    "check_cross_ratio_monotonicity-seed": lambda n: properties.check_cross_ratio_monotonicity(_AB, 1, n),
}
# The entry points that answer at 2^1000 with a finite limit.
ANSWER_AT_2_1000 = (
    "mesbf_decoupled_power-copies",
    "block_error_rate-N",
    "bob_uncertainty-N",
    "eve_uncertainty-N",
    "protocol_report-N",
    "exact_block_statistics-N",
)


def _floats(result) -> list[float]:
    if isinstance(result, MeasureResult):
        return [result.value]
    if isinstance(result, dict):
        return list(result.values())
    if isinstance(result, distill.ProtocolReport):
        return [result.block_error_rate, result.bob_uncertainty, result.eve_uncertainty]
    return [result]


@pytest.mark.parametrize("entry", ALL_COUNTS)
def test_counts_past_the_float_maximum_raise_count_error(entry):
    # Unchecked, 10^400 copies or blocks raised a bare OverflowError where
    # the count met a float, and a count of 10^5000 has no repr to report.
    call = ALL_COUNTS[entry]
    for huge in (2**1024, 10**400, 10**5000):
        with pytest.raises(CountError, match="float maximum"):
            call(huge)
    if entry in ANSWER_AT_2_1000:
        values = _floats(call(2**1000))
        assert all(math.isfinite(value) for value in values), values
