"""Tripartite and bipartite probability distributions over finite alphabets.

Distributions are dense nonnegative tensors and are allowed to be
unnormalized: every measure built on top of them is invariant under
positive rescaling, so mass other than one is never an error.  All types
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import ClassVar, Optional, TypeVar

import numpy as np

from .errors import (
    BadShapeError,
    CountError,
    DimensionOverflowError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NegativeEntryError,
    OutOfRangeError,
    ZeroMassError,
)

DEFAULT_TENSOR_CELL_CAP = 10_000_000
_BOOLS = frozenset((bool, np.bool_))


def _is_integer(value) -> bool:
    """True for an ``int`` that is not a bool, or a numpy integer."""
    return isinstance(value, int) and not isinstance(value, bool) or isinstance(value, np.integer)


def _require_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python ``int``; raises :class:`CountError` unless it is an integer ``>= minimum``.

    Counts and seeds are read as floats somewhere, so one past the float
    maximum is refused too (an int compares with a float exactly).
    """
    if _is_integer(value) and minimum <= value <= sys.float_info.max:
        return int(value)
    # Past 4300 digits an int has no repr, so one past the float maximum is shown by its size.
    huge = _is_integer(value) and abs(value) > sys.float_info.max
    shown = f"an integer of {int(value).bit_length()} bits" if huge else repr(value)
    raise CountError(f"{name} accepts integers >= {minimum} up to the float maximum only, got {shown}")


def _unconvertible(values, what: str) -> BadShapeError | InvalidParamsError:
    """The error for ``values`` that numpy cannot read as a float array.

    Nesting of unequal lengths leaves sequences among the entries of an
    object array (or defeats even that); otherwise some entry is no real number.
    """
    try:
        entries = np.array(values, dtype=object).flat
        ragged = any(isinstance(x, (list, tuple)) or getattr(x, "ndim", 0) > 0 for x in entries)
    except ValueError:
        ragged = True
    if ragged:
        return BadShapeError(f"{what} is ragged: its nested sequences differ in length")
    return InvalidParamsError(f"{what} must hold real numbers only")


def _is_complex(arr: np.ndarray) -> bool:
    """True for a complex array, or an object array holding a complex entry.

    numpy casts either to float with only a warning, dropping the imaginary part.
    """
    if arr.dtype.kind == "O":
        return any(isinstance(x, (complex, np.complexfloating)) for x in arr.flat)
    return arr.dtype.kind == "c"


def _freeze(values, ndim: int, what: str, empty: str | None = None) -> np.ndarray:
    """``values`` as a read-only ``ndim``-dimensional array of finite, nonnegative floats.

    Given ``empty``, an array with no positive entry raises
    :class:`ZeroMassError` with that message; the largest entry, taken
    once, decides both that and finiteness.
    """
    try:
        arr = np.asarray(values)
        if _is_complex(arr):
            raise TypeError("complex entries")
        arr = arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise _unconvertible(values, what) from exc
    if arr.ndim != ndim:
        raise BadShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    # Two reductions pass every finite nonnegative table (nan fails both);
    # only a table that fails one pays for the checks that name the fault.
    top = np.maximum.reduce(arr, axis=None, initial=0.0)
    if not (np.minimum.reduce(arr, axis=None, initial=0.0) >= 0.0 and top < math.inf):
        if not np.isfinite(arr).all():
            raise InvalidParamsError(f"{what} contains non-finite entries")
        if (arr < 0.0).any():
            raise NegativeEntryError(f"{what} contains a negative entry")
    if empty is not None and not top > 0.0:
        raise ZeroMassError(empty)
    arr.setflags(write=False)
    return arr


def _unit_scale(table: np.ndarray) -> np.ndarray:
    """``table`` times the power of two that puts its largest entry in [1/2, 1).

    Scaling by a power of two is exact while the entries stay normal, so
    a ratio of sums of the scaled table equals that of the table bit for
    bit; but no sum of a near-overflow table overflows, and products of a
    subnormal table's entries do not underflow.  ``table`` must hold a
    positive entry.
    """
    exponent = math.frexp(table.max())[1]
    return table if exponent == 0 else np.ldexp(table, -exponent)


def _below_overflow(table: np.ndarray, what: str) -> np.ndarray:
    """``table`` unless an entry passed the float maximum (``inf``, or ``nan`` from ``inf * 0``).

    Then one :class:`InvalidParamsError` names the overflow.  Callers make
    ``table`` with numpy's overflow warnings off.
    """
    if not np.maximum.reduce(table, axis=None, initial=0.0) < math.inf:
        raise InvalidParamsError(f"{what} overflows: an entry passes the float maximum")
    return table


_Table_T = TypeVar("_Table_T", bound="_Table")


@dataclass(frozen=True)
class _Table:
    """A frozen, finite, nonnegative table of positive total mass.

    The mass is positive when the largest entry is, which holds even where
    the sum of finite entries overflows.
    """

    table: np.ndarray
    _ndim: ClassVar[int]

    def __post_init__(self) -> None:
        table = _freeze(self.table, self._ndim, "distribution table", "distribution has zero total mass")
        object.__setattr__(self, "table", table)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.table.shape

    @property
    def mass(self) -> float:
        """Sum of the entries: ``inf``, without a warning, when it passes the float maximum."""
        with np.errstate(over="ignore"):
            return float(self.table.sum())

    def normalized(self: _Table_T) -> _Table_T:
        """The table divided by its mass, summed after scaling by the largest entry so it cannot overflow."""
        scaled = _unit_scale(self.table)
        return type(self)(scaled / scaled.sum())


class TripartiteDistribution(_Table):
    """Joint distribution ``P(a, b, e)`` of Alice, Bob and Eve's symbols."""

    _ndim = 3

    @property
    def is_binary(self) -> bool:
        """True when both honest parties hold a bit."""
        return self.table.shape[0] == 2 and self.table.shape[1] == 2


@dataclass(frozen=True)
class BipartiteDistribution(_Table):
    """Joint distribution ``P(a, b)`` of the honest parties, Eve decoupled.

    ``_least_ratio`` holds the table's least cross ratio and its pair once a
    decoupled closed form of :mod:`secbit.measures` has scanned the table;
    it takes no part in ``repr`` or ``==``.  Two threads may both scan a
    fresh object and store the same value.
    """

    _ndim = 2
    _least_ratio: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


def _unit_scaled(p: _Table_T) -> _Table_T:
    """``p`` at the scale of :func:`_unit_scale`; ``p`` itself when that is its scale.

    Every measure is a ratio of sums of products, so a normal table gives
    the same bits at this scale.  A subnormal table (whose products lose
    bits) or a near-overflow one (whose sums overflow) gives them here
    exactly and finitely.
    """
    table = _unit_scale(p.table)
    return p if table is p.table else type(p)(table)


@dataclass(frozen=True)
class CanonicalParams:
    """Parameters of the canonical partially secret distribution.

    With probability ``mu`` Eve learns only that the honest bits agree;
    with probability ``1 - mu`` she learns both bits exactly, the four
    joint values weighted by ``eta = (eta00, eta01, eta10, eta11)``.
    """

    mu: float
    eta: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        mu = float(self.mu)
        eta = tuple(float(x) for x in self.eta)
        if len(eta) != 4:
            raise InvalidParamsError("eta must have exactly four components")
        if not (0.5 < mu <= 1.0):
            raise InvalidParamsError(f"mu must lie in (1/2, 1], got {mu}")
        if not all(x >= 0.0 for x in eta):
            raise InvalidParamsError(f"eta components must be nonnegative numbers, got {eta}")
        if not abs(sum(eta) - 1.0) <= 1e-12:
            raise InvalidParamsError(f"eta must sum to 1, got {sum(eta)!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)

    @property
    def epsilon(self) -> float:
        """Probability that the honest parties' bits disagree."""
        return (1.0 - self.mu) * (self.eta[1] + self.eta[2])


def _has_bool(values: Iterable) -> bool:
    return not _BOOLS.isdisjoint(map(type, values))


def _from_cells(cls: type[_Table_T], dims: tuple[int, ...], cells: Mapping[tuple, float]) -> _Table_T:
    """Dense table of type ``cls`` from a sparse cell mapping; unlisted cells are zero.

    The size cap is checked before allocating.  Negative, short and boolean
    indices are caught in one pass per axis (numpy would read a boolean as
    a mask), indices past the end and long keys by numpy.
    """
    dims = tuple(dims)
    if len(dims) != cls._ndim or not all(map(_is_integer, dims)) or min(dims) < 1:
        raise BadShapeError(f"dims must be {cls._ndim} integer alphabet sizes of at least one symbol, got {dims}")
    if math.prod(dims) > DEFAULT_TENSOR_CELL_CAP:
        raise DimensionOverflowError(f"dims {dims} exceed the cap of {DEFAULT_TENSOR_CELL_CAP} cells")
    axes = tuple(zip(*cells))
    if cells and (len(axes) != len(dims) or min(map(min, axes)) < 0 or _has_bool(chain(*axes))):
        bad = next(index for index in cells if len(index) != len(dims) or min(index) < 0 or _has_bool(index))
        raise IndexOutOfRangeError(f"cell {bad} outside dims {dims}")
    table = np.zeros(dims)
    try:
        for index, p in cells.items():
            table[index] = p
    except IndexError:
        raise IndexOutOfRangeError(f"cell {index} outside dims {dims}") from None
    return cls(table)


def from_entries(
    dims: tuple[int, int, int],
    cells: Mapping[tuple[int, int, int], float],
) -> TripartiteDistribution:
    """Build a dense distribution from a sparse cell mapping.

    Unlisted cells are zero.  Raises on negative probabilities, indices
    outside ``dims`` or of the wrong length, an entirely massless table,
    and ``dims`` of more than ``DEFAULT_TENSOR_CELL_CAP`` cells.
    """
    return _from_cells(TripartiteDistribution, dims, cells)


def bipartite_from_entries(
    dims: tuple[int, int],
    cells: Mapping[tuple[int, int], float],
) -> BipartiteDistribution:
    """Bipartite counterpart of :func:`from_entries`."""
    return _from_cells(BipartiteDistribution, dims, cells)


def marginal_ab(p: TripartiteDistribution) -> BipartiteDistribution:
    """Sum out Eve's symbol: ``P(a, b) = sum_e P(a, b, e)``.

    A sum past the float maximum raises :class:`InvalidParamsError`, with
    no numpy warning.
    """
    with np.errstate(over="ignore"):
        table = p.table.sum(axis=2)
    return BipartiteDistribution(_below_overflow(table, "the (A, B) marginal"))


def product_with_eve(p_ab: BipartiteDistribution, q_e) -> TripartiteDistribution:
    """Attach an independent Eve: ``P(a, b, e) = P(a, b) * Q(e)``."""
    weights = _freeze(q_e, 1, "Eve marginal", "Eve marginal has zero total mass")
    return TripartiteDistribution(p_ab.table[:, :, None] * weights[None, None, :])


def point_mass_eve(p_ab: BipartiteDistribution) -> TripartiteDistribution:
    """Embed with a single deterministic Eve symbol (``d_E = 1``)."""
    return product_with_eve(p_ab, [1.0])


def tensor_power(p_ab: BipartiteDistribution, copies: int) -> BipartiteDistribution:
    """Joint distribution of ``copies`` independent samples.

    The composite index encodes the sample string positionally in base
    ``d_A`` (respectively ``d_B``) with sample 0 as the most significant
    digit, so the cell for strings ``(a_0 .. a_{N-1})``, ``(b_0 .. b_{N-1})``
    is the product of the per-sample probabilities; a one-cell table's
    power is its cell to the ``copies``-th power, taken in one step.  The
    factors are not rescaled: more than ``DEFAULT_TENSOR_CELL_CAP`` cells
    raise :class:`DimensionOverflowError`, a product past the float maximum
    :class:`InvalidParamsError` and one that underflows everywhere
    :class:`ZeroMassError`, each with no numpy warning.
    """
    copies = _require_count(copies, "copies")
    d_a, d_b = p_ab.dims
    # Two or more cells pass the cap within 24 copies, so the exponent
    # stops at 64 and the exact product is never built.
    if (d_a * d_b) ** min(copies, 64) > DEFAULT_TENSOR_CELL_CAP:
        raise DimensionOverflowError(
            f"{d_a}^{copies} x {d_b}^{copies} cells exceed the cap of {DEFAULT_TENSOR_CELL_CAP}"
        )
    table = p_ab.table
    # An overflowed product times a zero entry is nan; either fails the check.
    with np.errstate(over="ignore", invalid="ignore"):
        if table.size == 1:
            # numpy's scalar power is C pow, as Python's is; its array power
            # may round otherwise.
            table = np.full((1, 1), np.float64(table.item()) ** float(copies))
        else:
            for _ in range(copies - 1):
                table = np.kron(table, p_ab.table)
    return BipartiteDistribution(_below_overflow(table, f"the {copies}-copy power"))


def shared_bit() -> BipartiteDistribution:
    """The perfectly correlated uniform bit pair: diagonal 1/2, rest 0."""
    return BipartiteDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))


def satellite_scenario(err_a: float, err_b: float, err_e: float) -> TripartiteDistribution:
    """Broadcast source seen through three binary symmetric channels.

    A uniform bit ``r`` is sent to all parties; party ``x`` receives it
    flipped with probability ``err_x``.  Error rates must lie in [0, 1/2].
    """
    rates = (err_a, err_b, err_e)
    for rate in rates:
        if not (0.0 <= rate <= 0.5):
            raise OutOfRangeError(f"error rate must lie in [0, 1/2], got {rate}")
    channels = [np.array([[1.0 - r, r], [r, 1.0 - r]]) for r in rates]
    table = 0.5 * np.einsum("ar,br,er->abe", *channels)
    return TripartiteDistribution(table)


def canonical_distribution(params: CanonicalParams) -> TripartiteDistribution:
    """Dense form of the canonical partially secret distribution.

    Eve's alphabet has five symbols: 0 marks the secret component (both
    honest bit values, weight ``mu/2`` each); 1..4 mark the components
    where she knows the bits, one symbol per joint value.
    """
    mu = params.mu
    eta00, eta01, eta10, eta11 = params.eta
    table = np.zeros((2, 2, 5))
    table[0, 0, 0] = mu / 2.0
    table[1, 1, 0] = mu / 2.0
    table[0, 0, 1] = (1.0 - mu) * eta00
    table[1, 1, 2] = (1.0 - mu) * eta11
    table[0, 1, 3] = (1.0 - mu) * eta01
    table[1, 0, 4] = (1.0 - mu) * eta10
    return TripartiteDistribution(table)


def randomization_example() -> TripartiteDistribution:
    """Distribution where joint local randomization beats reversible filtering.

    Its secret-bit fraction is exactly 1/2 and no reversible pair of local
    filters improves that, yet adding a little symmetric noise on both
    honest sides pushes the secret-bit fraction strictly above 1/2.
    """
    return from_entries(
        (2, 2, 2),
        {
            (0, 0, 0): 6 / 24,
            (1, 1, 0): 6 / 24,
            (0, 1, 1): 5 / 24,
            (1, 0, 1): 5 / 24,
            (1, 1, 1): 2 / 24,
        },
    )
