"""Closed-form secrecy measures with witness filtrations.

The basic quantity is the secret-bit fraction of a binary distribution:
the largest weight with which the distribution contains a perfectly
correlated uniform bit pair that Eve is independent of,

    lambda = 2 sum_e min(P(0,0,e), P(1,1,e)) / sum P .

On top of it sit the maximal extractable secret-bit fraction (MESBF)
restricted to reversible local filters, the exact MESBF for a decoupled
eavesdropper (a maximization of a cross-ratio expression over outcome
pairs), its N-copy form, and the same cross-ratio maximization extended
to arbitrary nonnegative matrices (`vartheta`), which is the workhorse of
the enlarged-space monotonicity arguments.

Every optimum that is attained comes with an explicit witness pair of
filtrations; optima that are only approached come with a one-parameter
witness family ("quasi-distillability").

Every measure is scale invariant, for tables scaled anywhere from 1e-300
to 1e300, and near the float maximum.  Every measure first divides the
table by its largest entry (the secret-bit fraction and its oracle by the
nearest power of two, which is exact), so no sum overflows.  One kernel,
:func:`_cross_ratios`, serves the four cross-ratio functions; it reads
the table's mantissas and exponents only where a scaled entry, product
or quotient would round below the normal floats, so every normal table
keeps its bits.  The three exact-or-limiting witnesses share one
balancing rule and one builder of both filters (:func:`_two_outcome_pair`).
Where a product of one table's entries underflows, the reversible cross
term and the witness weights fall back to products of square roots, and
a reversible ratio past the float maximum scores its branch divided
through by it.  Everything here needs numpy only: the linear-programming
oracle runs a small in-house simplex (:func:`_lp_max`).
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .distributions import (
    BipartiteDistribution,
    TripartiteDistribution,
    _is_integer,
    _require_count,
    _unit_scale,
    point_mass_eve,
)
from .errors import (
    IndexOutOfRangeError,
    InvalidParamsError,
    LinearProgramError,
    NotBinaryError,
    TooLargeError,
)
from .filtration import Filtration

WitnessPair = tuple[Filtration, Filtration]
WitnessFamily = Callable[[float], WitnessPair]

#: Default parameter at which a limiting witness family is sampled for
#: the representative pair stored on the result.
FAMILY_SAMPLE = 1e-6

# Most outcome pairs a cross-ratio scan takes on.  At the worst shape,
# 2 x 1024, Bob's 1M ordered pairs (16 MB, built for the call and dropped),
# four gathered cells per pair and two products peak at 67 MB (tracemalloc),
# on a normal table and on one that takes the mantissa path alike; 32 x 32
# alphabets have about half as many pairs.  Only tables of at most
# ``_CACHED_PAIR_SYMBOLS`` entries stay cached (:func:`_pairs`), at most 64
# of them: about 2 MB when they are the 64 largest.  A cached table costs
# 0.3 us a call, a build 13 us at 2 symbols and 55 us at 64 (2-vCPU host).
_MAX_OUTCOME_PAIRS = 1 << 20
_CACHED_PAIR_SYMBOLS = 64


@dataclass(frozen=True)
class MeasureResult:
    """Value of a secrecy measure plus how to (approximately) attain it.

    ``witness_kind`` is ``"exact"`` when applying the witness reproduces
    the value, ``"limiting"`` when the value is only approached along
    ``witness_family(delta)`` as ``delta -> 0`` (``witness`` then holds a
    representative member), and ``"none"`` when no witness is reported.
    """

    value: float
    witness: Optional[WitnessPair]
    witness_kind: str
    detail: dict = field(default_factory=dict)
    witness_family: Optional[WitnessFamily] = None

    def __post_init__(self) -> None:
        if not (-1e-12 <= self.value <= 1.0 + 1e-12):
            raise InvalidParamsError(f"measure value {self.value} outside [0, 1]")
        if self.witness_kind not in ("exact", "limiting", "none"):
            raise InvalidParamsError(f"unknown witness kind {self.witness_kind!r}")


def _require_binary(dims_ab: tuple[int, int]) -> None:
    if dims_ab != (2, 2):
        raise NotBinaryError(
            f"both honest alphabets must have size 2, got {dims_ab[0]} x {dims_ab[1]}"
        )


def secret_bit_fraction(p: TripartiteDistribution) -> float:
    """Secret-bit fraction of a binary distribution.

    Scale invariant; the distribution need not be normalized.  The table
    is summed at the scale of :func:`_unit_scale`, so near-overflow
    entries do not overflow the sums.
    """
    _require_binary(p.dims[:2])
    t = _unit_scale(p.table)
    return float(2.0 * np.minimum(t[0, 0, :], t[1, 1, :]).sum() / t.sum())


def secret_bit_fraction_oracle(p: TripartiteDistribution) -> float:
    """Independent cross-check of :func:`secret_bit_fraction`.

    Solves the defining decomposition directly as a linear program:
    maximize ``sum_e q_e`` subject to ``q_e <= 2 P(0,0,e)``,
    ``q_e <= 2 P(1,1,e)``, ``q_e >= 0`` and ``sum_e q_e <= 1`` on the
    normalized distribution, with the simplex of :func:`_lp_max`.  The
    table is scaled by its largest entry before it is normalized, so its
    sum cannot overflow.  Exists purely so the closed form has a second,
    formula-free route to compare against.
    """
    _require_binary(p.dims[:2])
    t = _unit_scale(p.table)
    t = t / t.sum()
    d_e = p.dims[2]
    eye = np.eye(d_e)
    a_ub = np.vstack([eye, eye, np.ones((1, d_e))])
    b_ub = np.concatenate([2.0 * t[0, 0, :], 2.0 * t[1, 1, :], [1.0]])
    return _lp_max(np.ones(d_e), a_ub, b_ub)[0]


# Reduced costs and pivot-column entries within this of zero count as zero;
# :func:`_lp_max` expects data of order one.
_LP_TOL = 1e-12
# Pivots :func:`_lp_max` takes per row and variable before it gives up.
# Bland's rule cannot cycle, so only a numerically stuck LP reaches the cap.
_LP_PIVOTS_PER_SIZE = 50


def _lp_max(c, a_ub, b_ub) -> tuple[float, np.ndarray]:
    """Maximum of ``c @ x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``, and a maximizer.

    ``b_ub >= 0``, so the origin is a feasible vertex and a dense-tableau
    simplex starts there with no phase I.  Bland's rule (the lowest-index
    improving column, and among tied ratios the row whose basic variable
    has the lowest index) cannot cycle on a degenerate LP.  Raises
    :class:`LinearProgramError` when the LP is unbounded or when
    ``_LP_PIVOTS_PER_SIZE (m + n)`` pivots, for ``m`` rows and ``n``
    variables, do not reach the optimum.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    m, n = a_ub.shape
    if not np.all(np.asarray(b_ub) >= 0.0):
        raise InvalidParamsError("the right-hand side must be nonnegative, so the origin is feasible")
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a_ub
    tab[:m, n:-1] = np.eye(m)
    tab[:m, -1] = b_ub
    tab[m, :n] = np.negative(c)
    basis = np.arange(n, n + m)
    cap = _LP_PIVOTS_PER_SIZE * (m + n)
    for pivots in range(cap + 1):
        improving = np.flatnonzero(tab[m, :-1] < -_LP_TOL)
        if not improving.size:
            x = np.zeros(n + m)
            x[basis] = tab[:m, -1]
            return float(tab[m, -1]), x[:n]
        if pivots == cap:
            break
        j = improving[0]
        rows = np.flatnonzero(tab[:m, j] > _LP_TOL)
        if not rows.size:
            raise LinearProgramError(f"the LP is unbounded along variable {j}")
        ratios = tab[rows, -1] / tab[rows, j]
        tied = rows[ratios == ratios.min()]
        i = tied[basis[tied].argmin()]
        tab[i] /= tab[i, j]
        column = tab[:, j].copy()
        column[i] = 0.0
        tab -= np.outer(column, tab[i])
        # Rounding may leave a basic variable a hair below zero.
        np.maximum(tab[:m, -1], 0.0, out=tab[:m, -1])
        basis[i] = j
    raise LinearProgramError(f"the LP reached no optimum within {cap} pivots")


def _two_outcome_pair(dims: tuple[int, int], alice, bob, x, y) -> WitnessPair:
    """Filters keeping two outcomes per party, for the ``dims`` alphabets.

    Alice's output ``i`` takes her input ``alice[i]`` at weight ``x[i]``,
    Bob's takes ``bob[i]`` at ``y[i]``.  Each filter is scaled as
    :meth:`Filtration.as_proper` scales it, and built once.
    """
    left = np.zeros((2, dims[0]))
    right = np.zeros((2, dims[1]))
    left[(0, 1), alice] = x
    right[(0, 1), bob] = y
    return Filtration(left / left.sum(axis=0).max()), Filtration(right / right.sum(axis=0).max())


def _balanced_witness(
    build: Callable[[float], WitnessPair], ratio: float, cell0: float, cell1: float
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """The witness ``build(q)`` whose free weight ``q`` balances two cells.

    ``build(q)`` keeps two cells at ``ratio`` to each other, weighting one
    party by ``q`` and the other by its partner ``ratio / q``, and weights
    the two balancing cells ``cell0`` and ``cell1`` against each other by
    ``q``; the optimum sits at ``q = sqrt(ratio * cell0 / cell1)``, taken
    as a product of square roots where ``ratio * cell0`` or the quotient
    leaves the normal floats.  When exactly one balancing cell is
    structurally zero the optimum is only approached as ``q`` degenerates,
    giving a limiting family.  A weight or partner that leaves the
    positive floats raises :class:`InvalidParamsError`.
    """

    def weighted(q: float) -> WitnessPair:
        if not (0.0 < q < math.inf and 0.0 < ratio / q < math.inf):
            raise InvalidParamsError(f"the witness weights {q!r} and {ratio!r} / {q!r} leave the float range")
        return build(q)

    if cell0 > 0.0 and cell1 > 0.0:
        product = ratio * cell0
        balance = product / cell1
        normal = sys.float_info.min <= min(product, balance) and balance < math.inf
        q = math.sqrt(balance) if normal else math.sqrt(ratio) * math.sqrt(cell0) / math.sqrt(cell1)
        return weighted(q), "exact", None
    if cell0 == 0.0 and cell1 == 0.0:
        return weighted(1.0), "exact", None
    if cell1 == 0.0:
        family: WitnessFamily = lambda delta: weighted(1.0 / delta)
    else:
        family = weighted
    return family(FAMILY_SAMPLE), "limiting", family


def mesbf_reversible(p: TripartiteDistribution) -> MeasureResult:
    """Best secret-bit fraction reachable with reversible local filters.

    Reversible 2x2 filters are exactly the diagonal and antidiagonal
    matrices, and for each branch the optimum sits at a ratio between two
    of Eve's cells, so the supremum reduces to a finite scan: over Eve
    symbols where both diagonal cells are nonzero (diagonal branch) and
    where both off-diagonal cells are nonzero (antidiagonal branch).  The
    antidiagonal branch is the diagonal branch of the table with Bob's
    outcomes swapped, so both are scored in one pass; only their
    witnesses differ.  An empty branch contributes zero; membership uses
    structural zeros, not a tolerance.
    """
    _require_binary(p.dims[:2])
    t = p.table / p.table.max()
    s = np.stack([t, t[:, ::-1]])  # axis 0: diagonal branch, then antidiagonal
    m = s.sum(axis=3)
    live = (s[:, 0, 0] != 0.0) & (s[:, 1, 1] != 0.0)
    with np.errstate(over="ignore"):
        ratios = np.divide(s[:, 0, 0], s[:, 1, 1], out=np.ones(live.shape), where=live)
    # Diagonal cells weighted (1, ratio), or (1 / ratio, 1) where the ratio passes the float maximum.
    huge = np.isinf(ratios)
    w0 = np.divide(s[:, 1, 1], s[:, 0, 0], out=np.ones(live.shape), where=huge)
    w1 = np.where(huge, 1.0, ratios)
    num = 2.0 * np.minimum(w0[:, :, None] * s[:, 0, 0, None, :], w1[:, :, None] * s[:, 1, 1, None, :]).sum(axis=2)
    product = w0 * w1 * m[:, 0, 1, None] * m[:, 1, 0, None]
    # Where the product underflows, a product of square roots keeps the cross term.
    roots = np.sqrt(w0 * w1) * np.sqrt(m[:, 0, 1, None]) * np.sqrt(m[:, 1, 0, None])
    cross = np.where(product < sys.float_info.min, roots, np.sqrt(product))
    den = w0 * m[:, 0, 0, None] + w1 * m[:, 1, 1, None] + 2.0 * cross
    values = np.divide(num, den, out=np.full(live.shape, -1.0), where=live)
    # Row-major argmax: the diagonal branch wins ties, then the lower symbol.
    b, e = divmod(int(values.argmax()), live.shape[1])
    if not live[b, e]:
        return MeasureResult(0.0, None, "none", {"branch": None})
    # diag(1, q) and diag(1, ratio / q), or the swap weighted (q, 1) and diag(ratio / q, 1);
    # a huge ratio reverses each weight pair around 1 / ratio and swaps the balancing cells.
    huge_be = bool(huge[b, e])
    weight = float(w0[b, e] if huge_be else ratios[b, e])
    step = -1 if (b == 1) != huge_be else 1
    order = (1, 0) if b else (0, 1)
    build = lambda q: _two_outcome_pair((2, 2), order, (0, 1), (1.0, q)[::step], (1.0, weight / q)[::step])
    cells = (float(m[b, 0, 1]), float(m[b, 1, 0]))
    witness, kind, family = _balanced_witness(build, weight, *(cells[::-1] if huge_be else cells))
    detail = {"branch": ("diagonal", "antidiagonal")[b], "eve_symbol": e, "ratio": float(ratios[b, e])}
    return MeasureResult(float(values[b, e]), witness, kind, detail, family)


def mesbf_reversible_decoupled(p_ab: BipartiteDistribution) -> MeasureResult:
    """Reversible-filter MESBF of a 2x2 distribution with Eve decoupled.

    Zero when both cell products vanish; otherwise the larger of
    ``1 / (1 + sqrt(P01 P10 / P00 P11))`` and its reciprocal-ratio twin,
    a vanishing product inside the square root being read as the limit
    (that branch then evaluates to 1, approached by a limiting family).
    This is :func:`mesbf_reversible` with a single Eve symbol.
    """
    result = mesbf_reversible(point_mass_eve(p_ab))
    detail = {key: value for key, value in result.detail.items() if key != "eve_symbol"}
    return replace(result, detail=detail)


@functools.lru_cache(maxsize=64)
def _pair_table(k: int, ordered: bool = False) -> tuple[np.ndarray, tuple[int, ...]]:
    """Index pairs ``i < j`` (``i != j`` when ``ordered``) of ``k`` entries, and where each ``i``'s pairs open.

    One read-only ``(2, P)`` array, row-major in ``(i, j)``, so each row is
    a contiguous index vector for ``take``.
    """
    first, second = np.nonzero((np.not_equal if ordered else np.less).outer(np.arange(k), np.arange(k)))
    table = np.stack([first, second])
    table.flags.writeable = False
    return table, tuple(np.searchsorted(first, np.arange(k + 1)).tolist())


def _pairs(k: int, ordered: bool = False) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`_pair_table`, kept in its cache only up to ``_CACHED_PAIR_SYMBOLS`` entries."""
    return (_pair_table if k <= _CACHED_PAIR_SYMBOLS else _pair_table.__wrapped__)(k, ordered)


def _outcome_pairs(d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Alice's pairs ``a0 < a1`` and Bob's pairs ``b0 != b1``, as :func:`_pairs` arrays.

    The outcome pairs are their product, Alice's pair major.  Callers hold
    several arrays of the product's length at once, so more than
    ``_MAX_OUTCOME_PAIRS`` pairs are refused rather than allocated.  When
    either alphabet has no pair, both tables are empty and nothing is built.
    """
    count = d_a * (d_a - 1) // 2 * d_b * (d_b - 1)
    if count > _MAX_OUTCOME_PAIRS:
        raise TooLargeError(f"{d_a} x {d_b} alphabets have {count} outcome pairs, above {_MAX_OUTCOME_PAIRS}")
    if count == 0:
        d_a = d_b = 0
    return _pairs(d_a)[0], _pairs(d_b, ordered=True)[0]


def _cross_ratios(table: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Cross ratios ``P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)``, a grid of Alice's pairs by Bob's.

    Pairs are columns, as :func:`_outcome_pairs` gives them.  A structural
    zero denominator, or a ratio past the float maximum, gives ``inf``.  Where
    the table over its largest entry, a product or the quotient rounds below
    the normal floats, the grid is read from the table's mantissas and exponents.
    """

    def grid(cells: np.ndarray, product) -> tuple[np.ndarray, np.ndarray]:
        c = cells.take(alice, axis=0).take(bob, axis=2)  # c[s, :, t] = cells[alice[s]][:, bob[t]]
        return product(c[0, :, 1], c[1, :, 0]), product(c[0, :, 0], c[1, :, 1])

    quotient = lambda num, den: np.divide(num, den, out=np.full(den.shape, math.inf), where=den > 0.0)
    try:
        with np.errstate(over="ignore", under="raise"):
            return quotient(*grid(table / table.max(), np.multiply))
    except FloatingPointError:
        mantissa, exponent = np.frexp(table)
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(quotient(*grid(mantissa, np.multiply)), np.subtract(*grid(exponent, np.add)))


def _least_cross_ratio(table: np.ndarray) -> tuple[float, Optional[tuple[int, int, int, int]]]:
    """Least cross ratio and its first pair in :func:`_outcome_pairs` order; ``(inf, None)`` with no pair."""
    alice, bob = _outcome_pairs(*table.shape)
    ratio = _cross_ratios(table, alice, bob)
    if not ratio.size:
        return math.inf, None
    i, j = divmod(int(ratio.argmin()), ratio.shape[1])
    return float(ratio[i, j]), (int(alice[0, i]), int(alice[1, i]), int(bob[0, j]), int(bob[1, j]))


def mesbf_decoupled(p_ab: BipartiteDistribution) -> MeasureResult:
    """Exact MESBF when Eve is decoupled, any alphabet sizes.

    Maximizes over ordered outcome pairs ``a0 < a1``, ``b0 != b1`` (both
    orders of ``b``; the expression is invariant under swapping both
    pairs at once): 1/2 when both cell products vanish, otherwise
    ``1 / (1 + sqrt(P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)))``.  Discarding
    everything and tossing coins always achieves 1/2, the floor, which a
    pair must beat strictly.  Raises :class:`TooLargeError` beyond 2^20 pairs.
    """
    omega_min, pair = _least_cross_ratio(p_ab.table)
    value = 1.0 / (1.0 + math.sqrt(omega_min))
    if not value > 0.5:
        coins = (Filtration.coin_toss(p_ab.dims[0]), Filtration.coin_toss(p_ab.dims[1]))
        return MeasureResult(0.5, coins, "exact", {"branch": "coin-toss", "pair": None})
    # Keep only outcomes a0, a1 and b0, b1; where a scaled cell rounds to zero, the weights refuse phi.
    a0, a1, b0, b1 = pair
    m = p_ab.table / p_ab.table.max()
    phi = float(m[a0, b0]) / float(m[a1, b1]) if m[a1, b1] else math.inf
    build = lambda q: _two_outcome_pair(m.shape, (a0, a1), (b0, b1), (1.0, q), (1.0, phi / q))
    witness, kind, family = _balanced_witness(build, phi, float(m[a0, b1]), float(m[a1, b0]))
    detail = {"branch": "cross-ratio", "pair": pair, "omega": omega_min}
    return MeasureResult(value, witness, kind, detail, family)


def mesbf_decoupled_power(p_ab: BipartiteDistribution, copies: int) -> MeasureResult:
    """MESBF of ``copies`` independent samples of a decoupled distribution.

    The optimal outcome pair of a single copy repeats across copies, so
    the N-copy value is ``1 / (1 + omega_min^(N/2))`` with ``omega_min``
    the minimal cross ratio of one copy (1/2 floor as before); no tensor
    power is ever materialized.
    """
    copies = _require_count(copies, "copies")
    omega_min, pair = _least_cross_ratio(p_ab.table)
    if not omega_min < math.inf:
        return MeasureResult(0.5, None, "none", {"copies": copies, "omega_min": None, "pair": None})
    detail = {"copies": copies, "omega_min": omega_min, "pair": pair}
    return MeasureResult(max(0.5, 1.0 / (1.0 + omega_min ** (copies / 2.0))), None, "none", detail)


def omega(p_ab: BipartiteDistribution, a0: int, a1: int, b0: int, b1: int) -> float:
    """Cross ratio ``P(a0,b1) P(a1,b0) / (P(a0,b0) P(a1,b1))``.

    ``inf`` when only the denominator vanishes, ``nan`` when both products
    vanish (the undefined, coin-toss case); a product vanishes at a zero
    cell, never by underflow.  A non-integer index, a boolean too, is out of range.
    """
    d_a, d_b = p_ab.dims
    for idx, bound in ((a0, d_a), (a1, d_a), (b0, d_b), (b1, d_b)):
        if not _is_integer(idx) or not 0 <= idx < bound:
            raise IndexOutOfRangeError(f"index {idx} outside alphabet of size {bound}")
    if a0 == a1 or b0 == b1:
        raise InvalidParamsError("outcome pairs must be distinct")
    ratio = float(_cross_ratios(p_ab.table, np.array([[a0], [a1]]), np.array([[b0], [b1]]))[0, 0])
    return math.nan if ratio == math.inf and not min(p_ab.table[a0, b1], p_ab.table[a1, b0]) > 0.0 else ratio


def vartheta(p_ab: BipartiteDistribution) -> float:
    """The decoupled-MESBF maximization on an arbitrary nonnegative matrix.

    Defined for any shape, including enlarged-space matrices whose first
    two rows and columns need not be zero; scale invariant.  Coincident
    index pairs always realize exactly 1/2, hence the floor.
    """
    return max(0.5, 1.0 / (1.0 + math.sqrt(_least_cross_ratio(p_ab.table)[0])))
