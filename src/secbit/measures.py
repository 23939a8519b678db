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
nearest power of two, which is exact), so no sum or product underflows or
overflows.  The decoupled measures share one cross-ratio kernel over all
outcome pairs, and the three exact-or-limiting witnesses share one
balancing rule.  Everything here needs numpy only: the linear-programming
oracle runs a small in-house simplex (:func:`_lp_max`).
"""

from __future__ import annotations

import functools
import math
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

# Most outcome pairs a cross-ratio scan takes on.  The scan holds the two
# pair tables, four gathered cells per pair and three float arrays of the
# pair count: about 77 MB at the worst shape, 2 x 1024.  32 x 32 alphabets
# have about half as many pairs.  The largest pair table that passes this
# cap is Bob's at 1024 symbols, about 1M ordered pairs or 16 MB; it is
# built for its call and dropped.  Only tables of at most
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


def _diag_pair(q: float, phi: float) -> WitnessPair:
    d_a = Filtration.diagonal([1.0, q]).as_proper()
    j_b = Filtration.diagonal([1.0, phi / q]).as_proper()
    return d_a, j_b


def _anti_pair(s: float, psi: float) -> WitnessPair:
    d_a = Filtration(np.array([[0.0, s], [1.0, 0.0]])).as_proper()
    j_b = Filtration.diagonal([psi / s, 1.0]).as_proper()
    return d_a, j_b


def _balanced_witness(
    build: Callable[[float], WitnessPair], ratio: float, cell0: float, cell1: float
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """The witness ``build(q)`` whose free weight ``q`` balances two cells.

    ``build(q)`` keeps two cells at ``ratio`` to each other and weights the
    two balancing cells ``cell0`` and ``cell1`` against each other by
    ``q``; the optimum sits at ``q = sqrt(ratio * cell0 / cell1)``.  When
    exactly one balancing cell is structurally zero the optimum is only
    approached as ``q`` degenerates, giving a limiting family.
    """
    if cell0 > 0.0 and cell1 > 0.0:
        return build(math.sqrt(ratio * cell0 / cell1)), "exact", None
    if cell0 == 0.0 and cell1 == 0.0:
        return build(1.0), "exact", None
    if cell1 == 0.0:
        family: WitnessFamily = lambda delta: build(1.0 / delta)
    else:
        family = build
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
    ratios = np.divide(s[:, 0, 0], s[:, 1, 1], out=np.ones(live.shape), where=live)
    num = 2.0 * np.minimum(s[:, 0, 0, None, :], ratios[:, :, None] * s[:, 1, 1, None, :]).sum(axis=2)
    cross = np.sqrt(ratios * m[:, 0, 1, None] * m[:, 1, 0, None])
    den = m[:, 0, 0, None] + ratios * m[:, 1, 1, None] + 2.0 * cross
    values = np.divide(num, den, out=np.full(live.shape, -1.0), where=live)
    # Row-major argmax: the diagonal branch wins ties, then the lower symbol.
    b, e = divmod(int(values.argmax()), live.shape[1])
    if not live[b, e]:
        return MeasureResult(0.0, None, "none", {"branch": None})
    ratio = float(ratios[b, e])
    witness_at = (_diag_pair, _anti_pair)[b]
    witness, kind, family = _balanced_witness(lambda q: witness_at(q, ratio), ratio, m[b, 0, 1], m[b, 1, 0])
    detail = {"branch": ("diagonal", "antidiagonal")[b], "eve_symbol": e, "ratio": ratio}
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


def _cross_ratios(table: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Cross ratio of every outcome pair, flat, with the pairs' two tables.

    ``P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)`` on the table divided by its
    largest entry, for the pairs of :func:`_outcome_pairs` in their order.
    A zero denominator is a structural zero and gives ``inf``, so the pair
    never beats the 1/2 floor.
    """
    m = table / table.max()
    alice, bob = pairs = _outcome_pairs(*m.shape)
    cells = m.take(alice, axis=0).take(bob, axis=2)  # cells[s, :, t] = m[alice[s]][:, bob[t]]
    den = cells[0, :, 0] * cells[1, :, 1]
    ratio = np.divide(cells[0, :, 1] * cells[1, :, 0], den, out=np.full(den.shape, math.inf), where=den > 0.0)
    return ratio.ravel(), pairs


def _pair_at(pairs: tuple[np.ndarray, np.ndarray], k: int) -> tuple[int, int, int, int]:
    """Outcome pair ``(a0, a1, b0, b1)`` at flat index ``k`` of :func:`_cross_ratios`."""
    alice, bob = pairs
    i, j = divmod(k, bob.shape[1])
    return int(alice[0, i]), int(alice[1, i]), int(bob[0, j]), int(bob[1, j])


def _selecting_witness(
    table: np.ndarray, pair: tuple[int, int, int, int]
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """Filters keeping only outcomes ``a0, a1`` / ``b0, b1`` with tuned weights."""
    m = table / table.max()
    a0, a1, b0, b1 = pair
    phi = float(m[a0, b0]) / float(m[a1, b1])
    d_a, d_b = m.shape

    def build(q: float) -> WitnessPair:
        left = np.zeros((2, d_a))
        right = np.zeros((2, d_b))
        left[0, a0] = 1.0
        left[1, a1] = q
        right[0, b0] = 1.0
        right[1, b1] = phi / q
        # Scaled as ``as_proper`` scales them, with one construction each.
        return Filtration(left / left.sum(axis=0).max()), Filtration(right / right.sum(axis=0).max())

    return _balanced_witness(build, phi, float(m[a0, b1]), float(m[a1, b0]))


def mesbf_decoupled(p_ab: BipartiteDistribution) -> MeasureResult:
    """Exact MESBF when Eve is decoupled, any alphabet sizes.

    Maximizes over ordered outcome pairs ``a0 < a1``, ``b0 != b1`` (both
    orders of ``b``; the expression is invariant under swapping both
    pairs at once): 1/2 when both cell products vanish, otherwise
    ``1 / (1 + sqrt(P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)))``.  Discarding
    everything and tossing coins always achieves 1/2, which is therefore
    the floor.  Raises :class:`TooLargeError` beyond 2^20 outcome pairs.
    """
    ratio, pairs = _cross_ratios(p_ab.table)
    # The floor comes first, so a pair must beat it strictly; ties keep
    # the first pair in loop order.
    values = np.append(0.5, 1.0 / (1.0 + np.sqrt(ratio)))
    k = int(values.argmax())
    if k == 0:
        coins = (Filtration.coin_toss(p_ab.dims[0]), Filtration.coin_toss(p_ab.dims[1]))
        return MeasureResult(0.5, coins, "exact", {"branch": "coin-toss", "pair": None})
    best_pair = _pair_at(pairs, k - 1)
    witness, kind, family = _selecting_witness(p_ab.table, best_pair)
    detail = {"branch": "cross-ratio", "pair": best_pair, "omega": float(ratio[k - 1])}
    return MeasureResult(float(values[k]), witness, kind, detail, family)


def mesbf_decoupled_power(p_ab: BipartiteDistribution, copies: int) -> MeasureResult:
    """MESBF of ``copies`` independent samples of a decoupled distribution.

    The optimal outcome pair of a single copy repeats across copies, so
    the N-copy value is ``1 / (1 + omega_min^(N/2))`` with ``omega_min``
    the minimal cross ratio of one copy (1/2 floor as before); no tensor
    power is ever materialized.
    """
    copies = _require_count(copies, "copies")
    ratio, pairs = _cross_ratios(p_ab.table)
    if not ratio.min(initial=math.inf) < math.inf:
        return MeasureResult(0.5, None, "none", {"copies": copies, "omega_min": None, "pair": None})
    k = int(ratio.argmin())
    omega_min = float(ratio[k])
    detail = {"copies": copies, "omega_min": omega_min, "pair": _pair_at(pairs, k)}
    return MeasureResult(max(0.5, 1.0 / (1.0 + omega_min ** (copies / 2.0))), None, "none", detail)


def omega(
    p_ab: BipartiteDistribution, a0: int, a1: int, b0: int, b1: int
) -> float:
    """Cross ratio ``P(a0,b1) P(a1,b0) / (P(a0,b0) P(a1,b1))``.

    Returns ``inf`` when only the denominator vanishes and ``nan`` when
    both products vanish (the undefined, coin-toss case).  An index that
    is not an integer, a boolean included, is out of range.
    """
    d_a, d_b = p_ab.dims
    for idx, bound in ((a0, d_a), (a1, d_a), (b0, d_b), (b1, d_b)):
        if not _is_integer(idx) or not 0 <= idx < bound:
            raise IndexOutOfRangeError(f"index {idx} outside alphabet of size {bound}")
    if a0 == a1 or b0 == b1:
        raise InvalidParamsError("outcome pairs must be distinct")
    m = p_ab.table / p_ab.table.max()
    num = float(m[a0, b1] * m[a1, b0])
    den = float(m[a0, b0] * m[a1, b1])
    if den > 0.0:
        return num / den
    return math.inf if num > 0.0 else math.nan


def vartheta(p_ab: BipartiteDistribution) -> float:
    """The decoupled-MESBF maximization on an arbitrary nonnegative matrix.

    Defined for any shape, including enlarged-space matrices whose first
    two rows and columns need not be zero; scale invariant.  Coincident
    index pairs always realize exactly 1/2, hence the floor.
    """
    ratio, _ = _cross_ratios(p_ab.table)
    return max(0.5, 1.0 / (1.0 + math.sqrt(ratio.min(initial=math.inf))))
