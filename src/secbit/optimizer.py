"""Numerical lower bounds on the extractable secret-bit fraction.

No closed form exists for the maximal extractable secret-bit fraction of
a general coupled distribution, so this module searches the space of
bit-output filter pairs directly.  Two searches are provided:

* :func:`estimate_mesbf` — multi-start coordinate-wise multiplicative
  hill climbing.  The objective contains min() kinks, so the search is
  gradient free; non-concavity is addressed by restarts plus a fixed set
  of deterministic baseline starts.  Deterministic given the seed.
* :func:`brute_force_mesbf` — a slow grid oracle for small instances: an
  exhaustive joint scan of coarse filter pairs for both parties (the grid
  family automatically covers row-swapped variants; one best-first pass
  scores only the cells that a harmonic-mean bound cannot rule out),
  funneled into coordinate-wise sweeps over shrinking per-entry grids; the
  best polished pair of a ranking stage is reported when it certifies
  strictly higher than the final one.  Intended only as a cross-check; a
  lower bound whose gap shrinks with the grid resolution.

Both searches are one funnel (:func:`_funnel`): a seed list, a stage
table and a certify step.  Each stage polishes every candidate, ranks
them, keeps the leaders (which go on from their polished pair or, in a
ranking stage, restart from their seed) and adds one entry to
``detail["trace"]``.  A polish tries its moves in a fixed order and keeps
each one that improves, as a one-at-a-time hill climber would.  A stage
runs its polishes in lockstep (:func:`_coordinate_polish`), at the stage's
grid size and spans, as many at once as fit a memory bound
(:func:`_lane_count`).  Each polish's batch window is a column of one
integer lane table, so each step builds the candidates of all polishes,
scores them with one call of the candidate-major kernel
:func:`_lambda_raw` (one einsum for every shape), finds every polish's
acceptances with one segmented scan and advances every window with a few
whole-table operations.  A pass's opening score is one more row of its
first sweep batch, and an accepting sweep ends at the first maximum of
its window; Python visits a polish only when one of its move families
runs out, to set up the next.  A row's score does not depend on the
other rows of its call, so every reported value and witness follows the
trajectory of the one-at-a-time climber.

Every value reported by either search is recomputed through the measures
pipeline for the reported witness, so results are certified lower bounds.
Both searches work on the table rescaled by a power of two
(:func:`_unit_scaled`), which is exact for normal tables and keeps
subnormal and near-overflow ones finite and exact in their sums.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Generator, Sequence
from itertools import product
from dataclasses import dataclass

import numpy as np

from .distributions import TripartiteDistribution, _require_count, _unit_scaled, randomization_example
from .errors import DimensionMismatchError, InvalidParamsError, TooLargeError, ZeroMassError
from .filtration import Filtration, apply, is_reversible
from .measures import MeasureResult, _outcome_pairs, _pairs, mesbf_reversible, secret_bit_fraction

DEFAULT_SEED = 1729

# Cells that the temporaries of one step may hold: a joint-scan group, a
# polish step's candidates, the polish lanes' state.  The joint scan's pair
# bounds and row values are built a quarter of it at a time.  It bounds
# memory only; no joint-scan result depends on it.
_CHUNK = 1 << 17
# Relative slack of the joint scan's cell bound: the rounding of the scan's
# sums and of the bound, and the gap between pair values and their masses.
_BOUND_MARGIN = 1e-9
# Cells of Eve-resolved pair values that one joint scan may hold (8 MB).
_SCAN_CELLS = 1 << 20
# Cells that estimate_mesbf's start pool may hold (64 MB): a start keeps
# its filter pair twice (as drawn and clipped), 4 (d_a + d_b) entries, and
# about 128 cells of array, tuple and name overhead (tracemalloc: 1.05 KB
# a 2x2 start, 1.84 KB a 16x16 one).  The default 16x16 pool, 28 866
# starts, counts 7.4M cells and peaks at 53 MB.
_POOL_CELLS = 1 << 23
# Fewest moves scored by the polish's first batch after an acceptance;
# batches double while nothing is accepted.  Acceptances come in runs, so a
# small first batch wastes little scoring on moves that must be rebuilt.
_BASE_BATCH = 16
# Moves that the first batches of one lockstep step share: with ``live``
# lanes a first batch has ``max(_BASE_BATCH, _STEP_MOVES // live)`` moves.
# A step with few lanes costs about the same up to a few hundred rows, so
# wider first batches there save steps.  A one-lane fine polish of a 2x2x1
# table at 40 points takes 129 steps of 160 us instead of 324 of 137 us
# (2 vCPUs); the benchmark's searches of seeds 1-2 make 22-28% fewer
# kernel calls (10 301 -> 7 405 and 18 943 -> 14 828) for 4-28% more rows.
_STEP_MOVES = 256


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the two searches; all randomness flows from ``seed``.

    :func:`estimate_mesbf` reads ``restarts`` (random starts), ``iterations``
    (evaluations per start in the capped stage), ``seed`` and
    ``entry_floor``.  :func:`brute_force_mesbf` reads ``grid_points``
    (sweep values per entry, at most 6 and 12 in its ranking stages) and
    ``entry_floor``.
    """

    restarts: int = 64
    iterations: int = 2000
    seed: int = DEFAULT_SEED
    entry_floor: float = 1e-9
    grid_points: int = 12

    def __post_init__(self) -> None:
        for name, minimum in (("restarts", 1), ("iterations", 1), ("seed", 0), ("grid_points", 2)):
            object.__setattr__(self, name, _require_count(getattr(self, name), name, minimum))
        if not 0.0 < self.entry_floor < 1.0:
            raise InvalidParamsError(f"entry_floor must lie strictly between 0 and 1, got {self.entry_floor}")


def _lambda_raw(cands: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Secret-bit fractions after filtering, one per row of flattened filter pairs.

    Row ``c`` of ``cands`` is Alice's ``2 x d_a`` filter followed by Bob's
    ``2 x d_b`` filter, both raveled; zero-mass rows score 0.

    A row's score does not depend on the other rows of the call, bit for
    bit: the polish scores many candidates per call and must follow the
    trajectory of scoring them one at a time.  The candidate axis is
    innermost throughout.  One einsum filters every row, and the total over
    the ``4 d_e`` filtered cells and the sum over ``d_e`` of ``min(F00,
    F11)`` add each row's values left to right: numpy sums the leading axis
    of a C-contiguous array of two or more columns one row after another.
    numpy drops a candidate axis of length one, and its einsum then adds
    some shapes' products in another order (``d_a = 2`` and ``d_e = 1``),
    so a one-row call scores its row twice.
    """
    d_a, d_b, d_e = table.shape
    rows = len(cands)
    cols = np.repeat(cands.T, 2, axis=1) if rows == 1 else np.ascontiguousarray(cands.T)
    c = cols.shape[1]
    alice = cols[: 2 * d_a].reshape(2, d_a, c)
    bob = cols[2 * d_a :].reshape(2, d_b, c)
    cells = np.einsum("iac,jbc,abe->ijec", alice, bob, table).reshape(4 * d_e, c)
    num = 2.0 * np.minimum(cells[:d_e], cells[3 * d_e :]).sum(axis=0)
    total = cells.sum(axis=0)
    return np.divide(num, total, out=np.zeros(c), where=total > 0.0)[:rows]


def _certified_lambda(d_a: np.ndarray, j_b: np.ndarray, p: TripartiteDistribution) -> float:
    """Recompute through the real pipeline; the value actually reported."""
    return secret_bit_fraction(apply(Filtration(d_a), Filtration(j_b), p))


def _identity_projection(d: int) -> np.ndarray:
    proj = np.zeros((2, d))
    proj[0, 0] = 1.0
    proj[1, min(1, d - 1)] = 1.0
    return proj


def estimate_mesbf(
    p: TripartiteDistribution,
    cfg: SearchConfig | None = None,
    extra_starts: tuple[tuple[Filtration, Filtration], ...] = (),
) -> MeasureResult:
    """Multi-start search for the best bit-output filter pair.

    Every start — the unbiased coin-toss pair (secret-bit fraction
    exactly 1/2), an identity-like projection, the sparse selecting
    projections, any ``extra_starts``, and ``cfg.restarts`` log-uniform
    random samples — is refined by capped coordinate-wise multiplicative
    hill climbing (``cfg.iterations`` objective evaluations per start);
    the leaders then get uncapped fine refinement.  The reported value
    is the secret-bit fraction of the reported witness recomputed
    through the measures pipeline, hence a certified lower bound.  It
    never falls below the coin-toss baseline: below 1/2 it reports 1/2 and
    the coin-toss pair.  Identical seeds and configs give identical
    results bit for bit.

    ``extra_starts`` lets callers seed the search with known-good pairs,
    e.g. witnesses for a preprocessed distribution composed with the
    preprocessing step.  A start pool past ``_POOL_CELLS`` (2^23 cells,
    counting each start's entries twice plus 128 cells of overhead; the
    default settings at 16x16 fit) raises :class:`TooLargeError` before
    any start is built.  The search and its certification run on ``p``
    rescaled by the power of two that puts its largest entry in [1/2, 1)
    (:func:`_unit_scaled`): exact for a normal table, and it keeps
    subnormal and near-overflow tables from losing bits or overflowing.
    """
    cfg = cfg or SearchConfig()
    d_a, d_b, _ = p.dims
    p = _unit_scaled(p)
    table = p.table
    floor = cfg.entry_floor
    log_floor = math.log(floor)
    selecting = d_a * (d_a - 1) // 2 * d_b * (d_b - 1) * len(_seed_weights(d_a, d_b))
    count = 2 + selecting + len(extra_starts) + cfg.restarts
    if count * (4 * (d_a + d_b) + 128) > _POOL_CELLS:
        raise TooLargeError(
            f"{count} starts of {d_a} x {d_b} filter pairs exceed the start pool's {_POOL_CELLS} cells"
        )

    starts: list[tuple[str, np.ndarray, np.ndarray]] = [
        ("coin-toss", np.full((2, d_a), 0.5), np.full((2, d_b), 0.5)),
        ("identity-projection", _identity_projection(d_a), _identity_projection(d_b)),
    ]
    for idx, (_, m_a, m_b) in enumerate(_selecting_seeds(d_a, d_b, floor)):
        starts.append((f"projection-{idx}", m_a, m_b))
    for k, (left, right) in enumerate(extra_starts):
        if left.matrix.shape != (2, d_a) or right.matrix.shape != (2, d_b):
            raise DimensionMismatchError(
                f"extra start {k} has filters of shape {left.matrix.shape} and "
                f"{right.matrix.shape}, expected (2, {d_a}) and (2, {d_b})"
            )
        starts.append((f"seeded-{k}", left.matrix, right.matrix))
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        sample = np.exp(rng.uniform(log_floor, 0.0, size=2 * (d_a + d_b)))
        starts.append((f"restart-{r}", sample[: 2 * d_a].reshape(2, d_a), sample[2 * d_a :].reshape(2, d_b)))

    pool = [(0.0, np.clip(m_a, floor, 1.0), np.clip(m_b, floor, 1.0), source) for source, m_a, m_b in starts]
    # Capped cheap polish of every start, fine polish of the top 5, then of the best.
    fine = (24, _FINE_SPANS, None, 1, math.inf, False)
    stages = [(8, _CHEAP_SPANS, cfg.iterations, 5, math.inf, False), fine, fine]
    [(_, m_a, m_b, source)], _, trace = _funnel(table, pool, stages, floor)

    snapped_a, snapped_b = m_a.copy(), m_b.copy()
    snapped_a[snapped_a < 10.0 * floor] = 0.0
    snapped_b[snapped_b < 10.0 * floor] = 0.0
    try:
        keep_snapped = _certified_lambda(snapped_a, snapped_b, p) >= _certified_lambda(m_a, m_b, p) - 1e-12
    except ZeroMassError:
        keep_snapped = False
    if keep_snapped:
        m_a, m_b = snapped_a, snapped_b

    witness = (Filtration(m_a).as_proper(), Filtration(m_b).as_proper())
    value = _certified_lambda(witness[0].matrix, witness[1].matrix, p)
    if value < 0.5:  # the coin-toss pair itself can certify an ulp below 1/2
        witness, value, source = (Filtration.coin_toss(d_a), Filtration.coin_toss(d_b)), 0.5, "coin-toss"
    return MeasureResult(value, witness, "exact", {"source": source, "trace": trace})


def _joint_scan(
    table: np.ndarray, coarse: np.ndarray, floor: float, top_k: int
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Exhaustive scan of coarse filter pairs for both parties jointly.

    The secret-bit fraction after filtering depends on the two parties'
    row-0 pair and row-1 pair only, so all row pairs are contracted once
    against the table, and a cell joins a row-0 pair ``p = (i0, j0)`` with
    a row-1 pair ``q = (i1, j1)``.  Returns, over all cells, the first
    ``top_k`` with pairwise distinct support signatures, by descending
    value, then ``p``, then ``q``, so that later refinement explores
    genuinely different bases of attraction.  A cell's signature says
    which entries of its two filters are live (above ``10 * floor``); it
    is the smaller of the two orders of its row pairs (swapping both
    output bits leaves the objective unchanged), each read as one binary
    number: row 0 then row 1 of Alice's filter, then of Bob's.  More than
    ``_SCAN_CELLS`` pair values (``n_a n_b d_e``, ``n_a`` and ``n_b`` rows
    per party) raise :class:`TooLargeError` before any exists.

    One best-first pass gives that result, whatever ``_CHUNK``.  With
    masses ``M``, a cell is at most the harmonic mean ``H(rho0, sigma1)``
    of ``rho0 = M[i0,j0] / (M[i0,j0] + M[i1,j0])`` and ``sigma1 =
    M[i1,j1] / (M[i0,j1] + M[i1,j1])`` times ``1 + _BOUND_MARGIN``,
    whatever Eve's alphabet, when the guard :func:`_bounds_hold` passes;
    otherwise every bound is nan, which rules nothing out.  Alice pairs
    ``(i0, i1)`` open by descending bound ``H(max rho0, max sigma1)``
    (:func:`_pair_bounds`), in groups that double from one pair up to a
    quarter of ``_CHUNK`` cells.  A group scores each row ``j0`` whose
    bound ``H(rho0, max sigma1)`` reaches the level, the ``top_k``-th value
    kept so far (:func:`_row_values`), and merges the row's cells that
    reach it into the kept cells: one sort ranks them all, and each
    signature's first is kept, at most ``top_k`` of them.  The pass ends at
    a pair whose bound is below the level, as no later cell can then be
    kept.
    """
    d_a, d_b, d_e = table.shape
    rows_a, rows_b = (np.array(list(product(coarse, repeat=d))) for d in (d_a, d_b))
    (n_a, n_b), slack = (len(rows_a), len(rows_b)), 1.0 + _BOUND_MARGIN
    if n_a * n_b * d_e > _SCAN_CELLS:
        raise TooLargeError(f"joint scan of {n_a * n_b} row pairs over {d_e} Eve symbols exceeds {_SCAN_CELLS} cells")
    # Pair values, one row per Eve symbol; doubling is exact, so min(2x, 2y)
    # summed is twice the summed minimum.
    pair2 = np.einsum("ia,abe,jb->ije", rows_a, table, rows_b).reshape(n_a * n_b, d_e)
    pair2 = np.multiply(pair2.T, 2.0, order="C")
    mass = rows_a @ table.sum(axis=2) @ rows_b.T
    known = mass if _bounds_hold(pair2, mass) else np.full_like(mass, np.nan)
    bounds = _pair_bounds(known).reshape(-1)
    order = np.argsort(-bounds, kind="stable")
    # A cell's signature is min(high[p] | low[q], high[q] | low[p]).
    code_a, code_b = ((rows > 10.0 * floor) @ (1 << np.arange(rows.shape[1]))[::-1] for rows in (rows_a, rows_b))
    code_a, code_b = np.repeat(code_a, n_b), np.tile(code_b, n_a)
    high, low = (code_a << (d_a + 2 * d_b)) | (code_b << d_b), (code_a << (2 * d_b)) | code_b
    kept = [np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)]
    level, start, size = -math.inf, 0, 1
    # A pair, row or cell is passed over only when its bound or value is
    # surely below the level: a nan one never is.
    while start < len(order) and not bounds[order[start]] * slack < level:
        group = order[start : start + size]
        group = group[~(bounds[group] * slack < level)]
        start += size
        # Groups of a full _CHUNK scored some 4x4 and 3x3 tables at d_e = 4
        # up to 1.7 times slower: the level rises between smaller groups.
        size = min(2 * size, max(1, _CHUNK // (4 * n_b * n_b)))
        i0, i1 = np.divmod(group, n_a)
        head, tail = known[i0], known[i1]
        both = head + tail
        rho, sigma = head / both, tail / both
        k, j0 = np.nonzero(~(_harmonic(rho, sigma.max(axis=1, keepdims=True)) * slack < level))
        i0, i1 = i0[k], i1[k]
        values = _row_values(pair2, mass, i0, j0, i1)
        row, j1 = np.nonzero(~(values < level))
        if not len(row):
            continue
        new = (values[row, j1], i0[row] * n_b + j0[row], i1[row] * n_b + j1)
        values, p, q = (np.concatenate(columns) for columns in zip(kept, new))
        ranked = np.lexsort((q, p, -values))
        signatures = np.minimum(high[p] | low[q], high[q] | low[p])[ranked]
        picked = ranked[np.sort(np.unique(signatures, return_index=True)[1])[:top_k]]
        kept = [column[picked] for column in (values, p, q)]
        if len(picked) == top_k:
            level = kept[0][-1]
    return [(value, rows_a[[p // n_b, q // n_b]], rows_b[[p % n_b, q % n_b]])
            for value, p, q in zip(*(column.tolist() for column in kept))]


def _bounds_hold(pair2: np.ndarray, mass: np.ndarray) -> bool:
    """Whether every cell is within ``1 + _BOUND_MARGIN`` of its bound ``H(rho0, sigma1)``.

    It is when every mass is positive and finite and the pair values sum to
    their masses within the margin, less the rounding of the scan's own sums.
    """
    d_e = len(pair2)
    flat = mass.reshape(-1)
    with np.errstate(over="ignore"):
        if not (flat.min() > 0.0 and np.isfinite(4.0 * flat.max()) and np.isfinite(pair2).all()):
            return False
        # A cell exceeds its bound by at most this gap plus the rounding of
        # its d_e-term sum (left to right: at most (d_e - 1) eps / 2, as for
        # the gap's own sum), its denominator, its quotient and the bound.
        gap = np.max(np.abs(pair2.sum(axis=0) - 2.0 * flat) / (2.0 * flat))
    return bool(gap + 4 * (d_e + 8) * np.finfo(float).eps <= _BOUND_MARGIN)


def _harmonic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``2xy / (x + y)`` as ``2 / (1/x + 1/y)``: each step rounds monotonically, so it never decreases in ``x`` or ``y``."""
    return 2.0 / (1.0 / x + 1.0 / y)


def _pair_bounds(mass: np.ndarray) -> np.ndarray:
    """``H(max rho0, max sigma1)`` per Alice pair ``(i0, i1)``, at least every bound of its cells.

    ``rho0`` runs over ``j0`` and ``sigma1`` over ``j1``; ``sigma1`` of
    ``(i0, i1)`` is ``rho0`` of ``(i1, i0)``.  Built a quarter of ``_CHUNK``
    cells at a time.
    """
    n_a, n_b = mass.shape
    rho = np.empty((n_a, n_a))
    step = max(1, _CHUNK // 4 // (n_a * n_b))
    for s in range(0, n_a, step):
        head = mass[s : s + step, None]
        np.max(head / (head + mass), axis=2, out=rho[s : s + step])
    return _harmonic(rho, rho.T)


def _row_values(pair2: np.ndarray, mass: np.ndarray, i0: np.ndarray, j0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """Values ``(rows, n_b)`` of the cells joining each row-0 pair ``(i0, j0)`` with every row-1 pair ``(i1, j1)``.

    The minima of the doubled pair values are added over Eve's symbols left
    to right and divided by ``M[i0,j0] + M[i1,j1] + M[i0,j1] + M[i1,j0]``,
    added in that order; a zero-mass cell scores 0, as in :func:`_lambda_raw`.
    Temporaries hold at most ``max(_CHUNK // 4, d_e n_b)`` cells.
    """
    d_e, (n_a, n_b) = len(pair2), mass.shape
    pairs = pair2.reshape(d_e, n_a, n_b)
    values = np.zeros((len(i0), n_b))
    step = max(1, _CHUNK // 4 // (d_e * n_b))
    for s in range(0, len(i0), step):
        a, j, b = i0[s : s + step], j0[s : s + step], i1[s : s + step]
        num = np.minimum(pairs[:, a, j][:, :, None], pairs[:, b]).sum(axis=0)
        den = mass[a, j][:, None] + mass[b]
        den += mass[a]
        den += mass[b, j][:, None]
        np.divide(num, den, out=values[s : s + step], where=den > 0.0)
    return values


_MICRO_SPANS = (4.0,)
_CHEAP_SPANS = (10.0, 2.0, 1.3)
# No wide window here: finalists are already in the right basin, and wide
# sweeps tend to re-introduce spurious entries that lock the refinement.
_FINE_SPANS = (2.0, 1.2, 1.05, 1.01, 1.003, 1.001)


def _ladder(span: float, points: int) -> np.ndarray:
    """Factor pairs ``(f, 1/f)``, ``(f, f)`` per step ``f != 1`` of the span's log grid."""
    steps = _geomspace(1.0 / span, span, points)
    steps = steps[steps != 1.0]
    return np.stack([np.repeat(steps, 2), np.stack([1.0 / steps, steps], axis=1).ravel()], axis=1)


def _geomspace(low: np.ndarray | float, high: np.ndarray | float, points: int) -> np.ndarray:
    """Log grids between positive ends, one per entry of ``low`` and ``high`` (or scalars), points on axis 0.

    Each entry's grid is a scalar ``np.geomspace(low, high, points)`` call's,
    bit for bit: the step is zero only for equal ends, where both of numpy's
    formulas give the same grid.
    """
    log_low, y = np.log10(low), np.arange(points, dtype=float).reshape(-1, *[1] * np.ndim(low))
    if points > 1:
        y = y * ((np.log10(high) - log_low) / (points - 1))
    grid = np.power(10.0, y + log_low)
    grid[-1], grid[0] = high, low
    return grid


def _regauge(theta: np.ndarray, lanes: np.ndarray, n_a: int, floor: float) -> None:
    """Scale each filter of the lanes' pairs (columns of ``theta``) to peak entry one, no entry below the floor.

    All-zero filters stay.
    """
    block = theta[:, lanes]
    top = np.maximum.reduceat(block, [0, n_a], axis=0).repeat([n_a, len(block) - n_a], axis=0)
    scaled = top > 0.0
    np.divide(block, top, out=block, where=scaled)
    theta[:, lanes] = np.maximum(block, floor, out=block, where=scaled)


# Rows of the lane table of :func:`_coordinate_polish`, one column per lane.
# Families 1, 2 and 3 are single-entry, row-rescaling and pair moves
# (``width`` per entry, row pair or entry pair) and family 4 marks an idle
# lane.  The run's moves ``lo..end-1`` come in batches of ``size``; an
# acceptance uses up the rest of its ``group`` (the entry's sweep, else one
# move); ``evals`` counts toward ``limit``.  A pass opens with a family-1
# run whose first batch also scores the regauged pair, in a row after the
# moves.  A lane's generator yields its columns and is sent back ``evals``
# when the run ends.
_LANE_ROWS = ("lane", "family", "evals", "lo", "end", "width", "group", "size", "limit")
_UNCAPPED = 1 << 62


def _lane_count(jobs: int, n: int, d_e: int, points: int) -> int:
    """Lanes of :func:`_coordinate_polish`: all lane state fits ``_CHUNK`` cells, each first batch one kernel call.

    A lane holds its filter pair and score, its sweep grid, factor pairs,
    live entry pairs and its column of the lane table; one lane past
    ``_CHUNK`` cells raises :class:`TooLargeError` before anything exists.
    """
    state = n * (points + 3) + 2 * (2 * points + 1) + n * (n - 1) + 1 + len(_LANE_ROWS)
    if state > _CHUNK:
        raise TooLargeError(f"one polish lane of {n} filter entries at {points} grid points exceeds {_CHUNK} cells")
    return min(jobs, _CHUNK // state, max(1, _CHUNK // (_BASE_BATCH * (n + 4 * d_e))))


def _coordinate_polish(
    table: np.ndarray,
    jobs: Sequence[tuple[np.ndarray, np.ndarray, int | None]],
    points: int,
    spans: tuple[float, ...],
    floor: float,
) -> list[tuple[float, np.ndarray, np.ndarray, int]]:
    """Local grid refinement of every ``(d_a_mat, j_b, max_evals)`` job, all at ``points`` and ``spans``.

    Each span opens a window; each pass tries three move families in a
    fixed order, keeping every move that improves: single entries swept
    over a local log grid of ``points`` values (each entry's own, see
    :func:`_geomspace`; plus the floor, so entries can switch off, and 1.0,
    so dead entries can revive), whole rows of one matrix rescaled against
    rows of the other, and coordinated entry pairs, switched off jointly
    or moved by a factor and its inverse or by the same factor.
    The pair moves matter: the objective has ridges along which the two
    diagonal products must stay balanced, and no single-entry move can
    follow them.  A span's second pass runs only if its first moved.
    ``max_evals`` is checked before each entry, row pair and pair-move
    anchor.  Each matrix is re-gauged to peak entry one before every pass
    and at the end (the objective is scale invariant per matrix),
    otherwise the scale drifts toward the floor and the windows lose
    resolution.  Moves are scored in batches, with the trajectory and the
    evaluation count of trying them one at a time.

    The polishes run in lockstep, each in a lane: as many at once as keep
    all lane state within ``_CHUNK`` cells and each first batch within one
    kernel call (:func:`_lane_count`).  A lane's batch window is a column
    of one integer lane table (rows ``_LANE_ROWS``), kept in family order.
    Each step builds the candidates of all lanes (one edit per move, then
    the regauged pair of each lane whose pass opens), scores them with one
    :func:`_lambda_raw` call and finds every lane's first acceptance with
    one segmented scan.  An opening lane's score row is its pass's start
    score and the base of its first sweep batch, so a pass costs no step
    of its own.  Every move of a sweep sets the same entry, so after its
    first acceptance a lane holds the value of its latest record, a strict
    rise of the window's running maximum.  One record pass over a block of
    the accepting windows ends each sweep at its last record, the window's
    first maximum.  A move that equals the lane's current entry is no
    evaluation: before the first acceptance the entry the lane holds,
    after it the latest record's, read off the same pass.
    Whole-table operations advance every window: a batch has ``min(size,
    cap, room)`` moves, and sizes double up to ``cap`` until an
    acceptance.  A row's score does not depend on the rest of its call, so
    a move that repeats the lane's current pair scores exactly its best
    value.

    Each lane's schedule is one generator, written as the one-at-a-time
    climber's loops: jobs from a shared queue, spans, at most two passes
    of a sweep, a rescale and a pair run, each run started only while the
    budget lasts.  It yields each run's column and is sent the lane's
    evaluations when the run ends, so Python touches a lane only then: to
    set up the next run (the live entry pairs before the pair moves, the
    next span's factor ladder, built once per call), or to store the job's
    pair and evaluations and take the next job.  The lanes whose pass
    opens in a step are then regauged and swept together, with no
    per-lane Python.  Once a budget is spent, the window ends with its
    open group.  After the last step every stored pair is regauged and
    scored, as the climber ends a job, in calls of at most ``_CHUNK``
    cells.

    A step costs about the same up to a few hundred rows, so the first
    batch of a family run, and the first after an acceptance, has
    ``max(_BASE_BATCH, _STEP_MOVES // live)`` moves, ``live`` being the
    lanes of the step before: few live lanes take fewer, wider steps.
    Batches are capped so that one call holds at most ``_CHUNK`` cells of
    candidates and filtered tables, besides one score row per opening
    lane.  Budgets are per lane; the grid size and spans are the call's.
    Results ``(value, d_a_mat, j_b, evals)`` come in input order; ``evals``
    is the count that ``max_evals`` caps.
    """
    d_a, d_b, d_e = table.shape
    n_a, n, sweep = 2 * d_a, 2 * (d_a + d_b), points + 2
    lanes = _lane_count(len(jobs), n, d_e, points)
    cap = max(1, _CHUNK // (lanes * (n + 4 * d_e)))
    capped = any(job[2] is not None for job in jobs)
    # Filter pairs are columns of ``theta``, the kernel's entry-major layout.
    theta, best, start = np.empty((n, lanes)), np.empty(lanes), np.empty(lanes)
    grid, factors = np.empty((lanes, n, sweep)), np.empty((lanes, 2 * points + 1, 2))
    pairs = np.empty((lanes, n * (n - 1) // 2, 2), dtype=np.intp)
    # Each lane's span, read by the pass set-up of all opening lanes at once.
    span_of = np.empty(lanes)
    # Row pair 2a + b scales row a of Alice's filter by f_i and row b of Bob's by f_j.
    rescaled = np.array([[*range(d_a * a, d_a * a + d_a), *range(n_a + d_b * b, n_a + d_b * b + d_b)]
                         for a in (0, 1) for b in (0, 1)])
    side = np.repeat([0, 1], [d_a, d_b])
    # Flat views for one ``take`` per gather: row ``lane * stride + index``.
    grid_at, factors_at, pairs_at = grid.reshape(-1), factors.reshape(-1, 2), pairs.reshape(-1, 2)
    grid_stride, factors_stride, pairs_stride = n * sweep, factors.shape[1], pairs.shape[1]
    # Each job's last pair and evaluations, regauged and scored after the loop.
    queue, finals, job_evals = enumerate(jobs), np.empty((n, len(jobs))), [0] * len(jobs)
    # Where each lane's live entry pairs of each first entry open.
    opens: list[tuple[int, ...]] = [()] * lanes
    ladders = [_ladder(span, points) for span in spans]
    # Sweeps end at the floor and 1.0; pair moves open with the factor 0,
    # which clips both entries to the floor.
    grid[:, :, points:] = floor, 1.0
    factors[:, 0] = 0.0

    def pair_up(s: int) -> int:
        """Set lane ``s``'s live entry pairs; returns their number."""
        live = np.flatnonzero(theta[:, s] > 10.0 * floor)
        cols, opens[s] = _pairs(len(live))
        pairs[s, : cols.shape[1]] = live[cols.T]
        return opens[s][-1]

    def runs(s: int) -> Generator[list[int], int, None]:
        """Lane ``s``'s runs as lane-table columns; each is sent the lane's evaluations when it ends.

        Started before the first step, whose visit sends it to its first job.
        """
        yield []
        for k, (m_a, m_b, max_evals) in queue:
            theta[:, s] = np.concatenate([m_a.ravel(), m_b.ravel()])
            # No lane can spend 2^62 evaluations, so a larger budget is none.
            limit, evals = _UNCAPPED if max_evals is None else min(max_evals, _UNCAPPED), 0
            for span, moves in zip(spans, ladders):
                if evals >= limit:
                    break
                # Pair moves by f and 1/f, then by f and f, after the joint
                # switch-off; rescalings skip it.
                count = len(moves) + 1
                span_of[s], factors[s, 1:count] = span, moves
                for _ in range(2):
                    evals = yield [s, 1, evals, 0, n * sweep, sweep, sweep, first, limit]
                    if evals < limit:
                        # Whole-row rescalings of one matrix against the other
                        # track the balance ridges exactly when rows are sparse.
                        evals = yield [s, 2, evals, 0, 4 * (count - 1), count - 1, 1, first, limit]
                    # Joint switch-off first: small entries can stabilize each
                    # other so that neither can be floored alone.
                    if evals < limit and pair_up(s):
                        evals = yield [s, 3, evals, 0, count * opens[s][-1], count, 1, first, limit]
                    # A pass that improved nothing ends its span.
                    if evals >= limit or not best[s] > start[s]:
                        break
            finals[:, k], job_evals[k] = theta[:, s], evals
        yield [s, 4, 0, 0, 0, 1, 1, 1, 0]

    def group_end(s: int, family: int, at: int, width: int) -> int | None:
        """End of the move group open at ``at``; None when ``at`` opens a group."""
        if family < 3:
            return None if at % width == 0 else at - at % width + width
        starts = [width * k for k in opens[s]]
        nxt = bisect.bisect_right(starts, at)
        return None if starts[nxt - 1] == at else starts[nxt]

    def advance(ended: np.ndarray) -> np.ndarray:
        """Visit every ended column; regauges the lanes whose pass opens, sweeps their entries and returns them."""
        opening = []
        for i in ended.tolist():
            s, _, evals = state[:3, i].tolist()
            state[:, i] = column = schedules[s].send(evals)
            if column[1] == 1:
                opening.append(s)
        opening = np.array(opening, dtype=np.intp)
        if len(opening):
            _regauge(theta, opening, n_a, floor)
            center = np.maximum(theta[:, opening].T, floor)
            ratio = span_of[opening][:, None]
            low, high = np.maximum(center / ratio, floor), np.minimum(center * ratio, 1.0)
            grid[opening, :, :points] = _geomspace(low, high, points).transpose(1, 2, 0)
        return opening

    schedules = [runs(s) for s in range(lanes)]
    for schedule in schedules:
        next(schedule)
    state = np.zeros((len(_LANE_ROWS), lanes), dtype=np.intp)
    state[0] = np.arange(lanes)
    lane, family, evals, lo, end, width, group, size, limit = state
    ended, first = lane.copy(), min(max(_BASE_BATCH, _STEP_MOVES // lanes), cap)
    families = np.arange(2, 5)

    def scale(columns: np.ndarray, entries: np.ndarray, f: np.ndarray) -> None:
        cells = entries * stride + columns[:, None]
        moved = flat.take(cells) * f
        flat[cells] = np.minimum(np.maximum(moved, floor, out=moved), 1.0, out=moved)

    while True:
        if len(ended):
            asking = advance(ended)
            # Columns go back in family order; one lane is always in order.
            if len(lane) > 1:
                state = state.take(np.argsort(family, kind="stable"), axis=1)
            s1, r1, live = np.searchsorted(state[1], families).tolist()
            if not live:
                break
            if len(lane) > 1:
                state = state[:, :live]
                lane, family, evals, lo, end, width, group, size, limit = state

        count = np.minimum(end - lo, size)
        if capped:
            np.minimum(count, limit - evals, out=count)
        offset = np.zeros(len(lane) + 1, dtype=np.intp)
        np.cumsum(count, out=offset[1:])
        heads = offset[:-1]
        b2, b3, total = offset.item(s1), offset.item(r1), offset.item(-1)
        owner = np.arange(len(lane)).repeat(count)
        rows = np.arange(total)
        pos = rows - heads[owner]
        move, at, per = lo[owner] + pos, lane[owner], width[owner]

        # Candidates are columns, as the kernel reads them: the move rows,
        # then the score rows of the lanes whose pass opens.
        cand = theta.take(np.concatenate([at, asking]) if len(asking) else at, axis=1)
        flat, stride = cand.reshape(-1), total + len(asking)
        if b2:
            cells = move[:b2] // per[:b2] * stride + rows[:b2]
            value = grid_at.take(at[:b2] * grid_stride + move[:b2])
            repeats = value == flat.take(cells)
            flat[cells] = value
        if b3 > b2:
            q, f = np.divmod(move[b2:b3], per[b2:b3])
            f = factors_at.take(at[b2:b3] * factors_stride + f + 1, axis=0)[:, side]
            scale(rows[b2:b3], rescaled.take(q, axis=0), f)
        if total > b3:
            p, f = np.divmod(move[b3:], per[b3:])
            f = factors_at.take(at[b3:] * factors_stride + f, axis=0)
            scale(rows[b3:], pairs_at.take(at[b3:] * pairs_stride + p, axis=0), f)
        lam = _lambda_raw(cand.T, table)
        best[asking] = start[asking] = lam[total:]
        lam, asking = lam[:total], asking[:0]

        # Each lane accepts its first move that beats its best.  Single-entry
        # moves run on to the end of the sweep; other families stop there.
        base = best.take(at)
        hit = np.minimum.reduceat(np.where(lam > base, pos, total), heads)
        accepted = hit < count
        # Without an acceptance ``hit`` is past the batch, so ``used`` is the batch.
        used = np.minimum(count, hit + group - (lo + hit) % group)
        last = heads + hit
        evals += used
        if b2:
            # Before the first acceptance, a move equal to the lane's entry is no evaluation.
            evals[:s1] -= np.add.reduceat(repeats & (pos[:b2] < hit.take(owner[:b2])), heads[:s1])
        swept = accepted[:s1].nonzero()[0]
        if len(swept):
            # Every move of a sweep sets the same entry, so the lane holds the
            # value of the latest record (strict rise of the running maximum,
            # the hit first) and the sweep ends at the window's last one.
            tail = (used - hit)[swept, None]
            ahead = np.arange(tail.max())
            inside = ahead < tail
            idx = last[swept, None] + np.minimum(ahead, tail - 1)
            top = np.maximum.accumulate(np.where(inside, lam.take(idx), -np.inf), axis=1)
            record = np.ones(top.shape, dtype=bool)
            np.greater(top[:, 1:], top[:, :-1], out=record[:, 1:])
            latest = np.maximum.accumulate(np.where(record, ahead, 0), axis=1)
            last[swept] += latest[:, -1]
            # A later move that equals the latest record is no evaluation.
            again = value.take(idx[:, 1:]) == value.take(idx[:, :1] + latest[:, :-1])
            evals[swept] -= (again & inside[:, 1:]).sum(axis=1)
        won = accepted.nonzero()[0]
        winners, picked = lane[won], last[won]
        theta[:, winners] = cand.take(picked, axis=1)
        best[winners] = lam[picked]

        # Advance every window.  Few live lanes make a step cheap per row,
        # so their first batches widen.
        lo += used
        first = min(max(_BASE_BATCH, _STEP_MOVES // len(lane)), cap)
        size <<= 1
        np.minimum(size, cap, out=size)
        size[accepted] = first
        over = lo >= end
        if capped:
            # A spent budget lets the open group finish.
            for i in (evals >= limit).nonzero()[0].tolist():
                stop = group_end(int(lane[i]), int(family[i]), int(lo[i]), int(width[i]))
                if stop is None:
                    over[i] = True
                else:
                    end[i], limit[i] = stop, _UNCAPPED
        ended = over.nonzero()[0]

    # Each job ends as the one-at-a-time climber's does: its pair regauged, then scored.
    block = max(1, _CHUNK // (n + 4 * d_e))
    scores = np.empty(len(jobs))
    for b in range(0, len(jobs), block):
        cols = np.arange(b, min(b + block, len(jobs)))
        _regauge(finals, cols, n_a, floor)
        scores[cols] = _lambda_raw(finals[:, cols].T, table)
    return [(score, finals[:n_a, k].reshape(2, d_a).copy(), finals[n_a:, k].reshape(2, d_b).copy(), job_evals[k])
            for k, score in enumerate(scores.tolist())]


def _funnel(
    table: np.ndarray, pool: list[tuple], stages: Sequence[tuple], floor: float
) -> tuple[list[tuple], list[tuple], list[dict]]:
    """Polish a pool of ``(value, d_a_mat, j_b, tag)`` entries stage by stage.

    A stage ``(points, spans, max_evals, keep, tol, restart)`` polishes the
    pool in one :func:`_coordinate_polish` call with those settings for
    every entry, sorts it stably by descending value and keeps the first
    ``keep`` entries within ``tol`` of the leader, with their new values
    and polished pairs, or with ``restart`` their unpolished pairs.
    Returns the last pool, each ``restart`` stage's best polished entry,
    and per stage a trace of its points, candidates, kept entries,
    evaluations (the counts that ``max_evals`` caps) and best value.
    """
    ranking, trace = [], []
    for points, spans, max_evals, keep, tol, restart in stages:
        jobs = [(m_a, m_b, max_evals) for _, m_a, m_b, _ in pool]
        polished = _coordinate_polish(table, jobs, points, spans, floor)
        order = sorted(range(len(pool)), key=lambda k: -polished[k][0])
        lead = polished[order[0]][0]
        kept = [k for k in order if polished[k][0] >= lead - tol][:keep]
        if restart:
            ranking.append((*polished[order[0]][:3], pool[order[0]][3]))
        trace.append({"points": points, "candidates": len(pool), "kept": len(kept),
                      "evals": sum(job[3] for job in polished), "best": lead})
        pool = [(polished[k][0], *(pool if restart else polished)[k][1:3], pool[k][3]) for k in kept]
    return pool, ranking, trace


def _seed_weights(d_a: int, d_b: int) -> tuple[tuple[float, float], ...]:
    """Weights of the second kept outcome of each party, per selecting seed."""
    if d_a == 2 and d_b == 2:
        return tuple((x, y) for x in (0.15, 0.3, 0.6, 1.0) for y in (0.15, 0.3, 0.6, 1.0))
    if max(d_a, d_b) == 3:
        return tuple((x, y) for x in (0.3, 1.0) for y in (0.3, 1.0))
    return ((1.0, 1.0),)


def _selecting_seeds(
    d_a: int, d_b: int, floor: float
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Sparse seeds keeping one outcome pair per party.

    The sparse corner of the grid family, enumerated exhaustively: every
    way of routing two of Alice's outcomes and two of Bob's outcomes onto
    the output bits, all other entries at the floor.  For bit-sized
    parties the kept weights are additionally enumerated over a short
    ladder, because the later local refinement converges only from
    starts within roughly a factor two of the optimal weights.
    """
    seeds = []
    alice, bob = _outcome_pairs(d_a, d_b)
    for (a0, a1), (b0, b1) in product(alice.T.tolist(), bob.T.tolist()):
        for w_a, w_b in _seed_weights(d_a, d_b):
            m_a = np.full((2, d_a), floor)
            m_b = np.full((2, d_b), floor)
            m_a[0, a0] = 1.0
            m_a[1, a1] = w_a
            m_b[0, b0] = 1.0
            m_b[1, b1] = w_b
            seeds.append((0.0, m_a, m_b))
    return seeds


def brute_force_mesbf(
    p: TripartiteDistribution, cfg: SearchConfig | None = None
) -> MeasureResult:
    """Grid oracle for small instances (honest alphabets of size <= 4).

    All stages work on multiplicative entry grids inside
    ``[entry_floor, 1]`` (the families contain every row-swapped
    variant): an exhaustive scan of all coarse filter pairs for the two
    parties jointly plus all sparse selecting seeds, then coordinate-wise
    sweeps over per-entry grids of up to ``grid_points`` values with
    shrinking windows, funneled from many candidates down to a few: a
    micro and a cheap polish rank the seeds, and the fine polish restarts
    from the seeds of the finalists within 3e-2 of the leader.  A ranking
    polish can walk a pair into a worse basin but also into a better one,
    so each ranking stage's best polished pair is certified too, and
    reported when strictly higher than the fine pair.  The documented
    contract is a lower bound on the true optimum whose gap shrinks as
    ``grid_points`` grows.  The joint scan returns the best cells of
    distinct supports over all cells, and scores only the cells that its
    bound ``H(rho0, sigma1)`` cannot rule out (:func:`_joint_scan`).  It
    holds at most 2^20 pair values, which bounds Eve's alphabet too:
    ``d_e <= 1677`` at 2x2, ``159`` at 4x4; larger tables raise
    :class:`TooLargeError`.  So does a
    ``grid_points`` at which one polish lane exceeds ``_CHUNK`` cells
    (:func:`_lane_count`: above 6538 at 4x4), before the scan runs.  Like
    :func:`estimate_mesbf`, it searches and certifies on ``p`` rescaled by
    the power of two that puts its largest entry in [1/2, 1).
    """
    cfg = cfg or SearchConfig()
    d_a, d_b, d_e = p.dims
    if d_a > 4 or d_b > 4:
        raise TooLargeError(f"grid oracle is limited to alphabets <= 4, got {d_a} x {d_b}")
    _lane_count(1, 2 * (d_a + d_b), d_e, cfg.grid_points)
    p = _unit_scaled(p)
    table = p.table
    floor = cfg.entry_floor

    # Near-zero plus an order-one ladder: optimal weights are O(1) ratios,
    # so dead decades would waste the coarse support scan.
    middle = {2: (0.1, 0.2, 0.45), 3: (0.1, 0.3)}.get(max(d_a, d_b), (0.3,))
    coarse = np.array([floor, *middle, 1.0])
    seeds = _joint_scan(table, coarse, floor, top_k=12) + _selecting_seeds(d_a, d_b, floor)
    gp = cfg.grid_points
    stages = [
        (min(gp, 6), _MICRO_SPANS, None, 8, math.inf, True),
        (min(gp, 12), _CHEAP_SPANS, None, 4, 3e-2, True),
        (gp, _FINE_SPANS, None, 1, math.inf, False),
    ]
    [fine], ranking, trace = _funnel(table, [(*seed, None) for seed in seeds], stages, floor)
    witnesses = [(Filtration(m_a).as_proper(), Filtration(m_b).as_proper()) for _, m_a, m_b, _ in (fine, *ranking)]
    values = [_certified_lambda(w_a.matrix, w_b.matrix, p) for w_a, w_b in witnesses]
    k = values.index(max(values))  # the first maximum: ties keep the fine pair
    detail = {"grid_points": gp, "seeds": len(seeds), "finalists": trace[1]["kept"], "trace": trace}
    return MeasureResult(values[k], witnesses[k], "exact", detail)


@dataclass(frozen=True)
class RandomizationDemo:
    """Before/after record of the joint local-randomization example."""

    distribution: TripartiteDistribution
    lambda_before: float
    lambda_reversible: float
    noise: float
    noise_filter: Filtration
    lambda_after: float
    filter_reversible: bool


def local_randomization_demo(noise: float = 0.01) -> RandomizationDemo:
    """Show irreversible joint noise beating every reversible filter pair.

    On the example distribution the secret-bit fraction and its
    reversible-filter optimum are both exactly 1/2, yet the slightly
    noisy (and irreversible) filter ``[[1, noise], [0, 1]]`` applied by
    both honest parties pushes the fraction strictly above 1/2.
    """
    p = randomization_example()
    noise_filter = Filtration(np.array([[1.0, noise], [0.0, 1.0]]))
    after = secret_bit_fraction(apply(noise_filter, noise_filter, p))
    return RandomizationDemo(
        distribution=p,
        lambda_before=secret_bit_fraction(p),
        lambda_reversible=mesbf_reversible(p).value,
        noise=noise,
        noise_filter=noise_filter,
        lambda_after=after,
        filter_reversible=is_reversible(noise_filter),
    )
