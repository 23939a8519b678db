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
  family automatically covers row-swapped variants), funneled into
  coordinate-wise sweeps over shrinking per-entry grids.  Intended only
  as a cross-check; a lower bound whose gap shrinks with the grid
  resolution.

Both searches spend their time polishing starts.  A polish tries its
moves in a fixed order and keeps the first candidate that improves, as a
one-at-a-time hill climber would, but it scores candidates in batches and
rebuilds only the candidates behind an accepted one.  Each search stage
polishes its starts in lockstep (:func:`_polish_all`): every live polish
hands over its pending batch, and one call of the candidate-major kernel
:func:`_lambda_raw` scores the batches of all of them.  A row's score does
not depend on the other rows of its call, so each polish follows the
trajectory it follows alone, which is that of the one-at-a-time climber;
so is every reported value and witness.

Every value reported by either search is recomputed through the measures
pipeline for the reported witness, so results are certified lower bounds.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from collections.abc import Callable, Generator, Sequence
from dataclasses import dataclass

import numpy as np

from .distributions import TripartiteDistribution, randomization_example
from .errors import DimensionMismatchError, InvalidParamsError, TooLargeError, ZeroMassError
from .filtration import Filtration, apply, is_reversible
from .measures import MeasureResult, _outcome_pairs, mesbf_reversible, secret_bit_fraction

DEFAULT_SEED = 1729

_CHUNK = 1 << 17
# Moves scored by the polish's first batch after an acceptance; batches
# double while nothing is accepted.  Acceptances come in runs, so a small
# first batch wastes little scoring on moves that must be rebuilt.
_BASE_BATCH = 16
# Polishes that :func:`_polish_all` runs at once.  More lanes mean fewer,
# larger kernel calls, but each lane holds its own grids and batch.
_LIVE = 32


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by both searches; all randomness flows from ``seed``."""

    restarts: int = 64
    iterations: int = 2000
    seed: int = DEFAULT_SEED
    entry_floor: float = 1e-9
    grid_points: int = 12

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.iterations < 1 or self.grid_points < 2:
            raise InvalidParamsError("restarts, iterations and grid_points must be >= 1 (grid >= 2)")
        if not 0.0 < self.entry_floor < 1.0:
            raise InvalidParamsError(f"entry_floor must lie strictly between 0 and 1, got {self.entry_floor}")


def _lambda_raw(cands: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Secret-bit fractions after filtering, one per row of flattened filter pairs.

    Row ``c`` of ``cands`` is Alice's ``2 x d_a`` filter followed by Bob's
    ``2 x d_b`` filter, both raveled; zero-mass rows score 0.

    Summation order is part of the contract.  The stack is transposed so
    that the candidate axis is innermost, and each filtered entry sums
    ``(alice[i, a] * bob[j, b]) * table[a, b, e]`` over ``(a, b)`` in the
    order that the one-pair ``einsum("ia,jb,abe->ije")`` uses: row-major,
    except that for ``d_a == 2`` and ``d_e == 1`` it sums Bob's outcomes
    for each of Alice's outcomes apart and adds the two partial sums.  The
    total and the min-sum then reduce each row on its own.  So every row's
    score is its one-pair score bit for bit, whatever else is in the stack.
    """
    d_a, d_b, d_e = table.shape
    c = len(cands)
    cols = np.ascontiguousarray(cands.T)
    alice = cols[: 2 * d_a].reshape(2, d_a, c)
    bob = cols[2 * d_a :].reshape(2, d_b, c)
    if d_a == 2 and d_e == 1:
        # For this shape the one-pair einsum adds up one partial sum over
        # Bob's outcomes per outcome of Alice; one einsum each mirrors it.
        filtered = (
            np.einsum("ic,jbc,b->ijc", alice[:, 0], bob, table[0, :, 0])
            + np.einsum("ic,jbc,b->ijc", alice[:, 1], bob, table[1, :, 0])
        )[:, :, None]
    else:
        filtered = np.einsum("iac,jbc,abe->ijec", alice, bob, table)
    filtered = np.ascontiguousarray(filtered.transpose(3, 0, 1, 2))
    total = np.add.reduce(filtered.reshape(c, -1), axis=1)
    num = 2.0 * np.add.reduce(np.minimum(filtered[:, 0, 0], filtered[:, 1, 1]), axis=1)
    return np.divide(num, total, out=np.zeros(c), where=total > 0.0)


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
    through the measures pipeline, hence a certified lower bound, and it
    never falls below the coin-toss baseline.  Identical seeds and
    configs give identical results bit for bit.

    ``extra_starts`` lets callers seed the search with known-good pairs,
    e.g. witnesses for a preprocessed distribution composed with the
    preprocessing step.
    """
    cfg = cfg or SearchConfig()
    d_a, d_b, _ = p.dims
    table = p.table
    floor = cfg.entry_floor
    log_floor = math.log(floor)

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
        starts.append(
            (f"restart-{r}", sample[: 2 * d_a].reshape(2, d_a), sample[2 * d_a :].reshape(2, d_b))
        )

    cheap = _polish_all(
        table,
        [
            (np.clip(m_a, floor, 1.0), np.clip(m_b, floor, 1.0), 8, _CHEAP_SPANS, cfg.iterations)
            for _, m_a, m_b in starts
        ],
        floor,
    )
    refined = [(*polished, source) for polished, (source, _, _) in zip(cheap, starts)]
    refined.sort(key=lambda item: -item[0])

    leaders = refined[:5]
    fine = _polish_all(table, [(m_a, m_b, 24, _FINE_SPANS, None) for _, m_a, m_b, _ in leaders], floor)
    best = (-1.0, refined[0][1], refined[0][2], "")
    for (value, m_a, m_b), (*_, source) in zip(fine, leaders):
        if value > best[0]:
            best = (value, m_a, m_b, source)
    _, m_a, m_b, source = best
    _, m_a, m_b = _coordinate_polish(table, m_a, m_b, 24, floor, _FINE_SPANS)

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
    return MeasureResult(value, witness, "exact", {"source": source})


def _row_family(grids: list[np.ndarray]) -> np.ndarray:
    """All row vectors with entry ``k`` drawn from ``grids[k]``, row-major."""
    shape = tuple(len(g) for g in grids)
    total = int(np.prod(shape))
    multi = np.unravel_index(np.arange(total), shape)
    family = np.empty((total, len(grids)))
    for k, grid in enumerate(grids):
        family[:, k] = grid[multi[k]]
    return family


def _support_signature(d_a_mat: np.ndarray, j_b: np.ndarray, floor: float) -> tuple:
    """Which entries are live (well above the floor), both matrices pooled.

    Swapping both output bits leaves the objective unchanged, so the
    signature is canonicalized over that mirror symmetry.
    """
    direct = tuple(
        np.concatenate([d_a_mat.ravel(), j_b.ravel()]) > 10.0 * floor
    )
    mirrored = tuple(
        np.concatenate([d_a_mat[::-1].ravel(), j_b[::-1].ravel()]) > 10.0 * floor
    )
    return min(direct, mirrored)


def _joint_scan(
    table: np.ndarray, coarse: np.ndarray, floor: float, top_k: int
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Exhaustive scan of coarse filter pairs for both parties jointly.

    The secret-bit fraction after filtering depends on the two parties'
    row-0 pair and row-1 pair only, so all row pairs are contracted once
    against the table and every combination of a row-0 pair with a row-1
    pair is evaluated.  Returns the ``top_k`` best candidates with
    pairwise distinct support signatures, so that later refinement
    explores genuinely different bases of attraction.
    """
    d_a, d_b, d_e = table.shape
    rows_a = _row_family([coarse] * d_a)
    rows_b = _row_family([coarse] * d_b)
    n_a, n_b = len(rows_a), len(rows_b)
    pair_vals = np.einsum("ia,abe,jb->ije", rows_a, table, rows_b).reshape(n_a * n_b, d_e)
    mass = rows_a @ table.sum(axis=2) @ rows_b.T

    total = n_a * n_b
    i_of, j_of = np.divmod(np.arange(total), n_b)
    block = max(1, _CHUNK // total)
    per_chunk = 8 * top_k
    found: list[tuple[float, int, int]] = []
    for start in range(0, total, block):
        stop = min(start + block, total)
        i0, j0 = i_of[start:stop], j_of[start:stop]
        num = 2.0 * np.minimum(pair_vals[start:stop, None, :], pair_vals[None, :, :]).sum(axis=2)
        den = (
            mass[i0, j0][:, None]
            + mass[i_of, j_of][None, :]
            + mass[i0[:, None], j_of[None, :]]
            + mass[i_of[None, :], j0[:, None]]
        )
        lam = (num / den).ravel()
        keep = min(per_chunk, lam.size)
        order = np.argpartition(lam, -keep)[-keep:]
        for flat in order:
            i, j = divmod(int(flat), total)
            found.append((float(lam[flat]), start + i, j))

    found.sort(key=lambda item: (-item[0], item[1], item[2]))
    result: list[tuple[float, np.ndarray, np.ndarray]] = []
    seen: set[tuple] = set()
    for value, p, q in found:
        i0, j0 = divmod(p, n_b)
        i1, j1 = divmod(q, n_b)
        d_a_mat = np.vstack([rows_a[i0], rows_a[i1]])
        j_b_mat = np.vstack([rows_b[j0], rows_b[j1]])
        key = _support_signature(d_a_mat, j_b_mat, floor)
        if key in seen:
            continue
        seen.add(key)
        result.append((value, d_a_mat, j_b_mat))
        if len(result) == top_k:
            break
    return result


_MICRO_SPANS = (4.0,)
_CHEAP_SPANS = (10.0, 2.0, 1.3)
# No wide window here: finalists are already in the right basin, and wide
# sweeps tend to re-introduce spurious entries that lock the refinement.
_FINE_SPANS = (2.0, 1.2, 1.05, 1.01, 1.003, 1.001)


# A polish in progress: it yields candidate stacks, is sent their scores
# and returns ``(value, d_a_mat, j_b)``.
_Polish = Generator[np.ndarray, np.ndarray, tuple[float, np.ndarray, np.ndarray]]


def _first_improvement(
    theta: np.ndarray,
    best: float,
    evals: int,
    limit: float,
    total: int,
    starts: Sequence[int],
    build: Callable[[int, int], np.ndarray],
    cap: int,
    overwrite: bool = False,
) -> Generator[np.ndarray, np.ndarray, tuple[float, int, bool]]:
    """Try moves ``0..total-1`` in order, keeping every one that beats ``best``.

    ``build(lo, hi)`` returns the candidates of moves ``lo..hi-1`` built
    from the current ``theta``; each such stack is yielded and its scores
    are sent back.  Moves come in groups opening at the sorted positions
    ``starts``; a group opens only while ``evals`` is below ``limit``.
    Batches are scored speculatively and, after an acceptance, the moves
    behind it are rebuilt and scored again, so the trajectory and the
    evaluation count are those of trying the moves one at a time.  A batch
    never holds more moves than the budget has evaluations left, so no
    group inside it can open past the budget.  Batches start at
    ``_BASE_BATCH`` moves and double while nothing is accepted, up to
    ``cap`` moves.

    With ``overwrite``, a move sets the coordinates it changes: a candidate
    equal to ``theta`` is skipped and not counted, and an acceptance leaves
    the rest of its group unchanged, so their scores are kept.
    """
    size, lo, improved = _BASE_BATCH, 0, False
    while lo < total:
        room = limit - evals
        if room > 0:
            hi = min(total, lo + min(size, cap, room))
        else:
            nxt = bisect.bisect_right(starts, lo)
            if starts[nxt - 1] == lo:
                break
            hi = min(total, starts[nxt] if nxt < len(starts) else total, lo + cap)
        cands = build(lo, hi)
        lam = yield cands
        counted = (cands != theta).any(axis=1) if overwrite else np.ones(len(lam), dtype=bool)
        pos, size = 0, 2 * size
        while pos < len(lam):
            better = (lam[pos:] > best) & counted[pos:]
            k = pos + int(better.argmax())
            if not better[k - pos]:
                evals += int(np.count_nonzero(counted[pos:]))
                break
            theta[:] = cands[k]
            best, improved, size = lam[k], True, _BASE_BATCH
            evals += int(np.count_nonzero(counted[pos : k + 1]))
            pos = k + 1
            if overwrite:
                nxt = bisect.bisect_right(starts, lo + k)
                end = min(hi, starts[nxt]) - lo if nxt < len(starts) else len(lam)
                lam, cands = lam[:end], cands[:end]
                counted = (cands != theta).any(axis=1)
            else:
                lam = lam[:pos]
        lo += len(lam)
    return best, evals, improved


def _polish(
    d_a_mat: np.ndarray,
    j_b: np.ndarray,
    points: int,
    floor: float,
    spans: tuple[float, ...],
    max_evals: int | None,
    cap: int,
) -> _Polish:
    """The body of :func:`_coordinate_polish`, yielding each stack to score.

    Batches hold at most ``cap`` candidates.  Returns what
    :func:`_coordinate_polish` returns.
    """
    n_a = d_a_mat.size
    theta = np.concatenate([d_a_mat.ravel(), j_b.ravel()])
    n = theta.size
    limit = math.inf if max_evals is None else max_evals
    eye = np.eye(n, dtype=bool)
    w_a, w_b = d_a_mat.shape[1], j_b.shape[1]
    rows = np.repeat(np.eye(4, dtype=bool), [w_a, w_a, w_b, w_b], axis=1)

    def regauge() -> None:
        for block in (slice(0, n_a), slice(n_a, n)):
            top = theta[block].max()
            if top > 0.0:
                theta[block] = np.maximum(theta[block] / top, floor)

    def scaled(mask_x, f_x, mask_y, f_y) -> np.ndarray:
        cand = np.where(mask_x, np.minimum(np.maximum(theta * f_x[:, None], floor), 1.0), theta)
        return np.where(mask_y, np.minimum(np.maximum(theta * f_y[:, None], floor), 1.0), cand)

    evals = 0
    for span in spans:
        factors = np.geomspace(1.0 / span, span, points)
        factors = factors[factors != 1.0]
        # Moves by f and 1/f, then by f and f; the pair family first
        # switches both entries off (factor 0 clips to the floor).
        f_a = np.repeat(factors, 2)
        f_b = np.stack([1.0 / factors, factors], axis=1).ravel()
        f_i, f_j = np.append(0.0, f_a), np.append(0.0, f_b)
        for _ in range(2):
            if evals >= limit:
                break
            regauge()
            best = float((yield theta[None, :])[0])
            center = np.maximum(theta, floor)
            grid = np.geomspace(
                np.maximum(center / span, floor), np.minimum(center * span, 1.0), points, axis=1
            )
            grid = np.hstack([grid, np.full((n, 1), floor), np.ones((n, 1))])
            width = grid.shape[1]

            def single(lo: int, hi: int) -> np.ndarray:
                i, r = np.divmod(np.arange(lo, hi), width)
                return np.where(eye[i], grid[i, r][:, None], theta)

            # Whole-row rescalings of one matrix against the other track the
            # balance ridges exactly when rows are sparse.
            def rescale(lo: int, hi: int) -> np.ndarray:
                pair, r = np.divmod(np.arange(lo, hi), len(f_a))
                return scaled(rows[pair // 2], f_a[r], rows[2 + pair % 2], f_b[r])

            best, evals, moved_single = yield from _first_improvement(
                theta, best, evals, limit, n * width, range(0, n * width, width), single, cap, True
            )
            best, evals, moved_rows = yield from _first_improvement(
                theta, best, evals, limit, 4 * len(f_a), range(0, 4 * len(f_a), len(f_a)), rescale, cap
            )
            # Joint switch-off first: small entries can stabilize each other
            # so that neither can be floored alone.
            live = np.flatnonzero(theta > 10.0 * floor)
            first, second = np.triu_indices(len(live), 1)
            at_i, at_j = eye[live[first]], eye[live[second]]
            anchors = (len(f_i) * np.searchsorted(first, np.arange(len(live)))).tolist()

            def pairs(lo: int, hi: int) -> np.ndarray:
                p, r = np.divmod(np.arange(lo, hi), len(f_i))
                return scaled(at_i[p], f_i[r], at_j[p], f_j[r])

            best, evals, moved_pairs = yield from _first_improvement(
                theta, best, evals, limit, len(f_i) * len(first), anchors, pairs, cap
            )
            if not (moved_single or moved_rows or moved_pairs):
                break
    regauge()
    value = float((yield theta[None, :])[0])
    return value, theta[:n_a].reshape(d_a_mat.shape), theta[n_a:].reshape(j_b.shape)


def _polish_all(
    table: np.ndarray,
    jobs: Sequence[tuple[np.ndarray, np.ndarray, int, tuple[float, ...], int | None]],
    floor: float,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """:func:`_coordinate_polish` of every ``(d_a_mat, j_b, points, spans, max_evals)`` job.

    At most ``_LIVE`` polishes run at once, in lockstep: one
    :func:`_lambda_raw` call scores the pending stacks of all of them, and
    each polish gets its own slice of the scores.  When a polish finishes,
    the next job takes its place.  Each batch is capped so that one call
    holds at most ``_CHUNK`` cells of candidates and filtered tables.  A
    row's score does not depend on the rest of its call, so every result
    is the one its job reaches alone.  Results come in input order.
    """
    d_a, d_b, d_e = table.shape
    lanes = min(_LIVE, len(jobs))
    cap = max(1, _CHUNK // (lanes * (2 * (d_a + d_b) + 4 * d_e)))
    waiting = deque(enumerate(jobs))
    results: list = [None] * len(jobs)
    live: list[tuple[int, _Polish, np.ndarray]] = []

    def admit() -> None:
        if waiting:
            k, (m_a, m_b, points, spans, max_evals) = waiting.popleft()
            polish = _polish(m_a, m_b, points, floor, spans, max_evals, cap)
            live.append((k, polish, next(polish)))

    for _ in range(lanes):
        admit()
    while live:
        lam = _lambda_raw(np.concatenate([stack for _, _, stack in live]), table)
        running, live, pos = live, [], 0
        for k, polish, stack in running:
            try:
                live.append((k, polish, polish.send(lam[pos : pos + len(stack)])))
            except StopIteration as done:
                results[k] = done.value
                admit()
            pos += len(stack)
    return results


def _coordinate_polish(
    table: np.ndarray,
    d_a_mat: np.ndarray,
    j_b: np.ndarray,
    points: int,
    floor: float,
    spans: tuple[float, ...] = _FINE_SPANS,
    max_evals: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Local grid refinement of a filter pair, windows shrinking per pass.

    Three move families, tried in a fixed order with first improvement:
    single entries swept over a local log grid (plus the floor, so
    entries can switch off, and 1.0, so dead entries can revive), whole
    rows of one matrix rescaled against rows of the other, and
    coordinated entry pairs, switched off jointly or moved by a factor
    and its inverse.  The pair moves matter: the objective has ridges
    along which the two diagonal products must stay balanced, and no
    single-entry move can follow them.  Each family's candidates are
    scored in batches by one kernel call (:func:`_first_improvement`),
    with the trajectory and the evaluation count of trying them one at a
    time; ``max_evals`` is checked before each entry, row pair and
    pair-move anchor.  Each matrix is re-gauged to peak entry one every
    cycle (the objective is scale invariant per matrix), otherwise the
    scale drifts toward the floor and the windows lose resolution.
    Deterministic; relies on the caller to supply candidates in the
    right bases of attraction.  Polishes of many starts go through
    :func:`_polish_all` instead, with the same results.
    """
    return _polish_all(table, [(d_a_mat, j_b, points, spans, max_evals)], floor)[0]


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
    if d_a == 2 and d_b == 2:
        weights: tuple[tuple[float, float], ...] = tuple(
            (x, y) for x in (0.15, 0.3, 0.6, 1.0) for y in (0.15, 0.3, 0.6, 1.0)
        )
    elif max(d_a, d_b) == 3:
        weights = tuple((x, y) for x in (0.3, 1.0) for y in (0.3, 1.0))
    else:
        weights = ((1.0, 1.0),)
    seeds = []
    for a0, a1, b0, b1 in zip(*_outcome_pairs(d_a, d_b)):
        for w_a, w_b in weights:
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
    shrinking windows, funneled from many candidates down to a few.  The
    documented contract is a lower bound on the true optimum whose gap
    shrinks as ``grid_points`` grows.
    """
    cfg = cfg or SearchConfig()
    d_a, d_b, _ = p.dims
    if d_a > 4 or d_b > 4:
        raise TooLargeError(f"grid oracle is limited to alphabets <= 4, got {d_a} x {d_b}")
    table = p.table
    floor = cfg.entry_floor

    # Near-zero plus an order-one ladder: optimal weights are O(1) ratios,
    # so dead decades would waste the coarse support scan.
    if max(d_a, d_b) == 2:
        coarse = np.array([floor, 0.1, 0.2, 0.45, 1.0])
    elif max(d_a, d_b) == 3:
        coarse = np.array([floor, 0.1, 0.3, 1.0])
    else:
        coarse = np.array([floor, 0.3, 1.0])
    seeds = _joint_scan(table, coarse, floor, top_k=12)
    seeds.extend(_selecting_seeds(d_a, d_b, floor))

    # Funnel: micro polish ranks every seed and a cheap pass re-ranks the
    # leaders (coarse values misorder nearby basins).  Ranking passes can
    # walk a matrix into a worse basin, so only their values are kept;
    # the fine pass always restarts from the original seed.
    def ranked(pool, points: int, spans: tuple[float, ...]) -> list:
        polished = _polish_all(table, [(m_a, m_b, points, spans, None) for _, m_a, m_b in pool], floor)
        return sorted(
            ((value, m_a, m_b) for (value, _, _), (_, m_a, m_b) in zip(polished, pool)),
            key=lambda item: -item[0],
        )

    micro = ranked(seeds, min(cfg.grid_points, 6), _MICRO_SPANS)
    cheap = ranked(micro[:8], min(cfg.grid_points, 12), _CHEAP_SPANS)
    finalists = [item for item in cheap if item[0] >= cheap[0][0] - 3e-2][:4]

    best = (-1.0, None, None)
    fine = [(m_a, m_b, cfg.grid_points, _FINE_SPANS, None) for _, m_a, m_b in finalists]
    for value, m_a, m_b in _polish_all(table, fine, floor):
        if value > best[0]:
            best = (value, m_a, m_b)

    witness = (Filtration(best[1]).as_proper(), Filtration(best[2]).as_proper())
    value = _certified_lambda(witness[0].matrix, witness[1].matrix, p)
    return MeasureResult(
        value,
        witness,
        "exact",
        {"grid_points": cfg.grid_points, "seeds": len(seeds), "finalists": len(finalists)},
    )


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
