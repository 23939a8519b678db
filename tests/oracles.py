"""Independent slow oracles used by the tests.

These deliberately avoid the library's closed-form branch logic: values
are computed by dense grid evaluation of the secret-bit fraction after
explicitly parameterized filter pairs.  The scalar coordinate polish
scores one candidate at a time through the library's own kernel
(``optimizer._lambda_raw``, which has tests of its own), so it is the
reference for the batched polish's trajectory, which must follow it bit
for bit.  The exhaustive joint scan,
which scores every cell one row-0 pair at a time and walks them in
order, is the reference for the library's bound-pruned best-first scan.
The two searches, each with its stages
written out by hand, are the reference for the library's stage funnel.
The loop forms of the closed-form measures are the reference for the
library's vectorized ones, and the exact rational cross ratios for their
values on tables whose float products underflow.  The direct-product block statistics and the
column-by-column simulator at the end are the reference for the
protocol layer's closed form and its sampling from uniform draws.
The seeded property suites near the end, with the per-suite trial
loops they had before sharing one, are the reference for
``secbit.properties``.  The two-reduction table check at the very end is
the reference for the one-pass check of every table.
"""

import math
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from secbit import optimizer
from secbit.distill import _SIM_CHUNK, SimulationReport
from secbit.distributions import (
    BipartiteDistribution,
    TripartiteDistribution,
    _is_complex,
    _require_count,
    _unconvertible,
    marginal_ab,
)
from secbit.errors import (
    BadShapeError,
    DimensionMismatchError,
    InvalidParamsError,
    NegativeEntryError,
    NotBinaryError,
    NotNormalizedError,
    OutOfRangeError,
    TooLargeError,
    ZeroMassError,
)
from secbit.filtration import (
    Filtration,
    apply,
    apply_bipartite,
    apply_eve,
    decompose,
    embed,
    lower_shear,
    recompose,
    reversible_inverse,
    row_gluing,
)
from secbit.measures import (
    FAMILY_SAMPLE,
    MeasureResult,
    WitnessFamily,
    WitnessPair,
    _require_binary,
    secret_bit_fraction,
)
from secbit.measures import vartheta as library_vartheta
from secbit.optimizer import (
    _CHEAP_SPANS,
    _FINE_SPANS,
    _MICRO_SPANS,
    SearchConfig,
    _certified_lambda,
    _identity_projection,
    _joint_scan,
    _selecting_seeds,
)
from secbit.properties import CheckOutcome


def _diag_branch_best(table, grid_u, grid_v):
    """Best lambda over D_A = diag(1, u), J_B = diag(1, v) on a grid."""
    t = table
    uv = grid_u[:, None] * grid_v[None, :]
    num = np.zeros_like(uv)
    for e in range(t.shape[2]):
        num += np.minimum(t[0, 0, e], uv * t[1, 1, e])
    num *= 2.0
    pab = t.sum(axis=2)
    den = (
        pab[0, 0]
        + grid_u[:, None] * pab[1, 0]
        + grid_v[None, :] * pab[0, 1]
        + uv * pab[1, 1]
    )
    return float((num / den).max())


def _anti_branch_best(table, grid_x, grid_y):
    """Best lambda over D_A = [[0, x], [1, 0]], J_B = diag(y, 1) on a grid."""
    t = table
    xy = grid_x[:, None] * grid_y[None, :]
    num = np.zeros_like(xy)
    for e in range(t.shape[2]):
        num += np.minimum(xy * t[1, 0, e], t[0, 1, e])
    num *= 2.0
    pab = t.sum(axis=2)
    den = (
        pab[0, 1]
        + xy * pab[1, 0]
        + grid_x[:, None] * pab[1, 1]
        + grid_y[None, :] * pab[0, 0]
    )
    return float((num / den).max())


def grid_reversible_oracle(p, points=200):
    """Dense log-grid search over diagonal and antidiagonal filter pairs.

    The grid box is derived from the spread of the table entries, so the
    resolution concentrates where the data lives.
    """
    table = p.table / p.table.sum()
    positive = table[table > 0.0]
    ratio = float(positive.min() / positive.max())
    lo = 0.5 * np.sqrt(ratio)
    hi = 2.0 / np.sqrt(ratio)
    grid = np.geomspace(lo, hi, points)
    return max(
        _diag_branch_best(table, grid, grid),
        _anti_branch_best(table, grid, grid),
    )


def scalar_polish(
    table: np.ndarray,
    d_a_mat: np.ndarray,
    j_b: np.ndarray,
    points: int,
    floor: float,
    spans: tuple[float, ...] = _FINE_SPANS,
    max_evals: int | None = None,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Local grid refinement of a filter pair, windows shrinking per pass.

    Two move families: single entries swept over a local log grid (plus
    the floor, so entries can switch off, and 1.0, so dead entries can
    revive), and coordinated entry pairs moved by a factor and its
    inverse.  The pair moves matter: the objective has ridges along which
    the two diagonal products must stay balanced, and no single-entry
    move can follow them.  Each matrix is re-gauged to peak entry one
    every cycle (the objective is scale invariant per matrix), otherwise
    the scale drifts toward the floor and the windows lose resolution.
    Each candidate is scored alone, as a one-row call of the library's
    kernel.  Deterministic; relies on the caller to supply candidates in
    the right bases of attraction.  Returns the value, both filters and the
    evaluations, the count that ``max_evals`` caps.
    """
    n_a = d_a_mat.size
    theta = np.concatenate([d_a_mat.ravel(), j_b.ravel()])
    n = theta.size

    def lam_of(vec: np.ndarray) -> float:
        return float(optimizer._lambda_raw(vec[None], table)[0])

    def regauge() -> None:
        for block in (slice(0, n_a), slice(n_a, n)):
            top = theta[block].max()
            if top > 0.0:
                theta[block] = np.maximum(theta[block] / top, floor)

    evals = 0

    def try_update(candidate: np.ndarray, best: float) -> tuple[float, bool]:
        nonlocal evals
        evals += 1
        trial = lam_of(candidate)
        if trial > best:
            theta[:] = candidate
            return trial, True
        return best, False

    def exhausted() -> bool:
        return max_evals is not None and evals >= max_evals

    row_groups = [
        np.arange(0, d_a_mat.shape[1]),
        np.arange(d_a_mat.shape[1], n_a),
        n_a + np.arange(0, j_b.shape[1]),
        n_a + np.arange(j_b.shape[1], n - n_a),
    ]

    regauge()
    best = lam_of(theta)
    for span in spans:
        factors = np.geomspace(1.0 / span, span, points)
        for _ in range(2):
            if exhausted():
                break
            regauge()
            best = lam_of(theta)
            improved = False
            for i in range(n):
                if exhausted():
                    break
                center = max(theta[i], floor)
                grid = np.geomspace(
                    max(center / span, floor), min(center * span, 1.0), points
                )
                for value in (*grid, floor, 1.0):
                    if value == theta[i]:
                        continue
                    cand = theta.copy()
                    cand[i] = value
                    best, moved = try_update(cand, best)
                    improved |= moved
            # Whole-row rescalings of one matrix against the other track the
            # balance ridges exactly when rows are sparse.
            for row_a in row_groups[:2]:
                for row_b in row_groups[2:]:
                    if exhausted():
                        break
                    for f in factors:
                        if f == 1.0:
                            continue
                        for g in (1.0 / f, f):
                            cand = theta.copy()
                            cand[row_a] = np.clip(cand[row_a] * f, floor, 1.0)
                            cand[row_b] = np.clip(cand[row_b] * g, floor, 1.0)
                            best, moved = try_update(cand, best)
                            improved |= moved
            live = [i for i in range(n) if theta[i] > 10.0 * floor]
            for pos, i in enumerate(live):
                if exhausted():
                    break
                for j in live[pos + 1 :]:
                    # Joint switch-off first: small entries can stabilize each
                    # other so that neither can be floored alone.
                    cand = theta.copy()
                    cand[i] = cand[j] = floor
                    best, moved = try_update(cand, best)
                    improved |= moved
                    for f in factors:
                        if f == 1.0:
                            continue
                        for g in (1.0 / f, f):
                            cand = theta.copy()
                            cand[i] = min(max(cand[i] * f, floor), 1.0)
                            cand[j] = min(max(cand[j] * g, floor), 1.0)
                            best, moved = try_update(cand, best)
                            improved |= moved
            if not improved:
                break
    regauge()
    return lam_of(theta), theta[:n_a].reshape(d_a_mat.shape), theta[n_a:].reshape(j_b.shape), evals


def exhaustive_scan(
    table: np.ndarray, coarse: np.ndarray, floor: float, top_k: int, level: float = -math.inf
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The joint scan's definition: of every cell at or above ``level``, the first ``top_k`` signatures.

    Cells are scored one row-0 pair ``p`` at a time against every row-1
    pair ``q``: the minima of the doubled pair values are added over Eve's
    symbols left to right, then divided by ``M[p] + M[q]`` plus the masses
    of the two crossed pairs.  They are ranked by descending value, then
    ``p``, then ``q``, and walked; a cell whose live entries (above ``10 *
    floor``), or those of its mirror with both output bits swapped, match
    an earlier cell's is skipped.  A level no higher than the true
    ``top_k``-th value changes nothing and saves sorting the rest.
    """
    d_a, d_b, d_e = table.shape
    rows_a, rows_b = (np.array(list(product(coarse, repeat=d))) for d in (d_a, d_b))
    n_b = len(rows_b)
    pair2 = 2.0 * np.einsum("ia,abe,jb->ije", rows_a, table, rows_b).reshape(-1, d_e)
    mass = rows_a @ table.sum(axis=2) @ rows_b.T
    flat, (i, j) = mass.reshape(-1), np.divmod(np.arange(mass.size), n_b)
    cells = []
    for p in range(len(pair2)):
        mins = np.minimum(pair2[p], pair2)
        num = mins[:, 0]
        for e in range(1, d_e):
            num = num + mins[:, e]
        den = flat[p] + flat + mass[i[p], j] + mass[i, j[p]]
        values = np.divide(num, den, out=np.zeros(len(den)), where=den > 0.0)
        q = np.flatnonzero(values >= level)
        cells.append((values[q], np.full(len(q), p), q))
    values, firsts, seconds = (np.concatenate(column) for column in zip(*cells))
    ranked = np.lexsort((seconds, firsts, -values))
    rows = np.stack([firsts[ranked], seconds[ranked]], axis=1)
    m_a, m_b = rows_a[rows // n_b], rows_b[rows % n_b]
    live = [np.concatenate([m_a[:, order].reshape(len(rows), -1), m_b[:, order].reshape(len(rows), -1)], axis=1)
            > 10.0 * floor for order in ([0, 1], [1, 0])]
    result, seen = [], set()
    for k, key in enumerate(map(min, map(bytes, live[0]), map(bytes, live[1]))):
        if key not in seen:
            seen.add(key)
            result.append((float(values[ranked[k]]), m_a[k], m_b[k]))
            if len(result) == top_k:
                break
    return result


# The two searches as they were before the stage funnel: one pipeline
# written out twice.  They call the library's polish, joint scan and
# selecting seeds, which have their own references above.  They called the
# lockstep polish ``_polish_all``; the library's polish,
# ``_coordinate_polish``, is read under that name here, one call per grid
# size and span list as before, without the evaluation counts it returns.


def _polish_all(table, jobs, points, spans, floor):
    """The library's lockstep polish of ``(d_a_mat, j_b, max_evals)`` jobs, each result as ``(value, d_a_mat, j_b)``."""
    return [result[:3] for result in optimizer._coordinate_polish(table, jobs, points, spans, floor)]


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
        starts.append((f"restart-{r}", sample[: 2 * d_a].reshape(2, d_a), sample[2 * d_a :].reshape(2, d_b)))

    clipped = [(np.clip(m_a, floor, 1.0), np.clip(m_b, floor, 1.0)) for _, m_a, m_b in starts]
    cheap = _polish_all(table, [(*pair, cfg.iterations) for pair in clipped], 8, _CHEAP_SPANS, floor)
    refined = [(*polished, source) for polished, (source, _, _) in zip(cheap, starts)]
    refined.sort(key=lambda item: -item[0])

    leaders = refined[:5]
    fine = _polish_all(table, [(m_a, m_b, None) for _, m_a, m_b, _ in leaders], 24, _FINE_SPANS, floor)
    best = (-1.0, refined[0][1], refined[0][2], "")
    for (value, m_a, m_b), (*_, source) in zip(fine, leaders):
        if value > best[0]:
            best = (value, m_a, m_b, source)
    _, m_a, m_b, source = best
    _, m_a, m_b = _polish_all(table, [(m_a, m_b, None)], 24, _FINE_SPANS, floor)[0]

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
    return MeasureResult(value, witness, "exact", {"source": source})


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
    shrinks as ``grid_points`` grows.  The joint scan holds at most 2^20
    pair values, which bounds Eve's alphabet too: ``d_e <= 1677`` at 2x2,
    ``159`` at 4x4; larger tables raise :class:`TooLargeError`.
    """
    cfg = cfg or SearchConfig()
    d_a, d_b, _ = p.dims
    if d_a > 4 or d_b > 4:
        raise TooLargeError(f"grid oracle is limited to alphabets <= 4, got {d_a} x {d_b}")
    table = p.table
    floor = cfg.entry_floor

    # Near-zero plus an order-one ladder: optimal weights are O(1) ratios,
    # so dead decades would waste the coarse support scan.
    middle = {2: (0.1, 0.2, 0.45), 3: (0.1, 0.3)}.get(max(d_a, d_b), (0.3,))
    coarse = np.array([floor, *middle, 1.0])
    seeds = _joint_scan(table, coarse, floor, top_k=12)
    seeds.extend(_selecting_seeds(d_a, d_b, floor))

    # Funnel: micro polish ranks every seed and a cheap pass re-ranks the
    # leaders (coarse values misorder nearby basins).  Ranking passes can
    # walk a matrix into a worse basin, so only their values are kept;
    # the fine pass always restarts from the original seed.
    def ranked(pool, points: int, spans: tuple[float, ...]) -> list:
        polished = _polish_all(table, [(m_a, m_b, None) for _, m_a, m_b in pool], points, spans, floor)
        return sorted(
            ((value, m_a, m_b) for (value, _, _), (_, m_a, m_b) in zip(polished, pool)),
            key=lambda item: -item[0],
        )

    micro = ranked(seeds, min(cfg.grid_points, 6), _MICRO_SPANS)
    cheap = ranked(micro[:8], min(cfg.grid_points, 12), _CHEAP_SPANS)
    finalists = [item for item in cheap if item[0] >= cheap[0][0] - 3e-2][:4]

    fine = [(m_a, m_b, None) for _, m_a, m_b in finalists]
    best = max(_polish_all(table, fine, cfg.grid_points, _FINE_SPANS, floor), key=lambda item: item[0])

    witness = (Filtration(best[1]).as_proper(), Filtration(best[2]).as_proper())
    value = _certified_lambda(witness[0].matrix, witness[1].matrix, p)
    return MeasureResult(
        value,
        witness,
        "exact",
        {"grid_points": cfg.grid_points, "seeds": len(seeds), "finalists": len(finalists)},
    )


# Closed-form measures as nested loops over outcome pairs and Eve symbols
# on the raw table, with one witness helper per branch.  The library's
# vectorized kernels on the normalized table must agree with these.


def _diag_pair(q: float, phi: float) -> WitnessPair:
    d_a = Filtration.diagonal([1.0, q]).as_proper()
    j_b = Filtration.diagonal([1.0, phi / q]).as_proper()
    return d_a, j_b


def _diag_witness(
    phi: float, cross01: float, cross10: float
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """Diagonal filter pair realizing ratio ``phi`` between the diagonal cells.

    The free weight ``q`` balances the two cross terms; when one cross
    cell is structurally zero the optimum is only approached as ``q``
    degenerates, giving a limiting family.
    """
    if cross01 > 0.0 and cross10 > 0.0:
        q = math.sqrt(phi * cross01 / cross10)
        return _diag_pair(q, phi), "exact", None
    if cross01 == 0.0 and cross10 == 0.0:
        return _diag_pair(1.0, phi), "exact", None
    if cross10 == 0.0:
        family: WitnessFamily = lambda delta: _diag_pair(1.0 / delta, phi)
    else:
        family = lambda delta: _diag_pair(delta, phi)
    return family(FAMILY_SAMPLE), "limiting", family


def _anti_pair(s: float, psi: float) -> WitnessPair:
    d_a = Filtration(np.array([[0.0, s], [1.0, 0.0]])).as_proper()
    j_b = Filtration.diagonal([psi / s, 1.0]).as_proper()
    return d_a, j_b


def _anti_witness(
    psi: float, diag00: float, diag11: float
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """Bit-swapping filter pair; the mirror image of :func:`_diag_witness`."""
    if diag00 > 0.0 and diag11 > 0.0:
        s = math.sqrt(psi * diag00 / diag11)
        return _anti_pair(s, psi), "exact", None
    if diag00 == 0.0 and diag11 == 0.0:
        return _anti_pair(1.0, psi), "exact", None
    if diag11 == 0.0:
        family: WitnessFamily = lambda delta: _anti_pair(1.0 / delta, psi)
    else:
        family = lambda delta: _anti_pair(delta, psi)
    return family(FAMILY_SAMPLE), "limiting", family


def mesbf_reversible(p: TripartiteDistribution) -> MeasureResult:
    """Best secret-bit fraction reachable with reversible local filters.

    Reversible 2x2 filters are exactly the diagonal and antidiagonal
    matrices, and for each branch the optimum sits at a ratio between two
    of Eve's cells, so the supremum reduces to a finite scan: over Eve
    symbols where both diagonal cells are nonzero (diagonal branch) and
    where both off-diagonal cells are nonzero (antidiagonal branch).  An
    empty branch contributes zero; membership uses structural zeros, not
    a tolerance.
    """
    _require_binary(p.dims[:2])
    t = p.table
    pab = t.sum(axis=2)
    m00, m01, m10, m11 = pab[0, 0], pab[0, 1], pab[1, 0], pab[1, 1]

    candidates: list[tuple[float, str, int, float]] = []
    for e in range(p.dims[2]):
        if t[0, 0, e] != 0.0 and t[1, 1, e] != 0.0:
            phi = float(t[0, 0, e] / t[1, 1, e])
            num = 2.0 * np.minimum(t[0, 0, :], phi * t[1, 1, :]).sum()
            den = m00 + phi * m11 + 2.0 * math.sqrt(phi * m01 * m10)
            candidates.append((float(num / den), "diagonal", e, phi))
    for e in range(p.dims[2]):
        if t[0, 1, e] != 0.0 and t[1, 0, e] != 0.0:
            psi = float(t[0, 1, e] / t[1, 0, e])
            num = 2.0 * np.minimum(t[0, 1, :], psi * t[1, 0, :]).sum()
            den = m01 + psi * m10 + 2.0 * math.sqrt(psi * m00 * m11)
            candidates.append((float(num / den), "antidiagonal", e, psi))

    if not candidates:
        return MeasureResult(0.0, None, "none", {"branch": None})

    value, branch, symbol, ratio = max(candidates, key=lambda c: c[0])
    if branch == "diagonal":
        witness, kind, family = _diag_witness(ratio, m01, m10)
    else:
        witness, kind, family = _anti_witness(ratio, m00, m11)
    detail = {"branch": branch, "eve_symbol": symbol, "ratio": ratio}
    return MeasureResult(value, witness, kind, detail, family)


def mesbf_reversible_decoupled(p_ab: BipartiteDistribution) -> MeasureResult:
    """Reversible-filter MESBF of a 2x2 distribution with Eve decoupled.

    Zero when both cell products vanish; otherwise the larger of
    ``1 / (1 + sqrt(P01 P10 / P00 P11))`` and its reciprocal-ratio twin,
    a vanishing product inside the square root being read as the limit
    (that branch then evaluates to 1, approached by a limiting family).
    """
    _require_binary(p_ab.dims)
    m = p_ab.table
    w = float(m[0, 0] * m[1, 1])
    x = float(m[0, 1] * m[1, 0])
    if w == 0.0 and x == 0.0:
        return MeasureResult(0.0, None, "none", {"branch": None})

    candidates: list[tuple[float, str]] = []
    if w > 0.0:
        candidates.append((1.0 / (1.0 + math.sqrt(x / w)), "diagonal"))
    if x > 0.0:
        candidates.append((1.0 / (1.0 + math.sqrt(w / x)), "antidiagonal"))
    value, branch = max(candidates, key=lambda c: c[0])

    if branch == "diagonal":
        phi = float(m[0, 0] / m[1, 1])
        witness, kind, family = _diag_witness(phi, float(m[0, 1]), float(m[1, 0]))
        ratio = phi
    else:
        psi = float(m[0, 1] / m[1, 0])
        witness, kind, family = _anti_witness(psi, float(m[0, 0]), float(m[1, 1]))
        ratio = psi
    return MeasureResult(value, witness, kind, {"branch": branch, "ratio": ratio}, family)


def _selecting_witness(
    m: np.ndarray, pair: tuple[int, int, int, int]
) -> tuple[WitnessPair, str, Optional[WitnessFamily]]:
    """Filters keeping only outcomes ``a0, a1`` / ``b0, b1`` with tuned weights."""
    a0, a1, b0, b1 = pair
    w00, w01 = float(m[a0, b0]), float(m[a0, b1])
    w10, w11 = float(m[a1, b0]), float(m[a1, b1])
    phi = w00 / w11
    d_a, d_b = m.shape

    def build(q: float) -> WitnessPair:
        left = np.zeros((2, d_a))
        right = np.zeros((2, d_b))
        left[0, a0] = 1.0
        left[1, a1] = q
        right[0, b0] = 1.0
        right[1, b1] = phi / q
        return Filtration(left).as_proper(), Filtration(right).as_proper()

    if w01 > 0.0 and w10 > 0.0:
        return build(math.sqrt(phi * w01 / w10)), "exact", None
    if w01 == 0.0 and w10 == 0.0:
        return build(1.0), "exact", None
    if w10 == 0.0:
        family: WitnessFamily = lambda delta: build(1.0 / delta)
    else:
        family = lambda delta: build(delta)
    return family(FAMILY_SAMPLE), "limiting", family


def _coin_toss_witness(d_a: int, d_b: int) -> WitnessPair:
    return Filtration.coin_toss(d_a), Filtration.coin_toss(d_b)


def mesbf_decoupled(p_ab: BipartiteDistribution) -> MeasureResult:
    """Exact MESBF when Eve is decoupled, any alphabet sizes.

    Maximizes over ordered outcome pairs ``a0 < a1``, ``b0 != b1`` (both
    orders of ``b``; the expression is invariant under swapping both
    pairs at once): 1/2 when both cell products vanish, otherwise
    ``1 / (1 + sqrt(P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)))``.  Discarding
    everything and tossing coins always achieves 1/2, which is therefore
    the floor.
    """
    m = p_ab.table
    d_a, d_b = p_ab.dims
    best_value = 0.5
    best_pair: Optional[tuple[int, int, int, int]] = None
    best_branch = "coin-toss"
    for a0 in range(d_a):
        for a1 in range(a0 + 1, d_a):
            for b0 in range(d_b):
                for b1 in range(d_b):
                    if b1 == b0:
                        continue
                    w = float(m[a0, b0] * m[a1, b1])
                    x = float(m[a0, b1] * m[a1, b0])
                    if w == 0.0:
                        continue  # both-zero ties the 1/2 floor; cross-only gives 0
                    value = 1.0 / (1.0 + math.sqrt(x / w))
                    if value > best_value:
                        best_value = value
                        best_pair = (a0, a1, b0, b1)
                        best_branch = "cross-ratio"

    if best_pair is None:
        witness, kind, family = _coin_toss_witness(d_a, d_b), "exact", None
        detail = {"branch": best_branch, "pair": None}
    else:
        witness, kind, family = _selecting_witness(m, best_pair)
        a0, a1, b0, b1 = best_pair
        detail = {
            "branch": best_branch,
            "pair": best_pair,
            "omega": float(m[a0, b1] * m[a1, b0] / (m[a0, b0] * m[a1, b1])),
        }
    return MeasureResult(best_value, witness, kind, detail, family)


def mesbf_decoupled_power(p_ab: BipartiteDistribution, copies: int) -> MeasureResult:
    """MESBF of ``copies`` independent samples of a decoupled distribution.

    The optimal outcome pair of a single copy repeats across copies, so
    the N-copy value is ``1 / (1 + omega_min^(N/2))`` with ``omega_min``
    the minimal cross ratio of one copy (1/2 floor as before); no tensor
    power is ever materialized.
    """
    if copies < 1:
        raise OutOfRangeError(f"copies must be >= 1, got {copies}")
    m = p_ab.table
    d_a, d_b = p_ab.dims
    omega_min: Optional[float] = None
    best_pair: Optional[tuple[int, int, int, int]] = None
    for a0 in range(d_a):
        for a1 in range(a0 + 1, d_a):
            for b0 in range(d_b):
                for b1 in range(d_b):
                    if b1 == b0:
                        continue
                    w = float(m[a0, b0] * m[a1, b1])
                    if w == 0.0:
                        continue
                    ratio = float(m[a0, b1] * m[a1, b0]) / w
                    if omega_min is None or ratio < omega_min:
                        omega_min = ratio
                        best_pair = (a0, a1, b0, b1)

    detail = {"copies": copies, "omega_min": omega_min, "pair": best_pair}
    if omega_min is None:
        return MeasureResult(0.5, None, "none", detail)
    value = max(0.5, 1.0 / (1.0 + omega_min ** (copies / 2.0)))
    return MeasureResult(value, None, "none", detail)


def vartheta(p_ab: BipartiteDistribution) -> float:
    """The decoupled-MESBF maximization on an arbitrary nonnegative matrix.

    Defined for any shape, including enlarged-space matrices whose first
    two rows and columns need not be zero; scale invariant.  Coincident
    index pairs always realize exactly 1/2, hence the floor.
    """
    m = p_ab.table
    d_a, d_b = p_ab.dims
    best = 0.5
    for a0 in range(d_a):
        for a1 in range(a0 + 1, d_a):
            for b0 in range(d_b):
                for b1 in range(d_b):
                    if b1 == b0:
                        continue
                    w = float(m[a0, b0] * m[a1, b1])
                    if w == 0.0:
                        continue
                    value = 1.0 / (1.0 + math.sqrt(float(m[a0, b1] * m[a1, b0]) / w))
                    if value > best:
                        best = value
    return best


def exact_cross_ratio(table: np.ndarray, a0: int, a1: int, b0: int, b1: int) -> Optional[Fraction]:
    """``P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)`` in exact rationals; None at a zero denominator cell."""
    num, den = Fraction(table[a0, b1]) * Fraction(table[a1, b0]), Fraction(table[a0, b0]) * Fraction(table[a1, b1])
    return num / den if den else None


def exact_least_cross_ratio(table: np.ndarray) -> Optional[Fraction]:
    """Least exact cross ratio over the outcome pairs ``a0 < a1``, ``b0 != b1``; None when none is defined."""
    d_a, d_b = table.shape
    ratios = [
        exact_cross_ratio(table, a0, a1, b0, b1)
        for a0 in range(d_a)
        for a1 in range(a0 + 1, d_a)
        for b0 in range(d_b)
        for b1 in range(d_b)
        if b0 != b1
    ]
    return min((r for r in ratios if r is not None), default=None)


def to_float(r: Fraction) -> float:
    """``r`` rounded to the nearest float, ``inf`` past the float maximum."""
    try:
        return float(r)
    except OverflowError:
        return math.inf


def simulate_advantage_distillation(
    p: TripartiteDistribution,
    block_length: int,
    samples: int,
    seed: int,
) -> SimulationReport:
    """Sample the first protocol step from a normalized binary distribution.

    Draws ``samples`` blocks of ``block_length`` iid triples, filters
    Alice's and Bob's strings independently, and reports the acceptance
    rate, the disagreement rate of the kept bits among accepted blocks,
    and the fraction of accepted blocks in which every Eve symbol was 0
    (for canonical-form inputs: the blocks where Eve knows nothing).
    Deterministic given the seed; samples are drawn in fixed-size chunks
    with one generator per chunk, so aggregates are order-independent.
    Each chunk is drawn column by column with ``Generator.choice``, one
    symbol for every block whose strings both still alternate, until none
    does or the blocks are complete; each symbol is split into its
    ``(a, b, e)`` parts and tested against the alternating patterns.
    """
    if p.dims[0] != 2 or p.dims[1] != 2:
        raise NotBinaryError(f"simulation needs binary honest alphabets, got {p.dims}")
    if abs(p.mass - 1.0) > 1e-9:
        raise NotNormalizedError(f"distribution mass {p.mass} is not 1")
    if samples < 1:
        raise InvalidParamsError(f"samples must be >= 1, got {samples}")
    _require_count(block_length, "block length")

    d_a, d_b, d_e = p.dims
    flat = p.table.ravel()
    flat = flat / flat.sum()

    accepted = disagreements = eve_blank = 0
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(_SIM_CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        # One symbol per column for every block still alive, in block order.
        first_a = first_b = last_a = last_b = None
        blank = np.ones(count, dtype=bool)
        for column in range(block_length):
            if not len(blank):
                break
            draws = rng.choice(len(flat), size=len(blank), p=flat)
            e_sym = draws % d_e
            ab = draws // d_e
            b_sym = ab % d_b
            a_sym = ab // d_b
            if column == 0:
                first_a, first_b = a_sym, b_sym
            # Column k of an alternating string is its first bit flipped k times.
            keep = (a_sym == (first_a + column) % 2) & (b_sym == (first_b + column) % 2)
            first_a, first_b, last_a, last_b = first_a[keep], first_b[keep], a_sym[keep], b_sym[keep]
            blank = blank[keep] & (e_sym[keep] == 0)
        accepted += len(blank)
        disagreements += int((last_a != last_b).sum())
        eve_blank += int(blank.sum())
        done += count
        chunk_index += 1

    return SimulationReport(
        block_length=block_length,
        samples=samples,
        seed=seed,
        accepted=accepted,
        acceptance_rate=accepted / samples,
        disagreements=disagreements,
        disagreement_rate=disagreements / accepted if accepted else math.nan,
        eve_blank_blocks=eve_blank,
        eve_blank_rate=eve_blank / accepted if accepted else math.nan,
    )


def exact_block_statistics(
    p: TripartiteDistribution, block_length: int
) -> dict[str, float]:
    """Exact accept/disagree/blank-Eve probabilities for any binary input.

    Computed by direct products over the two alternating patterns, with no
    symmetry assumptions; serves as the simulator's analytic column.
    """
    if p.dims[0] != 2 or p.dims[1] != 2:
        raise NotBinaryError(f"exact statistics need binary honest alphabets, got {p.dims}")
    _require_count(block_length, "block length")
    t = p.table / p.table.sum()
    pab = t.sum(axis=2)
    blank = t[:, :, 0]
    pattern = np.arange(block_length) % 2

    def product(cells: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> float:
        return float(np.prod(cells[alice, bob]))

    same = product(pab, pattern, pattern) + product(pab, 1 - pattern, 1 - pattern)
    diff = product(pab, pattern, 1 - pattern) + product(pab, 1 - pattern, pattern)
    blank_mass = (
        product(blank, pattern, pattern)
        + product(blank, 1 - pattern, 1 - pattern)
        + product(blank, pattern, 1 - pattern)
        + product(blank, 1 - pattern, pattern)
    )
    accept = same + diff
    return {
        "acceptance_rate": accept,
        "disagreement_rate": diff / accept if accept > 0.0 else math.nan,
        "eve_blank_rate": blank_mass / accept if accept > 0.0 else math.nan,
    }


# The property suites, one trial loop each, with their random helpers.
# The library's ``vartheta`` is called as ``library_vartheta`` because this
# module's own ``vartheta`` is the loop oracle above.


def _random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> Filtration:
    matrix = rng.uniform(0.05, 1.0, size=(rows, cols))
    return Filtration(matrix / matrix.sum(axis=0, keepdims=True))


def _random_filter(rng: np.random.Generator, cols: int) -> Filtration:
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return Filtration(matrix / sums * rng.uniform(0.2, 1.0, size=cols))


def check_scale_invariance(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """lambda(alpha * P) == lambda(P) for positive alpha."""
    tol = 1e-12
    base = secret_bit_fraction(p)
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 11, k])
        alpha = rng.uniform(0.05, 10.0)
        gap = abs(secret_bit_fraction(TripartiteDistribution(alpha * p.table)) - base)
        worst = max(worst, gap)
        violations += gap > tol
    return CheckOutcome("lambda-scale-invariance", trials, violations, worst, tol)


def check_eve_monotonicity(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """Eve degrading her own data never lowers lambda."""
    tol = 1e-12
    base = secret_bit_fraction(p)
    d_e = p.dims[2]
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 13, k])
        y_e = _random_stochastic(rng, int(rng.integers(1, d_e + 2)), d_e)
        drop = base - secret_bit_fraction(apply_eve(y_e, p))
        worst = max(worst, drop)
        violations += drop > tol
    return CheckOutcome("eve-monotonicity", trials, violations, worst, tol)


def check_apply_algebra(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """apply is bilinear in P and composes with matrix products."""
    tol = 1e-12
    d_a, d_b, _ = p.dims
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 17, k])
        f1, g1 = _random_filter(rng, d_a), _random_filter(rng, d_b)
        f2, g2 = _random_filter(rng, 2), _random_filter(rng, 2)
        once = apply(f2, g2, apply(f1, g1, p))
        composed = apply(f2.compose(f1), g2.compose(g1), p)
        gap = float(np.abs(once.table - composed.table).max())
        alpha, beta = rng.uniform(0.1, 2.0, size=2)
        mixed = apply(f1, g1, TripartiteDistribution(alpha * p.table + beta * p.table))
        linear = (alpha + beta) * apply(f1, g1, p).table
        gap = max(gap, float(np.abs(mixed.table - linear).max()))
        worst = max(worst, gap)
        violations += gap > tol
    return CheckOutcome("apply-bilinear-composition", trials, violations, worst, tol)


def check_reversible_undo(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """A reversible filter followed by its inverse rescales P."""
    tol = 1e-10
    d_a = p.dims[0]
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 19, k])
        perm = rng.permutation(d_a)
        scale = rng.uniform(0.2, 1.0, size=d_a)
        matrix = np.zeros((d_a, d_a))
        matrix[np.arange(d_a), perm] = scale
        filt = Filtration(matrix)
        inverse = reversible_inverse(filt)
        assert inverse is not None
        back = apply(inverse, Filtration.identity(p.dims[1]), apply(filt, Filtration.identity(p.dims[1]), p))
        gap = float(np.abs(back.table - p.table).max())
        worst = max(worst, gap)
        violations += gap > tol
    return CheckOutcome("reversible-undo", trials, violations, worst, tol)


def check_decompose_roundtrip(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """decompose then recompose reproduces random filters on Alice's alphabet."""
    tol = 1e-12
    d_a = p.dims[0]
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 23, k])
        filt = _random_filter(rng, d_a)
        rebuilt = recompose(decompose(filt))
        gap = float(np.abs(rebuilt.matrix - filt.matrix).max())
        worst = max(worst, gap)
        violations += gap > tol
    return CheckOutcome("decompose-roundtrip", trials, violations, worst, tol)


def check_cross_ratio_monotonicity(
    p_ab: BipartiteDistribution, trials: int, seed: int
) -> CheckOutcome:
    """vartheta invariance/monotonicity on the enlarged marginal."""
    tol = 1e-12
    enlarged = embed(p_ab)
    size = enlarged.dims[0]
    base = library_vartheta(enlarged)
    worst = 0.0
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, 29, k])
        identity = Filtration.identity(enlarged.dims[1])
        perm = Filtration.permutation(rng.permutation(size))
        scale = Filtration.diagonal(rng.uniform(0.05, 1.0, size=size))
        gap = abs(library_vartheta(apply_bipartite(perm, identity, enlarged)) - base)
        gap = max(gap, abs(library_vartheta(apply_bipartite(scale, identity, enlarged)) - base))
        shear = lower_shear(float(rng.uniform(0.1, 5.0)), size)
        glue = row_gluing(float(rng.uniform(0.1, 5.0)), int(rng.integers(2, size)), size)
        rise = max(
            library_vartheta(apply_bipartite(shear, identity, enlarged)) - base,
            library_vartheta(apply_bipartite(glue, identity, enlarged)) - base,
        )
        gap = max(gap, rise)
        worst = max(worst, gap)
        violations += gap > tol
    return CheckOutcome("cross-ratio-monotonicity", trials, violations, worst, tol)


def run_checks(
    dist: TripartiteDistribution | BipartiteDistribution, trials: int, seed: int
) -> list[CheckOutcome]:
    """Run every applicable suite against the given distribution."""
    outcomes: list[CheckOutcome] = []
    if isinstance(dist, TripartiteDistribution):
        if dist.is_binary:
            outcomes.append(check_scale_invariance(dist, trials, seed))
            outcomes.append(check_eve_monotonicity(dist, trials, seed))
        outcomes.append(check_apply_algebra(dist, trials, seed))
        outcomes.append(check_reversible_undo(dist, trials, seed))
        outcomes.append(check_decompose_roundtrip(dist, trials, seed))
        outcomes.append(check_cross_ratio_monotonicity(marginal_ab(dist), trials, seed))
    else:
        outcomes.append(check_cross_ratio_monotonicity(dist, trials, seed))
    return outcomes


def freeze(values, ndim: int, what: str, empty: Optional[str] = None) -> np.ndarray:
    """``values`` as a read-only array of finite, nonnegative floats, checked by two float reductions."""
    try:
        arr = np.asarray(values)
        if _is_complex(arr):
            raise TypeError("complex entries")
        arr = arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise _unconvertible(values, what) from exc
    if arr.ndim != ndim:
        raise BadShapeError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
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
