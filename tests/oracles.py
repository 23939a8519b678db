"""Independent slow oracles used by the tests.

These deliberately avoid the library's closed-form branch logic: values
are computed by dense grid evaluation of the secret-bit fraction after
explicitly parameterized filter pairs.  The scalar coordinate polish at
the end is the one-candidate-at-a-time reference for the optimizer's
batched polish, which must follow it bit for bit.
"""

import numpy as np

from secbit.optimizer import _FINE_SPANS


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


def _lambda_raw(d_a: np.ndarray, j_b: np.ndarray, table: np.ndarray) -> float:
    """Secret-bit fraction after filtering, ndarray fast path."""
    filtered = np.einsum("ia,jb,abe->ije", d_a, j_b, table)
    total = filtered.sum()
    if not total > 0.0:
        return 0.0
    return float(2.0 * np.minimum(filtered[0, 0, :], filtered[1, 1, :]).sum() / total)



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

    Two move families: single entries swept over a local log grid (plus
    the floor, so entries can switch off, and 1.0, so dead entries can
    revive), and coordinated entry pairs moved by a factor and its
    inverse.  The pair moves matter: the objective has ridges along which
    the two diagonal products must stay balanced, and no single-entry
    move can follow them.  Each matrix is re-gauged to peak entry one
    every cycle (the objective is scale invariant per matrix), otherwise
    the scale drifts toward the floor and the windows lose resolution.
    Deterministic; relies on the caller to supply candidates in the right
    bases of attraction.
    """
    n_a = d_a_mat.size
    theta = np.concatenate([d_a_mat.ravel(), j_b.ravel()])
    n = theta.size

    def lam_of(vec: np.ndarray) -> float:
        return _lambda_raw(vec[:n_a].reshape(d_a_mat.shape), vec[n_a:].reshape(j_b.shape), table)

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
    return lam_of(theta), theta[:n_a].reshape(d_a_mat.shape), theta[n_a:].reshape(j_b.shape)
