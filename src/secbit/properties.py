"""Randomized invariant suites runnable against a user-supplied distribution.

Each check draws `trials` (at least one) random operations (seeded) in
blocks of at most ``_BLOCK_CELLS`` cells, so memory does not grow with
``trials``; it applies them to the given distribution and counts violations
of the corresponding invariant beyond its tolerance.  The CLI's
``check-properties`` command is a thin wrapper around :func:`run_checks`.

Every suite runs on the table at the scale of
:func:`~secbit.distributions._unit_scale`, the power of two that puts the
largest entry in [1/2, 1) and keeps every measure's bits.  So the absolute
tolerances hold for raw counts, no scaled or filtered table overflows, a
subnormal table is not rounded, and a suite reads ``ldexp(t, k)`` as ``t``.

Three suites score their trials as stacks, with the outcomes of one trial
at a time.  The cross-ratio suite's permutation, diagonal, shear and gluing
filters leave at most two nonzero terms in each entry of ``F @ T``, so one
stacked product gives :func:`~secbit.filtration.apply_bipartite`'s tables,
and one stacked reduction of the cross-ratio kernel their ``vartheta``.  The
undo suite's scaled permutation and its inverse leave one term in each
entry, so one einsum with a trial axis gives :func:`~secbit.filtration.apply`'s
tables.  The algebra suite's dense random filters sum many terms in each
entry, so its stack keeps :func:`~secbit.filtration.apply`'s bits another
way: each of its einsums is ``apply``'s own, operands in the same order,
with a trial axis in front, and each compose one stacked ``f2 @ f1``; a
trial's sums then run in ``apply``'s order, which tests pin byte for byte.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distributions import BipartiteDistribution, TripartiteDistribution, _require_count, _unit_scaled, marginal_ab
from .filtration import Filtration, apply_eve, decompose, embed, recompose
from .measures import _varthetas, secret_bit_fraction, vartheta


@dataclass(frozen=True)
class CheckOutcome:
    """Violations of one suite over ``trials`` trials.

    ``worst`` is the largest gap seen and ``tolerance`` the gap allowed.
    The gaps of ``apply-bilinear-composition`` and ``reversible-undo`` are
    table entries, so they are measured at the unit scale (largest entry
    in [1/2, 1)) the suites run at, not at the caller's scale.
    """

    name: str
    trials: int
    violations: int
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> Filtration:
    matrix = rng.uniform(0.05, 1.0, size=(rows, cols))
    return Filtration(matrix / matrix.sum(axis=0, keepdims=True))


def _filter_matrix(rng: np.random.Generator, cols: int) -> np.ndarray:
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return matrix / sums * rng.uniform(0.2, 1.0, size=cols)


def _random_filter(rng: np.random.Generator, cols: int) -> Filtration:
    return Filtration(_filter_matrix(rng, cols))


# Most filter or table cells one block of a suite's trials holds.
# With the kernel's own blocks, 10^4 cross-ratio trials on an 8 x 8 enlarged
# table peak near 1.1 MB (tracemalloc); larger blocks gain no speed.
_BLOCK_CELLS = 1 << 13


def _suite(
    name: str,
    tol: float,
    salt: int,
    trials: int,
    seed: int,
    draw: Callable[[np.random.Generator], object],
    score: Callable[[np.ndarray], np.ndarray] = np.asarray,
    cells: int = 1,
) -> CheckOutcome:
    """Draw trials on the streams ``[seed, salt, k]``; a gap above ``tol`` is a violation.

    ``draw(rng)`` makes one trial: its gap, or the array of its operations,
    which ``score`` takes as a stack of trials and turns into their gaps.
    A trial holds ``cells`` filter or table cells (a gap is one), and a
    block of trials at most ``_BLOCK_CELLS``, one trial at least.
    """
    trials = _require_count(trials, "trials")
    seed = _require_count(seed, "seed", minimum=0)
    block = max(1, _BLOCK_CELLS // cells)
    worst = 0.0
    violations = 0
    for start in range(0, trials, block):
        draws = [draw(np.random.default_rng([seed, salt, k])) for k in range(start, min(start + block, trials))]
        gaps = score(np.stack(draws))
        worst = max(worst, float(gaps.max()))
        violations += int(np.count_nonzero(gaps > tol))
    return CheckOutcome(name, trials, violations, worst, tol)


def check_scale_invariance(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """lambda(alpha * P) == lambda(P) for positive alpha."""
    p = _unit_scaled(p)
    base = secret_bit_fraction(p)

    def trial(rng: np.random.Generator) -> float:
        alpha = rng.uniform(0.05, 10.0)
        return abs(secret_bit_fraction(TripartiteDistribution(alpha * p.table)) - base)

    return _suite("lambda-scale-invariance", 1e-12, 11, trials, seed, trial)


def check_eve_monotonicity(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """Eve degrading her own data never lowers lambda."""
    p = _unit_scaled(p)
    base = secret_bit_fraction(p)
    d_e = p.dims[2]

    def trial(rng: np.random.Generator) -> float:
        y_e = _random_stochastic(rng, int(rng.integers(1, d_e + 2)), d_e)
        return base - secret_bit_fraction(apply_eve(y_e, p))

    return _suite("eve-monotonicity", 1e-12, 13, trials, seed, trial)


def _algebra_ops(rng: np.random.Generator, d_a: int, d_b: int) -> np.ndarray:
    """One algebra trial: the filters f1, g1, f2 and g2 of two rows side by side, then alpha over beta.

    They are drawn in that order, the filters as :func:`_random_filter` draws them.
    """
    filters = [_filter_matrix(rng, cols) for cols in (d_a, d_b, 2, 2)]
    return np.hstack(filters + [rng.uniform(0.1, 2.0, size=(2, 1))])


def _algebra_tables(ops: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, ...]:
    """The filtered, once, composed and mixed tables of a stack of algebra trials, and its alphas and betas.

    :func:`~secbit.filtration.apply`'s einsum with a trial axis, and one
    ``f2 @ f1`` per :meth:`~secbit.filtration.Filtration.compose`, give
    their bits: each trial's sums run in the same order.  A trial's table
    with no positive entry, or one past the float maximum, raises the
    error ``apply`` raises.
    """
    d_a, d_b = table.shape[:2]
    f1, g1, f2, g2, weights = map(np.ascontiguousarray, np.split(ops, np.cumsum((d_a, d_b, 2, 2)), axis=2))
    alpha, beta = weights[:, 0, :, None, None], weights[:, 1, :, None, None]
    filtered = np.einsum("nia,njb,abe->nije", f1, g1, table)
    once = np.einsum("nia,njb,nabe->nije", f2, g2, filtered)
    composed = np.einsum("nia,njb,abe->nije", f2 @ f1, g2 @ g1, table)
    # The mixed input passes its own check: at unit scale alpha * P + beta * P
    # is below 4 and holds a positive entry.
    mixed = np.einsum("nia,njb,nabe->nije", f1, g1, alpha * table + beta * table)
    tables = filtered, once, composed, mixed
    tops = np.stack([stack.reshape(len(stack), -1).max(axis=1) for stack in tables])
    if not (tops.min() > 0.0 and tops.max() < math.inf):
        # The first trial with such a table checks its tables in apply's order.
        first = int(np.argmin(((tops > 0.0) & (tops < math.inf)).all(axis=0)))
        for stack in tables:
            TripartiteDistribution(stack[first])
    return filtered, once, composed, mixed, alpha, beta


def check_apply_algebra(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """apply is bilinear in P and composes with matrix products."""
    p = _unit_scaled(p)
    d_a, d_b, _ = p.dims

    def score(ops: np.ndarray) -> np.ndarray:
        filtered, once, composed, mixed, alpha, beta = _algebra_tables(ops, p.table)
        gap = np.abs(once - composed).max(axis=(1, 2, 3))
        return np.maximum(gap, np.abs(mixed - (alpha + beta) * filtered).max(axis=(1, 2, 3)))

    draw = lambda rng: _algebra_ops(rng, d_a, d_b)
    # A trial holds four 2 x 2 x d_e tables and its mixed input.
    cells = 16 * p.dims[2] + p.table.size
    return _suite("apply-bilinear-composition", 1e-12, 17, trials, seed, draw, score, cells)


def _reversible_pair(rng: np.random.Generator, d_a: int) -> np.ndarray:
    """One undo trial: a scaled permutation of ``d_a`` symbols and its inverse.

    The inverse is the matrix :func:`~secbit.filtration.reversible_inverse` builds.
    """
    rows = np.arange(d_a)
    perm = rng.permutation(d_a)
    scale = rng.uniform(0.2, 1.0, size=d_a)
    pair = np.zeros((2, d_a, d_a))
    pair[0, rows, perm] = scale
    pair[1, perm, rows] = 1.0 / scale
    return pair


def _undone(pairs: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~secbit.filtration.apply` of each pair's filter to ``table``, then of its inverse to that.

    Bob's and Eve's symbols stay untouched.  Each entry is one product, so
    leaving out :func:`~secbit.filtration.apply`'s identity on Bob's symbol keeps its bits.
    """
    there = np.einsum("nia,abe->nibe", pairs[:, 0], table)
    return there, np.einsum("nia,nabe->nibe", pairs[:, 1], there)


def check_reversible_undo(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """A reversible filter followed by its inverse rescales P."""
    p = _unit_scaled(p)
    d_a = p.dims[0]
    draw = lambda rng: _reversible_pair(rng, d_a)
    score = lambda pairs: np.abs(_undone(pairs, p.table)[1] - p.table).max(axis=(1, 2, 3))
    return _suite("reversible-undo", 1e-10, 19, trials, seed, draw, score, 2 * d_a * max(d_a, p.table[0].size))


def check_decompose_roundtrip(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """decompose then recompose reproduces random filters on Alice's alphabet."""
    d_a = p.dims[0]

    def trial(rng: np.random.Generator) -> float:
        filt = _random_filter(rng, d_a)
        return float(np.abs(recompose(decompose(filt)).matrix - filt.matrix).max())

    return _suite("decompose-roundtrip", 1e-12, 23, trials, seed, trial)


def _order_filters(rng: np.random.Generator, size: int) -> np.ndarray:
    """One cross-ratio trial's permutation, diagonal, lower shear and row gluing filters.

    They are the matrices of :meth:`Filtration.permutation`, :meth:`Filtration.diagonal`,
    :func:`~secbit.filtration.lower_shear` and :func:`~secbit.filtration.row_gluing`.
    """
    rows = np.arange(size)
    filters = np.zeros((4, size, size))
    filters[0, rows, rng.permutation(size)] = 1.0
    filters[1, rows, rows] = rng.uniform(0.05, 1.0, size=size)
    filters[2:, rows, rows] = 1.0
    filters[2, 1, 0] = float(rng.uniform(0.1, 5.0))
    glue = float(rng.uniform(0.1, 5.0))
    filters[3, 0, int(rng.integers(2, size))] += glue
    return filters


def _moved(filters: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`~secbit.filtration.apply_bipartite` of each filter of a stack to ``table``, Bob untouched.

    One ``(n, rows, d_b)`` stack from one product, the one that function
    takes; each entry adds at most two nonzero terms, and its identity on
    Bob's symbol would add only zeros.
    """
    return (filters @ table).reshape(-1, filters.shape[-2], table.shape[1])


def check_cross_ratio_monotonicity(
    p_ab: BipartiteDistribution, trials: int, seed: int
) -> CheckOutcome:
    """vartheta invariance/monotonicity on the enlarged marginal."""
    enlarged = embed(_unit_scaled(p_ab))
    size, d_b = enlarged.dims
    base = vartheta(enlarged)

    def score(filters: np.ndarray) -> np.ndarray:
        moved = _varthetas(_moved(filters, enlarged.table)).reshape(-1, 4) - base
        gap = np.maximum(np.abs(moved[:, 0]), np.abs(moved[:, 1]))
        return np.maximum(gap, np.maximum(moved[:, 2], moved[:, 3]))

    draw = lambda rng: _order_filters(rng, size)
    return _suite("cross-ratio-monotonicity", 1e-12, 29, trials, seed, draw, score, 4 * size * max(size, d_b))


def run_checks(
    dist: TripartiteDistribution | BipartiteDistribution, trials: int, seed: int
) -> list[CheckOutcome]:
    """Run every applicable suite against the given distribution.

    The table is put at unit scale once, so Alice and Bob's marginal of a
    near-overflow table does not overflow.
    """
    dist = _unit_scaled(dist)
    if isinstance(dist, BipartiteDistribution):
        return [check_cross_ratio_monotonicity(dist, trials, seed)]
    suites = [check_scale_invariance, check_eve_monotonicity] if dist.is_binary else []
    suites += [check_apply_algebra, check_reversible_undo, check_decompose_roundtrip]
    outcomes = [suite(dist, trials, seed) for suite in suites]
    return outcomes + [check_cross_ratio_monotonicity(marginal_ab(dist), trials, seed)]
