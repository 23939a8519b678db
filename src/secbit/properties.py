"""Randomized invariant suites runnable against a user-supplied distribution.

Each check draws `trials` (at least one) random operations (seeded),
applies them to the given distribution, and counts violations of the
corresponding invariant beyond its tolerance.  The CLI's
``check-properties`` command is a thin wrapper around :func:`run_checks`.

Every suite runs on the table at the scale of
:func:`~secbit.distributions._unit_scale`, the power of two that puts the
largest entry in [1/2, 1) and keeps every measure's bits.  So the absolute
tolerances hold for raw counts, no scaled or filtered table overflows, a
subnormal table is not rounded, and a suite reads ``ldexp(t, k)`` as ``t``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distributions import BipartiteDistribution, TripartiteDistribution, _require_count, _unit_scaled, marginal_ab
from .filtration import (
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
from .measures import secret_bit_fraction, vartheta


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


def _random_filter(rng: np.random.Generator, cols: int) -> Filtration:
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return Filtration(matrix / sums * rng.uniform(0.2, 1.0, size=cols))


def _suite(
    name: str, tol: float, salt: int, trials: int, seed: int, trial: Callable[[np.random.Generator], float]
) -> CheckOutcome:
    """Run ``trial`` on the streams ``[seed, salt, k]``; a gap above ``tol`` is a violation."""
    trials = _require_count(trials, "trials")
    seed = _require_count(seed, "seed", minimum=0)
    worst = 0.0
    violations = 0
    for k in range(trials):
        gap = trial(np.random.default_rng([seed, salt, k]))
        worst = max(worst, gap)
        violations += gap > tol
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


def check_apply_algebra(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """apply is bilinear in P and composes with matrix products."""
    p = _unit_scaled(p)
    d_a, d_b, _ = p.dims

    def trial(rng: np.random.Generator) -> float:
        f1, g1 = _random_filter(rng, d_a), _random_filter(rng, d_b)
        f2, g2 = _random_filter(rng, 2), _random_filter(rng, 2)
        filtered = apply(f1, g1, p)
        once = apply(f2, g2, filtered)
        composed = apply(f2.compose(f1), g2.compose(g1), p)
        gap = float(np.abs(once.table - composed.table).max())
        alpha, beta = rng.uniform(0.1, 2.0, size=2)
        mixed = apply(f1, g1, TripartiteDistribution(alpha * p.table + beta * p.table))
        linear = (alpha + beta) * filtered.table
        return max(gap, float(np.abs(mixed.table - linear).max()))

    return _suite("apply-bilinear-composition", 1e-12, 17, trials, seed, trial)


def check_reversible_undo(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """A reversible filter followed by its inverse rescales P."""
    p = _unit_scaled(p)
    d_a = p.dims[0]
    identity = Filtration.identity(p.dims[1])

    def trial(rng: np.random.Generator) -> float:
        perm = rng.permutation(d_a)
        scale = rng.uniform(0.2, 1.0, size=d_a)
        matrix = np.zeros((d_a, d_a))
        matrix[np.arange(d_a), perm] = scale
        filt = Filtration(matrix)
        inverse = reversible_inverse(filt)
        assert inverse is not None
        back = apply(inverse, identity, apply(filt, identity, p))
        return float(np.abs(back.table - p.table).max())

    return _suite("reversible-undo", 1e-10, 19, trials, seed, trial)


def check_decompose_roundtrip(p: TripartiteDistribution, trials: int, seed: int) -> CheckOutcome:
    """decompose then recompose reproduces random filters on Alice's alphabet."""
    d_a = p.dims[0]

    def trial(rng: np.random.Generator) -> float:
        filt = _random_filter(rng, d_a)
        return float(np.abs(recompose(decompose(filt)).matrix - filt.matrix).max())

    return _suite("decompose-roundtrip", 1e-12, 23, trials, seed, trial)


def check_cross_ratio_monotonicity(
    p_ab: BipartiteDistribution, trials: int, seed: int
) -> CheckOutcome:
    """vartheta invariance/monotonicity on the enlarged marginal."""
    enlarged = embed(_unit_scaled(p_ab))
    size = enlarged.dims[0]
    base = vartheta(enlarged)
    identity = Filtration.identity(enlarged.dims[1])

    def trial(rng: np.random.Generator) -> float:
        perm = Filtration.permutation(rng.permutation(size))
        scale = Filtration.diagonal(rng.uniform(0.05, 1.0, size=size))
        gap = abs(vartheta(apply_bipartite(perm, identity, enlarged)) - base)
        gap = max(gap, abs(vartheta(apply_bipartite(scale, identity, enlarged)) - base))
        shear = lower_shear(float(rng.uniform(0.1, 5.0)), size)
        glue = row_gluing(float(rng.uniform(0.1, 5.0)), int(rng.integers(2, size)), size)
        rise = max(
            vartheta(apply_bipartite(shear, identity, enlarged)) - base,
            vartheta(apply_bipartite(glue, identity, enlarged)) - base,
        )
        return max(gap, rise)

    return _suite("cross-ratio-monotonicity", 1e-12, 29, trials, seed, trial)


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
