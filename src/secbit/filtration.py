"""Local stochastic operations (filtrations) and their structure theory.

A filtration is a nonnegative matrix ``D(a', a)``: with probability
``D(a', a)`` input symbol ``a`` is rewritten to ``a'``.  Column sums at
most one describe a physical operation that may fail ("proper"); larger
column sums are admitted too, because every measure downstream is scale
invariant.

Besides application to distributions this module provides:

* the reversibility test (a nonnegative matrix with a nonnegative inverse
  is exactly a scaled permutation),
* the decomposition of an arbitrary bit-output filtration into a diagonal
  scaling, "gluing" factors and symmetric mixing factors acting on an
  enlarged space, and the further factorization of each mixing step into
  six elementary matrices,
* the enlarged-space embeddings used by the cross-ratio monotonicity
  arguments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import BipartiteDistribution, TripartiteDistribution, _freeze, _is_integer, _require_count
from .errors import (
    BadShapeError,
    DimensionMismatchError,
    InvalidParamsError,
    NonSquareError,
    NotStochasticError,
    OutOfRangeError,
)

PROPER_TOLERANCE = 1e-12
STOCHASTIC_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Filtration:
    """A ``d' x d`` nonnegative matrix acting on one party's symbol."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = _freeze(self.matrix, 2, "filtration matrix")
        object.__setattr__(self, "matrix", matrix)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def proper(self) -> bool:
        """True when every column sum is at most one (may-fail operation)."""
        if self.cols == 0:
            return True
        return bool(self.matrix.sum(axis=0).max() <= 1.0 + PROPER_TOLERANCE)

    def as_proper(self) -> "Filtration":
        """Rescale so the largest column sum is one; no-op on zero matrices."""
        top = self.matrix.sum(axis=0).max() if self.cols else 0.0
        if top <= 0.0:
            return self
        return Filtration(self.matrix / top)

    def compose(self, inner: "Filtration") -> "Filtration":
        """The filtration 'apply ``inner`` first, then this one'."""
        if self.cols != inner.rows:
            raise DimensionMismatchError(
                f"cannot compose {self.rows}x{self.cols} after {inner.rows}x{inner.cols}"
            )
        return Filtration(self.matrix @ inner.matrix)

    @classmethod
    def identity(cls, d: int) -> "Filtration":
        """The ``d x d`` identity.

        A filtration is read-only, so up to 64 symbols this is one shared
        instance per class and size; a larger one is built afresh, so the
        shared ones hold under 1 MB.  The size is checked first: a bool is
        refused, never served the identity of size 1 that ``True`` would
        hash to.
        """
        d = _require_count(d, "size", minimum=0)
        return _identity(cls, d) if d <= 64 else cls(np.eye(d))

    @classmethod
    def diagonal(cls, weights: Sequence[float]) -> "Filtration":
        return cls(np.diag(np.asarray(weights, dtype=float)))

    @classmethod
    def permutation(cls, order: Sequence[int]) -> "Filtration":
        """Matrix sending input ``order[i]`` to output ``i``; ``order`` holds each of ``0 .. d-1`` once."""
        order = list(order)
        d = len(order)
        _require_order(order, d, "order")
        matrix = np.zeros((d, d))
        matrix[np.arange(d), order] = 1.0
        return cls(matrix)

    @classmethod
    def coin_toss(cls, d: int) -> "Filtration":
        """Discard the input and output a uniform bit."""
        return cls(np.full((2, _require_count(d, "size", minimum=0)), 0.5))


def _require_order(order: list, d: int, name: str) -> None:
    """Refuse ``order`` unless it holds each integer ``0 .. d-1`` exactly once."""
    if not all(map(_is_integer, order)) or sorted(order) != list(range(d)):
        raise InvalidParamsError(f"{name} must hold each integer 0..{d - 1} once, got {order}")


@lru_cache(maxsize=64)
def _identity(cls: type[Filtration], d: int) -> Filtration:
    """The shared identities of :meth:`Filtration.identity`, by class and size."""
    return cls(np.eye(d))


def apply(d_a: Filtration, j_b: Filtration, p: TripartiteDistribution) -> TripartiteDistribution:
    """Filter Alice's and Bob's symbols; Eve's alphabet is untouched.

    The filtered table is checked as every table is: one that is
    identically zero (the filtration fails with certainty) raises
    :class:`ZeroMassError`, reported rather than normalized away, and one
    with an entry past the float maximum raises :class:`InvalidParamsError`.
    """
    if d_a.cols != p.dims[0] or j_b.cols != p.dims[1]:
        raise DimensionMismatchError(
            f"filters with {d_a.cols} and {j_b.cols} inputs cannot act on dims {p.dims}"
        )
    return TripartiteDistribution(np.einsum("ia,jb,abe->ije", d_a.matrix, j_b.matrix, p.table))


def apply_bipartite(
    d_a: Filtration, j_b: Filtration, p_ab: BipartiteDistribution
) -> BipartiteDistribution:
    """Bipartite counterpart of :func:`apply`."""
    if d_a.cols != p_ab.dims[0] or j_b.cols != p_ab.dims[1]:
        raise DimensionMismatchError(
            f"filters with {d_a.cols} and {j_b.cols} inputs cannot act on dims {p_ab.dims}"
        )
    # An overflowed product times a zero entry is nan; either fails the table's check.
    with np.errstate(over="ignore", invalid="ignore"):
        table = d_a.matrix @ p_ab.table @ j_b.matrix.T
    return BipartiteDistribution(table)


def apply_eve(y_e: Filtration, p: TripartiteDistribution) -> TripartiteDistribution:
    """Degrade Eve's symbol through a column-stochastic matrix.

    Eve cannot make the honest parties reject, so her operations must
    preserve all mass: every column of ``y_e`` has to sum to exactly one.
    """
    if y_e.cols != p.dims[2]:
        raise DimensionMismatchError(
            f"Eve operation with {y_e.cols} inputs cannot act on alphabet {p.dims[2]}"
        )
    sums = y_e.matrix.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > STOCHASTIC_TOLERANCE):
        raise NotStochasticError(f"column sums {sums.tolist()} are not all 1")
    return TripartiteDistribution(np.einsum("fe,abe->abf", y_e.matrix, p.table))


def reversible_inverse(d: Filtration) -> Filtration | None:
    """The entrywise-nonnegative inverse of ``d``, or None when none exists.

    A nonnegative matrix has a nonnegative inverse exactly when it is a
    scaled permutation (one positive entry per row and per column), so the
    test is structural rather than numeric.
    """
    if d.rows != d.cols:
        raise NonSquareError(f"reversibility needs a square matrix, got {d.rows}x{d.cols}")
    positive = d.matrix > 0.0
    if np.any(positive.sum(axis=0) != 1) or np.any(positive.sum(axis=1) != 1):
        return None
    inverse = np.zeros_like(d.matrix)
    rows, cols = np.nonzero(positive)
    inverse[cols, rows] = 1.0 / d.matrix[rows, cols]
    return Filtration(inverse)


def is_reversible(d: Filtration) -> bool:
    """True when ``d`` can be probabilistically undone."""
    return reversible_inverse(d) is not None


def _mixing_column(mu: float) -> tuple[float, float]:
    """Column 0 of :func:`mixing_matrix`, ``(1 - mu, mu)``, with its range check."""
    if not (0.0 <= mu <= 0.5):
        raise OutOfRangeError(f"mixing parameter must lie in [0, 1/2], got {mu}")
    return 1.0 - mu, mu


def mixing_matrix(mu: float) -> Filtration:
    """The symmetric bit-noise matrix ``[[1-mu, mu], [mu, 1-mu]]``.

    Composition law: ``M(x) M(y) = M(x + y - 2xy)``.
    """
    stay, flip = _mixing_column(mu)
    return Filtration(np.array([[stay, flip], [flip, stay]]))


@dataclass(frozen=True)
class DecompositionStep:
    """Per-input factor data: bias (the favored output row, 0 or 1), target mixing and solved increment."""

    source_column: int
    weight: float
    omega: int
    mu: float
    nu: float

    def __post_init__(self) -> None:
        if not (_is_integer(self.omega) and self.omega in (0, 1)):
            raise InvalidParamsError(f"bias omega must be the integer 0 or 1, got {self.omega!r}")


@dataclass(frozen=True)
class DecompositionFactors:
    """Ordered factorization of a bit-output filtration.

    Relabeled input slot ``k`` (``k = 0`` carries the most mixed input)
    lives at coordinate ``k + 2`` of the enlarged ``(d+2)``-dimensional
    space; coordinates 0 and 1 carry the output bit.  The steps' source
    columns hold each input column exactly once; ``permutation[k]`` is the
    original column stored at slot ``k``.
    """

    input_dim: int
    steps: tuple[DecompositionStep, ...]

    def __post_init__(self) -> None:
        columns, d = list(self.permutation), _require_count(self.input_dim, "input_dim", minimum=0)
        for c in columns:
            if not (_is_integer(c) and 0 <= c < d):
                raise InvalidParamsError(f"source column {c!r} outside 0..{d - 1}")
        _require_order(columns, d, "source columns")

    @property
    def permutation(self) -> tuple[int, ...]:
        return tuple(step.source_column for step in self.steps)

    @property
    def size(self) -> int:
        return self.input_dim + 2

    def scaling_matrix(self) -> np.ndarray:
        """Diagonal per-input weights on the enlarged space."""
        scale = np.zeros((self.size, self.size))
        for k, step in enumerate(self.steps):
            scale[k + 2, k + 2] = step.weight
        return scale

    def gluing_matrix(self, k: int) -> np.ndarray:
        """Identity plus the unit entry copying slot ``k`` to its bias row."""
        glue = np.eye(self.size)
        glue[self.steps[k].omega, k + 2] += 1.0
        return glue

    def mixing_step_matrix(self, k: int) -> np.ndarray:
        """Bit-block mixing by the solved increment, identity elsewhere."""
        mix = np.eye(self.size)
        mix[:2, :2] = mixing_matrix(self.steps[k].nu).matrix
        return mix

    def enlarged_product(self) -> np.ndarray:
        """Product of all elementary factors, output block kept.

        Multiplies the bit-block projector, the mixing and gluing factors
        from the last slot down to the first, and the scaling; the 2 x d
        block at rows {0, 1}, columns {2, .., d+1} reproduces the source
        filtration in relabeled column order.
        """
        projector = np.zeros((self.size, self.size))
        projector[0, 0] = projector[1, 1] = 1.0
        product = projector
        for k in reversed(range(len(self.steps))):
            product = product @ self.mixing_step_matrix(k) @ self.gluing_matrix(k)
        return product @ self.scaling_matrix()


def decompose(d: Filtration) -> DecompositionFactors:
    """Factor a ``2 x d`` filtration into scaling, gluing and mixing steps.

    Each input column is summarized by its weight, its bias (which output
    the column favors) and its mixing (how far from deterministic the
    favored output is).  Columns are relabeled in order of decreasing
    mixing — ties broken by original index, dead columns last — and the
    mixing increments ``nu`` are then solved sequentially through the
    composition law so the ordered product of the factors reproduces the
    original matrix.
    """
    if d.rows != 2:
        raise BadShapeError(f"decomposition needs a bit-output filtration, got {d.rows} rows")
    matrix = d.matrix
    summaries = []
    for c in range(d.cols):
        top, bottom = matrix[0, c], matrix[1, c]
        weight = top + bottom
        omega = 0 if top >= bottom else 1
        mu = 0.0 if weight == 0.0 else 1.0 - matrix[omega, c] / weight
        summaries.append((c, weight, omega, mu))
    order = sorted(summaries, key=lambda s: (-s[3], s[1] == 0.0, s[0]))

    steps: list[DecompositionStep] = []
    accumulated = None
    for c, weight, omega, mu in reversed(order):
        if accumulated is None:
            nu = mu
        elif 1.0 - 2.0 * accumulated <= 0.0:
            nu = 0.0
        else:
            nu = (mu - accumulated) / (1.0 - 2.0 * accumulated)
        nu = min(max(nu, 0.0), 0.5)
        accumulated = mu
        steps.append(DecompositionStep(c, weight, omega, mu, nu))
    steps.reverse()

    return DecompositionFactors(input_dim=d.cols, steps=tuple(steps))


def recompose(factors: DecompositionFactors) -> Filtration:
    """Rebuild the ``2 x d`` filtration from its factor data.

    Column ``c`` is its weight times the mixing matrix applied to the unit
    vector of its bias: ``weight * M(mu) e_omega``, that is
    ``weight * (1 - mu, mu)``, swapped when ``omega = 1``.
    """
    matrix = np.zeros((2, factors.input_dim))
    for step in factors.steps:
        stay, flip = _mixing_column(step.mu)
        top, bottom = ((stay, flip), (flip, stay))[step.omega]
        matrix[:, step.source_column] = top * step.weight, bottom * step.weight
    return Filtration(matrix)


def factor_mixing_step(nu: float) -> tuple[Filtration, ...]:
    """Six elementary ``2 x 2`` factors whose ordered product is ``M(nu)``.

    Returns ``(K1, T, K2, K3, T, K3)`` with ``K1 = (1-nu) I``,
    ``T`` the lower shear by ``nu/(1-nu)``, ``K2 = diag(1, 1-(nu/(1-nu))^2)``
    and ``K3`` the bit swap.  The shear factors are the only irreversible
    ones (for ``nu > 0``).
    """
    if not (0.0 <= nu <= 0.5):
        raise OutOfRangeError(f"mixing increment must lie in [0, 1/2], got {nu}")
    r = nu / (1.0 - nu)
    k1 = Filtration(np.array([[1.0 - nu, 0.0], [0.0, 1.0 - nu]]))
    t = Filtration(np.array([[1.0, 0.0], [r, 1.0]]))
    k2 = Filtration(np.array([[1.0, 0.0], [0.0, 1.0 - r * r]]))
    k3 = Filtration(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return (k1, t, k2, k3, t, k3)


def embed(p_ab: BipartiteDistribution) -> BipartiteDistribution:
    """Shift a bipartite distribution into the enlarged index space.

    The result is ``(d_A+2) x (d_B+2)`` with the first two rows and
    columns zero and ``P`` occupying the remaining block.
    """
    d_a, d_b = p_ab.dims
    table = np.zeros((d_a + 2, d_b + 2))
    table[2:, 2:] = p_ab.table
    return BipartiteDistribution(table)


def embed_filtration(d: Filtration) -> Filtration:
    """Square enlarged form of a bit-output filtration.

    Places the ``2 x d`` block at rows {0, 1} x columns {2, .., d+1} and
    the identity on the shifted input coordinates, so enlarged filters
    applied to an enlarged distribution reproduce the ordinary filtered
    distribution on the bit block.
    """
    if d.rows != 2:
        raise BadShapeError(f"embedding needs a bit-output filtration, got {d.rows} rows")
    size = d.cols + 2
    matrix = np.zeros((size, size))
    matrix[:2, 2:] = d.matrix
    matrix[np.arange(2, size), np.arange(2, size)] = 1.0
    return Filtration(matrix)


def lower_shear(r: float, size: int) -> Filtration:
    """Enlarged-space shear: identity plus ``r`` copying row 0 into row 1; ``size`` is at least 2."""
    if r < 0.0:
        raise OutOfRangeError(f"shear parameter must be nonnegative, got {r}")
    matrix = np.eye(_require_count(size, "size", minimum=2))
    matrix[1, 0] = r
    return Filtration(matrix)


def row_gluing(r: float, column: int, size: int) -> Filtration:
    """Enlarged-space gluing: identity plus ``r`` copying ``column`` into row 0."""
    if r < 0.0:
        raise OutOfRangeError(f"gluing parameter must be nonnegative, got {r}")
    size = _require_count(size, "size")
    if not (_is_integer(column) and 0 <= column < size):
        raise BadShapeError(f"column {column!r} outside a {size}-dimensional space")
    matrix = np.eye(size)
    matrix[0, column] += r
    return Filtration(matrix)
