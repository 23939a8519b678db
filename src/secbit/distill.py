"""Advantage distillation: block filtering, analytic entropies, simulation.

The protocol's first step: both honest parties take ``N`` samples, accept
only when their own bit string alternates (0101... or 1010...), and keep
the final bit.  For the canonical partially secret distribution with
``eta00 = eta11`` and ``eta01 = eta10`` (or ``mu = 1``) the two
conditional uncertainties after that step have closed forms,

    H(a'|b') = h( eps^N / (eps^N + (1-eps)^N) )
    H(a'|e)  = h( mu^N  / (eps^N + (1-eps)^N) )

with ``eps`` the per-sample disagreement probability and ``h`` the binary
entropy.  The second step (information reconciliation plus privacy
amplification) succeeds exactly when ``H(a'|b') < H(a'|e)``; only that
entropy condition is evaluated here, never the coding itself.

All N-th powers are computed in log space (plain ``eps**N`` underflows
near ``N ~ 500``), the exact statistics of any binary input included:
they have a closed form, since an accepted string pair is fixed by its
two starting bits.  The simulator draws the blocks column by column, one
uniform draw per block still alive, so a block costs at most 3 draws in
expectation at any ``N`` and the memory is that of one column of a chunk.
It never materializes the symbols: it reads each draw's honest cell off
by comparing it with three cdf thresholds, and whether Eve's symbol is 0
by comparing it with four more.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import CanonicalParams, TripartiteDistribution, _is_integer, _require_count, _unit_scale
from .errors import (
    EmptyBlockError,
    InvalidParamsError,
    NotNormalizedError,
    OutOfRangeError,
    RatioOutOfRangeError,
)
from .measures import _require_binary

#: Strictness margin for the entropy condition; the family with
#: ``eta01 + eta10 = 1`` makes the two entropies exactly equal, and
#: floating-point noise must not report spurious success there.
STRICTNESS_MARGIN = 1e-12

_SIM_CHUNK = 1 << 16


def binary_entropy(r: float) -> float:
    """Shannon entropy of the distribution ``(r, 1-r)`` in bits.

    ``0 log 0`` is read as 0, so the endpoints give zero entropy.
    """
    if not (0.0 <= r <= 1.0):
        raise OutOfRangeError(f"binary entropy argument must lie in [0, 1], got {r}")
    if r == 0.0 or r == 1.0:
        return 0.0
    return float(-r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _alternating_ratios(eps: float, mu: float, n: int) -> tuple[float, float]:
    """``eps^N`` and ``mu^N`` over ``eps^N + (1-eps)^N`` in log space, with ``log 0 = -inf``.

    The block error and the blind-Eve ratio share the one denominator.
    """
    log_eps, log_agree = n * _log(eps), n * _log(1.0 - eps)
    # ``np.logaddexp``'s formula, bit for bit, without its per-call cost on Python floats.
    if log_eps == log_agree:
        log_den = log_eps + math.log(2.0)
    else:
        high, low = (log_eps, log_agree) if log_eps > log_agree else (log_agree, log_eps)
        log_den = high + math.log1p(math.exp(low - high))
    return math.exp(log_eps - log_den), math.exp(n * _log(mu) - log_den)


def _closed_form_ratios(params: CanonicalParams, block_length: int) -> tuple[int, float, float]:
    """The block length as an ``int``, the block error and the blind-Eve ratio.

    The closed forms assume the two agreeing cells and the two disagreeing
    cells are equally likely, ``eta00 = eta11`` and ``eta01 = eta10`` (to
    within 1e-12), or that Eve never learns the bits (``mu = 1``); other
    parameters raise :class:`InvalidParamsError`.  The blind-Eve ratio
    cannot exceed one for valid parameters (``eps <= 1 - mu`` forces
    ``mu <= 1 - eps``); a defensive check reports corruption otherwise.
    """
    block_length = _require_count(block_length, "block length")
    eta00, eta01, eta10, eta11 = params.eta
    if params.mu < 1.0 and not (abs(eta00 - eta11) <= 1e-12 and abs(eta01 - eta10) <= 1e-12):
        raise InvalidParamsError(
            f"the closed forms need eta00 = eta11 and eta01 = eta10, or mu = 1; got mu {params.mu}, eta {params.eta}"
        )
    error_rate, ratio = _alternating_ratios(params.epsilon, params.mu, block_length)
    if ratio > 1.0 + 1e-12:
        raise RatioOutOfRangeError(f"blind-Eve ratio {ratio} exceeds 1; corrupt parameters")
    return block_length, error_rate, min(ratio, 1.0)


def block_error_rate(params: CanonicalParams, block_length: int) -> float:
    """Probability the kept bits differ, conditioned on both accepting.

    Equals ``eps^N / (eps^N + (1-eps)^N)``, evaluated in log space, for
    symmetric ``eta`` or ``mu = 1`` (see :func:`_closed_form_ratios`).
    """
    return _closed_form_ratios(params, block_length)[1]


def bob_uncertainty(params: CanonicalParams, block_length: int) -> float:
    """Bob's remaining uncertainty about Alice's kept bit, ``h`` of the block error."""
    return binary_entropy(block_error_rate(params, block_length))


def eve_uncertainty(params: CanonicalParams, block_length: int) -> float:
    """Eve's remaining uncertainty about Alice's kept bit.

    ``h`` of ``mu^N / (eps^N + (1-eps)^N)``, the conditional probability
    that Eve learned nothing from an accepted block, for symmetric ``eta``
    or ``mu = 1`` (see :func:`_closed_form_ratios`).
    """
    return binary_entropy(_closed_form_ratios(params, block_length)[2])


@dataclass(frozen=True)
class ProtocolReport:
    """Analytic quantities of the first protocol step at one block length."""

    params: CanonicalParams
    block_length: int
    epsilon: float
    block_error_rate: float
    bob_uncertainty: float
    eve_uncertainty: float
    satisfied: bool

    def __post_init__(self) -> None:
        if not (0.0 <= self.block_error_rate <= 0.5):
            raise InvalidParamsError("block error rate must lie in [0, 1/2]")
        for h in (self.bob_uncertainty, self.eve_uncertainty):
            if not (0.0 <= h <= 1.0):
                raise InvalidParamsError("entropies must lie in [0, 1]")


def protocol_report(params: CanonicalParams, block_length: int) -> ProtocolReport:
    """Evaluate all analytic quantities at a fixed block length."""
    block_length, error_rate, eve_ratio = _closed_form_ratios(params, block_length)
    bob = binary_entropy(error_rate)
    eve = binary_entropy(eve_ratio)
    return ProtocolReport(
        params=params,
        block_length=block_length,
        epsilon=params.epsilon,
        block_error_rate=error_rate,
        bob_uncertainty=bob,
        eve_uncertainty=eve,
        satisfied=eve - bob > STRICTNESS_MARGIN,
    )


def minimal_block_length(params: CanonicalParams, n_max: int) -> Optional[ProtocolReport]:
    """Smallest block length making Bob strictly less uncertain than Eve.

    Returns None when no ``N <= n_max`` satisfies the condition; that
    includes the degenerate perfect-secrecy case ``eps = 0`` (both
    uncertainties vanish) and the family ``eta01 + eta10 = 1``, where the
    two uncertainties coincide for every ``N``.
    """
    n_max = _require_count(n_max, "n_max")
    for n in range(1, n_max + 1):
        report = protocol_report(params, n)
        if report.satisfied:
            return report
    return None


def string_filter(block: Sequence[int] | str) -> Optional[tuple[int, int]]:
    """Accept a block iff its bits alternate; report variant and kept bit.

    Returns ``(first_bit, last_bit)`` on acceptance — the variant label is
    the starting bit, the symbol kept by the party is the final bit — and
    None on rejection.  A string holds the characters ``'0'`` and ``'1'``,
    a sequence the integers 0 and 1 (Python or numpy, not bools).
    """
    bits = list(block)
    if not bits:
        raise EmptyBlockError("protocol blocks must contain at least one bit")
    if not all(x in ("0", "1") if isinstance(block, str) else _is_integer(x) and x in (0, 1) for x in bits):
        raise InvalidParamsError("blocks must consist of bits")
    bits = [int(x) for x in bits]
    start = bits[0]
    if any(bits[i] != (start + i) % 2 for i in range(len(bits))):
        return None
    return start, bits[-1]


def _cuts_at_or_below(u: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """How many of ``cuts`` lie at or below each uniform draw in ``u``, as ``int8``."""
    count = (u >= cuts[0]).view(np.int8)
    for cut in cuts[1:]:
        count += (u >= cut).view(np.int8)
    return count


@dataclass(frozen=True)
class SimulationReport:
    """Empirical counts from sampling the block protocol."""

    block_length: int
    samples: int
    seed: int
    accepted: int
    acceptance_rate: float
    disagreements: int
    disagreement_rate: float
    eve_blank_blocks: int
    eve_blank_rate: float


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
    Deterministic given the seed; samples are drawn in chunks of 2^16
    blocks with one generator per chunk, so aggregates are order-independent.

    A chunk is drawn column by column: the first column holds one uniform
    draw ``u`` for every block, and each later column one for every block
    still alive, in block order, until no block is alive or ``N`` columns
    are drawn.  A block is alive while both strings have alternated so
    far.  The symbol of a draw is that of ``Generator.choice`` over the
    flattened table: it is at least ``k`` exactly when ``u >= cdf[k-1]``.
    So the honest cell ``c = 2a + b`` is the number of the three cell ends
    ``cdf[c d_e + d_e - 1]`` at or below ``u``, and a block stays alive
    exactly when the new cell is ``c ^ 3``, both bits flipped.  The four
    symbol-0 ends ``cdf[c d_e]`` interleave the cell ends, so as many of
    them lie at or below ``u`` as cell ends do, plus one when Eve's symbol
    is not 0 (the count of all seven cuts is odd); that test is made only
    on blocks that stay alive.  Alice's string survives two more columns
    with probability ``q (1 - q) <= 1/4``, ``q`` the probability of her
    bit 1, so a block takes at most 3 draws in expectation at any ``N``,
    and the memory is that of one column of a chunk.
    """
    _require_binary(p.dims[:2])
    if abs(p.mass - 1.0) > 1e-9:
        raise NotNormalizedError(f"distribution mass {p.mass} is not 1")
    samples = _require_count(samples, "samples")
    block_length = _require_count(block_length, "block length")
    seed = _require_count(seed, "seed", minimum=0)

    d_e = p.dims[2]
    flat = p.table.ravel()
    flat = flat / flat.sum()
    # ``Generator.choice``'s cdf, computed as it computes it, so that the
    # thresholds split the uniform draws exactly as its ``searchsorted`` does.
    cdf = flat.cumsum()
    cdf /= cdf[-1]
    cell_ends = cdf[d_e - 1 : 3 * d_e : d_e]
    blank_ends = cdf[: 4 * d_e : d_e]

    # Every column is drawn into one buffer.  A fresh 512 KB array per
    # column let malloc hand the heap back after each call, and the next
    # call took hundreds of page faults to map it again.
    draws = np.empty(min(_SIM_CHUNK, samples))
    accepted = disagreements = eve_blank = 0
    for chunk_index, start in enumerate(range(0, samples, _SIM_CHUNK)):
        rng = np.random.default_rng([seed, chunk_index])
        u = rng.random(out=draws[: min(_SIM_CHUNK, samples - start)])
        last = _cuts_at_or_below(u, cell_ends)  # the last honest cell of each live block
        blank = _cuts_at_or_below(u, blank_ends) == last
        for _ in range(1, block_length):
            if not len(last):
                break
            u = rng.random(out=draws[: len(last)])
            cells = _cuts_at_or_below(u, cell_ends)
            stay = np.flatnonzero((cells ^ last) == 3)
            last, u = cells.take(stay), u.take(stay)
            blank = blank.take(stay) & (_cuts_at_or_below(u, blank_ends) == last)
        accepted += len(last)
        disagreements += int(np.count_nonzero((last >> 1) != (last & 1)))
        eve_blank += int(np.count_nonzero(blank))

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


@np.errstate(divide="ignore")
def _alternating_log_probs(cells: np.ndarray, n: int) -> np.ndarray:
    """Log-probabilities of the four alternating string pairs, by starting bits.

    The pair starting at ``(x, y)`` visits cell ``(x, y)`` ``ceil(N/2)``
    times and ``(1-x, 1-y)`` ``floor(N/2)`` times; a cell visited zero
    times adds nothing (not ``0 * log 0``).
    """
    logs = np.log(cells)
    head = (n - n // 2) * logs
    return head + (n // 2) * logs[::-1, ::-1] if n > 1 else head


def exact_block_statistics(
    p: TripartiteDistribution, block_length: int
) -> dict[str, float]:
    """Exact accept/disagree/blank-Eve probabilities for any binary input.

    An accepted string pair is fixed by its two starting bits, so the four
    pairs have closed-form probabilities, summed in log space with no
    symmetry assumptions: O(1) in ``N``, and finite at any ``N`` unless no
    pair can be accepted (then the two conditional rates are ``nan``).
    The table is normalized at the scale of :func:`_unit_scale`, so a
    near-overflow table's sum does not overflow.  Serves as the
    simulator's analytic column.
    """
    _require_binary(p.dims[:2])
    block_length = _require_count(block_length, "block length")
    t = _unit_scale(p.table)
    t = t / t.sum()
    pairs = _alternating_log_probs(t.sum(axis=2), block_length)
    log_accept = np.logaddexp.reduce(pairs.ravel())
    log_diff = np.logaddexp(pairs[0, 1], pairs[1, 0])
    log_blank = np.logaddexp.reduce(_alternating_log_probs(t[:, :, 0], block_length).ravel())
    with np.errstate(invalid="ignore"):  # -inf - -inf is nan: nothing can be accepted
        return {
            "acceptance_rate": float(np.exp(min(log_accept, 0.0))),  # rounding can pass 1 at N = 1
            "disagreement_rate": float(np.exp(log_diff - log_accept)),
            "eve_blank_rate": float(np.exp(log_blank - log_accept)),
        }
