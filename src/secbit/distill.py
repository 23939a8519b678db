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
two starting bits.  The simulator draws at most ``_SIM_CELLS`` symbols at
a time, so its memory does not grow with ``N``, however long a block: a
block longer than ``_SIM_CELLS // 64`` = 2048 symbols is read alone, in
column blocks, and the rest of it is skipped once either string breaks.
It never materializes the symbols:
it keeps the uniform draws behind them and reads the honest bits off by
comparing each draw with three cdf thresholds, and whether Eve's symbol
is 0 only in the accepted blocks, by comparing each draw with one more
threshold, that of its honest cell.
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
# Symbols per draw, at any block length: 9-15 bytes each at the peak.
# A draw of 1 MB and its boolean temporaries fit a 2 MB L2 cache together;
# 2^15 or 2^16 symbols cost more calls than they save.  A block longer than
# a 64th of this, 2048 symbols, is read alone, in column blocks.
_SIM_CELLS = 1 << 17


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


def _alternates(bits: np.ndarray) -> np.ndarray:
    """The rows of a 2-D bit array in which every adjacent pair differs.

    Equals ``np.diff(bits, axis=1).all(axis=1)``, which is slow on rows of
    a few entries: the rows are tested one column pair at a time, and every
    fourth pair the test stops once no row survives.  A single column has
    no pair, so every row alternates.
    """
    ok = np.ones(len(bits), dtype=bool)
    for k in range(bits.shape[1] - 1):
        if k % 4 == 3 and not ok.any():
            break
        ok &= bits[:, k] != bits[:, k + 1]
    return ok


def _eve_blank(u: np.ndarray, a_bits: np.ndarray, b_bits: np.ndarray, blank_cuts: np.ndarray) -> np.ndarray:
    """The rows of draws ``u`` in which every Eve symbol is 0.

    A draw in honest cell ``c = 2a + b`` is one of that cell's flat indices
    ``c d_e .. c d_e + d_e - 1``, and it is the first, Eve's symbol 0,
    exactly when it lies below ``cdf[c d_e]``; ``blank_cuts`` holds those
    four thresholds.  A zero-probability symbol 0 leaves ``cdf[c d_e]``
    equal to the cell's lower end, which no draw of the cell lies below.
    """
    return (u < blank_cuts[2 * a_bits + b_bits]).all(axis=-1)


def _long_block(
    rng: np.random.Generator,
    block_length: int,
    cuts: tuple[float, float, float],
    blank_cuts: np.ndarray,
) -> tuple[int, int, int]:
    """Accepted, disagreeing and Eve-blank counts, each 0 or 1, of one block read alone.

    A block longer than ``_SIM_CELLS // 64`` = 2048 symbols, of which a
    draw would hold fewer than 64, is read alone, in column blocks of 64
    columns, doubling up to ``_SIM_CELLS``: a block that breaks early then
    costs one small draw.  Each honest party's last bit and whether Eve's
    symbols are all 0 carry from one column block to the next.  At the
    first column block where either string breaks, the generator skips the
    rest of the block, so the stream is that of one draw of the whole block.
    """
    alice_cut, low_cut, high_cut = cuts
    last_a = last_b = -1  # no bit equals -1, so the first column block has no predecessor to match
    blank, done, width = True, 0, 64
    while done < block_length:
        u = rng.random(min(width, _SIM_CELLS, block_length - done))
        done, width = done + len(u), 2 * width
        a_bits = u >= alice_cut
        # Bob's bits are needed only where Alice's alternate.
        if a_bits[0] != last_a and (a_bits[1:] != a_bits[:-1]).all():
            b_bits = (u >= low_cut) ^ (u >= high_cut) ^ a_bits
            if b_bits[0] != last_b and (b_bits[1:] != b_bits[:-1]).all():
                last_a, last_b = a_bits[-1], b_bits[-1]
                blank = blank and bool(_eve_blank(u, a_bits, b_bits, blank_cuts))
                continue
        rng.bit_generator.advance(block_length - done)
        return 0, 0, 0
    return 1, int(last_a != last_b), int(blank)


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
    Deterministic given the seed; samples are drawn in fixed-size chunks
    with one generator per chunk, so aggregates are order-independent,
    and each chunk in sub-blocks of at most ``_SIM_CELLS`` symbols.  A
    block longer than ``_SIM_CELLS // 64`` = 2048 symbols is read alone,
    in column blocks (:func:`_long_block`).

    The blocks are those of ``Generator.choice`` over the flattened table,
    but filtered from its uniform draws ``u``: the symbol is at least
    ``k`` exactly when ``u >= cdf[k-1]``, so Alice's bit is
    ``u >= cdf[2 d_e - 1]`` and Bob's is the parity of the three tests at
    ``d_e``, ``2 d_e`` and ``3 d_e``.  Bob's bits are tested only in the
    blocks where Alice's alternate, and whether Eve's symbols are 0 only
    in the blocks both accept: a draw in honest cell ``c = 2a + b`` gives
    Eve's symbol 0 exactly when it is below ``cdf[c d_e]``
    (:func:`_eve_blank`).
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
    cuts = cdf[2 * d_e - 1], cdf[d_e - 1], cdf[3 * d_e - 1]
    alice_cut, low_cut, high_cut = cuts
    blank_cuts = cdf[: 4 * d_e : d_e]
    rows_per_draw = _SIM_CELLS // block_length  # at least 64 where rows are drawn

    accepted = disagreements = eve_blank = 0
    for chunk_index, start in enumerate(range(0, samples, _SIM_CHUNK)):
        rng = np.random.default_rng([seed, chunk_index])
        count = min(_SIM_CHUNK, samples - start)
        # Consecutive draws from one generator continue its stream, so
        # the sub-blocks reproduce the chunk's single (count, N) draw.
        if block_length > _SIM_CELLS // 64:
            for _ in range(count):
                ok, differ, blank = _long_block(rng, block_length, cuts, blank_cuts)
                accepted, disagreements, eve_blank = accepted + ok, disagreements + differ, eve_blank + blank
            continue
        for done in range(0, count, rows_per_draw):
            u = rng.random((min(rows_per_draw, count - done), block_length))
            # Bob's bits are needed only where Alice's alternate.
            u = u.compress(_alternates(u >= alice_cut), axis=0)
            a_bits = u >= alice_cut
            b_bits = (u >= low_cut) ^ (u >= high_cut) ^ a_bits
            ok = _alternates(b_bits)
            accepted += int(np.count_nonzero(ok))
            disagreements += int(np.count_nonzero((a_bits[:, -1] ^ b_bits[:, -1]) & ok))
            blank = _eve_blank(*(x.compress(ok, axis=0) for x in (u, a_bits, b_bits)), blank_cuts)
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
