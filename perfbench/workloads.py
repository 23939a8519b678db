"""The three benchmark workloads.

A workload is an endless, seeded sequence of jobs.  Each job has three
parts:

* preparation (untimed): generate the inputs from the seed and write
  them as JSON files in the library's documented formats;
* ``run`` (timed): read every input back through ``secbit.fileio`` and
  make the library calls a user would make;
* ``check`` (untimed): compare every output with an independent
  reference and count failures.

The library is always reached through module attributes (``sb.x``,
``fileio.x``) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import secbit as sb
from secbit import fileio, properties

# ---------------------------------------------------------------- common


# Checks that the program at the commit that added the benchmark is
# known to miss on some inputs, grouped by the metric that reports them:
#
# * ``accuracy_frac``: the grid oracle ends within 2e-2 of the exact
#   closed form.  It misses on a few instances in a hundred, on other
#   instances at each seed.
# * ``exact_pass_frac``: ``exact_block_statistics`` agrees with
#   ``block_error_rate`` on the ladder up to N = 2000.  It underflows
#   from N ~ 300 and is nan at N = 2000, on every round.
#
# These checks still run on every job.  Each group's pass share is an
# end-to-end metric with a bound, so a further miss shows as a drop and
# a fix as a rise.  They do not count in ``attempted``/``failed`` and do
# not decide ``correct``.  Every other check must pass at any seed.
REPORTED_KINDS = {
    "accuracy_frac": frozenset({"oracle-within-2e-2"}),
    "exact_pass_frac": frozenset({"exact-vs-block-error-rate"}),
}
_REPORTED = frozenset().union(*REPORTED_KINDS.values())


@dataclass
class Tally:
    """Checked operations and failures by kind, and named sums for metrics."""

    checks: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    sums: defaultdict = field(default_factory=lambda: defaultdict(float))
    job_s: list = field(default_factory=list)

    def check(self, ok: bool, kind: str) -> None:
        self.checks[kind] += 1
        if not ok:
            self.failures[kind] += 1

    @property
    def attempted(self) -> int:
        """Checks outside the ``REPORTED_KINDS``."""
        return sum(count for kind, count in self.checks.items() if kind not in _REPORTED)

    @property
    def failed(self) -> int:
        """Failed checks outside the ``REPORTED_KINDS``."""
        return sum(count for kind, count in self.failures.items() if kind not in _REPORTED)

    def pass_frac(self, kinds: frozenset | None = None) -> float:
        """Product over check kinds of the share of that kind's checks that passed.

        A kind that loses a tenth of its passes lowers the product by a
        tenth, however many checks it has and however many other kinds
        there are, so the three simulator checks of a round are not
        drowned out by the hundreds of kernel checks.  The product runs
        over ``kinds`` if given and over every kind outside the
        ``REPORTED_KINDS`` if not; it is 1 when no such kind was checked.
        """
        shares = (
            1.0 - self.failures[kind] / count
            for kind, count in self.checks.items()
            if (kind in kinds if kinds is not None else kind not in _REPORTED)
        )
        return math.prod(shares, start=1.0)


@dataclass
class Job:
    run: Callable[[], object]
    check: Callable[[object, Tally], None]


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_bipartite(path: Path, m: np.ndarray) -> Path:
    entries = [
        {"a": a, "b": b, "p": float(m[a, b])}
        for a in range(m.shape[0])
        for b in range(m.shape[1])
        if m[a, b] != 0.0
    ]
    return _write(path, {"dims": {"a": m.shape[0], "b": m.shape[1]}, "entries": entries})


def write_tripartite(path: Path, t: np.ndarray) -> Path:
    entries = [
        {"a": a, "b": b, "e": e, "p": float(t[a, b, e])}
        for a in range(t.shape[0])
        for b in range(t.shape[1])
        for e in range(t.shape[2])
        if t[a, b, e] != 0.0
    ]
    dims = {"a": t.shape[0], "b": t.shape[1], "e": t.shape[2]}
    return _write(path, {"dims": dims, "entries": entries})


def write_filtration(path: Path, f: np.ndarray) -> Path:
    return _write(path, {"rows": f.shape[0], "cols": f.shape[1], "entries": f.tolist()})


def reference_cross_ratio(m: np.ndarray, copies: int = 1) -> float:
    """``max(1/2, 1 / (1 + omega_min^(copies/2)))`` by one vectorized scan.

    ``omega_min`` is the smallest ``P(a0,b1) P(a1,b0) / P(a0,b0) P(a1,b1)``
    over ``a0 < a1``, ``b0 != b1`` with a nonzero denominator.  This is
    the decoupled MESBF, its N-copy form and ``vartheta``, written
    independently of the library's loops.
    """
    a0, a1 = np.triu_indices(m.shape[0], 1)
    b0, b1 = np.nonzero(~np.eye(m.shape[1], dtype=bool))
    w = m[a0][:, b0] * m[a1][:, b1]
    x = m[a0][:, b1] * m[a1][:, b0]
    live = w > 0.0
    if not live.any():
        return 0.5
    omega_min = float((x[live] / w[live]).min())
    return max(0.5, 1.0 / (1.0 + omega_min ** (copies / 2.0)))


def reference_sbf(t: np.ndarray) -> float:
    return float(2.0 * np.minimum(t[0, 0, :], t[1, 1, :]).sum() / t.sum())


def satellite_table(err_a: float, err_b: float, err_e: float) -> np.ndarray:
    """A uniform bit broadcast through three binary symmetric channels."""
    channels = [np.array([[1.0 - r, r], [r, 1.0 - r]]) for r in (err_a, err_b, err_e)]
    return 0.5 * np.einsum("ar,br,er->abe", *channels)


def canonical_table(mu: float, eta: tuple[float, float, float, float]) -> np.ndarray:
    """The canonical partially secret distribution, Eve's symbol 0 secret."""
    t = np.zeros((2, 2, 5))
    t[0, 0, 0] = t[1, 1, 0] = mu / 2.0
    t[0, 0, 1] = (1.0 - mu) * eta[0]
    t[1, 1, 2] = (1.0 - mu) * eta[3]
    t[0, 1, 3] = (1.0 - mu) * eta[1]
    t[1, 0, 4] = (1.0 - mu) * eta[2]
    return t


def _normalized(rng: np.random.Generator, shape, low: float = 0.1) -> np.ndarray:
    t = rng.uniform(low, 1.0, size=shape)
    return t / t.sum()


def _within_sigma(count: float, trials: float, p: float, k: float = 5.0) -> bool:
    """``count`` of ``trials`` Bernoulli(p) draws is within ``k`` sigma (+1)."""
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        return False
    return abs(count - trials * p) <= k * math.sqrt(trials * p * (1.0 - p)) + 1.0


# ------------------------------------------------------------ oracle-grid

# Shapes and grid resolutions of acceptance criterion 3; the 2x2 table of
# a cycle is solved at 12 and at 40 grid points.
ORACLE_CYCLE = ((2, 2, 12), (2, 3, 12), (3, 2, 12), (3, 3, 12), (4, 4, 12), (2, 2, 40))


def oracle_job(seed: int, index: int, workdir: Path) -> Job:
    cycle, pos = divmod(index, len(ORACLE_CYCLE))
    d_a, d_b, points = ORACLE_CYCLE[pos]
    rng = np.random.default_rng([seed, cycle, d_a, d_b])
    path = write_bipartite(workdir / "ab.json", _normalized(rng, (d_a, d_b)))
    cfg = sb.SearchConfig(seed=seed, grid_points=points)

    def run():
        p_ab = fileio.read_bipartite(path)
        return p_ab, sb.brute_force_mesbf(sb.point_mass_eve(p_ab), cfg)

    def check(out, tally: Tally) -> None:
        p_ab, result = out
        closed = sb.mesbf_decoupled(p_ab).value
        gap = closed - result.value
        tally.check(gap >= -1e-9, "oracle-not-above-closed-form")
        tally.check(gap <= 2e-2, "oracle-within-2e-2")
        tally.sums["gap"] += gap

    return Job(run, check)


# --------------------------------------------------------- coupled-search

SEARCH_SHAPES = ((2, 2, 3), (2, 3, 4), (3, 3, 2))


def search_job(seed: int, index: int, workdir: Path) -> Job:
    cycle, pos = divmod(index, 1 + len(SEARCH_SHAPES))
    if pos == 0:
        table = satellite_table(0.2, 0.2, 0.15)
    else:
        shape = SEARCH_SHAPES[pos - 1]
        table = _normalized(np.random.default_rng([seed, cycle, *shape]), shape)
    path = write_tripartite(workdir / "abe.json", table)

    def run():
        p = fileio.read_tripartite(path)
        return p, sb.estimate_mesbf(p)

    def check(out, tally: Tally) -> None:
        p, result = out
        recomputed = sb.secret_bit_fraction(sb.apply(*result.witness, p))
        tally.check(abs(recomputed - result.value) <= 1e-12, "search-witness-recomputed")
        upper = sb.mesbf_decoupled(sb.marginal_ab(p)).value
        tally.check(result.value <= upper + 1e-9, "search-above-decoupled-bound")
        tally.sums["gap"] += upper - result.value

    return Job(run, check)


# -------------------------------------------------------------- analytics

# Fixed shapes keep the cost of a round independent of the seed; the
# seed draws the entries.
SMALL_SHAPES = tuple((a, b) for a in range(2, 7) for b in range(2, 7)) * 6
ENLARGED_BASES = tuple((a, b) for a in range(1, 5) for b in range(1, 5))
ENLARGED_REPEATS = 12
LARGE_SHAPES = ((8, 8), (16, 16), (12, 10), (9, 14), (16, 8)) * 3
BINARY_EVE = (1, 2, 3, 4, 2, 3)
PROPERTY_SHAPES = ((2, 2, 2), (2, 2, 4), (3, 4, 2), (5, 3, 1), (4, 6, 3), (6, 6, 2))
PROPERTY_TRIALS = 12
FILTER_COLS = (2, 3, 4, 5, 6, 3, 4, 5)
TENSOR_CASES = (((2, 2), 2), ((2, 2), 3), ((3, 3), 2), ((2, 3), 2))
# The canonical case mu = 0.6 with uniform eta, and a second one.  Both
# have symmetric eta, for which block_error_rate is the closed form of the
# disagreement rate, so it is the reference for exact_block_statistics.
PROTOCOL_PARAMS = ((0.6, (0.25, 0.25, 0.25, 0.25)), (0.8, (0.35, 0.15, 0.15, 0.35)))
SWEEP_MAX = 2000
EXACT_LADDER = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300, 377, 400, 610, 987, 1597, 2000)
SIM_SHORT = ((3, 100_000), (8, 100_000))
SIM_LONG = (100, 1 << 16)


def _enlarged(rng: np.random.Generator, d_a: int, d_b: int) -> np.ndarray:
    """Criterion-7 style table: ``(d_a+2) x (d_b+2)``, about 30% zeros."""
    table = rng.uniform(0.0, 1.0, size=(d_a + 2, d_b + 2))
    table[rng.random(size=table.shape) < 0.3] = 0.0
    if not table.sum() > 0.0:
        table[0, 0] = 1.0
    return table


def _proper_filter(rng: np.random.Generator, cols: int) -> np.ndarray:
    matrix = rng.uniform(0.0, 1.0, size=(2, cols))
    sums = matrix.sum(axis=0)
    sums[sums == 0.0] = 1.0
    return matrix / sums * rng.uniform(0.1, 1.0, size=cols)


def analytics_job(seed: int, index: int, workdir: Path) -> Job:
    """One round of closed-form measures, property trials and protocol work."""
    rng = np.random.default_rng([seed, index])

    def tables(prefix: str, shapes, low: float = 0.1) -> list[tuple[Path, np.ndarray]]:
        made = [_normalized(rng, shape, low) for shape in shapes]
        writer = write_bipartite if len(shapes[0]) == 2 else write_tripartite
        return [(writer(workdir / f"{prefix}{k}.json", t), t) for k, t in enumerate(made)]

    small = tables("s", SMALL_SHAPES)
    small_copies = [int(c) for c in rng.integers(2, 5, size=len(small))]
    enlarged = []
    for k, (d_a, d_b) in enumerate(ENLARGED_BASES * ENLARGED_REPEATS):
        path = write_bipartite(workdir / f"x{k}.json", _enlarged(rng, d_a, d_b))
        size_a = d_a + 2
        ops = (
            rng.permutation(size_a),
            rng.uniform(0.05, 1.0, size=size_a),
            float(rng.uniform(0.05, 10.0)),
            float(rng.uniform(0.05, 10.0)),
            float(rng.uniform(0.05, 10.0)),
            int(rng.integers(2, size_a)),
        )
        enlarged.append((path, ops))
    large = tables("l", LARGE_SHAPES)
    large_copies = [int(c) for c in rng.integers(2, 5, size=len(large))]
    binary = tables("b", [(2, 2, e) for e in BINARY_EVE], low=0.0)
    props = tables("p", PROPERTY_SHAPES)
    prop_seed = int(rng.integers(1 << 30))
    filters = [
        (write_filtration(workdir / f"f{k}.json", f), f)
        for k, f in enumerate(_proper_filter(rng, cols) for cols in FILTER_COLS)
    ]
    tensors = tables("t", [shape for shape, _ in TENSOR_CASES])
    canon = [
        (sb.CanonicalParams(mu, eta), write_tripartite(workdir / f"c{k}.json", canonical_table(mu, eta)))
        for k, (mu, eta) in enumerate(PROTOCOL_PARAMS)
    ]
    sim_seed = int(rng.integers(1 << 30))

    def run():
        clock = time.perf_counter
        small_p = [fileio.read_bipartite(p) for p, _ in small]
        enlarged_p = [(fileio.read_bipartite(p), ops) for p, ops in enlarged]
        large_p = [fileio.read_bipartite(p) for p, _ in large]
        binary_p = [fileio.read_tripartite(p) for p, _ in binary]
        props_p = [fileio.read_tripartite(p) for p, _ in props]
        filters_f = [fileio.read_filtration(p) for p, _ in filters]
        tensors_p = [fileio.read_bipartite(p) for p, _ in tensors]
        canon_p = [(params, fileio.read_tripartite(p)) for params, p in canon]

        t1 = clock()
        out: dict = {
            "small": [
                (sb.mesbf_decoupled(p).value, sb.mesbf_decoupled_power(p, c).value, sb.vartheta(p))
                for p, c in zip(small_p, small_copies)
            ]
        }
        trials = []
        for p, (perm, scale, shear_a, shear_b, glue, column) in enlarged_p:
            size_a, size_b = p.dims
            eye_a, eye_b = sb.Filtration.identity(size_a), sb.Filtration.identity(size_b)
            moved = (
                sb.vartheta(sb.apply_bipartite(sb.Filtration.permutation(perm), eye_b, p)),
                sb.vartheta(sb.apply_bipartite(sb.Filtration.diagonal(scale), eye_b, p)),
                sb.vartheta(sb.apply_bipartite(sb.lower_shear(shear_a, size_a), eye_b, p)),
                sb.vartheta(sb.apply_bipartite(eye_a, sb.lower_shear(shear_b, size_b), p)),
                sb.vartheta(sb.apply_bipartite(sb.row_gluing(glue, column, size_a), eye_b, p)),
            )
            trials.append((sb.vartheta(p), moved))
        out["enlarged"] = trials

        t2 = clock()
        out["large"] = [
            (sb.mesbf_decoupled(p).value, sb.mesbf_decoupled_power(p, c).value, sb.vartheta(p))
            for p, c in zip(large_p, large_copies)
        ]

        t3 = clock()
        out["binary"] = [
            (sb.secret_bit_fraction(p), sb.secret_bit_fraction_oracle(p), sb.mesbf_reversible(p))
            for p in binary_p
        ]
        out["props"] = [properties.run_checks(p, PROPERTY_TRIALS, prop_seed) for p in props_p]
        out["decompose"] = [sb.recompose(sb.decompose(f)) for f in filters_f]
        out["tensor"] = [
            (sb.mesbf_decoupled(sb.tensor_power(p, c)).value, sb.mesbf_decoupled_power(p, c).value)
            for p, (_, c) in zip(tensors_p, TENSOR_CASES)
        ]
        out["protocol"] = [
            (
                [sb.protocol_report(params, n).satisfied for n in range(1, SWEEP_MAX + 1)],
                sb.minimal_block_length(params, SWEEP_MAX),
                [sb.exact_block_statistics(p, n) for n in EXACT_LADDER],
            )
            for params, p in canon_p
        ]

        t4 = clock()
        canonical = canon_p[0][1]
        out["sim_short"] = [
            (n, sb.simulate_advantage_distillation(canonical, n, samples, sim_seed)) for n, samples in SIM_SHORT
        ]
        t5 = clock()
        n, samples = SIM_LONG
        out["sim_long"] = [(n, sb.simulate_advantage_distillation(canonical, n, samples, sim_seed))]
        out["seconds"] = {"small": t2 - t1, "large": t3 - t2, "sim_short": t5 - t4}
        return out

    def check(out, tally: Tally) -> None:
        for (_, table), c, values in zip(small + large, small_copies + large_copies, out["small"] + out["large"]):
            decoupled, power, theta = values
            tally.check(abs(decoupled - reference_cross_ratio(table)) <= 1e-12, "mesbf-decoupled")
            tally.check(abs(power - reference_cross_ratio(table, c)) <= 1e-12, "mesbf-decoupled-power")
            tally.check(abs(theta - reference_cross_ratio(table)) <= 1e-12, "vartheta")
        for base, moved in out["enlarged"]:
            tally.check(all(abs(v - base) <= 1e-12 for v in moved[:2]), "vartheta-invariance")
            tally.check(all(v <= base + 1e-12 for v in moved[2:]), "vartheta-shear-gluing")
        for (_, table), (sbf, lp, rev) in zip(binary, out["binary"]):
            tally.check(abs(sbf - reference_sbf(table)) <= 1e-12 and abs(sbf - lp) <= 1e-7, "sbf-vs-lp")
            # The identity is reversible, so the optimum is at least the
            # unfiltered fraction; an exact witness must reproduce it.
            ok = sbf - 1e-12 <= rev.value <= 1.0 + 1e-12
            if ok and rev.witness_kind == "exact":
                filtered = sb.apply(*rev.witness, sb.TripartiteDistribution(table)).table
                ok = abs(reference_sbf(filtered) - rev.value) <= 1e-9
            tally.check(ok, "reversible")
        for outcomes in out["props"]:
            tally.check(all(outcome.passed for outcome in outcomes), "run-checks")
        for (_, f), rebuilt in zip(filters, out["decompose"]):
            tally.check(float(np.abs(rebuilt.matrix - f).max()) < 1e-12, "decompose-roundtrip")
        for direct, closed in out["tensor"]:
            tally.check(abs(direct - closed) <= 1e-10, "tensor-power")
        for (params, _), (satisfied, best, exact) in zip(canon, out["protocol"]):
            first = next((n for n, ok in enumerate(satisfied, start=1) if ok), None)
            tally.check((best.block_length if best else None) == first, "minimal-block-length")
            for n, stats in zip(EXACT_LADDER, exact):
                ok = all(math.isfinite(v) for v in stats.values()) and math.isclose(
                    stats["disagreement_rate"], sb.block_error_rate(params, n), rel_tol=1e-9, abs_tol=0.0
                )
                tally.check(ok, "exact-vs-block-error-rate")
        canonical = sb.TripartiteDistribution(canonical_table(*PROTOCOL_PARAMS[0]))
        for n, sim in out["sim_short"] + out["sim_long"]:
            exact = sb.exact_block_statistics(canonical, n)
            ok = _within_sigma(sim.accepted, sim.samples, exact["acceptance_rate"])
            if sim.accepted:
                ok = ok and _within_sigma(sim.disagreements, sim.accepted, exact["disagreement_rate"])
                ok = ok and _within_sigma(sim.eve_blank_blocks, sim.accepted, exact["eve_blank_rate"])
            tally.check(ok, "simulator-vs-exact")

        seconds = out["seconds"]
        tally.sums["small_calls"] += 3 * len(out["small"]) + 6 * len(out["enlarged"])
        tally.sums["small_s"] += seconds["small"]
        tally.sums["large_calls"] += 3 * len(out["large"])
        tally.sums["large_s"] += seconds["large"]
        tally.sums["sim_samples"] += sum(sim.samples for _, sim in out["sim_short"])
        tally.sums["sim_s"] += seconds["sim_short"]

    return Job(run, check)


@dataclass(frozen=True)
class Workload:
    """Jobs come in cycles that cover every shape once.

    An untraced run executes ``ceil(seconds / cycle_s)`` whole cycles, so
    its job list is fixed by the seed and ``--seconds`` and every run
    weighs the shapes alike; ``cycle_s`` is the nominal length of one
    cycle (2 vCPUs, Python 3.11).  A traced run executes
    ``trace_cycles`` cycles.
    """

    make_job: Callable[[int, int, Path], Job]
    cycle_jobs: int
    cycle_s: float
    trace_cycles: int = 1

    def jobs(self, seconds: float) -> int:
        return self.cycle_jobs * max(1, math.ceil(seconds / self.cycle_s))


WORKLOADS = {
    "oracle-grid": Workload(oracle_job, len(ORACLE_CYCLE), cycle_s=14.0),
    "coupled-search": Workload(search_job, 1 + len(SEARCH_SHAPES), cycle_s=18.0),
    "analytics": Workload(analytics_job, 1, cycle_s=1.7, trace_cycles=4),
}


# Every workload's own figures; a traced run reports all of them, those of
# the other workloads as 0.
FIGURES = (
    "oracle_instances_per_s",
    "oracle_gap_mean",
    "search_instances_per_s",
    "search_gap_mean",
    "kernel_small_evals_per_s",
    "kernel_large_evals_per_s",
    "sim_samples_per_s",
)


def workload_metrics(name: str, jobs: int, run_s: float, tally: Tally) -> dict[str, float]:
    """The figures named after what this workload measures."""
    sums = tally.sums
    if name == "oracle-grid":
        return {"oracle_instances_per_s": jobs / run_s, "oracle_gap_mean": sums["gap"] / jobs}
    if name == "coupled-search":
        return {"search_instances_per_s": jobs / run_s, "search_gap_mean": sums["gap"] / jobs}
    return {
        "kernel_small_evals_per_s": sums["small_calls"] / sums["small_s"],
        "kernel_large_evals_per_s": sums["large_calls"] / sums["large_s"],
        "sim_samples_per_s": sums["sim_samples"] / sums["sim_s"],
    }
