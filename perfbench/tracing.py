"""Spans around calls into each module of ``secbit``, installed from outside.

The library is not edited.  :func:`install` replaces selected functions
with timing wrappers in every loaded ``secbit`` module namespace that
holds them (a name imported with ``from .x import f`` is a separate
binding, so each binding is patched).  A wrapper records a span (name,
start, end, parent span, job) and per-name aggregates: calls, total
time, busy time (outermost calls only) and self time (duration minus the
time of wrapped calls made inside it).

The objective ``_lambda_raw`` runs ~10^5 times per search, so it is
aggregated but not stored as a span.  Part of each wrapper's own cost
falls outside the wrapped call's span, in its caller; :meth:`install`
measures that cost per call once, and :meth:`leave` books it to
``trace.self_s`` instead of the caller's self time, so a layer's self
time does not shrink just because it makes fewer wrapped calls.  A
target function that no longer exists is reported as missing; its
metrics are then left out, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, function, span name).  Functions sharing a span name form one
# family, e.g. the three ``apply`` variants.
TARGETS = (
    ("optimizer", "estimate_mesbf", "optimizer.search"),
    ("optimizer", "brute_force_mesbf", "optimizer.search"),
    ("optimizer", "_joint_scan", "optimizer.joint_scan"),
    ("optimizer", "_coordinate_polish", "optimizer.polish"),
    ("optimizer", "_lambda_raw", "optimizer.objective"),
    ("optimizer", "_certified_lambda", "optimizer.certify"),
    ("measures", "secret_bit_fraction", "measures.secret_bit_fraction"),
    ("measures", "secret_bit_fraction_oracle", "measures.secret_bit_fraction_oracle"),
    ("measures", "mesbf_reversible", "measures.mesbf_reversible"),
    ("measures", "mesbf_reversible_decoupled", "measures.mesbf_reversible_decoupled"),
    ("measures", "mesbf_decoupled", "measures.mesbf_decoupled"),
    ("measures", "mesbf_decoupled_power", "measures.mesbf_decoupled_power"),
    ("measures", "vartheta", "measures.vartheta"),
    ("filtration", "apply", "filtration.apply"),
    ("filtration", "apply_bipartite", "filtration.apply"),
    ("filtration", "apply_eve", "filtration.apply"),
    ("filtration", "decompose", "filtration.decompose"),
    ("filtration", "recompose", "filtration.recompose"),
    ("filtration", "embed", "filtration.embed"),
    ("distill", "simulate_advantage_distillation", "distill.simulate"),
    ("distill", "exact_block_statistics", "distill.analytics"),
    ("distill", "protocol_report", "distill.analytics"),
    ("distill", "minimal_block_length", "distill.analytics"),
    ("distill", "block_error_rate", "distill.analytics"),
    ("distributions", "tensor_power", "distributions.tensor_power"),
    ("distributions", "from_entries", "distributions.construct"),
    ("distributions", "bipartite_from_entries", "distributions.construct"),
    ("distributions", "point_mass_eve", "distributions.derive"),
    ("distributions", "marginal_ab", "distributions.derive"),
    ("fileio", "read_tripartite", "fileio.read"),
    ("fileio", "read_bipartite", "fileio.read"),
    ("fileio", "read_distribution", "fileio.read"),
    ("fileio", "read_filtration", "fileio.read"),
    ("properties", "run_checks", "properties.run_checks"),
)

UNRECORDED = {"optimizer.objective"}
MODULES = ("optimizer", "measures", "filtration", "distill", "distributions", "fileio", "properties")
KERNEL_SIZES = (2, 4, 8, 16)
JOB = "bench.job"


# Sub-keys for per-shape figures: each returns (key, work) or None.
def _square_key(args):
    """``d<n>`` for a square bipartite first argument."""
    table = getattr(args[0], "table", None) if args else None
    if table is not None and table.ndim == 2 and table.shape[0] == table.shape[1]:
        return f"d{table.shape[0]}", 0.0
    return None


def _block_key(args):
    """``N<block length>``, with the number of simulated blocks as work."""
    return (f"N{args[1]}", float(args[2])) if len(args) > 2 else None


KEYS = {
    "measures.mesbf_decoupled": _square_key,
    "measures.mesbf_decoupled_power": _square_key,
    "measures.vartheta": _square_key,
    "distill.simulate": _block_key,
}


class Tracer:
    """In-memory spans and aggregates; inactive until :meth:`job` opens one."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.active = False
        self.job_id = -1
        self.spans: list = []
        self.stack: list = []
        # name -> [calls, total_s, busy_s, self_s]
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        # (name, key) -> [calls, total_s, work]
        self.keyed: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.module_busy: dict = defaultdict(float)
        self.open_names: dict = defaultdict(int)
        self.open_modules: dict = defaultdict(int)
        self.sim_peak_bytes = 0
        # Wrapper cost per call that lands in the caller, and its total.
        self.wrapper_s = 0.0
        self.tracer_s = 0.0
        self.missing: list[str] = []
        self._patched: list = []

    def enter(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if name not in UNRECORDED:
            index = len(self.spans)
            self.spans.append(None)
        module = name.partition(".")[0]
        self.open_names[name] += 1
        self.open_modules[module] += 1
        frame = [name, 0.0, 0.0, index, parent, module]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame: list, keyed: tuple[str, float] | None = None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child_s, index, parent, module = frame
        duration = end - start
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += duration
        stats[3] += duration - child_s
        # Busy time counts only the outermost open span of a name or module.
        self.open_names[name] -= 1
        if not self.open_names[name]:
            stats[2] += duration
        self.open_modules[module] -= 1
        if not self.open_modules[module]:
            self.module_busy[module] += duration
        if self.stack:
            self.stack[-1][2] += duration + self.wrapper_s
            self.tracer_s += self.wrapper_s
        if keyed is not None:
            key, work = keyed
            totals = self.keyed[(name, key)]
            totals[0] += 1
            totals[1] += duration
            totals[2] += work
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.job_id)

    def job(self, job_id: int, run):
        """Run ``run()`` traced, under a root span owned by the benchmark."""
        self.job_id = job_id
        self.active = True
        frame = self.enter(JOB)
        try:
            return run()
        finally:
            self.leave(frame)
            self.active = False

    def _wrap(self, orig, name: str):
        key_of = KEYS.get(name)
        simulate = name == "distill.simulate"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if simulate:
                tracemalloc.start()
            frame = self.enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.leave(frame, key_of(args) if key_of else None)
                if simulate:
                    self.sim_peak_bytes = max(self.sim_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    @staticmethod
    def wrapper_cost(calls: int = 5000, repeats: int = 7) -> float:
        """Seconds per wrapped call spent in the caller, outside the callee's span.

        Times a loop of calls to an empty function, bare and wrapped (as
        the unrecorded objective is) under a job span, and takes the median
        over ``repeats`` of the extra self time of the job per call.
        """
        probe = Tracer("calibrate")

        def empty():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        wrapped = probe._wrap(empty, "optimizer.objective")
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            loop(empty)
            bare = time.perf_counter() - start
            probe.stats.clear()
            probe.job(0, lambda: loop(wrapped))
            costs.append((probe.stats[JOB][3] - bare) / calls)
        return max(0.0, statistics.median(costs))

    def install(self) -> None:
        """Patch every binding of every target in the loaded ``secbit`` modules."""
        self.wrapper_s = Tracer.wrapper_cost()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"secbit.{module_name}")
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(orig, name)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (loaded_name == "secbit" or loaded_name.startswith("secbit.")):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is orig:
                        setattr(loaded, binding, wrapper)
                        self._patched.append((loaded, binding, orig))

    def uninstall(self) -> None:
        for module, binding, orig in reversed(self._patched):
            setattr(module, binding, orig)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        doc = {
            "workload": self.workload,
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": [span for span in self.spans if span is not None],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers; targets that are missing contribute no metric."""
        missing_names = {name for mod, attr, name in TARGETS if f"{mod}.{attr}" in self.missing}

        def stat(name: str, field: int) -> float:
            return self.stats[name][field] if name in self.stats else 0.0

        def per_call_us(name: str, key=None) -> float:
            found = self.keyed.get((name, key)) if key else self.stats.get(name)
            calls, total = found[:2] if found else (0, 0.0)
            return 1e6 * total / calls if calls else 0.0

        metrics: dict[str, float] = {
            "optimizer.joint_scan.calls": stat("optimizer.joint_scan", 0),
            "optimizer.joint_scan.busy_s": stat("optimizer.joint_scan", 2),
            "optimizer.polish.calls": stat("optimizer.polish", 0),
            "optimizer.polish.self_s": stat("optimizer.polish", 3),
            "optimizer.objective.evals": stat("optimizer.objective", 0),
            "optimizer.objective.us_per_eval": per_call_us("optimizer.objective"),
            "optimizer.certify.busy_s": stat("optimizer.certify", 2),
            "measures.secret_bit_fraction.us": per_call_us("measures.secret_bit_fraction"),
            "measures.secret_bit_fraction_oracle.us": per_call_us("measures.secret_bit_fraction_oracle"),
            "measures.mesbf_reversible.us": per_call_us("measures.mesbf_reversible"),
            "measures.busy_s": self.module_busy.get("measures", 0.0),
            "filtration.apply.calls": stat("filtration.apply", 0),
            "filtration.apply.busy_s": stat("filtration.apply", 2),
            "filtration.decompose.us": per_call_us("filtration.decompose"),
            "filtration.recompose.us": per_call_us("filtration.recompose"),
            "distill.analytics.busy_s": stat("distill.analytics", 2),
            "distill.simulate.peak_alloc_mb": self.sim_peak_bytes / 2**20,
            "distributions.tensor_power.us": per_call_us("distributions.tensor_power"),
            "distributions.construct.us": per_call_us("distributions.construct"),
            "fileio.read.busy_s": stat("fileio.read", 2),
            "properties.run_checks.busy_s": stat("properties.run_checks", 2),
        }
        for fn in ("mesbf_decoupled", "mesbf_decoupled_power", "vartheta"):
            for size in KERNEL_SIZES:
                metrics[f"measures.{fn}.us.d{size}"] = per_call_us(f"measures.{fn}", f"d{size}")
        for block in (3, 8, 100):
            calls, seconds, samples = self.keyed.get(("distill.simulate", f"N{block}"), (0, 0.0, 0.0))
            metrics[f"distill.simulate.samples_per_s.N{block}"] = samples / seconds if seconds else 0.0

        self_by_module: dict[str, float] = defaultdict(float)
        for name, (_, _, _, self_s) in self.stats.items():
            self_by_module[name.split(".", 1)[0]] += self_s
        for module in MODULES:
            metrics[f"{module}.self_s"] = self_by_module.get(module, 0.0)
        metrics["bench.self_s"] = self_by_module.get("bench", 0.0)
        metrics["trace.self_s"] = self.tracer_s
        metrics["trace.wrapper_us"] = 1e6 * self.wrapper_s
        metrics["trace.wall_s"] = stat(JOB, 1)

        return {
            key: value
            for key, value in metrics.items()
            if not any(key == m or key.startswith(m + ".") for m in missing_names)
        }
