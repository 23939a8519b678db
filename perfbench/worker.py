"""Run one workload in this process and print its figures as one JSON line.

``run.py`` starts this script in a fresh interpreter for every workload,
so memory peaks and import state belong to one workload only.

* ``--mode e2e``: untraced, whole cycles of jobs for about ``--seconds``
  of timed work (see ``Workload``).  After each job it measures the
  host's speed on a fixed reference task for ``REFERENCE_SHARE`` of the
  job's time (see ``host_speed``).  Between jobs it also times
  ``SETUP_SAMPLES`` fresh interpreters running ``import secbit``, spread
  evenly over the run, so that a slow or fast phase of the host weighs on
  set-up as much as on the jobs.
* ``--mode trace``: a fixed list of jobs (so counts repeat exactly at a
  seed) runs untraced, then again under the tracer.  Workload figures
  come from the untraced pass, layer figures from the traced one, and
  ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import FIGURES, REPORTED_KINDS, WORKLOADS, Tally, Workload, workload_metrics

SETUP_SAMPLES = 5
REFERENCE_SHARE = 0.1
# Reference units per second of the host that normalized times refer to;
# about what a 2-vCPU cloud machine does on a quiet phase.
NOMINAL_SPEED = 2500.0

_rng = np.random.default_rng(0)
_SMALL = _rng.uniform(0.1, 1.0, size=(3, 3, 2))
_MATRIX = _rng.uniform(0.1, 1.0, size=(3, 3))
_VECTOR = _rng.uniform(size=20_000)


def reference_unit() -> float:
    """A fixed task with the library's mix of work, written without it.

    Small-array numpy calls from Python (as in the search objective), one
    pass over a larger array (as in the simulator) and dictionary updates
    (interpreter work).  It never changes, so its speed measures the host.
    """
    acc = 0.0
    for _ in range(50):
        x = np.einsum("ab,abe->e", _MATRIX, _SMALL)
        acc += float(np.minimum(x[0], x[1]) / x.sum())
    acc += float((_VECTOR * _VECTOR).sum())
    counts: dict[int, int] = {}
    for i in range(500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc


def host_speed(seconds: float) -> float:
    """Reference units per second, measured for at least ``seconds``."""
    units, start = 0, time.perf_counter()
    while True:
        reference_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return units / elapsed


def import_s() -> float:
    """Wall time of a fresh interpreter running ``import secbit``."""
    start = time.perf_counter()
    # No timeout here: with one, the wait for the child polls in steps of
    # up to 50 ms and rounds each sample up by as much.  ``run.py`` bounds
    # the whole worker instead.
    subprocess.run([sys.executable, "-c", "import secbit"], check=True)
    return time.perf_counter() - start


def run_jobs(
    workload: Workload,
    seed: int,
    indices,
    workdir: Path,
    tally: Tally,
    tracer: Tracer | None = None,
    setup_s: list[float] | None = None,
) -> tuple[int, float, float]:
    """Prepare, run and check jobs.

    Returns how many ran, their timed seconds and, with a ``setup_s``
    list, their normalized seconds (0 without): each job's time times the
    host speed measured right after it, over ``NOMINAL_SPEED``, so a job
    that ran in a slow phase of the host counts as the shorter time it
    would have taken on the nominal host.  With ``setup_s``, also append
    ``SETUP_SAMPLES`` set-up times to it, taken between jobs.
    """
    jobs, run_s, norm_s = 0, 0.0, 0.0
    job_s = tally.job_s
    for index in indices:
        jobdir = workdir / f"job{index}"
        jobdir.mkdir()
        job = workload.make_job(seed, index, jobdir)
        start = time.perf_counter()
        out = tracer.job(index, job.run) if tracer else job.run()
        job_s.append(time.perf_counter() - start)
        run_s += job_s[-1]
        jobs += 1
        if setup_s is not None:
            norm_s += job_s[-1] * host_speed(REFERENCE_SHARE * job_s[-1]) / NOMINAL_SPEED
        job.check(out, tally)
        shutil.rmtree(jobdir)
        while setup_s is not None and len(setup_s) < SETUP_SAMPLES * jobs // len(indices):
            setup_s.append(import_s())
    return jobs, run_s, norm_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("e2e", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True, help="new directory for input files")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True)
    tally = Tally()
    setup_s: list[float] = []
    if args.mode == "e2e":
        indices = range(workload.jobs(args.seconds))
        jobs, run_s, norm_s = run_jobs(workload, args.seed, indices, args.workdir, tally, setup_s=setup_s)
        metrics = workload_metrics(args.workload, jobs, run_s, tally)
    else:
        indices = range(workload.cycle_jobs * workload.trace_cycles)
        jobs, run_s, norm_s = run_jobs(workload, args.seed, indices, args.workdir, tally)
        metrics = dict.fromkeys(FIGURES, 0.0) | workload_metrics(args.workload, jobs, run_s, tally)
        metrics["distill.exact.failed"] = tally.failures["exact-vs-block-error-rate"]
        tracer = Tracer(args.workload)
        tracer.install()
        try:
            _, traced_s, _ = run_jobs(workload, args.seed, indices, args.workdir, tally, tracer)
        finally:
            tracer.uninstall()
        metrics.update(tracer.layer_metrics())
        metrics["trace.overhead_frac"] = traced_s / run_s - 1.0
        if args.spans:
            tracer.write_spans(args.spans)
        for target in tracer.missing:
            print(f"trace target {target} not found; its metrics are left out", flush=True)

    result = {
        "jobs": jobs,
        "run_s": run_s,
        "norm_s": norm_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "pass_frac": tally.pass_frac(),
        **{name: tally.pass_frac(kinds) for name, kinds in REPORTED_KINDS.items()},
        "failures": dict(tally.failures),
        "reported_in": {kind: name for name, kinds in REPORTED_KINDS.items() for kind in kinds},
        "job_s": tally.job_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
