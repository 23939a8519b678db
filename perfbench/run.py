"""The secbit benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere; it uses the ``src/`` tree next to this directory.
Each workload runs in a fresh single-threaded interpreter
(``worker.py``) with ``PYTHONPATH=src`` and BLAS/OpenMP pinned to one
thread.  Set-up and CLI start-up are timed in separate subprocesses.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names,
units and directions are read from ``BENCHMARK.json``: with
``--trace 0`` every ``end_to_end`` metric, with ``--trace 1`` every
``per_layer`` metric.  ``--workload all`` runs every workload untraced
and prints each workload's own figures.  Scratch files go to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("oracle-grid", "coupled-search", "analytics")
CLI_REPEATS = 3
WORKER_TIMEOUT_S = 150
IMPORT = [sys.executable, "-c", "import secbit"]
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def timed(cmd: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - start, done


def median_wall(cmd: list[str], env: dict[str, str], repeats: int) -> float:
    return statistics.median(timed(cmd, env)[0] for _ in range(repeats))


def scipy_import_s(env: dict[str, str]) -> float:
    """Seconds spent importing ``scipy`` modules during ``import secbit``.

    Parses ``-X importtime`` (children are printed before their parent,
    indented by depth) and sums the cumulative time of every ``scipy``
    module whose importer is not itself a ``scipy`` module.
    """
    _, done = timed([sys.executable, "-X", "importtime", *IMPORT[1:]], env)
    # Each entry: (depth, name, cumulative_us, children)
    pending: list[tuple[int, str, int, list]] = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))

    def outermost_scipy_us(nodes) -> int:
        total = 0
        for _, name, cumulative, children in nodes:
            total += cumulative if name.split(".")[0] == "scipy" else outermost_scipy_us(children)
        return total

    return outermost_scipy_us(pending) / 1e6


def cli_metrics(env: dict[str, str]) -> tuple[dict[str, float], bool]:
    """Cold start of the CLI on a small file, bare interpreter start, scipy share."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "cli-input.json"
    cells = {(0, 0, 0): 0.3, (1, 1, 0): 0.2, (0, 0, 1): 0.1, (1, 1, 1): 0.25, (0, 1, 0): 0.1, (1, 0, 1): 0.05}
    entries = [{"a": a, "b": b, "e": e, "p": p} for (a, b, e), p in cells.items()]
    path.write_text(json.dumps({"dims": {"a": 2, "b": 2, "e": 2}, "entries": entries}), encoding="utf-8")
    expected = 2.0 * sum(min(cells[0, 0, e], cells[1, 1, e]) for e in (0, 1)) / sum(cells.values())
    cmd = [sys.executable, "-m", "secbit.cli", "sbf", str(path), "--format", "json"]
    _, done = timed(cmd, env)
    correct = abs(json.loads(done.stdout)["lambda"] - expected) <= 1e-12
    metrics = {
        "cli.cold_s": median_wall(cmd, env, CLI_REPEATS),
        "cli.bare_python_s": median_wall([sys.executable, "-c", "pass"], env, CLI_REPEATS),
        "cli.import.scipy_s": statistics.median(scipy_import_s(env) for _ in range(CLI_REPEATS)),
    }
    return metrics, correct


def run_worker(workload: str, seed: int, seconds: float, mode: str, env: dict[str, str]) -> dict:
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"work-{os.getpid()}-{workload}"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--workdir", str(workdir),
        "--spans", str(STATE / f"spans-{workload}.json"),
    ]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker for {workload} failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    """Values of the listed metrics with their units; unknown ones are left out."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name in values:
            out[name] = {"value": values[name], "unit": metric["unit"]}
        else:
            print(f"metric {name} was not measured", file=sys.stderr)
    return out


def describe(workload: str, figures: dict) -> None:
    job_s = sorted(figures["job_s"])
    normalized = f", {figures['norm_s']:.2f} s at nominal host speed" if figures["norm_s"] else ""
    print(
        f"{workload}: {figures['jobs']} jobs in {figures['run_s']:.2f} s timed{normalized}"
        f" (per job: min {job_s[0]:.3f} s, median {statistics.median(job_s):.3f} s, max {job_s[-1]:.3f} s)"
    )
    if figures["setup_s"]:
        print(f"{workload}: import secbit took {statistics.median(figures['setup_s']):.3f} s of wall time (median)")
    for kind, count in sorted(figures["failures"].items()):
        reported = figures["reported_in"].get(kind)
        note = f" (a known miss: reported in {reported}, not in failed)" if reported else ""
        print(f"{workload}: check {kind} failed {count} times{note}")


def end_to_end(workload: str, seed: int, seconds: float, env: dict[str, str]) -> tuple[dict, dict]:
    timed(IMPORT, env)  # writes the bytecode cache once, as an installed package has it
    figures = run_worker(workload, seed, seconds, "e2e", env)
    describe(workload, figures)
    # Host speed over the nominal speed, weighted by job time.  Set-up is
    # normalized by it too: how long a fresh process takes to import
    # follows the host's phases as closely as the jobs do.
    speed = figures["norm_s"] / figures["run_s"]
    values = {
        "setup_s": statistics.median(figures["setup_s"]) * speed,
        "jobs_per_s": figures["jobs"] / figures["run_s"],
        "norm_jobs_per_s": figures["jobs"] / figures["norm_s"],
        "peak_rss_mb": figures["peak_rss_mb"],
        "pass_frac": figures["pass_frac"],
        "accuracy_frac": figures["accuracy_frac"],
        "exact_pass_frac": figures["exact_pass_frac"],
        "failed_frac": figures["failed"] / figures["attempted"],
        **figures["metrics"],
    }
    return figures, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "secbit" / "__init__.py").is_file():
        print(f"no secbit sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    env = child_env()

    if args.workload == "all":
        attempted = failed = 0
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units["failed_frac"] = "1"
        metrics = {}
        for workload in WORKLOADS:
            figures, measured = end_to_end(workload, args.seed, args.seconds, env)
            attempted += figures["attempted"]
            failed += figures["failed"]
            named = [(name, name) for name in figures["metrics"]]
            own = [metric["name"] for metric in spec["end_to_end"]] + ["jobs_per_s", "failed_frac"]
            named += [(f"{workload}.{name}", name) for name in own]
            for label, name in named:
                metrics[label] = {"value": measured[name], "unit": units[name]}
        for label, metric in metrics.items():
            print(f"{label}: {metric['value']:.6g} {metric['unit']}")
    elif args.trace:
        figures = run_worker(args.workload, args.seed, args.seconds, "trace", env)
        describe(args.workload, figures)
        cli, cli_correct = cli_metrics(env)
        attempted = figures["attempted"] + 1
        failed = figures["failed"] + (not cli_correct)
        raw_rate = figures["jobs"] / figures["run_s"]
        metrics = report(spec["per_layer"], {**figures["metrics"], "jobs_per_s": raw_rate, **cli})
    else:
        figures, measured = end_to_end(args.workload, args.seed, args.seconds, env)
        attempted, failed = figures["attempted"], figures["failed"]
        metrics = report(spec["end_to_end"], measured)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
