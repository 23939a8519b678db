"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad file, violated precondition,
failed property check), 2 usage error.  Output formats: ``human``
(line-oriented ``key: value``), ``json`` (one structured document) and
``csv`` (tabular reports only).  All randomness flows from ``--seed``,
which defaults to a fixed constant so runs are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import distill, fileio, properties
from .distributions import (
    CanonicalParams,
    _require_count,
    canonical_distribution,
    point_mass_eve,
    satellite_scenario,
    tensor_power,
)
from .errors import SecbitError, UnsupportedFormatError
from .filtration import apply, decompose, recompose
from .measures import (
    mesbf_decoupled,
    mesbf_decoupled_power,
    mesbf_reversible,
    secret_bit_fraction,
)
from .optimizer import DEFAULT_SEED, SearchConfig, brute_force_mesbf, estimate_mesbf, local_randomization_demo

_CSV_NEEDS_ROWS = "csv output applies only to tabular reports"


@dataclass
class CommandResult:
    report: dict
    rows: Optional[list[dict]] = None
    exit_code: int = 0


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return str(value)


def _human_lines(report: dict, prefix: str = ""):
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _human_lines(value, f"{name}.")
        else:
            yield f"{name}: {_fmt_value(value)}"


def emit_report(result: CommandResult, fmt: str, out: Optional[str]) -> None:
    if fmt == "human":
        text = "\n".join(_human_lines(result.report))
        if result.rows:
            text += "\n" + "\n".join(json.dumps(row) for row in result.rows)
        text += "\n"
    elif fmt == "json":
        doc = dict(result.report)
        if result.rows is not None:
            doc["rows"] = result.rows
        # Strict JSON has no NaN or Infinity: an undefined value is written as null.
        doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        if not result.rows:
            raise UnsupportedFormatError(_CSV_NEEDS_ROWS)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(result.rows[0].keys()))
        writer.writeheader()
        writer.writerows(result.rows)
        text = buffer.getvalue()
    else:
        raise UnsupportedFormatError(f"unknown format {fmt!r}")
    if out:
        with _destination(out), open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextmanager
def _destination(path):
    """Report a failed write as an error that names the destination, not as a missing input."""
    try:
        yield
    except OSError as exc:
        raise SecbitError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _witness_report(result) -> dict:
    doc = {"witness_kind": result.witness_kind}
    if result.witness is not None:
        doc["witness_alice"] = result.witness[0].matrix.tolist()
        doc["witness_bob"] = result.witness[1].matrix.tolist()
    return doc


def _measure_report(name: str, result, p) -> CommandResult:
    """The measure's value as ``name``, its detail, its witness and the fraction the witness achieves on ``p``."""
    report = {name: result.value, **result.detail, **_witness_report(result)}
    if result.witness is not None:
        report["achieved_lambda"] = secret_bit_fraction(apply(result.witness[0], result.witness[1], p))
    return CommandResult(report)


def _writer_report(args, dist, write, extra: dict) -> CommandResult:
    """Refuse csv (the report has no rows), write ``dist`` to ``--out`` and report the file, then ``extra``."""
    if args.format == "csv":
        raise UnsupportedFormatError(_CSV_NEEDS_ROWS)
    with _destination(args.out):
        write(dist, args.out)
    return CommandResult({"out": args.out, "dims": list(dist.dims), **extra})


def _parse_eta(text: str) -> tuple[float, float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 4:
        raise SecbitError("--eta needs four comma-separated numbers: eta00,eta01,eta10,eta11")
    return parts  # type: ignore[return-value]


def _cmd_sbf(args) -> CommandResult:
    p = fileio.read_tripartite(args.file)
    return CommandResult({"lambda": secret_bit_fraction(p), "dims": list(p.dims), "mass": p.mass})


def _cmd_mesbf_r(args) -> CommandResult:
    p = fileio.read_tripartite(args.file)
    result = mesbf_reversible(p)
    return _measure_report("Lambda_R", result, p)


def _cmd_mesbf_decoupled(args) -> CommandResult:
    p = fileio.read_bipartite(args.file)
    result = mesbf_decoupled(p) if args.power == 1 else mesbf_decoupled_power(p, args.power)
    return _measure_report("Lambda", result, point_mass_eve(p))


def _cmd_mesbf_opt(args) -> CommandResult:
    p = fileio.read_tripartite(args.file)
    cfg = SearchConfig(restarts=args.restarts, iterations=args.iters, seed=args.seed)
    result = estimate_mesbf(p, cfg)
    report = {
        "Lambda_lower_bound": result.value,
        "source": result.detail.get("source"),
        "coin_toss_baseline": 0.5,
    }
    if p.is_binary:
        report["lambda_unfiltered"] = secret_bit_fraction(p)
    report.update(_witness_report(result))
    report["search_trace"] = result.detail["trace"]
    if args.oracle:
        oracle = brute_force_mesbf(p, cfg)
        report["oracle_value"] = oracle.value
        report["oracle_grid_points"] = oracle.detail["grid_points"]
        report["oracle_trace"] = oracle.detail["trace"]
    return CommandResult(report)


def _cmd_decompose(args) -> CommandResult:
    filt = fileio.read_filtration(args.file)
    factors = decompose(filt)
    rebuilt = recompose(factors)
    roundtrip = float(np.abs(rebuilt.matrix - filt.matrix).max(initial=0.0))
    block = factors.enlarged_product()[:2, 2:]
    product_error = float(np.abs(block - filt.matrix[:, list(factors.permutation)]).max(initial=0.0))
    rows = [{"slot": k, **asdict(step)} for k, step in enumerate(factors.steps)]
    report = {
        "rows": filt.rows,
        "cols": filt.cols,
        "proper": filt.proper,
        "roundtrip_max_error": roundtrip,
        "elementary_product_max_error": product_error,
        "permutation": list(factors.permutation),
    }
    return CommandResult(report, rows=rows)


def _cmd_distill(args) -> CommandResult:
    params = CanonicalParams(args.mu, _parse_eta(args.eta))
    if args.sweep is not None:
        _require_count(args.sweep, "--sweep")
        docs = (_protocol_report_doc(distill.protocol_report(params, n)) for n in range(1, args.sweep + 1))
        rows = [{k: v for k, v in doc.items() if k not in ("mu", "eta")} for doc in docs]
        return CommandResult({"mu": params.mu, "epsilon": params.epsilon, "sweep": args.sweep}, rows=rows)
    if args.block_length is not None:
        rep = distill.protocol_report(params, args.block_length)
        return CommandResult(_protocol_report_doc(rep))
    rep = distill.minimal_block_length(params, args.nmax)
    if rep is None:
        note = "no block length satisfies the strict entropy condition"
        if params.epsilon == 0.0:
            note += " (degenerate perfect-secrecy case: both uncertainties are zero)"
        return CommandResult({"mu": params.mu, "epsilon": params.epsilon, "nmax": args.nmax, "minimal_N": None, "note": note})
    doc = _protocol_report_doc(rep)
    doc["minimal_N"] = rep.block_length
    return CommandResult(doc)


def _protocol_report_doc(rep: distill.ProtocolReport) -> dict:
    return {
        "mu": rep.params.mu,
        "eta": list(rep.params.eta),
        "N": rep.block_length,
        "epsilon": rep.epsilon,
        "block_error_rate": rep.block_error_rate,
        "bob_uncertainty": rep.bob_uncertainty,
        "eve_uncertainty": rep.eve_uncertainty,
        "satisfied": rep.satisfied,
    }


def _cmd_distill_sim(args) -> CommandResult:
    p = fileio.read_tripartite(args.file)
    sim = distill.simulate_advantage_distillation(p, args.block_length, args.samples, args.seed)
    exact = distill.exact_block_statistics(p, args.block_length)
    pab = p.table.sum(axis=2) / p.mass
    eps = float(pab[0, 1] + pab[1, 0])
    # The closed form is the block error rate only for a symmetric (A, B) marginal.
    symmetric = abs(pab[0, 0] - pab[1, 1]) <= 1e-12 and abs(pab[0, 1] - pab[1, 0]) <= 1e-12
    report = {
        "N": args.block_length,
        "samples": args.samples,
        "seed": args.seed,
        "accepted": sim.accepted,
        "empirical_acceptance_rate": sim.acceptance_rate,
        "analytic_acceptance_rate": exact["acceptance_rate"],
        "empirical_disagreement_rate": sim.disagreement_rate,
        "analytic_disagreement_rate": exact["disagreement_rate"],
        "formula_block_error_rate": distill._alternating_ratios(eps, eps, args.block_length)[0] if symmetric else None,
        "empirical_eve_blank_rate": sim.eve_blank_rate,
        "analytic_eve_blank_rate": exact["eve_blank_rate"],
    }
    return CommandResult(report)


def _cmd_demo_randomization(args) -> CommandResult:
    demo = local_randomization_demo()
    return CommandResult(
        {
            "lambda_before": demo.lambda_before,
            "Lambda_R": demo.lambda_reversible,
            "noise": demo.noise,
            "noise_filter": demo.noise_filter.matrix.tolist(),
            "filter_reversible": demo.filter_reversible,
            "lambda_after": demo.lambda_after,
            "improvement": demo.lambda_after - demo.lambda_before,
        }
    )


def _cmd_gen_satellite(args) -> CommandResult:
    p = satellite_scenario(args.err_a, args.err_b, args.err_e)
    return _writer_report(args, p, fileio.write_tripartite, {"lambda": secret_bit_fraction(p)})


def _cmd_gen_canonical(args) -> CommandResult:
    params = CanonicalParams(args.mu, _parse_eta(args.eta))
    p = canonical_distribution(params)
    extra = {"mu": params.mu, "epsilon": params.epsilon, "lambda": secret_bit_fraction(p)}
    return _writer_report(args, p, fileio.write_tripartite, extra)


def _cmd_tensor_power(args) -> CommandResult:
    p = fileio.read_bipartite(args.file)
    powered = tensor_power(p, args.power)
    return _writer_report(args, powered, fileio.write_bipartite, {"copies": args.power, "mass": powered.mass})


def _cmd_check_properties(args) -> CommandResult:
    dist = fileio.read_distribution(args.file)
    outcomes = properties.run_checks(dist, args.trials, args.seed)
    rows = [
        {
            "check": o.name,
            "trials": o.trials,
            "violations": o.violations,
            "worst": o.worst,
            "tolerance": o.tolerance,
            "passed": o.passed,
        }
        for o in outcomes
    ]
    failed = [o.name for o in outcomes if not o.passed]
    report: dict = {"checks": len(outcomes), "failed": len(failed)}
    if failed:
        report["error"] = f"property checks failed: {', '.join(failed)}"
    return CommandResult(report, rows=rows, exit_code=1 if failed else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secbit",
        description="Secrecy measures of tripartite distributions and the advantage-distillation protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    @contextmanager
    def command(name: str, func, help: str, writes: bool = False):
        """Register ``name`` running ``func``, with ``--format`` and ``--out`` after its own options.

        A command that ``writes`` a file names it with ``--out``; its report goes to stdout.
        """
        sp = sub.add_parser(name, help=help)
        yield sp
        if writes:
            sp.add_argument("--out", required=True)
        sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
        if not writes:
            sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.set_defaults(func=func, writes=writes)

    with command("sbf", _cmd_sbf, "secret-bit fraction of a binary tripartite distribution") as sp:
        sp.add_argument("file")

    with command("mesbf-r", _cmd_mesbf_r, "best secret-bit fraction under reversible filters") as sp:
        sp.add_argument("file")

    with command("mesbf-decoupled", _cmd_mesbf_decoupled, "exact MESBF for a decoupled eavesdropper") as sp:
        sp.add_argument("file")
        sp.add_argument("--power", type=int, default=1, help="number of independent copies")

    with command("mesbf-opt", _cmd_mesbf_opt, "numerical MESBF lower bound for coupled distributions") as sp:
        sp.add_argument("file")
        sp.add_argument("--restarts", type=int, default=64)
        sp.add_argument("--iters", type=int, default=2000)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument(
            "--oracle", action="store_true",
            help=f"also run the grid oracle, at its default of {SearchConfig.grid_points} grid points",
        )

    with command("decompose", _cmd_decompose, "factor a bit-output filtration into elementary steps") as sp:
        sp.add_argument("file")

    with command("distill", _cmd_distill, "analytic report of the advantage-distillation step") as sp:
        sp.add_argument("--mu", type=float, required=True)
        sp.add_argument("--eta", required=True, help="eta00,eta01,eta10,eta11")
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--N", dest="block_length", type=int, default=None)
        group.add_argument("--auto", action="store_true", help="search for the minimal block length")
        group.add_argument("--sweep", type=int, default=None, help="tabulate N = 1..SWEEP")
        sp.add_argument("--nmax", type=int, default=200)

    with command("distill-sim", _cmd_distill_sim, "Monte-Carlo simulation of the block protocol") as sp:
        sp.add_argument("file")
        sp.add_argument("--N", dest="block_length", type=int, required=True)
        sp.add_argument("--samples", type=int, required=True)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    with command("demo-randomization", _cmd_demo_randomization, "joint local noise beating reversible filters"):
        pass

    with command("gen-satellite", _cmd_gen_satellite, "write a broadcast-source distribution file", writes=True) as sp:
        sp.add_argument("--err-a", type=float, required=True)
        sp.add_argument("--err-b", type=float, required=True)
        sp.add_argument("--err-e", type=float, required=True)

    with command(
        "gen-canonical", _cmd_gen_canonical, "write a canonical partially secret distribution file", writes=True
    ) as sp:
        sp.add_argument("--mu", type=float, required=True)
        sp.add_argument("--eta", required=True, help="eta00,eta01,eta10,eta11")

    with command("tensor-power", _cmd_tensor_power, "write the N-copy power of a bipartite file", writes=True) as sp:
        sp.add_argument("file")
        sp.add_argument("--power", type=int, required=True)

    with command("check-properties", _cmd_check_properties, "run randomized invariant suites on a file") as sp:
        sp.add_argument("file")
        sp.add_argument("--trials", type=int, default=50)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result: CommandResult = args.func(args)
        emit_report(result, args.format, None if args.writes else args.out)
        return result.exit_code
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror or str(exc)
        print(f"error: {reason}: {exc.filename}" if exc.filename else f"error: {reason}", file=sys.stderr)
        return 1
    except SecbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
