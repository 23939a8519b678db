import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from secbit.cli import main
from secbit.fileio import read_tripartite, write_bipartite, write_filtration, write_tripartite
from secbit import Filtration, SearchConfig, TripartiteDistribution, brute_force_mesbf, shared_bit
from secbit.measures import secret_bit_fraction


@pytest.fixture
def lemur_file(tmp_path, lemur):
    path = tmp_path / "lemur.json"
    write_tripartite(lemur, path)
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    from secbit import BipartiteDistribution

    path = tmp_path / "uniform.json"
    write_bipartite(BipartiteDistribution(np.full((2, 2), 0.25)), path)
    return str(path)


def run(capsys, *argv):
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_sbf_human_output(capsys, lemur_file):
    code, out, _ = run(capsys, "sbf", lemur_file)
    assert code == 0
    assert "lambda: 0.5" in out


def test_sbf_missing_file(capsys):
    code, _, err = run(capsys, "sbf", "missing.json")
    assert code == 1
    assert "not found" in err


def test_sbf_json_format(capsys, lemur_file):
    code, out, _ = run(capsys, "sbf", lemur_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 0.5


def test_near_overflow_file_warns_nothing(capsys, tmp_path):
    # Its entries sum past the float maximum: sbf reports the mass as null,
    # distill-sim refuses it as not normalised, and neither prints a warning.
    path = tmp_path / "huge.json"
    entries = [{"a": a, "b": a, "e": 0, "p": 1e308} for a in (0, 1)]
    path.write_text(json.dumps({"dims": {"a": 2, "b": 2, "e": 1}, "entries": entries}))
    code, out, err = run(capsys, "sbf", str(path), "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["lambda"] == 1.0 and doc["mass"] is None
    code, _, err = run(capsys, "distill-sim", str(path), "--N", "3", "--samples", "100")
    assert code == 1 and err.strip() == "error: distribution mass inf is not 1"


def test_sbf_csv_not_supported(capsys, lemur_file):
    code, _, err = run(capsys, "sbf", lemur_file, "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_usage_error_exits_two(lemur_file):
    with pytest.raises(SystemExit) as info:
        main(["sbf", lemur_file, "--format", "xml"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_mesbf_r_mentions_lambda_r(capsys, lemur_file):
    code, out, _ = run(capsys, "mesbf-r", lemur_file)
    assert code == 0
    assert "Lambda_R: 0.5" in out
    assert "achieved_lambda" in out


def test_mesbf_decoupled_uniform(capsys, uniform_file):
    code, out, _ = run(capsys, "mesbf-decoupled", uniform_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["Lambda"] == 0.5


def test_mesbf_decoupled_power(capsys, tmp_path):
    from secbit import bipartite_from_entries

    path = tmp_path / "p.json"
    write_bipartite(
        bipartite_from_entries((2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}),
        path,
    )
    code, out, _ = run(capsys, "mesbf-decoupled", str(path), "--power", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["Lambda"] == pytest.approx(16 / 17, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("mesbf-decoupled", "{file}", "--power", "0"),
        ("mesbf-decoupled", "{file}", "--power", "-3"),
        ("distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--sweep", "0"),
        ("distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--sweep", "-2"),
        ("check-properties", "{file}", "--trials", "-1"),
        ("check-properties", "{file}", "--trials", "0"),
        # Counts past the float maximum.
        ("distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--N", str(10**400)),
        ("mesbf-decoupled", "{file}", "--power", str(2**1100)),
    ],
)
def test_count_arguments_out_of_range_rejected(capsys, tmp_path, argv):
    from secbit import bipartite_from_entries

    path = tmp_path / "p.json"
    write_bipartite(
        bipartite_from_entries((2, 2), {(0, 0): 0.4, (1, 1): 0.4, (0, 1): 0.1, (1, 0): 0.1}),
        path,
    )
    code, out, err = run(capsys, *(arg.format(file=path) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command", [["mesbf-opt"], ["distill-sim", "--N", "3", "--samples", "100"], ["check-properties"]]
)
def test_negative_seed_rejected(capsys, lemur_file, command):
    code, out, err = run(capsys, *command, lemur_file, "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: seed accepts integers >= 0")


@pytest.mark.parametrize("eta", ["nan,0.25,0.25,0.5", "a,b,c,d"])
def test_distill_rejects_eta_that_is_not_four_numbers(capsys, eta):
    code, out, err = run(capsys, "distill", "--mu", "0.6", "--eta", eta, "--N", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_mesbf_opt_runs(capsys, lemur_file):
    code, out, _ = run(
        capsys,
        "mesbf-opt",
        lemur_file,
        "--restarts",
        "4",
        "--iters",
        "300",
        "--seed",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["Lambda_lower_bound"] > 0.5
    assert doc["coin_toss_baseline"] == 0.5
    assert "oracle_trace" not in doc
    assert _is_trace(doc["search_trace"])


def _is_trace(trace):
    return len(trace) == 3 and all(set(stage) == {"points", "candidates", "kept", "evals", "best"} for stage in trace)


def test_mesbf_opt_oracle_reports_the_grid_oracle(capsys, lemur_file):
    code, out, _ = run(capsys, "mesbf-opt", lemur_file, "--restarts", "4", "--iters", "300", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    expected = brute_force_mesbf(read_tripartite(lemur_file), SearchConfig(restarts=4, iterations=300))
    assert doc["oracle_value"] == expected.value
    assert doc["oracle_grid_points"] == 12
    assert doc["oracle_trace"] == expected.detail["trace"]
    assert _is_trace(doc["search_trace"])
    assert _is_trace(doc["oracle_trace"])


def test_mesbf_opt_oracle_rejects_large_alphabets(capsys, tmp_path):
    path = tmp_path / "wide.json"
    write_tripartite(TripartiteDistribution(np.full((5, 2, 1), 0.1)), path)
    code, out, err = run(capsys, "mesbf-opt", str(path), "--restarts", "4", "--iters", "300", "--oracle")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


def test_mesbf_opt_refuses_a_start_pool_past_its_bound(capsys, lemur_file):
    # 10^8 random starts would be built before any polish ran.
    code, out, err = run(capsys, "mesbf-opt", lemur_file, "--restarts", "100000000")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "start pool" in err
    assert "Traceback" not in err


def test_decompose_command(capsys, tmp_path):
    path = tmp_path / "filt.json"
    write_filtration(Filtration(np.array([[0.6, 0.1, 0.2], [0.2, 0.5, 0.1]])), path)
    code, out, _ = run(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["roundtrip_max_error"] < 1e-12
    assert doc["elementary_product_max_error"] < 1e-12
    assert len(doc["rows"]) == 3


def test_decompose_without_input_columns(capsys, tmp_path):
    # A 2x0 filtration has no elementary steps; both errors are maxima over nothing.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rows": 2, "cols": 0, "entries": [[], []]}))
    code, out, err = run(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["roundtrip_max_error"] == 0.0
    assert doc["elementary_product_max_error"] == 0.0
    assert doc["rows"] == [] and doc["permutation"] == []


@pytest.mark.parametrize(
    "doc", [{"rows": 0, "cols": -1, "entries": []}, {"rows": 1, "cols": 10**13, "entries": [[1.0]]}]
)
def test_decompose_rejects_malformed_sizes(capsys, tmp_path, doc):
    path = tmp_path / "filt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_distill_fixed_block(capsys):
    code, out, _ = run(
        capsys, "distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--N", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bob_uncertainty"] == pytest.approx(0.7219280948873623, abs=1e-9)
    assert doc["eve_uncertainty"] == pytest.approx(0.9709505944546686, abs=1e-9)
    assert doc["satisfied"] is True


def test_distill_auto_search(capsys):
    code, out, _ = run(
        capsys, "distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--auto", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["minimal_N"] == 1


def test_distill_auto_none_for_complementary_family(capsys):
    code, out, _ = run(
        capsys, "distill", "--mu", "0.6", "--eta", "0,0.5,0.5,0", "--auto", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["minimal_N"] is None


def test_distill_sweep_csv(capsys):
    code, out, _ = run(
        capsys,
        "distill",
        "--mu",
        "0.6",
        "--eta",
        "0.25,0.25,0.25,0.25",
        "--sweep",
        "50",
        "--format",
        "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "epsilon", "block_error_rate", "bob_uncertainty", "eve_uncertainty", "satisfied"]
    assert len(rows) == 51  # header plus one row per block length


def test_distill_sim(capsys, tmp_path):
    path = str(_Inputs(tmp_path)["canon"])
    code, out, _ = run(capsys, "distill-sim", path, "--N", "3", "--samples", "20000", "--seed", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["empirical_disagreement_rate"] - doc["analytic_disagreement_rate"]) < 0.01
    assert doc["formula_block_error_rate"] == pytest.approx(0.2**3 / (0.2**3 + 0.8**3), abs=1e-12)


def test_distill_sim_formula_above_one_half(capsys, tmp_path):
    # Per-sample disagreement 0.8: the formula eps^N / (eps^N + (1-eps)^N)
    # is the block's disagreement rate for any symmetric file.
    table = np.array([[0.1, 0.4], [0.4, 0.1]]).reshape(2, 2, 1)
    write_tripartite(TripartiteDistribution(table), tmp_path / "noisy.json")
    code, out, _ = run(
        capsys, "distill-sim", str(tmp_path / "noisy.json"), "--N", "3", "--samples", "2000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["formula_block_error_rate"] == pytest.approx(0.8**3 / (0.8**3 + 0.2**3), abs=1e-12)
    assert doc["formula_block_error_rate"] == pytest.approx(doc["analytic_disagreement_rate"], abs=1e-12)


def test_distill_sim_formula_is_null_for_an_asymmetric_file(capsys, tmp_path):
    # P(0,0) != P(1,1) and P(0,1) != P(1,0): the closed form read 0.0326
    # against a block disagreement rate of 0.0154.
    table = np.array([[0.5, 0.25], [0.05, 0.2]]).reshape(2, 2, 1)
    write_tripartite(TripartiteDistribution(table), tmp_path / "asym.json")
    code, out, _ = run(
        capsys, "distill-sim", str(tmp_path / "asym.json"), "--N", "4", "--samples", "2000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["formula_block_error_rate"] is None
    assert doc["analytic_disagreement_rate"] == pytest.approx(0.01538, abs=1e-5)


def test_distill_sim_json_is_strict_at_long_blocks(capsys, tmp_path):
    path = str(_Inputs(tmp_path)["canon"])
    code, out, _ = run(capsys, "distill-sim", path, "--N", "2000", "--samples", "500", "--format", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_reject)
    assert doc["accepted"] == 0
    assert doc["empirical_disagreement_rate"] is None and doc["empirical_eve_blank_rate"] is None
    assert doc["analytic_disagreement_rate"] == 0.0  # below the smallest double
    assert 0.0 < doc["analytic_eve_blank_rate"] < 1e-240
    assert doc["formula_block_error_rate"] == doc["analytic_disagreement_rate"]


def test_demo_randomization(capsys):
    code, out, _ = run(capsys, "demo-randomization", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_before"] == 0.5
    assert doc["Lambda_R"] == 0.5
    assert doc["lambda_after"] > 0.5
    assert doc["filter_reversible"] is False


def test_gen_satellite_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "sat.json"
    code, out, _ = run(
        capsys,
        "gen-satellite",
        "--err-a",
        "0.2",
        "--err-b",
        "0.2",
        "--err-e",
        "0.15",
        "--out",
        str(out_path),
        "--format",
        "json",
    )
    assert code == 0
    reported = json.loads(out)["lambda"]
    reread = secret_bit_fraction(read_tripartite(out_path))
    assert reread == reported  # bit identical through the file format
    assert reported == pytest.approx(0.26, abs=1e-12)


def test_tensor_power_command(capsys, tmp_path):
    src = tmp_path / "p.json"
    write_bipartite(shared_bit(), src)
    out_path = tmp_path / "p2.json"
    code, out, _ = run(
        capsys, "tensor-power", str(src), "--power", "2", "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 4]
    assert doc["mass"] == pytest.approx(1.0, abs=1e-12)


def test_check_properties_passes_on_example(capsys, lemur_file):
    code, out, _ = run(
        capsys, "check-properties", lemur_file, "--trials", "10", "--seed", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert all(row["passed"] for row in doc["rows"])


def test_report_written_to_file(capsys, lemur_file, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "sbf", lemur_file, "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["lambda"] == 0.5


def _assert_domain_error(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_directory_as_input_or_report_destination(capsys, tmp_path, lemur_file):
    # Each is an OSError other than FileNotFoundError: a domain error, not a traceback.
    _assert_domain_error(*run(capsys, "sbf", str(tmp_path)))
    _assert_domain_error(*run(capsys, "sbf", lemur_file, "--out", str(tmp_path)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lemur.json"]


@pytest.mark.parametrize("command", ["sbf", "gen-satellite"])
def test_destination_in_a_missing_directory_is_a_write_error(capsys, tmp_path, lemur_file, command):
    # The write fails, not a read: the error names the destination.
    argv = [lemur_file] if command == "sbf" else ["--err-a", "0.1", "--err-b", "0.2", "--err-e", "0.3"]
    dest = tmp_path / "nodir" / "r.json"
    code, out, err = run(capsys, command, *argv, "--out", str(dest))
    _assert_domain_error(code, out, err)
    assert err.startswith(f"error: cannot write {dest}: ")
    assert "file not found" not in err
    assert not dest.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-satellite", "--err-a", "0.1", "--err-b", "0.2", "--err-e", "0.3"),
        ("gen-canonical", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25"),
        ("tensor-power", "{src}", "--power", "2"),
    ],
)
def test_writers_refuse_bad_destinations_and_csv_without_writing(capsys, tmp_path, argv):
    src = tmp_path / "src.json"
    write_bipartite(shared_bit(), src)
    argv = [arg.format(src=src) for arg in argv]
    out_dir = tmp_path / "dir"
    out_dir.mkdir()
    _assert_domain_error(*run(capsys, *argv, "--out", str(out_dir)))
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "made.json"), "--format", "csv")
    _assert_domain_error(code, out, err)
    assert "csv" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "src.json"]
    assert list(out_dir.iterdir()) == []


def test_undecodable_file_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    _assert_domain_error(*run(capsys, "sbf", str(path)))


def test_distill_refuses_asymmetric_eta(capsys):
    _assert_domain_error(*run(capsys, "distill", "--mu", "0.6", "--eta", "0.1,0.3,0.05,0.55", "--N", "3"))
    # With mu = 1 Eve never learns the bits, and the closed forms hold for any eta.
    code, out, _ = run(capsys, "distill", "--mu", "1", "--eta", "0.1,0.3,0.05,0.55", "--N", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["block_error_rate"] == 0.0


# The console contract: each row is an argv, its exit code and one check.
# ``{name}`` is an input file that ``INPUTS`` describes, written to the
# row's own directory, and ``{out}`` a destination there.  A row exiting
# 0 writes nothing to stderr and, with ``--format json``, strict JSON; a
# row exiting 1 writes only an ``error:`` line.  Timed rows run as
# ``python -W error -m secbit.cli`` with a 60 s timeout, so a slow path
# fails rather than hangs; the rest run in process, warnings as errors.


def _table_doc(m):
    """A table file's document: axes a, b and e for a 2-d or 3-d array, cells in index order."""
    dims = dict(zip("abe", m.shape))
    return {"dims": dims, "entries": [{**dict(zip(dims, i)), "p": m[i].item()} for i in np.ndindex(m.shape)]}


def _span_ab():
    rng = np.random.default_rng(5)
    m = rng.uniform(1.0, 2.0, (3, 3)) * 10.0 ** rng.choice([0.0, -170.0], size=(3, 3))
    m[0, 0], m[1, 1] = 1.0, 1e-170
    return m


def _subnormal():
    m = np.random.default_rng(1).uniform(0.1, 1, (2, 2, 3))
    return m / m.sum() * 1e-320


INPUTS = {
    "canon": ("gen-canonical", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25"),
    "sat": ("gen-satellite", "--err-a", "0.1", "--err-b", "0.2", "--err-e", "0.3"),
    "ab2": ("tensor-power", "{ab}", "--power", "2"),
    # Raw counts: the property suites run at a power-of-two scale, so rounding
    # stays within their absolute tolerances.
    "counts": lambda: np.random.default_rng(9).integers(100, 5001, (3, 3, 2)),
    "pab": lambda: np.random.default_rng(3).uniform(0.05, 1.0, (4, 5)),
    # Entries spanning 1e-170..1: cross-ratio products underflow, so the
    # stacked trials are read table by table.
    "span_ab": _span_ab,
    # The algebra suite's stacked einsums run in several blocks at 400 trials,
    # and every per-trial suite crosses three 8192-cell blocks at 20000.
    "bin3": lambda: np.random.default_rng(8).uniform(0.05, 1.0, (2, 2, 3)),
    "bin1": lambda: np.random.default_rng(8).uniform(0.05, 1.0, (2, 2, 1)),
    # The searches rescale a subnormal table by a power of two, so the bound keeps the coin toss.
    "tiny": _subnormal,
    "ab": lambda: np.array([[0.3, 0.1, 0.05], [0.05, 0.1, 0.4]]),
    "wide": lambda: np.full((1, 2000), 1 / 2000),
    # Entries spanning 1e-200 and 1e-182 of the largest: the witness weight
    # and the reversible cross term are products that underflow.
    "span": lambda: np.array([[1e-200, 1e-150], [1e-150, 1.0]]),
    "rev": lambda: np.array([[1e-7, 1e-182], [1.0, 1e-178]])[..., None],
    # Cross-ratio products that underflow (P01 P10 = 1e-341, P00 P11 = 1e-339;
    # the ratio is 0.01), and a diagonal ratio 1 / 5e-324 past the float maximum.
    "under": lambda: np.array([[1e-169, 1e-171, 1.0], [1e-170, 1e-170, 1.0]]),
    "huge": lambda: np.array([[1.0, 1e-300], [1e-300, 5e-324]])[..., None],
    # A one-cell table's power is its cell's power, taken in one step.
    "one": lambda: np.ones((1, 1)),
    "half": lambda: np.full((1, 1), 0.5),
}


class _Inputs(dict):
    """Input paths by name; each file is written the first time a row names it."""

    def __init__(self, tmp_path):
        super().__init__(out=tmp_path / "out.json")
        self.tmp_path = tmp_path

    def __missing__(self, name):
        path = self.tmp_path / f"{name}.json"
        source = INPUTS[name]
        if callable(source):
            path.write_text(json.dumps(_table_doc(source())))
        else:
            assert main([arg.format_map(self) for arg in source] + ["--out", str(path)]) == 0
        self[name] = path
        return path


def fields(**expected):
    return lambda doc, out: {key: doc[key] for key in expected} == expected


def near(key, value):
    return lambda doc, out: abs(doc[key] - value) <= 1e-12


def traces(doc, out):
    return _is_trace(doc["search_trace"]) and _is_trace(doc["oracle_trace"])


def above_coin_toss(doc, out):
    return doc["Lambda_lower_bound"] >= 0.5


def unwritten(doc, out):
    return not out.exists()


def wrote_one(doc, out):
    return [entry["p"] for entry in json.loads(out.read_text())["entries"]] == [1.0]


SIM = ("distill-sim", "{canon}", "--format", "json", "--samples")
PROPERTIES = ("check-properties", "--format", "json")
BILLION = ("tensor-power", "--power", "1000000000", "--out", "{out}")
DECOUPLED = ("mesbf-decoupled", "--format", "json")
OPT = ("mesbf-opt", "--format", "json")
# (argv, exit code, check, timed)
CONSOLE = [
    (("distill", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--auto"), 0, None, False),
    ((*SIM, "1000", "--N", "2000"), 0, None, False),
    # One-symbol blocks have no pair to test, so every block is accepted; 6
    # blocks of 9 is the count at the default seed.  Blocks longer than 2048
    # symbols are read alone, in column blocks, and none of 10^9 is held whole.
    ((*SIM, "2000", "--N", "1"), 0, fields(accepted=2000), True),
    ((*SIM, "20000", "--N", "9"), 0, fields(accepted=6), True),
    ((*SIM, "65536", "--N", "131072"), 0, fields(accepted=0), True),
    ((*SIM, "1000", "--N", "1000000000"), 0, fields(accepted=0), True),
    ((*PROPERTIES, "{sat}", "--trials", "5"), 0, fields(failed=0), False),
    ((*OPT, "{sat}", "--restarts", "4", "--iters", "300", "--oracle"), 0, traces, False),
    # 10^8 random starts are refused before any is built.
    (("mesbf-opt", "{canon}", "--restarts", "100000000"), 1, None, True),
    ((*PROPERTIES, "{counts}", "--trials", "20"), 0, fields(failed=0), False),
    ((*PROPERTIES, "{pab}"), 0, fields(failed=0), True),
    ((*PROPERTIES, "{span_ab}"), 0, fields(failed=0), True),
    ((*PROPERTIES, "{bin3}", "--trials", "400"), 0, fields(failed=0), True),
    ((*PROPERTIES, "{bin1}", "--trials", "20000"), 0, fields(failed=0), True),
    # A billion copies are refused before any exact cell count is built; of
    # one cell they end at once, and one that underflows writes no file.
    ((*BILLION, "{ab}"), 1, unwritten, True),
    ((*BILLION, "{one}"), 0, wrote_one, True),
    ((*BILLION, "{half}"), 1, unwritten, True),
    # A budget of 2^63 evaluations reads as none.
    ((*OPT, "{sat}", "--restarts", "2", "--iters", str(2**63)), 0, None, False),
    ((*DECOUPLED, "{ab}", "--power", "2"), 0, near("Lambda", 48 / 49), False),
    ((*DECOUPLED, "{ab2}"), 0, near("Lambda", 48 / 49), False),
    ((*DECOUPLED, "{wide}"), 0, fields(Lambda=0.5, branch="coin-toss"), False),
    ((*DECOUPLED, "{span}"), 0, fields(Lambda=1.0), False),
    (("mesbf-r", "{rev}", "--format", "json"), 0, near("Lambda_R", 0.9693465699682845), False),
    ((*DECOUPLED, "{under}"), 0, near("Lambda", 1 / 1.1), False),
    ((*DECOUPLED, "{under}", "--power", "2"), 0, near("Lambda", 1 / 1.01), False),
    (("mesbf-r", "{huge}", "--format", "json"), 0, fields(Lambda_R=1.0), False),
    ((*OPT, "{tiny}", "--restarts", "2", "--iters", "50", "--oracle"), 0, above_coin_toss, False),
]


def test_console_rows_name_distinct_argvs():
    assert len({row[0] for row in CONSOLE}) == len(CONSOLE)


@pytest.mark.parametrize("argv, code, check, timed", CONSOLE, ids=[" ".join(row[0]) for row in CONSOLE])
def test_console_contract(capsys, tmp_path, argv, code, check, timed):
    inputs = _Inputs(tmp_path)
    argv = [arg.format_map(inputs) for arg in argv]
    if timed:
        command = [sys.executable, "-W", "error", "-m", "secbit.cli", *argv]
        done = subprocess.run(command, capture_output=True, text=True, timeout=60)
        status, out, err = done.returncode, done.stdout, done.stderr
    else:
        status, out, err = run(capsys, *argv)
    if code == 1:
        _assert_domain_error(status, out, err)
    else:
        assert (status, err) == (0, "")
    doc = json.loads(out, parse_constant=_reject) if "json" in argv else None
    assert check is None or check(doc, inputs["out"])
