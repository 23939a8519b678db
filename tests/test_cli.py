import csv
import io
import json
import warnings

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
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    ],
)
def test_count_arguments_below_one_rejected(capsys, tmp_path, argv):
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
    _assert_trace(doc["search_trace"])


def _assert_trace(trace):
    assert len(trace) == 3
    assert all(set(stage) == {"points", "candidates", "kept", "evals", "best"} for stage in trace)


def test_mesbf_opt_oracle_reports_the_grid_oracle(capsys, lemur_file):
    code, out, _ = run(capsys, "mesbf-opt", lemur_file, "--restarts", "4", "--iters", "300", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    expected = brute_force_mesbf(read_tripartite(lemur_file), SearchConfig(restarts=4, iterations=300))
    assert doc["oracle_value"] == expected.value
    assert doc["oracle_grid_points"] == 12
    assert doc["oracle_trace"] == expected.detail["trace"]
    _assert_trace(doc["search_trace"])
    _assert_trace(doc["oracle_trace"])


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
    code, out, _ = run(
        capsys,
        "gen-canonical",
        "--mu",
        "0.6",
        "--eta",
        "0.25,0.25,0.25,0.25",
        "--out",
        str(tmp_path / "canon.json"),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "distill-sim",
        str(tmp_path / "canon.json"),
        "--N",
        "3",
        "--samples",
        "20000",
        "--seed",
        "4",
        "--format",
        "json",
    )
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
    path = str(tmp_path / "canon.json")
    code, _, _ = run(capsys, "gen-canonical", "--mu", "0.6", "--eta", "0.25,0.25,0.25,0.25", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "distill-sim", path, "--N", "2000", "--samples", "500", "--format", "json")
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    doc = json.loads(out, parse_constant=reject)
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
