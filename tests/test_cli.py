"""End-to-end CLI behavior: formats, exit codes, construct/verify round trips."""

import csv
import json
import subprocess
import sys
from fractions import Fraction

import pytest

CLI = [sys.executable, "-m", "qdelsarte.cli"]


def run(*args, stdin=None, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          input=stdin, timeout=timeout)


def test_wtj_json():
    res = run("wtj", "--family", "qhamming", "--q", "2", "--n", "1",
              "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["wtj"] == [["1/2", "1/2"], ["3/2", "-1/2"]]
    assert out["lambda"] == [1, -1]


def test_wtj_csv_and_md():
    csv = run("wtj", "--family", "su2", "--n", "2", "--format", "csv")
    assert csv.returncode == 0 and csv.stdout.count("\n") >= 3
    md = run("wtj", "--family", "su2", "--n", "2", "--format", "md")
    assert md.returncode == 0 and md.stdout.startswith("|")


def test_bound_exact_and_decimal():
    res = run("bound", "--family", "su2", "--n", "7", "--d", "3",
              "--format", "json")
    out = json.loads(res.stdout)
    assert out["exact"] is True
    assert out["lower"] == out["upper"] == "2"
    assert out["decimal"] == "2.000"


def test_bound_self_dual_flag_changes_value():
    plain = json.loads(run("bound", "--family", "su2", "--n", "8", "--d", "3",
                           "--tol", "1/1000", "--format", "json").stdout)
    sd = json.loads(run("bound", "--family", "su2", "--n", "8", "--d", "3",
                        "--tol", "1/1000", "--self-dual",
                        "--format", "json").stdout)
    assert float(sd["decimal"]) < float(plain["decimal"])


def test_feasible_exit_codes():
    ok = run("feasible", "--family", "su2", "--n", "7", "--d", "3", "--k", "2")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["feasible"] is True
    bad = run("feasible", "--family", "su2", "--n", "7", "--d", "3",
              "--k", "2001/1000")
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["feasible"] is False


def test_feasible_witness_sums_to_dim():
    from fractions import Fraction
    res = run("feasible", "--family", "clifford-odd", "--n", "4", "--d", "2",
              "--k", "8")
    wit = [Fraction(x) for x in json.loads(res.stdout)["witness"]]
    assert sum(wit) == 16 and wit[0] == 8


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_feasible_table_formats_keep_the_witness_in_one_cell(fmt):
    res = run("feasible", "--family", "su2", "--n", "8", "--d", "3", "--self-dual",
              "--k", "2", "--format", fmt)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    if fmt == "md":  # strip the table's outer pipes and its rule line
        lines = [line.strip("| ") for line in lines if not line.startswith("| ---")]
    rows = list(csv.reader(lines, delimiter="," if fmt == "csv" else "|"))
    assert all(len(row) == 2 for row in rows)
    cells = {k.strip(): v.strip() for k, v in rows}
    wit = [Fraction(x) for x in cells["witness"].split(" ")]
    assert sum(wit) == 9 and wit[0] == 2


def test_table_csv():
    res = run("table", "--family", "clifford-odd", "--n-from", "3",
              "--n-to", "4", "--d-from", "2", "--d-to", "3", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,d=2,d=3"
    assert lines[1].startswith("3,4,") and lines[2].startswith("4,8,")


def test_table_md_blank_beyond_diameter():
    res = run("table", "--family", "su-ext", "--w", "2", "--n-from", "4",
              "--n-to", "4", "--d-from", "2", "--d-to", "4", "--format", "md")
    assert res.returncode == 0
    # diameter of the w=2, n=4 exterior metric is 2, so d=4 > r+1 is blank
    row = res.stdout.strip().splitlines()[-1]
    assert row.split("|")[-2].strip() == ""


def test_construct_clifford_hamming_schema(tmp_path):
    res = run("construct", "--code", "clifford-hamming", "--s", "3")
    out = json.loads(res.stdout)
    assert out["kind"] == "clifford-stabilizer"
    assert out["n"] == 7
    assert sorted(out["generators"]) == sorted([
        "00011110001111", "01100110110011",
        "10101011010101", "11111110000000"])
    assert out["signs"] == [1, 1, 1, 1]
    assert all(len(g) == 14 and set(g) <= {"0", "1"} for g in out["generators"])


@pytest.mark.parametrize("s,reading,dist", [
    (3, "even", 3), (3, "odd", 3), (4, "even", 3), (4, "odd", 3),
    (5, "even", 3), (5, "odd", 3)],
    ids=["even-3", "odd-3", "s4-even-3", "s4-odd-3", "s5-even-3", "s5-odd-3"])
def test_construct_verify_round_trip_clifford(tmp_path, s, reading, dist):
    path = tmp_path / "code.json"
    res = run("construct", "--code", "clifford-hamming", "--s", str(s),
              "--out", str(path))
    assert res.returncode == 0
    ver = run("verify", "--code", str(path), "--reading", reading,
              "--format", "json")
    assert ver.returncode == 0
    out = json.loads(ver.stdout)
    n = 2 ** s - 1
    assert out["dimension"] == 2 ** (n - s - 1)
    assert out["min_distance"] == dist
    assert out["is_pure"] and out["is_nondegenerate"]
    assert out["A"][0] == str(out["dimension"]) and out["B"][0] == "1"
    assert len(out["A"]) == len(out["B"])
    assert out["transform_check"] is True


def test_verify_distribution_of_an_n8_code():
    # first labels that keep the set q-isotropic and independent: 1, 6, 24,
    # ..., 6144; the distribution enumerates 2^7 + 2^7 labels
    gens = ["1" + "0" * 15] + ["0" * (2 * k + 1) + "11" + "0" * (13 - 2 * k)
                              for k in range(6)]
    doc = {"kind": "clifford-stabilizer", "n": 8, "generators": gens,
           "signs": [1] * 7}
    ver = run("verify", "--format", "json", stdin=json.dumps(doc))
    assert ver.returncode == 0, ver.stderr
    out = json.loads(ver.stdout)
    assert out["dimension"] == 2
    assert out["transform_check"] is True


def test_verify_reads_stdin():
    code = run("construct", "--code", "su2-third", "--n", "6").stdout
    ver = run("verify", "--format", "json", stdin=code)
    assert ver.returncode == 0
    out = json.loads(ver.stdout)
    assert out["dimension"] == 3 and out["min_distance"] == 2


def test_construct_su2_quarter():
    res = run("construct", "--code", "su2-quarter", "--n", "8")
    out = json.loads(res.stdout)
    assert out["kind"] == "su2-vectors" and len(out["vectors"]) == 3
    ver = run("verify", "--format", "json", stdin=res.stdout)
    assert json.loads(ver.stdout)["min_distance"] == 2


def test_oracle_subcommand():
    res = run("oracle", "--family", "qhamming", "--q", "2", "--n", "2",
              "--format", "json")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["wtj_match"] is True and out["lambda_match"] is True


def test_invalid_family_parameters_exit_2():
    assert run("wtj", "--family", "qhamming", "--q", "1", "--n", "3").returncode == 2
    assert run("bound", "--family", "su-ext", "--n", "3", "--w", "3",
               "--d", "2").returncode == 2


@pytest.mark.parametrize("args", [
    ("bound", "--family", "su2", "--n", "7", "--d", "3", "--tol", "0"),
    ("bound", "--family", "su2", "--n", "7", "--d", "3", "--tol=-1/2"),
    ("table", "--family", "su2", "--n-from", "4", "--n-to", "5",
     "--d-from", "2", "--d-to", "3", "--tol", "0"),
], ids=["bound-zero", "bound-negative", "table-zero"])
def test_nonpositive_tol_exits_2_at_once(args):
    # a tol <= 0 used to make the bisection loop forever
    res = run(*args, timeout=60)
    assert res.returncode == 2
    assert res.stderr.startswith("error: tol must be positive")


@pytest.mark.parametrize("args", [
    ("bound", "--family", "su-sym", "--q", "3", "--n", "4", "--d", "2", "--self-dual"),
    ("feasible", "--family", "su-ext", "--n", "6", "--w", "2", "--d", "2", "--k", "1",
     "--self-dual"),
    ("table", "--family", "qhamming", "--q", "3", "--n-from", "2", "--n-to", "3",
     "--d-from", "2", "--d-to", "2", "--self-dual"),
], ids=["bound", "feasible", "table"])
def test_self_dual_without_signature_exits_2(args):
    res = run(*args)
    assert res.returncode == 2 and res.stdout == ""
    assert "has no self-dual signature" in res.stderr


def test_table_self_dual_check_beyond_the_diameter():
    # every cell lies beyond the diameter, so no LP is built; the request is
    # still malformed and must fail as --d-from 2 does
    res = run("table", "--family", "qhamming", "--q", "3", "--n-from", "2", "--n-to", "2",
              "--d-from", "4", "--d-to", "4", "--self-dual")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: qhamming has no self-dual signature\n"


@pytest.mark.parametrize("args", [
    ("--n-from", "9", "--n-to", "4", "--d-from", "2", "--d-to", "3"),
    ("--n-from", "4", "--n-to", "5", "--d-from", "4", "--d-to", "2"),
], ids=["n", "d"])
def test_table_empty_range_exits_2(args):
    res = run("table", "--family", "su2", *args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: empty range")


@pytest.mark.parametrize("args", [
    ("bound", "--family", "su2", "--n", "7", "--d", "3", "--tol", "1/0"),
    ("feasible", "--family", "su2", "--n", "7", "--d", "3", "--k", "1/0"),
    ("table", "--family", "su2", "--n-from", "4", "--n-to", "5",
     "--d-from", "2", "--d-to", "3", "--tol", "1/0"),
], ids=["bound", "feasible", "table"])
def test_zero_denominator_exits_2(args):
    res = run(*args, timeout=60)
    assert res.returncode == 2
    assert res.stderr.startswith("error: zero denominator") and "Traceback" not in res.stderr


@pytest.mark.parametrize("k", ["0", "-1", "-1/2"])
def test_nonpositive_k_exits_2(k):
    # K = 0 drops the normalisation and made the all-zero vector a witness
    res = run("feasible", "--family", "su2", "--n", "7", "--d", "3", f"--k={k}")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: K must be positive")


def test_tol_of_one_or_more_reports_the_bracket():
    # the integer snap once tested K = 1 + tol/2, far above the bracket, and
    # printed lower = upper = 1, exact, although the optimum is 56/5
    for tol in ("1000", "1"):
        out = json.loads(run("bound", "--family", "clifford-odd", "--n", "8",
                             "--d", "3", "--tol", tol).stdout)
        assert out["exact"] is False
        assert Fraction(out["lower"]) <= Fraction(56, 5) <= Fraction(out["upper"])
    out = json.loads(run("bound", "--family", "clifford-odd", "--n", "8",
                         "--d", "3", "--tol", "1000").stdout)
    assert (out["lower"], out["upper"], out["decimal"]) == ("1", "256", "1.000")
    res = run("table", "--family", "su2", "--n-from", "8", "--n-to", "8",
              "--d-from", "3", "--d-to", "3", "--tol", "100")
    assert res.returncode == 0
    assert json.loads(res.stdout)["rows"] == [{"n": 8, "bounds": ["1.000"]}]


def test_table_cells_are_pinned():
    # the cells printed before lp_bound warm-started its probes
    res = run("table", "--family", "clifford-odd", "--n-from", "3", "--n-to", "8",
              "--d-from", "2", "--d-to", "4", "--tol", "1/2000")
    assert res.returncode == 0
    assert [r["bounds"] for r in json.loads(res.stdout)["rows"]] == [
        ["4", "1", "1"], ["8", "1", "1"], ["16", "2.666", "1"],
        ["32", "3.333", "2.666"], ["64", "8", "3.333"], ["128", "11.200", "8"]]


@pytest.mark.parametrize("doc", [
    {"kind": "clifford-stabilizer"},
    {"kind": "clifford-stabilizer", "n": 3, "signs": []},
    {"kind": "su2-vectors", "vectors": []},
    {"kind": "clifford-stabilizer", "n": 0, "generators": [], "signs": []},
    {"kind": "clifford-stabilizer", "n": 1, "generators": ["11"], "signs": [1.0]},
    {"kind": "clifford-stabilizer", "n": 1, "generators": ["11"], "signs": [True]},
    {"kind": "su2-vectors", "family": {"su2": {"n": 0}},
     "vectors": [[{"k": 0, "amp": [{"c": "1", "r": 1}]}]]},
], ids=["no-n", "no-generators", "su2-no-family", "n0", "float-sign", "bool-sign",
        "su2-n0"])
def test_verify_malformed_document_exits_2(doc):
    res = run("verify", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert res.stderr.startswith("error: malformed") and "Traceback" not in res.stderr


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_verify_rejects_table_formats(fmt):
    # verify prints JSON only, so a table format is refused as a usage error
    code = run("construct", "--code", "su2-third", "--n", "6").stdout
    res = run("verify", "--format", fmt, stdin=code)
    assert res.returncode == 2 and res.stdout == ""
    assert "invalid choice" in res.stderr


def test_out_writes_file(tmp_path):
    path = tmp_path / "w.json"
    res = run("wtj", "--family", "su2", "--n", "3", "--format", "json",
              "--out", str(path))
    assert res.returncode == 0
    assert json.loads(path.read_text())["r"] == 3


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_verify_of_an_unreadable_code_file_exits_2(tmp_path, where):
    path = tmp_path / "absent.json" if where == "missing" else tmp_path
    res = run("verify", "--code", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_out_into_a_missing_directory_exits_2(tmp_path):
    res = run("wtj", "--family", "su2", "--n", "3",
              "--out", str(tmp_path / "absent" / "w.json"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
