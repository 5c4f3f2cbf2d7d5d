"""End-to-end CLI behavior: formats, exit codes, construct/verify round trips."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdelsarte.cli import _decimal
from qdelsarte.scalars import over_one_denominator
from reference import wtj_fractions

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


@pytest.mark.parametrize("x, want", [
    (Fraction(0), "0.000"),
    (Fraction(1, 2000), "0.001"),  # half-way ties round up
    (Fraction(3, 2000), "0.002"),
    (Fraction(-1, 2000), "-0.001"),
    (Fraction(1, 2001), "0.000"),
    (Fraction(10 ** 25), "1" + "0" * 25 + ".000"),
    (Fraction(10 ** 100), "1" + "0" * 100 + ".000"),
    (Fraction(2 ** 1023 - 1, 3), f"{(2 ** 1023 - 1) // 3}.333"),
    (2 ** 1023 - Fraction(1, 2000), f"{2 ** 1023}.000"),  # a tie that carries
], ids=["0", "1/2000", "3/2000", "-1/2000", "1/2001", "10^25", "10^100", "(2^1023-1)/3",
        "2^1023-1/2000"])
def test_decimal_column_renders_every_value(x, want):
    # the 28-digit decimal context raised InvalidOperation from 10^25 on
    assert _decimal(x) == want


@given(st.fractions(max_denominator=10 ** 9).filter(lambda x: abs(x) < 10 ** 20))
def test_decimal_column_matches_decimal_half_up(x):
    quantum = Decimal("0.001")
    want = (Decimal(x.numerator) / Decimal(x.denominator)).quantize(quantum, ROUND_HALF_UP)
    assert _decimal(x) == str(want)


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


@pytest.mark.parametrize("args,message", [
    (("wtj", "--family", "su2", "--n", "2", "--q", "7", "--w", "9"), "su2 takes no --q"),
    (("bound", "--family", "clifford-odd", "--n", "3", "--w", "2", "--d", "2"),
     "clifford-odd takes no --w"),
    (("table", "--family", "su2", "--q", "5", "--n-from", "2", "--n-to", "3",
      "--d-from", "2", "--d-to", "2"), "su2 takes no --q"),
    (("oracle", "--family", "qhamming", "--q", "2", "--n", "2", "--w", "1"),
     "qhamming takes no --w"),
], ids=["wtj", "bound", "table", "oracle"])
def test_family_flag_the_family_does_not_take_exits_2(args, message):
    res = run(*args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {message}\n"


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
    # a non-int n, k or r, or a non-string c, is refused, not coerced
    {"kind": "clifford-stabilizer", "n": 1.9, "generators": ["11"], "signs": [1]},
    {"kind": "clifford-stabilizer", "n": True, "generators": ["11"], "signs": [1]},
    {"kind": "su2-vectors", "family": {"su2": {"n": 2.0}},
     "vectors": [[{"k": 0, "amp": [{"c": "1", "r": 1}]}]]},
    {"kind": "su2-vectors", "family": {"su2": {"n": 2}},
     "vectors": [[{"k": True, "amp": [{"c": "1", "r": 1}]}]]},
    {"kind": "su2-vectors", "family": {"su2": {"n": 2}},
     "vectors": [[{"k": 0, "amp": [{"c": "1", "r": 2.9}]}]]},
    {"kind": "su2-vectors", "family": {"su2": {"n": 2}},
     "vectors": [[{"k": 0, "amp": [{"c": 0.1, "r": 1}]}]]},
], ids=["no-n", "no-generators", "su2-no-family", "n0", "float-sign", "bool-sign",
        "su2-n0", "float-n", "bool-n", "su2-float-n", "su2-bool-k", "su2-float-r",
        "su2-float-c"])
def test_verify_malformed_document_exits_2(doc):
    res = run("verify", stdin=json.dumps(doc))
    assert res.returncode == 2
    assert res.stderr.startswith("error: malformed") and "Traceback" not in res.stderr


@pytest.mark.parametrize("doc,message", [
    ({"n": 0, "generators": [], "signs": []}, "need n >= 1, got n=0"),
    ({"n": 1, "generators": ["11"], "signs": [1, 1]},
     "signs and generators must have equal length"),
    ({"n": 1, "generators": ["11"], "signs": [2]}, "signs must be the integers +1 or -1"),
    ({"n": 1, "generators": ["00"], "signs": [1]}, "generators must be nonzero 2-bit labels"),
], ids=["n0", "extra-sign", "sign-2", "zero-generator"])
def test_verify_of_a_refused_stabilizer_code_exits_2(doc, message, monkeypatch, capsys):
    # in-process, unlike the subprocess test above, so coverage sees the refusals
    from qdelsarte import cli
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"kind": "clifford-stabilizer", **doc})))
    assert cli.main(["verify"]) == 2
    assert capsys.readouterr() == ("", "error: malformed clifford-stabilizer document: "
                                       f"ValueError {message}\n")


def test_verify_refuses_a_huge_radicand_fast():
    # factoring the prime r = 2^61 - 1 by trial division runs for minutes
    doc = {"kind": "su2-vectors", "family": {"su2": {"n": 2}},
           "vectors": [[{"k": 0, "amp": [{"c": "1", "r": 2 ** 61 - 1}]}]]}
    start = time.perf_counter()
    res = run("verify", stdin=json.dumps(doc), timeout=60)
    assert time.perf_counter() - start < 2
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: malformed su2-vectors document")
    assert "exceeds" in res.stderr and "Traceback" not in res.stderr


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


def test_the_malformed_number_documents_verify_with_ints():
    # so exit 2 above comes from the type checks: 1.9 and true used to be
    # truncated to 1, a radicand 2.9 to 2 and c = 0.1 read as a binary
    # float, with exit 0
    doc = {"kind": "clifford-stabilizer", "n": 1, "generators": ["11"], "signs": [1]}
    assert run("verify", stdin=json.dumps(doc)).returncode == 0
    doc = {"kind": "su2-vectors", "family": {"su2": {"n": 2}},
           "vectors": [[{"k": 0, "amp": [{"c": "1", "r": 2}]}]]}
    assert run("verify", stdin=json.dumps(doc)).returncode == 0


def test_oracle_checks_the_susym_q2_signature():
    res = run("oracle", "--family", "su-sym", "--q", "2", "--n", "4")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["lambda_match"] is True and out["lambda_mismatches"] == []


def test_lp_commands_do_not_import_the_code_modules():
    # one interpreter runs every command in turn, and after each the code
    # modules must still be unloaded
    commands = [["wtj", "--family", "clifford-odd", "--n", "3"],
                ["bound", "--family", "su2", "--n", "5", "--d", "2"],
                ["feasible", "--family", "spinorial", "--n", "3", "--d", "2", "--k", "1"],
                ["table", "--family", "clifford-even", "--n-from", "2", "--n-to", "3",
                 "--d-from", "2", "--d-to", "2"]]
    probe = ("import sys, contextlib, io\n"
             "from qdelsarte import cli\n"
             f"for argv in {commands!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        rc = cli.main(argv)\n"
             "    print(argv[0], rc, sorted(m for m in ('qdelsarte.clifford', 'qdelsarte.su2',\n"
             "                                          'qdelsarte.oracle') if m in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.stdout.splitlines() == [f"{argv[0]} 0 []" for argv in commands], res.stderr


def test_reading_choices_are_the_clifford_readings():
    # --reading offers the readings of families.READINGS, in its order
    from qdelsarte.families import READINGS
    res = run("verify", "--reading", "bogus")
    assert res.returncode == 2 and res.stdout == ""
    assert f"invalid choice: 'bogus' (choose from {', '.join(map(repr, READINGS))})" \
        in res.stderr


@pytest.mark.parametrize("args,message", [
    (("construct", "--code", "su2-quarter", "--n", "5", "--s", "3"),
     "su2-quarter takes no --s"),
    (("construct", "--code", "su2-third", "--n", "6", "--s", "3"), "su2-third takes no --s"),
    (("construct", "--code", "clifford-hamming", "--s", "3", "--n", "9"),
     "clifford-hamming takes no --n"),
], ids=["su2-quarter", "su2-third", "clifford-hamming"])
def test_construct_flag_the_code_does_not_take_exits_2(args, message):
    res = run(*args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"error: {message}\n"


def test_verify_reading_of_an_su2_document_exits_2():
    code = run("construct", "--code", "su2-third", "--n", "6").stdout
    res = run("verify", "--reading", "odd", stdin=code)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: su2-vectors takes no --reading\n"


def test_verify_refuses_a_weight_listed_twice():
    # a dict built from the entries kept only the last one, so the repeated
    # document verified exactly like the original
    doc = json.loads(run("construct", "--code", "su2-quarter", "--n", "8").stdout)
    vec = doc["vectors"][0]
    vec.append({"k": vec[0]["k"], "amp": [{"c": "1", "r": 1}]})
    res = run("verify", stdin=json.dumps(doc))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == ("error: malformed su2-vectors document: "
                          "ValueError a weight k is listed twice in one vector\n")


def test_table_pool_has_one_worker_per_usable_cpu(monkeypatch, capsys):
    import os as os_module
    from qdelsarte import cli
    sizes = []

    def serial(jobs, workers):  # records the count, forks nothing
        sizes.append(workers)
        return {}

    monkeypatch.setattr(cli, "_forked_cells", serial)
    argv = ["table", "--family", "su2", "--n-from", "3", "--n-to", "4",
            "--d-from", "2", "--d-to", "3"]
    # one usable CPU: one worker, so nothing is forked, whatever os.cpu_count() says
    monkeypatch.setattr(os_module, "cpu_count", lambda: 8)
    monkeypatch.setattr(os_module, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.main(argv) == 0
    assert sizes == [1]
    monkeypatch.setattr(os_module, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert cli.main(argv) == 0
    assert sizes == [1, 3]
    # never more workers than cells: eight CPUs and two cells fork one child
    monkeypatch.setattr(os_module, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli.main(argv[:-1] + ["2"]) == 0
    assert sizes == [1, 3, 2]
    capsys.readouterr()


SWEEP_TABLES = [  # the four tables of the table-sweep benchmark
    ["--family", "clifford-odd", "--n-from", "3", "--n-to", "8"],
    ["--family", "qhamming", "--q", "2", "--n-from", "2", "--n-to", "7"],
    ["--family", "su-sym", "--q", "3", "--n-from", "2", "--n-to", "6"],
    ["--family", "su2", "--self-dual", "--n-from", "4", "--n-to", "8"],
]


def _table(argv, threads, capsys, monkeypatch):
    """(exit code, stdout, stderr) of an in-process `table` on `threads` usable
    CPUs; afterwards no child of this process is left, running or unreaped."""
    from qdelsarte import cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)),
                        raising=False)
    rc = cli.main(["table", *argv, "--d-from", "2", "--d-to", "4", "--tol", "1/2000"])
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return rc, out, err


@pytest.mark.parametrize("argv", SWEEP_TABLES, ids=lambda a: a[1])
def test_forked_table_prints_what_the_serial_one_does(argv, capsys, monkeypatch):
    serial = _table(argv, 1, capsys, monkeypatch)
    assert serial[0] == 0 and serial[2] == ""
    assert _table(argv, 2, capsys, monkeypatch) == serial


def _hook_lp_bound(monkeypatch, hook):
    """Run hook(spec, d) before each lp_bound of cli."""
    from qdelsarte import cli
    real = cli.lp_bound

    def lp_bound(spec, d, *args, **kwargs):
        hook(spec, d)
        return real(spec, d, *args, **kwargs)

    monkeypatch.setattr(cli, "lp_bound", lp_bound)


# jobs run largest n first, d = 2, 3, 4 for each n; of two workers, this
# process takes the even jobs, the child the odd ones
@pytest.mark.parametrize("bad", [{(8, 2)}, {(7, 2)}, {(7, 3)}, {(7, 3), (7, 2)}, {(3, 4)}],
                         ids=["first-job", "child", "parent", "both", "last-job"])
def test_a_cell_that_raises_fails_as_in_a_serial_run(bad, capsys, monkeypatch):
    def hook(spec, d):
        if (spec.n, d) in bad:
            raise ValueError(f"no bound at n={spec.n}, d={d}")

    _hook_lp_bound(monkeypatch, hook)
    serial = _table(SWEEP_TABLES[0], 1, capsys, monkeypatch)
    n, d = max(bad, key=lambda nd: (nd[0], -nd[1]))  # the first in job order
    assert serial == (2, "", f"error: no bound at n={n}, d={d}\n")
    assert _table(SWEEP_TABLES[0], 2, capsys, monkeypatch) == serial


def test_a_child_that_dies_leaves_its_cells_to_the_parent(capsys, monkeypatch):
    import signal
    parent, in_parent = os.getpid(), set()

    def hook(spec, d):  # the child dies at its first cell of n = 6
        if os.getpid() != parent and spec.n == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() == parent:
            in_parent.add((spec.n, d))

    want = _table(SWEEP_TABLES[1], 1, capsys, monkeypatch)
    _hook_lp_bound(monkeypatch, hook)
    assert _table(SWEEP_TABLES[1], 2, capsys, monkeypatch) == want
    # the child delivered (7, 3) before it died at (6, 2)
    assert (6, 2) in in_parent and (7, 3) not in in_parent


def test_a_child_that_exits_runs_none_of_the_callers_code():
    # stdout is a pipe, so "before" sits in the caller's buffer while it forks;
    # a child that flushed it, or returned into the caller, would print twice
    probe = ("import os, sys\n"
             "from qdelsarte import cli\n"
             "parent, real = os.getpid(), cli.lp_bound\n"
             "def lp_bound(spec, *args, **kwargs):\n"
             "    if os.getpid() != parent:\n"
             "        raise SystemExit(7)\n"
             "    return real(spec, *args, **kwargs)\n"
             "cli.lp_bound = lp_bound\n"
             "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
             "sys.stdout.write('before ')\n"
             "try:\n"
             "    rc = cli.main(['table', '--family', 'su2', '--n-from', '3', '--n-to', '5',\n"
             "                   '--d-from', '2', '--d-to', '3', '--format', 'csv'])\n"
             "except SystemExit as exc:\n"
             "    rc = f'caught {exc.code}'\n"
             "print('rc', rc)\n")
    runs = [subprocess.run([sys.executable, "-c", probe, threads], capture_output=True,
                           text=True, timeout=60)
            for threads in ("1", "2")]
    serial, forked = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert serial[1].startswith("before n,d=2,d=3\n") and serial[1].endswith("\nrc 0\n")
    assert forked == serial


def test_a_forked_table_imports_no_process_pool():
    probe = ("import os, sys, contextlib, io\n"
             "from qdelsarte import cli\n"
             "os.sched_getaffinity = lambda pid: {0, 1}\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    rc = cli.main(['table', '--family', 'su2', '--n-from', '3', '--n-to', '4',\n"
             "                   '--d-from', '2', '--d-to', '3'])\n"
             "print(rc, sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
             "                 if m in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60)
    assert res.stdout == "0 []\n", res.stderr


def test_main_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; each call still parses afresh
    from qdelsarte import cli
    bound = ["bound", "--family", "su2", "--n", "8", "--d", "3", "--tol", "1/1000"]
    assert cli.main(bound + ["--self-dual", "--integer"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["feasible", "--family", "su2", "--n", "8", "--d", "3", "--k", "2"]) == 0
    capsys.readouterr()
    assert cli.main(bound) == 0
    plain = json.loads(capsys.readouterr().out)
    assert (first["self_dual"], first["integer"]) == (True, True)
    assert (plain["self_dual"], plain["integer"]) == (False, False)
    assert plain == json.loads(run(*bound).stdout)
    assert cli._parser() is cli._parser()
    usage = ["table", "--family", "su2", "--n-from", "3"]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(usage)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", run(*usage).stderr)


def test_verify_over_the_enumeration_budget_exits_2(tmp_path, monkeypatch, capsys):
    from qdelsarte import cli, clifford
    path = tmp_path / "code.json"
    assert cli.main(["construct", "--code", "clifford-hamming", "--s", "4",
                     "--out", str(path)]) == 0
    # s = 4: the span and the complemented generators' span hold 2^5 labels each
    monkeypatch.setattr(clifford, "ENUMERATION_BUDGET", 63)
    assert cli.main(["verify", "--code", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: distribution enumeration exceeds the operation budget\n"


def test_verify_of_an_n255_code_builds_few_krawtchouk_rows(tmp_path, capsys):
    # MacWilliams and W.A over 510 letters read a handful of cached rows; a
    # sum per coefficient made 1.57 M math.comb calls in the even reading
    from qdelsarte import cli, families
    path = tmp_path / "code.json"
    assert cli.main(["construct", "--code", "clifford-hamming", "--s", "8",
                     "--out", str(path)]) == 0
    for reading in ("even", "odd", "spinorial"):
        families._krawtchouk_row.cache_clear()
        assert cli.main(["verify", "--code", str(path), "--reading", reading]) == 0
        assert json.loads(capsys.readouterr().out)["transform_check"] is True
        assert families._krawtchouk_row.cache_info().misses <= 8, reading


def test_verify_and_oracle_leave_the_kronecker_definition_alone(tmp_path, monkeypatch,
                                                                capsys):
    # weyl_brauer and its GaussianRational entries are only the tests' reference
    from collections import Counter
    from qdelsarte import cli, clifford, families, oracle, wtj
    from reference import GaussianRational
    path = tmp_path / "code.json"
    assert cli.main(["construct", "--code", "clifford-hamming", "--s", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    for module in (clifford, families, oracle, wtj):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    made = Counter()
    init, make = GaussianRational.__init__, GaussianRational._make

    def counting_init(self, *args):
        made["init"] += 1
        init(self, *args)

    def counting_make(*args):
        made["make"] += 1
        return make(*args)

    assert not hasattr(clifford, "weyl_brauer")
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    monkeypatch.setattr(GaussianRational, "_make", staticmethod(counting_make))
    for reading in ("even", "odd", "spinorial"):
        assert cli.main(["verify", "--code", str(path), "--reading", reading]) == 0
    for family, n in (("clifford-odd", 3), ("clifford-even", 3), ("spinorial", 3),
                      ("semispinorial", 4)):
        assert cli.main(["oracle", "--family", family, "--n", str(n)]) == 0, family
    capsys.readouterr()
    assert not made


def test_oracle_reports_a_formula_that_disagrees_with_the_bruteforce(monkeypatch, capsys):
    # one entry of the table the oracle checks is perturbed: W_1(2) of
    # qhamming q = 2, n = 2 is -1/2, and the brute force must say so
    from qdelsarte import cli, oracle
    real = oracle.wtj_matrix

    def perturbed(spec):
        W = [list(row) for row in wtj_fractions(real(spec))]
        W[1][2] += 1
        return tuple(map(over_one_denominator, W))

    monkeypatch.setattr(oracle, "wtj_matrix", perturbed)
    assert cli.main(["oracle", "--family", "qhamming", "--q", "2", "--n", "2"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["wtj_match"] is False
    assert out["wtj_mismatches"] == [{"t": 1, "j": 2, "bruteforce": "-1/2", "formula": "1/2"}]
    assert out["lambda_match"] is True


def test_unattainable_distance_bounds_k_by_zero_and_one():
    # no 2-uniform 3-qubit state exists, so the pure system is infeasible
    # already at K = 1
    res = run("bound", "--family", "qhamming", "--q", "2", "--n", "3", "--d", "3", "--pure")
    assert res.returncode == 0 and res.stderr == ""
    out = json.loads(res.stdout)
    assert (out["lower"], out["upper"], out["exact"]) == ("0", "1", True)
