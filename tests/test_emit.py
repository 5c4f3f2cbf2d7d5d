"""The printed documents: table bytes pinned, --out equal to stdout, one emitter."""

import ast
import io
import json
import sys
from pathlib import Path

import pytest

from qdelsarte import cli

SRC = Path(cli.__file__).parent

# csv and md bytes as printed before every command wrote through one emitter
GOLDEN = {
    "wtj --family qhamming --q 2 --n 2": (
        "t\\j,0,1,2\n0,1/4,1/4,1/4\n1,3/2,1/2,-1/2\n2,9/4,-3/4,1/4\nlambda,1,-1,1\n",
        "| t\\j | 0 | 1 | 2 |\n| --- | --- | --- | --- |\n| 0 | 1/4 | 1/4 | 1/4 |\n"
        "| 1 | 3/2 | 1/2 | -1/2 |\n| 2 | 9/4 | -3/4 | 1/4 |\n| lambda | 1 | -1 | 1 |\n"),
    "wtj --family su-sym --q 3 --n 3": (
        "t\\j,0,1,2,3\n0,1/10,1/10,1/10,1/10\n1,4/5,3/5,4/15,-1/5\n"
        "2,27/10,9/10,-47/70,9/70\n3,32/5,-8/5,32/105,-1/35\n",
        "| t\\j | 0 | 1 | 2 | 3 |\n| --- | --- | --- | --- | --- |\n"
        "| 0 | 1/10 | 1/10 | 1/10 | 1/10 |\n| 1 | 4/5 | 3/5 | 4/15 | -1/5 |\n"
        "| 2 | 27/10 | 9/10 | -47/70 | 9/70 |\n| 3 | 32/5 | -8/5 | 32/105 | -1/35 |\n"),
    "bound --family su2 --n 8 --d 3 --self-dual --tol 1/1000": (
        "family,d,self_dual,pure,integer,lower,upper,exact,decimal\n"
        "su2,3,True,False,False,2161/1024,1081/512,False,2.110\n",
        "| family | d | self_dual | pure | integer | lower | upper | exact | decimal |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| su2 | 3 | True | False | False | 2161/1024 | 1081/512 | False | 2.110 |\n"),
    "feasible --family clifford-odd --n 7 --d 3 --k 8": (
        "key,value\nfamily,clifford-odd\nd,3\nk,8\nfeasible,True\nwitness,8 0 0 0 0 0 0 120\n",
        "| key | value |\n| --- | --- |\n| family | clifford-odd |\n| d | 3 |\n| k | 8 |\n"
        "| feasible | True |\n| witness | 8 0 0 0 0 0 0 120 |\n"),
    "feasible --family clifford-odd --n 7 --d 3 --k 20": (
        "key,value\nfamily,clifford-odd\nd,3\nk,20\nfeasible,False\n",
        "| key | value |\n| --- | --- |\n| family | clifford-odd |\n| d | 3 |\n| k | 20 |\n"
        "| feasible | False |\n"),
    "table --family qhamming --q 2 --n-from 2 --n-to 4 --d-from 2 --d-to 4 --tol 1/1000": (
        "n,d=2,d=3,d=4\n2,1,1,\n3,2,1,1\n4,4,1,1\n",
        "| n | d=2 | d=3 | d=4 |\n| --- | --- | --- | --- |\n| 2 | 1 | 1 |  |\n"
        "| 3 | 2 | 1 | 1 |\n| 4 | 4 | 1 | 1 |\n"),
    "table --family su2 --self-dual --n-from 4 --n-to 5 --d-from 2 --d-to 3 --tol 1/1000": (
        "n,d=2,d=3\n4,2,1\n5,2.250,1\n",
        "| n | d=2 | d=3 |\n| --- | --- | --- |\n| 4 | 2 | 1 |\n| 5 | 2.250 | 1 |\n"),
}


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("QLP_THREADS", "1")


@pytest.mark.parametrize("argv", GOLDEN)
@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_table_formats_print_their_pinned_bytes(argv, fmt, capsys):
    rc = cli.main(argv.split() + ["--format", fmt])
    assert rc == (1 if argv.endswith("--k 20") else 0)
    assert capsys.readouterr() == (GOLDEN[argv][fmt == "md"], "")


def test_wtj_table_cells_are_the_json_cells(capsys):
    for argv in [a for a in GOLDEN if a.startswith("wtj")]:
        assert cli.main(argv.split()) == 0
        doc = json.loads(capsys.readouterr().out)
        assert cli.main(argv.split() + ["--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        lam = [list(map(str, doc["lambda"]))] if "lambda" in doc else []
        assert [row[1:] for row in rows] == doc["wtj"] + lam


CODE = {"kind": "clifford-stabilizer", "n": 3, "generators": ["111111"], "signs": [1]}
EVERY_COMMAND = [
    *(f"{argv} --format {fmt}" for argv in GOLDEN for fmt in ("json", "csv", "md")),
    "construct --code clifford-hamming --s 3",
    "construct --code su2-quarter --n 9",
    "verify",
    "verify --reading spinorial",
    "oracle --family su2 --n 4",
    "oracle --family qhamming --q 3 --n 2",
]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_out_writes_the_bytes_stdout_prints(argv, tmp_path, monkeypatch, capsys):
    path = tmp_path / "out"
    for target in (None, path):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CODE)))
        extra = [] if target is None else ["--out", str(target)]
        assert cli.main(argv.split() + extra) in (0, 1)
    printed, err = capsys.readouterr()
    assert err == "" and printed.endswith("\n")
    assert path.read_bytes() == printed.encode()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-str cap")
def test_a_dimension_past_the_int_to_str_cap_prints(monkeypatch, capsys):
    # one generator on n = 2200 qubits: dimension 2^2199 has 662 digits
    n = 2200
    doc = {"kind": "clifford-stabilizer", "n": n,
           "generators": ["1" + "0" * (2 * n - 1)], "signs": [1]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc = cli.main(["verify"])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert json.loads(out)["dimension"] == 2 ** 2199


def test_each_verdict_has_one_record_and_each_document_one_emitter():
    retired = {"FeasibleReport", "WtjReport", "LambdaReport"}
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        defined = {node.name for node in nodes if isinstance(node, ast.ClassDef)}
        defined |= {node.id for node in nodes
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert not defined & retired, path.name
    # json.dumps, imported no other way, is called inside cli._emit only
    tree = ast.parse((SRC / "cli.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"]
    emit = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_emit"]
    assert len(emit) == 1

    def dumps_calls(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Attribute)
                and node.attr == "dumps" and getattr(node.value, "id", None) == "json"]

    assert len(dumps_calls(emit[0])) == len(dumps_calls(tree)) == 1
