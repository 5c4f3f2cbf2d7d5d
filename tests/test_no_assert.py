"""Checks in the package raise explicit exceptions: `assert` vanishes under -O."""

import ast
from pathlib import Path

import qdelsarte


def test_package_has_no_assert_statements():
    paths = sorted(Path(qdelsarte.__file__).resolve().parent.glob("*.py"))
    assert {"clifford.py", "lp.py", "simplex.py"} <= {p.name for p in paths}
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _expected(call: ast.Call) -> list[ast.expr]:
    """The exception argument of a `pytest.raises` call, or [] for any other call."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "raises"
            or isinstance(func, ast.Name) and func.id == "raises"):
        return []
    return call.args[:1] + [k.value for k in call.keywords if k.arg == "expected_exception"]


def test_tests_do_not_expect_assertion_error():
    # a refusal the tests accept as AssertionError could be an assert
    paths = sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert Path(__file__).resolve() in paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             for arg in _expected(node) for name in ast.walk(arg)
             if isinstance(name, ast.Name) and name.id == "AssertionError"]
    assert not found, found
