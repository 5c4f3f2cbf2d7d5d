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
