"""The package computes in int, Fraction and SurdSum: Gaussian integers are
(re, im) pairs of ints, and `GaussianRational` is only the tests' reference."""

import io
import tokenize
from pathlib import Path

import qdelsarte

REFERENCE_NAMES = {"GaussianRational", "gr_i_power", "GR_ONE", "GR_I", "GR_ZERO"}


def test_package_names_no_gaussian_rational():
    paths = sorted(Path(qdelsarte.__file__).resolve().parent.glob("*.py"))
    assert {"clifford.py", "oracle.py", "scalars.py"} <= {p.name for p in paths}
    found = [f"{path.name}:{tok.start[0]} {tok.string}" for path in paths
             for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
             if tok.type == tokenize.NAME and tok.string in REFERENCE_NAMES]
    assert not found, found
