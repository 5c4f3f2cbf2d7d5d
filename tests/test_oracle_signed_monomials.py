"""The oracle's Gamma channel computes on the signed int monomials X^a Z^b:
it names none of the i-exponent or Gaussian-integer helpers."""

import io
import tokenize
from pathlib import Path

from qdelsarte import oracle

PHASE_NAMES = {"_gamma_monomial", "GI_UNITS", "gi_times", "gi_mul_rows", "gi_mul_mono",
               "_trace_units"}


def test_oracle_names_no_phase_arithmetic():
    path = Path(oracle.__file__).resolve()
    found = [f"{path.name}:{tok.start[0]} {tok.string}"
             for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
             if tok.type == tokenize.NAME and tok.string in PHASE_NAMES]
    assert not found, found
