"""The oracle's Gamma channel computes on the signed int monomials X^a Z^b:
it names none of the i-exponent or Gaussian-integer helpers.  Gamma_x and a
rational row over one denominator each have one computed form in the
package."""

import io
import tokenize
from pathlib import Path

from qdelsarte import oracle

SOURCES = sorted(Path(oracle.__file__).resolve().parent.rglob("*.py"))
GONE_NAMES = {"_gamma_monomial", "_over_one_denominator"}
PHASE_NAMES = {"_gamma_monomial", "GI_UNITS", "gi_times", "gi_mul_rows", "gi_mul_mono",
               "_trace_units"}


def names(path: Path) -> list[tokenize.TokenInfo]:
    return [tok for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            if tok.type == tokenize.NAME]


def test_oracle_names_no_phase_arithmetic():
    path = Path(oracle.__file__).resolve()
    found = [f"{path.name}:{tok.start[0]} {tok.string}"
             for tok in names(path) if tok.string in PHASE_NAMES]
    assert not found, found


def test_one_computed_form_of_gamma_and_of_a_rational_row():
    found, defined = [], []
    for path in SOURCES:
        toks = names(path)
        found += [f"{path.name}:{tok.start[0]} {tok.string}"
                  for tok in toks if tok.string in GONE_NAMES]
        defined += [path.name for d, tok in zip(toks, toks[1:])
                    if d.string == "def" and tok.string == "_signed_monomial"]
    assert not found, found
    assert defined == ["clifford.py"], defined
