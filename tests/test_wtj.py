"""Exact W_t(j) coefficient matrices and the self-dual signature catalog."""

import importlib
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdelsarte
from qdelsarte.families import (
    FAMILY_NAMES,
    CliffordEven,
    Family,
    CliffordOdd,
    QHamming,
    Semispinorial,
    Spinorial,
    Su2,
    SunExt,
    SuqSym,
    profile,
)
from qdelsarte.lp import lp_bound
from qdelsarte.wtj import lambda_signature, wtj, wtj_matrix, wtj_properties

# the grid over which the coefficient identities are certified exactly
PROPERTY_GRID = (
    [QHamming(q, n) for q in (2, 3) for n in range(1, 9)]
    + [Su2(n) for n in range(1, 31)]
    + [SuqSym(3, n) for n in range(1, 13)]
    + [SunExt(n, w) for n in range(2, 13) for w in range(1, n)]
    + [CliffordOdd(n) for n in range(1, 13)]
    + [CliffordEven(n) for n in range(1, 13)]
    + [Spinorial(n) for n in range(1, 13)]
    + [Semispinorial(n) for n in range(2, 13)]
    + [Su2(60), Su2(100), SuqSym(3, 20), SunExt(30, 15)]
)

# the families whose table is built by the three-term recurrence
RECURRENT_GRID = (
    [Su2(n) for n in range(1, 41)] + [Su2(60)]
    + [SuqSym(q, n) for q in (2, 3, 4) for n in range(1, 11)]
    + [SunExt(n, w) for n in range(2, 17) for w in range(1, n)]
)


def test_every_family_class_owns_its_table():
    small = [QHamming(3, 2), Su2(4), SuqSym(3, 3), SunExt(6, 3), CliffordOdd(3),
             CliffordEven(3), Spinorial(3), Semispinorial(4)]
    assert [type(s) for s in small] == list(FAMILY_NAMES.values())
    for spec in small:
        assert isinstance(spec, Family)
        W = wtj_matrix(spec)
        r = profile(spec).diameter_r
        assert all(spec.wtj(t, j) == wtj(spec, t, j) == W[t][j]
                   for t in range(r + 1) for j in range(r + 1))
        with pytest.raises(ValueError, match="outside"):
            wtj(spec, r + 1, 0)


@pytest.mark.parametrize("spec", PROPERTY_GRID, ids=str)
def test_wtj_matrix_identities(spec):
    # W is an involution; the weighted symmetry, first column, and first row
    # are pinned by the multiplicity profile (asserts internally)
    wtj_properties(spec)


def _serve_table(monkeypatch, W):
    """Make wtj_properties read the table W."""
    # the package exports the function wtj under the module's name
    monkeypatch.setattr(importlib.import_module("qdelsarte.wtj"), "wtj_matrix", lambda s: W)


def test_properties_refuse_a_table_that_is_not_an_involution(monkeypatch):
    # W_1(2) and W_2(1) move by dim V_1 and dim V_2 times the same amount,
    # so the dim V symmetry still holds and the boundary rows are untouched
    spec = QHamming(2, 2)
    dim_V = profile(spec).dim_V
    W = [list(row) for row in wtj_matrix(spec)]
    W[1][2] += Fraction(dim_V[1], 7)
    W[2][1] += Fraction(dim_V[2], 7)
    _serve_table(monkeypatch, W)
    with pytest.raises(ArithmeticError, match=r"^\(W\^2\)\["):
        wtj_properties(spec)


def test_properties_refuse_a_table_with_a_wrong_boundary_row(monkeypatch):
    # -W is an involution with the dim V symmetry, but W_0(0) = 1 / dim H
    # fails
    spec = QHamming(2, 2)
    _serve_table(monkeypatch, [[-v for v in row] for row in wtj_matrix(spec)])
    with pytest.raises(ArithmeticError, match=r"^W\[0\]\[0\] = -1/4 "):
        wtj_properties(spec)


def test_qubit_length_one():
    assert wtj_matrix(QHamming(2, 1)) == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(-1, 2)),
    )


def test_clifford_odd_row_one_closed_form():
    for n in range(1, 13):
        spec = CliffordOdd(n)
        for j in range(n + 1):
            assert wtj(spec, 1, j) == Fraction((-1) ** j * (2 * n + 1 - 2 * j), 2 ** n)


def test_qhamming_row_one_closed_form():
    for q in (2, 3):
        for n in range(1, 9):
            spec = QHamming(q, n)
            for j in range(n + 1):
                assert wtj(spec, 1, j) == Fraction((q * q - 1) * n - q * q * j, q ** n)


def test_row_zero_is_uniform():
    for spec in (QHamming(3, 4), Su2(9), Semispinorial(6)):
        p = profile(spec)
        assert all(wtj(spec, 0, j) == Fraction(1, p.dim_H)
                   for j in range(p.diameter_r + 1))


def test_spinorial_row_one_is_quadratic():
    for n in range(1, 13):
        spec = Spinorial(n)
        for j in range(n + 1):
            assert wtj(spec, 1, j) == Fraction(
                8 * j * j - (8 * n + 4) * j + 2 * n * n + n, 2 ** n)


def test_semispinorial_row_one_is_quadratic():
    # at n = 2 row 1 is the halved middle block and the quadratic form
    # does not apply
    for n in range(3, 13):
        spec = Semispinorial(n)
        r = profile(spec).diameter_r
        for j in range(r + 1):
            assert wtj(spec, 1, j) == Fraction(
                8 * j * j - 8 * j * n + n * (2 * n - 1), 2 ** (n - 1))


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=40, deadline=None)
def test_su2_entries_are_symmetric_in_weighted_form(n, data):
    spec = Su2(n)
    t = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, n))
    p = profile(spec)
    assert wtj(spec, t, j) * p.dim_V[j] == wtj(spec, j, t) * p.dim_V[t]


def su2_wtj_reference(n, t, j):
    """W_t(j) of Su2(n) as a sum of one Fraction per term, the form the
    closed formula is written in."""
    lo, hi = max(t, j), min(t + j, n)
    total = sum(Fraction((-1) ** s * factorial(n + s + 1),
                         factorial(s - t) ** 2 * factorial(s - j) ** 2
                         * factorial(t + j - s) ** 2 * factorial(n - s))
                for s in range(lo, hi + 1))
    pref = Fraction((-1) ** (t + j) * (2 * t + 1)
                    * factorial(t) ** 2 * factorial(j) ** 2
                    * factorial(n - t) * factorial(n - j),
                    factorial(n + t + 1) * factorial(n + j + 1))
    return pref * total


def test_su2_integer_sum_matches_the_per_term_fraction_sum():
    # the table sums its terms over one common denominator
    for n in range(1, 41):
        spec = Su2(n)
        assert [[spec.wtj(t, j) for j in range(n + 1)] for t in range(n + 1)] == \
            [[su2_wtj_reference(n, t, j) for j in range(n + 1)] for t in range(n + 1)]


def closed_form_table(spec):
    r = profile(spec).diameter_r
    return tuple(tuple(spec.wtj(t, j) for j in range(r + 1)) for t in range(r + 1))


@pytest.mark.parametrize("spec", RECURRENT_GRID, ids=str)
def test_recurrence_table_is_the_closed_form(spec):
    assert wtj_matrix(spec) == closed_form_table(spec)


@pytest.mark.parametrize("spec", [Su2(12), Su2(25), SuqSym(3, 9), SuqSym(4, 6),
                                  SunExt(12, 5), SunExt(16, 8)], ids=str)
def test_recurrence_reads_rows_zero_to_two_only(spec, monkeypatch):
    # rows 0-2 alone: reading every entry would make (r + 1)^2 calls
    want = closed_form_table(spec)
    closed, calls = type(spec).wtj, []

    def counted(self, t, j):
        calls.append(t)
        return closed(self, t, j)

    monkeypatch.setattr(type(spec), "wtj", counted)
    r = profile(spec).diameter_r
    assert wtj_matrix.__wrapped__(spec) == want
    assert len(calls) <= 3 * (r + 1) < (r + 1) ** 2
    assert set(calls) == {0, 1, 2}


@pytest.mark.parametrize("j", [0, 2, 17, 40])
def test_a_wrong_row_one_entry_is_refused(j, monkeypatch):
    closed = Su2.wtj
    monkeypatch.setattr(Su2, "wtj", lambda self, t, k: closed(self, t, k)
                        + (Fraction(1, 7) if (t, k) == (1, j) else 0))
    wtj_matrix.cache_clear()
    with pytest.raises(ArithmeticError, match="breaks dim_V symmetry"):
        wtj_matrix(Su2(40))
    with pytest.raises(ArithmeticError, match="breaks dim_V symmetry"):
        lp_bound(Su2(40), 3)


def test_a_wrong_row_one_entry_is_refused_under_optimize():
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from qdelsarte.families import Su2\n"
        "from qdelsarte.wtj import wtj_matrix\n"
        "closed = Su2.wtj\n"
        "Su2.wtj = lambda self, t, j: closed(self, t, j) + (Fraction(1, 7) if (t, j) == (1, 17) else 0)\n"
        "try:\n"
        "    wtj_matrix(Su2(40))\n"
        "except ArithmeticError as exc:\n"
        "    print('breaks dim_V symmetry' in str(exc), sys.flags.optimize)\n"
    )
    src = str(Path(qdelsarte.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True 1\n"


@dataclass(frozen=True)
class SwappedSu2(Su2):
    """Su2 with blocks 3 and 5 swapped: W is still an involution with the
    dim V symmetry, but W_3 is no polynomial of degree 3 in W_1."""
    name = "swapped-su2"

    def profile(self):
        p = super().profile()
        return type(p)(p.dim_H, p.diameter_r, tuple(p.dim_V[self.swap(t)]
                                                    for t in range(p.diameter_r + 1)))

    def wtj(self, t, j):
        return super().wtj(self.swap(t), self.swap(j))

    @staticmethod
    def swap(t):
        return {3: 5, 5: 3}.get(t, t)


def test_a_family_without_the_recurrence_is_refused():
    spec = SwappedSu2(8)
    W, dims = Family.table(spec), profile(spec).dim_V
    # read entry by entry, the table keeps the dim V symmetry
    assert all(W[t][j] * dims[j] == W[j][t] * dims[t] for t in range(9) for j in range(9))
    with pytest.raises(ArithmeticError, match="breaks dim_V symmetry"):
        wtj_matrix(spec)


class TestLambdaSignature:
    def test_alternating_families(self):
        for spec in (QHamming(2, 5), Su2(6), SuqSym(2, 4), SunExt(6, 3),
                     Spinorial(5), Semispinorial(6)):
            sig = lambda_signature(spec)
            r = profile(spec).diameter_r
            assert sig == tuple((-1) ** j for j in range(r + 1))

    def test_clifford_period_four(self):
        for spec, n in ((CliffordOdd(4), 4), (CliffordEven(4), 4)):
            sig = lambda_signature(spec)
            r = profile(spec).diameter_r
            assert sig == tuple(
                (-1) ** (j * (j + 2 * n - 1) // 2) for j in range(r + 1))
            assert any(s == -1 for s in sig)

    def test_not_self_dual(self):
        for spec in (QHamming(3, 4), SuqSym(3, 4), SunExt(6, 2),
                     Semispinorial(5)):
            assert lambda_signature(spec) is None

    def test_signature_starts_at_one(self):
        for spec in (QHamming(2, 3), CliffordOdd(3), CliffordEven(3)):
            assert lambda_signature(spec)[0] == 1
