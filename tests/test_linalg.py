"""Sparse row space: membership agrees with elimination rank.  Indexed and
monomial products agree with the plain sparse product."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdelsarte
from qdelsarte.linalg import (GI_UNITS, RowSpace, gi_mul_mono, gi_mul_rows, monomial,
                              mono_commutator, mono_mul, mul_mono, rows_of, sp_mul, sp_rank,
                              sp_sub)

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
vectors = st.dictionaries(st.integers(0, 5), entries.filter(bool), max_size=6)


@given(st.lists(vectors, max_size=8))
@settings(max_examples=100)
def test_row_space_accepts_exactly_the_rank(rows):
    space = RowSpace()
    accepted = [r for r in rows if r and space.add(r)]
    assert len(accepted) == sp_rank(rows)
    assert sp_rank(accepted) == len(accepted)
    # everything offered now lies in the span
    assert not any(space.add(r) for r in rows if r)


def test_row_space_rejects_a_rational_combination():
    space = RowSpace()
    a = {(0, 0): Fraction(1, 2), (0, 1): Fraction(3)}
    b = {(0, 1): Fraction(-2, 3), (1, 1): Fraction(5)}
    assert space.add(a) and space.add(b)
    combo = {(0, 0): Fraction(3, 2), (0, 1): Fraction(29, 3), (1, 1): Fraction(-5)}
    assert not space.add(combo)  # 3a - b
    assert space.add({(1, 0): Fraction(1)})


# --- indexed and monomial products ---------------------------------------------

SIZE = 6
ints = st.integers(-4, 4).filter(bool)
gaussians = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))


def sparse(values):
    """Sparse SIZE x SIZE matrices, the empty one included."""
    return st.dictionaries(st.tuples(st.integers(0, SIZE - 1), st.integers(0, SIZE - 1)),
                           values, max_size=12)


@st.composite
def monomials(draw, phases, signs):
    """A partial permutation, a full signed permutation or a full monomial
    with phases drawn from `phases`, as a sparse matrix; signs = (1, -1)."""
    kind = draw(st.sampled_from(["partial", "signed", "phased"]))
    rows = draw(st.permutations(range(SIZE)))
    cols = range(SIZE) if kind != "partial" else draw(
        st.lists(st.integers(0, SIZE - 1), unique=True, max_size=SIZE))
    value = {"partial": st.just(signs[0]), "signed": st.sampled_from(signs),
             "phased": phases}[kind]
    return {(rows[c], c): draw(value) for c in cols}


def int_reference(a, b):
    """a b over the integers, summed position by position."""
    out = {}
    for (i, k), u in a.items():
        for (l, j), v in b.items():
            if k == l:
                out[(i, j)] = out.get((i, j), 0) + u * v
    return {key: v for key, v in out.items() if v}


def gi_reference(a, b):
    """a b over the Gaussian integers, summed position by position."""
    out = {}
    for (i, k), (ar, ai) in a.items():
        for (l, j), (br, bi) in b.items():
            if k == l:
                re, im = out.get((i, j), (0, 0))
                out[(i, j)] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {key: v for key, v in out.items() if v != (0, 0)}


@given(monomials(ints, (1, -1)), sparse(ints), sparse(ints))
@settings(max_examples=300)
def test_relabelling_products_equal_sparse_products(a, x, y):
    m = monomial(a)
    assert mono_mul(m, x) == sp_mul(a, x)
    assert mul_mono(x, m) == sp_mul(x, a)
    assert mono_commutator(m, x) == sp_sub(sp_mul(a, x), sp_mul(x, a))
    # a commutes with itself: every entry cancels
    assert mono_commutator(m, a) == {}
    assert sp_mul(x, y) == int_reference(x, y)


@given(monomials(st.sampled_from(GI_UNITS), ((1, 0), (-1, 0))), sparse(gaussians),
       sparse(gaussians))
@settings(max_examples=300)
def test_gaussian_products_equal_the_reference(g, x, y):
    assert gi_mul_mono(x, monomial(g)) == gi_reference(x, g)
    assert gi_mul_rows(x, rows_of(y)) == gi_reference(x, y)


NOT_MONOMIAL = ({(0, 0): 1, (0, 1): 1},  # two entries in row 0
                {(0, 2): 1, (1, 2): -1},  # two entries in column 2
                {(i, j): 1 for i in range(2) for j in range(2)})


@pytest.mark.parametrize("a", NOT_MONOMIAL)
def test_a_non_monomial_operator_is_refused(a):
    with pytest.raises(ArithmeticError, match="not monomial"):
        monomial(a)


def test_a_non_monomial_operator_is_refused_under_optimisation():
    script = ("import sys\n"
              "from qdelsarte.linalg import monomial\n"
              f"for a in {NOT_MONOMIAL!r}:\n"
              "    try:\n"
              "        monomial(a)\n"
              "    except ArithmeticError:\n"
              "        continue\n"
              "    raise SystemExit('accepted')\n"
              "print('raised', sys.flags.optimize)\n")
    src = str(Path(qdelsarte.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "raised 1\n"
