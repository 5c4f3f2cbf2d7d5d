"""Family specs and metric profiles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelsarte.families import (
    CliffordEven,
    CliffordOdd,
    FamilyError,
    QHamming,
    Semispinorial,
    Spinorial,
    Su2,
    SunExt,
    SuqSym,
    profile,
    validate,
)

ALL_SPECS = [
    QHamming(2, 4),
    QHamming(3, 3),
    Su2(7),
    SuqSym(3, 4),
    SunExt(6, 2),
    SunExt(6, 3),
    CliffordOdd(4),
    CliffordEven(4),
    Spinorial(4),
    Semispinorial(5),
    Semispinorial(6),
]


@st.composite
def family_specs(draw):
    kind = draw(st.sampled_from(
        ["qhamming", "su2", "su-sym", "su-ext", "clifford-odd",
         "clifford-even", "spinorial", "semispinorial"]))
    if kind == "qhamming":
        return QHamming(draw(st.integers(2, 5)), draw(st.integers(1, 10)))
    if kind == "su2":
        return Su2(draw(st.integers(1, 25)))
    if kind == "su-sym":
        return SuqSym(draw(st.integers(2, 4)), draw(st.integers(1, 8)))
    if kind == "su-ext":
        n = draw(st.integers(2, 10))
        return SunExt(n, draw(st.integers(1, n - 1)))
    n = draw(st.integers(2, 10))
    return {"clifford-odd": CliffordOdd, "clifford-even": CliffordEven,
            "spinorial": Spinorial, "semispinorial": Semispinorial}[kind](n)


@given(family_specs())
def test_multiplicities_fill_operator_space(spec):
    p = profile(spec)
    assert len(p.dim_V) == p.diameter_r + 1
    assert all(v > 0 for v in p.dim_V)
    assert sum(p.dim_V) == p.dim_H ** 2
    assert p.dim_V[0] == 1


def test_profiles_explicit():
    assert profile(QHamming(2, 4)).dim_H == 16
    assert profile(QHamming(3, 2)).dim_V == (1, 16, 64)
    p = profile(Su2(7))
    assert (p.dim_H, p.diameter_r) == (8, 7)
    assert p.dim_V == tuple(2 * t + 1 for t in range(8))
    assert profile(SuqSym(3, 4)).dim_H == math.comb(3 + 4 - 1, 4)
    assert profile(SunExt(6, 2)).dim_H == 15
    assert profile(SunExt(6, 2)).diameter_r == 2
    assert profile(SunExt(6, 4)).diameter_r == 2
    assert profile(CliffordOdd(4)).dim_H == 16
    # odd Clifford blocks pair weights t and 2n+1-t, so the diameter is n
    assert profile(CliffordOdd(4)).diameter_r == 4
    assert profile(CliffordEven(4)).diameter_r == 8
    assert profile(CliffordOdd(3)).dim_V == tuple(math.comb(7, t) for t in range(4))
    assert profile(Spinorial(4)).dim_H == 16
    assert profile(Spinorial(4)).diameter_r == 4
    p = profile(Semispinorial(5))
    assert (p.dim_H, p.diameter_r) == (16, 2)
    # middle weight class splits in half under the chirality pairing
    assert profile(Semispinorial(4)).dim_V[-1] == math.comb(8, 4) // 2


def test_validate_rejects_bad_parameters():
    for bad in (QHamming(1, 3), QHamming(2, 0), Su2(0), SuqSym(2, 0),
                SunExt(3, 0), SunExt(3, 3), CliffordOdd(0), CliffordEven(0),
                Spinorial(0), Semispinorial(1)):
        with pytest.raises(FamilyError):
            validate(bad)


def test_validate_messages_name_the_condition():
    for bad, msg in ((QHamming(1, 3), "qhamming needs q >= 2 and n >= 1, got q=1, n=3"),
                     (Su2(0), "su2 needs n >= 1, got n=0"),
                     (SunExt(3, 3), "su-ext needs n >= 2 and 1 <= w <= n-1, got n=3, w=3"),
                     (Semispinorial(1), "semispinorial needs n >= 2, got n=1")):
        with pytest.raises(FamilyError) as exc:
            validate(bad)
        assert str(exc.value) == msg


def test_validate_accepts_all_examples():
    for spec in ALL_SPECS:
        validate(spec)
