"""Family specs and metric profiles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdelsarte import families
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
from qdelsarte.wtj import lambda_signature, wtj_matrix

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


def krawtchouk(m, k, x, a=1):
    """Reference: the Krawtchouk sum over an alphabet of a + 1 letters."""
    return sum((-1) ** s * a ** (k - s) * math.comb(x, s) * math.comb(m - x, k - s)
               for s in range(k + 1))


@pytest.mark.parametrize("a,top", [(1, 40), (3, 15), (8, 15)])
def test_krawtchouk_rows_match_the_sum(a, top):
    for m in range(top + 1):
        for x in range(m + 1):
            assert families._krawtchouk_row(m, x, a) == \
                tuple(krawtchouk(m, k, x, a) for k in range(m + 1)), (m, x)
    # beyond the row the sum vanishes
    assert families._krawtchouk(5, 6, 2, a) == krawtchouk(5, 6, 2, a) == 0


def test_profile_is_cached_per_spec_and_an_invalid_spec_raises_every_call():
    assert profile(SuqSym(3, 5)) is profile(SuqSym(3, 5))
    for _ in range(3):
        with pytest.raises(FamilyError, match="su-sym needs q >= 2"):
            profile(SuqSym(1, 5))


# the per-class formulas the three Gamma families had before sharing a base:
# (dim H, r, dims V_t) and W_t(j)
GAMMA_REFERENCE = {
    CliffordOdd: (lambda n: (2 ** n, n, tuple(math.comb(2 * n + 1, t) for t in range(n + 1))),
                  lambda n, t, j: Fraction((-1) ** (t * j) * krawtchouk(2 * n + 1, t, j),
                                           2 ** n)),
    CliffordEven: (lambda n: (2 ** n, 2 * n, tuple(math.comb(2 * n, t)
                                                   for t in range(2 * n + 1))),
                   lambda n, t, j: Fraction((-1) ** (t * j) * krawtchouk(2 * n, t, j),
                                            2 ** n)),
    Spinorial: (lambda n: (2 ** n, n, tuple(math.comb(2 * n + 1, 2 * t) for t in range(n + 1))),
                lambda n, t, j: Fraction(krawtchouk(2 * n + 1, 2 * t, 2 * j), 2 ** n)),
}


@pytest.mark.parametrize("cls", list(GAMMA_REFERENCE), ids=lambda c: c.name)
def test_gamma_base_matches_the_per_class_formulas(cls):
    ref_profile, ref_wtj = GAMMA_REFERENCE[cls]
    for n in range(1, 31):
        p = profile(cls(n))
        assert (p.dim_H, p.diameter_r, p.dim_V) == ref_profile(n), n
        rows = range(p.diameter_r + 1)
        assert wtj_matrix(cls(n)) == tuple(tuple(ref_wtj(n, t, j) for j in rows)
                                           for t in rows), n
    for n in (63, 255, 1023):  # the binomial row alone, built by ratios
        p = cls(n).profile()
        assert (p.dim_H, p.diameter_r, p.dim_V) == ref_profile(n), n


def test_su2_is_susym_at_q_2():
    for n in range(1, 41):
        a, b = Su2(n), SuqSym(2, n)
        assert profile(a) == profile(b), n
        assert wtj_matrix(a) == wtj_matrix(b), n
        assert lambda_signature(a) == lambda_signature(b), n


def test_suext_is_susym_at_w_1():
    for n in range(2, 13):
        a, b = SunExt(n, 1), SuqSym(n, 1)
        assert profile(a) == profile(b), n
        assert wtj_matrix(a) == wtj_matrix(b), n
        assert lambda_signature(a) == lambda_signature(b), n
