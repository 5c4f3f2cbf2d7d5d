"""LP feasibility systems, bisection bounds, and analytic distance-2 bounds."""

from fractions import Fraction

import pytest

from qdelsarte.families import (
    CliffordEven,
    CliffordOdd,
    QHamming,
    Semispinorial,
    Spinorial,
    Su2,
    SunExt,
    SuqSym,
    profile,
)
from qdelsarte.lp import (
    LPOptions,
    NotApplicable,
    build_system,
    dist2_bound,
    dist2_bound_pure,
    feasible,
    lp_bound,
    volume_bound,
)
from qdelsarte import lp
from qdelsarte.simplex import FeasibilityResult, WarmStart

F = Fraction
TOL = F(1, 1000)


def test_d1_bound_is_full_space():
    for spec in (QHamming(2, 3), Su2(6), CliffordOdd(4), Semispinorial(5)):
        res = lp_bound(spec, 1, tol=TOL)
        assert res.exact and res.lower == profile(spec).dim_H


def test_k_one_always_feasible():
    for spec in (QHamming(3, 3), Su2(5), SuqSym(3, 4), SunExt(5, 2),
                 CliffordEven(3), Spinorial(4), Semispinorial(6)):
        r = profile(spec).diameter_r
        for d in range(1, r + 2):
            assert feasible(spec, d, F(1)).feasible


def test_witness_sums_to_dim_h():
    for spec, d, K in ((QHamming(2, 4), 2, F(3)), (Su2(8), 2, F(4)),
                       (CliffordOdd(5), 3, F(2))):
        rep = feasible(spec, d, K)
        assert rep.feasible
        assert sum(rep.witness) == profile(spec).dim_H
        assert rep.witness[0] == K


def test_build_system_shapes():
    spec = Su2(6)
    cons, nvars = build_system(spec, 3, F(2), LPOptions())
    assert nvars == 7
    cons_sd, _ = build_system(spec, 3, F(2), LPOptions(self_dual=True))
    assert len(cons_sd) > len(cons)
    cons_p, _ = build_system(spec, 3, F(2), LPOptions(pure=True))
    assert len(cons_p) == len(cons) + 2  # A_1 = A_2 = 0


def test_bisection_brackets_and_integer_snap():
    res = lp_bound(Su2(7), 3, tol=TOL)
    assert res.exact and res.lower == 2
    res = lp_bound(CliffordOdd(7), 3, tol=TOL)
    assert res.exact and res.lower == 8


@pytest.mark.parametrize("tol", [F(0), F(-1, 2)])
def test_nonpositive_tol_raises(tol):
    with pytest.raises(ValueError):
        lp_bound(Su2(7), 3, tol=tol)


@pytest.mark.parametrize("tol", [F(1), F(1000)])
def test_tol_of_one_or_more_returns_the_bracket(tol):
    # the snap test point k + tol/2 lies far above such a bracket
    res = lp_bound(CliffordOdd(8), 3, tol=tol)
    assert not res.exact
    assert res.lower <= F(56, 5) <= res.upper and res.upper - res.lower <= tol
    assert feasible(CliffordOdd(8), 3, res.lower).feasible


@pytest.mark.parametrize("K", [F(0), F(-1), F(-1, 2)])
def test_nonpositive_k_raises(K):
    with pytest.raises(ValueError):
        feasible(Su2(7), 3, K)
    with pytest.raises(ValueError):
        feasible(Su2(7), 3, K, warm=WarmStart())


def test_self_dual_never_looser():
    for spec, d in ((Su2(8), 3), (CliffordEven(4), 3), (QHamming(2, 5), 3)):
        plain = lp_bound(spec, d, tol=TOL)
        sd = lp_bound(spec, d, LPOptions(self_dual=True), tol=TOL)
        assert sd.upper <= plain.upper


def test_pure_never_looser():
    for spec, d in ((CliffordOdd(4), 2), (Su2(6), 2)):
        plain = lp_bound(spec, d, tol=TOL)
        pure = lp_bound(spec, d, LPOptions(pure=True), tol=TOL)
        assert pure.upper <= plain.upper


def test_volume_bound():
    assert volume_bound(CliffordOdd(7), 3) == 8
    for spec in (QHamming(2, 4), Su2(9)):
        dim_h = profile(spec).dim_H
        assert volume_bound(spec, 1) == dim_h
        assert volume_bound(spec, 2) == dim_h
    # qubit Hamming d=3: 2^n / (1 + 3n)
    assert volume_bound(QHamming(2, 5), 3) == F(32, 16)


def test_lp_at_most_volume_is_false_but_dist2_dominates_lp():
    # the d=2 LP value never exceeds the closed-form distance-2 bound
    for spec in (QHamming(2, 4), QHamming(3, 3), Su2(8), CliffordEven(4),
                 Spinorial(4), Semispinorial(6)):
        closed = dist2_bound(spec)
        assert not feasible(spec, 2, closed + TOL).feasible or \
            lp_bound(spec, 2, tol=TOL).upper <= closed + TOL


class TestDist2Closed:
    def test_qhamming(self):
        for q in (2, 3):
            for n in range(2, 21):
                assert dist2_bound(QHamming(q, n)) == F(q ** n, q * q)

    def test_su2(self):
        for n in range(2, 21):
            assert dist2_bound(Su2(n)) == F(n, 2)

    def test_clifford_even(self):
        for n in range(1, 21):
            assert dist2_bound(CliffordEven(n)) == 2 ** (n - 1)

    def test_clifford_odd_not_applicable(self):
        # W_1 is minimized at j=1, so the ratio argument does not apply
        for n in range(1, 21):
            with pytest.raises(NotApplicable):
                dist2_bound(CliffordOdd(n))

    def test_spinorial(self):
        # for n >= 4 the -m*dim/(W_1(0)-m) branch dominates and gives the
        # closed form; at n = 3 the 1/(W_1(1)-m) branch is larger (= 2)
        for n in range(4, 21):
            assert dist2_bound(Spinorial(n)) == F(2 ** (n - 1), n + 1)
        assert dist2_bound(Spinorial(3)) == 2
        assert dist2_bound_pure(Spinorial(3)) == 1

    def test_spinorial_n3_general_branch_is_not_vacuous(self):
        # the exact LP is feasible strictly above the first-branch value 1,
        # so max(...) = 2 is the honest closed-form verdict at n = 3
        assert feasible(Spinorial(3), 2, F(101, 100)).feasible

    def test_semispinorial(self):
        for n in range(4, 21):
            want = F(2 ** (n - 2), n) if n % 2 == 0 \
                else F((n - 2) * 2 ** (n - 2), n * n - 1)
            assert dist2_bound(Semispinorial(n)) == want

    def test_sun_ext(self):
        # both halves of the exterior-power bound
        import math
        for n in range(4, 13):
            for w in range(2, n - 1):
                b = dist2_bound(SunExt(n, w))
                if 2 * w <= n:
                    assert b == F(math.comb(n, w - 1), n)
                else:
                    assert b == F(math.comb(n, w + 1), n)


class TestDist2Pure:
    def test_clifford_odd(self):
        # -m*dim_H/(W_1(0)-m) with m = W_1(1) = -(2n-1)/2^n
        for n in range(1, 21):
            assert dist2_bound_pure(CliffordOdd(n)) == F((2 * n - 1) * 2 ** n, 4 * n)

    def test_clifford_odd_lp_confirms_scale(self):
        # the pure LP value sits between 1/4 of the closed form and the
        # closed form itself, pinning the 2^n (not 2^{n-2}) normalization
        for n in (4, 5, 7):
            closed = F((2 * n - 1) * 2 ** n, 4 * n)
            val = lp_bound(CliffordOdd(n), 2, LPOptions(pure=True), tol=TOL)
            assert closed / 4 < val.upper <= closed + TOL

    def test_spinorial_matches_first_branch_everywhere(self):
        for n in range(3, 21):
            assert dist2_bound_pure(Spinorial(n)) == F(2 ** (n - 1), n + 1)

    def test_su2_pure_equals_impure(self):
        for n in range(2, 21):
            assert dist2_bound_pure(Su2(n)) == F(n, 2)


@pytest.mark.parametrize("result, message", [
    (FeasibilityResult(True, None), "witness"),
    (FeasibilityResult(True, (F(0),) * 3), "witness"),  # A_0 = K fails
    (FeasibilityResult(False, None), "Farkas"),
    (FeasibilityResult(False, None, (0, 0, 0, 0)), "Farkas"),  # y^T b = 0
], ids=["no-witness", "zero-witness", "no-farkas", "zero-farkas"])
def test_feasible_refuses_a_certificate_that_fails_substitution(result, message, monkeypatch):
    # the front door re-checks what check_feasible returns on the Fraction
    # constraints, and raises rather than report an unchecked verdict
    monkeypatch.setattr(lp, "check_feasible", lambda cons, nvars: result)
    with pytest.raises(ArithmeticError, match=message):
        feasible(QHamming(2, 2), 2, F(1))
