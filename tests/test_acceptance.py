"""Acceptance gate: the seven primary guarantees of the artifact.

1. Exact W-matrix identities across the full parameter grid.
2. Brute-force oracle equivalence for W entries and the self-dual signature.
3. Reproduction of the published LP bound values.
4. Closed-form distance-2 bounds.
5. Verification of the explicit code constructions against the bounds.
6. Distance-distribution transform identities for every constructed code.
7. Downward monotonicity of LP feasibility in the code dimension.
"""

import random
from fractions import Fraction

import pytest

from qdelsarte.clifford import (
    StabilizerCode,
    clifford_hamming,
    detection_report,
    distance_distribution,
)
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
    dist2_bound,
    dist2_bound_pure,
    feasible,
    lp_bound,
    volume_bound,
)
from qdelsarte.oracle import OperatorBasis, op_inner, verify_lambda, verify_wtj
from qdelsarte.scalars import SurdSum
from qdelsarte.su2 import code_quarter, code_third, min_distance
from qdelsarte.wtj import lambda_signature, wtj_matrix, wtj_properties
from reference import surd_error_block, wtj_fractions

F = Fraction
TOL = F(1, 2000)
SD = LPOptions(self_dual=True)

# ---------------------------------------------------------------- criterion 1

CRITERION1_GRID = (
    [QHamming(q, n) for q in (2, 3) for n in range(1, 9)]
    + [Su2(n) for n in range(1, 31)]
    + [SuqSym(3, n) for n in range(1, 13)]
    + [SunExt(n, w) for n in range(2, 13) for w in range(1, n)]
    + [CliffordOdd(n) for n in range(1, 13)]
    + [CliffordEven(n) for n in range(1, 13)]
    + [Spinorial(n) for n in range(1, 13)]
    + [Semispinorial(n) for n in range(2, 13)]
)


def test_criterion1_w_matrix_identities():
    for spec in CRITERION1_GRID:
        wtj_properties(spec)  # asserts involution, symmetry, boundary rows


# ---------------------------------------------------------------- criterion 2

CRITERION2_GRID = (
    [QHamming(2, n) for n in range(1, 4)]
    + [QHamming(3, n) for n in range(1, 3)]
    + [Su2(n) for n in range(1, 7)]
    + [SuqSym(3, n) for n in range(1, 4)]
    + [SunExt(n, w) for n in range(2, 7) for w in range(1, n)]
    + [CliffordOdd(n) for n in range(1, 5)]
    + [CliffordEven(n) for n in range(1, 5)]
    + [Spinorial(n) for n in range(1, 5)]
    + [Semispinorial(n) for n in range(2, 6)]
)


@pytest.mark.parametrize("spec", CRITERION2_GRID, ids=str)
def test_criterion2_oracle_equivalence(spec):
    report = verify_wtj(spec)
    assert report.matches, report.mismatches


@pytest.mark.parametrize(
    "spec",
    [s for s in CRITERION2_GRID
     if lambda_signature(s) is not None and not isinstance(s, SuqSym)],
    ids=str)
def test_criterion2_lambda_on_self_dual_members(spec):
    report = verify_lambda(spec)
    assert report.matches, report.mismatches


# ---------------------------------------------------------------- criterion 3

def exactly(spec, d, value, opts=LPOptions()):
    """K = value feasible, K = value + 1/1000 infeasible."""
    return (feasible(spec, d, F(value), opts).feasible
            and not feasible(spec, d, F(value) + F(1, 1000), opts).feasible)


def close(spec, d, shown, opts=LPOptions()):
    """bisected value within 1e-3 of the 3-decimal published entry."""
    res = lp_bound(spec, d, opts, tol=TOL)
    return abs(res.upper - F(shown)) <= F(1, 1000) \
        and abs(res.lower - F(shown)) <= F(1, 1000)


def test_criterion3_su2_distance2_is_half_n():
    for n in range(4, 31, 2):
        assert exactly(Su2(n), 2, F(n, 2))


def test_criterion3_su2_table():
    assert exactly(Su2(7), 3, 2)
    assert close(Su2(8), 3, "2.111", SD)


def test_criterion3_clifford_odd_table():
    assert exactly(CliffordOdd(7), 3, 8)
    assert close(CliffordOdd(8), 3, "11.2")
    assert exactly(CliffordOdd(15), 3, 1024)


def test_criterion3_clifford_even_table():
    assert exactly(CliffordEven(6), 3, 2, SD)
    assert close(CliffordEven(5), 3, "1.714", SD)


def test_criterion3_clifford_distance2_is_half_space():
    for n in range(1, 13):
        assert exactly(CliffordOdd(n), 2, 2 ** (n - 1))
        assert exactly(CliffordEven(n), 2, 2 ** (n - 1))


def test_criterion3_pure_strictly_lowers_odd_distance2():
    for n in (3, 4, 5):
        res = lp_bound(CliffordOdd(n), 2, LPOptions(pure=True), tol=TOL)
        assert res.upper < 2 ** (n - 1)


def test_criterion3_susym_table():
    assert close(SuqSym(3, 5), 3, "1.667")


# ---------------------------------------------------------------- criterion 4

def test_criterion4_qhamming():
    for q in (2, 3):
        for n in range(2, 21):
            assert dist2_bound(QHamming(q, n)) == F(q ** (n - 2))


def test_criterion4_su2():
    for n in range(2, 21):
        assert dist2_bound(Su2(n)) == F(n, 2)


def test_criterion4_clifford_even():
    for n in range(1, 21):
        assert dist2_bound(CliffordEven(n)) == F(2 ** (n - 1))


def test_criterion4_spinorial():
    # first branch dominates from n = 4 on and equals the closed form; at
    # n = 3 the 1/(W_1(1)-m) branch of the general bound is larger (2), and
    # the LP is feasible above 1, so 2 is the certified closed-form value
    # there -- the n = 3 closed form is produced by the pure variant, whose
    # single branch is exactly -m*dim(H)/(W_1(0)-m)
    for n in range(4, 21):
        assert dist2_bound(Spinorial(n)) == F(2 ** (n - 1), n + 1)
    assert dist2_bound(Spinorial(3)) == 2
    assert feasible(Spinorial(3), 2, F(101, 100)).feasible
    for n in range(3, 21):
        assert dist2_bound_pure(Spinorial(n)) == F(2 ** (n - 1), n + 1)


def test_criterion4_semispinorial():
    for n in range(4, 21):
        if n % 2 == 0:
            assert dist2_bound(Semispinorial(n)) == F(2 ** (n - 2), n)
        else:
            assert dist2_bound(Semispinorial(n)) == F((n - 2) * 2 ** (n - 2),
                                                      n * n - 1)


def test_criterion4_clifford_odd_pure():
    # closed form -m*dim(H)/(W_1(0)-m) = ((2n-1)/4n)*2^n; the pure LP sits
    # strictly above a quarter of this value, pinning the normalization
    for n in range(1, 21):
        assert dist2_bound_pure(CliffordOdd(n)) == F((2 * n - 1) * 2 ** n, 4 * n)
    for n in (4, 5, 7):
        closed = F((2 * n - 1) * 2 ** n, 4 * n)
        res = lp_bound(CliffordOdd(n), 2, LPOptions(pure=True), tol=TOL)
        assert closed / 4 < res.upper <= closed + TOL
    with pytest.raises(NotApplicable):
        dist2_bound(CliffordOdd(5))


# ---------------------------------------------------------------- criterion 5

def test_criterion5_7_3_code_matrix_level():
    code = clifford_hamming(3)
    for reading in ("even", "odd"):
        rep = detection_report(code, reading)
        assert rep.dimension == 8
        assert rep.min_distance == 3
        assert rep.is_pure
        assert rep.is_nondegenerate
    assert volume_bound(CliffordOdd(7), 3) == 8
    assert exactly(CliffordOdd(7), 3, 8)


def test_criterion5_15_10_code_symbolic():
    code = clifford_hamming(4)
    for reading in ("even", "odd"):
        rep = detection_report(code, reading)
        assert rep.dimension == 1024
        assert rep.min_distance == 3
    assert exactly(CliffordOdd(15), 3, 1024)


def third_dim(n):
    low = {0: 6, 1: 7, 2: 8, 3: 9, 4: 4, 5: 5}[n % 6]
    return 2 * ((n - low) // 6 + 1) + (1 if n % 6 in (0, 2, 3) else 0)


def test_criterion5_density_third_codes():
    for n in range(4, 31):
        assert len(code_third(n)) == third_dim(n)
    for n in range(4, 21):
        assert min_distance(n, code_third(n)) == 2
    assert exactly(Su2(6), 2, 3)
    assert len(code_third(6)) == 3


# ---------------------------------------------------------------- criterion 6

def check_distribution(a, b, d, family):
    w = wtj_fractions(wtj_matrix(family))
    r = profile(family).diameter_r
    k = a[0]
    assert len(a) == len(b) == r + 1
    for t in range(r + 1):
        assert sum(w[t][j] * a[j] for j in range(r + 1)) == b[t]
        assert sum(w[t][j] * b[j] for j in range(r + 1)) == a[t]
        assert 0 <= a[t] <= k * b[t]
    assert sum(a) == profile(family).dim_H
    assert b[0] == 1
    strict = [t for t in range(r + 1) if a[t] < k * b[t]]
    assert (min(strict) if strict else r + 1) == d


def su2_distribution(n, vecs):
    """A_t = (dim H / K) * sum_E |<E, P>|^2 / <E, E> over each block."""
    prof = profile(Su2(n))
    K = len(vecs)
    P = {}
    for v in vecs:
        for (k1, a1) in v.amplitudes:
            for (k2, a2) in v.amplitudes:
                key = ((k1 + n) // 2, (k2 + n) // 2)
                P[key] = P.get(key, SurdSum()) + a1 * a2
    a = []
    for t in range(n + 1):
        # the orthonormal-frame blocks, in which P is the code projector
        basis = OperatorBasis(Su2(n), t, surd_error_block(n, t))
        tot = F(0)
        for idx, e in enumerate(basis.matrices):
            ip = op_inner(e, P, basis.weight)
            sq = ip * ip
            val = sq.is_rational() if isinstance(sq, SurdSum) else F(sq)
            assert val is not None
            tot += val / basis.norms[idx]
        a.append(F(prof.dim_H, K) * tot)
    w = wtj_fractions(wtj_matrix(Su2(n)))
    b = [sum(w[t][j] * a[j] for j in range(n + 1)) for t in range(n + 1)]
    return a, b


def test_criterion6_clifford_codes():
    hamming = clifford_hamming(3)
    cases = [(hamming, "odd", CliffordOdd(7)), (hamming, "even", CliffordEven(7))]
    for n in (2, 3, 4):  # chirality half-space codes
        half = StabilizerCode(n, ((1 << 2 * n) - 1,), (1,))
        cases.append((half, "odd", CliffordOdd(n)))
    trivial = StabilizerCode(3, (), ())
    cases.append((trivial, "odd", CliffordOdd(3)))
    for code, reading, family in cases:
        a, b = distance_distribution(code, reading)
        d = detection_report(code, reading).min_distance
        check_distribution(a, b, d, family)


def test_criterion6_su2_codes():
    # instances within the oracle's size ceiling: the n = 6 density-1/3
    # code, the n = 4 density-1/3 code, and a single-vector code (d = r+1)
    for n, vecs in ((6, code_third(6)), (4, code_third(4)),
                    (5, code_quarter(5))):
        a, b = su2_distribution(n, vecs)
        d = min_distance(n, vecs)
        check_distribution(a, b, d, Su2(n))


def test_criterion6_feasible_witnesses_sum_to_dim():
    for spec, d, K in ((QHamming(2, 4), 2, F(4)), (Su2(8), 2, F(4)),
                       (CliffordOdd(7), 3, F(8)), (Semispinorial(6), 2, F(2)),
                       (SunExt(6, 3), 2, F(2))):
        rep = feasible(spec, d, K)
        assert rep.feasible
        assert sum(rep.witness) == profile(spec).dim_H
        assert rep.witness[0] == K


# ---------------------------------------------------------------- criterion 7

def test_criterion7_feasibility_monotone_in_dimension():
    rng = random.Random(20260826)
    pool = (
        [QHamming(2, n) for n in (3, 4, 5)]
        + [QHamming(3, n) for n in (2, 3)]
        + [Su2(n) for n in (4, 6, 8, 10)]
        + [SuqSym(3, n) for n in (3, 4)]
        + [SunExt(6, w) for w in (2, 3)]
        + [CliffordOdd(n) for n in (3, 4, 5)]
        + [CliffordEven(n) for n in (3, 4)]
        + [Spinorial(n) for n in (4, 6)]
        + [Semispinorial(n) for n in (5, 6)]
    )
    checked = 0
    while checked < 20:
        spec = rng.choice(pool)
        prof = profile(spec)
        d = rng.randint(1, prof.diameter_r + 1)
        K = F(1) + F(rng.randint(0, 1000), 1000) * (prof.dim_H - 1)
        if not feasible(spec, d, K).feasible:
            continue
        for _ in range(5):
            lo = F(1) + F(rng.randint(0, 1000), 1000) * (K - 1)
            assert feasible(spec, d, lo).feasible, (spec, d, K, lo)
        checked += 1
