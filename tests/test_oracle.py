"""Brute-force operator-basis oracle for the W coefficients and self-duality."""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest

from qdelsarte.families import (
    FAMILY_NAMES,
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
from qdelsarte import oracle
from qdelsarte.clifford import _pauli
from qdelsarte.linalg import RowSpace, sp_add, sp_identity, sp_mul, sp_scale, sp_sub
from qdelsarte.oracle import (
    ORACLE,
    OperatorBasis,
    op_inner,
    phi_apply,
    v_basis,
    verify_lambda,
    verify_wtj,
    wtj_bruteforce,
)
from qdelsarte.scalars import SurdSum
from qdelsarte.su2 import error_block
from qdelsarte.wtj import lambda_signature, wtj
from reference import (GR_ONE, GaussianRational, d_conjugate, gamma, gr_i_power,
                       surd_error_block)
from reference import lambda_sandwich as weighted_adjoint_sandwich

# largest instances the oracle certifies per family
ORACLE_GRID = [
    QHamming(2, 3),
    QHamming(3, 2),
    Su2(5),
    SuqSym(3, 3),
    SunExt(5, 2),
    SunExt(6, 3),
    CliffordOdd(3),
    CliffordEven(3),
    Spinorial(3),
    Semispinorial(5),
]

LAMBDA_GRID = [
    QHamming(2, 2),
    QHamming(2, 3),
    Su2(4),
    Su2(5),
    SunExt(4, 2),
    SunExt(6, 3),
    CliffordOdd(2),
    CliffordOdd(3),
    CliffordEven(2),
    CliffordEven(3),
    Spinorial(2),
    Spinorial(3),
    Semispinorial(4),
]


# every su-ext and su-sym instance the oracle admits: their blocks are the
# root-operator closures
CLOSURE_GRID = [spec for spec in
                [SunExt(n, w) for n in range(2, 8) for w in range(1, n)]
                + [SuqSym(q, n) for q in (2, 3, 4) for n in range(1, 13)]
                if ORACLE[type(spec)].fits(spec)]


def test_closure_grid_is_every_admitted_instance():
    assert len(CLOSURE_GRID) == 29


@pytest.mark.parametrize("spec", CLOSURE_GRID, ids=str)
def test_closure_families_match_bruteforce(spec):
    report = verify_wtj(spec)
    assert report.matches, report.mismatches
    if lambda_signature(spec) is not None:  # su-ext at n = 2w, su-sym at q = 2
        report = verify_lambda(spec)
        assert report.matches, report.mismatches


def block_channel_quotient(spec, t, j):
    """<X, Phi_t(X)> / <X, X> with Phi_t(X) formed by phi_apply, X the first
    element of block j."""
    bt = v_basis(spec, t)
    X = v_basis(spec, j).matrices[0]
    return (Fraction(oracle._rational(op_inner(X, phi_apply(bt, X), bt.weight)))
            / oracle._rational(op_inner(X, X, bt.weight)))


@pytest.mark.parametrize("spec", [cls(n) for cls in (CliffordOdd, CliffordEven, Spinorial)
                                  for n in range(1, 5)], ids=str)
def test_monomial_wtj_matches_block_channel(spec):
    # the monomial path against phi_apply on the sparse gamma matrices
    assert ORACLE[type(spec)].words is not None
    r = profile(spec).diameter_r
    for t in range(r + 1):
        for j in range(r + 1):
            assert wtj_bruteforce(spec, t, j) == block_channel_quotient(spec, t, j), (t, j)


# the families whose W_t(j) is the Rayleigh quotient: every one without words
RATIONAL_GRID = [spec for spec in ORACLE_GRID if ORACLE[type(spec)].words is None]


@pytest.mark.parametrize("spec", RATIONAL_GRID, ids=str)
def test_rayleigh_quotient_matches_block_channel(spec):
    # the integer Rayleigh quotient against Phi_t(X) formed as a matrix
    assert ORACLE[type(spec)].words is None
    r = profile(spec).diameter_r
    for t in range(r + 1):
        for j in range(r + 1):
            assert wtj_bruteforce(spec, t, j) == block_channel_quotient(spec, t, j), (t, j)


def test_rayleigh_quotient_refuses_a_non_monomial_x():
    # X F_k and F_k X are formed by relabelling, which needs X monomial;
    # this X has two entries in row 0 and two in column 0
    with pytest.raises(ArithmeticError, match="not monomial"):
        oracle._rayleigh(v_basis(QHamming(2, 1), 1), {(0, 0): 1, (0, 1): 1, (1, 0): 1})


# the su(2) bases are `error_block` as it is, not made primitive
@pytest.mark.parametrize("spec", [s for s in ORACLE_GRID if not isinstance(s, Su2)], ids=str)
def test_rational_bases_are_primitive_int_matrices(spec):
    words = ORACLE[type(spec)].words
    for t in range(profile(spec).diameter_r + 1):
        basis = v_basis(spec, t)
        for x, norm in zip(basis.matrices, basis.norms):
            assert all(type(v) is int for v in x.values()), t
            assert gcd(*x.values()) == 1, t
            assert norm > 0, t
        if words is not None:  # signed permutations of the block's columns
            columns = words(spec, t)[1]
            assert all(v in (1, -1) for x in basis.matrices for v in x.values()), t
            assert basis.norms == [len(columns)] * len(basis.matrices), t


def test_suext_wtj_makes_few_fraction_products(monkeypatch):
    # verify_wtj(SunExt(6, 3)) made 6,730 Fraction products with Fraction
    # bases and Phi_t(X) formed as a matrix, and 72 with integer bases and
    # the Rayleigh quotient
    count = Counter()
    mul = Fraction.__mul__

    def counting(a, b):
        count["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    v_basis.cache_clear()
    assert verify_wtj(SunExt(6, 3)).matches
    assert count["mul"] <= 200


@pytest.mark.parametrize("spec", ORACLE_GRID, ids=str)
def test_wtj_matches_bruteforce(spec):
    report = verify_wtj(spec)
    assert report.matches, report.mismatches


@pytest.mark.parametrize("spec", LAMBDA_GRID, ids=str)
def test_lambda_signature_realized_by_antiunitary(spec):
    report = verify_lambda(spec)
    assert report.matches, report.mismatches


@pytest.mark.parametrize("n", range(1, 8))
def test_susym_signature_needs_the_signed_swap(n, monkeypatch):
    # x^a y^b -> x^b y^a without the sign (-1)^b does not realise (-1)^j
    signed = oracle._antiunitary_susym
    monkeypatch.setitem(ORACLE, SuqSym, ORACLE[SuqSym]._replace(
        antiunitary=lambda spec: {k: abs(x) for k, x in signed(spec).items()}))
    assert not verify_lambda(SuqSym(2, n)).matches


GAMMA_GRID = [cls(n) for cls in (CliffordOdd, CliffordEven, Spinorial) for n in range(1, 5)]


def lambda_sandwich(spec, j, sign):
    """Reference: indices of block j's matrices X with L conj(X) L* != sign X*."""
    L = oracle._antiunitary_gamma(spec)
    Ladj = {(c, r): v.conjugate() for (r, c), v in L.items()}
    return [i for i, X in enumerate(v_basis(spec, j).matrices)
            if sp_mul(sp_mul(L, {k: v.conjugate() for k, v in X.items()}), Ladj)
            != sp_scale({(c, r): v.conjugate() for (r, c), v in X.items()}, sign)]


@pytest.mark.parametrize("spec", GAMMA_GRID, ids=str)
def test_monomial_lambda_matches_the_matrix_sandwich(spec):
    assert ORACLE[type(spec)].words is not None
    blocks = range(profile(spec).diameter_r + 1)
    for sign in (1, -1):
        want = [(j, i) for j in blocks for i in lambda_sandwich(spec, j, sign)]
        assert oracle._lambda_gamma(spec, (sign,) * len(blocks)) == want, sign


@pytest.mark.parametrize("spec", GAMMA_GRID, ids=str)
def test_gamma_signature_needs_the_sigma_y_word(spec, monkeypatch):
    # the word on the sigma_x letters does not realise lambda_j
    monkeypatch.setattr(oracle, "_sigma_y_label", lambda n: (1 << n) - 1)
    assert not verify_lambda(spec).matches


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_semispinorial_monomial_path_matches_the_matrices(n):
    # the monomials against the Rayleigh quotient and the sandwich on the
    # int v_basis matrices
    spec = Semispinorial(n)
    blocks = range(profile(spec).diameter_r + 1)
    for t in blocks:
        for j in blocks:
            assert oracle._wtj_gamma(spec, t, j) == \
                oracle._rayleigh(v_basis(spec, t), v_basis(spec, j).matrices[0]), (t, j)
    # at odd n the sigma_y word leaves P+, and every element fails
    for lam in [(sign,) * len(blocks) for sign in (1, -1)] + [lambda_signature(spec)]:
        if lam is not None:
            assert oracle._lambda_gamma(spec, lam) == oracle._lambda_sandwich(spec, lam), lam


@pytest.mark.parametrize("n", range(1, 7))
def test_su2_integer_channel_matches_the_surd_rayleigh_quotient(n):
    # reference: the Rayleigh quotient on the orthonormal-frame surd blocks
    spec = Su2(n)
    assert ORACLE[Su2].words is None
    for t in range(n + 1):
        assert all(type(v) is int for x in v_basis(spec, t).matrices for v in x.values()), t
        surd = OperatorBasis(spec, t, surd_error_block(n, t))
        for j in range(n + 1):
            assert wtj_bruteforce(spec, t, j) == \
                oracle._rayleigh(surd, surd_error_block(n, j)[0]), (t, j)


def su2_surd_sandwich(n, lam):
    """Reference: the (block, index) of the surd block elements X with
    L conj(X) L* != lambda_j X* for the unitary L |k> -> (-1)^((n+k)/2) |-k>,
    k = 2m - n at index m."""
    L = {(n - m, m): SurdSum.rational((-1) ** m) for m in range(n + 1)}
    Ladj = {(c, r): v.conjugate() for (r, c), v in L.items()}
    return [(j, i) for j, sign in enumerate(lam) for i, X in enumerate(surd_error_block(n, j))
            if sp_mul(sp_mul(L, {k: v.conjugate() for k, v in X.items()}), Ladj)
            != sp_scale({(c, r): v.conjugate() for (r, c), v in X.items()}, sign)]


@pytest.mark.parametrize("n", range(1, 7))
def test_su2_integer_sandwich_matches_the_surd_sandwich(n):
    spec = Su2(n)
    lam = lambda_signature(spec)
    assert verify_lambda(spec).mismatches == tuple(su2_surd_sandwich(n, lam)) == ()
    for sign in (1, -1):
        const = (sign,) * (n + 1)
        want = su2_surd_sandwich(n, const)
        assert want  # every other block breaks a constant signature
        assert oracle._lambda_sandwich(spec, const) == want, sign


# the self-dual instances of ORACLE_GRID whose signature is the matrix
# sandwich, and su-sym at q = 2, which ORACLE_GRID holds at q = 3 only
SANDWICH_GRID = [spec for spec in ORACLE_GRID if ORACLE[type(spec)].words is None
                 and lambda_signature(spec) is not None] + [SuqSym(2, 11)]


def test_sandwich_grid_covers_every_sandwich_family():
    assert {type(spec) for spec in SANDWICH_GRID} == {QHamming, Su2, SuqSym, SunExt}


@pytest.mark.parametrize("spec", SANDWICH_GRID, ids=str)
def test_integer_sandwich_matches_the_weighted_adjoint_sandwich(spec):
    blocks = range(profile(spec).diameter_r + 1)
    for lam in [lambda_signature(spec)] + [(sign,) * len(blocks) for sign in (1, -1)]:
        assert oracle._lambda_sandwich(spec, lam) == weighted_adjoint_sandwich(spec, lam), lam


def test_semispinorial_oracle_makes_no_gaussian_rational(monkeypatch):
    # verify_wtj and verify_lambda on the GaussianRational matrices made
    # 158,094 of them over these four instances
    oracle._gamma_block.cache_clear()
    oracle._plus_columns.cache_clear()
    made = Counter()
    init, make = GaussianRational.__init__, GaussianRational._make

    def counting_init(self, *args):
        made["init"] += 1
        init(self, *args)

    def counting_make(*args):
        made["make"] += 1
        return make(*args)

    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    monkeypatch.setattr(GaussianRational, "_make", staticmethod(counting_make))
    for n in range(2, 6):
        spec = Semispinorial(n)
        assert verify_wtj(spec).matches
        if lambda_signature(spec) is not None:
            assert verify_lambda(spec).matches
    assert not made


def test_su2_oracle_makes_no_surd(monkeypatch):
    # with the su(2) blocks kept as SurdSum matrices, verify_wtj(Su2(6))
    # made 2,796 SurdSum products, and with them conjugated to integers
    # entry by entry up to 216
    assert not hasattr(oracle, "SurdSum")
    count = Counter()
    for name in ("__init__", "_make", "__mul__", "__rmul__"):
        def counting(*args, _f=getattr(SurdSum, name)):
            count[name] += 1
            return _f(*args)
        monkeypatch.setattr(SurdSum, name, staticmethod(counting) if name == "_make"
                            else counting)
    v_basis.cache_clear()
    assert verify_wtj(Su2(6)).matches and verify_lambda(Su2(6)).matches
    assert not count


def test_su2_blocks_are_the_code_checkers_blocks():
    # the integer blocks are the orthonormal-frame surd blocks conjugated by
    # D entry by entry, and the oracle takes them as they are
    for n in range(1, 13):
        for t in range(n + 1):
            block = error_block(n, t)
            assert all(type(v) is int for x in block for v in x.values()), (n, t)
            assert block == [d_conjugate(n, b) for b in surd_error_block(n, t)], (n, t)
    for n in range(1, 7):
        a = [(n - m) * (m + 1) for m in range(n)]
        for t in range(n + 1):
            basis = v_basis(Su2(n), t)
            assert basis.matrices == error_block(n, t)
            assert basis.weight == {i: prod(a[i:]) for i in range(n + 1)}


def test_bruteforce_example_value():
    # the smallest odd Clifford space: block 1 eigenvalue on block 1
    assert wtj_bruteforce(CliffordOdd(2), 1, 1) == Fraction(-3, 4)


def test_basis_dimensions_match_profile():
    for spec in (QHamming(2, 2), Su2(4), SunExt(4, 2), CliffordEven(2),
                 Semispinorial(4)):
        prof = profile(spec)
        for t in range(prof.diameter_r + 1):
            assert len(v_basis(spec, t).matrices) == prof.dim_V[t]


@pytest.mark.parametrize("spec", GAMMA_GRID + [Semispinorial(n) for n in range(2, 6)], ids=str)
def test_gamma_blocks_are_the_gammas_up_to_phase(spec):
    # reference: P Gamma_x P as two products of the Kronecker-checked
    # GaussianRational matrices, P = I on the Clifford-odd, Clifford-even and
    # spinorial blocks and P+ = (I + Gamma_omega) / 2 on the semispinorial
    # ones; element x of the block is the int X^a Z^b = i^-k Gamma_x there
    n = spec.n
    omega = (1 << (2 * n)) - 1
    p = sp_identity(2 ** n, GR_ONE)
    if isinstance(spec, Semispinorial):
        p = sp_scale(sp_add(p, gamma(n, omega)), GaussianRational(Fraction(1, 2)))
    for t in range(profile(spec).diameter_r + 1):
        labels = list(ORACLE[type(spec)].words(spec, t)[0])
        if isinstance(spec, Semispinorial):
            even = [sum(1 << b for b in bits) for bits in combinations(range(2 * n), 2 * t)]
            # Gamma_x and Gamma_{x ^ omega} agree on P+ up to phase
            assert labels == [x for x in even if 2 * t != n or x < x ^ omega], t
        elements = v_basis.__wrapped__(spec, t).matrices
        assert [sp_scale(X, gr_i_power(_pauli(n, x)[0])) for X, x in zip(elements, labels)] \
            == [sp_mul(sp_mul(p, gamma(n, x)), p) for x in labels], t


def test_blocks_mutually_orthogonal():
    spec = Su2(4)
    for t in range(5):
        bt = v_basis(spec, t)
        for s in range(t + 1, 5):
            bs = v_basis(spec, s)
            for x in bt.matrices:
                for y in bs.matrices:
                    assert not op_inner(x, y, bt.weight)


def test_phi_eigenvalue_consistency():
    # Phi_t scales every element of V_j by the same W_t(j), not just the
    # representative used by the closed form
    spec = QHamming(2, 2)
    for t in range(3):
        bt = v_basis(spec, t)
        for j in range(3):
            bj = v_basis(spec, j)
            lam = wtj(spec, t, j)
            for x in bj.matrices:
                out = phi_apply(bt, x)
                # exact on the integer basis: no float from an int norm
                assert not any(isinstance(v, float) for v in out.values())
                for y in bj.matrices:
                    lhs = op_inner(out, y, bj.weight)
                    rhs = lam * op_inner(x, y, bj.weight)
                    assert lhs == rhs


def test_bruteforce_agrees_entrywise_on_su2():
    spec = Su2(3)
    for t in range(4):
        for j in range(4):
            assert wtj_bruteforce(spec, t, j) == wtj(spec, t, j)


def gram_schmidt_closure(hw, lowering, weight, target):
    """Reference closure: rational Gram-Schmidt on every candidate, kept if
    nonzero."""
    basis, norms = [], []

    def reduce_add(x):
        for b, nb in zip(basis, norms):
            c = op_inner(b, x, weight)
            if c:
                x = sp_sub(x, sp_scale(b, Fraction(c) / nb))
        if not x:
            return False
        basis.append(x)
        norms.append(op_inner(x, x, weight))
        return True

    reduce_add(hw)
    queue = [hw]
    while queue and len(basis) < target:
        x = queue.pop()
        for a in lowering:
            y = sp_sub(sp_mul(a, x), sp_mul(x, a))
            if y and reduce_add(y):
                queue.append(y)
    return basis, norms


def primitive_multiple(x):
    """(p, f): p the primitive integer matrix f x, f > 0."""
    den = lcm(*(Fraction(v).denominator for v in x.values()))
    g = gcd(*(int(v * den) for v in x.values()))
    return {k: int(v * den) // g for k, v in x.items()}, Fraction(den, g)


@pytest.mark.parametrize("spec", [SunExt(5, 2), SuqSym(3, 3)], ids=str)
def test_closure_basis_matches_gram_schmidt_on_every_candidate(spec, monkeypatch):
    calls = []
    closure = oracle._closure_basis

    def recording(spec, t, hw, lowering, weight):
        out = closure(spec, t, hw, lowering, weight)
        calls.append((hw, lowering, weight, out))
        return out

    monkeypatch.setattr(oracle, "_closure_basis", recording)
    r = profile(spec).diameter_r
    for t in range(r + 1):
        v_basis.__wrapped__(spec, t)  # past the cache, so the closure runs
    assert len(calls) == r + 1
    for hw, lowering, weight, out in calls:
        basis, norms = gram_schmidt_closure(hw, lowering, weight, len(out.matrices))
        multiples = [primitive_multiple(b) for b in basis]
        assert out.matrices == [p for p, _ in multiples]
        assert out.norms == [n * f * f for n, (_, f) in zip(norms, multiples)]


def all_roots(spec):
    if isinstance(spec, SunExt):
        return [oracle._suext_e(spec.n, spec.w, i, j) for i in range(spec.n) for j in range(i)]
    return [oracle._susym_e(spec.q, spec.n, i, j) for i in range(spec.q) for j in range(i)]


@pytest.mark.parametrize("spec", CLOSURE_GRID, ids=str)
def test_simple_roots_span_the_all_roots_closure(spec, monkeypatch):
    calls = []
    closure = oracle._closure_basis

    def recording(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(oracle, "_closure_basis", recording)
    for t in range(profile(spec).diameter_r + 1):
        simple = v_basis.__wrapped__(spec, t).matrices
        _, _, hw, lowering, weight = calls[-1]
        assert len(lowering) == (spec.n if isinstance(spec, SunExt) else spec.q) - 1
        full = closure(spec, t, hw, all_roots(spec), weight).matrices
        space = RowSpace()
        assert all(space.add(x) for x in simple)
        assert len(full) == len(simple)
        assert not any(space.add(x) for x in full), t


def test_closure_that_skips_a_projection_is_refused(monkeypatch):
    # the integer Gram-Schmidt reads its first nonzero projection
    # coefficient as 0, so it drops that projection
    inner = oracle._inner
    skipped = []

    def skip_first(a, b, weight, scale):
        c = inner(a, b, weight, scale)
        if c and a is not b and not skipped:
            skipped.append(c)
            return 0
        return c

    monkeypatch.setattr(oracle, "_inner", skip_first)
    with pytest.raises(ArithmeticError, match="not orthogonal"):
        v_basis.__wrapped__(SunExt(4, 2), 1)
    assert skipped


def test_suext_closure_work_is_capped(monkeypatch):
    # SunExt(6, 3) made 3,942 sp_mul and 1,152 inner-product calls with the
    # simple roots and support-restricted Gram-Schmidt (11,342 and 33,986
    # with all lowering roots and projections onto every earlier element);
    # the closure and OperatorBasis take every inner product through _inner.
    # Each commutator with a simple root is now a relabelling, 1,968 of them,
    # and no general product is formed at all
    counts = Counter()
    for name in ("sp_mul", "_inner", "mono_commutator"):
        def counting(*args, _f=getattr(oracle, name), _name=name):
            counts[_name] += 1
            return _f(*args)
        monkeypatch.setattr(oracle, name, counting)
    spec = SunExt(6, 3)
    for t in range(profile(spec).diameter_r + 1):
        v_basis.__wrapped__(spec, t)
    assert counts["sp_mul"] <= 4_340
    assert counts["_inner"] <= 1_270
    assert counts["sp_mul"] == 0
    assert counts["mono_commutator"] == 1_968


def test_oracle_table_covers_every_family():
    assert set(ORACLE) == set(FAMILY_NAMES.values())


def test_susym_ceiling_is_dim_h_twelve():
    # q = 2, n = 11 has dim H = 12, inside the ceiling although n > 3
    assert verify_wtj(SuqSym(2, 11)).matches
    with pytest.raises(ValueError, match="su-sym needs q <= 3 and dim H <= 12"):
        v_basis(SuqSym(3, 4), 0)


def test_block_outside_the_diameter_is_refused():
    with pytest.raises(ValueError, match="t=3 outside 0..2"):
        v_basis(QHamming(2, 2), 3)


def test_lambda_of_a_family_without_a_signature_is_refused():
    with pytest.raises(ValueError, match="qhamming is not self-dual"):
        verify_lambda(QHamming(3, 2))


def test_block_builder_one_element_short_is_refused(monkeypatch):
    built = ORACLE[Su2].basis

    def short(spec, t):
        basis = built(spec, t)
        return OperatorBasis(spec, t, basis.matrices[:-1], basis.weight)

    monkeypatch.setitem(ORACLE, Su2, ORACLE[Su2]._replace(basis=short))
    v_basis.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="expected dim V_1 = 3"):
            v_basis(Su2(3), 1)
    finally:
        v_basis.cache_clear()



@pytest.mark.parametrize("spec", [CliffordOdd(3), Semispinorial(4)], ids=str)
def test_gamma_block_refuses_a_repeated_or_missing_word(spec, monkeypatch):
    entry = ORACLE[type(spec)]

    def repeated(spec, t):  # the first label again in place of the last
        labels, columns = entry.words(spec, t)
        labels = list(labels)
        return labels[:-1] + labels[:1], columns

    def short(spec, t):
        labels, columns = entry.words(spec, t)
        return list(labels)[:-1], columns

    oracle._gamma_block.cache_clear()
    try:
        monkeypatch.setitem(ORACLE, type(spec), entry._replace(words=repeated))
        with pytest.raises(ArithmeticError, match="not orthogonal"):
            oracle._gamma_block(spec, 1)
        monkeypatch.setitem(ORACLE, type(spec), entry._replace(words=short))
        with pytest.raises(ArithmeticError,
                           match=f"expected dim V_1 = {profile(spec).dim_V[1]}"):
            oracle._gamma_block(spec, 1)
    finally:
        oracle._gamma_block.cache_clear()


def test_zero_element_entry_or_weight_is_rejected():
    one = Fraction(1)
    # an empty element would count toward dim V_t and have norm 0
    with pytest.raises(ArithmeticError, match="zero element"):
        OperatorBasis(Su2(1), 0, [{(0, 0): one}, {}])
    with pytest.raises(ArithmeticError, match="zero entry"):
        OperatorBasis(Su2(1), 0, [{(0, 0): one, (1, 1): 0}])
    # the weighted inner product is summed on integer weights
    with pytest.raises(ArithmeticError, match="positive integers"):
        OperatorBasis(SuqSym(2, 1), 0, [{(0, 0): 1}], {0: Fraction(1, 2), 1: 1})
    with pytest.raises(ArithmeticError, match="positive integers"):
        op_inner({(0, 0): 1}, {(0, 0): 1}, {0: 2.0})


def test_non_orthogonal_basis_is_rejected():
    one = Fraction(1)
    with pytest.raises(ArithmeticError, match="not orthogonal"):
        OperatorBasis(Su2(1), 0, [{(0, 0): one}, {(0, 0): one, (1, 1): one}])
    # the one overlapping pair, first and last, among disjoint supports
    with pytest.raises(ArithmeticError, match="not orthogonal"):
        OperatorBasis(Su2(3), 0, [{(0, 0): one}, {(0, 1): one}, {(1, 0): one},
                                  {(1, 1): one}, {(2, 2): one, (0, 0): -one}])
