"""Brute-force verification of the closed-form machinery on small instances.

For each family this module builds explicit matrix bases of the error
blocks V_t, applies the block channel

    Phi_t(X) = sum_{k,l} (G^{-1})_{lk} F_k X F_l*

with the exact Gram correction, and reads off eigenvalues as rational
ratios.  Nothing here trusts the closed forms in wtj.py; agreement between
the two paths is the correctness argument for the fast formulas.

Instances are capped at sizes where dense exact arithmetic finishes in
seconds; larger parameters raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .clifford import _labels_of_weight, gamma, label_to_str, q_form, wt
from .families import (CliffordEven, CliffordOdd, FamilySpec, QHamming,
                       Semispinorial, Spinorial, Su2, SunExt, SuqSym, profile)
from .linalg import (RowSpace, Sparse, conj, sp_add, sp_identity, sp_kron, sp_mul,
                     sp_scale, sp_sub)
from .scalars import GR_ONE, GaussianRational, SurdSum
from .su2 import _coeff_E, _coeff_F
from .wtj import lambda_signature, wtj_matrix

SIZE_CEILINGS = "QHamming q=2 n<=3 / q=3 n<=2; Su2 n<=6; SuqSym q=3 n<=3; " \
                "SunExt n<=6; Clifford and Spinorial n<=4; Semispinorial n<=5"


def _check_size(spec: FamilySpec) -> None:
    ok = True
    if isinstance(spec, QHamming):
        ok = (spec.q == 2 and spec.n <= 3) or (spec.q == 3 and spec.n <= 2)
    elif isinstance(spec, Su2):
        ok = spec.n <= 6
    elif isinstance(spec, SuqSym):
        ok = spec.q <= 3 and profile(spec).dim_H <= 12
    elif isinstance(spec, SunExt):
        ok = spec.n <= 6
    elif isinstance(spec, (CliffordOdd, CliffordEven, Spinorial)):
        ok = spec.n <= 4
    elif isinstance(spec, Semispinorial):
        ok = spec.n <= 5
    if not ok:
        raise ValueError(f"instance too large for the oracle ({SIZE_CEILINGS})")


@dataclass
class OperatorBasis:
    spec: FamilySpec
    t: int
    matrices: list[Sparse]
    dim: int
    # diagonal weight of the representation's inner product; None = identity
    weight: dict[int, Fraction] | None = None
    gram: list[list[Fraction]] = field(default_factory=list)
    # set once here, not per phi_apply call: whether the Gram matrix is
    # diagonal, and the weighted adjoint of every basis matrix
    diagonal: bool = field(init=False)
    adjoints: list[Sparse] = field(init=False)

    def __post_init__(self) -> None:
        if not self.gram:
            self.gram = [[_as_fraction(op_inner(a, b, self.weight))
                          for b in self.matrices] for a in self.matrices]
        self.diagonal = all(not g for i, row in enumerate(self.gram)
                            for j, g in enumerate(row) if i != j)
        self.adjoints = [op_weighted_adjoint(f, self.weight) for f in self.matrices]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    r = x.is_rational()
    if r is None:
        raise ArithmeticError(f"irrational Gram entry {x}")
    return r


def op_inner(a: Sparse, b: Sparse, weight: dict[int, Fraction] | None):
    """Hilbert-Schmidt inner product tr(a* b), honoring the diagonal weight."""
    acc = 0
    for key, va in a.items():
        vb = b.get(key)
        if vb is not None:
            term = conj(va) * vb
            if weight is not None:
                term = term * (weight[key[0]] / weight[key[1]])
            acc = term + acc
    return acc


def op_weighted_adjoint(a: Sparse, weight: dict[int, Fraction] | None) -> Sparse:
    if weight is None:
        return {(j, i): conj(v) for (i, j), v in a.items()}
    return {(j, i): conj(v) * (weight[i] / weight[j]) for (i, j), v in a.items()}


# --- per-family bases -------------------------------------------------------

def _traceless_orthogonal_basis(q: int) -> list[Sparse]:
    out: list[Sparse] = []
    one = Fraction(1)
    for i in range(q):
        for j in range(q):
            if i != j:
                out.append({(i, j): one})
    for k in range(1, q):
        # diag(1,...,1,-k,0,...): orthogonal, traceless, rational
        m: Sparse = {(i, i): one for i in range(k)}
        m[(k, k)] = Fraction(-k)
        out.append(m)
    return out


def _basis_qhamming(spec: QHamming, t: int) -> OperatorBasis:
    q, n = spec.q, spec.n
    traceless = _traceless_orthogonal_basis(q)
    ident: Sparse = {(i, i): Fraction(1) for i in range(q)}
    mats: list[Sparse] = []
    for positions in combinations(range(n), t):
        def extend(pos: int, acc: Sparse) -> None:
            if pos == n:
                mats.append(acc)
                return
            if pos in positions:
                for f in traceless:
                    extend(pos + 1, sp_kron(acc, f, q, q))
            else:
                extend(pos + 1, sp_kron(acc, ident, q, q))
        extend(0, {(0, 0): Fraction(1)})
    return OperatorBasis(spec, t, mats, q ** n)


def _su2_ef_matrices(n: int) -> tuple[Sparse, Sparse]:
    # row/col index m <-> weight k = 2m - n
    E: Sparse = {}
    F: Sparse = {}
    for m in range(n + 1):
        k = 2 * m - n
        if k < n:
            E[(m + 1, m)] = _coeff_E(n, k)
        if k > -n:
            F[(m - 1, m)] = _coeff_F(n, k)
    return E, F


def _basis_su2(spec: Su2, t: int) -> OperatorBasis:
    n = spec.n
    E, F = _su2_ef_matrices(n)
    x: Sparse = {(i, i): SurdSum.rational(1) for i in range(n + 1)}
    for _ in range(t):
        x = sp_mul(E, x)
    mats = [x]
    for _ in range(2 * t):
        x = sp_sub(sp_mul(F, x), sp_mul(x, F))
        mats.append(x)
    return OperatorBasis(spec, t, mats, n + 1)


def _closure_basis(spec: FamilySpec, t: int, dim: int, hw: Sparse,
                   lowering: list[Sparse],
                   weight: dict[int, Fraction] | None) -> OperatorBasis:
    """Orthogonal span of the ad-orbit of a highest-weight matrix.

    A candidate is new when it lies outside the span of the accepted ones;
    that is decided on the integer row space, and only accepted candidates
    are orthogonalised (Gram-Schmidt in acceptance order).
    """
    target = profile(spec).dim_V[t]
    space = RowSpace()
    basis: list[Sparse] = []
    norms: list[Fraction] = []

    def accept(x: Sparse) -> None:
        for b, nb in zip(basis, norms):
            c = op_inner(b, x, weight)
            if c:
                x = sp_sub(x, sp_scale(b, c / nb))
        basis.append(x)
        norms.append(_as_fraction(op_inner(x, x, weight)))

    if space.add(hw):
        accept(hw)
    queue = [hw]
    while queue and len(basis) < target:
        x = queue.pop()
        for a in lowering:
            y = sp_sub(sp_mul(a, x), sp_mul(x, a))
            if y and space.add(y):
                accept(y)
                queue.append(y)
    if len(basis) != target:
        raise ArithmeticError(f"closure of {spec} block {t} has {len(basis)} "
                              f"elements, expected {target}")
    zero = Fraction(0)
    return OperatorBasis(spec, t, basis, dim, weight,
                         [[norms[i] if i == j else zero
                           for j in range(target)] for i in range(target)])


@lru_cache(maxsize=None)
def _susym_space(q: int, n: int):
    monos = []

    def gen(rem: int, parts: list[int]) -> None:
        if len(parts) == q - 1:
            monos.append(tuple(parts + [rem]))
            return
        for v in range(rem + 1):
            gen(rem - v, parts + [v])
    gen(n, [])
    index = {a: i for i, a in enumerate(monos)}
    weight = {}
    for a, i in index.items():
        w = Fraction(1)
        for p in a:
            for f in range(2, p + 1):
                w *= f
        weight[i] = w
    return monos, index, weight


def _susym_e(q: int, n: int, i: int, j: int) -> Sparse:
    """E_ij = x_i d/dx_j on degree-n monomials; integer entries."""
    monos, index, _ = _susym_space(q, n)
    out: Sparse = {}
    for a, col in index.items():
        if a[j]:
            b = list(a)
            b[j] -= 1
            b[i] += 1
            out[(index[tuple(b)], col)] = Fraction(a[j])
    return out


def _basis_susym(spec: SuqSym, t: int) -> OperatorBasis:
    q, n = spec.q, spec.n
    monos, index, weight = _susym_space(q, n)
    hw: Sparse = {(i, i): Fraction(1) for i in range(len(monos))}
    step = _susym_e(q, n, 0, q - 1)
    for _ in range(t):
        hw = sp_mul(step, hw)
    lowering = [_susym_e(q, n, i, j) for i in range(q) for j in range(q) if i != j]
    lowering += [sp_sub(_susym_e(q, n, i, i), _susym_e(q, n, i + 1, i + 1))
                 for i in range(q - 1)]
    return _closure_basis(spec, t, len(monos), hw, lowering, weight)


@lru_cache(maxsize=None)
def _suext_space(n: int, w: int):
    subsets = list(combinations(range(n), w))
    return subsets, {s: i for i, s in enumerate(subsets)}


def _suext_e(n: int, w: int, i: int, j: int) -> Sparse:
    """E_ij on the w-th exterior power of C^n, signed substitution."""
    subsets, index = _suext_space(n, w)
    out: Sparse = {}
    for s, col in index.items():
        if i == j:
            if i in s:
                out[(col, col)] = out.get((col, col), Fraction(0)) + 1
            continue
        if j in s and i not in s:
            lo, hi = min(i, j), max(i, j)
            sign = (-1) ** sum(1 for x in s if lo < x < hi)
            target = tuple(sorted(set(s) - {j} | {i}))
            out[(index[target], col)] = Fraction(sign)
    return out


def _basis_suext(spec: SunExt, t: int) -> OperatorBasis:
    n, w = spec.n, spec.w
    subsets, _ = _suext_space(n, w)
    dim = len(subsets)
    hw: Sparse = {(i, i): Fraction(1) for i in range(dim)}
    for k in range(t):
        hw = sp_mul(_suext_e(n, w, k, n - 1 - k), hw)
    lowering = [_suext_e(n, w, i, j) for i in range(n) for j in range(n) if i != j]
    lowering += [sp_sub(_suext_e(n, w, i, i), _suext_e(n, w, i + 1, i + 1))
                 for i in range(n - 1)]
    return _closure_basis(spec, t, dim, hw, lowering, None)


def _basis_gamma(spec: FamilySpec, t: int, length: int, weights: tuple[int, ...],
                 n: int) -> OperatorBasis:
    mats = [gamma(n, x) for w in weights for x in _labels_of_weight(length, w)]
    return OperatorBasis(spec, t, mats, 2 ** n)


def _basis_semispin(spec: Semispinorial, t: int) -> OperatorBasis:
    n = spec.n
    omega = (1 << (2 * n)) - 1
    half = GaussianRational(Fraction(1, 2), 0)
    p_plus = sp_add(sp_scale(sp_identity(2 ** n, GR_ONE), half),
                    sp_scale(gamma(n, omega), half))
    labels = list(_labels_of_weight(2 * n, 2 * t))
    if 2 * t == n:
        labels = [x for x in labels if x < (x ^ omega)]
    mats = [sp_mul(sp_mul(p_plus, gamma(n, x)), p_plus) for x in labels]
    return OperatorBasis(spec, t, mats, 2 ** n)


@lru_cache(maxsize=None)
def v_basis(spec: FamilySpec, t: int) -> OperatorBasis:
    _check_size(spec)
    prof = profile(spec)
    if not 0 <= t <= prof.diameter_r:
        raise ValueError(f"t={t} outside 0..{prof.diameter_r}")
    if isinstance(spec, QHamming):
        basis = _basis_qhamming(spec, t)
    elif isinstance(spec, Su2):
        basis = _basis_su2(spec, t)
    elif isinstance(spec, SuqSym):
        basis = _basis_susym(spec, t)
    elif isinstance(spec, SunExt):
        basis = _basis_suext(spec, t)
    elif isinstance(spec, CliffordOdd):
        basis = _basis_gamma(spec, t, 2 * spec.n + 1, (t,), spec.n)
    elif isinstance(spec, CliffordEven):
        basis = _basis_gamma(spec, t, 2 * spec.n, (t,), spec.n)
    elif isinstance(spec, Spinorial):
        basis = _basis_gamma(spec, t, 2 * spec.n + 1, (2 * t,), spec.n)
    elif isinstance(spec, Semispinorial):
        basis = _basis_semispin(spec, t)
    else:
        raise TypeError(f"unknown family {spec!r}")
    if len(basis.matrices) != prof.dim_V[t]:
        raise ArithmeticError(f"{spec} block {t} basis has {len(basis.matrices)} "
                              f"elements, expected dim V_{t} = {prof.dim_V[t]}")
    return basis


# --- the block channel ------------------------------------------------------

def _mat_inverse(G: list[list[Fraction]]) -> list[list[Fraction]]:
    m = len(G)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(m)]
           for i, row in enumerate(G)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def phi_apply(basis: OperatorBasis, X: Sparse) -> Sparse:
    G = basis.gram
    out: Sparse = {}
    if basis.diagonal:
        for i, (f, fa) in enumerate(zip(basis.matrices, basis.adjoints)):
            out = sp_add(out, sp_scale(sp_mul(sp_mul(f, X), fa), 1 / G[i][i]))
        return out
    Ginv = _mat_inverse(G)
    for k, fk in enumerate(basis.matrices):
        fkx = sp_mul(fk, X)
        for l, fla in enumerate(basis.adjoints):
            c = Ginv[l][k]
            if c:
                out = sp_add(out, sp_scale(sp_mul(fkx, fla), c))
    return out


def wtj_bruteforce(spec: FamilySpec, t: int, j: int) -> Fraction:
    bt = v_basis(spec, t)
    bj = v_basis(spec, j)
    X = bj.matrices[0]
    num = op_inner(X, phi_apply(bt, X), bt.weight)
    den = op_inner(X, X, bt.weight)
    val = _as_fraction(num) / _as_fraction(den)
    return val


@dataclass(frozen=True)
class WtjReport:
    spec: FamilySpec
    matches: bool
    mismatches: tuple[tuple[int, int, Fraction, Fraction], ...]


def verify_wtj(spec: FamilySpec) -> WtjReport:
    """Compare every closed-form W_t(j) against the brute-force eigenvalue."""
    W = wtj_matrix(spec)
    r = profile(spec).diameter_r
    bad = []
    for t in range(r + 1):
        for j in range(r + 1):
            got = wtj_bruteforce(spec, t, j)
            if got != W[t][j]:
                bad.append((t, j, got, W[t][j]))
    return WtjReport(spec, not bad, tuple(bad))


# --- antiunitary signatures -------------------------------------------------

def _conj_matrix(x: Sparse) -> Sparse:
    return {k: conj(v) for k, v in x.items()}


def _lambda_operator(spec: FamilySpec) -> Sparse:
    """Matrix of the antiunitary's linear part, up to overall phase."""
    if isinstance(spec, QHamming) and spec.q == 2:
        sy: Sparse = {(0, 1): GaussianRational(0, -1), (1, 0): GaussianRational(0, 1)}
        out = sy
        for _ in range(spec.n - 1):
            out = sp_kron(out, sy, 2, 2)
        return out
    if isinstance(spec, (CliffordOdd, CliffordEven, Spinorial, Semispinorial)):
        # the word on all sigma_y letters; equals sigma_y^{tensor n} up to
        # letter-dependent signs that the conjugation sandwich absorbs
        n = spec.n
        return gamma(n, ((1 << n) - 1) << n)
    if isinstance(spec, Su2):
        n = spec.n
        out: Sparse = {}
        for m in range(n + 1):  # |k> -> (-1)^{(n+k)/2} |-k>
            k = 2 * m - n
            out[(n - m, m)] = SurdSum.rational((-1) ** ((n + k) // 2))
        return out
    if isinstance(spec, SunExt) and spec.n == 2 * spec.w:
        n, w = spec.n, spec.w
        subsets, index = _suext_space(n, w)
        out = {}
        for s, col in index.items():
            comp = tuple(x for x in range(n) if x not in s)
            perm = list(s) + list(comp)
            sign = 1
            for a in range(len(perm)):
                for b in range(a + 1, len(perm)):
                    if perm[a] > perm[b]:
                        sign = -sign
            out[(index[comp], col)] = Fraction(sign)
        return out
    raise NotImplementedError(f"no antiunitary construction for {spec}")


@dataclass(frozen=True)
class LambdaReport:
    spec: FamilySpec
    matches: bool
    mismatches: tuple[tuple[int, int], ...]  # (block, basis element index)


def verify_lambda(spec: FamilySpec) -> LambdaReport:
    """Check T(X) = Lambda conj(X) Lambda* equals lambda_j X* on every block.

    The antiunitary commutes with the isometry action but swaps raising and
    lowering directions, so the elementwise statement uses the adjoint of X,
    not X itself; the two coincide on Hermitian basis elements.
    """
    lam = lambda_signature(spec)
    if lam is None:
        raise ValueError(f"{spec.name} is not self-dual")
    L = _lambda_operator(spec)
    Ladj = op_weighted_adjoint(L, None)
    r = profile(spec).diameter_r
    bad = []
    for j in range(r + 1):
        basis = v_basis(spec, j)
        for i, X in enumerate(basis.matrices):
            tx = sp_mul(sp_mul(L, _conj_matrix(X)), Ladj)
            want = sp_scale(op_weighted_adjoint(X, basis.weight), lam[j])
            if not _sparse_equal(tx, want):
                bad.append((j, i))
    return LambdaReport(spec, not bad, tuple(bad))


def _sparse_equal(a: Sparse, b: Sparse) -> bool:
    if set(a) != set(b):
        return False
    return all(a[k] == b[k] for k in a)
