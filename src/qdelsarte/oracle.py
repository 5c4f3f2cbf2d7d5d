"""Brute-force verification of the closed-form machinery on small instances.

For each family this module builds explicit matrix bases of the error
blocks V_t and reads off the eigenvalues of the block channel

    Phi_t(X) = sum_k F_k X F_k* / <F_k, F_k>

on an orthogonal basis F_k as the Rayleigh quotient <X, Phi_t(X)> / <X, X>,
summed as sum_k <X F_k, F_k X> / (<F_k, F_k> <X, X>) without forming
Phi_t(X); `phi_apply`, which forms it, is the reference.  Every basis is
an int matrix, and all but the su(2) one are primitive.  The su(2) basis is
`su2.error_block` under the weight `su2.weights`, the int matrices
`su2.min_distance` measures code distance with, so W_t(j) is certified on
the blocks codes are checked against.  OperatorBasis checks every basis
orthogonal, on the pairs of elements that share a nonzero position (the
others are orthogonal anyway), and raises ArithmeticError otherwise.
Nothing here trusts the closed forms of the family classes; agreement
between the two paths is the correctness argument for the fast formulas.

`ORACLE` holds, per family class, the size ceiling, the block-basis builder,
the antiunitary builder and, for the four Gamma families, the words of each
block; whether a family has words picks one of two channels.  Without words,
W_t(j) is the Rayleigh quotient above, summed on ints into one Fraction per
W_t(j), and the signature is checked as W L X = lambda_j X^T W L, W the
diagonal weight, both on the int bases.  The su-ext and su-sym blocks are
closures of a highest-weight matrix under the simple lowering roots,
orthogonalised fraction-free.  The roots, L and the X of each quotient are
monomial, indexed once by `linalg.monomial`, and a product or commutator
with one relabels the other factor's entries.  With words, the blocks are
the monomial Gamma_x: for the Clifford-odd, Clifford-even and spinorial
families those of `clifford.block_labels`, the blocks `verify` reads codes
in, so W_t(j) is certified on those too; for the semispinorial family the
even-weight Gamma_x restricted to the columns of the chirality projector P+.
Each Gamma_x is i^k X^a Z^b (`clifford._signed_monomial`), and the constant
i^k cancels in F X F*, in the Rayleigh quotient and on both sides of the
sandwich, so a block element is the signed int monomial X^a Z^b on the
block's columns, built once by `_gamma_block` for the channel, the
antiunitary check and `v_basis` alike.  The first two multiply its signs
column by column; the Rayleigh quotient and the sandwich on `v_basis` stay,
with `phi_apply`, the reference.  Instances are capped at sizes where exact
arithmetic finishes in seconds; larger parameters raise.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod
from typing import Callable, NamedTuple

from .clifford import _labels_of_weight, _signed_monomial, block_labels
from .families import (READINGS, Family, QHamming, Semispinorial, Su2, SunExt,
                       SuqSym, profile)
from .linalg import (RowSpace, Sparse, _primitive, monomial, mono_commutator, mono_mul,
                     mul_mono, sp_add, sp_identity, sp_kron, sp_mul, sp_scale, sp_sub)
from . import su2
from .wtj import lambda_signature, wtj_matrix


@dataclass
class OperatorBasis:
    spec: Family
    t: int
    matrices: list[Sparse]
    # diagonal weight of the representation's inner product, positive ints;
    # None = identity
    weight: dict[int, int] | None = None
    # <F_k, F_k>, an int or a Fraction: computed here unless the builder
    # has them already
    norms: list[int | Fraction] | None = None

    def __post_init__(self) -> None:
        if not all(a and all(a.values()) for a in self.matrices):
            raise ArithmeticError(f"{self.spec} block {self.t} basis has a zero "
                                  f"element or stores a zero entry")
        scale = _weight_lcm(self.weight)
        # <a, b> vanishes unless a and b share a position, so only pairs that
        # share one are checked
        at: dict[tuple[int, int], list[int]] = {}
        for i, a in enumerate(self.matrices):
            met = {k for key in a for k in at.get(key, ())}
            if any(_inner(self.matrices[k], a, self.weight, scale) for k in met):
                raise ArithmeticError(f"{self.spec} block {self.t} basis is not orthogonal")
            for key in a:
                at.setdefault(key, []).append(i)
        if self.norms is None:
            self.norms = [_rational(op_inner(a, a, self.weight)) for a in self.matrices]


def _rational(x) -> int | Fraction:
    if isinstance(x, (int, Fraction)):
        return x
    r = x.is_rational()
    if r is None:
        raise ArithmeticError(f"irrational Gram entry {x}")
    return r


def _weight_lcm(weight: dict[int, int] | None) -> int:
    if weight is None:
        return 1
    if not all(isinstance(w, int) and w > 0 for w in weight.values()):
        raise ArithmeticError("inner-product weights must be positive integers")
    return lcm(*weight.values())


def _inner(a: Sparse, b: Sparse, weight: dict[int, int] | None, scale: int):
    """scale <a, b>_w: the sum of conj(a) b w_i (scale / w_j) over the shared
    positions (i, j), scale = lcm(w), so integer matrices give an int."""
    acc = 0
    for key, va in a.items():
        vb = b.get(key)
        if vb is not None:
            term = va.conjugate() * vb
            if weight is not None:
                term = term * (weight[key[0]] * (scale // weight[key[1]]))
            acc = term + acc
    return acc


def op_inner(a: Sparse, b: Sparse, weight: dict[int, int] | None):
    """Hilbert-Schmidt inner product tr(a* b), honoring the diagonal weight:
    `_inner` divided by lcm(w) once."""
    scale = _weight_lcm(weight)
    acc = _inner(a, b, weight, scale)
    return acc if scale == 1 else Fraction(acc, scale)


# --- per-family bases -------------------------------------------------------

def _traceless_orthogonal_basis(q: int) -> list[Sparse]:
    out: list[Sparse] = [{(i, j): 1} for i in range(q) for j in range(q) if i != j]
    for k in range(1, q):
        # diag(1,...,1,-k,0,...): orthogonal, traceless, primitive
        m: Sparse = {(i, i): 1 for i in range(k)}
        m[(k, k)] = -k
        out.append(m)
    return out


def _basis_qhamming(spec: QHamming, t: int) -> OperatorBasis:
    q, n = spec.q, spec.n
    traceless = _traceless_orthogonal_basis(q)
    ident = sp_identity(q, 1)
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
        extend(0, {(0, 0): 1})
    return OperatorBasis(spec, t, mats)


def _basis_su2(spec: Su2, t: int) -> OperatorBasis:
    return OperatorBasis(spec, t, su2.error_block(spec.n, t), su2.weights(spec.n))


def _closure_basis(spec: Family, t: int, hw: Sparse, lowering: list[Sparse],
                   weight: dict[int, int] | None) -> OperatorBasis:
    """Orthogonal span of the ad-orbit of a highest-weight matrix.

    hw and the lowering operators are int matrices, and the operators are
    monomial: each is indexed once, and a commutator relabels an element's
    entries in int arithmetic.  Each queued element is a weight vector, so
    a Cartan element would only rescale it, and the raising E_ij (i < j)
    annihilate hw.  The lowering subalgebra is generated by its simple root vectors,
    so callers pass the simple lowering roots E_{i+1,i} alone: the accepted
    span is closed under each of them, hence under all of U(n^-).  A
    candidate is new when it lies outside the span of the accepted ones;
    that is decided on the integer row space, and only accepted candidates
    are orthogonalised, by Gram-Schmidt in acceptance order without
    fractions: y = m x - sum_k (m c_k / n_k) b_k with c_k = <b_k, x>,
    n_k = <b_k, b_k> and m the lcm of the n_k projected on, made primitive.
    Each element is thus a positive multiple of the rational Gram-Schmidt
    one, with the same span and the same channel.  The accepted elements
    are orthogonal, so every projection coefficient is taken on the
    candidate as given, and it is 0 unless the two supports meet: a
    candidate is projected onto those earlier elements only.  No commutator
    is formed once the span has dim V_t elements; `v_basis` refuses a closure
    that ends short of that, and `OperatorBasis` checks its orthogonality.
    """
    target = profile(spec).dim_V[t]
    scale = _weight_lcm(weight)
    roots = [monomial(a) for a in lowering]
    space = RowSpace()
    basis: list[Sparse] = []
    norms: list[int] = []  # scale <b, b>_w, so c_k / n_k is taken at one scale
    at: dict[tuple[int, int], list[int]] = {}  # position -> elements nonzero there

    def accept(x: Sparse) -> None:
        coef = [(k, c) for k in {k for key in x for k in at.get(key, ())}
                if (c := _inner(basis[k], x, weight, scale))]
        m = lcm(*(norms[k] for k, _ in coef))
        y = sp_scale(x, m)
        for k, c in coef:
            y = sp_sub(y, sp_scale(basis[k], m * c // norms[k]))
        y = _primitive(y)
        for key in y:
            at.setdefault(key, []).append(len(basis))
        basis.append(y)
        norms.append(_inner(y, y, weight, scale))

    if space.add(hw):
        accept(hw)
    queue = [hw]
    while queue and len(basis) < target:
        x = queue.pop()
        for a in roots:
            if len(basis) == target:
                break
            y = mono_commutator(a, x)
            if y and space.add(y):
                accept(y)
                queue.append(y)
    return OperatorBasis(spec, t, basis, weight,
                         [n if scale == 1 else Fraction(n, scale) for n in norms])


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
    weight = {i: prod(map(factorial, a)) for a, i in index.items()}
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
            out[(index[tuple(b)], col)] = a[j]
    return out


def _basis_susym(spec: SuqSym, t: int) -> OperatorBasis:
    q, n = spec.q, spec.n
    monos, index, weight = _susym_space(q, n)
    hw = sp_identity(len(monos), 1)
    step = monomial(_susym_e(q, n, 0, q - 1))
    for _ in range(t):
        hw = mono_mul(step, hw)
    lowering = [_susym_e(q, n, i + 1, i) for i in range(q - 1)]
    return _closure_basis(spec, t, hw, lowering, weight)


@lru_cache(maxsize=None)
def _suext_space(n: int, w: int):
    subsets = list(combinations(range(n), w))
    return subsets, {s: i for i, s in enumerate(subsets)}


def _suext_e(n: int, w: int, i: int, j: int) -> Sparse:
    """E_ij (i != j) on the w-th exterior power of C^n, signed substitution."""
    subsets, index = _suext_space(n, w)
    out: Sparse = {}
    for s, col in index.items():
        if j in s and i not in s:
            lo, hi = min(i, j), max(i, j)
            sign = (-1) ** sum(1 for x in s if lo < x < hi)
            target = tuple(sorted(set(s) - {j} | {i}))
            out[(index[target], col)] = sign
    return out


def _basis_suext(spec: SunExt, t: int) -> OperatorBasis:
    n, w = spec.n, spec.w
    hw = sp_identity(len(_suext_space(n, w)[0]), 1)
    for k in range(t):
        hw = mono_mul(monomial(_suext_e(n, w, k, n - 1 - k)), hw)
    lowering = [_suext_e(n, w, i + 1, i) for i in range(n - 1)]
    return _closure_basis(spec, t, hw, lowering, None)


@lru_cache(maxsize=None)
def _plus_columns(n: int) -> frozenset[int]:
    """The columns of P+ = (I + Gamma_omega) / 2: where the diagonal
    Gamma_omega = i^k Z^b is +1.  Its own phase i^k decides which they are."""
    k, _, signs = _signed_monomial(n, (1 << (2 * n)) - 1)
    return frozenset(c for c, s in enumerate(signs) if not (k + 1 - s) & 3)


def _gamma_words(spec: Family, t: int) -> tuple[Iterable[int], Collection[int]]:
    """Block t of a Clifford reading: the Gamma_x of `block_labels` on every
    column."""
    return block_labels(spec, t), range(2 ** spec.n)


def _semispin_words(spec: Semispinorial, t: int) -> tuple[Iterable[int], Collection[int]]:
    """Block t of the half-spinor space: P+ Gamma_x P+ over the labels of
    weight 2t, one of each x, x ^ omega pair at 2t = n.  P+ is the 0/1
    diagonal on `_plus_columns`, and an even-weight Gamma_x commutes with
    Gamma_omega, so the product is Gamma_x on those columns."""
    n = spec.n
    omega = (1 << (2 * n)) - 1
    labels = _labels_of_weight(2 * n, 2 * t)
    if 2 * t == n:
        labels = (x for x in labels if x < (x ^ omega))
    return labels, _plus_columns(n)


@lru_cache(maxsize=None)
def _gamma_block(spec: Family, t: int
                 ) -> tuple[tuple[tuple[int, list[int]], ...], Collection[int]]:
    """The signed monomials of block t, checked to be dim V_t and pairwise
    orthogonal, and the columns of the family's `words`, which they map onto
    themselves: all 2^n, or the 2^(n-1) of P+ on the semispinorial blocks.
    Traces run over those columns: tr(A* B) is sum_c s_A[c] s_B[c] when A
    and B share their mask, 0 otherwise."""
    _admit(spec, t)
    labels, columns = ORACLE[type(spec)].words(spec, t)
    block = tuple(_signed_monomial(spec.n, x)[1:] for x in labels)
    _check_count(spec, t, len(block))
    by_mask: dict[int, list[list[int]]] = {}
    for a, s in block:
        by_mask.setdefault(a, []).append(s)
    if any(sum(u[c] * v[c] for c in columns)
           for group in by_mask.values() for u, v in combinations(group, 2)):
        raise ArithmeticError(f"{spec} block {t} basis is not orthogonal")
    return block, columns


def _basis_gamma(spec: Family, t: int) -> OperatorBasis:
    """The Gamma_x of block t up to their phases i^k: `_gamma_block` as int
    matrices on the block's columns."""
    block, columns = _gamma_block(spec, t)
    return OperatorBasis(spec, t, [{(c ^ a, c): s[c] for c in columns} for a, s in block])


def _wtj_gamma(spec: Family, t: int, j: int) -> Fraction:
    """<X, Phi_t(X)> / <X, X> on signed monomials, X the first element of
    block j: F X F* has X's mask and, at column c, the sign
    s[c ^ a ^ a_X] s_X[c ^ a] s[c ^ a] for F = (a, s), and every <F, F>,
    <X, X> included, is the number of columns."""
    block_j, columns = _gamma_block(spec, j)
    ax, sx = block_j[0]
    acc = sum(s[c ^ a ^ ax] * sx[c ^ a] * s[c ^ a] * sx[c]
              for a, s in _gamma_block(spec, t)[0] for c in columns)
    return Fraction(acc, len(columns) ** 2)


# --- antiunitaries: the linear part, up to overall phase ---------------------
# Each is reached only where the family has a signature: QHamming and SuqSym
# at q = 2, SunExt at n = 2w.

def _antiunitary_qhamming(spec: QHamming) -> Sparse:
    sy: Sparse = {(0, 1): 1, (1, 0): -1}  # i sigma_y
    out = sy
    for _ in range(spec.n - 1):
        out = sp_kron(out, sy, 2, 2)
    return out


def _sigma_y_label(n: int) -> int:
    # the word on all sigma_y letters; equals sigma_y^{tensor n} up to
    # letter-dependent signs that the conjugation sandwich absorbs
    return ((1 << n) - 1) << n


def _antiunitary_gamma(spec: Family) -> Sparse:
    _, l, f = _signed_monomial(spec.n, _sigma_y_label(spec.n))
    return {(c ^ l, c): v for c, v in enumerate(f)}


def _lambda_gamma(spec: Family, lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """`_lambda_sandwich` on the signed monomials of `_gamma_block`: with L,
    the sigma_y word, as (l, f) and X as (a, s), column c of L conj(X) L* =
    L X L* lands on row c ^ a with the sign f[c ^ l ^ a] s[c ^ l] f[c ^ l],
    and column c of lambda_j X* there with the sign lambda_j s[c ^ a].  Both
    vanish off the block's columns, and the first does at c too when L
    moves c off them."""
    _, l, f = _signed_monomial(spec.n, _sigma_y_label(spec.n))
    bad = []
    for j, sign in enumerate(lam):
        block, columns = _gamma_block(spec, j)
        bad += [(j, i) for i, (a, s) in enumerate(block)
                if any(c ^ l not in columns
                       or f[c ^ l ^ a] * s[c ^ l] * f[c ^ l] * s[c ^ a] != sign
                       for c in columns)]
    return bad


def _antiunitary_su2(spec: Su2) -> Sparse:
    # |k> -> (-1)^m |-k>, k = 2m - n, conjugated by D: D and the swap
    # m -> n - m give w_m / sqrt(w_0) at (n - m, m), as a_m = a_{n-1-m}, and
    # the constant 1 / sqrt(w_0) cancels in the sandwich
    w = su2.weights(spec.n)
    return {(spec.n - m, m): (-1) ** m * w[m] for m in w}


def _antiunitary_susym(spec: SuqSym) -> Sparse:
    # x^a y^b -> (-1)^b x^b y^a; the swap keeps the weight a! b!
    _, index, _ = _susym_space(2, spec.n)
    return {(index[(b, a)], col): (-1) ** b for (a, b), col in index.items()}


def _antiunitary_suext(spec: SunExt) -> Sparse:
    n, w = spec.n, spec.w
    subsets, index = _suext_space(n, w)
    out: Sparse = {}
    for s, col in index.items():
        comp = tuple(x for x in range(n) if x not in s)
        perm = list(s) + list(comp)
        sign = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    sign = -sign
        out[(index[comp], col)] = sign
    return out


# --- the per-family table -----------------------------------------------------

class _Oracle(NamedTuple):
    ceiling: str                              # the largest instances admitted
    fits: Callable[[Family], bool]
    basis: Callable[[Family, int], OperatorBasis]
    antiunitary: Callable[[Family], Sparse]
    # the labels of block t and the columns their Gamma_x are restricted
    # to, for the families whose blocks are monomials: W_t(j) and the
    # signature are then checked on monomials (`_wtj_gamma`, `_lambda_gamma`),
    # and on the integer bases by `_rayleigh` and `_lambda_sandwich` otherwise
    words: Callable[[Family, int], tuple[Iterable[int], Collection[int]]] | None = None


ORACLE: dict[type, _Oracle] = {
    QHamming: _Oracle("q = 2 and n <= 3, or q = 3 and n <= 2",
                      lambda s: (s.q == 2 and s.n <= 3) or (s.q == 3 and s.n <= 2),
                      _basis_qhamming, _antiunitary_qhamming),
    Su2: _Oracle("n <= 6", lambda s: s.n <= 6, _basis_su2, _antiunitary_su2),
    SuqSym: _Oracle("q <= 3 and dim H <= 12",
                    lambda s: s.q <= 3 and profile(s).dim_H <= 12, _basis_susym,
                    _antiunitary_susym),
    SunExt: _Oracle("n <= 6", lambda s: s.n <= 6, _basis_suext, _antiunitary_suext),
    **{cls: _Oracle("n <= 4", lambda s: s.n <= 4, _basis_gamma, _antiunitary_gamma,
                    _gamma_words) for cls in READINGS.values()},
    Semispinorial: _Oracle("n <= 5", lambda s: s.n <= 5, _basis_gamma, _antiunitary_gamma,
                           _semispin_words),
}


def _admit(spec: Family, t: int) -> None:
    entry = ORACLE[type(spec)]
    if not entry.fits(spec):
        raise ValueError(f"instance too large for the oracle "
                         f"({spec.name} needs {entry.ceiling}, got {spec})")
    r = profile(spec).diameter_r
    if not 0 <= t <= r:
        raise ValueError(f"t={t} outside 0..{r}")


def _check_count(spec: Family, t: int, got: int) -> None:
    want = profile(spec).dim_V[t]
    if got != want:
        raise ArithmeticError(f"{spec} block {t} basis has {got} "
                              f"elements, expected dim V_{t} = {want}")


@lru_cache(maxsize=None)
def v_basis(spec: Family, t: int) -> OperatorBasis:
    _admit(spec, t)
    basis = ORACLE[type(spec)].basis(spec, t)
    _check_count(spec, t, len(basis.matrices))
    return basis


# --- the block channel ------------------------------------------------------

def phi_apply(basis: OperatorBasis, X: Sparse) -> Sparse:
    """Phi_t(X) as a matrix, F* the weighted adjoint: the reference
    `_rayleigh` is tested against."""
    w = basis.weight
    out: Sparse = {}
    for f, n in zip(basis.matrices, basis.norms):
        fa = {(j, i): v.conjugate() * (1 if w is None else Fraction(w[i], w[j]))
              for (i, j), v in f.items()}
        out = sp_add(out, sp_scale(sp_mul(sp_mul(f, X), fa), Fraction(1, n)))
    return out


def _rayleigh(bt: OperatorBasis, X: Sparse) -> Fraction:
    """<X, Phi_t(X)>_w / <X, X>_w without forming Phi_t(X), for a monomial X.

    <X, F X F^+>_w = <X F, F X>_w for the weighted adjoint F^+, so the
    quotient is sum_k <X F_k, F_k X>_w / (n_k <X, X>_w).  X, the first
    element of a block, is monomial on every family: it is indexed once by
    `monomial`, which raises ArithmeticError otherwise, and X F_k and F_k X
    relabel the entries of F_k.  Both inner products are taken at the scale
    lcm(w), which cancels, and 1 / n_k is c_k / m over the common numerator
    m of the n_k: the sum runs on the basis scalars, ints on every basis
    `v_basis` builds, into one Fraction.
    """
    w, scale = bt.weight, _weight_lcm(bt.weight)
    m = lcm(*(n.numerator for n in bt.norms))
    x = monomial(X)
    acc = 0
    for f, n in zip(bt.matrices, bt.norms):
        term = _inner(mono_mul(x, f), mul_mono(f, x), w, scale)
        acc = term * (n.denominator * (m // n.numerator)) + acc
    return Fraction(_rational(acc), m * _rational(_inner(X, X, w, scale)))


def wtj_bruteforce(spec: Family, t: int, j: int) -> Fraction:
    if ORACLE[type(spec)].words is None:
        return _rayleigh(v_basis(spec, t), v_basis(spec, j).matrices[0])
    return _wtj_gamma(spec, t, j)


@dataclass(frozen=True)
class OracleReport:
    spec: Family
    matches: bool
    # (t, j, bruteforce, formula) from verify_wtj, (block, basis element
    # index) from verify_lambda
    mismatches: tuple[tuple, ...]


def verify_wtj(spec: Family) -> OracleReport:
    """Compare every closed-form W_t(j) against the brute-force eigenvalue."""
    bad = []
    for t, (c, u) in enumerate(wtj_matrix(spec)):
        for j, x in enumerate(u):
            got, want = wtj_bruteforce(spec, t, j), Fraction(x, c)
            if got != want:
                bad.append((t, j, got, want))
    return OracleReport(spec, not bad, tuple(bad))


# --- antiunitary signatures -------------------------------------------------

def _lambda_sandwich(spec: Family, lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (block, index) of every basis element X with
    L conj(X) != lambda_j X^+ L: that is T(X) = lambda_j X* for
    T = L conj(.) L^-1, so L need only be invertible; the su(2) L is
    D L0 D^-1, up to a constant, for the unitary L0 of the surd frame.  On
    the int bases X^+ = W^-1 X^T W, W = diag(w), so W L X = lambda_j X^T W L
    is tested, and W L is monomial, like every L: both products relabel."""
    L = ORACLE[type(spec)].antiunitary(spec)
    bad = []
    for j, sign in enumerate(lam):
        basis = v_basis(spec, j)
        w = basis.weight
        wl = monomial(L if w is None else {(r, c): w[r] * v for (r, c), v in L.items()})
        bad += [(j, i) for i, X in enumerate(basis.matrices)
                if mono_mul(wl, X)
                != mul_mono({(c, r): sign * v for (r, c), v in X.items()}, wl)]
    return bad


def verify_lambda(spec: Family) -> OracleReport:
    """Check T(X) = Lambda conj(X) Lambda* equals lambda_j X* on every block.

    The antiunitary commutes with the isometry action but swaps raising and
    lowering directions, so the elementwise statement uses the adjoint of X,
    not X itself; the two coincide on Hermitian basis elements.
    """
    lam = lambda_signature(spec)
    if lam is None:
        raise ValueError(f"{spec.name} is not self-dual")
    check = _lambda_sandwich if ORACLE[type(spec)].words is None else _lambda_gamma
    bad = tuple(check(spec, lam))
    return OracleReport(spec, not bad, bad)
