"""Reference definitions the tests compare the package against."""

from fractions import Fraction
from math import gcd, prod
from typing import Any

from qdelsarte import clifford, oracle
from qdelsarte.families import profile
from qdelsarte.linalg import (Sparse, monomial, mono_mul, mul_mono, sp_identity, sp_kron,
                              sp_mul, sp_scale, sp_sub)
from qdelsarte.scalars import SurdSum
from qdelsarte.simplex import _pivot


class GaussianRational:
    """Complex number (a + b*i) / d with integers a, b, d.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equality is
    triple equality and a value with b == 0 is the rational a/d.  Every
    result goes through `_make`, which skips the gcd when d == 1.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)
        # re and im are in lowest terms, so gcd(a, b, d) = 1 already
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussianRational":
        """Canonical GaussianRational (a + b*i) / d for d != 0."""
        if d != 1:
            if d < 0:
                a, b, d = -a, -b, -d
            g = gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        out = object.__new__(GaussianRational)
        _set_a(out, a)
        _set_b(out, b)
        _set_d(out, d)
        return out

    @staticmethod
    def _triple(x) -> "tuple[int, int, int] | None":
        if isinstance(x, GaussianRational):
            return x._a, x._b, x._d
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return None

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return self._make(self._a + a, self._b + b, d)
        return self._make(self._a * d + a * self._d, self._b * d + b * self._d,
                          self._d * d)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return self._make(self._a - a, self._b - b, d)
        return self._make(self._a * d - a * self._d, self._b * d - b * self._d,
                          self._d * d)

    def __rsub__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return self._make(self._a * a - self._b * b, self._a * b + self._b * a,
                          self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        n2 = a * a + b * b
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (x/e) / ((a + b i)/d) = x (a - b i) d / (e (a^2 + b^2))
        return self._make((self._a * a + self._b * b) * d,
                          (self._b * a - self._a * b) * d, self._d * n2)

    def __rtruediv__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return self._make(*o) / self

    def conjugate(self):
        return self._make(self._a, -self._b, self._d)

    def __eq__(self, other):
        o = self._triple(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_rational(self) -> Fraction | None:
        return self.re if self._b == 0 else None

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"


# the slots' own setters, which bypass the immutability guard
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__

GR_I = GaussianRational(0, 1)
GR_ONE = GaussianRational(1, 0)
GR_ZERO = GaussianRational(0, 0)


_I_POWERS = (GR_ONE, GR_I, -GR_ONE, -GR_I)


def gr_i_power(k: int) -> GaussianRational:
    return _I_POWERS[k % 4]


def gamma(n: int, x: int) -> Sparse:
    """`clifford.gamma` with its (re, im) entries as GaussianRational."""
    return {k: GaussianRational(re, im) for k, (re, im) in clifford.gamma(n, x).items()}


_SIGMA_X: Sparse = {(0, 1): GR_ONE, (1, 0): GR_ONE}
_SIGMA_Y: Sparse = {(0, 1): GaussianRational(0, -1), (1, 0): GaussianRational(0, 1)}
_SIGMA_Z: Sparse = {(0, 0): GR_ONE, (1, 1): -GR_ONE}
_ID2: Sparse = {(0, 0): GR_ONE, (1, 1): GR_ONE}


def weyl_brauer(n: int, k: int) -> Sparse:
    """k-th anticommuting Weyl-Brauer generator on n qubits, 1 <= k <= 2n+1,
    as a Kronecker product of Pauli matrices with GaussianRational entries."""
    if not 1 <= k <= 2 * n + 1:
        raise IndexError(f"k={k} outside 1..{2 * n + 1}")
    if k == 2 * n + 1:
        factors = [_SIGMA_Z] * n
    else:
        pos = (k - 1) % n
        mid = _SIGMA_X if k <= n else _SIGMA_Y
        factors = [_SIGMA_Z] * pos + [mid] + [_ID2] * (n - pos - 1)
    out = factors[0]
    for f in factors[1:]:
        out = sp_kron(out, f, 2, 2)
    return out


def sp_mat_vec(a: Sparse, v: dict[int, Any]) -> dict[int, Any]:
    """a v for a sparse vector v, a dict from index to nonzero scalar."""
    out: dict[int, Any] = {}
    for (i, j), x in a.items():
        y = v.get(j)
        if y is not None:
            out[i] = out[i] + x * y if i in out else x * y
    return {i: w for i, w in out.items() if w}


def surd_ef_matrices(n: int) -> tuple[Sparse, Sparse]:
    """The su(2) raising and lowering matrices E and F = E^T on the index
    m = (k+n)/2 of the orthonormal weight basis: sqrt((n-m)(m+1)) at
    (m+1, m)."""
    E = {(m + 1, m): SurdSum.sqrt((n - m) * (m + 1)) for m in range(n)}
    return E, {(j, i): x for (i, j), x in E.items()}


def surd_error_block(n: int, t: int) -> list[Sparse]:
    """ad_F^k(E^t), k = 0..2t, on the orthonormal weight basis, as SurdSum
    matrices."""
    E, F = surd_ef_matrices(n)
    x = sp_identity(n + 1, SurdSum.rational(1))
    for _ in range(t):
        x = sp_mul(E, x)
    block = [x]
    for _ in range(2 * t):
        x = sp_sub(sp_mul(F, x), sp_mul(x, F))
        block.append(x)
    return block


def d_conjugate(n: int, b: Sparse) -> Sparse:
    """D b D^-1 for D = diag(sqrt(p_i)), p_i = prod_{m<i} (n-m)(m+1): entry
    (i, j) of b times sqrt(p_i / p_j)."""
    p = [prod((n - m) * (m + 1) for m in range(i)) for i in range(n + 1)]
    return {(i, j): v * SurdSum.sqrt(Fraction(p[i], p[j])) for (i, j), v in b.items()}


def lambda_sandwich(spec, lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """`oracle._lambda_sandwich` by the weighted adjoint: the (block, index)
    of every `v_basis` element X with L conj(X) != lambda_j X^+ L, X^+ the
    adjoint of the weighted inner product, with Fraction weight ratios."""
    L = monomial(oracle.ORACLE[type(spec)].antiunitary(spec))
    bad = []
    for j, sign in enumerate(lam):
        basis = oracle.v_basis(spec, j)
        w = basis.weight
        bad += [(j, i) for i, X in enumerate(basis.matrices)
                if mono_mul(L, X) != mul_mono(sp_scale(
                    {(c, r): v.conjugate() * (1 if w is None else Fraction(w[r], w[c]))
                     for (r, c), v in X.items()}, sign), L)]
    return bad


def gauss_jordan_solve(M: list[list[int]], b: list[int]) -> tuple[list[int], int] | None:
    """x = nums / den (den > 0) with M x = b, by fraction-free Gauss-Jordan
    elimination (every pivot rewrites every row); None when M is singular."""
    T = [row + [v] for row, v in zip(M, b)]
    free = list(range(len(T)))
    order, D = [], 1
    for k in range(len(T)):
        r = next((i for i in free if T[i][k]), -1)
        if r < 0:
            return None
        free.remove(r)
        order.append(r)
        D = _pivot(T, r, k, D)
    sign = -1 if D < 0 else 1
    return [sign * T[r][-1] for r in order], sign * D


def label_from_str(s: str) -> int:
    """`clifford.label_from_str` as a sum of powers of two, bit i from character i."""
    if set(s) - {"0", "1"}:
        raise ValueError(f"bad label string {s!r}")
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def label_to_str(x: int, length: int) -> str:
    """`clifford.label_to_str` one bit at a time."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(length))


def hamming_rows(s: int) -> tuple[int, ...]:
    """The generators of `clifford.clifford_hamming(s)`, each row of the binary
    Hamming matrix summed column by column: row i has bit j - 1 set where
    column j has bit i set, MSB first, in both halves of the label, then the
    all-ones row on the first half."""
    n = 2 ** s - 1
    rows = []
    for i in range(s):
        x = sum(1 << (j - 1) for j in range(1, n + 1) if (j >> (s - 1 - i)) & 1)
        rows.append(x | (x << n))
    return (*rows, (1 << n) - 1)


def closed_form_table(spec) -> tuple[tuple[Fraction, ...], ...]:
    """W entry by entry from the family's closed form `wtj`, as Fractions."""
    r = profile(spec).diameter_r
    return tuple(tuple(spec.wtj(t, j) for j in range(r + 1)) for t in range(r + 1))


def wtj_fractions(W) -> tuple[tuple[Fraction, ...], ...]:
    """The Fraction entries W_t(j) = u_t[j] / c_t of a table of rows (c_t, u_t)."""
    return tuple(tuple(Fraction(x, c) for x in u) for c, u in W)
