"""Catalog of the eight multiplicity-free, 2-homogeneous quantum metric families.

A family is one object: its structural constants (the Hilbert space
dimension dim(H), the metric diameter r and the dimensions dim(V_t) of the
irreducible error blocks L(H) = V_0 + ... + V_r, which always satisfy
sum_t dim(V_t) = dim(H)^2), its closed-form spectral table W_t(j) and, for
self-dual families, the sign signature lambda_j.  Each family class owns all
three; the module functions here and in `wtj` validate and dispatch.

`table()` builds the whole matrix, row t as integers over one least
denominator, (c_t, u_t) with W_t(j) = u_t[j] / c_t: su2, su-sym and su-ext
(`_Recurrent`) by the three-term recurrence from rows 0-2, checked for the
dim V symmetry at every entry; the Krawtchouk families entry by entry.

Clifford-odd, Clifford-even and spinorial are one construction, the base
`_Gamma`: block V_t holds the Clifford words of a fixed length in the
Weyl-Brauer generators, so the profile, W_t(j) and the label weights of each
block (`block_weights`, what `clifford` reads codes with and `oracle`
certifies) are written once.  `READINGS` maps each reading of a Clifford
stabilizer code to its family.

CLI / JSON names: qhamming, su2, su-sym, su-ext, clifford-odd,
clifford-even, spinorial, semispinorial.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import ClassVar

from .scalars import over_one_denominator


Row = tuple[int, tuple[int, ...]]  # (c_t, u_t): W_t(j) = u_t[j] / c_t, in least form


class FamilyError(ValueError):
    """Invalid family parameters."""


@dataclass(frozen=True)
class MetricProfile:
    dim_H: int
    diameter_r: int
    dim_V: tuple[int, ...]


@lru_cache(maxsize=None)
def _krawtchouk_row(m: int, x: int, a: int) -> tuple[int, ...]:
    """K_0(x), ..., K_m(x) by the three-term recurrence (MacWilliams and
    Sloane, ch. 5) (k+1) K_{k+1} = (a(m-k) + k - (a+1)x) K_k - a(m-k+1) K_{k-1},
    whose division is exact."""
    row, prev = [1], 0
    for k in range(m):
        prev, nxt = row[k], ((a * (m - k) + k - (a + 1) * x) * row[k]
                             - a * (m - k + 1) * prev) // (k + 1)
        row.append(nxt)
    return tuple(row)


def _krawtchouk(m: int, k: int, x: int, a: int = 1) -> int:
    """sum_s (-1)^s a^(k-s) C(x, s) C(m-x, k-s): the Krawtchouk polynomial
    over an alphabet of a + 1 letters (binary for a = 1), read off the cached
    row at x; 0 for k outside 0..m, as the sum is."""
    return _krawtchouk_row(m, x, a)[k] if 0 <= k <= m else 0


def _integer(d: Fraction, t: int, spec: Family) -> int:
    if d.denominator != 1:
        raise ArithmeticError(f"dim V_{t} = {d} is not an integer for {spec}")
    return int(d)


class Family:
    """A metric family: the filtration V_0..V_r, the table W_t(j) and the
    self-dual signature.

    `valid()` is the parameter condition that `requires` states in words.
    `profile()`, `wtj(t, j)` and `signature()` assume valid parameters and,
    for `wtj`, indices in 0..r; `families.profile`, `wtj.wtj` and
    `wtj.lambda_signature` check both.
    """
    name: ClassVar[str]
    requires: ClassVar[str] = "n >= 1"

    def valid(self) -> bool:
        return self.n >= 1

    def profile(self) -> MetricProfile:
        raise NotImplementedError

    def wtj(self, t: int, j: int) -> Fraction:
        raise NotImplementedError

    def signature(self) -> tuple[int, ...] | None:
        """Block signs of the antiunitary symmetry, or None if there is none."""
        return tuple((-1) ** j for j in range(self.profile().diameter_r + 1))

    def table(self) -> tuple[Row, ...]:
        """The full W matrix, rows t and columns j, entry by entry."""
        r = profile(self).diameter_r
        return tuple(over_one_denominator([self.wtj(t, j) for j in range(r + 1)])
                     for t in range(r + 1))


def check_symmetry(spec: Family, rows: Sequence[Row]) -> None:
    """Raise ArithmeticError unless W_t(j) dim V_j = W_j(t) dim V_t for
    W_t(j) = u_t[j] / d_t, rows[t] = (d_t, u_t): u_t[j] a_j = u_j[t] a_t
    with a_t = dim V_t d_t."""
    a = [m * d for m, (d, _) in zip(profile(spec).dim_V, rows)]
    for t, (_, u) in enumerate(rows):
        for j in range(t):
            if u[j] * a[j] != rows[j][1][t] * a[t]:
                raise ArithmeticError(f"W[{t}][{j}] breaks dim_V symmetry for {spec}")


def _det3(a: list[int], b: list[int], c: list[int]) -> int:
    """The determinant of the 3 x 3 matrix with columns a[:3], b[:3], c[:3]."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - b[0] * (a[1] * c[2] - a[2] * c[1])
            + c[0] * (a[1] * b[2] - a[2] * b[1]))


class _Recurrent(Family):
    """su2, su-sym and su-ext: the table of a P-polynomial scheme,
    W_1(j) W_t(j) = x_t W_{t-1}(j) + y_t W_t(j) + z_t W_{t+1}(j) at every j.
    Rows 0-2 come from `wtj`, and the dim V symmetry gives columns 0-2 of
    row t+1 from them, which fix x_t, y_t and z_t; the recurrence fills the
    rest, each row as integers over one denominator.  A family that is not
    P-polynomial, or a wrong entry in rows 0-2, breaks the symmetry, which
    is checked at every entry."""

    def table(self) -> tuple[Row, ...]:
        dims = profile(self).dim_V
        r = len(dims) - 1
        rows = [over_one_denominator([self.wtj(t, j) for j in range(r + 1)])
                for t in range(min(r, 2) + 1)]
        # W_{t+1}(j) = W_j(t+1) dim V_{t+1} / dim V_j, with W_j = u_j / c_j
        e = lcm(*(c * m for (c, _), m in zip(rows, dims)))
        heads = [(u, e // (c * m)) for (c, u), m in zip(rows, dims)]
        for t in range(2, r):
            # columns 0-2 of row t+1 are c / e by the symmetry; there the
            # recurrence reads w1 v = x' u + y' v + z' c on integers, and by
            # Cramer's rule row t+1 is (det w1 v - dx u - dy v) / (dz e)
            c = [h[t + 1] * dims[t + 1] * f for h, f in heads]
            (_, w1), (_, u), (_, v) = rows[1], rows[t - 1], rows[t]
            b = [w1[j] * v[j] for j in range(3)]
            det, dx, dy, dz = _det3(u, v, c), _det3(b, v, c), _det3(u, b, c), _det3(u, v, b)
            if not (det and dz):
                raise ArithmeticError(f"W has no three-term recurrence at row {t} "
                                      f"for {self}")
            num = [det * p * q - dx * s - dy * q for p, q, s in zip(w1, v, u)]
            g = gcd(dz * e, *num) * (1 if dz * e > 0 else -1)
            rows.append((dz * e // g, tuple(x // g for x in num)))
        check_symmetry(self, rows)
        return tuple(rows)


@dataclass(frozen=True)
class QHamming(Family):
    """(C^q)^{tensor n} with errors graded by the number of non-identity factors."""
    q: int
    n: int
    name = "qhamming"
    requires = "q >= 2 and n >= 1"

    def valid(self) -> bool:
        return self.q >= 2 and self.n >= 1

    def profile(self) -> MetricProfile:
        q, n = self.q, self.n
        # (q^2-1)^t C(n,t) is the count of basis tensors with t traceless
        # factors; see README for the discrepancy with a published q^t C(n,t).
        return MetricProfile(q ** n, n,
                             tuple((q * q - 1) ** t * comb(n, t) for t in range(n + 1)))

    def wtj(self, t: int, j: int) -> Fraction:
        return Fraction(_krawtchouk(self.n, t, j, self.q ** 2 - 1), self.q ** self.n)

    def signature(self) -> tuple[int, ...] | None:
        return super().signature() if self.q == 2 else None


@dataclass(frozen=True)
class Su2(_Recurrent):
    """Irreducible su(2) representation of dimension n+1, errors generated by E, F, H."""
    n: int
    name = "su2"

    def profile(self) -> MetricProfile:
        n = self.n
        return MetricProfile(n + 1, n, tuple(2 * t + 1 for t in range(n + 1)))

    def wtj(self, t: int, j: int) -> Fraction:
        n = self.n
        lo, hi = max(t, j), min(t + j, n)
        # one entry in O(n); su2, su-sym and su-ext tables read rows 0-2 of
        # it and build the rest by the symmetry-checked recurrence (`_Recurrent`).
        # term s has denominator (s-t)!^2 (s-j)!^2 (t+j-s)!^2 (n-s)!, and
        # lo <= s <= hi makes each factor divide the matching one of Q, so
        # the sum runs in integers over the common denominator Q
        Q = (factorial(hi - t) * factorial(hi - j) * factorial(t + j - lo)) ** 2 \
            * factorial(n - lo)
        total = sum((-1) ** s * factorial(n + s + 1)
                    * (Q // ((factorial(s - t) * factorial(s - j) * factorial(t + j - s)) ** 2
                             * factorial(n - s)))
                    for s in range(lo, hi + 1))
        return Fraction((-1) ** (t + j) * (2 * t + 1)
                        * factorial(t) ** 2 * factorial(j) ** 2
                        * factorial(n - t) * factorial(n - j) * total,
                        factorial(n + t + 1) * factorial(n + j + 1) * Q)


@dataclass(frozen=True)
class SuqSym(_Recurrent):
    """n-th symmetric power of the defining representation of su(q)."""
    q: int
    n: int
    name = "su-sym"
    requires = "q >= 2 and n >= 1"

    def valid(self) -> bool:
        return self.q >= 2 and self.n >= 1

    def profile(self) -> MetricProfile:
        q, n = self.q, self.n
        dims = tuple(_integer(Fraction(2 * t + q - 1, q - 1) * comb(q + t - 2, q - 2) ** 2,
                              t, self) for t in range(n + 1))
        return MetricProfile(comb(n + q - 1, q - 1), n, dims)

    def wtj(self, t: int, j: int) -> Fraction:
        q, n = self.q, self.n
        lo = max(0, t + j - n)
        total = sum(Fraction((-1) ** s * factorial(2 * t + q - 2 - s)
                             * factorial(s + n - t) ** 2,
                             factorial(s) * factorial(s - (t + j - n))
                             * factorial(s + n - t + j + q - 1)
                             * factorial(t - s) ** 2)
                    for s in range(lo, t + 1))
        pref = Fraction((2 * t + q - 1) * factorial(n - j) * factorial(n + j + q - 1),
                        factorial(n - t) * factorial(n + t + q - 1))
        return pref * total

    def signature(self) -> tuple[int, ...] | None:
        # q = 2 coincides with su2; larger q has no antiunitary of this kind
        return super().signature() if self.q == 2 else None


@dataclass(frozen=True)
class SunExt(_Recurrent):
    """w-th exterior power of the defining representation of su(n)."""
    n: int
    w: int
    name = "su-ext"
    requires = "n >= 2 and 1 <= w <= n-1"

    def valid(self) -> bool:
        return self.n >= 2 and 1 <= self.w <= self.n - 1

    def profile(self) -> MetricProfile:
        n, w = self.n, self.w
        r = min(w, n - w)
        dims = tuple(_integer(Fraction(n - 2 * t + 1, n + 1) * comb(n + 1, t) ** 2, t, self)
                     for t in range(r + 1))
        return MetricProfile(comb(n, w), r, dims)

    def wtj(self, t: int, j: int) -> Fraction:
        n = self.n
        r = min(self.w, n - self.w)
        lo = max(0, t + j - r)
        total = sum(Fraction((-1) ** s * factorial(n - r + t - j - s)
                             * factorial(s + r - t) ** 2,
                             factorial(s) * factorial(s - (t + j - r))
                             * factorial(s + n - 2 * t + 1)
                             * factorial(t - s) ** 2)
                    for s in range(lo, t + 1))
        pref = Fraction((n - 2 * t + 1) * factorial(r - j) * factorial(n - r - t),
                        factorial(r - t) * factorial(n - r - j))
        return pref * total

    def signature(self) -> tuple[int, ...] | None:
        return super().signature() if self.n == 2 * self.w else None


class _Gamma(Family):
    """Clifford-odd, Clifford-even and spinorial: 2^n dimensions, and block
    V_t holds the Clifford words of length `step` t in the 2n + `odd`
    Weyl-Brauer generators.  W_t(j) is the signed binary Krawtchouk value of
    two such word lengths."""
    odd: ClassVar[int]
    step: ClassVar[int] = 1

    def profile(self) -> MetricProfile:
        n, odd, step = self.n, self.odd, self.step
        r, m = (n if odd else 2 * n), 2 * n + odd
        row = [1]  # comb(m, k) for k <= step r, by comb(m, k+1) = comb(m, k) (m-k) / (k+1)
        for k in range(step * r):
            row.append(row[k] * (m - k) // (k + 1))
        return MetricProfile(2 ** n, r, tuple(row[::step]))

    def wtj(self, t: int, j: int) -> Fraction:
        a, b = self.step * t, self.step * j
        return Fraction((-1) ** (a * b) * _krawtchouk(2 * self.n + self.odd, a, b), 2 ** self.n)

    def block_weights(self, t: int) -> tuple[int, ...]:
        """Label weights over the first 2n letters that make up block t: with
        the last letter, a word of weight w names the complement of weight
        2n+1-w, up to phase."""
        w = self.step * t
        ws = {w, 2 * self.n + 1 - w} if self.odd else {w}
        return tuple(sorted(v for v in ws if 0 <= v <= 2 * self.n))


class _Clifford(_Gamma):
    """The two Clifford families share a period-four signature."""

    def signature(self) -> tuple[int, ...] | None:
        n = self.n
        return tuple((-1) ** ((j * (j + 2 * n - 1) // 2) % 2)
                     for j in range(self.profile().diameter_r + 1))


@dataclass(frozen=True)
class CliffordOdd(_Clifford):
    """Cl(2n+1) acting on n qubits; errors graded by Clifford word length."""
    n: int
    name = "clifford-odd"
    odd = 1


@dataclass(frozen=True)
class CliffordEven(_Clifford):
    """Cl(2n) acting on n qubits; diameter 2n."""
    n: int
    name = "clifford-even"
    odd = 0


@dataclass(frozen=True)
class Spinorial(_Gamma):
    """so(2n+1) spinor representation; distance-t errors are weight-2t Clifford words."""
    n: int
    name = "spinorial"
    odd = 1
    step = 2


@dataclass(frozen=True)
class Semispinorial(Family):
    """so(2n) half-spinor representation on the even-weight qubit subspace."""
    n: int
    name = "semispinorial"
    # n = 1 would give a one-dimensional space with diameter 0
    requires = "n >= 2"

    def valid(self) -> bool:
        return self.n >= 2

    def profile(self) -> MetricProfile:
        n = self.n
        # for even n the middle block 2t = n splits in half
        dims = tuple(comb(2 * n, 2 * t) if 2 * t < n else comb(2 * n, n) // 2
                     for t in range(n // 2 + 1))
        return MetricProfile(2 ** (n - 1), n // 2, dims)

    def wtj(self, t: int, j: int) -> Fraction:
        n = self.n
        if 2 * t < n:
            return Fraction(_krawtchouk(2 * n, 2 * t, 2 * j), 2 ** (n - 1))
        # middle block of even n: half of the weight-n Krawtchouk row
        return Fraction(_krawtchouk(2 * n, n, 2 * j), 2 ** n)

    def signature(self) -> tuple[int, ...] | None:
        return super().signature() if self.n % 2 == 0 else None


FAMILY_NAMES = {cls.name: cls for cls in (QHamming, Su2, SuqSym, SunExt, CliffordOdd,
                                          CliffordEven, Spinorial, Semispinorial)}

# the readings a Clifford stabilizer code is verified in, with their families
READINGS = {"even": CliffordEven, "odd": CliffordOdd, "spinorial": Spinorial}


def validate(spec: Family) -> None:
    if not spec.valid():
        got = ", ".join(f"{k}={getattr(spec, k)}" for k in spec.__dataclass_fields__)
        raise FamilyError(f"{spec.name} needs {spec.requires}, got {got}")


@lru_cache(maxsize=None)
def profile(spec: Family) -> MetricProfile:
    """The checked profile, cached per spec; an invalid spec raises, and
    raises again on every call, as a raise is not cached."""
    validate(spec)
    return spec.profile()

