"""Catalog of the eight multiplicity-free, 2-homogeneous quantum metric families.

A family is one object: its structural constants (the Hilbert space
dimension dim(H), the metric diameter r and the dimensions dim(V_t) of the
irreducible error blocks L(H) = V_0 + ... + V_r, which always satisfy
sum_t dim(V_t) = dim(H)^2), its closed-form spectral table W_t(j) and, for
self-dual families, the sign signature lambda_j.  Each family class owns all
three; the module functions here and in `wtj` validate and dispatch.

CLI / JSON names: qhamming, su2, su-sym, su-ext, clifford-odd,
clifford-even, spinorial, semispinorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import ClassVar


class FamilyError(ValueError):
    """Invalid family parameters."""


@dataclass(frozen=True)
class MetricProfile:
    dim_H: int
    diameter_r: int
    dim_V: tuple[int, ...]


def _krawtchouk(m: int, k: int, x: int, a: int = 1) -> int:
    """sum_s (-1)^s a^(k-s) C(x, s) C(m-x, k-s): the Krawtchouk polynomial
    over an alphabet of a + 1 letters (binary for a = 1)."""
    return sum((-1) ** s * a ** (k - s) * comb(x, s) * comb(m - x, k - s)
               for s in range(k + 1))


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
class Su2(Family):
    """Irreducible su(2) representation of dimension n+1, errors generated by E, F, H."""
    n: int
    name = "su2"

    def profile(self) -> MetricProfile:
        n = self.n
        return MetricProfile(n + 1, n, tuple(2 * t + 1 for t in range(n + 1)))

    def wtj(self, t: int, j: int) -> Fraction:
        n = self.n
        lo, hi = max(t, j), min(t + j, n)
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
class SuqSym(Family):
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
class SunExt(Family):
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


class _Clifford(Family):
    """The two Clifford families share a signed binary Krawtchouk table over
    their 2n + `odd` generators and a period-four signature."""
    odd: ClassVar[int]

    def wtj(self, t: int, j: int) -> Fraction:
        return Fraction((-1) ** (t * j) * _krawtchouk(2 * self.n + self.odd, t, j), 2 ** self.n)

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

    def profile(self) -> MetricProfile:
        n = self.n
        return MetricProfile(2 ** n, n, tuple(comb(2 * n + 1, t) for t in range(n + 1)))


@dataclass(frozen=True)
class CliffordEven(_Clifford):
    """Cl(2n) acting on n qubits; diameter 2n."""
    n: int
    name = "clifford-even"
    odd = 0

    def profile(self) -> MetricProfile:
        n = self.n
        return MetricProfile(2 ** n, 2 * n, tuple(comb(2 * n, t) for t in range(2 * n + 1)))


@dataclass(frozen=True)
class Spinorial(Family):
    """so(2n+1) spinor representation; distance-t errors are weight-2t Clifford words."""
    n: int
    name = "spinorial"

    def profile(self) -> MetricProfile:
        n = self.n
        return MetricProfile(2 ** n, n, tuple(comb(2 * n + 1, 2 * t) for t in range(n + 1)))

    def wtj(self, t: int, j: int) -> Fraction:
        return Fraction(_krawtchouk(2 * self.n + 1, 2 * t, 2 * j), 2 ** self.n)


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


def validate(spec: Family) -> None:
    if not spec.valid():
        got = ", ".join(f"{k}={getattr(spec, k)}" for k in spec.__dataclass_fields__)
        raise FamilyError(f"{spec.name} needs {spec.requires}, got {got}")


def profile(spec: Family) -> MetricProfile:
    validate(spec)
    return spec.profile()

