"""Exact scalar arithmetic: rationals, Gaussian rationals, and sums of quadratic surds.

Rationals are plain ``fractions.Fraction``.  The two custom types here are

* ``GaussianRational``: (a + b*i) / d, stored as one canonical integer
  triple with d > 0 and gcd(a, b, d) = 1, so arithmetic is integer
  arithmetic plus one gcd per result (none when d = 1) and no ``Fraction``
  is built; ``.re`` and ``.im`` are ``Fraction`` views.  Entries of
  Clifford operators, code projectors, and phases live here.
* ``SurdSum``: a finite sum ``sum_d c_d * sqrt(d)`` with squarefree integer
  radicands d >= 1 and nonzero rational coefficients c_d.  Real only.
  Amplitudes of the su(2) code vectors and raising/lowering matrix entries
  live here.  The representation is canonical, so equality is map equality.

Both types are immutable and mix freely with int/Fraction operands; a
value equal to an int or Fraction also hashes like it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d = s^2 * f and f squarefree.

    Trial division; radicands in this artifact stay small (products of a few
    integers bounded by the largest family parameter squared).
    """
    if d <= 0:
        raise ValueError("radicand must be positive")
    s, f = 1, 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * d


def parse_fraction(text: str) -> Fraction:
    """Fraction from "p/q" text; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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


class SurdSum:
    """Canonical finite rational combination of square roots of squarefree integers.

    terms: mapping squarefree radicand -> nonzero Fraction coefficient.
    Radicand 1 holds the rational part; the empty map is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for d, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[int(d)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SurdSum is immutable")

    @staticmethod
    def rational(c) -> "SurdSum":
        return SurdSum({1: Fraction(c)})

    @staticmethod
    def sqrt(x) -> "SurdSum":
        """sqrt of a nonnegative rational, reduced to canonical c*sqrt(d)."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("SurdSum stores real values only")
        if x == 0:
            return SurdSum()
        sn, fn = _squarefree_split(x.numerator)
        sd, fd = _squarefree_split(x.denominator)
        # sqrt(n/m) = (sn/(sd*fd)) * sqrt(fn*fd)
        coeff = Fraction(sn, sd * fd)
        s2, f = _squarefree_split(fn * fd)
        return SurdSum({f: coeff * s2})

    @staticmethod
    def _coerce(x) -> "SurdSum | None":
        if isinstance(x, SurdSum):
            return x
        if isinstance(x, (int, Fraction)):
            return SurdSum.rational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for d, c in o.terms.items():
            out[d] = out.get(d, Fraction(0)) + c
        return SurdSum(out)

    __radd__ = __add__

    def __neg__(self):
        return SurdSum({d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in o.terms.items():
                s, f = _squarefree_split(d1 * d2)
                out[f] = out.get(f, Fraction(0)) + c1 * c2 * s
        return SurdSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a rational (or a single-term surd); general inverses unneeded."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return SurdSum({d: c / other for d, c in self.terms.items()})
        if isinstance(other, SurdSum):
            if len(other.terms) == 1:
                ((d, c),) = other.terms.items()
                # 1/(c*sqrt(d)) = sqrt(d)/(c*d)
                return self * SurdSum({d: Fraction(1, 1) / (c * d)})
            raise ValueError("division only by rationals or single surd terms")
        return NotImplemented

    def conjugate(self):
        return self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        r = self.is_rational()
        return hash(r) if r is not None else hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> Fraction | None:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {1}:
            return self.terms[1]
        return None

    def __float__(self):
        return float(sum(float(c) * (d ** 0.5) for d, c in self.terms.items()))

    def to_json(self):
        return [{"c": format_fraction(c), "r": d}
                for d, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(obj) -> "SurdSum":
        out: dict[int, Fraction] = {}
        for term in obj:
            d = int(term["r"])
            s, f = _squarefree_split(d)
            out[f] = out.get(f, Fraction(0)) + parse_fraction(term["c"]) * s
        return SurdSum(out)

    def __repr__(self):
        if not self.terms:
            return "SurdSum(0)"
        parts = [f"{c!s}*sqrt({d})" if d != 1 else f"{c!s}"
                 for d, c in sorted(self.terms.items())]
        return "SurdSum(" + " + ".join(parts) + ")"
