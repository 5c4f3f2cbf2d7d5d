"""Exact scalar arithmetic: rationals and sums of quadratic surds.

Rationals are plain ``fractions.Fraction``.  The one custom type here is
``SurdSum``: a finite sum ``sum_d c_d * sqrt(d)`` with squarefree integer
radicands d >= 1 and nonzero rational coefficients c_d.  Real only.
Amplitudes of the su(2) code vectors live here.  The representation is
canonical, so equality is map equality.  It is immutable and mixes freely
with int/Fraction operands; a value equal to an int or Fraction also hashes
like it.  Gaussian integers, the entries of Clifford operators and code
projectors, are (re, im) pairs of ints in `linalg`.
"""

from __future__ import annotations

from collections.abc import Collection
from fractions import Fraction
from math import gcd, lcm


# The largest radicand `SurdSum.from_json` factors.  `construct` writes
# radicands of at most 2n^2, far below it for every n that `verify` can
# finish; trial division up to it takes milliseconds.
MAX_RADICAND = 2 ** 32


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, f) with d = s^2 * f and f squarefree.

    Trial division, so only for small d: the radicands of `SurdSum.sqrt`
    and `from_json`.  Products of surds never factor.
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


def over_one_denominator(row: Collection[int | Fraction]) -> tuple[int, tuple[int, ...]]:
    """(d, xs) with row = xs / d and d the lcm of the denominators, so that
    gcd(d, *xs) = 1."""
    d = lcm(*(v.denominator for v in row))
    return d, tuple(v.numerator * (d // v.denominator) for v in row)


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
    def _make(terms: dict[int, Fraction]) -> "SurdSum":
        """SurdSum of squarefree int radicands and Fraction coefficients,
        taken as they are; zero coefficients are dropped."""
        out = object.__new__(SurdSum)
        object.__setattr__(out, "terms", {d: c for d, c in terms.items() if c})
        return out

    @staticmethod
    def rational(c) -> "SurdSum":
        return SurdSum._make({1: Fraction(c)})

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
        return SurdSum._make({f: coeff * s2})

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
            out[d] = out[d] + c if d in out else c
        return SurdSum._make(out)

    __radd__ = __add__

    def __neg__(self):
        return SurdSum._make({d: -c for d, c in self.terms.items()})

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
                # d1 and d2 are squarefree, so d1/g and d2/g are coprime
                # squarefree and sqrt(d1 d2) = g sqrt((d1/g)(d2/g))
                g = gcd(d1, d2)
                f = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                out[f] = out[f] + c if f in out else c
        return SurdSum._make(out)

    __rmul__ = __mul__

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

    def to_json(self):
        return [{"c": format_fraction(c), "r": d}
                for d, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(obj) -> "SurdSum":
        out: dict[int, Fraction] = {}
        for term in obj:
            d, c = term["r"], term["c"]
            if type(d) is not int or type(c) is not str:
                raise TypeError(f"need an integer radicand and a p/q coefficient, "
                                f"got r={d!r}, c={c!r}")
            if d > MAX_RADICAND:
                raise ValueError(f"radicand {d} exceeds {MAX_RADICAND}")
            s, f = _squarefree_split(d)
            out[f] = out.get(f, Fraction(0)) + parse_fraction(c) * s
        return SurdSum(out)

    def __repr__(self):
        if not self.terms:
            return "SurdSum(0)"
        parts = [f"{c!s}*sqrt({d})" if d != 1 else f"{c!s}"
                 for d, c in sorted(self.terms.items())]
        return "SurdSum(" + " + ".join(parts) + ")"
