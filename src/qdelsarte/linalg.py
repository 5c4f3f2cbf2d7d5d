"""Sparse exact linear algebra over int, Fraction, or GaussianRational.

A matrix is a dict mapping (row, col) to a nonzero scalar, together with an
explicit shape where an operation needs one.  Scalars only need +, *, -,
conjugate(), and truthiness, so the exact types are interchangeable; the
su(2) code vectors, of SurdSum amplitudes, meet only int matrices.
Gaussian integers have their own product, `gi_mul`: each entry is an
(re, im) pair of ints, so no scalar object is made per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Any

Sparse = dict[tuple[int, int], Any]


def sp_identity(n: int, one: Any = Fraction(1)) -> Sparse:
    return {(i, i): one for i in range(n)}


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for k, v in b.items():
        w = out[k] + v if k in out else v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def sp_sub(a: Sparse, b: Sparse) -> Sparse:
    return sp_add(a, sp_scale(b, -1))


def sp_scale(a: Sparse, c: Any) -> Sparse:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    by_row: dict[int, list[tuple[int, Any]]] = {}
    for (i, j), v in b.items():
        by_row.setdefault(i, []).append((j, v))
    out: Sparse = {}
    for (i, k), va in a.items():
        for j, vb in by_row.get(k, ()):
            key = (i, j)
            w = out[key] + va * vb if key in out else va * vb
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


# i^e as a Gaussian integer (re, im), e = 0..3
GI_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gi_times(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (re, im) pairs of ints."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def gi_mul(a: Sparse, b: Sparse) -> Sparse:
    """a b for sparse matrices of Gaussian integers, entries (re, im) pairs
    of ints; entries that cancel to (0, 0) are dropped."""
    by_row: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j), v in b.items():
        by_row.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, k), (ar, ai) in a.items():
        for j, (br, bi) in by_row.get(k, ()):
            re, im = out.get((i, j), (0, 0))
            out[(i, j)] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {key: v for key, v in out.items() if v != (0, 0)}


def sp_mat_vec(a: Sparse, v: dict[int, Any]) -> dict[int, Any]:
    """a v for a sparse vector v, a dict from index to nonzero scalar."""
    out: dict[int, Any] = {}
    for (i, j), x in a.items():
        y = v.get(j)
        if y is not None:
            out[i] = out[i] + x * y if i in out else x * y
    return {i: w for i, w in out.items() if w}


def conj(v: Any) -> Any:
    return v.conjugate() if hasattr(v, "conjugate") else v


def sp_kron(a: Sparse, b: Sparse, bn: int, bm: int) -> Sparse:
    """Kronecker product; bn x bm is the shape of b."""
    out: Sparse = {}
    for (i, j), va in a.items():
        for (k, l), vb in b.items():
            out[(i * bn + k, j * bm + l)] = va * vb
    return out


def sp_rank(rows: list[dict[int, Any]]) -> int:
    """Rank of a list of sparse row vectors by fraction-free-ish elimination."""
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        pivot_row = work.pop()
        if not pivot_row:
            continue
        rank += 1
        pc = next(iter(pivot_row))
        pv = pivot_row[pc]
        reduced = []
        for r in work:
            x = r.get(pc)
            if x is not None:
                factor = x / pv
                for c, v in pivot_row.items():
                    w = r.get(c, 0) - factor * v
                    if w:
                        r[c] = w
                    else:
                        r.pop(c, None)
            if r:
                reduced.append(r)
        work = reduced
    return rank


def _primitive(v: dict) -> dict:
    g = gcd(*v.values())
    return {k: x // g for k, x in v.items()} if g > 1 else v


class RowSpace:
    """Span of sparse vectors with rational entries, kept as a reduced row
    echelon form.

    Rows are primitive integer vectors, and no row has an entry at another
    row's pivot, so a vector is reduced by one elimination per pivot it
    touches, in any order.  All arithmetic is on ints.
    """

    def __init__(self) -> None:
        self.rows: dict = {}  # pivot key -> row

    @staticmethod
    def _eliminate(v: dict, r: dict, p) -> dict:
        """Primitive a*v - c*r, which has no entry at r's pivot p."""
        a, c = r[p], v[p]
        g = gcd(a, c)
        a, c = a // g, c // g
        out = {k: a * x for k, x in v.items()}
        for k, y in r.items():
            z = out.get(k, 0) - c * y
            if z:
                out[k] = z
            else:
                out.pop(k, None)
        return _primitive(out)

    def add(self, x: Sparse) -> bool:
        """Add x to the span; False (and no change) if x already lies in it."""
        den = lcm(*(val.denominator for val in x.values()))
        v = _primitive({k: val.numerator * (den // val.denominator)
                        for k, val in x.items()})
        for p in [k for k in v if k in self.rows]:
            v = self._eliminate(v, self.rows[p], p)
        if not v:
            return False
        p = next(iter(v))
        for q, r in self.rows.items():
            if p in r:
                self.rows[q] = self._eliminate(r, v, p)
        self.rows[p] = v
        return True
