"""Sparse exact linear algebra over int or Fraction, and over Gaussian integers.

A matrix is a dict mapping (row, col) to a nonzero scalar, together with an
explicit shape where an operation needs one.  Scalars only need +, *, -,
and truthiness, so the exact types are interchangeable, and a caller that
conjugates calls the scalar's own conjugate(), which int and Fraction
define too; the su(2) code vectors, of SurdSum amplitudes, meet only int
matrices.  A monomial operator, at most one entry in each row and each
column, is indexed once by `monomial`, and a product with it is a
relabelling of the other factor's entries, in O(nnz).  Every other product
is general, one per scalar kind: `sp_mul`, and `gi_mul_rows` for Gaussian
integers, whose entries are (re, im) pairs of ints, so no scalar object is
made per entry; it takes its right factor as `rows_of(b)`, indexed once for
the products that share it, and `gi_mul_mono` relabels by a monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any

from .scalars import over_one_denominator

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


Index = dict[int, list[tuple[int, Any]]]
# column -> (row, value) and row -> (column, value) of a monomial operator
Monomial = tuple[dict[int, tuple[int, Any]], dict[int, tuple[int, Any]]]


def rows_of(b: Sparse) -> Index:
    """b by rows: row -> [(column, value)]."""
    out: Index = {}
    for (i, j), v in b.items():
        out.setdefault(i, []).append((j, v))
    return out


def sp_mul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    rows = rows_of(b)
    for (i, k), va in a.items():
        for j, vb in rows.get(k, ()):
            key = (i, j)
            w = out[key] + va * vb if key in out else va * vb
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def monomial(a: Sparse) -> Monomial:
    """a indexed by column and by row; ArithmeticError unless a is monomial."""
    by_col = {j: (i, v) for (i, j), v in a.items()}
    by_row = {i: (j, v) for (i, j), v in a.items()}
    if len(by_col) < len(a) or len(by_row) < len(a):
        raise ArithmeticError("not monomial: a row or a column holds two entries")
    return by_col, by_row


def mono_mul(m: Monomial, x: Sparse) -> Sparse:
    """a x for m = monomial(a): entry (j, k) of x moves to (i, k) times a_ij,
    the entry of column j; a product of nonzeros is nonzero."""
    col = m[0]
    return {(col[j][0], k): col[j][1] * v for (j, k), v in x.items() if j in col}


def mul_mono(x: Sparse, m: Monomial) -> Sparse:
    """x a for m = monomial(a): entry (i, j) of x moves to (i, k) times a_jk,
    the entry of row j."""
    row = m[1]
    return {(i, row[j][0]): v * row[j][1] for (i, j), v in x.items() if j in row}


def mono_commutator(m: Monomial, x: Sparse) -> Sparse:
    """[a, x] = a x - x a for m = monomial(a), by relabelling."""
    out = mono_mul(m, x)
    row = m[1]
    for (i, j), v in x.items():
        if j in row:
            k, u = row[j]
            key = (i, k)
            w = out[key] - v * u if key in out else -(v * u)
            if w:
                out[key] = w
            else:
                del out[key]
    return out


# i^e as a Gaussian integer (re, im), e = 0..3
GI_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gi_times(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (re, im) pairs of ints."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def gi_mul_rows(a: Sparse, rows: Index) -> Sparse:
    """a b for sparse matrices of Gaussian integers, entries (re, im) pairs
    of ints, b given as `rows_of(b)`; entries that cancel to (0, 0) are
    dropped."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, k), (ar, ai) in a.items():
        for j, (br, bi) in rows.get(k, ()):
            re, im = out.get((i, j), (0, 0))
            out[(i, j)] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
    return {key: v for key, v in out.items() if v != (0, 0)}


def gi_mul_mono(x: Sparse, m: Monomial) -> Sparse:
    """x a for Gaussian-integer matrices and m = monomial(a), by relabelling."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    row = m[1]
    for (i, j), (xr, xi) in x.items():
        if j in row:
            k, (ur, ui) = row[j]
            out[(i, k)] = (xr * ur - xi * ui, xr * ui + xi * ur)
    return out


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
        v = _primitive(dict(zip(x, over_one_denominator(x.values())[1])))
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
