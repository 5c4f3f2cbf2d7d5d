"""Sparse exact linear algebra over Fraction, GaussianRational, or SurdSum.

A matrix is a dict mapping (row, col) to a nonzero scalar, together with an
explicit shape where an operation needs one.  Scalars only need +, *, -,
conjugate(), and truthiness, so the three exact types are interchangeable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

Sparse = dict[tuple[int, int], Any]


def sp_clean(m: Sparse) -> Sparse:
    return {k: v for k, v in m.items() if v}


def sp_identity(n: int, one: Any = Fraction(1)) -> Sparse:
    return {(i, i): one for i in range(n)}


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
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
            w = out.get(key, 0) + va * vb
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def conj(v: Any) -> Any:
    return v.conjugate() if hasattr(v, "conjugate") else v


def sp_conj_transpose(a: Sparse) -> Sparse:
    return {(j, i): conj(v) for (i, j), v in a.items()}


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
