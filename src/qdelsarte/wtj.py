"""Exact spectral coefficients W_t(j): the cached table and its identity checks.

W_t(j) is the eigenvalue of the projection-twirl channel onto the error
block V_t, evaluated on the block V_j, scaled so the degree enters
multiplicatively.  Each family class in `families` owns its closed form
and returns a Fraction (`wtj`); the full matrix W = (W_t(j)) satisfies

    W @ W = I
    W_t(j) dim(V_j) = W_j(t) dim(V_t)
    W_t(0) = dim(V_t) / dim(H)
    W_0(j) = 1 / dim(H)

`wtj_matrix` caches the table each family class builds (`Family.table`),
row t as integers over one least denominator, (c_t, u_t) with W_t(j) =
u_t[j] / c_t: su2, su-sym and su-ext by the three-term recurrence from rows
0-2, refused with ArithmeticError unless the dim V symmetry holds at every
entry; the other families entry by entry.  `wtj_properties` checks all four
identities on integers, W scaled by the lcm L of the c_t.

Self-dual families also carry a sign signature lambda_j in {+1, -1} per
block, realized by an antiunitary; families without one report None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .families import Family, Row, check_symmetry, profile, validate


def wtj(spec: Family, t: int, j: int) -> Fraction:
    r = profile(spec).diameter_r
    if not (0 <= t <= r and 0 <= j <= r):
        raise ValueError(f"indices (t={t}, j={j}) outside 0..{r}")
    return spec.wtj(t, j)


@lru_cache(maxsize=None)
def wtj_matrix(spec: Family) -> tuple[Row, ...]:
    """Full (r+1) x (r+1) matrix, row t as (c_t, u_t), c_t > 0 and gcd(c_t, *u_t) = 1."""
    return spec.table()


def wtj_properties(spec: Family) -> None:
    """Check the four structural identities of the W matrix, on integers.

    The dim V symmetry is read on the rows (c_t, u_t) as they are.  With L
    the lcm of the c_t and M = L W, the others read M M = L^2 I,
    M_t(0) dim H = L dim V_t and M_0(j) dim H = L.  Raises ArithmeticError
    naming the first identity that fails, checked in that order.
    """
    prof = profile(spec)
    W = wtj_matrix(spec)
    check_symmetry(spec, W)
    L = lcm(*(c for c, _ in W))
    M = [[x * (L // c) for x in u] for c, u in W]
    cols = list(zip(*M))
    for t, row in enumerate(M):
        for j, col in enumerate(cols):
            acc = sum(map(mul, row, col))
            if acc != (L * L if t == j else 0):
                raise ArithmeticError(f"(W^2)[{t}][{j}] = {Fraction(acc, L * L)} for {spec}")
    for t, row in enumerate(M):
        if row[0] * prof.dim_H != prof.dim_V[t] * L:
            raise ArithmeticError(f"W[{t}][0] = {Fraction(row[0], L)} for {spec}")
        if M[0][t] * prof.dim_H != L:
            raise ArithmeticError(f"W[0][{t}] = {Fraction(M[0][t], L)} for {spec}")


def lambda_signature(spec: Family) -> tuple[int, ...] | None:
    """Block signs of the antiunitary symmetry, or None if the family has none."""
    validate(spec)
    return spec.signature()
