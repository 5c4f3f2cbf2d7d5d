"""Exact spectral coefficients W_t(j): the cached table and its identity checks.

W_t(j) is the eigenvalue of the projection-twirl channel onto the error
block V_t, evaluated on the block V_j, scaled so the degree enters
multiplicatively.  Each family class in `families` owns its closed form
and returns a Fraction; the full matrix W = (W_t(j)) satisfies

    W @ W = I
    W_t(j) dim(V_j) = W_j(t) dim(V_t)
    W_t(0) = dim(V_t) / dim(H)
    W_0(j) = 1 / dim(H)

`wtj_matrix` caches the table each family class builds (`Family.table`):
su2, su-sym and su-ext by the three-term recurrence from rows 0-2, in
integers, refused with ArithmeticError unless the dim V symmetry holds at
every entry; the other families entry by entry.  `wtj_properties` checks
all four identities on integers, W scaled by the lcm of its denominators.

Self-dual families also carry a sign signature lambda_j in {+1, -1} per
block, realized by an antiunitary; families without one report None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .families import Family, check_symmetry, profile, validate


def wtj(spec: Family, t: int, j: int) -> Fraction:
    r = profile(spec).diameter_r
    if not (0 <= t <= r and 0 <= j <= r):
        raise ValueError(f"indices (t={t}, j={j}) outside 0..{r}")
    return spec.wtj(t, j)


@lru_cache(maxsize=None)
def wtj_matrix(spec: Family) -> tuple[tuple[Fraction, ...], ...]:
    """Full (r+1) x (r+1) matrix, rows indexed by t and columns by j."""
    return spec.table()


def wtj_properties(spec: Family) -> None:
    """Check the four structural identities of the W matrix, on integers.

    With L the lcm of the denominators of W and M = L W, they read
    M_t(j) dim V_j = M_j(t) dim V_t, M M = L^2 I, M_t(0) dim H = L dim V_t
    and M_0(j) dim H = L.  Raises ArithmeticError naming the first identity
    that fails, checked in that order.
    """
    prof = profile(spec)
    W = wtj_matrix(spec)
    L = lcm(*(v.denominator for row in W for v in row))
    M = [[v.numerator * (L // v.denominator) for v in row] for row in W]
    check_symmetry(spec, [(1, row) for row in M])
    cols = list(zip(*M))
    for t, row in enumerate(M):
        for j, col in enumerate(cols):
            acc = sum(map(mul, row, col))
            if acc != (L * L if t == j else 0):
                raise ArithmeticError(f"(W^2)[{t}][{j}] = {Fraction(acc, L * L)} for {spec}")
    for t, row in enumerate(M):
        if row[0] * prof.dim_H != prof.dim_V[t] * L:
            raise ArithmeticError(f"W[{t}][0] = {W[t][0]} for {spec}")
        if M[0][t] * prof.dim_H != L:
            raise ArithmeticError(f"W[0][{t}] = {W[0][t]} for {spec}")


def lambda_signature(spec: Family) -> tuple[int, ...] | None:
    """Block signs of the antiunitary symmetry, or None if the family has none."""
    validate(spec)
    return spec.signature()
