"""Exact spectral coefficients W_t(j): the cached table and its identity checks.

W_t(j) is the eigenvalue of the projection-twirl channel onto the error
block V_t, evaluated on the block V_j, scaled so the degree enters
multiplicatively.  Each family class in `families` owns its closed form
and returns a Fraction; the full matrix W = (W_t(j)) satisfies

    W @ W = I
    W_t(j) dim(V_j) = W_j(t) dim(V_t)
    W_t(0) = dim(V_t) / dim(H)
    W_0(j) = 1 / dim(H)

Self-dual families also carry a sign signature lambda_j in {+1, -1} per
block, realized by an antiunitary; families without one report None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .families import Family, profile, validate


def wtj(spec: Family, t: int, j: int) -> Fraction:
    r = profile(spec).diameter_r
    if not (0 <= t <= r and 0 <= j <= r):
        raise ValueError(f"indices (t={t}, j={j}) outside 0..{r}")
    return spec.wtj(t, j)


@lru_cache(maxsize=None)
def wtj_matrix(spec: Family) -> tuple[tuple[Fraction, ...], ...]:
    """Full (r+1) x (r+1) matrix, rows indexed by t and columns by j."""
    r = profile(spec).diameter_r
    return tuple(tuple(spec.wtj(t, j) for j in range(r + 1)) for t in range(r + 1))


def wtj_properties(spec: Family) -> None:
    """Check the four structural identities of the W matrix.

    Raises ArithmeticError naming the first identity that fails.
    """
    prof = profile(spec)
    W = wtj_matrix(spec)
    r = prof.diameter_r
    for t in range(r + 1):
        for j in range(r + 1):
            acc = sum(W[t][s] * W[s][j] for s in range(r + 1))
            if acc != (1 if t == j else 0):
                raise ArithmeticError(f"(W^2)[{t}][{j}] = {acc} for {spec}")
            if W[t][j] * prof.dim_V[j] != W[j][t] * prof.dim_V[t]:
                raise ArithmeticError(f"W[{t}][{j}] breaks dim_V symmetry for {spec}")
        if W[t][0] != Fraction(prof.dim_V[t], prof.dim_H):
            raise ArithmeticError(f"W[{t}][0] = {W[t][0]} for {spec}")
        if W[0][t] != Fraction(1, prof.dim_H):
            raise ArithmeticError(f"W[0][{t}] = {W[0][t]} for {spec}")


def lambda_signature(spec: Family) -> tuple[int, ...] | None:
    """Block signs of the antiunitary symmetry, or None if the family has none."""
    validate(spec)
    return spec.signature()
