"""Exact spectral coefficients W_t(j) for each metric family.

W_t(j) is the eigenvalue of the projection-twirl channel onto the error
block V_t, evaluated on the block V_j, scaled so the degree enters
multiplicatively.  Every formula below returns a Fraction; the full matrix
W = (W_t(j)) satisfies

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
from math import comb, factorial

from .families import (CliffordEven, CliffordOdd, FamilySpec, QHamming,
                       Semispinorial, Spinorial, Su2, SunExt, SuqSym,
                       profile, validate)


def _wtj_qhamming(q: int, n: int, t: int, j: int) -> Fraction:
    total = sum((-1) ** s * (q * q - 1) ** (t - s) * comb(j, s) * comb(n - j, t - s)
                for s in range(t + 1))
    return Fraction(total, q ** n)


def _wtj_su2(n: int, t: int, j: int) -> Fraction:
    lo, hi = max(t, j), min(t + j, n)
    total = sum(Fraction((-1) ** s * factorial(n + s + 1),
                         factorial(s - t) ** 2 * factorial(s - j) ** 2
                         * factorial(t + j - s) ** 2 * factorial(n - s))
                for s in range(lo, hi + 1))
    pref = Fraction((-1) ** (t + j) * (2 * t + 1)
                    * factorial(t) ** 2 * factorial(j) ** 2
                    * factorial(n - t) * factorial(n - j),
                    factorial(n + t + 1) * factorial(n + j + 1))
    return pref * total


def _wtj_susym(q: int, n: int, t: int, j: int) -> Fraction:
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


def _wtj_suext(n: int, w: int, t: int, j: int) -> Fraction:
    r = min(w, n - w)
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


def _krawtchouk_like(m: int, dim_H: int, t: int, j: int) -> Fraction:
    # shared kernel for the Clifford families: binary Krawtchouk over m letters
    total = sum((-1) ** s * comb(j, s) * comb(m - j, t - s) for s in range(t + 1))
    return Fraction(total, dim_H)


def _wtj_clifford(m: int, n: int, t: int, j: int) -> Fraction:
    return (-1) ** (t * j) * _krawtchouk_like(m, 2 ** n, t, j)


def _wtj_spinorial(n: int, t: int, j: int) -> Fraction:
    total = sum((-1) ** s * comb(2 * j, s) * comb(2 * n + 1 - 2 * j, 2 * t - s)
                for s in range(2 * t + 1))
    return Fraction(total, 2 ** n)


def _wtj_semispinorial(n: int, t: int, j: int) -> Fraction:
    if 2 * t < n:
        total = sum((-1) ** s * comb(2 * j, s) * comb(2 * n - 2 * j, 2 * t - s)
                    for s in range(2 * t + 1))
        return Fraction(total, 2 ** (n - 1))
    # middle block of even n: half of the weight-n Krawtchouk row
    total = sum((-1) ** s * comb(2 * j, s) * comb(2 * n - 2 * j, n - s)
                for s in range(n + 1))
    return Fraction(total, 2 ** n)


def wtj(spec: FamilySpec, t: int, j: int) -> Fraction:
    validate(spec)
    r = profile(spec).diameter_r
    if not (0 <= t <= r and 0 <= j <= r):
        raise ValueError(f"indices (t={t}, j={j}) outside 0..{r}")
    if isinstance(spec, QHamming):
        return _wtj_qhamming(spec.q, spec.n, t, j)
    if isinstance(spec, Su2):
        return _wtj_su2(spec.n, t, j)
    if isinstance(spec, SuqSym):
        return _wtj_susym(spec.q, spec.n, t, j)
    if isinstance(spec, SunExt):
        return _wtj_suext(spec.n, spec.w, t, j)
    if isinstance(spec, CliffordOdd):
        return _wtj_clifford(2 * spec.n + 1, spec.n, t, j)
    if isinstance(spec, CliffordEven):
        return _wtj_clifford(2 * spec.n, spec.n, t, j)
    if isinstance(spec, Spinorial):
        return _wtj_spinorial(spec.n, t, j)
    if isinstance(spec, Semispinorial):
        return _wtj_semispinorial(spec.n, t, j)
    raise TypeError(f"unknown family {spec!r}")


@lru_cache(maxsize=None)
def wtj_matrix(spec: FamilySpec) -> tuple[tuple[Fraction, ...], ...]:
    """Full (r+1) x (r+1) matrix, rows indexed by t and columns by j."""
    r = profile(spec).diameter_r
    return tuple(tuple(wtj(spec, t, j) for j in range(r + 1)) for t in range(r + 1))


def wtj_properties(spec: FamilySpec) -> None:
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


def lambda_signature(spec: FamilySpec) -> tuple[int, ...] | None:
    """Block signs of the antiunitary symmetry, or None if the family has none."""
    validate(spec)
    r = profile(spec).diameter_r
    if isinstance(spec, QHamming):
        if spec.q != 2:
            return None
        return tuple((-1) ** j for j in range(r + 1))
    if isinstance(spec, Su2):
        return tuple((-1) ** j for j in range(r + 1))
    if isinstance(spec, SuqSym):
        # q = 2 coincides with su2; larger q has no antiunitary of this kind
        if spec.q == 2:
            return tuple((-1) ** j for j in range(r + 1))
        return None
    if isinstance(spec, SunExt):
        if spec.n != 2 * spec.w:
            return None
        return tuple((-1) ** j for j in range(r + 1))
    if isinstance(spec, CliffordOdd):
        n = spec.n
        return tuple((-1) ** ((j * (j + 2 * n - 1) // 2) % 2) for j in range(r + 1))
    if isinstance(spec, CliffordEven):
        n = spec.n
        return tuple((-1) ** ((j * (j + 2 * n - 1) // 2) % 2) for j in range(r + 1))
    if isinstance(spec, Spinorial):
        return tuple((-1) ** j for j in range(r + 1))
    if isinstance(spec, Semispinorial):
        if spec.n % 2 != 0:
            return None
        return tuple((-1) ** j for j in range(r + 1))
    raise TypeError(f"unknown family {spec!r}")
