"""Exact phase-1 simplex with fraction-free integer pivoting.

Decides feasibility of {A x (=|>=) b, x >= 0} by minimizing the sum of
artificial variables with Bland's anti-cycling pivot rule.  Inputs and the
witness are Fraction, but the tableau is integer: each row is scaled to
integers and pivots follow Edmonds (1967) and Bareiss (1968), so every
entry is D * (B^-1 [A | b]) for the current basis determinant D and the
only division per update is an exact one by the previous pivot.  The
verdict is exact; a feasible system also yields a witness point that
callers can re-check by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

EQ = "eq"
GE = "ge"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    sense: str  # EQ or GE
    rhs: Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None


def check_feasible(constraints: list[Constraint], nvars: int) -> FeasibilityResult:
    # columns: structural vars, one surplus/slack per >= row, then the rhs.
    # Artificials for eq and >= rows start basic with coefficient 1 and never
    # re-enter once they leave, so they get basis labels but no columns.
    ncols = nvars + sum(c.sense == GE for c in constraints)
    T: list[list[int]] = []
    basis: list[int] = []
    art: list[tuple[int, list[int]]] = []  # (row scale, row) per artificial
    slack = nvars
    for c in constraints:
        if len(c.coeffs) != nvars:
            raise ValueError("constraint width mismatch")
        if c.sense not in (EQ, GE):
            raise ValueError(f"unknown constraint sense {c.sense!r}")
        row = [Fraction(x) for x in (*c.coeffs, c.rhs)]
        # scale to integers by the lcm of the denominators, negated when
        # b < 0 so that every rhs is >= 0; a positive rescaling of rows,
        # slacks and artificials leaves every pivot choice unchanged
        s = lcm(*(x.denominator for x in row))
        if row[-1] < 0:
            s = -s
        t = [int(x * s) for x in row]
        t[nvars:-1] = [0] * (ncols - nvars)
        if c.sense == GE:
            # surplus of a >= row; a flipped >= is a <= whose slack starts basic
            t[slack] = -1 if s > 0 else 1
            slack += 1
        if c.sense == GE and s < 0:
            basis.append(slack - 1)
        else:
            basis.append(ncols + len(art))
            art.append((abs(s), t))
        T.append(t)
    m = len(T)

    # phase-1 objective, a positive multiple of the artificial total:
    # sum over artificial rows of (L / s_i) * row_i with L = lcm(s_i)
    L = lcm(*(s for s, _ in art))
    obj = [0] * (ncols + 1)
    for s, t in art:
        obj = [o + L // s * x for o, x in zip(obj, t)]

    D = 1
    while True:
        # Bland: lowest eligible index (basic columns have obj == 0)
        enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # T[i][-1] / a against T[leave][-1] / T[leave][enter]
                lhs = T[i][-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            break  # unbounded in phase 1 cannot happen, but stay safe
        prow = T[leave]
        p = prow[enter]
        for i in range(m):
            if i != leave:
                f = T[i][enter]
                if f:
                    T[i] = [(x * p - f * y) // D for x, y in zip(T[i], prow)]
                elif p != D:
                    T[i] = [x * p // D for x in T[i]]
        f = obj[enter]
        obj = [(x * p - f * y) // D for x, y in zip(obj, prow)]
        D = p
        basis[leave] = enter

    if obj[-1] != 0:
        return FeasibilityResult(False, None)
    # basic artificials left at this point sit at zero, so x is final
    x = [Fraction(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            x[basis[i]] = Fraction(T[i][-1], D)
    return FeasibilityResult(True, tuple(x))


def verify_witness(constraints: list[Constraint], witness: tuple[Fraction, ...]) -> bool:
    if any(x < 0 for x in witness):
        return False
    for c in constraints:
        val = sum(a * x for a, x in zip(c.coeffs, witness))
        if c.sense == EQ and val != c.rhs:
            return False
        if c.sense == GE and val < c.rhs:
            return False
    return True
