"""Linear programming upper bounds on code dimension.

A code of dimension K and minimum distance d in a family with diameter r
has a distance distribution A_0..A_r satisfying

    A_j >= 0,  A_0 = K,  sum_j A_j = dim(H)
    K * sum_j W_t(j) A_j  = A_t   for 0 <= t <= d-1
    K * sum_j W_t(j) A_j >= A_t   for 0 <= t <= r
    sum_j lambda_j W_t(j) A_j >= 0   (self-dual families only)
    A_t = 0 for 1 <= t <= d-1        (pure codes only)

so the supremum of K making this system feasible bounds every code.  The
search is a rational bisection; each feasibility call is an exact simplex
run whose witness is re-verified by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .families import FamilySpec, profile
from .simplex import EQ, GE, Constraint, check_feasible, verify_witness
from .wtj import lambda_signature, wtj_matrix

DEFAULT_TOL = Fraction(1, 100_000)


@dataclass(frozen=True)
class LPOptions:
    self_dual: bool = False
    pure: bool = False


@dataclass(frozen=True)
class FeasibleReport:
    feasible: bool
    witness: tuple[Fraction, ...] | None


def build_system(spec: FamilySpec, d: int, K: Fraction,
                 opts: LPOptions = LPOptions()) -> tuple[list[Constraint], int]:
    prof = profile(spec)
    r = prof.diameter_r
    if not (1 <= d <= r + 1):
        raise ValueError(f"distance d={d} outside 1..{r + 1}")
    if opts.self_dual and lambda_signature(spec) is None:
        raise ValueError(f"{spec.name} has no self-dual signature")
    W = wtj_matrix(spec)
    nvars = r + 1
    cons: list[Constraint] = []

    def row(t: int) -> list[Fraction]:
        return [K * W[t][j] for j in range(nvars)]

    e = lambda t: tuple(Fraction(1 if j == t else 0) for j in range(nvars))
    cons.append(Constraint(e(0), EQ, K))
    for t in range(r + 1):
        coeffs = row(t)
        coeffs[t] -= 1
        sense = EQ if t < d else GE
        cons.append(Constraint(tuple(coeffs), sense, Fraction(0)))
    if opts.self_dual:
        lam = lambda_signature(spec)
        for t in range(r + 1):
            cons.append(Constraint(tuple(lam[j] * W[t][j] for j in range(nvars)),
                                   GE, Fraction(0)))
    if opts.pure:
        for t in range(1, d):
            cons.append(Constraint(e(t), EQ, Fraction(0)))
    return cons, nvars


def feasible(spec: FamilySpec, d: int, K: Fraction,
             opts: LPOptions = LPOptions()) -> FeasibleReport:
    cons, nvars = build_system(spec, d, Fraction(K), opts)
    res = check_feasible(cons, nvars)
    if res.feasible and (res.witness is None or not verify_witness(cons, res.witness)):
        raise ArithmeticError(f"simplex witness fails substitution at K={K} for {spec}")
    return FeasibleReport(res.feasible, res.witness)


@dataclass(frozen=True)
class BoundResult:
    lower: Fraction  # feasible
    upper: Fraction  # infeasible, except when lower == dim(H)
    exact: bool      # upper bound coincides with the largest feasible integer


def lp_bound(spec: FamilySpec, d: int, opts: LPOptions = LPOptions(),
             tol: Fraction = DEFAULT_TOL, integer: bool = False) -> BoundResult:
    """Largest feasible K in [1, dim(H)], located by bisection.

    With integer=True only whole K are probed, returning the largest
    feasible integer (an exact bound on exact-dimension codes).  A tol
    <= 0 raises ValueError, since the bisection would never stop.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    prof = profile(spec)
    hi_cap = Fraction(prof.dim_H)
    if not feasible(spec, d, Fraction(1), opts).feasible:
        # K = 1 always embeds a single state; an infeasible system here
        # means the distance is unattainable at all
        return BoundResult(Fraction(0), Fraction(1), True)
    if feasible(spec, d, hi_cap, opts).feasible:
        return BoundResult(hi_cap, hi_cap, True)

    lo, hi = Fraction(1), hi_cap
    if integer:
        while hi - lo > 1:
            mid = Fraction((lo + hi) // 2)
            if feasible(spec, d, mid, opts).feasible:
                lo = mid
            else:
                hi = mid
        return BoundResult(lo, hi, True)

    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(spec, d, mid, opts).feasible:
            lo = mid
        else:
            hi = mid
    # snap to an integer supremum if one sits inside the final bracket
    k = Fraction(round(lo))
    if lo <= k <= hi and feasible(spec, d, k, opts).feasible \
            and not feasible(spec, d, k + tol / 2, opts).feasible:
        return BoundResult(k, k, True)
    return BoundResult(lo, hi, False)


class NotApplicable(Exception):
    """The closed-form distance-2 bound does not apply to this family."""


def dist2_bound(spec: FamilySpec) -> Fraction:
    """Closed-form bound for distance 2, valid when W_1 is not minimized at j=1."""
    prof = profile(spec)
    W = wtj_matrix(spec)
    row = W[1]
    m = min(row)
    argmins = {j for j, v in enumerate(row) if v == m}
    if 1 in argmins:
        raise NotApplicable(f"W_1 minimized at j=1 for {spec}")
    a = -m * prof.dim_H / (row[0] - m)
    b = Fraction(1) / (row[1] - m)
    return max(a, b)


def dist2_bound_pure(spec: FamilySpec) -> Fraction:
    prof = profile(spec)
    row = wtj_matrix(spec)[1]
    m = min(row)
    if m == row[0]:
        raise NotApplicable(f"W_1 constant at its minimum for {spec}")
    return -m * prof.dim_H / (row[0] - m)


def volume_bound(spec: FamilySpec, d: int) -> Fraction:
    """dim(H) / sum_{t <= floor((d-1)/2)} dim(V_t), valid for nondegenerate codes."""
    prof = profile(spec)
    half = (d - 1) // 2
    return Fraction(prof.dim_H, sum(prof.dim_V[t] for t in range(half + 1)))
