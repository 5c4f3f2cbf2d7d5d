"""Linear programming upper bounds on code dimension.

A code of dimension K and minimum distance d in a family with diameter r
has a distance distribution A_0..A_r satisfying

    A_j >= 0,  A_0 = K,  sum_j A_j = dim(H)
    K * sum_j W_t(j) A_j  = A_t   for 0 <= t <= d-1
    K * sum_j W_t(j) A_j >= A_t   for 0 <= t <= r
    sum_j lambda_j W_t(j) A_j >= 0   (self-dual families only)
    A_t = 0 for 1 <= t <= d-1        (pure codes only)

so the supremum of K making this system feasible bounds every code.  The
search is a rational bisection.  `affine_rows` is the only definition of
the LP: an `IntegerSystem`, each row written once in integers, affine in K,
as (A_i, B_i, c_i, sense), so row i at K = p/q is (p*A_i + q*B_i) / (q*c_i),
or B_i / c_i when the row does not depend on K; a W row t is (c_t, u_t) as
`wtj_matrix` holds it, converted no further.  The bisection solves on
`integer_system`, that system cached; `build_system` is its Fraction view
at K.  Each verdict of `feasible` carries a certificate checked by
substitution, a witness point when feasible and a Farkas vector when not.

A probe of `lp_bound` first tries the `closed_forms` of the system, built
once per (spec, d, opts): the witness (e_0 + W e_0) / (1 + W_0(0)) at K = 1
(W^2 = I, so B = A), the forced point (dim H, 0, ..., 0) at K = dim H when
d = 1, and for d >= 2 the Farkas vector on rows 0-2 from the proof of
`dist2_bound` (Shor-Laflamme and Rains, "Quantum weight enumerators",
1998), which settles every K above that bound.  Each is checked by the
integer substitution the simplex layer uses, so a closed form is never
trusted; one that fails leaves the probe to the LP.  The LP probes share
one `WarmStart`, so an LP probe first re-solves the final basis of the last
feasible probe (accepted when the vertex passes integer substitution) and
of the last infeasible probe (accepted when its phase-1 dual passes as a
Farkas vector), the one matching the last verdict first, then the basis a
floating-point phase 1 picks (accepted on the same two checks), and runs a
cold exact simplex only when none of them passes.  After the first LP probe
the float phase and the cold simplex see only the `WarmStart`'s active
rows: the eq rows and the rows the kept bases bind, grown by every row a
witness of them breaks, so each verdict is still the verdict on every row
of `integer_system`, with its certificate substituted into all of them.
The front-door
`feasible` (no `WarmStart`) tries no closed form; it takes the same path
through `simplex.check_feasible` with a fresh `WarmStart`: the float basis
first, the cold simplex only when it is rejected.  No float value reaches a
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .families import Family, Row, profile
from .scalars import over_one_denominator
from .simplex import (EQ, GE, Constraint, FeasibilityResult, WarmStart, _is_farkas, _satisfies,
                      check_feasible, row_multipliers, verify_farkas, verify_witness)
from .wtj import lambda_signature, wtj_matrix

DEFAULT_TOL = Fraction(1, 100_000)


@dataclass(frozen=True)
class LPOptions:
    self_dual: bool = False
    pure: bool = False


def check_options(spec: Family, opts: LPOptions) -> None:
    """Raise ValueError when opts ask for a constraint spec cannot carry."""
    if opts.self_dual and lambda_signature(spec) is None:
        raise ValueError(f"{spec.name} has no self-dual signature")


@dataclass(frozen=True)
class IntegerSystem:
    """Integer rows over [coefficients | rhs], affine in K: row i at K = p/q
    is (p*A_i + q*B_i) / (q*c_i), or B_i / c_i when A_i is zero, c_i > 0."""
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]  # c_i
    senses: tuple[str, ...]
    nvars: int
    varies: tuple[bool, ...] = field(init=False, repr=False, compare=False)  # A_i != 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "varies", tuple(map(any, self.A)))

    def at(self, K: Fraction, head: int | None = None) -> tuple[list[list[int]], list[int]]:
        """Integer rows at K and their positive scales (row / scale is the
        build_system row), of all the rows or of the first head."""
        p, q = K.numerator, K.denominator
        rows = [[p * x + q * y for x, y in zip(a, b)] if v else list(b)
                for a, b, v in zip(self.A[:head], self.B, self.varies)]
        scales = [q * c if v else c for c, v in zip(self.scales[:head], self.varies)]
        return rows, scales


def affine_rows(spec: Family, d: int, opts: LPOptions = LPOptions()) -> IntegerSystem:
    """The LP of the module docstring as an IntegerSystem.

    Each W row t enters as `wtj_matrix` holds it, (c_t, c_t W_t), c_t the
    lcm of its denominators, the least scale: each prime power exactly
    dividing c_t divides the denominator of some W_t(j), which scales to an
    integer prime to it.  The other rows are integers already, with scale 1.
    """
    nvars = profile(spec).diameter_r + 1
    if not (1 <= d <= nvars):
        raise ValueError(f"distance d={d} outside 1..{nvars}")
    check_options(spec, opts)
    zeros = (0,) * (nvars + 1)

    def unit(t: int, x: int = 1) -> tuple[int, ...]:
        return zeros[:t] + (x,) + zeros[t + 1:]

    W = wtj_matrix(spec)
    # A_0 = K, then K * sum_j W_t(j) A_j - A_t (= or >=) 0
    rows = [(unit(nvars), unit(0), 1, EQ)]
    rows += [((*cw, 0), unit(t, -c), c, EQ if t < d else GE)
             for t, (c, cw) in enumerate(W)]
    if opts.self_dual:
        # sum_j lambda_j W_t(j) A_j >= 0, times c_t
        lam = lambda_signature(spec)
        rows += [(zeros, (*map(mul, lam, cw), 0), c, GE) for c, cw in W]
    if opts.pure:
        rows += [(zeros, unit(t), 1, EQ) for t in range(1, d)]
    A, B, scales, senses = zip(*rows)
    return IntegerSystem(A, B, scales, senses, nvars)


def build_system(spec: Family, d: int, K: Fraction,
                 opts: LPOptions = LPOptions()) -> tuple[list[Constraint], int]:
    """affine_rows(spec, d, opts) at K as Fraction constraints, each entry
    over its row's scale."""
    system = affine_rows(spec, d, opts)
    rows, scales = system.at(K)
    return [Constraint(tuple(Fraction(x, s) for x in row[:-1]), sense, Fraction(row[-1], s))
            for row, s, sense in zip(rows, scales, system.senses)], system.nvars


@lru_cache(maxsize=None)
def integer_system(spec: Family, d: int, opts: LPOptions = LPOptions()) -> IntegerSystem:
    """affine_rows(spec, d, opts), cached: the system each bisection probe
    solves on."""
    return affine_rows(spec, d, opts)


def feasible(spec: Family, d: int, K: Fraction,
             opts: LPOptions = LPOptions(), warm: WarmStart | None = None) -> FeasibilityResult:
    """Exact feasibility of the system at K > 0, with a checked certificate.

    Without warm the system is built by build_system, solved by
    check_feasible (the basis of a floating-point phase 1 first, a cold
    exact simplex only when that basis fails substitution) and its
    certificate checked again on the Fraction constraints.  With warm (as
    lp_bound passes) it is solved on the cached integer_system, trying
    warm's bases before the float-chosen one, which like the cold simplex
    sees only warm's active rows once warm has solved one system.  Either way the result is the
    kernel's record as it is, a Farkas vector in it multiplying the
    build_system constraints, and a feasible witness is the vertex of the
    basis that passed, which below the optimum may differ from the vertex a
    cold solve reaches; the verdict is the same.
    """
    K = Fraction(K)
    if K <= 0:
        # K = 0 drops the normalisation A_0 = K and makes x = 0 a witness
        raise ValueError(f"K must be positive, got {K}")
    if warm is None:
        cons, nvars = build_system(spec, d, K, opts)
        res = check_feasible(cons, nvars)
        if res.feasible and (res.witness is None or not verify_witness(cons, res.witness)):
            raise ArithmeticError(f"simplex witness fails substitution at K={K} for {spec}")
        if not res.feasible and (res.farkas is None or not verify_farkas(cons, res.farkas)):
            raise ArithmeticError(f"Farkas vector fails substitution at K={K} for {spec}")
        return res
    system = integer_system(spec, d, opts)
    rows, scales = system.at(K)
    return warm.solve(rows, system.senses, scales, system.nvars)


def unit_witness(W: tuple[Row, ...]) -> tuple[Fraction, ...]:
    """A = (e_0 + W e_0) / (1 + W_0(0)), the +1 eigenvector of W (W^2 = I):
    at K = 1 it has A_0 = 1 and B = K W A = A."""
    col = [Fraction(u[0], c) for c, u in W]
    return tuple(((t == 0) + w) / (1 + col[0]) for t, w in enumerate(col))


def dist2_multipliers(N: int, w1: tuple[int, int, int, int], K: Fraction
                      ) -> tuple[int, int, int]:
    """The multipliers of the integer rows 0-2 (A_0 = K, t = 0, t = 1) at K
    in the proof of `dist2_bound`, with w1 = (W_1(0), W_1(1),
    min_{j>=2} W_1(j)) times their common denominator c, then c.

    On the rational rows they are (nu, mu, -1) with mu = N min(min_{j>=2}
    W_1(j), W_1(1) - 1/K) and nu = K W_1(0) + mu (1 - K/N).  With W_0(j) =
    1/N, mu keeps every column j >= 1 of y^T A at or below 0 and nu sets
    column 0 to 0, so y^T b = nu K > 0 exactly when nu > 0, which holds
    above dist2_bound.  At K = p/q the integer rows 0-2 are these rows
    times q, q N and q c, so their multipliers are (nu / q, mu / (q N),
    -1 / (q c)), which times c p q^2 are the integers
    (p^2 c W_1(0) + m (N q - p), q m, -p q) with m = c p mu / N.
    """
    p, q = K.numerator, K.denominator
    b0, b1, low, c = w1
    m = min(p * low, p * b1 - q * c)
    return p * p * b0 + m * (N * q - p), q * m, -p * q


@dataclass(frozen=True)
class ClosedForms:
    """The closed-form certificates of the system of (spec, d, opts).

    witnesses holds the feasible records at K = 1 (`unit_witness`) and, at
    d = 1, at K = dim(H) (the forced point (dim H, 0, ..., 0); for d >= 2
    row t = 1 forbids it, since W_1(0) > 0), each kept only when it passed
    integer substitution into integer_system(spec, d, opts) at its K.  No
    closed-form record carries a basis.
    dim_H and w1 feed `dist2_multipliers`, for d >= 2 only: rows 0-2 are in
    every such system, and row t = 1 is then an equation, so its multiplier
    may be negative.
    """
    witnesses: dict[Fraction, FeasibilityResult]
    dim_H: int
    w1: tuple[int, int, int, int] | None

    def settle(self, system: IntegerSystem, K: Fraction, dist2: bool = True
               ) -> FeasibilityResult | None:
        """The verdict at K of a closed-form certificate, or None.

        A witness at its K; otherwise, unless dist2 is false, the
        distance-2 vector, when it passes integer substitution into rows
        0-2 of system at K (it is zero on every other row).
        """
        if K in self.witnesses:
            return self.witnesses[K]
        if self.w1 is None or not dist2:
            return None
        rows, scales = system.at(K, 3)
        y = dist2_multipliers(self.dim_H, self.w1, K)
        if not _is_farkas(rows, system.senses, system.nvars, y):
            return None
        pad = (0,) * (len(system.senses) - len(y))
        return FeasibilityResult(False, None, row_multipliers(y, scales) + pad)


@lru_cache(maxsize=None)
def closed_forms(spec: Family, d: int, opts: LPOptions = LPOptions()) -> ClosedForms:
    """The ClosedForms of (spec, d, opts), cached like integer_system."""
    W = wtj_matrix(spec)
    N = profile(spec).dim_H
    system = integer_system(spec, d, opts)
    candidates = {Fraction(1): unit_witness(W)}
    if d == 1:
        candidates[Fraction(N)] = (Fraction(N),) + (Fraction(0),) * (system.nvars - 1)
    witnesses = {}
    for K, x in candidates.items():
        den, xs = over_one_denominator(x)
        if _satisfies(system.at(K)[0], system.senses, xs, den):
            witnesses[K] = FeasibilityResult(True, x)
    w1 = None
    if d >= 2:
        # row 2 is c W_1 | -c e_1 in integers, c its scale
        b = system.A[2]
        w1 = (b[0], b[1], min(b[2:system.nvars], default=b[1]), system.scales[2])
    return ClosedForms(witnesses, N, w1)


@dataclass(frozen=True)
class BoundResult:
    lower: Fraction  # feasible
    upper: Fraction  # infeasible, except when lower == dim(H)
    exact: bool      # upper bound coincides with the largest feasible integer


def lp_bound(spec: Family, d: int, opts: LPOptions = LPOptions(),
             tol: Fraction = DEFAULT_TOL, integer: bool = False) -> BoundResult:
    """Largest feasible K in [1, dim(H)], located by bisection.

    With integer=True only whole K are probed, returning the largest
    feasible integer (an exact bound on exact-dimension codes).  A tol
    <= 0 raises ValueError, since the bisection would never stop.  Each
    probe first tries the `closed_forms` of the system: a witness at K = 1
    (and at K = dim(H) when d = 1), then, for d >= 2, the distance-2 Farkas
    vector, skipped at every K at or below the largest K where it failed in
    this bound.  A probe none of them settles is an LP probe, `feasible`
    with one WarmStart shared by all of them, so consecutive LP probes
    reuse final bases.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    prof = profile(spec)
    hi_cap = Fraction(prof.dim_H)
    system = integer_system(spec, d, opts)
    forms = closed_forms(spec, d, opts)
    warm = WarmStart()
    failed = Fraction(0)  # the largest K where the distance-2 vector failed

    def probe(K: Fraction) -> bool:
        nonlocal failed
        if (rep := forms.settle(system, K, K > failed)) is None:
            failed = max(failed, K)
            rep = feasible(spec, d, K, opts, warm)
        return rep.feasible

    if not probe(Fraction(1)):
        # K = 1 always embeds a single state; an infeasible system here
        # means the distance is unattainable at all
        return BoundResult(Fraction(0), Fraction(1), True)
    if probe(hi_cap):
        return BoundResult(hi_cap, hi_cap, True)

    lo, hi = Fraction(1), hi_cap
    while hi - lo > (1 if integer else tol):
        mid = Fraction((lo + hi) // 2) if integer else (lo + hi) / 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    if integer:
        return BoundResult(lo, hi, True)
    # snap to an integer supremum if one sits inside the final bracket; with
    # tol >= 1 the test point k + tol/2 can lie far above the bracket, where
    # its infeasibility says nothing about (k, hi]
    k = Fraction(round(lo))
    if tol < 1 and lo <= k <= hi and probe(k) and not probe(k + tol / 2):
        return BoundResult(k, k, True)
    return BoundResult(lo, hi, False)


class NotApplicable(Exception):
    """The closed-form distance-2 bound does not apply to this family."""


def dist2_bound(spec: Family) -> Fraction:
    """Closed-form bound for distance 2, valid when W_1 is not minimized at j=1."""
    c, u = wtj_matrix(spec)[1]  # W_1 = u / c, c > 0
    m = min(u)
    if u[1] == m:
        raise NotApplicable(f"W_1 minimized at j=1 for {spec}")
    return max(Fraction(-m * profile(spec).dim_H, u[0] - m), Fraction(c, u[1] - m))


def dist2_bound_pure(spec: Family) -> Fraction:
    _, u = wtj_matrix(spec)[1]
    m = min(u)
    if m == u[0]:
        raise NotApplicable(f"W_1 constant at its minimum for {spec}")
    return Fraction(-m * profile(spec).dim_H, u[0] - m)


def volume_bound(spec: Family, d: int) -> Fraction:
    """dim(H) / sum_{t <= floor((d-1)/2)} dim(V_t), valid for nondegenerate codes."""
    prof = profile(spec)
    half = (d - 1) // 2
    return Fraction(prof.dim_H, sum(prof.dim_V[t] for t in range(half + 1)))
