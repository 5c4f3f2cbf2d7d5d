"""Exact phase-1 feasibility: floats pick a basis, integers prove the verdict.

Decides feasibility of {A x (=|>=) b, x >= 0} by minimizing the sum of
artificial variables.  Every verdict takes one path, `WarmStart.solve`: it
tries the last feasible and the last infeasible basis of a sequence of
nearby systems, the one whose verdict matches the last solve first, then
the basis that `float_basis` (the phase 1 in floating point) ends on, its
Farkas vector first when an artificial is basic in it, and runs the cold
exact kernel `solve` only when none of them passes.  A feasible system has
no Farkas vector and an infeasible one no witness, so at most one re-solve
of a basis passes and the order only skips the one that cannot.  Floats
only choose a basis (Applegate, Cook, Dash and Espinoza, "Exact solutions
to linear programming problems", 2007): the certificate is always solved
from it in integers, and one that fails substitution is never returned.
After its first solve a `WarmStart` runs `float_basis` and `solve` on its
active rows only, the rows its kept bases bind, and lifts each
verdict to every row: a Farkas vector is padded with zeros and checked
again, a witness is substituted into the inactive rows and the rows it
breaks join the active set before it solves again.
`check_feasible` is the `Fraction` front door: it scales each row by the
lcm of its denominators and returns what a fresh `WarmStart` solves, so it
tries the float basis before the kernel.

Both phase 1s start from the slack basis (Bixby, "Implementing the simplex
method: the initial basis", 1992), built by `_slack_start`: a >= row with
b <= 0 is negated and its slack starts basic, so artificials sit only on eq
rows and on >= rows with b > 0.  Both price alike: Dantzig's largest
reduced cost, and Bland's anti-cycling rule once BLAND_AFTER degenerate
pivots come in a row, until a pivot lowers the objective.

The kernel, `solve`, takes integer rows [a_i | b_i], their senses and
each row's positive scale s_i (row i stands for the rational row
[a_i | b_i] / s_i, up to one common positive factor); pivots follow Edmonds
(1967) and Bareiss (1968), so every entry is D * (B^-1 [A | b]) for the
current basis determinant D and the only division per update is an exact
one by the previous pivot.  The phase-1 objective is the sum of the
artificials of the rational rows, so a positive rescaling of any row
changes no pivot and no witness.

Every verdict carries a certificate that is checked by integer substitution
before it is returned: a feasible system yields a witness point, an
infeasible one a Farkas vector y (y_i >= 0 on >= rows, y^T A <= 0,
y^T b > 0), solved from the final basis as the phase-1 dual and returned
as primitive multipliers of the rational rows [a_i | b_i] / s_i.  A basis
is kept as the split it is re-solved from, a `Basis` (cols, tight, arts): the
sorted basic structural columns, the tight rows (neither their surplus nor
their artificial is basic) and the rows whose artificial is basic.
`point_from_basis` and `farkas_from_basis` re-solve a basis on another
system of the same shape with one square fraction-free solve (Bareiss
elimination below each pivot, then back substitution of det * x), and a
basis with len(cols) != len(tight) yields neither.  A feasible witness is the
vertex of whichever basis passed, so it need not be the vertex the kernel
reaches; the verdict is the same.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .scalars import over_one_denominator

EQ = "eq"
GE = "ge"
BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule takes over

# (sorted basic structural columns, tight rows, rows whose artificial is basic)
Basis = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    sense: str  # EQ or GE
    rhs: Fraction


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None
    farkas: tuple[int, ...] | None = None  # multipliers of the rational rows
    basis: Basis | None = None  # final basis


def solve(rows: list[list[int]], senses: Sequence[str], scales: list[int],
          nvars: int) -> FeasibilityResult:
    """Phase 1 from the slack basis on integer rows [a_i | b_i].

    The start is `_slack_start`'s.  Dantzig pricing (the largest reduced
    cost enters, a surplus's taken per unit of its primitive row) until
    BLAND_AFTER degenerate pivots in a row, then Bland's rule (the lowest
    eligible column) until a pivot lowers the objective;
    the leaving row has the lowest ratio, ties going to the lowest basic
    column.
    """
    _check_shape(rows, senses, scales, nvars)
    T, basis, ge_rows, art_rows = _slack_start(rows, senses, nvars)
    ncols = nvars + len(ge_rows)
    m = len(T)

    # phase-1 objective as row m, a positive multiple of the artificial
    # total: sum over artificial rows of (L / s_i) * row_i with L = lcm(s_i)
    L = lcm(*(scales[i] for i in art_rows))
    obj = [0] * (ncols + 1)
    for i in art_rows:
        obj = [o + L // scales[i] * x for o, x in zip(obj, T[i])]
    T.append(obj)

    # Dantzig compares a surplus's reduced cost in units of its row divided
    # by the gcd of its entries, so that rescaling a row changes no pivot
    unit = [1] * nvars + [gcd(*row) or 1 for row, sense in zip(rows, senses) if sense == GE]

    D = 1
    degenerate = 0
    while True:
        # basic columns have obj == 0, so they never enter
        obj = T[m]
        if degenerate < BLAND_AFTER:
            enter = max(range(ncols), key=lambda j: obj[j] * unit[j], default=-1)
        else:
            enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0 or obj[enter] <= 0:
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
        degenerate = degenerate + 1 if T[leave][-1] == 0 else 0
        D = _pivot(T, leave, enter, D)
        basis[leave] = enter

    final = _split(basis, nvars, ge_rows, art_rows)
    if T[m][-1] != 0:
        y = farkas_from_basis(rows, senses, scales, nvars, final)
        if y is None:
            raise ArithmeticError("the final phase-1 basis yields no Farkas vector")
        return FeasibilityResult(False, None, y, final)
    # basic artificials left at this point sit at zero, so x is final
    nums = [0] * nvars
    for i in range(m):
        if basis[i] < nvars:
            nums[basis[i]] = T[i][-1]
    if not _satisfies(rows, senses, nums, D):
        raise ArithmeticError("simplex witness fails integer substitution")
    return FeasibilityResult(True, tuple(Fraction(x, D) for x in nums), None, final)


def _slack_start(rows: list[list[int]], senses: Sequence[str], nvars: int
                 ) -> tuple[list[list[int]], list[int], list[int], list[int]]:
    """The starting tableau of both phase 1s: the slack basis.

    Columns are the structurals, one surplus or slack per >= row, then the
    rhs.  A >= row with b <= 0 is negated into a <= row whose slack starts
    basic at -b >= 0.  Any other row is negated when b < 0 and starts with
    its artificial basic, so artificials sit only on eq rows (b = 0
    included) and on >= rows with b > 0.  An artificial has coefficient 1
    and never re-enters once it leaves, so it gets an index (after the
    columns) but no column.  Returns the rows [sign * a_i | slacks |
    sign * b_i], the basic column (or artificial) index of each row, the
    row of each surplus column and the rows that carry an artificial.
    """
    ncols = nvars + sum(s == GE for s in senses)
    T: list[list[int]] = []
    basis: list[int] = []
    ge_rows: list[int] = []
    art_rows: list[int] = []
    for i, (row, sense) in enumerate(zip(rows, senses)):
        slack = sense == GE and row[-1] <= 0
        sign = -1 if slack or row[-1] < 0 else 1
        t = [sign * x for x in row[:-1]] + [0] * (ncols - nvars) + [sign * row[-1]]
        if sense == GE:
            t[nvars + len(ge_rows)] = -sign
            ge_rows.append(i)
        if slack:
            basis.append(nvars + len(ge_rows) - 1)
        else:
            basis.append(ncols + len(art_rows))
            art_rows.append(i)
        T.append(t)
    return T, basis, ge_rows, art_rows


def _split(basis: list[int], nvars: int, ge_rows: list[int], art_rows: list[int]) -> Basis:
    """The Basis whose basic column (or artificial) indices, numbered as by
    `_slack_start`, are basis."""
    ncols = nvars + len(ge_rows)
    arts = sorted(art_rows[b - ncols] for b in basis if b >= ncols)
    covered = {ge_rows[b - nvars] for b in basis if nvars <= b < ncols}.union(arts)
    return (tuple(sorted(b for b in basis if b < nvars)),
            tuple(i for i in range(len(basis)) if i not in covered), tuple(arts))


def _check_shape(rows: list[list[int]], senses: Sequence[str], scales: list[int],
                 nvars: int) -> None:
    """Raise ValueError unless every row is [a_i | b_i] with a known sense
    and a positive scale."""
    if not len(rows) == len(senses) == len(scales):
        raise ValueError(f"{len(rows)} rows, {len(senses)} senses and {len(scales)} scales")
    for row, sense, s in zip(rows, senses, scales):
        if len(row) != nvars + 1:
            raise ValueError("constraint width mismatch")
        if sense not in (EQ, GE):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if s <= 0:
            raise ValueError(f"row scale must be positive, got {s}")


def point_from_basis(rows: list[list[int]], senses: Sequence[str], nvars: int,
                     basis: Basis) -> tuple[Fraction, ...] | None:
    """The vertex of basis on rows, if it exists and passes substitution.

    The basic structurals are solved on the tight rows; the other
    structurals are zero.
    """
    if not _fits(basis, len(rows), nvars):
        return None
    cols, tight, _ = basis
    sol = _solve_square([[rows[i][j] for j in cols] for i in tight],
                        [rows[i][-1] for i in tight])
    if sol is None:
        return None
    vals, den = sol
    nums = [0] * nvars
    for j, v in zip(cols, vals):
        nums[j] = v
    if not _satisfies(rows, senses, nums, den):
        return None
    return tuple(Fraction(x, den) for x in nums)


def farkas_from_basis(rows: list[list[int]], senses: Sequence[str], scales: list[int],
                      nvars: int, basis: Basis) -> tuple[int, ...] | None:
    """The phase-1 dual y of basis on rows, if it passes as a Farkas vector,
    as `row_multipliers` of the rational rows row_i / s_i.

    y is zero on rows whose surplus is basic, (L / s_i) * sign(b_i) on rows
    whose artificial is basic (the artificial's cost, L = lcm of those
    scales), and on the tight rows solves y^T a_j = 0 for each basic
    structural j.
    """
    if not _fits(basis, len(rows), nvars):
        return None
    cols, tight, arts = basis
    L = lcm(*(scales[i] for i in arts))
    y = [0] * len(rows)
    for i in arts:
        y[i] = (-1 if rows[i][-1] < 0 else 1) * (L // scales[i])
    sol = _solve_square([[rows[i][j] for i in tight] for j in cols],
                        [-sum(y[i] * rows[i][j] for i in arts) for j in cols])
    if sol is None:
        return None
    vals, den = sol
    y = [v * den for v in y]
    for i, v in zip(tight, vals):
        y[i] = v
    if not _is_farkas(rows, senses, nvars, y):
        return None
    return row_multipliers(y, scales)


FLOAT_EPS = 1e-12  # relative: reduced cost against its terms, pivot against its column


def float_basis(rows: list[list[int]], senses: Sequence[str], scales: list[int],
                nvars: int) -> Basis | None:
    """A phase-1 optimal basis of the system of `solve`, found in floats.

    Same start (`_slack_start`), columns, artificial costs
    (artificial i costs 1/s_i on the rational row) and pricing rule as
    `solve`, with each row divided by its largest entry and its surplus
    rescaled to +-1, which changes no basis (but prices a surplus per unit
    of that row, not of the primitive row).  Tolerances are relative to
    the terms of each reduced cost and to the largest entry of the pivot
    column, and among tied ratios Dantzig's steps take the larger pivot.
    The basis is only a guess: None when the pivots run out, and nothing
    here is a certificate.
    """
    T0, basis, ge_rows, art_rows = _slack_start(rows, senses, nvars)
    ncols = nvars + len(ge_rows)
    norms = [max(map(abs, row)) or 1 for row in rows]
    T = [[x / n for x in t[:nvars]] + [float(x) for x in t[nvars:ncols]] + [t[-1] / n]
         for t, n in zip(T0, norms)]
    # art_i costs 1/s_i, so the artificial art_i / n of row_i / n costs n / s_i
    weights = [norms[i] / scales[i] for i in art_rows]
    top = max(weights, default=1.0)
    weights = [w / top for w in weights]
    m = len(T)
    # row m: the reduced costs, sum of the weighted rows whose artificial is basic
    obj = [0.0] * (ncols + 1)
    for w, i in zip(weights, art_rows):
        obj = [o + w * x for o, x in zip(obj, T[i])]
    T.append(obj)

    degenerate = 0
    for _ in range(20 * (m + ncols)):
        obj = T[m]
        bland = degenerate >= BLAND_AFTER
        arts = [(weights[basis[i] - ncols], T[i]) for i in range(m) if basis[i] >= ncols]
        cands = [j for j in range(ncols) if obj[j] > 0]
        if not bland:
            cands.sort(key=obj.__getitem__, reverse=True)
        for enter in cands:
            # a reduced cost within rounding of its terms is zero
            if obj[enter] <= FLOAT_EPS * sum(w * abs(t[enter]) for w, t in arts):
                continue
            col = [T[i][enter] for i in range(m)]
            tol = FLOAT_EPS * max(map(abs, col))
            leave = -1
            for i in range(m):
                a = col[i]
                if a > tol:
                    if leave < 0:
                        leave = i
                        continue
                    # lower ratio, then the larger pivot (Dantzig) or the
                    # lower basic index (Bland)
                    lhs = max(T[i][-1], 0.0) * col[leave]
                    rhs = max(T[leave][-1], 0.0) * a
                    if lhs < rhs - FLOAT_EPS * rhs or (
                            lhs <= rhs + FLOAT_EPS * rhs
                            and (basis[i] < basis[leave] if bland else a > col[leave])):
                        leave = i
            if leave >= 0:  # a column with no pivot is rounding noise
                break
        else:
            return _split(basis, nvars, ge_rows, art_rows)
        degenerate = degenerate + 1 if T[leave][-1] <= FLOAT_EPS * col[leave] else 0
        p = col[leave]
        prow = T[leave] = [x / p for x in T[leave]]
        for i in range(m + 1):
            f = T[i][enter]
            if i != leave and f:
                T[i] = [x - f * y for x, y in zip(T[i], prow)]
        basis[leave] = enter
    return None


class WarmStart:
    """Final bases and the active rows carried across the solves of a
    sequence of nearby systems.

    `solve` re-solves first the stored basis whose verdict matches the last
    solve (the phase-1 dual of the infeasible basis after an infeasible
    verdict, the vertex of the feasible basis otherwise), then the other
    one, both on every row.  Otherwise it solves on the active rows only:
    the basis `float_basis` picks there, its dual first when an artificial
    is basic in it and its vertex first otherwise, then the cold kernel.
    At most one re-solve of a basis can pass (a feasible system has no
    Farkas vector, an infeasible one no witness), so the order changes no
    certificate, stored basis or counter, and each solve adds one to
    exactly one counter.

    The active set (delayed constraint generation: Bertsimas and
    Tsitsiklis, "Introduction to Linear Optimization", 1997, section 6.3)
    is every row on the first solve; after it, the eq rows plus the tight
    and artificial rows of every basis kept.  A verdict on the active rows,
    when they are not every row, is lifted to every row: its Farkas vector,
    padded with zeros, is checked again on every row, and its witness,
    already substituted into the active rows, is substituted into the
    others; the rows it breaks join the active set and the solve starts
    again, until none breaks.  Bases are kept in row indices of the whole
    system, where an inactive row has its surplus basic.  Both stored bases and the
    active set are dropped when the senses or nvars differ from those of
    the last solve; bases stored before the first solve are tried on it.
    """

    def __init__(self) -> None:
        self.feasible_basis: Basis | None = None
        self.infeasible_basis: Basis | None = None
        self.active: tuple[int, ...] | None = None  # the rows solved on; None: every row
        self.warm_feasible = self.warm_infeasible = self.guided = self.cold = 0
        self._last_feasible = True  # the verdict of the last solve
        self._shape: tuple[tuple[str, ...], int] | None = None  # (senses, nvars) of the last solve

    def solve(self, rows: list[list[int]], senses: Sequence[str], scales: list[int],
              nvars: int) -> FeasibilityResult:
        _check_shape(rows, senses, scales, nvars)
        shape = (tuple(senses), nvars)
        if shape != self._shape:
            if self._shape is not None:
                self.feasible_basis = self.infeasible_basis = self.active = None
            self._shape = shape
        stored = ((True, self.feasible_basis), (False, self.infeasible_basis))
        for verdict, basis in stored if self._last_feasible else stored[::-1]:
            if basis is not None and (
                    res := _resolve(rows, senses, scales, nvars, basis, verdict)):
                if verdict:
                    self.warm_feasible += 1
                else:
                    self.warm_infeasible += 1
                return self._keep(res)
        while True:
            act = self.active or range(len(rows))
            sub = [rows[i] for i in act], [senses[i] for i in act], [scales[i] for i in act]
            try:
                guess = float_basis(*sub, nvars)
            except OverflowError:  # an entry beyond the float range
                guess = None
            res = None
            if guess is not None:
                dual_first = bool(guess[2])
                for verdict in (not dual_first, dual_first):
                    if res := _resolve(*sub, nvars, guess, verdict):
                        break
            guided = res is not None
            res = res or solve(*sub, nvars)
            if len(act) == len(rows):  # checked on every row already
                break
            cols, tight, arts = res.basis
            basis = (cols, tuple(act[i] for i in tight), tuple(act[i] for i in arts))
            if not res.feasible:
                y = [0] * len(rows)
                for i, v in zip(act, res.farkas):
                    y[i] = v
                L = lcm(*(s for v, s in zip(y, scales) if v))
                if not _is_farkas(rows, senses, nvars, [v * L // s for v, s in zip(y, scales)]):
                    raise ArithmeticError("a Farkas vector of the active rows fails on the others")
                res = FeasibilityResult(False, None, tuple(y), basis)
                break
            den, nums = over_one_denominator(res.witness)
            rest = sorted(set(range(len(rows))).difference(act))
            broken = list(_broken(rows, senses, nums, den, rest))
            if not broken:
                res = FeasibilityResult(True, res.witness, None, basis)
                break
            self.active = tuple(sorted({*act, *broken}))
        if guided:
            self.guided += 1
        else:
            self.cold += 1
        return self._keep(res)

    def _keep(self, res: FeasibilityResult) -> FeasibilityResult:
        """Store res's basis as the feasible or the infeasible basis, its
        verdict as the last one, and its tight and artificial rows as
        active."""
        if res.feasible:
            self.feasible_basis = res.basis
        else:
            self.infeasible_basis = res.basis
        self._last_feasible = res.feasible
        _, tight, arts = res.basis
        kept = self.active or [i for i, s in enumerate(self._shape[0]) if s == EQ]
        self.active = tuple(sorted({*kept, *tight, *arts}))
        return res


def _resolve(rows: list[list[int]], senses: Sequence[str], scales: list[int], nvars: int,
             basis: Basis, verdict: bool) -> FeasibilityResult | None:
    """The vertex (verdict True) or the phase-1 dual (verdict False) of
    basis on rows, if it passes substitution."""
    if verdict:
        point = point_from_basis(rows, senses, nvars, basis)
        return None if point is None else FeasibilityResult(True, point, None, basis)
    y = farkas_from_basis(rows, senses, scales, nvars, basis)
    return None if y is None else FeasibilityResult(False, None, y, basis)


def check_feasible(constraints: list[Constraint], nvars: int) -> FeasibilityResult:
    """Feasibility of the Fraction constraints by `WarmStart.solve` on their
    integer-scaled rows, whose rational rows are the constraints, so a
    Farkas vector multiplies the constraints."""
    rows, scales = [], []
    for c in constraints:
        s, row = over_one_denominator([x if isinstance(x, (int, Fraction)) else Fraction(x)
                                       for x in (*c.coeffs, c.rhs)])
        rows.append(row)
        scales.append(s)
    return WarmStart().solve(rows, [c.sense for c in constraints], scales, nvars)


def row_multipliers(y: Sequence[int], scales: Sequence[int]) -> tuple[int, ...]:
    """y as primitive multipliers of the rational rows row_i / s_i."""
    z = [v * s for v, s in zip(y, scales)]
    g = gcd(*z)
    return tuple(v // g for v in z)


def verify_witness(constraints: list[Constraint], witness: tuple[Fraction, ...]) -> bool:
    """witness is >= 0, has one entry per coefficient of every constraint
    and satisfies them all."""
    return all(len(c.coeffs) == len(witness) for c in constraints) and _satisfies(
        [(*c.coeffs, c.rhs) for c in constraints], [c.sense for c in constraints], witness, 1)


def verify_farkas(constraints: list[Constraint], y: tuple[int, ...]) -> bool:
    """y proves infeasibility: y_i >= 0 on >= rows, y^T A <= 0, y^T b > 0,
    with one y_i per constraint and constraints of one width."""
    nvars = len(constraints[0].coeffs) if constraints else 0
    return len(y) == len(constraints) and all(
        len(c.coeffs) == nvars for c in constraints) and _is_farkas(
        [(*c.coeffs, c.rhs) for c in constraints], [c.sense for c in constraints], nvars, y)


def _fits(basis: Basis, nrows: int, nvars: int) -> bool:
    """basis has as many columns as tight rows, and names only columns and
    rows of a system of nrows rows over nvars columns."""
    cols, tight, arts = basis
    return len(cols) == len(tight) and all(0 <= j < nvars for j in cols) and all(
        0 <= i < nrows for i in (*tight, *arts))


def _satisfies(rows, senses, nums, den) -> bool:
    """x = nums / den (den > 0) is >= 0 and satisfies every row [a | b]."""
    return all(x >= 0 for x in nums) and next(_broken(rows, senses, nums, den), None) is None


def _broken(rows, senses, nums, den, among=None):
    """The indices of the rows [a | b] that x = nums / den (den > 0) breaks,
    among the indices `among` (every row by default), lazily, each row read
    on the support of x only."""
    support = [(j, x) for j, x in enumerate(nums) if x]
    for i in range(len(rows)) if among is None else among:
        row = rows[i]
        v = sum(row[j] * x for j, x in support)
        b = row[-1] * den
        if v < b or (senses[i] == EQ and v != b):
            yield i


def _is_farkas(rows, senses, nvars, y) -> bool:
    """y_i >= 0 on >= rows, y^T A <= 0 and y^T b > 0 for rows [a | b]."""
    if any(v < 0 for v, s in zip(y, senses) if s == GE):
        return False
    pairs = [(v, row) for v, row in zip(y, rows) if v]
    if any(sum(v * row[j] for v, row in pairs) > 0 for j in range(nvars)):
        return False
    return sum(v * row[-1] for v, row in pairs) > 0


def _solve_square(M: list[list[int]], b: list[int]) -> tuple[list[int], int] | None:
    """x = nums / den with M x = b and den = |det M|, by fraction-free
    (Bareiss) elimination below each pivot and back substitution of det * x;
    None when M is singular."""
    n = len(M)
    T = [row + [v] for row, v in zip(M, b)]
    D = 1
    for k in range(n):
        r = next((i for i in range(k, n) if T[i][k]), -1)
        if r < 0:
            return None
        T[k], T[r] = T[r], T[k]
        prow = T[k]
        p = prow[k]
        for i in range(k + 1, n):
            row = T[i]
            f = row[k]
            if f:
                T[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
            elif p != D:
                T[i] = [x * p // D for x in row]
        D = p
    # D = +-det M, and row k reads T_kk x_k + sum_{j>k} T_kj x_j = c_k, so
    # X = D x is integral and solved upward with one exact division per row
    X = [0] * n
    for k in range(n - 1, -1, -1):
        row = T[k]
        X[k] = (D * row[-1] - sum(u * x for u, x in zip(row[k + 1:-1], X[k + 1:]))) // row[k]
    if D < 0:
        return [-x for x in X], -D
    return X, D


def _pivot(T: list[list[int]], r: int, k: int, D: int) -> int:
    """Pivot every row of T on T[r][k], dividing exactly by the previous
    pivot D; returns the new pivot."""
    prow = T[r]
    p = prow[k]
    for i, row in enumerate(T):
        if i != r:
            f = row[k]
            if f:
                T[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
            elif p != D:
                T[i] = [x * p // D for x in row]
    return p
