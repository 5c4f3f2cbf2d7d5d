"""Warm-started probes: the integer LP template, basis re-solves, Farkas vectors."""

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte import lp, simplex
from qdelsarte.families import (CliffordEven, CliffordOdd, QHamming, Semispinorial, Spinorial,
                                Su2, SunExt, SuqSym, profile)
from qdelsarte.lp import LPOptions, build_system, feasible, integer_system, lp_bound
from qdelsarte.scalars import format_fraction
from qdelsarte.simplex import WarmStart, verify_farkas, verify_witness
from qdelsarte.wtj import lambda_signature, wtj_matrix

F = Fraction
SD = LPOptions(self_dual=True)

# (spec, d, opts): four families, plain, self-dual and pure systems
SYSTEMS = (
    (QHamming(2, 6), 3, LPOptions()),
    (CliffordOdd(6), 3, LPOptions()),
    (Su2(8), 3, SD),
    (SuqSym(3, 4), 2, LPOptions(pure=True)),
)

# the benchmark's six bounds with the lower/upper strings the cold-start
# bisection printed before probes were warm-started
LP_BOUNDS = (
    (QHamming(2, 10), 3, LPOptions(), F(1, 100_000), False,
     "3988183019/134217728", "1994092021/67108864"),
    (CliffordOdd(8), 3, LPOptions(), F(1, 100_000), False,
     "375809567/33554432", "187904911/16777216"),
    (Su2(8), 3, SD, F(1, 100_000), False, "276707/131072", "69177/32768"),
    (SuqSym(3, 5), 3, LPOptions(), F(1, 100_000), False,
     "873813/524288", "436909/262144"),
    (CliffordEven(5), 3, SD, F(1, 2000), False, "56173/32768", "112377/65536"),
    (Su2(12), 4, SD, F(1, 100_000), True, "1", "2"),
)


def cold_report(spec, d, K, opts):
    """The verdict of the cold kernel `simplex.solve` on the integer rows at K,
    its Farkas vector as multipliers of the build_system constraints."""
    system = integer_system(spec, d, opts)
    rows, scales = system.at(K)
    res = simplex.solve(rows, list(system.senses), scales, system.nvars)
    if res.feasible:
        return res
    return simplex.FeasibilityResult(False, None, simplex.row_multipliers(res.farkas, scales))


def check_report(spec, d, K, opts, rep):
    """The report's certificate passes substitution into build_system at K."""
    cons, _ = build_system(spec, d, K, opts)
    if rep.feasible:
        assert rep.farkas is None and verify_witness(cons, rep.witness)
    else:
        assert rep.witness is None and verify_farkas(cons, rep.farkas)


@pytest.mark.parametrize("spec,d,opts", SYSTEMS)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_template_equals_build_system(spec, d, opts, p, q):
    K = F(p, q)
    system = integer_system(spec, d, opts)
    rows, scales = system.at(K)
    cons, nvars = build_system(spec, d, K, opts)
    assert system.nvars == nvars and list(system.senses) == [c.sense for c in cons]
    for c, row, s in zip(cons, rows, scales):
        assert s > 0 and [F(x, s) for x in row] == [*c.coeffs, c.rhs]


# two members of each of the eight families, with and without a self-dual
# signature where the family has both
GRID_SPECS = (QHamming(2, 3), QHamming(3, 2), Su2(4), Su2(5), SuqSym(2, 3), SuqSym(3, 3),
              SunExt(4, 2), SunExt(5, 2), CliffordOdd(2), CliffordOdd(3), CliffordEven(2),
              CliffordEven(3), Spinorial(2), Spinorial(3), Semispinorial(4), Semispinorial(5))
GRID = tuple((spec, d, LPOptions(self_dual, pure))
             for spec in GRID_SPECS for d in range(1, profile(spec).diameter_r + 2)
             for self_dual in (False, True) for pure in (False, True)
             if not self_dual or lambda_signature(spec) is not None)


def reference_system(spec, d, K, opts=LPOptions()):
    """The LP of the lp module docstring at K, written out row by row."""
    prof = profile(spec)
    r = prof.diameter_r
    if not (1 <= d <= r + 1):
        raise ValueError(f"distance d={d} outside 1..{r + 1}")
    lp.check_options(spec, opts)
    W = wtj_matrix(spec)
    nvars = r + 1
    cons = []

    def row(t):
        return [K * W[t][j] for j in range(nvars)]

    e = lambda t: tuple(F(1 if j == t else 0) for j in range(nvars))
    cons.append(simplex.Constraint(e(0), simplex.EQ, K))
    for t in range(r + 1):
        coeffs = row(t)
        coeffs[t] -= 1
        sense = simplex.EQ if t < d else simplex.GE
        cons.append(simplex.Constraint(tuple(coeffs), sense, F(0)))
    if opts.self_dual:
        lam = lambda_signature(spec)
        for t in range(r + 1):
            cons.append(simplex.Constraint(tuple(lam[j] * W[t][j] for j in range(nvars)),
                                           simplex.GE, F(0)))
    if opts.pure:
        for t in range(1, d):
            cons.append(simplex.Constraint(e(t), simplex.EQ, F(0)))
    return cons, nvars


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_build_system_and_template_equal_the_reference_system(p, q):
    K = F(p, q)
    for spec, d, opts in GRID:
        cons, nvars = reference_system(spec, d, K, opts)
        assert build_system(spec, d, K, opts) == (cons, nvars)
        system = integer_system(spec, d, opts)
        rows, scales = system.at(K)
        assert system.nvars == nvars and list(system.senses) == [c.sense for c in cons]
        assert [[F(x, s) for x in row] for row, s in zip(rows, scales)] \
            == [[*c.coeffs, c.rhs] for c in cons]


def test_template_scales_are_the_lcm_of_each_row_s_denominators():
    # at K = 1 row i is (A_i + B_i) / c_i, whose denominators are those of
    # the row's W entries; so no common factor is left to divide out of c_i,
    # A_i and B_i
    for spec, d, opts in GRID:
        cons, _ = reference_system(spec, d, F(1), opts)
        system = integer_system(spec, d, opts)
        for con, c, ai, bi in zip(cons, system.scales, system.A, system.B, strict=True):
            assert c == lcm(*(x.denominator for x in (*con.coeffs, con.rhs)))
            assert gcd(c, *ai, *bi) == 1


def test_template_is_cached_and_built_without_build_system(monkeypatch):
    integer_system.cache_clear()
    calls = []
    original = lp.build_system

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "build_system", counting)
    for K in (F(2), F(5, 2), F(3)):
        feasible(Su2(8), 3, K, SD, WarmStart())
    assert calls == [] and integer_system.cache_info().misses == 1


@st.composite
def probe_sequences(draw):
    """An lp_bound-style search: each probe splits the current bracket."""
    spec, d, opts = draw(st.sampled_from(SYSTEMS))
    cut = st.builds(F, st.integers(1, 99), st.just(100)) | st.just(F(1, 2))
    return spec, d, opts, draw(st.lists(cut, min_size=1, max_size=10)), \
        draw(st.builds(F, st.integers(1, 1000), st.integers(1, 1000)))


@given(probe_sequences())
@settings(max_examples=40, deadline=None)
def test_warm_and_cold_verdicts_agree_along_probe_sequences(data):
    spec, d, opts, cuts, lo = data
    dim_h = profile(spec).dim_H
    lo, hi = min(lo, F(dim_h)), F(dim_h)
    warm = WarmStart()
    for K in [lo, hi] + [None] * len(cuts):
        if K is None:
            K = lo + (hi - lo) * cuts.pop()
        cold = cold_report(spec, d, K, opts)
        front = feasible(spec, d, K, opts)
        hot = feasible(spec, d, K, opts, warm)
        assert hot.feasible == front.feasible == cold.feasible
        for rep in (cold, front, hot):
            check_report(spec, d, K, opts, rep)
        if hot.feasible:
            lo = K
        else:
            hi = K


@pytest.mark.parametrize("spec,d,opts,tol,integer,lower,upper", LP_BOUNDS)
def test_lp_bounds_keep_their_brackets_and_certify_every_probe(
        spec, d, opts, tol, integer, lower, upper, monkeypatch):
    probes, bases = [], []

    def recording(spec_, d_, K, opts_=LPOptions(), warm=None):
        rep = original(spec_, d_, K, opts_, warm)
        probes.append((F(K), rep))
        bases.append(warm)
        return rep

    original = lp.feasible
    monkeypatch.setattr(lp, "feasible", recording)
    res = lp_bound(spec, d, opts, tol=tol, integer=integer)
    assert (format_fraction(res.lower), format_fraction(res.upper)) == (lower, upper)
    warm = bases[0]
    assert all(w is warm for w in bases)
    assert warm.warm_feasible + warm.warm_infeasible + warm.guided + warm.cold == len(probes)
    assert warm.guided > 0 and warm.cold < len(probes)
    for K, rep in probes:
        check_report(spec, d, K, opts, rep)


def test_bench_bounds_are_float_guided(monkeypatch):
    # a cold solve runs only where neither stored basis nor the float basis passes
    warms = []
    real = simplex.WarmStart.__init__

    def recording(self):
        real(self)
        warms.append(self)

    monkeypatch.setattr(simplex.WarmStart, "__init__", recording)
    for spec, d, opts, tol, integer, lower, upper in LP_BOUNDS:
        res = lp_bound(spec, d, opts, tol=tol, integer=integer)
        assert (format_fraction(res.lower), format_fraction(res.upper)) == (lower, upper)
    assert len(warms) == len(LP_BOUNDS)
    assert sum(w.guided for w in warms) > 0
    assert sum(w.cold for w in warms) <= 2


def test_cold_infeasible_verdicts_carry_a_farkas_vector():
    for spec, d, opts in SYSTEMS:
        dim_h = profile(spec).dim_H
        for K in (F(dim_h), F(dim_h, 2) + F(1, 7)):
            rep = cold_report(spec, d, K, opts)
            check_report(spec, d, K, opts, rep)
    rep = cold_report(Su2(8), 3, F(19, 9) + F(1, 10 ** 9), SD)
    assert not rep.feasible
    cons, _ = build_system(Su2(8), 3, F(19, 9) + F(1, 10 ** 9), SD)
    assert verify_farkas(cons, rep.farkas)
    assert not verify_farkas(cons, tuple(-v for v in rep.farkas))
    # y^T b > 0 fails once the system is feasible
    assert not verify_farkas(build_system(Su2(8), 3, F(2), SD)[0], rep.farkas)


def final_bases(spec, d, opts, feasible_k, infeasible_k):
    system = integer_system(spec, d, opts)
    out = []
    for K in (feasible_k, infeasible_k):
        rows, scales = system.at(K)
        out.append(simplex.solve(rows, list(system.senses), scales, system.nvars).basis)
    return out


def swap_structural(basis):
    cols, tight, arts = basis
    other = min(set(range(9)) - set(cols))
    return tuple(sorted(cols[1:] + (other,))), tight, arts


@pytest.mark.parametrize("tamper,malformed", [
    (lambda b: (b[0], b[1][:-1], b[2]), True),           # a tight row missing
    (lambda b: (b[0][1:], b[1], b[2]), True),            # a basic column missing
    (swap_structural, False),                            # another vertex
])
def test_tampered_bases_fall_back_to_a_cold_solve(tamper, malformed):
    spec, d, opts = Su2(8), 3, SD
    fb, ib = final_bases(spec, d, opts, F(2), F(3))
    assert fb[0] and ib[0]  # so a column can go missing
    for K in (F(2), F(41, 20), F(3), F(5)):
        warm = WarmStart()
        warm.feasible_basis, warm.infeasible_basis = tamper(fb), tamper(ib)
        rep = feasible(spec, d, K, opts, warm)
        assert rep.feasible == cold_report(spec, d, K, opts).feasible
        check_report(spec, d, K, opts, rep)
        if malformed:
            assert warm.guided + warm.cold == 1


def test_bases_are_dropped_when_the_shape_changes():
    # the d = 3 final bases re-solve at their own K when stored before the
    # first solve, but not after a solve at d = 2, where row 3 (t = 2) is a
    # >= row
    spec, opts = Su2(8), SD
    fb, ib = final_bases(spec, 3, opts, F(2), F(3))
    for K in (F(2), F(3)):
        for first in (None, 2):
            warm = WarmStart()
            if first is not None:
                feasible(spec, first, F(1), opts, warm)
            warm.feasible_basis, warm.infeasible_basis = fb, ib
            before = warm.warm_feasible + warm.warm_infeasible
            rep = feasible(spec, 3, K, opts, warm)
            assert rep.feasible == cold_report(spec, 3, K, opts).feasible
            check_report(spec, 3, K, opts, rep)
            assert warm.warm_feasible + warm.warm_infeasible - before == (first is None)


def test_swapped_bases_are_rejected_by_substitution():
    # the infeasible basis's vertex and the feasible basis's dual both fail
    spec, d, opts = CliffordOdd(8), 3, LPOptions()
    fb, ib = final_bases(spec, d, opts, F(11), F(12))
    for K, verdict in ((F(11), True), (F(12), False)):
        warm = WarmStart()
        warm.feasible_basis, warm.infeasible_basis = ib, fb
        rep = feasible(spec, d, K, opts, warm)
        assert rep.feasible is verdict
        assert warm.guided + warm.cold == 1
        assert warm.warm_feasible == warm.warm_infeasible == 0
        check_report(spec, d, K, opts, rep)


FLIPPED_DUAL = """
from fractions import Fraction
from qdelsarte import simplex
from qdelsarte.families import CliffordOdd
from qdelsarte.lp import feasible
from qdelsarte.simplex import WarmStart
warm = WarmStart()
feasible(CliffordOdd(8), 3, Fraction(13), warm=warm)  # keeps an infeasible basis
real = simplex._solve_square
def flipped(M, b):
    sol = real(M, b)
    return None if sol is None else ([-v for v in sol[0]], sol[1])
simplex._solve_square = flipped
ok = feasible(CliffordOdd(8), 3, Fraction(11), warm=WarmStart()).feasible
for w in (None, warm):
    try:
        feasible(CliffordOdd(8), 3, Fraction(12), warm=w)
    except ArithmeticError:
        continue
    raise SystemExit("a flipped Farkas vector was accepted")
print("raised", ok, warm.warm_infeasible)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_flipped_dual_raises_also_under_optimize(flags):
    # the warm dual fails substitution, and so does the cold solve's own
    res = subprocess.run([sys.executable, *flags, "-c", FLIPPED_DUAL],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["raised", "True", "0"]


NEVER_TRUSTED = """
from fractions import Fraction as F
from qdelsarte import simplex
from qdelsarte.families import Su2
from qdelsarte.lp import LPOptions, build_system, feasible, integer_system
from qdelsarte.simplex import WarmStart, verify_farkas, verify_witness
spec, d, opts = Su2(8), 3, LPOptions(self_dual=True)
system = integer_system(spec, d, opts)
def cold(K):
    rows, scales = system.at(K)
    return simplex.solve(rows, list(system.senses), scales, system.nvars)
def final_basis(K):
    return cold(K).basis
fb, ib = final_basis(F(2)), final_basis(F(3))
real = simplex.float_basis
def other_vertex(rows, senses, scales, nvars):
    cols, tight, arts = real(rows, senses, scales, nvars)
    other = min(set(range(nvars)) - set(cols))
    return tuple(sorted(cols[1:] + (other,))), tight, arts
def swapped(rows, senses, scales, nvars):
    return ib if simplex.solve(rows, senses, scales, nvars).feasible else fb
guesses = {
    "malformed": lambda *args: (fb[0], fb[1][:-1], fb[2]),
    "other-vertex": other_vertex,
    "swapped": swapped,
    "none": lambda *args: None,
}
calls = 0
for name, guess in guesses.items():
    def counting(*args, guess=guess):
        global calls
        calls += 1
        return guess(*args)
    simplex.float_basis = counting
    guided = 0
    for K in (F(2), F(41, 20), F(3), F(5)):
        warm = WarmStart()
        rep = feasible(spec, d, K, opts, warm)
        if rep.feasible != cold(K).feasible:
            raise SystemExit(f"{name}: a wrong verdict at K={K}")
        cons, _ = build_system(spec, d, K, opts)
        if not (verify_witness(cons, rep.witness) if rep.feasible
                else verify_farkas(cons, rep.farkas)):
            raise SystemExit(f"{name}: a certificate fails substitution at K={K}")
        guided += warm.guided
    if name in ("malformed", "none") and guided:
        raise SystemExit(f"{name}: a guess that cannot pass was accepted")
print("checked", calls)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_float_basis_is_never_trusted(flags):
    # bad guesses from the float phase: each verdict is the cold one, certified
    res = subprocess.run([sys.executable, *flags, "-c", NEVER_TRUSTED],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["checked", "16"]


def reference_solve(self, rows, senses, scales, nvars):
    """`WarmStart.solve` with one fixed attempt order, whatever the last
    verdict and the float basis: the vertex of the last feasible basis, the
    dual of the last infeasible basis, the vertex and then the dual of the
    float basis, and a cold solve."""
    simplex._check_shape(rows, senses, scales, nvars)
    if self.feasible_basis is not None:
        point = simplex.point_from_basis(rows, senses, nvars, self.feasible_basis)
        if point is not None:
            self.warm_feasible += 1
            return simplex.FeasibilityResult(True, point, None, self.feasible_basis)
    if self.infeasible_basis is not None:
        y = simplex.farkas_from_basis(rows, senses, scales, nvars, self.infeasible_basis)
        if y is not None:
            self.warm_infeasible += 1
            return simplex.FeasibilityResult(False, None, y, self.infeasible_basis)
    try:
        guess = simplex.float_basis(rows, senses, scales, nvars)
    except OverflowError:  # an entry beyond the float range
        guess = None
    if guess is not None:
        point = simplex.point_from_basis(rows, senses, nvars, guess)
        if point is not None:
            self.guided += 1
            self.feasible_basis = guess
            return simplex.FeasibilityResult(True, point, None, guess)
        y = simplex.farkas_from_basis(rows, senses, scales, nvars, guess)
        if y is not None:
            self.guided += 1
            self.infeasible_basis = guess
            return simplex.FeasibilityResult(False, None, y, guess)
    sol = simplex.solve(rows, senses, scales, nvars)
    self.cold += 1
    if sol.feasible:
        self.feasible_basis = sol.basis
    else:
        self.infeasible_basis = sol.basis
    return sol


def warm_state(warm):
    return (warm.feasible_basis, warm.infeasible_basis,
            warm.warm_feasible, warm.warm_infeasible, warm.guided, warm.cold)


@st.composite
def bisections(draw):
    """An lp_bound search on a SYSTEMS family at d = 2..4: K = 1, K = dim H,
    then each probe splits the current bracket."""
    spec, _, opts = draw(st.sampled_from(SYSTEMS))
    d = draw(st.integers(2, min(4, profile(spec).diameter_r + 1)))
    cut = st.just(F(1, 2)) | st.builds(F, st.integers(1, 99), st.just(100))
    return spec, d, opts, draw(st.lists(cut, max_size=20))


@given(bisections())
@settings(max_examples=40, deadline=None)
def test_attempt_order_changes_no_result(data):
    # the reordered attempts skip only re-solves that cannot pass
    spec, d, opts, cuts = data
    system = integer_system(spec, d, opts)
    lo, hi = F(1), F(profile(spec).dim_H)
    warm, ref = WarmStart(), WarmStart()
    for K in [lo, hi] + [None] * len(cuts):
        if K is None:
            K = lo + (hi - lo) * cuts.pop()
        rows, scales = system.at(K)
        got = warm.solve(rows, system.senses, scales, system.nvars)
        assert got == reference_solve(ref, rows, list(system.senses), scales, system.nvars)
        assert warm_state(warm) == warm_state(ref)
        # the front door's fresh WarmStart
        cons, nvars = build_system(spec, d, K, opts)
        front = simplex.check_feasible(cons, nvars)
        with patch.object(simplex.WarmStart, "solve", reference_solve):
            assert simplex.check_feasible(cons, nvars) == front
        assert front.feasible == got.feasible
        if got.feasible:
            lo = K
        else:
            hi = K


@pytest.mark.parametrize("spec,d,opts", SYSTEMS)
def test_kernels_take_senses_as_a_tuple(spec, d, opts):
    # lp.feasible passes IntegerSystem.senses, a tuple, as it is
    system = integer_system(spec, d, opts)
    rows, scales = system.at(F(profile(spec).dim_H, 2) + F(1, 7))
    nvars, senses = system.nvars, system.senses
    assert isinstance(senses, tuple)
    res = simplex.solve(rows, senses, scales, nvars)
    for f in (simplex.solve, simplex.float_basis, lambda *args: WarmStart().solve(*args)):
        assert f(rows, senses, scales, nvars) == f(rows, list(senses), scales, nvars)
    assert simplex.point_from_basis(rows, senses, nvars, res.basis) == res.witness
    assert simplex.farkas_from_basis(rows, senses, scales, nvars, res.basis) == res.farkas


def test_an_infeasible_run_re_solves_once_per_probe(monkeypatch):
    # after an infeasible verdict, the next infeasible probe tries the stored
    # infeasible basis first, and its Farkas vector passes
    warm = WarmStart()
    assert feasible(Su2(8), 3, F(1), SD, warm).feasible
    assert not feasible(Su2(8), 3, F(9), SD, warm).feasible
    calls = counting_calls(monkeypatch, "_solve_square")
    assert not feasible(Su2(8), 3, F(5), SD, warm).feasible
    assert len(calls) == 1 and warm.warm_infeasible == 1


# the benchmark's table-sweep cells: d = 2..4 within the diameter
TABLE_SWEEP = tuple(
    (spec, d, opts)
    for specs, opts in (([CliffordOdd(n) for n in range(3, 9)], LPOptions()),
                        ([QHamming(2, n) for n in range(2, 8)], LPOptions()),
                        ([SuqSym(3, n) for n in range(2, 7)], LPOptions()),
                        ([Su2(n) for n in range(4, 9)], SD))
    for spec in specs for d in (2, 3, 4) if d <= profile(spec).diameter_r + 1)


@pytest.mark.parametrize("bounds,squares,floats,probes,settled,vectors", [
    (tuple((spec, d, opts, F(1, 2000), False) for spec, d, opts in TABLE_SWEEP),
     928, 102, 793, 421, 546),
    (tuple(case[:5] for case in LP_BOUNDS), 156, 19, 104, 20, 20),
], ids=["table-sweep", "lp-bounds"])
def test_bounds_keep_their_amount_of_work(bounds, squares, floats, probes, settled, vectors,
                                          monkeypatch):
    # before probes were settled in closed form: 1,214 and 124 LP probes,
    # 217 and 30 float bases, at most 1,850 and 215 square re-solves
    # (2,305 and 240 when every probe tried the feasible basis first)
    square_calls = counting_calls(monkeypatch, "_solve_square")
    guesses = counting_calls(monkeypatch, "float_basis")
    colds = counting_cold_solves(monkeypatch)
    lp_probes = counting_calls(monkeypatch, "feasible", lp)
    tries = counting_calls(monkeypatch, "dist2_multipliers", lp)
    verdicts = []
    real_settle = lp.ClosedForms.settle

    def settle(*args):
        verdicts.append(rep := real_settle(*args))
        return rep

    monkeypatch.setattr(lp.ClosedForms, "settle", settle)
    for spec, d, opts, tol, integer in bounds:
        lp_bound(spec, d, opts, tol=tol, integer=integer)
    assert len(TABLE_SWEEP) == 64
    assert (len(square_calls), len(guesses), len(lp_probes)) == (squares, floats, probes)
    assert sum(rep is not None for rep in verdicts) == settled and colds == []
    # the distance-2 vector is skipped at or below a K where it failed
    assert len(tries) == vectors


def test_rows_beyond_the_float_range_are_solved_cold():
    # x = 10**400 overflows the float phase, which then leaves the probe to solve
    warm = WarmStart()
    res = warm.solve([[1, 10 ** 400]], [simplex.EQ], [1], 1)
    assert res.feasible and res.witness == (10 ** 400,)
    assert warm.guided == 0 and warm.cold == 1


# the optima of the five LP_BOUNDS above 1, the benchmark's bound order
OPTIMA = (F(208, 7), F(56, 5), F(19, 9), F(5, 3), F(12, 7))


def front_door_probes(seed):
    """The benchmark's seeded `feasible` probes: two K in (1, optimum) per
    bound, drawn in bound order, then Su2(30) d=2 at its optimum 15 and just
    above it."""
    rng = random.Random(seed)
    probes = []
    for (spec, d, opts, *_), opt in zip(LP_BOUNDS, OPTIMA):
        opts = LPOptions(self_dual=opts.self_dual)  # the probes pass no --pure
        for _ in range(2):
            probes.append((spec, d, opts, 1 + (opt - 1) * F(rng.randrange(1, 1000), 1000), True))
    probes += [(Su2(30), 2, LPOptions(), F(15), True),
               (Su2(30), 2, LPOptions(), F(15) + F(1, 1000), False)]
    return probes


def counting_calls(monkeypatch, name, module=simplex):
    """The argument tuples of every call of <module>.<name> from now on."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def counting_cold_solves(monkeypatch):
    return counting_calls(monkeypatch, "solve")


@pytest.mark.parametrize("seed", [1, 11, 29])
def test_front_door_probes_of_the_benchmark_run_no_cold_solve(seed, monkeypatch):
    probes = front_door_probes(seed)
    calls = counting_cold_solves(monkeypatch)
    reports = [(spec, d, opts, K, verdict, feasible(spec, d, K, opts))
               for spec, d, opts, K, verdict in probes]
    assert len(reports) == 12 and calls == []
    for spec, d, opts, K, verdict, rep in reports:
        assert rep.feasible is verdict
        check_report(spec, d, K, opts, rep)


@pytest.mark.parametrize("spec,d,opts,K", [
    (Su2(8), 3, SD, F(2)),
    (Su2(8), 3, SD, F(3)),
    (CliffordOdd(8), 3, LPOptions(), F(56, 5)),
    (QHamming(2, 6), 3, LPOptions(), F(17, 3)),
])
def test_front_door_without_a_float_basis_solves_cold_once(spec, d, opts, K, monkeypatch):
    guided = feasible(spec, d, K, opts)
    monkeypatch.setattr(simplex, "float_basis", lambda *args: None)
    calls = counting_cold_solves(monkeypatch)
    rep = feasible(spec, d, K, opts)
    assert len(calls) == 1
    assert rep.feasible == guided.feasible
    check_report(spec, d, K, opts, rep)


def test_front_door_goes_through_check_feasible(monkeypatch):
    calls = []
    real = lp.check_feasible

    def recording(cons, nvars):
        calls.append(nvars)
        return real(cons, nvars)

    monkeypatch.setattr(lp, "check_feasible", recording)
    feasible(Su2(8), 3, F(2), SD)
    assert calls == [9]


# lp_bound(spec, 3) brackets at scale, pinned from the all-artificial start
SCALE_BOUNDS = {
    "odd40": (CliffordOdd(40), "1839225201223993205718031097/144115188075855872",
              "229903150152999288153707359/18014398509481984"),
    "spin40": (Spinorial(40), "46720674694436317334886947/144115188075855872",
               "23360337347218708423257361/72057594037927936"),
    "odd50": (CliffordOdd(50),
              "391419301643394698064152807401157/36893488147419103232",
              "1565677206573578793382511136447251/147573952589676412928"),
}


@pytest.mark.parametrize("case,cold", [("odd40", False), ("spin40", False), ("odd50", True)])
def test_scale_bounds_keep_their_brackets_from_the_slack_start(case, cold, monkeypatch):
    # the float basis passes on every probe of odd40 and spin40; odd50 still
    # reaches the cold kernel
    spec, lower, upper = SCALE_BOUNDS[case]
    calls = counting_cold_solves(monkeypatch)
    res = lp_bound(spec, 3)
    assert (format_fraction(res.lower), format_fraction(res.upper), res.exact) == \
        (lower, upper, False)
    assert bool(calls) is cold


def scale_k(case, end):
    return F(SCALE_BOUNDS[case][1 + end])


# (spec, d, opts, K, verdict, most pivots): the six LP_BOUNDS at their
# optima, the scale bounds at both ends of their brackets and Su2(30) d=2 at
# its optimum 15; the Farkas re-solve of an infeasible one (Bareiss, in
# _solve_square) pivots no tableau, so it is not counted (10 and 46 when it was)
PIVOT_GUARD = (
    *((spec, d, opts, K, True, n) for (spec, d, opts, *_), K, n
      in zip(LP_BOUNDS, OPTIMA + (F(1),), (17, 6, 12, 7, 34, 22))),
    (CliffordOdd(40), 3, LPOptions(), scale_k("odd40", 0), True, 7),
    (CliffordOdd(40), 3, LPOptions(), scale_k("odd40", 1), False, 7),
    (Spinorial(40), 3, LPOptions(), scale_k("spin40", 0), True, 42),
    (Spinorial(40), 3, LPOptions(), scale_k("spin40", 1), False, 42),
    (Su2(30), 2, LPOptions(), F(15), True, 3),
)


@pytest.mark.parametrize("spec,d,opts,K,verdict,most", PIVOT_GUARD, ids=[
    "qhamming10", "odd8", "su2-8", "suqsym5", "even5", "su2-12",
    "odd40-lower", "odd40-upper", "spin40-lower", "spin40-upper", "su2-30"])
def test_cold_solves_keep_their_pivot_counts(spec, d, opts, K, verdict, most, monkeypatch):
    # a pricing change that multiplies the pivots fails here, untimed
    pivots = []
    real = simplex._pivot

    def counting(*args):
        pivots.append(1)
        return real(*args)

    system = integer_system(spec, d, opts)
    rows, scales = system.at(K)
    monkeypatch.setattr(simplex, "_pivot", counting)
    res = simplex.solve(rows, list(system.senses), scales, system.nvars)
    assert res.feasible is verdict
    assert len(pivots) <= most
