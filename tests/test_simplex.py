"""Exact rational phase-1 simplex."""

from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte import simplex
from qdelsarte.families import CliffordOdd, Su2
from qdelsarte.lp import LPOptions, feasible
from qdelsarte.simplex import (EQ, GE, Constraint, WarmStart, check_feasible,
                               farkas_from_basis, float_basis, point_from_basis,
                               row_multipliers, solve, verify_farkas, verify_witness)
from reference import gauss_jordan_solve

F = Fraction


def c(coeffs, sense, rhs):
    return Constraint(tuple(F(x) for x in coeffs), sense, F(rhs))


def integer_rows(cons):
    rows, scales = [], []
    for c in cons:
        row = (*c.coeffs, c.rhs)
        s = lcm(*(x.denominator for x in row))
        rows.append([int(x * s) for x in row])
        scales.append(s)
    return rows, scales, [c.sense for c in cons]


def both_paths(cons, nvars):
    """The float-guided front door and the cold kernel on the same rows.

    The kernel's Farkas vector is turned into multipliers of cons, as
    check_feasible returns it; the two verdicts must agree.
    """
    rows, scales, senses = integer_rows(cons)
    cold = solve(rows, senses, scales, nvars)
    if cold.farkas is not None:
        cold = replace(cold, farkas=row_multipliers(cold.farkas, scales))
    guided = check_feasible(cons, nvars)
    assert guided.feasible == cold.feasible
    return guided, cold


def test_trivial_feasible():
    res = check_feasible([c([1, 1], "eq", 2)], 2)
    assert res.feasible
    assert verify_witness([c([1, 1], "eq", 2)], res.witness)


def test_trivial_infeasible():
    # x >= 0 with x = -1
    assert not check_feasible([c([1], "eq", -1)], 1).feasible
    # x + y = 1, x >= 2, y >= 2 has no nonnegative solution
    cons = [c([1, 1], "eq", 1), c([1, 0], "ge", 2), c([0, 1], "ge", 2)]
    assert not check_feasible(cons, 2).feasible


def test_equality_pair_pins_point():
    cons = [c([1, 2], "eq", 5), c([3, 1], "eq", 5)]
    res = check_feasible(cons, 2)
    assert res.feasible
    assert res.witness == (F(1), F(2))


def test_degenerate_and_redundant_rows():
    cons = [c([1, 1], "eq", 1), c([2, 2], "eq", 2), c([1, 0], "ge", 0)]
    res = check_feasible(cons, 2)
    assert res.feasible and verify_witness(cons, res.witness)


def test_exact_rationals_no_drift():
    # system whose only solution has large denominators
    cons = [c([F(1, 3), F(1, 7)], "eq", 10),
            c([F(1, 5), F(-1, 13)], "eq", 1)]
    res = check_feasible(cons, 2)
    assert res.feasible
    x, y = res.witness
    assert F(1, 3) * x + F(1, 7) * y == 10
    assert F(1, 5) * x - F(1, 13) * y == 1
    assert x.denominator > 1 and y.denominator > 1


@st.composite
def random_systems(draw):
    nvars = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(nrows):
        coeffs = tuple(F(draw(entry)) for _ in range(nvars))
        sense = draw(st.sampled_from(["eq", "ge"]))
        rows.append((coeffs, sense))
    return nvars, rows


@given(random_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_feasible_iff_witness_and_planted_points_found(sys_data, data):
    """Plant a nonnegative point, build RHS from it: must be feasible.

    Any returned witness must satisfy the constraints by exact substitution.
    """
    nvars, rows = sys_data
    point = tuple(F(data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3)))
                  for _ in range(nvars))
    cons = []
    for coeffs, sense in rows:
        val = sum(a * x for a, x in zip(coeffs, point))
        rhs = val if sense == "eq" else val - data.draw(st.integers(0, 2))
        cons.append(Constraint(coeffs, sense, rhs))
    for res in both_paths(cons, nvars):
        assert res.feasible
        assert verify_witness(cons, res.witness)
        assert all(x >= 0 for x in res.witness)


@st.composite
def rational_systems(draw):
    """A planted nonnegative point and rational rows whose rhs may be negative."""
    nvars = draw(st.integers(1, 4))
    frac = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
    point = tuple(draw(st.builds(F, st.integers(0, 5), st.integers(1, 7)))
                  for _ in range(nvars))
    cons = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = tuple(draw(frac) for _ in range(nvars))
        sense = draw(st.sampled_from(["eq", "ge"]))
        val = sum(a * x for a, x in zip(coeffs, point))
        rhs = val if sense == "eq" else val - draw(st.builds(F, st.integers(0, 3),
                                                             st.integers(1, 7)))
        cons.append(Constraint(coeffs, sense, rhs))
    return nvars, cons


@given(rational_systems())
@settings(max_examples=200, deadline=None)
def test_rational_rows_and_negative_rhs(sys_data):
    """Row scaling to integers and the >= to <= flip keep planted points feasible."""
    nvars, cons = sys_data
    for res in both_paths(cons, nvars):
        assert res.feasible
        assert verify_witness(cons, res.witness)


def test_lp_witnesses_are_pinned():
    # at a published optimum the feasible set is one vertex, so every
    # verified solve, float-guided or cold, returns the same witness
    su2 = feasible(Su2(8), 3, F(19, 9), LPOptions(self_dual=True))
    assert su2.witness == (F(19, 9), 0, 0, 0, 0, 0, F(32, 15), F(9, 2), F(23, 90))
    odd = feasible(CliffordOdd(8), 3, F(56, 5))
    assert odd.witness == (F(56, 5), 0, 0, 0, 0, 0, 0, F(544, 5), 136)


@given(random_systems())
@settings(max_examples=150, deadline=None)
def test_verdicts_are_self_consistent(sys_data):
    nvars, rows = sys_data
    cons = [Constraint(coeffs, sense, F(1)) for coeffs, sense in rows]
    for res in both_paths(cons, nvars):
        if res.feasible:
            assert verify_witness(cons, res.witness)
        else:
            assert res.witness is None


@given(random_systems())
@settings(max_examples=150, deadline=None)
def test_the_final_basis_re_solves_to_the_kernel_certificate(sys_data):
    nvars, rows = sys_data
    cons = [Constraint(coeffs, sense, F(1)) for coeffs, sense in rows]
    rows, scales, senses = integer_rows(cons)
    sol = solve(rows, senses, scales, nvars)
    cols, tight, arts = sol.basis
    assert len(cols) == len(tight)
    assert point_from_basis(rows, senses, nvars, sol.basis) == sol.witness
    assert farkas_from_basis(rows, senses, scales, nvars, sol.basis) == sol.farkas
    # a basis that is not square yields no certificate, even one that would
    # pass substitution (x0 = 0 without its tight row re-solves to x = 0)
    if cols:
        for bad in ((cols[1:], tight, arts), (cols, tight[1:], arts)):
            assert point_from_basis(rows, senses, nvars, bad) is None
            assert farkas_from_basis(rows, senses, scales, nvars, bad) is None


@given(rational_systems(), st.lists(st.integers(1, 50), min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_positive_row_rescaling_changes_no_witness(sys_data, factors):
    """The kernel's scales keep the phase-1 objective, so pivots and witness stay."""
    nvars, cons = sys_data
    rows, scales, senses = integer_rows(cons)
    sol = solve([[f * x for x in row] for f, row in zip(factors, rows)], senses,
                [f * s for f, s in zip(factors, scales)], nvars)
    assert sol.feasible and sol.witness == solve(rows, senses, scales, nvars).witness
    # the final basis re-solves to the same vertex
    assert point_from_basis(rows, senses, nvars, sol.basis) == sol.witness


@pytest.mark.parametrize("factor", [1, 2, 3, 7])
def test_rescaling_a_ge_row_keeps_the_surplus_price(factor):
    # x0 + x1/3 = 1, x0 >= 1/2: the surplus of the >= row must not gain
    # Dantzig priority from a common factor of that row
    rows, senses, scales = [[3, 1, 3], [2, 0, 1]], [EQ, GE], [3, 2]
    sol = solve([rows[0], [factor * x for x in rows[1]]], senses, [3, 2 * factor], 2)
    assert sol.witness == solve(rows, senses, scales, 2).witness == (F(1), F(0))


@given(random_systems())
@settings(max_examples=150, deadline=None)
def test_infeasible_verdicts_carry_a_checked_farkas_vector(sys_data):
    nvars, rows = sys_data
    cons = [Constraint(coeffs, sense, F(1)) for coeffs, sense in rows]
    for res in both_paths(cons, nvars):
        if res.feasible:
            assert res.farkas is None
            continue
        assert verify_farkas(cons, res.farkas)
        assert not verify_farkas(cons, tuple(-y for y in res.farkas))


def test_farkas_vector_of_a_small_system():
    # x + y = 1 with x >= 2: (-1) * row0 + 1 * row1 gives -y >= 1
    cons = [c([1, 1], "eq", 1), c([1, 0], "ge", 2)]
    res = check_feasible(cons, 2)
    assert not res.feasible and res.witness is None
    assert verify_farkas(cons, res.farkas)
    assert not verify_farkas(cons, (1, -1))  # negative on a >= row
    assert not verify_farkas(cons, (0, 0))


def test_kernel_rejects_a_nonpositive_scale():
    with pytest.raises(ValueError):
        solve([[1, 1]], ["eq"], [0], 1)


@pytest.mark.parametrize("cons,nvars", [
    ([c([1, 1], "eq", 2)], 3),  # two coefficients for three variables
    ([c([1, 1], "le", 2)], 2),  # no such sense
], ids=["width", "sense"])
def test_front_door_rejects_malformed_rows_before_any_basis(cons, nvars):
    with pytest.raises(ValueError):
        check_feasible(cons, nvars)


@pytest.mark.parametrize("entry", [solve, lambda *args: WarmStart().solve(*args)],
                         ids=["solve", "warm"])
@pytest.mark.parametrize("senses,scales", [
    ([EQ], [1, 1]),          # no sense for x = 3
    ([EQ, EQ], [1]),         # no scale for x = 3
    ([EQ, EQ, GE], [1, 1]),  # a sense with no row
], ids=["senses", "scales", "extra-sense"])
def test_kernels_reject_rows_senses_and_scales_of_unequal_lengths(entry, senses, scales):
    # rows x = 1 and x = 3: zip would drop x = 3 and return the witness (1,)
    with pytest.raises(ValueError):
        entry([[1, 1], [1, 3]], senses, scales, 1)


@pytest.mark.parametrize("half", [F(1, 2), 0.5, "1/2"], ids=["fraction", "float", "string"])
def test_front_door_scales_ints_and_reads_other_entries_as_fractions(half):
    # x + y/2 = 3/2 and 2x >= 1 + y, feasible until y >= 4 is added
    cons = [Constraint((1, half), "eq", F(3, 2)), Constraint((2, -1), "ge", 1)]
    res = check_feasible(cons, 2)
    assert res.feasible and verify_witness([c([1, F(1, 2)], "eq", F(3, 2)),
                                            c([2, -1], "ge", 1)], res.witness)
    assert not check_feasible(cons + [Constraint((0, 1), "ge", 4)], 2).feasible


def test_verify_witness_refuses_a_witness_that_is_too_long():
    # the extra entry would multiply the rhs column: 1*0 + 1*1 - 1 = 0
    assert not verify_witness([c([1], "eq", 1)], (F(0), F(1)))
    assert verify_witness([c([1], "eq", 1)], (F(1),))


def test_verify_witness_refuses_a_witness_that_is_too_short():
    assert not verify_witness([c([1, 1], "eq", 1)], (F(1),))
    assert verify_witness([c([1, 1], "eq", 1)], (F(1), F(0)))


def test_verify_farkas_refuses_constraints_of_unequal_widths():
    # x + y = 3 and x = 1 are feasible; read as rows [1, 1, 3] and [1, 1]
    # the short row's rhs passes for a coefficient of y
    cons = [c([1, 1], "eq", 3), Constraint((F(1),), "eq", F(1))]
    assert not verify_farkas(cons, (1, -1))


def counting_pivots(mp, cap=None):
    """Count simplex._pivot calls; raise past cap, so a cycling kernel fails."""
    calls = []
    real = simplex._pivot

    def counting(*args):
        calls.append(1)
        if cap is not None and len(calls) > cap:
            raise RuntimeError(f"more than {cap} pivots")
        return real(*args)

    mp.setattr(simplex, "_pivot", counting)
    return calls


def test_nonpositive_ge_rows_start_feasible_at_the_slack_basis(monkeypatch):
    # every >= row with b <= 0 holds at x = 0, where its slack starts basic
    rows = [[1, -2, 0, 0], [-1, 3, 1, -2], [0, 1, -1, 0]]
    senses, scales = [GE] * 3, [1, 1, 1]
    assert float_basis(rows, senses, scales, 3) == ((), (), ())
    calls = counting_pivots(monkeypatch)
    res = solve(rows, senses, scales, 3)
    assert res.feasible and res.witness == (0, 0, 0) and calls == []
    assert res.basis == ((), (), ())


def test_only_rows_that_need_one_carry_an_artificial():
    # eq rows (b = 0 too) and >= rows with b > 0; not >= rows with b <= 0
    rows = [[1, 1, 0], [1, -1, 0], [1, 0, 1], [0, 1, -1], [1, 1, -1]]
    senses = [EQ, GE, GE, GE, EQ]
    _, basis, ge_rows, art_rows = simplex._slack_start(rows, senses, 2)
    assert ge_rows == [1, 2, 3] and art_rows == [0, 2, 4]
    # columns: x0, x1, the surpluses of rows 1..3, then the artificials
    assert basis == [5, 2, 6, 4, 7]
    assert simplex._split(basis, 2, ge_rows, art_rows) == ((), (), (0, 2, 4))


@st.composite
def degenerate_systems(draw):
    """Many b = 0 rows on shared columns, plus one normalising row sum x = 1."""
    nvars = draw(st.integers(2, 5))
    entry = st.integers(-2, 2)
    cons = [Constraint(tuple(F(1) for _ in range(nvars)), "eq", F(1))]
    for _ in range(draw(st.integers(3, 9))):
        cons.append(Constraint(tuple(F(draw(entry)) for _ in range(nvars)),
                               draw(st.sampled_from(["eq", "ge", "ge"])), F(0)))
    return nvars, cons


@given(degenerate_systems())
@settings(max_examples=150, deadline=None)
def test_degenerate_systems_terminate_with_one_verdict_for_any_bland_switch(sys_data):
    nvars, cons = sys_data
    rows, scales, senses = integer_rows(cons)
    verdicts = set()
    for after in (simplex.BLAND_AFTER, 1, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "BLAND_AFTER", after)
            counting_pivots(mp, cap=10_000)
            res = solve(rows, senses, scales, nvars)
        verdicts.add(res.feasible)
        if res.feasible:
            assert verify_witness(cons, res.witness)
        else:
            assert verify_farkas(cons, row_multipliers(res.farkas, scales))
    assert len(verdicts) == 1


@st.composite
def square_systems(draw):
    """M x = b with n <= 7, singular about one time in three: a row made a
    combination of two others, or a zero column."""
    n = draw(st.integers(0, 7))
    entry = st.integers(-6, 6) | st.integers(-2 ** 70, 2 ** 70)
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(n)))[:3]
        a, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        if draw(st.booleans()):
            M[i] = [a * x + c * y for x, y in zip(M[j], M[k])]
        else:
            for row in M:
                row[i] = 0
    return M, [draw(entry) for _ in range(n)]


@given(square_systems())
@settings(max_examples=300, deadline=None)
def test_bareiss_solves_return_what_gauss_jordan_does(system):
    # raw (nums, den = |det M|), or None on both for a singular M
    M, b = system
    assert simplex._solve_square(M, b) == gauss_jordan_solve(M, b)
