"""Closed-form probe verdicts: the K = 1 witness, the d = 1 forced point and
the distance-2 Farkas vector, each checked by substitution before use."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelsarte import cli, simplex
from qdelsarte.families import (CliffordEven, QHamming, Semispinorial, Spinorial, Su2, SunExt,
                                SuqSym, profile)
from qdelsarte.lp import (LPOptions, NotApplicable, closed_forms, dist2_bound, feasible,
                          integer_system)
from test_warm import LP_BOUNDS, SYSTEMS, check_report, cold_report

F = Fraction
EPS = F(1, 10 ** 6)


def settled(spec, d, K, opts=LPOptions()):
    """The closed-form verdict at K as lp_bound's probe takes it, or None."""
    return closed_forms(spec, d, opts).settle(integer_system(spec, d, opts), K)


# SYSTEMS' families and three more, at d = 1..4 within the diameter
AGREEMENT = tuple(
    (spec, d, opts)
    for spec, opts in [(spec, opts) for spec, _, opts in SYSTEMS] + [
        (Spinorial(5), LPOptions()), (Semispinorial(6), LPOptions()), (SunExt(6, 3), LPOptions())]
    for d in range(1, min(4, profile(spec).diameter_r + 1) + 1))


@st.composite
def probes(draw):
    spec, d, opts = draw(st.sampled_from(AGREEMENT))
    dim_h = profile(spec).dim_H
    ks = [F(1), F(dim_h)]
    try:
        c = dist2_bound(spec)
        ks += [c - EPS, c + EPS]
    except NotApplicable:
        pass
    ks.append(F(draw(st.integers(1, 1000 * dim_h)), 1000))
    return spec, d, opts, draw(st.sampled_from([k for k in ks if 0 < k <= dim_h]))


@given(probes())
@settings(max_examples=150, deadline=None)
def test_settled_verdicts_are_the_lp_s_and_carry_checked_certificates(probe):
    spec, d, opts, K = probe
    rep = settled(spec, d, K, opts)
    if rep is not None:
        assert rep.feasible == cold_report(spec, d, K, opts).feasible
        check_report(spec, d, K, opts, rep)


def test_k_one_and_the_d1_forced_point_are_settled_feasible():
    for spec, d, opts in AGREEMENT:
        dim_h = F(profile(spec).dim_H)
        rep = settled(spec, d, F(1), opts)
        # with A_t = 0 for 0 < t < d the pure system forbids the witness,
        # whose entries are all positive
        assert (rep is not None and rep.feasible) is not (opts.pure and d > 1)
        if d == 1:
            rep = settled(spec, d, dim_h, opts)
            assert rep.witness == (dim_h,) + (0,) * profile(spec).diameter_r


# (spec, c): dist2_bound applies and c is the d = 2 LP optimum
DIST2_OPTIMA = tuple((spec, dist2_bound(spec)) for spec in (
    QHamming(2, 4), QHamming(2, 6), QHamming(3, 3), Su2(6), Su2(8), Su2(13), CliffordEven(4),
    CliffordEven(5), Spinorial(5), Spinorial(6), Semispinorial(6), Semispinorial(9),
    SunExt(6, 3), SunExt(12, 4), SuqSym(3, 4), SuqSym(3, 5)))


@pytest.mark.parametrize("spec,c", DIST2_OPTIMA, ids=[str(s) for s, _ in DIST2_OPTIMA])
def test_the_distance_2_vector_settles_every_k_above_the_closed_form(spec, c):
    above = settled(spec, 2, c + EPS)
    assert above is not None and not above.feasible
    check_report(spec, 2, c + EPS, LPOptions(), above)
    # at c the LP is feasible, so no Farkas vector can pass there
    assert settled(spec, 2, c) is None and feasible(spec, 2, c).feasible


CORRUPTED = """
import sys
from fractions import Fraction
from qdelsarte import lp
from qdelsarte.families import *
from qdelsarte.lp import LPOptions, lp_bound
from qdelsarte.scalars import format_fraction
real_witness, real_multipliers = lp.unit_witness, lp.dist2_multipliers
lp.unit_witness = lambda W: tuple(2 * x if t == 1 else x for t, x in enumerate(real_witness(W)))
lp.dist2_multipliers = lambda *args: tuple(-v for v in real_multipliers(*args))
settled = probes = 0
real_settle, real_feasible = lp.ClosedForms.settle, lp.feasible
def settle(*args):
    global settled
    rep = real_settle(*args)
    settled += rep is not None
    return rep
def counting(*args):
    global probes
    probes += 1
    return real_feasible(*args)
lp.ClosedForms.settle, lp.feasible = settle, counting
for spec, d, opts, tol, integer, lower, upper in CASES:
    if lp.closed_forms(spec, d, opts).witnesses:
        raise SystemExit(f"a perturbed witness was kept for {spec}")
    res = lp_bound(spec, d, opts, tol=tol, integer=integer)
    if (format_fraction(res.lower), format_fraction(res.upper)) != (lower, upper):
        raise SystemExit(f"{spec}: the bracket moved")
print("settled", settled, "probes", probes)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_corrupted_closed_form_is_never_trusted(flags):
    # a perturbed K = 1 witness and a flipped distance-2 vector fail
    # substitution, so every probe is an LP probe, as before the closed forms
    script = CORRUPTED.replace("CASES", repr(LP_BOUNDS))
    res = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["settled", "0", "probes", "124"]


def test_bound_at_distance_1_solves_no_lp(monkeypatch, capsys):
    calls = []

    def counting(real):
        return lambda *args: calls.append(args) or real(*args)

    monkeypatch.setattr(simplex.WarmStart, "solve", counting(simplex.WarmStart.solve))
    monkeypatch.setattr(simplex, "solve", counting(simplex.solve))
    assert cli.main(["bound", "--family", "qhamming", "--q", "2", "--n", "40", "--d", "1",
                     "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["lower"], doc["upper"], doc["exact"]) == (str(2 ** 40), str(2 ** 40), True)
    assert calls == []
