"""Workload case lists, pinned expected values and the output checks.

A case is one `qdelsarte` CLI invocation: its argv, optional stdin, the exit
code it must return and a check that reads its JSON output by value, never
by string, so a later change that reports an exact rational where the
program now prints a bracket or a rounded decimal is not counted as a failure.

Checks raise CheckFailure; they never use `assert`, which `python -O`
strips.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("lp-bound", "table-sweep", "certify")

DEFAULT_TOL = Fraction(1, 100_000)  # the CLI's --tol default
# A table cell is the lower end of a tol=1/2000 bracket rounded half-up to
# three places, so it may sit up to 1/2000 + 1/2000 from the optimum an
# exact report would print.
TABLE_CELL_TOL = Fraction(1, 1000)
PROBES_PER_BOUND = 2


class CheckFailure(Exception):
    """A CLI invocation returned a wrong exit code or a wrong value."""


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    expect_rc: int = 0
    stdin: str | None = None


def check_case(case: Case, rc: int, stdout: str) -> None:
    """Raise CheckFailure unless (rc, stdout) is a correct answer to case."""
    if rc != case.expect_rc:
        raise CheckFailure(f"exit code {rc}, expected {case.expect_rc}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckFailure("output is not a JSON object")
    case.check(doc)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def _frac(doc: dict, key: str) -> Fraction:
    try:
        return Fraction(doc[key])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailure(f"{key!r} is missing or not a rational: {exc}") from exc


# --- checks ----------------------------------------------------------------

def bound_check(optimum: Fraction, tol: Fraction, integer: bool) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        lower, upper = _frac(doc, "lower"), _frac(doc, "upper")
        exact = doc.get("exact")
        _require(isinstance(exact, bool), "'exact' is not a boolean")
        _require(lower <= upper, f"lower {lower} > upper {upper}")
        if integer:
            # integer mode brackets the largest feasible whole K
            _require(lower == optimum, f"lower {lower} != {optimum}")
            _require(upper <= lower + 1, f"upper {upper} > lower + 1")
            return
        _require(abs(lower - optimum) <= tol, f"lower {lower} not within {tol} of {optimum}")
        _require(abs(upper - optimum) <= tol, f"upper {upper} not within {tol} of {optimum}")
        if exact:
            _require(lower == upper == optimum, f"exact bound [{lower}, {upper}] != {optimum}")
    return check


def feasible_check(K: Fraction, dim_H: int, feasible: bool) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("feasible") is feasible, f"verdict {doc.get('feasible')!r}, expected {feasible}")
        _require(_frac(doc, "k") == K, f"k {doc.get('k')!r} != {K}")
        if not feasible:
            return
        try:
            w = [Fraction(x) for x in doc["witness"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CheckFailure(f"feasible verdict without a rational witness: {exc}") from exc
        _require(bool(w) and w[0] == K, f"witness A_0 = {w[:1]} != K = {K}")
        _require(sum(w) == dim_H, f"witness sums to {sum(w)}, not dim H = {dim_H}")
        _require(all(x >= 0 for x in w), "witness has a negative entry")
    return check


def table_check(rows: dict[int, tuple[str, ...]]) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        got = {r.get("n"): r.get("bounds") for r in doc.get("rows", ())}
        _require(sorted(got) == sorted(rows), f"rows n={sorted(got)}, expected {sorted(rows)}")
        for n, want in rows.items():
            cells = got[n]
            _require(isinstance(cells, list) and len(cells) == len(want),
                     f"n={n}: {cells!r} has the wrong shape")
            for g, w in zip(cells, want):
                if w == "":
                    _require(g == "", f"n={n}: cell {g!r}, expected empty")
                    continue
                _require(isinstance(g, str) and g != "", f"n={n}: cell {g!r}, expected {w}")
                try:
                    value = Fraction(g)
                except ValueError as exc:
                    raise CheckFailure(f"n={n}: cell {g!r} is not a number") from exc
                _require(abs(value - Fraction(w)) <= TABLE_CELL_TOL,
                         f"n={n}: cell {g} differs from {w} by more than {TABLE_CELL_TOL}")
    return check


def clifford_verify_check(dimension: int, distance: int,
                          needs_transform: bool) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("dimension") == dimension, f"dimension {doc.get('dimension')!r} != {dimension}")
        _require(doc.get("min_distance") == distance,
                 f"min_distance {doc.get('min_distance')!r} != {distance}")
        tc = doc.get("transform_check")
        if needs_transform:
            _require(tc is True, f"transform_check {tc!r}, expected true")
        else:
            _require(tc in (None, True), f"transform_check {tc!r}")
    return check


def su2_verify_check(dimension: int) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("dimension") == dimension, f"dimension {doc.get('dimension')!r} != {dimension}")
        _require(doc.get("min_distance") == 2, f"min_distance {doc.get('min_distance')!r} != 2")
    return check


def oracle_check(self_dual: bool) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        _require(doc.get("wtj_match") is True, f"wtj_match {doc.get('wtj_match')!r}")
        lam = doc.get("lambda_match")
        if self_dual:
            _require(lam is True, f"lambda_match {lam!r}, expected true")
        else:
            _require(lam is None, f"lambda_match {lam!r} on a family without a signature")
    return check


# --- lp-bound ----------------------------------------------------------------

# (family flags, d, extra flags, optimum, dim H); optima are the published
# values, each checked feasible at p/q and infeasible just above it.
LP_BOUNDS = (
    ("--family qhamming --q 2 --n 10", 3, "", Fraction(208, 7), 1024),
    ("--family clifford-odd --n 8", 3, "", Fraction(56, 5), 256),
    ("--family su2 --n 8", 3, "--self-dual", Fraction(19, 9), 9),
    ("--family su-sym --q 3 --n 5", 3, "", Fraction(5, 3), 21),
    ("--family clifford-even --n 5", 3, "--self-dual --tol 1/2000", Fraction(12, 7), 32),
    ("--family su2 --n 12", 4, "--self-dual --integer", Fraction(1), 13),
)
SU2_30 = "--family su2 --n 30"
SU2_30_OPT = Fraction(15)


def _tol(extra: str) -> Fraction:
    words = extra.split()
    return Fraction(words[words.index("--tol") + 1]) if "--tol" in words else DEFAULT_TOL


def _lp_bound_cases(rng: random.Random) -> list[Case]:
    cases = []
    for i, (fam, d, extra, opt, dim_H) in enumerate(LP_BOUNDS):
        integer = "--integer" in extra
        argv = ("bound", *fam.split(), "--d", str(d), *extra.split())
        cases.append(Case(f"bound{i}", argv, bound_check(opt, _tol(extra), integer)))
        if opt <= 1:
            continue
        # downward monotonicity: every K in (1, optimum) must be feasible
        flags = [w for w in extra.split() if w == "--self-dual"]
        for p in range(PROBES_PER_BOUND):
            K = 1 + (opt - 1) * Fraction(rng.randrange(1, 1000), 1000)
            argv = ("feasible", *fam.split(), "--d", str(d), *flags, "--k", str(K))
            cases.append(Case(f"probe{i}.{p}", argv, feasible_check(K, dim_H, True)))
    for name, K, ok in (("at", SU2_30_OPT, True), ("above", SU2_30_OPT + Fraction(1, 1000), False)):
        argv = ("feasible", *SU2_30.split(), "--d", "2", "--k", str(K))
        cases.append(Case(f"su2-30-{name}", argv, feasible_check(K, 31, ok), 0 if ok else 1))
    return cases


# --- table-sweep -------------------------------------------------------------

TABLE_TOL = "1/2000"
# cells as printed when this benchmark was written, rows n -> (d=2, d=3, d=4)
TABLES = (
    ("--family clifford-odd --n-from 3 --n-to 8", {
        3: ("4", "1", "1"), 4: ("8", "1", "1"), 5: ("16", "2.666", "1"),
        6: ("32", "3.333", "2.666"), 7: ("64", "8", "3.333"), 8: ("128", "11.200", "8")}),
    ("--family qhamming --q 2 --n-from 2 --n-to 7", {
        2: ("1", "1", ""), 3: ("2", "1", "1"), 4: ("4", "1", "1"), 5: ("8", "2", "1"),
        6: ("16", "2.800", "1"), 7: ("32", "4.800", "1")}),
    ("--family su-sym --q 3 --n-from 2 --n-to 6", {
        2: ("1", "1", ""), 3: ("2", "1", "1"), 4: ("3.333", "1", "1"), 5: ("5", "1.667", "1"),
        6: ("7", "2.500", "1")}),
    ("--family su2 --self-dual --n-from 4 --n-to 8", {
        4: ("2", "1", "1"), 5: ("2.250", "1", "1"), 6: ("3", "1", "1"), 7: ("3.333", "2", "1"),
        8: ("4", "2.111", "1")}),
)


def _table_cases() -> list[Case]:
    return [Case(f"table{i}", ("table", *fam.split(), "--d-from", "2", "--d-to", "4",
                                "--tol", TABLE_TOL), table_check(rows))
            for i, (fam, rows) in enumerate(TABLES)]


# --- certify -----------------------------------------------------------------

# (construct flags, check of `verify` in its default even reading); the
# [[7,1,3]] code runs the matrix cross-check, the n=15 code is symbolic only
CODES = (
    ("--code clifford-hamming --s 3", clifford_verify_check(8, 3, True)),
    ("--code clifford-hamming --s 4", clifford_verify_check(1024, 3, False)),
    # the su2 expectations are the constructions' dimensions at these n
    ("--code su2-third --n 20", su2_verify_check(7)),
    ("--code su2-third --n 40", su2_verify_check(14)),
    ("--code su2-quarter --n 41", su2_verify_check(10)),
)
# (family flags, has a self-dual signature)
ORACLES = (
    ("--family su-ext --n 6 --w 3", True),
    ("--family su-sym --q 3 --n 3", False),
    ("--family su2 --n 6", True),
    ("--family qhamming --q 3 --n 2", False),
    ("--family clifford-odd --n 3", True),
    ("--family clifford-even --n 3", True),
    ("--family spinorial --n 3", True),
    ("--family semispinorial --n 4", True),
)


def _certify_cases(run_cli) -> list[Case]:
    cases = []
    for i, (construct, check) in enumerate(CODES):
        rc, doc, err = run_cli(("construct", *construct.split()), None)
        if rc != 0:
            raise RuntimeError(f"construct {construct} exited {rc}: {err}")
        cases.append(Case(f"verify{i}", ("verify",), check, stdin=doc))
    for i, (fam, self_dual) in enumerate(ORACLES):
        cases.append(Case(f"oracle{i}", ("oracle", *fam.split()), oracle_check(self_dual)))
    return cases


def build_cases(workload: str, seed: int, run_cli) -> list[Case]:
    """The seeded case list of one pass, in the order it runs.

    run_cli(argv, stdin) -> (rc, stdout, stderr) builds the code documents
    that certify verifies; building them is part of set-up.
    """
    rng = random.Random(seed)
    if workload == "lp-bound":
        cases = _lp_bound_cases(rng)
    elif workload == "table-sweep":
        cases = _table_cases()
    elif workload == "certify":
        cases = _certify_cases(run_cli)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
