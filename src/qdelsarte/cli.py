"""Command-line interface.

Subcommands: wtj, bound, feasible, table, construct, verify, oracle.
All exact rationals print as "p/q"; decimal columns are rendered with
round-half-up and never replace the exact values.  Exit codes: 0 success,
1 negative verdict (infeasible system, failed verification, mismatching
oracle), 2 usage error, also for a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import NoReturn

from .families import FAMILY_NAMES, READINGS, Family, FamilyError, profile, validate
from .lp import DEFAULT_TOL, LPOptions, check_options, feasible as lp_feasible, lp_bound
from .scalars import SurdSum, format_fraction, parse_fraction
from .wtj import lambda_signature, wtj_matrix

# `clifford`, `su2` and `oracle` are imported by the commands that use them,
# so `wtj`, `bound`, `feasible` and `table` do not load them.


def _build_family(args, **given) -> Family:
    """The family named by --family, its parameters read from args except
    those given.  A family flag the family does not take is an error."""
    cls = FAMILY_NAMES[args.family]
    _reject_flags(args, args.family, FAMILY_FLAGS, cls.__dataclass_fields__)
    kwargs = {}
    for f in cls.__dataclass_fields__:
        val = given[f] if f in given else getattr(args, f, None)
        if val is None:
            raise FamilyError(f"family {args.family} requires --{f}")
        kwargs[f] = val
    spec = cls(**kwargs)
    validate(spec)
    return spec


FAMILY_FLAGS = ("q", "n", "w")


def _reject_flags(args, name: str, flags, takes) -> None:
    """Raise FamilyError for the first of flags that is set but not in takes."""
    for f in flags:
        if f not in takes and getattr(args, f, None) is not None:
            raise FamilyError(f"{name} takes no --{f}")


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=sorted(FAMILY_NAMES))
    for f in FAMILY_FLAGS:
        p.add_argument(f"--{f}", type=int)


def _decimal(x: Fraction) -> str:
    """x to three decimals, ties away from zero, in integers: every exact
    value prints, however large."""
    units, rest = divmod(abs(x.numerator) * 1000, x.denominator)
    digits = str(units + (2 * rest >= x.denominator)).rjust(4, "0")
    return f"{'-' if x < 0 else ''}{digits[:-3]}.{digits[-3:]}"


def _emit(args, doc: dict, header: list[str] | None = None,
          rows: list[list[str]] | None = None) -> None:
    """Write doc as JSON, or header and rows as a csv or md table, as
    --format asks, to --out or stdout: every command's one way out."""
    if args.format == "json":
        lines = [json.dumps(doc, indent=2)]
    elif args.format == "csv":
        lines = [",".join(r) for r in [header, *rows]]
    else:
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|",
                 *("| " + " | ".join(r) + " |" for r in rows)]
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def cmd_wtj(args) -> int:
    spec = _build_family(args)
    W = wtj_matrix(spec)
    lam = lambda_signature(spec)
    r = profile(spec).diameter_r
    cells = [[format_fraction(x) for x in row] for row in W]
    doc = {"family": args.family, "r": r, "wtj": cells}
    rows = [[str(t), *row] for t, row in enumerate(cells)]
    if lam is not None:
        doc["lambda"] = list(lam)
        rows.append(["lambda", *map(str, lam)])
    _emit(args, doc, ["t\\j", *map(str, range(r + 1))], rows)
    return 0


def cmd_bound(args) -> int:
    spec = _build_family(args)
    opts = LPOptions(self_dual=args.self_dual, pure=args.pure)
    tol = parse_fraction(args.tol)
    res = lp_bound(spec, args.d, opts, tol=tol, integer=args.integer)
    doc = {"family": args.family, "d": args.d,
           "self_dual": opts.self_dual, "pure": opts.pure,
           "integer": args.integer,
           "lower": format_fraction(res.lower),
           "upper": format_fraction(res.upper),
           "exact": res.exact,
           "decimal": _decimal(res.lower)}
    _emit(args, doc, list(doc), [list(map(str, doc.values()))])
    return 0


def cmd_feasible(args) -> int:
    spec = _build_family(args)
    opts = LPOptions(self_dual=args.self_dual, pure=args.pure)
    K = parse_fraction(args.k)
    rep = lp_feasible(spec, args.d, K, opts)
    doc = {"family": args.family, "d": args.d, "k": format_fraction(K),
           "feasible": rep.feasible}
    if rep.witness is not None:
        doc["witness"] = [format_fraction(x) for x in rep.witness]
    # one cell per key: the witness entries are separated by spaces
    _emit(args, doc, ["key", "value"],
          [[k, " ".join(v) if k == "witness" else str(v)] for k, v in doc.items()])
    return 0 if rep.feasible else 1


def _table_cell(job):
    spec, d, opts, tol, integer = job
    r = profile(spec).diameter_r
    if d > r + 1:
        return ""
    res = lp_bound(spec, d, opts, tol=tol, integer=integer)
    return format_fraction(res.lower) if integer or res.exact \
        else _decimal(res.lower)


def _forked_cells(jobs: list, workers: int) -> dict[int, str]:
    """The cells of jobs that `workers` processes computed, by job index:
    this one and workers - 1 forked children.

    Share k is jobs k, k + workers, ...; this process takes share 0, child k
    share k, which it writes to a pipe as `index<TAB>cell` lines.  A share
    that raised, or whose child died, is cut short there, and the caller
    computes the rest.  With fewer than two workers, or no fork, this
    process computes nothing and forks nothing.
    """
    cells: dict[int, str] = {}
    if workers < 2 or not hasattr(os, "fork"):
        return cells
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the caller computes the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _table_child(jobs, range(k, len(jobs), workers), w,
                             (r, *children.values()))
            os.close(w)
            children[pid] = r
        try:
            for i in range(0, len(jobs), workers):
                cells[i] = _table_cell(jobs[i])
        except Exception:  # raised again by the caller, in job order
            pass
        for r in children.values():
            with open(r, "rb", closefd=False) as pipe:
                lines = pipe.read().split(b"\n")[:-1]  # the last is cut short or empty
            for line in lines:
                i, cell = line.decode().split("\t", 1)
                cells[int(i)] = cell
    finally:
        for pid, r in children.items():
            os.close(r)  # a child still writing ends on the broken pipe
            os.waitpid(pid, 0)
    return cells


def _table_child(jobs: list, share: range, fd: int, read_ends: tuple) -> NoReturn:
    """Compute the cells of share into fd, then end this forked process.  It
    never returns into the caller, so no caller code runs and no stdio buffer
    it inherited is flushed twice."""
    status = 1
    try:
        for r in read_ends:  # the parent's, inherited by the fork
            os.close(r)
        for i in share:
            line = f"{i}\t{_table_cell(jobs[i])}\n".encode()
            while line:
                line = line[os.write(fd, line):]
        status = 0
    finally:
        os._exit(status)


def cmd_table(args) -> int:
    for x in ("n", "d"):
        lo, hi = getattr(args, f"{x}_from"), getattr(args, f"{x}_to")
        if lo > hi:
            raise FamilyError(f"empty range: --{x}-from {lo} > --{x}-to {hi}")
    specs = [_build_family(args, n=n) for n in range(args.n_from, args.n_to + 1)]
    opts = LPOptions(self_dual=args.self_dual, pure=args.pure)
    for spec in specs:  # also when every cell lies beyond the diameter
        check_options(spec, opts)
    tol = parse_fraction(args.tol)
    ds = list(range(args.d_from, args.d_to + 1))
    # largest n first: those cells take longest, and the grid is keyed
    jobs = [(spec, d, opts, tol, args.integer) for spec in reversed(specs) for d in ds]
    # the CPUs this process may run on, where the platform tells
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    # QLP_THREADS may lower the count, never raise it past the CPUs or the cells
    threads = os.environ.get("QLP_THREADS", str(cpus))
    if not threads.isdecimal() or int(threads) < 1:
        raise ValueError(f"QLP_THREADS must be a positive integer, got {threads!r}")
    workers = min(int(threads), cpus, len(jobs))
    done = _forked_cells(jobs, workers)
    # computed here, in job order, is every cell no worker delivered: all of
    # them in a serial run, and the rest of a share that raised or whose child
    # died, so an error surfaces just as in a serial run
    cells = [done[i] if i in done else _table_cell(job) for i, job in enumerate(jobs)]
    grid = {}
    for (spec, d, *_), cell in zip(jobs, cells):
        grid[(spec.n, d)] = cell
    doc = {"family": args.family, "d": ds,
           "rows": [{"n": s.n, "bounds": [grid[(s.n, d)] for d in ds]} for s in specs]}
    _emit(args, doc, ["n", *(f"d={d}" for d in ds)],
          [[str(row["n"]), *row["bounds"]] for row in doc["rows"]])
    return 0


# the one size flag each construction takes
CODE_FLAGS = {"clifford-hamming": "s", "su2-third": "n", "su2-quarter": "n"}


def cmd_construct(args) -> int:
    from . import clifford, su2
    flag = CODE_FLAGS[args.code]
    _reject_flags(args, args.code, ("s", "n"), (flag,))
    if getattr(args, flag) is None:
        raise FamilyError(f"{args.code} requires --{flag}")
    if args.code == "clifford-hamming":
        stab = clifford.clifford_hamming(args.s)
        length = 2 * stab.n
        doc = {"family": {"clifford-odd": {"n": stab.n}},
               "kind": "clifford-stabilizer",
               "n": stab.n,
               "generators": [clifford.label_to_str(g, length)
                              for g in stab.generators],
               "signs": list(stab.signs)}
    else:
        vectors = (su2.code_third if args.code == "su2-third"
                   else su2.code_quarter)(args.n)
        doc = {"family": {"su2": {"n": args.n}},
               "kind": "su2-vectors",
               "vectors": [[{"k": k, "amp": a.to_json()}
                            for k, a in v.amplitudes] for v in vectors]}
    _emit(args, doc)
    return 0


def _load_code(path: str | None) -> dict:
    try:
        if path in (None, "-"):
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"malformed code file: {exc}") from exc
    if not isinstance(doc, dict):
        raise FamilyError("malformed code file: not a JSON object")
    return doc


def _int(x, what: str) -> int:
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def _parse_code(doc: dict):
    """The document's kind and its code: a StabilizerCode, or (n, vectors)."""
    from . import clifford, su2
    kind = doc.get("kind")
    try:
        if kind == "clifford-stabilizer":
            n = _int(doc["n"], "n")
            gens = tuple(clifford.label_from_str(g) for g in doc["generators"])
            for g in doc["generators"]:
                if len(g) != 2 * n:
                    raise FamilyError(f"generator length {len(g)} != 2n = {2 * n}")
            return kind, clifford.StabilizerCode(n, gens, tuple(doc["signs"]))
        if kind == "su2-vectors":
            n = _int(doc["family"]["su2"]["n"], "n")
            vectors = []
            for vec in doc["vectors"]:
                amps = {_int(e["k"], "k"): SurdSum.from_json(e["amp"]) for e in vec}
                if len(amps) != len(vec):
                    raise ValueError("a weight k is listed twice in one vector")
                vectors.append(su2.Su2Vector.make(n, amps))
            return kind, (n, vectors)
    except FamilyError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyError(f"malformed {kind} document: "
                          f"{type(exc).__name__} {exc}") from exc
    raise FamilyError(f"unknown code kind {kind!r}")


def cmd_verify(args) -> int:
    from . import clifford, su2
    kind, code = _parse_code(_load_code(args.code))
    if kind == "clifford-stabilizer":
        stab = code
        n = stab.n
        reading = args.reading or "even"
        report = clifford.detection_report(stab, reading)
        spec = READINGS[reading](n)
        # A is sparse: only its nonzero entries need W_t(j)
        support = [(j, a) for j, a in enumerate(report.A) if a]
        wa = [sum(spec.wtj(t, j) * a for j, a in support) for t in range(len(report.A))]
        out = {"kind": kind, "n": n, "reading": reading,
               "dimension": report.dimension,
               "min_distance": report.min_distance,
               "is_pure": report.is_pure,
               "is_nondegenerate": report.is_nondegenerate,
               "slope_values": {k: format_fraction(v)
                                for k, v in report.slope_values.items()},
               "A": [format_fraction(x) for x in report.A],
               "B": [format_fraction(x) for x in report.B],
               "transform_check": wa == report.B}
        _emit(args, out)
        return 0 if out["transform_check"] else 1
    _reject_flags(args, kind, ("reading",), ())
    n, vectors = code
    out = {"kind": kind, "n": n, "dimension": len(vectors),
           "min_distance": su2.min_distance(n, vectors)}
    _emit(args, out)
    return 0


def cmd_oracle(args) -> int:
    from .oracle import verify_lambda, verify_wtj
    spec = _build_family(args)
    wtj_rep = verify_wtj(spec)
    out = {"family": args.family,
           "wtj_match": wtj_rep.matches,
           "wtj_mismatches": [
               {"t": t, "j": j, "bruteforce": format_fraction(a),
                "formula": format_fraction(b)}
               for t, j, a, b in wtj_rep.mismatches]}
    ok = wtj_rep.matches
    if lambda_signature(spec) is not None:
        lam_rep = verify_lambda(spec)
        out["lambda_match"] = lam_rep.matches
        out["lambda_mismatches"] = [list(m) for m in lam_rep.mismatches]
        ok = ok and lam_rep.matches
    _emit(args, out)
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first `main` call of a process."""
    parser = argparse.ArgumentParser(
        prog="qdelsarte",
        description="Exact linear programming bounds and explicit codes for "
                    "quantum metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("csv", "json", "md")) -> None:
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out")

    p = sub.add_parser("wtj", help="dump the W_t(j) matrix")
    _add_family_args(p)
    common(p)
    p.set_defaults(func=cmd_wtj)

    def lp_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--self-dual", action="store_true", dest="self_dual")
        p.add_argument("--pure", action="store_true")
        p.add_argument("--tol", default=format_fraction(DEFAULT_TOL))

    p = sub.add_parser("bound", help="LP upper bound on code dimension")
    _add_family_args(p)
    lp_flags(p)
    p.add_argument("--integer", action="store_true")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("feasible", help="test one dimension K for feasibility")
    _add_family_args(p)
    lp_flags(p)
    p.add_argument("--k", required=True, help="dimension K as p/q")
    common(p)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("table", help="sweep bounds over n and d")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_NAMES))
    p.add_argument("--q", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--d-from", type=int, required=True)
    p.add_argument("--d-to", type=int, required=True)
    p.add_argument("--self-dual", action="store_true", dest="self_dual")
    p.add_argument("--pure", action="store_true")
    p.add_argument("--integer", action="store_true")
    p.add_argument("--tol", default=format_fraction(DEFAULT_TOL))
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="emit an explicit code file")
    p.add_argument("--code", required=True, choices=CODE_FLAGS)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("--code", help="code file path; stdin when omitted or '-'")
    p.add_argument("--reading", choices=READINGS)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force verification report")
    _add_family_args(p)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    # a code's dimension 2^(n-k) may have more digits than the default cap
    # on int-to-str conversion (an interpreter without the cap has no setter)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
