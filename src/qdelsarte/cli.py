"""Command-line interface.

Subcommands: wtj, bound, feasible, table, construct, verify, oracle.
All exact rationals print as "p/q"; decimal columns are rendered with
round-half-up and never replace the exact values.  Exit codes: 0 success,
1 negative verdict (infeasible system, failed verification, mismatching
oracle), 2 usage error, also for a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from . import clifford, su2
from .families import FAMILY_NAMES, Family, FamilyError, profile, validate
from .lp import LPOptions, check_options, feasible as lp_feasible, lp_bound
from .oracle import verify_lambda, verify_wtj
from .scalars import SurdSum, format_fraction, parse_fraction
from .wtj import lambda_signature, wtj_matrix


def _build_family(args, **given) -> Family:
    """The family named by --family, its parameters read from args except
    those given."""
    cls = FAMILY_NAMES[args.family]
    kwargs = {}
    for f in cls.__dataclass_fields__:
        val = given[f] if f in given else getattr(args, f, None)
        if val is None:
            raise FamilyError(f"family {args.family} requires --{f}")
        kwargs[f] = val
    spec = cls(**kwargs)
    validate(spec)
    return spec


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=sorted(FAMILY_NAMES))
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=int)


def _decimal(x: Fraction, places: int = 3) -> str:
    quantum = Decimal(1).scaleb(-places)
    return str((Decimal(x.numerator) / Decimal(x.denominator))
               .quantize(quantum, rounding=ROUND_HALF_UP))


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _render_table(fmt: str, header: list[str], rows: list[list[str]]) -> str:
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines)
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines)
    raise ValueError(fmt)


def cmd_wtj(args) -> int:
    spec = _build_family(args)
    W = wtj_matrix(spec)
    lam = lambda_signature(spec)
    r = profile(spec).diameter_r
    if args.format == "json":
        doc = {"family": args.family, "r": r,
               "wtj": [[format_fraction(x) for x in row] for row in W]}
        if lam is not None:
            doc["lambda"] = list(lam)
        _emit(args, json.dumps(doc, indent=2))
    else:
        header = ["t\\j"] + [str(j) for j in range(r + 1)]
        rows = [[str(t)] + [format_fraction(x) for x in row]
                for t, row in enumerate(W)]
        if lam is not None:
            rows.append(["lambda"] + [str(x) for x in lam])
        _emit(args, _render_table(args.format, header, rows))
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
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    else:
        header = list(doc)
        _emit(args, _render_table(args.format, header,
                                  [[str(doc[k]) for k in header]]))
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
    if args.format == "json":
        _emit(args, json.dumps(doc, indent=2))
    else:
        # one cell per key: the witness entries are separated by spaces
        _emit(args, _render_table(args.format, ["key", "value"],
                                  [[k, " ".join(v) if k == "witness" else str(v)]
                                   for k, v in doc.items()]))
    return 0 if rep.feasible else 1


def _table_cell(job):
    spec, d, opts, tol, integer = job
    r = profile(spec).diameter_r
    if d > r + 1:
        return ""
    res = lp_bound(spec, d, opts, tol=tol, integer=integer)
    return format_fraction(res.lower) if integer or res.exact \
        else _decimal(res.lower)


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
    threads = int(os.environ.get("QLP_THREADS", os.cpu_count() or 1))
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms, pooled runs only
        with ProcessPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(_table_cell, jobs))
    else:
        cells = [_table_cell(j) for j in jobs]
    grid = {}
    for (spec, d, *_), cell in zip(jobs, cells):
        grid[(spec.n, d)] = cell
    if args.format == "json":
        doc = {"family": args.family, "d": ds,
               "rows": [{"n": s.n, "bounds": [grid[(s.n, d)] for d in ds]}
                        for s in specs]}
        _emit(args, json.dumps(doc, indent=2))
    else:
        header = ["n"] + [f"d={d}" for d in ds]
        rows = [[str(s.n)] + [grid[(s.n, d)] for d in ds] for s in specs]
        _emit(args, _render_table(args.format, header, rows))
    return 0


def cmd_construct(args) -> int:
    if args.code == "clifford-hamming":
        if args.s is None:
            raise FamilyError("clifford-hamming requires --s")
        stab = clifford.clifford_hamming(args.s)
        length = 2 * stab.n
        doc = {"family": {"clifford-odd": {"n": stab.n}},
               "kind": "clifford-stabilizer",
               "n": stab.n,
               "generators": [clifford.label_to_str(g, length)
                              for g in stab.generators],
               "signs": list(stab.signs)}
    elif args.code in ("su2-third", "su2-quarter"):
        if args.n is None:
            raise FamilyError(f"{args.code} requires --n")
        vectors = (su2.code_third if args.code == "su2-third"
                   else su2.code_quarter)(args.n)
        doc = {"family": {"su2": {"n": args.n}},
               "kind": "su2-vectors",
               "vectors": [[{"k": k, "amp": a.to_json()}
                            for k, a in v.amplitudes] for v in vectors]}
    else:
        raise FamilyError(f"unknown construction {args.code!r}")
    _emit(args, json.dumps(doc, indent=2))
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


def _parse_code(doc: dict):
    """The document's kind and its code: a StabilizerCode, or (n, vectors)."""
    kind = doc.get("kind")
    try:
        if kind == "clifford-stabilizer":
            n = int(doc["n"])
            gens = tuple(clifford.label_from_str(g) for g in doc["generators"])
            for g in doc["generators"]:
                if len(g) != 2 * n:
                    raise FamilyError(f"generator length {len(g)} != 2n = {2 * n}")
            return kind, clifford.StabilizerCode(n, gens, tuple(doc["signs"]))
        if kind == "su2-vectors":
            n = int(doc["family"]["su2"]["n"])
            return kind, (n, [su2.Su2Vector.make(
                n, {int(e["k"]): SurdSum.from_json(e["amp"]) for e in vec})
                for vec in doc["vectors"]])
    except FamilyError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyError(f"malformed {kind} document: "
                          f"{type(exc).__name__} {exc}") from exc
    raise FamilyError(f"unknown code kind {kind!r}")


def cmd_verify(args) -> int:
    kind, code = _parse_code(_load_code(args.code))
    if kind == "clifford-stabilizer":
        stab = code
        n = stab.n
        reading = args.reading or "even"
        report = clifford.detection_report(stab, reading)
        out = {"kind": kind, "n": n, "reading": reading,
               "dimension": report.dimension,
               "min_distance": report.min_distance,
               "is_pure": report.is_pure,
               "is_nondegenerate": report.is_nondegenerate,
               "slope_values": {k: format_fraction(v)
                                for k, v in report.slope_values.items()}}
        try:
            A, B = clifford.distance_distribution(stab, reading)
        except ValueError:
            A = B = None
        if A is not None:
            fam_cls = {"even": "clifford-even", "odd": "clifford-odd",
                       "spinorial": "spinorial"}[reading]
            spec = FAMILY_NAMES[fam_cls](n=n)
            # A is sparse: only its nonzero entries need W_t(j)
            support = [(j, a) for j, a in enumerate(A) if a]
            wa = [sum(spec.wtj(t, j) * a for j, a in support) for t in range(len(A))]
            out["A"] = [format_fraction(x) for x in A]
            out["B"] = [format_fraction(x) for x in B]
            out["transform_check"] = wa == B
        _emit(args, json.dumps(out, indent=2))
        return 0 if out.get("transform_check", True) else 1
    n, vectors = code
    out = {"kind": kind, "n": n, "dimension": len(vectors),
           "min_distance": su2.min_distance(n, vectors)}
    _emit(args, json.dumps(out, indent=2))
    return 0


def cmd_oracle(args) -> int:
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
        try:
            lam_rep = verify_lambda(spec)
            out["lambda_match"] = lam_rep.matches
            out["lambda_mismatches"] = [list(m) for m in lam_rep.mismatches]
            ok = ok and lam_rep.matches
        except NotImplementedError:
            out["lambda_match"] = None
    _emit(args, json.dumps(out, indent=2))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
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
        p.add_argument("--tol", default="1/100000")

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
    p.add_argument("--tol", default="1/100000")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="emit an explicit code file")
    p.add_argument("--code", required=True,
                   choices=("clifford-hamming", "su2-third", "su2-quarter"))
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("--code", help="code file path; stdin when omitted or '-'")
    p.add_argument("--reading", choices=clifford.READINGS)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force verification report")
    _add_family_args(p)
    common(p, formats=("json",))
    p.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
