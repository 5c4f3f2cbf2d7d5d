"""One pass of a workload, in a fresh interpreter spawned by run.py.

    python3 bench/worker.py --workload NAME --seed N [--setup-only] [--spans FILE]

Set-up is importing qdelsarte and building the seeded case list (for
`certify`, constructing the code documents); the worker then reports the
monotonic clock, so the parent can time set-up from the moment it spawned
the interpreter.  Nothing warms the `lru_cache` of `wtj_matrix` first: a CLI
user pays that cost on every run.  Each case is a real `qdelsarte.cli.main`
call with stdin, stdout and stderr captured, and its output is checked.

With --spans the pass runs traced: every layer wrapper records spans, which
are written to FILE, and the per-layer statistics go into the result.

The last line on stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qdelsarte import cli  # noqa: E402  (importing is part of set-up)

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailure, build_cases, check_case  # noqa: E402


def run_cli(argv, stdin: str | None) -> tuple[int, str, str]:
    """Run `qdelsarte <argv>` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def run_pass(cases, tracer: tracing.Tracer | None) -> tuple[float, list[dict]]:
    """Run every case once; returns (wall seconds, per-case records)."""
    records = []
    t0 = time.perf_counter()
    for case in cases:
        c0 = time.perf_counter()
        error = None
        try:
            if tracer is None:
                rc, out, err = run_cli(case.argv, case.stdin)
            else:
                tracer.case = case.id
                with tracer.span(f"cli.{case.argv[0]}"):
                    rc, out, err = run_cli(case.argv, case.stdin)
            check_case(case, rc, out)
        except CheckFailure as exc:
            error = f"{exc}; stderr: {err.strip()[-500:]}"
        except Exception:  # a crash inside the CLI is a failed case, not a dead pass
            error = traceback.format_exc()
        records.append({"id": case.id, "argv": list(case.argv),
                        "s": time.perf_counter() - c0, "error": error})
    return time.perf_counter() - t0, records


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest worker
    return (own + pool) / 1024  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    cases = build_cases(args.workload, args.seed, run_cli)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["start"] = time.monotonic()
    if args.spans is None:
        wall, records = run_pass(cases, None)
    else:
        tracer = tracing.Tracer()
        # the package re-exports a function named wtj, so fetch the module itself
        cache_info = importlib.import_module("qdelsarte.wtj").wtj_matrix.cache_info
        misses = cache_info().misses
        with tracing.install(tracer):
            wall, records = run_pass(cases, tracer)
        tracer.count("wtj.wtj_matrix.misses", cache_info().misses - misses)
        stats = tracing.layer_stats(tracer.spans)
        result["layers"] = {k: vars(v) for k, v in stats.items()}
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.spans)
        args.spans.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "case"],
             "spans": [[s.name, s.start, s.end, s.parent, s.case] for s in tracer.spans]}))
    result.update(end=time.monotonic(), wall_s=wall, peak_rss_mib=peak_rss_mib(), cases=records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
