"""qdelsarte benchmark: exact LP bounds, table sweeps and code certification.

    python3 bench/run.py --workload lp-bound|table-sweep|certify|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Workloads (closed loop: one client runs the
cases of a pass one after another; `table` fans its cells out to a process
pool of as many workers as the cores this process may use):

  lp-bound     a few large exact LPs found by bisection, plus seeded
               `feasible` probes below each optimum; the LP layer dominates
  table-sweep  64 small LPs over four `table` sweeps, spread over the pool;
               W-table builds, assembly and per-probe overhead weigh more
  certify      no LP: code verification (Clifford gamma matrices, sparse
               products, su(2) distances) and the brute-force W_t(j) oracle

Every pass runs in a fresh interpreter.  With --trace 0 the passes are
untraced and repeat while another one fits in --seconds; the result has
the end-to-end metrics:

  wall_s        median over passes of one pass's wall time
  setup_s       median over 7 interpreters of the time from spawning one to
                ready: imports and the seeded inputs, no cache warm-up
  peak_rss_mib  largest peak RSS of a pass process plus its largest pool worker

Both times are scaled to a reference CPU speed, because the speed of a
shared virtual CPU drifts far more than any useful regression bound (see
speed.py); the raw times are printed as raw_wall_s and raw_setup_s and kept
in the record.  Single-process passes and set-up runs are pinned to one CPU,
next to its sampler.  failed_frac, the share of cases whose exit code or
output was wrong, is printed too; any failure makes the run exit 1.

With --trace 1 one untraced and one traced pass run and the result has the
per-layer metrics (raw times), including the tracing overhead.  The last
stdout line is the JSON result; a record with the run metadata and per-case
times goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_KERNEL_S
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SPEED = Path(__file__).resolve().parent / "speed.py"
OUT_DIR = ROOT / ".bench_out"
BUDGET_S = 170      # hard limit on one workload's run, spawns included
SETUP_RUNS = 7      # set-up-only interpreters per run
SAMPLE_PAD_S = 1.0  # speed samples this close to an interval also scale it
POOLED = ("table-sweep",)  # fans out to a process pool; the others run in one process

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

STAT_FIELDS = ("calls", "s", "s_max", "self_s")  # read from a span's LayerStats
# (name, unit); a name ending in another field is a tracer counter or is
# computed in per_layer
PER_LAYER = (
    ("simplex.check_feasible.calls", "count"),
    ("simplex.check_feasible.s", "s"),
    ("simplex.check_feasible.s_max", "s"),
    ("simplex.check_feasible.infeasible", "count"),
    ("simplex.rows_max", "count"),
    ("simplex.cols_max", "count"),
    ("simplex.witness_bits_max", "bits"),
    ("simplex.verify_witness.calls", "count"),
    ("simplex.verify_witness.s", "s"),
    ("lp.lp_bound.calls", "count"),
    ("lp.lp_bound.self_s", "s"),
    ("lp.feasible.calls", "count"),
    ("lp.probes_per_bound", "probes/bound"),
    ("lp.build_system.calls", "count"),
    ("lp.build_system.s", "s"),
    ("wtj.wtj_matrix.calls", "count"),
    ("wtj.wtj_matrix.misses", "count"),
    ("wtj.wtj_matrix.s", "s"),
    ("wtj.lambda_signature.calls", "count"),
    ("wtj.lambda_signature.s", "s"),
    ("families.profile.calls", "count"),
    ("families.profile.s", "s"),
    ("cli.table.workers", "count"),
    ("cli.table.cell_s_max", "s"),
    ("cli.table.pool_efficiency", "ratio"),
    ("cli.bound.self_s", "s"),
    ("cli.feasible.self_s", "s"),
    ("cli.table.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("cli.oracle.self_s", "s"),
    ("clifford.gamma.calls", "count"),
    ("clifford.gamma.s", "s"),
    ("clifford.projector.calls", "count"),
    ("clifford.projector.s", "s"),
    ("clifford.span_coefficients.s", "s"),
    ("clifford.detection_report.s", "s"),
    ("clifford.distance_distribution.s", "s"),
    ("linalg.sp_mul.calls", "count"),
    ("linalg.sp_mul.s", "s"),
    ("linalg.sp_rank.s", "s"),
    ("su2.min_distance.calls", "count"),
    ("su2.min_distance.s", "s"),
    ("oracle.v_basis.calls", "count"),
    ("oracle.v_basis.s", "s"),
    ("oracle.wtj_bruteforce.calls", "count"),
    ("oracle.wtj_bruteforce.s", "s"),
    ("oracle.phi_apply.calls", "count"),
    ("oracle.phi_apply.s", "s"),
    ("oracle.verify_wtj.s", "s"),
    ("oracle.verify_lambda.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args: list[str], env: dict, deadline: float,
          cpu: int | None) -> tuple[dict, float]:
    """Run one worker interpreter, pinned to cpu if given; returns (result, spawn time)."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the {BUDGET_S} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), t0


def at_reference_speed(t: float, start: float, end: float,
                       samples: list[list[float]]) -> float:
    """Scale a time t measured during [start, end] by the speed samples near it."""
    ks = [k for s, k in samples if start - SAMPLE_PAD_S <= s <= end + SAMPLE_PAD_S]
    if not ks:
        raise BenchError("no speed samples cover a measured interval")
    return t * REFERENCE_KERNEL_S / statistics.fmean(ks)


class Samplers:
    """One speed.py process per CPU, running for the whole workload."""

    def __init__(self, cpus: list[int]) -> None:
        self.procs = {cpu: subprocess.Popen([sys.executable, str(SPEED), str(cpu)], cwd=ROOT,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            text=True)
                      for cpu in cpus}
        self.samples: dict[int, list[list[float]]] = {}

    def stop(self) -> None:
        errors = []
        for cpu, proc in self.procs.items():
            try:
                out, _ = proc.communicate(input="", timeout=10)
                self.samples[cpu] = json.loads(out)
            except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                proc.kill()
                proc.communicate()
                errors.append(f"CPU {cpu}: {exc}")
        if errors:
            raise BenchError(f"speed sampler failed: {'; '.join(errors)}")

    def scale(self, t: float, start: float, end: float, cpus: list[int]) -> float:
        """t measured on cpus during [start, end], at the reference CPU speed."""
        return at_reference_speed(t, start, end,
                                  [x for cpu in cpus for x in self.samples[cpu]])


def per_layer(untraced: dict, serial: dict, traced: dict, workers: int) -> dict[str, float]:
    """Per-layer metrics from a traced pass; untraced is a normal pass and
    serial an untraced one that, like the traced pass, runs table cells serially."""
    layers, counters = traced["layers"], traced["counters"]

    def stat(span: str, field: str) -> float:
        return layers.get(span, {}).get(field, 0)

    bounds = stat("lp.lp_bound", "calls")
    values = {
        "lp.probes_per_bound": counters.get("lp.feasible.in_bound", 0) / bounds if bounds else 0,
        "cli.table.workers": workers,
        "cli.table.cell_s_max": stat("cli._table_cell", "s_max"),
        "cli.table.pool_efficiency":
            serial["wall_ref_s"] / (workers * untraced["wall_ref_s"])
            if "cli._table_cell" in layers else 0,
        "trace.overhead_s": traced["wall_ref_s"] - serial["wall_ref_s"],
        "trace.spans": traced["spans"],
    }
    for name, _ in PER_LAYER:
        span, field = name.rsplit(".", 1)
        if name not in values:
            values[name] = stat(span, field) if field in STAT_FIELDS else counters.get(name, 0)
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    workers = len(cpus)
    env = dict(os.environ, QLP_THREADS=str(workers))
    base = ["--workload", workload, "--seed", str(seed)]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": workers, "pool_workers": workers,
        "commit": git_commit(ROOT),
    }

    samplers = Samplers(cpus)
    setups, passes = [], []
    try:
        spawn(base + ["--setup-only"], env, deadline, cpus[0])  # fills any bytecode cache; untimed
        for _ in range(SETUP_RUNS):
            res, t0 = spawn(base + ["--setup-only"], env, deadline, cpus[0])
            setups.append((res["ready"] - t0, t0, res["ready"]))

        def one_pass(extra: list[str], pooled: bool) -> dict:
            # a pooled pass runs on every CPU; any other shares cpus[0] with its sampler
            pass_env = env if pooled else dict(env, QLP_THREADS="1")
            res, _ = spawn(base + extra, pass_env, deadline, None if pooled else cpus[0])
            res["cpus"] = cpus if pooled else cpus[:1]
            passes.append(res)
            return res

        pooled = workload in POOLED
        if trace:
            untraced = one_pass([], pooled)
            # the traced pass runs its table cells serially, so its spans stay in
            # one process; a pooled workload gets a serial untraced pass to compare
            serial = one_pass([], False) if pooled else untraced
            spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
            traced = one_pass(["--spans", str(spans)], False)
            meta.update(traced_pool="QLP_THREADS=1 (cells run serially in the traced pass)",
                        spans_file=str(spans.relative_to(ROOT)))
        else:
            start = time.monotonic()
            while True:
                last = one_pass([], pooled)
                if time.monotonic() - start + last["wall_s"] > seconds:
                    break
    finally:
        samplers.stop()

    for p in passes:
        p["wall_ref_s"] = samplers.scale(p["wall_s"], p["start"], p["end"], p["cpus"])
    setup_ref = [samplers.scale(t, t0, t1, cpus[:1]) for t, t0, t1 in setups]
    if trace:
        values = per_layer(untraced, serial, traced, workers)
        units = dict(PER_LAYER)
    else:
        values = {
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
        }
        units = dict(END_TO_END)

    failures = [(c["id"], c["argv"], c["error"]) for p in passes for c in p["cases"] if c["error"]]
    attempted = sum(len(p["cases"]) for p in passes)
    meta.update(passes=len(passes),
                raw_wall_s=[p["wall_s"] for p in passes],
                ref_wall_s=[p["wall_ref_s"] for p in passes],
                raw_setup_s=[t for t, _, _ in setups], ref_setup_s=setup_ref)
    record = {"meta": meta, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
              "cases": [p["cases"] for p in passes]}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for case_id, argv, error in failures:
        print(f"FAILED {workload} {case_id}: qdelsarte {' '.join(argv)}\n  {error}",
              file=sys.stderr)
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qdelsarte" / "cli.py").is_file():
        print(f"error: no qdelsarte sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += rec["attempted"]
            failed += rec["failed"]
            print(json.dumps({"meta": rec["meta"]}))
            rows = dict(rec["metrics"],
                        failed_frac={"value": rec["failed"] / rec["attempted"], "unit": "ratio"})
            if not args.trace:
                for key in ("raw_wall_s", "raw_setup_s"):
                    rows[key] = {"value": statistics.median(rec["meta"][key]), "unit": "s"}
            for k, m in rows.items():
                print(f"{name:12} {k:36} {m['value']:.6g} {m['unit']}")
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: m for k, m in rec["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
