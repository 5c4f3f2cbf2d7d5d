"""Tests of the benchmark itself: wrappers, self-time arithmetic, checks.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qdelsarte.cli  # noqa: E402
import qdelsarte.lp  # noqa: E402
import qdelsarte.simplex  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from qdelsarte.families import Su2  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from workloads import (Case, CheckFailure, bound_check, build_cases,  # noqa: E402
                       check_case, clifford_verify_check, feasible_check)


def test_wrapped_functions_return_the_same_values_and_keep_the_cache():
    wtj_module = sys.modules["qdelsarte.wtj"]
    spec, K = Su2(7), Fraction(2)
    original = qdelsarte.simplex.check_feasible
    plain = qdelsarte.lp.feasible(spec, 3, K)
    tracer = Tracer()
    with tracing.install(tracer):
        assert qdelsarte.lp.check_feasible is not original
        hits = wtj_module.wtj_matrix.cache_info().hits
        traced = qdelsarte.lp.feasible(spec, 3, K)
        assert wtj_module.wtj_matrix.cache_info().hits > hits
    assert traced == plain
    assert qdelsarte.lp.check_feasible is original is qdelsarte.simplex.check_feasible
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["lp.feasible"].parent is None
    assert tracer.spans[by_name["simplex.check_feasible"].parent].name == "lp.feasible"
    assert tracer.counters["simplex.rows_max"] > 0


def test_wrapped_function_propagates_errors_and_closes_its_span():
    tracer = Tracer()
    with tracing.install(tracer), pytest.raises(ValueError):
        qdelsarte.lp.build_system(Su2(3), 9, Fraction(1))
    (span,) = [s for s in tracer.spans if s.name == "lp.build_system"]
    assert span.end >= span.start and not tracer._stack


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("root", 0.0, 10.0, None, "c"),
             Span("a", 1.0, 4.0, 0, "c"),
             Span("b", 3.0, 6.0, 0, "c"),   # overlaps a: union is [1, 6]
             Span("g", 2.0, 3.0, 1, "c")]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_layer_stats_count_nested_spans_of_one_name_once():
    spans = [Span("x", 0.0, 10.0, None, None),
             Span("x", 2.0, 5.0, 0, None),
             Span("y", 6.0, 7.0, 0, None)]
    st = tracing.layer_stats(spans)
    assert st["x"].calls == 2 and st["x"].s == 10.0 and st["x"].s_max == 10.0
    assert st["x"].self_s == 6.0 + 3.0
    assert st["y"].s == st["y"].self_s == 1.0


def _doc(**kw) -> str:
    return json.dumps(kw)


def test_checker_rejects_a_perturbed_bound():
    tol = Fraction(1, 1000)
    case = Case("b", ("bound",), bound_check(Fraction(5, 3), tol, False))
    check_case(case, 0, _doc(lower="1666/1000", upper="1667/1000", exact=False))
    with pytest.raises(CheckFailure):
        check_case(case, 0, _doc(lower="1669/1000", upper="1670/1000", exact=False))
    with pytest.raises(CheckFailure):  # exact must mean the optimum itself
        check_case(case, 0, _doc(lower="1666/1000", upper="1666/1000", exact=True))


def test_checker_rejects_a_wrong_min_distance_and_a_nonzero_exit():
    case = Case("v", ("verify",), clifford_verify_check(8, 3, True))
    good = dict(dimension=8, min_distance=3, transform_check=True)
    check_case(case, 0, _doc(**good))
    with pytest.raises(CheckFailure):
        check_case(case, 0, _doc(**dict(good, min_distance=2)))
    with pytest.raises(CheckFailure):
        check_case(case, 1, _doc(**good))


def test_checker_checks_the_feasibility_witness():
    case = Case("f", ("feasible",), feasible_check(Fraction(2), 8, True))
    check_case(case, 0, _doc(feasible=True, k="2", witness=["2", "0", "6"]))
    with pytest.raises(CheckFailure):
        check_case(case, 0, _doc(feasible=True, k="2", witness=["2", "0", "5"]))


def test_run_pass_counts_failed_cases():
    argv = ("bound", "--family", "su2", "--n", "7", "--d", "3")
    cases = [Case("right", argv, bound_check(Fraction(2), Fraction(1, 10**5), False)),
             Case("wrong", argv, bound_check(Fraction(3), Fraction(1, 10**5), False)),
             Case("bad-exit", argv, bound_check(Fraction(2), Fraction(1, 10**5), False), 1)]
    _, records = worker.run_pass(cases, None)
    assert [r["error"] is None for r in records] == [True, False, False]


def test_seed_fixes_the_case_list():
    def ids(seed):
        return [(c.id, c.argv) for c in build_cases("lp-bound", seed, worker.run_cli)]
    assert ids(4) == ids(4)
    assert ids(4) != ids(5)


def test_per_layer_emits_every_listed_metric():
    traced = {"layers": {"lp.lp_bound": {"calls": 2, "s": 1.0, "s_max": 0.6, "self_s": 0.1}},
              "counters": {"lp.feasible.in_bound": 10, "simplex.rows_max": 7},
              "wall_s": 3.0, "wall_ref_s": 3.0, "spans": 12}
    untraced = {"wall_s": 2.5, "wall_ref_s": 2.5}
    values = run.per_layer(untraced, untraced, traced, 2)
    assert set(values) == {name for name, _ in run.PER_LAYER}
    assert values["lp.probes_per_bound"] == 5
    assert values["simplex.rows_max"] == 7
    assert values["trace.overhead_s"] == 0.5



def test_pool_efficiency_is_serial_work_over_pooled_capacity():
    traced = {"layers": {"cli._table_cell": {"calls": 4, "s": 9.0, "s_max": 3.0, "self_s": 9.0}},
              "counters": {}, "wall_ref_s": 10.0, "spans": 4}
    values = run.per_layer({"wall_ref_s": 2.5}, {"wall_ref_s": 4.0}, traced, 2)
    assert values["cli.table.pool_efficiency"] == 0.8

def test_times_scale_by_the_speed_samples_around_them():
    samples = [[0.0, 0.004], [5.0, 0.004], [9.0, 0.004], [50.0, 0.001]]
    # the kernel ran at half the reference speed throughout [0, 10]
    assert run.at_reference_speed(3.0, 0.0, 10.0, samples) == 3.0 * run.REFERENCE_KERNEL_S / 0.004
    with pytest.raises(run.BenchError):
        run.at_reference_speed(1.0, 20.0, 30.0, samples)


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
