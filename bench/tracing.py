"""Spans around the qdelsarte layers, recorded from outside the package.

`install` wraps each layer's public functions where they are called: a
`from x import f` binds `f` in the importing module at import time, so every
loaded `qdelsarte` module whose global is the original function gets the
wrapper.  Wrappers call the original, so return values, exceptions and the
`lru_cache` behind `wtj_matrix` and `v_basis` are unchanged.

A span is (name, start, end, parent, case).  Spans stay in memory until the
pass ends.  Self time is a span's duration minus the part of it that its
child spans cover.  `scalars` is not wrapped: per-operation spans would
swamp its cost, so its time shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>"
LAYERS = (
    ("simplex", "check_feasible"),
    ("simplex", "verify_witness"),
    ("lp", "lp_bound"),
    ("lp", "feasible"),
    ("lp", "build_system"),
    ("wtj", "wtj_matrix"),
    ("wtj", "lambda_signature"),
    ("families", "profile"),
    ("cli", "_table_cell"),
    ("clifford", "gamma"),
    ("clifford", "projector"),
    ("clifford", "span_coefficients"),
    ("clifford", "detection_report"),
    ("clifford", "distance_distribution"),
    ("linalg", "sp_mul"),
    ("linalg", "sp_rank"),
    ("su2", "min_distance"),
    ("oracle", "v_basis"),
    ("oracle", "wtj_bruteforce"),
    ("oracle", "phi_apply"),
    ("oracle", "verify_wtj"),
    ("oracle", "verify_lambda"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0       # inclusive time of the outermost spans of this name
    s_max: float = 0.0   # longest single span
    self_s: float = 0.0  # time not covered by child spans


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case: str | None = None
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.case)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def at_least(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
        return wrapper


def _observe_simplex(tracer: Tracer, args, kwargs, result) -> None:
    constraints = args[0] if args else kwargs["constraints"]
    nvars = args[1] if len(args) > 1 else kwargs["nvars"]
    tracer.at_least("simplex.rows_max", len(constraints))
    tracer.at_least("simplex.cols_max", nvars)
    if not result.feasible:
        tracer.count("simplex.check_feasible.infeasible")
    elif result.witness:
        bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                   for x in result.witness)
        tracer.at_least("simplex.witness_bits_max", bits)


def _observe_feasible(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("lp.lp_bound"):
        tracer.count("lp.feasible.in_bound")


OBSERVERS = {
    "simplex.check_feasible": _observe_simplex,
    "lp.feasible": _observe_feasible,
}


@contextmanager
def install(tracer: Tracer):
    """Wrap every call site of the LAYERS functions for the duration of the block."""
    patched = []
    try:
        for module, fname in LAYERS:
            original = getattr(importlib.import_module(f"qdelsarte.{module}"), fname)
            wrapper = tracer.wrap(f"{module}.{fname}", original)
            for mod in [m for k, m in sys.modules.items()
                        if m is not None and (k == "qdelsarte" or k.startswith("qdelsarte."))]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered((s.start, s.end), children.get(i, []))
            for i, s in enumerate(spans)]


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    stats: dict[str, LayerStats] = {}
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        st = stats.setdefault(s.name, LayerStats())
        dur = s.end - s.start
        st.calls += 1
        st.s_max = max(st.s_max, dur)
        st.self_s += own
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            st.s += dur
    return stats
