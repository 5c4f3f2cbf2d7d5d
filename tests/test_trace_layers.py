"""The benchmark's per-layer spans name functions that exist.

`bench/tracing.py` wraps each (module, function) of its LAYERS table by name;
a layer renamed or removed in `qdelsarte` would break `bench/run.py --trace 1`
without failing anything else.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYERS


LAYERS = load_layers()


def test_layers_table_is_not_empty():
    assert len(LAYERS) > 0


@pytest.mark.parametrize("module,name", LAYERS, ids=[f"{m}.{f}" for m, f in LAYERS])
def test_layer_resolves(module, name):
    target = getattr(importlib.import_module(f"qdelsarte.{module}"), name, None)
    assert callable(target), f"qdelsarte.{module}.{name} is not a function"
