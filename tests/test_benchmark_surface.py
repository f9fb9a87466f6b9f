"""The functions the benchmark's tracer names must exist in the package.

``perfbench/tracer.py`` computes its per-layer metrics from spans of named
cdelab functions and marks a metric ``absent`` when its function is gone.
This test reads the tracer's ``NAMED_FUNCTIONS`` (without writing bytecode
next to it) and checks each name outside the ``linalg`` layer against the
module that should define it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_named_functions_are_public_package_functions(monkeypatch):
    tracer = load_tracer(monkeypatch)
    checked = 0
    for key in tracer.NAMED_FUNCTIONS:
        layer, name = key.split(".")
        if layer == "linalg":
            continue
        assert layer in tracer.LAYER_MODULES, key
        module = importlib.import_module(f"cdelab.{layer}")
        obj = getattr(module, name, None)
        assert not name.startswith("_"), key
        assert inspect.isfunction(obj), key
        assert obj.__module__ == module.__name__, key
        checked += 1
    assert checked > 0
