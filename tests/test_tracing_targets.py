"""The benchmark's tracer wraps package functions by name; each name must still exist.

A name that is gone is reported by the tracer as a missing span rather than an
error, so a rename would silently drop a per-layer metric.  The tracer module is
only imported here: installing it would rebind functions for the whole session.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling reference.py
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves(monkeypatch):
    targets = _tracer_targets(monkeypatch)
    assert targets
    for module_name, attr, span, _ in targets:
        obj = importlib.import_module(f"attnhawkes.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{span}: attnhawkes.{module_name}.{attr} does not exist"
        assert callable(obj), f"{span}: attnhawkes.{module_name}.{attr} is not callable"
