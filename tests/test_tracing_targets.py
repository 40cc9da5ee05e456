"""The benchmark's tracer wraps package functions by name; each name must still exist.

A name that is gone is reported by the tracer as a missing span rather than an
error, so a rename would silently drop a per-layer metric.  The tracer also reads
some arguments of a traced call by name, so a renamed parameter would crash only
the traced benchmark run.  The tracer module is only imported here: installing it
would rebind functions for the whole session.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from attnhawkes._forward import SequenceCache
from attnhawkes.domain import EventSequence, make_grid
from attnhawkes.model import ModelConfig

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


# the argument names the tracer reads from each traced call, by (module, attribute)
TRACED_ARGUMENTS = {
    ("_forward", "forward"): ("cache", "cfg"),
    ("_forward", "backward"): ("cache",),
    ("_forward", "event_pre_all_types"): ("cache", "cfg"),
    ("_forward", "SequenceCache.__init__"): ("seq", "grid"),
    ("model", "attention_matrix"): ("seq", "grid"),
    ("evaluate", "influence_heatmap"): ("seqs", "cfg", "tau_max", "num_probes"),
}


def test_traced_functions_keep_the_arguments_the_tracer_reads(monkeypatch):
    traced = {(module_name, attr) for module_name, attr, _, _ in _tracer_targets(monkeypatch)}
    for (module_name, attr), names in TRACED_ARGUMENTS.items():
        assert (module_name, attr) in traced, f"{module_name}.{attr} is no longer traced"
        obj = importlib.import_module(f"attnhawkes.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        params = inspect.signature(obj).parameters
        for name in names:
            assert name in params, f"attnhawkes.{module_name}.{attr} has no parameter {name!r}"
    # the tracer sizes a call on a cache by the cache's sequence and grid
    seq = EventSequence(times=[1.0], types=[0], horizon=2.0, num_types=1)
    grid = make_grid(seq, 2)
    cache = SequenceCache(ModelConfig(num_types=1, embed_dim=2), seq, grid)
    assert cache.seq is seq and cache.grid is grid
