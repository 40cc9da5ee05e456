"""Spans around the package's entry points, recorded from outside the package.

``Tracer.install`` rebinds each traced function, in every ``attnhawkes``
module that holds it, to a wrapper whose behaviour follows ``Tracer.mode``:

* ``"time"`` records a span per call: name, start, end and parent span;
* ``"alloc"`` records no spans and measures, with ``tracemalloc``, the
  allocation peak of the calls in ``ALLOC_SPANS``;
* ``"off"`` passes every call straight through.

Timing and allocation are separate passes because tracemalloc slows each
allocation about twentyfold; inside timed spans it tripled the times of
the Python-heavy layers.  Spans stay in memory and are written out once,
when the run ends.  Steps that the trainer reaches through private names
(the batch gradient, the validation pass, the Adam step) are wrapped
under the name the trainer looks up; a name that no longer exists is
reported as a missing span, not an error.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import reference

# (module, attribute, span name, where): "all" rebinds the function in every
# package module that holds it, "here" only in the named module, and
# "method" patches a class attribute written as Class.method.
TARGETS = (
    ("simulator", "simulate_dataset", "simulator.simulate_dataset", "all"),
    ("simulator", "thin_simulate", "simulator.thin_simulate", "all"),
    ("domain", "make_grid", "domain.make_grid", "all"),
    ("domain", "split_dataset", "domain.split_dataset", "all"),
    ("_forward", "SequenceCache.__init__", "forward.cache", "method"),
    ("_forward", "forward", "forward.forward", "all"),
    ("_forward", "backward", "forward.backward", "all"),
    ("_forward", "event_pre_all_types", "forward.event_pre_all_types", "all"),
    ("diff", "objective_and_gradients", "diff.objective_and_gradients", "all"),
    ("diff", "objective_value", "diff.objective_value", "all"),
    ("trainer", "train", "trainer.train", "all"),
    ("trainer", "_gradients_cached", "trainer.gradient", "here"),
    ("trainer", "_split_tll", "trainer.validation", "here"),
    ("trainer", "_Adam.step", "trainer.adam", "method"),
    ("evaluate", "test_tll", "evaluate.test_tll", "all"),
    ("evaluate", "type_accuracy", "evaluate.type_accuracy", "all"),
    ("evaluate", "recover_kernel", "evaluate.recover_kernel", "all"),
    ("evaluate", "influence_heatmap", "evaluate.influence_heatmap", "all"),
    ("evaluate", "intensity_trace", "evaluate.intensity_trace", "all"),
    ("model", "attention_matrix", "model.attention_matrix", "all"),
    ("io", "load_data", "io.load_data", "all"),
    ("io", "load_model", "io.load_model", "all"),
    ("io", "save_dataset", "io.save_dataset", "all"),
    ("io", "save_model", "io.save_model", "all"),
    ("io", "write_kernel_csv", "io.write_kernel_csv", "all"),
    ("io", "write_heatmap_csv", "io.write_heatmap_csv", "all"),
    ("io", "write_attention_csv", "io.write_attention_csv", "all"),
    ("io", "write_trace_csv", "io.write_trace_csv", "all"),
    ("cli", "run_cli", "cli.run_cli", "all"),
)

MB = 1024.0 * 1024.0

# Spans whose allocation peak is measured in the "alloc" pass, each only
# when its input is larger than any that span name has had before: their
# arrays grow with the input, so the largest input sets the peak, and the
# pass stays fast.  The peaks are of numpy arrays and repeat exactly.
ALLOC_SPANS = frozenset({
    "forward.cache", "forward.forward", "forward.backward",
    "forward.event_pre_all_types", "model.attention_matrix",
})


def _input_size(a):
    """Events times grid points of the sequence a call works on."""
    cache = a.get("cache")
    seq, grid = (cache.seq, cache.grid) if cache is not None else (a["seq"], a.get("grid"))
    return len(seq) * (len(grid) if grid is not None else 1)


def _triples(seqs):
    return [(s.times, s.types, s.horizon) for s in seqs]


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Work counts taken from each call's inputs or outputs, never from the
# package's own counters: name -> (counter, function(arguments, result)).
def _cells(a, _):
    length, grid = len(a["cache"].seq), a["cache"].grid
    grid_cells = a["cfg"].num_types * len(grid) * length if grid is not None else 0
    return length * length + grid_cells


WORK = {
    "simulator.thin_simulate": ("events", lambda a, r: len(r)),
    "forward.forward": ("cells", _cells),
    "forward.event_pre_all_types": (
        "cells", lambda a, r: a["cfg"].num_types * len(a["cache"].seq) ** 2
    ),
    "evaluate.influence_heatmap": (
        "probes",
        lambda a, r: reference.heatmap_probes(
            _triples(a["seqs"]), a["cfg"].num_types, a["tau_max"], a["num_probes"]
        ),
    ),
    "model.attention_matrix": ("rows", lambda a, r: len(a["grid"])),
    "trainer.train": ("epochs", lambda a, r: r[1].epochs_run),
}


class Tracer:
    def __init__(self):
        self.mode = "time"
        self.spans = []  # [name, parent, start, end]
        self.counts = defaultdict(float)
        self.peaks = {}  # span name -> largest allocation peak in bytes
        self.missing = []
        self._stack = []  # indices of the open spans
        self._largest = {}  # span name -> largest input size measured so far

    def _timed_call(self, name, fn, args, kwargs):
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()
        work = WORK.get(name)
        if work is not None:
            self.counts[work[0]] += work[1](_bound(fn, args, kwargs), result)
        return result

    def _measured_call(self, name, fn, args, kwargs):
        if name not in ALLOC_SPANS or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        size = _input_size(_bound(fn, args, kwargs))
        if size <= self._largest.get(name, -1):
            return fn(*args, **kwargs)
        self._largest[name] = size
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.mode == "time":
                return self._timed_call(name, fn, args, kwargs)
            if self.mode == "alloc":
                return self._measured_call(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap every target; targets that are gone are noted."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "attnhawkes"]
        for module_name, attr, name, where in TARGETS:
            module = sys.modules.get(f"attnhawkes.{module_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None)
            if where == "method":
                original = getattr(owner, method, None)
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(owner, method, self._wrap(original, name))
                continue
            if owner is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(owner, name)
            for mod in modules if where == "all" else [module]:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        setattr(mod, key, wrapped)

    def self_times(self) -> list[float]:
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, allocation peak."""
        out = {}
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, [0, 0.0, 0.0, self.peaks.get(name, 0)])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
        t = self.totals()

        def inclusive(*names):
            return sum(t[n][1] for n in names if n in t)

        def own(prefix):
            return sum(v[2] for n, v in t.items() if n.startswith(prefix + "."))

        def peak(*names):
            return max([self.peaks.get(n, 0) for n in names]) / MB

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        sim = own("simulator")
        fwd = inclusive("forward.forward", "forward.event_pre_all_types")
        heat = inclusive("evaluate.influence_heatmap")
        attn = inclusive("model.attention_matrix")
        train = inclusive("trainer.train")
        return {
            "simulator.simulate_s": (sim, "s"),
            "simulator.events_per_s": (rate(self.counts["events"], sim), "events/s"),
            "domain.make_grid_s": (inclusive("domain.make_grid"), "s"),
            "forward.cache_s": (inclusive("forward.cache"), "s"),
            "forward.forward_s": (fwd, "s"),
            "forward.cells_per_s": (rate(self.counts["cells"], fwd), "cells/s"),
            "forward.backward_s": (inclusive("forward.backward"), "s"),
            "forward.peak_alloc_mb": (
                peak("forward.cache", "forward.forward", "forward.backward",
                     "forward.event_pre_all_types"),
                "MB",
            ),
            "diff.gradient_s": (inclusive("diff.objective_and_gradients"), "s"),
            "trainer.epoch_s": (rate(train, self.counts["epochs"]), "s"),
            "trainer.gradient_s": (inclusive("trainer.gradient"), "s"),
            "trainer.validation_s": (inclusive("trainer.validation"), "s"),
            "trainer.adam_s": (inclusive("trainer.adam"), "s"),
            "evaluate.test_tll_s": (inclusive("evaluate.test_tll"), "s"),
            "evaluate.type_accuracy_s": (inclusive("evaluate.type_accuracy"), "s"),
            "evaluate.heatmap_s": (heat, "s"),
            "evaluate.probes_per_s": (rate(self.counts["probes"], heat), "probes/s"),
            "evaluate.intensity_trace_s": (inclusive("evaluate.intensity_trace"), "s"),
            "model.attention_matrix_s": (attn, "s"),
            "model.attention_rows_per_s": (rate(self.counts["rows"], attn), "rows/s"),
            "model.attention_peak_alloc_mb": (peak("model.attention_matrix"), "MB"),
            "io.load_data_s": (inclusive("io.load_data", "io.load_model"), "s"),
            "io.save_s": (inclusive("io.save_dataset", "io.save_model"), "s"),
            "io.write_csv_s": (
                inclusive("io.write_kernel_csv", "io.write_heatmap_csv",
                          "io.write_attention_csv", "io.write_trace_csv"),
                "s",
            ),
            "cli.self_s": (own("cli"), "s"),
            "trace.missing_spans": (float(len(self.missing)), "count"),
        }

    def report_lines(self) -> list[str]:
        """A table of every span name: calls, inclusive and self seconds, allocation peak."""
        lines = [f"{'span':34s} {'calls':>6s} {'incl_s':>9s} {'self_s':>9s} {'peak_MB':>8s}"]
        for name, (calls, incl, own, peak) in sorted(self.totals().items()):
            lines.append(f"{name:34s} {calls:6d} {incl:9.4f} {own:9.4f} {peak / MB:8.1f}")
        for name in self.missing:
            lines.append(f"{name:34s} missing: the traced name no longer exists")
        return lines

    def write(self, path, extra: dict):
        doc = dict(extra)
        doc["missing"] = self.missing
        doc["counts"] = dict(self.counts)
        doc["peak_alloc_bytes"] = self.peaks
        doc["spans"] = [
            {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
