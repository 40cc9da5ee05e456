"""File formats: JSONL sequence files, JSON model files, CSV artifacts.

All writers are deterministic byte for byte given the same inputs: floats
serialize with their shortest round-trip representation, key order is
fixed, and newlines are always ``\\n``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .domain import SPLIT_NAMES, Dataset, EventSequence, validate_sequence
from .errors import DataError, EmptyDataset, ParseError, SequenceError, ValidationError
from .model import ModelConfig, ModelParams, param_shapes, validate_params

__all__ = [
    "save_sequences",
    "load_sequences",
    "save_dataset",
    "load_data",
    "load_split",
    "save_model",
    "load_model",
    "write_kernel_csv",
    "write_heatmap_csv",
    "write_attention_csv",
    "write_trace_csv",
]

MODEL_FORMAT_VERSION = 1


def _fmt(x) -> str:
    return repr(float(x))


def save_sequences(seqs, path) -> None:
    """Write one JSON record per sequence: horizon T, type count K, events."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for seq in seqs:
            record = {
                "T": seq.horizon,
                "K": seq.num_types,
                "events": [
                    {"t": t, "k": k} for t, k in zip(seq.times.tolist(), seq.types.tolist())
                ],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _record_to_sequence(record, line, time_scale):
    if not isinstance(record, dict):
        raise ValidationError(line, "record is not a JSON object")
    for key in ("T", "K", "events"):
        if key not in record:
            raise ValidationError(line, f"missing key {key!r}")
    horizon, k, events = record["T"], record["K"], record["events"]
    if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
        raise ValidationError(line, "T must be a real number")
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValidationError(line, "K must be an integer")
    if not isinstance(events, list):
        raise ValidationError(line, "events must be a list")
    times, types = [], []
    for j, ev in enumerate(events):
        if not isinstance(ev, dict) or "t" not in ev or "k" not in ev:
            raise ValidationError(line, f"event {j} must be an object with keys 't' and 'k'")
        t, kk = ev["t"], ev["k"]
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ValidationError(line, f"event {j}: t must be a real number")
        if isinstance(kk, bool) or not isinstance(kk, int):
            raise ValidationError(line, f"event {j}: k must be an integer")
        times.append(float(t) * time_scale)
        types.append(kk)
    seq = EventSequence(
        times=times, types=types, horizon=float(horizon) * time_scale, num_types=k
    )
    try:
        validate_sequence(seq)
    except (SequenceError, ValueError) as err:
        raise ValidationError(line, str(err)) from err
    return seq


def load_sequences(path, time_scale: float = 1.0) -> list[EventSequence]:
    """Parse a JSONL sequence file, optionally rescaling all times by a factor.

    Raises ``ParseError`` with the 1-based line number on malformed JSON and
    ``ValidationError`` when a record violates the sequence invariants or
    disagrees with the others on the number of types.
    """
    time_scale = float(time_scale)
    if not time_scale > 0.0:
        raise DataError(f"time scale must be positive, got {time_scale}")
    seqs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as err:
                raise ParseError(line_no, f"invalid JSON: {err.msg}") from err
            seq = _record_to_sequence(record, line_no, time_scale)
            if seqs and seq.num_types != seqs[0].num_types:
                raise ValidationError(
                    line_no, f"K={seq.num_types} disagrees with K={seqs[0].num_types} above"
                )
            seqs.append(seq)
    return seqs


def save_dataset(ds: Dataset, dirpath) -> None:
    """Write ``train.jsonl``, ``val.jsonl``, and ``test.jsonl`` under a directory."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for name in SPLIT_NAMES:
        save_sequences(ds.split(name), dirpath / f"{name}.jsonl")


def load_data(path, time_scale: float = 1.0) -> Dataset:
    """Load a dataset from a split directory or a single JSONL file.

    A directory is read through its ``{train,val,test}.jsonl`` members, any
    of which may be absent; a plain file loads into the train split.
    """
    path = Path(path)
    if path.is_dir():
        splits = {}
        for name in SPLIT_NAMES:
            member = path / f"{name}.jsonl"
            splits[name] = load_sequences(member, time_scale) if member.exists() else []
        seqs_all = splits["train"] + splits["val"] + splits["test"]
        if not seqs_all:
            raise EmptyDataset(f"no sequences found under {path}")
        kk = {s.num_types for s in seqs_all}
        if len(kk) > 1:
            raise DataError(f"splits disagree on the number of types: {sorted(kk)}")
        return Dataset(
            train=tuple(splits["train"]),
            val=tuple(splits["val"]),
            test=tuple(splits["test"]),
            num_types=kk.pop(),
        )
    if not path.exists():
        raise DataError(f"no such file or directory: {path}")
    seqs = load_sequences(path, time_scale)
    if not seqs:
        raise EmptyDataset(f"no sequences found in {path}")
    return Dataset(train=tuple(seqs), val=(), test=(), num_types=seqs[0].num_types)


def load_split(path, split: str, time_scale: float = 1.0) -> list[EventSequence]:
    """The sequences of one split, parsing only that split's file when it has any.

    From a split directory only ``<split>.jsonl`` is read, so the other members
    are neither parsed nor checked against it.  A plain file is the train split
    and is loaded as ``load_data`` loads it.  When the requested split has no
    sequences, the whole dataset is loaded, so the errors of an empty request
    are those of ``load_data``.
    """
    if split not in SPLIT_NAMES:
        raise ValueError(f"unknown split {split!r}")
    path = Path(path)
    if path.is_dir():
        member = path / f"{split}.jsonl"
        seqs = load_sequences(member, time_scale) if member.exists() else []
        if seqs:
            return seqs
    return list(load_data(path, time_scale).split(split))


def save_model(params: ModelParams, cfg: ModelConfig, path) -> None:
    """Serialize config and parameters as JSON with row-major flat arrays."""
    validate_params(params, cfg)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": asdict(cfg),
        "params": {
            name: {
                "shape": list(shape),
                "data": np.asarray(getattr(params, name)).ravel().tolist(),
            }
            for name, shape in param_shapes(cfg).items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[ModelParams, ModelConfig]:
    """Inverse of ``save_model``; round trips are bit identical."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise DataError(f"model file is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model file format: expected format_version {MODEL_FORMAT_VERSION}"
        )
    try:
        cfg = ModelConfig(**doc["config"])
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"bad model config: {err}") from err
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        try:
            entry = doc["params"][name]
            if list(entry["shape"]) != list(shape):
                raise ValueError(f"declared shape {entry['shape']}, expected {list(shape)}")
            arrays[name] = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"parameter {name!r} is missing or malformed: {err!r}") from err
    params = ModelParams(**arrays)
    try:
        validate_params(params, cfg)
    except ValueError as err:
        raise DataError(str(err)) from err
    return params, cfg


def _write_csv(path, meta: dict, extra_meta: dict | None, header: list[str], rows) -> None:
    """Write the ``meta`` line, with ``extra_meta``'s keys appended, then the header and rows."""
    meta = {**meta, **(extra_meta or {})}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_kernel_csv(path, estimate, extra_meta: dict | None = None) -> None:
    meta = {
        "artifact": "recovered_kernel",
        "source": estimate.source,
        "target": estimate.target,
        "num_probes": estimate.num_probes,
    }
    rows = ([_fmt(t), _fmt(p)] for t, p in zip(estimate.tau, estimate.phi))
    _write_csv(path, meta, extra_meta, ["tau", "phi_hat"], rows)


def write_heatmap_csv(path, heatmap, extra_meta: dict | None = None) -> None:
    k = heatmap.integrals.shape[0]
    meta = {
        "artifact": "influence_heatmap",
        "tau_max": heatmap.tau_max,
        "steps": heatmap.steps,
        "num_probes": heatmap.num_probes,
    }
    header = ["target"] + [f"source_{j}" for j in range(k)]
    rows = (
        [str(i)] + [_fmt(v) for v in heatmap.integrals[i]] for i in range(k)
    )
    _write_csv(path, meta, extra_meta, header, rows)


def _weight_cells(row: np.ndarray) -> list[str]:
    """``repr`` of every weight, with exact positive zeros written as the literal ``0.0``.

    Most of an attention row is structural zeros; a cell that is nonzero or has
    its sign bit set (so ``-0.0`` and every NaN) still goes through ``repr``.
    """
    cells = ["0.0"] * len(row)
    written = np.flatnonzero((row != 0.0) | np.signbit(row))
    for j, v in zip(written.tolist(), row[written].tolist()):
        cells[j] = repr(v)
    return cells


def write_attention_csv(path, amap, extra_meta: dict | None = None) -> None:
    """Write an attention map; each row is written as soon as ``amap.matrix`` yields it,
    so a streamed map (``model._attention_rows``) is never held whole."""
    n = len(amap.times)
    meta = {"artifact": "attention_map", "num_points": n}
    header = ["time", "kind", "query_type"] + [f"w_{j}" for j in range(n)]
    rows = (
        [
            _fmt(amap.times[i]),
            "event" if amap.is_event[i] else "grid",
            str(int(amap.query_types[i])),
        ]
        + _weight_cells(row)
        for i, row in enumerate(amap.matrix)
    )
    _write_csv(path, meta, extra_meta, header, rows)


def write_trace_csv(path, trace, true_values=None, extra_meta: dict | None = None) -> None:
    k = trace.values.shape[1]
    meta = {"artifact": "intensity_trace", "num_points": len(trace.times)}
    header = ["t"] + [f"lambda_{i}" for i in range(k)]
    if true_values is not None:
        header += [f"true_{i}" for i in range(k)]

    def rows():
        for i in range(len(trace.times)):
            row = [_fmt(trace.times[i])] + [_fmt(v) for v in trace.values[i]]
            if true_values is not None:
                row += [_fmt(v) for v in true_values[i]]
            yield row

    _write_csv(path, meta, extra_meta, header, rows())
