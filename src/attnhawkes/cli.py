"""Command line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors, and 3 on
numerical failures.  All commands are deterministic given their arguments
and seeds, apart from the elapsed-seconds field of training logs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .domain import SPLIT_NAMES, Dataset, make_grid, split_dataset
from .errors import DataError, NumericalError
from .evaluate import (
    DEFAULT_NUM_PROBES,
    _split_metrics,
    influence_heatmap,
    intensity_trace,
    recover_kernel,
)
from .io import (
    load_data,
    load_model,
    load_split,
    save_dataset,
    save_model,
    write_attention_csv,
    write_heatmap_csv,
    write_kernel_csv,
    write_trace_csv,
)
from .model import VARIANT_ATTENTION, VARIANT_EXTRAPOLATION, ModelConfig, _attention_rows
from .simulator import (
    EXPONENTIAL,
    HALF_SINE,
    HawkesSpec,
    _true_intensities,
    simulate_dataset,
)
from .trainer import TrainConfig, train

__all__ = ["dataset_stats", "run_cli", "main"]

KERNEL_NAMES = {"exp": EXPONENTIAL, "half-sine": HALF_SINE}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _moments(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "max": float(arr.max()),
        "min": float(arr.min()),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
    }


def dataset_stats(ds: Dataset) -> dict:
    """Summary report: per split, event counts, sequence-length and
    inter-event-interval moments, and per-type percentages."""
    if len(ds) == 0:
        raise DataError("dataset has no sequences")
    report = {"num_types": ds.num_types, "splits": {}}
    for name in SPLIT_NAMES:
        seqs = ds.split(name)
        entry = {
            "num_sequences": len(seqs),
            "num_events": int(sum(len(s) for s in seqs)),
        }
        lengths = [len(s) for s in seqs]
        entry["seq_length"] = _moments(lengths) if lengths else None
        intervals = np.concatenate(
            [np.diff(s.times) for s in seqs if len(s) > 1] or [np.zeros(0)]
        )
        entry["interval"] = _moments(intervals) if len(intervals) else None
        if entry["num_events"]:
            counts = np.zeros(ds.num_types, dtype=np.int64)
            for s in seqs:
                counts += np.bincount(s.types, minlength=ds.num_types)
            entry["type_percentages"] = (100.0 * counts / counts.sum()).tolist()
        else:
            entry["type_percentages"] = None
        report["splits"][name] = entry
    return report


def _load_json_arg(text: str) -> dict:
    """Interpret an argument as a path to a JSON file, or inline JSON."""
    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. inline JSON longer than a file name may be
        is_file = False
    try:
        return json.loads(path.read_text(encoding="utf-8") if is_file else text)
    except (OSError, json.JSONDecodeError) as err:
        raise DataError(f"could not read JSON from {text!r}: {err}") from err


def _hawkes_spec_from_json(doc: dict, kernel: str | None = None) -> HawkesSpec:
    if not isinstance(doc, dict):
        raise DataError("process parameters must be a JSON object")
    kernel = kernel or doc.get("kernel")
    if kernel in KERNEL_NAMES:
        kernel = KERNEL_NAMES[kernel]
    if kernel not in (EXPONENTIAL, HALF_SINE):
        raise DataError(f"unknown kernel {kernel!r}")
    try:
        return HawkesSpec(
            mu=doc["mu"],
            kernel=kernel,
            alpha=doc["alpha"],
            beta=doc.get("beta") if kernel == EXPONENTIAL else None,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"bad process parameters: {err}") from err


def _fractions(text: str):
    parts = text.split(",")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as err:
        raise DataError(f"bad split fractions {text!r}") from err


def _load_split(args, cfg: ModelConfig):
    """The ``--split`` sequences of ``--data``, checked against the model's type count."""
    seqs = load_split(args.data, args.split, args.time_scale)
    if seqs and seqs[0].num_types != cfg.num_types:
        raise DataError(
            f"the data have {seqs[0].num_types} event types, the model has {cfg.num_types}"
        )
    return seqs


def _pick_sequence(args, cfg: ModelConfig):
    seqs = _load_split(args, cfg)
    if not 0 <= args.seq_index < len(seqs):
        raise DataError(
            f"sequence index {args.seq_index} outside split {args.split!r} of size {len(seqs)}"
        )
    return seqs[args.seq_index]


def _cmd_simulate(args) -> int:
    spec = _hawkes_spec_from_json(_load_json_arg(args.params), args.kernel)
    ds = simulate_dataset(
        spec, args.T, args.num_seqs, args.seed, allow_explosive=args.allow_explosive
    )
    ds = split_dataset(ds, _fractions(args.split), args.seed)
    save_dataset(ds, args.out)
    print(
        json.dumps(
            {
                "sequences": len(ds),
                "events": int(sum(len(s) for s in ds.all_sequences())),
                "out": str(args.out),
            }
        )
    )
    return 0


def _cmd_train(args) -> int:
    ds = load_data(args.data, args.time_scale)
    cfg = ModelConfig(
        num_types=ds.num_types,
        embed_dim=args.M,
        value_dim=args.value_dim,
        hidden_dim=args.hidden_dim,
        variant=args.variant,
        grid_subdivisions=args.grid,
        skip_connection=args.skip_connection,
    )
    train_cfg = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        patience=args.patience,
        grid_subdivisions=args.grid,
        seed=args.seed,
    )
    log_stream = open(args.log, "w", encoding="utf-8", newline="\n") if args.log else None
    try:
        params, report = train(ds, cfg, train_cfg, log_stream=log_stream)
    finally:
        if log_stream is not None:
            log_stream.close()
    save_model(params, cfg, args.out)
    summary = {"epochs_run": report.epochs_run, "best_epoch": report.best_epoch}
    if report.val_tlls:
        summary["best_val_tll"] = report.val_tlls[report.best_epoch]
    print(json.dumps(summary))
    return 0


def _cmd_eval(args) -> int:
    params, cfg = load_model(args.model)
    seqs = _load_split(args, cfg)
    grid = args.grid if args.grid is not None else cfg.grid_subdivisions
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(metrics) - {"tll", "acc"}
    if unknown:
        raise UsageError(f"unknown metrics: {sorted(unknown)}")
    print(json.dumps(_split_metrics(params, cfg, seqs, grid, metrics)))
    return 0


def _cmd_recover_kernel(args) -> int:
    params, cfg = load_model(args.model)
    seqs = _load_split(args, cfg)
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    taus = np.linspace(args.tau_max / args.steps, args.tau_max, args.steps)
    est = recover_kernel(
        params, cfg, seqs, args.source, args.target, taus, args.num_probes
    )
    write_kernel_csv(args.out, est, {"split": args.split})
    print(json.dumps({"out": str(args.out), "num_probes": est.num_probes}))
    return 0


def _cmd_heatmap(args) -> int:
    params, cfg = load_model(args.model)
    hm = influence_heatmap(
        params, cfg, _load_split(args, cfg), args.tau_max, args.steps, args.num_probes
    )
    write_heatmap_csv(args.out, hm, {"split": args.split})
    print(json.dumps({"out": str(args.out)}))
    return 0


def _cmd_attention_map(args) -> int:
    params, cfg = load_model(args.model)
    seq = _pick_sequence(args, cfg)
    grid = make_grid(seq, args.grid if args.grid is not None else cfg.grid_subdivisions)
    # streamed: the rows are written as their row block is computed
    amap = _attention_rows(params, cfg, seq, grid)
    write_attention_csv(args.out, amap, {"split": args.split, "seq_index": args.seq_index})
    print(json.dumps({"out": str(args.out), "num_points": len(amap.times)}))
    return 0


def _cmd_intensity_trace(args) -> int:
    params, cfg = load_model(args.model)
    seq = _pick_sequence(args, cfg)
    grid = make_grid(seq, args.grid if args.grid is not None else cfg.grid_subdivisions)
    trace = intensity_trace(params, cfg, seq, grid)
    true_values = None
    if args.true_spec is not None:
        spec = _hawkes_spec_from_json(_load_json_arg(args.true_spec))
        if spec.num_types != cfg.num_types:
            raise DataError(
                f"--true-spec has {spec.num_types} types, the model has {cfg.num_types}"
            )
        true_values = _true_intensities(spec, seq, grid.times)
    write_trace_csv(
        args.out, trace, true_values, {"split": args.split, "seq_index": args.seq_index}
    )
    print(json.dumps({"out": str(args.out), "num_points": len(trace.times)}))
    return 0


def _cmd_stats(args) -> int:
    ds = load_data(args.data, args.time_scale)
    print(json.dumps(dataset_stats(ds), indent=2))
    return 0


def _add_data_opts(p, with_split=True):
    p.add_argument("--data", required=True, help="split directory or JSONL file")
    p.add_argument("--time-scale", type=float, default=1.0, help="rescale all times by this factor")
    if with_split:
        p.add_argument("--split", default="test", choices=SPLIT_NAMES)


def _add_model_cmd(sub, name, func, help):
    """Subcommand ``name``, run by ``func``, that reads ``--model`` and a data split."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--model", required=True)
    _add_data_opts(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attnhawkes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate ground-truth Hawkes sequences")
    p.add_argument("--kernel", required=True, choices=sorted(KERNEL_NAMES))
    p.add_argument("--params", required=True, help="JSON object or path: mu, alpha[, beta]")
    p.add_argument("--num-seqs", type=int, required=True)
    p.add_argument("--T", type=float, required=True, help="observation horizon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="0.6,0.2,0.2", help="train,val,test fractions")
    p.add_argument("--out", required=True, help="output split directory")
    p.add_argument(
        "--allow-explosive",
        action="store_true",
        help="draw a process whose branching matrix has spectral radius >= 1",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a model by maximum likelihood")
    _add_data_opts(p, with_split=False)
    p.add_argument("--variant", default=VARIANT_ATTENTION, choices=[VARIANT_ATTENTION, VARIANT_EXTRAPOLATION])
    p.add_argument("--M", type=int, default=32, help="temporal embedding dimension")
    p.add_argument("--value-dim", type=int, default=None)
    p.add_argument("--hidden-dim", type=int, default=None)
    p.add_argument(
        "--skip-connection",
        action="store_true",
        help="add the query's own features to each intensity readout (needs value-dim = 2M)",
    )
    p.add_argument("--grid", type=int, default=10, help="integration grid subdivisions")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--log", default=None, help="JSONL training-log path")
    p.set_defaults(func=_cmd_train)

    p = _add_model_cmd(sub, "eval", _cmd_eval, "held-out metrics for a trained model")
    p.add_argument("--metrics", default="tll,acc", help="comma list from {tll,acc}")
    p.add_argument("--grid", type=int, default=None)

    p = _add_model_cmd(sub, "recover-kernel", _cmd_recover_kernel, "recovered trigger kernel as CSV")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--tau-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--num-probes", type=int, default=DEFAULT_NUM_PROBES)
    p.add_argument("--out", required=True)

    p = _add_model_cmd(sub, "heatmap", _cmd_heatmap, "integrated influence heatmap as CSV")
    p.add_argument("--tau-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--num-probes", type=int, default=DEFAULT_NUM_PROBES)
    p.add_argument("--out", required=True)

    p = _add_model_cmd(sub, "attention-map", _cmd_attention_map, "dense attention matrix as CSV")
    p.add_argument("--seq-index", type=int, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", required=True)

    p = _add_model_cmd(sub, "intensity-trace", _cmd_intensity_trace, "model intensity trace as CSV")
    p.add_argument("--seq-index", type=int, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--true-spec", default=None, help="overlay true intensities: JSON with kernel, mu, alpha[, beta]")
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="dataset summary statistics as JSON")
    _add_data_opts(p, with_split=False)
    p.set_defaults(func=_cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args fills a new namespace on each call, so one tree serves them all
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())
