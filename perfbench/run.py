"""Benchmark command for attnhawkes.

Runs one workload in a fresh Python process with single-threaded BLAS and
prints its report; the last line is the JSON result.  Run it from the
repository root:

    python3 perfbench/run.py --workload fit-exp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload long-seq --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --scaling

``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics of the traced run together with the tracing
overhead: how much worse each end-to-end metric read with tracing on.
``--scaling`` prints a one-off table of one-sequence gradient time and
peak memory at 250, 500 and 1000 events, each length in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-exp", "long-seq", "groups-cli")
DEADLINE_S = 175.0
SCALING_LENGTHS = (250, 500, 1000)

# End-to-end metrics whose larger value is worse; for the others (rates) a
# smaller value is worse.
WORSE_WHEN_HIGHER = ("setup_s", "interpret_s", "peak_rss_mb")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: two threads used twice the CPU for no less wall
    # time here, and their scheduling varies from run to run.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, deadline) -> tuple[list[str], dict]:
    """Run workload.py in a fresh process; return its report lines and JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *map(str, args)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"workload process did not finish by the deadline: {args}")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        raise ChildFailed(f"workload process exited with code {proc.returncode}: {args}")
    return lines[:-1], json.loads(lines[-1])


def overhead_pct(name, traced, untraced) -> float:
    """How much worse a metric read with tracing on, in percent of the untraced value."""
    if name in WORSE_WHEN_HIGHER:
        return 100.0 * (traced - untraced) / untraced
    return 100.0 * (untraced - traced) / traced


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds]
    report, plain = run_child(base + ["--trace", "0"], deadline)
    print("\n".join(report))
    if not args.trace:
        return plain
    report, traced = run_child(base + ["--trace", "1"], deadline)
    print("\n".join(report))
    metrics = dict(traced["metrics"])
    for name, entry in plain["metrics"].items():
        value = overhead_pct(name, traced["end_to_end"][name]["value"], entry["value"])
        metrics[f"trace.{name}_overhead_pct"] = {"value": value, "unit": "%"}
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def run_scaling():
    deadline = time.monotonic() + 3 * DEADLINE_S
    rows = [run_child(["--scaling", n], deadline)[1] for n in SCALING_LENGTHS]
    print("| L (events) | grid points | gradient s (median of 3) | peak RSS MB |")
    print("|---:|---:|---:|---:|")
    for row in rows:
        print(f"| {row['length']} | {row['grid_points']} | {row['gradient_s']:.3f} | "
              f"{row['peak_rss_mb']:.0f} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="attnhawkes benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true", help="print the L-scaling table")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "attnhawkes").is_dir():
        print(f"no package source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.scaling:
            run_scaling()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args)
    except ChildFailed as err:
        print(err, file=sys.stderr)
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
