"""One run of one benchmark workload, in this process.

``run.py`` starts this file in a fresh process with single-threaded BLAS.
A run sets up (imports, inputs from the simulator, one warm-up unit) three
times and keeps the median set-up time, then repeats whole rounds of timed
units until ``--seconds`` have passed, checks the outputs of the first
round apart from the timed sections, and prints a report whose last line
is the JSON result.  With ``--trace 1`` it sets up once, runs a single
round with every package entry point wrapped in a span, runs the round
again for allocation peaks, and reports the per-layer metrics instead.

Usage: python3 perfbench/workload.py --workload fit-exp --seed 1 --seconds 20 --trace 0
       python3 perfbench/workload.py --scaling 500
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from attnhawkes import cli, diff, domain, evaluate, model, simulator, trainer  # noqa: E402
from attnhawkes import io as pkg_io  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - _START

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
# Eval units are the shortest, so each round times two of them.
EVAL_REPEATS = 2
GRID = 10
EMBED = 32

# The exponential process of the acceptance tests: two types that excite
# themselves and each other, branching ratio 0.88.
EXP = reference.Process(
    mu=[0.2, 0.2], alpha=[[3.0, 2.0], [1.0, 3.0]], beta=[[5.0, 5.0], [5.0, 5.0]]
)


def ring_process(groups=8, own=0.2, neighbour=0.1, mu=0.05):
    """Half-sine groups, each exciting itself and the next group round a ring.

    A half-sine kernel integrates to 2 alpha, so the branching matrix is
    2 alpha and its spectral radius is 2 (own + neighbour) = 0.6.
    """
    alpha = np.zeros((groups, groups))
    for j in range(groups):
        alpha[j, j] = own
        alpha[(j + 1) % groups, j] = neighbour
    return reference.Process(mu=[mu] * groups, alpha=alpha)


class OperationFailed(Exception):
    pass


class Run:
    """Counts operations and failures, collects timed samples and failed checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.samples = {"train_events_per_s": [], "eval_events_per_s": [], "interpret_s": []}
        self.failures = []
        self.notes = []

    def call(self, fn, *args, **kwargs):
        """One operation of the package; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            raise OperationFailed(f"{getattr(fn, '__name__', fn)}: {err!r}") from err

    def cli(self, *argv) -> str:
        """One CLI command in this process; returns what it printed."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run_cli([str(a) for a in argv])
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"attnhawkes {argv[0]}: {exc!r}") from exc
        if code != 0:
            self.failed += 1
            raise OperationFailed(f"attnhawkes {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, name, ok, detail=""):
        if not ok:
            self.failures.append(f"{name}: {detail}")

    @contextlib.contextmanager
    def unmeasured(self):
        """Checks call the package too; keep those calls out of the trace."""
        if self.tracer is None:
            yield
            return
        mode, self.tracer.mode = self.tracer.mode, "off"
        try:
            yield
        finally:
            self.tracer.mode = mode


def spec_of(process: reference.Process) -> simulator.HawkesSpec:
    kernel = simulator.EXPONENTIAL if process.beta is not None else simulator.HALF_SINE
    return simulator.HawkesSpec(mu=process.mu, kernel=kernel, alpha=process.alpha, beta=process.beta)


def crop(seq, length):
    """The first ``length`` events, observed until the next event.

    The window then ends at a stopping time of the process, so the cropped
    sequence is still a realization of it.
    """
    if len(seq) <= length:
        return seq
    times, types, horizon = cap_triple((seq.times, seq.types, seq.horizon), length)
    return domain.EventSequence(times=times, types=types, horizon=horizon, num_types=seq.num_types)


def simulate_length(spec, length, seed, key, horizon):
    """A sequence of exactly ``length`` events and the raw draw it was cut from.

    The horizon doubles until the draw holds more events; thinning with the
    same generator reproduces the shorter draw as a prefix, so the result
    does not depend on the starting horizon.
    """
    while True:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
        raw = simulator.thin_simulate(spec, horizon, rng)
        if len(raw) > length:
            return raw, crop(raw, length)
        horizon *= 2.0


def triples(seqs):
    return [(s.times, s.types, s.horizon) for s in seqs]


def sample_indices(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=min(n, count), replace=False))


def check_martingale(run, process, raw_triples):
    z = reference.martingale_z(process, raw_triples)
    run.check("simulator compensator identity", abs(z) <= 4.0, f"z = {z:.3f}")
    run.notes.append(f"martingale z = {z:+.3f} over {sum(len(t) for t, _, _ in raw_triples)} events")


def check_trace(run, ref_model, times, types, grid_times, values, seed):
    """Model intensities at sampled grid times against the benchmark's own formula."""
    worst = 0.0
    for i in sample_indices(len(grid_times), 40, seed):
        t = float(grid_times[i])
        want = reference.ithp_intensities(ref_model, times, types, t, int(np.sum(times < t)))
        worst = max(worst, reference.rel_err(values[i], want))
    run.check("intensity trace against the model formula", worst <= 1e-9, f"relative error {worst:.2e}")


def check_tll(run, tll, params, cfg, ref_model, seqs, seed, sampled=4):
    """Test TLL against per-sequence log-likelihoods, and those against the model formula.

    The split figure must be the per-event sum of the package's sequence
    log-likelihoods.  Those of ``sampled`` seeded sequences and of the
    longest one must match the benchmark's own event term and trapezoid
    compensator, on its own grid, to 1e-9 of their scale.
    """
    lls = [run.call(trainer.log_likelihood, params, cfg, s, domain.make_grid(s, GRID)) for s in seqs]
    split = sum(lls) / sum(len(s) for s in seqs)
    run.check("test TLL is the per-event sum of sequence log-likelihoods",
              reference.rel_err(tll, split) <= 1e-12, f"{tll!r} vs {split!r}")
    picks = set(sample_indices(len(seqs), sampled, seed).tolist())
    picks.add(max(range(len(seqs)), key=lambda i: len(seqs[i])))
    worst = 0.0
    for i in sorted(picks):
        s = seqs[i]
        event_term, comp = reference.ithp_log_likelihood(
            ref_model, s.times, s.types, reference.event_grid(s.times, s.horizon, GRID))
        worst = max(worst, abs(lls[i] - (event_term - comp)) / (abs(event_term) + comp))
    run.check("sequence log-likelihoods against the model formula", worst <= 1e-9,
              f"error {worst:.2e} of scale")


def check_heatmap_kernel(run, heat, phi, taus, source, target):
    """A heatmap cell is the trapezoid integral of the kernel recovered with the same probes."""
    integral = float(np.sum((phi[1:] + phi[:-1]) * np.diff(taus)) / 2.0)
    cell = float(heat[target][source])
    ok = np.isfinite(heat).all() and abs(cell - integral) <= 1e-9 * max(1.0, abs(integral))
    run.check("heatmap cell equals the integrated recovered kernel", ok, f"{cell!r} vs {integral!r}")


def heatmap_taus(tau_max=1.0, steps=20):
    return np.linspace(tau_max / steps, tau_max, steps)


class FitExp:
    """The exponential acceptance process, trained as the acceptance fixture is.

    400 sequences on [0, 20] split 200/100/100.  Sequences longer than 128
    events are cut after their 128th event: the few longest sequences of a
    draw would otherwise set a run's cost per event and its memory, which
    then swing by 10% from seed to seed.  Interpretation runs on one more,
    held-out sequence of exactly 400 events.  Every round fits afresh from
    the same seeded start, so rounds repeat the same work and the timed
    units of each metric spread over the whole run.
    """

    cap = 128
    interp_length = 400
    epochs = 2

    def __init__(self, seed):
        self.seed = seed
        self.process = EXP
        self.spec = spec_of(EXP)
        self.cfg = model.ModelConfig(num_types=2, embed_dim=EMBED, grid_subdivisions=GRID)
        self.train_cfg = trainer.TrainConfig(
            learning_rate=1e-2, max_epochs=self.epochs, batch_size=32,
            patience=self.epochs + 1, grid_subdivisions=GRID, seed=0,
        )

    def setup(self, run):
        drawn = run.call(simulator.simulate_dataset, self.spec, 20.0, 400, self.seed)
        split = run.call(domain.split_dataset, drawn, (0.5, 0.25, 0.25), self.seed)
        self.raw = triples(drawn.train)

        def capped(seqs):
            return tuple(crop(s, self.cap) for s in seqs)

        self.ds = domain.Dataset(
            train=capped(split.train), val=capped(split.val), test=capped(split.test), num_types=2
        )
        raw, self.interp_seq = simulate_length(self.spec, self.interp_length, self.seed, (400,), 150.0)
        self.raw.append((raw.times, raw.types, raw.horizon))
        run.call(trainer.train, self.ds, self.cfg, replace(self.train_cfg, max_epochs=1))

    def round(self, run, check):
        train_events = sum(len(s) for s in self.ds.train)
        start = time.perf_counter()
        params, report = run.call(trainer.train, self.ds, self.cfg, self.train_cfg)
        run.samples["train_events_per_s"].append(
            report.epochs_run * train_events / (time.perf_counter() - start)
        )
        test = self.ds.test
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            tll = run.call(evaluate.test_tll, params, self.cfg, test, GRID)
            acc = run.call(evaluate.type_accuracy, params, self.cfg, test)
            run.samples["eval_events_per_s"].append(
                sum(len(s) for s in test) / (time.perf_counter() - start)
            )
        taus = heatmap_taus()
        start = time.perf_counter()
        grid = run.call(domain.make_grid, self.interp_seq, GRID)
        heat = run.call(evaluate.influence_heatmap, params, self.cfg, test)
        kernel = run.call(evaluate.recover_kernel, params, self.cfg, test, 0, 1, taus)
        amap = run.call(model.attention_matrix, params, self.cfg, self.interp_seq, grid)
        trace = run.call(evaluate.intensity_trace, params, self.cfg, self.interp_seq, grid)
        run.samples["interpret_s"].append(time.perf_counter() - start)
        if check:
            with run.unmeasured():
                run.check("training ran every epoch", report.epochs_run == self.epochs,
                          f"{report.epochs_run} of {self.epochs}")
                self.check_outputs(run, params, report, tll, acc, heat, kernel, amap, grid, trace)

    def check_outputs(self, run, params, report, tll, acc, heat, kernel, amap, grid, trace):
        taus = heatmap_taus()
        baseline = reference.constant_rate_tll(triples(self.ds.train), triples(self.ds.test), 2)
        run.notes.append(f"test TLL {tll:.4f}, constant-rate baseline {baseline:.4f}, accuracy {acc:.4f}")
        ref_model = reference.model_from_params(params, EMBED, False)
        check_tll(run, tll, params, self.cfg, ref_model, self.ds.test, self.seed, sampled=6)
        val = run.call(evaluate.test_tll, params, self.cfg, self.ds.val, GRID)
        best = report.val_tlls[report.best_epoch]
        run.check("train returns the best validation epoch", reference.rel_err(val, best) <= 1e-12,
                  f"{val!r} vs {best!r} (epoch {report.best_epoch})")
        run.check("type accuracy is a fraction", 0.0 <= acc <= 1.0, repr(acc))
        check_heatmap_kernel(run, heat.integrals, kernel.phi, taus, 0, 1)
        problem = reference.attention_structure_error(amap.is_event, amap.matrix)
        run.check("attention map structure", problem is None, problem)
        run.check("trace times are the grid", np.array_equal(trace.times, grid.times))
        seq = self.interp_seq
        check_trace(run, ref_model, seq.times, seq.types, grid.times, trace.values, self.seed)

    def checks(self, run):
        check_martingale(run, self.process, self.raw)


class LongSeq:
    """A few sequences of 400, 700 and 1000 events under repeated batch gradients.

    The O(K G L^2) grid-attention arrays of the longest sequence set both
    time and peak memory here.  Each sequence is cut to its exact length, so
    the work of a run does not depend on the seed.
    """

    lengths = (400, 700, 1000)

    def __init__(self, seed):
        self.seed = seed
        self.process = EXP
        self.spec = spec_of(EXP)
        self.cfg = model.ModelConfig(num_types=2, embed_dim=EMBED, grid_subdivisions=GRID)

    def setup(self, run):
        self.raw, self.seqs = [], []
        for i, length in enumerate(self.lengths):
            raw, seq = simulate_length(self.spec, length, self.seed, (i,), length / 3.0)
            self.raw.append((raw.times, raw.types, raw.horizon))
            self.seqs.append(seq)
        self.batch = [(s, run.call(domain.make_grid, s, GRID)) for s in self.seqs]
        self.params = run.call(trainer.init_params, self.cfg, self.seqs, 0)
        run.call(diff.objective_and_gradients, self.params, self.cfg, self.batch)

    def round(self, run, check):
        events = sum(self.lengths)
        start = time.perf_counter()
        bundle = run.call(diff.objective_and_gradients, self.params, self.cfg, self.batch)
        run.samples["train_events_per_s"].append(events / (time.perf_counter() - start))
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            tll = run.call(evaluate.test_tll, self.params, self.cfg, self.seqs, GRID)
            acc = run.call(evaluate.type_accuracy, self.params, self.cfg, self.seqs)
            run.samples["eval_events_per_s"].append(events / (time.perf_counter() - start))
        longest = self.seqs[-1]
        start = time.perf_counter()
        grid = run.call(domain.make_grid, longest, GRID)
        heat = run.call(evaluate.influence_heatmap, self.params, self.cfg, self.seqs)
        trace = run.call(evaluate.intensity_trace, self.params, self.cfg, longest, grid)
        run.samples["interpret_s"].append(time.perf_counter() - start)
        if check:
            with run.unmeasured():
                self.check_outputs(run, tll, acc, heat, grid, trace, bundle)

    def check_outputs(self, run, tll, acc, heat, grid, trace, bundle):
        longest = self.seqs[-1]
        run.check("test TLL is finite", math.isfinite(tll), repr(tll))
        run.check("type accuracy is a fraction", 0.0 <= acc <= 1.0, repr(acc))
        run.check("heatmap is finite", bool(np.isfinite(heat.integrals).all()))
        ref_model = reference.model_from_params(self.params, EMBED, False)
        check_trace(run, ref_model, longest.times, longest.types, grid.times, trace.values, self.seed)
        self.check_gradient(run, bundle)

    def check_gradient(self, run, bundle, eps=1e-5):
        """Central differences of objective_value on sampled coordinates, as test_01 does."""
        rng = np.random.default_rng(self.seed)
        for name in ("type_embed", "readout"):
            grad = np.asarray(getattr(bundle, name))
            large = np.flatnonzero(np.abs(grad) >= 1.0)
            if not len(large):
                run.check(f"gradient of {name} has a coordinate to test", False)
                continue
            flat = int(rng.choice(large))
            index = np.unravel_index(flat, grad.shape)
            values = []
            for sign in (1.0, -1.0):
                arr = np.array(getattr(self.params, name))
                arr[index] += sign * eps
                shifted = replace(self.params, **{name: arr})
                values.append(run.call(diff.objective_value, shifted, self.cfg, self.batch))
            approx = (values[0] - values[1]) / (2.0 * eps)
            exact = float(grad[index])
            err = abs(exact - approx) / max(abs(exact), abs(approx), 1e-4)
            run.check(f"gradient of {name}{list(index)} against central differences", err < 1e-4,
                      f"{exact!r} vs {approx!r}")

    def checks(self, run):
        check_martingale(run, self.process, self.raw)


class GroupsCli:
    """Eight half-sine groups on a ring, driven end to end through the CLI.

    Every step is ``attnhawkes.cli.run_cli`` in this process.  The process
    spec is passed as a file path: inline JSON this long is read as a
    file name first, which fails with ENAMETOOLONG.  After ``simulate``
    the benchmark cuts each sequence after its 100th event, in the files:
    the longest sequence of a draw sets the peak memory of K=8 grid
    attention, which otherwise moved by 25% from seed to seed.
    """

    num_seqs = 200
    horizon = 60.0
    cap = 100
    epochs = 2
    trace_length = 60

    def __init__(self, seed, work):
        self.seed = seed
        self.process = ring_process()
        self.work = work
        self.data = work / "data"
        self.model = work / "model.json"
        self.spec_path = work / "spec.json"

    def train_args(self, epochs):
        return (
            "train", "--data", self.data, "--M", EMBED, "--grid", GRID, "--lr", "0.01",
            "--epochs", epochs, "--batch-size", 8, "--patience", epochs + 1,
            "--skip-connection", "--seed", 0, "--out", self.model, "--log", self.work / "train.jsonl",
        )

    def setup(self, run):
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(json.dumps(self.process.to_json()), encoding="utf-8")
        self.simulated = json.loads(run.cli(
            "simulate", "--kernel", "half-sine", "--params", self.spec_path,
            "--num-seqs", self.num_seqs, "--T", self.horizon, "--seed", self.seed,
            "--split", "0.5,0.25,0.25", "--out", self.data,
        ))
        self.raw, self.splits = {}, {}
        for name in domain.SPLIT_NAMES:
            path = self.data / f"{name}.jsonl"
            self.raw[name] = read_jsonl(path)
            self.splits[name] = [cap_triple(t, self.cap) for t in self.raw[name]]
            write_jsonl(path, self.splits[name], len(self.process.mu))
        lengths = [len(t) for t, _, _ in self.splits["test"]]
        self.seq_index = int(np.argmin([abs(n - self.trace_length) for n in lengths]))
        self.stats = json.loads(run.cli("stats", "--data", self.data))
        run.cli(*self.train_args(1))

    def round(self, run, check):
        w = self.work
        train_events = sum(len(t) for t, _, _ in self.splits["train"])
        start = time.perf_counter()
        run.cli(*self.train_args(self.epochs))
        run.samples["train_events_per_s"].append(
            self.epochs * train_events / (time.perf_counter() - start)
        )
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            scores = json.loads(run.cli("eval", "--model", self.model, "--data", self.data,
                                        "--metrics", "tll,acc"))
            run.samples["eval_events_per_s"].append(
                sum(len(t) for t, _, _ in self.splits["test"]) / (time.perf_counter() - start)
            )
        common = ("--model", self.model, "--data", self.data)
        start = time.perf_counter()
        run.cli("heatmap", *common, "--out", w / "heatmap.csv")
        run.cli("recover-kernel", *common, "--source", 0, "--target", 1, "--out", w / "kernel.csv")
        run.cli("attention-map", *common, "--seq-index", self.seq_index, "--out", w / "attention.csv")
        run.cli("intensity-trace", *common, "--seq-index", self.seq_index,
                "--true-spec", self.spec_path, "--out", w / "trace.csv")
        run.samples["interpret_s"].append(time.perf_counter() - start)
        if check:
            with run.unmeasured():
                self.check_outputs(run, scores)

    def check_outputs(self, run, scores):
        k = len(self.process.mu)
        baseline = reference.constant_rate_tll(self.splits["train"], self.splits["test"], k)
        run.notes.append(f"test TLL {scores['tll']:.4f}, constant-rate baseline {baseline:.4f}, "
                         f"accuracy {scores['acc']:.4f}")
        run.check("type accuracy is a fraction", 0.0 <= scores["acc"] <= 1.0, repr(scores["acc"]))
        ref_model = reference.model_from_json(self.model)
        params, cfg = run.call(pkg_io.load_model, self.model)
        test = [domain.EventSequence(times=t, types=y, horizon=h, num_types=k)
                for t, y, h in self.splits["test"]]
        check_tll(run, scores["tll"], params, cfg, ref_model, test, self.seed)
        w = self.work
        _, header, rows = reference.read_csv(w / "heatmap.csv")
        run.check("heatmap CSV header", header == ["target"] + [f"source_{j}" for j in range(k)], header)
        heat = np.array([[float(x) for x in row[1:]] for row in rows])
        _, header, rows = reference.read_csv(w / "kernel.csv")
        run.check("kernel CSV header", header == ["tau", "phi_hat"], header)
        kernel = np.array([[float(x) for x in row] for row in rows])
        check_heatmap_kernel(run, heat, kernel[:, 1], kernel[:, 0], 0, 1)
        times, types, _ = self.splits["test"][self.seq_index]
        problem = check_attention_csv(w / "attention.csv")
        run.check("attention map CSV", problem is None, problem)
        _, header, rows = reference.read_csv(w / "trace.csv")
        want = ["t"] + [f"lambda_{i}" for i in range(k)] + [f"true_{i}" for i in range(k)]
        run.check("trace CSV header", header == want, header)
        table = np.array([[float(x) for x in row] for row in rows])
        grid_times = table[:, 0]
        check_trace(run, ref_model, times, types, grid_times, table[:, 1 : 1 + k], self.seed)
        true = np.array([self.process.intensity(times, types, t) for t in grid_times])
        err = reference.rel_err(table[:, 1 + k :], true)
        run.check("trace true_* columns against the closed-form intensity", err <= 1e-9, f"{err:.2e}")

    def checks(self, run):
        def counts(splits):
            return (sum(len(seqs) for seqs in splits.values()),
                    sum(len(t) for seqs in splits.values() for t, _, _ in seqs))

        run.check("simulate counts match its files",
                  (self.simulated["sequences"], self.simulated["events"]) == counts(self.raw),
                  f"{self.simulated} vs {counts(self.raw)}")
        stats = self.stats["splits"]
        reported = {name: (stats[name]["num_sequences"], stats[name]["num_events"])
                    for name in domain.SPLIT_NAMES}
        wanted = {name: counts({name: seqs}) for name, seqs in self.splits.items()}
        run.check("stats counts match the capped files", reported == wanted, f"{reported} vs {wanted}")
        check_martingale(run, self.process, [t for seqs in self.raw.values() for t in seqs])


def read_jsonl(path):
    """(times, types, horizon) per line of a dataset file, parsed without the package."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append((
                    np.array([e["t"] for e in rec["events"]], dtype=np.float64),
                    np.array([e["k"] for e in rec["events"]], dtype=np.int64),
                    float(rec["T"]),
                ))
    return out


def write_jsonl(path, seqs, num_types):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for times, types, horizon in seqs:
            events = [{"t": t, "k": k} for t, k in zip(times.tolist(), types.tolist())]
            fh.write(json.dumps({"T": horizon, "K": num_types, "events": events},
                                separators=(",", ":")) + "\n")


def cap_triple(seq, cap):
    """The first ``cap`` events of a (times, types, horizon) triple, observed until the next event."""
    times, types, _ = seq
    if len(times) <= cap:
        return seq
    return times[:cap], types[:cap], float(times[cap])


def check_attention_csv(path):
    """Structure of an attention-map CSV, read one row at a time."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        header = fh.readline().rstrip("\n").split(",")
        n = len(header) - 3
        if header[:3] != ["time", "kind", "query_type"] or header[3:] != [f"w_{j}" for j in range(n)]:
            return f"header {header[:4]}..."
        kinds, rows = [], 0
        for i, line in enumerate(fh):
            cells = line.rstrip("\n").split(",")
            row = np.array(cells[3:], dtype=np.float64)
            if len(row) != n or cells[1] not in ("event", "grid"):
                return f"row {i} is malformed"
            if np.any(row[i:] != 0.0):
                return f"row {i}: nonzero weight on or above the diagonal"
            if cells[1] == "event" and any(kinds) and abs(float(row.sum()) - 1.0) > 1e-9:
                return f"event row {i}: weights sum to {float(row.sum())!r}"
            kinds.append(cells[1] == "event")
            rows += 1
        if rows != n:
            return f"{rows} rows for {n} columns"
    # grid columns: a second pass keeps memory at one row
    grid_cols = ~np.array(kinds)
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        for i, line in enumerate(fh):
            row = np.array(line.rstrip("\n").split(",")[3:], dtype=np.float64)
            if np.any(row[grid_cols] != 0.0):
                return f"row {i}: nonzero weight in a grid column"
    return None


def repeat_rounds(run, workload, seconds, rounds, check):
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``).

    With ``check`` the outputs of the first round are checked.  A failed
    operation ends its round; it counts in ``run.failed``, not as a check.
    """
    start = time.perf_counter()
    done = 0
    while True:
        try:
            workload.round(run, check and done == 0)
        except OperationFailed as err:
            run.notes.append(f"round {done} stopped: {err}")
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    run.notes.append(f"{done} rounds")


def make_workload(name, seed, work):
    if name == "fit-exp":
        return FitExp(seed)
    if name == "long-seq":
        return LongSeq(seed)
    return GroupsCli(seed, work)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fit-exp", "long-seq", "groups-cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", type=int, default=None, help="one-sequence gradient at this length")
    args = parser.parse_args(argv)
    if args.scaling is not None:
        return scaling(args.scaling)
    if args.workload is None:
        parser.error("--workload is required")

    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{args.workload}-{args.seed}-{args.trace}"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = Run(tracer)
    workload = make_workload(args.workload, args.seed, work)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(run)
            setup_times.append(time.perf_counter() - start)
        repeat_rounds(run, workload, args.seconds, 1 if args.trace else None, check=True)
        if tracer is not None:
            # the same round again, for allocation peaks; its timings are dropped
            tracer.mode = "alloc"
            again = Run(tracer)
            repeat_rounds(again, workload, args.seconds, 1, check=False)
            run.attempted += again.attempted
            run.failed += again.failed
            tracer.mode = "off"
        workload.checks(run)
    except OperationFailed as err:
        print(f"operation failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        "setup_s": (IMPORT_S + statistics.median(setup_times), "s"),
        "train_events_per_s": (median(run.samples["train_events_per_s"]), "events/s"),
        "eval_events_per_s": (median(run.samples["eval_events_per_s"]), "events/s"),
        "interpret_s": (median(run.samples["interpret_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if any(value is None for value, _ in metrics.values()):
        print(f"no timed unit completed: {run.notes}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"setup seconds {[round(s, 4) for s in setup_times]} + imports {IMPORT_S:.4f}")
    for key, values in run.samples.items():
        print(f"{key}: {len(values)} samples {[round(v, 4) for v in values]}")
    for note in run.notes:
        print(note)
    for failure in run.failures:
        print(f"CHECK FAILED {failure}")
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": run.failed}
    if tracer is not None:
        for line in tracer.report_lines():
            print(line)
        layers = tracer.layer_metrics()
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "end_to_end": {k: v for k, (v, _) in metrics.items()}})
        result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        metrics = layers
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def median(values):
    return statistics.median(values) if values else None


def scaling(length):
    """Median of three one-sequence gradients at ``length`` events, after one warm-up."""
    spec = spec_of(EXP)
    cfg = model.ModelConfig(num_types=2, embed_dim=EMBED, grid_subdivisions=GRID)
    _, seq = simulate_length(spec, length, 0, (0,), length / 3.0)
    batch = [(seq, domain.make_grid(seq, GRID))]
    params = trainer.init_params(cfg, [seq], 0)
    diff.objective_and_gradients(params, cfg, batch)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        diff.objective_and_gradients(params, cfg, batch)
        times.append(time.perf_counter() - start)
    print(json.dumps({"length": length, "grid_points": len(batch[0][1]),
                      "gradient_s": statistics.median(times), "peak_rss_mb": peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
