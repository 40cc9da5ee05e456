"""End-to-end gate for the package: ten checks, one per headline claim.

Covers exact gradients, embedding identities, simulator fidelity against
analytic statistics, kernel-shape and influence recovery after real
training runs, likelihood dominance over a constant-rate baseline, the
attention-vs-extrapolation ablation, attention-matrix structure,
compensator quadrature order, robustness to the embedding dimension,
and byte-level CLI determinism.

The two training fixtures retrain every model from scratch and dominate
the runtime (about 5 minutes on two cores, see the README).  Everything
is seeded, so reruns are bit-identical.
"""

import itertools
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from attnhawkes.cli import run_cli
from attnhawkes.diff import finite_diff_gradient, objective_and_gradients
from attnhawkes.domain import make_grid, split_dataset
from attnhawkes.evaluate import (
    influence_heatmap,
    recover_kernel,
    test_tll as split_tll,  # bare name would be collected
)
from attnhawkes.model import (
    VARIANT_ATTENTION,
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    attention_matrix,
    temporal_embedding,
)
from attnhawkes.simulator import (
    EXPONENTIAL,
    HALF_SINE,
    HawkesSpec,
    simulate_dataset,
)
from attnhawkes.trainer import TrainConfig, compensator, empirical_rates, train

from conftest import random_params, random_sequence

# Exponential-kernel reproduction setup: the two-type process with
# mutual excitation, 200 training sequences after the split.
EXP_SPEC = HawkesSpec(
    mu=[0.2, 0.2],
    kernel=EXPONENTIAL,
    alpha=[[3.0, 2.0], [1.0, 3.0]],
    beta=[[5.0, 5.0], [5.0, 5.0]],
)
EXP_SEED = 11

# Half-sine setup: same kernel matrix as the dense variant of this
# process, but a low base rate so that only a couple of events sit
# inside each kernel support window.  In that regime the intensity
# between events rises and falls visibly, which is the behavior the
# ablation and dominance checks are about; at high base rates the
# normalized attention weights wash the pattern out for every model.
HS_SPEC = HawkesSpec(
    mu=[0.05, 0.05],
    kernel=HALF_SINE,
    alpha=[[0.33, 0.1], [0.05, 0.33]],
)
HS_SEED = 23
HS_TRAIN = TrainConfig(
    learning_rate=1e-2,
    max_epochs=300,
    batch_size=8,
    patience=40,
    grid_subdivisions=10,
    seed=0,
)

SPLIT = (0.5, 0.25, 0.25)
GRID = 10


def constant_rate_tll(train_seqs, test_seqs, num_types):
    """Per-event TLL of the best constant-intensity model (per-type MLE
    rates fitted on the training split, scored on the test split)."""
    rates = empirical_rates(train_seqs, num_types)
    n_events = sum(len(s) for s in test_seqs)
    total = sum(
        float(np.sum(np.log(rates[s.types]))) - s.horizon * float(rates.sum())
        for s in test_seqs
    )
    return total / n_events


def _fit(ds, variant, embed_dim, train_cfg, skip=False):
    cfg = ModelConfig(
        num_types=2,
        embed_dim=embed_dim,
        variant=variant,
        grid_subdivisions=GRID,
        skip_connection=skip,
    )
    params, report = train(ds, cfg, train_cfg)
    return SimpleNamespace(
        cfg=cfg,
        params=params,
        report=report,
        tll=split_tll(params, cfg, ds.test, GRID),
    )


@pytest.fixture(scope="module")
def exp_run():
    ds = split_dataset(simulate_dataset(EXP_SPEC, 20.0, 400, EXP_SEED), SPLIT, EXP_SEED)
    start = time.monotonic()
    fit = _fit(
        ds,
        VARIANT_ATTENTION,
        32,
        TrainConfig(
            learning_rate=1e-2,
            max_epochs=120,
            batch_size=32,
            patience=15,
            grid_subdivisions=GRID,
            seed=0,
        ),
    )
    fit.wall = time.monotonic() - start
    fit.ds = ds
    fit.baseline = constant_rate_tll(ds.train, ds.test, 2)
    return fit


@pytest.fixture(scope="module")
def hs_runs():
    # The attention models here enable the query skip connection.  The
    # attention sum is a convex combination of per-event readouts, so by
    # itself it cannot push the between-burst level down as history
    # accumulates; the skip term (a learned smooth function of the query
    # time) supplies exactly that degree of freedom and roughly triples
    # the likelihood gain over the constant-rate baseline on this data.
    # The extrapolating variant has no analogous term to switch on; its
    # per-interval line already depends directly on the query time.
    ds = split_dataset(simulate_dataset(HS_SPEC, 100.0, 240, HS_SEED), SPLIT, HS_SEED)
    runs = {
        "ithp16": _fit(ds, VARIANT_ATTENTION, 16, HS_TRAIN, skip=True),
        "ithp32": _fit(ds, VARIANT_ATTENTION, 32, HS_TRAIN, skip=True),
        "ithp64": _fit(ds, VARIANT_ATTENTION, 64, HS_TRAIN, skip=True),
        "ex32": _fit(ds, VARIANT_EXTRAPOLATION, 32, HS_TRAIN),
    }
    runs["ds"] = ds
    runs["baseline"] = constant_rate_tll(ds.train, ds.test, 2)
    return runs


def test_01_exact_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    start = time.monotonic()
    worst = 0.0
    for m, k, length, variant in itertools.product(
        (4, 8), (1, 2, 3), (0, 1, 5), (VARIANT_ATTENTION, VARIANT_EXTRAPOLATION)
    ):
        cfg = ModelConfig(num_types=k, embed_dim=m, variant=variant)
        params = random_params(cfg, rng)
        seq = random_sequence(rng, length, k, horizon=4.0)
        batch = [(seq, make_grid(seq, 4))]
        exact = objective_and_gradients(params, cfg, batch).as_vector(cfg)
        approx = finite_diff_gradient(params, cfg, batch, eps=1e-5).as_vector(cfg)
        # Coordinates above 1e-4 in magnitude are held to the relative
        # bound; smaller ones to the equivalent absolute bound 1e-8,
        # which still sits far above the central-difference noise floor
        # (machine epsilon times |objective| / eps, about 2e-10 here).
        rel = np.abs(exact - approx) / np.maximum.reduce(
            [np.abs(exact), np.abs(approx), np.full_like(exact, 1e-4)]
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert time.monotonic() - start < 60.0


def test_02_scores_shift_invariant_and_decomposable():
    rng = np.random.default_rng(2)
    m, k_types = 8, 3
    type_embed = rng.normal(0.0, 0.5, size=(m, k_types))
    start = time.monotonic()
    for _ in range(1000):
        t_i, t_j = rng.uniform(0.0, 50.0, size=2)
        shift = rng.uniform(-25.0, 25.0)
        k_i, k_j = rng.integers(0, k_types, size=2)

        def score(a, b):
            x_a = np.concatenate([temporal_embedding(a, m), type_embed[:, k_i]])
            x_b = np.concatenate([temporal_embedding(b, m), type_embed[:, k_j]])
            return float(x_a @ x_b) / np.sqrt(2.0 * m)

        s0 = score(t_i, t_j)
        s1 = score(t_i + shift, t_j + shift)
        assert abs(s0 - s1) <= 1e-9 * max(1.0, abs(s0))

        x_i = np.concatenate([temporal_embedding(t_i, m), type_embed[:, k_i]])
        x_j = np.concatenate([temporal_embedding(t_j, m), type_embed[:, k_j]])
        z_part = float(temporal_embedding(t_i, m) @ temporal_embedding(t_j, m))
        e_part = float(type_embed[:, k_i] @ type_embed[:, k_j])
        assert abs(float(x_i @ x_j) - (z_part + e_part)) <= 1e-12
    assert time.monotonic() - start < 5.0


def test_03_simulator_matches_analytic_statistics():
    start = time.monotonic()
    # With no excitation the process is Poisson: pooled gaps must pass a
    # KS test against Exponential(mu).
    poisson = HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[0.0]], beta=[[5.0]])
    ds = simulate_dataset(poisson, 1000.0, 30, seed=7)
    gaps = np.concatenate([np.diff(s.times) for s in ds.train])
    assert len(gaps) >= 5000
    result = scipy.stats.kstest(gaps, "expon", args=(0.0, 1.0 / 0.2))
    assert result.pvalue > 0.01, f"KS p-value {result.pvalue:.4f}"

    # Self-exciting single-type process: long-run event rate must sit
    # within 10% of the stationary rate mu / (1 - alpha / beta) = 0.5.
    # One window of T=2000 is too noisy for that band (the count is
    # overdispersed by (1 - branching)^-3, rate std about 0.06), so the
    # rate pools 25 independent windows of that length (std 0.0125).
    hawkes = HawkesSpec(mu=[0.2], kernel=EXPONENTIAL, alpha=[[3.0]], beta=[[5.0]])
    ds2 = simulate_dataset(hawkes, 2000.0, 25, seed=3)
    rate = sum(len(s) for s in ds2.train) / sum(s.horizon for s in ds2.train)
    assert abs(rate - 0.5) < 0.05, f"empirical rate {rate:.4f}"
    assert time.monotonic() - start < 60.0


def test_04_exponential_kernel_and_influence_recovery(exp_run):
    assert exp_run.wall < 1800.0
    taus = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    est = recover_kernel(exp_run.params, exp_run.cfg, exp_run.ds.test, 0, 0, taus)
    inversions = int(np.sum(np.diff(est.phi) > 0.0))
    assert inversions <= 1, f"phi00 not near-monotone: {est.phi}"

    heat = influence_heatmap(exp_run.params, exp_run.cfg, exp_run.ds.test).integrals
    self_a, self_b = heat[0, 0], heat[1, 1]
    cross_ab, cross_ba = heat[0, 1], heat[1, 0]
    assert abs(self_a - self_b) <= 0.3 * max(self_a, self_b), heat
    assert cross_ab > cross_ba, heat
    assert min(self_a, self_b) > cross_ab, heat


def test_05_likelihood_beats_constant_rate_baseline(exp_run, hs_runs):
    exp_margin = exp_run.tll - exp_run.baseline
    hs_margin = hs_runs["ithp32"].tll - hs_runs["baseline"]
    assert exp_margin > 0.05, f"exponential margin {exp_margin:.4f}"
    assert hs_margin > 0.05, f"half-sine margin {hs_margin:.4f}"


def test_06_attention_beats_extrapolation_on_half_sine(hs_runs):
    margin = hs_runs["ithp32"].tll - hs_runs["ex32"].tll
    assert margin > 0.02, f"ablation margin {margin:.4f}"


def test_07_attention_matrix_causal_structure(exp_run):
    seq = exp_run.ds.test[0]
    amap = attention_matrix(exp_run.params, exp_run.cfg, seq, make_grid(seq, GRID))
    n = len(amap.times)
    upper = amap.matrix[np.triu_indices(n)]
    assert np.all(upper == 0.0), "upper triangle (incl. diagonal) must be exactly zero"
    assert np.all(amap.matrix[:, ~amap.is_event] == 0.0), "grid columns must be exactly zero"
    event_rows = np.flatnonzero(amap.is_event)
    with_history = event_rows[1:]  # every event except the first has history
    sums = amap.matrix[with_history].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9


def test_08_compensator_quadrature_is_second_order(exp_run):
    seq = exp_run.ds.test[0]
    reference = compensator(exp_run.params, exp_run.cfg, seq, make_grid(seq, 512))
    err8 = abs(compensator(exp_run.params, exp_run.cfg, seq, make_grid(seq, 8)) - reference)
    err16 = abs(compensator(exp_run.params, exp_run.cfg, seq, make_grid(seq, 16)) - reference)
    ratio = err8 / err16
    assert ratio >= 3.5, f"8->16 error reduction only {ratio:.2f}x"


def test_09_likelihood_robust_to_embedding_dim(hs_runs):
    tlls = [hs_runs[name].tll for name in ("ithp16", "ithp32", "ithp64")]
    spread = max(tlls) - min(tlls)
    assert spread < 0.05, f"test TLL spread {spread:.4f} across M=16/32/64"


def _pipeline(root, capsys):
    data = root / "data"
    model = root / "model.json"
    log = root / "train.jsonl"
    assert run_cli([
        "simulate", "--kernel", "exp",
        "--params", '{"mu":[0.8],"alpha":[[0.5]],"beta":[[2.0]]}',
        "--num-seqs", "24", "--T", "8.0", "--seed", "5",
        "--split", "0.5,0.25,0.25", "--out", str(data),
    ]) == 0
    assert run_cli([
        "train", "--data", str(data), "--M", "4", "--grid", "3",
        "--lr", "0.01", "--epochs", "3", "--batch-size", "8",
        "--seed", "0", "--out", str(model), "--log", str(log),
    ]) == 0
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--data", str(data)]) == 0
    eval_out = capsys.readouterr().out
    files = {
        name: (data / name).read_bytes()
        for name in ("train.jsonl", "val.jsonl", "test.jsonl")
    }
    files["model.json"] = model.read_bytes()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for record in records:
        record.pop("seconds")  # wall time is the one legitimately varying field
    return files, records, eval_out


def test_10_cli_pipeline_byte_deterministic(tmp_path, capsys):
    first = _pipeline(tmp_path / "a", capsys)
    second = _pipeline(tmp_path / "b", capsys)
    assert first[0] == second[0], "dataset or model files differ between identical runs"
    assert first[1] == second[1]
    assert first[2] == second[2]
