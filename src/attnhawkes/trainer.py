"""Maximum-likelihood training with Adam and early stopping.

The likelihood of one sequence decomposes into the event term, a sum of
log-intensities at the observed events with strictly prior history, and the
compensator, a trapezoidal integral of the total intensity over the
sequence's event-anchored grid.  Training ascends the summed objective on
mini-batches and keeps the parameters with the best validation
log-likelihood per event.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ._forward import SequenceCache, _compensator, _event_term, forward
from .diff import _gradients_cached, _objective_cached
from .domain import Dataset, EventSequence, IntegrationGrid, make_grid
from .errors import Diverged, EmptySplit, NonFinite
from .model import (
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    ModelParams,
    flatten_params,
    param_shapes,
    unflatten_params,
)
from .numerics import softplus_inv

__all__ = [
    "TrainConfig",
    "TrainReport",
    "event_term",
    "compensator",
    "log_likelihood",
    "init_params",
    "train",
]

RATE_FLOOR = 1e-4  # empirical rates are floored here before inverting softplus
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings.  Adam's betas and epsilon are ``ADAM_BETAS`` and ``ADAM_EPS``."""

    learning_rate: float = 1e-3
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    grid_subdivisions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.grid_subdivisions < 1:
            raise ValueError("grid_subdivisions must be at least 1")


@dataclass
class TrainReport:
    """Per-epoch history of one training run."""

    train_objectives: list[float] = field(default_factory=list)
    val_tlls: list[float] = field(default_factory=list)
    best_epoch: int = -1  # index into the lists, -1 when no epoch ran
    epochs_run: int = 0
    wall_time: float = 0.0


def event_term(params: ModelParams, cfg: ModelConfig, seq: EventSequence) -> float:
    """Sum of log-intensities at the events, each seen with strictly prior history."""
    return _event_term(forward(params, cfg, SequenceCache(cfg, seq)).pre_ev)


def compensator(
    params: ModelParams, cfg: ModelConfig, seq: EventSequence, grid: IntegrationGrid
) -> float:
    """Trapezoidal integral of the total intensity over the grid.

    Event grid points are evaluated from both sides: the left limit closes
    the preceding segment and the right limit opens the following one, so
    the quadrature stays second order across intensity jumps.  Constant
    intensity integrates exactly.
    """
    cache = SequenceCache(cfg, seq, grid)
    return _compensator(cache, forward(params, cfg, cache).pre_gr)


def log_likelihood(
    params: ModelParams, cfg: ModelConfig, seq: EventSequence, grid: IntegrationGrid
) -> float:
    """Event term minus compensator for one sequence."""
    return _objective_cached(params, cfg, [SequenceCache(cfg, seq, grid)])[0]


def empirical_rates(seqs, num_types: int) -> np.ndarray:
    """Per-type event counts divided by total observed time."""
    counts = np.zeros(num_types)
    total_time = 0.0
    for seq in seqs:
        counts += np.bincount(seq.types, minlength=num_types)
        total_time += seq.horizon
    if total_time <= 0.0:
        return np.zeros(num_types)
    return counts / total_time


def init_params(cfg: ModelConfig, train_seqs, seed: int) -> ModelParams:
    """Seeded initialization.

    Weight matrices draw from Normal(0, 1/sqrt(fan_in)) in ``param_shapes``
    order; biases invert softplus at the per-type empirical rates of the
    train split (floored at 1e-4) so the model starts near the homogeneous
    baseline.  MLP biases and the extrapolation slope start at zero.
    """
    rng = np.random.default_rng(seed)
    m, k = cfg.embed_dim, cfg.num_types
    mv, mh = cfg.value_dim, cfg.hidden_dim
    fan_in = dict(
        type_embed=k, value_proj=2 * m, readout=mv, mlp_w1=mv, mlp_w2=mh, extrap_readout=m
    )
    values = {
        name: rng.normal(0.0, 1.0 / np.sqrt(fan_in[name]), size=shape)
        if name in fan_in else np.zeros(shape)
        for name, shape in param_shapes(cfg).items()
    }
    values["bias"] = softplus_inv(np.maximum(empirical_rates(train_seqs, k), RATE_FLOOR))
    return ModelParams(**values)


def _split_tll(params, cfg, caches, hits=None):
    """Total log-likelihood per event over the caches of a split, a list or a
    generator; with ``hits``, their ``_type_hits`` are added into it."""
    total, events = _objective_cached(params, cfg, caches, hits=hits)
    if events == 0:
        raise EmptySplit("split has no events")
    return total / events


def _grid_caches(cfg, seqs, subdivisions):
    """The caches of ``seqs`` on their grids.

    The attention variant's node embeddings live in one arena, each cache's in a
    view of it.  Only the caches refer to it, so it is freed with the last of
    them; and an array above the allocator's mmap threshold (at most 32 MB with
    glibc) is mapped on its own and unmapped when freed, where per-cache arrays
    would stay in the process heap.
    """
    pairs = [(s, make_grid(s, subdivisions)) for s in seqs]
    if cfg.variant == VARIANT_EXTRAPOLATION:
        return [SequenceCache(cfg, s, grid) for s, grid in pairs]
    stops = np.cumsum([len(grid) + len(s) for s, grid in pairs])
    arena = np.empty((stops[-1], cfg.embed_dim))
    slabs = np.split(arena, stops[:-1])
    return [SequenceCache(cfg, s, grid, out) for (s, grid), out in zip(pairs, slabs)]


class _Adam:
    """Plain Adam ascent on a flat parameter vector."""

    def __init__(self, size, learning_rate):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, vec, grad):
        b1, b2 = ADAM_BETAS
        self.t += 1
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        m_hat = self.m / (1.0 - b1**self.t)
        v_hat = self.v / (1.0 - b2**self.t)
        return vec + self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    dataset: Dataset,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    log_stream=None,
) -> tuple[ModelParams, TrainReport]:
    """Fit by mini-batch Adam ascent on the discretized log-likelihood.

    Stops early after ``patience`` epochs without a strict improvement in
    validation log-likelihood per event and returns the best-validation
    parameters.  Two consecutive non-finite batch objectives raise
    ``Diverged``; a single one skips the update.  With ``max_epochs == 0``
    the seeded initialization is returned untouched.  Raises ``ValueError``
    when ``train_cfg`` and ``cfg`` name different grid subdivisions, since
    the model is saved with, and evaluated on, the grid of ``cfg``.

    When ``log_stream`` is given, one JSON record per epoch is written with
    the epoch number, summed train objective, validation log-likelihood per
    event, and elapsed seconds.
    """
    start = time.perf_counter()
    if train_cfg.grid_subdivisions != cfg.grid_subdivisions:
        raise ValueError(
            f"train_cfg.grid_subdivisions is {train_cfg.grid_subdivisions}, "
            f"but the model's is {cfg.grid_subdivisions}"
        )
    if not dataset.train:
        raise EmptySplit("train split is empty")
    report = TrainReport()
    params = init_params(cfg, dataset.train, train_cfg.seed)
    if train_cfg.max_epochs == 0:
        report.wall_time = time.perf_counter() - start
        return params, report
    if not dataset.val:
        raise EmptySplit("val split is empty but validation drives early stopping")

    caches = _grid_caches(cfg, dataset.train + dataset.val, train_cfg.grid_subdivisions)
    train_caches, val_caches = caches[: len(dataset.train)], caches[len(dataset.train) :]

    vec = flatten_params(params, cfg)
    adam = _Adam(vec.size, train_cfg.learning_rate)
    best_vec = vec.copy()
    best_tll = -np.inf
    since_best = 0
    nonfinite_streak = 0

    for epoch in range(train_cfg.max_epochs):
        epoch_start = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=train_cfg.seed, spawn_key=(epoch,))
        )
        order = rng.permutation(len(train_caches))
        epoch_objective = 0.0
        for lo in range(0, len(order), train_cfg.batch_size):
            chunk = [train_caches[i] for i in order[lo : lo + train_cfg.batch_size]]
            current = unflatten_params(vec, cfg)
            try:
                bundle = _gradients_cached(current, cfg, chunk)
            except NonFinite as err:
                nonfinite_streak += 1
                if nonfinite_streak >= 2:
                    raise Diverged(f"consecutive non-finite objectives: {err}") from err
                continue
            nonfinite_streak = 0
            epoch_objective += bundle.objective
            vec = adam.step(vec, bundle.as_vector(cfg))
        val_tll = _split_tll(unflatten_params(vec, cfg), cfg, val_caches)
        report.train_objectives.append(epoch_objective)
        report.val_tlls.append(val_tll)
        report.epochs_run += 1
        if log_stream is not None:
            record = {
                "epoch": epoch + 1,
                "train_objective": epoch_objective,
                "val_tll": val_tll,
                "seconds": time.perf_counter() - epoch_start,
            }
            log_stream.write(json.dumps(record) + "\n")
        if val_tll > best_tll:
            best_tll = val_tll
            best_vec = vec.copy()
            report.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                break
    report.wall_time = time.perf_counter() - start
    return unflatten_params(best_vec, cfg), report
