"""Held-out metrics and interpretability artifacts for trained models.

Kernel recovery probes the trained attention around real source events: for
a source event at ``t_e`` the recovered kernel value at lag ``tau`` is the
event's pre-activation contribution to a query of the target type at
``t_e + tau``, evaluated in the event's actual sequence context and
averaged over probe events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._forward import SequenceCache, event_pre_all_types, forward
from .domain import EventSequence, IntegrationGrid, make_grid
from .errors import EmptySplit, NoSourceEvents
from .model import (
    VARIANT_ATTENTION,
    ModelConfig,
    ModelParams,
    _history_scores,
    _softmax_rows,
    temporal_embedding,
)
from .numerics import softplus
from .trainer import log_likelihood

__all__ = [
    "KernelEstimate",
    "Heatmap",
    "IntensityTrace",
    "test_tll",
    "type_accuracy",
    "recover_kernel",
    "influence_heatmap",
    "intensity_trace",
]

DEFAULT_NUM_PROBES = 200


@dataclass(frozen=True, eq=False)
class KernelEstimate:
    """Recovered trigger kernel on a grid of strictly positive lags."""

    tau: np.ndarray  # (S,)
    phi: np.ndarray  # (S,) mean contribution across probes
    source: int
    target: int
    num_probes: int


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Integrated recovered kernels, target rows by source columns."""

    integrals: np.ndarray  # (K, K)
    tau_max: float
    steps: int
    num_probes: int


@dataclass(frozen=True, eq=False)
class IntensityTrace:
    """Model intensities for every type along a grid of query times."""

    times: np.ndarray  # (N,)
    values: np.ndarray  # (N, K)


def test_tll(params: ModelParams, cfg: ModelConfig, seqs, grid_subdivisions: int) -> float:
    """Total log-likelihood per event over a split."""
    seqs = list(seqs)
    if not seqs:
        raise EmptySplit("no sequences in split")
    events = sum(len(s) for s in seqs)
    if events == 0:
        raise EmptySplit("split has no events")
    total = sum(log_likelihood(params, cfg, s, make_grid(s, grid_subdivisions)) for s in seqs)
    return total / events


def type_accuracy(params: ModelParams, cfg: ModelConfig, seqs) -> float:
    """Fraction of events whose type has the largest intensity at its time.

    Only events with at least one predecessor count; ties resolve to the
    lowest type id.  With a single type the accuracy is 1 by convention.
    """
    if cfg.num_types == 1:
        return 1.0
    correct, counted = 0, 0
    for seq in seqs:
        if len(seq) < 2:
            continue
        pre = event_pre_all_types(params, cfg, SequenceCache(cfg, seq))
        predicted = np.argmax(pre[1:], axis=1)
        correct += int(np.sum(predicted == seq.types[1:]))
        counted += len(seq) - 1
    if counted == 0:
        raise EmptySplit("no events with a predecessor")
    return correct / counted


def _probe_contributions(params, cfg, seq, event_index, taus, target):
    """Contribution of one source event to target queries at t_e + taus.

    Queries beyond the horizon return NaN and are skipped by the caller.
    """
    t_e = float(seq.times[event_index])
    query_times = t_e + taus
    valid = query_times <= seq.horizon
    out = np.full(len(taus), np.nan)
    if not valid.any():
        return out
    qt = query_times[valid]
    h = np.searchsorted(seq.times, qt, side="left")
    n_hist = int(h.max())
    z_q = temporal_embedding(qt, cfg.embed_dim)
    z_ev = temporal_embedding(seq.times[:n_hist], cfg.embed_dim)
    gram = params.type_embed.T @ params.type_embed
    scale = math.sqrt(2.0 * cfg.embed_dim)
    attn = _softmax_rows(_history_scores(z_q, z_ev, h), gram[target, seq.types[:n_hist]], scale)
    x_e = np.concatenate(
        [temporal_embedding(t_e, cfg.embed_dim), params.type_embed[:, seq.types[event_index]]]
    )
    value_read = float((x_e @ params.value_proj) @ params.readout[target])
    out[valid] = attn[:, event_index] * value_read
    return out


def recover_kernel(
    params: ModelParams,
    cfg: ModelConfig,
    seqs,
    source: int,
    target: int,
    tau_grid,
    num_probes: int = DEFAULT_NUM_PROBES,
) -> KernelEstimate:
    """Estimate the source-to-target trigger kernel on ``tau_grid``.

    Probe events are the source-type events whose whole lag range stays in
    the window, subsampled with a deterministic stride to ``num_probes``;
    when no event has full coverage, all source events serve and each lag
    averages over the probes still in the window.  ``source`` and ``target``
    must be type ids in ``[0, K)``, and ``num_probes`` at least 1.
    """
    if cfg.variant != VARIANT_ATTENTION:
        raise ValueError("recover_kernel applies to the attention variant")
    if num_probes < 1:
        raise ValueError(f"num_probes must be at least 1, got {num_probes}")
    for role, k in (("source", source), ("target", target)):
        if not 0 <= k < cfg.num_types:
            raise ValueError(f"{role} type {k} outside [0, {cfg.num_types})")
    taus = np.asarray(tau_grid, dtype=np.float64)
    if taus.ndim != 1 or len(taus) == 0 or taus[0] <= 0.0:
        raise ValueError("tau_grid must be a nonempty 1-d array of positive lags")
    candidates = [
        (i, e)
        for i, seq in enumerate(seqs)
        for e in np.flatnonzero(seq.types == source)
    ]
    if not candidates:
        raise NoSourceEvents(f"no events of source type {source}")
    covered = [
        (i, e) for i, e in candidates if seqs[i].times[e] + taus[-1] <= seqs[i].horizon
    ]
    pool = covered if covered else candidates
    if len(pool) > num_probes:
        stride_idx = (np.arange(num_probes) * len(pool)) // num_probes
        pool = [pool[int(j)] for j in stride_idx]
    acc = np.zeros(len(taus))
    counts = np.zeros(len(taus), dtype=np.int64)
    for i, e in pool:
        contrib = _probe_contributions(params, cfg, seqs[i], int(e), taus, int(target))
        ok = np.isfinite(contrib)
        acc[ok] += contrib[ok]
        counts[ok] += 1
    phi = np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
    return KernelEstimate(
        tau=taus, phi=phi, source=int(source), target=int(target), num_probes=len(pool)
    )


def influence_heatmap(
    params: ModelParams,
    cfg: ModelConfig,
    seqs,
    tau_max: float = 1.0,
    steps: int = 20,
    num_probes: int = DEFAULT_NUM_PROBES,
) -> Heatmap:
    """Integrate each recovered kernel over ``[tau_max / steps, tau_max]``; ``steps >= 1``."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    taus = np.linspace(tau_max / steps, tau_max, steps)
    k = cfg.num_types
    integrals = np.zeros((k, k))
    probes = 0
    for target in range(k):
        for source in range(k):
            est = recover_kernel(params, cfg, seqs, source, target, taus, num_probes)
            integrals[target, source] = np.trapezoid(est.phi, taus)
            probes = max(probes, est.num_probes)
    return Heatmap(integrals=integrals, tau_max=float(tau_max), steps=int(steps), num_probes=probes)


def intensity_trace(
    params: ModelParams, cfg: ModelConfig, seq: EventSequence, grid: IntegrationGrid
) -> IntensityTrace:
    """Model intensities of every type at each grid time, as left limits."""
    cache = SequenceCache(cfg, seq, grid)
    fwd = forward(params, cfg, cache)
    # the cache appends right-limit copies of event points after the grid
    # points proper; the leading block is the left-limit evaluation
    values = softplus(fwd.pre_gr[: len(grid.times)])
    return IntensityTrace(times=grid.times.copy(), values=values)
