"""Held-out metrics and interpretability artifacts for trained models.

Kernel recovery probes the trained attention around real source events: for
a source event at ``t_e`` the recovered kernel value at lag ``tau`` is the
event's pre-activation contribution to a query of the target type at
``t_e + tau``, evaluated in the event's actual sequence context and
averaged over probe events.

The probe pool depends only on the source type, so one pass over the probes
of every source type serves every (source, target) pair: the heatmap makes
one pass, and ``recover_kernel`` makes it with one pool.  The pass embeds each
probed sequence once and stacks the in-window lag queries of all its probes,
whatever their source type, in time order, into the row blocks of
``model._row_blocks``.  It runs the grid pass's attention kernel,
``model._factored_blocks``, with no leading columns: each block gives temporal
weights ``w`` and type-pair denominators ``den``, and the contribution of probe
event ``e`` to a target-``k`` query is ``w[:, e] * type_w[e, k] / den[:, k] *
value_read[e, k]``.  Sums accumulate by (source pool, lag, target).  As in
training, a normalized ``den / norm`` that underflows raises ``NonFinite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._forward import SequenceCache, _type_hits, forward
from .domain import EventSequence, IntegrationGrid, make_grid
from .errors import EmptySplit, NoSourceEvents
from .model import (
    VARIANT_ATTENTION,
    ModelConfig,
    ModelParams,
    _factored_blocks,
    _row_blocks,
    _type_pair_weights,
    temporal_embedding,
)
from .numerics import softplus
from .trainer import _split_tll

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
    """Total log-likelihood per event over a split.

    It reads every node of each sequence's grid cache, built one at a time.
    """
    return _split_metrics(params, cfg, seqs, grid_subdivisions, ("tll",))["tll"]


def type_accuracy(params: ModelParams, cfg: ModelConfig, seqs) -> float:
    """Fraction of events whose type has the largest intensity at its time.

    Only events with at least one predecessor count; ties resolve to the
    lowest type id.  With a single type the accuracy is 1 by convention.
    It reads the nodes of a grid-less cache, one per event.
    """
    hits = np.zeros(2, dtype=np.int64)
    if cfg.num_types > 1:
        for seq in seqs:
            if len(seq) > 1:
                cache = SequenceCache(cfg, seq)
                hits += _type_hits(forward(params, cfg, cache), cache)
    return _accuracy(cfg, hits)


def _accuracy(cfg: ModelConfig, hits: np.ndarray) -> float:
    """Type accuracy from a split's summed ``_type_hits``."""
    if cfg.num_types == 1:
        return 1.0
    correct, counted = hits.tolist()
    if counted == 0:
        raise EmptySplit("no events with a predecessor")
    return correct / counted


def _split_metrics(params, cfg, seqs, grid_subdivisions, metrics) -> dict:
    """``test_tll`` and ``type_accuracy`` of a split, for the names in ``metrics``
    (``"tll"``, ``"acc"``).

    With ``"tll"`` one walk over the split's grid caches gives both, and accuracy
    reads each event's left-limit node on the grid.  That node is the same
    query as the event's node in a grid-less cache, but it sits in other row
    blocks, so their pre-activations agree to rounding (about 1e-15) and the
    predicted types can differ only where two types tie to within it.  ``"acc"``
    alone reads grid-less caches.  Errors come in the order of the separate calls.
    """
    if "tll" not in metrics:
        return {"acc": type_accuracy(params, cfg, seqs)} if "acc" in metrics else {}
    hits = np.zeros(2, dtype=np.int64) if "acc" in metrics else None
    caches = (SequenceCache(cfg, s, make_grid(s, grid_subdivisions)) for s in seqs)
    out = {"tll": _split_tll(params, cfg, caches, hits)}
    if hits is not None:
        out["acc"] = _accuracy(cfg, hits)
    return out


def _probe_pools(seqs, sources, taus: np.ndarray, num_probes: int) -> list:
    """Probe events ``(sequence index, event index)`` of each source type.

    They are the source-type events whose whole lag range stays in the
    window, subsampled with a deterministic stride to ``num_probes``; when no
    event has full coverage, all source events serve.  A pool does not
    depend on the target type.  The events of every sequence are taken in
    one flat pass, in sequence then event order.
    """
    lengths = np.array([len(seq) for seq in seqs], dtype=np.intp)
    seq_of = np.repeat(np.arange(len(seqs)), lengths)
    event_of = np.arange(len(seq_of)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    types = np.concatenate([seq.types for seq in seqs] + [np.zeros(0, dtype=np.int64)])
    times = np.concatenate([seq.times for seq in seqs] + [np.zeros(0)])
    horizons = np.repeat([seq.horizon for seq in seqs], lengths)
    covered = times + taus[-1] <= horizons
    pools = []
    for source in sources:
        is_source = types == source
        if not is_source.any():
            raise NoSourceEvents(f"no events of source type {source}")
        pick = np.flatnonzero(is_source & covered)
        if not len(pick):
            pick = np.flatnonzero(is_source)
        if len(pick) > num_probes:
            pick = pick[(np.arange(num_probes) * len(pick)) // num_probes]
        pools.append(list(zip(seq_of[pick].tolist(), event_of[pick].tolist())))
    return pools


def _source_kernels(params, cfg, seqs, pools, taus) -> np.ndarray:
    """Recovered kernels (P, S, K) from each of the P probe pools into every target.

    The probes of every pool are grouped by sequence, so each sequence is
    embedded once and all its probes' lag queries share one row-block pass.
    Lags past a probe's window, lags too small to move a probe's time (so
    the probe would fall out of its own query's history), and contributions
    that are not finite, are left out of that lag's average, as one probe at
    a time would leave them.
    """
    scale = math.sqrt(2.0 * cfg.embed_dim)
    gram = params.type_embed.T @ params.type_embed
    k_types, n_lags = cfg.num_types, len(taus)
    # sums and counts by (pool, lag, target), flattened
    acc = np.zeros(len(pools) * n_lags * k_types)
    counts = np.zeros(acc.size)
    by_seq: dict[int, list[tuple[int, int]]] = {}
    for p, pool in enumerate(pools):
        for i, e in pool:
            by_seq.setdefault(i, []).append((p, int(e)))
    for i, entries in by_seq.items():
        seq = seqs[i]
        owner, probes = np.array(entries).T
        probe_times = seq.times[probes][:, None]
        query_times = probe_times + taus  # (P, S)
        row_probe, row_lag = np.nonzero((query_times <= seq.horizon) & (query_times > probe_times))
        # rows in time order, so each block's history ends at its last row's
        order = np.argsort(query_times[row_probe, row_lag], kind="stable")
        row_probe, row_lag = row_probe[order], row_lag[order]
        row_cell = (owner[row_probe] * n_lags + row_lag) * k_types
        qt = query_times[row_probe, row_lag]
        h = np.searchsorted(seq.times, qt, side="left")
        z_q = temporal_embedding(qt, cfg.embed_dim)
        z_ev = temporal_embedding(seq.times, cfg.embed_dim)
        type_w = _type_pair_weights(gram, seq.types, scale)  # (L, K)
        # a probe event precedes its own queries, so it is in their history
        x_e = np.concatenate([z_ev[probes], params.type_embed[:, seq.types[probes]].T], axis=1)
        value_read = (x_e @ params.value_proj) @ params.readout.T  # (P, K)
        for lo, hi, _, w, _, den in _factored_blocks(
            z_q, h, z_ev, type_w, type_w[:, :0], _row_blocks(h)
        ):
            e_q = probes[row_probe[lo:hi]]
            w_e = w[np.arange(hi - lo), e_q][:, None] * type_w[e_q]
            contrib = w_e / den * value_read[row_probe[lo:hi]]
            ok = np.isfinite(contrib)
            cell = (row_cell[lo:hi, None] + np.arange(k_types)).ravel()
            acc += np.bincount(cell, np.where(ok, contrib, 0.0).ravel(), acc.size)
            counts += np.bincount(cell, ok.ravel(), acc.size)
    phi = np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
    return phi.reshape(len(pools), n_lags, k_types)


def _check_kernel_args(cfg, tau_grid, num_probes) -> np.ndarray:
    """The checks kernel recovery and the heatmap share; returns the lags as an array."""
    if cfg.variant != VARIANT_ATTENTION:
        raise ValueError("recover_kernel and influence_heatmap apply to the attention variant")
    if num_probes < 1:
        raise ValueError(f"num_probes must be at least 1, got {num_probes}")
    taus = np.asarray(tau_grid, dtype=np.float64)
    if (
        taus.ndim != 1
        or len(taus) == 0
        or not np.isfinite(taus).all()
        or taus[0] <= 0.0
        or (np.diff(taus) <= 0.0).any()
    ):
        raise ValueError(
            "tau_grid must be a nonempty 1-d array of finite, strictly increasing, positive lags"
        )
    return taus


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
    must be type ids in ``[0, K)``, ``tau_grid`` finite, strictly increasing
    positive lags, and ``num_probes`` at least 1.  The source's probes are
    evaluated for every target at once, so ``NonFinite`` ("type-pair attention
    weights underflow for a query with history", the grid pass's message) is
    raised when the type-pair weights underflow for a probe query of any target
    type.
    """
    taus = _check_kernel_args(cfg, tau_grid, num_probes)
    for role, k in (("source", source), ("target", target)):
        if not 0 <= k < cfg.num_types:
            raise ValueError(f"{role} type {k} outside [0, {cfg.num_types})")
    [pool] = _probe_pools(seqs, [source], taus, num_probes)
    phi = _source_kernels(params, cfg, seqs, [pool], taus)[0, :, target].copy()
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
    """Integrate each recovered kernel over ``[tau_max / steps, tau_max]``.

    ``steps >= 1`` and ``tau_max`` finite and positive.  Cell ``[target,
    source]`` is the trapezoid integral of ``recover_kernel(..., source,
    target, ...)``; one pass over the probes of every source type serves
    every cell.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not (math.isfinite(tau_max) and tau_max > 0.0):
        raise ValueError(f"tau_max must be finite and positive, got {tau_max}")
    taus = _check_kernel_args(cfg, np.linspace(tau_max / steps, tau_max, steps), num_probes)
    # every pool first, so a missing source type raises before the pass can
    pools = _probe_pools(seqs, range(cfg.num_types), taus, num_probes)
    phi = _source_kernels(params, cfg, seqs, pools, taus)  # (source, lag, target)
    return Heatmap(
        integrals=np.trapezoid(phi, taus, axis=1).T.copy(),
        tau_max=float(tau_max),
        steps=int(steps),
        num_probes=max(len(pool) for pool in pools),
    )


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
