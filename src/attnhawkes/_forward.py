"""Vectorized forward and backward passes over one sequence.

Everything here, the log-likelihood's event term and compensator included,
works per sequence: the caller batches by summing objectives and gradients.
The forward pass produces pre-activations for every query node and type;
with ``grad`` it also takes the log-likelihood's cotangent of them and
accumulates what the backward pass turns into exact parameter gradients.

Index conventions: ``L`` events, ``N`` query nodes, ``M`` embedding dim,
``K`` types, values of width ``M_V``.  ``h[n]`` is the history size at
node ``n``.  With a grid, the nodes are the grid points followed by the
right-limit copies of the event points: grid points that coincide with an
event carry two nodes, one excluding the event (left limit) and one
including it (right limit), weighted by the half-intervals on the
matching sides.  Without a grid, the nodes are the events' left limits.
``ev_node[i]`` is the left-limit node of event ``i``, where ``h == i``, so
the event pre-activations are ``pre_gr[ev_node, types]`` and the event
term's cotangent is added into those entries of the single (N, K) node
cotangent.

All query types share one set of temporal weights ``W`` (N, L), reweighted per
source event by the type-pair weights ``type_w`` (L, K), in the factored form
that ``model._factored_blocks`` derives: ``mix = num / den``, with ``[num | den |
norm] = W @ [type_w * value_read | type_w | 1]``.  ``mix`` is zero on rows with
no history, and an underflowing ``den / norm`` raises ``NonFinite``.

``W`` is never held whole.  The cache keeps a parameter-free plan of row blocks
(``model._row_blocks``): each block of B nodes gets its own weights ``W_b`` (B,
cols), trimmed to the block's largest history, and its rows of ``num`` and
``den``.  With ``grad``, the same pass takes the cotangent of the block's
pre-activations and adds ``W_b.T @ [q | q * mix]``, with ``q = d_pre / den``,
into ``r`` (L, 2K), so ``backward`` needs no attention weights and memory stays
O(B·L + N·K).  The extrapolation variant's event softmax runs in row blocks too
(``model._own_type_softmax``), and ``backward`` walks them again.

Only the attention variant's cache holds the node embeddings ``z_gr`` (N, M)
and the row-block plan ``blocks``.  With a grid, ``z_gr`` embeds each grid point
once; its last L rows, the right-limit copies, repeat the event points' rows and
are the event embeddings ``z_ev``.  The extrapolation variant's nodes read the
events' attention output, not attention of their own, so its cache holds the
event arrays, ``h``, ``ev_node``, ``quad`` with a grid, and per node the
anchor event ``anchor``, whether it has one (``anchored``) and the relative
elapsed time ``rel_elapsed_gr``.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import EventSequence, IntegrationGrid, validate_sequence
from .errors import DegenerateAnchor, NonFinite
from .model import (
    VARIANT_EXTRAPOLATION,
    ModelConfig,
    ModelParams,
    _embed_into,
    _factored_blocks,
    _own_type_softmax,
    _row_blocks,
    _type_pair_weights,
    temporal_embedding,
)
from .numerics import dlog_softplus, log_softplus, sigmoid, softplus

__all__ = ["SequenceCache", "Forward", "forward", "backward", "event_pre_all_types"]


class SequenceCache:
    """Parameter-independent arrays for one (sequence, grid) pair.

    ``out``, used by the attention variant with a grid only, is a float64 (N, M)
    array to write the node embeddings into (``trainer.train`` passes views of one
    arena); without it the cache allocates its own.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        seq: EventSequence,
        grid: IntegrationGrid | None = None,
        out: np.ndarray | None = None,
    ):
        self.seq = seq
        self.times = seq.times
        self.types = seq.types
        length = len(seq)
        self.length = length
        self.onehot = np.zeros((length, cfg.num_types))
        self.onehot[np.arange(length), self.types] = 1.0
        if cfg.variant == VARIANT_EXTRAPOLATION and length and self.times[0] == 0.0:
            raise DegenerateAnchor("first event at t=0 cannot anchor extrapolation")
        self.grid = grid
        if grid is None:
            # the nodes are the events' left limits
            g = self.times
            self.h = np.arange(length)
            self.ev_node = self.h
        else:
            pts = grid.times
            ev_pos = np.searchsorted(pts, self.times)
            if not np.array_equal(pts[ev_pos[ev_pos < len(pts)]], self.times):
                raise ValueError("grid does not contain every event time of the sequence")
            if (np.diff(ev_pos) <= 0).any():
                validate_sequence(seq)  # times not strictly increasing: name the first
            dg = np.diff(pts)
            left_half = np.zeros(len(pts))
            right_half = np.zeros(len(pts))
            left_half[1:] = dg / 2.0
            right_half[:-1] = dg / 2.0
            is_ev_pt = np.zeros(len(pts), dtype=bool)
            is_ev_pt[ev_pos] = True
            # The intensity jumps at events, so each event grid point is
            # evaluated twice: a left-limit copy closes the segment before it
            # and a right-limit copy opens the one after.  Every segment's
            # integrand is then smooth end to end and the trapezoid rule keeps
            # its second-order convergence across event boundaries.
            g = np.concatenate([pts, pts[ev_pos]])
            # an event's left-limit copy is its grid point, whose history is
            # the events strictly before it; its right-limit copy includes it
            self.h = np.concatenate(
                [np.searchsorted(self.times, pts, side="left"), np.arange(1, length + 1)]
            )
            self.ev_node = ev_pos
            self.quad = np.concatenate(
                [np.where(is_ev_pt, left_half, left_half + right_half), right_half[ev_pos]]
            )
        if cfg.variant == VARIANT_EXTRAPOLATION:
            self.z_ev = temporal_embedding(self.times, cfg.embed_dim)  # (L, M)
            anchored = self.h > 0
            a = np.maximum(self.h - 1, 0)
            rel = np.zeros(len(g))
            t_a = self.times[a[anchored]]
            rel[anchored] = (g[anchored] - t_a) / t_a
            self.anchor = a
            self.anchored = anchored
            self.rel_elapsed_gr = rel
        elif grid is None:
            self.z_ev = self.z_gr = temporal_embedding(self.times, cfg.embed_dim)
            self.blocks = list(_row_blocks(self.h))
        else:
            # each grid point is embedded once; the right-limit copies, one per
            # event, are its rows again, and they are the event embeddings
            n_pts = len(pts)
            slab = np.empty((n_pts + length, cfg.embed_dim)) if out is None else out
            _embed_into(pts, slab[:n_pts])
            slab[n_pts:] = slab[ev_pos]
            self.z_gr, self.z_ev = slab, slab[n_pts:]  # (N, M), (L, M)
            self.blocks = list(_row_blocks(self.h))


class Forward:
    """Bag of forward-pass arrays kept for the backward pass."""

    __slots__ = (
        "x_ev", "gram", "values", "value_read", "pre_ev", "type_w", "pre_gr",
        "d_pre", "r", "attn_out", "mlp_pre", "mlp_hidden", "hidden",
    )


def _event_term(pre_ev):
    """Sum of event log-intensities; raises ``NonFinite`` on a zero or non-finite one."""
    if not np.isfinite(pre_ev).all() or (softplus(pre_ev) == 0.0).any():
        raise NonFinite("an event intensity is zero or non-finite")
    return float(np.sum(log_softplus(pre_ev)))


def _compensator(cache, pre_gr):
    """Trapezoidal integral of the total grid intensity; raises ``NonFinite`` unless finite."""
    if not np.isfinite(pre_gr).all():
        raise NonFinite("a grid intensity is non-finite")
    value = float(cache.quad @ softplus(pre_gr).sum(axis=1))
    if not np.isfinite(value):
        raise NonFinite(f"compensator is {value}")
    return value


def _type_hits(f, cache):
    """How many events after the first have their own type's pre-activation
    largest at their left-limit node, ties going to the lowest type id, and how
    many events come after the first."""
    predicted = np.argmax(f.pre_gr[cache.ev_node[1:]], axis=1)
    return int(np.sum(predicted == cache.types[1:])), max(cache.length - 1, 0)


def _cotangent(cache, lo, hi, pre):
    """The log-likelihood's cotangent of the pre-activations ``pre`` of node rows
    ``lo:hi``: ``-quad * sigmoid(pre)``, plus ``dlog_softplus`` at their event rows."""
    d = -(cache.quad[lo:hi, None] * sigmoid(pre))
    # ev_node is increasing, so the block's events are one slice; each event has
    # a left-limit node of its own, so no (row, type) pair repeats and += adds each
    a, b = np.searchsorted(cache.ev_node, (lo, hi))
    rows, types = cache.ev_node[a:b] - lo, cache.types[a:b]
    d[rows, types] += dlog_softplus(pre[rows, types])
    return d


def _query_pre(params, cfg, cache, f, grad):
    """Attention-variant pre-activations (N, K) at the query nodes, one row block at a time."""
    m, k_types = cfg.embed_dim, cfg.num_types
    f.type_w = _type_pair_weights(f.gram, cache.types, math.sqrt(2.0 * m))  # (L, K)
    f.value_read = f.values @ params.readout.T  # (L, K)
    pre = np.empty((len(cache.h), k_types))
    if cfg.skip_connection:
        skip = cache.z_gr @ params.readout[:, :m].T + (params.type_embed.T * params.readout[:, m:]).sum(1)
    if grad:
        f.d_pre = np.empty_like(pre)
        f.r = np.zeros((cache.length, 2 * k_types))
    for lo, hi, cols, w_b, num, den in _factored_blocks(
        cache.z_gr, cache.h, cache.z_ev, f.type_w, f.type_w * f.value_read, cache.blocks
    ):
        mix = num / den
        pre[lo:hi] = mix + params.bias
        if cfg.skip_connection:
            pre[lo:hi] += skip[lo:hi]
        if grad:
            d = f.d_pre[lo:hi] = _cotangent(cache, lo, hi, pre[lo:hi])
            q = d / den
            f.r[:cols] += w_b.T @ np.concatenate([q, q * mix], axis=1)
    return pre


def forward(
    params: ModelParams, cfg: ModelConfig, cache: SequenceCache, grad: bool = False
) -> Forward:
    """Forward pass; with ``grad``, also the cotangent ``f.d_pre`` and what ``backward`` needs."""
    f = Forward()
    f.x_ev = np.concatenate([cache.z_ev, params.type_embed[:, cache.types].T], axis=1)  # (L, 2M)
    f.gram = params.type_embed.T @ params.type_embed  # (K, K)
    f.values = f.x_ev @ params.value_proj  # (L, M_V)
    if cfg.variant == VARIANT_EXTRAPOLATION:
        z, c = cache.z_ev, cache.types
        f.attn_out = np.zeros_like(f.values)  # (L, M_V)
        for lo, hi, cols, a in _own_type_softmax(z, c, np.arange(cache.length), z, c, f.gram):
            f.attn_out[lo:hi] = a @ f.values[:cols]
        f.mlp_pre = f.attn_out @ params.mlp_w1 + params.mlp_b1  # (L, M_H)
        f.mlp_hidden = np.maximum(f.mlp_pre, 0.0)
        f.hidden = f.mlp_hidden @ params.mlp_w2 + params.mlp_b2  # (L, M)
        hidden_read = f.hidden @ params.extrap_readout.T  # (L, K)
        f.pre_gr = np.tile(params.bias, (len(cache.h), 1))
        on = cache.anchored
        f.pre_gr[on] += (
            params.extrap_coef[None, :] * cache.rel_elapsed_gr[on, None]
            + hidden_read[cache.anchor[on]]
        )
        if grad:
            f.d_pre = _cotangent(cache, 0, len(cache.h), f.pre_gr)
    else:
        f.pre_gr = _query_pre(params, cfg, cache, f, grad)
    f.pre_ev = f.pre_gr[cache.ev_node, cache.types]
    return f


def backward(
    params: ModelParams,
    cfg: ModelConfig,
    cache: SequenceCache,
    f: Forward,
) -> dict[str, np.ndarray]:
    """Parameter gradients from ``forward(..., grad=True)``, by (L, ·) algebra on its ``r``."""
    length, m, k_types = cache.length, cfg.embed_dim, cfg.num_types
    d_pre = f.d_pre
    scale = math.sqrt(2.0 * m)
    grads = {
        "type_embed": np.zeros_like(params.type_embed),
        "value_proj": np.zeros_like(params.value_proj),
        "readout": np.zeros_like(params.readout),
        "bias": d_pre.sum(axis=0),
    }

    if cfg.variant == VARIANT_EXTRAPOLATION:
        on = cache.anchored
        grads["extrap_coef"] = cache.rel_elapsed_gr[on] @ d_pre[on]
        d_hidden_read = np.zeros((length, k_types))
        np.add.at(d_hidden_read, cache.anchor[on], d_pre[on])
        grads["extrap_readout"] = d_hidden_read.T @ f.hidden
        d_hidden = d_hidden_read @ params.extrap_readout  # (L, M)
        grads["mlp_b2"] = d_hidden.sum(axis=0)
        grads["mlp_w2"] = f.mlp_hidden.T @ d_hidden
        d_mlp_pre = (d_hidden @ params.mlp_w2.T) * (f.mlp_pre > 0.0)
        grads["mlp_b1"] = d_mlp_pre.sum(axis=0)
        grads["mlp_w1"] = f.attn_out.T @ d_mlp_pre
        d_attn_out = d_mlp_pre @ params.mlp_w1.T  # (L, M_V)
        z, c = cache.z_ev, cache.types
        d_values = np.zeros_like(f.values)
        d_gram = np.zeros_like(f.gram)
        for lo, hi, cols, a in _own_type_softmax(z, c, np.arange(length), z, c, f.gram):
            d_values[:cols] += a.T @ d_attn_out[lo:hi]
            d_a = d_attn_out[lo:hi] @ f.values[:cols].T
            d_raw = a * (d_a - (a * d_a).sum(axis=1, keepdims=True)) / scale
            d_gram += cache.onehot[lo:hi].T @ d_raw @ cache.onehot[:cols]
    else:
        r_num, r_den = np.split(f.r, 2, axis=1)
        d_value_read = f.type_w * r_num
        d_gram = (f.value_read * d_value_read - f.type_w * r_den).T @ cache.onehot / scale
        if cfg.skip_connection:
            # the query type's own skip term is constant over nodes, as the bias is
            grads["readout"][:, :m] += d_pre.T @ cache.z_gr
            grads["readout"][:, m:] += grads["bias"][:, None] * params.type_embed.T
            grads["type_embed"] += params.readout[:, m:].T * grads["bias"]
        grads["readout"] += d_value_read.T @ f.values
        # value_read = values @ readout.T, so cotangents flow straight back
        d_values = d_value_read @ params.readout

    grads["value_proj"] += f.x_ev.T @ d_values
    d_x = d_values @ params.value_proj.T  # (L, 2M)
    grads["type_embed"] += d_x[:, m:].T @ cache.onehot
    grads["type_embed"] += params.type_embed @ (d_gram + d_gram.T)
    return grads


def event_pre_all_types(params: ModelParams, cfg: ModelConfig, cache: SequenceCache) -> np.ndarray:
    """Pre-activations (L, K) treating each event time as a query of every type."""
    return forward(params, cfg, cache).pre_gr[cache.ev_node]
