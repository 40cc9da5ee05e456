"""Attention-based intensity models over event sequences.

The intensity of type ``k`` at time ``t`` attends over the embedded history
with the query and key roles played by the event embeddings themselves; only
the value side carries a learned projection.  Event embeddings concatenate a
sinusoidal encoding of time with a learned type embedding, which makes the
attention score split exactly into a shift-invariant temporal part and a
type-pair part.

Two variants share the parameter container: the attention variant evaluates
fresh attention at every query time, while the extrapolation variant reuses
the attention output of the most recent event and extrapolates linearly in
relative elapsed time through a small MLP head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import EventSequence, IntegrationGrid
from .errors import (
    DegenerateAnchor,
    NonCausalHistory,
    NoPriorEvent,
    OddDimension,
    OutOfWindow,
)
from .numerics import softplus

__all__ = [
    "VARIANT_ATTENTION",
    "VARIANT_EXTRAPOLATION",
    "ModelConfig",
    "ModelParams",
    "AttentionMap",
    "param_fields",
    "param_shapes",
    "zeros_params",
    "flatten_params",
    "unflatten_params",
    "temporal_embedding",
    "type_embedding",
    "event_embedding",
    "attention_weights",
    "intensity_at",
    "intensity_all_types",
    "trigger_contribution",
    "ex_intensity_at",
    "attention_matrix",
]

VARIANT_ATTENTION = "ithp"
VARIANT_EXTRAPOLATION = "ex-ithp"

# In the pointwise oracle, attention scores this far below the row maximum
# flush to exactly zero weight; exp(-50) is below any tolerance used downstream.
SCORE_FLUSH = 50.0

# Query rows times history columns per row block of every row-blocked pass
# (grid attention, probe queries, ``attention_matrix``), so each (rows, columns)
# temporary stays at 512 KB whatever the sequence length.  On a 1000-event
# gradient this ran 1.2x as fast as 1 << 18 and 1.5x as fast as 1 << 14: larger
# blocks carry more masked cells past each row's history and leave the cache,
# smaller ones pay more per-block overhead.
ROW_BLOCK_CELLS = 1 << 16


def _history_scores(z_q: np.ndarray, z_ev: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Temporal scores ``z_q @ z_ev.T``, ``-inf`` past each row's history count ``h[n]``."""
    block = z_q @ z_ev.T
    block[np.arange(len(z_ev))[None, :] >= h[:, None]] = -np.inf
    return block


def _temporal_weights(z_q: np.ndarray, z_s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unnormalized temporal weights ``exp(z_q @ z_s.T)``, zero past each row's history count ``h[n]``.

    ``z_s`` holds the source embeddings already divided by ``sqrt(2M)``.  Each
    embedding has squared norm M/2, so ``|z_q . z_j| <= M/2`` and every scaled
    score lies within ``+-sqrt(M/8)`` (2 at M=32): the ``exp`` needs no max
    shift, and it would overflow only for M > 4e6.  The mask is applied after the
    ``exp``, so no ``-inf`` is exponentiated.  No row normalizer is taken, since
    it cancels in every ratio the callers form.
    """
    w = z_q @ z_s.T
    np.exp(w, out=w)
    w[np.arange(len(z_s))[None, :] >= h[:, None]] = 0.0
    return w


def _row_blocks(h: np.ndarray):
    """Consecutive row blocks ``(lo, hi, cols)`` over history counts ``h``.

    A block holds at most ``ROW_BLOCK_CELLS`` cells (one row at least), counting
    each row at the running maximum of ``h`` from the block's first row and at one
    column at least; ``cols`` is the block's largest ``h``.  The count stays right
    when ``h`` drops, as it does between the grid points and the right-limit copies.
    """
    budget = ROW_BLOCK_CELLS  # read per call, so tests can shrink it
    lo = 0
    while lo < len(h):
        # every row counts at least max(h[lo], 1) cells, which bounds the rows
        win = h[lo : lo + max(1, budget // max(int(h[lo]), 1))]
        run = np.maximum.accumulate(win)
        cells = np.arange(1, len(win) + 1) * np.maximum(run, 1)
        rows = max(1, int(np.searchsorted(cells, budget, side="right")))
        yield lo, lo + rows, int(run[rows - 1])
        lo += rows


def _softmax_rows(block: np.ndarray, type_scores, scale: float) -> np.ndarray:
    """Row softmax of ``(block + type_scores) / scale``; rows with an empty history
    give zero rows.  Unlike the pointwise ``_masked_softmax`` it does not flush."""
    raw = (block + type_scores) / scale
    mx = raw.max(axis=1, keepdims=True, initial=-np.inf)
    w = np.exp(raw - np.where(np.isfinite(mx), mx, 0.0))
    norm = w.sum(axis=1, keepdims=True)
    return w / np.where(norm > 0.0, norm, 1.0)


def _own_type_softmax(z_q, q_types, h, z_ev, ev_types, gram):
    """Row blocks ``(lo, hi, cols, weights)``: the softmax of rows ``lo:hi`` over their first
    ``cols`` events, each query scored with its own type.  It keeps the max shift, so the
    unbounded type-pair scores cannot underflow a row with history to all zeros."""
    for lo, hi, cols in _row_blocks(h):
        block = _history_scores(z_q[lo:hi], z_ev[:cols], h[lo:hi])
        type_scores = gram[q_types[lo:hi, None], ev_types[None, :cols]]
        yield lo, hi, cols, _softmax_rows(block, type_scores, math.sqrt(2.0 * z_q.shape[1]))


def _type_pair_weights(gram: np.ndarray, types: np.ndarray, scale: float) -> np.ndarray:
    """Type-pair weights (L, K) ``exp((gram[k, c_j] - max_c gram[k, c]) / scale)``, c = types."""
    return np.exp((gram[:, types].T - gram.max(axis=1)) / scale)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by both variants."""

    num_types: int
    embed_dim: int  # M, must be even
    value_dim: int | None = None  # defaults to 2 * embed_dim
    hidden_dim: int | None = None  # extrapolation MLP width, defaults to embed_dim
    variant: str = VARIANT_ATTENTION
    grid_subdivisions: int = 10
    skip_connection: bool = False

    def __post_init__(self):
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise OddDimension(f"embed_dim must be even and >= 2, got {self.embed_dim}")
        if self.num_types < 1:
            raise ValueError(f"num_types must be at least 1, got {self.num_types}")
        if self.variant not in (VARIANT_ATTENTION, VARIANT_EXTRAPOLATION):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.value_dim is None:
            object.__setattr__(self, "value_dim", 2 * self.embed_dim)
        if self.value_dim < 1:
            raise ValueError(f"value_dim must be positive, got {self.value_dim}")
        if self.hidden_dim is None:
            object.__setattr__(self, "hidden_dim", self.embed_dim)
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.grid_subdivisions < 1:
            raise ValueError(
                f"grid_subdivisions must be at least 1, got {self.grid_subdivisions}"
            )
        if self.skip_connection and self.value_dim != 2 * self.embed_dim:
            raise ValueError("skip_connection requires value_dim == 2 * embed_dim")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Learnable parameters.  MLP and extrapolation fields are only present
    for the extrapolation variant."""

    type_embed: np.ndarray  # (M, K)
    value_proj: np.ndarray  # (2M, M_V)
    readout: np.ndarray  # (K, M_V)
    bias: np.ndarray  # (K,)
    mlp_w1: np.ndarray | None = None  # (M_V, M_H)
    mlp_b1: np.ndarray | None = None  # (M_H,)
    mlp_w2: np.ndarray | None = None  # (M_H, M)
    mlp_b2: np.ndarray | None = None  # (M,)
    extrap_coef: np.ndarray | None = None  # (K,)
    extrap_readout: np.ndarray | None = None  # (K, M)

    def __post_init__(self):
        for field in fields(ModelParams):
            value = getattr(self, field.name)
            if value is not None:
                object.__setattr__(self, field.name, np.asarray(value, dtype=np.float64))


def param_fields(cfg: ModelConfig) -> tuple[str, ...]:
    return tuple(param_shapes(cfg))


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    m, k = cfg.embed_dim, cfg.num_types
    mv, mh = cfg.value_dim, cfg.hidden_dim
    shapes = {
        "type_embed": (m, k),
        "value_proj": (2 * m, mv),
        "readout": (k, mv),
        "bias": (k,),
    }
    if cfg.variant == VARIANT_EXTRAPOLATION:
        shapes.update(
            mlp_w1=(mv, mh),
            mlp_b1=(mh,),
            mlp_w2=(mh, m),
            mlp_b2=(m,),
            extrap_coef=(k,),
            extrap_readout=(k, m),
        )
    return shapes


def validate_params(params: ModelParams, cfg: ModelConfig) -> None:
    for name, shape in param_shapes(cfg).items():
        value = getattr(params, name)
        if value is None:
            raise ValueError(f"missing parameter {name} for variant {cfg.variant}")
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")


def zeros_params(cfg: ModelConfig) -> ModelParams:
    return ModelParams(**{n: np.zeros(s) for n, s in param_shapes(cfg).items()})


def flatten_params(params: ModelParams, cfg: ModelConfig) -> np.ndarray:
    return np.concatenate(
        [np.asarray(getattr(params, n), dtype=np.float64).ravel() for n in param_fields(cfg)]
    )


def unflatten_params(vec: np.ndarray, cfg: ModelConfig) -> ModelParams:
    out, pos = {}, 0
    for name, shape in param_shapes(cfg).items():
        size = math.prod(shape)
        out[name] = np.array(vec[pos : pos + size], dtype=np.float64).reshape(shape)
        pos += size
    if pos != vec.size:
        raise ValueError(f"vector has {vec.size} entries, parameters need {pos}")
    return ModelParams(**out)


def perturb_param(params: ModelParams, name: str, index: tuple[int, ...], delta: float) -> ModelParams:
    """Copy ``params`` with one scalar entry shifted by ``delta``."""
    arr = np.array(getattr(params, name), dtype=np.float64)
    arr[index] += delta
    return replace(params, **{name: arr})


def temporal_embedding(t, embed_dim: int) -> np.ndarray:
    """Sinusoidal time encoding with M/2 frequency pairs.

    Entry ``2m`` is ``sin(t * w_m)`` and entry ``2m + 1`` is ``cos(t * w_m)``
    with ``w_m = 10000 ** (-2m / M)``, so the squared norm is always M/2 and
    inner products depend on time differences only.
    """
    m = int(embed_dim)
    if m < 2 or m % 2:
        raise OddDimension(f"embed_dim must be even and >= 2, got {m}")
    t = np.asarray(t, dtype=np.float64)
    freq = np.power(10000.0, -2.0 * np.arange(m // 2) / m)
    args = t[..., None] * freq
    out = np.empty(t.shape + (m,), dtype=np.float64)
    out[..., 0::2] = np.sin(args)
    out[..., 1::2] = np.cos(args)
    return out


def type_embedding(params: ModelParams, k: int) -> np.ndarray:
    """Column ``k`` of the learned type embedding matrix."""
    return np.asarray(params.type_embed[:, int(k)])


def event_embedding(params: ModelParams, cfg: ModelConfig, t, k: int) -> np.ndarray:
    """Concatenation of the temporal encoding and the type embedding."""
    return np.concatenate([temporal_embedding(t, cfg.embed_dim), type_embedding(params, k)])


def _embed_many(params, cfg, times, types) -> np.ndarray:
    z = temporal_embedding(np.asarray(times, dtype=np.float64), cfg.embed_dim)
    e = params.type_embed[:, np.asarray(types, dtype=np.int64)].T
    return np.concatenate([z, e], axis=1)


def _masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of a score vector with the far-tail flush to exact zero."""
    d = scores - scores.max()
    w = np.exp(d)
    w[d < -SCORE_FLUSH] = 0.0
    return w / w.sum()


def attention_weights(
    params: ModelParams,
    cfg: ModelConfig,
    query_time: float,
    query_type: int,
    hist_times,
    hist_types,
) -> np.ndarray:
    """Softmax attention of a query ``(t, k)`` over strictly earlier events.

    Returns one weight per history event; an empty history gives an empty
    vector.  Raises ``NonCausalHistory`` if any history event does not
    strictly precede the query time.
    """
    hist_times = np.asarray(hist_times, dtype=np.float64)
    hist_types = np.asarray(hist_types, dtype=np.int64)
    if hist_times.size == 0:
        return np.zeros(0)
    if not (hist_times < query_time).all():
        bad = int(np.argmax(hist_times >= query_time))
        raise NonCausalHistory(
            f"history event {bad} at t={hist_times[bad]} does not precede query t={query_time}"
        )
    x_hist = _embed_many(params, cfg, hist_times, hist_types)
    x_query = event_embedding(params, cfg, float(query_time), int(query_type))
    scores = x_hist @ x_query / math.sqrt(2.0 * cfg.embed_dim)
    return _masked_softmax(scores)


def _check_window(seq: EventSequence, t: float) -> None:
    if not (0.0 <= t <= seq.horizon):
        raise OutOfWindow(f"query time {t} outside [0, {seq.horizon}]")


def _attention_pre(params, cfg, seq, t, k):
    """Pre-activation of the attention variant at query ``(t, k)``."""
    n = int(np.searchsorted(seq.times, t, side="left"))
    pre = float(params.bias[k])
    if n:
        a = attention_weights(params, cfg, t, k, seq.times[:n], seq.types[:n])
        values = _embed_many(params, cfg, seq.times[:n], seq.types[:n]) @ params.value_proj
        pre += float(a @ (values @ params.readout[k]))
    if cfg.skip_connection:
        x_query = event_embedding(params, cfg, float(t), int(k))
        pre += float(x_query @ params.readout[k])
    return pre


def intensity_at(params: ModelParams, cfg: ModelConfig, seq: EventSequence, t: float, k: int) -> float:
    """Attention-variant intensity of type ``k`` at time ``t``.

    The history is every event strictly before ``t``; with no history the
    intensity is ``softplus(bias_k)``.  Query times must lie in ``[0, T]``.
    """
    if cfg.variant != VARIANT_ATTENTION:
        raise ValueError("intensity_at applies to the attention variant")
    _check_window(seq, t)
    return float(softplus(_attention_pre(params, cfg, seq, float(t), int(k))))


def trigger_contribution(
    params: ModelParams,
    cfg: ModelConfig,
    seq: EventSequence,
    event_index: int,
    t: float,
    k: int,
) -> float:
    """Single-event summand of the pre-activation at query ``(t, k)``.

    This is the attention weight of event ``event_index`` times its value
    readout; summing over the history and adding the bias reproduces the
    intensity through softplus.  May be negative.
    """
    if cfg.variant != VARIANT_ATTENTION:
        raise ValueError("trigger_contribution applies to the attention variant")
    _check_window(seq, t)
    i = int(event_index)
    if not 0 <= i < len(seq):
        raise IndexError(f"event index {i} outside sequence of length {len(seq)}")
    if not seq.times[i] < t:
        raise NonCausalHistory(f"event {i} at t={seq.times[i]} does not precede query t={t}")
    n = int(np.searchsorted(seq.times, t, side="left"))
    a = attention_weights(params, cfg, t, k, seq.times[:n], seq.types[:n])
    values = _embed_many(params, cfg, seq.times[:n], seq.types[:n]) @ params.value_proj
    return float(a[i] * (values[i] @ params.readout[k]))


def _attention_output(params, cfg, seq, i):
    """Attention value vector of event ``i`` over its strict predecessors."""
    if i == 0:
        return np.zeros(cfg.value_dim)
    t, k = float(seq.times[i]), int(seq.types[i])
    a = attention_weights(params, cfg, t, k, seq.times[:i], seq.types[:i])
    values = _embed_many(params, cfg, seq.times[:i], seq.types[:i]) @ params.value_proj
    return a @ values


def _extrap_hidden(params, s):
    """MLP head mapping an attention output to the extrapolation feature."""
    h = np.maximum(s @ params.mlp_w1 + params.mlp_b1, 0.0)
    return h @ params.mlp_w2 + params.mlp_b2


def ex_intensity_at(params: ModelParams, cfg: ModelConfig, seq: EventSequence, t: float, k: int) -> float:
    """Extrapolation-variant intensity of type ``k`` at time ``t``.

    Anchored at the most recent event before ``t``: the anchor's attention
    output feeds an MLP, and elapsed time enters as a linear term in
    ``(t - t_anchor) / t_anchor``.  Raises ``NoPriorEvent`` with no anchor
    and ``DegenerateAnchor`` when the anchor sits at exactly t = 0.
    """
    if cfg.variant != VARIANT_EXTRAPOLATION:
        raise ValueError("ex_intensity_at applies to the extrapolation variant")
    _check_window(seq, t)
    n = int(np.searchsorted(seq.times, t, side="left"))
    if n == 0:
        raise NoPriorEvent(f"no event precedes query t={t}")
    anchor = n - 1
    t_a = float(seq.times[anchor])
    if t_a == 0.0:
        raise DegenerateAnchor("anchor event at t=0 makes the relative elapsed time undefined")
    hidden = _extrap_hidden(params, _attention_output(params, cfg, seq, anchor))
    pre = (
        float(params.extrap_coef[k]) * (float(t) - t_a) / t_a
        + float(params.extrap_readout[k] @ hidden)
        + float(params.bias[k])
    )
    return float(softplus(pre))


def intensity_all_types(params: ModelParams, cfg: ModelConfig, seq: EventSequence, t: float) -> np.ndarray:
    """Vector of intensities over all types at ``t``, dispatching on variant.

    For the extrapolation variant, query times with no prior event fall back
    to the bias rate ``softplus(bias_k)`` so the whole window is covered.
    """
    _check_window(seq, t)
    k_range = range(cfg.num_types)
    if cfg.variant == VARIANT_ATTENTION:
        return np.array([intensity_at(params, cfg, seq, t, k) for k in k_range])
    n = int(np.searchsorted(seq.times, t, side="left"))
    if n == 0:
        return softplus(np.asarray(params.bias, dtype=np.float64)).copy()
    return np.array([ex_intensity_at(params, cfg, seq, t, k) for k in k_range])


@dataclass(frozen=True, eq=False)
class AttentionMap:
    """Attention weights over the chronological union of grid and event times."""

    times: np.ndarray  # (N,) query/source times, ascending
    is_event: np.ndarray  # (N,) bool, True where the time is an event of the sequence
    query_types: np.ndarray  # (N,) type id used for each row's query
    # (N, N) rows attend over strictly earlier event columns; a streamed map
    # (``_attention_rows``) holds an iterator over the N rows instead
    matrix: np.ndarray


def _attention_blocks(params, cfg, seq, grid):
    """The rows of ``attention_matrix`` and a generator of their weights.

    Returns ``(times, is_event, query_types, blocks)``.  ``blocks`` computes one
    row block of ``_row_blocks`` per step and yields ``(lo, hi, columns,
    weights)``: rows ``lo:hi`` hold ``weights`` in ``columns``, the columns of
    the events of the block's history, and zeros everywhere else.
    """
    points = grid.times
    event_cols = np.searchsorted(points, seq.times)
    if len(seq) and not np.array_equal(points[event_cols], seq.times):
        raise ValueError("grid does not contain every event time of the sequence")
    is_event = np.zeros(len(points), dtype=bool)
    is_event[event_cols] = True
    if len(seq):
        modal = int(np.argmax(np.bincount(seq.types, minlength=cfg.num_types)))
    else:
        modal = 0
    query_types = np.full(len(points), modal, dtype=np.int64)
    query_types[event_cols] = seq.types
    h = np.searchsorted(seq.times, points, side="left")

    def blocks():
        z_q = temporal_embedding(points, cfg.embed_dim)
        z_ev = temporal_embedding(seq.times, cfg.embed_dim)
        gram = params.type_embed.T @ params.type_embed
        for lo, hi, cols, weights in _own_type_softmax(z_q, query_types, h, z_ev, seq.types, gram):
            yield lo, hi, event_cols[:cols], weights

    return points.copy(), is_event, query_types, blocks()


def attention_matrix(
    params: ModelParams, cfg: ModelConfig, seq: EventSequence, grid: IntegrationGrid
) -> AttentionMap:
    """Attention weights of every grid or event time over the event history.

    Row ``n`` holds the attention of a query at ``times[n]`` across events
    strictly earlier, placed in the matching columns.  Grid-only columns are
    zero everywhere, as are the diagonal and upper triangle.  Event rows use
    the event's own type as query type; grid rows use the most frequent
    event type of the sequence.
    """
    times, is_event, query_types, blocks = _attention_blocks(params, cfg, seq, grid)
    matrix = np.zeros((len(times), len(times)))
    for lo, hi, columns, weights in blocks:
        matrix[lo:hi, columns] = weights
    return AttentionMap(times=times, is_event=is_event, query_types=query_types, matrix=matrix)


def _attention_rows(
    params: ModelParams, cfg: ModelConfig, seq: EventSequence, grid: IntegrationGrid
) -> AttentionMap:
    """``attention_matrix`` with ``matrix`` an iterator over its rows.

    The rows are computed one row block at a time as they are read, so memory
    stays at one block and one row, not the (N, N) matrix.
    """
    times, is_event, query_types, blocks = _attention_blocks(params, cfg, seq, grid)

    def rows():
        for _, _, columns, weights in blocks:
            for w in weights:
                row = np.zeros(len(times))
                row[columns] = w
                yield row

    return AttentionMap(times=times, is_event=is_event, query_types=query_types, matrix=rows())
