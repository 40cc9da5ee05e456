"""The benchmark's own formulas, written apart from the package.

Every correctness check of the benchmark compares the package's output
with these closed forms or with plain numpy evaluations of the model
formula; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np


def temporal_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal encoding: entry 2m is sin(t w_m), entry 2m+1 cos(t w_m), w_m = 10000^(-2m/M)."""
    t = np.asarray(t, dtype=np.float64)
    freq = 10000.0 ** (-2.0 * np.arange(dim // 2) / dim)
    args = t[..., None] * freq
    out = np.empty(t.shape + (dim,))
    out[..., 0::2] = np.sin(args)
    out[..., 1::2] = np.cos(args)
    return out


def ithp_intensities(model: dict, times, types, t: float, n: int) -> np.ndarray:
    """Attention-variant intensities of all K types at t, seeing the first n events.

    ``model`` holds numpy arrays ``type_embed`` (M, K), ``value_proj``
    (2M, M_V), ``readout`` (K, M_V), ``bias`` (K,), the int ``embed_dim``
    and the bool ``skip_connection``.  The formula is the one in the
    package README: softplus of the bias plus the attention-weighted value
    readout, where the score between query and history event is the dot
    product of their [time encoding, type embedding] features over
    sqrt(2M), plus the query's own readout with the skip connection.
    """
    m = model["embed_dim"]
    emb = model["type_embed"]
    k = emb.shape[1]
    # one query feature column per type: (2M, K)
    x_q = np.concatenate([np.repeat(temporal_embedding(t, m)[:, None], k, axis=1), emb])
    pre = np.array(model["bias"], dtype=np.float64)
    if n:
        times = np.asarray(times, dtype=np.float64)[:n]
        types = np.asarray(types, dtype=np.int64)[:n]
        x_h = np.concatenate([temporal_embedding(times, m), emb[:, types].T], axis=1)
        scores = x_h @ x_q / math.sqrt(2.0 * m)
        w = np.exp(scores - scores.max(axis=0))
        w /= w.sum(axis=0)
        pre += np.sum(w * (x_h @ model["value_proj"] @ model["readout"].T), axis=0)
    if model["skip_connection"]:
        pre += np.einsum("mk,km->k", x_q, model["readout"])
    return np.logaddexp(0.0, pre)


def event_grid(times, horizon: float, subdivisions: int) -> np.ndarray:
    """The README's integration grid: 0, the events and T, with G - 1 even steps between anchors."""
    anchors = np.unique(np.concatenate(([0.0], np.asarray(times, dtype=np.float64), [horizon])))
    steps = np.arange(1, subdivisions, dtype=np.float64) / subdivisions
    lo, hi = anchors[:-1, None], anchors[1:, None]
    return np.unique(np.concatenate((anchors, (lo + (hi - lo) * steps).ravel())))


def ithp_log_likelihood(model: dict, times, types, grid_times) -> tuple[float, float]:
    """Event term and compensator of one sequence, as the package README defines them.

    The event term sums log intensities at the events, each with strictly
    prior history.  The compensator is the trapezoid rule over the grid,
    where a segment starts from the intensity just after its left node (an
    event there is in the history) and ends at the intensity just before
    its right node.
    """
    times = np.asarray(times, dtype=np.float64)
    types = np.asarray(types, dtype=np.int64)
    grid_times = np.asarray(grid_times, dtype=np.float64)
    event_term = sum(
        math.log(ithp_intensities(model, times, types, float(t), i)[types[i]])
        for i, t in enumerate(times)
    )
    before = np.searchsorted(times, grid_times, side="left")
    upto = np.searchsorted(times, grid_times, side="right")
    left = [ithp_intensities(model, times, types, float(t), int(n)).sum()
            for t, n in zip(grid_times, before)]
    right = [left[j] if upto[j] == before[j]
             else ithp_intensities(model, times, types, float(t), int(upto[j])).sum()
             for j, t in enumerate(grid_times)]
    widths = np.diff(grid_times)
    compensator = float(np.sum(widths * (np.array(right[:-1]) + np.array(left[1:]))) / 2.0)
    return float(event_term), compensator


def model_from_json(path) -> dict:
    """Read a saved model file directly: config plus row-major parameter arrays."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = doc["config"]
    out = {"embed_dim": int(cfg["embed_dim"]), "skip_connection": bool(cfg["skip_connection"])}
    for name in ("type_embed", "value_proj", "readout", "bias"):
        entry = doc["params"][name]
        out[name] = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
    return out


def model_from_params(params, embed_dim: int, skip_connection: bool) -> dict:
    return {
        "embed_dim": embed_dim,
        "skip_connection": skip_connection,
        "type_embed": np.asarray(params.type_embed),
        "value_proj": np.asarray(params.value_proj),
        "readout": np.asarray(params.readout),
        "bias": np.asarray(params.bias),
    }


class Process:
    """A ground-truth Hawkes process: alpha[target, source], exponential or half-sine kernels."""

    def __init__(self, mu, alpha, beta=None):
        self.mu = np.asarray(mu, dtype=np.float64)
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = None if beta is None else np.asarray(beta, dtype=np.float64)

    @property
    def kernel(self) -> str:
        return "exp" if self.beta is not None else "half-sine"

    def to_json(self) -> dict:
        doc = {"kernel": self.kernel, "mu": self.mu.tolist(), "alpha": self.alpha.tolist()}
        if self.beta is not None:
            doc["beta"] = self.beta.tolist()
        return doc

    def intensity(self, times, types, t: float) -> np.ndarray:
        """Intensities of all types at t, from events strictly before t."""
        times = np.asarray(times, dtype=np.float64)
        before = times < t
        tau = t - times[before]
        src = np.asarray(types)[before]
        if self.beta is not None:
            phi = self.alpha[:, src] * np.exp(-self.beta[:, src] * tau)
        else:
            live = tau < math.pi
            phi = self.alpha[:, src[live]] * np.sin(tau[live])
        return self.mu + phi.sum(axis=1)

    def compensator(self, times, types, horizon: float) -> float:
        """Closed-form integral of the total intensity over [0, horizon]."""
        tau = horizon - np.asarray(times, dtype=np.float64)
        src = np.asarray(types)
        total = float(self.mu.sum()) * horizon
        if self.beta is not None:
            a, b = self.alpha[:, src], self.beta[:, src]
            total += float(np.sum(a / b * (1.0 - np.exp(-b * tau))))
        else:
            total += float(np.sum(self.alpha[:, src] * (1.0 - np.cos(np.minimum(tau, math.pi)))))
        return total


def martingale_z(process: Process, sequences) -> float:
    """(sum N(T) - sum Lambda(T)) / sqrt(sum N(T)) over ``(times, types, horizon)`` triples.

    N - Lambda is a martingale with variance E[Lambda], so on correct
    simulator output this is roughly standard normal.
    """
    count, comp = 0, 0.0
    for times, types, horizon in sequences:
        count += len(times)
        comp += process.compensator(times, types, horizon)
    return (count - comp) / math.sqrt(max(count, 1))


def constant_rate_tll(train, test, num_types: int) -> float:
    """Per-event test log-likelihood of per-type constant rates fitted on ``train``.

    Both arguments are lists of ``(times, types, horizon)`` triples.
    """
    counts = np.zeros(num_types)
    exposure = 0.0
    for _, types, horizon in train:
        counts += np.bincount(np.asarray(types, dtype=np.int64), minlength=num_types)
        exposure += horizon
    rates = counts / exposure
    total, events = 0.0, 0
    for _, types, horizon in test:
        total += float(np.sum(np.log(rates[np.asarray(types, dtype=np.int64)]))) - horizon * rates.sum()
        events += len(types)
    return total / events


def heatmap_probes(sequences, num_types: int, tau_max: float, num_probes: int) -> int:
    """Probe evaluations of one K x K influence heatmap, counted from its inputs.

    For each source type the probes are its events whose lag range
    [t, t + tau_max] stays inside the window (all its events when none
    does), capped at ``num_probes``; each is probed once per target type.
    """
    total = 0
    for source in range(num_types):
        covered = candidates = 0
        for times, types, horizon in sequences:
            ts = np.asarray(times)[np.asarray(types) == source]
            candidates += len(ts)
            covered += int(np.count_nonzero(ts + tau_max <= horizon))
        total += num_types * min(num_probes, covered if covered else candidates)
    return total


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)))


def attention_structure_error(times_are_events, matrix) -> str | None:
    """None when the dense attention map has the documented structure, else what is wrong.

    Rows of events that have history sum to 1 within 1e-9; the diagonal,
    the upper triangle and every grid column are exactly zero.  Works row
    by row so that the check allocates no second N x N array.
    """
    is_event = np.asarray(times_are_events, dtype=bool)
    seen_event = False
    for i in range(matrix.shape[0]):
        row = matrix[i]
        if np.any(row[i:] != 0.0):
            return f"row {i}: nonzero weight on or above the diagonal"
        if np.any(row[~is_event] != 0.0):
            return f"row {i}: nonzero weight in a grid column"
        if is_event[i] and seen_event and abs(float(row.sum()) - 1.0) > 1e-9:
            return f"event row {i}: weights sum to {float(row.sum())!r}"
        seen_event = seen_event or bool(is_event[i])
    return None


def read_csv(path):
    """Artifact CSV: a '# {json}' line, a header, then numeric or text cells."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing '# {{...}}' metadata line")
        meta = json.loads(first[2:])
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    for j, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {j} has {len(row)} cells, header has {len(header)}")
    return meta, header, rows
