"""Ground-truth multivariate Hawkes simulation by Ogata thinning.

Kernel conventions: ``alpha[i, j]`` scales the influence of a source event
of type ``j`` on the intensity of target type ``i``.  Two parametric
families are supported:

* exponential decay, ``phi_ij(tau) = alpha_ij * exp(-beta_ij * tau)``,
* half-sine, ``phi_ij(tau) = alpha_ij * sin(tau)`` on ``0 < tau < pi``.

``thin_simulate`` draws one sequence with a per-sequence loop.
``simulate_dataset`` draws many in lockstep (``_thin_lockstep``): each step
moves every live sequence on by one proposal, with the kernel state held in
arrays with a leading sequence axis.  Each sequence still draws from its own
generator, in the loop's order and with the loop's arithmetic, so the
dataset is bit-identical to calling ``thin_simulate`` on each generator.  A
dataset of one sequence takes the loop, which is faster for one.

Both refuse an explosive process before drawing: a branching matrix
(``alpha / beta`` for the exponential kernel, ``2 alpha`` for half-sine) of
spectral radius at least 1 raises ``UnboundedIntensity`` unless the caller
passes ``allow_explosive=True``.  A sequence that would exceed
``MAX_EVENTS`` events also raises ``UnboundedIntensity``, so an explosive
draw of one sequence stops within a second instead of running for hours.
The command line exits 3 on both.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .domain import Dataset, EventSequence
from .errors import UnboundedIntensity

__all__ = [
    "EXPONENTIAL",
    "HALF_SINE",
    "HawkesSpec",
    "kernel_eval",
    "true_intensity",
    "thin_simulate",
    "simulate_dataset",
    "branching_radius",
    "MAX_EVENTS",
]

EXPONENTIAL = "exponential"
HALF_SINE = "half-sine"


@dataclass(frozen=True, eq=False)
class HawkesSpec:
    """Parameters of a ground-truth multivariate Hawkes process."""

    mu: np.ndarray  # (K,) baseline rates
    kernel: str  # EXPONENTIAL or HALF_SINE
    alpha: np.ndarray  # (K, K) kernel amplitudes, target row, source column
    beta: np.ndarray | None = None  # (K, K) decay rates, exponential only

    def __post_init__(self):
        mu = np.atleast_1d(np.array(self.mu, dtype=np.float64))
        alpha = np.array(self.alpha, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)
        k = mu.shape[0]
        if self.kernel not in (EXPONENTIAL, HALF_SINE):
            raise ValueError(f"unknown kernel family {self.kernel!r}")
        if alpha.shape != (k, k):
            raise ValueError(f"alpha must have shape ({k}, {k}), got {alpha.shape}")
        if not np.isfinite(mu).all() or (mu < 0).any():
            raise ValueError("mu must be finite and nonnegative")
        if not np.isfinite(alpha).all() or (alpha < 0).any():
            raise ValueError("alpha must be finite and nonnegative")
        if self.kernel == EXPONENTIAL:
            if self.beta is None:
                raise ValueError("exponential kernel requires beta")
            beta = np.array(self.beta, dtype=np.float64)
            if beta.shape != (k, k):
                raise ValueError(f"beta must have shape ({k}, {k}), got {beta.shape}")
            if not np.isfinite(beta).all() or (beta <= 0).any():
                raise ValueError("beta must be finite and positive")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError("beta is only meaningful for the exponential kernel")

    @property
    def num_types(self) -> int:
        return self.mu.shape[0]


def kernel_eval(spec: HawkesSpec, target: int, source: int, tau):
    """Evaluate ``phi_{target,source}`` at lag ``tau`` (scalar or array).

    Lags at or below zero evaluate to zero, as does any half-sine lag at or
    beyond pi.
    """
    tau = np.asarray(tau, dtype=np.float64)
    a = spec.alpha[target, source]
    if spec.kernel == EXPONENTIAL:
        b = spec.beta[target, source]
        out = np.where(tau > 0.0, a * np.exp(-b * np.maximum(tau, 0.0)), 0.0)
    else:
        out = np.where((tau > 0.0) & (tau < math.pi), a * np.sin(tau), 0.0)
    return out if out.ndim else float(out)


# Query rows x events x types per block of ``_true_intensities``, so its
# temporaries stay near 2 MB whatever the sequence length.
_TRUE_INTENSITY_BLOCK_CELLS = 1 << 18


def true_intensity(spec: HawkesSpec, seq: EventSequence, t: float, k: int) -> float:
    """Conditional intensity of type ``k`` at time ``t`` given events strictly before ``t``."""
    return float(_true_intensities(spec, seq, [t])[0, k])


def _true_intensities(spec: HawkesSpec, seq: EventSequence, times) -> np.ndarray:
    """Conditional intensities (N, K) at each of ``times`` given the events strictly before it."""
    times = np.asarray(times, dtype=np.float64)
    k = spec.num_types
    out = np.tile(spec.mu, (len(times), 1))
    if not len(seq):
        return out
    alpha = spec.alpha[:, seq.types]  # (K, L)
    rows = max(1, _TRUE_INTENSITY_BLOCK_CELLS // (len(seq) * k))
    for lo in range(0, len(times), rows):
        t = times[lo : lo + rows, None]
        # an infinite lag stands for an event not strictly before t; it adds 0
        tau = np.where(seq.times < t, t - seq.times, np.inf)  # (B, L)
        if spec.kernel == EXPONENTIAL:
            decay = np.exp(-spec.beta[:, seq.types] * tau[:, None, :])  # (B, K, L)
            out[lo : lo + rows] += (alpha * decay).sum(axis=2)
        else:
            live = np.where(tau < math.pi, np.sin(np.minimum(tau, math.pi)), 0.0)
            out[lo : lo + rows] += live @ alpha.T
    return out


# Most events one sequence may hold; one more raises UnboundedIntensity.
# Ten times the longest benchmark draw (about 2 000 events) and nearly twice
# the longest test draw (10 875 events, one sequence to T=3000), yet low
# enough that an explosive one-sequence draw reaches it in about 0.4 s.
MAX_EVENTS = 20_000


def _too_many_events():
    return UnboundedIntensity(f"a sequence reached {MAX_EVENTS} events before the horizon")


def _thin_exponential(spec, horizon, rng):
    # R[i, j] holds the decayed count sum_e exp(-beta_ij (s - t_e)) over past
    # events of type j, so lambda = mu + (alpha * R) @ 1.
    k = spec.num_types
    times: list[float] = []
    types: list[int] = []
    r = np.zeros((k, k))
    mu_sum, neg_beta = spec.mu.sum(), -spec.beta
    jump = float(spec.alpha.max(axis=1).sum())
    s = 0.0
    while True:
        lam_bar = float(mu_sum + (spec.alpha * r).sum()) + jump
        if not math.isfinite(lam_bar):
            raise UnboundedIntensity(f"thinning bound is not finite at s={s}")
        if lam_bar <= 0.0:
            break
        w = rng.exponential(1.0 / lam_bar)
        s = s + w
        if s > horizon:
            break
        r = r * np.exp(neg_beta * w)
        lam = spec.mu + (spec.alpha * r).sum(axis=1)
        d = rng.random()  # uniform() returns the same value, three times slower
        cum = np.cumsum(lam)
        if d * lam_bar <= cum[-1]:
            if len(times) == MAX_EVENTS:
                raise _too_many_events()
            m = int(np.searchsorted(cum, d * lam_bar))
            times.append(s)
            types.append(m)
            r[:, m] += 1.0
    return times, types


def _thin_half_sine(spec, horizon, rng):
    # The kernel rises until pi/2, so the bound uses each live event's
    # remaining peak: 1 before the peak, sin(elapsed) after it.
    times: list[float] = []
    types: list[int] = []
    col_sum = spec.alpha.sum(axis=0)  # (K,) summed over targets
    sum_mu = float(spec.mu.sum())
    half_pi = math.pi / 2.0
    s = 0.0
    while True:
        lo = bisect.bisect_right(times, s - math.pi)
        lam_bar = sum_mu
        for e in range(lo, len(times)):
            tau = s - times[e]
            lam_bar += col_sum[types[e]] * (1.0 if tau < half_pi else math.sin(tau))
        if not math.isfinite(lam_bar):
            raise UnboundedIntensity(f"thinning bound is not finite at s={s}")
        if lam_bar <= 0.0:
            break
        w = rng.exponential(1.0 / lam_bar)
        s = s + w
        if s > horizon:
            break
        lam = spec.mu.copy()
        lo = bisect.bisect_right(times, s - math.pi)
        for e in range(lo, len(times)):
            tau = s - times[e]
            if tau < math.pi:
                lam += spec.alpha[:, types[e]] * math.sin(tau)
        d = rng.random()
        cum = np.cumsum(lam)
        if d * lam_bar <= cum[-1]:
            if len(times) == MAX_EVENTS:
                raise _too_many_events()
            m = int(np.searchsorted(cum, d * lam_bar))
            times.append(s)
            types.append(m)
    return times, types


class _History:
    """Accepted events of every sequence, padded to a common capacity."""

    def __init__(self, n):
        cap = min(64, MAX_EVENTS)
        self.times = np.zeros((n, cap))
        self.types = np.zeros((n, cap), dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)

    def append(self, ids, times, types):
        pos = self.count[ids]
        cap = self.times.shape[1]
        if pos.max() >= cap:
            if cap == MAX_EVENTS:
                raise _too_many_events()
            grown = min(2 * cap, MAX_EVENTS)
            self.times = np.pad(self.times, ((0, 0), (0, grown - cap)))
            self.types = np.pad(self.types, ((0, 0), (0, grown - cap)))
        self.times[ids, pos] = times
        self.types[ids, pos] = types
        self.count[ids] = pos + 1

    def window(self, ids, lo):
        """Columns ``lo`` onward of each sequence ``ids``: times, types and a validity mask."""
        hi = self.count[ids]
        width = int((hi - lo).max())
        cols = lo[:, None] + np.arange(width)
        valid = cols < hi[:, None]
        cols = np.minimum(cols, self.times.shape[1] - 1)
        rows = ids[:, None]
        return self.times[rows, cols], self.types[rows, cols], valid


class _ExponentialLanes:
    """Exponential-kernel state of the live sequences: ``r`` as in ``_thin_exponential``."""

    def __init__(self, spec, n):
        k = spec.num_types
        self.mu, self.alpha, self.neg_beta = spec.mu, spec.alpha, -spec.beta
        self.mu_sum = spec.mu.sum()
        self.jump = float(spec.alpha.max(axis=1).sum())
        self.r = np.zeros((n, k, k))

    def bound(self, s, hist, ids):
        # the loop's (alpha * r).sum() over each flattened (K, K) slice
        excite = (self.alpha * self.r).reshape(len(self.r), -1).sum(axis=1)
        return (self.mu_sum + excite) + self.jump

    def intensities(self, s, w, hist, ids):
        self.r *= np.exp(self.neg_beta * w[:, None, None])
        return self.mu + (self.alpha * self.r).sum(axis=2)

    def accept(self, rows, m):
        self.r[rows, :, m] += 1.0

    def keep(self, mask):
        self.r = self.r[mask]


class _HalfSineLanes:
    """Half-sine state of the live sequences: where each one's window of events starts.

    The window is the events within pi of the current proposal; the history
    holds their times and types.  Each lane adds its window's terms oldest
    first, as ``_thin_half_sine`` does, through a cumulative sum, and padded
    columns add zero.
    """

    def __init__(self, spec, n):
        self.mu = spec.mu
        self.alpha_t = spec.alpha.T  # (source, target)
        self.col_sum = spec.alpha.sum(axis=0)
        self.sum_mu = float(spec.mu.sum())
        self.lo = np.zeros(n, dtype=np.intp)

    def bound(self, s, hist, ids):
        base = np.full((len(ids), 1), self.sum_mu)
        t, k, valid = hist.window(ids, self.lo)
        tau = s[:, None] - t
        peak = np.where(tau < math.pi / 2.0, 1.0, np.sin(tau))
        terms = np.where(valid, self.col_sum[k] * peak, 0.0)
        return np.cumsum(np.concatenate([base, terms], axis=1), axis=1)[:, -1]

    def intensities(self, s, w, hist, ids):
        base = np.broadcast_to(self.mu, (len(ids), 1, len(self.mu)))
        t, k, valid = hist.window(ids, self.lo)
        # the window moves to the events after s - pi (the loop's bisect_right)
        passed = valid & (t <= (s - math.pi)[:, None])
        self.lo = self.lo + passed.sum(axis=1)
        tau = s[:, None] - t
        live = valid & ~passed & (tau < math.pi)
        terms = np.where(live[..., None], self.alpha_t[k] * np.sin(tau)[..., None], 0.0)
        return np.cumsum(np.concatenate([base, terms], axis=1), axis=1)[:, -1]

    def accept(self, rows, m):
        pass

    def keep(self, mask):
        self.lo = self.lo[mask]


def _thin_lockstep(spec, horizon, rngs) -> list[EventSequence]:
    """Thin one sequence per generator, all of them in lockstep.

    Each step moves every live sequence on by one proposal.  Sequence ``i``
    draws from ``rngs[i]`` exactly what ``thin_simulate`` would draw from
    it, in the same order, and does the same arithmetic, so it returns the
    same sequence bit for bit.
    """
    n = len(rngs)
    lanes = (_ExponentialLanes if spec.kernel == EXPONENTIAL else _HalfSineLanes)(spec, n)
    hist = _History(n)
    ids = np.arange(n)
    gens = np.array(rngs, dtype=object)
    s = np.zeros(n)
    while len(ids):
        bound = lanes.bound(s, hist, ids)
        if not bound.max() < math.inf:  # also catches a NaN
            at = s[~(bound < math.inf)][0]
            raise UnboundedIntensity(f"thinning bound is not finite at s={at}")
        if not bound.all():  # a zero bound ends its sequence without a draw
            keep = bound > 0.0
            ids, gens, s, bound = ids[keep], gens[keep], s[keep], bound[keep]
            lanes.keep(keep)
            if not len(ids):
                break
        # the loop's rng.exponential(1.0 / bound) is that scale times this draw
        w = (1.0 / bound) * np.array([g.standard_exponential() for g in gens])
        s = s + w
        if s.max() > horizon:
            keep = s <= horizon
            ids, gens, s, bound, w = ids[keep], gens[keep], s[keep], bound[keep], w[keep]
            lanes.keep(keep)
            if not len(ids):
                break
        lam = lanes.intensities(s, w, hist, ids)
        threshold = np.array([g.random() for g in gens]) * bound
        cum = np.cumsum(lam, axis=1)
        rows = np.flatnonzero(threshold <= cum[:, -1])
        if len(rows):
            # the type is the loop's searchsorted(cum, threshold), side left
            m = (cum[rows] < threshold[rows, None]).sum(axis=1)
            lanes.accept(rows, m)
            hist.append(ids[rows], s[rows], m)
    return [
        EventSequence(
            times=hist.times[i, :c], types=hist.types[i, :c], horizon=horizon,
            num_types=spec.num_types,
        )
        for i, c in enumerate(hist.count)
    ]


def branching_radius(spec: HawkesSpec) -> float:
    """Spectral radius of the branching matrix: ``alpha / beta`` or ``2 alpha``.

    The process is stationary when it is below 1 and explosive otherwise.
    """
    if spec.kernel == EXPONENTIAL:
        branching = spec.alpha / spec.beta
    else:
        branching = 2.0 * spec.alpha  # the integral of sin over (0, pi)
    return float(np.abs(np.linalg.eigvals(branching)).max())


def _check_draw(spec, horizon, allow_explosive) -> float:
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not allow_explosive:
        radius = branching_radius(spec)
        if radius >= 1.0:
            raise UnboundedIntensity(
                f"the branching matrix has spectral radius {radius:.4g} >= 1, so the "
                "process is explosive; allow_explosive (--allow-explosive) draws it "
                f"anyway, up to {MAX_EVENTS} events per sequence"
            )
    return horizon


def thin_simulate(
    spec: HawkesSpec, horizon: float, rng, *, allow_explosive: bool = False
) -> EventSequence:
    """Draw one sequence on ``[0, horizon]`` by thinning a dominating rate.

    ``rng`` is a ``numpy.random.Generator`` or a seed for one.  Proposal
    gaps are exponential at the current dominating rate; a proposal at
    ``s`` is accepted with probability ``sum_k lambda_k(s-) / bound`` and
    its type is chosen from the cumulative intensities with the same
    uniform draw, which leaves the joint law unchanged.  An explosive spec
    raises ``UnboundedIntensity`` unless ``allow_explosive``; see the
    module docstring.
    """
    rng = np.random.default_rng(rng)
    return _thin_one(spec, _check_draw(spec, horizon, allow_explosive), rng)


def _thin_one(spec, horizon, rng) -> EventSequence:
    thin = _thin_exponential if spec.kernel == EXPONENTIAL else _thin_half_sine
    times, types = thin(spec, horizon, rng)
    return EventSequence(times=times, types=types, horizon=horizon, num_types=spec.num_types)


def simulate_dataset(
    spec: HawkesSpec,
    horizon: float,
    num_sequences: int,
    seed: int,
    *,
    allow_explosive: bool = False,
) -> Dataset:
    """Simulate ``num_sequences`` independent sequences into the train split.

    Each sequence gets its own generator derived from ``(seed, index)``, so
    the result is reproducible and independent of evaluation order.  The
    sequences are drawn in lockstep, bit-identical to ``thin_simulate`` on
    each generator.  An explosive spec raises ``UnboundedIntensity`` unless
    ``allow_explosive``.
    """
    horizon = _check_draw(spec, horizon, allow_explosive)
    rngs = [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for i in range(int(num_sequences))
    ]
    # one sequence draws faster through the loop than through one lane
    if len(rngs) == 1:
        seqs = [_thin_one(spec, horizon, rngs[0])]
    else:
        seqs = _thin_lockstep(spec, horizon, rngs)
    return Dataset(train=tuple(seqs), val=(), test=(), num_types=spec.num_types)
