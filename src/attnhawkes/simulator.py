"""Ground-truth multivariate Hawkes simulation by Ogata thinning.

Kernel conventions: ``alpha[i, j]`` scales the influence of a source event
of type ``j`` on the intensity of target type ``i``.  Two parametric
families are supported:

* exponential decay, ``phi_ij(tau) = alpha_ij * exp(-beta_ij * tau)``,
* half-sine, ``phi_ij(tau) = alpha_ij * sin(tau)`` on ``0 < tau < pi``.
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
        out = np.where(tau > 0.0, a * np.exp(-np.minimum(b * tau, 700.0)), 0.0)
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


def _thin_exponential(spec, horizon, rng):
    # R[i, j] holds the decayed count sum_e exp(-beta_ij (s - t_e)) over past
    # events of type j, so lambda = mu + (alpha * R) @ 1.
    k = spec.num_types
    times: list[float] = []
    types: list[int] = []
    r = np.zeros((k, k))
    jump = float(spec.alpha.max(axis=1).sum())
    s = 0.0
    while True:
        lam_bar = float(spec.mu.sum() + (spec.alpha * r).sum()) + jump
        if not math.isfinite(lam_bar):
            raise UnboundedIntensity(f"thinning bound is not finite at s={s}")
        if lam_bar <= 0.0:
            break
        w = rng.exponential(1.0 / lam_bar)
        s = s + w
        if s > horizon:
            break
        r = r * np.exp(-spec.beta * w)
        lam = spec.mu + (spec.alpha * r).sum(axis=1)
        d = rng.uniform()
        cum = np.cumsum(lam)
        if d * lam_bar <= cum[-1]:
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
        d = rng.uniform()
        cum = np.cumsum(lam)
        if d * lam_bar <= cum[-1]:
            m = int(np.searchsorted(cum, d * lam_bar))
            times.append(s)
            types.append(m)
    return times, types


def thin_simulate(spec: HawkesSpec, horizon: float, rng) -> EventSequence:
    """Draw one sequence on ``[0, horizon]`` by thinning a dominating rate.

    ``rng`` is a ``numpy.random.Generator`` or a seed for one.  Proposal
    gaps are exponential at the current dominating rate; a proposal at
    ``s`` is accepted with probability ``sum_k lambda_k(s-) / bound`` and
    its type is chosen from the cumulative intensities with the same
    uniform draw, which leaves the joint law unchanged.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    horizon = float(horizon)
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if spec.kernel == EXPONENTIAL:
        times, types = _thin_exponential(spec, horizon, rng)
    else:
        times, types = _thin_half_sine(spec, horizon, rng)
    return EventSequence(
        times=times, types=types, horizon=horizon, num_types=spec.num_types
    )


def simulate_dataset(spec: HawkesSpec, horizon: float, num_sequences: int, seed: int) -> Dataset:
    """Simulate ``num_sequences`` independent sequences into the train split.

    Each sequence gets its own generator derived from ``(seed, index)``, so
    the result is reproducible and independent of evaluation order.
    """
    seqs = []
    for i in range(int(num_sequences)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        seqs.append(thin_simulate(spec, horizon, rng))
    return Dataset(train=tuple(seqs), val=(), test=(), num_types=spec.num_types)
