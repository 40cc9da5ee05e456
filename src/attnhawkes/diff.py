"""Objective and hand-derived gradients for maximum-likelihood training.

The objective for a batch is the summed discretized log-likelihood: event
log-intensities minus a trapezoidal compensator on each sequence's grid.
Gradients are exact for that discretized objective, so central finite
differences of ``objective_value`` must agree to leading order in eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._forward import SequenceCache, backward, forward
from .errors import NonFinite
from .model import (
    ModelConfig,
    ModelParams,
    flatten_params,
    param_shapes,
    unflatten_params,
)
from .numerics import dlog_softplus, log_softplus, sigmoid, softplus

__all__ = [
    "GradientBundle",
    "objective_value",
    "objective_and_gradients",
    "finite_diff_gradient",
    "central_difference",
]


@dataclass(frozen=True, eq=False, kw_only=True)
class GradientBundle(ModelParams):
    """Gradient arrays shaped as ``ModelParams``, plus the objective value."""

    objective: float

    def as_vector(self, cfg: ModelConfig) -> np.ndarray:
        return flatten_params(self, cfg)


def _zero_grads(cfg):
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}


def _build_caches(cfg, batch):
    return [SequenceCache(cfg, seq, grid) for seq, grid in batch]


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


def _cotangent(cache):
    """The log-likelihood's cotangent of the node pre-activations, by row block:
    ``-quad * sigmoid(pre)``, plus ``dlog_softplus`` at the block's event rows."""

    def cotangent(lo, hi, pre):
        d = -(cache.quad[lo:hi, None] * sigmoid(pre))
        # ev_node is nondecreasing, so the block's events are one slice
        a, b = np.searchsorted(cache.ev_node, (lo, hi))
        rows, types = cache.ev_node[a:b] - lo, cache.types[a:b]
        np.add.at(d, (rows, types), dlog_softplus(pre[rows, types]))
        return d

    return cotangent


def _sequence_terms(params, cfg, cache, where="", cotangent=None):
    """Forward pass and log-likelihood (event term minus compensator) of one sequence."""
    try:
        fwd = forward(params, cfg, cache, cotangent)
        return fwd, _event_term(fwd.pre_ev) - _compensator(cache, fwd.pre_gr)
    except NonFinite as err:
        raise NonFinite(f"{where}{err}") from err


def _objective_cached(params, cfg, caches):
    total = 0.0
    for i, cache in enumerate(caches):
        _, value = _sequence_terms(params, cfg, cache, f"sequence {i}: ")
        total += value
    if not np.isfinite(total):
        raise NonFinite(f"objective is {total}")
    return total


def _gradients_cached(params, cfg, caches):
    total = 0.0
    grads = _zero_grads(cfg)
    for i, cache in enumerate(caches):
        fwd, value = _sequence_terms(params, cfg, cache, f"sequence {i}: ", _cotangent(cache))
        total += value
        for name, g in backward(params, cfg, cache, fwd).items():
            grads[name] += g
    if not np.isfinite(total):
        raise NonFinite(f"objective is {total}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFinite(f"gradient of {name} has non-finite entries")
    return GradientBundle(objective=total, **grads)


def objective_value(params: ModelParams, cfg: ModelConfig, batch) -> float:
    """Summed discretized log-likelihood of ``batch``; empty batches give 0."""
    return _objective_cached(params, cfg, _build_caches(cfg, batch))


def objective_and_gradients(params: ModelParams, cfg: ModelConfig, batch) -> GradientBundle:
    """Objective and its exact gradient, summed over ``(seq, grid)`` pairs.

    Summation order is fixed by batch, event, and grid order, so repeated
    calls are bit-identical.  Raises ``NonFinite`` if the objective
    or any gradient entry fails to be finite, naming the sequence when one
    is responsible.
    """
    return _gradients_cached(params, cfg, _build_caches(cfg, batch))


def central_difference(fn, vec: np.ndarray, eps: float) -> np.ndarray:
    """Coordinate-wise central differences of a scalar function of a vector."""
    vec = np.asarray(vec, dtype=np.float64)
    grad = np.empty_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += eps
        down = vec.copy()
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2.0 * eps)
    return grad


def finite_diff_gradient(
    params: ModelParams, cfg: ModelConfig, batch, eps: float = 1e-5
) -> GradientBundle:
    """Central-difference gradient of the same discretized objective."""
    caches = _build_caches(cfg, batch)

    def fn(vec):
        return _objective_cached(unflatten_params(vec, cfg), cfg, caches)

    grads = unflatten_params(central_difference(fn, flatten_params(params, cfg), eps), cfg)
    return GradientBundle(objective=_objective_cached(params, cfg, caches), **vars(grads))
