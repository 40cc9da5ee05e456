"""Objective and hand-derived gradients for maximum-likelihood training.

The objective for a batch is the summed discretized log-likelihood: event
log-intensities minus a trapezoidal compensator on each sequence's grid.
Gradients are exact for that discretized objective, so central finite
differences of ``objective_value`` must agree to leading order in eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._forward import SequenceCache, _compensator, _event_term, backward, forward
from .errors import NonFinite
from .model import (
    ModelConfig,
    ModelParams,
    flatten_params,
    param_shapes,
    unflatten_params,
)

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


def _objective_cached(params, cfg, caches, grads=None):
    """Summed log-likelihood (event term minus compensator) and event count of
    ``caches``, a list or a generator; with ``grads``, each sequence's gradient
    is added into it."""
    total, events, i = 0.0, 0, 0  # not enumerate, which holds a cache while the next is built
    for cache in caches:
        try:
            fwd = forward(params, cfg, cache, grads is not None)
            total += _event_term(fwd.pre_ev) - _compensator(cache, fwd.pre_gr)
        except NonFinite as err:
            raise NonFinite(f"sequence {i}: {err}") from err
        events += cache.length
        if grads is not None:
            for name, g in backward(params, cfg, cache, fwd).items():
                grads[name] += g
        i += 1
        # before a generator builds the next, so one cache is held at a time
        del cache, fwd
    if not np.isfinite(total):
        raise NonFinite(f"objective is {total}")
    return total, events


def _gradients_cached(params, cfg, caches):
    grads = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    total = _objective_cached(params, cfg, caches, grads)[0]
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFinite(f"gradient of {name} has non-finite entries")
    return GradientBundle(objective=total, **grads)


def objective_value(params: ModelParams, cfg: ModelConfig, batch) -> float:
    """Summed discretized log-likelihood of ``batch``; empty batches give 0."""
    return _objective_cached(params, cfg, (SequenceCache(cfg, s, g) for s, g in batch))[0]


def objective_and_gradients(params: ModelParams, cfg: ModelConfig, batch) -> GradientBundle:
    """Objective and its exact gradient, summed over ``(seq, grid)`` pairs.

    Summation order is fixed by batch, event, and grid order, so repeated
    calls are bit-identical.  Raises ``NonFinite`` if the objective
    or any gradient entry fails to be finite, naming the sequence when one
    is responsible.
    """
    return _gradients_cached(params, cfg, (SequenceCache(cfg, s, g) for s, g in batch))


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
    caches = [SequenceCache(cfg, s, g) for s, g in batch]

    def fn(vec):
        return _objective_cached(unflatten_params(vec, cfg), cfg, caches)[0]

    grads = unflatten_params(central_difference(fn, flatten_params(params, cfg), eps), cfg)
    return GradientBundle(objective=_objective_cached(params, cfg, caches)[0], **vars(grads))
