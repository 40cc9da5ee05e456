"""Event sequences, datasets, splitting, and integration grids.

Conventions used throughout the package:

* times are float64 and live in the window ``[0, horizon]``,
* event types are integer ids in ``[0, num_types)``,
* a sequence may be empty, and sequences are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFractions,
    DuplicateTimestamp,
    EventBeyondHorizon,
    NonMonotoneTimes,
    TypeOutOfRange,
)

__all__ = [
    "EventSequence",
    "Dataset",
    "IntegrationGrid",
    "SPLIT_NAMES",
    "validate_sequence",
    "make_grid",
    "split_dataset",
]

SPLIT_NAMES = ("train", "val", "test")


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class EventSequence:
    """A finite realization of a marked point process on ``[0, horizon]``."""

    times: np.ndarray  # (L,) float64
    types: np.ndarray  # (L,) integer ids
    horizon: float
    num_types: int

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times, np.float64))
        object.__setattr__(self, "types", _frozen_array(self.types, np.int64))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "num_types", int(self.num_types))
        if len(self.times) != len(self.types):
            raise ValueError("times and types must have equal length")

    @classmethod
    def from_events(cls, events, horizon, num_types):
        """Build from an iterable of ``(t, k)`` pairs."""
        pairs = list(events)
        times = [t for t, _ in pairs]
        types = [k for _, k in pairs]
        return cls(times=times, types=types, horizon=horizon, num_types=num_types)

    @property
    def events(self) -> list[tuple[float, int]]:
        return list(zip(self.times.tolist(), self.types.tolist()))

    def __len__(self) -> int:
        return self.times.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSequence):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.num_types == other.num_types
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.types, other.types)
        )


def validate_sequence(seq: EventSequence) -> None:
    """Raise a ``SequenceError`` naming the first offending index, if any.

    Checks, in priority order at each index: strict time increase, no
    duplicate timestamps, type id in range, and containment in ``[0, T]``.
    """
    if not math.isfinite(seq.horizon) or seq.horizon < 0:
        raise ValueError(f"horizon must be finite and nonnegative, got {seq.horizon}")
    if seq.num_types < 1:
        raise ValueError(f"num_types must be at least 1, got {seq.num_types}")
    t, k = seq.times, seq.types
    if len(t) == 0:
        return
    bad_order = np.zeros(len(t), dtype=bool)
    bad_order[1:] = t[1:] < t[:-1]
    dup = np.zeros(len(t), dtype=bool)
    dup[1:] = t[1:] == t[:-1]
    bad_type = (k < 0) | (k >= seq.num_types)
    outside = ~np.isfinite(t) | (t < 0.0) | (t > seq.horizon)
    any_bad = bad_order | dup | bad_type | outside
    if not any_bad.any():
        return
    i = int(np.argmax(any_bad))
    if bad_order[i]:
        raise NonMonotoneTimes(
            f"event {i}: time {t[i]} is earlier than its predecessor {t[i - 1]}", i
        )
    if dup[i]:
        raise DuplicateTimestamp(f"event {i}: duplicate timestamp {t[i]}", i)
    if bad_type[i]:
        raise TypeOutOfRange(
            f"event {i}: type {k[i]} outside [0, {seq.num_types})", i
        )
    raise EventBeyondHorizon(
        f"event {i}: time {t[i]} outside the window [0, {seq.horizon}]", i
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sequences partitioned into train / val / test splits with a shared type space."""

    train: tuple[EventSequence, ...]
    val: tuple[EventSequence, ...]
    test: tuple[EventSequence, ...]
    num_types: int

    def __post_init__(self):
        object.__setattr__(self, "train", tuple(self.train))
        object.__setattr__(self, "val", tuple(self.val))
        object.__setattr__(self, "test", tuple(self.test))
        object.__setattr__(self, "num_types", int(self.num_types))
        for seq in self.all_sequences():
            if seq.num_types != self.num_types:
                raise ValueError(
                    f"sequence has num_types={seq.num_types}, dataset expects {self.num_types}"
                )

    def split(self, name: str) -> tuple[EventSequence, ...]:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_sequences(self) -> tuple[EventSequence, ...]:
        return self.train + self.val + self.test

    def __len__(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_types == other.num_types
            and self.train == other.train
            and self.val == other.val
            and self.test == other.test
        )


def split_dataset(ds: Dataset, fractions, seed: int) -> Dataset:
    """Reshuffle all sequences and repartition them by ``fractions``.

    ``fractions`` is a ``(train, val, test)`` triple of positive reals that
    sum to one.  Sizes are floors of ``n * fraction`` with the remainder
    going to train.  The shuffle is a fixed permutation under ``seed``.
    """
    fracs = tuple(float(f) for f in fractions)
    if len(fracs) != 3:
        raise BadFractions(f"expected 3 fractions, got {len(fracs)}")
    if min(fracs) <= 0.0:
        raise BadFractions(f"fractions must all be positive, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise BadFractions(f"fractions must sum to 1, got sum {sum(fracs)}")
    seqs = ds.all_sequences()
    n = len(seqs)
    perm = np.random.default_rng(seed).permutation(n)
    # floor with a tiny nudge so exact products are not lost to representation
    n_val = int(math.floor(n * fracs[1] + 1e-9))
    n_test = int(math.floor(n * fracs[2] + 1e-9))
    n_train = n - n_val - n_test
    order = [seqs[i] for i in perm]
    return Dataset(
        train=tuple(order[:n_train]),
        val=tuple(order[n_train : n_train + n_val]),
        test=tuple(order[n_train + n_val :]),
        num_types=ds.num_types,
    )


@dataclass(frozen=True, eq=False)
class IntegrationGrid:
    """Quadrature nodes on ``[0, T]`` that include every event time of the owner."""

    times: np.ndarray  # (N,) float64, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times, np.float64))

    def __len__(self) -> int:
        return self.times.shape[0]


def make_grid(seq: EventSequence, subdivisions: int) -> IntegrationGrid:
    """Event-anchored grid: ``{0, T}``, all event times, and ``G - 1``
    uniformly spaced points inside each consecutive pair of anchors."""
    g = int(subdivisions)
    if g < 1:
        raise ValueError(f"subdivisions must be at least 1, got {g}")
    anchors = np.unique(np.concatenate(([0.0], seq.times, [seq.horizon])))
    lo, hi = anchors[:-1, None], anchors[1:, None]
    steps = np.arange(1, g, dtype=np.float64)[None, :] / g
    interior = (lo + (hi - lo) * steps).ravel()
    times = np.unique(np.concatenate((anchors, interior)))
    return IntegrationGrid(times=times)
