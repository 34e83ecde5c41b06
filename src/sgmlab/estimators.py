"""Streaming estimators of theta* from an iterate sequence.

O(d) memory per trajectory: runs at 10^6 iterations x 10^3 replicates never
store trajectories. Accumulators broadcast over leading axes, so one
estimator can track a whole batch of replicates at once.
"""

from __future__ import annotations

import numpy as np


class EmptyEstimatorError(ValueError):
    """current() called before any observation."""


class Last:
    """Keeps only the most recent iterate."""

    def __init__(self):
        self._value = None
        self._last_j = -1

    def observe(self, theta_j, j: int):
        # No defensive copy: the engine's iterates are fresh arrays it never
        # writes to again, and copying (R, d) per step is measurable.
        _check_order(self, j)
        self._value = np.asarray(theta_j, dtype=float)
        self._last_j = j
        return self

    def current(self) -> np.ndarray:
        if self._value is None:
            raise EmptyEstimatorError("no iterates observed")
        return self._value


class SuffixAverage:
    """Arithmetic mean of theta_i for i >= start_index."""

    def __init__(self, start_index: int = 0):
        if start_index < 0:
            raise ValueError("start_index must be nonnegative")
        self.start_index = start_index
        self._accumulator = None
        self._count = 0
        self._last_j = -1

    def observe(self, theta_j, j: int):
        _check_order(self, j)
        self._last_j = j
        if j < self.start_index:
            return self
        theta_j = np.asarray(theta_j, dtype=float)
        if self._accumulator is None:
            self._accumulator = np.zeros_like(theta_j)
        self._accumulator += theta_j
        self._count += 1
        return self

    def current(self) -> np.ndarray:
        if self._count == 0:
            raise EmptyEstimatorError("no iterates at or past start_index")
        return self._accumulator / self._count


class WeightedAverage:
    """(j+1)-weighted average: sum (i+1) theta_i / sum (i+1)."""

    def __init__(self):
        self._accumulator = None
        self._weight_total = 0.0
        self._last_j = -1

    def observe(self, theta_j, j: int):
        _check_order(self, j)
        self._last_j = j
        w = float(j + 1)
        theta_j = np.asarray(theta_j, dtype=float)
        if self._accumulator is None:
            self._accumulator = np.zeros_like(theta_j)
        self._accumulator += w * theta_j
        self._weight_total += w
        return self

    def current(self) -> np.ndarray:
        if self._weight_total == 0.0:
            raise EmptyEstimatorError("no iterates observed")
        return self._accumulator / self._weight_total


RunningEstimator = Last | SuffixAverage | WeightedAverage

ESTIMATOR_NAMES = ("last", "suffix", "weighted")


def make_estimator(kind: str, suffix_start: int = 0) -> RunningEstimator:
    if kind == "last":
        return Last()
    if kind == "suffix":
        return SuffixAverage(start_index=suffix_start)
    if kind == "weighted":
        return WeightedAverage()
    raise ValueError(f"unknown estimator kind {kind!r} "
                     f"(expected one of {ESTIMATOR_NAMES})")


def _check_order(est, j: int):
    if j <= est._last_j:
        raise ValueError(
            f"iteration indices must be strictly increasing "
            f"(got {j} after {est._last_j})"
        )
