"""Streaming estimators of theta* from an iterate sequence.

O(d) memory per trajectory: runs at 10^6 iterations x 10^3 replicates never
store trajectories. Accumulators broadcast over leading axes, so one
estimator can track a whole batch of replicates at once.

The estimators only average. ExperimentConfig is what makes the averages
defined: the engine observes j = 0, 1, 2, ... on a fresh estimator, and
every checkpoint lies at or after 1, and for the suffix average at or after
a nonnegative start_index, so current() always has a term to average.
"""

from __future__ import annotations

import numpy as np


class Last:
    """Keeps only the most recent iterate."""

    def observe(self, theta_j, j: int):
        # No defensive copy: the engine's iterates are fresh arrays it never
        # writes to again, and copying (R, d) per step is measurable.
        self._value = np.asarray(theta_j, dtype=float)
        return self

    def current(self) -> np.ndarray:
        return self._value


class SuffixAverage:
    """Arithmetic mean of theta_i for i >= start_index."""

    def __init__(self, start_index: int = 0):
        self.start_index = start_index
        self._accumulator = 0.0
        self._count = 0

    def observe(self, theta_j, j: int):
        if j < self.start_index:
            return self
        # From 0.0, the first += makes a new array: no iterate is aliased.
        self._accumulator += np.asarray(theta_j, dtype=float)
        self._count += 1
        return self

    def current(self) -> np.ndarray:
        return self._accumulator / self._count


class WeightedAverage:
    """(j+1)-weighted average: sum (i+1) theta_i / sum (i+1)."""

    def __init__(self):
        self._accumulator = 0.0
        self._weight_total = 0.0

    def observe(self, theta_j, j: int):
        w = float(j + 1)
        self._accumulator += w * np.asarray(theta_j, dtype=float)
        self._weight_total += w
        return self

    def current(self) -> np.ndarray:
        return self._accumulator / self._weight_total


RunningEstimator = Last | SuffixAverage | WeightedAverage

ESTIMATORS = {"last": Last, "suffix": SuffixAverage,
              "weighted": WeightedAverage}


def make_estimator(kind: str, suffix_start: int = 0) -> RunningEstimator:
    if kind == "suffix":
        return SuffixAverage(start_index=suffix_start)
    return ESTIMATORS[kind]()
