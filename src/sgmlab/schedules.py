"""Step-size and momentum-weight sequences as pure functions of the iteration
index, plus validity checks and prefix-sum diagnostics.

Indexing starts at j = 0 and polynomial formulas use (j + 1), so the first
polynomial step equals gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MOMENTUM_CLAMP = 1.0 - 1e-12


class ScheduleExhaustedError(ValueError):
    """Raised when a staged schedule is indexed past its final stage."""


def require_int(value, name: str) -> int:
    """value as an int; a bool, fraction or string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class PolynomialStep:
    """t_j = gamma / (j + 1)^alpha."""

    gamma: float
    alpha: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")

    def step_size(self, j):
        return self.gamma / (np.asarray(j, dtype=float) + 1.0) ** self.alpha


@dataclass(frozen=True)
class ConstantStep:
    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("constant step must be positive")

    def step_size(self, j):
        return np.full_like(np.asarray(j, dtype=float), self.a)


@dataclass(frozen=True)
class StagedStep:
    """Piecewise-constant step: a_k for n_k iterations, strictly decreasing."""

    stages: tuple
    _ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stages = tuple((float(a), require_int(n, "stage length"))
                       for a, n in self.stages)
        if not stages:
            raise ValueError("staged schedule needs at least one stage")
        steps = [a for a, _ in stages]
        if any(a <= 0 for a in steps) or any(n < 1 for _, n in stages):
            raise ValueError("stage steps must be positive, lengths >= 1")
        if any(b >= a for a, b in zip(steps, steps[1:])):
            raise ValueError("stage step sizes must be strictly decreasing")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "_ends",
                           np.cumsum([n for _, n in stages]))

    def step_size(self, j):
        j_arr = np.asarray(j)
        if np.any(j_arr >= self._ends[-1]) or np.any(j_arr < 0):
            raise ScheduleExhaustedError(
                f"index beyond final stage (total length {int(self._ends[-1])})"
            )
        stage_idx = np.searchsorted(self._ends, j_arr, side="right")
        values = np.asarray([a for a, _ in self.stages])[stage_idx]
        return values if np.ndim(j) else float(values)


StepSchedule = PolynomialStep | ConstantStep | StagedStep


@dataclass(frozen=True)
class ZeroMomentum:
    def weight(self, j, t_j):
        return np.zeros_like(np.asarray(j, dtype=float))


@dataclass(frozen=True)
class ConstantMomentum:
    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")

    def weight(self, j, t_j):
        return np.full_like(np.asarray(j, dtype=float), self.eta)


@dataclass(frozen=True)
class PolynomialMomentum:
    """eta_j = c / (j + 1)^beta; beta > 1 gives a summable weight sequence."""

    c: float
    beta: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def weight(self, j, t_j):
        return self.c / (np.asarray(j, dtype=float) + 1.0) ** self.beta


@dataclass(frozen=True)
class ProportionalToStep:
    """eta_j = k * t_j, clamped below 1; clamping is surfaced by validate()."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")

    def weight(self, j, t_j):
        return np.minimum(self.k * np.asarray(t_j, dtype=float), MOMENTUM_CLAMP)


MomentumSchedule = ZeroMomentum | ConstantMomentum | PolynomialMomentum | ProportionalToStep


@dataclass
class ValidityReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    clamped_indices: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        if self.clamped_indices:
            lines.append(f"warning: momentum clamped at indices "
                         f"{self.clamped_indices[:10]}"
                         + ("..." if len(self.clamped_indices) > 10 else ""))
        return "\n".join(lines) if lines else "ok"


def validate(step: StepSchedule, momentum: MomentumSchedule, m: float,
             horizon: int) -> ValidityReport:
    """Check the step/momentum pair against the convergence-theory conditions
    over j < horizon. Returns a report; never raises."""
    report = ValidityReport()
    j = np.arange(horizon)
    try:
        t = np.asarray(step.step_size(j), dtype=float)
    except ScheduleExhaustedError:
        report.violations.append(
            f"staged schedule shorter than horizon {horizon}")
        total = int(step._ends[-1])
        j = np.arange(total)
        t = np.asarray(step.step_size(j), dtype=float)

    tm = t * m
    bad = np.flatnonzero((tm <= 0) | (tm > 1))
    if bad.size:
        j0 = int(bad[0])
        report.violations.append(
            f"t_j*m = {tm[j0]:.6g} not in (0, 1] at j={j0} "
            f"({bad.size} indices over horizon)"
        )

    eta = np.asarray(momentum.weight(j, t), dtype=float)
    too_big = np.flatnonzero(eta >= 1)
    if too_big.size:
        report.violations.append(
            f"eta_j >= 1 at j={int(too_big[0])} ({too_big.size} indices)")

    if isinstance(momentum, ProportionalToStep):
        raw = momentum.k * t
        report.clamped_indices = [int(i) for i in np.flatnonzero(raw > MOMENTUM_CLAMP)]

    if isinstance(step, PolynomialStep) and step.alpha <= 0.5:
        report.warnings.append(
            f"alpha = {step.alpha} <= 1/2: sum of t_j^2 divergent "
            "(diminishing-to-zero hypotheses not met)"
        )

    if np.any(np.diff(t) > 0):
        report.violations.append("step sizes are not non-increasing")
    if isinstance(momentum, (PolynomialMomentum, ProportionalToStep)) and \
            np.any(np.diff(eta) > 1e-15):
        report.violations.append("momentum weights are not non-increasing")
    return report


def partial_sums(step: StepSchedule, momentum: MomentumSchedule, N: int) -> dict:
    """Prefix sums over j = 0..N-1 of t_j, t_j^2, eta_j, eta_j^2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    j = np.arange(N)
    t = np.asarray(step.step_size(j), dtype=float)
    eta = np.asarray(momentum.weight(j, t), dtype=float)
    return {
        "sum_t": float(np.sum(t)),
        "sum_t2": float(np.sum(t * t)),
        "sum_eta": float(np.sum(eta)),
        "sum_eta2": float(np.sum(eta * eta)),
    }
