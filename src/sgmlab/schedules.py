"""Step-size and momentum-weight sequences, each returned whole over a
horizon as one float64 array, plus validity checks.

Indexing starts at j = 0 and polynomial formulas use (j + 1), so the first
polynomial step equals gamma.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

MOMENTUM_CLAMP = 1.0 - 1e-12
ECHO_LIMIT = 60


def shorten(text: str) -> str:
    """A value's text as a refusal line echoes it: whole up to ECHO_LIMIT
    characters, else its two ends around '...'. A value from outside the
    program may be of any length, and the line must stay one short line."""
    if len(text) <= ECHO_LIMIT:
        return text
    half = (ECHO_LIMIT - 3) // 2
    return f"{text[:half]}...{text[-half:]}"


def require_int(value, name: str) -> int:
    """value as an int; a bool, fraction or string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, "
                         f"got {shorten(repr(value))}")
    return int(value)


def require_float(value, name: str) -> float:
    """value as a float; a bool, a string or a too large int is refused."""
    if (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating))):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{name} must be a number, got {shorten(repr(value))}")


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

    def steps(self, n: int) -> np.ndarray:
        return self.gamma / (np.arange(n) + 1.0) ** self.alpha


@dataclass(frozen=True)
class ConstantStep:
    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("constant step must be positive")

    def steps(self, n: int) -> np.ndarray:
        return np.full(n, self.a, dtype=float)


def require_stage_step(a, m: float | None = None) -> float:
    """a as a stage's constant step: a positive number and, given the
    problem's modulus m, one with 0 < 1 - a m < 1 in floats, so below 1/m."""
    a = require_float(a, "stage step")
    if m is not None and not 0 < 1 - a * m < 1:
        raise ValueError(f"stage step a = {a} outside (0, 1/m): "
                         f"1 - a*m = {1 - a * m} is not in (0, 1)")
    if not a > 0:
        raise ValueError(f"stage step a = {a} must be positive")
    return a


def require_stages(stages, m: float | None = None) -> tuple:
    """The stage list as (a_k, n_k) pairs of float and int: at least one,
    each a_k a stage step below the one before, each n_k an integer >= 1."""
    if not stages:
        raise ValueError("need at least one stage")
    pairs = []
    for a, n in stages:
        a, n = require_stage_step(a, m), require_int(n, "stage length")
        if pairs and not a < pairs[-1][0]:
            raise ValueError("stage steps must be strictly decreasing")
        if n < 1:
            raise ValueError("stage length must be >= 1")
        pairs.append((a, n))
    return tuple(pairs)


@dataclass(frozen=True)
class StagedStep:
    """Piecewise-constant step: a_k for n_k iterations, strictly decreasing."""

    stages: tuple

    def __post_init__(self):
        object.__setattr__(self, "stages", require_stages(self.stages))

    def steps(self, n: int) -> np.ndarray:
        t, start = np.empty(n), 0
        for a, length in self.stages:
            t[start:start + length] = a     # the slice stops at n
            start += length
        if start < n:
            raise ValueError(f"index beyond final stage (total length {start})")
        return t


StepSchedule = PolynomialStep | ConstantStep | StagedStep


@dataclass(frozen=True)
class ZeroMomentum:
    def weights(self, t: np.ndarray) -> np.ndarray:
        return np.zeros(len(t))


@dataclass(frozen=True)
class ConstantMomentum:
    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")

    def weights(self, t: np.ndarray) -> np.ndarray:
        return np.full(len(t), self.eta, dtype=float)


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

    def weights(self, t: np.ndarray) -> np.ndarray:
        return self.c / (np.arange(len(t)) + 1.0) ** self.beta


@dataclass(frozen=True)
class ProportionalToStep:
    """eta_j = k * t_j, clamped below 1; clamping is surfaced by validate()."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")

    def weights(self, t: np.ndarray) -> np.ndarray:
        return np.minimum(self.k * t, MOMENTUM_CLAMP)


MomentumSchedule = ZeroMomentum | ConstantMomentum | PolynomialMomentum | ProportionalToStep


def step_violation(t: np.ndarray, m: float) -> str | None:
    """The step rule, every t_j*m in (0, 1]: None, or where t breaks it."""
    tm = t * m
    bad = np.flatnonzero((tm <= 0) | (tm > 1))
    return (f"t_j*m = {tm[bad[0]]:.6g} not in (0, 1] at j={bad[0]} "
            f"({bad.size} indices over horizon)") if bad.size else None


def momentum_violation(eta: np.ndarray) -> str | None:
    """The momentum rule, every eta_j < 1: None, or where eta breaks it."""
    bad = np.flatnonzero(eta >= 1)
    return (f"eta_j >= 1 at j={bad[0]} ({bad.size} indices)" if bad.size
            else None)


@dataclass(eq=False)     # an index array has no truth value to compare by
class ValidityReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    clamped_indices: np.ndarray = field(default_factory=lambda: np.empty(0, int))

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        if self.clamped_indices.size:
            lines.append(f"warning: momentum clamped at indices "
                         f"{self.clamped_indices[:10].tolist()}"
                         + ("..." if self.clamped_indices.size > 10 else ""))
        return "\n".join(lines) if lines else "ok"


def validate(step: StepSchedule, momentum: MomentumSchedule, m: float,
             horizon: int) -> ValidityReport:
    """Check the step/momentum pair against the convergence-theory conditions
    over j < horizon. Returns a report; a staged step that ends before the
    horizon raises ValueError, since no forced run can use it."""
    report = ValidityReport()
    t = step.steps(horizon)
    eta = momentum.weights(t)
    for violation in (step_violation(t, m), momentum_violation(eta)):
        if violation is not None:
            report.violations.append(violation)

    if isinstance(momentum, ProportionalToStep):
        report.clamped_indices = np.flatnonzero(momentum.k * t > MOMENTUM_CLAMP)

    if isinstance(step, PolynomialStep) and step.alpha <= 0.5:
        report.warnings.append(
            f"alpha = {step.alpha} <= 1/2: sum of t_j^2 divergent "
            "(diminishing-to-zero hypotheses not met)"
        )

    if np.any(np.diff(t) > 0):
        report.violations.append("step sizes are not non-increasing")
    if np.any(np.diff(eta) > 1e-15):
        report.violations.append("momentum weights are not non-increasing")
    return report
