"""Closed-form mean-squared-error bounds: per-step recursions for SG and
heavy-ball SGM, the constant-step plateau, the stage burn-in index, and the
rate envelopes the empirical curves are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import (MomentumSchedule, StepSchedule, momentum_violation,
                        require_stage_step, shorten, step_violation)


@dataclass(frozen=True)
class BoundSequence:
    """A bound trajectory values[j] >= E||theta_j - theta*||^2."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or np.any(~np.isfinite(values)) or np.any(values < 0):
            raise ValueError("bound values must be finite and nonnegative")
        object.__setattr__(self, "values", values)

    def at(self, j) -> np.ndarray:
        return self.values[np.asarray(j)]


@dataclass(frozen=True)
class RateEnvelope:
    """constant * shape(N) with shape one of 1/(N+1), log(N+1)/(N+1),
    1/((1-beta)(N+1)^beta). A constant of None means 'calibrate from data'."""

    case: str                      # "inv_n" | "log_n_over_n" | "inv_n_beta"
    constant: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.case not in ("inv_n", "log_n_over_n", "inv_n_beta"):
            raise ValueError("unknown envelope case "
                             f"{shorten(repr(self.case))}")
        if self.case == "inv_n_beta":
            if self.beta is None or not 0 < self.beta < 1:
                raise ValueError("inv_n_beta requires beta in (0, 1)")
        if self.constant is not None and not self.constant > 0:
            raise ValueError("envelope constant must be positive")

    def shape(self, N):
        """The envelope with constant = 1."""
        N = np.asarray(N, dtype=float)
        if self.case == "inv_n":
            return 1.0 / (N + 1.0)
        if self.case == "log_n_over_n":
            return np.log(N + 1.0) / (N + 1.0)
        return 1.0 / ((1.0 - self.beta) * (N + 1.0) ** self.beta)

    def at(self, N):
        """constant * shape(N); N >= 1 (accepted as real for testing)."""
        if self.constant is None:
            raise ValueError("envelope constant is uncalibrated")
        if np.any(np.asarray(N) < 1):
            raise ValueError("N must be >= 1")
        return self.constant * self.shape(N)

    def calibrated(self, constant: float) -> "RateEnvelope":
        return RateEnvelope(case=self.case, constant=constant, beta=self.beta)


# The recursions run on Python floats, the same IEEE operations in the same
# order as on numpy scalars at a fraction of the cost per operation, one chunk
# of steps at a time: lists of a whole horizon would raise the peak memory of
# a run by more than its arrays take.
FLOAT_CHUNK = 512


def _steps(E0: float, step: StepSchedule, m: float, M: float, sigma2: float,
           N: int, L: float | None = None) -> np.ndarray:
    """The steps t_0..t_{N-1}, after the argument checks of both recursions;
    L is the heavy-ball recursion's only."""
    if E0 < 0:
        raise ValueError("E0 must be nonnegative")
    for name, value in (("M", M), ("sigma2", sigma2)):
        if not value >= 0:
            raise ValueError(f"{name} = {value} must be nonnegative")
    if L is not None and not L > 0:
        raise ValueError(f"L = {L} must be positive")
    if N < 0:
        raise ValueError(f"N must be >= 0, got {shorten(str(N))}")
    t = step.steps(N)
    violation = step_violation(t, m)
    if violation is not None:
        raise ValueError(violation)
    return t


def sg_recursion_bound(E0: float, step: StepSchedule, m: float, M: float,
                       sigma2: float, N: int) -> BoundSequence:
    """Iterate E_{j+1} = (1 - t_j m) E_j + t_j^2 (M + sigma^2) exactly."""
    t = _steps(E0, step, m, M, sigma2, N)
    m, noise = float(m), float(M + sigma2)
    values = np.empty(N + 1)
    values[0] = e = float(E0)
    for lo in range(0, N, FLOAT_CHUNK):
        chunk = []
        for t_j in t[lo:lo + FLOAT_CHUNK].tolist():
            e = (1.0 - t_j * m) * e + t_j * t_j * noise
            chunk.append(e)
        values[lo + 1:lo + 1 + len(chunk)] = chunk
    return BoundSequence(values=values)


def sgm_recursion_bound(E0: float, step: StepSchedule, momentum: MomentumSchedule,
                        m: float, M: float, sigma2: float, L: float,
                        N: int) -> BoundSequence:
    """SG recursion plus the worst-case momentum terms.

    Cross terms are bounded via Cauchy-Schwarz on the compact domain:
    2 eta_j E{(theta_j - theta* - t_j s_j)^T (theta_j - theta_{j-1})}
      <= 2 eta_j (L + t_j sqrt(M)) L, and eta_j^2 E||theta_j - theta_{j-1}||^2
      <= eta_j^2 L^2. Every value, E0 included, is clipped at L^2, which
    always holds on a domain of diameter L.
    """
    t = _steps(E0, step, m, M, sigma2, N, L)
    eta = momentum.weights(t)
    violation = momentum_violation(eta)
    if violation is not None:
        raise ValueError(violation)
    m, L, sqrt_M = float(m), float(L), math.sqrt(M)
    noise = float(M + sigma2)
    L2 = L * L
    values = np.empty(N + 1)
    values[0] = e = float(min(E0, L2))
    for lo in range(0, N, FLOAT_CHUNK):
        chunk = []
        for t_j, eta_j in zip(t[lo:lo + FLOAT_CHUNK].tolist(),
                              eta[lo:lo + FLOAT_CHUNK].tolist()):
            e = ((1.0 - t_j * m) * e + t_j * t_j * noise
                 + 2.0 * eta_j * (L + t_j * sqrt_M) * L + eta_j * eta_j * L2)
            e = min(e, L2)
            chunk.append(e)
        values[lo + 1:lo + 1 + len(chunk)] = chunk
    return BoundSequence(values=values)


def constant_step_plateau(a: float, m: float, M: float, sigma2: float) -> float:
    """The constant-step MSE ceiling 2 (M + sigma^2) a / m, valid for
    0 < a < 1/m once the burn-in index is passed."""
    require_stage_step(a, m)
    return 2.0 * (M + sigma2) * a / m


def stage_burn_in(a: float, m: float, E1: float, M: float, sigma2: float) -> int:
    """Smallest N with (1 - a m)^(N-1) E1 <= (M + sigma2) a / m, half the
    plateau, in closed form. At a tie within rounding it may be one off a
    product taken step by step, which rounds as well."""
    require_stage_step(a, m)
    if not 0 < E1 < math.inf:
        raise ValueError(f"E1 = {E1} must be positive and finite")
    if not M + sigma2 > 0:
        raise ValueError(f"M + sigma2 = {M + sigma2} must be positive")
    threshold = (M + sigma2) * a / m
    if E1 <= threshold:
        return 1
    # A difference of logs: a huge E1 would underflow threshold / E1 to 0.
    return 1 + math.ceil((math.log(threshold) - math.log(E1))
                         / math.log1p(-a * m))
