"""Closed-form mean-squared-error bounds: per-step recursions for SG and
heavy-ball SGM, the exponential decay bound, the constant-step plateau, the
stage burn-in index, and the rate envelopes the empirical curves are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import StepSchedule, MomentumSchedule


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
            raise ValueError(f"unknown envelope case {self.case!r}")
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


def _steps(step: StepSchedule, N: int) -> np.ndarray:
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    return np.asarray(step.step_size(np.arange(N)), dtype=float)


def _check_tm(t: np.ndarray, m: float):
    tm = t * m
    if np.any(tm <= 0) or np.any(tm > 1):
        j = int(np.flatnonzero((tm <= 0) | (tm > 1))[0])
        raise ValueError(f"t_j*m = {tm[j]:.6g} not in (0, 1] at j={j}")


def sg_recursion_bound(E0: float, step: StepSchedule, m: float, M: float,
                       sigma2: float, N: int) -> BoundSequence:
    """Iterate E_{j+1} = (1 - t_j m) E_j + t_j^2 (M + sigma^2) exactly."""
    if E0 < 0:
        raise ValueError("E0 must be nonnegative")
    t = _steps(step, N)
    _check_tm(t, m)
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
                        m: float, M: float, sigma2: float, L: float, N: int,
                        cap: bool = True) -> BoundSequence:
    """SG recursion plus the worst-case momentum terms.

    Cross terms are bounded via Cauchy-Schwarz on the compact domain:
    2 eta_j E{(theta_j - theta* - t_j s_j)^T (theta_j - theta_{j-1})}
      <= 2 eta_j (L + t_j sqrt(M)) L, and eta_j^2 E||theta_j - theta_{j-1}||^2
      <= eta_j^2 L^2. With cap=True every value is clipped at L^2, which
    always holds on a domain of diameter L.
    """
    if E0 < 0:
        raise ValueError("E0 must be nonnegative")
    t = _steps(step, N)
    _check_tm(t, m)
    eta = np.asarray(momentum.weight(np.arange(N), t), dtype=float)
    if np.any(eta >= 1):
        raise ValueError("momentum weights must satisfy eta_j < 1")
    if not M >= 0:
        raise ValueError(f"M = {M} must be nonnegative")
    m, L, sqrt_M = float(m), float(L), math.sqrt(M)
    noise = float(M + sigma2)
    L2 = L * L
    values = np.empty(N + 1)
    values[0] = e = float(min(E0, L2) if cap else E0)
    for lo in range(0, N, FLOAT_CHUNK):
        chunk = []
        for t_j, eta_j in zip(t[lo:lo + FLOAT_CHUNK].tolist(),
                              eta[lo:lo + FLOAT_CHUNK].tolist()):
            e = ((1.0 - t_j * m) * e + t_j * t_j * noise
                 + 2.0 * eta_j * (L + t_j * sqrt_M) * L + eta_j * eta_j * L2)
            if cap:
                e = min(e, L2)
            chunk.append(e)
        values[lo + 1:lo + 1 + len(chunk)] = chunk
    return BoundSequence(values=values)


EXPONENT_FORMS = ("proof", "statement", "appendix")


def sg_exponential_bound(step: StepSchedule, m: float, N: int,
                         calibration: tuple, form: str = "proof") -> float:
    """c0 * exp(-exponent(N)) for N >= j0, with three exponent variants.

    "proof" (default): m*sum t_j + (m^2/2)*sum t_j^2, the form the product
    inequality exp(-(x + x^2/2)) >= 1 - x actually yields. "statement":
    sum (t_j + 2 t_j^2). "appendix": sum (t_j + t_j^2/2). Sums run over
    j = 1..N.
    """
    j0, c0 = int(calibration[0]), float(calibration[1])
    if N < j0:
        raise ValueError(f"N = {N} below calibration index j0 = {j0}")
    if form not in EXPONENT_FORMS:
        raise ValueError(f"unknown exponent form {form!r}")
    t = np.asarray(step.step_size(np.arange(1, N + 1)), dtype=float)
    if form == "proof":
        exponent = m * np.sum(t) + 0.5 * m * m * np.sum(t * t)
    elif form == "statement":
        exponent = np.sum(t + 2.0 * t * t)
    else:
        exponent = np.sum(t + 0.5 * t * t)
    return c0 * float(np.exp(-exponent))


def constant_step_plateau(a: float, m: float, M: float, sigma2: float) -> float:
    """The constant-step MSE ceiling 2 (M + sigma^2) a / m, valid for
    0 < a < 1/m once the burn-in index is passed."""
    if not 0 < a < 1.0 / m:
        raise ValueError(f"constant step a = {a} must lie in (0, 1/m) = (0, {1.0 / m})")
    return 2.0 * (M + sigma2) * a / m


def stage_burn_in(a: float, m: float, E1: float, M: float, sigma2: float) -> int:
    """Smallest N with (1 - a m)^(N-1) * E1 <= (M + sigma2) a^2 / (1 - a m)."""
    alpha = 1.0 - a * m
    if not 0 < alpha < 1:
        raise ValueError(f"require 0 < 1 - a*m < 1, got {alpha}")
    if not E1 > 0:
        raise ValueError("E1 must be positive")
    threshold = (M + sigma2) * a * a / (1.0 - alpha)
    n = 1
    decay = E1
    while decay > threshold:
        decay *= alpha
        n += 1
    return n
