"""One-step update kernels for projected SG, heavy-ball SGM, normalized SGM,
and QHM.

The kernels are pure state -> state transitions and broadcast over leading
axes, so a batch of R independent trajectories advances with the exact same
arithmetic as R scalar calls. Gradient samples are supplied by the caller,
which lets equivalence tests replay one noise stream across variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box, Domain, contains


class NumericFailureError(RuntimeError):
    """Non-finite value encountered; carries the offending step index and,
    for a batch of trajectories, the first offending row."""

    def __init__(self, message: str, step_index: int, row: int = 0):
        # All go in args, so the error survives the pickle round trip out
        # of a pool worker.
        super().__init__(message, step_index, row)
        self.step_index = step_index
        self.row = row

    def __str__(self) -> str:
        message, step_index, _row = self.args
        return f"{message} at step {step_index}"


@dataclass(frozen=True)
class SG:
    pass


@dataclass(frozen=True)
class SGM:
    pass


@dataclass(frozen=True)
class NormalizedSGM:
    pass


@dataclass(frozen=True)
class QHM:
    v: float

    def __post_init__(self):
        if not 0 <= self.v <= 1:
            raise ValueError("QHM interpolation parameter v must lie in [0, 1]")


Variant = SG | SGM | NormalizedSGM | QHM

VARIANT_NAMES = {"sg": SG, "sgm": SGM, "nsgm": NormalizedSGM, "qhm": QHM}


def variant_from_name(name: str, qhm_v: float | None = None) -> Variant:
    if name not in VARIANT_NAMES:
        raise ValueError(f"unknown variant {name!r} "
                         f"(expected one of {sorted(VARIANT_NAMES)})")
    if name == "qhm":
        if qhm_v is None:
            raise ValueError("qhm variant requires the interpolation parameter v")
        return QHM(v=float(qhm_v))
    return VARIANT_NAMES[name]()


def _uses_velocity(variant: Variant) -> bool:
    return isinstance(variant, (NormalizedSGM, QHM))


@dataclass(frozen=True)
class IterateState:
    """Current/previous iterates plus the EMA buffer for NSGM/QHM.

    Arrays have shape (..., d); leading axes index independent trajectories.
    """

    theta_curr: np.ndarray
    theta_prev: np.ndarray
    velocity: np.ndarray   # shape (..., d) for NSGM/QHM, (..., 0) otherwise
    j: int


@dataclass(frozen=True)
class StepParams:
    """(t_j, eta_j) for SG/SGM, (alpha_j, beta_j) for NSGM/QHM."""

    step: float
    weight: float = 0.0


def init(theta0, variant: Variant, domain: Domain) -> IterateState:
    """Start a trajectory: theta_prev = theta_curr = theta0, buffers zeroed."""
    theta0 = np.asarray(theta0, dtype=float)
    if not np.all(contains(domain, theta0, 0.0)):
        raise ValueError("theta0 lies outside the domain")
    if _uses_velocity(variant):
        velocity = np.zeros_like(theta0)
    else:
        velocity = np.zeros(theta0.shape[:-1] + (0,))
    return IterateState(theta_curr=theta0, theta_prev=theta0,
                        velocity=velocity, j=0)


def _first_non_finite_row(*arrays) -> int:
    """Index of the first row, over the flattened leading axes, in which any
    of the (..., d) arrays holds a non-finite value."""
    bad = np.zeros((), bool)
    for a in arrays:
        bad = bad | ~np.isfinite(a).all(axis=-1)
    return int(np.flatnonzero(bad)[0])


def step(state: IterateState, g, params: StepParams, variant: Variant,
         domain: Domain) -> IterateState:
    """Advance one iteration and project back onto the domain."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all() or not np.isfinite(state.theta_curr).all():
        raise NumericFailureError(
            "non-finite gradient or iterate", state.j,
            _first_non_finite_row(g, state.theta_curr))

    theta = state.theta_curr
    velocity = state.velocity
    if isinstance(variant, SG):
        proposal = theta - params.step * g
    elif isinstance(variant, SGM):
        proposal = (theta - params.step * g
                    + params.weight * (theta - state.theta_prev))
    elif isinstance(variant, NormalizedSGM):
        velocity = params.weight * g + (1.0 - params.weight) * velocity
        proposal = theta - params.step * velocity
    else:  # QHM
        velocity = (1.0 - params.weight) * g + params.weight * velocity
        proposal = theta - params.step * (
            (1.0 - variant.v) * g + variant.v * velocity)

    theta_next = domain.project(proposal)
    if not np.isfinite(theta_next).all():
        raise NumericFailureError("non-finite iterate after update", state.j,
                                  _first_non_finite_row(theta_next))
    return IterateState(theta_curr=theta_next, theta_prev=theta,
                        velocity=velocity, j=state.j + 1)


@dataclass(frozen=True)
class CouplingReport:
    """Outcome of a trajectory-matching check between update kernels."""

    params: tuple
    max_deviation: float


def _trajectory(variant, params_fn, theta0, grad_fn, domain, n_steps):
    state = init(np.asarray([theta0], dtype=float).ravel(), variant, domain)
    out = []
    for j in range(n_steps):
        g = grad_fn(state.theta_curr)
        state = step(state, g, params_fn(j), variant, domain)
        out.append(state.theta_curr.copy())
    return np.asarray(out)


def map_qhm_to_nsgm(alpha: float, beta: float, n_steps: int = 10) -> CouplingReport:
    """Parameters under which NormalizedSGM replays QHM(v=1, alpha, beta).

    The two updates keep opposite EMA conventions (weight on the new gradient
    vs on the history), so the mapping swaps beta for 1 - beta. Validated by
    a side-by-side noiseless trajectory before being returned.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= beta < 1:
        raise ValueError("beta must lie in [0, 1); beta = 1 never absorbs "
                         "new gradients (degenerate EMA)")
    # 1-D quadratic f = x^2/2 on a huge box: projection never activates and
    # the gradient is deterministic, so trajectories compare exactly.
    domain = Box(lower=[-1e12], upper=[1e12])
    grad_fn = lambda theta: theta
    theta0 = 7.0
    ref = _trajectory(QHM(v=1.0), lambda j: StepParams(alpha, beta),
                      theta0, grad_fn, domain, n_steps)
    mapped = _trajectory(NormalizedSGM(),
                         lambda j: StepParams(alpha, 1.0 - beta),
                         theta0, grad_fn, domain, n_steps)
    dev = float(np.max(np.abs(ref - mapped)))
    if dev > 1e-12:
        raise NumericFailureError(
            f"qhm->nsgm mapping failed trajectory validation (dev={dev:.3e})", 0)
    return CouplingReport(params=(alpha, 1.0 - beta), max_deviation=dev)
