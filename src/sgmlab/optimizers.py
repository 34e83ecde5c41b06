"""One-step update kernels for projected SG, heavy-ball SGM, normalized SGM,
and QHM.

Each variant's update formula is written once, as its `update` method: a
fixed sequence of numpy ufunc calls that writes into the buffers of a
`Batch`. Two kernels run it:

- `step` advances the engine's `Batch` in place. It allocates nothing but
  the projection's result and checks nothing; the engine checks the
  batch once per noise chunk (`Batch.finite`).
- `reference_step` is the pure state -> state transition. It works on
  copies, checks every gradient and iterate, and raises NumericFailureError
  at the first non-finite one. The tests and the engine's replay of a
  chunk that failed its check use it.

Both broadcast over leading axes, so a batch of R independent trajectories
advances with the exact same arithmetic as R scalar calls. Gradient samples
are supplied by the caller, which lets equivalence tests replay one noise
stream across variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Domain, contains


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


# Each update(b, g, t, w) writes the step-t, weight-w proposal from the
# gradient g into b.proposal, and the new EMA into b.velocity, in the same
# floating-point operation order as the expression in its comment.

@dataclass(frozen=True)
class SG:
    def update(self, b: Batch, g, t: float, w: float):
        # proposal = theta - t * g
        p = np.multiply(t, g, out=b.proposal)
        np.subtract(b.theta_curr, p, out=p)


@dataclass(frozen=True)
class SGM:
    def update(self, b: Batch, g, t: float, w: float):
        # proposal = theta - t * g + w * (theta - theta_prev)
        p = np.multiply(t, g, out=b.proposal)
        np.subtract(b.theta_curr, p, out=p)
        s = np.subtract(b.theta_curr, b.theta_prev, out=b.scratch)
        np.multiply(w, s, out=s)
        np.add(p, s, out=p)


@dataclass(frozen=True)
class NormalizedSGM:
    def update(self, b: Batch, g, t: float, w: float):
        # velocity = w * g + (1 - w) * velocity
        # proposal = theta - t * velocity
        s = np.multiply(w, g, out=b.scratch)
        v = np.multiply(1.0 - w, b.velocity, out=b.velocity)
        np.add(s, v, out=v)
        p = np.multiply(t, v, out=b.proposal)
        np.subtract(b.theta_curr, p, out=p)


@dataclass(frozen=True)
class QHM:
    v: float

    def __post_init__(self):
        if not 0 <= self.v <= 1:
            raise ValueError("QHM interpolation parameter v must lie in [0, 1]")

    def update(self, b: Batch, g, t: float, w: float):
        # velocity = (1 - w) * g + w * velocity
        # proposal = theta - t * ((1 - v) * g + v * velocity)
        s = np.multiply(1.0 - w, g, out=b.scratch)
        vel = np.multiply(w, b.velocity, out=b.velocity)
        np.add(s, vel, out=vel)
        p = np.multiply(1.0 - self.v, g, out=b.proposal)
        np.multiply(self.v, vel, out=s)
        np.add(p, s, out=p)
        np.multiply(t, p, out=p)
        np.subtract(b.theta_curr, p, out=p)


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


class Batch:
    """Trajectories that `step` advances in place: the current and previous
    iterates, the EMA velocity, a proposal and a scratch buffer, each of the
    iterates' shape, and a running sum of the proposals since the last
    `finite` check.

    The iterates are the arrays domain.project returns, which are new
    (Ball.project copies, Box.project clips into a new array) and never
    written to once made, so a caller may keep one across steps; the
    velocity is updated in place."""

    __slots__ = ("update", "domain", "theta_curr", "theta_prev", "velocity",
                 "proposal", "scratch", "proposal_sum")

    def __init__(self, state: IterateState, variant: Variant, domain: Domain):
        self.update = variant.update
        self.domain = domain
        self.theta_curr = state.theta_curr
        self.theta_prev = state.theta_prev
        self.velocity = state.velocity.copy()
        self.proposal = np.empty_like(state.theta_curr)
        self.scratch = np.empty_like(state.theta_curr)
        self.proposal_sum = np.zeros_like(state.theta_curr)

    def snapshot(self, j: int) -> IterateState:
        """The state as an IterateState at step index j, for reference_step."""
        return IterateState(theta_curr=self.theta_curr,
                            theta_prev=self.theta_prev,
                            velocity=self.velocity.copy(), j=j)

    def finite(self) -> bool:
        """False if a proposal since the last call or the current iterates
        hold a non-finite value; resets the proposal sum.

        A non-finite gradient or iterate makes every later proposal
        non-finite (no update divides), and a sum that met a non-finite term
        stays non-finite, so this catches every value reference_step rejects.
        It also trips on values reference_step lets pass: a proposal the
        projection brings back inside a box, or a sum that overflows."""
        ok = bool(np.isfinite(self.proposal_sum).all()
                  and np.isfinite(self.theta_curr).all())
        self.proposal_sum.fill(0.0)
        return ok


def step(batch: Batch, g, t: float, w: float) -> None:
    """Advance every trajectory of the batch one iteration, step size t and
    momentum weight w, and project back onto the domain. Checks nothing;
    see Batch.finite."""
    batch.update(batch, g, t, w)
    np.add(batch.proposal_sum, batch.proposal, out=batch.proposal_sum)
    batch.theta_prev = batch.theta_curr
    batch.theta_curr = batch.domain.project(batch.proposal)


def _first_non_finite_row(*arrays) -> int:
    """Index of the first row, over the flattened leading axes, in which any
    of the (..., d) arrays holds a non-finite value."""
    bad = np.zeros((), bool)
    for a in arrays:
        bad = bad | ~np.isfinite(a).all(axis=-1)
    return int(np.flatnonzero(bad)[0])


def reference_step(state: IterateState, g, params: StepParams,
                   variant: Variant, domain: Domain) -> IterateState:
    """Advance one iteration and project back onto the domain, as a new
    state; g has the iterates' shape. Raises NumericFailureError on a
    non-finite gradient, current iterate or next iterate."""
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all() or not np.isfinite(state.theta_curr).all():
        raise NumericFailureError(
            "non-finite gradient or iterate", state.j,
            _first_non_finite_row(g, state.theta_curr))
    batch = Batch(state, variant, domain)
    variant.update(batch, g, params.step, params.weight)
    theta_next = domain.project(batch.proposal)
    if not np.isfinite(theta_next).all():
        raise NumericFailureError("non-finite iterate after update", state.j,
                                  _first_non_finite_row(theta_next))
    return IterateState(theta_curr=theta_next, theta_prev=state.theta_curr,
                        velocity=batch.velocity, j=state.j + 1)


def map_qhm_to_nsgm(alpha: float, beta: float) -> tuple:
    """Parameters (alpha, weight) under which NormalizedSGM replays
    QHM(v=1, alpha, beta).

    The two updates keep opposite EMA conventions (weight on the new gradient
    vs on the history), so the mapping swaps beta for 1 - beta.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not 0 <= beta < 1:
        raise ValueError("beta must lie in [0, 1); beta = 1 never absorbs "
                         "new gradients (degenerate EMA)")
    return alpha, 1.0 - beta
