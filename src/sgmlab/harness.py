"""Monte Carlo experiment engine.

Replicates are advanced as one batched state of shape (R, d): the update
kernels broadcast, so this is arithmetically identical to R scalar
trajectories while running orders of magnitude faster. Each replicate owns
its own random stream seeded from (master_seed, replicate_index), so
splitting the replicate range across workers or invocations never changes
any value, and aggregation is always done in replicate-index order.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import estimators as est_mod
from . import optimizers as opt_mod
from . import problems as prob_mod
from .bounds import BoundSequence, RateEnvelope, constant_step_plateau, stage_burn_in
from .optimizers import NumericFailureError, SGM, Variant
from .problems import Problem
from .schedules import (ConstantStep, MomentumSchedule, StepSchedule,
                        ValidityReport, require_int, validate)

NOISE_CHUNK = 512
NOISE_TILE = 64


def default_checkpoints(horizon: int, estimator: str = "last",
                        suffix_start: int = 0) -> tuple:
    """Geometric grid {ceil(1.3^i)} intersected with [1, horizon], plus the
    horizon. The suffix estimator keeps only points at or past suffix_start:
    before it the suffix average has no iterates."""
    pts = set()
    x = 1.0
    while x <= horizon:
        pts.add(int(np.ceil(x)))
        x *= 1.3
    pts.add(horizon)
    if estimator == "suffix":
        pts = {c for c in pts if c >= suffix_start}
    return tuple(sorted(pts))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: Problem
    variant: Variant
    step: StepSchedule
    momentum: MomentumSchedule
    estimator: str = "last"
    suffix_start: int = 0
    theta0: object = "random-interior"   # vector or "random-interior"
    horizon: int = 1000
    checkpoints: tuple | None = None
    replicates: int = 2
    master_seed: int = 0
    # Settings that do not change the result: left out of equality and so
    # of config_hash.
    workers: int = field(default=1, compare=False)
    force_schedule: bool = field(default=False, compare=False)

    def __post_init__(self):
        for name in ("horizon", "replicates", "master_seed", "suffix_start",
                     "workers"):
            require_int(getattr(self, name), name)
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.estimator not in est_mod.ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        suffix = self.estimator == "suffix"
        if suffix and self.suffix_start > self.horizon:
            raise ValueError(f"suffix_start {self.suffix_start} exceeds "
                             f"horizon {self.horizon}")
        cps = self.checkpoints
        if cps is None:
            cps = default_checkpoints(self.horizon, self.estimator,
                                      self.suffix_start)
        cps = tuple(require_int(c, "checkpoints") for c in cps)
        if not cps:
            raise ValueError("checkpoints must be strictly increasing")
        _check_increasing(cps)
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise ValueError("checkpoints must lie in [1, horizon]")
        if suffix and cps[0] < self.suffix_start:
            raise ValueError(f"checkpoint {cps[0]} lies before suffix_start "
                             f"{self.suffix_start}; the suffix average is "
                             "empty there")
        object.__setattr__(self, "checkpoints", cps)
        if isinstance(self.theta0, str):
            if self.theta0 != "random-interior":
                raise ValueError("theta0 must be a vector or 'random-interior'")
        else:
            object.__setattr__(self, "theta0",
                               np.asarray(self.theta0, dtype=float))


def _check_increasing(checkpoints):
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")


@dataclass(frozen=True)
class RunSummary:
    checkpoints: tuple
    mse_mean: np.ndarray
    mse_sem: np.ndarray
    estimator: str
    replicates: int
    master_seed: int
    config_hash: str
    wall_time: float
    schedule_report: ValidityReport | None = None


@dataclass(frozen=True)
class RateFit:
    exponent: float
    log_constant: float
    r2: float


@dataclass(frozen=True)
class DominanceReport:
    checked: tuple                 # checkpoint indices tested
    violations: tuple              # (checkpoint, mse_mean, bound_value)
    calibrated_constant: float | None
    bound_values: np.ndarray       # the bound at every checkpoint

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> int | None:
        return self.violations[0][0] if self.violations else None


@dataclass(frozen=True)
class StageReport:
    step: float
    length: int
    burn_in: int
    suffix_mse_mean: float
    suffix_mse_sem: float
    plateau: float
    schedule_report: ValidityReport


def _replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    # SeedSequence mixes (entropy, spawn_key) with good avalanche behavior.
    # Generator(PCG64(seq)) is what default_rng(seq) builds, without its
    # argument dispatch.
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))))


def _noise_chunks(problem: Problem, rngs, n_steps: int):
    """The noise of n_steps steps, one chunk of at most NOISE_CHUNK steps at
    a time, step-major: chunk[i] is step i's (block, d) noise, or its
    (block, batch) sample indices in mini-batch mode, so the step loop reads
    contiguous rows. A chunk holds only until the next one is drawn.

    Each replicate draws its chunk from its own stream into its row of a
    reused replicate-major tile of NOISE_TILE replicates; one copy then
    transposes the tile into the step-major buffer. Both arrays are viewed
    as one opaque item per (width,) row, so the copy moves whole rows and
    writes each step's tile rows contiguously."""
    draw, width, dtype, _ = prob_mod.noise_kind(problem)
    size = min(NOISE_CHUNK, n_steps)
    by_step = np.empty((size, len(rngs), width), dtype)
    tile = np.empty((min(NOISE_TILE, len(rngs)), size, width), dtype)
    row = np.dtype((np.void, width * by_step.itemsize))
    steps_v, tile_v = by_step.view(row)[..., 0], tile.view(row)[..., 0]
    for pos in range(0, n_steps, size):
        chunk = min(size, n_steps - pos)
        for r0 in range(0, len(rngs), len(tile)):
            block = rngs[r0:r0 + len(tile)]
            for k, rng in enumerate(block):
                # `out` by keyword: a wrapper around the draw may read only
                # the positional arguments.
                draw(problem, rng, chunk, out=tile[k, :chunk])
            n = len(block)
            steps_v[:chunk, r0:r0 + n] = tile_v[:n, :chunk].T
        yield by_step[:chunk]


def _advance_block(config: ExperimentConfig, theta0: np.ndarray, rngs,
                   rep_lo: int) -> tuple:
    """Run one config from the iterates theta0 (block, d) with a fresh
    optimizer state and estimator. Returns the final iterates and the
    per-replicate squared estimator errors (checkpoints, block).

    optimizers.step advances the block in place without checks; the batch
    is checked once per noise chunk, and a chunk that fails the check is
    replayed through the reference kernel, which raises at the exact step
    and replicate. If the replay finds no failure, the run goes on."""
    problem, variant = config.problem, config.variant
    gradient = prob_mod.noise_kind(problem)[3]
    theta_star = problem.theta_star
    domain = problem.domain
    batch = opt_mod.Batch(opt_mod.init(theta0, variant, domain), variant,
                          domain)
    n_steps = config.horizon
    t_arr = np.asarray(config.step.step_size(np.arange(n_steps)), float)
    eta_arr = np.asarray(config.momentum.weight(np.arange(n_steps), t_arr),
                         float)
    estimator = est_mod.make_estimator(config.estimator, config.suffix_start)
    estimator.observe(batch.theta_curr, 0)
    record_at = {c: k for k, c in enumerate(config.checkpoints)}
    out = np.empty((len(config.checkpoints), len(rngs)))
    j = 0
    for noise in _noise_chunks(problem, rngs, n_steps):
        start = batch.snapshot(j)
        # Python floats, one chunk at a time: the whole horizon as lists
        # would cost more memory than the arrays.
        ts = t_arr[j:j + len(noise)].tolist()
        etas = eta_arr[j:j + len(noise)].tolist()
        for noise_j, t, w in zip(noise, ts, etas):
            opt_mod.step(batch, gradient(batch.theta_curr, noise_j), t, w)
            j += 1
            estimator.observe(batch.theta_curr, j)
            if j in record_at:
                delta = estimator.current() - theta_star
                out[record_at[j]] = np.sum(delta * delta, axis=-1)
        if not batch.finite():
            _replay(start, noise, ts, etas, gradient, variant, domain, rep_lo)
    return batch.theta_curr, out


def _replay(state, noise, ts, etas, gradient, variant, domain, rep_lo: int):
    """Rerun one chunk from its start state through the reference kernel;
    raise at its first non-finite gradient or iterate, naming the
    replicate."""
    for noise_j, t, w in zip(noise, ts, etas):
        g = gradient(state.theta_curr, noise_j)
        try:
            state = opt_mod.reference_step(state, g, opt_mod.StepParams(t, w),
                                           variant, domain)
        except NumericFailureError as err:
            raise NumericFailureError(
                f"non-finite value in replicate {rep_lo + err.row}",
                err.step_index) from None


def _run_block(stages: tuple, rep_lo: int, rep_hi: int) -> np.ndarray:
    """Squared estimator errors (checkpoints of all stages, block) of the
    replicates rep_lo..rep_hi-1 run through the stage configs in turn.

    The first stage starts from its theta0, each later one from the previous
    stage's final iterates with the momentum memory wiped and the schedule
    index back at 0; the replicates' streams run on across stages.

    Overflow and invalid values are not warned about: each one ends up as a
    non-finite proposal or iterate, which the chunk check catches."""
    first = stages[0]
    rngs = [_replicate_rng(first.master_seed, r)
            for r in range(rep_lo, rep_hi)]
    if isinstance(first.theta0, str):
        theta = np.stack([first.problem.domain.sample_interior(rng)
                          for rng in rngs])
    else:
        theta = np.tile(first.theta0, (rep_hi - rep_lo, 1))
    outs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for config in stages:
            theta, out = _advance_block(config, theta, rngs, rep_lo)
            outs.append(out)
    return np.concatenate(outs)


def _worker_ranges(replicates: int, workers: int):
    workers = min(workers, replicates)
    edges = np.linspace(0, replicates, workers + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges, edges[1:]) if b > a]


def _mse(stages: tuple, replicates: int, workers: int) -> tuple:
    """Mean and standard error over the replicates of the squared estimator
    errors at every stage's checkpoints. The worker ranges run in a process
    pool when there is more than one; the blocks are joined in replicate
    order."""
    ranges = _worker_ranges(replicates, workers)
    if len(ranges) == 1:
        blocks = [_run_block(stages, *ranges[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_run_block, stages, lo, hi)
                       for lo, hi in ranges]
            blocks = [f.result() for f in futures]
    errors = np.concatenate(blocks, axis=1)
    return (errors.mean(axis=1),
            errors.std(axis=1, ddof=1) / np.sqrt(replicates))


def _fingerprint(obj) -> str:
    """Hash of the fields that determine a result; a dataclass field with
    compare=False (a derived cache, a worker count) is skipped."""
    h = hashlib.sha256()

    def feed(x):
        if is_dataclass(x) and not isinstance(x, type):
            feed(type(x).__name__)
            for f in fields(x):
                if not f.compare:
                    continue
                feed(f.name)
                feed(getattr(x, f.name))
        elif isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()[:16]


def _check_schedule(config: ExperimentConfig,
                    what: str = "schedule") -> ValidityReport:
    """The validation report of config's step and momentum over its horizon.
    A failed report raises unless config.force_schedule is set."""
    report = validate(config.step, config.momentum,
                      config.problem.constants().m, config.horizon)
    if not report.ok and not config.force_schedule:
        raise ValueError(f"{what} validation failed:\n{report}")
    return report


def run_replicates(config: ExperimentConfig) -> RunSummary:
    """Run R independent replicates and aggregate squared estimator errors
    at every checkpoint, deterministically in replicate-index order."""
    report = _check_schedule(config)
    start = time.perf_counter()
    mse_mean, mse_sem = _mse((config,), config.replicates, config.workers)
    return RunSummary(
        checkpoints=config.checkpoints,
        mse_mean=mse_mean,
        mse_sem=mse_sem,
        estimator=config.estimator,
        replicates=config.replicates,
        master_seed=config.master_seed,
        config_hash=_fingerprint(config),
        wall_time=time.perf_counter() - start,
        schedule_report=report,
    )


def fit_rate(summary: RunSummary, window: tuple) -> RateFit:
    """Least-squares fit of log(mse) against log(checkpoint + 1) inside the
    window; the slope estimates the convergence order."""
    j_lo, j_hi = window
    _check_increasing(summary.checkpoints)
    cps = np.asarray(summary.checkpoints)
    mask = (cps >= j_lo) & (cps <= j_hi)
    if mask.sum() < 4:
        raise ValueError(f"need >= 4 checkpoints in window, got {int(mask.sum())}")
    mse = summary.mse_mean[mask]
    finite = np.isfinite(mse)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"mse_mean at checkpoint {cps[mask][k]} is "
                         f"{mse[k]}; the fit needs finite values")
    if np.any(mse <= 0):
        raise ValueError("all mse_mean values in the window must be positive")
    x = np.log(cps[mask] + 1.0)
    y = np.log(mse)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(exponent=float(slope), log_constant=float(intercept), r2=r2)


def dominance_check(summary: RunSummary,
                    bound: BoundSequence | RateEnvelope) -> DominanceReport:
    """Verify mse_mean <= bound + 3*sem at the checkpoints.

    A RateEnvelope with an uncalibrated constant is fitted on the first half
    of the checkpoints and tested out-of-sample on the second half.
    """
    cps = np.asarray(summary.checkpoints)
    calibrated_constant = None
    if isinstance(bound, BoundSequence):
        if cps[-1] >= len(bound.values):
            raise ValueError("bound sequence shorter than the last checkpoint")
        values = bound.at(cps)
        tested = np.arange(len(cps))
    else:
        env = bound
        if env.constant is None:
            half = len(cps) // 2
            if half < 1 or len(cps) - half < 1:
                raise ValueError("need at least 2 checkpoints to calibrate")
            shape = env.shape(cps[:half])
            calibrated_constant = float(np.max(summary.mse_mean[:half] / shape))
            env = env.calibrated(calibrated_constant)
            tested = np.arange(half, len(cps))
        else:
            tested = np.arange(len(cps))
        values = np.asarray(env.at(cps), dtype=float)

    violations = []
    for k in tested:
        if summary.mse_mean[k] > values[k] + 3.0 * summary.mse_sem[k]:
            violations.append((int(cps[k]), float(summary.mse_mean[k]),
                               float(values[k])))
    return DominanceReport(checked=tuple(int(cps[k]) for k in tested),
                           violations=tuple(violations),
                           calibrated_constant=calibrated_constant,
                           bound_values=values)


def resolve_stages(problem: Problem, stages) -> list:
    """Resolve (a_k, n_k | 'auto') into concrete (a_k, length, burn_in).

    'auto' uses the burn-in index with the conservative start error L^2.
    """
    if not stages:
        raise ValueError("need at least one stage")
    consts = problem.constants()
    resolved = []
    prev_a = None
    for a_k, n_k in stages:
        a_k = float(a_k)
        if not 0 < a_k < 1.0 / consts.m:
            raise ValueError(f"stage step {a_k} outside (0, 1/m)")
        if prev_a is not None and a_k >= prev_a:
            raise ValueError("stage steps must be strictly decreasing")
        prev_a = a_k
        burn = stage_burn_in(a_k, consts.m, consts.L ** 2, consts.M,
                             consts.sigma2)
        length = burn if n_k == "auto" else require_int(n_k, "stage length")
        if length < 1:
            raise ValueError("stage length must be >= 1")
        resolved.append((a_k, length, burn))
    return resolved


def drop_stages(a0: float, n0: int, num_stages: int) -> list:
    """Default constant-and-drop policy: halve the step, double the length."""
    return [(a0 / 2 ** k, n0 * 2 ** k) for k in range(num_stages)]


def run_multistage(problem: Problem, stages, momentum: MomentumSchedule, *,
                   variant: Variant = SGM(), theta0="random-interior",
                   replicates: int = 2, master_seed: int = 0,
                   workers: int = 1, force_schedule: bool = False) -> list:
    """Constant-and-drop driver: a chain of constant-step runs, one per stage,
    each with re-initialized momentum and a suffix average over the whole
    stage; stage k+1 continues from stage k's final iterates. Each stage's
    schedule is validated as run_replicates validates a run's. Returns one
    StageReport per stage."""
    resolved = resolve_stages(problem, stages)
    consts = problem.constants()
    configs = tuple(
        ExperimentConfig(problem=problem, variant=variant,
                         step=ConstantStep(a_k), momentum=momentum,
                         estimator="suffix", theta0=theta0, horizon=length,
                         checkpoints=(length,), replicates=replicates,
                         master_seed=master_seed, workers=workers,
                         force_schedule=force_schedule)
        for a_k, length, _burn in resolved)
    reports = [_check_schedule(config, f"stage {k} schedule")
               for k, config in enumerate(configs)]
    mse_mean, mse_sem = _mse(configs, replicates, workers)
    return [StageReport(step=a_k, length=length, burn_in=burn,
                        suffix_mse_mean=float(mse_mean[k]),
                        suffix_mse_sem=float(mse_sem[k]),
                        plateau=constant_step_plateau(a_k, consts.m, consts.M,
                                                      consts.sigma2),
                        schedule_report=reports[k])
            for k, (a_k, length, burn) in enumerate(resolved)]
