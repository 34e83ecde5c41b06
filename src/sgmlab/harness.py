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
import os
import sys
import threading
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import estimators as est_mod
from . import optimizers as opt_mod
from . import problems as prob_mod
from .bounds import BoundSequence, RateEnvelope, constant_step_plateau, stage_burn_in
from .geometry import contains
from .optimizers import NumericFailureError, SGM, Variant
from .problems import Problem
from .schedules import (ConstantStep, MomentumSchedule, StepSchedule,
                        ValidityReport, require_int, require_stages,
                        shorten, validate)

NOISE_CHUNK = 512
NOISE_TILE = 64


def __getattr__(name):
    # The process pool is imported on first access, so a one-worker run never
    # loads multiprocessing. A class set on the module in its place, such as
    # a tracing subclass, is the one _mse enters.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pool_class():
    return sys.modules[__name__].ProcessPoolExecutor


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


class ScheduleValidationError(ValueError):
    """An unforced schedule whose validation report has a violation."""


class WorkerLostError(RuntimeError):
    """A pool worker died before returning its block, e.g. OOM-killed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, checked in full when constructed, its schedule included."""

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
    # validate's report on step and momentum over the horizon (derived, so
    # compare=False keeps it out of config_hash).
    schedule_report: ValidityReport = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        for name in ("horizon", "replicates", "master_seed", "suffix_start",
                     "workers"):
            require_int(getattr(self, name), name)
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if self.replicates > 2 ** 32:
            # A replicate's spawn key is one uint32 word.
            raise ValueError(f"replicates must be <= 2**32, got "
                             f"{shorten(str(self.replicates))}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got "
                             f"{shorten(str(self.master_seed))}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1, "
                             f"got {shorten(str(self.workers))}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.estimator not in est_mod.ESTIMATOR_NAMES:
            raise ValueError("unknown estimator "
                             f"{shorten(repr(self.estimator))}")
        suffix = self.estimator == "suffix"
        if suffix and self.suffix_start < 0:
            raise ValueError(f"suffix_start must be >= 0, got "
                             f"{shorten(str(self.suffix_start))}")
        if suffix and self.suffix_start > self.horizon:
            raise ValueError(f"suffix_start {shorten(str(self.suffix_start))}"
                             f" exceeds horizon {shorten(str(self.horizon))}")
        cps = self.checkpoints
        if cps is None:
            cps = default_checkpoints(self.horizon, self.estimator,
                                      self.suffix_start)
        cps = tuple(require_int(c, "checkpoints") for c in cps)
        if not cps:
            raise ValueError("checkpoints must not be empty")
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
            theta0 = np.asarray(self.theta0)
            d = self.problem.dimension
            if (theta0.shape != (d,) or theta0.dtype.kind not in "iuf"
                    or not contains(self.problem.domain, theta0)):
                raise ValueError(f"theta0 must be a {d}-vector in the "
                                 f"domain, got {shorten(repr(self.theta0))}")
            object.__setattr__(self, "theta0", theta0.astype(float))
        report = validate(self.step, self.momentum,
                          self.problem.constants().m, self.horizon)
        if not report.ok and not self.force_schedule:
            raise ScheduleValidationError(f"schedule validation failed:\n{report}")
        object.__setattr__(self, "schedule_report", report)
        if self.workers > 1:
            _pool_class()   # the import belongs to setup, not the engine


def _check_increasing(checkpoints):
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")


@dataclass(frozen=True)
class RunSummary:
    checkpoints: tuple
    mse_mean: np.ndarray
    mse_sem: np.ndarray
    # Unknown for a summary read back from its CSV.
    config_hash: str | None = None
    wall_time: float | None = None


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


# numpy's SeedSequence hash: its constants and its pool size in words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


class ReplicateSeed:
    """The seed of one replicate's stream: the four uint64 state words
    SeedSequence(entropy, spawn_key=spawn_key) generates for PCG64, hashed
    ahead of time by _replicate_rngs.

    _replicate_rngs registers it as a numpy ISeedSequence. A base class
    here would import numpy.random along with sgmlab, earlier than a run
    needs it, and that alone raises a lemma1-shaped run's peak RSS by about
    0.5 MB."""

    def __init__(self, entropy: int, spawn_key: tuple, state: np.ndarray):
        self.entropy, self.spawn_key = entropy, spawn_key
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if np.dtype(dtype) != np.uint64 or n_words > len(self._state):
            raise ValueError(f"a ReplicateSeed holds {len(self._state)} "
                             f"uint64 words; {n_words} of "
                             f"{np.dtype(dtype)} were asked for")
        return self._state[:n_words].copy()


def _replicate_rngs(master_seed: int, lo: int, hi: int) -> list:
    """The streams of replicates lo..hi-1: for each r, the generator
    default_rng(SeedSequence(entropy=master_seed, spawn_key=(r,))) builds,
    bit for bit. SeedSequence's hash runs once over the whole block, as
    uint32 array arithmetic, instead of once per replicate; the constants
    mixed in depend only on the position in the hash, so every replicate
    sees the same ones. ExperimentConfig has refused a negative seed and
    more than 2**32 replicates."""
    master_seed = int(master_seed)
    np.random.bit_generator.ISeedSequence.register(ReplicateSeed)
    # SeedSequence reads an integer as little-endian 32-bit words, and a
    # spawned one pads them to the pool size.
    run = [master_seed >> shift & _MASK32
           for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    run += [0] * (_POOL_SIZE - len(run))
    n = hi - lo
    entropy = ([np.full(n, w, np.uint32) for w in run]
               + [np.arange(lo, hi, dtype=np.uint32)])
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64) hashes eight words cycled from the pool
    # the same way, from other constants.
    const, mult = _INIT_B, _MULT_B
    words = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)],
                     axis=1)
    states = words.astype("<u4").view("<u8").astype(np.uint64)
    # Generator(PCG64(seed)) is what default_rng(seed) builds, without its
    # argument dispatch.
    return [np.random.Generator(np.random.PCG64(
                ReplicateSeed(master_seed, (r,), state)))
            for r, state in zip(range(lo, hi), states)]


def _process_lanes(workers: int) -> int:
    """How many threads one of a run's `workers` processes may draw noise
    on: the CPUs this process may run on, shared out among the workers, at
    least one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)
    return max(1, cpus // workers)


def _on_threads(calls, *args):
    """Run calls[0](*args) on this thread and each other call on a thread of
    its own, or here where none can start. Return once every call has
    ended, raising calls[0]'s error or else the first other one's, so no
    helper outlives the return."""
    errors = []

    def helper(call):
        try:
            call(*args)
        except BaseException as err:
            errors.append(err)

    threads = []
    try:
        for call in calls[1:]:
            thread = threading.Thread(target=helper, args=(call,))
            try:
                thread.start()
                threads.append(thread)
            except RuntimeError:    # can't start new thread: fill it here
                helper(call)
        calls[0](*args)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _noise_chunks(problem: Problem, rngs, n_steps: int, lanes: int = 1):
    """The noise of n_steps steps, one chunk of at most NOISE_CHUNK steps at
    a time, step-major: chunk[i] is step i's (block, d) noise, or its
    (block, batch) sample indices in mini-batch mode, so the step loop reads
    contiguous rows. A chunk holds only until the next one is drawn.

    Each replicate draws its chunk from its own stream into its row of a
    reused replicate-major tile of NOISE_TILE replicates; one copy then
    transposes the tile into the step-major buffer. Both arrays are viewed
    as one opaque item per (width,) row, so the copy moves whole rows and
    writes each step's tile rows contiguously. The draws are standard
    variates, which the problem's noise finisher turns into noise over the
    whole chunk at once.

    The tiles are split into at most `lanes` contiguous groups, each with a
    tile buffer of its own: this thread fills the first group and one
    helper thread each of the others, and all are joined before the chunk
    is finished. Every replicate still draws from its own stream into its
    own columns, so no value depends on the split. A noise kind that is not
    threaded takes one lane."""
    draw, width, dtype, finish, _, threaded = prob_mod.noise_kind(problem)
    size = min(NOISE_CHUNK, n_steps)
    by_step = np.empty((size, len(rngs), width), dtype)
    tile_len = min(NOISE_TILE, len(rngs))
    tiles = -(-len(rngs) // tile_len)
    lanes = min(lanes, tiles) if threaded else 1
    row = np.dtype((np.void, width * by_step.itemsize))
    steps_v = by_step.view(row)[..., 0]

    def lane(lo: int, hi: int):
        tile = np.empty((tile_len, size, width), dtype)
        tile_v = tile.view(row)[..., 0]

        def fill(chunk: int):
            rows = [r[:chunk] for r in tile]
            for r0 in range(lo, hi, tile_len):
                block = rngs[r0:r0 + tile_len]
                for rng, out in zip(block, rows):
                    # `out` by keyword: a wrapper around the draw may read
                    # only the positional arguments.
                    draw(problem, rng, chunk, out=out)
                n = len(block)
                steps_v[:chunk, r0:r0 + n] = tile_v[:n, :chunk].T

        return fill

    edges = [min(tiles * k // lanes * tile_len, len(rngs))
             for k in range(lanes + 1)]
    fills = [lane(lo, hi) for lo, hi in zip(edges, edges[1:])]
    for pos in range(0, n_steps, size):
        chunk = min(size, n_steps - pos)
        _on_threads(fills, chunk)
        if finish is not None:
            finish(by_step[:chunk])
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
    problem = config.problem
    gradient = prob_mod.noise_kind(problem)[4]
    theta_star = problem.theta_star
    batch = opt_mod.Batch(theta0, config.variant, problem.domain)
    t_arr = config.step.steps(config.horizon)
    eta_arr = config.momentum.weights(t_arr)
    estimator = est_mod.make_estimator(config.estimator, config.suffix_start)
    estimator.observe(batch.theta_curr, 0)
    record_at = {c: k for k, c in enumerate(config.checkpoints)}
    out = np.empty((len(config.checkpoints), len(rngs)))
    j = 0
    lanes = _process_lanes(config.workers)
    for noise in _noise_chunks(problem, rngs, config.horizon, lanes):
        start, start_j = batch.copy(), j
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
            _replay(start, start_j, noise, ts, etas, gradient, rep_lo)
    return batch.theta_curr, out


def _replay(batch, j: int, noise, ts, etas, gradient, rep_lo: int):
    """Rerun one chunk, from its start batch at step j, through the
    reference kernel; raise at its first non-finite gradient or iterate,
    naming the replicate."""
    for j, (noise_j, t, w) in enumerate(zip(noise, ts, etas), j):
        g = gradient(batch.theta_curr, noise_j)
        try:
            batch = opt_mod.reference_step(batch, g, t, w, j)
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
    rngs = _replicate_rngs(first.master_seed, rep_lo, rep_hi)
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
        from concurrent.futures.process import BrokenProcessPool
        try:
            with _pool_class()(max_workers=len(ranges)) as pool:
                futures = [pool.submit(_run_block, stages, lo, hi)
                           for lo, hi in ranges]
                blocks = [f.result() for f in futures]
        except BrokenProcessPool:
            raise WorkerLostError("a worker process died, perhaps out of "
                                  "memory") from None
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


def run_replicates(config: ExperimentConfig) -> RunSummary:
    """Run R independent replicates and aggregate squared estimator errors
    at every checkpoint, deterministically in replicate-index order."""
    start = time.perf_counter()
    mse_mean, mse_sem = _mse((config,), config.replicates, config.workers)
    return RunSummary(config.checkpoints, mse_mean, mse_sem,
                      config_hash=_fingerprint(config),
                      wall_time=time.perf_counter() - start)


def window_mask(checkpoints, window: tuple) -> np.ndarray:
    """The checkpoints in the fit window [lo, hi]: at least 4."""
    cps = np.asarray(checkpoints)
    mask = (cps >= window[0]) & (cps <= window[1])
    if mask.sum() < 4:
        raise ValueError(f"need >= 4 checkpoints in window, got {int(mask.sum())}")
    return mask


def calibration_half(checkpoints) -> int:
    """How many leading checkpoints calibrate an envelope: at least 1."""
    half = len(checkpoints) // 2
    if half < 1:
        raise ValueError("need at least 2 checkpoints to calibrate")
    return half


def fit_rate(summary: RunSummary, window: tuple) -> RateFit:
    """Least-squares fit of log(mse) against log(checkpoint + 1) inside the
    window; the slope estimates the convergence order."""
    _check_increasing(summary.checkpoints)
    cps = np.asarray(summary.checkpoints)
    mask = window_mask(cps, window)
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
            half = calibration_half(cps)
            if not np.any(summary.mse_mean[:half]):
                raise ValueError("cannot calibrate the envelope: mse_mean is "
                                 f"0 at all {half} calibration checkpoints")
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


def drop_stages(a0: float, n0: int, num_stages: int) -> list:
    """Default constant-and-drop policy: halve the step, double the length."""
    return [(a0 / 2 ** k, n0 * 2 ** k) for k in range(num_stages)]


def stage_configs(problem: Problem, stages, momentum: MomentumSchedule, *,
                  variant: Variant = SGM(), theta0="random-interior",
                  replicates: int = 2, master_seed: int = 0,
                  workers: int = 1, force_schedule: bool = False) -> tuple:
    """The checked configs of a constant-and-drop run: per stage (a_k, n_k),
    a_k for n_k steps ('auto': the burn-in index from the start error L^2)
    with a suffix average. A refused schedule names its stage."""
    consts = problem.constants()
    resolved = require_stages(
        [(a, n if n != "auto" else stage_burn_in(a, consts.m, consts.L ** 2,
                                                 consts.M, consts.sigma2))
         for a, n in stages], consts.m)
    configs = []
    for k, (a_k, length) in enumerate(resolved):
        try:
            configs.append(ExperimentConfig(
                problem=problem, variant=variant, step=ConstantStep(a_k),
                momentum=momentum, estimator="suffix", theta0=theta0,
                horizon=length, checkpoints=(length,), replicates=replicates,
                master_seed=master_seed, workers=workers,
                force_schedule=force_schedule))
        except ScheduleValidationError as err:
            raise ScheduleValidationError(f"stage {k} {err}") from None
    return tuple(configs)


def run_multistage(configs: tuple) -> list:
    """Run stage_configs' configs as one chain: stage k+1 continues from
    stage k's final iterates with the momentum restarted."""
    first = configs[0]
    mse_mean, mse_sem = _mse(configs, first.replicates, first.workers)
    consts = first.problem.constants()
    return [StageReport(step=c.step.a, length=c.horizon,
                        burn_in=stage_burn_in(c.step.a, consts.m,
                                              consts.L ** 2, consts.M,
                                              consts.sigma2),
                        suffix_mse_mean=float(mse_mean[k]),
                        suffix_mse_sem=float(mse_sem[k]),
                        plateau=constant_step_plateau(c.step.a, consts.m,
                                                      consts.M, consts.sigma2))
            for k, c in enumerate(configs)]
