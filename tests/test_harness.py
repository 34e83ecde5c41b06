import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from sgmlab import harness
from sgmlab import problems as prob_mod
from sgmlab.bounds import BoundSequence, RateEnvelope, constant_step_plateau
from sgmlab.geometry import Ball, Box
from sgmlab.harness import (ExperimentConfig, RunSummary, default_checkpoints,
                            dominance_check, drop_stages, fit_rate,
                            run_multistage, run_replicates, stage_configs)
from sgmlab.estimators import make_estimator
from sgmlab.optimizers import (QHM, SG, SGM, Batch, NormalizedSGM,
                               NumericFailureError, reference_step)
from sgmlab.problems import (BoundedRademacher, ErmLeastSquares, Gaussian,
                             Minibatch, Quadratic)
from sgmlab.schedules import (ConstantMomentum, ConstantStep,
                              PolynomialMomentum, PolynomialStep, ZeroMomentum)


def _quadratic(sigma2=1.0):
    return Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                     domain=Ball(center=[0.0, 0.0], radius=2.0),
                     noise=Gaussian(sigma2=sigma2))


def _config(**overrides):
    base = dict(problem=_quadratic(), variant=SG(),
                step=PolynomialStep(gamma=1.0, alpha=1.0),
                momentum=ZeroMomentum(), horizon=200, replicates=8,
                master_seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDefaultCheckpoints:
    def test_includes_horizon_and_is_increasing(self):
        cps = default_checkpoints(500)
        assert cps[-1] == 500
        assert all(b > a for a, b in zip(cps, cps[1:]))
        assert cps[0] >= 1

    def test_short_horizon(self):
        assert default_checkpoints(1) == (1,)


class TestConfigValidation:
    def test_checkpoint_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            _config(checkpoints=(10, 300))

    def test_single_replicate_rejected(self):
        with pytest.raises(ValueError):
            _config(replicates=1)

    def test_replicates_beyond_the_spawn_keys_refused(self):
        # Construction only: a run this size would not fit in memory.
        assert _config(replicates=2**32).replicates == 2**32
        with pytest.raises(ValueError, match=r"^replicates must be <= "
                           r"2\*\*32, got 4294967297$"):
            _config(replicates=2**32 + 1)
        with pytest.raises(ValueError, match=r"^replicates must be <= "):
            stage_configs(_quadratic(), drop_stages(0.2, 5, 2),
                          ZeroMomentum(), replicates=2**32 + 1)

    def test_bad_theta0_string_rejected(self):
        with pytest.raises(ValueError):
            _config(theta0="origin")

    @pytest.mark.parametrize("theta0", [
        [[1.0, 0.0], [0.5, 0.0]], [[1.0, 0.0]], 1.0, [1.0, 0.0, 0.0],
        [3.0, 0.0], [np.nan, 0.0], {"x": 1.0}, ["a", 0.0]])
    def test_theta0_must_be_a_point_of_the_domain(self, theta0):
        with pytest.raises(ValueError, match=re.escape(
                f"theta0 must be a 2-vector in the domain, got {theta0!r}")):
            _config(theta0=theta0)

    def test_theta0_on_the_boundary_accepted(self):
        # the domain is closed: the tolerance is 0
        assert _config(theta0=[2.0, 0.0]).theta0.tolist() == [2.0, 0.0]

    def test_suffix_default_grid_starts_at_suffix_start(self):
        cfg = _config(estimator="suffix", suffix_start=50)
        assert cfg.checkpoints[0] >= 50 and cfg.checkpoints[-1] == 200
        assert cfg.checkpoints == default_checkpoints(200, "suffix", 50)

    def test_suffix_checkpoint_before_start_rejected(self):
        with pytest.raises(ValueError, match="checkpoint 10 lies before"):
            _config(estimator="suffix", suffix_start=50, checkpoints=(10, 60))

    def test_suffix_start_past_horizon_rejected(self):
        with pytest.raises(ValueError, match="exceeds horizon"):
            _config(estimator="suffix", suffix_start=201)

    def test_negative_suffix_start_refused_only_for_the_suffix(self):
        with pytest.raises(ValueError,
                           match="^suffix_start must be >= 0, got -1$"):
            _config(estimator="suffix", suffix_start=-1)
        for estimator in ("last", "weighted"):
            assert _config(estimator=estimator, suffix_start=-1).checkpoints

    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _config(workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            stage_configs(_quadratic(), drop_stages(0.2, 5, 2),
                          ZeroMomentum(), replicates=4, workers=workers)

    @pytest.mark.parametrize("changes, name", [
        ({"checkpoints": (1.5, 50.9)}, "checkpoints"),
        ({"checkpoints": (10, True)}, "checkpoints"),
        ({"replicates": 3.7}, "replicates"),
        ({"replicates": 4.0}, "replicates"),
        ({"horizon": True}, "horizon"),
        ({"horizon": "200"}, "horizon"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"estimator": "suffix", "suffix_start": 10.5}, "suffix_start"),
        ({"workers": np.float64(2.0)}, "workers"),
    ])
    def test_integer_fields_not_truncated(self, changes, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _config(**changes)

    @pytest.mark.parametrize("seed", [-1, np.int64(-2**40)])
    def test_negative_master_seed_refused(self, seed):
        with pytest.raises(ValueError,
                           match=f"^master_seed must be >= 0, got {seed}$"):
            _config(master_seed=seed)
        with pytest.raises(ValueError,
                           match=f"^master_seed must be >= 0, got {seed}$"):
            stage_configs(_quadratic(), drop_stages(0.2, 5, 2),
                          ZeroMomentum(), replicates=4, master_seed=seed)

    def test_numpy_integers_are_integers(self):
        cfg = _config(horizon=np.int64(200), replicates=np.int32(4),
                      checkpoints=np.array([10, 200]))
        assert cfg.checkpoints == (10, 200)
        assert all(type(c) is int for c in cfg.checkpoints)

    @pytest.mark.parametrize("stages, changes, name", [
        (drop_stages(0.2, 5, 2), {"replicates": 3.7}, "replicates"),
        (drop_stages(0.2, 5, 2), {"master_seed": True}, "master_seed"),
        ([(0.2, 10.5), (0.1, 20)], {}, "stage length"),
        ([(0.2, 10), (0.1, True)], {}, "stage length"),
    ])
    def test_multistage_integer_fields_not_truncated(self, stages, changes,
                                                     name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            stage_configs(_quadratic(), stages, ZeroMomentum(),
                          **{"replicates": 4, **changes})


def _erm_minibatch():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = X @ np.array([0.3, -0.2]) + 0.1 * rng.normal(size=30)
    return ErmLeastSquares(design=X, targets=y,
                           domain=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
                           noise=Minibatch(batch_size=3))


def _erm_with_rows(n_rows, batch=3):
    rng = np.random.default_rng(n_rows)
    X = rng.normal(size=(n_rows, 2))
    return ErmLeastSquares(design=X, targets=X @ np.array([0.3, -0.2]),
                           domain=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
                           noise=Minibatch(batch_size=batch))


_NOISE_KINDS = {
    "gaussian": _quadratic(),
    "bounded_rademacher": Quadratic(
        hessian_diag=[1.0, 2.0], theta_star=[0.1, 0.0],
        domain=Ball(center=[0.0, 0.0], radius=2.0),
        noise=BoundedRademacher(sigma2=1.0)),
    "minibatch": _erm_minibatch(),
}
_each_noise_kind = pytest.mark.parametrize(
    "problem", list(_NOISE_KINDS.values()), ids=list(_NOISE_KINDS))
# Each noise kind on 1, 2 and 3 lanes; the one-lane cases keep the kind's
# name as their id.
_each_noise_kind_and_lanes = pytest.mark.parametrize("problem, lanes", [
    pytest.param(problem, lanes,
                 id=name if lanes == 1 else f"{name}-{lanes}-lanes")
    for lanes in (1, 2, 3) for name, problem in _NOISE_KINDS.items()])


class TestRunReplicates:
    def test_noiseless_run_has_zero_sem(self):
        cfg = _config(problem=_quadratic(sigma2=0.0), theta0=[1.0, 0.0],
                      horizon=100, replicates=4)
        s = run_replicates(cfg)
        np.testing.assert_array_equal(s.mse_sem, 0.0)
        # deterministic contraction: checkpointed errors never increase
        assert np.all(np.diff(s.mse_mean) <= 1e-15)

    def test_noiseless_matches_closed_form(self):
        # t_j = 1/(j+1) on h = I gives theta_j = theta0 * prod(1 - t_j) and
        # the product telescopes to 0 after the first step
        cfg = _config(problem=_quadratic(sigma2=0.0), theta0=[1.0, 0.0],
                      horizon=10, checkpoints=(1, 5), replicates=2)
        s = run_replicates(cfg)
        np.testing.assert_allclose(s.mse_mean, 0.0, atol=1e-28)

    def test_same_seed_same_result(self):
        a = run_replicates(_config())
        b = run_replicates(_config())
        np.testing.assert_array_equal(a.mse_mean, b.mse_mean)
        assert a.config_hash == b.config_hash

    def test_different_seed_differs(self):
        a = run_replicates(_config())
        b = run_replicates(_config(master_seed=43))
        assert not np.array_equal(a.mse_mean, b.mse_mean)

    @_each_noise_kind
    def test_worker_count_invariance(self, problem):
        results = [run_replicates(_config(problem=problem, workers=w,
                                          replicates=6))
                   for w in (1, 2, 3)]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].mse_mean, other.mse_mean)
            np.testing.assert_array_equal(results[0].mse_sem, other.mse_sem)

    def test_invalid_schedule_gated(self):
        with pytest.raises(harness.ScheduleValidationError,
                           match=r"^schedule validation failed: t_j\*m = 2 "
                                 r"not in \(0, 1\] at j=0 \(\d+ indices over "
                                 r"horizon\)$"):
            _config(step=ConstantStep(2.0))   # t*m = 2 > 1
        forced = _config(step=ConstantStep(0.9), momentum=ConstantMomentum(0.9),
                         variant=SGM(), horizon=20, force_schedule=True)
        run_replicates(forced)   # no raise

    def test_forced_run_carries_schedule_report(self):
        forced = _config(step=ConstantStep(2.0), horizon=20,
                         force_schedule=True)
        assert not forced.schedule_report.ok
        assert _config(horizon=20).schedule_report.ok

    def test_momentum_run_stays_feasible(self):
        cfg = _config(variant=SGM(), momentum=ConstantMomentum(0.3),
                      step=ConstantStep(0.1), horizon=100)
        s = run_replicates(cfg)
        # domain diameter is 4, so squared error can never exceed 16
        assert np.all(s.mse_mean <= 16.0)


def _synthetic_summary(cps, mse, sem=None):
    cps = tuple(int(c) for c in cps)
    mse = np.asarray(mse, dtype=float)
    sem = np.zeros_like(mse) if sem is None else np.asarray(sem, dtype=float)
    return RunSummary(checkpoints=cps, mse_mean=mse, mse_sem=sem)


class TestFitRate:
    def test_exact_inverse_law(self):
        cps = np.array([10, 30, 100, 300, 1000])
        s = _synthetic_summary(cps, 5.0 / (cps + 1.0))
        fit = fit_rate(s, (10, 1000))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.log_constant == pytest.approx(np.log(5.0), abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_square_root_law(self):
        cps = np.array([10, 30, 100, 300, 1000])
        s = _synthetic_summary(cps, 2.0 / np.sqrt(cps + 1.0))
        fit = fit_rate(s, (10, 1000))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)

    def test_log_over_n_fits_between(self):
        cps = np.unique(np.geomspace(100, 100000, 12).astype(int))
        s = _synthetic_summary(cps, np.log(cps + 1.0) / (cps + 1.0))
        fit = fit_rate(s, (100, 100000))
        assert -1.0 < fit.exponent < -0.8

    def test_window_filters_checkpoints(self):
        cps = np.array([1, 2, 10, 30, 100, 300])
        mse = 1.0 / (cps + 1.0)
        mse[:2] = 50.0   # junk outside the window
        fit = fit_rate(_synthetic_summary(cps, mse), (10, 300))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        s = _synthetic_summary([10, 100, 1000], [0.1, 0.01, 0.001])
        with pytest.raises(ValueError, match=">= 4"):
            fit_rate(s, (10, 1000))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mse_rejected(self, bad):
        cps = np.array([10, 30, 100, 300, 1000])
        mse = 5.0 / (cps + 1.0)
        mse[2] = bad
        with pytest.raises(ValueError, match="at checkpoint 100 is"):
            fit_rate(_synthetic_summary(cps, mse), (10, 1000))

    def test_non_finite_mse_outside_window_ignored(self):
        cps = np.array([1, 10, 30, 100, 300])
        mse = 1.0 / (cps + 1.0)
        mse[0] = np.nan
        fit = fit_rate(_synthetic_summary(cps, mse), (10, 300))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)

    def test_repeated_checkpoints_rejected(self):
        s = _synthetic_summary([1, 1, 1, 1], [0.5, 0.4, 0.3, 0.2])
        with pytest.raises(ValueError,
                           match="checkpoints must be strictly increasing"):
            fit_rate(s, (1, 1))


class TestDominanceCheck:
    def test_sequence_bound_pass_and_fail(self):
        s = _synthetic_summary([1, 2, 3], [0.5, 0.4, 0.3])
        big = BoundSequence(values=np.ones(5))
        assert dominance_check(s, big).passed
        zero = BoundSequence(values=np.zeros(5))
        report = dominance_check(s, zero)
        assert not report.passed
        assert report.first_violation == 1
        assert len(report.violations) == 3

    def test_sem_slack(self):
        # mse above the bound but within 3 sem is not a violation
        s = _synthetic_summary([1, 2], [1.0, 1.0], sem=[0.5, 0.5])
        b = BoundSequence(values=np.full(3, 0.9))
        assert dominance_check(s, b).passed

    def test_short_bound_rejected(self):
        s = _synthetic_summary([1, 10], [0.1, 0.01])
        with pytest.raises(ValueError, match="shorter"):
            dominance_check(s, BoundSequence(values=np.ones(5)))

    def test_envelope_calibration_split(self):
        cps = np.array([10, 30, 100, 300])
        s = _synthetic_summary(cps, 2.0 / (cps + 1.0))
        report = dominance_check(s, RateEnvelope(case="inv_n"))
        assert report.calibrated_constant == pytest.approx(2.0)
        assert report.checked == (100, 300)
        assert report.passed

    def test_envelope_detects_wrong_order(self):
        # data decaying like 1/sqrt(N) escapes any 1/N envelope fitted early
        cps = np.unique(np.geomspace(10, 100000, 10).astype(int))
        s = _synthetic_summary(cps, 1.0 / np.sqrt(cps + 1.0))
        report = dominance_check(s, RateEnvelope(case="inv_n"))
        assert not report.passed


class TestMultistage:
    def test_drop_stages_policy(self):
        assert drop_stages(0.1, 500, 3) == [(0.1, 500), (0.05, 1000),
                                            (0.025, 2000)]

    @pytest.mark.parametrize("step", [True, "0.5"])
    def test_resolve_stages_refuses_non_numeric_steps(self, step):
        with pytest.raises(ValueError, match=(
                rf"^stage step must be a number, got {step!r}$")):
            stage_configs(_quadratic(), [(step, 10)], ZeroMomentum())

    def test_resolve_stages_checks_monotonicity(self):
        p = _quadratic()
        with pytest.raises(ValueError, match="decreasing"):
            stage_configs(p, [(0.1, 10), (0.1, 10)], ZeroMomentum())
        with pytest.raises(ValueError, match="outside"):
            stage_configs(p, [(1.5, 10)], ZeroMomentum())
        with pytest.raises(ValueError, match="need at least one stage"):
            stage_configs(p, [], ZeroMomentum())

    def test_stage_schedules_are_validated(self):
        # eta_j = 5/(j+1) >= 1 for j < 5: a run's config rejects it, and so
        # must each stage unless forced
        momentum = PolynomialMomentum(c=5.0, beta=1.0)
        stages = [(0.2, 10), (0.1, 10)]
        with pytest.raises(ValueError,
                           match=r"^stage 0 schedule validation failed: "
                                 r"eta_j >= 1 at j=0 \(5 indices\)$"):
            stage_configs(_quadratic(), stages, momentum, replicates=4)
        configs = stage_configs(_quadratic(), stages, momentum,
                                replicates=4, force_schedule=True)
        assert [c.schedule_report.ok for c in configs] == [False, False]
        # every stage is resolved before any schedule is validated
        with pytest.raises(ValueError, match="^stage length must be >= 1$"):
            stage_configs(_quadratic(), [(0.2, 10), (0.1, 0)], momentum,
                          replicates=4)

    def test_resolve_auto_uses_burn_in(self):
        p = _quadratic()
        config, = stage_configs(p, [(0.1, "auto")], ZeroMomentum())
        report, = run_multistage((config,))
        assert config.step.a == 0.1
        assert config.horizon == report.burn_in >= 1
        assert config.checkpoints == (report.burn_in,)

    def test_suffix_error_below_plateau(self):
        p = _quadratic()
        stages = drop_stages(0.1, 400, 2)
        reports = run_multistage(stage_configs(
            p, stages, ZeroMomentum(), variant=SG(), theta0=[1.0, 0.0],
            replicates=64, master_seed=7, workers=2))
        assert len(reports) == 2
        c = p.constants()
        for rep, (a_k, _n) in zip(reports, stages):
            assert rep.plateau == pytest.approx(
                constant_step_plateau(a_k, c.m, c.M, c.sigma2))
            assert rep.suffix_mse_mean < rep.plateau
        # halving the step should cut the suffix error roughly in half
        assert reports[1].suffix_mse_mean < reports[0].suffix_mse_mean

    def test_multistage_worker_invariance(self):
        p = _quadratic()
        stages = drop_stages(0.2, 50, 2)
        a = run_multistage(stage_configs(p, stages, ZeroMomentum(),
                                         theta0=[1.0, 0.0], replicates=6,
                                         master_seed=3, workers=1))
        b = run_multistage(stage_configs(p, stages, ZeroMomentum(),
                                         theta0=[1.0, 0.0], replicates=6,
                                         master_seed=3, workers=3))
        for ra, rb in zip(a, b):
            assert ra.suffix_mse_mean == rb.suffix_mse_mean
            assert ra.suffix_mse_sem == rb.suffix_mse_sem

    def test_stages_run_through_the_run_block(self, monkeypatch):
        seen = []
        run_block = harness._run_block

        def recording(stages, rep_lo, rep_hi):
            seen.append(stages)
            return run_block(stages, rep_lo, rep_hi)

        monkeypatch.setattr(harness, "_run_block", recording)
        stages = drop_stages(0.2, 20, 2)
        run_multistage(stage_configs(_quadratic(), stages, ZeroMomentum(),
                                     replicates=4))
        run_replicates(_config(horizon=20))
        multi, single = seen
        assert [(c.step.a, c.horizon, c.checkpoints) for c in multi] == [
            (a, n, (n,)) for a, n in stages]
        assert len(single) == 1


_POOL_PROBE = """
import json, sys
from sgmlab.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("concurrent", "multiprocessing"))))
"""


def _pool_modules_after(*commands) -> list:
    """The concurrent and multiprocessing modules loaded once the sgmlab
    `commands` (argument lists) have run in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_RUN_CONFIG = {"problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                         "theta_star": [0.0, 0.0]}},
               "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
               "noise": {"gaussian": {"sigma2": 1.0}},
               "variant": "sg",
               "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
               "momentum": {"zero": {}},
               "horizon": 20, "replicates": 4}


class TestPoolImport:
    """The process pool, and multiprocessing with it, is imported only for a
    config with more than one worker, and then while the config is built."""

    def test_one_worker_commands_leave_the_pool_unloaded(self, tmp_path):
        stages = {k: v for k, v in _RUN_CONFIG.items()
                  if k not in ("variant", "step", "horizon")}
        stages["stages"] = [{"a": 0.2, "n": 20}, {"a": 0.1, "n": 20}]
        commands = []
        for name, cfg in (("run", _RUN_CONFIG), ("multistage", stages)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            commands.append([name, "--config", str(path),
                             "--out", str(tmp_path / name)])
        assert _pool_modules_after(*commands) == []
        assert (tmp_path / "run" / "summary.csv").exists()
        assert (tmp_path / "multistage" / "stages.csv").exists()

    def test_two_worker_config_loads_the_pool(self, tmp_path):
        loaded = {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.json"
            path.write_text(json.dumps({**_RUN_CONFIG, "workers": workers}))
            loaded[workers] = _pool_modules_after(
                ["validate", "--config", str(path)])
        assert loaded[1] == []
        assert {"concurrent.futures.process", "multiprocessing"} <= set(
            loaded[2])

    def test_mse_enters_the_module_attribute(self, monkeypatch):
        entered = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __enter__(self):
                entered.append(self)
                return super().__enter__()

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        run_replicates(_config(horizon=20, workers=2))
        run_multistage(stage_configs(_quadratic(), drop_stages(0.2, 20, 2),
                                     ZeroMomentum(), replicates=4, workers=2))
        run_replicates(_config(horizon=20))
        assert len(entered) == 2

    def test_at_most_one_process_per_cpu(self, monkeypatch):
        # A pool that runs each block here and records its size: six
        # replicate ranges on two CPUs ask for two processes, and start none.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        one = run_replicates(_config(replicates=6))
        six = run_replicates(_config(replicates=6, workers=6))
        assert sizes == [2]
        assert one.mse_mean.tobytes() == six.mse_mean.tobytes()
        assert one.mse_sem.tobytes() == six.mse_sem.tobytes()


class TestNoiseChunkInvariance:
    """The noise chunk size only sets how many steps of noise are drawn at a
    time; no result may depend on it."""

    # 11 divides neither the 30-step horizon nor a stage length; 512 is the
    # default.
    CHUNKS = (1, 7, 11, 512, 2048)

    @_each_noise_kind
    def test_run_replicates(self, monkeypatch, problem):
        config = _config(problem=problem, variant=QHM(v=0.5),
                         step=PolynomialStep(gamma=0.5, alpha=0.7),
                         momentum=ConstantMomentum(0.5), estimator="weighted",
                         horizon=30, replicates=5)
        results = []
        for chunk in self.CHUNKS:
            monkeypatch.setattr(harness, "NOISE_CHUNK", chunk)
            results.append(run_replicates(config))
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].mse_mean, other.mse_mean)
            np.testing.assert_array_equal(results[0].mse_sem, other.mse_sem)

    def test_run_multistage(self, monkeypatch):
        # a 5-step stage is shorter than a 7-step chunk, a 12-step one longer
        stages = [(0.2, 5), (0.1, 12)]
        reports = []
        for chunk in self.CHUNKS:
            monkeypatch.setattr(harness, "NOISE_CHUNK", chunk)
            reports.append(run_multistage(stage_configs(
                _quadratic(), stages, ConstantMomentum(0.5), replicates=5,
                master_seed=8)))
        assert all(report == reports[0] for report in reports[1:])


class TestStepMajorNoise:
    """The step loop reads each chunk of noise step-major: row i of a chunk
    holds step i of every replicate, drawn from that replicate's stream."""

    @_each_noise_kind_and_lanes
    def test_chunks_are_the_replicate_draws_transposed(self, monkeypatch,
                                                       problem, lanes):
        monkeypatch.setattr(harness, "NOISE_CHUNK", 7)
        monkeypatch.setattr(harness, "NOISE_TILE", 3)
        n_steps, reps = 18, 11           # chunks of 7, 7 and a short 4
        # and tiles of 3 replicates and a short 2
        # Each replicate's finished draws: the chunk finishes its standard
        # variates at once, with the bits of finishing each draw alone.
        if isinstance(problem.noise, Minibatch):
            draw = prob_mod.minibatch_indices
        else:
            def draw(problem, rng, n_draws):
                return problem.noise.sample(rng, n_draws, problem.dimension)
        rngs = harness._replicate_rngs(3, 0, reps)
        fresh = harness._replicate_rngs(3, 0, reps)
        sizes = []
        for chunk in harness._noise_chunks(problem, rngs, n_steps, lanes):
            # Compared before the next chunk reuses the buffers. The short
            # last chunk must hold its 4 fresh steps and nothing left over
            # from the 7-step chunk before it.
            expected = np.stack([draw(problem, rng, len(chunk))
                                 for rng in fresh], axis=1)
            assert chunk.dtype == expected.dtype
            assert np.array_equal(chunk, expected)
            sizes.append(len(chunk))
        assert sizes == [7, 7, 4]

    def test_one_chunk_buffer_alive(self):
        # Each replicate draws straight into the reused step-major buffer,
        # so draining the chunks holds about one chunk, not two.
        problem, reps, n_steps = _quadratic(), 300, 2 * harness.NOISE_CHUNK
        rngs = harness._replicate_rngs(0, 0, reps)
        chunk_bytes = harness.NOISE_CHUNK * reps * problem.dimension * 8
        tracemalloc.start()
        try:
            for _chunk in harness._noise_chunks(problem, rngs, n_steps):
                pass
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes

    def test_minibatch_buffer_holds_narrow_indices(self):
        # 20,000 rows index in int16: draining R=200, b=8 over two chunks
        # holds one chunk of 2-byte indices, the tile and one int64 draw.
        # In int64 the step-major buffer alone is 4x a narrow chunk.
        problem, reps = _erm_with_rows(20_000, batch=8), 200
        rngs = harness._replicate_rngs(0, 0, reps)
        chunk_bytes = harness.NOISE_CHUNK * reps * 8 * 2
        tracemalloc.start()
        try:
            for _chunk in harness._noise_chunks(problem, rngs,
                                                2 * harness.NOISE_CHUNK):
                pass
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes

    def test_lemma1_shape_stays_small(self):
        # R=2000 replicates of d=2 over two chunks: the step-major buffer
        # and one tile, with no per-replicate temporaries.
        problem, reps = _quadratic(), 2000
        rngs = harness._replicate_rngs(0, 0, reps)
        tracemalloc.start()
        try:
            for _chunk in harness._noise_chunks(problem, rngs,
                                                2 * harness.NOISE_CHUNK):
                pass
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestIndexDtype:
    """Mini-batch indices are held in the narrowest signed integer type that
    holds every row index; the draw is still the int64 integers call."""

    @pytest.mark.parametrize("n_rows, dtype", [
        (128, np.int8), (129, np.int16),
        (32_768, np.int16), (32_769, np.int32)])
    def test_row_count_picks_the_type(self, n_rows, dtype):
        problem = _erm_with_rows(n_rows)
        assert prob_mod.noise_kind(problem)[2] == dtype
        drawn = prob_mod.minibatch_indices(
            problem, harness._replicate_rngs(1, 0, 1)[0], 600)
        assert drawn.dtype == dtype
        stream = harness._replicate_rngs(1, 0, 1)[0].integers(
            0, n_rows, (600, 3))
        assert np.array_equal(drawn, stream)

    @pytest.mark.parametrize("n_rows, dtype", [
        (2**31, np.int32), (2**31 + 1, np.int64)])
    def test_past_int32(self, n_rows, dtype):
        assert prob_mod.index_dtype(n_rows) == dtype

    @pytest.mark.parametrize("n_rows", [100, 20_000])
    def test_gradient_from_narrow_indices_is_the_int64_one(self, n_rows):
        problem = _erm_with_rows(n_rows, batch=8)
        rng = np.random.default_rng(2)
        theta = rng.uniform(-1.0, 1.0, (64, 2))
        wide = rng.integers(0, n_rows, (64, 8))
        narrow = wide.astype(prob_mod.index_dtype(n_rows))
        assert narrow.itemsize < wide.itemsize
        assert (problem.per_sample_gradient(theta, narrow).tobytes()
                == problem.per_sample_gradient(theta, wide).tobytes())


def test_replicate_rng_is_default_rngs_stream():
    for seed, r in [(0, 0), (42, 5), (20240901, 1999)]:
        ours, = harness._replicate_rngs(seed, r, r + 1)
        theirs = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        assert (ours.standard_normal(7).tobytes()
                == theirs.standard_normal(7).tobytes())
        assert np.array_equal(ours.integers(0, 1000, 7),
                              theirs.integers(0, 1000, 7))


class TestReplicateRngs:
    """Streams built a block at a time are default_rng's spawned streams."""

    SEEDS = (0, 1, 2**32 - 1, 2**32, 20240901, 2**64 + 5, 2**128 + 7)

    @pytest.mark.parametrize("lo, hi", [(0, 2000), (1000, 2000), (1999, 2000)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_is_default_rngs_streams(self, seed, lo, hi):
        rngs = harness._replicate_rngs(seed, lo, hi)
        assert len(rngs) == hi - lo
        for r, ours in zip(range(lo, hi), rngs):
            theirs = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            assert ours.bit_generator.seed_seq.spawn_key == (r,)
            assert ours.bit_generator.state == theirs.bit_generator.state
        for r in sorted({lo, hi - 1}):
            ours = rngs[r - lo]
            theirs = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            assert (ours.standard_normal(7).tobytes()
                    == theirs.standard_normal(7).tobytes())

    def test_numpy_integer_seed(self):
        ours = harness._replicate_rngs(np.int64(7), 0, 3)
        theirs = harness._replicate_rngs(7, 0, 3)
        assert ([g.bit_generator.state for g in ours]
                == [g.bit_generator.state for g in theirs])

    @pytest.mark.parametrize("seed", [0, 2**64 + 5])
    def test_seed_words_are_seed_sequences(self, seed):
        ours = harness._replicate_rngs(seed, 11, 12)[0].bit_generator.seed_seq
        theirs = np.random.SeedSequence(entropy=seed, spawn_key=(11,))
        assert ours.entropy == seed
        for n in range(1, 5):
            assert np.array_equal(ours.generate_state(n, np.uint64),
                                  theirs.generate_state(n, np.uint64))
        with pytest.raises(ValueError, match="4 uint64 words; 5 of uint64"):
            ours.generate_state(5, np.uint64)
        with pytest.raises(ValueError, match="4 uint64 words; 2 of uint32"):
            ours.generate_state(2)


class TestNoiseCallPattern:
    """_noise_chunks calls the noise_kind draw once per replicate per chunk
    and the finisher once per chunk, over the whole chunk; the benchmark's
    tracer counts and times these calls. On more than one lane the draws of
    a chunk run on that many threads, in no fixed order between lanes;
    mini-batch draws stay on one."""

    @_each_noise_kind_and_lanes
    def test_one_draw_per_replicate_and_one_finish_per_chunk(
            self, monkeypatch, problem, lanes):
        monkeypatch.setattr(harness, "NOISE_CHUNK", 7)
        monkeypatch.setattr(harness, "NOISE_TILE", 3)
        n_steps, reps = 18, 11           # chunks of 7, 7 and a short 4
        # and tiles of 3 replicates and a short 2
        draw, width, dtype, finish, gradient, threaded = (
            prob_mod.noise_kind(problem))
        draws, finishes = [], []

        def counted_draw(problem, rng, k, out=None):
            draws.append((rng.bit_generator.seed_seq.spawn_key[0], k,
                          threading.current_thread()))
            return draw(problem, rng, k, out=out)

        def counted_finish(chunk):
            finishes.append(chunk.shape)
            return finish(chunk)

        monkeypatch.setattr(prob_mod, "noise_kind", lambda problem: (
            counted_draw, width, dtype,
            None if finish is None else counted_finish, gradient, threaded))
        rngs = harness._replicate_rngs(3, 0, reps)
        chunks = []
        for chunk in harness._noise_chunks(problem, rngs, n_steps, lanes):
            assert len(finishes) == (0 if finish is None else len(draws) // reps)
            chunks.append(draws[-reps:])
        assert len(draws) == len(chunks) * reps
        for k, calls in zip((7, 7, 4), chunks, strict=True):
            threads = {thread for _, _, thread in calls}
            assert threading.current_thread() in threads
            assert len(threads) == (
                1 if isinstance(problem.noise, Minibatch) else lanes)
            if lanes == 1:
                assert [c[:2] for c in calls] == [(r, k) for r in range(reps)]
            else:
                assert sorted(c[:2] for c in calls) == [
                    (r, k) for r in range(reps)]
        if finish is None:
            assert finishes == []
        else:
            assert finishes == [(k, reps, width) for k in (7, 7, 4)]


def _reference_advance(config, theta0, rngs, rep_lo=0):
    """The engine's block loop on the reference kernel, one pure, checked
    step at a time: the final iterates and the squared estimator errors."""
    problem = config.problem
    gradient = prob_mod.noise_kind(problem)[4]
    t = config.step.steps(config.horizon)
    eta = config.momentum.weights(t)
    state = Batch(theta0, config.variant, problem.domain)
    estimator = make_estimator(config.estimator, config.suffix_start)
    estimator.observe(state.theta_curr, 0)
    out = []
    j = 0
    for noise in harness._noise_chunks(problem, rngs, config.horizon):
        for noise_j in noise:
            g = gradient(state.theta_curr, noise_j)
            try:
                state = reference_step(state, g, float(t[j]), float(eta[j]),
                                       j)
            except NumericFailureError as err:
                raise NumericFailureError(
                    f"non-finite value in replicate {rep_lo + err.row}",
                    j) from None
            j += 1
            estimator.observe(state.theta_curr, j)
            if j in config.checkpoints:
                delta = estimator.current() - problem.theta_star
                out.append(np.sum(delta * delta, axis=-1))
    return state.theta_curr, np.array(out)


_TIGHT_DOMAINS = {
    "ball": Ball(center=[0.0, 0.0], radius=0.5),
    "box": Box(lower=[-0.3, -0.5], upper=[0.4, 0.2]),
}


def _engine_and_reference(config, reps):
    theta0 = np.random.default_rng(5).uniform(-0.2, 0.2, (reps, 2))
    results = []
    for advance in (harness._advance_block, _reference_advance):
        rngs = harness._replicate_rngs(config.master_seed, 0, reps)
        with np.errstate(over="ignore", invalid="ignore"):
            results.append(advance(config, theta0, rngs, 0))
    return results


class TestEngineMatchesReference:
    """The in-place engine kernel with its per-chunk check gives the bits
    of the reference kernel's checked loop."""

    @pytest.mark.parametrize("estimator", ["last", "suffix", "weighted"])
    @pytest.mark.parametrize("domain", sorted(_TIGHT_DOMAINS))
    @pytest.mark.parametrize("variant", [SG(), SGM(), NormalizedSGM(),
                                         QHM(v=0.7)],
                             ids=["sg", "sgm", "nsgm", "qhm"])
    def test_bit_for_bit(self, monkeypatch, variant, domain, estimator):
        monkeypatch.setattr(harness, "NOISE_CHUNK", 16)   # 3 chunks
        problem = Quadratic(hessian_diag=[1.0, 3.0], theta_star=[0.1, -0.1],
                            domain=_TIGHT_DOMAINS[domain],
                            noise=Gaussian(sigma2=4.0))
        config = _config(problem=problem, variant=variant,
                         step=PolynomialStep(gamma=0.8, alpha=0.7),
                         momentum=PolynomialMomentum(c=0.9, beta=0.5),
                         estimator=estimator, suffix_start=10, horizon=45,
                         replicates=5)
        (theta, out), (ref_theta, ref_out) = _engine_and_reference(config, 5)
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize("variant", [SGM(), QHM(v=0.7)],
                             ids=["sgm", "qhm"])
    def test_box_clips_overflowing_proposals(self, monkeypatch, variant):
        # Every proposal overflows to +-inf and the box clips it back inside,
        # so every chunk fails the check and its replay finds no failure.
        monkeypatch.setattr(harness, "NOISE_CHUNK", 16)
        problem = Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                            domain=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
                            noise=Gaussian(sigma2=1e300))
        config = _config(problem=problem, variant=variant,
                         step=ConstantStep(1e300),
                         momentum=ConstantMomentum(0.5), horizon=40,
                         replicates=4, force_schedule=True)
        (theta, out), (ref_theta, ref_out) = _engine_and_reference(config, 4)
        assert np.all(np.isfinite(out))
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(out, ref_out)


def _inject_non_finite(monkeypatch, replicate, step):
    """Make replicate's noise, and so its gradient, infinite at step, by
    wrapping the noise draw. Pool workers are forked and inherit the
    patch."""
    draw, width, dtype, finish, gradient, threaded = prob_mod.noise_kind(
        _quadratic())
    drawn = {}

    def bad_draw(problem, rng, k, out=None):
        r = rng.bit_generator.seed_seq.spawn_key[0]
        pos = drawn.get(r, 0)
        drawn[r] = pos + k
        out = draw(problem, rng, k, out=out)
        if r == replicate and pos <= step < pos + k:
            out[step - pos] = np.inf
        return out

    monkeypatch.setattr(prob_mod, "noise_kind",
                        lambda problem: (bad_draw, width, dtype, finish,
                                         gradient, threaded))


class TestChunkFailure:
    """A non-finite value found by the per-chunk check is reported at the
    reference kernel's step and replicate."""

    # Steps 2047 and 2048 straddle a chunk boundary (2048 is a multiple of
    # the 512-step chunk), 2100 is a middle step of the last chunk, and 2199
    # is the horizon's last step. On the box the infinite proposal is
    # clipped back inside, so no iterate shows it. A QHM replay that started
    # from the chunk's last velocity would fail at the chunk's first step.
    @pytest.mark.parametrize("step", [2047, 2048, 2100, 2199])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("domain", [
        Ball(center=[0.0, 0.0], radius=2.0),
        Box(lower=[-2.0, -2.0], upper=[2.0, 2.0])], ids=["ball", "box"])
    @pytest.mark.parametrize("variant", [SGM(), QHM(v=0.7)],
                             ids=["sgm", "qhm"])
    def test_failure_names_reference_step_and_replicate(
            self, monkeypatch, variant, domain, workers, step):
        problem = Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                            domain=domain, noise=Gaussian(sigma2=1.0))
        config = _config(problem=problem, variant=variant,
                         momentum=ConstantMomentum(0.5), theta0=[1.0, 0.0],
                         horizon=2200, replicates=4, workers=workers)
        _inject_non_finite(monkeypatch, 3, step)
        with pytest.raises(NumericFailureError) as engine:
            run_replicates(config)
        _inject_non_finite(monkeypatch, 3, step)
        rngs = harness._replicate_rngs(config.master_seed, 0, 4)
        with pytest.raises(NumericFailureError) as reference:
            with np.errstate(over="ignore", invalid="ignore"):
                _reference_advance(config, np.tile(config.theta0, (4, 1)),
                                   rngs)
        assert str(engine.value) == str(reference.value) == (
            f"non-finite value in replicate 3 at step {step}")


def _force_lanes(monkeypatch, lanes):
    """Give every engine block `lanes` noise lanes, whatever the CPUs."""
    monkeypatch.setattr(harness, "_process_lanes", lambda workers: lanes)


class TestNoiseLanes:
    """A one-worker run splits each noise chunk's replicate tiles over as
    many threads as its CPUs allow. Every replicate draws from its own
    stream into its own columns, so no output depends on the lane count;
    no helper thread outlives its chunk, and a helper's error reaches the
    caller."""

    # Three 64-replicate tiles and a short one of 10, over a 512-step chunk
    # and a short one of 88.
    REPS, STEPS = 3 * 64 + 10, 600
    ADDITIVE = pytest.mark.parametrize(
        "problem", [_NOISE_KINDS["gaussian"],
                    _NOISE_KINDS["bounded_rademacher"]],
        ids=["gaussian", "bounded_rademacher"])

    @ADDITIVE
    def test_chunks_do_not_depend_on_lanes(self, problem):
        drained = {}
        for lanes in (1, 2, 3):
            rngs = harness._replicate_rngs(9, 0, self.REPS)
            drained[lanes] = [chunk.tobytes() for chunk in
                              harness._noise_chunks(problem, rngs,
                                                    self.STEPS, lanes)]
        assert [len(c) for c in drained[1]] == [
            512 * self.REPS * 2 * 8, 88 * self.REPS * 2 * 8]
        assert drained[1] == drained[2] == drained[3]

    @ADDITIVE
    def test_summary_csv_does_not_depend_on_lanes(self, monkeypatch,
                                                  problem):
        from sgmlab.cli import summary_csv
        config = _config(problem=problem, horizon=self.STEPS,
                         replicates=self.REPS)
        sample = prob_mod.noise_sample
        tables = {}
        for lanes in (1, 2, 3):
            threads = set()

            def recorded(*args, **kwargs):
                threads.add(threading.current_thread())
                return sample(*args, **kwargs)

            monkeypatch.setattr(prob_mod, "noise_sample", recorded)
            _force_lanes(monkeypatch, lanes)
            tables[lanes] = summary_csv(run_replicates(config))
            # the calling thread, and lanes - 1 fresh helpers per chunk
            assert len(threads) == 1 + (lanes - 1) * 2
        assert tables[1] == tables[2] == tables[3]

    def test_lanes_share_out_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3, 4}, raising=False)
        assert [harness._process_lanes(w) for w in (1, 2, 3, 5, 8)] == [
            5, 2, 1, 1, 1]

    def test_no_more_lanes_than_tiles(self, monkeypatch):
        # 100 replicates are two 64-replicate tiles.
        sample = prob_mod.noise_sample
        threads = set()

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread())
            return sample(*args, **kwargs)

        monkeypatch.setattr(prob_mod, "noise_sample", recorded)
        rngs = harness._replicate_rngs(0, 0, 100)
        for _chunk in harness._noise_chunks(_quadratic(), rngs, 10, lanes=8):
            pass
        assert len(threads) == 2

    def test_helper_lane_error_reaches_the_caller(self, monkeypatch):
        sample = prob_mod.noise_sample
        drawn, raised = [], []

        def failing(problem, rng, k, out=None):
            drawn.append(k)
            if threading.current_thread() is not runner:
                raise RuntimeError("draw failed in a helper lane")
            return sample(problem, rng, k, out=out)

        def run():
            try:
                run_replicates(_config(horizon=self.STEPS,
                                       replicates=self.REPS))
            except RuntimeError as err:
                raised.append(err)

        monkeypatch.setattr(prob_mod, "noise_sample", failing)
        _force_lanes(monkeypatch, 2)
        before = threading.active_count()
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [str(err) for err in raised] == ["draw failed in a helper lane"]
        # the run stopped in its first chunk, with every thread joined
        assert len(drawn) <= self.REPS and set(drawn) == {512}
        assert threading.active_count() == before

    def test_lane_without_a_thread_runs_on_the_caller(self, monkeypatch,
                                                      tmp_path):
        # Where no helper thread can start, the caller fills its lane too,
        # and the run writes the one-lane bytes.
        from sgmlab.cli import main
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**_RUN_CONFIG, "horizon": self.STEPS}))
        monkeypatch.setattr(harness, "NOISE_TILE", 2)   # 4 replicates: 2 tiles
        refused = []

        def start(thread):
            refused.append(thread)
            raise RuntimeError("can't start new thread")

        tables = {}
        for lanes in (1, 2):
            _force_lanes(monkeypatch, lanes)
            if lanes == 2:
                monkeypatch.setattr(threading.Thread, "start", start)
            out = tmp_path / f"lanes{lanes}"
            assert main(["run", "--config", str(path), "--out",
                         str(out)]) == 0
            tables[lanes] = (out / "summary.csv").read_bytes()
        assert len(refused) == 2    # one helper per chunk
        assert tables[1] == tables[2]

    def test_many_lanes_under_fast_thread_switches(self):
        # More lanes than CPUs, switching threads every microsecond: the
        # lanes write disjoint columns, so the bytes are still lane 1's.
        problem = _NOISE_KINDS["gaussian"]
        drained = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in (1, 4):
                rngs = harness._replicate_rngs(5, 0, self.REPS)
                drained[lanes] = [chunk.tobytes() for chunk in
                                  harness._noise_chunks(problem, rngs,
                                                        self.STEPS, lanes)]
        finally:
            sys.setswitchinterval(interval)
        assert drained[1] == drained[4]

    def test_no_thread_outlives_a_run(self, monkeypatch):
        split = []
        on_threads = harness._on_threads

        def counted(calls, *args):
            split.append(len(calls))
            return on_threads(calls, *args)

        monkeypatch.setattr(harness, "_on_threads", counted)
        monkeypatch.setattr(harness, "NOISE_TILE", 2)   # 4 replicates: 2 tiles
        _force_lanes(monkeypatch, 2)
        before = threading.active_count()
        run_replicates(_config(horizon=self.STEPS, replicates=4))
        assert split == [2, 2]
        assert threading.active_count() == before
        # stopped by a numeric failure in the middle of the second chunk
        _inject_non_finite(monkeypatch, 3, 700)
        with pytest.raises(NumericFailureError, match="replicate 3 at step 700"):
            run_replicates(_config(horizon=1000, replicates=4))
        assert split[2:] == [2, 2]
        assert threading.active_count() == before
