import tracemalloc

import numpy as np
import pytest

from sgmlab import harness
from sgmlab import problems as prob_mod
from sgmlab.bounds import BoundSequence, RateEnvelope, constant_step_plateau
from sgmlab.geometry import Ball, Box
from sgmlab.harness import (ExperimentConfig, RunSummary, default_checkpoints,
                            dominance_check, drop_stages, fit_rate,
                            resolve_stages, run_multistage, run_replicates)
from sgmlab.estimators import make_estimator
from sgmlab.optimizers import (QHM, SG, SGM, NormalizedSGM,
                               NumericFailureError, StepParams, init,
                               reference_step)
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

    def test_bad_theta0_string_rejected(self):
        with pytest.raises(ValueError):
            _config(theta0="origin")

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

    @pytest.mark.parametrize("workers", [0, -5])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            _config(workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_multistage(_quadratic(), drop_stages(0.2, 5, 2),
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
            run_multistage(_quadratic(), stages, ZeroMomentum(),
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


_each_noise_kind = pytest.mark.parametrize("problem", [
    _quadratic(),
    Quadratic(hessian_diag=[1.0, 2.0], theta_star=[0.1, 0.0],
              domain=Ball(center=[0.0, 0.0], radius=2.0),
              noise=BoundedRademacher(sigma2=1.0)),
    _erm_minibatch(),
], ids=["gaussian", "bounded_rademacher", "minibatch"])


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
        cfg = _config(step=ConstantStep(2.0))   # t*m = 2 > 1
        with pytest.raises(ValueError, match="validation"):
            run_replicates(cfg)
        forced = _config(step=ConstantStep(0.9), momentum=ConstantMomentum(0.9),
                         variant=SGM(), horizon=20, force_schedule=True)
        run_replicates(forced)   # no raise

    def test_forced_run_carries_schedule_report(self):
        forced = _config(step=ConstantStep(2.0), horizon=20,
                         force_schedule=True)
        assert not run_replicates(forced).schedule_report.ok
        assert run_replicates(_config(horizon=20)).schedule_report.ok

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
    return RunSummary(checkpoints=cps, mse_mean=mse, mse_sem=sem,
                      estimator="last", replicates=2, master_seed=0,
                      config_hash="x", wall_time=0.0)


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

    def test_resolve_stages_checks_monotonicity(self):
        p = _quadratic()
        with pytest.raises(ValueError, match="decreasing"):
            resolve_stages(p, [(0.1, 10), (0.1, 10)])
        with pytest.raises(ValueError, match="outside"):
            resolve_stages(p, [(1.5, 10)])
        with pytest.raises(ValueError, match="need at least one stage"):
            resolve_stages(p, [])

    def test_stage_schedules_are_validated(self):
        # eta_j = 5/(j+1) >= 1 for j < 5: run_replicates rejects it, and so
        # must each stage unless forced
        momentum = PolynomialMomentum(c=5.0, beta=1.0)
        stages = [(0.2, 10), (0.1, 10)]
        with pytest.raises(ValueError,
                           match="stage 0 schedule validation failed"):
            run_multistage(_quadratic(), stages, momentum, replicates=4)
        reports = run_multistage(_quadratic(), stages, momentum,
                                 replicates=4, force_schedule=True)
        assert [r.schedule_report.ok for r in reports] == [False, False]

    def test_resolve_auto_uses_burn_in(self):
        p = _quadratic()
        (a, length, burn), = resolve_stages(p, [(0.1, "auto")])
        assert a == 0.1 and length == burn >= 1

    def test_suffix_error_below_plateau(self):
        p = _quadratic()
        stages = drop_stages(0.1, 400, 2)
        reports = run_multistage(p, stages, ZeroMomentum(), variant=SG(),
                                 theta0=[1.0, 0.0], replicates=64,
                                 master_seed=7, workers=2)
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
        a = run_multistage(p, stages, ZeroMomentum(), theta0=[1.0, 0.0],
                           replicates=6, master_seed=3, workers=1)
        b = run_multistage(p, stages, ZeroMomentum(), theta0=[1.0, 0.0],
                           replicates=6, master_seed=3, workers=3)
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
        run_multistage(_quadratic(), stages, ZeroMomentum(), replicates=4)
        run_replicates(_config(horizon=20))
        multi, single = seen
        assert [(c.step.a, c.horizon, c.checkpoints) for c in multi] == [
            (a, n, (n,)) for a, n in stages]
        assert len(single) == 1


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
            reports.append(run_multistage(_quadratic(), stages,
                                          ConstantMomentum(0.5), replicates=5,
                                          master_seed=8))
        assert all(report == reports[0] for report in reports[1:])


class TestStepMajorNoise:
    """The step loop reads each chunk of noise step-major: row i of a chunk
    holds step i of every replicate, drawn from that replicate's stream."""

    @_each_noise_kind
    def test_chunks_are_the_replicate_draws_transposed(self, monkeypatch,
                                                       problem):
        monkeypatch.setattr(harness, "NOISE_CHUNK", 7)
        monkeypatch.setattr(harness, "NOISE_TILE", 3)
        n_steps, reps = 18, 5            # chunks of 7, 7 and a short 4
        # and tiles of 3 replicates and a short 2
        if isinstance(problem.noise, Minibatch):
            draw = prob_mod.minibatch_indices
        else:
            draw = prob_mod.noise_sample
        rngs = [harness._replicate_rng(3, r) for r in range(reps)]
        fresh = [harness._replicate_rng(3, r) for r in range(reps)]
        sizes = []
        for chunk in harness._noise_chunks(problem, rngs, n_steps):
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
        rngs = [harness._replicate_rng(0, r) for r in range(reps)]
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
        rngs = [harness._replicate_rng(0, r) for r in range(reps)]
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
        rngs = [harness._replicate_rng(0, r) for r in range(reps)]
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
            problem, harness._replicate_rng(1, 0), 600)
        assert drawn.dtype == dtype
        stream = harness._replicate_rng(1, 0).integers(0, n_rows, (600, 3))
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
        ours = harness._replicate_rng(seed, r)
        theirs = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        assert (ours.standard_normal(7).tobytes()
                == theirs.standard_normal(7).tobytes())
        assert np.array_equal(ours.integers(0, 1000, 7),
                              theirs.integers(0, 1000, 7))


def _reference_advance(config, theta0, rngs, rep_lo=0):
    """The engine's block loop on the reference kernel, one pure, checked
    step at a time: the final iterates and the squared estimator errors."""
    problem, variant = config.problem, config.variant
    domain = problem.domain
    gradient = prob_mod.noise_kind(problem)[3]
    t = config.step.step_size(np.arange(config.horizon))
    eta = config.momentum.weight(np.arange(config.horizon), t)
    state = init(theta0, variant, domain)
    estimator = make_estimator(config.estimator, config.suffix_start)
    estimator.observe(state.theta_curr, 0)
    out = []
    j = 0
    for noise in harness._noise_chunks(problem, rngs, config.horizon):
        for noise_j in noise:
            g = gradient(state.theta_curr, noise_j)
            try:
                state = reference_step(
                    state, g, StepParams(float(t[j]), float(eta[j])), variant,
                    domain)
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
        rngs = [harness._replicate_rng(config.master_seed, r)
                for r in range(reps)]
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
    draw, width, dtype, gradient = prob_mod.noise_kind(_quadratic())
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
                        lambda problem: (bad_draw, width, dtype, gradient))


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
        rngs = [harness._replicate_rng(config.master_seed, r)
                for r in range(4)]
        with pytest.raises(NumericFailureError) as reference:
            with np.errstate(over="ignore", invalid="ignore"):
                _reference_advance(config, np.tile(config.theta0, (4, 1)),
                                   rngs)
        assert str(engine.value) == str(reference.value) == (
            f"non-finite value in replicate 3 at step {step}")
