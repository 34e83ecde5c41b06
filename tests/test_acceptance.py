"""End-to-end acceptance runs on the reference problem.

Reference setup throughout: 2-D quadratic with unit Hessian, minimizer at the
origin of a radius-2 ball, additive noise with sigma^2 = 1, start at (1, 0).
Constants: m = 1, sqrt(M) = 2, M + sigma^2 = 5, diameter L = 4.

Each test records a single PASS/FAIL line; conftest.py prints them all in
the terminal summary after the run.
"""

import json
import os

import numpy as np
import pytest

from conftest import record_verdict

from sgmlab.bounds import (RateEnvelope, constant_step_plateau,
                           sg_recursion_bound, stage_burn_in)
from sgmlab.cli import main as cli_main
from sgmlab.geometry import Ball
from sgmlab.harness import (ExperimentConfig, dominance_check, drop_stages,
                            fit_rate, run_multistage, run_replicates)
from sgmlab.optimizers import (QHM, SG, SGM, NormalizedSGM, StepParams, init,
                               map_qhm_to_nsgm, reference_step)
from sgmlab.problems import (BoundedRademacher, Gaussian, Quadratic,
                             subgradient_batch)
from sgmlab.schedules import (ConstantStep, PolynomialMomentum, PolynomialStep,
                              ZeroMomentum)

# No more workers than cores: results do not depend on the worker count,
# and criterion 10 compares 1, 4 and 8 workers itself.
WORKERS = min(4, os.cpu_count() or 1)
DOMAIN = Ball(center=[0.0, 0.0], radius=2.0)
THETA0 = [1.0, 0.0]


def _problem(noise=None):
    return Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                     domain=DOMAIN,
                     noise=Gaussian(sigma2=1.0) if noise is None else noise)


def _report(criterion: int, passed: bool, detail: str):
    line = f"[acceptance {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}"
    record_verdict(line)
    assert passed, line


def _big_run(variant, momentum, force=False):
    cfg = ExperimentConfig(
        problem=_problem(), variant=variant,
        step=PolynomialStep(gamma=1.0, alpha=1.0), momentum=momentum,
        theta0=THETA0, horizon=100_000, replicates=2000,
        master_seed=20240901, workers=WORKERS, force_schedule=force)
    return run_replicates(cfg)


def test_criterion_1_diminishing_step_rate():
    summary = _big_run(SG(), ZeroMomentum())
    fit = fit_rate(summary, (1000, 100_000))
    ok = -1.15 <= fit.exponent <= -0.85 and fit.r2 >= 0.98
    _report(1, ok, f"SG t_j=1/(j+1) fitted exponent {fit.exponent:.4f} "
                   f"(target [-1.15, -0.85]), r2 {fit.r2:.5f} (>= 0.98)")


def test_criterion_2_summable_momentum_rate():
    summary = _big_run(SGM(), PolynomialMomentum(c=0.9, beta=2.0))
    fit = fit_rate(summary, (1000, 100_000))
    ok = -1.15 <= fit.exponent <= -0.85
    _report(2, ok, f"SGM eta_j=0.9/(j+1)^2 fitted exponent {fit.exponent:.4f} "
                   f"(target [-1.15, -0.85]), r2 {fit.r2:.5f}")


def test_criterion_3_envelope_dominance():
    # eta_j = 1/(j+1): calibrated log(N+1)/(N+1) envelope, out of sample
    s_log = _big_run(SGM(), PolynomialMomentum(c=1.0, beta=1.0), force=True)
    dom_log = dominance_check(s_log, RateEnvelope(case="log_n_over_n"))
    # eta_j = 1/(j+1)^(1/2): 1/((1-b)(N+1)^b) envelope plus an order check
    s_half = _big_run(SGM(), PolynomialMomentum(c=1.0, beta=0.5), force=True)
    dom_half = dominance_check(s_half,
                               RateEnvelope(case="inv_n_beta", beta=0.5))
    fit = fit_rate(s_half, (1000, 100_000))
    ok = dom_log.passed and dom_half.passed and fit.exponent <= -0.35
    _report(3, ok,
            f"SGM envelopes: log-case violations {len(dom_log.violations)}, "
            f"sqrt-case violations {len(dom_half.violations)}, "
            f"sqrt-case exponent {fit.exponent:.4f} (<= -0.35)")


@pytest.mark.parametrize("label,stepsched", [
    ("constant a=0.1", ConstantStep(0.1)),
    ("t_j=1/(j+1)", PolynomialStep(gamma=1.0, alpha=1.0)),
])
@pytest.mark.parametrize("noise_label,noise", [
    ("gaussian", Gaussian(sigma2=1.0)),
    ("rademacher", BoundedRademacher(sigma2=1.0)),
])
def test_criterion_4_recursion_dominance(label, stepsched, noise_label, noise):
    p = _problem(noise)
    cfg = ExperimentConfig(
        problem=p, variant=SG(), step=stepsched, momentum=ZeroMomentum(),
        theta0=THETA0, horizon=5000, replicates=2000, master_seed=7,
        workers=WORKERS)
    summary = run_replicates(cfg)
    c = p.constants()
    bound = sg_recursion_bound(1.0, stepsched, c.m, c.M, c.sigma2, 5000)
    dom = dominance_check(summary, bound)
    _report(4, dom.passed,
            f"SG recursion dominance [{label}, {noise_label} noise]: "
            f"{len(dom.violations)} violations over "
            f"{len(dom.checked)} checkpoints")


def test_criterion_5_plateau_level_and_scaling():
    p = _problem()
    c = p.constants()
    tails = {}
    ok = True
    details = []
    for a, horizon in ((0.1, 2000), (0.01, 10_000)):
        n_a = stage_burn_in(a, c.m, 1.0, c.M, c.sigma2)
        assert horizon >= 10 * n_a
        cfg = ExperimentConfig(
            problem=p, variant=SG(), step=ConstantStep(a),
            momentum=ZeroMomentum(), theta0=THETA0, horizon=horizon,
            replicates=2000, master_seed=11, workers=WORKERS)
        s = run_replicates(cfg)
        cps = np.asarray(s.checkpoints)
        tail = cps >= 10 * n_a
        plateau = constant_step_plateau(a, c.m, c.M, c.sigma2)
        level = float(s.mse_mean[tail].mean())
        slack = 3.0 * float(s.mse_sem[tail].max())
        tails[a] = level
        ok = ok and level <= plateau + slack
        details.append(f"a={a}: tail mse {level:.4f} vs plateau {plateau} "
                       f"(+3sem {slack:.4f})")
    ratio = tails[0.1] / tails[0.01]
    ok = ok and 5.0 <= ratio <= 20.0
    _report(5, ok, "; ".join(details) + f"; tail ratio {ratio:.2f} in [5, 20]")


def test_criterion_6_momentum_stage_plateau():
    p = _problem()
    c = p.constants()
    a = 0.1
    cfg = ExperimentConfig(
        problem=p, variant=SGM(), step=ConstantStep(a),
        momentum=PolynomialMomentum(c=0.9, beta=0.5), estimator="suffix",
        suffix_start=0, theta0=THETA0, horizon=5000, replicates=2000,
        master_seed=13, workers=WORKERS)
    s = run_replicates(cfg)
    n_a = stage_burn_in(a, c.m, c.L ** 2, c.M, c.sigma2)
    plateau = constant_step_plateau(a, c.m, c.M, c.sigma2)
    cps = np.asarray(s.checkpoints)
    past = cps >= n_a
    bad = s.mse_mean[past] > plateau + 3.0 * s.mse_sem[past]
    _report(6, not bad.any(),
            f"SGM suffix average under plateau {plateau} past N_a={n_a}: "
            f"{int(bad.sum())} of {int(past.sum())} checkpoints above")


def test_criterion_7_constant_and_drop():
    p = _problem()
    reports = run_multistage(
        p, drop_stages(0.1, 500, 4), PolynomialMomentum(c=0.9, beta=0.5),
        variant=SGM(), theta0=THETA0, replicates=2000, master_seed=17,
        workers=WORKERS)
    levels = [r.suffix_mse_mean for r in reports]
    decreasing = all(b < a for a, b in zip(levels, levels[1:]))
    under = all(r.suffix_mse_mean <= r.plateau + 3.0 * r.suffix_mse_sem
                for r in reports)
    _report(7, decreasing and under,
            "4-stage drop suffix mse " +
            " > ".join(f"{x:.4f}" for x in levels) +
            f" (decreasing={decreasing}, under plateaus={under})")


def test_criterion_8_reductions_and_coupling():
    rng = np.random.default_rng(23)
    gs = rng.normal(size=(1000, 2))
    horizonless = Ball(center=[0.0, 0.0], radius=2.0)

    def run(variant, t, eta):
        st = init(THETA0, variant, horizonless)
        out = []
        for g in gs:
            st = reference_step(st, g, StepParams(t, eta), variant,
                                horizonless)
            out.append(st.theta_curr)
        return np.asarray(out)

    sg = run(SG(), 0.05, 0.0)
    exact = (np.array_equal(sg, run(SGM(), 0.05, 0.0))
             and np.array_equal(sg, run(QHM(v=0.0), 0.05, 0.7)))

    qhm = run(QHM(v=1.0), 0.05, 0.7)
    nsgm = run(NormalizedSGM(), *map_qhm_to_nsgm(alpha=0.05, beta=0.7))
    dev = float(np.max(np.abs(qhm - nsgm)))
    _report(8, exact and dev <= 1e-12,
            f"SGM(eta=0) and QHM(v=0) match SG bit-for-bit: {exact}; "
            f"QHM(v=1) vs normalized form max deviation {dev:.2e} (<= 1e-12)")


def test_criterion_9_assumption_verifiers():
    rng = np.random.default_rng(29)
    p = _problem()
    c = p.constants()
    n = 10_000
    raw = rng.normal(size=(n, 2)) * 2.0
    pts = DOMAIN.project(raw) * 0.999
    ys = DOMAIN.project(rng.normal(size=(n, 2)) * 2.0) * 0.999

    fx = 0.5 * np.sum(pts ** 2, axis=1)
    fy = 0.5 * np.sum(ys ** 2, axis=1)
    gx = subgradient_batch(p, pts)

    convexity = np.min(
        fy - fx - np.sum(gx * (ys - pts), axis=1)
        - 0.5 * c.m * np.sum((ys - pts) ** 2, axis=1)) >= -1e-9
    gap = np.min(fx - 0.0 - 0.5 * c.m * np.sum(pts ** 2, axis=1)) >= -1e-9
    grad_bound = np.max(np.linalg.norm(gx, axis=1)) <= c.sqrt_M * (1 + 1e-12)

    draws = Gaussian(sigma2=1.0).sample(rng, 1_000_000, 2)
    per_coord = np.sqrt(0.5)
    noise_ok = (np.all(np.abs(draws.mean(axis=0)) < 4 * per_coord / 1000.0)
                and abs(np.sum(draws ** 2, axis=1).mean() - 1.0) < 0.01)

    ra, rb = rng.normal(size=(n, 2)) * 3.0, rng.normal(size=(n, 2)) * 3.0
    nonexpansive = np.all(
        np.linalg.norm(DOMAIN.project(ra) - DOMAIN.project(rb), axis=1)
        <= np.linalg.norm(ra - rb, axis=1) + 1e-12)

    ok = convexity and gap and grad_bound and noise_ok and nonexpansive
    _report(9, ok,
            f"strong convexity {convexity}, optimality gap {gap}, "
            f"gradient bound {grad_bound}, noise moments {noise_ok}, "
            f"projection nonexpansive {nonexpansive}")


def test_criterion_10_worker_determinism(tmp_path):
    cfg = {
        "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                  "theta_star": [0.0, 0.0]}},
        "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
        "noise": {"gaussian": {"sigma2": 1.0}},
        "variant": "sg",
        "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
        "momentum": {"zero": {}},
        "theta0": THETA0,
        "horizon": 2000,
        "replicates": 64,
        "master_seed": 31,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        code = cli_main(["run", "--config", str(path), "--out", str(out),
                         "--workers", str(w)])
        assert code == 0
        blobs.append((out / "summary.csv").read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    _report(10, identical,
            f"summary.csv byte-identical across workers 1/4/8: {identical}")
