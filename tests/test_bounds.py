import functools
import re
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgmlab.bounds import (BoundSequence, RateEnvelope, constant_step_plateau,
                           sg_recursion_bound, sgm_recursion_bound,
                           stage_burn_in)
from sgmlab.geometry import Ball
from sgmlab.harness import stage_configs
from sgmlab.problems import Gaussian, Quadratic
from sgmlab.schedules import (ConstantMomentum, ConstantStep,
                              PolynomialMomentum, PolynomialStep, ZeroMomentum)


class TestBoundSequence:
    def test_at(self):
        b = BoundSequence(values=[4.0, 2.0, 1.0])
        assert b.at(1) == 2.0
        np.testing.assert_array_equal(b.at([0, 2]), [4.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundSequence(values=[1.0, -0.5])


class TestRateEnvelope:
    def test_inv_n_example(self):
        env = RateEnvelope(case="inv_n", constant=3.0)
        assert env.at(2) == pytest.approx(1.0)

    def test_log_n_over_n_example(self):
        env = RateEnvelope(case="log_n_over_n", constant=1.0)
        assert env.at(np.e - 1.0) == pytest.approx(1.0 / np.e)

    def test_inv_n_beta_example(self):
        env = RateEnvelope(case="inv_n_beta", constant=1.0, beta=0.5)
        assert env.at(3) == pytest.approx(1.0)

    def test_uncalibrated_rejected(self):
        env = RateEnvelope(case="inv_n")
        with pytest.raises(ValueError, match="uncalibrated"):
            env.at(10)
        assert env.calibrated(2.0).at(1) == pytest.approx(1.0)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            RateEnvelope(case="exp_n")
        with pytest.raises(ValueError):
            RateEnvelope(case="inv_n_beta", beta=1.5)

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            RateEnvelope(case="inv_n", constant=1.0).at(0)


class TestSgRecursion:
    def test_two_step_hand_values(self):
        # E0=1, t_j = 1/(j+1), m=1, M+sigma2=1:
        # E1 = (1-1)*1 + 1 = 1;  E2 = (1-1/2)*1 + 1/4 = 0.75
        b = sg_recursion_bound(E0=1.0, step=PolynomialStep(gamma=1.0, alpha=1.0),
                               m=1.0, M=1.0, sigma2=0.0, N=2)
        np.testing.assert_allclose(b.values, [1.0, 1.0, 0.75])

    def test_length(self):
        b = sg_recursion_bound(1.0, ConstantStep(0.1), 1.0, 1.0, 1.0, 50)
        assert b.values.shape == (51,)

    def test_tm_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            sg_recursion_bound(1.0, ConstantStep(2.0), 1.0, 1.0, 1.0, 5)

    def test_constant_step_converges_to_fixed_point(self):
        # fixed point of e = (1-am)e + a^2(M+s2) is a(M+s2)/m
        a, m, noise = 0.05, 2.0, 3.0
        b = sg_recursion_bound(1.0, ConstantStep(a), m, noise, 0.0, 2000)
        assert b.values[-1] == pytest.approx(a * noise / m, rel=1e-6)
        # and that fixed point sits below the plateau 2*noise*a/m
        assert b.values[-1] < constant_step_plateau(a, m, noise, 0.0)

    def test_monotone_in_noise(self):
        lo = sg_recursion_bound(1.0, ConstantStep(0.1), 1.0, 1.0, 0.0, 100)
        hi = sg_recursion_bound(1.0, ConstantStep(0.1), 1.0, 1.0, 2.0, 100)
        assert np.all(hi.values[1:] > lo.values[1:])


class TestSgmRecursion:
    def test_single_step_hand_value(self):
        # E0=1, t=0.1, m=1, M=1, sigma2=1, L=2, eta=0.5:
        # 0.9*1 + 0.01*2 + 2*0.5*(2 + 0.1*1)*2 + 0.25*4 = 6.12, capped at 4
        kwargs = dict(E0=1.0, step=ConstantStep(0.1),
                      m=1.0, M=1.0, sigma2=1.0, N=1)
        capped = sgm_recursion_bound(momentum=ConstantMomentum(0.5), L=2.0,
                                     **kwargs)
        assert capped.values[1] == pytest.approx(4.0)
        # eta=0.01, L=3: 0.92 + 2*0.01*(3 + 0.1)*3 + 0.0001*9 = 1.1069 < 9
        below = sgm_recursion_bound(momentum=ConstantMomentum(0.01), L=3.0,
                                    **kwargs)
        assert below.values[1] == pytest.approx(1.1069)

    def test_zero_momentum_collapses_to_sg(self):
        # The momentum terms add +0.0 and the cap at L^2 = 10^4 never acts.
        for step in TestRecursionsMatchNumpyScalarLoop.STEPS:
            for N in (0, 1, 200, 12_500):
                a = sg_recursion_bound(1.0, step, 1.0, 1.0, 1.0, N)
                b = sgm_recursion_bound(1.0, step, ZeroMomentum(), 1.0, 1.0,
                                        1.0, L=100.0, N=N)
                assert a.values.tobytes() == b.values.tobytes()

    def test_cap_never_exceeded(self):
        b = sgm_recursion_bound(4.0, ConstantStep(0.1), ConstantMomentum(0.9),
                                1.0, 1.0, 1.0, L=2.0, N=100)
        assert np.all(b.values <= 4.0 + 1e-12)

    def test_eta_ge_one_rejected(self):
        class Saturated:
            def weights(self, t):
                return np.ones(len(t))

        with pytest.raises(ValueError, match="eta"):
            sgm_recursion_bound(1.0, ConstantStep(0.1), Saturated(),
                                1.0, 1.0, 1.0, L=2.0, N=1)


def _numpy_scalar_sg(E0, step, m, M, sigma2, N):
    """The SG recursion stepped on numpy scalars: the oracle for the loop on
    Python floats."""
    t = step.steps(N)
    values = np.empty(N + 1)
    values[0] = E0
    noise = M + sigma2
    e = E0
    for j in range(N):
        e = (1.0 - t[j] * m) * e + t[j] * t[j] * noise
        values[j + 1] = e
    return values


def _numpy_scalar_sgm(E0, step, momentum, m, M, sigma2, L, N):
    t = step.steps(N)
    eta = momentum.weights(t)
    sqrt_M = np.sqrt(M)
    noise = M + sigma2
    L2 = L * L
    values = np.empty(N + 1)
    e = min(E0, L2)
    values[0] = e
    for j in range(N):
        e = ((1.0 - t[j] * m) * e + t[j] * t[j] * noise
             + 2.0 * eta[j] * (L + t[j] * sqrt_M) * L + eta[j] * eta[j] * L2)
        e = min(e, L2)
        values[j + 1] = e
    return values


class TestRecursionsMatchNumpyScalarLoop:
    """The recursions run on Python floats give the numpy-scalar loop's
    values bit for bit. Constants come in as numpy scalars, as a problem's
    constants() may give them."""

    STEPS = [PolynomialStep(gamma=1.0, alpha=1.0),
             PolynomialStep(gamma=0.7, alpha=0.6), ConstantStep(0.013)]
    # 12,500 steps end in a short chunk; 512 is one whole chunk.
    HORIZONS = [0, 1, 512, 12_500]

    @pytest.mark.parametrize("N", HORIZONS)
    @pytest.mark.parametrize("step", STEPS, ids=["alpha1", "alpha06", "const"])
    def test_sg(self, step, N):
        args = (0.37, step, 1.0, np.float64(2.3), 0.9, N)
        got = sg_recursion_bound(*args).values
        assert got.tobytes() == _numpy_scalar_sg(*args).tobytes()

    @pytest.mark.parametrize("N", HORIZONS)
    @pytest.mark.parametrize("e0_above_l2", [True, False])
    @pytest.mark.parametrize("momentum", [
        PolynomialMomentum(c=0.9, beta=1.0), ConstantMomentum(0.3),
        ZeroMomentum()], ids=["poly", "const", "zero"])
    @pytest.mark.parametrize("step", STEPS, ids=["alpha1", "alpha06", "const"])
    def test_sgm(self, step, momentum, e0_above_l2, N):
        # L^2 = 4: E0 = 5.1 is capped from the first value on, E0 = 0.37
        # starts below the cap.
        args = (5.1 if e0_above_l2 else 0.37, step, momentum, 1.0,
                np.float64(2.3), 0.9, np.float64(2.0), N)
        got = sgm_recursion_bound(*args).values
        assert got.tobytes() == _numpy_scalar_sgm(*args).tobytes()

    def test_sgm_negative_M_named(self):
        with pytest.raises(ValueError, match="M = -1.0 must be nonnegative"):
            sgm_recursion_bound(1.0, ConstantStep(0.1), ConstantMomentum(0.5),
                                1.0, -1.0, 1.0, L=2.0, N=3)


@pytest.mark.parametrize("recursion", [
    sg_recursion_bound,
    functools.partial(sgm_recursion_bound, momentum=ConstantMomentum(0.5),
                      L=2.0)], ids=["sg", "sgm"])
@pytest.mark.parametrize("key, value, message", [
    ("E0", -1.0, "E0 must be nonnegative"),
    ("M", -4.0, "M = -4.0 must be nonnegative"),
    ("sigma2", -1.0, "sigma2 = -1.0 must be nonnegative"),
    ("N", -1, "N must be >= 0, got -1"),
    ("m", 20.0, "t_j*m = 2 not in (0, 1] at j=0 (3 indices over horizon)"),
], ids=["E0", "M", "sigma2", "N", "tm"])
def test_one_argument_check(recursion, key, value, message):
    # Both recursions refuse the same arguments with the same line; the SG
    # one used to take a negative M or sigma2, the SGM one a negative sigma2.
    args = dict(E0=1.0, step=ConstantStep(0.1), m=1.0, M=1.0, sigma2=1.0,
                N=3)
    args[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        recursion(**args)


@pytest.mark.parametrize("L", [-2.0, 0.0])
def test_sgm_nonpositive_L_named(L):
    with pytest.raises(ValueError, match=f"^L = {L} must be positive$"):
        sgm_recursion_bound(1.0, ConstantStep(0.1), ConstantMomentum(0.5),
                            1.0, 1.0, 1.0, L=L, N=3)


class TestPlateau:
    def test_hand_value(self):
        assert constant_step_plateau(0.1, 1.0, 4.0, 1.0) == pytest.approx(1.0)

    def test_linear_in_a(self):
        p1 = constant_step_plateau(0.01, 2.0, 1.0, 1.0)
        p2 = constant_step_plateau(0.02, 2.0, 1.0, 1.0)
        assert p2 == pytest.approx(2.0 * p1)

    def test_a_at_inverse_m_rejected(self):
        with pytest.raises(ValueError):
            constant_step_plateau(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            constant_step_plateau(0.0, 1.0, 1.0, 1.0)


class TestStageBurnIn:
    def test_hand_value(self):
        # a=0.1, m=1, E1=4, M+sigma2=2: threshold 0.2,
        # smallest N with 4*0.9^(N-1) <= 0.2 is N=30
        assert stage_burn_in(0.1, 1.0, 4.0, 1.0, 1.0) == 30

    def test_already_below_threshold(self):
        assert stage_burn_in(0.1, 1.0, 0.01, 1.0, 1.0) == 1

    def test_smaller_step_waits_longer(self):
        big = stage_burn_in(0.1, 1.0, 4.0, 1.0, 1.0)
        small = stage_burn_in(0.01, 1.0, 4.0, 1.0, 1.0)
        assert small > big

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            stage_burn_in(2.0, 1.0, 4.0, 1.0, 1.0)

    def test_corollary1_stages(self):
        # m=1, E1 = L^2 = 16, M=4, sigma2=1: the corollary1 golden's column.
        assert [stage_burn_in(a, 1.0, 16.0, 4.0, 1.0)
                for a in (0.1, 0.05, 0.025, 0.0125)] == [34, 83, 193, 442]

    def test_tiny_step_in_closed_form(self):
        # One multiplication per step would take about 20 minutes here.
        start = time.perf_counter()
        n = stage_burn_in(1e-9, 1.0, 16.0, 4.0, 1.0)
        assert time.perf_counter() - start < 0.1
        assert n > 10**10

    @pytest.mark.parametrize("E1", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_start_refused(self, E1):
        with pytest.raises(ValueError, match=(
                rf"^E1 = {E1} must be positive and finite$")):
            stage_burn_in(0.1, 1.0, E1, 4.0, 1.0)

    def test_zero_noise_refused(self):
        # No step count brings E1 down to a threshold of 0.
        with pytest.raises(ValueError,
                           match=r"^M \+ sigma2 = 0\.0 must be positive$"):
            stage_burn_in(0.1, 1.0, 4.0, 0.0, 0.0)


def _burn_in_by_steps(a, m, E1, M, sigma2):
    """The oracle for the closed form: the burn-in index found one
    multiplication per step, in 60-digit decimals on the floats' exact
    values, with the last value above the threshold, the first at or below
    it, and the threshold."""
    with localcontext(prec=60):
        a, m, E1, M, sigma2 = map(Decimal, (a, m, E1, M, sigma2))
        decay, threshold = 1 - a * m, (M + sigma2) * a / m
        n, above, value = 1, None, E1
        while value > threshold:
            n, above, value = n + 1, value, value * decay
        return n, above, value, threshold


# How near the threshold, relative to it, a value the closed form rounds to
# the other side may lie: its logs and quotient err by about 1e-14.
BURN_IN_BAND = 1e-12


@given(am=st.floats(1e-3, 0.999), m=st.floats(0.1, 10.0),
       E1=st.floats(1e-3, 1e3), M=st.floats(1e-3, 1e2),
       sigma2=st.floats(0.0, 5.0))
# E1 on the threshold, where a float threshold taken another way rounds
# below it; and a value 5.6e-17 above it, which a float product rounds onto
# it.
@example(am=0.30535340150820395, m=2.0, E1=0.30535340150820395, M=1.0,
         sigma2=3.0)
@example(am=1 / 3, m=1 / 3, E1=3.0, M=1 / 3, sigma2=1 / 3)
@settings(max_examples=300, deadline=None)
def test_burn_in_matches_stepwise_product(am, m, E1, M, sigma2):
    a = am / m
    n, above, below, threshold = _burn_in_by_steps(a, m, E1, M, sigma2)
    near = {n - 1: above, n + 1: below}
    got = stage_burn_in(a, m, E1, M, sigma2)
    assert got == n or (
        got in near and abs(near[got] / threshold - 1) <= BURN_IN_BAND)


@pytest.mark.parametrize("a", [0.0, 1e-20, 1.0, 1.5])
def test_one_stage_step_refusal(a):
    # m = 1: the stage step must leave 1 - a in (0, 1), which 1e-20 does not
    # in floats.
    problem = Quadratic(hessian_diag=[1.0, 1.0], theta_star=[0.0, 0.0],
                        domain=Ball(center=[0.0, 0.0], radius=2.0),
                        noise=Gaussian(sigma2=1.0))
    message = (f"stage step a = {a} outside (0, 1/m): "
               f"1 - a*m = {1 - a} is not in (0, 1)")
    for refuse in (lambda: stage_configs(problem, [(a, 10)], ZeroMomentum()),
                   lambda: constant_step_plateau(a, 1.0, 4.0, 1.0),
                   lambda: stage_burn_in(a, 1.0, 16.0, 4.0, 1.0)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refuse()
