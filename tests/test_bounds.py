import numpy as np
import pytest

from sgmlab.bounds import (EXPONENT_FORMS, BoundSequence, RateEnvelope,
                           constant_step_plateau,
                           sg_exponential_bound, sg_recursion_bound,
                           sgm_recursion_bound, stage_burn_in)
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
                      momentum=ConstantMomentum(0.5),
                      m=1.0, M=1.0, sigma2=1.0, L=2.0, N=1)
        raw = sgm_recursion_bound(cap=False, **kwargs)
        assert raw.values[1] == pytest.approx(6.12)
        capped = sgm_recursion_bound(cap=True, **kwargs)
        assert capped.values[1] == pytest.approx(4.0)

    def test_zero_momentum_collapses_to_sg(self):
        step = PolynomialStep(gamma=0.5, alpha=1.0)
        a = sg_recursion_bound(1.0, step, 1.0, 1.0, 1.0, 200)
        b = sgm_recursion_bound(1.0, step, ZeroMomentum(), 1.0, 1.0, 1.0,
                                L=100.0, N=200, cap=False)
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_cap_never_exceeded(self):
        b = sgm_recursion_bound(4.0, ConstantStep(0.1), ConstantMomentum(0.9),
                                1.0, 1.0, 1.0, L=2.0, N=100, cap=True)
        assert np.all(b.values <= 4.0 + 1e-12)

    def test_eta_ge_one_rejected(self):
        class Saturated:
            def weight(self, j, t):
                return np.ones_like(np.asarray(j, dtype=float))

        with pytest.raises(ValueError, match="eta"):
            sgm_recursion_bound(1.0, ConstantStep(0.1), Saturated(),
                                1.0, 1.0, 1.0, L=2.0, N=1)


def _numpy_scalar_sg(E0, step, m, M, sigma2, N):
    """The SG recursion stepped on numpy scalars: the oracle for the loop on
    Python floats."""
    t = np.asarray(step.step_size(np.arange(N)), dtype=float)
    values = np.empty(N + 1)
    values[0] = E0
    noise = M + sigma2
    e = E0
    for j in range(N):
        e = (1.0 - t[j] * m) * e + t[j] * t[j] * noise
        values[j + 1] = e
    return values


def _numpy_scalar_sgm(E0, step, momentum, m, M, sigma2, L, N, cap):
    t = np.asarray(step.step_size(np.arange(N)), dtype=float)
    eta = np.asarray(momentum.weight(np.arange(N), t), dtype=float)
    sqrt_M = np.sqrt(M)
    noise = M + sigma2
    L2 = L * L
    values = np.empty(N + 1)
    e = min(E0, L2) if cap else E0
    values[0] = e
    for j in range(N):
        e = ((1.0 - t[j] * m) * e + t[j] * t[j] * noise
             + 2.0 * eta[j] * (L + t[j] * sqrt_M) * L + eta[j] * eta[j] * L2)
        if cap:
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
    @pytest.mark.parametrize("cap", [True, False])
    @pytest.mark.parametrize("momentum", [
        PolynomialMomentum(c=0.9, beta=1.0), ConstantMomentum(0.3),
        ZeroMomentum()], ids=["poly", "const", "zero"])
    @pytest.mark.parametrize("step", STEPS, ids=["alpha1", "alpha06", "const"])
    def test_sgm(self, step, momentum, cap, N):
        # E0 above L^2, so the cap acts on the first value as well.
        args = (5.1, step, momentum, 1.0, np.float64(2.3), 0.9,
                np.float64(2.0), N)
        got = sgm_recursion_bound(*args, cap=cap).values
        assert got.tobytes() == _numpy_scalar_sgm(*args, cap).tobytes()

    def test_sgm_negative_M_named(self):
        with pytest.raises(ValueError, match="M = -1.0 must be nonnegative"):
            sgm_recursion_bound(1.0, ConstantStep(0.1), ConstantMomentum(0.5),
                                1.0, -1.0, 1.0, L=2.0, N=3)


class TestExponentialBound:
    def test_forms_ordering_small_steps(self):
        # for m = 1 and small t: proof exponent t + t^2/2 matches appendix,
        # statement t + 2 t^2 decays faster
        step = PolynomialStep(gamma=0.5, alpha=1.0)
        vals = {f: sg_exponential_bound(step, 1.0, 100, (1, 1.0), form=f)
                for f in EXPONENT_FORMS}
        assert vals["proof"] == pytest.approx(vals["appendix"], rel=1e-12)
        assert vals["statement"] < vals["proof"]

    def test_one_term_hand_value(self):
        # N=1: t_1 = 1/2, proof exponent = 0.5 + 0.125
        got = sg_exponential_bound(PolynomialStep(1.0, 1.0), 1.0, 1, (1, 3.0))
        assert got == pytest.approx(3.0 * np.exp(-0.625))

    def test_ratio_to_inv_n_stabilizes(self):
        # gamma=1, alpha=1, m=1: the bound decays like 1/N up to a drifting
        # constant; the ratio over a dyadic jump settles within 5% of 1/2
        step = PolynomialStep(gamma=1.0, alpha=1.0)
        b1 = sg_exponential_bound(step, 1.0, 20000, (1, 1.0))
        b2 = sg_exponential_bound(step, 1.0, 40000, (1, 1.0))
        assert b2 / b1 == pytest.approx(0.5, rel=0.05)

    def test_n_below_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            sg_exponential_bound(ConstantStep(0.1), 1.0, 4, (5, 1.0))

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            sg_exponential_bound(ConstantStep(0.1), 1.0, 10, (1, 1.0),
                                 form="tightest")


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
