import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmlab.schedules import (ConstantMomentum, ConstantStep, MomentumSchedule,
                              PolynomialMomentum, PolynomialStep,
                              ProportionalToStep, StagedStep, StepSchedule,
                              ZeroMomentum, shorten, validate)
from sgmlab.cli import from_config


class TestStepSize:
    def test_polynomial(self):
        assert PolynomialStep(gamma=0.5, alpha=1.0).steps(5)[4] == pytest.approx(0.1)

    def test_constant(self):
        s = ConstantStep(a=0.05)
        assert s.steps(0).size == 0
        assert np.all(s.steps(10**6) == 0.05)

    def test_staged_second_stage(self):
        s = StagedStep(stages=((0.1, 2), (0.05, 4)))
        assert s.steps(3).tolist() == [0.1, 0.1, 0.05]

    def test_staged_exhausted(self):
        s = StagedStep(stages=((0.1, 2), (0.05, 4)))
        assert s.steps(6).tolist() == [0.1] * 2 + [0.05] * 4
        with pytest.raises(ValueError, match=(
                r"^index beyond final stage \(total length 6\)$")):
            s.steps(7)

    def test_staged_stage_past_the_horizon(self):
        # Only the first n steps are laid out: a stage far longer than the
        # horizon, or than an int64, costs nothing.
        s = StagedStep(stages=((0.1, 2), (0.05, 10**20)))
        assert s.steps(4).tolist() == [0.1, 0.1, 0.05, 0.05]
        with pytest.raises(ValueError):     # as numpy refuses any such array
            s.steps(10**30)

    def test_staged_must_decrease(self):
        with pytest.raises(ValueError):
            StagedStep(stages=((0.1, 2), (0.1, 2)))

    @pytest.mark.parametrize("length", [2.7, 2.0, True, "3", None])
    def test_staged_length_must_be_an_integer(self, length):
        # A casting int() would run 2.7 as 2 steps, True as 1 and "3" as 3.
        with pytest.raises(ValueError, match=(
                rf"^stage length must be an integer, got {length!r}$")):
            StagedStep(stages=((0.1, 2), (0.05, length)))

    @pytest.mark.parametrize("step", [True, "0.5", None, 10**400])
    def test_staged_step_must_be_a_number(self, step):
        # A casting float() would run True as a step of 1.0 and "0.5" as 0.5,
        # and raise an OverflowError on an int past the float range, which
        # is echoed by its two ends.
        echo = ("1" + "0" * 27 + r"\.\.\." + "0" * 28 if step == 10**400
                else repr(step))
        with pytest.raises(ValueError, match=(
                rf"^stage step must be a number, got {echo}$")):
            StagedStep(stages=((step, 2), (0.05, 3)))

    def test_staged_numpy_step(self):
        s = StagedStep(stages=((np.float64(0.5), 2), (np.float32(0.25), 3)))
        assert s.stages == ((0.5, 2), (0.25, 3))
        assert all(type(a) is float for a, _ in s.stages)

    def test_staged_numpy_integer_length(self):
        s = StagedStep(stages=((0.1, np.int64(2)), (0.05, np.int32(4))))
        assert s.stages == ((0.1, 2), (0.05, 4))
        assert all(type(n) is int for _, n in s.stages)


class TestMomentumWeight:
    def test_polynomial(self):
        assert PolynomialMomentum(c=1.0, beta=0.5).weights(np.zeros(4))[3] == 0.5

    def test_proportional(self):
        w = ProportionalToStep(k=9.0).weights(np.array([0.1, 0.05]))
        assert w.tolist() == pytest.approx([0.9, 0.45])

    def test_proportional_clamps(self):
        w = ProportionalToStep(k=20.0).weights(np.array([0.1]))
        assert w.tolist() == [1.0 - 1e-12]

    def test_zero(self):
        assert ZeroMomentum().weights(np.full(124, 0.5)).tolist() == [0.0] * 124


class TestValidate:
    def test_clean_pair(self):
        report = validate(PolynomialStep(gamma=1.0, alpha=1.0), ZeroMomentum(),
                          m=1.0, horizon=1000)
        assert report.ok and not report.warnings

    def test_step_beyond_unit_interval(self):
        report = validate(ConstantStep(a=2.0), ZeroMomentum(), m=1.0, horizon=10)
        assert not report.ok
        assert any("not in (0, 1]" in v for v in report.violations)

    def test_alpha_below_half_flagged(self):
        report = validate(PolynomialStep(gamma=1.0, alpha=0.4), ZeroMomentum(),
                          m=1.0, horizon=10)
        assert report.ok
        assert any("divergent" in w for w in report.warnings)

    def test_eta_at_one_flagged(self):
        report = validate(PolynomialStep(gamma=1.0, alpha=1.0),
                          PolynomialMomentum(c=1.0, beta=1.0), m=1.0, horizon=10)
        assert any("eta_j >= 1" in v for v in report.violations)

    def test_clamping_surfaced(self):
        report = validate(ConstantStep(a=0.5), ProportionalToStep(k=10.0),
                          m=1.0, horizon=5)
        assert report.clamped_indices.tolist() == [0, 1, 2, 3, 4]
        assert str(report) == "warning: momentum clamped at indices [0, 1, 2, 3, 4]"

    def test_clamp_report_costs_no_more_than_the_schedule(self):
        # The clamped indices stay one numpy array: as Python ints, a
        # 10**6 horizon cost 2.4 times the peak memory of validating
        # constant momentum.
        def peak(momentum):
            tracemalloc.start()
            validate(ConstantStep(a=0.1), momentum, m=1.0, horizon=10**6)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak
        assert peak(ProportionalToStep(k=100.0)) < 1.5 * peak(
            ConstantMomentum(eta=0.5))

    def test_short_staged_step_raises(self):
        # No run, forced or not, can use a step that ends before the horizon.
        with pytest.raises(ValueError, match=(
                r"^index beyond final stage \(total length 5\)$")):
            validate(StagedStep(stages=((0.1, 5),)), ZeroMomentum(), m=1.0,
                     horizon=20)


STEPS = [PolynomialStep(gamma=0.7, alpha=0.8), ConstantStep(a=1),
         ConstantStep(a=0.05), StagedStep(stages=((0.5, 3), (0.2, 50),
                                                  (0.1, 10**20)))]
MOMENTA = [ZeroMomentum(), ConstantMomentum(eta=0), ConstantMomentum(eta=0.5),
           PolynomialMomentum(c=0.9, beta=0.6), ProportionalToStep(k=9.0),
           ProportionalToStep(k=20.0)]


@given(n=st.integers(0, 3000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_schedules_are_prefix_consistent_sequences(n, data):
    # Every schedule class, each a sequence: the first k values do not
    # depend on how many more are asked for, bit for bit.
    assert {type(s) for s in STEPS} == set(StepSchedule.__args__)
    assert {type(m) for m in MOMENTA} == set(MomentumSchedule.__args__)
    k = data.draw(st.integers(0, n))
    for step in STEPS:
        t = step.steps(n)
        assert t.dtype == np.float64 and t.shape == (n,)
        assert t[:k].tobytes() == step.steps(k).tobytes()
        for momentum in MOMENTA:
            eta = momentum.weights(t)
            assert eta.dtype == np.float64 and eta.shape == (n,)
            assert eta[:k].tobytes() == momentum.weights(t[:k]).tobytes()


def test_shorten():
    # A value is echoed whole up to 60 characters, else by its two ends.
    for text in ["", "x" * 60]:
        assert shorten(text) == text
    assert shorten("x" * 28 + "y" * 5 + "z" * 28) == "x" * 28 + "..." + "z" * 28


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0])
def test_square_summable_above_half(alpha):
    step = PolynomialStep(gamma=1.0, alpha=alpha)

    def sum_t(n, power=1):
        return float(np.sum(step.steps(n) ** power))

    # dyadic tail blocks of sum t^2 shrink geometrically when 2*alpha > 1
    tail = [sum_t(2 * n, 2) - sum_t(n, 2) for n in (1000, 2000, 4000, 8000)]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert tail[-1] < tail[0] * 2.0 ** (-3 * (2 * alpha - 1)) * 1.01
    # sum_t keeps growing
    assert sum_t(16000) > sum_t(8000) + 0.1


def test_config_round_trip():
    steps = [
        (PolynomialStep(gamma=0.5, alpha=0.9),
         {"polynomial": {"gamma": 0.5, "alpha": 0.9}}),
        (ConstantStep(a=0.01), {"constant": {"a": 0.01}}),
        (StagedStep(stages=((0.1, 5), (0.05, 10))),
         {"staged": {"stages": [{"a": 0.1, "n": 5}, {"a": 0.05, "n": 10}]}}),
    ]
    for s, cfg in steps:
        assert from_config("step", cfg) == s
    moms = [
        (ZeroMomentum(), {"zero": {}}),
        (ConstantMomentum(eta=0.5), {"constant": {"eta": 0.5}}),
        (PolynomialMomentum(c=0.9, beta=0.5),
         {"polynomial": {"c": 0.9, "beta": 0.5}}),
        (ProportionalToStep(k=2.0), {"proportional": {"k": 2.0}}),
    ]
    for mschedule, cfg in moms:
        assert from_config("momentum", cfg) == mschedule


def test_config_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        from_config("step", {"polynomial": {"gamma": 1.0, "alpha": 1.0,
                                            "lr": 0.1}})
