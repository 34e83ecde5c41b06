import pickle

import numpy as np
import pytest

from sgmlab.geometry import Ball, Box, contains
from sgmlab.optimizers import (QHM, SG, SGM, Batch, IterateState,
                               NormalizedSGM, NumericFailureError, StepParams,
                               init, map_qhm_to_nsgm, reference_step, step,
                               variant_from_name)

BIG = Box(lower=[-1e12], upper=[1e12])
BALL10 = Ball(center=[0.0], radius=10.0)


class TestInit:
    def test_prev_equals_curr(self):
        s = init([0.5], SGM(), BALL10)
        np.testing.assert_array_equal(s.theta_curr, s.theta_prev)
        assert s.j == 0

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            init([2.0], SG(), Ball(center=[0.0], radius=1.0))

    def test_qhm_velocity_buffer(self):
        s = init([0.0, 0.0], QHM(v=0.7), Ball(center=[0.0, 0.0], radius=1.0))
        np.testing.assert_array_equal(s.velocity, [0.0, 0.0])

    def test_sg_velocity_empty(self):
        s = init([0.0], SG(), BALL10)
        assert s.velocity.shape == (0,)


class TestStep:
    def test_sgm_hand_example(self):
        # theta 1, prev 2, t 0.1, eta 0.5, g 1 -> 1 - 0.1 + 0.5*(1-2) = 0.4
        s = IterateState(theta_curr=np.array([1.0]), theta_prev=np.array([2.0]),
                         velocity=np.zeros(0), j=1)
        out = reference_step(s, [1.0], StepParams(0.1, 0.5), SGM(), BALL10)
        np.testing.assert_allclose(out.theta_curr, [0.4])
        np.testing.assert_array_equal(out.theta_prev, [1.0])
        assert out.j == 2

    def test_projection_applied(self):
        s = init([9.0], SG(), BALL10)
        out = reference_step(s, [-100.0], StepParams(1.0, 0.0), SG(), BALL10)
        assert contains(BALL10, out.theta_curr, 1e-12)

    def test_non_finite_gradient_raises_with_index(self):
        s = init([0.0], SG(), BALL10)
        s = reference_step(s, [1.0], StepParams(0.1, 0.0), SG(), BALL10)
        with pytest.raises(NumericFailureError, match="step 1"):
            reference_step(s, [np.nan], StepParams(0.1, 0.0), SG(), BALL10)

    def test_overflow_names_the_first_bad_row(self):
        # Rows 0 and 2 stay finite; row 1's update overflows.
        s = init(np.zeros((3, 1)), SG(), BALL10)
        g = np.array([[1.0], [1e308], [1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailureError,
                               match="after update at step 0") as info:
                reference_step(s, g, StepParams(10.0, 0.0), SG(), BALL10)
        assert info.value.row == 1

    def test_numeric_failure_survives_pickle(self):
        # A pool worker's failure reaches the parent through pickle.
        err = NumericFailureError("non-finite value in replicate 3", 5, 2)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NumericFailureError
        assert back.step_index == 5
        assert back.row == 2
        assert str(back) == str(err) == ("non-finite value in replicate 3 "
                                         "at step 5")


def _run(variant, params_seq, gradients, domain, theta0):
    state = init(theta0, variant, domain)
    traj = []
    for params, g in zip(params_seq, gradients):
        state = reference_step(state, g, params, variant, domain)
        traj.append(state.theta_curr.copy())
    return np.asarray(traj)


def _shared_gradient_stream(n, d=1, seed=99):
    return list(np.random.default_rng(seed).normal(size=(n, d)))


class TestReductionLattice:
    def test_sgm_eta_zero_equals_sg(self):
        gs = _shared_gradient_stream(50)
        params = [StepParams(0.1 / (j + 1), 0.0) for j in range(50)]
        a = _run(SG(), params, gs, BALL10, [5.0])
        b = _run(SGM(), params, gs, BALL10, [5.0])
        np.testing.assert_array_equal(a, b)

    def test_qhm_v0_equals_sg(self):
        gs = _shared_gradient_stream(50)
        params = [StepParams(0.05, 0.9) for _ in range(50)]
        a = _run(SG(), [StepParams(0.05, 0.0)] * 50, gs, BALL10, [5.0])
        b = _run(QHM(v=0.0), params, gs, BALL10, [5.0])
        np.testing.assert_array_equal(a, b)

    def test_determinism(self):
        gs = _shared_gradient_stream(30, seed=7)
        params = [StepParams(0.1, 0.5) for _ in range(30)]
        a = _run(SGM(), params, gs, BALL10, [1.0])
        b = _run(SGM(), params, gs, BALL10, [1.0])
        np.testing.assert_array_equal(a, b)


def test_noiseless_contraction_on_quadratic():
    # |theta_{j+1} - theta*| <= |theta_j - theta*| * max_k |1 - t h_k|
    h = np.array([0.5, 2.0])
    domain = Ball(center=[0.0, 0.0], radius=10.0)
    state = init([3.0, -2.0], SG(), domain)
    for j in range(100):
        t = 0.4 / (j + 1) ** 0.7
        g = h * state.theta_curr
        nxt = reference_step(state, g, StepParams(t, 0.0), SG(), domain)
        factor = np.max(np.abs(1.0 - t * h))
        assert (np.linalg.norm(nxt.theta_curr)
                <= np.linalg.norm(state.theta_curr) * factor + 1e-12)
        state = nxt


def test_feasibility_every_step():
    domain = Ball(center=[0.0, 0.0], radius=1.0)
    rng = np.random.default_rng(3)
    state = init([0.5, 0.0], SGM(), domain)
    for j in range(200):
        g = rng.normal(scale=5.0, size=2)
        state = reference_step(state, g, StepParams(0.3, 0.6), SGM(), domain)
        assert contains(domain, state.theta_curr, 1e-12)


def test_batched_step_matches_scalar_loop():
    # A batch of trajectories advances bit-for-bit like per-trajectory calls.
    domain = Ball(center=[0.0, 0.0], radius=2.0)
    rng = np.random.default_rng(11)
    theta0 = rng.uniform(-1, 1, size=(8, 2)) * 0.7
    gs = rng.normal(size=(20, 8, 2))
    batched = init(theta0, SGM(), domain)
    singles = [init(theta0[r], SGM(), domain) for r in range(8)]
    for j in range(20):
        params = StepParams(0.2 / (j + 1), 0.4)
        batched = reference_step(batched, gs[j], params, SGM(), domain)
        singles = [reference_step(s, gs[j, r], params, SGM(), domain)
                   for r, s in enumerate(singles)]
        for r, s in enumerate(singles):
            np.testing.assert_array_equal(batched.theta_curr[r], s.theta_curr)


class TestInPlaceStep:
    @pytest.mark.parametrize("domain", [Ball(center=[0.0, 0.0], radius=1.0),
                                        Box(lower=[-1.0, -0.5],
                                            upper=[0.5, 1.0])],
                             ids=["ball", "box"])
    @pytest.mark.parametrize("variant", [SG(), SGM(), NormalizedSGM(),
                                         QHM(v=0.3)],
                             ids=["sg", "sgm", "nsgm", "qhm"])
    def test_matches_reference_bit_for_bit(self, variant, domain):
        rng = np.random.default_rng(13)
        gs = rng.normal(scale=3.0, size=(40, 6, 2))
        ts, ws = rng.uniform(0.05, 0.5, 40), rng.uniform(0.0, 1.0, 40)
        state = init(np.zeros((6, 2)), variant, domain)
        batch = Batch(state, variant, domain)
        for j in range(40):
            kept = batch.theta_curr
            state = reference_step(state, gs[j], StepParams(ts[j], ws[j]),
                                   variant, domain)
            step(batch, gs[j], ts[j], ws[j])
            assert np.array_equal(batch.theta_curr, state.theta_curr)
            assert np.array_equal(batch.theta_prev, state.theta_prev)
            assert np.array_equal(batch.velocity, state.velocity)
            assert batch.theta_prev is kept   # iterates are not overwritten
        assert batch.finite()

    def test_finite_checks_proposals_and_iterates(self):
        box = Box(lower=[-1.0], upper=[1.0])
        batch = Batch(init(np.zeros((3, 1)), SG(), box), SG(), box)
        # the box clips the infinite proposal: only the proposal sum shows it
        step(batch, np.array([[0.0], [np.inf], [0.0]]), 0.1, 0.0)
        assert np.all(np.isfinite(batch.theta_curr))
        assert not batch.finite()
        assert batch.finite()            # the check resets the sum
        batch.theta_curr = np.array([[0.0], [0.0], [np.nan]])
        assert not batch.finite()


class TestQhmNsgmMapping:
    def test_mapping_within_1e12(self):
        # Noiseless f = x^2/2 on a box the iterates never reach, so the
        # trajectories compare exactly.
        def trajectory(variant, params):
            state = init([7.0], variant, BIG)
            out = []
            for _ in range(10):
                state = reference_step(state, state.theta_curr, params,
                                       variant, BIG)
                out.append(state.theta_curr.copy())
            return np.asarray(out)

        mapped = map_qhm_to_nsgm(alpha=0.2, beta=0.3)
        assert mapped == (0.2, 0.7)
        qhm = trajectory(QHM(v=1.0), StepParams(0.2, 0.3))
        nsgm = trajectory(NormalizedSGM(), StepParams(*mapped))
        assert np.max(np.abs(qhm - nsgm)) <= 1e-12
        # unmapped, the weights differ and so do the trajectories
        unmapped = trajectory(NormalizedSGM(), StepParams(0.2, 0.3))
        assert np.max(np.abs(qhm - unmapped)) > 1e-12

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            map_qhm_to_nsgm(alpha=0.2, beta=1.0)

    def test_v0_reduces_to_sg(self):
        gs = _shared_gradient_stream(10)
        a = _run(QHM(v=0.0), [StepParams(0.2, 0.5)] * 10, gs, BIG, [7.0])
        b = _run(SG(), [StepParams(0.2, 0.0)] * 10, gs, BIG, [7.0])
        np.testing.assert_array_equal(a, b)


def test_nsgm_replays_sgm_with_eta_one_minus_beta():
    # NormalizedSGM(alpha, beta) is heavy-ball SGM with t = alpha*beta and
    # eta = 1 - beta; the coupling eta = alpha*(1-beta) does not replay it.
    alpha, beta = 0.2, 0.5
    gs = _shared_gradient_stream(10)

    def sgm(eta):
        return _run(SGM(), [StepParams(alpha * beta, eta)] * 10, gs, BIG, [7.0])

    ref = _run(NormalizedSGM(), [StepParams(alpha, beta)] * 10, gs, BIG, [7.0])
    assert np.max(np.abs(ref - sgm(1.0 - beta))) <= 1e-12
    assert np.max(np.abs(ref - sgm(alpha * (1.0 - beta)))) > 1e-12


def test_variant_from_name():
    assert variant_from_name("sg") == SG()
    assert variant_from_name("qhm", 0.7) == QHM(v=0.7)
    with pytest.raises(ValueError):
        variant_from_name("adam")
    with pytest.raises(ValueError):
        variant_from_name("qhm")
