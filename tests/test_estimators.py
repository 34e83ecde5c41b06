import numpy as np
import pytest

from sgmlab.estimators import (ESTIMATOR_NAMES, EmptyEstimatorError, Last,
                               SuffixAverage, WeightedAverage, make_estimator)


class TestLast:
    def test_returns_final_iterate(self):
        est = Last()
        est.observe(np.array([1.0]), 0)
        est.observe(np.array([2.0]), 1)
        np.testing.assert_array_equal(est.current(), [2.0])

    def test_empty_raises(self):
        with pytest.raises(EmptyEstimatorError):
            Last().current()


class TestSuffixAverage:
    def test_mean_over_suffix(self):
        est = SuffixAverage(start_index=2)
        for j, x in enumerate([(0.0,), (100.0,), (4.0,), (8.0,)]):
            est.observe(np.array(x), j)
        np.testing.assert_allclose(est.current(), [6.0])

    def test_before_suffix_is_empty(self):
        est = SuffixAverage(start_index=5)
        est.observe(np.array([1.0]), 0)
        with pytest.raises(EmptyEstimatorError):
            est.current()


class TestWeightedAverage:
    def test_linear_weights(self):
        # weights 1 and 2: (1*1 + 2*2)/3 = 5/3
        est = WeightedAverage()
        est.observe(np.array([1.0]), 0)
        est.observe(np.array([2.0]), 1)
        np.testing.assert_allclose(est.current(), [5.0 / 3.0])


def test_streaming_matches_batch_mean():
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(200, 3))
    est = SuffixAverage(start_index=50)
    for j, x in enumerate(xs):
        est.observe(x, j)
    np.testing.assert_allclose(est.current(), xs[50:].mean(axis=0), atol=1e-12)


def test_weighted_streaming_matches_closed_form():
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(100, 2))
    w = np.arange(1, 101, dtype=float)[:, None]
    est = WeightedAverage()
    for j, x in enumerate(xs):
        est.observe(x, j)
    np.testing.assert_allclose(est.current(), (w * xs).sum(axis=0) / w.sum(),
                               atol=1e-12)


def test_averages_stay_in_convex_hull():
    # averages of points in a ball stay in the ball
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(50, 4))
    xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
    for est in (SuffixAverage(start_index=10), WeightedAverage()):
        for j, x in enumerate(xs):
            est.observe(x, j)
        assert np.linalg.norm(est.current()) <= 1.0 + 1e-12


def test_batched_observations():
    est = WeightedAverage()
    est.observe(np.ones((4, 2)), 0)
    est.observe(3.0 * np.ones((4, 2)), 1)
    np.testing.assert_allclose(est.current(), (1.0 + 6.0) / 3.0 * np.ones((4, 2)))


@pytest.mark.parametrize("est", [SuffixAverage(start_index=0),
                                 WeightedAverage()],
                         ids=["suffix", "weighted"])
def test_accumulating_in_place_aliases_nothing(est):
    # The accumulator is added into in place: an earlier current() result
    # and the observed iterates must not change with later observations.
    first, second = np.array([[1.0, 2.0]]), np.array([[5.0, -1.0]])
    est.observe(first, 0)
    earlier = est.current()
    kept = earlier.copy()
    est.observe(second, 1)
    np.testing.assert_array_equal(earlier, kept)
    np.testing.assert_array_equal(first, [[1.0, 2.0]])
    np.testing.assert_array_equal(second, [[5.0, -1.0]])
    assert not np.array_equal(est.current(), kept)


def test_out_of_order_rejected():
    est = SuffixAverage(start_index=0)
    est.observe(np.array([1.0]), 3)
    with pytest.raises(ValueError):
        est.observe(np.array([1.0]), 3)
    with pytest.raises(ValueError):
        est.observe(np.array([1.0]), 1)


def test_make_estimator():
    assert isinstance(make_estimator("last"), Last)
    assert isinstance(make_estimator("suffix", suffix_start=4), SuffixAverage)
    assert isinstance(make_estimator("weighted"), WeightedAverage)
    with pytest.raises(ValueError):
        make_estimator("median")
    assert set(ESTIMATOR_NAMES) == {"last", "suffix", "weighted"}
