import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgmlab.cli import from_config
from sgmlab.geometry import Ball, Box, contains


UNIT_BALL = Ball(center=[0.0, 0.0], radius=1.0)
UNIT_BOX = Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])


class TestProjectExamples:
    def test_ball_radial_scaling(self):
        assert np.allclose(UNIT_BALL.project([2.0, 0.0]), [1.0, 0.0])

    def test_box_per_coordinate_clamp(self):
        np.testing.assert_array_equal(UNIT_BOX.project([0.5, -2.0]), [0.5, -1.0])

    def test_ball_interior_fixed_point(self):
        p = np.array([0.3, 0.4])
        np.testing.assert_array_equal(UNIT_BALL.project(p), p)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            UNIT_BALL.project([1.0, 2.0, 3.0])


class TestDiameterExamples:
    def test_ball(self):
        assert UNIT_BALL.diameter() == 2.0

    def test_box_3_4_5(self):
        assert Box(lower=[0.0, 0.0], upper=[3.0, 4.0]).diameter() == 5.0

    def test_box_1d(self):
        assert Box(lower=[-1.0], upper=[1.0]).diameter() == 2.0


class TestContainsExamples:
    def test_boundary_at_zero_tolerance(self):
        assert contains(UNIT_BALL, [1.0, 0.0], 0.0)

    def test_just_outside(self):
        assert not contains(UNIT_BALL, [1.0 + 1e-6, 0.0], 1e-9)

    def test_box_center(self):
        assert contains(UNIT_BOX, [0.0, 0.0], 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            contains(UNIT_BALL, [0.0, 0.0], -1.0)


class TestConstruction:
    def test_ball_radius_positive(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0], radius=0.0)

    def test_box_positive_edges(self):
        with pytest.raises(ValueError):
            Box(lower=[0.0, 0.0], upper=[1.0, 0.0])


DOMAINS = [
    UNIT_BALL,
    Ball(center=[1.5, -2.0, 0.3], radius=0.7),
    UNIT_BOX,
    Box(lower=[-2.0, 0.5], upper=[1.0, 3.5]),
]


@pytest.mark.parametrize("domain", DOMAINS)
def test_nonexpansiveness_bulk(domain):
    # >= 10^4 random pairs, relative tolerance 1e-12
    rng = np.random.default_rng(7)
    d = domain.dimension
    x = rng.normal(scale=5.0, size=(10_000, d))
    y = rng.normal(scale=5.0, size=(10_000, d))
    lhs = np.linalg.norm(domain.project(x) - domain.project(y), axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs * (1 + 1e-12))


@pytest.mark.parametrize("domain", DOMAINS)
def test_idempotence_bitwise(domain):
    rng = np.random.default_rng(11)
    x = rng.normal(scale=5.0, size=(10_000, domain.dimension))
    once = domain.project(x)
    twice = domain.project(once)
    np.testing.assert_array_equal(once, twice)


@pytest.mark.parametrize("domain", DOMAINS)
def test_projection_membership(domain):
    rng = np.random.default_rng(13)
    x = rng.normal(scale=10.0, size=(10_000, domain.dimension))
    assert np.all(contains(domain, domain.project(x), 1e-12))


@pytest.mark.parametrize("domain", DOMAINS)
def test_pairwise_distance_below_diameter(domain):
    rng = np.random.default_rng(17)
    x = domain.project(rng.normal(scale=10.0, size=(5_000, domain.dimension)))
    y = domain.project(rng.normal(scale=10.0, size=(5_000, domain.dimension)))
    assert np.all(np.linalg.norm(x - y, axis=1) <= domain.diameter() * (1 + 1e-12))


@given(x=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
       y=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_nonexpansiveness_hypothesis(x, y):
    px, py = UNIT_BALL.project(x), UNIT_BALL.project(y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(np.subtract(x, y)) + 1e-12


def test_config_round_trip():
    for domain in DOMAINS:
        if isinstance(domain, Ball):
            cfg = {"ball": {"center": domain.center.tolist(),
                            "radius": domain.radius}}
        else:
            cfg = {"box": {"lower": domain.lower.tolist(),
                           "upper": domain.upper.tolist()}}
        rebuilt = from_config("domain", cfg)
        assert type(rebuilt) is type(domain)
        assert rebuilt.diameter() == domain.diameter()


def test_config_unknown_kind():
    with pytest.raises(ValueError, match="unknown domain kind"):
        from_config("domain", {"simplex": {}})


def test_config_unknown_key():
    with pytest.raises(ValueError, match="unknown keys"):
        from_config("domain", {"ball": {"center": [0.0], "radius": 1.0,
                                      "bogus": 1}})
