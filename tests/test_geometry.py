import math

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

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_ball_radius_finite(self, radius):
        with pytest.raises(ValueError, match="ball radius must be"):
            Ball(center=[0.0], radius=radius)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ball_center_finite(self, bad):
        with pytest.raises(ValueError, match="ball center must be finite"):
            Ball(center=[0.0, bad], radius=1.0)

    def test_box_positive_edges(self):
        with pytest.raises(ValueError):
            Box(lower=[0.0, 0.0], upper=[1.0, 0.0])

    @pytest.mark.parametrize("make, message", [
        (lambda: Ball(center=[], radius=1.0),
         "ball center must be a non-empty 1-D vector"),
        (lambda: Ball(center=[[0.0]], radius=1.0),
         "ball center must be a non-empty 1-D vector"),
        (lambda: Box(lower=[], upper=[]),
         "box bounds must be non-empty 1-D vectors of equal length"),
        (lambda: Box(lower=[0.0], upper=[1.0, 2.0]),
         "box bounds must be non-empty 1-D vectors of equal length"),
    ])
    def test_empty_or_misshapen_vectors_refused(self, make, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            make()


def _interior_margin_formula(domain, point) -> float:
    """The interior margin as problems.py first computed it, branching on
    the domain type: the reference Ball.margin and Box.margin must match
    bit for bit."""
    if isinstance(domain, Ball):
        return domain.radius - float(np.linalg.norm(point - domain.center))
    return float(np.min(np.minimum(point - domain.lower, domain.upper - point)))


@pytest.mark.parametrize("domain", [
    Ball(center=[0.0, 0.0], radius=1.0),
    Ball(center=[1.5, -2.0, 0.3], radius=0.7),
    Ball(center=np.linspace(-1.0, 1.0, 10), radius=1e-3),
    Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
    Box(lower=[-2.0, 0.5, 0.0], upper=[1.0, 3.5, 1e-9]),
])
def test_margin_matches_formula(domain):
    rng = np.random.default_rng(domain.dimension)
    scale = domain.diameter()
    points = rng.normal(scale=scale, size=(200, domain.dimension))
    points = np.concatenate([points, domain.project(points)])
    for point in points:
        got = domain.margin(point)
        assert type(got) is float
        assert np.array_equal(got, _interior_margin_formula(domain, point))


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


def _norm_formula_project(ball, point):
    """Ball.project as first written, on np.linalg.norm over the whole
    batch: the reference the column-wise projection must match bit for
    bit."""
    point = np.asarray(point, dtype=float)
    delta = point - ball.center
    nrm = np.linalg.norm(delta, axis=-1, keepdims=True)
    outside = nrm > ball.radius
    if not np.any(outside):
        return np.array(point, copy=True)
    scale = np.where(outside, ball.radius / np.where(outside, nrm, 1.0), 1.0)
    while True:
        out = np.where(outside, ball.center + delta * scale, point)
        new_nrm = np.linalg.norm(out - ball.center, axis=-1, keepdims=True)
        still = outside & (new_nrm > ball.radius)
        if not np.any(still):
            return out
        scale = np.where(still, np.nextafter(scale, 0.0), scale)


def _ball_points(ball, rng, n, kinds=("near", "outside", "inside")):
    """n points cycling through the kinds: within 3 ulp of the sphere,
    outside it, inside it."""
    direction = rng.normal(size=(n, ball.dimension))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radii = {
        "near": ball.radius + rng.integers(-3, 4, n) * np.spacing(ball.radius),
        "outside": ball.radius * (1.0 + rng.exponential(2.0, n)),
        "inside": ball.radius * rng.uniform(0.0, 1.0, n),
    }
    r = np.stack([radii[kinds[i % len(kinds)]][i] for i in range(n)])
    return ball.center + r[:, None] * direction


class TestBallProjectMatchesNormFormula:
    """Ball.project sums squares column by column below 8 coordinates and
    with np.add.reduce from 8 on; both must give the norm formula's bits.
    At every dimension it decides "no row moves" on the squares against an
    exact threshold, with the center cached at the iterate's shape. The
    golden outputs reach d = 2 and d = 10 on a ball."""

    DIMENSIONS = (1, 2, 3, 7, 8, 10, 17)

    @pytest.mark.parametrize("d", DIMENSIONS)
    @pytest.mark.parametrize("R", (1, 2, 200, 2000))
    def test_batched(self, d, R):
        rng = np.random.default_rng(100 * d + R)
        ball = Ball(center=rng.normal(size=d), radius=1.7)
        points = _ball_points(ball, rng, R)
        got = ball.project(points)
        assert got.shape == points.shape
        assert np.array_equal(got, _norm_formula_project(ball, points))

    @pytest.mark.parametrize("d", DIMENSIONS)
    @pytest.mark.parametrize("kind", ("near", "outside", "inside"))
    def test_single_point(self, d, kind):
        rng = np.random.default_rng(d)
        ball = Ball(center=rng.normal(size=d), radius=0.3)
        for point in _ball_points(ball, rng, 50, kinds=(kind,)):
            got = ball.project(point)
            assert got.shape == (d,)
            assert np.array_equal(got, _norm_formula_project(ball, point))

    @pytest.mark.parametrize("d", (2, 10))
    def test_leading_axes_and_input_untouched(self, d):
        rng = np.random.default_rng(5)
        ball = Ball(center=np.zeros(d), radius=1.0)
        points = _ball_points(ball, rng, 24).reshape(2, 3, 4, d)
        before = points.copy()
        got = ball.project(points)
        assert np.array_equal(got, _norm_formula_project(ball, points))
        assert np.array_equal(points, before)
        assert not np.shares_memory(got, points)

    @staticmethod
    def _same_bits(ball, points):
        with np.errstate(over="ignore", invalid="ignore"):
            got = ball.project(points)
            want = _norm_formula_project(ball, points)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("radius", (1e-300, 1e-150, 0.3, 1.7, 2.0, 1e150,
                                        1e200, np.finfo(float).max))
    def test_threshold_is_tight(self, radius):
        ball = Ball(center=[0.0, 0.0], radius=radius)
        inside_sq = ball._inside_sq
        assert math.sqrt(inside_sq) <= radius
        assert radius < math.sqrt(math.nextafter(inside_sq, math.inf))
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 10):
            ball = Ball(center=np.zeros(d), radius=radius)
            assert ball._inside_sq == inside_sq
            with np.errstate(over="ignore", invalid="ignore"):
                points = _ball_points(ball, rng, 60, kinds=("near", "inside"))
            self._same_bits(ball, points)
            for point in points[:12]:
                self._same_bits(ball, point)

    @pytest.mark.parametrize("d", (1, 2, 3, 7, 10))
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_rows(self, d, bad):
        rng = np.random.default_rng(d)
        ball = Ball(center=rng.normal(size=d), radius=1.7)
        inside = _ball_points(ball, rng, 40, kinds=("inside",))
        mixed = _ball_points(ball, rng, 40)
        for points in (inside, mixed):
            for rows in ([0], [5, 17], [39]):
                batch = points.copy()
                batch[rows, -1] = bad
                self._same_bits(ball, batch)
                batch[rows] = bad
                self._same_bits(ball, batch)
            self._same_bits(ball, np.full(d, bad))

    @pytest.mark.parametrize("d", (1, 2, 7, 10))
    def test_shape_changes(self, d):
        rng = np.random.default_rng(30 + d)
        ball = Ball(center=rng.normal(size=d), radius=1.7)
        for R in (2000, 2, None, 0, 2000):
            if R is None:   # single (d,) points, whose square is 0-d
                for point in _ball_points(ball, rng, 60):
                    self._same_bits(ball, point)
            elif R == 0:
                self._same_bits(ball, np.empty((0, d)))
            else:
                for kinds in (("inside",), ("near", "outside", "inside")):
                    self._same_bits(ball, _ball_points(ball, rng, R, kinds))

    def test_dimension_mismatch_after_warm_cache(self):
        ball = Ball(center=[0.0, 0.0], radius=1.0)
        ball.project(np.zeros((3, 2)))
        for point in (np.zeros((2, 3)), np.zeros(6), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError, match=(
                    rf"^point dimension {point.shape[-1]} does not match "
                    r"domain dimension 2$")):
                ball.project(point)
        assert np.array_equal(ball.project(np.full((3, 2), 0.5)),
                              np.full((3, 2), 0.5))

    @pytest.mark.parametrize("center, point", [
        ([0.42986369482223, 0.6960427239628685],
         [-1.0541457801565852, -0.13324364284482298]),
        ([0.9166547888245957, 0.37094683509441023],
         [2.566593826969309, -0.03856649851769276]),
    ])
    def test_row_exactly_at_the_threshold_stays(self, center, point):
        # Its squared distance is _inside_sq itself, so it lies inside; a
        # rescale by 1 would still move it, as center + delta != point.
        ball = Ball(center=center, radius=1.7)
        delta = np.subtract(point, center)
        assert delta[0] * delta[0] + delta[1] * delta[1] == ball._inside_sq
        assert not np.array_equal(ball.center + delta, point)
        batch = np.array([point, ball.center + [5.0, 0.0]])
        got = ball.project(batch)
        assert got.tobytes() == _norm_formula_project(ball, batch).tobytes()
        assert got[0].tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("d", (1, 2, 7, 10))
    def test_all_inside_result_is_fresh(self, d):
        # Batch and Last.observe rely on a result that owns its memory.
        ball = Ball(center=np.zeros(d), radius=1.0)
        points = np.full((2, d), 0.1)
        for _ in range(3):
            got = ball.project(points)
            assert np.array_equal(got, points)
            assert not np.shares_memory(got, points)
            centers, = ball._operands
            assert centers.shape == points.shape
            assert not np.shares_memory(got, centers)
            got[:] = 5.0
            assert np.all(points == 0.1)
        single = ball.project(points[0])
        assert not np.shares_memory(single, points)

    def test_near_points_reach_the_ulp_loop(self):
        # Points an ulp or three outside need the scale shrunk past
        # radius / norm; the batched case above must exercise that loop.
        rng = np.random.default_rng(100 * 2 + 2000)
        ball = Ball(center=rng.normal(size=2), radius=1.7)
        points = _ball_points(ball, rng, 2000)
        delta = points - ball.center
        nrm = np.linalg.norm(delta, axis=-1, keepdims=True)
        outside = nrm > ball.radius
        once = np.linalg.norm(ball.center + delta * (ball.radius / nrm)
                              - ball.center, axis=-1, keepdims=True)
        assert np.any(outside & (once > ball.radius))


def _row_support(domain, x) -> float:
    """The support function of one row, as first written."""
    if isinstance(domain, Ball):
        return float(x @ domain.center + domain.radius * np.linalg.norm(x))
    return float(np.sum(np.where(x >= 0, x * domain.upper, x * domain.lower)))


class TestBatchedSupportMatchesRowFormula:
    """support over a batch of rows must give each row's float bit for
    bit, signed zeros included; numpy sums 8 or more terms pairwise."""

    @staticmethod
    def _domains(rng, d):
        center = rng.normal(size=d)
        width = rng.uniform(0.1, 2.0, d)
        return (Ball(center=center, radius=1.3),
                Box(lower=center - width, upper=center + width),
                Box(lower=np.full(d, 0.5), upper=np.full(d, 2.0)),
                Box(lower=np.full(d, -0.25), upper=np.full(d, 0.25)))

    @staticmethod
    def _designs(rng, d):
        full = rng.normal(size=(30, d + 2))
        full[rng.random(full.shape) < 0.2] = 0.0
        full[rng.random(full.shape) < 0.1] = -0.0
        full[[0, 7]] = 0.0
        full[11] = -0.0
        # x * bound underflows to a zero whose sign follows the bound's
        full[12] = -np.finfo(float).smallest_subnormal
        full[13] = np.finfo(float).smallest_subnormal
        return {"contiguous": np.ascontiguousarray(full[:, :d]),
                "column_sliced": full[:, 1:d + 1]}

    @pytest.mark.parametrize("d", (1, 2, 7, 8, 13))
    def test_rows_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        for domain in self._domains(rng, d):
            for layout, X in self._designs(rng, d).items():
                for rows in (X, -X):
                    got = domain.support(rows)
                    want = np.array([_row_support(domain, x) for x in rows])
                    assert got.shape == (len(rows),), layout
                    assert got.tobytes() == want.tobytes(), layout
                    stacked = domain.support(rows.reshape(2, -1, d))
                    assert stacked.tobytes() == want.tobytes(), layout

    @pytest.mark.parametrize("d", (1, 2, 7, 8, 13))
    def test_one_row_is_a_scalar(self, d):
        rng = np.random.default_rng(50 + d)
        for domain in self._domains(rng, d):
            for x in self._designs(rng, d)["column_sliced"][:12]:
                got = domain.support(x)
                assert np.ndim(got) == 0
                assert got == _row_support(domain, x)
                assert (np.float64(got).tobytes()
                        == np.float64(_row_support(domain, x)).tobytes())
