"""Compact convex domains (ball, box) with exact diameters and closed-form
Euclidean projections.

All operations broadcast over leading axes, so a batch of points with shape
``(R, d)`` projects in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float
    # The largest float whose sqrt is <= radius, and full_operands' cache
    # (derived, so compare=False keeps them out of config_hash).
    _inside_sq: float = field(default=0.0, init=False, repr=False,
                              compare=False)
    _operands: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1 or not self.center.size:
            raise ValueError("ball center must be a non-empty 1-D vector")
        if not np.isfinite(self.center).all():
            raise ValueError(f"ball center must be finite, got "
                             f"{self.center.tolist()}")
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if not math.isfinite(self.radius):
            raise ValueError(f"ball radius must be finite, got {self.radius}")
        # sqrt is correctly rounded and monotone, so sqrt(s) > radius holds
        # exactly when s > inside_sq.
        radius = float(self.radius)
        inside_sq = radius * radius
        while math.sqrt(inside_sq) > radius:
            inside_sq = math.nextafter(inside_sq, 0.0)
        while math.sqrt(math.nextafter(inside_sq, math.inf)) <= radius:
            inside_sq = math.nextafter(inside_sq, math.inf)
        object.__setattr__(self, "_inside_sq", inside_sq)

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def diameter(self) -> float:
        return 2.0 * self.radius

    def project(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        centers, = full_operands(self, point, (self.center,))
        sq = _sum_squares(point - centers)
        # No row moves when the largest square is at most _inside_sq.
        # argmax returns the first NaN, which fails that test, so NaN rows
        # and an empty batch take the mask below, which moves none of them.
        if sq.size and sq.item(sq.argmax()) <= self._inside_sq:
            return point.copy()
        outside = sq > self._inside_sq
        out = point.copy()
        # Only the outside rows move: out[outside] is center + delta * scale
        # with scale = radius / ||delta||. A single rescale can land an ulp
        # outside the ball (breaking bit-for-bit idempotence), and
        # radius/nrm can even round to 1.0 for points barely outside. Shrink
        # the scale one ulp at a time until every rescaled point tests
        # inside; this terminates because the scale strictly decreases while
        # the original delta stays fixed.
        rows = point[outside]
        delta = rows - self.center
        scale = self.radius / self._norm(rows)
        while True:
            moved = self.center + delta * scale[:, None]
            still = self._norm(moved) > self.radius
            if not still.any():
                out[outside] = moved
                return out
            scale[still] = np.nextafter(scale[still], 0.0)

    def _norm(self, point) -> np.ndarray:
        """||point - center|| over the last axis, bit for bit what
        np.linalg.norm(point - center, axis=-1) returns."""
        return np.sqrt(_sum_squares(point - self.center))

    def distance(self, point) -> np.ndarray:
        point = _check_dimension(self, point)
        return np.maximum(self._norm(point) - self.radius, 0.0)

    def support(self, direction):
        """sup_{x in D} <direction, x>, over the last axis. np.vecdot sums
        each row as the one-row `@` and np.linalg.norm do, so a batch gives
        every row's float bit for bit."""
        direction = np.asarray(direction, dtype=float)
        return (np.vecdot(direction, self.center)
                + self.radius * np.sqrt(np.vecdot(direction, direction)))

    def farthest_distance(self, point) -> float:
        """max_{x in D} ||x - point||."""
        point = np.asarray(point, dtype=float)
        return float(np.linalg.norm(point - self.center) + self.radius)

    def margin(self, point) -> float:
        """How far the point lies inside the ball; negative outside."""
        return self.radius - float(np.linalg.norm(point - self.center))

    def sample_interior(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw from the ball."""
        d = self.dimension
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        u = rng.random() ** (1.0 / d)
        return self.center + self.radius * u * direction


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper} with positive edge lengths."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if (self.lower.shape != self.upper.shape or self.lower.ndim != 1
                or not self.lower.size):
            raise ValueError("box bounds must be non-empty 1-D vectors of "
                             "equal length")
        if not np.all(self.upper > self.lower):
            raise ValueError("box must have strictly positive edge lengths")

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, point) -> np.ndarray:
        point = _check_dimension(self, point)
        return np.clip(point, self.lower, self.upper)

    def distance(self, point) -> np.ndarray:
        point = _check_dimension(self, point)
        excess = np.maximum(np.maximum(self.lower - point, point - self.upper), 0.0)
        return np.linalg.norm(excess, axis=-1)

    def support(self, direction):
        direction = np.asarray(direction, dtype=float)
        return np.sum(np.where(direction >= 0, direction * self.upper,
                               direction * self.lower), axis=-1)

    def farthest_distance(self, point) -> float:
        point = np.asarray(point, dtype=float)
        per_coord = np.maximum(np.abs(point - self.lower), np.abs(point - self.upper))
        return float(np.linalg.norm(per_coord))

    def margin(self, point) -> float:
        """How far the point lies inside the box; negative outside."""
        return float(np.min(np.minimum(point - self.lower, self.upper - point)))

    def sample_interior(self, rng: np.random.Generator) -> np.ndarray:
        return self.lower + rng.random(self.dimension) * (self.upper - self.lower)


Domain = Ball | Box


def _check_dimension(domain: Domain, point) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != domain.dimension:
        raise ValueError(
            f"point dimension {point.shape[-1]} does not match domain "
            f"dimension {domain.dimension}"
        )
    return point


def full_operands(owner, point: np.ndarray, vectors: tuple) -> tuple:
    """`vectors`, each of owner's dimension, repeated to point's shape as
    contiguous arrays, kept in owner._operands for the last shape asked
    for; the dimension is checked whenever that shape changes. Against
    (R, d) iterates numpy runs a broadcast (d,) operand d elements at a
    time; full-shape operands give the same elementwise results in one
    pass."""
    cached = owner._operands
    if cached is None or cached[0].shape != point.shape:
        shape = _check_dimension(owner, point).shape
        cached = tuple(np.ascontiguousarray(np.broadcast_to(v, shape))
                       for v in vectors)
        object.__setattr__(owner, "_operands", cached)
    return cached


def _sum_squares(delta: np.ndarray) -> np.ndarray:
    """The sum of squares over the last axis that np.linalg.norm takes the
    root of, same bits; squares `delta` in place. numpy adds fewer than 8
    squares left to right, so below 8 coordinates a fold over whole columns
    gives the same sum without numpy's slow d-element inner loops; from 8
    on its pairwise order differs and np.add.reduce itself is used."""
    delta *= delta
    d = delta.shape[-1]
    if d >= 8:
        return np.add.reduce(delta, axis=-1)
    sq = delta[..., 0]
    for k in range(1, d):
        sq = sq + delta[..., k]     # a contiguous sum, not in place
    return sq


def contains(domain: Domain, point, tolerance: float = 0.0):
    """True iff distance(point, D) <= tolerance (closed-set convention)."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    return domain.distance(point) <= tolerance
