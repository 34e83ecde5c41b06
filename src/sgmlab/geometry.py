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
    # The largest float whose sqrt is <= radius, and the center repeated to
    # the last iterate shape projected (derived, so compare=False keeps them
    # out of config_hash).
    _inside_sq: float = field(default=0.0, init=False, repr=False,
                              compare=False)
    _centers: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.ndim != 1:
            raise ValueError("ball center must be a 1-D vector")
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
        d = self.center.shape[0]
        if 0 < d < 8:
            # sq is the sum of squares _norm takes the root of, same bits. The
            # center is kept repeated to the point's shape, so the
            # subtraction is one contiguous pass rather than numpy's
            # broadcast of a (d,) operand d elements at a time; the
            # dimension is checked whenever that shape changes.
            centers = self._centers
            if centers is None or centers.shape != point.shape:
                shape = _check_dimension(self, point).shape
                centers = np.ascontiguousarray(np.broadcast_to(self.center,
                                                               shape))
                object.__setattr__(self, "_centers", centers)
            delta = point - centers
            delta *= delta
            sq = delta[..., 0]
            for k in range(1, d):
                sq = sq + delta[..., k]     # a contiguous sum, not in place
            # No row moves when the largest square is at most _inside_sq.
            # argmax returns the first NaN, which fails that test, so NaN
            # rows and an empty batch take the mask below.
            if sq.size and sq.item(sq.argmax()) <= self._inside_sq:
                return point.copy()
            outside = np.sqrt(sq) > self.radius
        else:
            point = _check_dimension(self, point)
            outside = self._norm(point) > self.radius
        out = point.copy()
        if not outside.any():
            return out
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
        np.linalg.norm(point - center, axis=-1) returns. numpy adds fewer
        than 8 squares left to right, so below 8 coordinates a fold over
        whole columns gives the same sum without numpy's slow d-element
        inner loops; from 8 on its pairwise order differs and the norm
        itself is used."""
        if not 0 < self.dimension < 8:
            return np.linalg.norm(point - self.center, axis=-1)
        total = None
        for k, c in enumerate(self.center):
            col = point[..., k] - c
            col *= col
            if total is None:
                total = col
            else:
                total += col
        return np.sqrt(total)

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
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
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


def contains(domain: Domain, point, tolerance: float = 0.0):
    """True iff distance(point, D) <= tolerance (closed-set convention)."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    return domain.distance(point) <= tolerance
