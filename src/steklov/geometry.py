"""Rectangle geometry and boundary-side parametrizations.

The normalized rectangle has width 2 and height 2h, centered at the origin:
(-1, 1) x (-h, h) with aspect ratio 0 < h <= 1. The boundary splits into four
sides, each parametrized by arc length over a symmetric interval, traversed
counterclockwise (G1 upward, G2 leftward, G3 downward, G4 rightward).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid rectangle parameter or point outside the domain."""


class Side(enum.Enum):
    """The four sides of the rectangle: G1 (x=1), G2 (y=h), G3 (x=-1), G4 (y=-h)."""

    G1 = 1
    G2 = 2
    G3 = 3
    G4 = 4

    @property
    def is_vertical(self) -> bool:
        return self in (Side.G1, Side.G3)


@dataclass(frozen=True)
class Rectangle:
    """The rectangle (-1, 1) x (-h, h).

    h > 1 is rejected: transpose the axes instead of relying on a hidden
    coordinate swap.
    """

    h: float

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise GeometryError(f"aspect ratio h must be positive, got {self.h}")
        if self.h > 1.0:
            raise GeometryError(
                f"aspect ratio h must satisfy h <= 1 (got {self.h}); "
                "transpose the axes for wide-side-up problems"
            )

    @property
    def perimeter(self) -> float:
        return 4.0 * (1.0 + self.h)

    @property
    def is_square(self) -> bool:
        return self.h == 1.0

    def side_interval(self, side: Side) -> tuple[float, float]:
        """Parameter interval of a side: [-h, h] for vertical, [-1, 1] for horizontal."""
        a = self.h if side.is_vertical else 1.0
        return (-a, a)

    def side_point(self, side: Side, t):
        """Boundary point at parameter t, counterclockwise orientation.

        t is a float, or a numpy array of parameters for which the two
        coordinates come back as arrays of t's shape. The float path stays
        free of numpy.
        """
        lo, hi = self.side_interval(side)
        if isinstance(t, np.ndarray):
            return self._side_points(side, t, lo, hi)
        if not (lo <= t <= hi):
            raise GeometryError(f"parameter {t} outside {side.name} interval [{lo}, {hi}]")
        if side is Side.G1:
            return (1.0, t)
        if side is Side.G2:
            return (-t, self.h)
        if side is Side.G3:
            return (-1.0, -t)
        return (t, -self.h)

    def _side_points(self, side: Side, t: np.ndarray, lo: float, hi: float):
        outside = ~((lo <= t) & (t <= hi))
        if outside.any():
            bad = t[outside].flat[0]
            raise GeometryError(f"parameter {bad} outside {side.name} interval [{lo}, {hi}]")
        t = t.astype(float)
        if side is Side.G1:
            return np.full(t.shape, 1.0), t
        if side is Side.G2:
            return -t, np.full(t.shape, self.h)
        if side is Side.G3:
            return np.full(t.shape, -1.0), -t
        return t, np.full(t.shape, -self.h)

    def outward_normal(self, side: Side) -> tuple[float, float]:
        return {
            Side.G1: (1.0, 0.0),
            Side.G2: (0.0, 1.0),
            Side.G3: (-1.0, 0.0),
            Side.G4: (0.0, -1.0),
        }[side]

    def require_inside(self, x, y) -> None:
        """GeometryError unless (x, y) lies in the closed rectangle.

        For arrays that broadcast, every point is checked, a NaN coordinate
        counts as outside, and the message names the first point outside.
        """
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            outside = ~((np.abs(x) <= 1.0) & (np.abs(y) <= self.h))
            if not outside.any():
                return
            x, y = (np.broadcast_to(c, outside.shape)[outside].flat[0] for c in (x, y))
        if not (abs(x) <= 1.0 and abs(y) <= self.h):
            raise GeometryError(
                f"point ({x}, {y}) outside the closed rectangle [-1,1] x [-{self.h},{self.h}]"
            )

    def corner_params(self, corner: tuple[float, float]) -> dict[Side, float]:
        """The two (side, parameter) addresses of a corner point."""
        x, y = corner
        h = self.h
        table = {
            (1.0, h): {Side.G1: h, Side.G2: -1.0},
            (-1.0, h): {Side.G2: 1.0, Side.G3: -h},
            (-1.0, -h): {Side.G3: h, Side.G4: -1.0},
            (1.0, -h): {Side.G4: 1.0, Side.G1: -h},
        }
        try:
            return table[(x, y)]
        except KeyError:
            raise GeometryError(f"({x}, {y}) is not a corner of the rectangle") from None


SIDES = (Side.G1, Side.G2, Side.G3, Side.G4)
