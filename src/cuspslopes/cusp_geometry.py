"""Euclidean geometry of a cusp torus and its slopes.

A cusp cross-section of a one-cusped hyperbolic 3-manifold is a flat torus,
described here by two translation vectors (the marked meridian/longitude
basis).  Slopes are primitive integer homology classes; their geodesic
representatives have a well-defined Euclidean length, pairwise angle and
intersection number, tied together by the identity

    len(s1) * len(s2) * sin(angle) = delta(s1, s2) * area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Vec2 = tuple[float, float]

# A basis is degenerate when |det| <= DEGENERACY_TOL * |meridian| * |longitude|,
# that is when the sine of the angle between its vectors is at most this.  The
# test is relative, so it does not change when the shape is rescaled.  Census
# data carries roundoff on the order of 1e-15.
DEGENERACY_TOL = 1e-12


class DegenerateBasisError(ValueError):
    """Raised when the two translation vectors fail to span the torus."""


class NonPrimitiveSlopeError(ValueError):
    """Raised for integer pairs that are not a primitive homology class."""


def _det(u: Vec2, v: Vec2) -> float:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class CuspShape:
    """Marked flat torus: meridian and longitude translation vectors.

    The basis is orientation-normalized at construction (vectors swapped if
    the determinant is negative), so ``area`` equals the raw determinant.
    """

    meridian: Vec2
    longitude: Vec2
    name: str | None = None

    def __post_init__(self) -> None:
        mer = (float(self.meridian[0]), float(self.meridian[1]))
        lon = (float(self.longitude[0]), float(self.longitude[1]))
        if not all(math.isfinite(c) for c in (*mer, *lon)):
            raise DegenerateBasisError("cusp basis must be finite")
        det = _det(mer, lon)
        # written with `not >` so that a NaN det (inf - inf) is rejected too
        if not abs(det) > DEGENERACY_TOL * math.hypot(*mer) * math.hypot(*lon):
            raise DegenerateBasisError(
                f"cusp basis is degenerate (det = {det!r})"
            )
        if det < 0.0:
            mer, lon = lon, mer
        object.__setattr__(self, "meridian", mer)
        object.__setattr__(self, "longitude", lon)


@dataclass(frozen=True, order=True)
class Slope:
    """Primitive class (a, b), canonicalized so b > 0, or b = 0 and a = 1."""

    a: int
    b: int

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if isinstance(a, bool) or isinstance(b, bool):
            raise NonPrimitiveSlopeError("slope coordinates must be integers")
        if a != int(a) or b != int(b):
            raise NonPrimitiveSlopeError("slope coordinates must be integers")
        a, b = int(a), int(b)
        if math.gcd(a, b) != 1:
            raise NonPrimitiveSlopeError(
                f"({a}, {b}) is not a primitive class (gcd != 1)"
            )
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def area(shape: CuspShape) -> float:
    """Area of the flat torus, |det[meridian, longitude]|."""
    return _det(shape.meridian, shape.longitude)


def slope_vector(shape: CuspShape, s: Slope) -> Vec2:
    """Translation vector a*meridian + b*longitude realizing the slope."""
    mx, my = shape.meridian
    lx, ly = shape.longitude
    return (s.a * mx + s.b * lx, s.a * my + s.b * ly)


def slope_length(shape: CuspShape, s: Slope) -> float:
    """Length of the Euclidean geodesic representative of the slope."""
    vx, vy = slope_vector(shape, s)
    return math.hypot(vx, vy)


def intersection_number(s1: Slope, s2: Slope) -> int:
    """Minimal geometric crossing number |a*d - b*c| of two slopes."""
    return abs(s1.a * s2.b - s1.b * s2.a)


def slope_angle(shape: CuspShape, s1: Slope, s2: Slope) -> float:
    """Angle in (0, pi) between the geodesic directions of two distinct slopes.

    Computed as atan2(|cross|, dot) of the translation vectors, which stays
    stable when the directions are nearly parallel.
    """
    if s1 == s2:
        raise ValueError(f"angle undefined for equal slopes {s1}")
    v1 = slope_vector(shape, s1)
    v2 = slope_vector(shape, s2)
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    return math.atan2(abs(cross), dot)


def area_identity_residual(shape: CuspShape, s1: Slope, s2: Slope) -> float:
    """len(s1)*len(s2)*sin(angle) - delta*area; zero up to roundoff.

    Contract: |residual| <= 1e-9 * delta * area for all valid inputs.
    """
    theta = slope_angle(shape, s1, s2)
    lhs = slope_length(shape, s1) * slope_length(shape, s2) * math.sin(theta)
    rhs = intersection_number(s1, s2) * area(shape)
    return lhs - rhs
