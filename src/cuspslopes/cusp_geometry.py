"""Euclidean geometry of a cusp torus and its slopes.

A cusp cross-section of a one-cusped hyperbolic 3-manifold is a flat torus,
described here by two translation vectors (the marked meridian/longitude
basis).  Slopes are primitive integer homology classes; their geodesic
representatives have a well-defined Euclidean length, pairwise angle and
intersection number, tied together by the identity

    len(s1) * len(s2) * sin(angle) = delta(s1, s2) * area.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys

Vec2 = tuple[float, float]

# A basis is degenerate when |det| <= DEGENERACY_TOL * |meridian| * |longitude|,
# that is when the sine of the angle between its vectors is at most this.  The
# test is relative, so it does not change when the shape is rescaled.  Census
# data carries roundoff on the order of 1e-15.  ``slope_search``'s scan relies
# on it: it keeps the rounding bound delta of the reduced basis below 2^-7.
DEGENERACY_TOL = 1e-12

_FLOAT_MAX = sys.float_info.max


class DegenerateBasisError(ValueError):
    """Raised when the two translation vectors fail to span the torus."""


class NonPrimitiveSlopeError(ValueError):
    """Raised for integer pairs that are not a primitive homology class."""


def _det(u: Vec2, v: Vec2) -> float:
    return u[0] * v[1] - u[1] * v[0]


# How a value type's ``__init__`` writes its slots past ``_Value.__setattr__``.
_set = object.__setattr__


class _Value:
    """Base of the package's immutable value types.

    A subclass lists its fields once, as ``__slots__ = _fields = (...)``, and
    writes its own ``__init__``, which stores each field with ``_set`` and
    then checks it.  Instances are equal when their classes are the same and
    their fields are equal, hash like the tuple of their fields, and read
    back as ``Name(field=value, ...)``.  Assignment and deletion raise
    ``AttributeError``; ``pickle`` and ``copy`` rebuild through ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class _Shown(reprlib.Repr):
    """``reprlib`` that draws an int past the float range by its bit length:
    ``repr`` refuses ints past 4,300 digits, also inside a container."""

    def repr_int(self, x: int, level: int) -> str:
        if x.bit_length() > 1023:
            return f"a {x.bit_length()}-bit integer"
        return super().repr_int(x, level)


# The one way a refusal shows a value: at most a few dozen characters, and it
# never raises.
_shown = _Shown().repr


def _real(x, what: str, error=ValueError) -> float:
    """The one check of a real number a caller passes in: an ``int`` or
    ``float`` (not a ``bool``) that is finite as a float, returned as a float.
    Each refusal is an ``error`` whose message names the field ``what``."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise error(f"{what} must be a number, got {_shown(x)}")
        try:
            x = float(x)
        except OverflowError:
            raise error(f"{what} is an integer past the float range") from None
    if not math.isfinite(x):
        raise error(f"{what} must be finite, got {x!r}")
    return x


def _positive(x, what: str, error=ValueError) -> float:
    """``_real`` that is also positive (so not 0.0 or -0.0): the one check of
    a length, an area, a radius or a margin a caller passes in."""
    if type(x) is float and 0.0 < x <= _FLOAT_MAX:  # the common case, in one call
        return x
    x = _real(x, what, error)
    if not x > 0.0:
        raise error(f"{what} must be positive, got {x!r}")
    return x


def _is_int(x) -> bool:
    """An ``int`` that is not a ``bool``."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def _count(x, what: str, least: int | None = None, error=ValueError) -> int:
    """The one check of an integer a caller passes in: an ``int`` (not a
    ``bool``) that is at least ``least`` when that is given, and inside the
    float range, so that turning it into a float never raises
    ``OverflowError``.  A refusal is an ``error`` whose message names the
    field ``what`` and, first, its own bound."""
    if not _is_int(x):
        raise error(f"{what} must be an integer, got {_shown(x)}")
    if least is not None and x < least:
        raise error(f"{what} must be at least {least}, got {_shown(x)}")
    # |x| < 2**1023 is inside the float range; past it, compare exactly (an
    # int-float comparison does not round)
    if x.bit_length() > 1023 and abs(x) > _FLOAT_MAX:
        limit = f"at most {_FLOAT_MAX!r}" if x > 0 else f"at least {-_FLOAT_MAX!r}"
        raise error(f"{what} must be {limit}, got {_shown(x)}")
    return x


def _pair(v, what: str, error=ValueError) -> Vec2:
    """The one check of a point a caller passes in: a tuple or list of exactly
    two reals (``_real``, named ``what[0]`` and ``what[1]``), returned as a
    tuple of floats."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise error(f"{what} must be a pair of numbers, got {_shown(v)}")
    return (_real(v[0], what + "[0]", error), _real(v[1], what + "[1]", error))


class CuspShape(_Value):
    """Marked flat torus: meridian and longitude translation vectors.

    The basis is orientation-normalized at construction (vectors swapped if
    the determinant is negative), so ``area`` equals the raw determinant.
    The name is a string or None; anything else is a ``ValueError``, since
    a cusp file or report could not hold it.
    """

    __slots__ = _fields = ("meridian", "longitude", "name")

    def __init__(self, meridian: Vec2, longitude: Vec2, name: str | None = None) -> None:
        _set(self, "meridian", meridian)
        _set(self, "longitude", longitude)
        _set(self, "name", name)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (self.name is None or isinstance(self.name, str)):
            raise ValueError(f"cusp name must be a string or None, got {_shown(self.name)}")
        mer = _pair(self.meridian, "cusp meridian", DegenerateBasisError)
        lon = _pair(self.longitude, "cusp longitude", DegenerateBasisError)
        det = _det(mer, lon)
        # written with `not >` so that a NaN det (inf - inf) is rejected too
        if not abs(det) > DEGENERACY_TOL * math.hypot(*mer) * math.hypot(*lon):
            raise DegenerateBasisError(
                f"cusp basis is degenerate (det = {det!r})"
            )
        if det < 0.0:
            mer, lon = lon, mer
        _set(self, "meridian", mer)
        _set(self, "longitude", lon)


@functools.total_ordering
class Slope(_Value):
    """Primitive class (a, b), canonicalized so b > 0, or b = 0 and a = 1.

    Slopes are ordered like their (a, b) pairs: ``__lt__`` says so, and
    ``functools.total_ordering`` derives the other three comparisons from it
    and ``==``."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if not (_is_int(a) and _is_int(b)):
            raise NonPrimitiveSlopeError("slope coordinates must be integers")
        a, b = int(a), int(b)
        if math.gcd(a, b) != 1:
            raise NonPrimitiveSlopeError("slope is not a primitive class (gcd(a, b) != 1)")
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        _set(self, "a", a)
        _set(self, "b", b)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b) < (other.a, other.b)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


def _slope(a: int, b: int) -> Slope:
    """``Slope(a, b)`` for ints the caller knows to be coprime: the sign is
    made canonical, and the type and gcd checks are skipped."""
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    s = object.__new__(Slope)
    _set(s, "a", a)
    _set(s, "b", b)
    return s


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
