"""Horodisk calculus along a geodesic in the hyperbolic half-plane.

Normalized frame: the geodesic is the vertical axis, and each horodisk is
based on the positive real axis, so a disk of Euclidean radius rho has
center (rho, rho) and touches the geodesic at height rho.  Two disks of
radii r <= R tangent to the geodesic are mutually tangent exactly when
2(R - r)^2 = (R + r)^2, which pins the extremal radius ratio and hence the
minimal spacing of consecutive tangency points.
"""

from __future__ import annotations

import math

from .cusp_geometry import _count, _positive, _real, _set, _Value

_LOG_1_PLUS_SQRT2 = math.log(1.0 + math.sqrt(2.0))

TANGENCY_REL_TOL = 1e-9


class HorodiskPair(_Value):
    """Two horodisks tangent to the vertical geodesic, radii r <= R, with
    R/r and both sides of the tangency test finite."""

    __slots__ = _fields = ("r", "R")

    def __init__(self, r: float, R: float) -> None:
        _set(self, "r", _positive(r, "radius r"))
        _set(self, "R", _real(R, "radius R"))
        if self.R < self.r:
            raise ValueError(f"expected r <= R, got r={self.r}, R={self.R}")
        if not math.isfinite(self.R / self.r):
            raise ValueError(f"R/r overflows for radii r={self.r!r} and R={self.R!r}")
        # 2(R - r)^2 <= 2(R + r)^2, so both sides of the tangency test are finite
        if not math.isfinite(2.0 * (self.R + self.r) * (self.R + self.r)):
            raise ValueError(
                "the tangency test 2(R - r)^2 = (R + r)^2 overflows for "
                f"radii r={self.r!r} and R={self.R!r}"
            )


class WrappingQuery(_Value):
    """Length margin epsilon (slope length > 6 + epsilon) and loop length,
    with a finite wrapping number bound."""

    __slots__ = _fields = ("epsilon", "loop_length")

    def __init__(self, epsilon: float, loop_length: float) -> None:
        _set(self, "epsilon", _positive(epsilon, "epsilon"))
        _set(self, "loop_length", _real(loop_length, "loop length"))
        if self.loop_length < 0.0:
            raise ValueError(f"loop length must be nonnegative, got {self.loop_length}")
        if not math.isfinite(wrapping_bound(self)):
            raise ValueError(
                f"the wrapping number bound overflows for epsilon {self.epsilon!r} "
                f"and loop length {self.loop_length!r}"
            )


class TangencyCheck(_Value):
    __slots__ = _fields = ("tangent", "residual")

    def __init__(self, tangent: bool, residual: float) -> None:
        _set(self, "tangent", tangent)
        _set(self, "residual", residual)  # (R+r)^2 - 2(R-r)^2; zero exactly at mutual tangency


def tangency_separation(pair: HorodiskPair) -> float:
    """Hyperbolic distance ln(R/r) between the tangency points on the geodesic."""
    return math.log(pair.R / pair.r)


def mutually_tangent(pair: HorodiskPair) -> TangencyCheck:
    """Whether the two disks touch each other, via 2(R-r)^2 = (R+r)^2.

    The centers sit at (r, r) and (R, R), so the disks are mutually tangent
    when the center distance sqrt(2)|R - r| equals r + R.  The residual is
    (R+r)^2 - 2(R-r)^2: positive when the disks overlap, negative when they
    are separated, zero at tangency.
    """
    sum_sq = (pair.R + pair.r) ** 2
    residual = sum_sq - 2.0 * (pair.R - pair.r) ** 2
    return TangencyCheck(abs(residual) <= TANGENCY_REL_TOL * sum_sq, residual)


def extremal_ratio() -> float:
    """The ratio R/r > 1 at which both tangencies hold simultaneously.

    Substituting t = R/r into 2(R-r)^2 = (R+r)^2 gives t^2 - 6t + 1 = 0;
    the larger root is (1 + sqrt(2))^2.
    """
    return (6.0 + math.sqrt(36.0 - 4.0)) / 2.0


def boundary_length_lower_bound(j: int) -> float:
    """Minimal geodesic boundary length when j horocusps touch it: 2j*ln(1+sqrt 2)."""
    return 2.0 * _count(j, "j", 0) * _LOG_1_PLUS_SQRT2


def wrapping_bound(q: WrappingQuery) -> float:
    """Upper bound (6+eps)*len / (2*eps*ln(1+sqrt 2)) on the wrapping number.

    Bounds how often a spanning disk for a loop of the given length must
    cross the filling core when every slope is longer than 6 + eps.
    """
    return (6.0 + q.epsilon) * q.loop_length / (2.0 * q.epsilon * _LOG_1_PLUS_SQRT2)
