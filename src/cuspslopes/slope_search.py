"""Enumeration of all short slopes on a cusp torus.

A slope is short when its geodesic length is at most a threshold (default 6,
the six-theorem cutoff below which a filling can fail to be hyperbolike).
The search box is derived from the lattice heights orthogonal to each basis
vector, which makes completeness provable and easy to check against brute
force.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .cusp_geometry import CuspShape, Slope, area, intersection_number, slope_length

# Slopes strictly longer than this have hyperbolike fillings.
SIX_THEOREM_LENGTH = 6.0

# Lengths within this of the threshold are included and flagged, so census
# noise cannot silently drop an equality case.
BOUNDARY_TOL = 1e-12


class SlopeClass(enum.Enum):
    CANDIDATE_EXCEPTIONAL = "candidate_exceptional"
    HYPERBOLIKE_GUARANTEED = "hyperbolike_guaranteed"


@dataclass(frozen=True)
class SlopeEntry:
    slope: Slope
    length: float
    boundary: bool = False


@dataclass(frozen=True)
class ShortSlopeReport:
    """All primitive slopes of length <= threshold, with pairwise crossing data.

    Entries are sorted by (length, then lexicographic (a, b)); delta_matrix
    follows that order.  max_delta is 0 when fewer than two slopes qualify.
    """

    shape: CuspShape
    threshold: float
    entries: tuple[SlopeEntry, ...]
    delta_matrix: tuple[tuple[int, ...], ...]
    max_delta: int

    @property
    def slopes(self) -> tuple[Slope, ...]:
        return tuple(e.slope for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def search_box(shape: CuspShape, threshold: float) -> tuple[int, int]:
    """Coefficient bounds (amax, bmax) that contain every short slope.

    A vector a*m + b*l sits at distance |a| * area/|l| from the line through
    l, so |a| <= threshold*|l|/area; symmetrically for b.
    """
    a = area(shape)
    norm_m = math.hypot(*shape.meridian)
    norm_l = math.hypot(*shape.longitude)
    reach = threshold + BOUNDARY_TOL
    amax = math.ceil(reach * norm_l / a + 1e-9)
    bmax = math.ceil(reach * norm_m / a + 1e-9)
    return amax, bmax


def enumerate_short_slopes(shape: CuspShape, threshold: float) -> ShortSlopeReport:
    """All primitive slope classes with length <= threshold (+ boundary tol)."""
    if not (isinstance(threshold, (int, float)) and math.isfinite(threshold)):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    threshold = float(threshold)
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")

    amax, bmax = search_box(shape, threshold)
    found: list[SlopeEntry] = []
    for b in range(0, bmax + 1):
        a_range = (1,) if b == 0 else range(-amax, amax + 1)
        for a in a_range:
            if math.gcd(a, b) != 1:
                continue
            s = Slope(a, b)
            length = slope_length(shape, s)
            if length <= threshold + BOUNDARY_TOL:
                boundary = abs(length - threshold) <= BOUNDARY_TOL
                found.append(SlopeEntry(s, length, boundary))

    found.sort(key=lambda e: (e.length, (e.slope.a, e.slope.b)))
    matrix, max_delta = crossing_data([e.slope for e in found])
    return ShortSlopeReport(shape, threshold, tuple(found), matrix, max_delta)


def crossing_data(slopes) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Pairwise intersection matrix of the slopes, in their order, and its
    largest entry (0 when fewer than two slopes are given)."""
    matrix = tuple(
        tuple(intersection_number(s1, s2) for s2 in slopes) for s1 in slopes
    )
    return matrix, max((max(row) for row in matrix), default=0)


def classify_slope(
    shape: CuspShape, s: Slope, threshold: float = SIX_THEOREM_LENGTH
) -> SlopeClass:
    """Strictly longer than the threshold guarantees a hyperbolike filling."""
    if slope_length(shape, s) > threshold:
        return SlopeClass.HYPERBOLIKE_GUARANTEED
    return SlopeClass.CANDIDATE_EXCEPTIONAL
