"""Audit predicates for cusp-length inequalities on finite-type surfaces.

An essential surface mapped into a one-cusped manifold, with punctures on a
common horocusp, obeys the budget

    sum of cusp slope lengths <= 6 * |euler characteristic|.

The constant 6 is the product of the circle-packing density ratio 3/pi
(Boroczky) and the Gauss-Bonnet area 2*pi*|chi|, using that a surface
horocusp region has area equal to its boundary length.  These checks are
predicates over user-supplied geometric data; certifying that a surface is
actually essential is out of scope.
"""

from __future__ import annotations

import math

from .cusp_geometry import _set, _Value

INEQUALITY_TOL = 1e-9

# Boundary-length budget per unit of |chi| for essential surfaces:
# (3/pi) * 2*pi = 6.
CUSP_LENGTH_BUDGET_PER_CHI = 6.0

# Packing bound: a union of embedded horocusp regions covers at most 3/pi
# of a finite-area hyperbolic surface.
HOROCUSP_AREA_RATIO = 3.0 / math.pi


class SurfaceType(_Value):
    """Finite-type surface: genus, punctures and boundary circles."""

    __slots__ = _fields = ("genus", "punctures", "boundary_circles")

    def __init__(self, genus: int, punctures: int, boundary_circles: int = 0) -> None:
        _set(self, "genus", genus)
        _set(self, "punctures", punctures)
        _set(self, "boundary_circles", boundary_circles)
        if min(genus, punctures, boundary_circles) < 0:
            raise ValueError("surface data must be nonnegative integers")


class SurfaceAudit(_Value):
    """A surface together with the slope lengths at its listed punctures.

    The list covers exactly the punctures mapped to the distinguished cusp;
    unlisted punctures contribute 0 to the budget check.
    """

    __slots__ = _fields = ("surface", "cusp_slope_lengths")

    def __init__(self, surface: SurfaceType, cusp_slope_lengths: tuple[float, ...]) -> None:
        try:
            lengths = tuple(float(x) for x in cusp_slope_lengths)
        except OverflowError:  # an int past the float range
            raise ValueError("a cusp slope length is an integer past the float range") from None
        _set(self, "surface", surface)
        _set(self, "cusp_slope_lengths", lengths)
        if any(not math.isfinite(x) or x <= 0.0 for x in lengths):
            raise ValueError("cusp slope lengths must be positive and finite")
        try:
            math.fsum(lengths)
        except OverflowError:
            raise ValueError(f"cusp slope lengths {lengths} sum past the float range") from None
        if len(lengths) > surface.punctures:
            raise ValueError(
                f"{len(lengths)} lengths listed for a surface with "
                f"{surface.punctures} punctures"
            )


class AuditVerdict(_Value):
    __slots__ = _fields = ("name", "passed", "lhs", "rhs", "slack", "sharp")

    def __init__(self, name: str, passed: bool, lhs: float, rhs: float, slack: float,
                 sharp: bool) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "slack", slack)  # rhs - lhs
        _set(self, "sharp", sharp)  # equality within tolerance


def _verdict(name: str, lhs: float, rhs: float) -> AuditVerdict:
    slack = rhs - lhs
    return AuditVerdict(
        name=name,
        passed=lhs <= rhs + INEQUALITY_TOL,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        sharp=abs(slack) <= INEQUALITY_TOL,
    )


def euler_characteristic(s: SurfaceType) -> int:
    return 2 - 2 * s.genus - s.punctures - s.boundary_circles


def check_cusp_length_inequality(audit: SurfaceAudit) -> AuditVerdict:
    """Total listed slope length against the 6|chi| budget (chi < 0 required)."""
    chi = euler_characteristic(audit.surface)
    if chi >= 0:
        raise ValueError(
            f"inequality applies only to surfaces with chi < 0, got chi = {chi}"
        )
    total = math.fsum(audit.cusp_slope_lengths)
    return _verdict("cusp_length_budget", total, CUSP_LENGTH_BUDGET_PER_CHI * abs(chi))


def boroczky_check(horocusp_area: float, surface_area: float) -> AuditVerdict:
    """Packing bound: horocusp area at most (3/pi) of the surface area."""
    if not (0.0 < horocusp_area < math.inf and 0.0 < surface_area < math.inf):
        raise ValueError(
            f"areas must be positive and finite, got {horocusp_area!r} and {surface_area!r}"
        )
    return _verdict("horocusp_area_ratio", horocusp_area, HOROCUSP_AREA_RATIO * surface_area)


def gauss_bonnet_area(s: SurfaceType) -> float:
    """Hyperbolic area 2*pi*|chi| of a finite-area surface with chi < 0."""
    chi = euler_characteristic(s)
    if chi >= 0:
        raise ValueError(f"no hyperbolic area for chi = {chi} >= 0")
    return 2.0 * math.pi * abs(chi)


def punctured_sphere_feasible(n: int, slope_length: float) -> bool:
    """Whether an essential n-punctured sphere with n-1 punctures on the
    filling slope is consistent with the 6|chi| budget: 6(n-2) >= (n-1)*len.

    For slope_length > 6 this fails for every n >= 3, which is the
    contradiction behind the six-theorem.
    """
    if n < 3:
        raise ValueError(f"spheres with fewer than 3 punctures do not occur here (n={n})")
    if not 0.0 < slope_length < math.inf:
        raise ValueError(f"slope length must be positive and finite, got {slope_length}")
    return 6.0 * (n - 2) >= (n - 1) * slope_length


class DoubledSurfaceBound(_Value):
    __slots__ = _fields = ("n_ceiling", "feasible")

    def __init__(self, n_ceiling: float, feasible: bool) -> None:
        _set(self, "n_ceiling", n_ceiling)
        _set(self, "feasible", feasible)  # whether the supplied n satisfies n <= n_ceiling


def doubled_surface_chain(
    n: int, j: int, slope_length: float, epsilon: float
) -> DoubledSurfaceBound:
    """Puncture-count ceiling from doubling along geodesic boundary.

    Doubling a planar surface with n punctures, j of whose horocusps touch
    the boundary, and feeding the 6|chi| budget of the double with the
    (6 + epsilon) length floor of the n - j interior cusps gives

        2*epsilon*n <= 2j(6 + epsilon) - 12,

    so n <= (2j(6 + epsilon) - 12) / (2*epsilon).  With j = 0 the ceiling is
    negative: every configuration needs a cusp meeting the boundary.
    """
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 <= j <= n:
        raise ValueError(f"expected 0 <= j <= n, got j={j}, n={n}")
    if not math.isfinite(slope_length):
        raise ValueError(f"slope length must be finite, got {slope_length}")
    if slope_length < 6.0 + epsilon:
        raise ValueError(
            f"slope length {slope_length} is below the 6 + epsilon margin"
        )
    ceiling = (2.0 * j * (6.0 + epsilon) - 12.0) / (2.0 * epsilon)
    return DoubledSurfaceBound(ceiling, n <= ceiling)
