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
import sys
from fractions import Fraction

from .cusp_geometry import _count, _real, _set, _shown, _Value

INEQUALITY_TOL = 1e-9

# Boundary-length budget per unit of |chi| for essential surfaces:
# (3/pi) * 2*pi = 6.
CUSP_LENGTH_BUDGET_PER_CHI = 6.0

# Packing bound: a union of embedded horocusp regions covers at most 3/pi
# of a finite-area hyperbolic surface.
HOROCUSP_AREA_RATIO = 3.0 / math.pi

# The largest |chi| a SurfaceType may have: 2*pi*|chi| stays a finite float.
_MAX_ABS_CHI = sys.float_info.max / (2.0 * math.pi)


class SurfaceType(_Value):
    """Finite-type surface: genus, punctures and boundary circles."""

    __slots__ = _fields = ("genus", "punctures", "boundary_circles")

    def __init__(self, genus: int, punctures: int, boundary_circles: int = 0) -> None:
        _set(self, "genus", _count(genus, "genus", 0))
        _set(self, "punctures", _count(punctures, "punctures", 0))
        _set(self, "boundary_circles", _count(boundary_circles, "boundary circles", 0))
        # so that 2*pi*|chi|, the largest float the audits form from chi, is finite
        if 2 * genus + punctures + boundary_circles > _MAX_ABS_CHI:
            raise ValueError("surface is too large: 2*pi*|chi| is past the float range")


class SurfaceAudit(_Value):
    """A surface together with the slope lengths at its listed punctures.

    The list covers exactly the punctures mapped to the distinguished cusp;
    unlisted punctures contribute 0 to the budget check.
    """

    __slots__ = _fields = ("surface", "cusp_slope_lengths")

    def __init__(self, surface: SurfaceType, cusp_slope_lengths: tuple[float, ...]) -> None:
        if not isinstance(cusp_slope_lengths, (tuple, list)):
            raise ValueError(
                f"cusp slope lengths must be a tuple or list of numbers, "
                f"got {_shown(cusp_slope_lengths)}"
            )
        lengths = tuple([_real(x, "cusp slope length") for x in cusp_slope_lengths])
        _set(self, "surface", surface)
        _set(self, "cusp_slope_lengths", lengths)
        if any(x <= 0.0 for x in lengths):
            raise ValueError("cusp slope lengths must be positive")
        try:
            math.fsum(lengths)
        except OverflowError:
            raise ValueError(
                f"cusp slope lengths {_shown(lengths)} sum past the float range"
            ) from None
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
    horocusp_area = _real(horocusp_area, "horocusp area")
    surface_area = _real(surface_area, "surface area")
    if not (horocusp_area > 0.0 and surface_area > 0.0):
        raise ValueError(f"areas must be positive, got {horocusp_area!r} and {surface_area!r}")
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
    contradiction behind the six-theorem.  The comparison is exact: the int
    sides against the ``Fraction`` of the binary64 length.
    """
    n = _count(n, "n", 3)
    slope_length = _real(slope_length, "slope length")
    if slope_length <= 0.0:
        raise ValueError(f"slope length must be positive, got {slope_length}")
    # 6(n-2)/(n-1) < 6 for every n, so a length past 6 settles it at once
    return slope_length <= 6.0 and 6 * (n - 2) >= (n - 1) * Fraction(slope_length)


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
    negative: every configuration needs a cusp meeting the boundary.  The
    margin and ``feasible`` are decided exactly, on the ``Fraction`` of the
    binary64 inputs; ``n_ceiling`` is the exact ceiling rounded to a float
    (an infinity past the float range).
    """
    n, j = _count(n, "n"), _count(j, "j")
    slope_length, epsilon = _real(slope_length, "slope length"), _real(epsilon, "epsilon")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 <= j <= n:
        raise ValueError(f"j must be in [0, n], got j={_shown(j)}, n={_shown(n)}")
    eps = Fraction(epsilon)
    if Fraction(slope_length) < 6 + eps:
        raise ValueError(
            f"slope length {slope_length} is below the 6 + epsilon margin"
        )
    ceiling = (j * (6 + eps) - 6) / eps
    try:
        n_ceiling = float(ceiling)
    except OverflowError:
        n_ceiling = math.inf if ceiling > 0 else -math.inf
    return DoubledSurfaceBound(n_ceiling, n <= ceiling)
