"""Unit and property tests for the flat-torus slope measurements."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspslopes.cusp_geometry import (
    DEGENERACY_TOL,
    CuspShape,
    DegenerateBasisError,
    NonPrimitiveSlopeError,
    Slope,
    _slope,
    area,
    area_identity_residual,
    intersection_number,
    slope_angle,
    slope_length,
    slope_vector,
)

from conftest import change_basis, random_shape, random_slope, random_unimodular, transform_slope


# ---------------------------------------------------------------- CuspShape


def test_area_unit_square(square_shape):
    assert area(square_shape) == 1.0


def test_area_hexagonal(hex2_shape):
    assert area(hex2_shape) == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-15)


def test_collinear_basis_rejected():
    with pytest.raises(DegenerateBasisError):
        CuspShape((1.0, 0.0), (2.0, 0.0))


def test_near_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasisError):
        CuspShape((1.0, 0.0), (1.0, 1e-13))


def test_overflowing_determinant_rejected():
    # the products overflow, so det is inf - inf = nan, or inf
    with pytest.raises(DegenerateBasisError, match="nan"):
        CuspShape((1e200, 1e200), (1e200, 1e200))
    with pytest.raises(DegenerateBasisError, match="inf"):
        CuspShape((1e200, 0.0), (0.0, 1e200))


def test_degeneracy_tolerance_is_relative():
    # |det| just above the documented tolerance times |m||l| must be accepted,
    # at any scale
    shape = CuspShape((1.0, 0.0), (1.0, 1e-11))
    assert area(shape) == pytest.approx(1e-11)
    assert DEGENERACY_TOL == 1e-12
    assert area(CuspShape((1e-7, 0.0), (0.0, 1e-7))) == pytest.approx(1e-14)


def test_degeneracy_is_scale_invariant(hex2_shape):
    # scaling by 2^k is exact in binary64, so the verdict cannot change
    for k in range(-40, 41):
        c = 2.0**k
        (mx, my), (lx, ly) = hex2_shape.meridian, hex2_shape.longitude
        shape = CuspShape((c * mx, c * my), (c * lx, c * ly))
        assert area(shape) == c * c * area(hex2_shape)
        with pytest.raises(DegenerateBasisError):
            CuspShape((c, 0.0), (c, c * 1e-13))
    with pytest.raises(DegenerateBasisError):
        CuspShape((1.0, 0.0), (1.0, 1e-13))


@pytest.mark.parametrize(
    "meridian, longitude, field",
    [((10**400, 0), (0, 1), r"meridian\[0\]"), ((1, 0), (0, -(10**400)), r"longitude\[1\]")],
    ids=["meridian", "longitude"],
)
def test_basis_past_the_float_range_is_degenerate(meridian, longitude, field):
    # an int past the float range is a domain error, not an OverflowError
    with pytest.raises(DegenerateBasisError,
                       match=f"cusp {field} is an integer past the float range"):
        CuspShape(meridian, longitude)


def test_orientation_normalized_to_positive_det():
    # this basis has det = -1; construction swaps the vectors
    shape = CuspShape((0.0, 1.0), (1.0, 0.0))
    det = (
        shape.meridian[0] * shape.longitude[1]
        - shape.meridian[1] * shape.longitude[0]
    )
    assert det > 0
    assert area(shape) == 1.0


def test_nonfinite_vector_rejected():
    with pytest.raises(ValueError):
        CuspShape((math.inf, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        CuspShape((1.0, 0.0), (0.0, math.nan))


# ---------------------------------------------------------------- Slope


def test_slope_canonical_sign():
    assert Slope(1, -2) == Slope(-1, 2)
    assert (Slope(1, -2).a, Slope(1, -2).b) == (-1, 2)
    assert (Slope(-1, 0).a, Slope(-1, 0).b) == (1, 0)
    assert (Slope(0, -1).a, Slope(0, -1).b) == (0, 1)


def test_slope_rejects_non_primitive():
    with pytest.raises(NonPrimitiveSlopeError):
        Slope(2, 4)
    with pytest.raises(NonPrimitiveSlopeError):
        Slope(0, 0)
    with pytest.raises(NonPrimitiveSlopeError):
        Slope(0, 3)


def test_slope_rejects_non_integers():
    with pytest.raises(ValueError):
        Slope(1.5, 1)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        Slope(True, 1)  # type: ignore[arg-type]


def test_slope_str():
    assert str(Slope(3, -4)) == "(-3,4)"


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_slope_canonicalization_idempotent(a, b):
    if (a == 0 and b == 0) or math.gcd(a, b) != 1:
        return
    s = Slope(a, b)
    assert Slope(s.a, s.b) == s
    assert Slope(-a, -b) == s


@given(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))
def test_trusted_slope_is_the_checked_slope(a, b):
    # the enumeration and the report loader build coprime pairs with _slope
    if math.gcd(a, b) != 1:
        return
    s = _slope(a, b)
    assert type(s) is Slope and s == Slope(a, b) == Slope(-a, -b)
    assert (s.a, s.b) == (Slope(a, b).a, Slope(a, b).b) and hash(s) == hash(Slope(a, b))


# ---------------------------------------------------------------- lengths


def test_slope_length_pythagorean(square_shape):
    assert slope_length(square_shape, Slope(3, 4)) == 5.0


def test_slope_length_hexagonal_basis(hex2_shape):
    assert slope_length(hex2_shape, Slope(1, 0)) == 2.0
    assert slope_length(hex2_shape, Slope(1, 1)) == pytest.approx(2.0 * math.sqrt(3.0))


def test_hexagonal_norm_form(hex2_shape):
    # for the scale-2 hexagonal lattice the length is 2*sqrt(a^2 + ab + b^2)
    rng = random.Random(11)
    for _ in range(200):
        s = random_slope(rng, max_coord=12)
        expected = 2.0 * math.sqrt(s.a * s.a + s.a * s.b + s.b * s.b)
        assert slope_length(hex2_shape, s) == pytest.approx(expected, rel=1e-12)


def test_slope_length_sign_invariant(hex2_shape):
    # (a, b) and (-a, -b) name the same curve; the constructor folds the sign
    v = slope_vector(hex2_shape, Slope(2, 1))
    w = (-v[0], -v[1])
    assert math.hypot(*v) == math.hypot(*w)


# ---------------------------------------------------------------- Delta


def test_intersection_examples():
    assert intersection_number(Slope(1, 0), Slope(0, 1)) == 1
    assert intersection_number(Slope(1, 2), Slope(3, 4)) == 2
    assert intersection_number(Slope(5, 3), Slope(5, 3)) == 0


def test_intersection_symmetric():
    rng = random.Random(5)
    for _ in range(100):
        s1, s2 = random_slope(rng), random_slope(rng)
        assert intersection_number(s1, s2) == intersection_number(s2, s1)


def test_intersection_zero_iff_equal():
    rng = random.Random(7)
    for _ in range(200):
        s1, s2 = random_slope(rng), random_slope(rng)
        assert (intersection_number(s1, s2) == 0) == (s1 == s2)


def test_intersection_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(200):
        s1, s2 = random_slope(rng), random_slope(rng)
        m = random_unimodular(rng)
        assert intersection_number(s1, s2) == intersection_number(
            transform_slope(s1, m), transform_slope(s2, m)
        )


def test_area_unimodular_invariance():
    rng = random.Random(29)
    for _ in range(100):
        shape = random_shape(rng)
        m = random_unimodular(rng)
        assert area(change_basis(shape, m)) == pytest.approx(area(shape), rel=1e-9)


def test_length_multiset_unimodular_invariance():
    # the same curve measured in a re-marked basis has the same length
    rng = random.Random(31)
    for _ in range(100):
        shape = random_shape(rng)
        s = random_slope(rng, max_coord=8)
        m = random_unimodular(rng)
        assert slope_length(change_basis(shape, m), transform_slope(s, m)) == pytest.approx(
            slope_length(shape, s), rel=1e-9
        )


# ---------------------------------------------------------------- angles


def test_angle_square_orthogonal(square_shape):
    assert slope_angle(square_shape, Slope(1, 0), Slope(0, 1)) == pytest.approx(math.pi / 2)


def test_angle_hexagonal_sixty_degrees(hex2_shape):
    assert slope_angle(hex2_shape, Slope(1, 0), Slope(0, 1)) == pytest.approx(math.pi / 3)


def test_angle_equal_slopes_rejected(square_shape):
    with pytest.raises(ValueError):
        slope_angle(square_shape, Slope(1, 0), Slope(1, 0))
    with pytest.raises(ValueError):
        slope_angle(square_shape, Slope(1, 0), Slope(-1, 0))


def test_angle_in_open_interval():
    rng = random.Random(37)
    for _ in range(300):
        shape = random_shape(rng)
        s1, s2 = random_slope(rng), random_slope(rng)
        if s1 == s2:
            continue
        theta = slope_angle(shape, s1, s2)
        assert 0.0 < theta < math.pi
        assert math.sin(theta) > 0.0


# ---------------------------------------------------------------- area identity


def test_area_identity_square_exact(square_shape):
    assert area_identity_residual(square_shape, Slope(1, 0), Slope(0, 1)) == 0.0


def test_area_identity_hexagonal(hex2_shape):
    r = area_identity_residual(hex2_shape, Slope(1, 0), Slope(1, 1))
    assert abs(r) < 1e-9


def test_area_identity_random_corpus():
    rng = random.Random(41)
    for _ in range(2000):
        shape = random_shape(rng)
        s1, s2 = random_slope(rng), random_slope(rng)
        if s1 == s2:
            continue
        delta = intersection_number(s1, s2)
        r = area_identity_residual(shape, s1, s2)
        assert abs(r) <= 1e-9 * delta * area(shape)


@settings(max_examples=100, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_area_identity_hypothesis(a, b, c, d):
    if (a == 0 and b == 0) or math.gcd(a, b) != 1:
        return
    if (c == 0 and d == 0) or math.gcd(c, d) != 1:
        return
    s1, s2 = Slope(a, b), Slope(c, d)
    if s1 == s2:
        return
    shape = CuspShape((1.25, 0.5), (-0.25, 1.75), name="probe")
    assert abs(area_identity_residual(shape, s1, s2)) <= 1e-9 * intersection_number(
        s1, s2
    ) * area(shape)
