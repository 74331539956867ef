"""Half-plane horodisk calculus tests."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspslopes.halfplane_geometry import (
    HorodiskPair,
    WrappingQuery,
    boundary_length_lower_bound,
    extremal_ratio,
    mutually_tangent,
    tangency_separation,
    wrapping_bound,
)

LOG_SILVER = math.log(1.0 + math.sqrt(2.0))


# ---------------------------------------------------------------- separation


def test_separation_log_e():
    assert tangency_separation(HorodiskPair(1.0, math.e)) == pytest.approx(1.0, abs=1e-15)


def test_separation_extremal():
    pair = HorodiskPair(1.0, (1.0 + math.sqrt(2.0)) ** 2)
    assert tangency_separation(pair) == pytest.approx(2.0 * LOG_SILVER, abs=1e-12)


def test_separation_equal_radii():
    assert tangency_separation(HorodiskPair(2.0, 2.0)) == 0.0


def test_separation_scale_invariant():
    rng = random.Random(2)
    for _ in range(100):
        r = rng.uniform(0.1, 5.0)
        ratio = rng.uniform(1.0, 20.0)
        scale = rng.uniform(0.01, 100.0)
        a = tangency_separation(HorodiskPair(r, r * ratio))
        b = tangency_separation(HorodiskPair(r * scale, r * scale * ratio))
        assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(0.01, 10.0))
def test_separation_monotone_in_big_radius(ratio, r):
    base = tangency_separation(HorodiskPair(r, r * ratio))
    bigger = tangency_separation(HorodiskPair(r, r * ratio * 1.5))
    assert bigger > base


def test_pair_validation():
    with pytest.raises(ValueError):
        HorodiskPair(0.0, 1.0)
    with pytest.raises(ValueError):
        HorodiskPair(-1.0, 1.0)
    with pytest.raises(ValueError):
        HorodiskPair(2.0, 1.0)
    with pytest.raises(ValueError):
        HorodiskPair(1.0, math.inf)


@pytest.mark.parametrize(
    "r, R, message",
    [
        (1e-320, 1e10, r"R/r overflows for radii r=1e-320 and R=10000000000\.0"),
        (5e-324, 1.0, r"R/r overflows for radii r=5e-324 and R=1\.0"),
        (1.0, 1e155, r"2\(R - r\)\^2 = \(R \+ r\)\^2 overflows for radii r=1\.0 and R=1e\+155"),
        # (R + r)^2 = 1e308 is finite, but 2(R - r)^2 is not
        (1.0, 1e154, r"2\(R - r\)\^2 = \(R \+ r\)\^2 overflows for radii r=1\.0 and R=1e\+154"),
    ],
)
def test_pair_past_the_float_range_rejected(r, R, message):
    with pytest.raises(ValueError, match=message):
        HorodiskPair(r, R)


@pytest.mark.parametrize(
    "r, R, field",
    [(1, 10**400, "radius R"), (10**400, 10**401, "radius r")],
    ids=["R", "r"],
)
def test_pair_int_past_the_float_range_names_the_radius(r, R, field):
    # an int past the float range is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match=f"^{field} is an integer past the float range$"):
        HorodiskPair(r, R)


def test_pair_at_the_float_range_accepted():
    # every quantity of the largest accepted radii is finite
    for pair in (HorodiskPair(1e-300, 1e7), HorodiskPair(1.0, 9e153), HorodiskPair(4e153, 4e153)):
        check = mutually_tangent(pair)
        assert math.isfinite(tangency_separation(pair)) and math.isfinite(check.residual)


# ---------------------------------------------------------------- tangency


def test_tangency_at_extremal_ratio():
    check = mutually_tangent(HorodiskPair(1.0, extremal_ratio()))
    assert check.tangent


def test_tangency_coincident_disks():
    check = mutually_tangent(HorodiskPair(1.0, 1.0))
    assert not check.tangent
    assert check.residual == pytest.approx(4.0)


def test_tangency_far_apart():
    assert not mutually_tangent(HorodiskPair(1.0, 100.0)).tangent


def test_extremal_ratio_value():
    assert extremal_ratio() == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, abs=1e-12)


def test_extremal_ratio_is_quadratic_root():
    t = extremal_ratio()
    assert abs(t * t - 6.0 * t + 1.0) < 1e-9
    # and plugging into the tangency form directly
    r, big = 1.0, t
    assert abs(2.0 * (big - r) ** 2 - (big + r) ** 2) < 1e-9


def test_center_distance_oracle():
    # Figure-style configuration: centers at (r, r) and (R, R); for mutually
    # tangent pairs the center distance equals the radius sum.
    rng = random.Random(17)
    t = extremal_ratio()
    for _ in range(1000):
        r = rng.uniform(1e-3, 1e3)
        big = r * t
        dist = math.hypot(big - r, big - r)
        assert dist == pytest.approx(r + big, rel=1e-9)
        assert mutually_tangent(HorodiskPair(r, big)).tangent


# ---------------------------------------------------------------- bounds


def test_boundary_length_lower_bound_values():
    assert boundary_length_lower_bound(0) == 0.0
    assert boundary_length_lower_bound(1) == pytest.approx(2.0 * LOG_SILVER)
    assert boundary_length_lower_bound(5) == pytest.approx(10.0 * LOG_SILVER)
    with pytest.raises(ValueError):
        boundary_length_lower_bound(-1)


def test_wrapping_bound_cancellation():
    assert wrapping_bound(WrappingQuery(6.0, 2.0 * LOG_SILVER)) == pytest.approx(2.0)


def test_wrapping_bound_unit_length():
    assert wrapping_bound(WrappingQuery(6.0, 1.0)) == pytest.approx(1.0 / LOG_SILVER)


def test_wrapping_query_validation():
    with pytest.raises(ValueError):
        WrappingQuery(0.0, 1.0)
    with pytest.raises(ValueError):
        WrappingQuery(-1.0, 1.0)
    with pytest.raises(ValueError):
        WrappingQuery(1.0, -1.0)
    with pytest.raises(ValueError):
        WrappingQuery(math.nan, 1.0)


@pytest.mark.parametrize(
    "epsilon, loop_length",
    [(1e-320, 1.0), (1.0, 1e308), (1e-300, 1e10)],
)
def test_wrapping_bound_past_the_float_range_rejected(epsilon, loop_length):
    message = (
        f"wrapping number bound overflows for epsilon {epsilon!r} and loop length {loop_length!r}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        WrappingQuery(epsilon, loop_length)
    # a zero-length loop has bound 0 at any positive epsilon
    assert wrapping_bound(WrappingQuery(epsilon, 0.0)) == 0.0


@pytest.mark.parametrize(
    "epsilon, loop_length, field",
    [(1, 10**400, "loop length"), (10**400, 1, "epsilon")],
    ids=["loop_length", "epsilon"],
)
def test_wrapping_query_int_past_the_float_range_names_the_field(epsilon, loop_length, field):
    # an int past the float range is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match=f"^{field} is an integer past the float range$"):
        WrappingQuery(epsilon, loop_length)


def test_wrapping_bound_decreasing_in_epsilon():
    # finite-difference spot check at ten epsilons
    length = 7.5
    epsilons = [0.05 * 2.0**k for k in range(10)]
    values = [wrapping_bound(WrappingQuery(e, length)) for e in epsilons]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_wrapping_bound_linear_in_length():
    rng = random.Random(13)
    for _ in range(50):
        eps = rng.uniform(0.01, 10.0)
        l = rng.uniform(0.0, 50.0)
        assert wrapping_bound(WrappingQuery(eps, 2.0 * l)) == pytest.approx(
            2.0 * wrapping_bound(WrappingQuery(eps, l)), rel=1e-12
        )
