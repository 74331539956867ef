"""Surface-side inequality audits."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspslopes.surface_audit import (
    CUSP_LENGTH_BUDGET_PER_CHI,
    HOROCUSP_AREA_RATIO,
    SurfaceAudit,
    SurfaceType,
    boroczky_check,
    check_cusp_length_inequality,
    doubled_surface_chain,
    euler_characteristic,
    gauss_bonnet_area,
    punctured_sphere_feasible,
)


# ---------------------------------------------------------------- chi


def test_euler_characteristic_examples():
    assert euler_characteristic(SurfaceType(0, 3)) == -1
    assert euler_characteristic(SurfaceType(1, 1)) == -1
    assert euler_characteristic(SurfaceType(0, 0, 2)) == 0
    assert euler_characteristic(SurfaceType(2, 0)) == -2


def test_surface_type_validation():
    with pytest.raises(ValueError):
        SurfaceType(-1, 0)
    with pytest.raises(ValueError):
        SurfaceType(0, -2)


# ---------------------------------------------------------------- budget


def test_budget_punctured_torus_sharp():
    audit = SurfaceAudit(SurfaceType(1, 1), (6.0,))
    verdict = check_cusp_length_inequality(audit)
    assert verdict.passed and verdict.sharp
    assert verdict.slack == pytest.approx(0.0, abs=1e-12)


def test_budget_three_punctured_sphere_sharp():
    audit = SurfaceAudit(SurfaceType(0, 3), (2.0, 2.0, 2.0))
    verdict = check_cusp_length_inequality(audit)
    assert verdict.passed and verdict.sharp


def test_budget_violation_fails():
    audit = SurfaceAudit(SurfaceType(1, 1), (6.5,))
    verdict = check_cusp_length_inequality(audit)
    assert not verdict.passed
    assert verdict.slack == pytest.approx(-0.5)


def test_budget_tolerance_is_two_sided():
    # within INEQUALITY_TOL of the budget, on either side, is a sharp pass;
    # farther below it a plain pass, farther above it a plain fail
    torus = SurfaceType(1, 1)
    for length, passed, sharp in [(6.0 + 1e-12, True, True), (6.0 - 1e-12, True, True),
                                  (5.5, True, False), (6.5, False, False)]:
        verdict = check_cusp_length_inequality(SurfaceAudit(torus, (length,)))
        assert (verdict.passed, verdict.sharp) == (passed, sharp), length


def test_budget_rejects_nonnegative_chi():
    with pytest.raises(ValueError):
        check_cusp_length_inequality(SurfaceAudit(SurfaceType(0, 0, 2), ()))
    with pytest.raises(ValueError):
        check_cusp_length_inequality(SurfaceAudit(SurfaceType(0, 2), (1.0,)))


def test_audit_validation():
    with pytest.raises(ValueError):
        SurfaceAudit(SurfaceType(1, 1), (0.0,))
    with pytest.raises(ValueError):
        SurfaceAudit(SurfaceType(1, 1), (-2.0,))
    with pytest.raises(ValueError):
        SurfaceAudit(SurfaceType(1, 1), (math.inf,))
    with pytest.raises(ValueError):
        # more lengths than punctures mapped into the cusp
        SurfaceAudit(SurfaceType(1, 1), (1.0, 1.0))
    with pytest.raises(ValueError):
        # each length is finite, but their sum is not
        SurfaceAudit(SurfaceType(0, 3), (1e308, 1e308))


def test_audit_length_past_the_float_range_is_a_value_error():
    # an int past the float range is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="cusp slope length is an integer past the float range"):
        SurfaceAudit(SurfaceType(1, 1), (10**400,))


def test_unlisted_punctures_contribute_zero():
    # three punctures, only one length supplied: budget checked on the sum
    audit = SurfaceAudit(SurfaceType(0, 3), (5.0,))
    assert check_cusp_length_inequality(audit).passed


def test_budget_filter_property():
    rng = random.Random(47)
    for _ in range(300):
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        s = SurfaceType(g, n)
        chi = euler_characteristic(s)
        if chi >= 0:
            continue
        budget = CUSP_LENGTH_BUDGET_PER_CHI * abs(chi)
        k = rng.randint(1, n)
        if rng.random() < 0.5:
            # scenario within budget
            total = rng.uniform(0.1, budget)
            expected = True
        else:
            total = budget + rng.uniform(0.1, 5.0)
            expected = False
        cuts = sorted(rng.uniform(0.01, 1.0) for _ in range(k))
        norm = sum(cuts)
        lengths = tuple(total * c / norm for c in cuts)
        verdict = check_cusp_length_inequality(SurfaceAudit(s, lengths))
        assert verdict.passed == expected


# ---------------------------------------------------------------- packing


def test_boroczky_examples():
    assert boroczky_check(6.0, 2.0 * math.pi).passed
    assert boroczky_check(6.0, 2.0 * math.pi).sharp
    assert boroczky_check(1.0, 2.0 * math.pi).passed
    assert not boroczky_check(7.0, 2.0 * math.pi).passed


def test_boroczky_validation():
    with pytest.raises(ValueError):
        boroczky_check(0.0, 1.0)
    with pytest.raises(ValueError):
        boroczky_check(1.0, -1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: boroczky_check(math.inf, math.inf),
        lambda: boroczky_check(math.nan, 1.0),
        lambda: boroczky_check(1.0, math.nan),
        lambda: punctured_sphere_feasible(4, math.nan),
        lambda: punctured_sphere_feasible(4, math.inf),
        lambda: doubled_surface_chain(5, 2, math.nan, 0.5),
        lambda: doubled_surface_chain(5, 2, math.inf, 0.5),
    ],
    ids=["boroczky_inf", "boroczky_nan_horocusp", "boroczky_nan_surface",
         "sphere_nan", "sphere_inf", "doubled_nan", "doubled_inf"],
)
def test_non_finite_inputs_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_gauss_bonnet_examples():
    assert gauss_bonnet_area(SurfaceType(1, 1)) == pytest.approx(2.0 * math.pi)
    assert gauss_bonnet_area(SurfaceType(2, 0)) == pytest.approx(4.0 * math.pi)
    with pytest.raises(ValueError):
        gauss_bonnet_area(SurfaceType(0, 0, 2))


def test_budget_constant_from_packing_chain():
    # (3/pi) * 2*pi*|chi| must reproduce the 6|chi| budget exactly
    for chi in (-1, -2, -3, -7):
        s = SurfaceType(1, -chi)  # chi = 2 - 2 - n = -n
        assert euler_characteristic(s) == chi
        composed = HOROCUSP_AREA_RATIO * gauss_bonnet_area(s)
        assert composed == pytest.approx(6.0 * abs(chi), abs=1e-12)
        # the composed ceiling is exactly the sharpness point of the audit
        verdict = boroczky_check(composed, gauss_bonnet_area(s))
        assert verdict.passed and verdict.sharp


# ---------------------------------------------------------------- feasibility


def test_punctured_sphere_examples():
    assert punctured_sphere_feasible(4, 4.0)
    assert not punctured_sphere_feasible(3, 6.5)
    with pytest.raises(ValueError):
        punctured_sphere_feasible(2, 1.0)


def test_punctured_sphere_monotone_in_length():
    for n in (3, 5, 17, 100):
        feas = [punctured_sphere_feasible(n, l) for l in (1.0, 2.0, 4.0, 5.9, 6.0, 6.1, 9.0)]
        # once infeasible, stays infeasible as the slope grows
        assert feas == sorted(feas, reverse=True)


def test_punctured_sphere_eventually_false_for_long_slopes():
    for l in (6.01, 7.0, 100.0):
        assert not any(punctured_sphere_feasible(n, l) for n in range(3, 2000))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 10**6), st.floats(6.0 + 1e-9, 50.0))
def test_punctured_sphere_infeasible_hypothesis(n, l):
    assert not punctured_sphere_feasible(n, l)


def test_punctured_sphere_past_six_infeasible_at_every_size():
    # 6(n - 2) and (n - 1) * len both overflow a float near n = 10^308
    for n in (10**6, 10**300, 10**308, 2**1023 - 1):
        for l in (math.nextafter(6.0, 7.0), 7.0, 1e300):
            assert not punctured_sphere_feasible(n, l)
        # 6(n - 2)/(n - 1) = 6 - 6/(n - 1) reaches past 6 - 1e-9 from n = 6e9 + 2 on
        assert punctured_sphere_feasible(n, 6.0 - 1e-9) == (n >= 6 * 10**9 + 2)


def _sizes(rng: random.Random, low: int) -> int:
    """An int in [low, 10^308], of a random number of digits."""
    return rng.randint(low, max(low, 10 ** rng.randint(1, 308)))


def test_punctured_sphere_matches_a_fraction_oracle():
    rng = random.Random(8080)
    for _ in range(3000):
        n = _sizes(rng, 3)
        edge = 6 * (n - 2) / (n - 1)  # the float nearest the length of equality
        l = rng.choice([rng.uniform(0.1, 12.0), edge, math.nextafter(edge, 0.0),
                        math.nextafter(edge, 7.0)])
        assert punctured_sphere_feasible(n, l) == (Fraction(6 * (n - 2), n - 1) >= Fraction(l))


# ---------------------------------------------------------------- doubling


def test_doubled_surface_chain_examples():
    out = doubled_surface_chain(8, 2, 7.0, 1.0)
    assert out.n_ceiling == pytest.approx(8.0)
    assert out.feasible
    out = doubled_surface_chain(9, 2, 7.0, 1.0)
    assert not out.feasible


def test_doubled_surface_chain_unit_margin_case():
    out = doubled_surface_chain(1, 1, 12.0, 6.0)
    assert out.n_ceiling == pytest.approx(1.0)
    assert out.feasible


def test_doubled_surface_chain_no_boundary_cusps_infeasible():
    out = doubled_surface_chain(3, 0, 7.0, 0.5)
    assert out.n_ceiling < 0.0
    assert not out.feasible


def test_doubled_surface_chain_validation():
    with pytest.raises(ValueError):
        doubled_surface_chain(3, 1, 7.0, 0.0)
    with pytest.raises(ValueError):
        doubled_surface_chain(3, 4, 7.0, 0.5)
    with pytest.raises(ValueError):
        doubled_surface_chain(3, 1, 6.2, 0.5)


def test_doubled_surface_chain_exact_near_the_float_range():
    # 2j(6 + epsilon) overflows a float; the exact ceiling is about 10^307 < n
    out = doubled_surface_chain(10**308, 10**307, 1e301, 1e300)
    assert not out.feasible and out.n_ceiling == pytest.approx(1e307, rel=1e-12)
    # a ceiling past the float range is an infinity of its sign
    out = doubled_surface_chain(10**300, 10**300, 7.0, 5e-324)
    assert out.n_ceiling == math.inf and out.feasible
    assert doubled_surface_chain(10**300, 0, 7.0, 5e-324).n_ceiling == -math.inf


def test_doubled_surface_chain_matches_a_fraction_oracle():
    rng = random.Random(8081)
    for _ in range(2000):
        n = _sizes(rng, 0)
        j = rng.randint(0, n)
        eps = rng.choice([rng.uniform(1e-6, 10.0), 10.0 ** rng.randint(-300, 300)])
        E = Fraction(eps)
        length = rng.choice([float(6 + E), math.nextafter(float(6 + E), 1e308), 6.0 + 2 * eps])
        if Fraction(length) < 6 + E:
            with pytest.raises(ValueError, match="below the 6 \\+ epsilon margin"):
                doubled_surface_chain(n, j, length, eps)
            continue
        ceiling = (2 * j * (6 + E) - 12) / (2 * E)
        if rng.random() < 0.5 and 0 <= ceiling < 10**308:
            n = max(j, math.floor(ceiling) + rng.choice([0, 1]))
        out = doubled_surface_chain(n, j, length, eps)
        assert out.feasible == (n <= ceiling)
        try:
            expected = float(ceiling)
        except OverflowError:
            expected = math.inf if ceiling > 0 else -math.inf
        assert out.n_ceiling == expected
