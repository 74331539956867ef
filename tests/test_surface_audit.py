"""Surface-side inequality audits."""

from __future__ import annotations

import math
import random

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
