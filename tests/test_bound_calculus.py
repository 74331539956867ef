"""Bound-pipeline tests: crossing ceiling, primes, projective reduction, lemma."""

from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspslopes import bound_calculus
from cuspslopes.bound_calculus import (
    _LAST_PRIME,
    ADAMS_AREA,
    CAO_MEYERHOFF_AREA,
    BoundQuery,
    is_prime,
    project_to_fp,
    slope_count_bound,
    smallest_prime_greater,
    verify_counting_lemma,
)
from cuspslopes.cusp_geometry import Slope, area, intersection_number
from cuspslopes.slope_search import enumerate_short_slopes

# psi_k, the least odd composite that is a strong probable prime to the first
# k prime bases, for k = 1 .. 13 (OEIS A014233); psi_13 is is_prime's limit.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)

from conftest import random_shape, random_slope


# ---------------------------------------------------------------- crossing ceiling


def test_delta_bound_headline():
    assert slope_count_bound(BoundQuery(6.0, 3.35)).delta_max == 10


def test_delta_bound_two_pi_regime():
    assert slope_count_bound(BoundQuery(2.0 * math.pi, math.sqrt(3.0))).delta_max == 22


def test_delta_bound_exact_ratio():
    assert slope_count_bound(BoundQuery(6.0, 36.0)).delta_max == 1


def test_named_area_constants():
    assert CAO_MEYERHOFF_AREA == 3.35
    assert ADAMS_AREA == pytest.approx(math.sqrt(3.0))


def test_query_validation():
    # the last two are finite and positive, but the next prime after L^2/A
    # is past the range is_prime decides; the two before have a subnormal A
    for L, A in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan),
                 (1.0, 5e-324), (1e-160, 1e-310), (1e200, 1.0), (1e150, 1e-100)):
        with pytest.raises(ValueError):
            BoundQuery(L, A)


@pytest.mark.parametrize(
    "L, A, delta, flag",
    [(6.0, 3.35, 10, False), (2.0 * math.pi, math.sqrt(3.0), 22, False), (6.0, 3.6, 10, True),
     (6.0, 3.0, 12, True), (math.sqrt(12.0), 1.0, 12, True), (6.0, 0.36, 100, True),
     (1e-6, 3.35, 0, False), (6.0, 3.0000000001, 11, False), (6.0, 3.0 + 1e-14, 11, False),
     (1.0, 1.0, 1, True), (3.0, 2.0, 4, False), (5e-324, 1.0, 0, False),
     (1e-150, sys.float_info.min, 44942328, False), (1e160, 1e300, 100000000000000019099, True),
     (1e-160, 1e300, 0, False), (sys.float_info.max, 3.35, None, None)],
)
def test_crossing_ceiling_table(L, A, delta, flag):
    # Delta is the floor of L'^2/A' at the high corner of the box of reals
    # that round to L and A, and the flag says the floor at the low corner
    # differs; the ends of each side, in Fraction, are half the gap below the
    # float and half its ulp above it
    if delta is None:
        with pytest.raises(ValueError, match="needs a prime past"):
            BoundQuery(L, A)
        return

    def ends(x):
        return (Fraction(x) - (Fraction(x) - Fraction(math.nextafter(x, 0.0))) / 2,
                Fraction(x) + Fraction(math.ulp(x)) / 2)

    (l_lo, l_hi), (a_lo, a_hi) = ends(L), ends(A)
    bound = slope_count_bound(BoundQuery(L, A))
    assert (bound.delta_max, bound.floor_guard_hit) == (delta, flag)
    assert delta == math.floor(l_hi**2 / a_lo)
    assert flag == (math.floor(l_lo**2 / a_hi) != delta)


@pytest.mark.parametrize(
    "L, A, field",
    [(10**400, 1, "length threshold"), (1, -(10**400), "area floor")],
    ids=["length_threshold", "area_floor"],
)
def test_query_past_the_float_range_names_the_field(L, A, field):
    # an int past the float range is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match=f"^{field} is an integer past the float range$"):
        BoundQuery(L, A)


def test_query_inputs_become_floats():
    q = BoundQuery(6, 3)
    assert (q.length_threshold, q.area_floor) == (6.0, 3.0)
    assert type(q.length_threshold) is float and type(q.area_floor) is float
    assert slope_count_bound(q) == slope_count_bound(BoundQuery(6.0, 3.0))


def test_query_rejects_unresolvable_ratio():
    # a ceiling whose next prime is past is_prime's exact range is refused by
    # name; at one ulp less length the ceiling has its prime
    message = ("^the count bound for length threshold {} and area floor {} needs a prime past "
               "3317044064679887385961813, the largest is_prime decides$")
    for L, A in ((sys.float_info.max, 3.35), (1e200, 3.35), (math.sqrt(_LAST_PRIME), 1.0)):
        with pytest.raises(ValueError, match=message.format(re.escape(repr(L)), repr(A))):
            BoundQuery(L, A)
    bound = slope_count_bound(BoundQuery(math.nextafter(math.sqrt(_LAST_PRIME), 0.0), 1.0))
    assert (_LAST_PRIME - bound.delta_max, bound.prime - bound.delta_max) == (709167301, 29)
    assert slope_count_bound(BoundQuery(1e9, 3.35)).delta_max == 298507462686567211


def test_last_prime_is_the_last_in_range():
    assert is_prime(_LAST_PRIME)
    assert not any(is_prime(n) for n in range(_LAST_PRIME + 1, PSI[-1]))


# ---------------------------------------------------------------- primes


def test_smallest_prime_greater_examples():
    assert smallest_prime_greater(10) == 11
    assert smallest_prime_greater(22) == 23
    assert smallest_prime_greater(1) == 2
    assert smallest_prime_greater(0) == 2


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def primes_below(n: int) -> list[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [k for k in range(n) if sieve[k]]


def test_is_prime_matches_sieve():
    n = 10**6
    assert [k for k in range(n + 1) if is_prime(k)] == primes_below(n + 1)


def test_is_prime_at_the_end_of_trial_division():
    # below 43^2 trial division by the primes up to 41 decides; from there
    # Miller-Rabin does, and 2047 = 23 * 89 is psi_1
    assert not any(is_prime(n) for n in (41 * 43, 43 * 43, 43 * 47, PSI[0]))
    assert is_prime(1847) and is_prime(1861)
    n = 2 * 10**5
    assert [k for k in range(n + 1) if is_prime(k)] == primes_below(n + 1)


def test_is_prime_large_values():
    # each psi_k is a strong pseudoprime to the first k prime bases
    assert not any(is_prime(psi) for psi in PSI[:-1])
    assert all(is_prime(p) for p in (2**31 - 1, 2**61 - 1, 1000000000000037))
    assert not is_prime((2**31 - 1) * 1000000000000037)
    assert not is_prime(1000003 * 1000000000000037)


def test_is_prime_matches_trial_division_on_40_bit_inputs():
    # n < 2^40 is prime iff no prime below 2^20 divides it
    primes = primes_below(1 << 20)
    rng = random.Random(40)
    inputs = [rng.randrange(1 << 39, 1 << 40) | 1 for _ in range(300)]
    verdicts = [is_prime(n) for n in inputs]
    assert verdicts == [all(n % q for q in primes) for n in inputs]
    assert 0 < sum(verdicts) < len(inputs)


def test_is_prime_domain_limit():
    assert not is_prime(PSI[-1] - 1)  # even
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PSI[-1])
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(2**89 - 1)


@given(st.integers(0, 5000))
def test_smallest_prime_greater_is_prime_and_minimal(r):
    p = smallest_prime_greater(r)
    assert p > r and is_prime(p)
    assert not any(is_prime(k) for k in range(r + 1, p))


# ---------------------------------------------------------------- pipeline


def test_pipeline_headline():
    report = slope_count_bound(BoundQuery(6.0, 3.35))
    assert (report.delta_max, report.prime, report.count_bound) == (10, 11, 12)


def test_pipeline_two_pi():
    report = slope_count_bound(BoundQuery(2.0 * math.pi, math.sqrt(3.0)))
    assert (report.delta_max, report.prime, report.count_bound) == (22, 23, 24)


def test_pipeline_degenerate_small():
    report = slope_count_bound(BoundQuery(1.0, 36.0))
    assert (report.delta_max, report.prime, report.count_bound) == (0, 2, 3)


def test_pipeline_guard_flag_surfaces():
    # 36/3 = 12 exactly: the box around (6, 3) straddles 12, and its high
    # corner gives 12
    report = slope_count_bound(BoundQuery(6.0, 3.0))
    assert (report.delta_max, report.prime, report.floor_guard_hit) == (12, 13, True)
    # 3 + 1e-14 is about 22 ulps above 3: every real that rounds to it gives 11
    report = slope_count_bound(BoundQuery(6.0, 3.0 + 1e-14))
    assert (report.delta_max, report.prime, report.floor_guard_hit) == (11, 13, False)


# ---------------------------------------------------------------- F_p P^1


def test_projective_basis_points():
    assert project_to_fp(Slope(1, 0), 11) == (1, 0)
    assert project_to_fp(Slope(11, 1), 11) == (0, 1)


def test_projective_distinct_points():
    assert project_to_fp(Slope(7, 5), 11) != project_to_fp(Slope(2, 9), 11)


def test_projective_normalization_canonical():
    # 2 * (7, 5) = (14, 10) = (3, 10) mod 11 is the same point as (7, 5)
    assert project_to_fp(Slope(3, 10), 11) == project_to_fp(Slope(7, 5), 11) == (1, 7)
    # (0, 5) is the point (0, 1)
    assert project_to_fp(Slope(11, 5), 11) == (0, 1)


def test_projective_point_count():
    # a window of primitive slopes covers F_p P^1, which has exactly p + 1 points
    for p in (2, 3, 5, 7, 11):
        window = [Slope(a, b) for a in range(-p, p + 1) for b in range(0, p + 1)
                  if (b > 0 or a == 1) and math.gcd(a, b) == 1]
        points = {project_to_fp(s, p) for s in window}
        assert len(points) == p + 1
        assert all(x == 1 or (x, y) == (0, 1) for x, y in points)
        assert all(0 <= y < p for _x, y in points)


def test_projective_requires_prime():
    for p in (0, 1, 9, 10):
        with pytest.raises(ValueError, match="not prime"):
            project_to_fp(Slope(1, 0), p)


def test_projective_never_zero():
    rng = random.Random(3)
    for _ in range(300):
        assert project_to_fp(random_slope(rng, 50), 13) != (0, 0)


# ---------------------------------------------------------------- lemma


def test_lemma_hexagonal_slopes_inject(hex2_shape):
    report = enumerate_short_slopes(hex2_shape, 6.0)
    verdict = verify_counting_lemma(report.slopes, 11)
    assert verdict.injective and verdict.collision is None


def test_lemma_constructed_collision():
    verdict = verify_counting_lemma([Slope(1, 0), Slope(1, 11)], 11)
    assert not verdict.injective
    assert set(verdict.collision) == {Slope(1, 0), Slope(1, 11)}
    assert verdict.delta == 11


def test_lemma_singleton():
    verdict = verify_counting_lemma([Slope(1, 0)], 2)
    assert verdict.injective


def test_lemma_requires_prime():
    with pytest.raises(ValueError):
        verify_counting_lemma([Slope(1, 0)], 12)
    # checked up front, not only when a slope is reduced
    with pytest.raises(ValueError):
        verify_counting_lemma([], 12)


def test_lemma_checks_modulus_once(hex2_shape, monkeypatch):
    calls = []
    real = bound_calculus.is_prime
    monkeypatch.setattr(bound_calculus, "is_prime", lambda n: calls.append(n) or real(n))
    slopes = list(enumerate_short_slopes(hex2_shape, 6.0).slopes)
    shuffled = slopes[::-1] + slopes[:3]  # reordered, with repeats
    for p in (11, 5):
        calls.clear()
        verdict = verify_counting_lemma(shuffled, p)
        assert calls == [p]
        assert verdict == verify_counting_lemma(slopes, p)
    assert not verdict.injective


def test_collision_soundness_random():
    # any reported collision must have p | delta and delta > 0
    rng = random.Random(19)
    for _ in range(500):
        p = rng.choice((11, 13, 23))
        slopes = {random_slope(rng, 40) for _ in range(rng.randint(2, 8))}
        verdict = verify_counting_lemma(slopes, p)
        if verdict.collision is not None:
            s1, s2 = verdict.collision
            assert verdict.delta == intersection_number(s1, s2)
            assert verdict.delta > 0
            assert verdict.delta % p == 0


def test_lemma_matches_divisibility_oracle():
    # two primitive slopes share a point of F_p P^1 iff p | (ad - bc); the
    # collision is the first such pair, scanning the sorted slopes in order
    rng = random.Random(31)
    collisions = 0
    for _ in range(400):
        p = rng.choice((2, 3, 5, 11, 13))
        slopes = sorted({random_slope(rng, 30) for _ in range(rng.randint(0, 10))})
        first = next(
            (
                (slopes[i], slopes[j])
                for j in range(len(slopes))
                for i in range(j)
                if (slopes[i].a * slopes[j].b - slopes[i].b * slopes[j].a) % p == 0
            ),
            None,
        )
        verdict = verify_counting_lemma(slopes, p)
        assert verdict.injective == (first is None)
        assert verdict.collision == first
        collisions += first is not None
    assert 100 < collisions < 300


def test_farey_window_saturates_bound():
    # {(1,0)} with (k,1) for k < p has pairwise delta <= p-1 and exactly p+1 members
    for p in (11, 13, 23):
        slopes = [Slope(1, 0)] + [Slope(k, 1) for k in range(p)]
        assert len(slopes) == p + 1
        assert max(
            intersection_number(s, t) for i, s in enumerate(slopes) for t in slopes[i + 1 :]
        ) == p - 1
        assert verify_counting_lemma(slopes, p).injective


# ---------------------------------------------------------------- cross-module


def test_delta_bound_dominates_geometry():
    rng = random.Random(23)
    for _ in range(30):
        shape = random_shape(rng)
        threshold = rng.uniform(1.0, 5.0)
        report = enumerate_short_slopes(shape, threshold)
        if len(report) < 2:
            continue
        ceiling = slope_count_bound(BoundQuery(threshold, area(shape))).delta_max
        assert report.max_delta <= ceiling


def test_count_bound_dominates_enumeration():
    rng = random.Random(29)
    for _ in range(30):
        shape = random_shape(rng)
        threshold = rng.uniform(1.0, 5.0)
        report = enumerate_short_slopes(shape, threshold)
        pipeline = slope_count_bound(BoundQuery(threshold, area(shape)))
        assert len(report) <= pipeline.count_bound
