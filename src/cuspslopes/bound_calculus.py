"""Counting pipeline for exceptional filling slopes.

Any two slopes of length <= L on a torus of area >= A have crossing number
at most floor(L^2 / A) (sin of their angle is at most 1).  A collection with
pairwise crossings <= R injects into the projective line over F_p for any
prime p > R, so it has at most p + 1 members.  With L = 6 and the
Cao-Meyerhoff area floor 3.35 this gives the headline count bound 12; the
older 2*pi / sqrt(3) regime gives 24 through the same pipeline.

``slope_count_bound(q).delta_max`` is the crossing ceiling, claimed for every
real L' and A' that round to the binary64 L and A: the largest
floor(L'^2 / A') over the closed box of such reals, taken at its corner
(L + ulp(L)/2, A - g/2), g the gap below A, and computed in integers.
``floor_guard_hit`` says that the box straddles an integer: the floor at the
opposite corner is smaller.  ``project_to_fp`` sends (a, b) to the residue
pair (1, b/a mod p), or (0, 1) when p | a; two primitive slopes share a pair
exactly when p divides ad - bc.  ``is_prime`` is deterministic Miller-Rabin,
a domain error past its exact range, so ``BoundQuery`` refuses L and A whose
next prime would lie past that range.  It also refuses a subnormal area
floor, whose few significant bits would silently change the bound.
"""

from __future__ import annotations

import math
import sys

from .cusp_geometry import Slope, _count, _positive, _set, _shown, _Value, intersection_number

# Lower bound for the maximal-cusp torus area of a one-cusped hyperbolic
# 3-manifold (Cao-Meyerhoff).
CAO_MEYERHOFF_AREA = 3.35

# Older cusp-area floor due to Adams, paired with the 2*pi length cutoff.
ADAMS_AREA = math.sqrt(3.0)

# Deterministic Miller-Rabin: an odd n > 1 that is a strong probable prime to
# the first k prime bases is prime when n < psi_k (OEIS A014233).  The last
# value, about 3.3e24, is psi_13 (Sorenson-Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017); the first twelve bases alone stop
# at psi_12, about 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)
_MR_LIMIT = _MR_PSI[-1]
# The largest prime below _MR_LIMIT: a crossing ceiling from it on has no
# next prime that is_prime decides.
_LAST_PRIME = 3317044064679887385961813


def _rounding_box(x: float) -> tuple[int, int, int]:
    """Integers lo, hi and e such that [lo * 2**e, hi * 2**e] is the closed
    interval of reals that round to the float x > 0: x less half the gap
    below it, to x plus half its ulp."""
    e = math.frexp(math.ulp(x))[1] - 3  # 2**e is a quarter of x's ulp
    n = int(math.ldexp(x, -e))
    return (n + int(math.ldexp(math.nextafter(x, 0.0), -e))) // 2, n + 2, e


def _floor_ratio(m: int, em: int, a: int, ea: int) -> int:
    """floor((m * 2**em)**2 / (a * 2**ea)) for a > 0."""
    s = 2 * em - ea
    return (m * m << s) // a if s >= 0 else m * m // (a << -s)


def _crossing_floors(L: float, A: float) -> tuple[int, int]:
    """floor(L'^2 / A') at the low and at the high corner of the box of
    reals L', A' that round to L and A."""
    l_lo, l_hi, el = _rounding_box(L)
    a_lo, a_hi, ea = _rounding_box(A)
    return _floor_ratio(l_lo, el, a_hi, ea), _floor_ratio(l_hi, el, a_lo, ea)


class BoundQuery(_Value):
    """Length threshold L and area floor A feeding the pipeline, as floats."""

    __slots__ = _fields = ("length_threshold", "area_floor")

    def __init__(self, length_threshold: float, area_floor: float) -> None:
        L = _positive(length_threshold, "length threshold")
        A = _positive(area_floor, "area floor")
        if A < sys.float_info.min:
            raise ValueError(f"area floor must be at least {sys.float_info.min!r}, the smallest "
                             f"normal float, got {A!r}")
        _set(self, "length_threshold", L)
        _set(self, "area_floor", A)
        if _crossing_floors(L, A)[1] >= _LAST_PRIME:
            raise ValueError(f"the count bound for length threshold {L!r} and area floor {A!r} "
                             f"needs a prime past {_LAST_PRIME}, the largest is_prime decides")


class BoundReport(_Value):
    __slots__ = _fields = ("query", "delta_max", "prime", "count_bound", "floor_guard_hit")
    _defaults = {"floor_guard_hit": False}


def bound_to_dict(bound: BoundReport) -> dict:
    """The ``bound`` section of a report (also ``cuspslopes bound --json``)."""
    return {
        "length_threshold": bound.query.length_threshold,
        "area_floor": bound.query.area_floor,
        "delta_max": bound.delta_max,
        "prime": bound.prime,
        "count_bound": bound.count_bound,
        "floor_guard_hit": bound.floor_guard_hit,
    }


def is_prime(n: int) -> bool:
    """Trial division by the thirteen Miller-Rabin bases, which are the
    primes up to 41; then deterministic Miller-Rabin to those bases, stopping
    after the first k once n < psi_k.  Exact below about 3.3e24; larger n
    raise ``ValueError``."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {_shown(n)} is only decided below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def _modulus(p, what: str = "modulus", error=ValueError) -> int:
    """The one check of a prime modulus a caller passes in: a ``_count`` that
    ``is_prime`` decides is prime.  Each refusal is an ``error`` whose
    message names the field ``what``."""
    p = _count(p, what, error=error)
    try:
        prime = is_prime(p)
    except ValueError as e:
        raise error(f"{what} is out of range: {e}") from None
    if not prime:
        raise error(f"{what} {p} is not prime")
    return p


def smallest_prime_greater(r: int) -> int:
    """Smallest prime strictly greater than r >= 0."""
    n = _count(r, "r", 0) + 1
    while not is_prime(n):
        n += 1
    return n


def slope_count_bound(q: BoundQuery) -> BoundReport:
    """Full pipeline: delta ceiling -> next prime p -> at most p + 1 slopes."""
    low, delta_max = _crossing_floors(q.length_threshold, q.area_floor)
    p = smallest_prime_greater(delta_max)
    return BoundReport(q, delta_max, p, p + 1, low != delta_max)


def _residue(a: int, b: int, p: int) -> tuple[int, int]:
    """(1, b/a mod p), or (0, 1) when p | a, for a prime p checked by the caller."""
    a %= p
    if a == 0:
        return (0, 1)
    return (1, b * pow(a, -1, p) % p)


def project_to_fp(s: Slope, p: int) -> tuple[int, int]:
    """The point of F_p P^1 of a primitive slope (a, b) for prime p, as
    (1, b/a mod p), or (0, 1) when p | a; gcd(a, b) = 1 rules out (0, 0)."""
    return _residue(s.a, s.b, _modulus(p))


class LemmaVerdict(_Value):
    """Outcome of the injectivity check behind the p + 1 count bound."""

    __slots__ = _fields = ("prime", "injective", "collision", "delta")
    _defaults = {"collision": None, "delta": None}


def lemma_to_dict(lemma: LemmaVerdict) -> dict:
    """The ``lemma`` section of a report (also ``lemma-verify --json``)."""
    return {
        "prime": lemma.prime,
        "injective": lemma.injective,
        "collision": (
            None if lemma.collision is None else [[s.a, s.b] for s in lemma.collision]
        ),
        "delta": lemma.delta,
    }


def verify_counting_lemma(slopes, p: int) -> LemmaVerdict:
    """Check that the slope set maps injectively to F_p P^1.

    If pairwise crossings are <= R < p this always holds; otherwise the
    first colliding pair (in canonical order) is reported, and its crossing
    number is a positive multiple of p.  The modulus is checked once; slopes
    are sorted and deduplicated by their (a, b) pairs.
    """
    p = _modulus(p)
    by_pair = {(s.a, s.b): s for s in slopes}
    seen: dict[tuple[int, int], Slope] = {}
    for pair in sorted(by_pair):
        s = by_pair[pair]
        point = _residue(*pair, p)
        if point in seen:
            other = seen[point]
            return LemmaVerdict(
                p, False, (other, s), intersection_number(other, s)
            )
        seen[point] = s
    return LemmaVerdict(p, True)
