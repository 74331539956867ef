"""Counting pipeline for exceptional filling slopes.

Any two slopes of length <= L on a torus of area >= A have crossing number
at most floor(L^2 / A) (sin of their angle is at most 1).  A collection with
pairwise crossings <= R injects into the projective line over F_p for any
prime p > R, so it has at most p + 1 members.  With L = 6 and the
Cao-Meyerhoff area floor 3.35 this gives the headline count bound 12; the
older 2*pi / sqrt(3) regime gives 24 through the same pipeline.

``slope_count_bound(q).delta_max`` is the crossing ceiling.  ``project_to_fp``
sends (a, b) to the residue pair (1, b/a mod p), or (0, 1) when p | a; two
primitive slopes share a pair exactly when p divides ad - bc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cusp_geometry import Slope, intersection_number

# Lower bound for the maximal-cusp torus area of a one-cusped hyperbolic
# 3-manifold (Cao-Meyerhoff).
CAO_MEYERHOFF_AREA = 3.35

# Older cusp-area floor due to Adams, paired with the 2*pi length cutoff.
ADAMS_AREA = math.sqrt(3.0)

# Ratios within this relative guard of an integer are snapped to it before
# flooring; ingested constants may be perturbed at the 1e-15 level.
FLOOR_GUARD_REL_TOL = 1e-9


def guarded_floor(x: float) -> tuple[int, bool]:
    """floor(x), except values within the relative guard of an integer snap
    to that integer.  Returns (value, guard_hit)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot floor non-finite value {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= FLOOR_GUARD_REL_TOL * max(1.0, abs(x)):
        return int(nearest), True
    return math.floor(x), False


@dataclass(frozen=True)
class BoundQuery:
    """Length threshold L and area floor A feeding the pipeline."""

    length_threshold: float
    area_floor: float

    def __post_init__(self) -> None:
        L, A = self.length_threshold, self.area_floor
        if not (math.isfinite(L) and math.isfinite(A)):
            raise ValueError("length threshold and area floor must be finite")
        if L <= 0.0 or A <= 0.0:
            raise ValueError("length threshold and area floor must be positive")
        if not math.isfinite(L * L / A):
            raise ValueError(f"L^2/A overflows for length threshold {L!r} and area floor {A!r}")


@dataclass(frozen=True)
class BoundReport:
    query: BoundQuery
    delta_max: int
    prime: int
    count_bound: int
    floor_guard_hit: bool = False


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are tiny."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_prime_greater(r: int) -> int:
    """Smallest prime strictly greater than r >= 0."""
    if r < 0:
        raise ValueError(f"expected a nonnegative integer, got {r}")
    n = r + 1
    while not is_prime(n):
        n += 1
    return n


def slope_count_bound(q: BoundQuery) -> BoundReport:
    """Full pipeline: delta ceiling -> next prime p -> at most p + 1 slopes."""
    delta_max, guard_hit = guarded_floor(q.length_threshold**2 / q.area_floor)
    p = smallest_prime_greater(delta_max)
    return BoundReport(q, delta_max, p, p + 1, guard_hit)


def project_to_fp(s: Slope, p: int) -> tuple[int, int]:
    """The point of F_p P^1 of a primitive slope (a, b) for prime p, as
    (1, b/a mod p), or (0, 1) when p | a; gcd(a, b) = 1 rules out (0, 0)."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    a = s.a % p
    if a == 0:
        return (0, 1)
    return (1, s.b * pow(a, -1, p) % p)


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of the injectivity check behind the p + 1 count bound."""

    prime: int
    injective: bool
    collision: tuple[Slope, Slope] | None = None
    delta: int | None = None


def verify_counting_lemma(slopes, p: int) -> LemmaVerdict:
    """Check that the slope set maps injectively to F_p P^1.

    If pairwise crossings are <= R < p this always holds; otherwise the
    first colliding pair (in canonical order) is reported, and its crossing
    number is a positive multiple of p.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    seen: dict[tuple[int, int], Slope] = {}
    for s in sorted(set(slopes)):
        point = project_to_fp(s, p)
        if point in seen:
            other = seen[point]
            return LemmaVerdict(
                p, False, (other, s), intersection_number(other, s)
            )
        seen[point] = s
    return LemmaVerdict(p, True)
