"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion's line is echoed here and replayed in the terminal summary
(see conftest.pytest_terminal_summary), so `pytest -v` always shows the ten
verdicts even with output capture enabled.
"""

from __future__ import annotations

import math
import random
import time

from cuspslopes.bound_calculus import (
    BoundQuery,
    slope_count_bound,
    verify_counting_lemma,
)
from cuspslopes.cusp_geometry import (
    CuspShape,
    Slope,
    area,
    area_identity_residual,
    intersection_number,
)
from cuspslopes.diagram import DiagramSpec, emit_lattice_svg
from cuspslopes.halfplane_geometry import HorodiskPair, extremal_ratio, tangency_separation
from cuspslopes.slope_search import enumerate_short_slopes
from cuspslopes.surface_audit import SurfaceAudit, SurfaceType, check_cusp_length_inequality, punctured_sphere_feasible

from conftest import (
    FIXTURES,
    exact_short_slopes,
    includes_exactly,
    random_shape,
    random_slope,
)

RESULTS: list[str] = []


def _record(num: int, passed: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {'PASS' if passed else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def _best_time(fn, repeats: int = 5) -> float:
    fn()  # warm up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _hex2() -> CuspShape:
    return CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hex2")


def test_acceptance_01_headline_pipeline():
    report = slope_count_bound(BoundQuery(6.0, 3.35))
    ratio = 36.0 / 3.35
    elapsed = _best_time(lambda: slope_count_bound(BoundQuery(6.0, 3.35)))
    ok = (
        math.isclose(ratio, 10.746268656716418, rel_tol=1e-12)
        and round(ratio, 2) == 10.75
        and (report.delta_max, report.prime, report.count_bound) == (10, 11, 12)
        and elapsed < 1e-3
    )
    _record(
        1,
        ok,
        f"pipeline (L=6, A=3.35): L^2/A={ratio:.6f}, delta_max={report.delta_max}, "
        f"p={report.prime}, count={report.count_bound}, {elapsed * 1e3:.3f} ms",
    )


def test_acceptance_02_two_pi_regime():
    query = BoundQuery(2.0 * math.pi, math.sqrt(3.0))
    report = slope_count_bound(query)
    elapsed = _best_time(lambda: slope_count_bound(query))
    ok = (report.delta_max, report.prime, report.count_bound) == (22, 23, 24) and elapsed < 1e-3
    _record(
        2,
        ok,
        f"pipeline (L=2pi, A=sqrt3): delta_max={report.delta_max}, p={report.prime}, "
        f"count={report.count_bound}, {elapsed * 1e3:.3f} ms",
    )


def test_acceptance_03_hexagonal_twelve():
    shape = _hex2()

    def work():
        report = enumerate_short_slopes(shape, 6.0)
        verdict = verify_counting_lemma(report.slopes, 11)
        return report, verdict

    report, verdict = work()
    elapsed = _best_time(lambda: work())
    oracle, ambiguous = exact_short_slopes(shape, 6.0)
    ok = (
        len(report) == 12
        and set(report.slopes) == oracle
        and not ambiguous
        and report.max_delta <= 10
        and verdict.injective
        and elapsed < 10e-3
    )
    _record(
        3,
        ok,
        f"hexagonal scale-2: {len(report)} slopes (oracle {len(oracle)}), "
        f"max_delta={report.max_delta}, F_11 injective={verdict.injective}, "
        f"{elapsed * 1e3:.3f} ms",
    )


def test_acceptance_04_figure_calculus():
    ratio = extremal_ratio()
    target = (1.0 + math.sqrt(2.0)) ** 2
    separation = tangency_separation(HorodiskPair(1.0, ratio))
    sep_target = 2.0 * math.log(1.0 + math.sqrt(2.0))
    ok = abs(ratio - target) < 1e-12 and abs(separation - sep_target) < 1e-12
    _record(
        4,
        ok,
        f"extremal ratio {ratio:.12f} vs (1+sqrt2)^2 (err {abs(ratio - target):.2e}), "
        f"separation {separation:.8f} vs 2ln(1+sqrt2) (err {abs(separation - sep_target):.2e})",
    )


def _bounded_delta_set(rng: random.Random, p: int, style: int) -> list[Slope]:
    big_r = p - 1
    if style == 0:
        # Farey-type window saturating the p + 1 bound
        return [Slope(1, 0)] + [Slope(k, 1) for k in range(p)]
    if style == 1:
        k0 = rng.randint(-50, 50)
        size = rng.randint(2, p)
        window = [Slope(k0 + i, 1) for i in range(size)]
        if rng.random() < 0.5:
            window.append(Slope(1, 0))
        return window
    slopes: list[Slope] = []
    target = rng.randint(3, 9)
    for _ in range(40):
        s = random_slope(rng, 25)
        if s not in slopes and all(intersection_number(s, t) <= big_r for t in slopes):
            slopes.append(s)
            if len(slopes) >= target:
                break
    return slopes


def _forced_collision(rng: random.Random, p: int) -> tuple[Slope, Slope]:
    while True:
        s = random_slope(rng, 12)
        c, d = rng.randint(-3, 3), rng.randint(-3, 3)
        if s.a * d - s.b * c == 0:
            continue
        a2, b2 = s.a + p * c, s.b + p * d
        if (a2 == 0 and b2 == 0) or math.gcd(a2, b2) != 1:
            continue
        return s, Slope(a2, b2)


def test_acceptance_05_counting_lemma_corpus():
    rng = random.Random(20240)
    failures = 0
    t0 = time.perf_counter()
    for trial in range(10**4):
        p = rng.choice((11, 13, 23))
        slopes = _bounded_delta_set(rng, p, trial % 3)
        if not verify_counting_lemma(slopes, p).injective:
            failures += 1
    collision_failures = 0
    for _ in range(500):
        p = rng.choice((11, 13, 23))
        s1, s2 = _forced_collision(rng, p)
        verdict = verify_counting_lemma([s1, s2], p)
        if verdict.injective or verdict.delta is None or verdict.delta % p != 0 or verdict.delta <= 0:
            collision_failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and collision_failures == 0 and elapsed < 5.0
    _record(
        5,
        ok,
        f"counting lemma: 10^4 bounded-delta sets, {failures} injectivity failures; "
        f"500 forced collisions, {collision_failures} soundness failures; {elapsed:.2f} s",
    )


def test_acceptance_06_area_identity_corpus():
    rng = random.Random(424242)
    worst = 0.0
    count = 0
    t0 = time.perf_counter()
    while count < 10**4:
        shape = random_shape(rng)
        s1, s2 = random_slope(rng), random_slope(rng)
        if s1 == s2:
            continue
        count += 1
        rel = abs(area_identity_residual(shape, s1, s2)) / (
            intersection_number(s1, s2) * area(shape)
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _record(
        6,
        ok,
        f"area identity: 10^4 samples, worst relative residual {worst:.2e}, {elapsed:.2f} s",
    )


def test_acceptance_07_sharpness_witness():
    sharp = check_cusp_length_inequality(SurfaceAudit(SurfaceType(1, 1), (6.0,)))
    violated = check_cusp_length_inequality(SurfaceAudit(SurfaceType(1, 1), (6.0 + 1e-6,)))
    ok = sharp.passed and sharp.sharp and sharp.slack == 0.0 and not violated.passed
    _record(
        7,
        ok,
        f"punctured-torus witness: length 6 -> pass sharp (slack {sharp.slack}), "
        f"length 6+1e-6 -> {'fail' if not violated.passed else 'pass'}",
    )


def test_acceptance_08_hyperbolike_contradiction():
    lengths = (6.01, 6.5, 7.0, 2.0 * math.pi)
    t0 = time.perf_counter()
    feasible_hits = sum(
        1
        for l in lengths
        for n in range(3, 10**6 + 1)
        if punctured_sphere_feasible(n, l)
    )
    elapsed = time.perf_counter() - t0
    ok = feasible_hits == 0
    _record(
        8,
        ok,
        f"punctured-sphere sweep: n in [3, 10^6], l in {{6.01, 6.5, 7, 2pi}}, "
        f"{feasible_hits} feasible configurations, {elapsed:.2f} s",
    )


def test_acceptance_09_enumeration_oracle():
    rng = random.Random(90909)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(500):
        shape = random_shape(rng)
        threshold = rng.uniform(0.3, 6.0)
        report = enumerate_short_slopes(shape, threshold)
        if not includes_exactly(set(report.slopes), shape, threshold):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _record(
        9,
        ok,
        f"enumeration oracle: 500 random shapes/thresholds, {mismatches} mismatches, "
        f"{elapsed:.2f} s",
    )


def test_acceptance_10_diagram_golden():
    spec = DiagramSpec(enumerate_short_slopes(_hex2(), 6.0), label_slopes=True)
    first = emit_lattice_svg(spec)
    second = emit_lattice_svg(spec)
    golden = (FIXTURES / "goldens" / "hex2_threshold6.svg").read_bytes()
    markers = first.count('<circle class="slope"')
    ok = first == second and first.encode("utf-8") == golden and markers == 24
    _record(
        10,
        ok,
        f"diagram golden: {markers} highlighted markers, byte-identical runs, "
        f"matches stored golden",
    )
