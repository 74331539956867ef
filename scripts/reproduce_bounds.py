#!/usr/bin/env python3
"""Reproduce the headline numbers end to end and print a compact summary.

Covers: the two bound-pipeline regimes (threshold 6 with the Cao-Meyerhoff
area floor, threshold 2pi with the Adams floor), the hexagonal scale-2 cusp
with its 12 short slopes and finite-field injectivity check, the half-plane
tangency calculus, and the sharp cusp-length audit witness.
"""

from __future__ import annotations

import math

from cuspslopes.bound_calculus import (
    ADAMS_AREA,
    CAO_MEYERHOFF_AREA,
    BoundQuery,
    BoundReport,
    slope_count_bound,
    verify_counting_lemma,
)
from cuspslopes.cusp_geometry import CuspShape, area
from cuspslopes.halfplane_geometry import HorodiskPair, extremal_ratio, tangency_separation
from cuspslopes.slope_search import enumerate_short_slopes
from cuspslopes.surface_audit import SurfaceAudit, SurfaceType, check_cusp_length_inequality


def pipeline_line(label: str, length: float, floor: float) -> BoundReport:
    """Print one regime of the bound pipeline and return its report."""
    report = slope_count_bound(BoundQuery(length, floor))
    print(
        f"{label:28s} L^2/A = {length * length / floor:8.4f}  "
        f"delta <= {report.delta_max:2d}  p = {report.prime:2d}  "
        f"slopes <= {report.count_bound}"
    )
    return report


def main() -> None:
    print("== bound pipeline ==")
    headline = pipeline_line("L = 6, Cao-Meyerhoff floor", 6.0, CAO_MEYERHOFF_AREA)
    pipeline_line("L = 2pi, Adams floor", 2.0 * math.pi, ADAMS_AREA)

    print("\n== hexagonal scale-2 cusp ==")
    hex2 = CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hex2")
    report = enumerate_short_slopes(hex2, 6.0)
    print(f"area {area(hex2):.6f}, {len(report)} slopes of length <= 6:")
    for entry in report.entries:
        print(f"  {str(entry.slope):>8s}  length {entry.length:.6f}")
    print(f"max pairwise intersection number: {report.max_delta}")
    # the lemma at the headline pipeline's prime, the p behind its count bound
    verdict = verify_counting_lemma(report.slopes, headline.prime)
    print(f"reduction to F_{verdict.prime} P^1 injective: {verdict.injective}")

    print("\n== half-plane tangency calculus ==")
    ratio = extremal_ratio()
    print(f"extremal radius ratio R/r            = {ratio:.12f}")
    print(f"(1 + sqrt 2)^2                       = {(1 + math.sqrt(2)) ** 2:.12f}")
    print(f"tangency separation at that ratio    = {tangency_separation(HorodiskPair(1.0, ratio)):.12f}")
    print(f"2 ln(1 + sqrt 2)                     = {2 * math.log(1 + math.sqrt(2)):.12f}")

    print("\n== sharp cusp-length audit witness ==")
    sharp = check_cusp_length_inequality(SurfaceAudit(SurfaceType(1, 1), (6.0,)))
    print(
        f"punctured torus, slope length 6: pass={sharp.passed}, "
        f"sharp={sharp.sharp}, slack={sharp.slack}"
    )


if __name__ == "__main__":
    main()
