"""Shows that every oracle check accepts the program's real output and
rejects a deliberately broken copy of it.

    python3 perfbench/selftest.py      (from the repository root)

`run.py` calls `run()` before every measurement, so a check that has gone
blind stops the benchmark instead of passing silently.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import corpus
import oracle
from oracle import CheckError, Expected

import cuspslopes as cs


def _rejects(check, broken, what: str) -> None:
    try:
        check(broken)
    except CheckError:
        return
    raise RuntimeError(f"self-test: check accepted {what}")


def _drop_last_slope(d):
    d["slopes"].pop()
    d["delta_matrix"] = [row[:-1] for row in d["delta_matrix"][:-1]]


def _set(path, value):
    def mutate(d):
        *head, last = path
        for key in head:
            d = d[key]
        d[last] = value(d[last])
    return mutate


REPORT_MUTATIONS = {
    "a dropped slope": _drop_last_slope,
    "a wrong max_delta": _set(("max_delta",), lambda v: v + 1),
    "a wrong delta matrix entry": _set(("delta_matrix", 0, 1), lambda v: v + 1),
    "a wrong slope length": _set(("slopes", 0, "length"), lambda v: v * (1 + 1e-6)),
    "a wrong slope": _set(("slopes", 0, "a"), lambda v: v + 7),
    "a spurious boundary flag": _set(("slopes", 0, "boundary"), lambda v: True),
    "a wrong prime": _set(("bound", "prime"), lambda v: v + 2),
    "a wrong crossing ceiling": _set(("bound", "delta_max"), lambda v: v - 1),
    "a flipped lemma verdict": _set(("lemma", "injective"), lambda v: not v),
}


def _program_report(shape, threshold, area_floor=None) -> dict:
    prog = cs.CuspShape(shape.meridian, shape.longitude, name=shape.name)
    report = cs.report_io.build_analysis_report(prog, threshold, area_floor=area_floor)
    return json.loads(cs.report_io.report_to_json(report))


def run() -> None:
    hex2 = corpus.Shape("hex2", (2.0, 0.0), (1.0, math.sqrt(3.0)), 0)
    skewed = corpus.census_shapes(0, count=1, max_k=1000)[0]
    cases = [
        (hex2, 6.0, None, oracle.shape_area(hex2), 1e-12),
        (skewed, 6.0, corpus.CAO_MEYERHOFF, corpus.CAO_MEYERHOFF, 0.0),
        (skewed, corpus.TWO_PI, corpus.ADAMS, corpus.ADAMS, 0.0),
    ]
    for shape, threshold, floor, exp_floor, rel in cases:
        exp = Expected.build(shape, threshold, exp_floor)
        good = _program_report(shape, threshold, floor)

        def check(d, exp=exp, rel=rel):
            oracle.check_report_dict(d, exp, area_rel=rel)
        check(good)
        for what, mutate in REPORT_MUTATIONS.items():
            broken = copy.deepcopy(good)
            mutate(broken)
            _rejects(check, broken, f"{what} ({shape.name} at {threshold:.6g})")

    paper = _program_report(skewed, 6.0, corpus.CAO_MEYERHOFF)
    oracle.check_paper_bound(paper, 6.0, 12, 10, 11)
    broken = copy.deepcopy(paper)
    _set(("bound", "count_bound"), lambda v: 24)(broken)
    _rejects(lambda d: oracle.check_paper_bound(d, 6.0, 12, 10, 11), broken,
             "a count bound of 24 at (6, 3.35)")

    prog_hex2 = cs.CuspShape(hex2.meridian, hex2.longitude, name="hex2")
    short = cs.enumerate_short_slopes(prog_hex2, 6.0)
    svg = cs.emit_lattice_svg(cs.DiagramSpec(short))
    oracle.check_svg(svg, len(short))
    marker = svg.index('<circle class="slope"')
    _rejects(lambda s: oracle.check_svg(s, len(short)),
             svg[:marker] + svg[svg.index("\n", marker) + 1:], "an SVG with a missing marker")

    exp6 = Expected.build(hex2, 6.0, oracle.shape_area(hex2))
    lines = ["# cusp hex2  threshold 6  area 3.46410161514",
             f"# {len(short)} slopes, max pairwise intersection {short.max_delta}"]
    lines += [f"{i:3d}  {str(e.slope):>10}  {e.length:.12g}" for i, e in enumerate(short.entries, 1)]
    oracle.check_cli_slopes("\n".join(lines) + "\n", exp6)
    _rejects(lambda t: oracle.check_cli_slopes(t, exp6),
             "\n".join(lines[:-1]) + "\n", "a slopes listing with a dropped line")
    good_bound = "L^2/A = 10.7462686567\nΔ ≤ 10, p = 11, slopes ≤ 12\n"
    oracle.check_cli_bound(good_bound, 6.0, corpus.CAO_MEYERHOFF)
    _rejects(lambda t: oracle.check_cli_bound(t, 6.0, corpus.CAO_MEYERHOFF),
             good_bound.replace("slopes ≤ 12", "slopes ≤ 13"), "a bound of 13 slopes")

    rng = random.Random(5)
    for size in (0, 1, 2, 3, 40, 200):
        pts = {(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(size)}
        pts |= {(1, 0)} if size else set()
        pts = [p for p in pts if math.gcd(*p) == 1]
        collinear = [(1, b) for b in range(1, size + 1)]
        for s in (pts, collinear):
            if oracle.max_crossing(s) != oracle.max_crossing_pairwise(s):
                raise RuntimeError("self-test: hull maximum differs from pairwise maximum")


if __name__ == "__main__":
    run()
    print("selftest: every check accepts real output and rejects each broken copy")
