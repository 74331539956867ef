"""Seeded inputs for the two workloads and the command-line steps.

Every input is made here from the workload seed; the program under test only
ever sees the cusp files written by `write_cusp_file`.  Shape parameters
(area, shape, log k) sit in fixed strata of a low-discrepancy design; the
seed jitters each parameter inside its stratum and picks the rotation, the
sign of k and the order of the shapes.  So every seed gives different shapes
and slope sets, but the spread of work over a pass -- its total and its
tail -- is nearly the same for every seed, which keeps run-to-run spread low.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from oracle import short_slopes

CAO_MEYERHOFF = 3.35
ADAMS = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi

# (threshold, area floor) of the two regimes every census shape is run in,
# and the paper's (length, slope count, max crossing, prime) for each.
CENSUS_REGIMES = ((6.0, CAO_MEYERHOFF), (TWO_PI, ADAMS))
PAPER_BOUNDS = ((6.0, 12, 10, 11), (TWO_PI, 24, 22, 23))

CENSUS_SHAPES = 300
CENSUS_MAX_K = 1000          # longitude = reduced vector + k * meridian
CLI_SHAPES = 6
CLI_MAX_K = 3                # small markings keep the default 600 px diagram valid
DENSE_SEEDED_CUSPS = 6
DENSE_HEX2_THRESHOLDS = (20.0, 30.0, 40.0, 60.0)
DENSE_TARGET_COUNTS = (110, 140, 170, 210, 250, 300, 350)


@dataclass(frozen=True)
class Shape:
    """A marked cusp torus as written to the cusp file.

    `k` is the skew of the marking: the longitude is `k * meridian` plus a
    vector that forms a reduced basis with the meridian.
    """

    name: str
    meridian: tuple[float, float]
    longitude: tuple[float, float]
    k: int


@dataclass(frozen=True)
class DenseItem:
    shape: Shape
    threshold: float


def _design(n: int, dims: int, rng: random.Random) -> list[list[float]]:
    """n points of the R_d low-discrepancy sequence in [0, 1)^dims, each
    coordinate jittered by up to half a stratum (1/n).  The jitter comes from
    the seed, the strata do not."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alphas = [(1.0 / g) ** (j + 1) % 1.0 for j in range(dims)]
    return [
        [min(max((0.5 + (i + 1) * a) % 1.0 + (rng.random() - 0.5) / n, 0.0), 1.0 - 1e-12)
         for a in alphas]
        for i in range(n)
    ]


def _shape(name, u, rng, area_lo, area_hi, y_hi, max_k) -> Shape:
    """Torus of area in [area_lo, area_hi], shape tau = x + iy in the
    fundamental domain (|x| <= 1/2, |tau| >= 1, y <= y_hi), turned by a
    seeded angle, with the longitude skewed by a log-uniform k in [1, max_k]
    of seeded sign."""
    area = area_lo + u[0] * (area_hi - area_lo)
    x = u[1] - 0.5
    y_lo = math.sqrt(1.0 - x * x)
    y = y_lo + u[2] * (y_hi - y_lo)
    k = round(max_k ** u[3]) * rng.choice((1, -1)) if max_k else 0
    phi = 2.0 * math.pi * rng.random()
    r = math.sqrt(area / y)
    c, s = math.cos(phi), math.sin(phi)
    m = (r * c, r * s)
    l0 = (r * (x * c - y * s), r * (x * s + y * c))
    lon = (l0[0] + k * m[0], l0[1] + k * m[1])
    return Shape(name, m, lon, k)


def census_shapes(seed: int, count: int = CENSUS_SHAPES, max_k: int = CENSUS_MAX_K,
                  prefix: str = "census") -> list[Shape]:
    rng = random.Random(seed)
    shapes = [
        _shape(f"{prefix}{i:03d}", u, rng, CAO_MEYERHOFF, 8.0, 2.5, max_k)
        for i, u in enumerate(_design(count, 4, rng))
    ]
    rng.shuffle(shapes)
    return shapes


def cli_shapes(seed: int) -> list[Shape]:
    return census_shapes(seed + 7919, CLI_SHAPES, CLI_MAX_K, prefix="cli")


def dense_items(seed: int) -> list[DenseItem]:
    """hex2 at four fixed thresholds, plus seeded reduced cusps whose
    thresholds are placed midway between consecutive slope lengths so each
    report has exactly its target number of slopes."""
    hex2 = Shape("hex2", (2.0, 0.0), (1.0, math.sqrt(3.0)), 0)
    items = [DenseItem(hex2, t) for t in DENSE_HEX2_THRESHOLDS]
    rng = random.Random(seed)
    for i, u in enumerate(_design(DENSE_SEEDED_CUSPS, 4, rng)):
        shape = _shape(f"dense{i}", u, rng, 3.9, 4.5, 1.5, 0)
        lengths = sorted(length for _a, _b, length in short_slopes(shape, 60.0))
        for n in DENSE_TARGET_COUNTS:
            j = n
            while lengths[j] - lengths[j - 1] < 1e-6:   # step past ties
                j += 1
            threshold = (lengths[j - 1] + lengths[j]) / 2.0
            if not 20.0 <= threshold <= 60.0:
                raise ValueError(f"dense threshold {threshold} outside [20, 60]")
            items.append(DenseItem(shape, threshold))
    return items


@dataclass(frozen=True)
class CliStep:
    argv: tuple[str, ...]
    kind: str
    shape: Shape | None = None
    regime: int = 0
    extra: tuple = ()


def cli_steps(seed: int, cusp_path: str, out_dir: str) -> list[CliStep]:
    """One pass: the eight subcommands for each cli shape."""
    rng = random.Random(seed + 104729)
    steps = []
    for i, shape in enumerate(cli_shapes(seed)):
        regime = i % 2
        threshold, _floor = CENSUS_REGIMES[regime]
        t_arg = "6" if regime == 0 else "2pi"
        area_arg = "cao-meyerhoff" if regime == 0 else "adams"
        cusp = ("--cusp", cusp_path, "--name", shape.name)
        steps.append(CliStep(("slopes", *cusp), "slopes", shape))
        steps.append(CliStep(("slopes", *cusp, "--threshold", t_arg, "--json"),
                             "slopes_json", shape, regime))
        bound = ("bound",) if regime == 0 else ("bound", "--length", "2pi", "--area", "adams")
        steps.append(CliStep(bound, "bound", None, regime))
        steps.append(CliStep(("lemma-verify", *cusp), "lemma", shape))
        report_path = f"{out_dir}/report-{i}.json"
        steps.append(CliStep(("report", *cusp, "--threshold", t_arg, "--area", area_arg,
                              "--out", report_path), "report", shape, regime, (report_path,)))
        svg_path = f"{out_dir}/diagram-{i}.svg"
        steps.append(CliStep(("diagram", *cusp, "--out", svg_path), "diagram", shape,
                             0, (svg_path,)))
        genus, punctures, boundary = rng.randint(0, 2), rng.randint(1, 4), rng.randint(0, 1)
        if 2 - 2 * genus - punctures - boundary >= 0:
            genus += 1
        lengths = tuple(round(rng.uniform(0.5, 7.0), 6) for _ in range(rng.randint(1, punctures)))
        steps.append(CliStep(
            ("audit", "--surface", f"{genus},{punctures},{boundary}",
             "--lengths", ",".join(repr(x) for x in lengths)),
            "audit", None, 0, ((genus, punctures, boundary), lengths)))
        if i % 2 == 0:
            steps.append(CliStep(("horodisk", "--ratio"), "horodisk_ratio"))
        else:
            r = round(rng.uniform(0.1, 2.0), 6)
            big_r = round(r * rng.uniform(1.0, 9.0), 6)
            steps.append(CliStep(("horodisk", "--separation", repr(r), repr(big_r)),
                                 "horodisk_separation", None, 0, (r, big_r)))
    return steps


def write_cusp_file(shapes, path: str) -> None:
    """A v1 cusp file, written without the program's own writer."""
    records = [
        {"name": s.name, "meridian": list(s.meridian), "longitude": list(s.longitude)}
        for s in shapes
    ]
    data = {"format": "cusp-file", "version": "v1", "cusps": records}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)
        f.write("\n")
