"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuspslopes.cusp_geometry import CuspShape, Slope, area
from cuspslopes.slope_search import BOUNDARY_TOL

FIXTURES = Path(__file__).parent / "fixtures"

Mat2 = tuple[tuple[int, int], tuple[int, int]]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def square_shape() -> CuspShape:
    return CuspShape((1.0, 0.0), (0.0, 1.0), name="square")


@pytest.fixture
def hex2_shape() -> CuspShape:
    return CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hex2")


def brute_force_short_slopes(shape: CuspShape, threshold: float, box: int) -> set[Slope]:
    """Independent oracle: scan the full signed coefficient box, canonicalize,
    and keep every primitive class within the threshold (+ boundary slack).
    """
    mx, my = shape.meridian
    lx, ly = shape.longitude
    found: set[Slope] = set()
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if (a == 0 and b == 0) or math.gcd(a, b) != 1:
                continue
            if math.hypot(a * mx + b * lx, a * my + b * ly) <= threshold + 1e-12:
                found.add(Slope(a, b))
    return found


def search_box(shape: CuspShape, threshold: float) -> tuple[int, int]:
    """Coefficient bounds (amax, bmax) that contain every short slope: the
    marked-basis reference box that the oracles scan.  The enumeration does
    not use it; it scans the disc in a reduced basis.

    A vector a*m + b*l sits at distance |a| * area/|l| from the line through
    l, so |a| <= threshold*|l|/area; symmetrically for b.
    """
    a = area(shape)
    reach = threshold + BOUNDARY_TOL
    amax = math.ceil(reach * math.hypot(*shape.longitude) / a + 1e-9)
    bmax = math.ceil(reach * math.hypot(*shape.meridian) / a + 1e-9)
    return amax, bmax


# A slope whose exact squared length is this close (relative) to T^2 is too
# close to call from binary64 inputs; either decision is accepted for it.
# The inclusion tolerance, 1e-12 on lengths of at least 0.3, lies inside it.
AMBIGUOUS_REL = 1e-10


def exact_short_slopes(shape: CuspShape, threshold: float, box: int):
    """Exact oracle of the inclusion decision, apart from the program's
    ``hypot(...) <= threshold + 1e-12``: the primitive classes with |a|, |b|
    <= box whose squared length, in ``Fraction`` arithmetic on the binary64
    coordinates, is below threshold^2 (``sure``), and those within a relative
    ``AMBIGUOUS_REL`` of it (``ambiguous``).  Lengths more than a relative
    1e-6 from the threshold are decided in floats.  Returns (sure, ambiguous).
    """
    mx, my = shape.meridian
    lx, ly = shape.longitude
    exact_m, exact_l = (Fraction(mx), Fraction(my)), (Fraction(lx), Fraction(ly))
    t2 = Fraction(threshold) ** 2
    sure: set[Slope] = set()
    ambiguous: set[Slope] = set()
    for b in range(0, box + 1):
        for a in (1,) if b == 0 else range(-box, box + 1):
            if math.gcd(a, b) != 1:
                continue
            length = math.hypot(a * mx + b * lx, a * my + b * ly)
            if abs(length - threshold) > 1e-6 * threshold:
                if length < threshold:
                    sure.add(Slope(a, b))
                continue
            exact = sum((a * p + b * q) ** 2 for p, q in zip(exact_m, exact_l))
            if abs(exact - t2) <= AMBIGUOUS_REL * t2:
                ambiguous.add(Slope(a, b))
            elif exact < t2:
                sure.add(Slope(a, b))
    return sure, ambiguous


def includes_exactly(listed: set[Slope], shape: CuspShape, threshold: float, box: int) -> bool:
    """Whether ``listed`` holds every slope the exact oracle calls short and
    nothing it calls long: sure <= listed <= sure | ambiguous."""
    sure, ambiguous = exact_short_slopes(shape, threshold, box)
    return sure <= listed <= sure | ambiguous


def random_shape(rng: random.Random, name: str | None = None) -> CuspShape:
    """Well-conditioned random cusp shape (no near-degenerate bases)."""
    while True:
        m = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        l = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        det = m[0] * l[1] - m[1] * l[0]
        if abs(det) > 0.3 and math.hypot(*m) > 0.4 and math.hypot(*l) > 0.4:
            return CuspShape(m, l, name=name)


def random_slope(rng: random.Random, max_coord: int = 20) -> Slope:
    while True:
        a = rng.randint(-max_coord, max_coord)
        b = rng.randint(-max_coord, max_coord)
        if (a != 0 or b != 0) and math.gcd(a, b) == 1:
            return Slope(a, b)


def random_unimodular(rng: random.Random, word_length: int = 6) -> Mat2:
    """Random SL(2, Z) matrix as a short word in the standard generators."""
    m: Mat2 = ((1, 0), (0, 1))
    for _ in range(word_length):
        if rng.random() < 0.5:
            g: Mat2 = ((1, rng.randint(-3, 3)), (0, 1))
        else:
            g = ((0, -1), (1, 0))
        m = mat_mul(m, g)
    return m


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def change_basis(shape: CuspShape, m: Mat2) -> CuspShape:
    """New marking with basis rows m * (meridian, longitude); det must be +1."""
    (p, q), (r, s) = m
    mer = (
        p * shape.meridian[0] + q * shape.longitude[0],
        p * shape.meridian[1] + q * shape.longitude[1],
    )
    lon = (
        r * shape.meridian[0] + s * shape.longitude[0],
        r * shape.meridian[1] + s * shape.longitude[1],
    )
    return CuspShape(mer, lon, name=shape.name)


def transform_slope(s: Slope, m: Mat2) -> Slope:
    """Coordinates of the same curve in the changed basis: (a' b') = (a b) m^-1."""
    (p, q), (r, s_) = m
    return Slope(s.a * s_ - s.b * r, -s.a * q + s.b * p)


def run_timed(body: str, *argv: str, kill_after: float = 30.0):
    """Run ``body`` in a fresh interpreter (``sys`` imported, ``argv`` as
    ``sys.argv[1:]``) and return the seconds the body took, timed in the
    child so interpreter start-up is left out, with the finished process.
    The child is killed after ``kill_after`` seconds, so a hang fails."""
    timed = ("import sys, time\nt0 = time.perf_counter()\n"
             + body + "\nsys.stderr.write(f'\\nseconds {time.perf_counter() - t0}\\n')\n")
    proc = subprocess.run([sys.executable, "-c", timed, *argv], capture_output=True,
                          text=True, timeout=kill_after)
    last = proc.stderr.rstrip().rsplit("\n", 1)[-1]
    seconds = float(last.split()[1]) if last.startswith("seconds ") else math.inf
    return seconds, proc


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance-criteria verdict lines after the test summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
