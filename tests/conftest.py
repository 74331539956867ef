"""Shared fixtures, the exact short-slope oracle and helpers for the test suite."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuspslopes.cusp_geometry import CuspShape, Slope

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


# A slope whose exact squared length is this close (relative) to T^2 is too
# close to call from binary64 inputs; either decision is accepted for it.
# The program's inclusion tolerance, LENGTH_RTOL = 2^-40 (9.1e-13) relative
# to the threshold, lies inside it.
AMBIGUOUS_REL = 1e-10

# The marked basis as integer rows: meridian (1, 0) and longitude (0, 1).
MARKING = ((1, 0), (0, 1))


def coefficient_box(shape: CuspShape, basis, r2: Fraction) -> tuple[int, int]:
    """The largest |i| and |j| of the lattice vectors i*p + j*q of squared
    length at most r2, where the rows (a, b) of ``basis`` give p and q as
    a*meridian + b*longitude.  Exact, in ``Fraction`` arithmetic on the
    binary64 coordinates: i*p + j*q lies |i| |det(p, q)| / |q| from the line
    through q, so i^2 det^2 <= r2 |q|^2; symmetrically for j.
    """
    (mx, my), (lx, ly) = ((Fraction(x), Fraction(y)) for x, y in (shape.meridian, shape.longitude))
    p, q = ((a * mx + b * lx, a * my + b * ly) for a, b in basis)
    det2 = (p[0] * q[1] - p[1] * q[0]) ** 2
    return (math.isqrt(math.floor(r2 * (q[0] ** 2 + q[1] ** 2) / det2)),
            math.isqrt(math.floor(r2 * (p[0] ** 2 + p[1] ** 2) / det2)))


def exact_short_slopes(shape: CuspShape, threshold: float):
    """Exact oracle of the inclusion decision, apart from the program's
    relative tolerance (``slope_search._entry``): the primitive classes whose
    squared length, in ``Fraction`` arithmetic on the binary64 coordinates,
    is below threshold^2 (``sure``), and those within a relative
    ``AMBIGUOUS_REL`` of it (``ambiguous``).  The scanned coefficient box
    holds every lattice vector of squared length up to
    threshold^2 (1 + AMBIGUOUS_REL).  Lengths more than a relative 1e-6 from
    the threshold are decided in floats.  Returns (sure, ambiguous).
    """
    mx, my = shape.meridian
    lx, ly = shape.longitude
    exact_m, exact_l = (Fraction(mx), Fraction(my)), (Fraction(lx), Fraction(ly))
    t2 = Fraction(threshold) ** 2
    amax, bmax = coefficient_box(shape, MARKING, t2 * (1 + Fraction(AMBIGUOUS_REL)))
    sure: set[Slope] = set()
    ambiguous: set[Slope] = set()
    for b in range(0, bmax + 1):
        for a in (1,) if b == 0 else range(-amax, amax + 1):
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


def includes_exactly(listed: set[Slope], shape: CuspShape, threshold: float) -> bool:
    """Whether ``listed`` holds every slope the exact oracle calls short and
    nothing it calls long: sure <= listed <= sure | ambiguous."""
    sure, ambiguous = exact_short_slopes(shape, threshold)
    return sure <= listed <= sure | ambiguous


def random_shape(rng: random.Random, name: str | None = None) -> CuspShape:
    """Well-conditioned random cusp shape (no near-degenerate bases)."""
    while True:
        m = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        l = (rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        det = m[0] * l[1] - m[1] * l[0]
        if abs(det) > 0.3 and math.hypot(*m) > 0.4 and math.hypot(*l) > 0.4:
            return CuspShape(m, l, name=name)


def rescaled(shape: CuspShape, k: int) -> CuspShape:
    """The shape multiplied by 2^k, which is exact in binary64."""
    (mx, my), (lx, ly) = shape.meridian, shape.longitude
    return CuspShape((math.ldexp(mx, k), math.ldexp(my, k)),
                     (math.ldexp(lx, k), math.ldexp(ly, k)), name=shape.name)


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
