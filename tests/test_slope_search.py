"""Enumeration tests: fixtures, ordering, oracle equivalence, invariance."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspslopes import slope_search
from cuspslopes.cusp_geometry import (
    DEGENERACY_TOL,
    CuspShape,
    Slope,
    intersection_number,
    slope_length,
)
from cuspslopes.slope_search import (
    LENGTH_RTOL,
    SIX_THEOREM_LENGTH,
    SlopeClass,
    classify_slope,
    crossing_data,
    enumerate_short_slopes,
)

from conftest import (
    AMBIGUOUS_REL,
    MARKING,
    change_basis,
    coefficient_box,
    exact_short_slopes,
    includes_exactly,
    mat_mul,
    random_shape,
    random_unimodular,
    rescaled,
    transform_slope,
)


HEX2_EXPECTED = {
    Slope(1, 0),
    Slope(0, 1),
    Slope(-1, 1),
    Slope(1, 1),
    Slope(-2, 1),
    Slope(-1, 2),
    Slope(2, 1),
    Slope(1, 2),
    Slope(-3, 1),
    Slope(-3, 2),
    Slope(-2, 3),
    Slope(-1, 3),
}


def test_hexagonal_twelve_slopes(hex2_shape):
    report = enumerate_short_slopes(hex2_shape, 6.0)
    assert len(report) == 12
    assert set(report.slopes) == HEX2_EXPECTED
    assert report.max_delta == 8
    assert not any(e.boundary for e in report.entries)


def test_square_threshold_one(square_shape):
    report = enumerate_short_slopes(square_shape, 1.0)
    assert set(report.slopes) == {Slope(1, 0), Slope(0, 1)}
    # both basis curves sit exactly on the threshold circle
    assert all(e.boundary for e in report.entries)


def test_square_below_shortest_vector(square_shape):
    report = enumerate_short_slopes(square_shape, 0.5)
    assert len(report) == 0
    assert report.max_delta == 0


def test_square_threshold_two(square_shape):
    report = enumerate_short_slopes(square_shape, 2.0)
    assert set(report.slopes) == {Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 1)}


def test_single_entry_max_delta(square_shape):
    scaled = CuspShape((1.0, 0.0), (0.0, 3.0))
    report = enumerate_short_slopes(scaled, 1.5)
    assert report.slopes == (Slope(1, 0),)
    assert report.max_delta == 0


def test_entries_sorted_by_length_then_lex(hex2_shape):
    report = enumerate_short_slopes(hex2_shape, 6.0)
    keys = [(e.length, (e.slope.a, e.slope.b)) for e in report.entries]
    assert keys == sorted(keys)


def test_delta_matrix_shape_and_symmetry(hex2_shape):
    report = enumerate_short_slopes(hex2_shape, 6.0)
    n = len(report)
    assert len(report.delta_matrix) == n
    for i in range(n):
        assert report.delta_matrix[i][i] == 0
        for j in range(n):
            assert report.delta_matrix[i][j] == report.delta_matrix[j][i]
    assert report.max_delta == max(
        report.delta_matrix[i][j] for i in range(n) for j in range(i + 1, n)
    )


def _lane_bits(amax: int, bmax: int) -> int:
    """The narrowest of 8, 16, 32 and 64 bits w with 2*amax*bmax < 2^(w-1)."""
    return next(w for w in (8, 16, 32, 64) if 2 * amax * bmax < 2 ** (w - 1))


def _lane_set(rng: random.Random, amax: int, bmax: int, extremes) -> list[Slope]:
    """The extreme slopes plus up to 40 seeded primitive slopes with
    |a| <= amax and 0 <= b <= bmax, in random order."""
    slopes = {Slope(a, b) for a, b in extremes}
    for _ in range(40):
        a, b = rng.randint(-amax, amax), rng.randint(0, bmax)
        if math.gcd(a, b) == 1:
            slopes.add(Slope(a, b))
    slopes = sorted(slopes)
    rng.shuffle(slopes)
    return slopes


# 2 * max|a| * max|b| just below 2^(w-1) keeps w-bit lanes (the extreme pair
# (A, B), (-A, B) crosses exactly 2AB times); reaching it needs wider lanes.
@pytest.mark.parametrize("k, bits", [(3, 8), (7, 16), (15, 32), (31, 64)])
@pytest.mark.parametrize("seed", range(5))
def test_crossing_rows_match_pairwise_just_below_lane_bound(k, bits, seed):
    amax, bmax = 2**k - 1, 2**k + 1  # 2 * amax * bmax = 2^(2k+1) - 2
    slopes = _lane_set(random.Random(seed), amax, bmax, [(amax, bmax), (-amax, bmax)])
    matrix, max_delta = crossing_data(slopes)
    assert {row.itemsize * 8 for row in matrix.rows} == {bits}
    assert matrix == tuple(tuple(intersection_number(s, t) for t in slopes) for s in slopes)
    assert max_delta == 2 * amax * bmax


@pytest.mark.parametrize("k, bits", [(3, 16), (7, 32), (15, 64)])
@pytest.mark.parametrize("seed", range(5))
def test_crossing_rows_match_pairwise_at_lane_bound(k, bits, seed):
    top = 2**k  # 2 * max|a| * max|b| = 2^(2k+1)
    slopes = _lane_set(random.Random(seed), top, top, [(top, 1), (-top, 1), (1, top), (-1, top)])
    matrix, max_delta = crossing_data(slopes)
    assert {row.itemsize * 8 for row in matrix.rows} == {bits}
    assert matrix == tuple(tuple(intersection_number(s, t) for t in slopes) for s in slopes)
    assert max_delta == max(intersection_number(s, t) for s in slopes for t in slopes)


@pytest.mark.parametrize("filler", [0, 20])  # a small and a large set
def test_crossing_overflow_names_the_bound(filler):
    top = 2**31  # 2 * max|a| * max|b| = 2^63
    slopes = [Slope(top, 1), Slope(1, top)] + [Slope(k, 1) for k in range(filler)]
    message = r"2\*max\|a\|\*max\|b\| < 2\*\*63, got 9223372036854775808"
    with pytest.raises(OverflowError, match=message):
        crossing_data(slopes)


def test_crossing_paths_agree_across_sizes():
    # every set size from 0 to 25, against the pairwise oracle
    rng = random.Random(7)
    pool = [Slope(a, b) for a in range(-50, 51) for b in range(1, 51) if math.gcd(a, b) == 1]
    for n in range(0, 26):
        slopes = rng.sample(pool, n)
        oracle = tuple(tuple(intersection_number(s, t) for t in slopes) for s in slopes)
        matrix, max_delta = crossing_data(slopes)
        assert matrix == oracle
        assert max_delta == max((max(row) for row in oracle), default=0)
        # every row in the narrowest lane w with 2*max|a|*max|b| < 2^(w-1)
        amax = max((abs(s.a) for s in slopes), default=0)
        bmax = max((s.b for s in slopes), default=0)
        assert {row.itemsize * 8 for row in matrix.rows} <= {_lane_bits(amax, bmax)}


def test_crossing_data_empty_and_single():
    assert crossing_data([]) == ((), 0)
    assert crossing_data([Slope(-3, 7)]) == (((0,),), 0)


def test_crossing_data_max_of_one():
    # the running maximum starts at 0, so a largest entry of 1 must raise it
    for slopes in ([Slope(1, 0), Slope(0, 1)], [Slope(1, 1), Slope(0, 1), Slope(1, 0)]):
        matrix, max_delta = crossing_data(slopes)
        assert max_delta == 1 == max(map(max, matrix))


def test_crossing_matrix_reads_as_tuple_rows():
    slopes = [Slope(1, 0), Slope(0, 1), Slope(1, 1), Slope(-1, 2)]
    oracle = tuple(tuple(intersection_number(s, t) for t in slopes) for s in slopes)
    matrix, _ = crossing_data(slopes)
    assert matrix == oracle and oracle == matrix
    assert matrix == [list(row) for row in oracle]
    assert hash(matrix) == hash(oracle)
    assert len(matrix) == 4 and matrix[3] == oracle[3] and matrix[-1][0] == oracle[-1][0]
    assert matrix[1:3] == oracle[1:3]
    assert list(matrix) == list(oracle) and list(matrix[2]) == [1, 1, 0, 3]
    assert matrix != oracle[:-1] and matrix != oracle[:-1] + ((1, 2, 3, 0),)
    assert matrix != (1, 2, 3, 4) and matrix != "abcd" and matrix != 0
    assert matrix == crossing_data(slopes)[0]
    assert repr(matrix) == f"CrossingMatrix({oracle!r})"


@pytest.mark.parametrize("reach", [7, 10, 2**6, 2**14, 2**30])
def test_packed_max_in_any_row_order(reach):
    # the running-max scan must not depend on rows coming in length order,
    # at census sizes and past them, in each of the four lane widths
    rng = random.Random(reach)
    widths = set()
    for n in (1, 2, 3, 5, 11, 12, 13, 30, 61):
        slopes = []
        while len(slopes) < n:
            a, b = rng.randint(-reach, reach), rng.randint(0, reach)
            if math.gcd(a, b) == 1:
                slopes.append(Slope(a, b))
        matrix, max_delta = crossing_data(slopes)
        assert max_delta == max(intersection_number(s, t) for s in slopes for t in slopes)
        assert max_delta == max(map(max, matrix))
        widths |= {row.itemsize * 8 for row in matrix.rows}
    assert _lane_bits(reach, reach) in widths  # 8, 16, 16, 32 and 64 bits


def test_packed_max_one_above_the_last_row():
    # the scan starts at (0, 1), whose largest entry is k; the maximum, k + 1,
    # is one more and lies only in the rows of (-1, 1) and (k, 1)
    for k in (2, 11):
        slopes = [Slope(-1, 1)] + [Slope(j, 1) for j in range(1, k + 1)] + [Slope(0, 1)]
        matrix, max_delta = crossing_data(slopes)
        assert max(matrix[-1]) == k and max_delta == k + 1


def test_lengths_match_geometry(hex2_shape):
    report = enumerate_short_slopes(hex2_shape, 6.0)
    for e in report.entries:
        assert e.length == pytest.approx(slope_length(hex2_shape, e.slope), rel=1e-15)


def test_boundary_flag_at_exact_threshold():
    # the length-6 slope of the sharp example must be kept and flagged
    shape = CuspShape((6.0, 0.0), (0.0, 6.0))
    report = enumerate_short_slopes(shape, 6.0)
    assert set(report.slopes) == {Slope(1, 0), Slope(0, 1)}
    assert all(e.boundary for e in report.entries)


def test_boundary_flag_follows_inclusion():
    # 6.000000000001 is past T = 6 but inside T + T*rho, so the slope is
    # included; every included slope that long must be flagged
    shape = CuspShape((6.000000000001, 0.0), (0.0, 100.0))
    report = enumerate_short_slopes(shape, 6.0)
    assert report.slopes == (Slope(1, 0),)
    assert report.entries[0].boundary
    # the edges of the band, T +- T*rho (exact in binary64), are in it; the
    # floats just outside it are not
    high, low = 6.0 + 6.0 * slope_search.LENGTH_RTOL, 6.0 - 6.0 * slope_search.LENGTH_RTOL
    for length, entries in ((high, [True]), (math.nextafter(high, 7.0), []),
                            (low, [True]), (math.nextafter(low, 0.0), [False])):
        report = enumerate_short_slopes(CuspShape((length, 0.0), (0.0, 100.0)), 6.0)
        assert [e.boundary for e in report.entries] == entries, length


def test_threshold_validation(square_shape):
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            enumerate_short_slopes(square_shape, bad)


def test_oracle_equivalence_fixed_box():
    # a seeded corpus, and the unit square just below T = 1, where (1, 0) and
    # (0, 1) lie past T (1 + rho) but within the oracle's ambiguity band
    rng = random.Random(101)
    cases = [(CuspShape((1.0, 0.0), (0.0, 1.0)), 1.0 - 9.5e-13)]
    cases += [(random_shape(rng), rng.uniform(0.5, 10.0)) for _ in range(12)]
    for shape, threshold in cases:
        report = enumerate_short_slopes(shape, threshold)
        assert includes_exactly(set(report.slopes), shape, threshold)


def test_monotonicity_in_threshold():
    rng = random.Random(103)
    for _ in range(25):
        shape = random_shape(rng)
        l1 = rng.uniform(0.5, 4.0)
        l2 = l1 + rng.uniform(0.0, 3.0)
        small = set(enumerate_short_slopes(shape, l1).slopes)
        large = set(enumerate_short_slopes(shape, l2).slopes)
        assert small <= large


def test_basis_invariance_length_multiset():
    rng = random.Random(107)
    for _ in range(20):
        shape = random_shape(rng)
        threshold = rng.uniform(1.0, 5.0)
        m = random_unimodular(rng)
        base = enumerate_short_slopes(shape, threshold)
        remarked = enumerate_short_slopes(change_basis(shape, m), threshold)
        assert sorted(round(e.length, 9) for e in base.entries) == sorted(
            round(e.length, 9) for e in remarked.entries
        )
        # and the slope sets correspond under the coordinate change
        assert {transform_slope(s, m) for s in base.slopes} == set(remarked.slopes)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 6.0), st.integers(0, 2**32 - 1))
def test_oracle_equivalence_hypothesis(threshold, seed):
    shape = random_shape(random.Random(seed))
    report = enumerate_short_slopes(shape, threshold)
    assert includes_exactly(set(report.slopes), shape, threshold)


def test_classify_examples(hex2_shape):
    assert classify_slope(hex2_shape, Slope(1, 0)) is SlopeClass.CANDIDATE_EXCEPTIONAL
    assert classify_slope(hex2_shape, Slope(2, 1)) is SlopeClass.CANDIDATE_EXCEPTIONAL
    scaled = CuspShape((7.0, 0.0), (0.0, 7.0))
    assert classify_slope(scaled, Slope(1, 0)) is SlopeClass.HYPERBOLIKE_GUARANTEED


def test_classify_threshold_is_strict():
    shape = CuspShape((6.0, 0.0), (0.0, 6.0))
    # length exactly 6 is not ">" 6: still a candidate
    assert classify_slope(shape, Slope(1, 0)) is SlopeClass.CANDIDATE_EXCEPTIONAL
    assert classify_slope(shape, Slope(1, 0), threshold=5.9) is SlopeClass.HYPERBOLIKE_GUARANTEED


def test_classify_agrees_with_enumeration():
    # (1, 0) is 6.000000000001 long: just past T = 6, inside the boundary band
    shape = CuspShape((6.000000000001, 0.0), (0.0, 100.0))
    assert enumerate_short_slopes(shape, 6.0).slopes == (Slope(1, 0),)
    assert classify_slope(shape, Slope(1, 0)) is SlopeClass.CANDIDATE_EXCEPTIONAL
    rng = random.Random(37)
    for _ in range(40):
        shape = random_shape(rng)
        threshold = rng.uniform(0.5, 5.0)
        listed = set(enumerate_short_slopes(shape, threshold).slopes)
        assert includes_exactly(listed, shape, threshold)
        for s in listed | exact_short_slopes(shape, threshold + 1.0)[0]:
            expected = (
                SlopeClass.CANDIDATE_EXCEPTIONAL
                if s in listed
                else SlopeClass.HYPERBOLIKE_GUARANTEED
            )
            assert classify_slope(shape, s, threshold) is expected


def test_default_threshold_constant():
    assert SIX_THEOREM_LENGTH == 6.0


# ---------------------------------------------------------------- skewed markings


def box_scan(shape: CuspShape, threshold: float, basis=MARKING,
             reach: float = 1.0 + AMBIGUOUS_REL) -> list[tuple[Slope, float, bool]]:
    """The enumeration without its disc: the library's inclusion and boundary
    rule (``_entry``) and its order over the whole coefficient box, in the
    integer basis ``basis``, of the disc of radius reach * threshold.  The
    default reach, a relative AMBIGUOUS_REL past the threshold, covers the
    length error of the markings skewed by |k| <= 3000 below; the sheared
    markings are scanned in their reduced basis, twice as wide."""
    (pa, pb), (qa, qb) = basis
    imax, jmax = coefficient_box(shape, basis, (Fraction(threshold) * Fraction(reach)) ** 2)
    found = []
    for j in range(0, jmax + 1):
        for i in (1,) if j == 0 else range(-imax, imax + 1):
            if math.gcd(i, j) != 1:
                continue
            s = Slope(i * pa + j * qa, i * pb + j * qb)
            entry = slope_search._entry(s, slope_length(shape, s), threshold)
            if entry is not None:
                found.append((s, entry.length, entry.boundary))
    found.sort(key=lambda e: (e[1], (e[0].a, e[0].b)))
    return found


def skewed(shape: CuspShape, k: int) -> tuple[CuspShape, tuple[tuple[int, int], tuple[int, int]]]:
    """The same torus marked by meridian and longitude + k * meridian."""
    m = ((1, 0), (k, 1))
    return change_basis(shape, m), m


def reduced_shape(rng: random.Random) -> CuspShape:
    """A turned torus of area in [1, 4] in a reduced marking: the shape
    x + iy lies in the fundamental domain (|x| <= 1/2, |x + iy| >= 1, y <= 2)."""
    x = rng.uniform(-0.5, 0.5)
    y = rng.uniform(math.sqrt(1.0 - x * x), 2.0)
    r = math.sqrt(rng.uniform(1.0, 4.0) / y)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return CuspShape((r * c, r * s), (r * (x * c - y * s), r * (x * s + y * c)))


def test_skewed_markings_match_marked_box_scan():
    rng = random.Random(4001)
    for k in (1, 10, 100, 1000, 3000):
        for sign in (1, -1):
            for _ in range(4):
                shape = skewed(reduced_shape(rng), sign * k)[0]
                if rng.random() < 0.5:
                    shape = CuspShape(shape.longitude, shape.meridian)
                threshold = rng.uniform(0.5, 4.0)
                report = enumerate_short_slopes(shape, threshold)
                got = [(e.slope, e.length, e.boundary) for e in report.entries]
                assert got == box_scan(shape, threshold)


@pytest.mark.parametrize("k", [10**3, 5 * 10**4, 10**5])
def test_large_skew_gives_hex2_slopes(hex2_shape, k):
    base = enumerate_short_slopes(hex2_shape, 6.0)
    shape, m = skewed(hex2_shape, k)
    report = enumerate_short_slopes(shape, 6.0)
    assert [e.length for e in report.entries] == pytest.approx(
        [e.length for e in base.entries], rel=1e-9
    )
    assert set(report.slopes) == {transform_slope(s, m) for s in HEX2_EXPECTED}


def test_enumeration_cost_flat_in_skew(hex2_shape, monkeypatch):
    calls = []
    real_slope_length = slope_search.slope_length

    def counting_slope_length(*args):
        calls.append(args)
        return real_slope_length(*args)

    monkeypatch.setattr(slope_search, "slope_length", counting_slope_length)
    counts = []
    # no skew, a shear by 10^5, and shears of both vectors (several steps)
    for m in (((1, 0), (0, 1)), ((1, 0), (10**5, 1)), ((10**6 + 1, 10**3), (10**3, 1))):
        calls.clear()
        assert len(enumerate_short_slopes(change_basis(hex2_shape, m), 6.0)) == 12
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


# ------------------------------------------------------------ row intervals


def _counted_scan(monkeypatch, shape: CuspShape, threshold: float):
    """The report and the number of candidates measured of one enumeration,
    and the number of rows j = 0 .. jmax of the coefficient box of the disc
    of radius threshold in its reduced basis."""
    candidates = []
    real_length = slope_search.slope_length
    monkeypatch.setattr(slope_search, "slope_length",
                        lambda *args: candidates.append(args) or real_length(*args))
    report = enumerate_short_slopes(shape, threshold)
    monkeypatch.undo()
    jmax = coefficient_box(shape, slope_search._reduced_basis(shape)[2:], Fraction(threshold) ** 2)[1]
    return report, len(candidates), jmax + 1


def test_enumeration_builds_no_shape(hex2_shape, monkeypatch):
    # the disc alone bounds the rows: no throwaway shape of the reduced basis
    calls = []
    real_init = CuspShape.__init__
    monkeypatch.setattr(CuspShape, "__init__",
                        lambda *args, **kw: calls.append("shape") or real_init(*args, **kw))
    for shape, threshold in ((hex2_shape, 6.0), (skewed(hex2_shape, 10**5)[0], 20.0)):
        calls.clear()
        assert len(enumerate_short_slopes(shape, threshold)) > 0
        assert calls == []


@pytest.mark.parametrize("threshold", [6.0, 20.0, 60.0])
def test_row_intervals_measure_few_more_than_they_keep(hex2_shape, monkeypatch, threshold):
    report, candidates, rows = _counted_scan(monkeypatch, hex2_shape, threshold)
    assert len(report) <= candidates <= len(report) + 2 * rows


def test_row_intervals_on_skewed_markings(monkeypatch):
    rng = random.Random(1616)
    for k in (1, 7, 10**3, 5 * 10**4, 10**5):
        for sign in (1, -1):
            shape = skewed(reduced_shape(rng), sign * k)[0]
            threshold = rng.uniform(0.5, 12.0)
            report, candidates, rows = _counted_scan(monkeypatch, shape, threshold)
            assert len(report) <= candidates <= len(report) + 2 * rows, (k, sign)


def _edge_thresholds(length: float) -> list[float]:
    """Thresholds at, and one ulp either side of, length, length (1 + rho)
    and length (1 - rho), in that order."""
    return [t for x in (length, length * (1.0 + LENGTH_RTOL), length * (1.0 - LENGTH_RTOL))
            for t in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]


def _edge_cases():
    """The scan's edge cases, as (k, sign, scale, n), shape, slope, its
    length L and the n-th threshold of ``_edge_thresholds(L)``: a slope
    among the longest at threshold 4 of a reduced shape, on markings skewed
    by sign * k for k up to 10^6, and on shapes scaled by 2^scale for scale
    0, 300 and -300."""
    rng = random.Random(1617)
    for k in (0, 1, 10, 1000, 3000, 10**5, 10**6):
        for sign in (1, -1):
            shape = skewed(reduced_shape(rng), sign * k)[0]
            entries = enumerate_short_slopes(shape, 4.0).entries
            scale = rng.choice((0, 300, -300))
            shape = rescaled(shape, scale)
            for e in rng.sample(entries[-6:], min(2, len(entries))):
                length = math.ldexp(e.length, scale)
                for n, threshold in enumerate(_edge_thresholds(length)):
                    yield (k, sign, scale, n), shape, e.slope, length, threshold


def test_thresholds_at_a_slope_length_match_marked_box_scan():
    # A threshold at a slope's computed length L puts the slope on the edge
    # of the scanned disc but for its widening; at L (1 - rho) and
    # L (1 + rho), one ulp either side, it is on the edge of _entry's
    # inclusion and of its boundary flag.  The row intervals must still reach
    # it, on markings skewed by up to 10^6 (scanned in their reduced basis
    # past |k| = 3000) and on shapes scaled by 2^300 and 2^-300.
    for where, shape, slope, length, threshold in _edge_cases():
        basis, reach = ((MARKING, 1.0 + AMBIGUOUS_REL) if where[0] <= 3000
                        else (slope_search._reduced_basis(shape)[2:], 2.0))
        report = enumerate_short_slopes(shape, threshold)
        got = [(x.slope, x.length, x.boundary) for x in report.entries]
        assert got == box_scan(shape, threshold, basis, reach), where
        if where[3] < 3:
            assert (slope, length, True) in got


def sheared(rng: random.Random, shape: CuspShape) -> CuspShape:
    """The same torus marked by a word of four shears with entries up to 50,
    which skews both vectors (coordinates up to about 10^7)."""
    m = ((1, 0), (0, 1))
    for _ in range(4):
        t = rng.randint(-50, 50)
        m = mat_mul(m, ((1, t), (0, 1)) if rng.random() < 0.5 else ((1, 0), (t, 1)))
    return change_basis(shape, m)


def test_heavily_skewed_markings_match_a_wide_reduced_scan():
    # Both marked vectors are skewed, so u and v, formed in floats from their
    # integer coordinates, carry relative errors up to about 10^-7: the disc
    # must be widened by that error (8 delta), not only by rho.
    rng = random.Random(1619)
    for _ in range(400):
        shape = sheared(rng, reduced_shape(rng))
        entries = enumerate_short_slopes(shape, 4.0).entries
        threshold = rng.uniform(0.5, 4.0)
        if entries and rng.random() < 0.7:
            threshold = rng.choice(entries).length  # a slope on the boundary
        report = enumerate_short_slopes(shape, threshold)
        got = [(e.slope, e.length, e.boundary) for e in report.entries]
        assert got == box_scan(shape, threshold, slope_search._reduced_basis(shape)[2:], 2.0)


def _deltas(shape: CuspShape) -> tuple[float, float]:
    """4 eps (|a||m| + |b||l|) / |w| for the reduced vectors w = u and v of
    integer coordinates (a, b): their delta is the larger (module docstring)."""
    u, v, U, V = slope_search._reduced_basis(shape)
    norm_m, norm_l = math.hypot(*shape.meridian), math.hypot(*shape.longitude)
    return tuple(4.0 * sys.float_info.epsilon * (abs(a) * norm_m + abs(b) * norm_l) / math.hypot(*w)
                 for w, (a, b) in ((u, U), (v, V)))


def _exact_length(shape: CuspShape, s: Slope) -> float:
    """The slope's length in Fraction arithmetic on the binary64 coordinates,
    rounded once at the end."""
    (mx, my), (lx, ly) = ((Fraction(x), Fraction(y)) for x, y in (shape.meridian, shape.longitude))
    return math.sqrt((s.a * mx + s.b * lx) ** 2 + (s.a * my + s.b * ly) ** 2)


def test_widening_reaches_a_slope_four_delta_inside_the_disc(hex2_shape, monkeypatch):
    # A slope of exact length T (1 + rho)(1 + 4 delta) is past _entry's band,
    # however skewed the marking (its computed length is off by at most about
    # delta/2 of it), and 4 delta inside the disc R = T (1 + rho)(1 + 8 delta):
    # the scan must reach it and leave it out.  A widening of 1 delta, or a
    # delta from eps or eps/4 in place of 4 eps, puts it outside the disc.
    visited = []
    real_entry = slope_search._entry
    monkeypatch.setattr(slope_search, "_entry",
                        lambda s, *args: visited.append(s) or real_entry(s, *args))
    for k in (0, 10**3, -10**3, 10**6, -10**6):
        for scale in (0, 300, -300):
            shape = rescaled(skewed(hex2_shape, k)[0], scale)
            delta = max(_deltas(shape))
            u_slope = Slope(*slope_search._reduced_basis(shape)[2])
            slopes = [s for s in enumerate_short_slopes(shape, math.ldexp(6.0, scale)).slopes
                      if s != u_slope]  # row 0, u alone, is scanned whatever the disc
            assert len(slopes) == 11
            for s in slopes:
                threshold = _exact_length(shape, s) / ((1.0 + LENGTH_RTOL) * (1.0 + 4.0 * delta))
                visited.clear()
                report = enumerate_short_slopes(shape, threshold)
                assert s in visited, (k, scale, s)
                assert s not in report.slopes, (k, scale, s)


def test_rounding_delta_bounded_by_the_degeneracy_test():
    # For w = a m + b l, a = det(w, l)/A and b = det(m, w)/A with A = det(m, l)
    # = |m||l| sin theta, so (|a||m| + |b||l|) / |w| <= 2 / sin theta, and
    # CuspShape refuses sin theta <= DEGENERACY_TOL: delta stays below 2^-7.
    rng = random.Random(7129)
    for _ in range(2000):
        sin_theta = DEGENERACY_TOL * 10.0 ** rng.uniform(0.01, 3.0)
        theta = math.asin(sin_theta) if rng.random() < 0.5 else math.pi - math.asin(sin_theta)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r_m, r_l = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        shape = CuspShape((r_m * math.cos(phi), r_m * math.sin(phi)),
                          (r_l * math.cos(phi + theta), r_l * math.sin(phi + theta)))
        (mx, my), (lx, ly) = shape.meridian, shape.longitude
        det = Fraction(mx) * Fraction(ly) - Fraction(my) * Fraction(lx)
        sin_exact = float(det) / (math.hypot(mx, my) * math.hypot(lx, ly))
        for delta in _deltas(shape):
            ratio = delta / (4.0 * sys.float_info.epsilon)
            # 2 / sin theta, up to the rounding of w itself (a relative delta/4)
            assert ratio * sin_exact <= 2.0 * (1.0 + delta)
            assert delta <= 2.0 ** -7


def test_scan_rounding_within_the_docstring_bounds():
    # The module docstring's bounds, checked on the scan's edge cases in
    # exact arithmetic on the computed u and v (in the scan's 2^e units):
    # each kept slope's |P| is at most R (1 - 5 delta), and on every scanned
    # row the computed c is within 2.31 eps R/|u| of the exact c, the
    # computed d within 4.81 eps R^2 of the exact d, and |u|^2 h^2 of the
    # computed h within 7.31 eps R^2 of the exact d.
    eps = Fraction(sys.float_info.epsilon)
    for where, shape, _slope, _length, threshold in _edge_cases():
        # the scan's own arithmetic (enumerate_short_slopes)
        u, v, U, V = slope_search._reduced_basis(shape)
        assert U[0] * V[1] - U[1] * V[0] == 1
        delta = max(_deltas(shape))
        e = -math.frexp(math.hypot(*u))[1]
        (ux, uy), (vx, vy) = ((math.ldexp(x, e), math.ldexp(y, e)) for x, y in (u, v))
        uu = ux * ux + uy * uy
        shift = -(ux * vx + uy * vy) / uu
        rise2 = (ux * vy - uy * vx) ** 2 / uu
        r2 = (math.ldexp(threshold, e) * (1.0 + LENGTH_RTOL) * (1.0 + 8.0 * delta)) ** 2
        # the same quantities, exact
        (UX, UY), (VX, VY) = ((Fraction(x), Fraction(y)) for x, y in ((ux, uy), (vx, vy)))
        UU, R2 = UX * UX + UY * UY, Fraction(r2)
        SHIFT = -(UX * VX + UY * VY) / UU
        RISE2 = (UX * VY - UY * VX) ** 2 / UU
        for s in enumerate_short_slopes(shape, threshold).slopes:
            # (a, b) = i U + j V with det(U, V) = 1
            i, j = s.a * V[1] - s.b * V[0], U[0] * s.b - U[1] * s.a
            P2 = (i * UX + j * VX) ** 2 + (i * UY + j * VY) ** 2
            assert P2 <= R2 * (1 - 5 * Fraction(delta)) ** 2, (where, s)
        j = 1
        while (d := r2 - j * j * rise2) >= 0.0:
            c, h = j * shift, math.sqrt(d / uu)
            exact_d = R2 - j * j * RISE2
            assert (Fraction(c) - j * SHIFT) ** 2 * UU <= (Fraction("2.31") * eps) ** 2 * R2, where
            assert abs(Fraction(d) - exact_d) <= Fraction("4.81") * eps * R2, where
            assert abs(UU * Fraction(h) ** 2 - exact_d) <= Fraction("7.31") * eps * R2, where
            j += 1


# ------------------------------------------------------------ scale invariance


def _scale_cases(hex2_shape: CuspShape) -> list[tuple[str, CuspShape, float]]:
    """hex2, the sharp 6 x 6 square at T = 6 and just above it, and 24 seeded
    shapes skewed by |k| <= 1000, half of them at a slope's own length."""
    square = CuspShape((6.0, 0.0), (0.0, 6.0))
    cases = [("hex2", hex2_shape, 6.0), ("square", square, 6.0),
             ("square_above", square, 6.0 * (1.0 + 1e-6))]
    rng = random.Random(2424)
    for n in range(24):
        k = rng.randint(-1000, 1000)
        shape = skewed(reduced_shape(rng), k)[0]
        threshold = rng.uniform(2.5, 6.0)
        if n % 2:
            threshold = rng.choice(enumerate_short_slopes(shape, 6.0).entries).length
        cases.append((f"skewed{n}, k={k}", shape, threshold))
    return cases


def test_scaling_by_a_power_of_two_changes_no_decision(hex2_shape):
    # 2^k * x is exact in binary64 and every length test is relative to the
    # threshold, so scaling the shape and T by 2^k changes no inclusion and
    # no flag, and scales every length exactly; at 2^-500 and 2^500 the
    # squares of the scan would underflow or overflow in the units of the
    # shape
    for name, shape, threshold in _scale_cases(hex2_shape):
        base = enumerate_short_slopes(shape, threshold).entries
        assert base, name
        decided = [(e.slope.a, e.slope.b, e.boundary) for e in base]
        for k in [*range(-60, 61), -500, 500]:
            entries = enumerate_short_slopes(rescaled(shape, k), math.ldexp(threshold, k)).entries
            assert [(e.slope.a, e.slope.b, e.boundary) for e in entries] == decided, (name, k)
            assert [e.length for e in entries] == [math.ldexp(e.length, k) for e in base], (name, k)
