"""Enumeration of all short slopes on a cusp torus.

A slope is short when its geodesic length is at most a threshold (default 6,
the six-theorem cutoff below which a filling can fail to be hyperbolike).
The marked basis is first reduced with the 2-D Lagrange-Gauss algorithm
(Nguyen-Stehle, "Low-dimensional lattice basis reduction revisited", ANTS
2004), unless it is already reduced; ``diagram`` draws its lattice window in
the same basis.  The disc scanned in that basis depends only on the lattice,
so the work does not grow with the skew of the marking.  The reduced basis
only chooses which candidates are checked: every length, and the inclusion
decision, is computed in the marked basis.

Every length is compared with the threshold T relatively, through one
constant, ``LENGTH_RTOL`` (rho = 2^-40 = 4096 eps): ``_entry`` keeps a
slope whose computed length is at most T + T*rho and flags it boundary when
that length is at least T - T*rho, so rounding cannot silently drop an
equality case.  The scan's other tests compare lengths that scale together
(R^2 against j^2 A^2/|u|^2) or ratios of lengths (c, h, delta).
Multiplying by a power of two is exact in binary64, so scaling the shape and
T by 2^k (short of overflow and subnormals) scales every length by exactly
2^k and changes no decision.  The rows are found in units of a power of two
near |u|, so their squares neither overflow nor underflow on a shape far
from unit scale.

Only the disc is scanned, one row at a time (Fincke-Pohst, "Improved methods
for calculating vectors of short length in a lattice", Math. Comp. 1985, in
rank 2).  Row j >= 1 of the reduced lattice, i*u + j*v, meets the disc
|x| <= R for i in [c - h, c + h], where c = j*shift, shift = -(u.v)/|u|^2,
h = sqrt(d)/|u| and d = R^2 - j^2 A^2/|u|^2 (A = det(u, v)), while d >= 0;
row 0 holds the one slope u.  A row's ends are ceil(c - h) and floor(c + h)
of the computed c and h, with no slack of their own: the one widening is that
of the disc, R = T (1 + rho)(1 + 8 delta), where delta bounds the rounding
of u and v.  Each is formed in floats from its integer coordinates (a, b),
off by at most eps (|a||m| + |b||l|) (eps = 2^-52), and delta is
4 eps (|a||m| + |b||l|) over |u| or |v|, the larger, so delta >= 4 eps.  The
scan checks about as many candidates as it keeps, and ``_entry`` decides each
one.  The map (i, j) -> (a, b) to the marked basis is unimodular, so
gcd(i, j) = 1 gives a primitive (a, b), and each candidate is built by the
trusted ``cusp_geometry._slope``, which only puts the sign in canonical form
(j >= 0 does not make b >= 0).

Why that widening is enough (forward error bounds as in Higham, "Accuracy
and Stability of Numerical Algorithms", 2002).  The bounds are to first
order in eps, in exact arithmetic on the computed u and v; R is the root of
the computed R^2, at least T (1 + rho)(1 + 8 delta)(1 - 7/4 eps); and
delta <= 2^-7, that is (|a||m| + |b||l|) <= 2^43 |u| for u and v.  That
follows from ``CuspShape``'s degeneracy test: u = a*m + b*l has
a = det(u, l)/A and b = det(m, u)/A, with A = det(m, l) = |m||l| sin theta
for the angle theta between m and l, so |a||m| + |b||l| <= 2 |u| / sin theta,
and likewise for v; ``DEGENERACY_TOL`` refuses sin theta <= 10^-12, so the
ratio stays below about 2 * 10^12 < 2^43.
- Margin.  For a reduced basis |i||u| + |j||v| <= 2 |P| for P = i*u + j*v,
  so the rounding of u and v moves P by at most delta/2 |P|.  Its
  marked-basis length is off by at most eps (|a||m| + |b||l|) + eps |P|, and
  |a||m| + |b||l| <= |i| (|U_a||m| + |U_b||l|) + |j| (|V_a||m| + |V_b||l|)
  <= delta/(2 eps) |P|.  ``_entry`` keeps a length at most T + T*rho, so a
  kept slope has |P| <= T (1 + rho)(1 + 2 delta) <= R (1 - 5 delta),
  however skewed the marking.  On its row, in exact arithmetic,
  |u|^2 (i - c)^2 = |P|^2 - j^2 A^2/|u|^2 <= d - (10 delta - 25 delta^2) R^2:
  i lies about 5 delta R/|u| >= 20 eps R/|u| inside the half-width h.
- c.  For a reduced basis |shift| <= 1/2 and v rises at least sqrt(3)/2 |v|
  above the line through u, so a row with d >= 0 has j |v| <= 2R/sqrt(3)
  and |c| <= R/(sqrt(3) |u|).  The computed shift is off by at most
  3/2 eps |shift| + eps |v|/|u|, and c by at most
  2 eps |c| + eps j |v|/|u| <= 4/sqrt(3) eps R/|u| < 2.31 eps R/|u|.
- d and h.  The computed A is off by at most eps |u||v| <= 2/sqrt(3) eps A,
  so j^2 A^2/|u|^2 by at most (5/2 + 4/sqrt(3)) eps of it, and d by at most
  (5/2 + 4/sqrt(3)) eps R^2 < 4.81 eps R^2.  |u|^2 h^2 is off from the exact
  d by at most (5 + 4/sqrt(3)) eps R^2 < 7.31 eps R^2, which is about
  3.7 eps R/|u| in h on the middle row; near the top of the disc h moves
  more, so the comparison is made in squares.
So on the row of a kept slope the computed d is at least
(10 delta - 25 delta^2 - 4.81 eps) R^2 > 0, as on every row below it (d
falls as j grows), and the scan reaches the row.  There, for the exact c and
the computed h, |u|^2 (h^2 - (i - c)^2) >= (10 delta - 25 delta^2 - 7.31 eps)
R^2 >= 7.97 delta R^2 and h + |i - c| <= 2R/|u|, so i lies at least
3.98 delta R/|u| inside h about the exact c, and at least
(3.98 delta - 2.31 eps) R/|u| >= 13.6 eps R/|u| inside it about the computed
c.  Rounding is monotone and i is a float (|i| < 2^53), so
ceil(c - h) <= i <= floor(c + h) also for c - h and c + h rounded.

The crossing matrix Delta(s, t) = |ad - bc| is computed a whole row at a
time with full-word lane arithmetic (Lamport, "Multiple byte processing with
full-word instructions", CACM 1975): the a's and the b's are packed into two
Python integers with one w-bit lane per slope, w the smallest of 8, 16, 32
and 64 with 2*max|a|*max|b| < 2^(w-1), so that a_i*T_B - b_i*T_A holds row i
in its lanes without carries.  A biased subtraction and a lane-wise absolute
value turn it into an unsigned array, which is exact and costs a few
big-integer operations per row instead of one Python call per pair.  One
more biased addition per row tests it against the running maximum, so
``max_delta`` is found without turning rows back into integers.
``crossing_data`` is the one kernel, at every set size.  The matrix stays
packed: a ``CrossingMatrix`` holds one unsigned array per row and reads its
rows back as tuples of ints, so a report keeps n^2 lane-sized entries, not
n^2 Python ints.  A saved matrix is not compared here: ``report_io``
recomputes the rows and checks the stored matrix as text, against the
writer's text of them (at least 2n^2 + 2n + 1 characters).  Slopes with
2*max|a|*max|b| >= 2^63 raise ``OverflowError``; they need markings skewed
far past any census marking.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from collections.abc import Sequence

from .cusp_geometry import CuspShape, Slope, Vec2, _positive, _set, _slope, _Value, slope_length

# Slopes strictly longer than this have hyperbolike fillings.
SIX_THEOREM_LENGTH = 6.0

# The one length tolerance, relative to the threshold, a power of two so that
# T*rho is exact; rho = 2^-40 = 4096 eps.  Its three roles (module docstring):
# ``_entry`` keeps a length at most T + T*rho and flags it boundary from
# T - T*rho on, a band 5.5e-12 wide on either side at T = 6; the scanned disc
# has radius T (1 + rho) before its 8 delta widening for rounding, so every
# slope ``_entry`` keeps lies within R (1 - 5 delta) of it, 5 delta >= 20 eps;
# and the already-reduced test of ``_reduced_basis`` allows a relative rho.
LENGTH_RTOL = 2.0 ** -40

# (lane bits, typecode of the unsigned array item of that size), narrowest first.
_LANES = tuple(sorted({array(code).itemsize * 8: code for code in "BHILQ"}.items()))


class SlopeClass(enum.Enum):
    CANDIDATE_EXCEPTIONAL = "candidate_exceptional"
    HYPERBOLIKE_GUARANTEED = "hyperbolike_guaranteed"


class SlopeEntry(_Value):
    __slots__ = _fields = ("slope", "length", "boundary")

    def __init__(self, slope: Slope, length: float, boundary: bool = False) -> None:
        _set(self, "slope", slope)
        _set(self, "length", length)
        _set(self, "boundary", boundary)


def _entry(s: Slope, length: float, threshold: float) -> SlopeEntry | None:
    """The one inclusion and boundary decision, shared by the enumeration,
    classification and the report loader: the entry of slope s of this
    length, flagged boundary when the length is within a relative
    LENGTH_RTOL of the threshold, or None when s is not short (longer than
    threshold * (1 + LENGTH_RTOL), computed as T + T*rho)."""
    if length <= threshold + threshold * LENGTH_RTOL:
        return SlopeEntry(s, length, length >= threshold - threshold * LENGTH_RTOL)
    return None


def _entry_key(e: SlopeEntry) -> tuple[float, tuple[int, int]]:
    """Enumeration order (length, then (a, b)); saved reports strictly increase in it."""
    return (e.length, (e.slope.a, e.slope.b))


class CrossingMatrix(Sequence):
    """Read-only square matrix of crossing numbers, one unsigned ``array``
    per row.

    Rows read back as tuples of ints.  The matrix equals any sequence of int
    rows with the same values, and hashes like the tuple of tuples.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows) -> None:
        self._rows = tuple(rows)

    @property
    def rows(self) -> tuple[array, ...]:
        """The packed rows themselves (not to be modified)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(tuple, self._rows[i]))
        return tuple(self._rows[i])

    def __iter__(self):
        return map(tuple, self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, CrossingMatrix):
            return self._rows == other._rows
        if not isinstance(other, (tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            isinstance(o, (tuple, list)) and row == tuple(o) for row, o in zip(self, other)
        )

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"CrossingMatrix({tuple(self)!r})"

    def __reduce__(self):  # slots without state: protocols 0 and 1 need this
        return CrossingMatrix, (self._rows,)


class ShortSlopeReport(_Value):
    """All primitive slopes of length <= threshold, with pairwise crossing data.

    Entries are sorted by (length, then lexicographic (a, b)); delta_matrix
    follows that order.  max_delta is 0 when fewer than two slopes qualify.
    """

    __slots__ = _fields = ("shape", "threshold", "entries", "delta_matrix", "max_delta")

    def __init__(self, shape: CuspShape, threshold: float, entries: tuple[SlopeEntry, ...],
                 delta_matrix: CrossingMatrix, max_delta: int) -> None:
        _set(self, "shape", shape)
        _set(self, "threshold", threshold)
        _set(self, "entries", entries)
        _set(self, "delta_matrix", delta_matrix)
        _set(self, "max_delta", max_delta)

    @property
    def slopes(self) -> tuple[Slope, ...]:
        return tuple(e.slope for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _reduced_basis(shape: CuspShape) -> tuple[Vec2, Vec2, tuple[int, int], tuple[int, int]]:
    """Reduced basis u, v of the cusp lattice (det(u, v) > 0) and the exact
    integer coordinates U, V of u and v in the marked basis.

    A marking already reduced within a relative ``LENGTH_RTOL``, that is
    with 2|m.l| <= (1 + rho) * min(|m|^2, |l|^2), is kept as it is: then
    U, V = (1, 0), (0, 1) and the shorter of u and v is the shortest lattice
    vector (to a relative rho/2).  Without the slack, rounding puts
    |(1, sqrt 3)|^2 just under 4, so the reduced hexagonal marking
    ((2, 0), (1, sqrt 3)) would be swapped for another basis.  Any other marking is reduced with
    Lagrange-Gauss, which leaves u the shortest vector.  Each vector is
    recomputed from its integer coordinates, so float error does not build up
    over the steps.
    """
    (mx, my), (lx, ly) = shape.meridian, shape.longitude

    def vec(c):
        return (c[0] * mx + c[1] * lx, c[0] * my + c[1] * ly)

    def norm2(w):
        return w[0] * w[0] + w[1] * w[1]

    U, V = (1, 0), (0, 1)
    u, v = shape.meridian, shape.longitude
    if 2.0 * abs(mx * lx + my * ly) <= (1.0 + LENGTH_RTOL) * min(norm2(u), norm2(v)):
        return u, v, U, V
    if norm2(v) < norm2(u):
        U, V, u, v = V, U, v, u
    while True:
        q = round((u[0] * v[0] + u[1] * v[1]) / norm2(u))
        V = (V[0] - q * U[0], V[1] - q * U[1])
        v = vec(V)
        if norm2(v) >= norm2(u):
            break
        U, V, u, v = V, U, v, u
    # The marked basis has det > 0, so det(u, v) has the sign of det(U, V).
    if U[0] * V[1] - U[1] * V[0] < 0:
        U, u = (-U[0], -U[1]), (-u[0], -u[1])
    return u, v, U, V


def enumerate_short_slopes(shape: CuspShape, threshold: float) -> ShortSlopeReport:
    """All primitive slope classes with length <= threshold, within a
    relative LENGTH_RTOL; those within it of the threshold are flagged
    boundary (``_entry``).  A threshold so large, against the shortest
    vector, that the square of the scanned radius overflows is a
    ``ValueError``."""
    threshold = _positive(threshold, "threshold")

    u, v, U, V = _reduced_basis(shape)
    # u and v are formed from U and V in floats, each off by at most eps
    # (|a||m| + |b||l|) for its coordinates (a, b); delta is 4 eps (|a||m| +
    # |b||l|) relative to |u| or |v|, whichever is larger (module docstring).
    norm_m, norm_l = math.hypot(*shape.meridian), math.hypot(*shape.longitude)
    delta = 4.0 * sys.float_info.epsilon * max(
        (abs(U[0]) * norm_m + abs(U[1]) * norm_l) / math.hypot(*u),
        (abs(V[0]) * norm_m + abs(V[1]) * norm_l) / math.hypot(*v),
    )
    # The rows are found with u, v and R times 2^e, which puts |u| in
    # [1/2, 1): exact, so the rows are the same, and no square below under-
    # or overflows however large or small the shape.
    e = -math.frexp(math.hypot(*u))[1]
    (ux, uy), (vx, vy) = ((math.ldexp(x, e), math.ldexp(y, e)) for x, y in (u, v))
    # Row j of the disc of radius R: |i*u + j*v|^2 = |u|^2 (i - j*shift)^2 +
    # (j*rise)^2, with rise the height of v over the line through u.
    uu = ux * ux + uy * uy
    shift = -(ux * vx + uy * vy) / uu
    rise2 = (ux * vy - uy * vx) ** 2 / uu
    try:
        r2 = (math.ldexp(threshold, e) * (1.0 + LENGTH_RTOL) * (1.0 + 8.0 * delta)) ** 2
    except OverflowError:
        raise ValueError(f"threshold {threshold!r} is too large for this cusp: the square of "
                         "the scanned radius overflows") from None
    (ua, ub), (va, vb) = U, V  # the (a, b) coordinates of u and v
    found: list[SlopeEntry] = []
    j, lo, hi = 0, 1, 1  # row 0 holds the one slope u
    while True:
        for i in range(lo, hi + 1):
            # (i, j) -> (a, b) is unimodular, so it preserves gcd = 1.
            if math.gcd(i, j) != 1:
                continue
            s = _slope(i * ua + j * va, i * ub + j * vb)
            entry = _entry(s, slope_length(shape, s), threshold)
            if entry is not None:
                found.append(entry)
        j += 1
        d = r2 - j * j * rise2  # falls as j grows: the rows past the disc are empty
        if d < 0.0:
            break
        # the row's centre c and half-width h; the disc's widening covers
        # their rounding (module docstring)
        c, h = j * shift, math.sqrt(d / uu)
        lo, hi = math.ceil(c - h), math.floor(c + h)

    found.sort(key=_entry_key)
    matrix, max_delta = crossing_data([e.slope for e in found])
    return ShortSlopeReport(shape, threshold, tuple(found), matrix, max_delta)


def crossing_data(slopes) -> tuple[CrossingMatrix, int]:
    """Pairwise intersection matrix of the slopes, in their order, as one
    unsigned ``array`` per row, and its largest entry (0 when fewer than two
    slopes are given).

    Raises ``OverflowError`` when 2*max|a|*max|b| >= 2^63, because an entry
    might then not fit a 64-bit lane.
    """
    a = [s.a for s in slopes]
    b = [s.b for s in slopes]  # canonical slopes have b >= 0
    reach = 2 * max(max(a, default=0), -min(a, default=0)) * max(b, default=0)
    for w, code in _LANES:
        if reach < 1 << (w - 1):
            break
    else:
        raise OverflowError(
            f"crossing numbers need 2*max|a|*max|b| < 2**{w - 1}, got {reach}"
        )
    n = len(a)
    half = 1 << (w - 1)
    fill = (1 << w) - 1
    ones = ((1 << (w * n)) - 1) // fill  # 1 in every lane
    top = half * ones
    # sum(v << w*j) over the lanes j: each v + half fits an unsigned lane.
    t_a = int.from_bytes(array(code, [v + half for v in a]), sys.byteorder) - top
    t_b = int.from_bytes(array(code, [v + half for v in b]), sys.byteorder) - top
    size = n * w // 8
    rows = []
    # Every entry is < 2^(w-1), so adding 2^(w-1) - 1 - best to every lane of
    # a row sets a lane's top bit exactly when its entry exceeds the running
    # maximum best; only such rows are scanned.  The rows are formed from the
    # last slope, which in enumeration order is the longest and holds the
    # largest entries, so few rows are scanned.
    best, bias = 0, (half - 1) * ones
    for ai, bi in zip(reversed(a), reversed(b)):
        # Lane j of a_i*T_B - b_i*T_A is a_i*b_j - b_i*a_j, |.| < 2^(w-1):
        # biasing by half leaves each lane in [0, 2^w), and ^ top makes it
        # the lane's two's complement; then negate the negative lanes.
        u = (ai * t_b - bi * t_a + top) ^ top
        neg = (u >> (w - 1)) & ones
        u = (u ^ neg * fill) + neg
        row = array(code, u.to_bytes(size, sys.byteorder))
        if (u + bias) & top:
            best = max(row)
            bias = (half - 1 - best) * ones
        rows.append(row)
    rows.reverse()
    return CrossingMatrix(rows), best


def classify_slope(
    shape: CuspShape, s: Slope, threshold: float = SIX_THEOREM_LENGTH
) -> SlopeClass:
    """Slopes the enumeration leaves out (longer than threshold * (1 +
    LENGTH_RTOL), by ``_entry``) have hyperbolike fillings; every slope it
    lists is a candidate."""
    if _entry(s, slope_length(shape, s), _positive(threshold, "threshold")) is None:
        return SlopeClass.HYPERBOLIKE_GUARANTEED
    return SlopeClass.CANDIDATE_EXCEPTIONAL
