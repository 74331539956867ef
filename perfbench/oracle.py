"""Correctness oracles, computed apart from the program under test.

Nothing here imports `cuspslopes`.  Slopes are found by a brute-force scan
of a coefficient box in the unskewed (reduced) basis and mapped back to the
marked basis through the exact unimodular matrix [[1, -k], [0, 1]];
crossing maxima come from an exact integer convex hull; floors and primes
use exact rational and integer arithmetic.  Every check raises `CheckError`
with a reason on the first disagreement.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

# A candidate whose squared length is this close (relative) to T^2 is too
# close to call from binary64 inputs; either decision is accepted for it.
AMBIGUOUS_REL = 1e-10
LENGTH_REL_TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def short_slopes(shape, threshold: float, with_ambiguous: bool = False):
    """[(a, b, length)] of primitive slopes of length <= threshold, sorted.

    The scan runs in the basis (m, l0) with l0 = longitude - k * meridian,
    computed exactly; a vector a'*m + b'*l0 of length <= T has
    |b'| <= T*|m|/area and |a'| <= T*|l0|/area (distance to the opposite
    basis line), and the box is widened by one on each side.
    """
    mx, my = (Fraction(c) for c in shape.meridian)
    lx, ly = (Fraction(c) for c in shape.longitude)
    k = shape.k
    l0x, l0y = lx - k * mx, ly - k * my
    area = abs(mx * l0y - my * l0x)
    fm = (float(mx), float(my))
    fl = (float(l0x), float(l0y))
    t2 = Fraction(threshold) ** 2
    bmax = math.ceil(threshold * math.hypot(*fm) / float(area)) + 1
    amax = math.ceil(threshold * math.hypot(*fl) / float(area)) + 1
    found, ambiguous = [], []
    for b in range(0, bmax + 1):
        for a in range(-amax, amax + 1):
            if (b == 0 and a <= 0) or math.gcd(a, b) != 1:
                continue
            vx = a * fm[0] + b * fl[0]
            vy = a * fm[1] + b * fl[1]
            length = math.hypot(vx, vy)
            slope = (a - k * b, b)
            if abs(length - threshold) > 1e-6 * threshold:
                if length < threshold:
                    found.append((*slope, length))
                continue
            exact = (a * mx + b * l0x) ** 2 + (a * my + b * l0y) ** 2
            if abs(exact - t2) <= AMBIGUOUS_REL * t2:
                ambiguous.append((*slope, length))
            elif exact < t2:
                found.append((*slope, length))
    found.sort(key=lambda e: (e[2], e[0], e[1]))
    return (found, ambiguous) if with_ambiguous else found


def _cross(o, p, q) -> int:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def max_crossing(slopes) -> int:
    """max |ad - bc| over pairs, exact.  |det(u, .)| is convex, so the maximum
    over the symmetric set {+-(a, b)} is reached at two vertices of its convex
    hull (monotone chain); small sets are checked pairwise."""
    pts = [(a, b) for a, b in slopes]
    if len(pts) <= 32:
        return max_crossing_pairwise(pts)
    sym = sorted(set(pts + [(-a, -b) for a, b in pts]))
    lower, upper = [], []
    for p in sym:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(sym):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return max_crossing_pairwise(lower[:-1] + upper[:-1])


def max_crossing_pairwise(pts) -> int:
    best = 0
    for i, (a, b) in enumerate(pts):
        for c, d in pts[i + 1:]:
            best = max(best, abs(a * d - b * c))
    return best


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def next_prime(r: int) -> int:
    n = r + 1
    while not is_prime(n):
        n += 1
    return n


def injective_mod(slopes, p: int) -> bool:
    """Whether (a, b) -> [a : b] in P^1(F_p) is injective on the slopes."""
    points = set()
    for a, b in slopes:
        if a % p:
            points.add((1, b * pow(a, -1, p) % p))
        else:
            points.add((0, 1))
    return len(points) == len(slopes)


def floor_ratio(threshold: float, area_floor: float) -> tuple[int, bool]:
    """floor(T^2 / A) on the binary64 inputs, exactly; the flag is True when
    the ratio is within 1e-8 of an integer, where a guarded floor may snap."""
    ratio = Fraction(threshold) ** 2 / Fraction(area_floor)
    nearest = round(ratio)
    return math.floor(ratio), abs(ratio - nearest) <= Fraction(1, 10**8) * max(1, ratio)


@dataclass(frozen=True)
class Expected:
    """What a correct analysis of one shape at one threshold contains."""

    threshold: float
    area_floor: float
    slopes: dict                 # (a, b) -> length
    ambiguous: frozenset         # (a, b) that may go either way
    delta_ceiling: int           # floor(T^2 / area_floor)
    ceiling_ambiguous: bool

    @classmethod
    def build(cls, shape, threshold: float, area_floor: float) -> "Expected":
        found, amb = short_slopes(shape, threshold, with_ambiguous=True)
        ceiling, guard = floor_ratio(threshold, area_floor)
        return cls(threshold, area_floor, {(a, b): ln for a, b, ln in found},
                   frozenset((a, b) for a, b, _ in amb), ceiling, guard)


def shape_area(shape) -> float:
    (mx, my), (lx, ly) = shape.meridian, shape.longitude
    return float(abs(Fraction(mx) * Fraction(ly) - Fraction(my) * Fraction(lx)))


def close(x: float, y: float, rel: float = LENGTH_REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def check_slope_list(got, exp: Expected) -> list[tuple[int, int]]:
    """got: [(a, b, length)] in the program's order.  Returns the pairs."""
    pairs = [(a, b) for a, b, _ in got]
    require(len(set(pairs)) == len(pairs), "duplicate slope in output")
    missing = set(exp.slopes) - set(pairs)
    extra = set(pairs) - set(exp.slopes) - exp.ambiguous
    require(not missing, f"slopes missing from output: {sorted(missing)[:5]}")
    require(not extra, f"slopes that are not short: {sorted(extra)[:5]}")
    lengths = [length for _a, _b, length in got]
    require(lengths == sorted(lengths), "slopes not sorted by length")
    for a, b, length in got:
        if (a, b) in exp.slopes:
            require(close(length, exp.slopes[(a, b)]),
                    f"length of ({a},{b}) is {length!r}, expected {exp.slopes[(a, b)]!r}")
    return pairs


def check_bound(bound: dict, exp: Expected, area_rel: float = 0.0) -> int:
    """bound section of a report; returns the prime."""
    require(bound["length_threshold"] == exp.threshold, "bound length threshold differs")
    require(close(bound["area_floor"], exp.area_floor, area_rel) if area_rel
            else bound["area_floor"] == exp.area_floor, "bound area floor differs")
    dmax = bound["delta_max"]
    require(dmax == exp.delta_ceiling or (exp.ceiling_ambiguous and dmax == exp.delta_ceiling + 1),
            f"delta_max {dmax}, expected floor(T^2/A) = {exp.delta_ceiling}")
    require(bound["prime"] == next_prime(dmax), f"prime {bound['prime']} is not next after {dmax}")
    require(bound["count_bound"] == bound["prime"] + 1, "count bound is not p + 1")
    return bound["prime"]


def check_report_dict(data: dict, exp: Expected, *, area_rel: float = 0.0) -> None:
    """A v1 analysis report (as parsed JSON) against the oracle."""
    require(data.get("format") == "slope-analysis-report", "wrong report format")
    require(data.get("version") == "v1", "wrong report version")
    require(data["threshold"] == exp.threshold, "report threshold differs")
    got = [(s["a"], s["b"], s["length"]) for s in data["slopes"]]
    pairs = check_slope_list(got, exp)
    for s in data["slopes"]:
        require(s["boundary"] is False or (s["a"], s["b"]) in exp.ambiguous,
                f"({s['a']},{s['b']}) flagged as boundary")
    mdelta = max_crossing(pairs)
    require(data["max_delta"] == mdelta, f"max_delta {data['max_delta']}, expected {mdelta}")
    matrix = data["delta_matrix"]
    require(len(matrix) == len(pairs), "delta matrix has the wrong size")
    for (a, b), row in zip(pairs, matrix):
        require(row == [abs(a * d - b * c) for c, d in pairs],
                f"delta matrix row of ({a},{b}) is wrong")
    prime = check_bound(data["bound"], exp, area_rel)
    require(mdelta <= data["bound"]["delta_max"], "max_delta exceeds floor(T^2/A)")
    lemma = data["lemma"]
    require(lemma["prime"] == prime, "lemma prime differs from the pipeline prime")
    injective = injective_mod(pairs, prime)
    require(lemma["injective"] is injective, f"lemma verdict {lemma['injective']}, expected {injective}")
    require((lemma["collision"] is None) is injective, "lemma collision field inconsistent")


def check_paper_bound(data: dict, length: float, count: int, delta: int, prime: int) -> None:
    """The paper's property for a shape of area >= the regime's floor."""
    n = len(data["slopes"])
    require(n <= count, f"{n} slopes at length {length:.6g}, paper bound is {count}")
    require(data["max_delta"] <= delta, f"max_delta {data['max_delta']} > {delta}")
    b = data["bound"]
    require((b["delta_max"], b["prime"], b["count_bound"]) == (delta, prime, count),
            f"pipeline gives {b['delta_max']}/{b['prime']}/{b['count_bound']}, "
            f"expected {delta}/{prime}/{count}")
    require(data["lemma"]["injective"] is True and data["lemma"]["prime"] == prime,
            f"F_{prime} lemma is not injective")


def check_svg(svg: str, n_slopes: int) -> None:
    markers = svg.count('class="slope"')
    require(markers == 2 * n_slopes, f"{markers} slope markers, expected {2 * n_slopes}")
    require(svg.rstrip().endswith("</svg>"), "SVG document is truncated")


# ----------------------------- CLI text output -----------------------------

_SLOPE_LINE = re.compile(r"^\s*(\d+)\s+\((-?\d+),(-?\d+)\)\s+(\S+)(\s+boundary)?$")


def check_cli_slopes(stdout: str, exp: Expected) -> None:
    lines = stdout.splitlines()
    m = re.match(r"# (\d+) slopes, max pairwise intersection (\d+)$", lines[1])
    require(m is not None, "slopes header missing")
    got = []
    for line in lines[2:]:
        s = _SLOPE_LINE.match(line)
        require(s is not None, f"unparsed slopes line {line!r}")
        got.append((int(s[2]), int(s[3]), float(s[4])))
    pairs = check_slope_list(got, exp)
    require(int(m[1]) == len(pairs), "slope count in header differs")
    require(int(m[2]) == max_crossing(pairs), "max intersection in header differs")


def check_cli_bound(stdout: str, length: float, area_floor: float) -> None:
    m = re.search(r"L\^2/A = (\S+)\nΔ ≤ (\d+), p = (\d+), slopes ≤ (\d+)", stdout)
    require(m is not None, "bound output not recognised")
    require(close(float(m[1]), length**2 / area_floor, 1e-11), "L^2/A differs")
    ceiling, _ = floor_ratio(length, area_floor)
    p = next_prime(ceiling)
    require((int(m[2]), int(m[3]), int(m[4])) == (ceiling, p, p + 1),
            f"bound prints {m[2]}/{m[3]}/{m[4]}, expected {ceiling}/{p}/{p + 1}")


def check_cli_lemma(stdout: str, exp: Expected) -> None:
    n = len(exp.slopes)
    p = next_prime(exp.delta_ceiling)
    mdelta = max_crossing(exp.slopes)
    expected = (f"# max pairwise intersection {mdelta}, prime {p}\n"
                f"injective: all {n} slopes map to distinct points of F_{p}P^1\n")
    require(f": {n} slopes of length <= " in stdout and stdout.endswith(expected),
            f"lemma-verify output differs: {stdout!r}")
    require(injective_mod(list(exp.slopes), p), "oracle lemma not injective")


def check_cli_wrote(stdout: str, path: str, pattern: str) -> None:
    m = re.match(rf"wrote {re.escape(path)}: {pattern}$", stdout.strip())
    require(m is not None, f"unexpected output {stdout!r}")


def check_cli_audit(stdout: str, surface, lengths) -> None:
    g, n, b = surface
    chi = 2 - 2 * g - n - b
    budget = 6.0 * abs(chi)
    total = math.fsum(lengths)
    slack = budget - total
    lines = stdout.splitlines()
    require(lines[0] == f"chi = {chi}, budget 6|chi| = {budget:.12g}", f"audit line {lines[0]!r}")
    require(lines[1] == f"total slope length = {total:.12g}", f"audit line {lines[1]!r}")
    verdict = "pass" if slack >= 0 else "fail"
    require(abs(slack) > 1e-6 and lines[2].startswith(f"{verdict}: slack = "),
            f"audit verdict {lines[2]!r}, expected {verdict}")
    require(close(float(lines[2].split("= ")[1]), slack, 1e-9), "audit slack differs")


def check_cli_horodisk_ratio(stdout: str) -> None:
    ratio = (1.0 + math.sqrt(2.0)) ** 2
    sep = 2.0 * math.log(1.0 + math.sqrt(2.0))
    m = re.match(r"extremal radius ratio R/r = (\S+)\ntangency separation at that ratio = (\S+)\n$",
                 stdout)
    require(m is not None and close(float(m[1]), ratio, 1e-11) and close(float(m[2]), sep, 1e-11),
            f"horodisk ratio output differs: {stdout!r}")


def check_cli_horodisk_separation(stdout: str, r: float, big_r: float) -> None:
    m = re.match(r"tangency separation ln\(R/r\) = (\S+)\nmutually tangent: (yes|no) "
                 r"\(residual (\S+)\)\n$", stdout)
    require(m is not None, f"horodisk output not recognised: {stdout!r}")
    require(abs(float(m[1]) - math.log(big_r / r)) <= 1e-11 * max(1.0, math.log(big_r / r)),
            "tangency separation differs")
    residual = (big_r + r) ** 2 - 2.0 * (big_r - r) ** 2
    require(close(float(m[3]), residual, 1e-9) or abs(residual) < 1e-9, "residual differs")
    if abs(residual) > 1e-6 * (big_r + r) ** 2:
        require(m[2] == "no", "disks reported tangent")
