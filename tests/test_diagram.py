"""SVG diagram tests: parse-back counts, determinism, golden file."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from cuspslopes.cusp_geometry import CuspShape
from cuspslopes.diagram import (
    CANVAS_PAD_PX,
    CANVAS_SIDE_LIMIT_PX,
    MIN_MARKER_SEPARATION_PX,
    CanvasTooSmallError,
    DiagramSpec,
    canvas_transform,
    emit_lattice_svg,
)
from cuspslopes.slope_search import enumerate_short_slopes

from conftest import FIXTURES

MARKER_RE = re.compile(r'<circle class="slope" cx="([0-9.+-]+)" cy="([0-9.+-]+)"')
LATTICE_RE = re.compile(r'<circle class="lattice" cx="([0-9.+-]+)" cy="([0-9.+-]+)"')


def _hex2_spec(**kwargs) -> DiagramSpec:
    shape = CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hex2")
    return DiagramSpec(enumerate_short_slopes(shape, 6.0), **kwargs)


def _to_world(tf, px: float, py: float) -> tuple[float, float]:
    """The world point that ``tf.to_canvas`` maps to the canvas point (px, py)."""
    return (px - tf.cx) / tf.scale, (tf.cy - py) / tf.scale


def test_marker_count_parse_back():
    spec = _hex2_spec()
    svg = emit_lattice_svg(spec)
    assert len(MARKER_RE.findall(svg)) == 2 * len(spec.report)


def test_square_threshold_one_markers_and_rings(square_shape):
    spec = DiagramSpec(enumerate_short_slopes(square_shape, 1.0))
    svg = emit_lattice_svg(spec)
    assert len(MARKER_RE.findall(svg)) == 4
    # both slopes sit exactly at the threshold: each sign representative ringed
    assert svg.count('class="boundary-ring"') == 4


def test_empty_report_still_draws_lattice(square_shape):
    spec = DiagramSpec(enumerate_short_slopes(square_shape, 0.5), lattice_extent=3)
    svg = emit_lattice_svg(spec)
    assert len(MARKER_RE.findall(svg)) == 0
    assert svg.count('class="lattice"') == (2 * 3 + 1) ** 2


def test_determinism_byte_identical():
    assert emit_lattice_svg(_hex2_spec()) == emit_lattice_svg(_hex2_spec())
    assert emit_lattice_svg(_hex2_spec(label_slopes=True)) == emit_lattice_svg(
        _hex2_spec(label_slopes=True)
    )


def test_golden_hex2_threshold6():
    golden = (FIXTURES / "goldens" / "hex2_threshold6.svg").read_bytes()
    svg = emit_lattice_svg(_hex2_spec(label_slopes=True)).encode("utf-8")
    assert svg == golden


@pytest.mark.parametrize("golden, options", [
    ("square_threshold1.svg", {}),
    ("square_threshold1_labels_no_circle.svg", {"radius_circle": False, "label_slopes": True}),
])
def test_golden_square_threshold1_rings(square_shape, golden, options):
    # both square slopes sit at T = 1, so these pin the boundary rings' bytes
    # (``cuspslopes diagram --cusp square.json --name square --threshold 1``)
    expected = (FIXTURES / "goldens" / golden).read_bytes()
    svg = emit_lattice_svg(DiagramSpec(enumerate_short_slopes(square_shape, 1.0), **options))
    assert svg.count('class="boundary-ring"') == 4
    assert svg.encode("utf-8") == expected


def test_markers_inside_threshold_circle():
    spec = _hex2_spec()
    svg = emit_lattice_svg(spec)
    tf = canvas_transform(spec)
    tol = 1.0 / tf.scale  # one pixel of slack in world units
    for cx, cy in MARKER_RE.findall(svg):
        wx, wy = _to_world(tf, float(cx), float(cy))
        assert math.hypot(wx, wy) <= spec.report.threshold + tol


def test_canvas_too_small_suggests_size():
    with pytest.raises(CanvasTooSmallError) as err:
        emit_lattice_svg(_hex2_spec(width=40, height=40))
    suggested = err.value.suggested_size
    assert suggested > 40
    # the suggested canvas renders cleanly
    emit_lattice_svg(_hex2_spec(width=suggested, height=suggested))


@pytest.mark.parametrize("width", [600, 40])
def test_suggested_side_past_the_limit_is_named_as_the_limit(width):
    # the error keeps the exact side, the message names the 2^31 px limit
    with pytest.raises(CanvasTooSmallError) as err:
        canvas_transform(_hex2_spec(lattice_extent=10**200, width=width, height=width))
    assert err.value.suggested_size > CANVAS_SIDE_LIMIT_PX == 2**31
    assert type(err.value.suggested_size) is int
    assert str(err.value).endswith("; lattice_extent 1e+200 needs a canvas side past 2**31 px")
    # below the limit the side is given in full
    with pytest.raises(CanvasTooSmallError) as err:
        canvas_transform(_hex2_spec(lattice_extent=10**6, width=width, height=width))
    side = err.value.suggested_size
    assert side <= CANVAS_SIDE_LIMIT_PX and str(err.value).endswith(f"use at least {side}x{side}")


def test_no_circle_flag():
    svg = emit_lattice_svg(_hex2_spec(radius_circle=False))
    assert 'class="threshold"' not in svg


def test_labels_flag():
    assert "<text" not in emit_lattice_svg(_hex2_spec())
    labeled = emit_lattice_svg(_hex2_spec(label_slopes=True))
    assert labeled.count("<text") == 2 * len(_hex2_spec().report)
    assert "(-1,1)" in labeled and "(1,-1)" in labeled


def test_spec_validation(square_shape):
    report = enumerate_short_slopes(square_shape, 1.0)
    with pytest.raises(ValueError):
        DiagramSpec(report, lattice_extent=0)
    with pytest.raises(ValueError):
        DiagramSpec(report, width=0)
    # sizes are ints, and a bool is not taken for one
    for bad in ({"lattice_extent": 2.5}, {"lattice_extent": True}, {"width": 600.0},
                {"width": True, "height": True}, {"height": "600"}):
        with pytest.raises(ValueError, match="must be an integer"):
            DiagramSpec(report, **bad)


@pytest.mark.parametrize("name", ["lattice_extent", "width", "height"])
@pytest.mark.parametrize("value, bits", [(10**400, 1329), (2**1024 - 1, 1024)])
def test_spec_sizes_past_the_float_range_name_the_field(name, value, bits):
    message = f"^{name} must be at most 1.7976931348623157e\\+308, got a {bits}-bit integer$"
    with pytest.raises(ValueError, match=message):
        _hex2_spec(**{name: value})


def test_extent_past_the_float_range_names_the_extent():
    # 10^308 is a finite float, but the window's corners are not
    spec = _hex2_spec(lattice_extent=10**308)
    message = r"^lattice_extent 1e\+308 needs a canvas past the float range$"
    with pytest.raises(ValueError, match=message):
        canvas_transform(spec)
    # a huge canvas side inside the float range is a size like any other
    spec = _hex2_spec(width=10**300, height=10**300)
    assert canvas_transform(spec).cx == 10**300 / 2.0


def test_transform_round_trip():
    tf = canvas_transform(_hex2_spec())
    for wx, wy in ((0.0, 0.0), (2.0, 0.0), (-1.5, 3.25)):
        px, py = tf.to_canvas(wx, wy)
        bx, by = _to_world(tf, px, py)
        assert bx == pytest.approx(wx, abs=1e-9)
        assert by == pytest.approx(wy, abs=1e-9)


def _world_markers(spec: DiagramSpec, svg: str) -> list[tuple[float, float]]:
    tf = canvas_transform(spec)
    return [_to_world(tf, float(x), float(y)) for x, y in MARKER_RE.findall(svg)]


@pytest.mark.parametrize("k", [s * k for k in (1, 10, 100, 1000, 3000, 5 * 10**4, 10**5)
                               for s in (1, -1)])
def test_skewed_hex2_draws_like_hex2(k):
    # longitude + k*meridian marks the same lattice; the window is drawn in
    # its reduced basis, so the default canvas fits and each slope marker
    # lands where the unskewed drawing puts it
    shape = CuspShape((2.0, 0.0), (1.0 + 2.0 * k, math.sqrt(3.0)))
    spec = DiagramSpec(enumerate_short_slopes(shape, 6.0), label_slopes=True)
    svg = emit_lattice_svg(spec)
    base = _world_markers(_hex2_spec(), emit_lattice_svg(_hex2_spec()))
    skewed = _world_markers(spec, svg)
    pixel = 1.0 / canvas_transform(spec).scale
    assert len(skewed) == len(base)
    nearest = [min(range(len(base)), key=lambda i: math.dist(p, base[i])) for p in skewed]
    assert sorted(nearest) == list(range(len(base)))
    assert all(math.dist(p, base[i]) <= pixel for p, i in zip(skewed, nearest))
    # labels stay in the marked coordinates
    assert all(f">({e.slope.a},{e.slope.b})<" in svg for e in spec.report.entries)


def _assert_drawable(svg: str, size: int) -> None:
    """Lattice dots at least the minimum separation apart, and every dot and
    marker inside the drawing area (coordinates are printed to 4 decimals)."""
    dots = [(float(x), float(y)) for x, y in LATTICE_RE.findall(svg)]
    assert min(math.dist(p, q) for p, q in itertools.combinations(dots, 2)) >= (
        MIN_MARKER_SEPARATION_PX - 1e-3
    )
    points = dots + [(float(x), float(y)) for x, y in MARKER_RE.findall(svg)]
    center = (size / 2.0, size / 2.0)
    assert max(math.dist(p, center) for p in points) <= size / 2.0 - CANVAS_PAD_PX + 1e-3


def _random_markings(rng: random.Random):
    """A reduced basis (u, v), the same lattice marked with the longitude
    shorter than the meridian, and a skewed marking of it."""
    r = rng.uniform(0.5, 2.0)
    x = rng.uniform(-0.5, 0.5)
    y = math.sqrt(1.0 - x * x) + rng.uniform(0.01, 2.0)
    c, s = math.cos(phi := rng.uniform(0.0, 2.0 * math.pi)), math.sin(phi)
    u = (r * c, r * s)
    v = (r * (x * c - y * s), r * (x * s + y * c))
    k = rng.choice((1, -1)) * round(10 ** rng.uniform(0.0, 4.0))
    return [(u, v), ((-v[0], -v[1]), u), (u, (v[0] + k * u[0], v[1] + k * u[1]))]


def test_random_markings_keep_dots_apart():
    rng = random.Random(20041)
    accepted = refused = 0
    for _ in range(12):
        for meridian, longitude in _random_markings(rng):
            report = enumerate_short_slopes(CuspShape(meridian, longitude), rng.uniform(0.5, 6.0))
            for extent in (1, 2, 3):
                size = rng.randint(60, 600)
                spec = DiagramSpec(report, lattice_extent=extent, width=size, height=size)
                try:
                    svg = emit_lattice_svg(spec)
                    accepted += 1
                except CanvasTooSmallError as err:
                    refused += 1
                    size = err.suggested_size
                    svg = emit_lattice_svg(
                        DiagramSpec(report, lattice_extent=extent, width=size, height=size)
                    )
                _assert_drawable(svg, size)
    assert accepted and refused
