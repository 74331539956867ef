"""Deterministic SVG diagrams of a cusp lattice with short slopes highlighted.

Visual encoding is fixed so golden-file diffs stay legible: lattice dots
gray, short-slope points filled black (both sign representatives), slopes at
the threshold length ringed, and the threshold circle dashed.  Output is a
pure function of the DiagramSpec: identical inputs give byte-identical
documents.

The lattice window is the points i*u + j*v, |i|, |j| <= lattice_extent, in
the reduced basis u, v of ``slope_search._reduced_basis`` (the marking itself
when it is already reduced), so every marking of one torus draws the same
window; slope labels stay in the marked coordinates (a, b).  The window's
radius comes from its four corners and the spacing of its dots is the
shorter of u and v, the shortest lattice vector, so ``canvas_transform``
does no work that grows with the extent.  It raises ``CanvasTooSmallError``
when the canvas leaves no drawing area or would put two dots closer than
``MIN_MARKER_SEPARATION_PX``; the error's ``suggested_size`` is the square
canvas side at which the same spec draws.  Its message names that side, and
the canvas's own sides, only up to ``CANVAS_SIDE_LIMIT_PX``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .cusp_geometry import Vec2, _count, _set, _Value, slope_vector
from .slope_search import ShortSlopeReport, _reduced_basis

# Adjacent lattice markers closer than this (in pixels) are unreadable.
MIN_MARKER_SEPARATION_PX = 6.0

CANVAS_PAD_PX = 20.0
LATTICE_DOT_RADIUS = 2.0
SLOPE_DOT_RADIUS = 4.0
RING_RADIUS = 7.0

# Past this side a suggested canvas is named as a limit, not in full: no
# raster canvas takes a side past a signed 32-bit pixel count.
CANVAS_SIDE_LIMIT_PX = 2**31


class CanvasTooSmallError(ValueError):
    """Canvas cannot separate lattice points; carries a workable size."""

    def __init__(self, message: str, suggested_size: int):
        super().__init__(message)
        self.suggested_size = suggested_size


class DiagramSpec(_Value):
    __slots__ = _fields = ("report", "radius_circle", "lattice_extent", "label_slopes",
                           "width", "height")

    def __init__(self, report: ShortSlopeReport, radius_circle: bool = True,
                 lattice_extent: int = 4, label_slopes: bool = False, width: int = 600,
                 height: int = 600) -> None:
        _set(self, "report", report)
        _set(self, "radius_circle", radius_circle)
        _set(self, "lattice_extent", _count(lattice_extent, "lattice_extent", 1))
        _set(self, "label_slopes", label_slopes)
        _set(self, "width", _count(width, "width", 1))
        _set(self, "height", _count(height, "height", 1))


class CanvasTransform(_Value):
    """Uniform world-to-canvas map: origin at canvas center, y up in world."""

    __slots__ = _fields = ("scale", "cx", "cy")

    def to_canvas(self, wx: float, wy: float) -> tuple[float, float]:
        return self.cx + self.scale * wx, self.cy - self.scale * wy


def _lattice_points(u: Vec2, v: Vec2, coefficients) -> Iterator[Vec2]:
    """The points i*u + j*v for i, j in coefficients, i in the outer loop."""
    for i in coefficients:
        for j in coefficients:
            yield i * u[0] + j * v[0], i * u[1] + j * v[1]


def canvas_transform(spec: DiagramSpec) -> CanvasTransform:
    """Transform used by the emitter; raises if markers would overlap."""
    report = spec.report
    u, v = _reduced_basis(report.shape)[:2]
    ext = spec.lattice_extent
    # |i*u + j*v| is convex, so a corner of the window is its farthest point.
    radius = max(math.hypot(x, y) for x, y in _lattice_points(u, v, (-ext, ext)))
    for entry in report.entries:
        vx, vy = slope_vector(report.shape, entry.slope)
        radius = max(radius, math.hypot(vx, vy))
    if spec.radius_circle:
        radius = max(radius, report.threshold)
    radius *= 1.05

    # In a reduced basis the shorter vector is the shortest lattice vector,
    # so it is the smallest distance between two drawn points.
    min_spacing = min(math.hypot(*u), math.hypot(*v))
    needed_scale = MIN_MARKER_SEPARATION_PX / min_spacing
    suggested = 2.0 * (needed_scale * radius + CANVAS_PAD_PX)
    if not math.isfinite(suggested):
        raise ValueError(f"lattice_extent {ext:.6g} needs a canvas past the float range")
    suggested = math.ceil(suggested)
    half = min(spec.width, spec.height) / 2.0 - CANVAS_PAD_PX
    scale = half / radius
    spacing = min_spacing * scale
    if half <= 0.0 or spacing < MIN_MARKER_SEPARATION_PX:
        # a side past the limit is named as the limit, not in full
        canvas = "x".join(str(side) if side <= CANVAS_SIDE_LIMIT_PX else "(past 2**31)"
                          for side in (spec.width, spec.height))
        if suggested > CANVAS_SIDE_LIMIT_PX:
            advice = f"lattice_extent {ext:.6g} needs a canvas side past 2**31 px"
        else:
            advice = f"use at least {suggested}x{suggested}"
        problem = (f"canvas {canvas} leaves no drawing area" if half <= 0.0 else
                   f"lattice points would be {spacing:.2f} px apart on a {canvas} canvas")
        raise CanvasTooSmallError(f"{problem}; {advice}", suggested)
    return CanvasTransform(scale, spec.width / 2.0, spec.height / 2.0)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _circle(cls: str, x: float, y: float, r: float, paint: str) -> str:
    """The one ``<circle>`` template: class, centre and radius, then the
    fill and stroke attributes ``paint``."""
    return f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" {paint}/>'


def emit_lattice_svg(spec: DiagramSpec) -> str:
    """Render the lattice diagram; byte-identical for identical specs."""
    report = spec.report
    tf = canvas_transform(spec)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]
    if spec.radius_circle:
        out.append(_circle("threshold", tf.cx, tf.cy, report.threshold * tf.scale,
                           'fill="none" stroke="#555555" stroke-width="1" '
                           'stroke-dasharray="6,4"'))
    u, v = _reduced_basis(report.shape)[:2]
    ext = spec.lattice_extent
    for wx, wy in _lattice_points(u, v, range(-ext, ext + 1)):
        px, py = tf.to_canvas(wx, wy)
        out.append(_circle("lattice", px, py, LATTICE_DOT_RADIUS, 'fill="#aaaaaa"'))
    labels = []
    for entry in report.entries:
        vx, vy = slope_vector(report.shape, entry.slope)
        for sign in (1, -1):
            px, py = tf.to_canvas(sign * vx, sign * vy)
            if entry.boundary:
                out.append(_circle("boundary-ring", px, py, RING_RADIUS,
                                   'fill="none" stroke="#000000" stroke-width="1"'))
            out.append(_circle("slope", px, py, SLOPE_DOT_RADIUS, 'fill="#000000"'))
            if spec.label_slopes:
                a, b = sign * entry.slope.a, sign * entry.slope.b
                labels.append(
                    f'<text class="label" x="{_fmt(px + 6.0)}" '
                    f'y="{_fmt(py - 6.0)}" font-family="monospace" '
                    f'font-size="11" fill="#000000">({a},{b})</text>'
                )
    out.extend(labels)
    out.append("</svg>")
    return "\n".join(out) + "\n"
