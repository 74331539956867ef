"""Command-line front door for the slope toolkit.

Subcommands mirror the library: slope enumeration, the count-bound
pipeline, finite-field lemma verification, surface audits, horodisk
calculus, lattice diagrams and full analysis reports.  Output is
deterministic (timestamps only with --stamp); exit codes are 0 on success,
1 on domain errors, 2 on usage errors.  When the reader of standard output
goes away (``| head``), a command stops quietly with exit code 1.
``bound``, ``lemma-verify``, ``audit`` and ``horodisk`` compute their result
once and print it through one ``_emit``: one line of JSON under ``--json``,
else their text lines.  ``slopes --json``, ``diagram`` and ``report`` write a
document through one ``_write``, which names the file and what it holds in
one ``wrote …`` line when the document did not go to standard output.  Every
subcommand ends in one of the two.

The module imports only ``argparse``, ``math``, ``os``, ``sys`` and the
package; each subcommand reaches its modules through the package namespace
(``_pkg.cusp_file.load_cusp_file``), which imports a module on first use.
The parser's defaults are strings that argparse converts only for the
subcommand that runs, so a process loads only its own command's modules:
``bound --json`` writes its section with ``bound_calculus.bound_to_dict``
and loads none of the report code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import cuspslopes as _pkg


def _number(what: str, names):
    """The parser of a number argument: a float, or one of the ``names``
    (in any case, with spaces around it), each mapped to a function that
    gives its value, so a named constant's module is imported on use."""
    *most, last = ["a number", *map(repr, names)]
    expected = f"{', '.join(most)} or {last}"

    def parse(text: str) -> float:
        named = names.get(text.strip().lower())
        if named is not None:
            return named()
        try:
            return float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be {expected}, got {text!r}") from None

    return parse


_threshold = _number("threshold", {"2pi": lambda: 2.0 * math.pi})
_area = _number("area", {"adams": lambda: _pkg.bound_calculus.ADAMS_AREA,
                         "cao-meyerhoff": lambda: _pkg.bound_calculus.CAO_MEYERHOFF_AREA})


def _parse_surface(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"surface must be 'genus,punctures,boundary', got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"surface fields must be integers: {text!r}") from None


def _parse_lengths(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"lengths must be comma-separated numbers: {text!r}") from None


def _load_named_shape(args):
    shapes, errors = _pkg.cusp_file.load_cusp_file(args.cusp)
    for err in errors:
        print(f"warning: skipped {err}", file=sys.stderr)
    return _pkg.cusp_file.find_shape(shapes, args.name)


def _emit(args, data, *lines) -> int:
    """Print a command's result, ``data`` as one line of JSON under
    ``--json`` and else the text ``lines``, and give the exit status 0."""
    if args.json:
        _pkg.cusp_file._write_text("-", _pkg.cusp_file.json_text(data))
    else:
        print(*lines, sep="\n")
    return 0


def _write(out: str, text: str, summary: str) -> int:
    """Write a command's document ``text`` to ``out`` ('-' is standard
    output), print ``wrote {out}: {summary}`` when it went to a file, and
    give the exit status 0."""
    _pkg.cusp_file._write_text(out, text)
    if out != "-":
        print(f"wrote {out}: {summary}")
    return 0


def _cmd_slopes(args) -> int:
    shape = _load_named_shape(args)
    if args.json:  # the document that `report` writes with its defaults
        report = _pkg.report_io.build_analysis_report(shape, args.threshold)
        return _write("-", _pkg.report_io.report_to_json(report), "")
    report = _pkg.slope_search.enumerate_short_slopes(shape, args.threshold)
    print(f"# cusp {shape.name}  threshold {args.threshold:.12g}  "
          f"area {_pkg.cusp_geometry.area(shape):.12g}")
    print(f"# {len(report)} slopes, max pairwise intersection {report.max_delta}")
    for i, entry in enumerate(report.entries, start=1):
        flag = "  boundary" if entry.boundary else ""
        print(f"{i:3d}  {str(entry.slope):>10}  {entry.length:.12g}{flag}")
    return 0


def _cmd_bound(args) -> int:
    query = _pkg.bound_calculus.BoundQuery(args.length, args.area)
    report = _pkg.bound_calculus.slope_count_bound(query)
    # the exact L^2/A rounded once: L**2 overflows for some accepted queries
    (n, d), (m, e) = query.length_threshold.as_integer_ratio(), query.area_floor.as_integer_ratio()
    return _emit(args, _pkg.bound_calculus.bound_to_dict(report),
                 f"L^2/A = {n * n * e / (d * d * m):.12g}",
                 f"Δ ≤ {report.delta_max}, p = {report.prime}, slopes ≤ {report.count_bound}")


def _cmd_lemma_verify(args) -> int:
    shape = _load_named_shape(args)
    report = _pkg.report_io.build_analysis_report(shape, args.threshold, prime=args.prime)
    count, verdict = len(report.entries), report.lemma
    if verdict.injective:
        outcome = f"injective: all {count} slopes map to distinct points of F_{verdict.prime}P^1"
    else:
        s1, s2 = verdict.collision
        outcome = f"collision: {s1} and {s2} coincide mod {verdict.prime} (delta = {verdict.delta})"
    return _emit(
        args,
        {
            "shape": shape.name,
            "threshold": args.threshold,
            "slope_count": count,
            "max_delta": report.max_delta,
            **_pkg.bound_calculus.lemma_to_dict(verdict),
        },
        f"# cusp {shape.name}: {count} slopes of length <= {args.threshold:.12g}",
        f"# max pairwise intersection {report.max_delta}, prime {verdict.prime}",
        outcome,
    )


def _cmd_audit(args) -> int:
    # built here, not by the parser, so that a bad surface is a domain error
    surface = _pkg.surface_audit.SurfaceType(*args.surface)
    audit = _pkg.surface_audit.SurfaceAudit(surface, args.lengths)
    verdict = _pkg.surface_audit.check_cusp_length_inequality(audit)
    chi = _pkg.surface_audit.euler_characteristic(surface)
    outcome = "pass" if verdict.passed else "fail"
    if verdict.sharp:
        outcome += " (sharp)"
    return _emit(
        args,
        {
            "surface": {
                "genus": surface.genus,
                "punctures": surface.punctures,
                "boundary_circles": surface.boundary_circles,
            },
            "euler_characteristic": chi,
            "lengths": list(args.lengths),
            "total_length": verdict.lhs,
            "budget": verdict.rhs,
            "passed": verdict.passed,
            "slack": verdict.slack,
            "sharp": verdict.sharp,
        },
        f"chi = {chi}, budget 6|chi| = {verdict.rhs:.12g}",
        f"total slope length = {verdict.lhs:.12g}",
        f"{outcome}: slack = {verdict.slack:.12g}",
    )


def _cmd_horodisk(args) -> int:
    if args.ratio:
        ratio = _pkg.halfplane_geometry.extremal_ratio()
        pair = _pkg.halfplane_geometry.HorodiskPair(1.0, ratio)
        separation = _pkg.halfplane_geometry.tangency_separation(pair)
        return _emit(args, {"extremal_ratio": ratio, "tangency_separation": separation},
                     f"extremal radius ratio R/r = {ratio:.12g}",
                     f"tangency separation at that ratio = {separation:.12g}")
    elif args.separation is not None:
        r, big_r = args.separation
        pair = _pkg.halfplane_geometry.HorodiskPair(r, big_r)
        check = _pkg.halfplane_geometry.mutually_tangent(pair)
        sep = _pkg.halfplane_geometry.tangency_separation(pair)
        touch = "yes" if check.tangent else "no"
        return _emit(
            args,
            {
                "r": r,
                "R": big_r,
                "separation": sep,
                "mutually_tangent": check.tangent,
                "residual": check.residual,
            },
            f"tangency separation ln(R/r) = {sep:.12g}",
            f"mutually tangent: {touch} (residual {check.residual:.12g})",
        )
    else:
        eps, length = args.wrapping
        query = _pkg.halfplane_geometry.WrappingQuery(eps, length)
        bound = _pkg.halfplane_geometry.wrapping_bound(query)
        return _emit(args, {"epsilon": eps, "loop_length": length, "wrapping_bound": bound},
                     f"wrapping number bound = {bound:.12g}")


def _cmd_diagram(args) -> int:
    shape = _load_named_shape(args)
    report = _pkg.slope_search.enumerate_short_slopes(shape, args.threshold)
    spec = _pkg.diagram.DiagramSpec(
        report,
        radius_circle=not args.no_circle,
        lattice_extent=args.extent,
        label_slopes=args.labels,
        width=args.width,
        height=args.height,
    )
    return _write(args.out, _pkg.diagram.emit_lattice_svg(spec),
                  f"{len(report)} slopes, {2 * len(report)} highlighted markers")


def _cmd_report(args) -> int:
    shape = _load_named_shape(args)
    stamp = None
    if args.stamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat()
    report = _pkg.report_io.build_analysis_report(shape, args.threshold, area_floor=args.area,
                                                  prime=args.prime, timestamp=stamp)
    return _write(args.out or "-", _pkg.report_io.report_to_json(report),
                  f"{len(report.entries)} slopes, count bound {report.bound.count_bound}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspslopes",
        description="Slope geometry on hyperbolic cusp tori.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_pkg.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cusp_args(p):
        p.add_argument("--cusp", required=True, help="cusp file path ('-' for stdin)")
        p.add_argument("--name", required=True, help="cusp name within the file")
        p.add_argument(
            "--threshold",
            type=_threshold,
            default="6",
            help="length threshold (number or '2pi'; default 6)",
        )

    p = sub.add_parser("slopes", help="enumerate short slopes on a cusp")
    add_cusp_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("bound", help="crossing ceiling, next prime, count bound")
    p.add_argument("--length", type=_threshold, default="6")
    p.add_argument(
        "--area",
        type=_area,
        default="cao-meyerhoff",
        help="area floor (number, 'adams' or 'cao-meyerhoff'; default 3.35)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("lemma-verify", help="check injectivity into F_p P^1")
    add_cusp_args(p)
    p.add_argument("--prime", type=int, help="override the pipeline prime")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lemma_verify)

    p = sub.add_parser("audit", help="cusp-length budget audit for a surface")
    p.add_argument("--surface", type=_parse_surface, required=True, metavar="g,n,b")
    p.add_argument("--lengths", type=_parse_lengths, required=True, metavar="l1,l2,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("horodisk", help="half-plane horodisk calculus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", action="store_true", help="extremal radius ratio")
    group.add_argument("--separation", nargs=2, type=float, metavar=("r", "R"))
    group.add_argument("--wrapping", nargs=2, type=float, metavar=("eps", "len"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_horodisk)

    p = sub.add_parser("diagram", help="write an SVG lattice diagram")
    add_cusp_args(p)
    p.add_argument("--out", required=True, help="output SVG path ('-' for stdout)")
    p.add_argument("--extent", type=int, default=4, help="lattice translates per axis")
    p.add_argument("--labels", action="store_true", help="label slope points")
    p.add_argument("--no-circle", action="store_true", help="omit the threshold circle")
    p.add_argument("--width", type=int, default=600)
    p.add_argument("--height", type=int, default=600)
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("report", help="full analysis report for a cusp")
    add_cusp_args(p)
    p.add_argument("--out", help="output path ('-' or default: stdout)")
    p.add_argument("--area", type=_area, help="area floor (default: shape area)")
    p.add_argument("--prime", type=int, help="override the pipeline prime")
    p.add_argument("--stamp", action="store_true", help="include a UTC timestamp")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader went away (as with `| head`): stop without a message.
        # Standard output then points at devnull, so the flush at exit cannot
        # fail again and print "Exception ignored".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


def entry() -> None:
    sys.exit(main())
