"""Cusp-shape files and serialized analysis reports (JSON, schema v1).

Every document is written by ``json_text``: compact one-line JSON whose
floats are their shortest round-trip ``repr``, so every binary64 value reads
back exactly; key order is fixed, so identical data produces identical bytes.
A report's Delta matrix stays packed (``slope_search.CrossingMatrix``, one
unsigned array per row) in memory; the writer hands it to ``json.dumps`` one
row at a time, so the whole matrix is never built as Python ints.  A path of
``-`` reads standard input and writes standard output.  Loading is strict:
unknown versions and non-finite numbers are rejected, and a report is
rebuilt from its slopes, threshold, area floor and lemma prime, then compared
field by field with the file.  The Delta matrix is checked row by row
(``slope_search.crossing_matches``): each stored row must be a list whose
entries are all of type ``int`` (so ``true`` and ``1.0`` are not ``1``),
equal to the computed row.  The loaded report keeps the packed rows and
takes ``max_delta`` from them, and slopes too large for a 64-bit lane are a
``ReportFormatError``.  v1 does not store the cusp basis, so the slope list
itself (which slopes, their lengths, their order) cannot be re-derived.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from dataclasses import dataclass

from . import __version__
from .bound_calculus import (
    BoundQuery,
    BoundReport,
    LemmaVerdict,
    is_prime,
    slope_count_bound,
    verify_counting_lemma,
)
from .cusp_geometry import CuspShape, DegenerateBasisError, NonPrimitiveSlopeError, Slope, area
from .slope_search import (
    CrossingMatrix,
    SlopeEntry,
    _entry_key,
    crossing_matches,
    enumerate_short_slopes,
)

CUSP_FILE_FORMAT = "cusp-file"
REPORT_FORMAT = "slope-analysis-report"
SCHEMA_VERSION = "v1"


class CuspFileError(ValueError):
    """File-level problem with a cusp-shape file."""


class ReportFormatError(ValueError):
    """Version mismatch or inconsistency in a serialized report."""


@dataclass(frozen=True)
class RecordError:
    """A rejected cusp record, addressed by position and name."""

    index: int
    name: str | None
    message: str

    def __str__(self) -> str:
        who = f"record {self.index}" + (f" ({self.name!r})" if self.name else "")
        return f"{who}: {self.message}"


# ------------------------------ JSON plumbing ------------------------------

def _json_rows(obj):
    """``json.dumps`` hook: a crossing matrix becomes its list of packed rows,
    and each row a list of ints only while it is being written."""
    if type(obj) is array:  # the common case, tested first
        return obj.tolist()
    if isinstance(obj, CrossingMatrix):
        return list(obj.rows)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(data) -> str:
    """The one JSON writer: compact, one line, newline-terminated.

    Non-finite floats raise ``ValueError`` instead of writing NaN/Infinity.
    A ``CrossingMatrix`` is written as its list of rows.  The documents are
    trees built by this package, so the encoder's cycle check is skipped.
    """
    return json.dumps(data, allow_nan=False, check_circular=False, default=_json_rows) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"non-finite numeric literal {token!r} is not allowed")


def _parse_json(text: str, error_cls) -> dict:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:
        raise error_cls(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise error_cls("top level must be a JSON object")
    return data


def _check_header(data: dict, expected_format: str, error_cls) -> None:
    fmt = data.get("format")
    if fmt != expected_format:
        raise error_cls(f"expected format {expected_format!r}, got {fmt!r}")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise error_cls(
            f"incompatible {expected_format} version {version!r} "
            f"(this tool reads {SCHEMA_VERSION!r})"
        )


def _finite_number(value, what: str, error_cls) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error_cls(f"{what} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise error_cls(f"{what} must be finite, got {value!r}")
    return x


def _read_text(path) -> str:
    if str(path) == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_text(path, text: str) -> None:
    if str(path) == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ------------------------------- Cusp files --------------------------------

def _parse_vec(record: dict, key: str):
    v = record.get(key)
    if not (isinstance(v, list) and len(v) == 2):
        raise CuspFileError(f"{key} must be a pair [x, y]")
    return (
        _finite_number(v[0], f"{key}[0]", CuspFileError),
        _finite_number(v[1], f"{key}[1]", CuspFileError),
    )


def parse_cusp_records(data: dict) -> tuple[list[CuspShape], list[RecordError]]:
    """Validate parsed cusp-file JSON; bad records are collected, not fatal."""
    _check_header(data, CUSP_FILE_FORMAT, CuspFileError)
    records = data.get("cusps")
    if not isinstance(records, list):
        raise CuspFileError("missing 'cusps' list")
    shapes: list[CuspShape] = []
    errors: list[RecordError] = []
    seen_names: set[str] = set()
    for i, record in enumerate(records):
        name = record.get("name") if isinstance(record, dict) else None
        try:
            if not isinstance(record, dict):
                raise CuspFileError("record must be an object")
            if not isinstance(name, str) or not name:
                raise CuspFileError("missing or empty 'name'")
            if name in seen_names:
                raise CuspFileError(f"duplicate name {name!r}")
            mer = _parse_vec(record, "meridian")
            lon = _parse_vec(record, "longitude")
            shape = CuspShape(mer, lon, name=name)
        except (CuspFileError, DegenerateBasisError) as e:
            errors.append(RecordError(i, name if isinstance(name, str) else None, str(e)))
            continue
        seen_names.add(name)
        shapes.append(shape)
    return shapes, errors


def load_cusp_file(path) -> tuple[list[CuspShape], list[RecordError]]:
    """Load shapes from a cusp file ('-' reads stdin).

    File-level problems raise; per-record problems are returned alongside
    the records that did load.
    """
    return parse_cusp_records(_parse_json(_read_text(path), CuspFileError))


def save_cusp_file(shapes, path, *, sources: dict[str, str] | None = None) -> None:
    records = []
    for i, shape in enumerate(shapes):
        name = shape.name or f"cusp{i}"
        rec = {
            "name": name,
            "meridian": list(shape.meridian),
            "longitude": list(shape.longitude),
        }
        if sources and name in sources:
            rec["source"] = sources[name]
        records.append(rec)
    data = {"format": CUSP_FILE_FORMAT, "version": SCHEMA_VERSION, "cusps": records}
    _write_text(path, json_text(data))


def find_shape(shapes, name: str) -> CuspShape:
    for shape in shapes:
        if shape.name == name:
            return shape
    known = ", ".join(sorted(s.name or "?" for s in shapes)) or "none"
    raise CuspFileError(f"no cusp named {name!r} (available: {known})")


# ----------------------------- Analysis reports ----------------------------

@dataclass(frozen=True)
class AnalysisReport:
    """One shape's full analysis: short slopes, crossing data, count bound,
    and the finite-field injectivity verdict."""

    shape_name: str
    threshold: float
    entries: tuple[SlopeEntry, ...]
    delta_matrix: CrossingMatrix
    max_delta: int
    bound: BoundReport
    lemma: LemmaVerdict
    tool_version: str = __version__
    timestamp: str | None = None


def build_analysis_report(
    shape: CuspShape,
    threshold: float,
    *,
    area_floor: float | None = None,
    prime: int | None = None,
    timestamp: str | None = None,
) -> AnalysisReport:
    """Run the enumeration and bound pipeline for one shape.

    The area floor defaults to the shape's own torus area; pass an explicit
    census floor to reproduce shape-independent bounds.
    """
    short = enumerate_short_slopes(shape, threshold)
    bound = slope_count_bound(BoundQuery(threshold, area_floor if area_floor is not None else area(shape)))
    lemma = verify_counting_lemma(short.slopes, prime if prime is not None else bound.prime)
    return AnalysisReport(
        shape_name=shape.name or "unnamed",
        threshold=float(threshold),
        entries=short.entries,
        delta_matrix=short.delta_matrix,
        max_delta=short.max_delta,
        bound=bound,
        lemma=lemma,
        timestamp=timestamp,
    )


def bound_to_dict(bound: BoundReport) -> dict:
    """The ``bound`` section of a report (also ``cuspslopes bound --json``)."""
    return {
        "length_threshold": bound.query.length_threshold,
        "area_floor": bound.query.area_floor,
        "delta_max": bound.delta_max,
        "prime": bound.prime,
        "count_bound": bound.count_bound,
        "floor_guard_hit": bound.floor_guard_hit,
    }


def lemma_to_dict(lemma: LemmaVerdict) -> dict:
    """The ``lemma`` section of a report (also ``lemma-verify --json``)."""
    return {
        "prime": lemma.prime,
        "injective": lemma.injective,
        "collision": (
            None if lemma.collision is None else [[s.a, s.b] for s in lemma.collision]
        ),
        "delta": lemma.delta,
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """The report as plain JSON data; ``delta_matrix`` is a list of lists."""
    return _report_dict(report, [row.tolist() for row in report.delta_matrix.rows])


def _report_dict(report: AnalysisReport, matrix) -> dict:
    """``report_to_dict`` with the given ``delta_matrix`` value."""
    return {
        "format": REPORT_FORMAT,
        "version": SCHEMA_VERSION,
        "tool_version": report.tool_version,
        "timestamp": report.timestamp,
        "shape_name": report.shape_name,
        "threshold": report.threshold,
        "slopes": [
            {"a": e.slope.a, "b": e.slope.b, "length": e.length, "boundary": e.boundary}
            for e in report.entries
        ],
        "delta_matrix": matrix,
        "max_delta": report.max_delta,
        "bound": bound_to_dict(report.bound),
        "lemma": lemma_to_dict(report.lemma),
    }


def report_to_json(report: AnalysisReport) -> str:
    return json_text(_report_dict(report, report.delta_matrix))


def save_report(report: AnalysisReport, path) -> None:
    _write_text(path, report_to_json(report))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReportFormatError(message)


def _same(x, y) -> bool:
    """x == y with equal JSON types throughout: 8.0 is not 8, 1 is not true."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


def report_from_dict(data: dict) -> AnalysisReport:
    """Rebuild a report from its inputs and require the data to match it.

    The inputs are the slope records, which must be strictly increasing in
    the enumeration's order, ``threshold``, ``bound.area_floor`` and
    ``lemma.prime``; every other field must equal its recomputation.
    """
    _check_header(data, REPORT_FORMAT, ReportFormatError)
    _require(isinstance(data.get("shape_name"), str), "missing shape_name")
    threshold = _finite_number(data.get("threshold"), "threshold", ReportFormatError)

    raw_slopes = data.get("slopes")
    _require(isinstance(raw_slopes, list), "missing 'slopes' list")
    entries = []
    for rec in raw_slopes:
        _require(isinstance(rec, dict), "slope records must be objects")
        _require(
            type(rec.get("a")) is int and type(rec.get("b")) is int,
            "slope coordinates must be integers",
        )
        length = _finite_number(rec.get("length"), "slope length", ReportFormatError)
        boundary = rec.get("boundary", False)
        _require(isinstance(boundary, bool), "boundary flag must be a boolean")
        try:
            slope = Slope(rec["a"], rec["b"])
        except NonPrimitiveSlopeError as e:
            raise ReportFormatError(f"slope record: {e}") from None
        entries.append(SlopeEntry(slope, length, boundary))
    keys = [_entry_key(e) for e in entries]
    ordered = all(map(operator.lt, keys, keys[1:]))
    _require(ordered, "slopes must be distinct and sorted by (length, (a, b))")

    matrix = data.get("delta_matrix")
    _require(
        isinstance(matrix, list)
        and all(
            type(row) is list and operator.countOf(map(type, row), int) == len(row)
            for row in matrix
        ),
        "delta_matrix must be a matrix of integers",
    )

    raw_bound = data.get("bound")
    _require(isinstance(raw_bound, dict), "missing bound section")
    area_floor = _finite_number(raw_bound.get("area_floor"), "bound area", ReportFormatError)
    try:
        query = BoundQuery(threshold, area_floor)
    except ValueError as e:
        raise ReportFormatError(f"bound: {e}") from None

    raw_lemma = data.get("lemma")
    _require(isinstance(raw_lemma, dict), "missing lemma section")
    prime = raw_lemma.get("prime")
    _require(type(prime) is int, "lemma prime must be an integer")
    try:
        prime_ok = is_prime(prime)
    except ValueError as e:
        raise ReportFormatError(f"lemma prime: {e}") from None
    _require(prime_ok, f"lemma modulus {prime} is not prime")

    timestamp = data.get("timestamp")
    _require(
        timestamp is None or isinstance(timestamp, str), "timestamp must be a string"
    )
    tool_version = data.get("tool_version")
    _require(isinstance(tool_version, str), "missing tool_version")

    slopes = [e.slope for e in entries]
    try:
        verified = crossing_matches(slopes, matrix)
    except OverflowError as e:
        raise ReportFormatError(f"slopes: {e}") from None
    _require(verified is not None, "'delta_matrix' does not match the rebuilt report")
    delta_matrix, max_delta = verified
    report = AnalysisReport(
        shape_name=data["shape_name"],
        threshold=threshold,
        entries=tuple(entries),
        delta_matrix=delta_matrix,
        max_delta=max_delta,
        bound=slope_count_bound(query),
        lemma=verify_counting_lemma(slopes, prime),
        tool_version=tool_version,
        timestamp=timestamp,
    )
    # The verified rows stand for the matrix; the small derived fields must
    # also match in JSON type.
    for key, value in _report_dict(report, matrix).items():
        same = _same if key in ("max_delta", "bound", "lemma") else operator.eq
        _require(same(data.get(key), value), f"{key!r} does not match the rebuilt report")
    return report


def load_report(path) -> AnalysisReport:
    return report_from_dict(_parse_json(_read_text(path), ReportFormatError))
