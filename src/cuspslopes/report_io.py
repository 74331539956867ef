"""Cusp-shape files and serialized analysis reports (JSON, schema v1).

Every document is written by ``json_text``: compact one-line JSON, the
stdlib's ``json.dumps`` with ``separators=(",", ":")`` (no whitespace between
tokens, which carries no data), whose floats are their shortest round-trip
``repr``, so every binary64 value reads back exactly; key order is fixed, so
identical data produces identical bytes.
A report's Delta matrix stays packed (``slope_search.CrossingMatrix``, one
unsigned array per row); its text comes from one generator,
``_matrix_pieces``, which makes the row texts from the packed rows with each
distinct entry converted to decimal once, and ``report_to_json`` joins it
into the rest of the report.  A path of ``-`` reads standard input, whose
bytes must be UTF-8 as a file's must, and writes standard output, every byte
of it: a write that a closing pipe cuts short ends in ``BrokenPipeError``,
also when stdout is unbuffered.  A file that is not UTF-8 or not JSON (also
one nested too deeply to parse) is a ``CuspFileError`` or
``ReportFormatError``.  ``save_cusp_file`` refuses a name its loader would
refuse as repeated.

Loading a report follows one rule, ``_verdict``: the report is rebuilt from
its inputs (the slope records, threshold, area floor and lemma prime,
checked as they are read by ``_inputs``), and the data must be what the
writer makes of it.  The stored Delta matrix must be, character for
character, the writer's text of the rebuilt matrix; the top-level keys must
be the written ones (``_REPORT_KEYS``, the one list the writer also uses);
and ``max_delta``, ``bound`` and ``lemma`` must equal the rebuilt report's
in JSON type.  Whether a record is listed at all, and its boundary flag,
are derived from its length and the threshold by the enumeration's own
decision (``slope_search._entry``); v1 does not store the cusp basis, so the
lengths and the slope list themselves cannot be re-derived.  The writer's
text of an n x n matrix (n >= 1) has at least 2n^2 + 2n + 1 characters, so
a shorter one is refused before the matrix is computed, and loading work
stays bounded by the size of the input.  A message is made only when a
check fails.

The two ways in differ only in where the matrix text comes from.
``report_from_dict`` encodes the parsed ``delta_matrix`` with the writer's
encoder, so ``true``, ``1.0``, ``null``, ``"1"``, a negated entry and a
short or long row all fail.  ``load_report`` cuts the matrix out of the
file's text, and when the rest is the writer's text of what it parses to
(up to the whitespace after the value, which carries no data), it judges
that data with the cut-out text compared in place, so the n^2 entries are
never parsed; the data is the whole parse's but for the matrix, so this
accepts what the whole parse accepts, with an equal report.
Any other file, or any refusal, gets ``report_from_dict``'s verdict on the
whole parse.  The loaded report keeps the packed rows and takes
``max_delta`` from them; slopes too large for a 64-bit lane are a
``ReportFormatError``.

The module imports only ``cusp_geometry`` of the package.  The report code
reaches ``slope_search`` and ``bound_calculus`` as attributes of the package
(``_pkg.slope_search``), whose ``__getattr__`` imports each on first use; so
a process that only loads cusp files never loads them, and a report call
pays an attribute read, not an import statement.
"""

from __future__ import annotations

import json
import math
import operator
import sys

import cuspslopes as _pkg

from . import __version__
from .cusp_geometry import (
    CuspShape,
    DegenerateBasisError,
    _positive,
    _set,
    _shown,
    _slope,
    _Value,
    area,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .bound_calculus import BoundQuery, BoundReport, LemmaVerdict
    from .slope_search import CrossingMatrix, SlopeEntry

CUSP_FILE_FORMAT = "cusp-file"
REPORT_FORMAT = "slope-analysis-report"
SCHEMA_VERSION = "v1"
_SMALL_NUMERALS = {v: str(v) for v in range(64)}  # all entries of small Delta matrices
# A report's top-level keys, in the order they are written.
_REPORT_KEYS = ("format", "version", "tool_version", "timestamp", "shape_name", "threshold",
                "slopes", "delta_matrix", "max_delta", "bound", "lemma")
_REPORT_KEY_SET = frozenset(_REPORT_KEYS)
_SLOPE_KEYS = frozenset(("a", "b", "length", "boundary"))
_MATRIX_KEY = '"delta_matrix":'
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)
_MATRIX_MISMATCH = "'delta_matrix' is not the rebuilt report's matrix of integers"


class CuspFileError(ValueError):
    """File-level problem with a cusp-shape file."""


class ReportFormatError(ValueError):
    """Version mismatch or inconsistency in a serialized report."""


class RecordError(_Value):
    """A rejected cusp record, addressed by position and name."""

    __slots__ = _fields = ("index", "name", "message")

    def __init__(self, index: int, name: str | None, message: str) -> None:
        _set(self, "index", index)
        _set(self, "name", name)
        _set(self, "message", message)

    def __str__(self) -> str:
        who = f"record {self.index}" + (f" ({_shown(self.name)})" if self.name else "")
        return f"{who}: {self.message}"


# ------------------------------ JSON plumbing ------------------------------

def json_text(data) -> str:
    """The one JSON writer: ``json.dumps(data, separators=(",", ":"),
    allow_nan=False)`` and a newline, made by one encoder (``json.dumps``
    with options builds one per call).  Non-finite floats raise
    ``ValueError``; cycles are not checked (the data are trees)."""
    return _ENCODER.encode(data) + "\n"


def _reject_constant(token: str):
    raise ValueError(f"non-finite numeric literal {token!r} is not allowed")


def _parse_json(text: str, error_cls):
    """The JSON value of ``text``; what it must be is checked by its parser
    (``_check_header``)."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise error_cls(f"not valid JSON: {e}") from None


def _check_header(data, expected_format: str, error_cls) -> None:
    """Require ``data`` to be an object with the given format and version;
    each parser's first check of its data."""
    if not isinstance(data, dict):
        raise error_cls("top level must be a JSON object")
    fmt = data.get("format")
    if fmt != expected_format:
        raise error_cls(f"expected format {expected_format!r}, got {_shown(fmt)}")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise error_cls(
            f"incompatible {expected_format} version {_shown(version)} "
            f"(this tool reads {SCHEMA_VERSION!r})"
        )


def _read_text(path, error_cls) -> str:
    try:
        if str(path) == "-":  # bytes held to UTF-8 as a file's are
            buffer = getattr(sys.stdin, "buffer", None)  # None: a text-only stream
            return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error_cls(f"not UTF-8 text: {e}") from None


def _write_text(path, text: str) -> None:
    if str(path) == "-":
        out = sys.stdout
        buffer = getattr(out, "buffer", None)
        if buffer is None:  # a text-only stream, such as io.StringIO
            out.write(text)
            return
        # Unbuffered stdout is a text layer straight over FileIO, which drops
        # the short count of a write that a closing pipe cuts off; so hand the
        # bytes over until all are taken.  The write after a short one raises
        # BrokenPipeError.
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[buffer.write(data):]
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


# ------------------------------- Cusp files --------------------------------

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
                raise CuspFileError(f"name must be a non-empty string, got {_shown(name)}")
            if name in seen_names:
                raise CuspFileError(f"duplicate name {_shown(name)}")
            shape = CuspShape(record.get("meridian"), record.get("longitude"), name=name)
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
    return parse_cusp_records(_parse_json(_read_text(path, CuspFileError), CuspFileError))


def save_cusp_file(shapes, path, *, sources: dict[str, str] | None = None) -> None:
    """Write ``shapes`` as a cusp file ('-' writes stdout); an unnamed shape
    is written as ``cusp<i>``.  A written name that repeats is refused, as
    the loader would refuse it, before anything is written."""
    records = {}
    for i, shape in enumerate(shapes):
        name = shape.name or f"cusp{i}"
        if name in records:
            raise CuspFileError(f"duplicate name {_shown(name)}")
        rec = records[name] = {
            "name": name,
            "meridian": list(shape.meridian),
            "longitude": list(shape.longitude),
        }
        if sources and name in sources:
            rec["source"] = sources[name]
    data = {"format": CUSP_FILE_FORMAT, "version": SCHEMA_VERSION, "cusps": list(records.values())}
    _write_text(path, json_text(data))


def find_shape(shapes, name: str) -> CuspShape:
    for shape in shapes:
        if shape.name == name:
            return shape
    known = sorted(s.name or "?" for s in shapes)
    listed = ", ".join(map(_shown, known[:3])) + (", ..." if len(known) > 3 else "")
    raise CuspFileError(
        f"no cusp named {_shown(name)} ({len(known)} available: {listed or 'none'})"
    )


# ----------------------------- Analysis reports ----------------------------

class AnalysisReport(_Value):
    """One shape's full analysis: short slopes, crossing data, count bound,
    and the finite-field injectivity verdict."""

    __slots__ = _fields = ("shape_name", "threshold", "entries", "delta_matrix", "max_delta",
                           "bound", "lemma", "tool_version", "timestamp")

    def __init__(self, shape_name: str, threshold: float, entries: tuple[SlopeEntry, ...],
                 delta_matrix: CrossingMatrix, max_delta: int, bound: BoundReport,
                 lemma: LemmaVerdict, tool_version: str = __version__,
                 timestamp: str | None = None) -> None:
        _set(self, "shape_name", shape_name)
        _set(self, "threshold", threshold)
        _set(self, "entries", entries)
        _set(self, "delta_matrix", delta_matrix)
        _set(self, "max_delta", max_delta)
        _set(self, "bound", bound)
        _set(self, "lemma", lemma)
        _set(self, "tool_version", tool_version)
        _set(self, "timestamp", timestamp)


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
    census floor to reproduce shape-independent bounds.  The timestamp is a
    string or None; anything else is a ``ValueError``.
    """
    if not (timestamp is None or isinstance(timestamp, str)):
        raise ValueError(f"timestamp must be a string or None, got {_shown(timestamp)}")
    short = _pkg.slope_search.enumerate_short_slopes(shape, threshold)
    floor = area_floor if area_floor is not None else area(shape)
    query = _pkg.bound_calculus.BoundQuery(threshold, floor)
    return _analysis(shape.name or "unnamed", short.threshold, short.entries, short.delta_matrix,
                     short.max_delta, query, prime, __version__, timestamp)


def _analysis(shape_name: str, threshold: float, entries: tuple[SlopeEntry, ...],
              delta_matrix: CrossingMatrix, max_delta: int, query: BoundQuery,
              prime: int | None, tool_version: str, timestamp: str | None) -> AnalysisReport:
    """The report of these slopes: the count bound of ``query`` and the
    counting lemma at ``prime`` (the bound's prime when it is None)."""
    bound = _pkg.bound_calculus.slope_count_bound(query)
    lemma = _pkg.bound_calculus.verify_counting_lemma([e.slope for e in entries],
                                                      bound.prime if prime is None else prime)
    return AnalysisReport(shape_name, threshold, entries, delta_matrix, max_delta, bound, lemma,
                          tool_version, timestamp)


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
    return dict(zip(_REPORT_KEYS, (
        REPORT_FORMAT,
        SCHEMA_VERSION,
        report.tool_version,
        report.timestamp,
        report.shape_name,
        report.threshold,
        [{"a": e.slope.a, "b": e.slope.b, "length": e.length, "boundary": e.boundary}
         for e in report.entries],
        matrix,
        report.max_delta,
        bound_to_dict(report.bound),
        lemma_to_dict(report.lemma),
    )))


class _Numerals(dict):
    """int -> its decimal text, made once per distinct value; a Delta matrix has few."""

    def __missing__(self, value: int) -> str:
        return self.setdefault(value, str(value))


def _matrix_pieces(rows):
    """The writer's text of the Delta matrix with the given packed rows, in
    pieces: ``[``, one piece per row, ``]``."""
    numeral = _Numerals(_SMALL_NUMERALS).__getitem__
    yield "["
    sep = ""
    for row in rows:
        yield f"{sep}[{','.join(map(numeral, row))}]"
        sep = ","
    yield "]"


def report_to_json(report: AnalysisReport) -> str:
    """``json_text(report_to_dict(report))``: the report written with
    ``delta_matrix`` null, split at its last ``"delta_matrix":null`` (no
    string value follows it), joined around ``_matrix_pieces``."""
    head, _, tail = json_text(_report_dict(report, None)).rpartition(f"{_MATRIX_KEY}null")
    return "".join((head, _MATRIX_KEY, *_matrix_pieces(report.delta_matrix.rows), tail))


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


def _inputs(data: dict, matrix_length: int) -> tuple:
    """The checked inputs of a report's data: ``(shape_name, threshold,
    entries, query, prime, tool_version, timestamp)``, the arguments of
    ``_analysis`` but the Delta matrix and ``max_delta``.

    The inputs are the slope records, which must be exactly the written ones
    (keys ``a, b, length, boundary``; ``a`` and ``b`` ints with gcd 1 in
    canonical sign, checked here, so each slope is built by the trusted
    ``_slope``) and strictly increasing in the enumeration's order,
    ``threshold``, ``bound.area_floor`` and ``lemma.prime`` (``_modulus``).
    The threshold, lengths and area floor must be positive (``_positive``).
    Each record's entry is made by the enumeration's ``_entry`` from its
    length and the threshold, so a slope past the threshold, or a
    ``boundary`` flag other than the one ``_entry`` derives, is refused; the
    length itself cannot be re-derived without the cusp basis, which v1 does
    not store.  ``shape_name`` and ``tool_version`` must be strings and
    ``timestamp`` a string or null; they are taken as they are.

    The writer's text of an n x n matrix, n >= 1, has at least 2n^2 + 2n + 1
    characters: each row is ``[``, n numerals of at least one digit, n - 1
    ``,`` and ``]`` (2n + 1), and the matrix is ``[``, n rows, n - 1 ``,``
    and ``]``.  So a stored matrix of fewer than that many characters
    (``matrix_length``) is refused here, before the matrix is computed: the
    work done stays bounded by the size of the input.
    """
    slope_search, bound_calculus = _pkg.slope_search, _pkg.bound_calculus
    threshold = _positive(data.get("threshold"), "threshold", ReportFormatError)

    raw_slopes = data.get("slopes")
    _require(isinstance(raw_slopes, list), "missing 'slopes' list")
    entries = []
    for rec in raw_slopes:
        if not isinstance(rec, dict):
            raise ReportFormatError("slope records must be objects")
        a, b, raw_length = rec.get("a"), rec.get("b"), rec.get("length")
        if type(a) is not int or type(b) is not int:
            raise ReportFormatError("slope coordinates must be integers")
        length = _positive(raw_length, "slope length", ReportFormatError)
        if math.gcd(a, b) != 1:
            raise ReportFormatError("slope record is not a primitive class (gcd(a, b) != 1)")
        # exactly the written record: these keys, canonical (a, b) (b > 0, or
        # (1, 0)), and the length as read
        if rec.keys() != _SLOPE_KEYS or not (b > 0 or b == 0 and a == 1) \
                or length != raw_length:
            raise ReportFormatError("'slopes' does not match the rebuilt report")
        # inclusion and the boundary flag are the scan's own decision
        entry = slope_search._entry(_slope(a, b), length, threshold)
        if entry is None:
            raise ReportFormatError(f"slope length {length!r} is past the threshold {threshold!r}")
        if rec["boundary"] is not entry.boundary:
            raise ReportFormatError(f"boundary flag does not match the slope length {length!r}")
        entries.append(entry)
    keys = [slope_search._entry_key(e) for e in entries]
    ordered = all(map(operator.lt, keys, keys[1:]))
    _require(ordered, "slopes must be distinct and sorted by (length, (a, b))")

    raw_bound = data.get("bound")
    _require(isinstance(raw_bound, dict), "missing bound section")
    area_floor = _positive(raw_bound.get("area_floor"), "bound area", ReportFormatError)
    try:
        query = bound_calculus.BoundQuery(threshold, area_floor)
    except ValueError as e:
        raise ReportFormatError(f"bound: {e}") from None

    raw_lemma = data.get("lemma")
    _require(isinstance(raw_lemma, dict), "missing lemma section")
    prime = bound_calculus._modulus(raw_lemma.get("prime"), "lemma prime", ReportFormatError)

    for key, kind in (("shape_name", str), ("tool_version", str), ("timestamp", (str, type(None)))):
        if not isinstance(data.get(key), kind):
            raise ReportFormatError(f"{key} must be a string, got {_shown(data.get(key))}")

    n = len(entries)
    _require(matrix_length >= 2 * n * n + 2 * n + 1, _MATRIX_MISMATCH)
    return (data["shape_name"], threshold, tuple(entries), query, prime, data["tool_version"],
            data.get("timestamp"))


def _verdict(data: dict, text: str, start: int, end: int) -> AnalysisReport:
    """The report that ``data``, with ``text[start:end]`` as its stored Delta
    matrix, determines, or the ``ReportFormatError`` that refuses it; the one
    verdict of both ``report_from_dict`` and ``load_report``.  The caller has
    checked the header (``_check_header``).

    The inputs are checked (``_inputs``), the report is rebuilt from them,
    and the data must match it: the stored matrix must be exactly the
    writer's text of the rebuilt one (``_matrix_pieces``, compared in
    place), the top-level keys must be ``_REPORT_KEYS``, and ``max_delta``,
    ``bound`` and ``lemma`` must equal the rebuilt report's in JSON type
    (``_same``), section by section.  The value of ``data["delta_matrix"]``
    is not read.
    """
    shape_name, threshold, entries, query, prime, tool_version, timestamp = _inputs(
        data, end - start)
    try:
        delta_matrix, max_delta = _pkg.slope_search.crossing_data([e.slope for e in entries])
    except OverflowError as e:
        raise ReportFormatError(f"slopes: {e}") from None
    pos = start
    for piece in _matrix_pieces(delta_matrix.rows):
        _require(text.startswith(piece, pos, end), _MATRIX_MISMATCH)
        pos += len(piece)
    _require(pos == end, _MATRIX_MISMATCH)
    report = _analysis(shape_name, threshold, entries, delta_matrix, max_delta, query, prime,
                       tool_version, timestamp)
    if data.keys() != _REPORT_KEY_SET:
        raise ReportFormatError(
            f"top-level keys {_shown(list(data))} are not {list(_REPORT_KEYS)}"
        )
    # The slope records were checked as they were read; the derived fields
    # must also match in JSON type.
    for key, value in (("max_delta", report.max_delta), ("bound", bound_to_dict(report.bound)),
                       ("lemma", lemma_to_dict(report.lemma))):
        if not _same(data[key], value):
            raise ReportFormatError(f"{key!r} does not match the rebuilt report")
    return report


def report_from_dict(data: dict) -> AnalysisReport:
    """Rebuild a report from parsed JSON data and require the data to match
    it (``_verdict``); the stored matrix is ``delta_matrix`` encoded by the
    writer's encoder, so any value but the rebuilt matrix of ints fails."""
    _check_header(data, REPORT_FORMAT, ReportFormatError)
    try:
        matrix = _ENCODER.encode(data.get("delta_matrix"))
    except (TypeError, ValueError, RecursionError):  # not JSON data, so not the writer's
        matrix = ""
    return _verdict(data, matrix, 0, len(matrix))


def load_report(path) -> AnalysisReport:
    """Read a saved report and give ``report_from_dict``'s verdict on the
    whole parse of its text.

    The stored matrix is first cut out of the text: in the writer's compact
    layout its value runs from ``"delta_matrix":[`` to ``,"max_delta":``.
    When the rest of the text, with ``null`` for the matrix, parses and is
    the writer's text of what it parses to (``json_text``), up to the JSON
    whitespace (space, tab, LF, CR) after the value, which carries no data
    (RFC 8259, section 2), the verdict is ``_verdict`` on that data with the
    cut-out matrix compared in place, so the n^2 entries are never parsed.
    The rest is the whole parse's data but for the matrix, so a report this
    route accepts is the one the whole parse gives; on any refusal the whole
    text is parsed and judged by ``report_from_dict``, whose message the
    caller sees.  The rest is compared as text, before anything is rebuilt:
    ``json.loads`` keeps the last of duplicate keys, so a second
    ``"delta_matrix"`` after ``lemma`` parses to data whose writer's text is
    not the rest.
    """
    text = _read_text(path, ReportFormatError)
    start = text.find(_MATRIX_KEY + "[") + len(_MATRIX_KEY)
    end = text.rfind(',"max_delta":')
    if len(_MATRIX_KEY) <= start < end:
        rest = f"{text[:start]}null{text[end:]}"
        try:
            data = _parse_json(rest, ReportFormatError)
            if json_text(data) == rest.rstrip(" \t\n\r") + "\n":
                _check_header(data, REPORT_FORMAT, ReportFormatError)
                return _verdict(data, text, start, end)
        except (ValueError, RecursionError):
            pass  # the whole parse gives the verdict
    return report_from_dict(_parse_json(text, ReportFormatError))
