"""Cusp-shape files (JSON, schema v1), and the JSON text plumbing that they
and saved reports (``report_io``) share.

Every document is written by ``json_text``: compact one-line JSON, the
stdlib's ``json.dumps`` with ``separators=(",", ":")`` (no whitespace between
tokens, which carries no data), whose floats are their shortest round-trip
``repr``, so every binary64 value reads back exactly; key order is fixed, so
identical data produces identical bytes.  A path of ``-`` reads standard
input, whose bytes must be UTF-8 as a file's must, and writes standard
output, every byte of it: a write that a closing pipe cuts short ends in
``BrokenPipeError``, also when stdout is unbuffered.  A file that is not
UTF-8 or not JSON (also one nested too deeply to parse) is refused with the
reader's own error class, ``CuspFileError`` for a cusp file.
``save_cusp_file`` refuses a name its loader would refuse as repeated.

The module imports only ``cusp_geometry`` of the package, so a process that
only loads cusp files compiles none of the report code.
"""

from __future__ import annotations

import json
import sys

from .cusp_geometry import CuspShape, DegenerateBasisError, _shown, _Value

CUSP_FILE_FORMAT = "cusp-file"
SCHEMA_VERSION = "v1"
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)


class CuspFileError(ValueError):
    """File-level problem with a cusp-shape file."""


class RecordError(_Value):
    """A rejected cusp record, addressed by position and name."""

    __slots__ = _fields = ("index", "name", "message")

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
