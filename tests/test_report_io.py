"""Cusp-file ingestion and analysis-report round-trip tests."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import random
import reprlib
import time
import tracemalloc

import pytest

from cuspslopes import bound_calculus, cusp_geometry, report_io, slope_search
from cuspslopes.cusp_file import (
    CuspFileError,
    find_shape,
    json_text,
    load_cusp_file,
    parse_cusp_records,
    save_cusp_file,
)
from cuspslopes.cusp_geometry import CuspShape, Slope
from cuspslopes.diagram import DiagramSpec, emit_lattice_svg
from cuspslopes.report_io import (
    AnalysisReport,
    ReportFormatError,
    build_analysis_report,
    load_report,
    report_from_dict,
    report_to_dict,
    report_to_json,
    save_report,
)
from cuspslopes.slope_search import enumerate_short_slopes

from conftest import FIXTURES, random_shape, rescaled, run_timed


# ---------------------------------------------------------------- cusp files


def test_load_square_fixture():
    shapes, errors = load_cusp_file(FIXTURES / "square.json")
    assert errors == []
    assert len(shapes) == 1
    assert shapes[0].name == "square"
    assert shapes[0].meridian == (1.0, 0.0)


def test_load_hex2_fixture():
    shapes, errors = load_cusp_file(FIXTURES / "hex2.json")
    assert errors == []
    hex2 = find_shape(shapes, "hex2")
    assert hex2.longitude == (1.0, 1.7320508075688772)


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_cusp_file(tmp_path / "nope.json")


def test_collinear_record_isolated():
    data = {
        "format": "cusp-file",
        "version": "v1",
        "cusps": [
            {"name": "good", "meridian": [1.0, 0.0], "longitude": [0.0, 1.0]},
            {"name": "bad", "meridian": [1.0, 0.0], "longitude": [2.0, 0.0]},
            {"name": "alsogood", "meridian": [2.0, 0.0], "longitude": [0.0, 2.0]},
        ],
    }
    shapes, errors = parse_cusp_records(data)
    assert [s.name for s in shapes] == ["good", "alsogood"]
    assert len(errors) == 1
    assert errors[0].index == 1 and errors[0].name == "bad"
    assert "degenerate" in errors[0].message


def test_duplicate_and_malformed_records():
    data = {
        "format": "cusp-file",
        "version": "v1",
        "cusps": [
            {"name": "a", "meridian": [1.0, 0.0], "longitude": [0.0, 1.0]},
            {"name": "a", "meridian": [2.0, 0.0], "longitude": [0.0, 2.0]},
            {"meridian": [1.0, 0.0], "longitude": [0.0, 1.0]},
            "not an object",
            {"name": "b", "meridian": [1.0], "longitude": [0.0, 1.0]},
            {"name": "", "meridian": [1.0, 0.0], "longitude": [0.0, 1.0]},
        ],
    }
    shapes, errors = parse_cusp_records(data)
    assert [s.name for s in shapes] == ["a"]
    assert [e.index for e in errors] == [1, 2, 3, 4, 5]


def test_header_validation():
    with pytest.raises(CuspFileError):
        parse_cusp_records({"format": "other", "version": "v1", "cusps": []})
    with pytest.raises(CuspFileError):
        parse_cusp_records({"format": "cusp-file", "version": "v2", "cusps": []})
    with pytest.raises(CuspFileError):
        parse_cusp_records({"format": "cusp-file", "version": "v1"})


def test_nan_in_cusp_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"format": "cusp-file", "version": "v1", "cusps": '
        '[{"name": "x", "meridian": [NaN, 0.0], "longitude": [0.0, 1.0]}]}'
    )
    with pytest.raises(CuspFileError):
        load_cusp_file(path)


def test_huge_literal_infinity_rejected():
    # 1e999 parses to inf without tripping parse_constant; must still fail
    data = json.loads(
        '{"format": "cusp-file", "version": "v1", "cusps": '
        '[{"name": "x", "meridian": [1e999, 0.0], "longitude": [0.0, 1.0]}]}'
    )
    shapes, errors = parse_cusp_records(data)
    assert shapes == [] and len(errors) == 1


def test_int_literal_past_float_range_is_one_record_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"format": "cusp-file", "version": "v1", "cusps": ['
        f'{{"name": "x", "meridian": [1{"0" * 400}, 0], "longitude": [0, 1]}}, '
        '{"name": "y", "meridian": [1, 0], "longitude": [0, 1]}]}'
    )
    shapes, errors = load_cusp_file(path)
    assert [s.name for s in shapes] == ["y"]
    assert len(errors) == 1
    assert "cusp meridian[0] is an integer past the float range" in errors[0].message


def test_save_cusp_file_round_trip(tmp_path):
    shapes = [
        CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hexy"),
        CuspShape((1.25, 0.0), (0.5, 0.875), name="other"),
    ]
    path = tmp_path / "out.json"
    save_cusp_file(shapes, path, sources={"hexy": "reconstructed"})
    loaded, errors = load_cusp_file(path)
    assert errors == []
    assert loaded == shapes
    assert '"source":"reconstructed"' in path.read_text()


def _stdlib_compact(data) -> str:
    """The stdlib's compact JSON of ``data``, one line, newline-terminated."""
    return json.dumps(data, separators=(",", ":"), allow_nan=False) + "\n"


def test_cusp_file_is_the_stdlib_compact_json(tmp_path):
    path = tmp_path / "out.json"
    save_cusp_file([CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hexy"),
                    CuspShape((1, 0), (0, 1))], path, sources={"hexy": "reconstructed"})
    assert path.read_text() == _stdlib_compact({"format": "cusp-file", "version": "v1", "cusps": [
        {"name": "hexy", "meridian": [2.0, 0.0], "longitude": [1.0, math.sqrt(3.0)],
         "source": "reconstructed"},
        {"name": "cusp1", "meridian": [1.0, 0.0], "longitude": [0.0, 1.0]},
    ]})


@pytest.mark.parametrize(
    "shapes",
    [
        [CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="cusp1"), CuspShape((1, 0), (0, 1))],
        [CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="cusp1"),
         CuspShape((1, 0), (0, 1), name="cusp1")],
    ],
    ids=["generated_name_repeats", "explicit_name_repeats"],
)
def test_save_cusp_file_refuses_repeated_names(tmp_path, capsys, shapes):
    # the loader refuses the second record of such a file; the writer
    # refuses the file, in the loader's words, before writing anything
    path = tmp_path / "out.json"
    save_cusp_file(shapes[:1], path)
    data = json.loads(path.read_text())
    data["cusps"].append({**data["cusps"][0]})
    path.write_text(json_text(data))
    _, errors = load_cusp_file(path)
    assert [(e.index, e.message) for e in errors] == [(1, "duplicate name 'cusp1'")]
    path.unlink()
    for out in (path, "-"):
        with pytest.raises(CuspFileError, match="^duplicate name 'cusp1'$"):
            save_cusp_file(shapes, out)
    assert not path.exists()
    assert capsys.readouterr().out == ""


def test_stdin_ingestion(monkeypatch, fixtures_dir):
    monkeypatch.setattr("sys.stdin", io.StringIO((fixtures_dir / "hex2.json").read_text()))
    shapes, errors = load_cusp_file("-")
    assert errors == [] and len(shapes) == 2


def _stdin_bytes(monkeypatch, data: bytes, encoding: str) -> None:
    """Make standard input a text stream of ``encoding`` over ``data``."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding=encoding))


def test_stdin_is_held_to_utf8(hex2_shape, monkeypatch):
    # standard input is decoded as UTF-8, whatever the stream's own encoding,
    # as a file given by path is
    report = build_analysis_report(CuspShape(hex2_shape.meridian, hex2_shape.longitude,
                                             name="M\xf6bius"), 4.0)
    text = report_to_json(report).replace("\\u00f6", "\xf6")  # the name's letter unescaped
    assert "M\xf6bius" in text
    _stdin_bytes(monkeypatch, text.encode("utf-8"), "latin-1")
    assert load_report("-") == report
    _stdin_bytes(monkeypatch, text.encode("latin-1"), "latin-1")
    with pytest.raises(ReportFormatError, match="not UTF-8"):
        load_report("-")


def test_find_shape_error_lists_names():
    shapes, _ = load_cusp_file(FIXTURES / "hex2.json")
    with pytest.raises(CuspFileError, match="hex2"):
        find_shape(shapes, "missing")


# ---------------------------------------------------------------- reports


@pytest.fixture
def hex2_report(hex2_shape):
    return build_analysis_report(hex2_shape, 6.0)


def test_report_round_trip(hex2_report, tmp_path):
    path = tmp_path / "report.json"
    save_report(hex2_report, path)
    loaded = load_report(path)
    assert loaded == hex2_report


def test_report_round_trip_bytes_stable(hex2_report):
    text = report_to_json(hex2_report)
    again = report_to_json(report_from_dict(json.loads(text)))
    assert again == text


@pytest.mark.parametrize("k", [-45, -40, 20, 40])
def test_rescaled_hex2_gives_hex2s_report_and_diagram(hex2_shape, hex2_report, tmp_path, k):
    # hex2 and T scaled by 2^k (exact in binary64): the same slopes, flags,
    # matrix, bound and lemma, every length 2^k times hex2's, and the golden
    # diagram byte for byte
    shape, threshold = rescaled(hex2_shape, k), math.ldexp(6.0, k)
    svg = emit_lattice_svg(DiagramSpec(enumerate_short_slopes(shape, threshold),
                                       label_slopes=True))
    assert svg.encode("utf-8") == (FIXTURES / "goldens" / "hex2_threshold6.svg").read_bytes()
    report, base = build_analysis_report(shape, threshold), hex2_report
    assert [(e.slope, e.boundary) for e in report.entries] == [
        (e.slope, e.boundary) for e in base.entries]
    assert [e.length for e in report.entries] == [math.ldexp(e.length, k) for e in base.entries]
    assert (report.delta_matrix, report.max_delta, report.lemma) == (
        base.delta_matrix, base.max_delta, base.lemma)
    query = bound_calculus.BoundQuery(threshold, math.ldexp(base.bound.query.area_floor, 2 * k))
    assert report.bound == bound_calculus.BoundReport(
        query, base.bound.delta_max, base.bound.prime, base.bound.count_bound,
        base.bound.floor_guard_hit)
    path = tmp_path / "rescaled.json"
    save_report(report, path)
    assert load_report(path) == report


def test_hex2_at_every_binary64_scale_gives_its_bound_or_a_refusal(hex2_shape):
    # hex2 and T scaled by 2^k for every k at which the inputs are floats
    # (hex2's meridian, 2 * 2^1023, is not): the report has hex2's bound or
    # is refused; a subnormal own area (k from -538 to -512) must not pass
    # with the few bits it keeps
    for k in range(-1074, 1023):
        try:
            bound = build_analysis_report(rescaled(hex2_shape, k), math.ldexp(6.0, k)).bound
        except ValueError:
            continue
        assert (bound.delta_max, bound.prime, bound.count_bound) == (10, 11, 12), k


def test_report_seventeen_digit_floats(hex2_report):
    text = report_to_json(hex2_report)
    # 2*sqrt(3) must appear at full precision and survive reparsing exactly
    assert "3.4641016151377544" in text
    data = json.loads(text)
    lengths = [rec["length"] for rec in data["slopes"]]
    assert lengths[3] == 2.0 * math.sqrt(3.0)


def test_report_recomputation_agrees(hex2_report):
    data = report_to_dict(hex2_report)
    loaded = report_from_dict(data)
    assert loaded.max_delta == 8
    assert loaded.bound.prime == 11
    assert loaded.lemma.injective


def test_accepted_report_words_no_message(hex2_report, tmp_path, monkeypatch):
    # a refusal's message is made only when the loader refuses
    def no_repr(self, obj, level):
        raise AssertionError(f"a value was shown for an accepted report ({type(obj)})")

    data = report_to_dict(hex2_report)
    save_report(hex2_report, tmp_path / "hex2.json")
    # every refusal shows its values through a reprlib.Repr
    monkeypatch.setattr(reprlib.Repr, "repr1", no_repr)
    assert report_from_dict(data) == hex2_report
    assert load_report(tmp_path / "hex2.json") == hex2_report


def test_every_slope_record_in_the_other_sign_rejected(hex2_report):
    # (a, b) and (-a, -b) are one slope; only the canonical sign is written
    data = report_to_dict(hex2_report)
    for i, rec in enumerate(data["slopes"]):
        slopes = list(data["slopes"])
        slopes[i] = {**rec, "a": -rec["a"], "b": -rec["b"]}
        with pytest.raises(ReportFormatError, match="'slopes' does not match"):
            report_from_dict({**data, "slopes": slopes})


def _edit(*path, to):
    """A mutation replacing the value at ``path`` with ``to(old value)``."""

    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = to(data[last])

    return mutate


def _repeat_first_slope(data, at=None):
    """Insert slope 0 again at index ``at`` (by default at the end), with its
    matrix row and column."""
    at = len(data["slopes"]) if at is None else at
    data["slopes"].insert(at, dict(data["slopes"][0]))
    matrix = data["delta_matrix"]
    for row in matrix:
        row.insert(at, row[0])
    matrix.insert(at, list(matrix[0]))


def _swap_first_and_last_slopes(data):
    """Swap slopes 0 and n - 1, permuting the matrix to match."""
    slopes = data["slopes"]
    slopes[0], slopes[-1] = slopes[-1], slopes[0]
    order = list(range(len(slopes)))
    order[0], order[-1] = order[-1], order[0]
    matrix = data["delta_matrix"]
    data["delta_matrix"] = [[matrix[i][j] for j in order] for i in order]


def _sharp_square_unflagged(data):
    """Replace the report by the sharp 6 x 6 square's at T = 6, whose two
    slopes have length exactly 6, with the first one's boundary flag cleared."""
    data.clear()
    data.update(report_to_dict(build_analysis_report(CuspShape((6.0, 0.0), (0.0, 6.0)), 6.0)))
    assert data["slopes"][0]["boundary"] is True
    data["slopes"][0]["boundary"] = False


# (id, mutation of hex2's report dict, fragment of the expected error)
TAMPERS = [
    ("delta_matrix", _edit("delta_matrix", 0, 1, to=lambda d: d + 1), "delta_matrix"),
    ("max_delta", _edit("max_delta", to=lambda _: 9), "max_delta"),
    ("bound", _edit("bound", "prime", to=lambda _: 13), "bound"),
    ("lemma", _edit("lemma", "injective", to=lambda _: False), "lemma"),
    ("non_integer_matrix", _edit("delta_matrix", 0, 1, to=float), "integers"),
    ("none_in_matrix", _edit("delta_matrix", 0, 1, to=lambda _: None), "integers"),
    ("string_in_matrix", _edit("delta_matrix", 0, 1, to=lambda _: "1"), "integers"),
    ("threshold", _edit("threshold", to=lambda _: 7.0), "bound"),
    ("threshold_past_2_53", _edit("threshold", to=lambda _: 1e9), "bound"),
    ("threshold_past_float_range", _edit("threshold", to=lambda _: 10**400),
     "threshold is an integer past the float range"),
    ("negative_area_floor", _edit("bound", "area_floor", to=lambda _: -1.0), "bound"),
    ("lemma_delta", _edit("lemma", "delta", to=lambda _: 11), "lemma"),
    ("lemma_collision", _edit("lemma", "collision", to=lambda _: [[1, 0], [0, 1]]), "lemma"),
    ("floor_guard_hit", _edit("bound", "floor_guard_hit", to=lambda v: not v), "bound"),
    ("slope_sign", _edit("slopes", 0, to=lambda r: {**r, "a": -r["a"], "b": -r["b"]}), "slopes"),
    (
        "missing_boundary",
        _edit("slopes", 0, to=lambda r: {k: v for k, v in r.items() if k != "boundary"}),
        "slopes",
    ),
    ("slope_extra_key", _edit("slopes", 0, to=lambda r: {**r, "note": "x"}), "slopes"),
    ("duplicate_slope", _repeat_first_slope, "slopes"),
    # equal neighbours: the order test must be strict
    ("adjacent_duplicate_slope", lambda d: _repeat_first_slope(d, 1), "slopes"),
    ("slope_order", _swap_first_and_last_slopes, "slopes"),
    # derived fields retyped to equal values of another JSON type
    ("max_delta_float", _edit("max_delta", to=float), "max_delta"),
    ("injective_int", _edit("lemma", "injective", to=int), "lemma"),
    ("floor_guard_hit_int", _edit("bound", "floor_guard_hit", to=int), "bound"),
    ("prime_float", _edit("bound", "prime", to=float), "bound"),
    ("count_bound_float", _edit("bound", "count_bound", to=float), "bound"),
    ("delta_max_float", _edit("bound", "delta_max", to=float), "bound"),
    ("lemma_prime_float", _edit("lemma", "prime", to=float), "lemma prime"),
    # slope records the Slope constructor refuses
    ("non_primitive_slope", _edit("slopes", 0, to=lambda r: {**r, "a": 2, "b": 4}), "primitive"),
    (
        "bool_slope_coordinate",
        _edit("slopes", 0, to=lambda r: {**r, "a": True, "b": 1}),
        "integers",
    ),
    # matrix rows that the packed row compare must reject
    ("negated_entry", _edit("delta_matrix", 0, 1, to=lambda d: -d), "delta_matrix"),
    ("entry_2_64", _edit("delta_matrix", 0, 1, to=lambda _: 2**64), "delta_matrix"),
    ("row_one_short", _edit("delta_matrix", 0, to=lambda row: row[:-1]), "delta_matrix"),
    ("row_one_long", _edit("delta_matrix", 0, to=lambda row: row + [0]), "delta_matrix"),
    (
        "true_for_one",
        _edit("delta_matrix", 0, to=lambda row: [True if d == 1 else d for d in row]),
        "integers",
    ),
    # inclusion and the boundary flag are derived from the length and threshold
    ("boundary_set", _edit("slopes", 0, "boundary", to=lambda _: True), "boundary flag"),
    ("sharp_boundary_cleared", _sharp_square_unflagged, "boundary flag"),
    ("length_past_threshold", _edit("slopes", -1, "length", to=lambda _: 100.0),
     "slope length 100.0 is past the threshold"),
    ("zero_length", _edit("slopes", 0, "length", to=lambda _: 0.0), "slope length must be positive"),
    ("negative_length", _edit("slopes", 0, "length", to=lambda _: -1.0),
     "slope length must be positive"),
    # the top-level key set is exactly the written one
    ("unknown_key", lambda d: d.update(note="x"), "top-level keys"),
    ("misspelled_extra_key", lambda d: d.update(delta_matrx=d["delta_matrix"]), "top-level keys"),
    ("missing_timestamp", lambda d: d.pop("timestamp"), "top-level keys"),
]


@pytest.mark.parametrize(
    "mutate, match", [pytest.param(m, match, id=name) for name, m, match in TAMPERS]
)
def test_tampered_report_rejected(hex2_report, tmp_path, mutate, match):
    data = report_to_dict(hex2_report)
    mutate(data)
    with pytest.raises(ReportFormatError, match=match):
        report_from_dict(data)
    # the same data as a file, in the writer's layout, fails the same way
    path = tmp_path / "tampered.json"
    path.write_text(json_text(data))
    with pytest.raises(ReportFormatError, match=match):
        load_report(path)


@pytest.mark.parametrize(
    "load, match",
    [
        (lambda d: report_from_dict({**d, "format": "x" * 10**6}), "expected format"),
        (lambda d: report_from_dict({**d, "version": "v1" * 10**5}), "incompatible"),
        (lambda d: report_from_dict({**d, **{f"k{i}": 0 for i in range(10**4)}}),
         "top-level keys"),
        (lambda d: parse_cusp_records({"format": "cusp-file", "version": "v1" * 10**5,
                                       "cusps": []}), "incompatible"),
    ],
    ids=["report_format", "report_version", "extra_keys", "cusp_version"],
)
def test_header_and_key_messages_are_short(hex2_report, load, match):
    with pytest.raises(ValueError, match=match) as excinfo:
        load(report_to_dict(hex2_report))
    assert len(str(excinfo.value)) < 500


def _verdict(load):
    """The report ``load()`` returns, or the message of its ReportFormatError."""
    try:
        return load()
    except ReportFormatError as e:
        return str(e)


def _after_lemma(member: str):
    """An edit appending ``member`` to the report's object, after ``lemma``."""
    return lambda t: f"{t[:-2]},{member}}}\n"


# (id, edit of hex2's report text, fragment of the expected error or None when
# the edited text must load); only a text path can meet these files.  The
# second_matrix_after_lemma rows: json.loads keeps the last of duplicate keys,
# so the parsed rest of such a file equals the writer's, and only the loader's
# comparison of the rest as text sends it to the whole parse.
TEXT_EDITS = [
    (
        "second_matrix_null",
        lambda t: t.replace(',"max_delta":', ',"delta_matrix":null,"max_delta":'),
        "delta_matrix",
    ),
    ("second_matrix_after_lemma", _after_lemma('"delta_matrix":[[9]]'), "delta_matrix"),
    ("second_matrix_after_lemma_spaced", _after_lemma('"delta_matrix" :null'), "delta_matrix"),
    ("second_matrix_after_lemma_escaped", _after_lemma('"delta\\u005fmatrix":[[0]]'),
     "delta_matrix"),
    ("trailing_bytes", lambda t: t + "x", "not valid JSON"),
    ("trailing_space", lambda t: t + " ", None),
    ("no_final_newline", lambda t: t[:-1], None),
    ("row_spacing", lambda t: t.replace("[[0,", "[[0, ", 1), None),
    ("matrix_cut_short", lambda t: t.replace("]],", "],", 1), "not valid JSON"),
]


@pytest.mark.parametrize(
    "edit, match", [pytest.param(e, match, id=name) for name, e, match in TEXT_EDITS]
)
def test_edited_report_text_gets_the_full_verdict(
    hex2_report, tmp_path, monkeypatch, edit, match
):
    text = edit(report_to_json(hex2_report))
    assert text != report_to_json(hex2_report)
    path = tmp_path / "edited.json"
    path.write_text(text)
    expected = _verdict(lambda: report_from_dict(report_io._parse_json(text, ReportFormatError)))
    full = []
    monkeypatch.setattr(
        report_io, "report_from_dict", lambda data: full.append(data) or report_from_dict(data)
    )
    verdict = _verdict(lambda: load_report(path))
    assert verdict == expected
    # only the writer's text, up to trailing whitespace, is accepted without
    # the full check, which is not reached when the text is not JSON
    writers = text.rstrip(" \t\n\r") + "\n" == report_to_json(hex2_report)
    assert len(full) == (0 if match == "not valid JSON" or writers else 1)
    if match is None:
        assert verdict == hex2_report
    else:
        assert match in verdict


def _single_character_edits(text: str, count: int, seed: int):
    """``count`` seeded copies of ``text``, each with one character inserted,
    replaced or deleted."""
    rng = random.Random(seed)
    # digits, JSON's punctuation, a backslash and the letters of true, false, null
    alphabet = '0123456789-+.eE,:[]{}" \\aflnrstu'
    for _ in range(count):
        i = rng.randrange(len(text))
        kind = rng.randrange(3)  # 0 inserts, 1 replaces, 2 deletes
        new = rng.choice(alphabet) if kind < 2 else ""
        yield text[:i] + new + text[i + (kind > 0):]


def test_load_report_route_gives_the_whole_parse_verdict(hex2_shape, tmp_path):
    # on seeded edits of a small report's text, load_report's cut-out route
    # (the verdict on the rest, with the matrix compared in place) accepts
    # only what the whole parse accepts, and otherwise gives the whole
    # parse's verdict
    text = report_to_json(build_analysis_report(hex2_shape, 4.0))
    path = tmp_path / "edited.json"
    accepted = 0
    for edited in _single_character_edits(text, 3000, seed=1):
        path.write_text(edited, encoding="utf-8")
        expected = _verdict(
            lambda: report_from_dict(report_io._parse_json(edited, ReportFormatError))
        )
        verdict = _verdict(lambda: load_report(path))
        assert verdict == expected, edited
        accepted += isinstance(verdict, AnalysisReport)
    assert 0 < accepted < 3000


@pytest.mark.parametrize(
    "layout",
    [
        lambda data: json.dumps(data, indent=2),
        lambda data: json_text(dict(reversed(data.items()))),
        lambda data: json_text({**data, "threshold": 6}),
    ],
    ids=["indent_2", "reversed_keys", "int_threshold"],
)
def test_other_layouts_load(hex2_report, tmp_path, layout):
    text = layout(report_to_dict(hex2_report))
    assert text != report_to_json(hex2_report)
    path = tmp_path / "layout.json"
    path.write_text(text)
    assert load_report(path) == report_from_dict(json.loads(text)) == hex2_report


@pytest.fixture(scope="module")
def hex2_at_60_text():
    """The writer's text of hex2's report at T = 60 (990 slopes, 3.7 MB)."""
    shapes, _ = load_cusp_file(FIXTURES / "hex2.json")
    return report_to_json(build_analysis_report(find_shape(shapes, "hex2"), 60.0))


def _second_matrix_after_lemma(text: str) -> str:
    matrix = text[text.index('"delta_matrix":'):text.rindex(',"max_delta":')]
    return _after_lemma(matrix)(text)


# Layout-only edits of a report's text: each must be rebuilt once by
# load_report.  A second "delta_matrix" after lemma may be refused before.
LAYOUTS = [
    ("writer", lambda t: t),
    ("no_final_newline", lambda t: t[:-1]),
    ("trailing_space", lambda t: t + " "),
    ("int_threshold", lambda t: t.replace('"threshold":60.0,', '"threshold":60,', 1)),
    ("spaced", lambda t: json.dumps(json.loads(t))),
    ("indent_2", lambda t: json.dumps(json.loads(t), indent=2)),
    ("reversed_keys", lambda t: json_text(dict(reversed(json.loads(t).items())))),
    ("second_matrix_after_lemma", _second_matrix_after_lemma),
]


@pytest.mark.parametrize("name, layout", LAYOUTS, ids=[name for name, _ in LAYOUTS])
def test_loadable_file_is_rebuilt_once(hex2_at_60_text, tmp_path, monkeypatch, name, layout):
    text = layout(hex2_at_60_text)
    assert (text == hex2_at_60_text) == (name == "writer")
    path = tmp_path / "layout.json"
    path.write_text(text)
    expected = _verdict(lambda: report_from_dict(json.loads(text)))
    calls = []
    crossing_data = report_io.crossing_data
    monkeypatch.setattr(report_io, "crossing_data",
                        lambda slopes: calls.append(len(slopes)) or crossing_data(slopes))
    assert _verdict(lambda: load_report(path)) == expected
    assert calls == [990] or name == "second_matrix_after_lemma" and calls in ([], [990])


# A stored matrix must be exactly the writer's text of the rebuilt one, and
# one shorter than 3n^2 characters is refused before that is computed.  hex2
# at T = 4 has 6 slopes, a census-sized set; the TAMPERS rows above have 12.
@pytest.mark.parametrize(
    "mutate",
    [
        _edit("delta_matrix", 0, 1, to=lambda d: d + 1),
        _edit("delta_matrix", 0, 1, to=lambda d: -d),
        _edit("delta_matrix", 0, to=lambda row: row[:-1]),
        _edit("delta_matrix", 0, to=lambda row: [True if d == 1 else d for d in row]),
    ],
    ids=["entry", "negated_entry", "row_one_short", "true_for_one"],
)
def test_tampered_small_report_rejected(hex2_shape, mutate):
    data = report_to_dict(build_analysis_report(hex2_shape, 4.0))
    assert len(data["slopes"]) == 6
    mutate(data)
    with pytest.raises(ReportFormatError, match="delta_matrix"):
        report_from_dict(data)


def test_edited_matrix_rejected_at_every_size(tmp_path):
    # every size from 0 to 25 slopes, as a dict and as a file in the
    # writer's layout
    path = tmp_path / "edited.json"
    for n in range(0, 26):
        report = _shortest_slopes_report(n)
        data = report_to_dict(report)
        assert report_from_dict(data) == report
        if n == 0:
            continue
        entry, row = report_to_dict(report), report_to_dict(report)
        entry["delta_matrix"][0][-1] += 1
        row["delta_matrix"].pop()
        for edited in (entry, row):
            with pytest.raises(ReportFormatError, match="delta_matrix"):
                report_from_dict(edited)
            path.write_text(json_text(edited))
            with pytest.raises(ReportFormatError, match="delta_matrix"):
                load_report(path)


def test_short_matrix_rejected_before_it_is_computed(hex2_shape, tmp_path, monkeypatch):
    # The writer's text of an n x n matrix has at least 2n^2 + 2n + 1
    # characters; a shorter one is refused without computing the matrix.
    # hex2 at T = 104 has 2,982 slopes, stored as "[]".  hex2 at T = 6 has 12,
    # stored one character under the floor: 11 rows of n zeros and a row one
    # entry short whose first entry has two digits.
    report = build_analysis_report(hex2_shape, 104.0)
    assert len(report.entries) == 2982
    empty = report_io._report_dict(report, [])
    del report
    under = report_to_dict(build_analysis_report(hex2_shape, 6.0))
    n = len(under["slopes"])
    under["delta_matrix"] = [[0] * n] * (n - 1) + [[10] + [0] * (n - 2)]
    assert len(json_text(under["delta_matrix"]).rstrip("\n")) == 2 * n * n + 2 * n
    valid = report_to_dict(build_analysis_report(hex2_shape, 4.0))

    def refuse(slopes):
        raise AssertionError("the crossing matrix was computed")

    # report_io imports the kernel, so patching its binding patches the loader's call
    monkeypatch.setattr(report_io, "crossing_data", refuse)
    for data in (empty, under):
        path = tmp_path / "short.json"
        path.write_text(json_text(data))
        for load in (lambda: load_report(path), lambda: report_from_dict(data)):
            start = time.perf_counter()
            with pytest.raises(ReportFormatError, match="delta_matrix.*integers"):
                load()
            assert time.perf_counter() - start < 1.0
    with pytest.raises(AssertionError, match="crossing matrix was computed"):
        report_from_dict(valid)


@pytest.mark.parametrize("threshold, n", [(4.0, 6), (6.0, 12)], ids=["hex2@4", "hex2@6"])
def test_matrix_at_the_floor_loads_without_the_full_parse(
    hex2_shape, tmp_path, monkeypatch, threshold, n
):
    # every entry has one digit, so the stored matrix is exactly 2n^2 + 2n + 1
    # characters: the floor refuses no valid report
    report = build_analysis_report(hex2_shape, threshold)
    assert len(report.entries) == n
    matrix = json_text(report_to_dict(report)["delta_matrix"]).rstrip("\n")
    assert len(matrix) == 2 * n * n + 2 * n + 1
    path = tmp_path / "floor.json"
    save_report(report, path)

    def refuse(data):
        raise AssertionError("the writer's text went through the full parse")

    monkeypatch.setattr(report_io, "report_from_dict", refuse)
    assert load_report(path) == report


@pytest.mark.parametrize(
    "make", [lambda h: build_analysis_report(h, 6.0), lambda _: _shortest_slopes_report(0)],
    ids=["hex2@6", "0_slopes"],
)
def test_spaced_layout_loads(hex2_shape, tmp_path, monkeypatch, make):
    # files written before the writer was compact put ", " and ": " between
    # tokens; they load through the whole parse to an equal report
    report = make(hex2_shape)
    text = json.dumps(report_to_dict(report), allow_nan=False) + "\n"
    assert '"delta_matrix": [' in text and ', "max_delta": ' in text
    path = tmp_path / "spaced.json"
    path.write_text(text)
    full = []
    monkeypatch.setattr(
        report_io, "report_from_dict", lambda data: full.append(data) or report_from_dict(data)
    )
    assert load_report(path) == report
    assert len(full) == 1


def _deeply_nested(fmt: str) -> str:
    # CPython 3.10 and 3.11 refuse 1,000 levels; 3.13 parses them, but not 10^5
    return f'{{"format": "{fmt}", "version": "v1", "cusps": {"[" * 10**5}{"]" * 10**5}}}'


@pytest.mark.parametrize(
    "load, error, fmt",
    [
        (load_cusp_file, CuspFileError, "cusp-file"),
        (load_report, ReportFormatError, "slope-analysis-report"),
    ],
    ids=["cusp_file", "report"],
)
def test_malformed_files_raise_the_module_error(tmp_path, load, error, fmt):
    deep = tmp_path / "deep.json"
    deep.write_text(_deeply_nested(fmt))
    with pytest.raises(error, match="not valid JSON"):
        load(deep)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(f'{{"format": "{fmt}", "name": "M\xf6bius"}}'.encode("latin-1"))
    with pytest.raises(error, match="not UTF-8"):
        load(latin1)


def test_slopes_past_lane_range_rejected(hex2_report):
    data = report_to_dict(hex2_report)
    data["slopes"] = [
        {"a": 1, "b": 2**31, "length": 1.0, "boundary": False},
        {"a": 2**31, "b": 1, "length": 2.0, "boundary": False},
    ]
    data["delta_matrix"] = [[0, 1], [1, 0]]
    with pytest.raises(ReportFormatError, match=r"2\*\*63"):
        report_from_dict(data)


def test_huge_lemma_prime_rejected(hex2_report):
    data = report_to_dict(hex2_report)
    data["lemma"]["prime"] = 2**89 - 1  # past the exact Miller-Rabin range
    with pytest.raises(ReportFormatError, match="lemma prime"):
        report_from_dict(data)


def test_mersenne_lemma_prime_loads_fast(hex2_report, tmp_path):
    # 2^61 - 1 is prime; trial division would take minutes
    data = report_to_dict(hex2_report)
    data["lemma"]["prime"] = 2**61 - 1
    path = tmp_path / "mersenne.json"
    path.write_text(json_text(data))
    seconds, proc = run_timed(
        "from cuspslopes.report_io import load_report\n"
        "assert load_report(sys.argv[1]).lemma.prime == 2**61 - 1",
        str(path),
    )
    assert proc.returncode == 0, proc.stderr
    assert seconds < 1.0


def test_matrix_built_without_pairwise_calls(hex2_shape, monkeypatch):
    calls = []
    real = cusp_geometry.intersection_number

    def counting_intersection_number(*args):
        calls.append(args)
        return real(*args)

    for module in (cusp_geometry, bound_calculus, slope_search, report_io):
        if hasattr(module, "intersection_number"):
            monkeypatch.setattr(module, "intersection_number", counting_intersection_number)
    short = enumerate_short_slopes(hex2_shape, 20.0)
    report = build_analysis_report(hex2_shape, 20.0)
    assert report_from_dict(report_to_dict(report)) == report
    assert len(short) > 100 and calls == []


@pytest.mark.parametrize("threshold, area_floor", [(6, None), (6.0, 3), (6, 3)])
def test_int_inputs_round_trip(hex2_shape, tmp_path, threshold, area_floor):
    report = build_analysis_report(hex2_shape, threshold, area_floor=area_floor)
    assert type(report.bound.query.length_threshold) is float
    assert type(report.bound.query.area_floor) is float
    path = tmp_path / "ints.json"
    save_report(report, path)
    assert load_report(path) == report


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda shape: build_analysis_report(shape, True), "threshold"),
        (lambda shape: enumerate_short_slopes(shape, False), "threshold"),
        (lambda shape: bound_calculus.BoundQuery(True, 3.35), "length threshold"),
        (lambda shape: bound_calculus.BoundQuery(6.0, True), "area floor"),
    ],
    ids=["report_threshold", "enumerate_threshold", "query_length", "query_area"],
)
def test_bool_is_not_a_number(hex2_shape, call, what):
    # as the loader rejects "threshold": true
    with pytest.raises(ValueError, match=f"^{what} must be a number, got (True|False)$"):
        call(hex2_shape)


def test_writer_matches_public_dict(hex2_shape, tmp_path):
    # report_to_json joins the pieces that load_report compares a file with,
    # the rows made from the packed arrays; they must give the bytes of
    # json_text on the public dict
    shape = random_shape(random.Random(2024), name="seeded")
    reports = [
        build_analysis_report(hex2_shape, 6.0),
        build_analysis_report(hex2_shape, 4.0),
        build_analysis_report(shape, 16.0 * math.sqrt(cusp_geometry.area(shape))),
    ]
    assert len(reports[1].entries) == 6
    assert len(reports[2].entries) > 200
    for report in reports:
        text = json_text(report_to_dict(report))
        assert report_to_json(report) == text
        save_report(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == text


def _shortest_slopes_report(n: int):
    """The report of exactly the n shortest slopes of a generic shape."""
    shape = random_shape(random.Random(7), name="generic")
    lengths = [e.length for e in enumerate_short_slopes(shape, 12.0).entries]
    threshold = lengths[n - 1] if n else lengths[0] / 2
    report = build_analysis_report(shape, threshold)
    assert len(report.entries) == n
    return report


def _loaded_report_far_out(k: int):
    """A report loaded from a dict whose slopes (1, 0), (0, 1) and (k + j, 1)
    need wide lanes: Delta((0, 1), (k + j, 1)) = k + j.  Their lengths
    1/16, ..., 14/16 sit under the threshold 1 and away from it, so the
    loader includes each slope and flags none."""
    slopes = [Slope(1, 0), Slope(0, 1)] + [Slope(k + j, 1) for j in range(12)]
    data = report_to_dict(build_analysis_report(CuspShape((1.0, 0.0), (0.0, 1.0)), 1.0))
    matrix, max_delta = slope_search.crossing_data(slopes)
    data.update(
        slopes=[
            {"a": s.a, "b": s.b, "length": (i + 1) / 16, "boundary": False}
            for i, s in enumerate(slopes)
        ],
        delta_matrix=[list(row) for row in matrix],
        max_delta=max_delta,
        lemma=report_io.lemma_to_dict(
            bound_calculus.verify_counting_lemma(slopes, data["lemma"]["prime"])
        ),
    )
    return report_from_dict(data)


def _named(name: str):
    return lambda hex2_shape: build_analysis_report(
        CuspShape(hex2_shape.meridian, hex2_shape.longitude, name=name), 6.0
    )


@pytest.mark.parametrize(
    "make, lane_bytes",
    [
        (lambda _: _shortest_slopes_report(0), None),
        (lambda _: _shortest_slopes_report(1), 1),
        # 11 and 12 slopes: either side of where a pair-by-pair branch once took over
        (lambda _: _shortest_slopes_report(11), 1),
        (lambda _: _shortest_slopes_report(12), 1),
        (lambda _: _loaded_report_far_out(10**5), 4),
        # entries past 2**40: no table indexed by value could be built for them
        (lambda _: _loaded_report_far_out(2**40), 8),
        (_named('"delta_matrix": null'), 1),
        (_named('x", "delta_matrix": null, "y": "'), 1),
        (_named('"delta_matrix":null'), 1),
        (_named('x","delta_matrix":null,"y":"'), 1),
        (_named('say "hi"'), 1),
        (_named("back\\slash\\"), 1),
        (_named("Möbius Δ 双曲 \U0001d6ab"), 1),
    ],
    ids=[
        "0_slopes", "1_slope", "below_packed", "at_packed", "32_bit_lanes", "64_bit_lanes",
        "name_matrix_null", "name_closing_quote", "name_compact_matrix_null",
        "name_compact_closing_quote", "name_quotes", "name_backslash", "name_non_ascii",
    ],
)
def test_writer_edge_cases(hex2_shape, tmp_path, monkeypatch, make, lane_bytes):
    report = make(hex2_shape)
    assert {row.itemsize for row in report.delta_matrix.rows} == (
        set() if lane_bytes is None else {lane_bytes}
    )
    text = report_to_json(report)
    assert text == json_text(report_to_dict(report))
    path = tmp_path / "r.json"
    save_report(report, path)
    assert path.read_text(encoding="utf-8") == text

    def refuse(data):
        raise AssertionError("the writer's text went through the full parse")

    # the writer's text loads without its matrix being parsed
    monkeypatch.setattr(report_io, "report_from_dict", refuse)
    assert load_report(path) == report


# sha256 of report_to_json with tool_version "0", taken with the compact
# writer; each equals the sha256 of the spaced writer's text before it with
# ", " made "," and ": " made ":", so the data written are the same.  Any
# drift in the bytes written fails here.  Census regimes: (6, 3.35) and
# (2 pi, sqrt 3).
PINNED_DIGESTS = [
    ("hex2", 6.0, None, "b5af69c7dfaec8c061172efa1bbb6ae606404210dfb28b1e86f2fa888b5a32e6"),
    ("hex2", 20.0, None, "6f909cb96e93edfd9c99443e7418e58d9f059dd299c6b4b4e0f95a42f00daa91"),
    ("hex2", 60.0, None, "aad17167e106d16a26800ce4df80b9e6490726afcafb0a58a4ed85b9e2d6eca8"),
    (1, 6.0, 3.35, "ee45b097fc5a518012aa5d41c26c9b16544ad20364233120763508308b7219c0"),
    (1, 2 * math.pi, math.sqrt(3.0),
     "dfbf3a38ca0e81fb8ae0ab89394579be3985ac3392e1a63b9e25e19c74d6e3a9"),
    (2, 6.0, 3.35, "672d1efaf445eda473679eaae9b69949b229873596e78dd67eab141c3bc66dbf"),
    (2, 2 * math.pi, math.sqrt(3.0),
     "1e28b6e72ff086bb20f82739435ca1b8b9d6bd29647563808ca58ff7410a272f"),
    (3, 6.0, 3.35, "496cff3edf786a61dcdab652940c7fb2a37ed3f03f4d75fe3c61e0972d1472c3"),
    (3, 2 * math.pi, math.sqrt(3.0),
     "596060509bb112b296de6b0095267b5757f724acacb745b640b985ddf58c56fc"),
]


@pytest.mark.parametrize(
    "shape_seed, threshold, area_floor, digest",
    PINNED_DIGESTS,
    ids=[f"{s}@{t:.4g}" for s, t, _f, _d in PINNED_DIGESTS],
)
def test_report_bytes_pinned(hex2_shape, tmp_path, shape_seed, threshold, area_floor, digest):
    shape = (
        hex2_shape
        if shape_seed == "hex2"
        else random_shape(random.Random(shape_seed), name=f"random{shape_seed}")
    )
    report = build_analysis_report(shape, threshold, area_floor=area_floor)
    report = AnalysisReport(
        report.shape_name, report.threshold, report.entries, report.delta_matrix,
        report.max_delta, report.bound, report.lemma, tool_version="0",
    )
    text = report_to_json(report)
    save_report(report, tmp_path / "r.json")
    on_disk = (tmp_path / "r.json").read_text()
    # the writer is the stdlib's compact JSON of the public dict, in memory
    # and on disk; compared as flags, since pytest's diff of two unequal
    # multi-MB lines takes minutes
    assert [text == _stdlib_compact(report_to_dict(report)), on_disk == text] == [True, True]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reports_keep_the_matrix_packed(hex2_shape, tmp_path):
    # hex2 at T = 60 has 990 slopes; held as Python ints its matrix took
    # about 22 MiB, packed in 16-bit lanes it takes about 2 MiB.  Parsing the
    # whole 3.7 MB file makes the matrix's ints and peaks near 28 MiB, so
    # load_report must not parse the matrix of a file it wrote.
    path = tmp_path / "h60.json"
    save_report(build_analysis_report(hex2_shape, 60.0), path)
    kept, peak = {}, {}
    tracemalloc.start()
    try:
        for name, make in (
            ("built", lambda: build_analysis_report(hex2_shape, 60.0)),
            ("loaded", lambda: load_report(path)),
        ):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = make()
            peak[name] = tracemalloc.get_traced_memory()[1] - base
            gc.collect()
            kept[name] = tracemalloc.get_traced_memory()[0] - base
            assert len(report.entries) == 990
            del report
    finally:
        tracemalloc.stop()
    assert max(kept.values()) < 4 * 2**20, kept
    assert peak["loaded"] < 12 * 2**20, peak


def test_json_text_one_line_and_finite_only():
    assert json_text({"x": [0.1, 2.0], "y": None}) == '{"x":[0.1,2.0],"y":null}\n'
    with pytest.raises(ValueError):
        json_text({"x": math.nan})
    with pytest.raises(ValueError):
        json_text([math.inf])


def test_version_mismatch_is_explicit(hex2_report):
    data = report_to_dict(hex2_report)
    data["version"] = "v2"
    with pytest.raises(ReportFormatError, match="incompatible"):
        report_from_dict(data)


def test_nan_length_rejected(hex2_report, tmp_path):
    text = report_to_json(hex2_report).replace("2.0", "NaN", 1)
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ReportFormatError):
        load_report(path)


def test_boundary_flag_must_be_boolean(hex2_report):
    data = report_to_dict(hex2_report)
    data["slopes"][0]["boundary"] = "false"
    with pytest.raises(ReportFormatError, match="boundary"):
        report_from_dict(data)


def test_report_area_floor_defaults_to_shape_area(hex2_shape, hex2_report):
    assert hex2_report.bound.query.area_floor == pytest.approx(2.0 * math.sqrt(3.0))
    # hex2's own area gives the same 12-count conclusion as the census floor
    assert hex2_report.bound.count_bound == 12


def test_report_with_explicit_floor_and_prime(hex2_shape):
    report = build_analysis_report(hex2_shape, 6.0, area_floor=3.35, prime=13)
    assert report.bound.query.area_floor == 3.35
    assert report.lemma.prime == 13
    assert report.lemma.injective


def _seeded_text(rng: random.Random) -> str:
    """A string of up to 12 code points, from ASCII (controls and quotes
    too) up to lone surrogates and the astral planes."""
    return "".join(chr(rng.choice((rng.randrange(128), rng.randrange(0x110000))))
                   for _ in range(rng.randrange(13)))


def test_what_the_program_writes_loads_back_equal(tmp_path):
    # A name or a timestamp is either refused where the shape or the report
    # is built, or the cusp file and the report the program writes of it load
    # back equal.  An unnamed shape (None or "") is written as cusp<i>.
    rng = random.Random(2727)
    texts = list(dict.fromkeys(
        [None, "", "hex2", '"\\\n\x00', "\ud800", "x" * 1000]
        + [_seeded_text(rng) for _ in range(24)]))
    others = [5, 5.0, True, b"x", ["x"], {"x": 1}]
    shapes = []
    for value in texts + others:
        try:
            shapes.append(CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name=value))
        except ValueError as e:
            assert value in others and str(e).startswith("cusp name must be a string")
    assert len(shapes) == len(texts)
    path = tmp_path / "cusps.json"
    save_cusp_file(shapes, path)
    assert load_cusp_file(path) == (
        [CuspShape(s.meridian, s.longitude, name=s.name or f"cusp{i}")
         for i, s in enumerate(shapes)], [])
    for shape, timestamp in zip(shapes, rng.sample(texts + others * 4, len(shapes))):
        try:
            report = build_analysis_report(shape, 6.0, timestamp=timestamp)
        except ValueError as e:
            assert timestamp in others and str(e).startswith("timestamp must be a string")
            continue
        assert report_from_dict(json.loads(report_to_json(report))) == report
        save_report(report, tmp_path / "report.json")
        assert load_report(tmp_path / "report.json") == report


def test_report_timestamp_round_trip(hex2_shape, tmp_path):
    report = build_analysis_report(hex2_shape, 6.0, timestamp="2024-05-01T00:00:00+00:00")
    path = tmp_path / "stamped.json"
    save_report(report, path)
    assert load_report(path).timestamp == "2024-05-01T00:00:00+00:00"
