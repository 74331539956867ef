"""Cusp-file ingestion and analysis-report round-trip tests."""

from __future__ import annotations

import gc
import io
import json
import math
import random
import tracemalloc

import pytest

from cuspslopes import bound_calculus, cusp_geometry, report_io, slope_search
from cuspslopes.cusp_geometry import CuspShape, Slope
from cuspslopes.report_io import (
    CuspFileError,
    ReportFormatError,
    build_analysis_report,
    find_shape,
    json_text,
    load_cusp_file,
    load_report,
    parse_cusp_records,
    report_from_dict,
    report_to_dict,
    report_to_json,
    save_cusp_file,
    save_report,
)
from cuspslopes.slope_search import enumerate_short_slopes

from conftest import FIXTURES, random_shape, run_timed


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
        ],
    }
    shapes, errors = parse_cusp_records(data)
    assert [s.name for s in shapes] == ["a"]
    assert [e.index for e in errors] == [1, 2, 3, 4]


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
    assert '"source": "reconstructed"' in path.read_text()


def test_stdin_ingestion(monkeypatch, fixtures_dir):
    monkeypatch.setattr("sys.stdin", io.StringIO((fixtures_dir / "hex2.json").read_text()))
    shapes, errors = load_cusp_file("-")
    assert errors == [] and len(shapes) == 2


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


def _edit(*path, to):
    """A mutation replacing the value at ``path`` with ``to(old value)``."""

    def mutate(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = to(data[last])

    return mutate


def _repeat_first_slope(data):
    """Append slope 0 again, with its matrix row and column."""
    data["slopes"].append(dict(data["slopes"][0]))
    matrix = data["delta_matrix"]
    for row in matrix:
        row.append(row[0])
    matrix.append(list(matrix[0]))


def _swap_first_and_last_slopes(data):
    """Swap slopes 0 and n - 1, permuting the matrix to match."""
    slopes = data["slopes"]
    slopes[0], slopes[-1] = slopes[-1], slopes[0]
    order = list(range(len(slopes)))
    order[0], order[-1] = order[-1], order[0]
    matrix = data["delta_matrix"]
    data["delta_matrix"] = [[matrix[i][j] for j in order] for i in order]


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
    ("duplicate_slope", _repeat_first_slope, "slopes"),
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
]


@pytest.mark.parametrize(
    "mutate, match", [pytest.param(m, match, id=name) for name, m, match in TAMPERS]
)
def test_tampered_report_rejected(hex2_report, mutate, match):
    data = report_to_dict(hex2_report)
    mutate(data)
    with pytest.raises(ReportFormatError, match=match):
        report_from_dict(data)


# hex2 at T = 4 has 6 slopes, fewer than _PACKED_MIN_SLOPES, so its matrix is
# checked pair by pair; the TAMPERS rows above check 12 slopes through the
# packed rows.
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
    assert len(data["slopes"]) < slope_search._PACKED_MIN_SLOPES
    mutate(data)
    with pytest.raises(ReportFormatError, match="delta_matrix"):
        report_from_dict(data)


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
    # report_to_json writes the packed rows one at a time; it must give the
    # bytes of json_text on the public dict
    shape = random_shape(random.Random(2024), name="seeded")
    reports = [
        build_analysis_report(hex2_shape, 6.0),
        build_analysis_report(hex2_shape, 4.0),
        build_analysis_report(shape, 16.0 * math.sqrt(cusp_geometry.area(shape))),
    ]
    assert len(reports[1].entries) < slope_search._PACKED_MIN_SLOPES
    assert len(reports[2].entries) > 200
    for report in reports:
        text = json_text(report_to_dict(report))
        assert report_to_json(report) == text
        save_report(report, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == text


def test_reports_keep_the_matrix_packed(hex2_shape, tmp_path):
    # hex2 at T = 60 has 990 slopes; held as Python ints its matrix took
    # about 22 MiB, packed in 16-bit lanes it takes about 2 MiB
    path = tmp_path / "h60.json"
    save_report(build_analysis_report(hex2_shape, 60.0), path)
    kept = {}
    tracemalloc.start()
    try:
        for name, make in (
            ("built", lambda: build_analysis_report(hex2_shape, 60.0)),
            ("loaded", lambda: load_report(path)),
        ):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            report = make()
            gc.collect()
            kept[name] = tracemalloc.get_traced_memory()[0] - base
            assert len(report.entries) == 990
            del report
    finally:
        tracemalloc.stop()
    assert max(kept.values()) < 4 * 2**20, kept


def test_json_text_one_line_and_finite_only():
    assert json_text({"x": [0.1, 2.0], "y": None}) == '{"x": [0.1, 2.0], "y": null}\n'
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


def test_report_timestamp_round_trip(hex2_shape, tmp_path):
    report = build_analysis_report(hex2_shape, 6.0, timestamp="2024-05-01T00:00:00+00:00")
    path = tmp_path / "stamped.json"
    save_report(report, path)
    assert load_report(path).timestamp == "2024-05-01T00:00:00+00:00"
