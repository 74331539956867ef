"""One rule for every number a caller passes in.

A real input (a length, an area, a radius, a cusp coordinate) is an ``int``
or ``float``, not a ``bool``, and finite as a float; a count input (a genus,
a puncture count, a prime, a canvas size) is an ``int``, not a ``bool``,
inside the float range, and inside the field's own range.  A point (a cusp
vector) is a tuple or list of exactly two reals, and the audit's lengths are
a tuple or list of reals.  A text input (a cusp name, a timestamp, a loaded
report's names) is a ``str``, or None where it may be absent.  Each entry
point refuses anything else
with a ``ValueError`` (or its module's subclass) whose short message starts
with the name of the field, and gives an int the same result as the equal
float.
"""

from __future__ import annotations

import math

import pytest

from cuspslopes.bound_calculus import (
    BoundQuery,
    project_to_fp,
    smallest_prime_greater,
    verify_counting_lemma,
)
from cuspslopes.cli import main
from cuspslopes.cusp_geometry import (
    CuspShape,
    DegenerateBasisError,
    NonPrimitiveSlopeError,
    Slope,
)
from cuspslopes.diagram import DiagramSpec
from cuspslopes.halfplane_geometry import (
    HorodiskPair,
    WrappingQuery,
    boundary_length_lower_bound,
)
from cuspslopes.report_io import (
    CuspFileError,
    ReportFormatError,
    build_analysis_report,
    find_shape,
    parse_cusp_records,
    report_from_dict,
    report_to_dict,
)
from cuspslopes.slope_search import classify_slope, enumerate_short_slopes
from cuspslopes.surface_audit import (
    SurfaceAudit,
    SurfaceType,
    boroczky_check,
    check_cusp_length_inequality,
    doubled_surface_chain,
    euler_characteristic,
    gauss_bonnet_area,
    punctured_sphere_feasible,
)

from conftest import FIXTURES

HEX2 = CuspShape((2.0, 0.0), (1.0, math.sqrt(3.0)), name="hex2")
HEX2_DICT = report_to_dict(build_analysis_report(HEX2, 6.0))

# the last input of each list here and of PAIR_INPUTS: a container holding an
# int past 4,300 digits, which ``repr`` refuses to show
REAL_INPUTS = [True, "2", None, [0] * 10**5, 10**400, -(10**400), math.nan, math.inf,
               [10**5000]]
REAL_IDS = ["bool", "str", "none", "long_list", "int_1e400", "int_minus_1e400", "nan", "inf",
            "list_int_1e5000"]
COUNT_INPUTS = [True, 2.5, "2", 10**400, -(10**400), [10**5000]]
COUNT_IDS = ["bool", "float", "str", "int_1e400", "int_minus_1e400", "list_int_1e5000"]


def _with_threshold(x):
    return report_from_dict({**HEX2_DICT, "threshold": x})


def _with_first_length(x):
    slopes = [dict(rec) for rec in HEX2_DICT["slopes"]]
    slopes[0]["length"] = x
    return report_from_dict({**HEX2_DICT, "slopes": slopes})


def _with_area_floor(x):
    return report_from_dict({**HEX2_DICT, "bound": {**HEX2_DICT["bound"], "area_floor": x}})


def _with_lemma_prime(x):
    return report_from_dict({**HEX2_DICT, "lemma": {**HEX2_DICT["lemma"], "prime": x}})


# (id, call with the input in one real slot, field, error, an int the slot accepts or None)
REAL_SLOTS = [
    ("shape_meridian", lambda x: CuspShape((x, 0), (0, 1)), "cusp meridian[0]",
     DegenerateBasisError, 2),
    ("shape_longitude", lambda x: CuspShape((1, 0), (0, x)), "cusp longitude[1]",
     DegenerateBasisError, 3),
    ("query_length", lambda x: BoundQuery(x, 3.35), "length threshold", ValueError, 6),
    ("query_area", lambda x: BoundQuery(6.0, x), "area floor", ValueError, 3),
    ("enumerate_threshold", lambda x: enumerate_short_slopes(HEX2, x), "threshold",
     ValueError, 6),
    ("report_threshold", lambda x: build_analysis_report(HEX2, x), "threshold", ValueError, 6),
    ("report_area_floor", lambda x: build_analysis_report(HEX2, 6.0, area_floor=x),
     "area floor", ValueError, 3),
    ("pair_r", lambda x: HorodiskPair(x, 2.0), "radius r", ValueError, 1),
    ("pair_R", lambda x: HorodiskPair(1.0, x), "radius R", ValueError, 2),
    ("wrapping_epsilon", lambda x: WrappingQuery(x, 3.0), "epsilon", ValueError, 1),
    ("wrapping_loop", lambda x: WrappingQuery(1.0, x), "loop length", ValueError, 3),
    ("audit_length", lambda x: SurfaceAudit(SurfaceType(1, 1), (x,)), "cusp slope length",
     ValueError, 6),
    ("boroczky_horocusp", lambda x: boroczky_check(x, 4.0), "horocusp area", ValueError, 1),
    ("boroczky_surface", lambda x: boroczky_check(1.0, x), "surface area", ValueError, 4),
    ("sphere_length", lambda x: punctured_sphere_feasible(4, x), "slope length", ValueError, 4),
    ("doubled_length", lambda x: doubled_surface_chain(5, 3, x, 0.5), "slope length",
     ValueError, 7),
    ("doubled_epsilon", lambda x: doubled_surface_chain(8, 2, 7.0, x), "epsilon", ValueError, 1),
    ("classify_threshold", lambda x: classify_slope(HEX2, Slope(1, 0), x), "threshold",
     ValueError, 6),
    ("loaded_threshold", _with_threshold, "threshold", ReportFormatError, None),
    ("loaded_length", _with_first_length, "slope length", ReportFormatError, None),
    ("loaded_area_floor", _with_area_floor, "bound area", ReportFormatError, None),
]

# (id, call with the input in one count slot, field)
COUNT_SLOTS = [
    ("spec_extent", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), lattice_extent=x),
     "lattice_extent"),
    ("spec_width", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), width=x), "width"),
    ("spec_height", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), height=x),
     "height"),
    ("surface_genus", lambda x: SurfaceType(x, 1), "genus"),
    ("surface_punctures", lambda x: SurfaceType(1, x), "punctures"),
    ("surface_boundary", lambda x: SurfaceType(1, 1, x), "boundary circles"),
    ("doubled_n", lambda x: doubled_surface_chain(x, 3, 7.0, 0.5), "n"),
    ("doubled_j", lambda x: doubled_surface_chain(5, x, 7.0, 0.5), "j"),
    ("sphere_n", lambda x: punctured_sphere_feasible(x, 7.0), "n"),
    ("boundary_j", lambda x: boundary_length_lower_bound(x), "j"),
    ("next_prime", lambda x: smallest_prime_greater(x), "r"),
    ("lemma_modulus", lambda x: verify_counting_lemma([Slope(1, 0)], x), "modulus"),
    ("fp_modulus", lambda x: project_to_fp(Slope(1, 0), x), "modulus"),
]


def _check_refusal(excinfo, error, field):
    assert excinfo.type is error
    message = str(excinfo.value)
    assert message.startswith(f"{field} "), message[:200]
    assert len(message) < 200, message[:200]


@pytest.mark.parametrize(
    "call, field, error, x",
    [
        pytest.param(c, f, e, x, id=f"{i}-{x_id}")
        for i, c, f, e, _ in REAL_SLOTS
        for x, x_id in zip(REAL_INPUTS, REAL_IDS)
        if not (i == "report_area_floor" and x is None)  # None asks for the shape's area
    ],
)
def test_real_input_refused_with_the_field_named(call, field, error, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, error, field)


@pytest.mark.parametrize("x", COUNT_INPUTS, ids=COUNT_IDS)
@pytest.mark.parametrize("call, field", [pytest.param(c, f, id=i) for i, c, f in COUNT_SLOTS])
def test_count_input_refused_with_the_field_named(call, field, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, ValueError, field)


@pytest.mark.parametrize(
    "call, value",
    [pytest.param(c, v, id=i) for i, c, _, _, v in REAL_SLOTS if v is not None],
)
def test_int_gives_the_result_of_the_equal_float(call, value):
    as_int, as_float = call(value), call(float(value))
    assert as_int == as_float and repr(as_int) == repr(as_float)


# containers of reals: a tuple or list, of exactly two for a cusp vector
PAIR_INPUTS = [None, (1,), (1, 0, 5), [0] * 10**5, 6.0, "12", b"12", {0: 1, 1: 0}, range(1, 3),
               [10**5000, 0, 0]]
PAIR_IDS = ["none", "one_tuple", "three_tuple", "long_list", "float", "str", "bytes", "dict",
            "range", "list_int_1e5000"]

# (id, call with the input in one container slot, field, error)
CONTAINER_SLOTS = [
    ("shape_meridian", lambda x: CuspShape(x, (0, 1)), "cusp meridian", DegenerateBasisError),
    ("shape_longitude", lambda x: CuspShape((1, 0), x), "cusp longitude", DegenerateBasisError),
    ("loaded_meridian", lambda x: _record_error({"meridian": x, "longitude": [0, 1]}),
     "cusp meridian", ValueError),
]


def _record_error(record):
    """The one record error of a cusp file holding ``record``, raised."""
    data = {"format": "cusp-file", "version": "v1", "cusps": [{"name": "x", **record}]}
    shapes, errors = parse_cusp_records(data)
    assert shapes == [] and len(errors) == 1
    raise ValueError(errors[0].message)


@pytest.mark.parametrize("x", PAIR_INPUTS, ids=PAIR_IDS)
@pytest.mark.parametrize(
    "call, field, error", [pytest.param(c, f, e, id=i) for i, c, f, e in CONTAINER_SLOTS]
)
def test_pair_input_refused_with_the_field_named(call, field, error, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, error, field)


# non-strings: each is refused where a name or timestamp is built or loaded
TEXT_INPUTS = [5, 5.0, True, b"x", ["x"], {"x": 1}, [10**5000]]
TEXT_IDS = ["int", "float", "bool", "bytes", "list", "dict", "list_int_1e5000"]

# (id, call with the input in one text slot, field, error)
TEXT_SLOTS = [
    ("shape_name", lambda x: CuspShape((1, 0), (0, 1), name=x), "cusp name", ValueError),
    ("report_timestamp", lambda x: build_analysis_report(HEX2, 6.0, timestamp=x), "timestamp",
     ValueError),
    ("loaded_shape_name", lambda x: report_from_dict({**HEX2_DICT, "shape_name": x}),
     "shape_name", ReportFormatError),
    ("loaded_tool_version", lambda x: report_from_dict({**HEX2_DICT, "tool_version": x}),
     "tool_version", ReportFormatError),
    ("loaded_timestamp", lambda x: report_from_dict({**HEX2_DICT, "timestamp": x}),
     "timestamp", ReportFormatError),
    ("loaded_cusp_name", lambda x: _record_error({"name": x, "meridian": [1, 0],
                                                  "longitude": [0, 1]}), "name", ValueError),
]


@pytest.mark.parametrize("x", TEXT_INPUTS, ids=TEXT_IDS)
@pytest.mark.parametrize(
    "call, field, error", [pytest.param(c, f, e, id=i) for i, c, f, e in TEXT_SLOTS]
)
def test_text_input_refused_with_the_field_named(call, field, error, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, error, field)


@pytest.mark.parametrize("x", [None, 6.0, "6", b"6", {6.0}, range(6, 7)],
                         ids=["none", "float", "str", "bytes", "set", "range"])
def test_audit_lengths_must_be_a_tuple_or_list(x):
    with pytest.raises(ValueError) as excinfo:
        SurfaceAudit(SurfaceType(1, 1), x)
    _check_refusal(excinfo, ValueError, "cusp slope lengths")


# (id, call with an in-range-of-floats int that is out of the field's range, field)
RANGE_SLOTS = [
    ("next_prime_r", smallest_prime_greater, "r", [-1, -(10**300)]),
    ("sphere_n", lambda x: punctured_sphere_feasible(x, 7.0), "n", [2, -(10**300)]),
    ("surface_genus", lambda x: SurfaceType(x, 1), "genus", [-1, -(10**300)]),
    ("surface_punctures", lambda x: SurfaceType(1, x), "punctures", [-1, -(10**300)]),
    ("surface_boundary", lambda x: SurfaceType(1, 1, x), "boundary circles", [-1, -(10**300)]),
    ("boundary_j", boundary_length_lower_bound, "j", [-1, -(10**300)]),
    ("doubled_j_negative", lambda x: doubled_surface_chain(5, x, 7.0, 0.5), "j",
     [-1, -(10**300)]),
    ("doubled_j_past_n", lambda x: doubled_surface_chain(10**300, x, 7.0, 0.5), "j",
     [10**300 + 1, 10**301]),
    ("spec_extent", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), lattice_extent=x),
     "lattice_extent", [0, -(10**300)]),
    ("spec_width", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), width=x), "width",
     [0, -(10**300)]),
    ("spec_height", lambda x: DiagramSpec(enumerate_short_slopes(HEX2, 6.0), height=x),
     "height", [0, -(10**300)]),
]


@pytest.mark.parametrize(
    "call, field, x",
    [
        pytest.param(c, f, x, id=f"{i}-{k}")
        for i, c, f, xs in RANGE_SLOTS
        for k, x in enumerate(xs)
    ],
)
def test_out_of_range_count_refused_with_a_short_message(call, field, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, ValueError, field)


# The REAL_SLOTS whose field must also be positive (``_positive``); the
# others have their own range: a cusp coordinate is any real, R is at least
# r, a loop length is nonnegative and a doubled surface's slope length is past
# 6 + epsilon.
_POSITIVE_IDS = {
    "query_length", "query_area", "enumerate_threshold", "report_threshold",
    "report_area_floor", "pair_r", "wrapping_epsilon", "audit_length", "boroczky_horocusp",
    "boroczky_surface", "sphere_length", "doubled_epsilon", "classify_threshold",
    "loaded_threshold", "loaded_length", "loaded_area_floor",
}

# (id, call with one input in a slot, field, error, finite inputs out of the
# field's range): reals that are not positive, a prime past the range where
# ``is_prime`` decides primality, and an R below r
REAL_RANGE_SLOTS = [
    (i, c, f, e, [0.0, -0.0, -1.0]) for i, c, f, e, _ in REAL_SLOTS if i in _POSITIVE_IDS
] + [
    ("lemma_modulus", lambda x: verify_counting_lemma([Slope(1, 0)], x), "modulus",
     ValueError, [2**89 - 1]),
    ("fp_modulus", lambda x: project_to_fp(Slope(1, 0), x), "modulus", ValueError,
     [2**89 - 1]),
    ("loaded_lemma_prime", _with_lemma_prime, "lemma prime", ReportFormatError, [2**89 - 1]),
    ("pair_R_below_r", lambda x: HorodiskPair(1.0, x), "radius R", ValueError, [0.5]),
]


@pytest.mark.parametrize(
    "call, field, error, x",
    [
        pytest.param(c, f, e, x, id=f"{i}-{x!r}")
        for i, c, f, e, xs in REAL_RANGE_SLOTS
        for x in xs
    ],
)
def test_out_of_range_real_or_modulus_refused_with_a_short_message(call, field, error, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    _check_refusal(excinfo, error, field)


@pytest.mark.parametrize("x", [[], None, "x", 5], ids=["list", "none", "str", "int"])
@pytest.mark.parametrize(
    "parse, error",
    [(report_from_dict, ReportFormatError), (parse_cusp_records, CuspFileError)],
    ids=["report", "cusp_file"],
)
def test_parser_refuses_a_non_object_with_its_own_error(parse, error, x):
    # the check a loaded file meets, also when the caller parsed the JSON
    with pytest.raises(ValueError) as excinfo:
        parse(x)
    assert excinfo.type is error
    assert str(excinfo.value) == "top level must be a JSON object"


def _duplicate_record(name: str):
    """The record error of a cusp file holding two records named ``name``, raised."""
    record = {"name": name, "meridian": [1, 0], "longitude": [0, 1]}
    data = {"format": "cusp-file", "version": "v1", "cusps": [record, record]}
    shapes, errors = parse_cusp_records(data)
    assert len(shapes) == 1 and len(errors) == 1
    raise CuspFileError(str(errors[0]))


def _find_among(count: int):
    shapes = [CuspShape((1, 0), (0, 1), name=f"cusp{i:05d}") for i in range(count)]
    find_shape(shapes, "missing")


# (id, call that refuses a large input, error, text the message holds): no
# refusal prints its input whole, and an int's bound is named before the
# float range
LARGE_INPUT_REFUSALS = [
    ("find_shape_2000_names", lambda: _find_among(2000), CuspFileError,
     "no cusp named 'missing' (2000 available: 'cusp00000', 'cusp00001', 'cusp00002', ...)"),
    ("duplicate_long_name", lambda: _duplicate_record("n" * 1000), CuspFileError,
     "duplicate name 'nnnnnnnnnnnn"),
    ("audit_5000_lengths", lambda: SurfaceAudit(SurfaceType(0, 10**6), (1e308,) * 5000),
     ValueError, "cusp slope lengths (1e+308, "),
    ("slope_5000_digits", lambda: Slope(2 * 10**5000, 4), NonPrimitiveSlopeError,
     "slope is not a primitive class (gcd(a, b) != 1)"),
    ("slope_float", lambda: Slope(2.0, 1), NonPrimitiveSlopeError,
     "slope coordinates must be integers"),
    ("next_prime_minus_1e400", lambda: smallest_prime_greater(-(10**400)), ValueError,
     "r must be at least 0, got a 1329-bit integer"),
    ("next_prime_minus_1e5000", lambda: smallest_prime_greater(-(10**5000)), ValueError,
     "r must be at least 0, got a 16610-bit integer"),
    ("genus_minus_1e400", lambda: SurfaceType(-(10**400), 1), ValueError,
     "genus must be at least 0, got a 1329-bit integer"),
]


@pytest.mark.parametrize(
    "call, error, text", [pytest.param(c, e, t, id=i) for i, c, e, t in LARGE_INPUT_REFUSALS]
)
def test_large_input_refused_with_a_short_message(call, error, text):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert excinfo.type is error
    message = str(excinfo.value)
    assert text in message and len(message) < 200, message[:200]


@pytest.mark.parametrize("x", REAL_INPUTS + ["y" * 10**6], ids=REAL_IDS + ["long_str"])
def test_cusp_record_error_is_short_and_names_the_coordinate(x):
    data = {
        "format": "cusp-file",
        "version": "v1",
        "cusps": [{"name": "x", "meridian": [x, 0], "longitude": [0, 1]}],
    }
    shapes, errors = parse_cusp_records(data)
    assert shapes == [] and len(errors) == 1
    assert errors[0].message.startswith("cusp meridian[0] ")
    assert len(str(errors[0])) < 200


def test_largest_surfaces_audit_without_overflow():
    # a SurfaceType that constructs gives finite floats in every audit
    genus = 10**307
    for surface in (SurfaceType(genus, 1), SurfaceType(0, 2 * genus), SurfaceType(0, 3, genus)):
        assert math.isfinite(gauss_bonnet_area(surface))
        verdict = check_cusp_length_inequality(SurfaceAudit(surface, (1.0,)))
        assert verdict.passed and math.isfinite(verdict.rhs)
        assert euler_characteristic(surface) < 0
    with pytest.raises(ValueError, match="^surface is too large"):
        SurfaceType(10**308, 0)


@pytest.mark.parametrize(
    "argv, field",
    [
        (["audit", "--surface", f"{10**400},1,0", "--lengths", "6"], "genus"),
        (["horodisk", "--separation", "1", "1e999"], "radius R"),
        (["horodisk", "--separation", "1", "0.5"], "radius R"),
        (["horodisk", "--wrapping", "nan", "1"], "epsilon"),
        (["bound", "--length", "inf"], "length threshold"),
        (["bound", "--area", "-1"], "area floor"),
        (["horodisk", "--separation", "-1", "2"], "radius r"),
        (["slopes", "--cusp", str(FIXTURES / "hex2.json"), "--name", "hex2",
          "--threshold", "1e300"], "threshold"),
    ],
    ids=["audit_genus", "horodisk_radius", "horodisk_R_below_r", "wrapping_epsilon",
         "bound_length", "bound_area", "horodisk_negative_r", "slopes_threshold"],
)
def test_cli_refusal_is_one_short_line_naming_the_field(capsys, argv, field):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1 and len(err) < 200
