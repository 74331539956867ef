"""The value types of every module, pinned as one contract.

Each type is an immutable record: equal exactly when its class and its
fields are equal, hashed like the tuple of its fields (so set and dict
order follows the field values), built positionally or by keyword with the
same defaults, shown as ``Name(field=value, ...)``, closed to assignment
and deletion, kept equal through ``pickle`` and ``copy``, and stored in
slots.  Only ``Slope`` is ordered.
"""

from __future__ import annotations

import copy
import inspect
import math
import pickle

import pytest

from cuspslopes import __version__
from cuspslopes.bound_calculus import BoundQuery, BoundReport, LemmaVerdict
from cuspslopes.cusp_file import RecordError
from cuspslopes.cusp_geometry import CuspShape, Slope
from cuspslopes.diagram import CanvasTransform, DiagramSpec
from cuspslopes.halfplane_geometry import HorodiskPair, TangencyCheck, WrappingQuery
from cuspslopes.report_io import AnalysisReport, build_analysis_report
from cuspslopes.slope_search import ShortSlopeReport, SlopeEntry, enumerate_short_slopes
from cuspslopes.surface_audit import (
    AuditVerdict,
    DoubledSurfaceBound,
    SurfaceAudit,
    SurfaceType,
)

HEX2 = ((2.0, 0.0), (1.0, math.sqrt(3.0)))


def _short(threshold: float) -> ShortSlopeReport:
    return enumerate_short_slopes(CuspShape(*HEX2, name="hex2"), threshold)


def _analysis(threshold: float) -> AnalysisReport:
    return build_analysis_report(CuspShape(*HEX2, name="hex2"), threshold)


ANALYSIS_FIELDS = ("shape_name", "threshold", "entries", "delta_matrix", "max_delta",
                   "bound", "lemma", "tool_version", "timestamp")


def _fields_of(report) -> tuple:
    return tuple(getattr(report, f) for f in ANALYSIS_FIELDS[:7])

# class -> (field names, defaults of the trailing fields, a full positional
# argument tuple, and a second argument tuple that makes an unequal value)
CASES = {
    "CuspShape": (
        CuspShape, ("meridian", "longitude", "name"), {"name": None},
        lambda: (*HEX2, "hex2"),
        lambda: ((1.0, 0.0), (0.0, 1.0), "square"),
    ),
    "Slope": (
        Slope, ("a", "b"), {},
        lambda: (3, -5),
        lambda: (1, 0),
    ),
    "BoundQuery": (
        BoundQuery, ("length_threshold", "area_floor"), {},
        lambda: (6.0, 3.35),
        lambda: (6.0, 3.0),
    ),
    "BoundReport": (
        BoundReport, ("query", "delta_max", "prime", "count_bound", "floor_guard_hit"),
        {"floor_guard_hit": False},
        lambda: (BoundQuery(6.0, 3.35), 10, 11, 12, False),
        lambda: (BoundQuery(6.0, 3.35), 10, 11, 12, True),
    ),
    "LemmaVerdict": (
        LemmaVerdict, ("prime", "injective", "collision", "delta"),
        {"collision": None, "delta": None},
        lambda: (11, True, None, None),
        lambda: (2, False, (Slope(1, 0), Slope(1, 2)), 2),
    ),
    "SlopeEntry": (
        SlopeEntry, ("slope", "length", "boundary"), {"boundary": False},
        lambda: (Slope(1, 0), 2.0, False),
        lambda: (Slope(1, 0), 2.0, True),
    ),
    "ShortSlopeReport": (
        ShortSlopeReport, ("shape", "threshold", "entries", "delta_matrix", "max_delta"), {},
        lambda: tuple(getattr(_short(2.0), f) for f in
                      ("shape", "threshold", "entries", "delta_matrix", "max_delta")),
        lambda: tuple(getattr(_short(4.0), f) for f in
                      ("shape", "threshold", "entries", "delta_matrix", "max_delta")),
    ),
    "RecordError": (
        RecordError, ("index", "name", "message"), {},
        lambda: (0, "hex2", "bad basis"),
        lambda: (1, None, "bad basis"),
    ),
    "AnalysisReport": (
        AnalysisReport, ANALYSIS_FIELDS, {"tool_version": __version__, "timestamp": None},
        lambda: (*_fields_of(_analysis(6.0)), __version__, None),
        lambda: (*_fields_of(_analysis(6.0)), "0", "2026-01-01T00:00:00Z"),
    ),
    "DiagramSpec": (
        DiagramSpec,
        ("report", "radius_circle", "lattice_extent", "label_slopes", "width", "height"),
        {"radius_circle": True, "lattice_extent": 4, "label_slopes": False,
         "width": 600, "height": 600},
        lambda: (_short(6.0), True, 4, False, 600, 600),
        lambda: (_short(6.0), True, 4, True, 600, 600),
    ),
    "CanvasTransform": (
        CanvasTransform, ("scale", "cx", "cy"), {},
        lambda: (2.0, 300.0, 300.0),
        lambda: (2.0, 300.0, 301.0),
    ),
    "HorodiskPair": (
        HorodiskPair, ("r", "R"), {},
        lambda: (1.0, 2.0),
        lambda: (1.0, 3.0),
    ),
    "WrappingQuery": (
        WrappingQuery, ("epsilon", "loop_length"), {},
        lambda: (0.5, 3.0),
        lambda: (0.25, 3.0),
    ),
    "TangencyCheck": (
        TangencyCheck, ("tangent", "residual"), {},
        lambda: (True, 0.0),
        lambda: (False, -1.5),
    ),
    "SurfaceType": (
        SurfaceType, ("genus", "punctures", "boundary_circles"), {"boundary_circles": 0},
        lambda: (1, 1, 0),
        lambda: (0, 4, 0),
    ),
    "SurfaceAudit": (
        SurfaceAudit, ("surface", "cusp_slope_lengths"), {},
        lambda: (SurfaceType(1, 1), (6.0,)),
        lambda: (SurfaceType(1, 1), (5.0,)),
    ),
    "AuditVerdict": (
        AuditVerdict, ("name", "passed", "lhs", "rhs", "slack", "sharp"), {},
        lambda: ("cusp_length_budget", True, 6.0, 6.0, 0.0, True),
        lambda: ("cusp_length_budget", False, 7.0, 6.0, -1.0, False),
    ),
    "DoubledSurfaceBound": (
        DoubledSurfaceBound, ("n_ceiling", "feasible"), {},
        lambda: (3.0, True),
        lambda: (3.0, False),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, fields, defaults, args, other = CASES[request.param]
    return cls, fields, defaults, args(), other()


def _values(x, fields) -> tuple:
    return tuple(getattr(x, f) for f in fields)


def test_every_value_type_is_covered():
    assert len(CASES) == 18
    assert all(cls.__name__ == name for name, (cls, *_rest) in CASES.items())


def test_equality_and_hash(case):
    cls, fields, _defaults, args, other_args = case
    x = cls(*args)
    values = _values(x, fields)
    same = cls(**dict(zip(fields, values)))
    other = cls(*other_args)
    assert x == same and not (x != same)
    assert hash(x) == hash(same) == hash(values)
    assert x != other and not (x == other)
    assert len({x, same, other}) == 2
    # equal only to the same class: never to the tuple of its fields, nor to
    # another value type, nor to any other object
    assert x != values and not (x == values)
    for foreign in (object(), None, HorodiskPair(1.0, 2.0), Slope(1, 0)):
        if type(foreign) is not cls:
            assert x != foreign and not (x == foreign)


def test_positional_keyword_and_defaults(case):
    cls, fields, defaults, args, _other = case
    x = cls(*args)
    assert cls(**dict(zip(fields, args))) == x
    required = len(fields) - len(defaults)
    bare = cls(*args[:required])
    assert {f: getattr(bare, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*args, None)  # one argument too many
    with pytest.raises(TypeError):
        cls(*args[:required], unknown_field=1)


def test_signature_lists_the_fields(case):
    # help() and editors show each field as a named parameter, in order, with
    # the defaults of the trailing ones
    cls, fields, defaults, _args, _other = case
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert {f: p.default for f, p in params.items() if p.default is not p.empty} == defaults
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


def test_repr(case):
    cls, fields, _defaults, args, _other = case
    x = cls(*args)
    body = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
    assert repr(x) == f"{cls.__name__}({body})"


def test_immutable(case):
    cls, fields, _defaults, args, _other = case
    x = cls(*args)
    before = _values(x, fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert _values(x, fields) == before


def test_slotted(case):
    # fields live in slots: no per-instance __dict__
    cls, _fields, _defaults, args, _other = case
    assert not hasattr(cls(*args), "__dict__")


def test_pickle_and_copy_round_trips(case):
    cls, fields, _defaults, args, _other = case
    x = cls(*args)
    for y in (
        *(pickle.loads(pickle.dumps(x, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy(x),
        copy.deepcopy(x),
    ):
        assert type(y) is cls and y == x and hash(y) == hash(x)
        assert _values(y, fields) == _values(x, fields)


def test_only_slope_is_ordered(case):
    cls, _fields, _defaults, args, other_args = case
    if cls is Slope:
        return
    x, other = cls(*args), cls(*other_args)
    with pytest.raises(TypeError):
        x < other
    with pytest.raises(TypeError):
        x >= other


def test_slope_order_and_text():
    s = Slope(3, -5)
    assert (s.a, s.b) == (-3, 5) and repr(s) == "Slope(a=-3, b=5)" and str(s) == "(-3,5)"
    slopes = [Slope(1, 2), Slope(-1, 1), Slope(1, 0), Slope(0, 1), Slope(2, 1)]
    assert sorted(slopes) == [Slope(-1, 1), Slope(0, 1), Slope(1, 0), Slope(1, 2), Slope(2, 1)]
    assert Slope(1, 0) < Slope(1, 2) <= Slope(1, 2) < Slope(2, 1)
    assert Slope(2, 1) > Slope(1, 2) >= Slope(1, 2) > Slope(1, 0)
    assert not Slope(1, 2) < Slope(1, 2)
    assert max(slopes) == Slope(2, 1) and min(slopes) == Slope(-1, 1)
    for other in ((1, 2), 1):
        with pytest.raises(TypeError):
            Slope(1, 2) < other
        with pytest.raises(TypeError):
            Slope(1, 2) > other
    assert Slope(1, 2) != (1, 2)


def test_shape_text_is_normalized():
    # the basis is made positively oriented, and its coordinates floats
    shape = CuspShape((0, 1), (1, 0), name="flip")
    assert repr(shape) == "CuspShape(meridian=(1.0, 0.0), longitude=(0.0, 1.0), name='flip')"
    assert CuspShape((1, 0), (0, 1)) == CuspShape((1.0, 0.0), (0.0, 1.0))
