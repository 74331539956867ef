"""Fresh-interpreter tests of the lazy package namespace and the CLI's
per-subcommand imports.  In-process tests run after every module is already
imported, so only a new interpreter shows what a call loads.  The CLI's
string defaults, which keep the parser from importing the constants' modules,
are checked against those constants in process."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from cuspslopes.bound_calculus import ADAMS_AREA, CAO_MEYERHOFF_AREA
from cuspslopes.cli import build_parser
from cuspslopes.report_io import build_analysis_report, save_report
from cuspslopes.slope_search import SIX_THEOREM_LENGTH

from conftest import FIXTURES

HEX2 = str(FIXTURES / "hex2.json")

# What loading a cusp file needs: cusp_file and the one module it imports,
# none of the report code.
CUSP_LOAD_MODULES = {"cuspslopes", "cuspslopes.cusp_geometry", "cuspslopes.cusp_file"}
# What building or loading a report needs: the cusp-file modules, report_io
# and the pipeline it imports, the scan and the bound calculus.
REPORT_MODULES = CUSP_LOAD_MODULES | {"cuspslopes.report_io", "cuspslopes.bound_calculus",
                                      "cuspslopes.slope_search"}
_LIST_MODULES = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cuspslopes'))"


def run_python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cusp_file_load_imports_only_its_modules():
    proc = run_python(
        "-c",
        "import sys, cuspslopes\n"
        "shapes, errors = cuspslopes.load_cusp_file(sys.argv[1])\n"
        "assert [s.name for s in shapes] == ['hex2', 'square'] and not errors\n"
        + _LIST_MODULES,
        HEX2,
    )
    assert set(proc.stdout.split()) == CUSP_LOAD_MODULES


def test_report_io_import_loads_the_report_modules():
    proc = run_python("-c", "import sys\nimport cuspslopes.report_io\n" + _LIST_MODULES)
    assert set(proc.stdout.split()) == REPORT_MODULES


@pytest.fixture
def hex2_report_path(hex2_shape, tmp_path):
    path = tmp_path / "hex2-report.json"
    save_report(build_analysis_report(hex2_shape, 6.0), path)
    return str(path)


# Each a first call into the package in a fresh interpreter, one through the
# package namespace and one through report_io itself: either loads the report
# modules and no others.
FIRST_REPORT_CALLS = {
    "load_report": "import cuspslopes\n"
                   "report = cuspslopes.load_report(sys.argv[1])\n",
    "build_analysis_report": "from cuspslopes.report_io import build_analysis_report\n"
                             "from cuspslopes.cusp_geometry import CuspShape\n"
                             "shape = CuspShape((2.0, 0.0), (1.0, 3.0 ** 0.5), name='hex2')\n"
                             "report = build_analysis_report(shape, 6.0)\n",
}


@pytest.mark.parametrize("first", list(FIRST_REPORT_CALLS))
def test_first_report_call_imports_the_pipeline(hex2_report_path, first):
    proc = run_python(
        "-c",
        "import sys\n"
        + FIRST_REPORT_CALLS[first]
        + "assert len(report.entries) == 12 and report.bound.count_bound == 12\n"
        + "assert report.lemma.injective\n"
        + _LIST_MODULES,
        hex2_report_path,
    )
    assert set(proc.stdout.split()) == REPORT_MODULES


# The CLI's own modules: every subcommand also loads cusp_geometry, which
# each other module imports.
CLI_MODULES = {"cuspslopes", "cuspslopes.cli", "cuspslopes.cusp_geometry"}
HEX2_ARGS = ["--cusp", HEX2, "--name", "hex2"]

# `python -m cuspslopes` with sys.argv[1:] as its arguments, in process, so
# that the modules it left loaded can be listed after it.
_RUN_CLI = ("sys.argv = ['cuspslopes', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('cuspslopes', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0\n")


def _subcommand(name, argv, *modules):
    return pytest.param(argv, CLI_MODULES | {f"cuspslopes.{m}" for m in modules}, id=name)


@pytest.mark.parametrize(
    "argv, expected",
    [
        _subcommand("slopes", ["slopes", *HEX2_ARGS], "cusp_file", "slope_search"),
        _subcommand("slopes_json", ["slopes", *HEX2_ARGS, "--json"],
                    "cusp_file", "report_io", "slope_search", "bound_calculus"),
        _subcommand("bound", ["bound"], "bound_calculus"),
        _subcommand("bound_json", ["bound", "--json"], "bound_calculus", "cusp_file"),
        _subcommand("lemma_verify", ["lemma-verify", *HEX2_ARGS],
                    "cusp_file", "report_io", "slope_search", "bound_calculus"),
        _subcommand("audit", ["audit", "--surface", "1,1,0", "--lengths", "6"], "surface_audit"),
        _subcommand("horodisk_ratio", ["horodisk", "--ratio"], "halfplane_geometry"),
        _subcommand("horodisk_separation", ["horodisk", "--separation", "1", "2"],
                    "halfplane_geometry"),
        _subcommand("horodisk_wrapping", ["horodisk", "--wrapping", "0.1", "6"],
                    "halfplane_geometry"),
        _subcommand("diagram", ["diagram", *HEX2_ARGS, "--out", "-"],
                    "cusp_file", "slope_search", "diagram"),
        _subcommand("report", ["report", *HEX2_ARGS],
                    "cusp_file", "report_io", "slope_search", "bound_calculus"),
    ],
)
def test_subcommand_imports_only_its_modules(argv, expected):
    proc = run_python("-c", "import runpy, sys\n" + _RUN_CLI + _LIST_MODULES, *argv)
    assert set(proc.stdout.splitlines()[-1].split()) == expected


def test_parser_defaults_are_the_library_constants():
    parser = build_parser()
    for argv in (["slopes", *HEX2_ARGS], ["lemma-verify", *HEX2_ARGS],
                 ["diagram", *HEX2_ARGS, "--out", "-"], ["report", *HEX2_ARGS]):
        assert parser.parse_args(argv).threshold == SIX_THEOREM_LENGTH, argv
    bound = parser.parse_args(["bound"])
    assert (bound.length, bound.area) == (SIX_THEOREM_LENGTH, CAO_MEYERHOFF_AREA)


@pytest.mark.parametrize(
    "option, name, value",
    [
        ("--area", "adams", ADAMS_AREA),
        ("--area", "cao-meyerhoff", CAO_MEYERHOFF_AREA),
        ("--length", "2pi", 2.0 * math.pi),
    ],
    ids=["adams", "cao_meyerhoff", "2pi"],
)
def test_parser_names_are_the_library_constants(option, name, value):
    parser, dest = build_parser(), option.lstrip("-")
    for text in (name, name.upper(), name.title(), f" {name} ", f"\t{name.upper()}  "):
        assert getattr(parser.parse_args(["bound", option, text]), dest) == value, text


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["audit", "--surface", "1,1,0", "--lengths", "6"], "pass (sharp)"),
        (["horodisk", "--ratio"], "extremal radius ratio R/r = 5.82842712475"),
        (["diagram", "--cusp", HEX2, "--name", "hex2", "--out", "-"], "</svg>"),
        (["report", "--cusp", HEX2, "--name", "hex2", "--stamp"], '"timestamp":"'),
    ],
    ids=["audit", "horodisk_ratio", "diagram_stdout", "report_stamp"],
)
# Through `python -m`: each module a subcommand reaches on first use works.
def test_deferred_subcommand_imports_work(argv, expected):
    proc = run_python("-m", "cuspslopes", *argv)
    assert expected in proc.stdout and proc.stderr == ""


# dataclasses costs more to import than the package itself: it imports
# inspect, and inspect imports ast, dis and tokenize.
SLOW_STDLIB_MODULES = ("dataclasses", "inspect")

_LIST_SLOW_MODULES = f"print(*sorted(m for m in {SLOW_STDLIB_MODULES!r} if m in sys.modules))"


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["diagram", "--cusp", HEX2, "--name", "hex2", "--out", "-"],
        ["audit", "--surface", "1,1,0", "--lengths", "6"],
        ["horodisk", "--ratio"],
        ["report", "--cusp", HEX2, "--name", "hex2", "--stamp"],
    ],
    ids=["cli_and_cusp_load", "diagram", "audit", "horodisk", "report"],
)
def test_no_dataclasses_or_inspect_import(argv):
    if argv is None:
        body = ("import cuspslopes, cuspslopes.cli\n"
                "shapes, errors = cuspslopes.load_cusp_file(sys.argv[1])\n"
                "assert len(shapes) == 2 and not errors\n")
        args = [HEX2]
    else:
        body, args = _RUN_CLI, argv
    proc = run_python("-c", "import runpy, sys\n" + body + _LIST_SLOW_MODULES, *args)
    assert proc.stdout.splitlines()[-1] == ""


def test_lazy_namespace():
    proc = run_python(
        "-c",
        "import json, sys\n"
        "import cuspslopes\n"
        "assert 'cuspslopes.diagram' not in sys.modules\n"
        "assert cuspslopes.diagram.DiagramSpec.__module__ == 'cuspslopes.diagram'\n"
        "exports = {}\n"
        "for name in cuspslopes.__all__:\n"
        "    value = getattr(cuspslopes, name)\n"
        "    exports[name] = [getattr(value, '__module__', None),\n"
        "                     [m for m in sys.modules if m.startswith('cuspslopes.')\n"
        "                      and getattr(sys.modules[m], name, None) is value]]\n"
        "try:\n"
        "    cuspslopes.no_such_name\n"
        "except AttributeError as e:\n"
        "    missing = str(e)\n"
        "namespace = {}\n"
        "exec('from cuspslopes import *', namespace)\n"
        "print(json.dumps({'all': cuspslopes.__all__, 'dir': dir(cuspslopes),\n"
        "                  'exports': exports, 'missing': missing,\n"
        "                  'star': sorted(set(namespace) - {'__builtins__'})}))",
    )
    data = json.loads(proc.stdout)
    names = data["all"]
    assert len(names) == len(set(names)) == 51
    assert set(names) <= set(data["dir"])
    assert {"diagram", "report_io", "surface_audit"} <= set(data["dir"])
    # every public name is a submodule's own object, its defining module's
    # where it records one
    for name, (defined_in, holders) in data["exports"].items():
        assert holders and defined_in in (None, *holders), (name, defined_in, holders)
    assert data["missing"] == "module 'cuspslopes' has no attribute 'no_such_name'"
    assert data["star"] == sorted(names)
