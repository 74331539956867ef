"""Fresh-interpreter tests of the lazy package namespace and the CLI's
per-subcommand imports.  In-process tests run after every module is already
imported, so only a new interpreter shows what a call loads."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cuspslopes.report_io import build_analysis_report, save_report

from conftest import FIXTURES

HEX2 = str(FIXTURES / "hex2.json")

# What loading a cusp file needs: report_io and the one module it imports.
CUSP_LOAD_MODULES = {"cuspslopes", "cuspslopes.cusp_geometry", "cuspslopes.report_io"}
# What building or loading a report needs: the cusp-file modules and the
# pipeline that report_io reaches through the package namespace.
REPORT_MODULES = CUSP_LOAD_MODULES | {"cuspslopes.bound_calculus", "cuspslopes.slope_search"}
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


@pytest.fixture
def hex2_report_path(hex2_shape, tmp_path):
    path = tmp_path / "hex2-report.json"
    save_report(build_analysis_report(hex2_shape, 6.0), path)
    return str(path)


# Each a first call into the package in a fresh interpreter that needs the
# pipeline modules report_io does not import.
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


def test_bound_subcommand_imports_only_its_modules():
    # `python -m cuspslopes bound`, then the modules it left loaded
    proc = run_python(
        "-c",
        "import runpy, sys\n"
        "sys.argv = ['cuspslopes', 'bound']\n"
        "try:\n"
        "    runpy.run_module('cuspslopes', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0\n"
        + _LIST_MODULES,
    )
    *output, modules = proc.stdout.splitlines()
    assert "slopes ≤ 12" in output[-1]
    assert set(modules.split()) == {
        "cuspslopes",
        "cuspslopes.bound_calculus",
        "cuspslopes.cli",
        "cuspslopes.cusp_geometry",
        "cuspslopes.report_io",
        "cuspslopes.slope_search",
    }


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
        body = ("sys.argv = ['cuspslopes', *sys.argv[1:]]\n"
                "try:\n"
                "    runpy.run_module('cuspslopes', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as e:\n"
                "    assert e.code == 0\n")
        args = argv
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
