"""CLI tests: thin-shell equivalence with the library, exit codes, sugar."""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuspslopes import slope_search
from cuspslopes.bound_calculus import BoundQuery, slope_count_bound
from cuspslopes.cli import main
from cuspslopes.cusp_file import json_text
from cuspslopes.cusp_geometry import CuspShape
from cuspslopes.diagram import DiagramSpec, emit_lattice_svg
from cuspslopes.halfplane_geometry import extremal_ratio
from cuspslopes.report_io import (
    bound_to_dict,
    build_analysis_report,
    load_report,
    report_from_dict,
    report_to_dict,
    report_to_json,
)
from cuspslopes.slope_search import enumerate_short_slopes

from conftest import FIXTURES, run_timed

HEX2 = str(FIXTURES / "hex2.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- slopes


def test_slopes_table(capsys, hex2_shape):
    code, out, _ = run_cli(capsys, "slopes", "--cusp", HEX2, "--name", "hex2")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == len(enumerate_short_slopes(hex2_shape, 6.0))
    assert "max pairwise intersection 8" in out


def test_slopes_json_matches_library(capsys, hex2_shape):
    code, out, _ = run_cli(capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--json")
    assert code == 0
    data = json.loads(out)
    report = enumerate_short_slopes(hex2_shape, 6.0)
    assert [(r["a"], r["b"]) for r in data["slopes"]] == [
        (e.slope.a, e.slope.b) for e in report.entries
    ]


@pytest.mark.parametrize("threshold, count", [("20", 114), ("1", 0)])
def test_slopes_json_is_the_report_text(capsys, hex2_shape, threshold, count):
    # json_text of the public dict is the reference for the payload's bytes
    code, out, err = run_cli(
        capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--threshold", threshold, "--json"
    )
    report = build_analysis_report(hex2_shape, float(threshold))
    assert (code, err) == (0, "")
    assert len(report.entries) == count
    assert out == json_text(report_to_dict(report))
    # slopes --json is report with its defaults: the same bytes on stdout
    assert run_cli(capsys, "report", "--cusp", HEX2, "--name", "hex2",
                   "--threshold", threshold) == (0, out, "")


def test_slopes_json_enumerates_once(capsys, monkeypatch):
    calls = []
    real_reduced_basis = slope_search._reduced_basis

    def counting_reduced_basis(*args):
        calls.append(args)
        return real_reduced_basis(*args)

    monkeypatch.setattr(slope_search, "_reduced_basis", counting_reduced_basis)
    code, _, _ = run_cli(capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--json")
    assert code == 0
    assert len(calls) == 1


def test_slopes_2pi_sugar(capsys, hex2_shape):
    code, out, _ = run_cli(
        capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--threshold", "2pi"
    )
    assert code == 0
    expected = enumerate_short_slopes(hex2_shape, 2.0 * math.pi)
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == len(expected)


# ---------------------------------------------------------------- bound


def test_bound_headline_format(capsys):
    code, out, _ = run_cli(capsys, "bound", "--length", "6", "--area", "3.35")
    assert code == 0
    assert "Δ ≤ 10, p = 11, slopes ≤ 12" in out


def test_bound_adams_sugar(capsys):
    code, out, _ = run_cli(capsys, "bound", "--length", "2pi", "--area", "adams")
    assert code == 0
    assert "slopes ≤ 24" in out


def test_bound_json_thin_shell(capsys):
    code, out, _ = run_cli(capsys, "bound", "--length", "6", "--area", "3.35", "--json")
    assert code == 0
    data = json.loads(out)
    lib = slope_count_bound(BoundQuery(6.0, 3.35))
    assert data["delta_max"] == lib.delta_max
    assert data["prime"] == lib.prime
    assert data["count_bound"] == lib.count_bound


def test_bound_json_is_the_stdlib_compact_json(capsys):
    code, out, err = run_cli(capsys, "bound", "--json")
    expected = bound_to_dict(slope_count_bound(BoundQuery(6.0, 3.35)))
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, separators=(",", ":"), allow_nan=False) + "\n"


def test_bound_defaults(capsys):
    code, out, _ = run_cli(capsys, "bound")
    assert code == 0
    assert "slopes ≤ 12" in out


def test_bound_overflow_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "bound", "--length", "1e200")
    assert code == 1
    assert out == ""
    assert err == (
        "error: the count bound for length threshold 1e+200 and area floor 3.35 needs a prime "
        "past 3317044064679887385961813, the largest is_prime decides\n"
    )


def test_bound_past_the_float_range_prints_the_rounded_ratio(capsys):
    # L^2 = 1e320 is past the float range; L^2/A = 1e20 is printed rounded once
    code, out, err = run_cli(capsys, "bound", "--length", "1e160", "--area", "1e300")
    assert (code, err) == (0, "")
    assert out == ("L^2/A = 1e+20\nΔ ≤ 100000000000000019099, p = 100000000000000019137, "
                   "slopes ≤ 100000000000000019138\n")


@pytest.mark.parametrize("length, code", [("1e8", 0), ("1e9", 0), ("4e12", 1)])
def test_bound_huge_length_is_fast(length, code):
    # from about L = 3.33e12 on, the next prime after L^2/3.35 is past the
    # range is_prime decides
    seconds, proc = run_timed(
        "from cuspslopes.cli import main\nstatus = main(sys.argv[1:])\nprint('exit', status)",
        "bound", "--length", length,
    )
    assert proc.stdout.splitlines()[-1] == f"exit {code}"
    if code:
        assert "error: the count bound for length threshold 4000000000000.0" in proc.stderr
        assert "needs a prime past 3317044064679887385961813" in proc.stderr
    assert seconds < 1.0


# ---------------------------------------------------------------- lemma


def test_lemma_verify_default_prime(capsys):
    code, out, _ = run_cli(capsys, "lemma-verify", "--cusp", HEX2, "--name", "hex2")
    assert code == 0
    assert "injective" in out
    assert "prime 11" in out


def test_lemma_verify_explicit_prime_json(capsys):
    code, out, _ = run_cli(
        capsys, "lemma-verify", "--cusp", HEX2, "--name", "hex2", "--prime", "13", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["prime"] == 13 and data["injective"] is True


def test_lemma_verify_non_prime_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "lemma-verify", "--cusp", HEX2, "--name", "hex2", "--prime", "12"
    )
    assert code == 1
    assert "prime" in err


# ---------------------------------------------------------------- audit


def test_audit_sharp_witness(capsys):
    code, out, _ = run_cli(capsys, "audit", "--surface", "1,1,0", "--lengths", "6")
    assert code == 0
    assert "pass (sharp)" in out


def test_audit_failure(capsys):
    code, out, _ = run_cli(capsys, "audit", "--surface", "1,1,0", "--lengths", "6.5")
    assert code == 0  # a failed audit is a successful run
    assert "fail" in out


@pytest.mark.parametrize(
    "surface, lengths, total, slack",
    [("1,1,0", "6.0000000005", "6.0000000005", "-5.0000004137e-10"),
     ("0,3,0", "3.0000000000000004,3", "6", "-4.4408920985e-16")],
)
def test_audit_just_over_the_budget_fails(capsys, surface, lengths, total, slack):
    # the second total is 6 + 2^-51, which the float sum rounds to 6
    code, out, err = run_cli(capsys, "audit", "--surface", surface, "--lengths", lengths)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["chi = -1, budget 6|chi| = 6", f"total slope length = {total}",
                                f"fail: slack = {slack}"]


def test_audit_json(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--surface", "0,3,0", "--lengths", "2,2,2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["sharp"] is True
    assert data["euler_characteristic"] == -1


def test_audit_overflow_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "audit", "--surface", "0,3,0", "--lengths", "1e308,1e308,1e308"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: cusp slope lengths (1e+308, 1e+308, 1e+308) sum past the float range\n"
    )


def test_audit_bad_surface_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "audit", "--surface", "1,1", "--lengths", "6")
    assert code == 2


def test_audit_inapplicable_surface_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "audit", "--surface", "0,2,0", "--lengths", "1")
    assert code == 1


# ---------------------------------------------------------------- horodisk


def test_horodisk_ratio(capsys):
    code, out, _ = run_cli(capsys, "horodisk", "--ratio", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["extremal_ratio"] == pytest.approx(extremal_ratio())
    assert data["tangency_separation"] == pytest.approx(2.0 * math.log(1.0 + math.sqrt(2.0)))


def test_horodisk_separation(capsys):
    code, out, _ = run_cli(capsys, "horodisk", "--separation", "1", "2.718281828459045")
    assert code == 0
    assert "1" in out


def test_horodisk_wrapping(capsys):
    code, out, _ = run_cli(capsys, "horodisk", "--wrapping", "6", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["wrapping_bound"] == pytest.approx(1.0 / math.log(1.0 + math.sqrt(2.0)))


def test_horodisk_invalid_radii_domain_error(capsys):
    code, _, err = run_cli(capsys, "horodisk", "--separation", "2", "1")
    assert code == 1


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "option, values, message",
    [
        ("--wrapping", ("1e-320", "1"),
         "the wrapping number bound overflows for epsilon 1e-320 and loop length 1.0"),
        ("--wrapping", ("1", "1e308"),
         "the wrapping number bound overflows for epsilon 1.0 and loop length 1e+308"),
        ("--separation", ("1e-320", "1e10"),
         "R/r overflows for radii r=1e-320 and R=10000000000.0"),
        ("--separation", ("1", "1e155"),
         "the tangency test 2(R - r)^2 = (R + r)^2 overflows for radii r=1.0 and R=1e+155"),
    ],
    ids=["wrapping_tiny_epsilon", "wrapping_huge_length", "separation_ratio", "separation_square"],
)
def test_horodisk_past_the_float_range_is_domain_error(capsys, json_flag, option, values, message):
    code, out, err = run_cli(capsys, "horodisk", *json_flag, option, *values)
    assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------- result bytes

# The exact standard output of each command that prints one computed result:
# its text, then its --json line.
RESULTS = [
    ("bound", ("bound",),
     "L^2/A = 10.7462686567\nΔ ≤ 10, p = 11, slopes ≤ 12\n",
     '{"length_threshold":6.0,"area_floor":3.35,"delta_max":10,"prime":11,"count_bound":12,'
     '"floor_guard_hit":false}\n'),
    ("lemma_injective", ("lemma-verify", "--cusp", HEX2, "--name", "hex2"),
     "# cusp hex2: 12 slopes of length <= 6\n# max pairwise intersection 8, prime 11\n"
     "injective: all 12 slopes map to distinct points of F_11P^1\n",
     '{"shape":"hex2","threshold":6.0,"slope_count":12,"max_delta":8,"prime":11,'
     '"injective":true,"collision":null,"delta":null}\n'),
    ("lemma_collision", ("lemma-verify", "--cusp", HEX2, "--name", "hex2", "--prime", "5"),
     "# cusp hex2: 12 slopes of length <= 6\n# max pairwise intersection 8, prime 5\n"
     "collision: (-3,2) and (-2,3) coincide mod 5 (delta = 5)\n",
     '{"shape":"hex2","threshold":6.0,"slope_count":12,"max_delta":8,"prime":5,'
     '"injective":false,"collision":[[-3,2],[-2,3]],"delta":5}\n'),
    ("audit_pass", ("audit", "--surface", "1,1,0", "--lengths", "6"),
     "chi = -1, budget 6|chi| = 6\ntotal slope length = 6\npass (sharp): slack = 0\n",
     '{"surface":{"genus":1,"punctures":1,"boundary_circles":0},"euler_characteristic":-1,'
     '"lengths":[6.0],"total_length":6.0,"budget":6.0,"passed":true,"slack":0.0,'
     '"sharp":true}\n'),
    ("audit_fail", ("audit", "--surface", "1,1,0", "--lengths", "6.5"),
     "chi = -1, budget 6|chi| = 6\ntotal slope length = 6.5\nfail: slack = -0.5\n",
     '{"surface":{"genus":1,"punctures":1,"boundary_circles":0},"euler_characteristic":-1,'
     '"lengths":[6.5],"total_length":6.5,"budget":6.0,"passed":false,"slack":-0.5,'
     '"sharp":false}\n'),
    ("horodisk_ratio", ("horodisk", "--ratio"),
     "extremal radius ratio R/r = 5.82842712475\n"
     "tangency separation at that ratio = 1.76274717404\n",
     '{"extremal_ratio":5.82842712474619,"tangency_separation":1.762747174039086}\n'),
    ("horodisk_separation", ("horodisk", "--separation", "1", "2.718281828459045"),
     "tangency separation ln(R/r) = 1\nmutually tangent: no (residual 7.92063487182)\n",
     '{"r":1.0,"R":2.718281828459045,"separation":1.0,"mutually_tangent":false,'
     '"residual":7.920634871823621}\n'),
    ("horodisk_wrapping", ("horodisk", "--wrapping", "6", "1"),
     "wrapping number bound = 1.13459265711\n",
     '{"epsilon":6.0,"loop_length":1.0,"wrapping_bound":1.1345926571065112}\n'),
]


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, text, json_line", [r[1:] for r in RESULTS],
                         ids=[r[0] for r in RESULTS])
def test_result_bytes(capsys, argv, text, json_line, json_flag):
    code, out, err = run_cli(capsys, *argv, *["--json"] * json_flag)
    assert (code, out, err) == (0, json_line if json_flag else text, "")


# ---------------------------------------------------------------- diagram


def test_diagram_thin_shell(capsys, tmp_path, hex2_shape):
    out_path = tmp_path / "hex2.svg"
    code, out, _ = run_cli(
        capsys, "diagram", "--cusp", HEX2, "--name", "hex2", "--out", str(out_path), "--labels"
    )
    assert code == 0
    direct = emit_lattice_svg(
        DiagramSpec(enumerate_short_slopes(hex2_shape, 6.0), label_slopes=True)
    )
    assert out_path.read_text() == direct


def test_sister_diagram_matches_golden(tmp_path):
    # the golden is regenerated with this command
    out = tmp_path / "hex2.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "cuspslopes", "diagram", "--cusp", HEX2, "--name", "hex2",
         "--labels", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (FIXTURES / "goldens" / "hex2_threshold6.svg").read_bytes()


def test_diagram_too_small_domain_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "diagram", "--cusp", HEX2, "--name", "hex2",
        "--out", str(tmp_path / "x.svg"), "--width", "50", "--height", "50",
    )
    assert code == 1
    assert "use at least" in err


def test_diagram_huge_extent_refused_at_once(capsys, tmp_path):
    # the refusal reads the window's corners, not its 4e18 points
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "diagram", "--cusp", HEX2, "--name", "hex2",
        "--out", str(tmp_path / "x.svg"), "--extent", "1000000000",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_diagram_refusal_past_2_31_px_is_one_short_line(capsys, tmp_path):
    # the suggested side has 200 digits; the message names the limit instead
    code, out, err = run_cli(
        capsys, "diagram", "--cusp", HEX2, "--name", "hex2",
        "--out", str(tmp_path / "x.svg"), "--extent", str(10**200),
    )
    assert (code, out) == (1, "")
    assert err == ("error: lattice points would be 0.00 px apart on a 600x600 canvas; "
                   "lattice_extent 1e+200 needs a canvas side past 2**31 px\n")
    assert len(err) < 200
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("height", [30, 60], ids=["no_drawing_area", "markers_too_close"])
def test_diagram_canvas_side_past_2_31_px_is_named_as_the_limit(capsys, tmp_path, height):
    # the width has 201 digits; the message names the limit instead
    code, out, err = run_cli(
        capsys, "diagram", "--cusp", HEX2, "--name", "hex2",
        "--out", str(tmp_path / "x.svg"), "--width", str(10**200), "--height", str(height),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
    assert f" (past 2**31)x{height} " in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--extent", 10**308, "lattice_extent 1e+308 needs a canvas past the float range"),
        ("--extent", 10**400,
         "lattice_extent must be at most 1.7976931348623157e+308, got a 1329-bit integer"),
        ("--width", 10**400,
         "width must be at most 1.7976931348623157e+308, got a 1329-bit integer"),
        ("--height", 10**400,
         "height must be at most 1.7976931348623157e+308, got a 1329-bit integer"),
    ],
    ids=["extent_1e308", "extent_1e400", "width_1e400", "height_1e400"],
)
def test_diagram_size_past_the_float_range_names_the_option(capsys, tmp_path, option, value,
                                                             message):
    code, out, err = run_cli(
        capsys, "diagram", "--cusp", HEX2, "--name", "hex2",
        "--out", str(tmp_path / "x.svg"), option, str(value),
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_diagram_skewed_marking_fits_default_canvas(capsys, tmp_path):
    # hex2 marked with longitude + 1000*meridian
    cusp = tmp_path / "skewed.json"
    cusp.write_text(json.dumps({"format": "cusp-file", "version": "v1", "cusps": [
        {"name": "k1000", "meridian": [2.0, 0.0], "longitude": [2001.0, math.sqrt(3.0)]},
    ]}))
    svg = tmp_path / "k1000.svg"
    code, out, err = run_cli(
        capsys, "diagram", "--cusp", str(cusp), "--name", "k1000", "--out", str(svg)
    )
    assert (code, err) == (0, "")
    assert out == f"wrote {svg}: 12 slopes, 24 highlighted markers\n"


def test_diagram_out_dash_writes_stdout(capsys, tmp_path, monkeypatch, hex2_shape):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "diagram", "--cusp", HEX2, "--name", "hex2", "--out", "-")
    assert code == 0
    assert out.startswith("<?xml")
    assert out == emit_lattice_svg(DiagramSpec(enumerate_short_slopes(hex2_shape, 6.0)))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- report


def test_report_stdout_matches_library(capsys, hex2_shape):
    code, out, _ = run_cli(capsys, "report", "--cusp", HEX2, "--name", "hex2")
    assert code == 0
    assert out == report_to_json(build_analysis_report(hex2_shape, 6.0))


def test_report_to_file_loads_back(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "report", "--cusp", HEX2, "--name", "hex2", "--out", str(out_path)
    )
    assert code == 0
    report = load_report(out_path)
    assert report.bound.count_bound == 12
    assert report.timestamp is None


def test_report_out_dash_writes_stdout(capsys, tmp_path, monkeypatch, hex2_shape):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "report", "--cusp", HEX2, "--name", "hex2", "--out", "-")
    assert code == 0
    assert report_from_dict(json.loads(out)) == build_analysis_report(hex2_shape, 6.0)
    assert list(tmp_path.iterdir()) == []


def test_report_stamp_flag(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys, "report", "--cusp", HEX2, "--name", "hex2", "--out", str(out_path), "--stamp"
    )
    assert code == 0
    assert load_report(out_path).timestamp is not None


def test_report_reproducible_without_stamp(capsys):
    _, first, _ = run_cli(capsys, "report", "--cusp", HEX2, "--name", "hex2")
    _, second, _ = run_cli(capsys, "report", "--cusp", HEX2, "--name", "hex2")
    assert first == second


# ---------------------------------------------------------------- plumbing


def test_unknown_subcommand_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_usage_error(capsys):
    assert run_cli(capsys, "slopes", "--cusp", HEX2)[0] == 2


def test_unknown_flag_usage_error(capsys):
    assert run_cli(capsys, "bound", "--frobnicate")[0] == 2


def test_missing_cusp_name_domain_error(capsys):
    code, _, err = run_cli(capsys, "slopes", "--cusp", HEX2, "--name", "ghost")
    assert code == 1
    assert "available" in err


def test_missing_file_domain_error(capsys):
    code, _, err = run_cli(capsys, "slopes", "--cusp", "no/such/file.json", "--name", "x")
    assert code == 1


@pytest.mark.parametrize(
    "content",
    [
        '{"format": "cusp-file", "version": "v1", "cusps": ' + "[" * 10**5 + "]" * 10**5 + "}",
        b'{"format": "cusp-file", "name": "M\xf6bius"}',
    ],
    ids=["nested_too_deeply", "not_utf8"],
)
def test_malformed_cusp_file_is_one_error_line(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run_cli(capsys, "slopes", "--cusp", str(path), "--name", "x")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cusp_file_on_stdin_is_held_to_utf8():
    # a Latin-1 name is refused on standard input as it is in a file given
    # by path, whatever encoding the interpreter gives its stdin
    cusp = '{"format":"cusp-file","version":"v1","cusps":[{"name":"M\xf6",' \
           '"meridian":[1.0,0.0],"longitude":[0.0,1.0]}]}\n'
    proc = subprocess.run(
        [sys.executable, "-m", "cuspslopes", "slopes", "--cusp", "-", "--name", "M\xf6"],
        input=cusp.encode("latin-1"),
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "latin-1"},
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"error: not UTF-8")


def test_closed_stdout_pipe_stops_quietly():
    # as `cuspslopes slopes ... | head -1`: 3,974 table lines, about 125 kB,
    # are past a pipe's buffer, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuspslopes", "slopes", "--cusp", HEX2, "--name", "hex2",
         "--threshold", "120"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# cusp hex2")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert err == b""


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["slopes", "--json"], ["report"]], ids=["slopes_json", "report"])
def test_cut_off_report_exits_1(argv, unbuffered):
    # hex2 at T = 60 is a 3.7 MB report written in one call; the reader
    # leaves after 11 bytes.  Unbuffered stdout must not hide the short write.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "cuspslopes", argv[0], "--cusp", HEX2, "--name", "hex2",
         "--threshold", "60", *argv[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(11) == b'{"format":"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert err == b""


def test_bad_threshold_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--threshold", "tau"
    )
    assert code == 2


def test_nonpositive_threshold_domain_error(capsys):
    code, _, _ = run_cli(
        capsys, "slopes", "--cusp", HEX2, "--name", "hex2", "--threshold", "-1"
    )
    assert code == 1


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


def test_console_script_target_prints_the_version(capsys, monkeypatch):
    # the `cuspslopes` script that pip installs calls pyproject's
    # [project.scripts] target; read with a regex, since tomllib is 3.11+
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    module, function = re.search(
        r'^\[project\.scripts\]\ncuspslopes = "([\w.]+):(\w+)"$', pyproject, re.M
    ).groups()
    monkeypatch.setattr(sys, "argv", ["cuspslopes", "--version"])
    with pytest.raises(SystemExit) as excinfo:
        getattr(importlib.import_module(module), function)()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"cuspslopes {version}\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cuspslopes", "bound", "--length", "6", "--area", "3.35"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "slopes ≤ 12" in proc.stdout


# ---------------------------------------------------------------- README transcript

README = FIXTURES.parent.parent / "README.md"
# The "Command line" block of the README.  A command continued with a
# backslash is one line.
_BLOCK = README.read_text(encoding="utf-8").split("## Command line", 1)[1] \
    .split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
# Each ``$ cuspslopes ...`` line of the block that shows output, as its
# arguments, with the lines it shows: those right below it, up to a blank
# line or the next ``$`` line.
TRANSCRIPT = [(shlex.split(command, comments=True), shown.splitlines()) for command, shown
              in re.findall(r"^\$ (cuspslopes .*)\n((?:(?!\$ ).+\n)*)", _BLOCK, re.M) if shown]


@pytest.mark.parametrize("command, shown", TRANSCRIPT,
                         ids=[shlex.join(command) for command, _ in TRANSCRIPT])
def test_readme_transcript(capsys, monkeypatch, command, shown):
    # run from the repository root, as the README's fixture paths are; a
    # shown line "..." stands for any run of lines
    monkeypatch.chdir(README.parent)
    code = main(command[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    pattern = "".join("(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in shown)
    assert re.fullmatch(pattern, out), out
