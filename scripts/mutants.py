"""Mutation gate for the decision rules: every listed mutant must be killed.

Each entry of ``MUTANTS`` names a module of ``src/cuspslopes``, an exact
source fragment that occurs in it exactly once, the fragment's replacement,
and the tier-1 tests that must fail on the mutant (pytest arguments: files,
or single tests as ``file::name``).  The script copies the repository to a
temporary directory outside it, runs the listed tests once on the unmutated
copy, which must pass, and then applies one mutant at a time and runs its
tests with ``pytest -x -q``, one child process at a time, restoring the
module after each run.  A mutant is killed when its tests fail (pytest's
exit status 1) or run past ``MUTANT_TIMEOUT_S`` seconds, when the run is
stopped; any other status, such as an error collecting the tests, is
reported as an error.

Usage: python scripts/mutants.py

The script prints one line per mutant, ``killed``, ``timeout``, ``SURVIVED``
or ``ERROR``, with its name and run time, then the count killed and the
gate's total time, and exits 1 unless every mutant was killed.  It needs
only the standard library, and pytest and hypothesis for the tests it runs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "cuspslopes"
SLOPES = "tests/test_slope_search.py"
EDGE_TEST = SLOPES + "::test_thresholds_at_a_slope_length_match_marked_box_scan"
WIDENING = SLOPES + "::test_widening_reaches_a_slope_four_delta_inside_the_disc"
PRIMES = "tests/test_bound_calculus.py"
CEILING = PRIMES + "::test_crossing_ceiling_table"
REPORTS = "tests/test_report_io.py"
RECORDS = REPORTS + "::test_duplicate_and_malformed_records"
TAMPERS = REPORTS + "::test_tampered_report_rejected"
INPUTS = "tests/test_inputs.py"
SURFACES = "tests/test_surface_audit.py"
VALUES = "tests/test_value_types.py"
# A mutant's tests take a few seconds; one that makes them hang is killed at
# this limit and counts as killed.
MUTANT_TIMEOUT_S = 60.0


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/cuspslopes
    fragment: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest arguments that must fail on the mutant


MUTANTS = (
    Mutant("entry_strict_inclusion", "slope_search.py",
           "if length <= threshold + threshold * LENGTH_RTOL:",
           "if length < threshold + threshold * LENGTH_RTOL:", (SLOPES,)),
    Mutant("entry_inclusion_without_rho", "slope_search.py",
           "if length <= threshold + threshold * LENGTH_RTOL:",
           "if length <= threshold:", (SLOPES,)),
    Mutant("entry_boundary_without_rho", "slope_search.py",
           "length >= threshold - threshold * LENGTH_RTOL)",
           "length >= threshold)", (SLOPES,)),
    Mutant("marking_always_reduced", "slope_search.py",
           "if 2.0 * abs(mx * lx + my * ly) <= (1.0 + LENGTH_RTOL) * min(norm2(u), norm2(v)):",
           "if True:", (SLOPES,)),
    Mutant("scan_without_gcd_test", "slope_search.py",
           "if math.gcd(i, j) != 1:", "if False:", (SLOPES,)),
    Mutant("rows_widened_by_2", "slope_search.py",
           "lo, hi = math.ceil(c - h), math.floor(c + h)",
           "lo, hi = math.ceil(c - h) - 2, math.floor(c + h) + 2", (SLOPES,)),
    Mutant("disc_without_rounding_widening", "slope_search.py",
           "(1.0 + 8.0 * delta)", "(1.0 + 0.0 * delta)", (EDGE_TEST,)),
    Mutant("disc_widened_by_one_delta", "slope_search.py",
           "(1.0 + 8.0 * delta)", "(1.0 + 1.0 * delta)", (WIDENING,)),
    Mutant("delta_from_one_eps", "slope_search.py",
           "delta = 4.0 * sys.float_info.epsilon", "delta = 1.0 * sys.float_info.epsilon",
           (WIDENING,)),
    Mutant("delta_from_a_quarter_eps", "slope_search.py",
           "delta = 4.0 * sys.float_info.epsilon", "delta = 0.25 * sys.float_info.epsilon",
           (WIDENING,)),
    Mutant("disc_without_rho", "slope_search.py",
           "* (1.0 + LENGTH_RTOL) * (1.0 + 8.0 * delta)", "* (1.0 + 8.0 * delta)",
           (EDGE_TEST,)),
    Mutant("scan_stops_a_row_early", "slope_search.py",
           "if d < 0.0:", "if d < (2 * j + 1) * rise2:", (SLOPES,)),
    # Only the one test: with R out of the 2^e units, the other tests can scan
    # without end at scales far from 1.
    Mutant("radius_not_normalised", "slope_search.py",
           "(math.ldexp(threshold, e) * (1.0 + LENGTH_RTOL)", "(threshold * (1.0 + LENGTH_RTOL)",
           (SLOPES + "::test_scaling_by_a_power_of_two_changes_no_decision",)),
    Mutant("lanes_one_bit_narrow", "slope_search.py",
           "if reach < 1 << (w - 1):", "if reach < 1 << w:",
           (SLOPES + "::test_crossing_rows_match_pairwise_at_lane_bound",)),
    Mutant("running_max_misses_one_above", "slope_search.py",
           "bias = (half - 1 - best) * ones", "bias = (half - 2 - best) * ones",
           (SLOPES + "::test_packed_max_one_above_the_last_row",)),
    Mutant("trial_division_finds_no_prime", "bound_calculus.py",
           "return n == p", "return False", (PRIMES,)),
    Mutant("trial_division_decides_to_47_squared", "bound_calculus.py",
           "43 * 43", "47 * 47", (PRIMES + "::test_is_prime_at_the_end_of_trial_division",)),
    Mutant("miller_rabin_without_the_last_base", "bound_calculus.py",
           "for a in _MR_BASES:", "for a in _MR_BASES[:-1]:",
           (PRIMES + "::test_is_prime_large_values",)),
    Mutant("miller_rabin_one_square_short", "bound_calculus.py",
           "for _ in range(r - 1):", "for _ in range(r - 2):", (PRIMES,)),
    Mutant("modulus_accepts_composites", "bound_calculus.py",
           "    if not prime:", "    if False:", (PRIMES,)),
    Mutant("box_high_end_without_half_ulp", "bound_calculus.py",
           "n + 2, e", "n, e", (CEILING,)),
    Mutant("flag_from_the_point_not_the_low_corner", "bound_calculus.py",
           "_floor_ratio(l_lo, el, a_hi, ea)", "_floor_ratio(l_hi - 2, el, a_hi - 2, ea)",
           (CEILING,)),
    Mutant("json_result_printed_as_text", "cli.py",
           '_pkg.cusp_file._write_text("-", _pkg.cusp_file.json_text(data))',
           'print(*lines, sep="\\n")', ("tests/test_cli.py",)),
    Mutant("positive_accepts_zero", "cusp_geometry.py",
           "if not x > 0.0:", "if not x >= 0.0:", (INPUTS,)),
    Mutant("count_accepts_one_below_least", "cusp_geometry.py",
           "and x < least:", "and x < least - 1:", (INPUTS,)),
    Mutant("pair_accepts_more_than_two", "cusp_geometry.py",
           "or len(v) != 2:", "or len(v) < 2:", (INPUTS,)),
    Mutant("built_init_drops_the_last_field", "cusp_geometry.py",
           "for name in fields), namespace)", "for name in fields[:-1]), namespace)",
           (VALUES,)),
    Mutant("budget_passed_strict", "surface_audit.py",
           "slack >= 0,", "slack > 0,", (SURFACES,)),
    Mutant("budget_slack_from_fsum", "surface_audit.py",
           "float(slack)", "budget - math.fsum(lengths)", (SURFACES,)),
    Mutant("sphere_feasible_strict", "surface_audit.py",
           "6 * (n - 2) >= (n - 1)", "6 * (n - 2) > (n - 1)", (SURFACES,)),
    Mutant("cusp_duplicate_names_kept", "cusp_file.py",
           "if name in seen_names:", "if False:", (RECORDS,)),
    Mutant("cusp_version_unchecked", "cusp_file.py",
           "if version != SCHEMA_VERSION:", "if False:", (REPORTS + "::test_header_validation",)),
    Mutant("cusp_empty_name_kept", "cusp_file.py",
           "if not isinstance(name, str) or not name:", "if not isinstance(name, str):",
           (RECORDS,)),
    Mutant("report_slope_keys_unchecked", "report_io.py",
           "if rec.keys() != _SLOPE_KEYS or not", "if not", (TAMPERS,)),
    Mutant("report_order_not_strict", "report_io.py",
           "all(map(operator.lt, keys, keys[1:]))", "all(map(operator.le, keys, keys[1:]))",
           (TAMPERS,)),
    Mutant("report_boundary_flag_unchecked", "report_io.py",
           'if rec["boundary"] is not entry.boundary:', "if False:", (TAMPERS,)),
    # each of the next three lets an exception that is not a ReportFormatError
    # escape the loader
    Mutant("report_slope_record_not_an_object", "report_io.py",
           "if not isinstance(rec, dict):", "if False:", (TAMPERS + "[slope_not_object]",)),
    Mutant("report_bound_refusal_unwrapped", "report_io.py",
           'raise ReportFormatError(f"bound: {e}") from None', "raise",
           (TAMPERS + "[subnormal_area_floor]", TAMPERS + "[threshold_past_the_last_prime]")),
    Mutant("report_matrix_type_error_escapes", "report_io.py",
           "except (TypeError, ValueError, RecursionError):", "except (ValueError, RecursionError):",
           (REPORTS + "::test_matrix_entry_that_cannot_be_encoded_rejected[object]",)),
)


def occurrences(root: Path, mutant: Mutant) -> int:
    """How often the mutant's fragment occurs in its module under ``root``."""
    return (root / PACKAGE / mutant.module).read_text(encoding="utf-8").count(mutant.fragment)


def _pytest(copy: Path, tests, env, timeout: float | None = None) -> tuple[int | None, float]:
    """pytest's exit status on ``tests`` in ``copy``, or None when the run
    passed ``timeout`` seconds and was killed, and the run time."""
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    for m in MUTANTS:
        if occurrences(REPO_ROOT, m) != 1:
            print(f"{m.name}: the fragment occurs {occurrences(REPO_ROOT, m)} times in "
                  f"{m.module}, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="cuspslopes-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO_ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
            "perfbench-out"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(copy / "src"),
                                                          env.get("PYTHONPATH"))))
        where = subprocess.run([sys.executable, "-c",
                                "import cuspslopes; print(cuspslopes.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            print(f"the copy's tests would import cuspslopes from {where!r}", file=sys.stderr)
            return 2
        targets = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, seconds = _pytest(copy, targets, env)
        print(f"{'passes' if code == 0 else 'FAILS':9} unmutated  ({seconds:.1f} s)")
        if code != 0:
            return 1
        failed = 0
        for m in MUTANTS:
            path = copy / PACKAGE / m.module
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.fragment, m.replacement), encoding="utf-8")
            try:
                code, seconds = _pytest(copy, m.tests, env, MUTANT_TIMEOUT_S)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed", None: "timeout"}.get(code, "ERROR")
            failed += code not in (1, None)
            print(f"{verdict:9} {m.name}  ({seconds:.1f} s)")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
