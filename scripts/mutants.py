"""Mutation gate for the decision rules: every listed mutant must be killed.

Each entry of ``MUTANTS`` names a module of ``src/cuspslopes``, an exact
source fragment that occurs in it exactly once, the fragment's replacement,
and the tier-1 tests that must fail on the mutant (pytest arguments: files,
or single tests as ``file::name``).  The script copies the repository to a
temporary directory outside it, runs the listed tests once on the unmutated
copy, which must pass, and then applies one mutant at a time and runs its
tests with ``pytest -x -q``, one child process at a time, restoring the
module after each run.  A mutant is killed when its tests fail (pytest's
exit status 1); any other status, such as an error collecting the tests, is
reported as an error.

Usage: python scripts/mutants.py

The script prints one line per mutant, ``killed``, ``SURVIVED`` or
``ERROR``, with its name and run time, and exits 1 unless every mutant was
killed.  It needs only the standard library, and pytest and hypothesis for
the tests it runs.
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
PRIMES = "tests/test_bound_calculus.py"


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
    Mutant("disc_without_rho", "slope_search.py",
           "* (1.0 + LENGTH_RTOL) * (1.0 + 8.0 * delta)", "* (1.0 + 8.0 * delta)",
           (EDGE_TEST,)),
    Mutant("trial_division_stops_early", "bound_calculus.py",
           "if f * f > n:", "if f * f >= n:", (PRIMES,)),
    Mutant("miller_rabin_one_square_short", "bound_calculus.py",
           "for _ in range(r - 1):", "for _ in range(r - 2):", (PRIMES,)),
)


def occurrences(root: Path, mutant: Mutant) -> int:
    """How often the mutant's fragment occurs in its module under ``root``."""
    return (root / PACKAGE / mutant.module).read_text(encoding="utf-8").count(mutant.fragment)


def _pytest(copy: Path, tests, env) -> tuple[int, float]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def main() -> int:
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
                code, seconds = _pytest(copy, m.tests, env)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR")
            failed += code != 1
            print(f"{verdict:9} {m.name}  ({seconds:.1f} s)")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
