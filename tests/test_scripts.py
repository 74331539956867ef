"""Smoke tests of the scripts in scripts/: each runs end to end."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cuspslopes

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"
# Where the tests' own cuspslopes was imported from: src/ of a checkout, or
# site-packages of an installed package; the scripts run against the same one.
PACKAGE_PARENT = str(Path(cuspslopes.__file__).resolve().parent.parent)


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_PARENT, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_reproduce_bounds_headline():
    proc = run_script("reproduce_bounds.py")
    assert proc.returncode == 0, proc.stderr
    assert "slopes <= 12" in proc.stdout



def test_code_lines_counts_each_module(tmp_path):
    # a docstring, a comment, a blank line and a bare string statement are not
    # code; a string inside an expression is, on every line it spans
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nx = 1  # one\n"bare"\n')
    (tmp_path / "sub" / "b.py").write_text('def f():\n    """Doc\n    more."""\n'
                                           '    return """two\nlines"""\n')
    proc = run_script("code_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["     1  a.py", "     3  sub/b.py", "     4  total", ""]
    package = run_script("code_lines.py")
    assert package.returncode == 0, package.stderr
    modules = package.stdout.splitlines()
    assert any(m.endswith("  report_io.py") for m in modules)
    assert modules[-1].endswith("  total")
    assert sum(int(m.split()[0]) for m in modules[:-1]) == int(modules[-1].split()[0])


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_mutant_fragments_occur_once():
    # the mutation gate (scripts/mutants.py) edits one place per mutant: a
    # change of the program that moves or repeats a fragment must update it
    mutants = load_mutants()
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(REPO_ROOT, m) == 1, m.name
        assert m.replacement != m.fragment, m.name
        for test in m.tests:
            assert (REPO_ROOT / test.split("::")[0]).is_file(), (m.name, test)


def test_mutant_run_past_its_limit_is_stopped(tmp_path):
    # a mutant whose tests hang ends at its time limit, as a timeout (None)
    (tmp_path / "test_hang.py").write_text("import time\n\ndef test_hang():\n    time.sleep(60)\n")
    code, seconds = load_mutants()._pytest(tmp_path, ["test_hang.py"], dict(os.environ), 2.0)
    assert code is None
    assert seconds < 20.0
