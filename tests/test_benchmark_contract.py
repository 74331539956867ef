"""The v1 report contract that the benchmark's oracles rely on.

``perfbench/selftest.py`` checks real reports, SVGs and CLI listings against
exact oracles that do not import the program, and shows each check rejects
a broken copy.  Running it here makes a report that stops meeting the v1
contract fail the test suite, not only the benchmark.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_oracles_accept_real_output(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.run()
