"""The program interface that the benchmark relies on.

``perfbench/selftest.py`` checks real reports, SVGs and CLI listings against
exact oracles that do not import the program, and shows each check rejects
a broken copy.  Running it here makes a report that stops meeting the v1
contract fail the test suite, not only the benchmark.  The workload test
builds each benchmark workload and runs its operation and its check on a
few items, so a change to the calls the benchmark makes (the cusp-file
loader, ``ShortSlopeReport``'s constructor, report save, load and rebuild)
fails here too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_oracles_accept_real_output(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest

    selftest.run()


# A few items per workload, chosen to be cheap: three census shapes, and
# the two dense reports of about 110 slopes (hex2 at 20, the first seeded cusp).
@pytest.mark.parametrize("name, picks", [("census", (0, 1, 2)), ("dense", (0, 4))])
def test_benchmark_workload_runs(monkeypatch, tmp_path, name, picks):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.make(name, 1, str(tmp_path))
    for i in picks:
        item = workload.items[i]
        out, report_bytes = workload.op(item)
        workload.check(item, out)
        assert report_bytes > 0
