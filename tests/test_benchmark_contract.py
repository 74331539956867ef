"""The program interface that the benchmark relies on.

``perfbench/selftest.py`` checks real reports, SVGs and CLI listings against
exact oracles that do not import the program, and shows each check rejects
a broken copy.  Running it here makes a report that stops meeting the v1
contract fail the test suite, not only the benchmark.  The workload test
builds each benchmark workload and runs its operation and its check on a
few items, so a change to the calls the benchmark makes (the cusp-file
loader, ``ShortSlopeReport``'s constructor, report save, load and rebuild)
fails here too.  The tracer tests install the benchmark's tracer, which
counts built cusp shapes by replacing ``CuspShape.__post_init__`` on the
class, so ``CuspShape`` must keep that method and call it on every build,
and wraps each public function in every module namespace that binds it, so
``report_io``'s own bindings of the scan, the count bound and the lemma are
wrapped too: a report must call them through a module-level name.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cuspslopes import cusp_file, cusp_geometry, report_io

from conftest import FIXTURES

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


def test_benchmark_tracer_counts_built_shapes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    original = cusp_geometry.CuspShape.__post_init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        shapes, errors = report_io.load_cusp_file(FIXTURES / "hex2.json")
    finally:
        tracer.uninstall()
    assert [s.name for s in shapes] == ["hex2", "square"] and not errors
    assert tracer.layer_metrics()["cusp_geometry.shapes_built"] == 2
    assert cusp_geometry.CuspShape.__post_init__ is original
    # the one loader: the benchmark calls it as report_io.load_cusp_file
    assert report_io.load_cusp_file is cusp_file.load_cusp_file


def test_benchmark_tracer_counts_the_pipeline_of_a_report(monkeypatch, hex2_shape):
    # report_io imports the scan, the count bound and the lemma, and the
    # tracer replaces its bindings of them; it must see each call, or the
    # per-layer enumerate_s, count_bound_s and lemma_s read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        report = report_io.build_analysis_report(hex2_shape, 6.0)
        back = report_io.report_from_dict(report_io.report_to_dict(report))
    finally:
        tracer.uninstall()
    assert back == report and len(report.entries) == 12
    # one scan to build; a bound and a lemma to build and again to rebuild
    calls = tracer.call_counts()
    assert [calls[name] for name in ("slope_search.enumerate_short_slopes",
                                     "bound_calculus.slope_count_bound",
                                     "bound_calculus.verify_counting_lemma")] == [1, 2, 2]
    layers = tracer.layer_metrics()
    for name in ("slope_search.enumerate_s", "bound_calculus.count_bound_s",
                 "bound_calculus.lemma_s"):
        assert layers[name] > 0, name
