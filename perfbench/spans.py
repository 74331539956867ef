"""Spans and counts around the public functions of every cuspslopes module.

The tracer lives in the benchmark, not in the program: `install` replaces
each public function of each module -- in every module namespace that holds
it, so `from .x import f` bindings are caught too -- with a wrapper, and
`uninstall` puts the originals back.  Spans (name, start, end, parent, op)
and counts stay in memory until `dump`.  Functions called once per scanned
candidate or per matrix entry are counted but not spanned, so their time is
part of their caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("cusp_geometry", "slope_search", "bound_calculus", "halfplane_geometry",
           "surface_audit", "diagram", "report_io", "cli")

COUNTED_ONLY = frozenset({
    "cusp_geometry.slope_length", "cusp_geometry.slope_vector",
    "cusp_geometry.intersection_number", "cusp_geometry.area",
    "bound_calculus.is_prime", "bound_calculus.project_to_fp",
})


def _box_cells(counts, box):
    amax, bmax = box
    counts["slope_search.box_cells"] += 1 + bmax * (2 * amax + 1)


def _svg(counts, svg):
    counts["diagram.markers"] += svg.count('class="slope"')
    counts["diagram.svg_bytes"] += len(svg.encode())


# Counts read off a function's result at its boundary.
RESULT_HOOKS = {
    "slope_search.search_box": _box_cells,
    "slope_search.enumerate_short_slopes":
        lambda c, r: c.update({"slope_search.kept": len(r)}),
    "bound_calculus.guarded_floor":
        lambda c, r: c.update({"bound_calculus.floor_guard_hits": int(r[1])}),
    "report_io.report_to_json":
        lambda c, r: c.update({"report_io.bytes": len(r.encode())}),
    "diagram.emit_lattice_svg": _svg,
}

# Per-layer times: summed self time of these spans.
SELF_TIME = {
    "slope_search.enumerate_s": ("slope_search.enumerate_short_slopes",
                                 "slope_search.search_box"),
    "bound_calculus.count_bound_s": ("bound_calculus.slope_count_bound",
                                     "bound_calculus.guarded_floor",
                                     "bound_calculus.delta_bound",
                                     "bound_calculus.smallest_prime_greater"),
    "bound_calculus.lemma_s": ("bound_calculus.verify_counting_lemma",),
    "report_io.cusp_load_s": ("report_io.load_cusp_file", "report_io.parse_cusp_records"),
    "report_io.build_self_s": ("report_io.build_analysis_report",),
    "report_io.dump_s": ("report_io.report_to_dict", "report_io.report_to_json",
                         "report_io.save_report"),
    "report_io.load_s": ("report_io.report_from_dict", "report_io.load_report"),
    "diagram.emit_s": ("diagram.emit_lattice_svg", "diagram.canvas_transform"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation; its spans share `op_id`."""
        self._op = op_id
        rec = self._enter("op")
        try:
            yield
        finally:
            self._exit(rec)
            self._op = None

    def _wrap(self, label: str, fn):
        counts = self.counts
        if label in COUNTED_ONLY:
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted
        hook = RESULT_HOOKS.get(label)

        def spanned(*args, **kwargs):
            rec = self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if hook is not None:
                hook(counts, result)
            return result
        return spanned

    # -- patching ------------------------------------------------------------

    def install(self, package: str = "cuspslopes") -> None:
        mods = [importlib.import_module(package)]
        mods += [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        shape_cls = mods[0].cusp_geometry.CuspShape
        post_init = shape_cls.__post_init__

        def counted_post_init(obj):
            self.counts["cusp_geometry.shapes_built"] += 1
            post_init(obj)
        self._undo.append((shape_cls, "__post_init__", post_init))
        shape_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus the time of child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return {name: ns / 1e9 for name, ns in totals.items()}

    def call_counts(self) -> Counter:
        calls = Counter(self.counts)
        calls.update(name for name, *_ in self.spans)
        return calls

    def inclusive_mean(self, name: str) -> float:
        durs = [end - start for n, start, end, *_ in self.spans if n == name]
        return sum(durs) / len(durs) / 1e9 if durs else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded passes (see README.md)."""
        st = self.self_times()
        calls = self.call_counts()
        out = {name: sum(st.get(f, 0.0) for f in funcs) for name, funcs in SELF_TIME.items()}
        scanned = calls["cusp_geometry.slope_length"]
        kept = calls["slope_search.kept"]
        out.update({
            "cusp_geometry.slope_length_calls": scanned,
            "cusp_geometry.intersection_number_calls": calls["cusp_geometry.intersection_number"],
            "cusp_geometry.shapes_built": calls["cusp_geometry.shapes_built"],
            "slope_search.calls": calls["slope_search.enumerate_short_slopes"],
            "slope_search.box_cells": calls["slope_search.box_cells"],
            "slope_search.kept": kept,
            "slope_search.kept_per_candidate": kept / scanned if scanned else 0.0,
            "bound_calculus.lemma_points": calls["bound_calculus.project_to_fp"],
            "bound_calculus.floor_guard_hits": calls["bound_calculus.floor_guard_hits"],
            "report_io.bytes": calls["report_io.bytes"],
            "diagram.markers": calls["diagram.markers"],
            "diagram.svg_bytes": calls["diagram.svg_bytes"],
            "cli.main_s": self.inclusive_mean("cli.main"),
        })
        return out

    def dump(self, path: str, extra: dict) -> None:
        data = dict(extra)
        data["counts"] = dict(sorted(self.call_counts().items()))
        data["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
