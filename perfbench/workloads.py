"""The two workloads, and the command-line steps of the traced runs: inputs,
one operation, and its correctness check.

Each workload exposes `items` (one pass), `op(item)` (the timed call into
the program, returning its output and the bytes of reports it wrote, or
None) and `check(item, out)` (the oracle, run outside the timed region).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import corpus
import oracle
from oracle import Expected, require

import cuspslopes as cs
import cuspslopes.cli  # noqa: F401  (cs.cli)


def load_program_shapes(path: str, shapes) -> dict:
    """Load the benchmark's cusp file with the program and check it."""
    loaded, errors = cs.report_io.load_cusp_file(path)
    require(not errors, f"cusp file records rejected: {errors[:3]}")
    by_name = {s.name: s for s in loaded}
    for s in shapes:
        got = by_name.get(s.name)
        require(got is not None and got.meridian == s.meridian and got.longitude == s.longitude,
                f"cusp {s.name} did not load as written")
    return by_name


class Census:
    """Each shape analysed in both regimes with an in-memory JSON round trip."""

    name = "census"

    def __init__(self, seed: int, out_dir: str):
        self.shapes = corpus.census_shapes(seed)
        self.cusp_path = os.path.join(out_dir, "census-cusps.json")
        corpus.write_cusp_file(self.shapes, self.cusp_path)
        self.expected = {
            s.name: [Expected.build(s, t, floor) for t, floor in corpus.CENSUS_REGIMES]
            for s in self.shapes
        }
        self.program_shapes = load_program_shapes(self.cusp_path, self.shapes)
        self.items = [self.program_shapes[s.name] for s in self.shapes]

    def op(self, shape):
        out = []
        for threshold, floor in corpus.CENSUS_REGIMES:
            report = cs.report_io.build_analysis_report(shape, threshold, area_floor=floor)
            text = cs.report_io.report_to_json(report)
            data = json.loads(text)
            out.append((report, text, data, cs.report_io.report_from_dict(data)))
        return out, sum(len(text.encode()) for _r, text, _d, _b in out)

    def check(self, shape, out) -> None:
        for exp, (report, _text, data, back), bound in zip(self.expected[shape.name], out,
                                                           corpus.PAPER_BOUNDS):
            require(back == report, f"{shape.name}: JSON round trip changed the report")
            oracle.check_report_dict(data, exp)
            oracle.check_paper_bound(data, *bound)


def analysis_dict(report) -> dict:
    """A v1 report dict read off an AnalysisReport's fields."""
    lemma = report.lemma
    return {
        "format": "slope-analysis-report", "version": "v1",
        "threshold": report.threshold,
        "slopes": [{"a": e.slope.a, "b": e.slope.b, "length": e.length,
                    "boundary": e.boundary} for e in report.entries],
        "delta_matrix": [list(row) for row in report.delta_matrix],
        "max_delta": report.max_delta,
        "bound": {"length_threshold": report.bound.query.length_threshold,
                  "area_floor": report.bound.query.area_floor,
                  "delta_max": report.bound.delta_max, "prime": report.bound.prime,
                  "count_bound": report.bound.count_bound},
        "lemma": {"prime": lemma.prime, "injective": lemma.injective,
                  "collision": lemma.collision},
    }


class Dense:
    """Large reports written to disk, read back and drawn."""

    name = "dense"
    canvas = 1000

    def __init__(self, seed: int, out_dir: str):
        self.items_raw = corpus.dense_items(seed)
        self.shapes = list({i.shape.name: i.shape for i in self.items_raw}.values())
        self.cusp_path = os.path.join(out_dir, "dense-cusps.json")
        self.report_path = os.path.join(out_dir, "dense-report.json")
        corpus.write_cusp_file(self.shapes, self.cusp_path)
        self.expected = [Expected.build(i.shape, i.threshold, oracle.shape_area(i.shape))
                         for i in self.items_raw]
        self.program_shapes = load_program_shapes(self.cusp_path, self.shapes)
        self.items = [(n, self.program_shapes[i.shape.name], i.threshold)
                      for n, i in enumerate(self.items_raw)]

    def op(self, item):
        _n, shape, threshold = item
        report = cs.report_io.build_analysis_report(shape, threshold)
        cs.report_io.save_report(report, self.report_path)
        back = cs.report_io.load_report(self.report_path)
        short = cs.slope_search.ShortSlopeReport(
            shape, threshold, back.entries, back.delta_matrix, back.max_delta)
        svg = cs.diagram.emit_lattice_svg(
            cs.diagram.DiagramSpec(short, width=self.canvas, height=self.canvas))
        return (report, back, svg), os.path.getsize(self.report_path)

    def check(self, item, out) -> None:
        n, _shape, _threshold = item
        report, back, svg = out
        require(back == report, "report changed on save and load")
        oracle.check_report_dict(analysis_dict(report), self.expected[n], area_rel=1e-12)
        oracle.check_svg(svg, len(report.entries))


class Cli:
    """The command-line steps of the traced runs: the eight subcommands on
    census-style shapes, each run in process through `cli.main(argv)`."""

    def __init__(self, seed: int, out_dir: str):
        self.shapes = corpus.cli_shapes(seed)
        self.cusp_path = os.path.join(out_dir, "cli-cusps.json")
        corpus.write_cusp_file(self.shapes, self.cusp_path)
        self.items = corpus.cli_steps(seed, self.cusp_path, out_dir)
        self.expected = {}
        for s in self.shapes:
            area = oracle.shape_area(s)
            for threshold, floor in corpus.CENSUS_REGIMES:
                self.expected[s.name, threshold, None] = Expected.build(s, threshold, area)
                self.expected[s.name, threshold, floor] = Expected.build(s, threshold, floor)

    def run_in_process(self, step):
        """One step through `cli.main(argv)` in this process.  A written
        report is read back with `load_report`, as its user would."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cs.cli.main(list(step.argv))
        if code != 0:
            raise RuntimeError(f"cli.main exit {code}")
        if step.kind == "report":
            cs.report_io.load_report(step.extra[0])
        return buf.getvalue(), self.written_bytes(step)

    @staticmethod
    def written_bytes(step):
        return os.path.getsize(step.extra[0]) if step.kind == "report" else None

    def check(self, step, stdout: str) -> None:
        kind, s = step.kind, step.shape
        threshold, floor = corpus.CENSUS_REGIMES[step.regime]
        if kind == "slopes":
            oracle.check_cli_slopes(stdout, self.expected[s.name, 6.0, None])
        elif kind == "slopes_json":
            oracle.check_report_dict(json.loads(stdout), self.expected[s.name, threshold, None],
                                     area_rel=1e-12)
        elif kind == "bound":
            oracle.check_cli_bound(stdout, threshold, floor)
        elif kind == "lemma":
            oracle.check_cli_lemma(stdout, self.expected[s.name, 6.0, None])
        elif kind == "report":
            path = step.extra[0]
            exp = self.expected[s.name, threshold, floor]
            count = oracle.next_prime(exp.delta_ceiling) + 1
            oracle.check_cli_wrote(stdout, path, rf"{len(exp.slopes)} slopes, count bound {count}")
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            oracle.check_report_dict(data, exp)
            oracle.check_paper_bound(data, *corpus.PAPER_BOUNDS[step.regime])
        elif kind == "diagram":
            n = len(self.expected[s.name, 6.0, None].slopes)
            oracle.check_cli_wrote(stdout, step.extra[0], rf"{n} slopes, {2 * n} highlighted markers")
            with open(step.extra[0], encoding="utf-8") as f:
                oracle.check_svg(f.read(), n)
        elif kind == "audit":
            oracle.check_cli_audit(stdout, *step.extra)
        elif kind == "horodisk_ratio":
            oracle.check_cli_horodisk_ratio(stdout)
        else:
            oracle.check_cli_horodisk_separation(stdout, *step.extra)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd) -> tuple[float, str, str]:
    """Wall seconds from spawn to exit, stdout and stderr of one child."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall, proc.stdout, proc.stderr


SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import cuspslopes\n"
    "shapes, errors = cuspslopes.load_cusp_file(sys.argv[1])\n"
    "print(time.perf_counter() - t, len(shapes), len(errors))\n"
)


def setup_seconds(root: str, cusp_path: str, n_shapes: int, samples: int,
                  warm: bool = False) -> list[float]:
    """Import of cuspslopes plus load of the corpus, each in a fresh
    interpreter.  With `warm`, one unrecorded set-up first writes the
    bytecode cache."""
    env = child_env(root)
    out = []
    for i in range(samples + warm):
        _wall, stdout, _err = run_child([sys.executable, "-c", SETUP_CODE, cusp_path], env, root)
        secs, shapes, errors = stdout.split()
        require(int(shapes) == n_shapes and int(errors) == 0, "set-up loaded the wrong shapes")
        if i >= warm:
            out.append(float(secs))
    return out


def import_seconds(root: str, samples: int) -> list[float]:
    """Cumulative `-X importtime` of cuspslopes and cuspslopes.cli."""
    env = child_env(root)
    out = []
    for _ in range(samples):
        _wall, _o, err = run_child([sys.executable, "-X", "importtime", "-c",
                                    "import cuspslopes.cli"], env, root)
        total = 0
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("cuspslopes", "cuspslopes.cli"):
                total += int(parts[1])
        require(total > 0, "no import time recorded for cuspslopes")
        out.append(total / 1e6)
    return out


def interpreter_seconds(root: str, samples: int) -> list[float]:
    return [run_child([sys.executable, "-c", "pass"], os.environ.copy(), root)[0]
            for _ in range(samples)]


def make(name: str, seed: int, out_dir: str):
    if name == "census":
        return Census(seed, out_dir)
    if name == "dense":
        return Dense(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
