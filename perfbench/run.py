"""Benchmark entry point for cuspslopes.

    python3 perfbench/run.py --workload census|dense --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`.  With
`--trace 0` the run measures the end-to-end metrics; with `--trace 1` it
makes one untraced and two traced passes and reports per-layer metrics.
End-to-end times are scaled to the speed of a reference host by a
calibration loop timed during the run (see README.md).
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Results and traces are also written under `perfbench-out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")

SETUP_SAMPLES = 21
MIN_PASSES = 3
PROBE_SAMPLES = 7
WORKLOADS = ("census", "dense")
CALIBRATE_EVERY_S = 0.25
# Best time of `calibration_loop` on the host the reference figures in
# README.md come from: times are reported at that host's speed.
REFERENCE_CALIBRATION_S = 6.0e-4


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of `samples` beyond it."""
    return max(q for q in range(1, 100) if samples * (100 - q) >= 1000)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibration_loop() -> None:
    """Fixed interpreter work (dict updates, float arithmetic, a sort) that
    calls nothing of the program."""
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += (i * 0.5) ** 0.5
    sorted((v % 13, k) for k, v in counts.items())


class HostSpeed:
    """Times `calibration_loop` between operations, at most once every
    CALIBRATE_EVERY_S.  Load from other tenants of the host slows everything
    on it together, by up to a third for minutes at a time, and the loop's
    best time over a run follows it (see README.md)."""

    def __init__(self):
        self.samples: list[float] = []
        self.due = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self.due:
            calibration_loop()
            done = time.perf_counter()
            self.samples.append(done - now)
            self.due = done + CALIBRATE_EVERY_S

    def factor(self) -> float:
        """Reference speed over this run's speed; times are multiplied by it."""
        return REFERENCE_CALIBRATION_S / min(self.samples)


class Run:
    """Counts operations and keeps the first correctness failure."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.error = None

    def one(self, item, call, check, times=None, tracer=None, op_id=None):
        """Time one operation, then check its output; returns bytes written."""
        self.attempted += 1
        try:
            with tracer.op(op_id) if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                out, written = call(item)
                dt = time.perf_counter() - t0
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {traceback.format_exc(limit=3)}", file=sys.stderr)
            return None
        if times is not None:
            times.append(dt)
        try:
            check(item, out)
        except AssertionError as e:
            self.fail(f"{self.w.name}: {e}")
        return written

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message
            print(f"check failed: {message}", file=sys.stderr)


def measure(run: Run, seconds: float, between,
            host: HostSpeed) -> tuple[list[list[float]], int]:
    """Whole passes over `w.items` while the next one, if it takes as long
    as the last, ends within `seconds`, and at least MIN_PASSES of them;
    `between()` runs before the first pass and after each one, and `host`
    is calibrated between operations.  Returns each item's op times (one per
    pass it did not fail) and the report bytes written by one pass."""
    w = run.w
    per_item: list[list[float]] = [[] for _ in w.items]
    pass_bytes = 0
    passes = 0
    last = 0.0
    start = time.perf_counter()
    between()
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        written = []
        for item, times in zip(w.items, per_item):
            written.append(run.one(item, w.op, w.check, times))
            host.tick()
        if passes == 0:
            pass_bytes = sum(b or 0 for b in written)
        passes += 1
        between()
        last = time.perf_counter() - t0
    return per_item, pass_bytes


def end_to_end(w, run: Run, seconds: float) -> dict:
    from workloads import setup_seconds

    # Set-up samples are spread over the run, a few before and after each
    # pass, so that their median does not hang on one moment of host load.
    setup: list[float] = []
    chunk = -(-SETUP_SAMPLES // (MIN_PASSES + 1))

    def sample_setup():
        n = min(chunk, SETUP_SAMPLES - len(setup))
        if n > 0:
            setup.extend(setup_seconds(ROOT, w.cusp_path, len(w.shapes), n, warm=not setup))

    host = HostSpeed()
    per_item, pass_bytes = measure(run, seconds, sample_setup, host)
    # Medians and percentiles over every timed operation of the run take out
    # load that comes and goes within it; the calibration factor takes out
    # load that lasts the whole run (see README.md).
    times = [t for ts in per_item for t in ts]
    k = host.factor()
    # The tail is fixed per workload: the highest percentile that leaves ten
    # operations beyond it in a run of the fewest passes.
    q = tail_percentile(len(w.items) * MIN_PASSES)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# {w.name}: {len(times)} timed operations, {len(w.items)} distinct; "
          f"tail = p{q}; set-up = median of {len(setup)} fresh interpreters; "
          f"times scaled by {k:.4f} to the reference host speed")
    metrics = {
        "setup_s": (statistics.median(setup) * k, "s"),
        "ops_per_s": (len(times) / (sum(times) * k), "1/s"),
        "op_p50_ms": (statistics.median(times) * k * 1e3, "ms"),
        "op_tail_ms": (percentile(times, q) * k * 1e3, "ms"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        "report_bytes": (float(pass_bytes), "B"),
    }
    return metrics, {"setup_s": setup, "op_s": per_item, "calibration_s": host.samples}


def traced(w, run: Run, seed: int, out_dir: str, tmp: str) -> dict:
    """One untraced pass, then two traced passes whose counts must match."""
    import spans
    from workloads import Cli, import_seconds, interpreter_seconds, load_program_shapes

    # The cli layer is reached in process: one pass of its steps follows the
    # workload's operations.
    cli = Cli(seed, tmp)

    def workload_ops(tracer=None) -> float:
        times: list[float] = []
        for i, item in enumerate(w.items):
            run.one(item, w.op, w.check, times, tracer, op_id=f"{w.name}:{i}")
        return sum(times)

    untraced_s = workload_ops()
    tracer = spans.Tracer()
    tracer.install()
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            with tracer.op("setup"):
                load_program_shapes(w.cusp_path, w.shapes)
            traced_s = workload_ops(tracer)
            for i, step in enumerate(cli.items):
                run.one(step, cli.run_in_process, cli.check, None, tracer, op_id=f"cli:{i}")
            passes.append((tracer.layer_metrics(), traced_s))
    finally:
        tracer.uninstall()
    (first, t1), (second, t2) = passes
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    if counts != {k: v for k, v in second.items() if not k.endswith("_s")}:
        run.fail("counts differ between the two traced passes")
    metrics = {k: ((v + second[k]) / 2 if k.endswith("_s") else v) for k, v in first.items()}
    metrics["cli.import_s"] = statistics.median(import_seconds(ROOT, PROBE_SAMPLES))
    metrics["cli.interpreter_s"] = statistics.median(interpreter_seconds(ROOT, PROBE_SAMPLES))
    metrics["trace.overhead_pct"] = ((t1 + t2) / 2 / untraced_s - 1.0) * 100.0
    tracer.dump(os.path.join(out_dir, f"trace-{w.name}-seed{seed}.json"),
                {"workload": w.name, "seed": seed, "metrics": metrics})
    units = {"_s": "s", "_pct": "%", "bytes": "B", "per_candidate": "ratio"}
    return {k: (v, next((u for sfx, u in units.items() if k.endswith(sfx)), "count"))
            for k, v in metrics.items()}, {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cuspslopes", "__init__.py")):
        print(f"error: no cuspslopes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import selftest
    import workloads

    selftest.run()
    out_dir = os.path.join(OUT, "results")
    tmp = os.path.join(OUT, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    try:
        w = workloads.make(args.workload, args.seed, tmp)
        run = Run(w)
        if args.trace:
            metrics, samples = traced(w, run, args.seed, out_dir, tmp)
        else:
            metrics, samples = end_to_end(w, run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": run.error is None,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump({**result, "samples": samples}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
