"""One workload process: set up, run a closed loop, check, print one JSON record.

``run.py`` starts this script in a fresh interpreter.  ``--setup-only`` stops
after set-up (one ``setup_s`` sample).  Otherwise the loop runs passes over
the workload's items, one operation at a time, until ``--seconds`` have gone
by at the end of a pass; every output is checked after the loop.  Set-up
and loop times are reported calibrated (see ``Calibration``), with the raw
values alongside.  With ``--trace`` the passes alternate between untraced
and traced (timing proxies installed), and the record carries the per-layer
numbers.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

clock = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Median time of ``reference_kernel`` on the machine the benchmark was
#: defined on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).  Calibrated
#: times are scaled to it.
REF_KERNEL_MS = 0.7
#: The reference kernel runs between operations at most this often.
REF_EVERY_S = 0.025
#: Reference sampling after a set-up.
SETUP_CALIBRATION_S = 0.25


def reference_kernel() -> float:
    """Fixed work of the package's kind, the same at every commit: small
    rational arithmetic and one vectorized numpy pass."""
    import numpy as np  # not at module top: ``setup_s`` times numpy's import

    total = Fraction(0)
    for i in range(1, 80):
        total = (total + Fraction(i % 7 + 1, i % 5 + 2)) * Fraction(1, 2)
    xs = np.linspace(0.0, 1.0, 4001)
    return float(np.clip((xs - 0.3) / 0.5, 0.0, 1.0).sum()) + float(total)


class Calibration:
    """Timings of the reference kernel, taken between operations.

    The machine's speed moves by tens of percent within seconds, and the
    kernel slows with it.  Scaling a measured time by the factor
    ``REF_KERNEL_MS / kernel time`` expresses it at the speed the kernel has
    on the reference machine.  ``local_factor`` takes the kernel's median
    over the samples near one operation, so that each operation is scaled by
    the speed the machine had while it ran.
    """

    #: Samples within this many seconds before and after an operation are
    #: its neighbours, but at least ``MIN_NEIGHBOURS`` of the nearest.
    HALF_WINDOW_S = 0.5
    MIN_NEIGHBOURS = 8

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._last = clock()

    def sample(self) -> float:
        t0 = clock()
        reference_kernel()
        self._last = clock()
        self.times.append(0.5 * (t0 + self._last))
        self.samples.append(self._last - t0)
        return self._last - t0

    def due(self) -> float:
        """One sample per ``REF_EVERY_S`` gone by since the last one, so that
        long operations are followed by several; returns the time spent."""
        spent = 0.0
        for _ in range(min(int((clock() - self._last) / REF_EVERY_S), 40)):
            spent += self.sample()
        return spent

    def for_seconds(self, seconds: float) -> None:
        end = clock() + seconds
        while clock() < end:
            self.sample()

    @property
    def ref_ms(self) -> float:
        if not self.samples:
            self.sample()
        return 1e3 * statistics.median(self.samples)

    @property
    def factor(self) -> float:
        return REF_KERNEL_MS / self.ref_ms

    def local_factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - self.HALF_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.HALF_WINDOW_S)
        while hi - lo < self.MIN_NEIGHBOURS and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REF_KERNEL_MS / (1e3 * statistics.median(self.samples[lo:hi]))


def _direct(fn, *args):
    return fn(*args)


def run_pass(wl, k: int, call, latencies: list, outputs: list, calibration=None,
             marks=None) -> None:
    """One pass over the workload's items; raising operations count as failed.

    With a calibration, the reference kernel runs between operations, and
    ``marks`` gets ``(start, end, kernel time after)`` of every operation.
    """
    for item in wl.pass_items(k):
        t0 = clock()
        try:
            out = call(wl.run, item)
        except Exception as exc:
            t1 = clock()
            out = exc
        else:
            t1 = clock()
            out = wl.collect(item, out)
        latencies.append(t1 - t0)
        outputs.append((item, out))
        if calibration is not None:
            marks.append((t0, t1, calibration.due()))


def closed_loop(wl, seconds: float, calibration) -> tuple[list, list, float, list, float]:
    """Whole passes until ``seconds`` elapse.

    Returns the raw latencies in s, the outputs, the raw wall time without
    the reference samples, and the calibrated latencies and wall time.  An
    operation's share of the wall time runs from its start to the next
    one's, less the reference samples in between.
    """
    latencies, outputs, marks = [], [], []
    start = clock()
    k = 0
    while True:
        run_pass(wl, k, _direct, latencies, outputs, calibration, marks)
        k += 1
        end = clock()
        if end - start >= seconds:
            break
    starts = [t0 for t0, _, _ in marks] + [end]
    wall = calibrated_wall = 0.0
    calibrated = []
    for i, (t0, t1, ref) in enumerate(marks):
        factor = calibration.local_factor(t0, t1)
        calibrated.append((t1 - t0) * factor)
        share = starts[i + 1] - t0 - ref
        wall += share
        calibrated_wall += share * factor
    return latencies, outputs, wall, calibrated, calibrated_wall


def traced_loop(wl, seconds: float, tracer) -> tuple[list, list, list, int]:
    """Untraced and traced passes in turn, so that both see the same machine
    conditions: (untraced latencies, traced latencies, outputs, traced ops)."""
    plain, traced, outputs = [], [], []
    start = clock()
    k = 0
    while True:
        run_pass(wl, k, _direct, plain, outputs)
        tracer.install()
        try:
            run_pass(wl, k, tracer.op, traced, outputs)
        finally:
            tracer.uninstall()
        k += 1
        if clock() - start >= seconds:
            return plain, traced, outputs, len(traced)


def check_all(wl, outputs) -> tuple[int, list[str]]:
    failed, samples = 0, []
    for item, out in outputs:
        problem = f"raised {out!r}" if isinstance(out, Exception) else wl.check(item, out)
        if problem:
            failed += 1
            if len(samples) < 5:
                samples.append(problem)
    return failed, samples


def latency_stats(latencies: list[float], items: int, tail_pct: float) -> dict:
    """Median of all latencies, and the workload's tail percentile (nearest
    rank) of the per-item medians.

    ``latencies`` holds whole passes over the same ``items`` items in the
    same order.  Taking each item's median over the passes first keeps the
    slow items in the tail and drops the machine's interruptions, which hit
    a different few operations in every pass.
    """
    ms = [1e3 * t for t in latencies]
    passes = len(ms) // items
    per_item = sorted(statistics.median(ms[i::items]) for i in range(items))
    rank = max(1, math.ceil(tail_pct / 100 * items))
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": per_item[rank - 1],
        "tail_percentile": tail_pct,
        "tail_items_beyond": items - rank,
        "tail_samples_beyond": (items - rank) * passes,
        "items": items,
        "passes": passes,
        "samples": len(ms),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = clock()
    sys.path.insert(0, SRC)
    import mixquant
    import mixquant.cli

    import_s = clock() - t0
    if os.path.dirname(os.path.abspath(mixquant.__file__)) != os.path.join(SRC, "mixquant"):
        print(f"mixquant imported from {mixquant.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, "perfbench", ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = clock() - t0
        calibration = Calibration()
        calibration.for_seconds(SETUP_CALIBRATION_S)
        record = {"setup_s": setup_s * calibration.factor, "setup_s_raw": setup_s,
                  "setup_ref_ms": calibration.ref_ms, "import_s": import_s}
        if not args.setup_only:
            record.update(measure(wl, args, import_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def measure(wl, args, import_s: float) -> dict:
    import numpy
    import scipy

    import exact_check
    import workloads

    exact_check.self_test()
    workloads.float_self_test()
    first = next(iter(wl.pass_items(0)))
    wl.collect(first, wl.run(first))  # warm-up, outside every metric
    gc.collect()  # set-up garbage is not the loop's to collect

    if not args.trace:
        calibration = Calibration()
        latencies, outputs, wall, calibrated, calibrated_wall = closed_loop(
            wl, args.seconds, calibration
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, samples = check_all(wl, outputs)
        items = len(list(wl.pass_items(0)))
        raw = latency_stats(latencies, items, wl.TAIL_PERCENTILE)
        raw["ops_per_s"] = len(outputs) / wall
        stats = latency_stats(calibrated, items, wl.TAIL_PERCENTILE)
        record = {
            "op_ms_p50": stats["op_ms_p50"],
            "op_ms_tail": stats["op_ms_tail"],
            "ops_per_s": len(outputs) / calibrated_wall,
            "raw": raw,
            "ref_ms": calibration.ref_ms,
            "ref_samples": len(calibration.samples),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced, outputs, traced_ops = traced_loop(wl, args.seconds, tracer)
        failed, samples = check_all(wl, outputs)
        per_layer, adds_up = tracer.summary(traced_ops)
        per_layer["cli.import_s"] = import_s
        per_layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        trace_dir = os.path.join(ROOT, "perfbench", ".work", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.tsv")
        tracer.write(trace_path)
        record = {"per_layer": per_layer, "self_times_add_up": adds_up,
                  "traced_ops": traced_ops, "untraced_ops": len(plain),
                  "trace_file": os.path.relpath(trace_path, ROOT)}
    record.update(
        attempted=len(outputs),
        failed=failed,
        failure_samples=samples,
        references_ok=wl.references_ok(),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    return record


if __name__ == "__main__":
    sys.exit(main())
