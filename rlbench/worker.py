"""One workload in one process: set up, time, check, print one JSON line.

Started by run.py under an address-space cap, so a blow-up ends as a
counted MemoryError.  With --trace 0 no wrappers are installed.  With
--trace 1 untraced and traced operations alternate (the difference of their
medians is the tracing overhead), and one more operation runs under
tracemalloc, apart from both, for the allocation peak.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402  (imports rangeloop)
from tracer import Tracer, layer_metrics  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
SETUP_REPS = 3
MAX_FAILURES = 3


class Run:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def phase(self, seconds: float, min_ops: int, tracer=None):
        """Timed operations until `min_ops` are done and the next one, taking
        as long as the last, would end past `seconds`.  With a tracer, every
        second operation runs traced, so drift during the run affects both
        kinds alike.  Returns the (seconds, units) of the untraced and of
        the traced operations that succeeded."""
        plain, traced = [], []
        start = time.perf_counter()
        i = 0
        dt = 0.0
        while (i < min_ops or (tracer and not traced)
               or time.perf_counter() - start + dt <= seconds) and self.failed < MAX_FAILURES:
            on = tracer is not None and i % 2 == 1
            i += 1
            self.w.prepare()
            self.attempted += 1
            if on:
                tracer.install()
            t0 = time.perf_counter()
            try:
                n = self.w.op()
                dt = time.perf_counter() - t0
            except Exception as exc:  # MemoryError included
                self.fail("operation", exc)
                continue
            finally:
                if on:
                    tracer.uninstall()
            (traced if on else plain).append((dt, n))
        return plain, traced

    def checks(self) -> None:
        for name, fn in self.w.checks():
            self.attempted += 1
            try:
                fn()
            except Exception as exc:  # MemoryError included
                self.fail(f"check {name}", exc)


def per_layer(run: Run, tracer: Tracer, setup_stats, plain, traced) -> dict:
    stats = tracer.take()
    layer = layer_metrics(stats, sum(n for _, n in traced))
    layer["synthworld.generate_world.self_s"] = (
        setup_stats[1].get("synthworld.generate_world", 0.0) / SETUP_REPS)
    layer["trace.coverage"] = stats[3] / sum(d for d, _ in traced)
    if plain:
        layer["trace.overhead_frac"] = (statistics.median(d for d, _ in traced)
                                        / statistics.median(d for d, _ in plain) - 1.0)
    losses = [x for trace in getattr(run.w, "traces", []) for x in trace]
    layer["training.active_step_ratio"] = (
        sum(x > 0.0 for x in losses) / len(losses) if losses else 0.0)
    layer["training.step.alloc_peak_mb"] = 0.0
    layer["pipeline.describe_images.alloc_peak_mb"] = 0.0
    if run.w.alloc_metric:
        run.attempted += 1
        tracemalloc.start()
        try:
            run.w.alloc_op()
            layer[run.w.alloc_metric] = tracemalloc.get_traced_memory()[1] / 2**20
        except Exception as exc:  # MemoryError included
            run.fail("allocation pass", exc)
        finally:
            tracemalloc.stop()
    return layer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for work files and spans")
    args = ap.parse_args()

    work_dir = os.path.join(args.out, f"work-{args.workload}")
    os.makedirs(work_dir, exist_ok=True)
    run = Run(wl.WORKLOADS[args.workload]())
    tracer = Tracer(args.workload) if args.trace else None

    setup_times = []
    if tracer:
        tracer.install()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        run.w.setup(args.seed, work_dir)
        setup_times.append(time.perf_counter() - t0)
    result = {"unit": run.w.unit, "alias": run.w.alias,
              "setup_s": IMPORT_S + statistics.median(setup_times),
              "setup_reps_s": setup_times, "import_s": IMPORT_S}
    if tracer:
        tracer.uninstall()
        setup_stats = tracer.take()
        tracer.phase = "timed"

    plain, traced = run.phase(args.seconds, run.w.min_ops, tracer)
    if plain:
        result["ops_per_s"] = statistics.median(n / d for d, n in plain)
        result["op_s"] = [d for d, _ in plain]
    if traced:
        result["per_layer"] = per_layer(run, tracer, setup_stats, plain, traced)
        result["traced_op_s"] = [d for d, _ in traced]
        tracer.write_spans(os.path.join(args.out, f"spans-{args.workload}.jsonl"))
    run.checks()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
