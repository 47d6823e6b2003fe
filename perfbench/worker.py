"""One benchmark process: set up one workload, run its passes over the
operation list one operation at a time, and print a JSON report as the last
line of standard output.  Started by run.py; not meant to be run by hand.

Set-up time runs from the moment the parent started this process
(`--spawned-at`, a CLOCK_MONOTONIC reading) to inputs ready, so it covers
interpreter start, imports, the demo corpus with its validation and input
generation.

Host speed on a shared machine drifts by tens of percent over seconds to
minutes.  So a fixed calibration kernel (exact elimination of a 24x24
rational matrix, the same kind of work the library does) is timed just
before the process starts (by the parent), right after set-up, and between
operations at least every CAL_INTERVAL_S of operation time.  Every time is
also reported in reference seconds: raw seconds x CAL_REF_S / the mean
kernel time at both ends.  The kernel is the benchmark's own code, so no
change to the library moves it.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


CAL_SIZE = 24
CAL_REF_S = 0.04  # kernel time on a quiet 2-vCPU Xeon VM
CAL_INTERVAL_S = 0.25


def calibration_kernel(n=CAL_SIZE):
    """Gauss-Jordan elimination of a fixed n x n rational matrix in dicts."""
    rows = [{j: Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3)
             for j in range(n) if (i * j) % 5 != 1} for i in range(n)]
    for col in range(n):
        sel = next((i for i in range(col, n) if rows[i].get(col)), None)
        if sel is None:
            continue
        rows[col], rows[sel] = rows[sel], rows[col]
        pivot = rows[col]
        pivot_value = pivot[col]
        for j in list(pivot):
            pivot[j] /= pivot_value
        for i in range(n):
            factor = rows[i].get(col) if i != col else None
            if factor:
                target = rows[i]
                for j, v in pivot.items():
                    new = target.get(j, 0) - factor * v
                    if new:
                        target[j] = new
                    else:
                        target.pop(j, None)


def calibrate():
    """Seconds the calibration kernel takes now, garbage collector off so
    that objects the library keeps alive do not slow it."""
    gc.disable()
    try:
        start = perf_counter()
        calibration_kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def run_pass(workload, run, recorder):
    """Time each operation, then check it outside the timed (and traced)
    window.  Returns (seconds spent in operations, the same in reference
    seconds, failure reasons).

    Operations between two calibrations form a segment, scaled by the mean
    of the kernel times at its two ends."""
    elapsed = scaled = segment = 0.0
    last = calibrate()
    failures = []
    for op in workload.ops:
        result = problem = None
        if recorder is not None:
            recorder.active = True
        start = perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # a raising operation is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        segment += perf_counter() - start
        if recorder is not None:
            recorder.active = False
        if problem is None:
            try:
                problem = workload.check(op, result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{workload.describe(op)}: {problem}")
        if segment >= CAL_INTERVAL_S or op is workload.ops[-1]:
            now = calibrate()
            elapsed += segment
            scaled += segment * 2 * CAL_REF_S / (last + now)
            last, segment = now, 0.0
    return elapsed, scaled, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--kernel-before", type=float, required=True,
                        help="calibration kernel time the parent measured just before")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        import spans
        import workloads

        workload = workloads.make(args.workload, args.seed, args.size, workdir,
                                  args.inject_fault)
        setup_s = time.monotonic() - args.spawned_at
        setup_scale = 2 * CAL_REF_S / (args.kernel_before + calibrate())
        recorder = None
        run = workload.run
        if args.trace:
            recorder = spans.Recorder()
            recorder.install()
            run = recorder.wrap(spans.ROOT, workload.run)
        passes, raw_passes, failures, layers = [], [], [], None
        for index in range(args.passes):
            gc.collect()
            workload.counters = {}
            if recorder is not None:
                recorder.reset()
            elapsed, scaled, problems = run_pass(workload, run, recorder)
            raw_passes.append(elapsed)
            passes.append(scaled)
            failures.extend(problems)
            if recorder is not None and index == 0:
                extra = dict(workload.counters,
                             distinct_complexes=len(recorder.complexes))
                layers = spans.layer_metrics(recorder.layer_totals(), elapsed, extra,
                                             scaled / elapsed)
                if args.spans_out:
                    recorder.write(args.spans_out)
        report = {
            "setup_s": setup_s * setup_scale,
            "passes": passes,
            "raw_setup_s": setup_s,
            "raw_passes": raw_passes,
            "attempted": len(workload.ops) * args.passes,
            "failed": len(failures),
            "failures": failures[:10],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": layers,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
