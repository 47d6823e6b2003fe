"""excisionlab benchmark: end-to-end and per-layer timings of four workloads.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --runs 3 --out perfbench/results/base.json
    python3 perfbench/run.py --compare perfbench/results/base.json perfbench/results/new.json

A run starts worker processes one after another (never two at once), each
single-threaded, until `--seconds` is used up.  Each worker sets up the
workload from the seed, then runs passes over its operation list as a closed
loop: one operation at a time, each started when the previous one finished.
The first pass of a worker is cold, the second warm.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1`, workers alternate between traced and
untraced, and the object holds the per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles

from worker import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pipeline", "deep", "strict", "verify")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_WORKERS = {0: 3, 1: 4}  # per --trace value; traced runs alternate


class BenchError(RuntimeError):
    pass


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("cert_bytes"):
        return "bytes"
    if name.endswith((".reuse", "_overhead", "_coverage")):
        return "ratio"
    return "count"


def environment():
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": "unknown",
        "platform": platform.platform(),
        "commit": None,
        "dirty": None,
    }
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = ["git", "-C", ROOT]
            info["commit"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=20, check=True).stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True,
                timeout=20, check=True).stdout
            info["dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def spawn(workload, seed, size, passes, traced, deadline, inject_fault=False,
          spans_out=None):
    kernel_s = calibrate()
    started = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--size", size, "--passes", str(passes), "--trace", str(int(traced)),
           "--spawned-at", repr(started), "--kernel-before", repr(kernel_s)]
    if inject_fault:
        cmd.append("--inject-fault")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(5.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - started
    return report


def run_workload(workload, seed, seconds, trace, size="full", inject_fault=False):
    """Run workers until `seconds` are used; return the aggregated result."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + RUN_LIMIT_S
    spans_out = os.path.join(HERE, "results", f"spans-{workload}-seed{seed}.jsonl")
    workers = []
    while True:
        traced = bool(trace) and len(workers) % 2 == 0
        workers.append(spawn(workload, seed, size, 1 if trace else 2, traced,
                             hard_deadline, inject_fault,
                             spans_out if traced and len(workers) == 0 else None))
        workers[-1]["traced"] = traced
        longest = max(w["wall_s"] for w in workers)
        now = time.monotonic()
        if len(workers) >= MIN_WORKERS[int(bool(trace))] and now + longest > deadline:
            break
        if now + longest > hard_deadline:
            break
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    raw = {
        "setup_s": median(w["raw_setup_s"] for w in workers),
        "cold_s": median(w["raw_passes"][0] for w in workers),
    }
    if trace:
        metrics = traced_metrics(workers)
    else:
        metrics = {
            "setup_s": median(w["setup_s"] for w in workers),
            "cold_s": median(w["passes"][0] for w in workers),
            "warm_s": median(p for w in workers for p in w["passes"][1:]),
            "peak_rss_mb": median(w["peak_rss_kb"] for w in workers) / 1024,
        }
        raw["warm_s"] = median(p for w in workers for p in w["raw_passes"][1:])
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "size": size,
        "seconds": seconds,
        "workers": len(workers),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": [f for w in workers for f in w["failures"]][:10],
        "raw_seconds": raw,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def traced_metrics(workers):
    traced = [w for w in workers if w["traced"]]
    plain = [w["passes"][0] for w in workers if not w["traced"]]
    layers = [w["layers"] for w in traced]
    metrics = {}
    for name in layers[0]:
        values = [sample[name] for sample in layers]
        metrics[name] = values[0] if len(set(values)) == 1 else median(values)
    metrics["trace_overhead"] = median(w["passes"][0] for w in traced) / median(plain)
    return metrics


def format_value(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(result):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['workers']} worker processes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {format_value(metric['value']):>14s} {metric['unit']}")
    print(f"  {'fail_ratio':40s} {format_value(result['fail_ratio']):>14s} ratio")
    print("  raw wall seconds, before host-speed calibration: " + ", ".join(
        f"{name} {value:.6g}" for name, value in result["raw_seconds"].items()))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def contract_line(result):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def write_results(path, env, results):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"env": env, "runs": results}, handle, indent=1)
        handle.write("\n")


def iqr_share(values):
    if len(values) < 2:
        return None
    q1, mid, q3 = quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0


def compare(path_a, path_b):
    """Print per-workload, per-metric deltas from result file A to B."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = []
    for path in (path_a, path_b):
        with open(path) as handle:
            grouped = {}
            for run in json.load(handle)["runs"]:
                for name, metric in run["metrics"].items():
                    key = (run["workload"], name)
                    grouped.setdefault(key, []).append(metric["value"])
            sides.append(grouped)
    regressions = 0
    print(f"{'workload':10s} {'metric':40s} {'A median':>12s} {'B median':>12s} "
          f"{'delta':>8s} {'spread':>7s}  verdict")
    for key in sorted(set(sides[0]) & set(sides[1])):
        a, b = sides[0][key], sides[1][key]
        ma, mb = median(a), median(b)
        delta = (mb - ma) / ma if ma else None
        spreads = [iqr_share(a), iqr_share(b)]
        spread = None if None in spreads else max(spreads)
        bound = bounds.get(key[1])
        verdict = ""
        if bound is not None:
            worse = delta if better[key[1]] == "lower" else -delta
            if spread is None or spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
        print(f"{key[0]:10s} {key[1]:40s} {format_value(ma):>12s} {format_value(mb):>12s} "
              f"{'n/a' if delta is None else f'{delta:+.1%}':>8s} "
              f"{'n/a' if spread is None else f'{spread:.1%}':>7s}  {verdict}")
    return 1 if regressions else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-fault", action="store_true",
                        help="verify workload: store one tampered certificate as sound")
    parser.add_argument("--out", help="write the results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (args.all or args.workload):
        parser.error("give --workload, --all or --compare")
    if not os.path.isfile(os.path.join(ROOT, "src", "excisionlab", "__init__.py")):
        print("error: src/excisionlab not found next to perfbench/", file=sys.stderr)
        return 2
    env = environment()
    results = []
    try:
        if args.all:
            for workload in WORKLOADS:
                for seed in range(args.seed, args.seed + args.runs):
                    results.append(run_workload(workload, seed, args.seconds, args.trace,
                                                args.size, args.inject_fault))
                    print_summary(results[-1])
        else:
            results.append(run_workload(args.workload, args.seed, args.seconds,
                                        args.trace, args.size, args.inject_fault))
            print_summary(results[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(dict(env, seed=args.seed)))
    if args.out:
        write_results(args.out, env, results)
    if not args.all:
        print(contract_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
