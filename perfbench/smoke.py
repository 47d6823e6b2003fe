"""Smoke test of the benchmark itself, at the tiny input size:

    python3 perfbench/smoke.py

Checks that
  1. every workload reports fail_ratio 0, with tracing off and on;
  2. a traced run's self times add up to its traced pass time;
  3. one tampered certificate stored as sound gives fail_ratio > 0;
  4. next to no program (only BENCHMARK.json and perfbench/), the benchmark
     exits nonzero without printing a result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "deep", "strict", "verify")


def bench(workload, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    for workload in WORKLOADS:
        for trace in (0, 1):
            result = result_of(bench(workload, trace))
            expect(result["failed"] == 0 and result["correct"],
                   f"{workload} trace {trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed")
            if trace:
                coverage = result["metrics"]["trace.self_coverage"]["value"]
                expect(0.99 <= coverage <= 1.0,
                       f"{workload}: self times cover {coverage:.4f} of the traced pass")

    result = result_of(bench("verify", extra=["--inject-fault"]))
    expect(result["failed"] > 0 and not result["correct"],
           f"injected tampered certificate: {result['failed']} of "
           f"{result['attempted']} operations failed")

    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = bench("verify", cwd=bare)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not any(line.startswith("{") for line in printed),
               f"without the program: exit {proc.returncode}, {len(printed)} lines printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
