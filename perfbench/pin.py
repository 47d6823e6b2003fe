"""Recompute perfbench/pinned.json, the expected answers the correctness
checks compare against:

    python3 perfbench/pin.py

pipeline: digest of dimensions, representatives and inverse images per case.
deep: homology dimensions on the shipped basis (a change of basis keeps them).
Re-pin only when a change of answer is intended and explained.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from excisionlab import excision  # noqa: E402


def main():
    splits = workloads.shipped_splits()
    pinned = {"pipeline": {}, "deep": {}}
    for cases in workloads.PIPELINE_CASES.values():
        for name, degree in cases:
            report = excision.isomorphism_witness(splits[name], degree, max_degree=degree)
            pinned["pipeline"][f"{name}/{degree}"] = workloads.report_digest(report)
    for cases in workloads.DEEP_CASES.values():
        for name, degree, _ in cases:
            report = excision.isomorphism_witness(splits[name], degree, max_degree=degree)
            pinned["deep"][f"{name}/{degree}"] = [report.dim_ideal, report.dim_relative]
    with open(workloads.PINNED_PATH, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
