"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the sha256 of each gnp sample's trace file
in the sample's own labels, M_5(6), and the best sampled time for every
recorded sample seed.  Run it only on a revision whose outputs are trusted,
since later runs must reproduce it.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_krboot()
    import workloads
    from krboot.search import max_running_time, max_running_time_sampled
    from tracing import NullTracer

    gnp = workloads.Gnp(0, run.workload_dir("record"))
    out = gnp.run_pass(0, NullTracer())
    ref = {
        "gnp": {workloads.p_key(r.p): gnp.canonical_digest(r.trace) for r in out.runs},
        "maxtime": {
            "exhaustive": {"5": max_running_time(workloads.MAXTIME_N, 5).max_time},
            "sampled": {
                str(s): max_running_time_sampled(
                    workloads.SAMPLED_N, workloads.SAMPLED_R, workloads.SAMPLES, s
                ).max_time
                for s in range(workloads.INSTANCES)
            },
        },
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
