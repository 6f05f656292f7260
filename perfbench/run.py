"""krboot benchmark: scaffold, gnp and maxtime workloads, checked and timed.

    python3 perfbench/run.py --workload scaffold --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it times untraced passes of
one workload and prints the end-to-end metrics.  With ``--trace 1`` it runs
all three workloads, alternating untraced and traced passes, and prints the
per-layer metrics, named ``<workload>.<layer>.<metric>``.  The last line of
standard output is one JSON object; results and spans also go to
``.perfbench/`` in the repository root.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9  # fresh interpreters timed for setup_s

END_TO_END = [
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("edges_per_s", "1/s"),
    ("graphs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def load_krboot() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other krboot."""
    init = os.path.join(SRC, "krboot", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from a krboot checkout")
    sys.path.insert(0, SRC)
    import krboot

    if os.path.abspath(krboot.__file__) != os.path.abspath(init):
        sys.exit(f"perfbench: imported krboot from {krboot.__file__}, not {init}")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    k = n - 10  # samples at or below the reported value
    return 100.0 * k / n, ordered[k - 1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import krboot and build inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def workload_dir(name: str) -> str:
    path = os.path.join(WORKDIR, name)
    os.makedirs(path, exist_ok=True)
    return path


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results) -> None:
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(label)


def run_passes(w, seconds: float, checks: Checks, tracer=None) -> dict:
    """Timed passes until ``seconds`` of pass time, each checked after its
    timer stops.  With a tracer, passes alternate untraced / traced (at least
    one each) and probes run after each traced pass."""
    null = NullTracer()
    untraced, traced, counts, probes, sizes = [], [], [], [], {}
    i, spent = 0, 0.0
    while i == 0 or spent < seconds or (tracer and not traced):
        use_trace = tracer is not None and i % 2 == 1
        tr = tracer if use_trace else null
        gc.collect()
        t0 = time.perf_counter()
        tr.begin("pass", pass_id=f"{w.name}/{i}")
        out = w.run_pass(i, tr)
        tr.end()
        dt = time.perf_counter() - t0
        spent += dt
        checks.add(w.check(out, tr, full=i == 0 or use_trace))
        if use_trace:
            traced.append((f"{w.name}/{i}", dt))
            probes.append(w.probe(out, tr))
        else:
            untraced.append(dt)
            counts.append(w.throughput(out))
        sizes.update(w.sizes(out))
        del out  # free this pass's outputs before the next timer starts
        i += 1
    return {"untraced": untraced, "traced": traced, "counts": counts, "probes": probes,
            "sizes": sizes}


def end_to_end(res: dict, setup: list[float]) -> dict:
    """Median pass time, and each pass's work over it.  A run repeats the
    same inputs, so every pass does the same work."""
    wall = statistics.median(res["untraced"])
    work = res["counts"][0]
    return {
        "wall_s": wall,
        "steps_per_s": work["steps"] / wall,
        "edges_per_s": work["edges"] / wall,
        "graphs_per_s": work["graphs"] / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w, res: dict, tracer) -> dict:
    """Median of each layer's self time over the traced passes that called
    it, plus the counts from the last traced pass."""
    per_pass = [tracer.self_times(i) for i, _ in res["traced"]]
    out = {}
    for name, unit in w.layer_metrics:
        if unit == "s" and name not in ("engine.rest_s", "bench.self_s"):
            span = name[:-2]
            called = [p[span] for p in per_pass if span in p]
            out[name] = statistics.median(called) if called else 0.0
    out["bench.self_s"] = statistics.median(p["pass"] for p in per_pass)
    if "engine.run_s" in out:
        out["engine.rest_s"] = out["engine.run_s"] - out["engine.first_scan_s"]
    out.update(res["probes"][-1])
    traced = [dt for _, dt in res["traced"]]
    out["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(res["untraced"]) - 1.0
    )
    return out


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(name: str, args, checks: Checks, tracer, seconds: float) -> tuple[dict, dict]:
    """Set up and measure one workload; print its table; return the results
    entry and the metrics for the JSON line."""
    import workloads

    setup = measure_setup(name, args.seed)
    w = workloads.WORKLOADS[name](args.seed, workload_dir(name))
    res = run_passes(w, seconds, checks, tracer)
    e2e = end_to_end(res, setup)
    units = dict(END_TO_END)
    tail = tail_percentile(res["untraced"])
    entry = {
        "sizes": res["sizes"],
        "untraced_pass_s": res["untraced"],
        "traced_pass_s": [dt for _, dt in res["traced"]],
        "setup_samples_s": setup,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "wall_tail_percentile_s": tail,
    }
    print(f"== {name}: {len(res['untraced'])} untraced, {len(res['traced'])} traced passes")
    for k, v in e2e.items():
        print(f"{name:<9} {k:<36} {fmt(v):>14} {units[k]}")
    print(f"{name:<9} {'wall_s samples':<36} {len(res['untraced']):>14} count")
    if tail is None:
        print(f"{name:<9} {'wall_s tail percentile':<36} {'n/a':>14} (needs 11 passes)")
    else:
        print(f"{name:<9} {f'wall_s p{tail[0]:.0f}':<36} {fmt(tail[1]):>14} s")
    if tracer is None:
        return entry, {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}

    layers = per_layer(w, res, tracer)
    layer_units = dict(w.layer_metrics)
    entry["per_layer"] = {
        k: {"value": v, "unit": layer_units[k], "derived": k == "engine.rest_s"}
        for k, v in layers.items()
    }
    for k, v in layers.items():
        label = k + (" (derived)" if k == "engine.rest_s" else "")
        print(f"{name:<9} {label:<36} {fmt(v):>14} {layer_units[k]}")
    traced = statistics.median(dt for _, dt in res["traced"])
    print(f"{name:<9} layer calls cover {1.0 - layers['bench.self_s'] / traced:.2%} "
          "of the traced pass; bench.self_s is the rest")
    return entry, {f"{name}.{k}": {"value": v, "unit": layer_units[k]} for k, v in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["scaffold", "gnp", "maxtime"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="pass time to measure")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_krboot()
    import workloads

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, workload_dir("setup-" + args.workload))
        return 0

    checks = Checks()
    checks.add(workloads.oracle_crosscheck(args.seed))
    results = {"environment": environment(args.seed), "trace": args.trace, "workloads": {}}
    metrics: dict[str, dict] = {}
    # per-layer names carry the workload, so a traced run covers all three
    names = list(workloads.WORKLOADS) if args.trace else [args.workload]
    tracer = Tracer() if args.trace else None
    for name in names:
        entry, found = measure(name, args, checks, tracer, args.seconds / len(names))
        results["workloads"][name] = entry
        metrics.update(found)

    failed = len(checks.failures)
    fail_frac = failed / checks.attempted
    print(f"checks    attempted={checks.attempted} failed={failed} fail_frac={fmt(fail_frac)}")
    for label in checks.failures:
        print(f"FAILED CHECK: {label}")
    results["checks"] = {"attempted": checks.attempted, "failed": failed,
                         "fail_frac": fail_frac, "failures": checks.failures}
    stem = f"{'trace' if args.trace else args.workload}-seed{args.seed}"
    with open(os.path.join(WORKDIR, f"results-{stem}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    if tracer:
        tracer.write(os.path.join(WORKDIR, f"spans-{stem}.json"))
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
