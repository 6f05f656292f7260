"""The three benchmark workloads.

Each workload builds its inputs from the seed when constructed (that is the
set-up ``setup_s`` times), runs one timed pass through krboot's public
functions, and checks the pass's outputs outside the timed region.  Every
call into krboot goes through ``tr.call(name, fn, ...)``; the span name is the
per-layer metric name without its ``_s`` suffix.

scaffold  The order-5 hprime pipeline at n=800, in ``experiment.compute_row``
          order.  The engine's incremental steps and cond (i) do the work.
gnp       The K_4 process inside K_1000 from relabelled G(1000, p), p = 0.010
          (stalls) and 0.012 (percolates), along ``krboot simulate --trace``.  Full
          scans, bail-outs to a full scan and trace writing do the work.
maxtime   Exhaustive M_r(6) for r = 3, 4, 5 plus a seeded sample on K_8.
          About 10^5 tiny full scans inside the search kernel.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from types import SimpleNamespace

from krboot import engine, fileio
from krboot.apsets import ApSet, ap_digits3
from krboot.constructions import build_hprime
from krboot.graphs import Graph, two_skeleton
from krboot.search import max_running_time, max_running_time_sampled
from krboot.verify import check_induced_free, check_pair_condition

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# maxtime sample seeds come from a table of this many recorded best times
INSTANCES = 16

SCAFFOLD_N = 800
SCAFFOLD_R = 5
GNP_N = 1000
GNP_R = 4
GNP_PS = (0.010, 0.012)
MAXTIME_N = 6
MAXTIME_RS = (3, 4, 5)
SAMPLED_N = 8
SAMPLED_R = 4
SAMPLES = 20000


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def p_key(p: float) -> str:
    return f"{p:.3f}"


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of G(n, p) in ascending order, by geometric skips over the pairs."""
    log_q = math.log(1.0 - p)
    total = n * (n - 1) // 2
    edges = []
    idx = -1
    u, row_start, row_len = 0, 0, n - 1
    while True:
        idx += 1 + int(math.log(1.0 - rng.random()) / log_q)
        if idx >= total:
            return edges
        while idx >= row_start + row_len:
            row_start += row_len
            row_len -= 1
            u += 1
        edges.append((u, u + 1 + idx - row_start))


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def engine_counts(starts, hosts, traces, first_batches) -> dict[str, float]:
    missing = sum(h.edge_count() - s.edge_count() for s, h in zip(starts, hosts))
    first = sum(len(b) for b in first_batches)
    return {
        "engine.steps": sum(t.running_time for t in traces),
        "engine.edges_added": sum(len(b) for t in traces for b in t.steps),
        "engine.max_batch": max((len(b) for t in traces for b in t.steps), default=0),
        "engine.missing_pairs_start": missing,
        "engine.first_scan_hit_ratio": first / missing if missing else 0.0,
    }


ENGINE_METRICS = [
    ("engine.run_s", "s"),
    ("engine.first_scan_s", "s"),
    ("engine.rest_s", "s"),
    ("engine.steps", "count"),
    ("engine.edges_added", "count"),
    ("engine.max_batch", "count"),
    ("engine.missing_pairs_start", "count"),
    ("engine.first_scan_hit_ratio", "ratio"),
]
BENCH_METRICS = [("bench.self_s", "s"), ("bench.trace_overhead_frac", "ratio")]


class Scaffold:
    """The paper's order-5 scaffold, replayed one pair per step.

    The instance is fixed by the paper's construction; the seed only drives
    the oracle cross-check that every run adds.
    """

    name = "scaffold"
    layer_metrics = [
        ("apsets.slopes_s", "s"),
        ("constructions.build_s", "s"),
        ("constructions.hyperedges", "count"),
        ("graphs.two_skeleton_s", "s"),
        ("graphs.skeleton_edges", "count"),
        ("graphs.complete_s", "s"),
        ("verify.cond_i_s", "s"),
        ("verify.cond_i_pairs", "count"),
        ("verify.cond_i_candidates", "count"),
        ("verify.cond_i_candidates_per_pair", "ratio"),
        ("verify.cond_ii_s", "s"),
        ("verify.cond_ii_containments", "count"),
        *ENGINE_METRICS,
        *BENCH_METRICS,
    ]

    def __init__(self, seed: int, workdir: str):
        pass

    def run_pass(self, i: int, tr):
        # same call order and slope rule (digits3 on n // 40, scaled by 10)
        # as experiment.compute_row
        reduced = tr.call("apsets.slopes", ap_digits3, SCAFFOLD_N // 40)
        slopes = ApSet(10 * reduced.n, tuple(10 * b for b in reduced.elements))
        c = tr.call("constructions.build", build_hprime, SCAFFOLD_N, slopes)
        rep_i = tr.call("verify.cond_i", check_induced_free, c.hypergraph, SCAFFOLD_R)
        rep_ii = tr.call("verify.cond_ii", check_pair_condition, c.hypergraph, c.f_pairs)
        host = tr.call("graphs.complete", Graph.complete, c.hypergraph.n)
        trace = tr.call("engine.run", engine.run, c.start, SCAFFOLD_R, host)
        return SimpleNamespace(c=c, rep_i=rep_i, rep_ii=rep_ii, host=host, trace=trace)

    def check(self, out, tr, full: bool) -> list[tuple[str, bool]]:
        m = len(out.c.hypergraph.edges)
        return [
            ("cond_i passes", out.rep_i.passed),
            ("cond_ii passes", out.rep_ii.passed),
            ("one f-pair per step", out.trace.steps == [[tuple(f)] for f in out.c.f_pairs]),
            ("running_time == m", out.trace.running_time == m),
        ]

    def throughput(self, out) -> dict[str, int]:
        return {
            "steps": out.trace.running_time,
            "edges": sum(len(b) for b in out.trace.steps),
            "graphs": 1,
        }

    def probe(self, out, tr) -> dict[str, float]:
        """Traced run only: calls outside the pass span, plus layer counts."""
        skel = tr.call("graphs.two_skeleton", two_skeleton, out.c.hypergraph)
        first = tr.call("engine.first_scan", engine.step_kr, out.c.start, SCAFFOLD_R, out.host)
        pairs = out.rep_i.stats["pairs"]
        return {
            "constructions.hyperedges": len(out.c.hypergraph.edges),
            "graphs.skeleton_edges": skel.edge_count(),
            "verify.cond_i_pairs": pairs,
            "verify.cond_i_candidates": out.rep_i.stats["candidates"],
            "verify.cond_i_candidates_per_pair": out.rep_i.stats["candidates"] / pairs,
            "verify.cond_ii_containments": out.rep_ii.stats["containments"],
            **engine_counts([out.c.start], [out.host], [out.trace], [first]),
        }

    def sizes(self, out) -> dict[str, dict[str, int]]:
        h = out.c.hypergraph
        return {
            f"hprime n={SCAFFOLD_N} r={SCAFFOLD_R}": {
                "nv": h.n,
                "m": len(h.edges),
                "steps": out.trace.running_time,
            }
        }


class Gnp:
    """The K_4 process inside K_1000 from G(1000, p) start files.

    The two start graphs are fixed G(1000, p) samples whose vertices the seed
    relabels at random.  Every seed thus does isomorphic work, which keeps
    run-to-run spread down to host noise, while the engine still sees new
    bit positions and new traces.  A trace mapped back to the sample's own
    labels must match the recorded digest.
    """

    name = "gnp"
    layer_metrics = [
        ("fileio.read_graph_s", "s"),
        ("graphs.complete_s", "s"),
        *ENGINE_METRICS,
        ("fileio.write_trace_s", "s"),
        ("fileio.read_trace_s", "s"),
        ("fileio.trace_bytes", "bytes"),
        *BENCH_METRICS,
    ]

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.perm = list(range(GNP_N))
        random.Random(seed).shuffle(self.perm)
        self.inverse = [0] * GNP_N
        for u, x in enumerate(self.perm):
            self.inverse[x] = u
        self.start_paths = {}
        for k, p in enumerate(GNP_PS):
            edges = gnp_edges(GNP_N, p, random.Random(k))
            start = Graph.from_edges(GNP_N, self.relabel(edges, self.perm))
            path = os.path.join(workdir, f"gnp-{p_key(p)}.txt")
            fileio.write_graph(start, path)
            self.start_paths[p] = path
        self.reference = None  # loaded at the first check
        self.digests = {}  # p -> digest of the trace file this seed must write

    @staticmethod
    def relabel(edges, perm) -> list[tuple[int, int]]:
        out = []
        for u, v in edges:
            a, b = perm[u], perm[v]
            out.append((a, b) if a < b else (b, a))
        out.sort()
        return out

    def canonical_digest(self, trace) -> str:
        """sha256 of the trace file the unrelabelled sample would give."""
        back = engine.PercolationTrace(
            steps=[self.relabel(batch, self.inverse) for batch in trace.steps],
            running_time=trace.running_time,
            percolated=trace.percolated,
            truncated=trace.truncated,
            final_edge_count=trace.final_edge_count,
        )
        return hashlib.sha256((back.to_json() + "\n").encode()).hexdigest()

    def run_pass(self, i: int, tr):
        runs = []
        for p in GNP_PS:
            start = tr.call("fileio.read_graph", fileio.read_graph, self.start_paths[p])
            host = tr.call("graphs.complete", Graph.complete, start.n)
            trace = tr.call("engine.run", engine.run, start, GNP_R, host)
            path = os.path.join(self.workdir, f"trace-{p_key(p)}.json")
            tr.call("fileio.write_trace", fileio.write_trace, trace, path)
            runs.append(SimpleNamespace(p=p, start=start, host=host, trace=trace, path=path))
        return SimpleNamespace(runs=runs)

    def check(self, out, tr, full: bool) -> list[tuple[str, bool]]:
        """Every pass must write the same bytes as the first, fully checked
        pass.  ``full`` adds the reference digest, round trip, replay and
        stability checks, which cost about half a pass."""
        if self.reference is None:
            self.reference = load_reference()["gnp"]
        results = []
        for run in out.runs:
            tag = f"p={p_key(run.p)}"
            digest = file_digest(run.path)
            if run.p in self.digests:
                results.append((f"{tag}: same trace as first pass", digest == self.digests[run.p]))
            if not full:
                continue
            self.digests.setdefault(run.p, digest)
            want = self.reference[p_key(run.p)]
            results.append((f"{tag}: trace matches reference", self.canonical_digest(run.trace) == want))
            back = tr.call("fileio.read_trace", fileio.read_trace, run.path)
            results.append((f"{tag}: read_trace round trip", back == run.trace))
            final = engine.replay(run.start, run.trace)
            results.append(
                (f"{tag}: replay edge count", final.edge_count() == run.trace.final_edge_count)
            )
            results.append(
                (f"{tag}: final graph stable", engine.step_kr(final, GNP_R, run.host) == [])
            )
        return results

    def throughput(self, out) -> dict[str, int]:
        return {
            "steps": sum(r.trace.running_time for r in out.runs),
            "edges": sum(len(b) for r in out.runs for b in r.trace.steps),
            "graphs": len(out.runs),
        }

    def probe(self, out, tr) -> dict[str, float]:
        firsts = [
            tr.call("engine.first_scan", engine.step_kr, r.start, GNP_R, r.host)
            for r in out.runs
        ]
        return {
            **engine_counts(
                [r.start for r in out.runs],
                [r.host for r in out.runs],
                [r.trace for r in out.runs],
                firsts,
            ),
            "fileio.trace_bytes": sum(os.path.getsize(r.path) for r in out.runs),
        }

    def sizes(self, out) -> dict[str, dict[str, int]]:
        return {
            f"gnp n={GNP_N} p={p_key(r.p)}": {
                "nv": r.start.n,
                "m": r.start.edge_count(),
                "steps": r.trace.running_time,
            }
            for r in out.runs
        }


class MaxTime:
    """Exhaustive M_r(6) for r = 3, 4, 5 and a seeded K_8 sample for r = 4.

    The sample seed is seed mod INSTANCES, whose best time is recorded.
    """

    name = "maxtime"
    layer_metrics = [
        ("search.exhaustive_s", "s"),
        ("search.sampled_s", "s"),
        ("search.graphs", "count"),
        *BENCH_METRICS,
    ]

    def __init__(self, seed: int, workdir: str):
        ref = load_reference()["maxtime"]
        self.sample_seed = seed % INSTANCES
        # M_3(n) = ceil(log2(n - 1)) and M_4(n) = n - 3 are theorems; M_5(6)
        # and the sampled best are recorded values
        self.expected = [
            math.ceil(math.log2(MAXTIME_N - 1)),
            MAXTIME_N - 3,
            ref["exhaustive"]["5"],
            ref["sampled"][str(self.sample_seed)],
        ]

    def run_pass(self, i: int, tr):
        results = [
            tr.call("search.exhaustive", max_running_time, MAXTIME_N, r) for r in MAXTIME_RS
        ]
        results.append(
            tr.call(
                "search.sampled",
                max_running_time_sampled,
                SAMPLED_N,
                SAMPLED_R,
                SAMPLES,
                self.sample_seed,
            )
        )
        return SimpleNamespace(results=results, witness_traces=None)

    def check(self, out, tr, full: bool) -> list[tuple[str, bool]]:
        """Also replays each witness, keeping the traces for ``throughput``."""
        checks = []
        out.witness_traces = []
        for res, want in zip(out.results, self.expected):
            label = f"{'M' if res.exhaustive else 'sampled M'}_{res.r}({res.n})"
            checks.append((f"{label} == {want}", res.max_time == want))
            examined = 2 ** (res.n * (res.n - 1) // 2) if res.exhaustive else SAMPLES
            checks.append((f"{label} graphs examined", res.graphs_examined == examined))
            trace = engine.run(res.witness_start, res.r, Graph.complete(res.n))
            checks.append((f"{label} witness replays", trace.running_time == res.max_time))
            out.witness_traces.append(trace)
        return checks

    def throughput(self, out) -> dict[str, int]:
        return {
            "steps": sum(res.max_time for res in out.results),
            "edges": sum(len(b) for t in out.witness_traces for b in t.steps),
            "graphs": sum(res.graphs_examined for res in out.results),
        }

    def probe(self, out, tr) -> dict[str, float]:
        return {"search.graphs": sum(res.graphs_examined for res in out.results)}

    def sizes(self, out) -> dict[str, dict[str, int]]:
        return {
            f"{'exhaustive' if res.exhaustive else 'sampled'} n={res.n} r={res.r}": {
                "nv": res.n,
                "m": res.n * (res.n - 1) // 2,
                "steps": res.max_time,
            }
            for res in out.results
        }


WORKLOADS = {w.name: w for w in (Scaffold, Gnp, MaxTime)}


def oracle_crosscheck(seed: int) -> list[tuple[str, bool]]:
    """``run`` must equal ``run_oracle`` on small seeded G(10, p) starts."""
    rng = random.Random(seed)
    checks = []
    for r, p in ((3, 0.3), (4, 0.45), (5, 0.6)):
        for k in range(3):
            start = Graph.from_edges(10, gnp_edges(10, p, rng))
            host = Graph.complete(10)
            same = engine.run(start, r, host).to_json() == engine.run_oracle(start, r, host).to_json()
            checks.append((f"oracle r={r} start {k}", same))
    return checks
