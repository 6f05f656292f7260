"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or input
errors.  Failed checks print a ``WITNESS <kind> <ids...>`` line that can be
re-checked directly against the definitions.
"""
from __future__ import annotations

import argparse
import sys

from . import constructions, engine, experiment, fileio, verify
from .apsets import SOURCES, ApSet
from .graphs import Graph, cone
from .search import max_running_time, max_running_time_sampled


def _parse_slope_list(text: str) -> ApSet:
    try:
        values = sorted(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad slope list {text!r}; expected like 10,20,40") from None
    if not values:
        raise ValueError("empty slope list")
    return ApSet(max(values), tuple(values))


_CONSTRUCT_NEEDS = {
    "h6": ("n",),
    "chain": ("m",),
    "hb": ("n", "b"),
    "hB": ("n", "B"),
    "hprime": ("n", "B"),
    "minimal": ("n", "r"),
    "cone-of": ("input",),
}


def cmd_construct(args) -> int:
    for attr in _CONSTRUCT_NEEDS[args.family]:
        if getattr(args, attr) is None:
            raise ValueError(f"family {args.family} requires --{attr}")
    prefix = args.out_prefix
    if args.family == "h6":
        out = constructions.build_h6(args.n)
    elif args.family == "chain":
        out = constructions.build_chain(args.m)
    elif args.family == "hprime":
        out = constructions.build_hprime(args.n, _parse_slope_list(args.B))
    elif args.family == "hb":
        h = constructions.build_hb(args.n, args.b)
        fileio.write_hypergraph(h, f"{prefix}.hypergraph.txt")
        print(f"vertices={h.n} hyperedges={len(h.edges)}")
        return 0
    elif args.family == "hB":
        h = constructions.build_hB(args.n, _parse_slope_list(args.B))
        fileio.write_hypergraph(h, f"{prefix}.hypergraph.txt")
        print(f"vertices={h.n} hyperedges={len(h.edges)}")
        return 0
    elif args.family == "minimal":
        g = constructions.minimal_percolating(args.n, args.r)
        fileio.write_graph(g, f"{prefix}.start.txt")
        print(f"vertices={g.n} start_edges={g.edge_count()}")
        return 0
    elif args.family == "cone-of":
        g = cone(fileio.read_graph(args.input))
        fileio.write_graph(g, f"{prefix}.start.txt")
        print(f"vertices={g.n} start_edges={g.edge_count()}")
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.family)

    fileio.write_hypergraph(out.hypergraph, f"{prefix}.hypergraph.txt")
    fileio.write_fpairs(out.f_pairs, f"{prefix}.fpairs.txt")
    fileio.write_graph(out.skeleton, f"{prefix}.skeleton.txt")
    fileio.write_graph(out.start, f"{prefix}.start.txt")
    print(
        f"vertices={out.hypergraph.n} hyperedges={len(out.hypergraph.edges)} "
        f"skeleton_edges={out.skeleton.edge_count()} start_edges={out.start.edge_count()}"
    )
    return 0


def cmd_simulate(args) -> int:
    start = fileio.read_graph(args.start)
    host = Graph.complete(start.n) if args.host == "complete" else fileio.read_graph(args.host)
    trace = engine.run(start, args.r, host, max_steps=args.max_steps)
    if args.trace:
        fileio.write_trace(trace, args.trace)
    print(
        f"steps={trace.running_time} "
        f"percolated={'true' if trace.percolated else 'false'} "
        f"truncated={'true' if trace.truncated else 'false'}"
    )
    return 0


def _finish_verify(report, verbose: bool = False) -> int:
    for key in sorted(report.stats):
        print(f"{key}={report.stats[key]}")
    if report.passed:
        print("PASS")
        return 0
    print("FAIL")
    # a verbose report lists every offender, the witness first
    for ids in report.failures if verbose else [report.witness]:
        print(f"WITNESS {report.witness_kind} " + " ".join(str(x) for x in ids))
    return 1


def cmd_verify(args) -> int:
    if args.check == "induced-free":
        h = fileio.read_hypergraph(args.hypergraph)
        report = verify.check_induced_free(h, args.r, verbose=args.verbose)
        return _finish_verify(report, args.verbose)
    if args.check == "pairs":
        h = fileio.read_hypergraph(args.hypergraph)
        pairs = fileio.read_fpairs(args.fpairs)
        return _finish_verify(verify.check_pair_condition(h, pairs))
    if args.check == "apfree":
        return _finish_verify(verify.check_ap_free(fileio.read_apset(args.apset)))
    if args.check == "residue":
        return _finish_verify(verify.check_residue_lemma(args.n))
    raise ValueError(args.check)  # pragma: no cover


def cmd_apset(args) -> int:
    s = SOURCES[args.source](args.n)
    if args.out:
        fileio.write_apset(s, args.out)
    print(f"n={s.n} size={len(s.elements)}")
    return 0


def cmd_maxtime(args) -> int:
    if args.samples is not None and args.seed is None:
        raise ValueError("--samples requires --seed")
    if args.seed is not None and args.samples is None:
        raise ValueError("--seed requires --samples")
    if args.samples is not None:
        res = max_running_time_sampled(args.n, args.r, args.samples, args.seed)
        print(f"M_{args.r}({args.n}) >= {res.max_time} (sampled, {args.samples} starts)")
    else:
        res = max_running_time(args.n, args.r)
        print(f"M_{args.r}({args.n}) = {res.max_time}")
    if args.witness_out:
        fileio.write_graph(res.witness_start, args.witness_out)
    w = res.witness_start
    print(f"{w.n} {w.edge_count()}")
    for u, v in w.edges():
        print(f"{u} {v}")
    return 0


def cmd_experiment(args) -> int:
    cfg = experiment.parse_config(args.config)
    if args.jobs is not None:
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        cfg.jobs = args.jobs
    rows = experiment.run_experiment(cfg)
    print(f"wrote {len(rows)} new rows to {cfg.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="krboot", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a scaffold and write its files")
    c.add_argument(
        "--family",
        required=True,
        choices=["h6", "chain", "hb", "hB", "hprime", "minimal", "cone-of"],
    )
    c.add_argument("--n", type=int, help="size parameter")
    c.add_argument("--m", type=int, help="chain length (family chain)")
    c.add_argument("--b", type=int, help="single slope (family hb)")
    c.add_argument("--B", help="comma-separated slopes (families hB, hprime)")
    c.add_argument("--r", type=int, help="process order (family minimal)")
    c.add_argument("--input", help="graph file to cone over (family cone-of)")
    c.add_argument("--out-prefix", default="construction", help="output file prefix")
    c.set_defaults(func=cmd_construct)

    s = sub.add_parser("simulate", help="run the bootstrap process from a start graph")
    s.add_argument("--start", required=True, help="start graph file")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--host", default="complete", help="host graph file, or 'complete'")
    s.add_argument("--trace", help="write the step trace to this JSON file")
    s.add_argument("--max-steps", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run a structural checker")
    vsub = v.add_subparsers(dest="check", required=True)
    vi = vsub.add_parser("induced-free")
    vi.add_argument("--hypergraph", required=True)
    vi.add_argument("--r", type=int, required=True)
    vi.add_argument("--verbose", action="store_true", help="enumerate all offenders")
    vp = vsub.add_parser("pairs")
    vp.add_argument("--hypergraph", required=True)
    vp.add_argument("--fpairs", required=True)
    va = vsub.add_parser("apfree")
    va.add_argument("--apset", required=True)
    vr = vsub.add_parser("residue")
    vr.add_argument("--n", type=int, required=True)
    for sp in (vi, vp, va, vr):
        sp.set_defaults(func=cmd_verify)

    a = sub.add_parser("apset", help="emit a 3-AP-free subset of [1, n]")
    a.add_argument("--source", required=True, choices=list(SOURCES))
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--out", help="write the set to this file")
    a.set_defaults(func=cmd_apset)

    m = sub.add_parser("maxtime", help="max running time over start graphs in K_n")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--r", type=int, required=True)
    m.add_argument("--samples", type=int, help="sample instead of exhausting")
    m.add_argument("--seed", type=int, help="RNG seed (required with --samples, only with it)")
    m.add_argument("--witness-out", help="write the witness start graph here")
    m.set_defaults(func=cmd_maxtime)

    e = sub.add_parser("experiment", help="run a config-driven sweep to CSV")
    e.add_argument("--config", required=True)
    e.add_argument("--jobs", type=int, default=None, help="parallel points")
    e.set_defaults(func=cmd_experiment)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
