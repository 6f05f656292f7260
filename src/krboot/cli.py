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
from .graphs import Graph, two_skeleton
from .search import max_running_time, max_running_time_sampled


def _parse_slope_list(text: str) -> ApSet:
    try:
        values = sorted(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad slope list {text!r}; expected like 10,20,40") from None
    return ApSet(max(values), tuple(values))


# construct's family parameters: flag -> (type, help); which family reads
# which flag comes from constructions.FAMILIES
_CONSTRUCT_FLAGS = {
    "n": (int, "size; the edge count for chain"),
    "B": (str, "comma-separated slopes"),
    "r": (int, "process order"),
    "input": (str, "graph file to cone over"),
}

# construction part -> (file suffix, writer, name of its edge count on stdout);
# the skeleton is rebuilt from the hypergraph of the families with pairs
_PART_FILES = {
    "hypergraph": ("hypergraph.txt", fileio.write_hypergraph, "hyperedges"),
    "f_pairs": ("fpairs.txt", fileio.write_fpairs, None),
    "skeleton": ("skeleton.txt", fileio.write_graph, "skeleton_edges"),
    "start": ("start.txt", fileio.write_graph, "start_edges"),
}


def cmd_construct(args) -> int:
    params = constructions.FAMILIES[args.family].params
    for flag in params:
        if getattr(args, flag) is None:
            raise ValueError(f"family {args.family} requires --{flag}")
    for flag in _CONSTRUCT_FLAGS:
        if flag not in params and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is only read by {constructions.read_by(flag)}")
    values = {flag: getattr(args, flag) for flag in params}
    if "B" in values:
        values["B"] = _parse_slope_list(values["B"])
    out = constructions.build(args.family, **values)
    fields = [f"vertices={out.vertices}"]
    for part, (suffix, write, count) in _PART_FILES.items():
        if part == "skeleton":
            made = two_skeleton(out.hypergraph) if out.f_pairs is not None else None
        else:
            made = getattr(out, part)
        if made is not None:
            write(made, f"{args.out_prefix}.{suffix}")
            if count:
                fields.append(f"{count}={made.edge_count()}")
    print(" ".join(fields))
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
    kind = "starts" if res.exhaustive else "sampled starts"
    print(f"{res.slowest_starts} of {res.graphs_examined} {kind} take {res.max_time} steps")
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
    c.add_argument("--family", required=True, choices=list(constructions.FAMILIES))
    for flag, (kind, what) in _CONSTRUCT_FLAGS.items():
        c.add_argument(f"--{flag}", type=kind, help=f"{what} ({constructions.read_by(flag)})")
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
