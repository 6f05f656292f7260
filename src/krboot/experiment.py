"""Parameter sweeps driven by a flat key-value config file, written to CSV.

Config lines are ``key value`` pairs; ``#`` starts a comment and repeating a
key builds a list (``n 10`` / ``n 20``).  Existing output rows are detected by
their (family, n, r, B, max_steps, input) key and skipped, so interrupted
sweeps resume.
Per-point failures and violated row invariants go to ``<output>.errors.log``
while the sweep keeps going; a worker pool that breaks (a worker killed) logs
the point it was running and every point still pending there.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import os
import time
from dataclasses import dataclass, field

from . import constructions, engine, fileio, verify
from .apsets import SOURCES, ApSet
from .graphs import Graph

CSV_FIELDS = [
    "family",
    "n",
    "r",
    "B_size",
    "B",
    "max_steps",
    "input",
    "vertices",
    "start_edges",
    "m",
    "steps",
    "percolated",
    "cond_i",
    "cond_ii",
    "wall_ms",
]


@dataclass
class ExperimentConfig:
    family: str
    ns: list[int]
    r: int
    output: str
    b: int | None = None
    b_source: str = "digits3"
    b_explicit: list[int] = field(default_factory=list)
    input: str | None = None
    max_steps: int | None = None
    jobs: int = 1


_KNOWN_KEYS = {
    "family",
    "n",
    "r",
    "b",
    "b_source",
    "B",
    "input",
    "max_steps",
    "output",
    "jobs",
}


def parse_config(path) -> ExperimentConfig:
    pairs: dict[str, list[tuple[int, str]]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'key value'")
            key, value = parts
            if key not in _KNOWN_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            pairs.setdefault(key, []).append((lineno, value))

    def at(key: str, i: int = 0) -> str:
        """``path:line`` of occurrence ``i`` of ``key``."""
        return f"{path}:{pairs[key][i][0]}"

    def one(key: str, default: str | None = None) -> str | None:
        vals = pairs.get(key)
        if vals is None:
            return default
        if len(vals) > 1:
            raise ValueError(f"{at(key, 1)}: key {key!r} given more than once")
        return vals[0][1]

    def ints(key: str) -> list[int]:
        out = []
        for i, (_, text) in enumerate(pairs.get(key, [])):
            try:
                out.append(int(text))
            except ValueError:
                raise ValueError(
                    f"{at(key, i)}: key {key!r} needs an integer, got {text!r}"
                ) from None
        return out

    def one_int(key: str, default: int | None = None) -> int | None:
        one(key)
        return next(iter(ints(key)), default)

    family = one("family")
    if family is None:
        raise ValueError(f"{path}: missing required key 'family'")
    fam = constructions.FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"{at('family')}: unknown family {family!r}")
    output = one("output")
    if output is None:
        raise ValueError(f"{path}: missing required key 'output'")
    ns = ints("n")
    if not ns and "input" not in fam.params:  # else swept at the input's order
        raise ValueError(f"{path}: at least one 'n' required")
    r = one_int("r", fam.default_r)
    if r is None:
        raise ValueError(f"{at('family')}: family {family!r} needs an explicit 'r'")
    b_source = one("b_source", "digits3")
    if b_source != "explicit" and b_source not in SOURCES:
        raise ValueError(f"{at('b_source')}: unknown b_source {b_source!r}")
    b_explicit = ints("B")
    for i, b in enumerate(b_explicit):
        if b < 1:
            raise ValueError(f"{at('B', i)}: slope {b} must be positive")
        if b in b_explicit[:i]:
            raise ValueError(f"{at('B', i)}: slope {b} given more than once")
    if b_source == "explicit" and not b_explicit:
        raise ValueError(f"{at('b_source')}: b_source explicit needs 'B' entries")
    cfg = ExperimentConfig(
        family=family,
        ns=ns,
        r=r,
        output=output,
        b=one_int("b"),
        b_source=b_source,
        b_explicit=b_explicit,
        input=one("input"),
        max_steps=None if one("max_steps", "auto") == "auto" else one_int("max_steps"),
        jobs=one_int("jobs", 1),
    )
    for key in ("b", "input"):
        if key in fam.params and getattr(cfg, key) is None:
            raise ValueError(f"{at('family')}: family {family} needs '{key}'")
    if cfg.jobs < 1:
        raise ValueError(f"{at('jobs')}: jobs must be >= 1")
    read_by = constructions.read_by
    unread = [
        # a family built from an input file is swept at the input's order
        ("n", "input" in fam.params, "families built without an input"),
        ("b", "b" not in fam.params, read_by("b")),
        ("b_source", "B" not in fam.params, read_by("B")),
        ("B", b_source != "explicit", "b_source explicit"),
        ("input", "input" not in fam.params, read_by("input")),
        ("max_steps", "start" not in fam.parts, "families that simulate"),
    ]
    found = [(pairs[key][0][0], key, who) for key, off, who in unread if off and key in pairs]
    if found:
        lineno, key, who = min(found)
        raise ValueError(f"{path}:{lineno}: key {key!r} is only read by {who}")
    return cfg


def _slopes_for(cfg: ExperimentConfig, n: int) -> ApSet | None:
    """The slope set for point ``n``; None for a family that reads none."""
    if "B" not in constructions.FAMILIES[cfg.family].params:
        return None
    if cfg.b_source == "explicit":
        return ApSet(max(cfg.b_explicit), tuple(sorted(cfg.b_explicit)))
    bound = n // 40
    if bound < 1:
        raise ValueError(f"n={n} too small to generate slopes (need n >= 40)")
    reduced = SOURCES[cfg.b_source](bound)
    scaled = tuple(10 * b for b in reduced.elements)
    return ApSet(10 * reduced.n, scaled)


def _point_cells(cfg: ExperimentConfig, n: int, slopes: ApSet | None) -> dict[str, str]:
    """The cells that say which computation a row is; blank when not applicable.

    ``B`` lists the slopes handed to the builder (``b`` for hb),
    ``max_steps`` the engine budget for families that simulate, and ``input``
    the sha256 of the cone-of input file's bytes.
    """
    fam = constructions.FAMILIES[cfg.family]
    if slopes is not None:
        b_cell = ";".join(map(str, slopes.elements))
    else:
        b_cell = str(cfg.b) if "b" in fam.params else ""
    simulated_budget = "start" in fam.parts and cfg.max_steps is not None
    return {
        "family": cfg.family,
        "n": str(n),
        "r": str(cfg.r),
        "B_size": str(len(slopes.elements)) if slopes is not None else "",
        "B": b_cell,
        "max_steps": str(cfg.max_steps) if simulated_budget else "",
        "input": _file_sha256(cfg.input) if "input" in fam.params else "",
    }


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bool_cell(value: bool) -> str:
    return "true" if value else "false"


def compute_row(
    cfg: ExperimentConfig, n: int, slopes: ApSet | None = None
) -> dict[str, str]:
    """One sweep point: build, then cond (i), cond (ii) and ``engine.run``,
    each on the part it needs when the family makes that part.  Blank cells
    mean 'not applicable to this family'."""
    t0 = time.perf_counter()
    if slopes is None:
        slopes = _slopes_for(cfg, n)
    row = {key: "" for key in CSV_FIELDS}
    row.update(_point_cells(cfg, n, slopes))

    c = constructions.build(
        cfg.family, n=n, m=n, b=cfg.b, B=slopes, r=cfg.r, input=cfg.input
    )
    row["vertices"] = str(c.vertices)
    if c.hypergraph is not None:
        row["m"] = str(len(c.hypergraph.edges))
        row["cond_i"] = _bool_cell(verify.check_induced_free(c.hypergraph, cfg.r).passed)
    if c.f_pairs is not None:
        row["cond_ii"] = _bool_cell(verify.check_pair_condition(c.hypergraph, c.f_pairs).passed)
    if c.start is not None:
        row["start_edges"] = str(c.start.edge_count())
        trace = engine.run(c.start, cfg.r, Graph.complete(c.start.n), max_steps=cfg.max_steps)
        row["steps"] = str(trace.running_time)
        row["percolated"] = _bool_cell(trace.percolated)

    row["wall_ms"] = str(round((time.perf_counter() - t0) * 1000))
    return row


def _row_key(row: dict[str, str]) -> tuple[str, ...]:
    return (row["family"], row["n"], row["r"], row["B"], row["max_steps"], row["input"])


def _row_invariant_ok(row: dict[str, str]) -> bool:
    if row["cond_i"] == "true" and row["cond_ii"] == "true" and row["steps"]:
        return int(row["steps"]) >= int(row["m"])
    return True


def _existing_keys(path) -> set[tuple[str, ...]]:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(
                f"{path}: existing CSV has a different header (the sweep's columns"
                " changed); set 'output' to a new file"
            )
        return {_row_key(row) for row in reader}


def run_experiment(cfg: ExperimentConfig) -> list[dict[str, str]]:
    """Execute all points not already in the output CSV; return new rows."""
    done = _existing_keys(cfg.output)
    errors_path = cfg.output + ".errors.log"

    fam = constructions.FAMILIES[cfg.family]
    points = [fileio.read_graph(cfg.input).n] if "input" in fam.params else list(cfg.ns)

    def log(line: str) -> None:
        with open(errors_path, "a") as fh:
            fh.write(line + "\n")

    write_header = not os.path.exists(cfg.output) or os.path.getsize(cfg.output) == 0
    new_rows: list[dict[str, str]] = []
    with open(cfg.output, "a", newline="") as out, contextlib.ExitStack() as stack:
        writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
        if write_header:
            writer.writeheader()

        # slope sets are resolved before any point runs, so that resume keys
        # are known without rebuilding; a point whose slopes fail is logged
        todo: list[tuple[int, ApSet | None]] = []
        for n in points:
            try:
                slopes = _slopes_for(cfg, n)
            except ValueError as exc:
                log(f"point n={n}: {exc}")
                continue
            if _row_key(_point_cells(cfg, n, slopes)) not in done:
                todo.append((n, slopes))

        # one call per point that returns its row: a pool runs them all at
        # once, a serial sweep one at a time in the loop
        if cfg.jobs > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs)
            )
            calls = [pool.submit(compute_row, cfg, *point).result for point in todo]
        else:
            calls = [functools.partial(compute_row, cfg, *point) for point in todo]
        for (n, _), call in zip(todo, calls):
            try:
                row = call()
            except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                # also each point a broken pool (a worker killed) lost
                log(f"point n={n}: {exc}")
                continue
            if not _row_invariant_ok(row):
                log(f"point n={row['n']}: steps {row['steps']} < m {row['m']}")
            writer.writerow(row)
            out.flush()
            new_rows.append(row)
    return new_rows
