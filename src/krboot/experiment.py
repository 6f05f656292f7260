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
import itertools
import operator
import os
import time
from array import array

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
    "certified",
    "build_ms",
    "cond_i_ms",
    "cond_ii_ms",
    "run_ms",
]


class ExperimentConfig:
    """A parsed sweep config.  ``B`` holds the 'B' lines; when it is not
    empty, ``b_source`` is not read."""

    __slots__ = ("family", "ns", "r", "output", "b_source", "B", "input", "max_steps", "jobs")

    def __init__(
        self, family, ns, r, output, b_source="digits3", B=None, input=None, max_steps=None, jobs=1
    ):
        self.family: str = family
        self.ns: list[int] = ns
        self.r: int = r
        self.output: str = output
        self.b_source: str = b_source
        self.B: list[int] = [] if B is None else B
        self.input: str | None = input
        self.max_steps: int | None = max_steps
        self.jobs: int = jobs


_KNOWN_KEYS = {
    "family",
    "n",
    "r",
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
    r = one_int("r", fam.default_r)
    if r is None:
        raise ValueError(f"{at('family')}: family {family!r} needs an explicit 'r'")
    if r < 3:
        raise ValueError(f"{at('r')}: r must be at least 3, got {r}")
    if fam.default_r is not None and r != fam.default_r:
        raise ValueError(f"{at('r')}: family {family} has order {fam.default_r}, got r {r}")
    b_source = one("b_source", "digits3")
    if b_source not in SOURCES:
        raise ValueError(f"{at('b_source')}: unknown b_source {b_source!r}")
    slopes = ints("B")
    for i, b in enumerate(slopes):
        if b < 1:
            raise ValueError(f"{at('B', i)}: slope {b} must be positive")
        if b in slopes[:i]:
            raise ValueError(f"{at('B', i)}: slope {b} given more than once")
    cfg = ExperimentConfig(
        family=family,
        ns=ints("n"),
        r=r,
        output=output,
        b_source=b_source,
        B=slopes,
        input=one("input"),
        max_steps=None if one("max_steps", "auto") == "auto" else one_int("max_steps"),
        jobs=one_int("jobs", 1),
    )
    if "input" in fam.params and cfg.input is None:
        raise ValueError(f"{at('family')}: family {family} needs 'input'")
    if cfg.jobs < 1:
        raise ValueError(f"{at('jobs')}: jobs must be >= 1")
    if cfg.max_steps is not None and cfg.max_steps < 0:
        raise ValueError(f"{at('max_steps')}: max_steps must be non-negative")
    read_by = constructions.read_by
    unread = [
        # a family built from an input file is swept at the input's order
        ("n", "input" in fam.params, "families built without an input"),
        # 'B' lines are the slopes themselves
        ("b_source", "B" not in fam.params or "B" in pairs, f"{read_by('B')} without 'B' lines"),
        ("B", "B" not in fam.params, read_by("B")),
        ("input", "input" not in fam.params, read_by("input")),
        ("max_steps", "start" not in fam.parts, "families that simulate"),
    ]
    found = [(pairs[key][0][0], key, who) for key, off, who in unread if off and key in pairs]
    if found:
        lineno, key, who = min(found)
        raise ValueError(f"{path}:{lineno}: key {key!r} is only read by {who}")
    if not cfg.ns and "input" not in fam.params:  # else swept at the input's order
        raise ValueError(f"{path}: at least one 'n' required")
    least = r if "r" in fam.params else fam.min_size  # minimal builds K_r in K_n
    for i, n in enumerate(cfg.ns):
        if n in cfg.ns[:i]:
            raise ValueError(f"{at('n', i)}: n {n} given more than once")
        if least is not None and n < least:
            raise ValueError(f"{at('n', i)}: family {family} needs n >= {least}, got n {n}")
        try:
            _slopes_for(cfg, n)
        except ValueError as exc:
            raise ValueError(f"{at('n', i)}: {exc}") from None
    return cfg


def _slopes_for(cfg: ExperimentConfig, n: int) -> ApSet | None:
    """The slope set for point ``n``; None for a family that reads none."""
    fam = constructions.FAMILIES[cfg.family]
    if "B" not in fam.params:
        return None
    if cfg.B:
        slopes = ApSet(max(cfg.B), tuple(sorted(cfg.B)))
        fam.check_slopes(n, slopes)  # generated sets below pass by construction
        return slopes
    bound = n // 40
    if bound < 1:
        raise ValueError(f"n={n} too small to generate slopes (need n >= 40)")
    try:
        reduced = SOURCES[cfg.b_source](bound)
    except ValueError as exc:
        raise ValueError(f"n={n} needs {cfg.b_source} slopes on [1, {bound}]: {exc}") from None
    scaled = tuple(10 * b for b in reduced.elements)
    return ApSet(10 * reduced.n, scaled)


def _point_cells(cfg: ExperimentConfig, n: int, slopes: ApSet | None) -> dict[str, str]:
    """The cells that say which computation a row is; blank when not applicable.

    ``B`` lists the slopes handed to the builder, ``max_steps`` the engine
    budget for families that simulate, and ``input`` the sha256 of the
    cone-of input file's bytes.
    """
    fam = constructions.FAMILIES[cfg.family]
    simulated_budget = "start" in fam.parts and cfg.max_steps is not None
    return {
        "family": cfg.family,
        "n": str(n),
        "r": str(cfg.r),
        "B_size": str(len(slopes.elements)) if slopes is not None else "",
        "B": ";".join(map(str, slopes.elements)) if slopes is not None else "",
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
    each on the part it needs when the family makes that part, and each
    timed in its own ``*_ms`` cell.  Blank cells mean 'not applicable to
    this family'.  Only the start is kept for ``run``: the hypergraph is
    dropped before it.  No skeleton is held: cond (i) builds its own, and the
    build cuts the start out of one in place.

    For a family with designated pairs, ``certified`` says whether the
    replay's first m batches are [f_0], ..., [f_{m-1}]: one pair per step,
    in order, as the two conditions force.  It is read off the trace's flat
    arrays: its first m + 1 batch offsets must be 0, 1, ..., m, and its first
    2m endpoints must have the sha256 of the pairs' endpoints.  The pairs are
    digested before the hypergraph is dropped, so no copy of them lives
    through ``run``."""
    if slopes is None:
        slopes = _slopes_for(cfg, n)
    row = {key: "" for key in CSV_FIELDS}
    row.update(_point_cells(cfg, n, slopes))

    t0 = time.perf_counter()
    c = constructions.build(cfg.family, n=n, B=slopes, r=cfg.r, input=cfg.input)
    row["build_ms"] = _ms_since(t0)
    row["vertices"] = str(c.vertices)
    if c.hypergraph is not None:
        row["m"] = str(len(c.hypergraph.edges))
        t0 = time.perf_counter()
        row["cond_i"] = _bool_cell(verify.check_induced_free(c.hypergraph, cfg.r).passed)
        row["cond_i_ms"] = _ms_since(t0)
    expected = None  # sha256 of f_0, ..., f_{m-1}'s endpoints, as the trace stores them
    if c.f_pairs is not None:
        t0 = time.perf_counter()
        row["cond_ii"] = _bool_cell(verify.check_pair_condition(c.hypergraph, c.f_pairs).passed)
        row["cond_ii_ms"] = _ms_since(t0)
        expected = hashlib.sha256(array("i", itertools.chain.from_iterable(c.f_pairs))).digest()
    start = c.start
    del c
    if start is not None:
        row["start_edges"] = str(start.edge_count())
        t0 = time.perf_counter()
        trace = engine.run(start, cfg.r, Graph.complete(start.n), max_steps=cfg.max_steps)
        row["run_ms"] = _ms_since(t0)
        row["steps"] = str(trace.running_time)
        row["percolated"] = _bool_cell(trace.percolated)
        if expected is not None:
            m, steps = int(row["m"]), trace.steps
            one_pair = len(steps) >= m and all(map(operator.eq, steps.offsets, range(m + 1)))
            replayed = hashlib.sha256(memoryview(steps.ends)[: 2 * m]).digest()
            row["certified"] = _bool_cell(one_pair and replayed == expected)
    return row


def _ms_since(t0: float) -> str:
    return str(round((time.perf_counter() - t0) * 1000))


def _row_key(row: dict[str, str]) -> tuple[str, ...]:
    return (row["family"], row["n"], row["r"], row["B"], row["max_steps"], row["input"])


def _row_invariant_ok(row: dict[str, str]) -> bool:
    """cond (i) and cond (ii) imply steps >= m and a certified replay."""
    if row["cond_i"] == "true" and row["cond_ii"] == "true":
        return int(row["steps"]) >= int(row["m"]) and row["certified"] == "true"
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
                log(
                    f"point n={row['n']}: cond (i) and (ii) hold, but steps {row['steps']}"
                    f" for m {row['m']}, certified {row['certified']}"
                )
            writer.writerow(row)
            out.flush()
            new_rows.append(row)
    return new_rows
