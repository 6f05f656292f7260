"""Parameter sweeps driven by a flat key-value config file, written to CSV.

Config lines are ``key value`` pairs; ``#`` starts a comment and repeating a
key builds a list (``n 10`` / ``n 20``).  Existing output rows are detected by
their (family, n, r, B_size) key and skipped, so interrupted sweeps resume.
Per-point failures and violated row invariants go to ``<output>.errors.log``
while the sweep keeps going.
"""
from __future__ import annotations

import concurrent.futures
import csv
import os
import time
from dataclasses import dataclass, field

from . import constructions, engine, fileio, verify
from .apsets import ApSet, ap_behrend, ap_digits3, ap_max_exhaustive
from .graphs import Graph, cone

CSV_FIELDS = [
    "family",
    "n",
    "r",
    "B_size",
    "vertices",
    "start_edges",
    "m",
    "steps",
    "percolated",
    "cond_i",
    "cond_ii",
    "wall_ms",
]

FAMILIES = ("h6", "chain", "hb", "hB", "hprime", "minimal", "cone-of")
DEFAULT_R = {"h6": 6, "chain": 5, "hb": 5, "hB": 5, "hprime": 5}


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
    pairs: dict[str, list[str]] = {}
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
            pairs.setdefault(key, []).append(value)

    def one(key: str, default: str | None = None) -> str | None:
        vals = pairs.get(key)
        if vals is None:
            return default
        if len(vals) > 1:
            raise ValueError(f"{path}: key {key!r} given more than once")
        return vals[0]

    def as_int(key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{path}: key {key!r} needs an integer, got {text!r}") from None

    family = one("family")
    if family is None:
        raise ValueError(f"{path}: missing required key 'family'")
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown family {family!r}")
    output = one("output")
    if output is None:
        raise ValueError(f"{path}: missing required key 'output'")
    ns = [as_int("n", v) for v in pairs.get("n", [])]
    if not ns and family != "cone-of":
        raise ValueError(f"{path}: at least one 'n' required")
    r_text = one("r")
    if r_text is None:
        if family not in DEFAULT_R:
            raise ValueError(f"{path}: family {family!r} needs an explicit 'r'")
        r = DEFAULT_R[family]
    else:
        r = as_int("r", r_text)
    b_source = one("b_source", "digits3")
    if b_source not in ("digits3", "behrend", "exhaustive", "explicit"):
        raise ValueError(f"{path}: unknown b_source {b_source!r}")
    b_explicit = [as_int("B", v) for v in pairs.get("B", [])]
    if b_source == "explicit" and not b_explicit:
        raise ValueError(f"{path}: b_source explicit needs 'B' entries")
    max_steps_text = one("max_steps", "auto")
    b_text = one("b")
    cfg = ExperimentConfig(
        family=family,
        ns=ns,
        r=r,
        output=output,
        b=as_int("b", b_text) if b_text is not None else None,
        b_source=b_source,
        b_explicit=b_explicit,
        input=one("input"),
        max_steps=None if max_steps_text == "auto" else as_int("max_steps", max_steps_text),
        jobs=as_int("jobs", one("jobs", "1")),
    )
    if cfg.family == "hb" and cfg.b is None:
        raise ValueError(f"{path}: family hb needs 'b'")
    if cfg.family == "cone-of" and cfg.input is None:
        raise ValueError(f"{path}: family cone-of needs 'input'")
    if cfg.jobs < 1:
        raise ValueError(f"{path}: jobs must be >= 1")
    return cfg


def _slopes_for(cfg: ExperimentConfig, n: int) -> ApSet:
    if cfg.b_source == "explicit":
        return ApSet(max(cfg.b_explicit), tuple(sorted(cfg.b_explicit)))
    bound = n // 40
    if bound < 1:
        raise ValueError(f"n={n} too small to generate slopes (need n >= 40)")
    gen = {"digits3": ap_digits3, "behrend": ap_behrend, "exhaustive": ap_max_exhaustive}
    reduced = gen[cfg.b_source](bound)
    scaled = tuple(10 * b for b in reduced.elements)
    return ApSet(10 * reduced.n, scaled)


def compute_row(
    cfg: ExperimentConfig, n: int, slopes: ApSet | None = None
) -> dict[str, str]:
    """One sweep point.  Blank cells mean 'not applicable to this family'."""
    t0 = time.perf_counter()
    row = {key: "" for key in CSV_FIELDS}
    row["family"] = cfg.family
    row["n"] = str(n)
    row["r"] = str(cfg.r)

    def put_verify(h, f_pairs=None):
        rep_i = verify.check_induced_free(h, cfg.r)
        row["cond_i"] = "true" if rep_i.passed else "false"
        if f_pairs is not None:
            rep_ii = verify.check_pair_condition(h, f_pairs)
            row["cond_ii"] = "true" if rep_ii.passed else "false"

    def put_trace(start: Graph):
        trace = engine.run(start, cfg.r, Graph.complete(start.n), max_steps=cfg.max_steps)
        row["steps"] = str(trace.running_time)
        row["percolated"] = "true" if trace.percolated else "false"

    if cfg.family in ("h6", "chain", "hprime"):
        if cfg.family == "h6":
            c = constructions.build_h6(n)
        elif cfg.family == "chain":
            c = constructions.build_chain(n)
        else:
            if slopes is None:
                slopes = _slopes_for(cfg, n)
            c = constructions.build_hprime(n, slopes)
            row["B_size"] = str(len(slopes.elements))
        row["vertices"] = str(c.hypergraph.n)
        row["start_edges"] = str(c.start.edge_count())
        row["m"] = str(len(c.hypergraph.edges))
        put_verify(c.hypergraph, c.f_pairs)
        put_trace(c.start)
    elif cfg.family == "hb":
        h = constructions.build_hb(n, cfg.b)
        row["vertices"] = str(h.n)
        row["m"] = str(len(h.edges))
        put_verify(h)
    elif cfg.family == "hB":
        if slopes is None:
            slopes = _slopes_for(cfg, n)
        h = constructions.build_hB(n, slopes)
        row["B_size"] = str(len(slopes.elements))
        row["vertices"] = str(h.n)
        row["m"] = str(len(h.edges))
        put_verify(h)
    elif cfg.family == "minimal":
        g = constructions.minimal_percolating(n, cfg.r)
        row["vertices"] = str(n)
        row["start_edges"] = str(g.edge_count())
        put_trace(g)
    elif cfg.family == "cone-of":
        base = fileio.read_graph(cfg.input)
        start = cone(base)
        row["vertices"] = str(start.n)
        row["start_edges"] = str(start.edge_count())
        put_trace(start)
    else:  # pragma: no cover - guarded by parse_config
        raise ValueError(f"unknown family {cfg.family!r}")

    row["wall_ms"] = str(round((time.perf_counter() - t0) * 1000))
    return row


def _row_key(row: dict[str, str]) -> tuple[str, str, str, str]:
    return (row["family"], row["n"], row["r"], row["B_size"])


def _row_invariant_ok(row: dict[str, str]) -> bool:
    if row["cond_i"] == "true" and row["cond_ii"] == "true" and row["steps"]:
        return int(row["steps"]) >= int(row["m"])
    return True


def _existing_keys(path) -> set[tuple[str, str, str, str]]:
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(f"{path}: existing CSV has a different header")
        return {_row_key(row) for row in reader}


def run_experiment(cfg: ExperimentConfig) -> list[dict[str, str]]:
    """Execute all points not already in the output CSV; return new rows."""
    done = _existing_keys(cfg.output)
    errors_path = cfg.output + ".errors.log"

    if cfg.family == "cone-of":
        points = [fileio.read_graph(cfg.input).n]
    else:
        points = list(cfg.ns)

    # resolve slope sets up front so resume keys are known without rebuilding
    todo: list[tuple[int, ApSet | None]] = []
    for n in points:
        slopes = _slopes_for(cfg, n) if cfg.family in ("hB", "hprime") else None
        b_size = str(len(slopes.elements)) if slopes is not None else ""
        if (cfg.family, str(n), str(cfg.r), b_size) not in done:
            todo.append((n, slopes))

    write_header = not os.path.exists(cfg.output) or os.path.getsize(cfg.output) == 0
    new_rows: list[dict[str, str]] = []
    with open(cfg.output, "a", newline="") as out:
        writer = csv.DictWriter(out, fieldnames=CSV_FIELDS)
        if write_header:
            writer.writeheader()

        def emit(n: int, row: dict[str, str] | None, err: Exception | None):
            if err is not None:
                with open(errors_path, "a") as log:
                    log.write(f"point n={n}: {err}\n")
                return
            if not _row_invariant_ok(row):
                with open(errors_path, "a") as log:
                    log.write(f"point n={n}: steps {row['steps']} < m {row['m']}\n")
            writer.writerow(row)
            out.flush()
            new_rows.append(row)

        if cfg.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                futures = [
                    (n, pool.submit(compute_row, cfg, n, slopes)) for n, slopes in todo
                ]
                for n, fut in futures:
                    try:
                        emit(n, fut.result(), None)
                    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                        emit(n, None, exc)
        else:
            for n, slopes in todo:
                try:
                    emit(n, compute_row(cfg, n, slopes), None)
                except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
                    emit(n, None, exc)
    return new_rows
