from __future__ import annotations

import csv
import hashlib
import os
import weakref

import pytest

from krboot import experiment, fileio
from krboot.apsets import ApSet
from krboot.constructions import FAMILIES, build, minimal_percolating
from krboot.engine import PercolationTrace, run
from krboot.experiment import (
    CSV_FIELDS,
    ExperimentConfig,
    _row_invariant_ok,
    _slopes_for,
    compute_row,
    parse_config,
    run_experiment,
)
from krboot.graphs import Graph
from krboot.verify import check_induced_free, check_pair_condition


def write_cfg(tmp_path, text):
    p = tmp_path / "sweep.cfg"
    p.write_text(text)
    return p


def test_parse_config_basic(tmp_path):
    p = write_cfg(
        tmp_path,
        "family hprime\n"
        "n 400   # with a trailing comment\n"
        "n 800\n"
        "b_source digits3\n"
        "max_steps auto\n"
        "jobs 2\n"
        "output rows.csv\n",
    )
    cfg = parse_config(p)
    assert cfg.family == "hprime" and cfg.ns == [400, 800]
    assert cfg.r == 5  # family default
    assert cfg.max_steps is None and cfg.jobs == 2


def test_parse_config_explicit_slopes(tmp_path):
    p = write_cfg(tmp_path, "family hB\nn 100\nB 20\nB 10\noutput o.csv\n")
    cfg = parse_config(p)
    assert cfg.B == [20, 10]
    assert _slopes_for(cfg, 100).elements == (10, 20)
    # B lines alone give the slopes, so n needs no digits3 floor
    p = write_cfg(tmp_path, "family hprime\nn 40\nB 10\noutput o.csv\n")
    assert _slopes_for(parse_config(p), 40).elements == (10,)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("n 10\noutput o.csv\n", "missing required key 'family'"),
        ("family chain\nn 1\n", "missing required key 'output'"),
        ("family nope\nn 1\noutput o.csv\n", "unknown family"),
        ("family chain\noutput o.csv\n", "at least one 'n'"),
        ("family chain\nn 1\nzzz 4\noutput o.csv\n", "unknown key"),
        ("family chain\nn 1\nr 5\nr 6\noutput o.csv\n", "more than once"),
        ("family chain\nn 1\nincremental maybe\noutput o.csv\n", "unknown key"),
        ("family chain\nn 1\nseed 0\noutput o.csv\n", r"sweep.cfg:3: unknown key 'seed'"),
        ("family cone-of\nr 5\noutput o.csv\n", "needs 'input'"),
        ("family minimal\nn 6\noutput o.csv\n", "explicit 'r'"),
        ("family hB\nn 100\nb_source explicit\noutput o.csv\n",
         r"sweep\.cfg:3: unknown b_source 'explicit'"),
        ("family chain\nn 1\njobs 0\noutput o.csv\n", ">= 1"),
        ("family chain\nn 1 extra\noutput o.csv\n", "needs an integer"),
        ("family chain\nn 1\njunk\noutput o.csv\n", "expected 'key value'"),
        ("family chain\nn 1\nb_source magic\noutput o.csv\n", "unknown b_source"),
        ("family chain\nn 1\nn x\noutput o.csv\n", r"sweep\.cfg:3: key 'n' needs an integer"),
        ("family chain\nr 5\nn 1\nr 6\noutput o.csv\n", r"sweep\.cfg:4: key 'r' given more"),
        ("output o.csv\nn 1\nfamily nope\n", r"sweep\.cfg:3: unknown family 'nope'"),
        ("family chain\nn 1\noutput o.csv\nb_source magic\n", r"sweep\.cfg:4: unknown b_source"),
        ("family hprime\nn 400\nb_source behrend\noutput o.csv\n",
         r"sweep\.cfg:3: unknown b_source 'behrend'"),
        ("family hB\nn 100\nB 10\nB 10\noutput o.csv\n",
         r"sweep\.cfg:4: slope 10 given more than once"),
        ("family hB\nn 100\nB 0\noutput o.csv\n", r"sweep\.cfg:3: slope 0 must be positive"),
        ("family hB\nn 100\nB 10\nB -20\noutput o.csv\n",
         r"sweep\.cfg:4: slope -20 must be positive"),
        ("family hb\nn 50\noutput o.csv\n", r"sweep\.cfg:1: unknown family 'hb'"),
        ("family chain\nn 1\noutput o.csv\njobs 0\n", r"sweep\.cfg:4: jobs must be >= 1"),
        ("family chain\nn 1\nb_source digits3\nB 10\nb 4\noutput o.csv\n",
         r"sweep\.cfg:5: unknown key 'b'"),
        ("family chain\nn 1\nb_source digits3\nB 10\noutput o.csv\n",
         r"sweep\.cfg:3: key 'b_source' is only read by families hB and hprime without 'B'"),
        ("family hprime\nn 400\nb 4\noutput o.csv\n", r"sweep\.cfg:3: unknown key 'b'"),
        ("family chain\nn 1\nB 10\noutput o.csv\n",
         r"sweep\.cfg:3: key 'B' is only read by families hB and hprime"),
        ("family hB\nn 100\nB 10\nb_source exhaustive\noutput o.csv\n",
         r"sweep\.cfg:4: key 'b_source' is only read by families hB and hprime without 'B'"),
        ("family chain\nn 1\ninput x.txt\noutput o.csv\n",
         r"sweep\.cfg:3: key 'input' is only read by family cone-of"),
        ("family cone-of\ninput base.txt\nn 5\nr 7\noutput o.csv\n",
         r"sweep\.cfg:3: key 'n' is only read by families built without an input"),
        ("family hB\nn 100\nmax_steps 5\noutput o.csv\n",
         r"sweep\.cfg:3: key 'max_steps' is only read by families that simulate"),
        ("family chain\nn 20\nn 20\noutput o.csv\n", r"sweep\.cfg:3: n 20 given more than once"),
        ("family minimal\nn 6\nr 2\noutput o.csv\n", r"sweep\.cfg:3: r must be at least 3"),
        ("family h6\nn 20\nr 7\noutput o.csv\n", r"sweep\.cfg:3: family h6 has order 6, got r 7"),
        ("family chain\nn 1\nmax_steps -1\noutput o.csv\n",
         r"sweep\.cfg:3: max_steps must be non-negative"),
        ("family hb\nn 50\nb 0\noutput o.csv\n", r"sweep\.cfg:3: unknown key 'b'"),
        ("family chain\nn 0\noutput o.csv\n", r"sweep\.cfg:2: family chain needs n >= 1, got n 0"),
        ("family h6\nn 20\nn -3\noutput o.csv\n",
         r"sweep\.cfg:3: family h6 needs n >= 10, got n -3"),
        ("family hprime\nn 10\noutput o.csv\n",
         r"sweep\.cfg:2: family hprime needs n >= 40, got n 10"),
        # each point must have slopes and be buildable at the resolved r
        ("family hB\nn 40\nn 20\noutput o.csv\n",
         r"sweep\.cfg:3: n=20 too small to generate slopes \(need n >= 40\)$"),
        ("family hprime\nn 1200\nb_source exhaustive\noutput o.csv\n",
         r"sweep\.cfg:2: n=1200 needs exhaustive slopes on \[1, 30\]: .* limited to n <= 25$"),
        ("family minimal\nn 6\nn 4\nr 6\noutput o.csv\n",
         r"sweep\.cfg:3: family minimal needs n >= 6, got n 4$"),
        # explicit slopes go through the builder's own slope check
        ("family hB\nn 20\nB 10\noutput o.csv\n", r"sweep\.cfg:2: slope 10 outside \[1, 9\]$"),
        ("family hprime\nn 100\nB 15\noutput o.csv\n",
         r"sweep\.cfg:2: slope 15 is not a multiple of 10$"),
        ("family hprime\nn 400\nn 160\nB 10\nB 20\nB 30\noutput o.csv\n",
         r"sweep\.cfg:2: B/10 contains an arithmetic progression: \(1, 2, 3\)$"),
        ("family hprime\nn 400\nn 160\nB 50\noutput o.csv\n",
         r"sweep\.cfg:3: slope 50 outside \[1, 40\]$"),
    ],
)
def test_parse_config_rejects(tmp_path, text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_config(write_cfg(tmp_path, text))


def test_slopes_for_scales_generated_sets():
    cfg = ExperimentConfig(family="hprime", ns=[400], r=5, output="o.csv")
    s = _slopes_for(cfg, 400)
    # digits3 on [1, 10] is {1, 2, 4, 5}, scaled by 10
    assert s.elements == (10, 20, 40, 50)
    assert s.n == 100
    with pytest.raises(ValueError, match="n >= 40"):
        _slopes_for(cfg, 39)


def test_compute_row_chain():
    cfg = ExperimentConfig(family="chain", ns=[3], r=5, output="o.csv")
    row = compute_row(cfg, 3)
    assert row["family"] == "chain" and row["n"] == "3"
    assert row["m"] == "3" and row["vertices"] == "11"
    assert row["cond_i"] == "true" and row["cond_ii"] == "true"
    assert int(row["steps"]) >= 3 and row["certified"] == "true"
    assert row["B_size"] == ""  # not applicable
    assert _row_invariant_ok(row)


def test_compute_row_h6():
    cfg = ExperimentConfig(family="h6", ns=[20], r=6, output="o.csv")
    row = compute_row(cfg, 20)
    assert row["m"] == "4" and row["vertices"] == "120"
    assert row["steps"] == "4" and row["percolated"] == "false"
    assert row["cond_i"] == "true" and row["cond_ii"] == "true"
    assert row["certified"] == "true"


def test_compute_row_hb_checks_structure_only():
    # one slope: the paper's H_b
    cfg = ExperimentConfig(family="hB", ns=[100], r=5, output="o.csv", B=[10])
    row = compute_row(cfg, 100)
    assert row["m"] == "80" and row["cond_i"] == "true"
    assert row["steps"] == "" and row["percolated"] == "" and row["certified"] == ""


def test_compute_row_hprime_with_explicit_slopes():
    cfg = ExperimentConfig(
        family="hprime", ns=[100], r=5, output="o.csv", B=[10, 20]
    )
    row = compute_row(cfg, 100, ApSet(20, (10, 20)))
    assert row["B_size"] == "2" and row["m"] == "141"
    assert row["cond_i"] == "true" and row["cond_ii"] == "true"
    assert int(row["steps"]) >= 141 and row["certified"] == "true"


def test_compute_row_minimal_and_cone(tmp_path):
    cfg = ExperimentConfig(family="minimal", ns=[7], r=4, output="o.csv")
    row = compute_row(cfg, 7)
    assert row["steps"] == "1" and row["percolated"] == "true"
    assert row["m"] == "" and row["cond_i"] == ""

    base = tmp_path / "base.txt"
    fileio.write_graph(minimal_percolating(6, 4), base)
    cfg2 = ExperimentConfig(
        family="cone-of", ns=[], r=5, output="o.csv", input=str(base)
    )
    row2 = compute_row(cfg2, 7)
    assert row2["vertices"] == "7" and row2["steps"] == "1"


# one small point per family: (n, r, other config fields)
TABLE_POINTS = {
    "h6": (20, 6, {}),
    "chain": (3, 5, {}),
    "hB": (100, 5, {"B": [10, 20]}),
    "hprime": (100, 5, {"B": [10, 20]}),
    "minimal": (7, 4, {}),
    "cone-of": (6, 5, {"input": "base.txt"}),
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_compute_row_cells_are_the_built_parts(tmp_path, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    fileio.write_graph(minimal_percolating(6, 4), "base.txt")
    n, r, extra = TABLE_POINTS[family]
    cfg = ExperimentConfig(family=family, ns=[n], r=r, output="o.csv", **extra)
    row = compute_row(cfg, n)

    c = build(family, n=n, B=_slopes_for(cfg, n), r=r, input=cfg.input)
    parts = ("hypergraph", "f_pairs", "start")
    assert tuple(p for p in parts if getattr(c, p) is not None) == FAMILIES[family].parts
    want = dict.fromkeys(("m", "cond_i", "cond_ii", "start_edges", "steps", "percolated"), "")
    want["vertices"] = str(c.vertices)
    if c.hypergraph is not None:
        want["m"] = str(len(c.hypergraph.edges))
        want["cond_i"] = str(check_induced_free(c.hypergraph, r).passed).lower()
    if c.f_pairs is not None:
        want["cond_ii"] = str(check_pair_condition(c.hypergraph, c.f_pairs).passed).lower()
    if c.start is not None:
        trace = run(c.start, r, Graph.complete(c.start.n))
        want["start_edges"] = str(c.start.edge_count())
        want["steps"] = str(trace.running_time)
        want["percolated"] = str(trace.percolated).lower()
    want["certified"] = ""
    if c.f_pairs is not None:
        one_pair_steps = trace.steps[: len(c.f_pairs)] == [[f] for f in c.f_pairs]
        want["certified"] = str(one_pair_steps).lower()
    assert {cell: row[cell] for cell in want} == want
    assert (row["family"], row["n"], row["r"]) == (family, str(n), str(r))
    # each stage that ran has its time, and only those
    ran = {"build_ms": True, "cond_i_ms": c.hypergraph is not None,
           "cond_ii_ms": c.f_pairs is not None, "run_ms": c.start is not None}
    assert {cell: row[cell].isdigit() for cell in ran} == ran
    assert all(row[cell] == "" for cell, made in ran.items() if not made)


def test_compute_row_drops_the_scaffold_before_run(monkeypatch):
    # run needs only the start: the built output, with its hypergraph, is
    # gone when it begins
    built = []

    def build_spy(*args, **kwargs):
        c = build(*args, **kwargs)
        built.append(weakref.ref(c))
        return c

    def run_spy(start, *args, **kwargs):
        assert built[0]() is None
        return run(start, *args, **kwargs)

    monkeypatch.setattr(experiment.constructions, "build", build_spy)
    monkeypatch.setattr(experiment.engine, "run", run_spy)
    cfg = ExperimentConfig(family="chain", ns=[3], r=5, output="o.csv")
    assert compute_row(cfg, 3)["steps"] == "3"
    assert len(built) == 1


def test_row_invariant_flags_short_runs():
    row = {k: "" for k in CSV_FIELDS}
    row.update(cond_i="true", cond_ii="true", steps="3", m="5", certified="false")
    assert not _row_invariant_ok(row)
    row.update(steps="5", certified="true")
    assert _row_invariant_ok(row)
    row.update(certified="false")
    assert not _row_invariant_ok(row)  # m steps, but not the designated pairs
    row.update(cond_i="false", steps="0")
    assert _row_invariant_ok(row)  # invariant only binds when both checks pass


def test_run_experiment_flags_a_replay_that_swaps_two_pairs(tmp_path, monkeypatch):
    # a replay with m steps that adds two designated pairs out of order passes
    # the step count but not the certificate
    def swapped(*args, **kwargs):
        trace = run(*args, **kwargs)
        s = trace.steps
        return PercolationTrace(
            steps=[s[1], s[0], *s[2:]],
            running_time=trace.running_time,
            percolated=trace.percolated,
            truncated=trace.truncated,
            final_edge_count=trace.final_edge_count,
        )

    monkeypatch.setattr(experiment.engine, "run", swapped)
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="chain", ns=[3], r=5, output=str(out))
    (row,) = run_experiment(cfg)
    assert row["cond_i"] == row["cond_ii"] == "true"
    assert row["steps"] == row["m"] == "3" and row["certified"] == "false"
    assert read_rows(out)[0]["certified"] == "false"
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert log == "point n=3: cond (i) and (ii) hold, but steps 3 for m 3, certified false\n"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_experiment_writes_and_resumes(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="chain", ns=[1, 2, 3], r=5, output=str(out))
    new = run_experiment(cfg)
    assert [r["n"] for r in new] == ["1", "2", "3"]
    assert len(read_rows(out)) == 3
    assert run_experiment(cfg) == []
    cfg.ns = [1, 2, 3, 4]
    assert [r["n"] for r in run_experiment(cfg)] == ["4"]
    rows = read_rows(out)
    assert len(rows) == 4 and rows[0]["family"] == "chain"


def test_run_experiment_logs_errors_and_continues(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="h6", ns=[5, 10], r=6, output=str(out))
    new = run_experiment(cfg)
    assert [r["n"] for r in new] == ["10"]  # n=5 is below the family minimum
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert "point n=5" in log


def test_run_experiment_parallel_logs_errors_and_continues(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="h6", ns=[5, 10, 20], r=6, output=str(out), jobs=2)
    new = run_experiment(cfg)
    assert [r["n"] for r in new] == ["10", "20"]  # n=5 fails in its worker
    assert [r["n"] for r in read_rows(out)] == ["10", "20"]
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert log.startswith("point n=5: ") and log.count("\n") == 1


def test_run_experiment_logs_the_points_a_broken_pool_loses(tmp_path, monkeypatch):
    # a worker that dies breaks the pool: the point it ran and every point
    # still pending are logged, finished rows are kept, and the sweep returns
    run_engine, doomed = experiment.engine.run, build("chain", n=2).start.n

    def dies_on_point_2(start, *args, **kwargs):
        if start.n == doomed:
            os._exit(1)
        return run_engine(start, *args, **kwargs)

    monkeypatch.setattr(experiment.engine, "run", dies_on_point_2)
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="chain", ns=[1, 2, 3], r=5, output=str(out), jobs=2)
    new = run_experiment(cfg)
    log = (out.parent / (out.name + ".errors.log")).read_text().splitlines()
    assert any(line.startswith("point n=2: ") for line in log), log
    assert sorted([r["n"] for r in new] + [line[8] for line in log]) == ["1", "2", "3"], log
    assert [r["n"] for r in read_rows(out)] == [r["n"] for r in new]


def test_run_experiment_logs_a_point_without_slopes(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="hprime", ns=[30, 400], r=5, output=str(out))
    new = run_experiment(cfg)
    assert [r["n"] for r in new] == ["400"]  # n=30 has no digits3 slopes
    assert [r["n"] for r in read_rows(out)] == ["400"]
    log = (out.parent / (out.name + ".errors.log")).read_text()
    assert log == "point n=30: n=30 too small to generate slopes (need n >= 40)\n"


def test_run_experiment_parallel_matches_serial(tmp_path):
    serial = ExperimentConfig(family="chain", ns=[1, 2, 3, 4], r=5,
                              output=str(tmp_path / "serial.csv"))
    parallel = ExperimentConfig(family="chain", ns=[1, 2, 3, 4], r=5,
                                output=str(tmp_path / "par.csv"), jobs=2)
    rows_s = run_experiment(serial)
    rows_p = run_experiment(parallel)

    def strip(rows):  # stage times differ run to run
        return [{k: v for k, v in r.items() if not k.endswith("_ms")} for r in rows]

    assert strip(rows_s) == strip(rows_p)


def test_run_experiment_reruns_a_different_slope_set(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="hB", ns=[100], r=5, output=str(out), B=[10, 20])
    assert [r["B"] for r in run_experiment(cfg)] == ["10;20"]
    cfg.B = [10, 30]
    new = run_experiment(cfg)
    assert [(r["B"], r["B_size"]) for r in new] == [("10;30", "2")]
    assert run_experiment(cfg) == []
    assert [r["B"] for r in read_rows(out)] == ["10;20", "10;30"]


def test_run_experiment_reruns_a_different_step_budget(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="chain", ns=[4], r=5, output=str(out))
    first = run_experiment(cfg)
    assert first[0]["max_steps"] == "" and first[0]["steps"] == "4"
    cfg.max_steps = 2
    new = run_experiment(cfg)
    assert [(r["max_steps"], r["steps"]) for r in new] == [("2", "2")]
    assert run_experiment(cfg) == []
    assert len(read_rows(out)) == 2


def test_run_experiment_reruns_a_different_cone_input(tmp_path):
    # two different graphs on 6 vertices: same (family, n, r, B, max_steps)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    fileio.write_graph(minimal_percolating(6, 4), a)
    fileio.write_graph(Graph.from_edges(6, [(0, 1), (1, 2), (2, 0)]), b)
    out = tmp_path / "out.csv"
    cfg = ExperimentConfig(family="cone-of", ns=[], r=4, output=str(out), input=str(a))
    assert len(run_experiment(cfg)) == 1
    cfg.input = str(b)
    new = run_experiment(cfg)
    assert len(new) == 1
    assert new[0]["input"] == hashlib.sha256(b.read_bytes()).hexdigest()
    assert run_experiment(cfg) == []
    rows = read_rows(out)
    assert [r["n"] for r in rows] == ["6", "6"]
    assert rows[0]["input"] == hashlib.sha256(a.read_bytes()).hexdigest()


def test_point_cells_leave_unused_settings_blank():
    cfg = ExperimentConfig(family="hB", ns=[100], r=5, output="o.csv", max_steps=7)
    row = compute_row(cfg, 100, ApSet(20, (10, 20)))
    assert row["B"] == "10;20" and row["max_steps"] == ""  # hB never simulates
    cfg = ExperimentConfig(family="hB", ns=[100], r=5, output="o.csv", B=[10])
    assert compute_row(cfg, 100)["B"] == "10"
    cfg = ExperimentConfig(family="chain", ns=[3], r=5, output="o.csv")
    row = compute_row(cfg, 3)
    assert row["B"] == "" and row["max_steps"] == "" and row["input"] == ""


def test_run_experiment_refuses_the_old_header(tmp_path):
    # a header missing the B and max_steps columns, or the input column, or
    # the certified column, or with the one wall_ms column in place of the
    # four stage times
    headers = [
        [f for f in CSV_FIELDS if f not in dropped]
        for dropped in (("B", "max_steps"), ("input",), ("certified",))
    ]
    headers.append([f for f in CSV_FIELDS if not f.endswith("_ms")] + ["wall_ms"])
    for header in headers:
        out = tmp_path / "rows.csv"
        out.write_text(",".join(header) + "\n")
        cfg = ExperimentConfig(family="chain", ns=[1], r=5, output=str(out))
        with pytest.raises(ValueError, match="different header .*new file"):
            run_experiment(cfg)


def test_run_experiment_rejects_foreign_csv(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("a,b,c\n1,2,3\n")
    cfg = ExperimentConfig(family="chain", ns=[1], r=5, output=str(out))
    with pytest.raises(ValueError, match="different header"):
        run_experiment(cfg)
