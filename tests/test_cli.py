from __future__ import annotations

import hashlib
import itertools
import pathlib
import re

import pytest

from krboot import cli, experiment, fileio
from krboot.cli import main
from krboot.constructions import FAMILIES, build_chain, build_h6, minimal_percolating
from krboot.graphs import Graph, UniformHypergraph, two_skeleton


def run_cli(*argv):
    return main(list(argv))


def test_construct_h6_writes_all_four_files(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    assert run_cli("construct", "--family", "h6", "--n", "10", "--out-prefix", prefix) == 0
    out = capsys.readouterr().out
    assert "vertices=80 hyperedges=1 skeleton_edges=15 start_edges=14" in out
    h = fileio.read_hypergraph(prefix + ".hypergraph.txt")
    pairs = fileio.read_fpairs(prefix + ".fpairs.txt")
    skel = fileio.read_graph(prefix + ".skeleton.txt")
    start = fileio.read_graph(prefix + ".start.txt")
    assert skel == two_skeleton(h)
    rebuilt = skel.copy()
    for u, v in pairs:
        rebuilt.remove_edge(u, v)
    assert rebuilt == start


def test_construct_chain(tmp_path, capsys):
    prefix = str(tmp_path / "c")
    assert run_cli("construct", "--family", "chain", "--n", "3", "--out-prefix", prefix) == 0
    ref = build_chain(3)
    assert fileio.read_graph(prefix + ".start.txt") == ref.start
    assert fileio.read_fpairs(prefix + ".fpairs.txt") == ref.f_pairs


def test_construct_hb_and_hB_write_hypergraph_only(tmp_path, capsys):
    prefix = str(tmp_path / "hb")  # one slope: the paper's H_b
    assert run_cli(
        "construct", "--family", "hB", "--n", "100", "--B", "10", "--out-prefix", prefix
    ) == 0
    assert "vertices=303 hyperedges=80" in capsys.readouterr().out
    h = fileio.read_hypergraph(prefix + ".hypergraph.txt")
    assert len(h.edges) == 80
    prefix2 = str(tmp_path / "hbig")
    assert run_cli(
        "construct", "--family", "hB", "--n", "100", "--B", "10,20", "--out-prefix", prefix2
    ) == 0
    h2 = fileio.read_hypergraph(prefix2 + ".hypergraph.txt")
    assert len(h2.edges) == 80 + 60


def test_construct_minimal_and_cone(tmp_path, capsys):
    prefix = str(tmp_path / "min")
    assert run_cli(
        "construct", "--family", "minimal", "--n", "7", "--r", "4", "--out-prefix", prefix
    ) == 0
    g = fileio.read_graph(prefix + ".start.txt")
    assert (g.n, g.edge_count()) == (7, 11)
    prefix2 = str(tmp_path / "cone")
    assert run_cli(
        "construct",
        "--family",
        "cone-of",
        "--input",
        prefix + ".start.txt",
        "--out-prefix",
        prefix2,
    ) == 0
    lifted = fileio.read_graph(prefix2 + ".start.txt")
    assert (lifted.n, lifted.edge_count()) == (8, 18)


# family and flags, stdout line and sha256 of every file written, per case;
# the cone-of input is the minimal (6, 4) start written by fileio.write_graph
CONSTRUCT_GOLDEN = {
    "h6": (
        ["--family", "h6", "--n", "10"],
        "vertices=80 hyperedges=1 skeleton_edges=15 start_edges=14",
        {
            "fpairs.txt": "f628e5932b58e6a7dd441cf37219299e0cb65eb52d12d00f2c602327718afd63",
            "hypergraph.txt": "69f443f9837296017bfd5afdd08a2828311964e5a73175fa41c392c60f8a2e7d",
            "skeleton.txt": "33c5f3ac2c4162578b965d75db1158a737486796d59bc2c9db19e708a7c90949",
            "start.txt": "518dcb7f2f0563774534157e9eed3a0cccd9c191f97fb835cd18de3d3723f305",
        },
    ),
    "h6_wrap": (  # m = 400 steps wrap both index rings, of lengths 200 and 220
        ["--family", "h6", "--n", "200"],
        "vertices=840 hyperedges=400 skeleton_edges=4461 start_edges=4061",
        {
            "fpairs.txt": "4e0060b0516794d727454b66532b7defc595bca8c69b95ef1844e77d2bfab7ff",
            "hypergraph.txt": "0745e54c6fe75412bd889e0580de92511eadfa29aae52d0d1a0235e29a342be1",
            "skeleton.txt": "ed8c8875863196512910f346daeb2d1fc079f0305eee64053e63e06666904cd9",
            "start.txt": "9ee4b429628437c9dcc6e514c6b42f6ced05e1043f529f662e2ef3439b4e418c",
        },
    ),
    "chain": (
        ["--family", "chain", "--n", "3"],
        "vertices=11 hyperedges=3 skeleton_edges=28 start_edges=25",
        {
            "fpairs.txt": "844182dfcfb3b2423f648c98a8c51a60b2d599fcb5b1ea6783352bef3c340861",
            "hypergraph.txt": "e521729aff30752d09ab1bf70f61bd2611f18bfbbc884e3d719fe44ced512900",
            "skeleton.txt": "4ca44f7d661f403d762d0ace9a7262a0fc50d72eec167213d2e2ebd493d0c2a4",
            "start.txt": "da71b76c76d5b4aa56c3ef69cbd9a116c455caa5f0c553ba5cd7c13f2ffcc4db",
        },
    ),
    "hb": (  # the paper's H_b, b = 3: hB with one slope
        ["--family", "hB", "--n", "20", "--B", "3"],
        "vertices=63 hyperedges=14",
        {"hypergraph.txt": "1d69bb70276c1e50424eae908b46164581af68dffd2badda26522130afcd65fe"},
    ),
    "hB": (
        ["--family", "hB", "--n", "20", "--B", "1,2,4"],
        "vertices=63 hyperedges=46",
        {"hypergraph.txt": "f088df839d24389066a32fcd8dc15c4b5375512d70b971eac1a9b8be89aa7370"},
    ),
    "hprime": (
        ["--family", "hprime", "--n", "100", "--B", "10,20"],
        "vertices=310 hyperedges=141 skeleton_edges=1154 start_edges=1013",
        {
            "fpairs.txt": "f698436578ce6343087710cc9e2a345192ae1e019b6a924a7428413f7f234949",
            "hypergraph.txt": "3c3ab77e4e5e369d464a6dd834d130e976b02420bbdf5af3254ffb3cd7ed5cae",
            "skeleton.txt": "37510c206cb817768a9a3e834780c9d01223169160a3218604f0074f89c70abf",
            "start.txt": "0a615ba378c0042e47c187ca63e80351498acd5100ba3ce9eaafb2c8c2654fd0",
        },
    ),
    "minimal": (
        ["--family", "minimal", "--n", "7", "--r", "4"],
        "vertices=7 start_edges=11",
        {"start.txt": "17c52a360b9e518b21916959aa3f196c7c791e43c2102cc4abfd4466156a80c0"},
    ),
    "cone-of": (
        ["--family", "cone-of", "--input", "base.txt"],
        "vertices=7 start_edges=15",
        {"start.txt": "4fc0b6279845eabc33fe9d9f6b891a4bc01e5b9afa3f4567ca867c53bb37f004"},
    ),
}


@pytest.mark.parametrize("case", list(CONSTRUCT_GOLDEN))
def test_construct_golden_output(tmp_path, capsys, monkeypatch, case):
    flags, line, digests = CONSTRUCT_GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    fileio.write_graph(minimal_percolating(6, 4), "base.txt")
    (tmp_path / "out").mkdir()
    assert run_cli("construct", *flags, "--out-prefix", "out/x") == 0
    assert capsys.readouterr().out == line + "\n"
    written = {
        p.name[2:]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "out").iterdir()
    }
    assert written == digests


def test_every_family_option_is_read_and_settable():
    params = {p for fam in FAMILIES.values() for p in fam.params}
    # each construct flag is read by some family, and each parameter has a flag
    assert set(cli._CONSTRUCT_FLAGS) == params
    # every sweep key but these sets a family parameter that some family reads
    sweep_settings = {"family", "b_source", "max_steps", "output", "jobs"}
    assert experiment._KNOWN_KEYS - sweep_settings <= params
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (listed,) = re.findall(r"^family \S+ +# (.+)$", readme, re.MULTILINE)
    assert listed.split(" | ") == list(FAMILIES)


def test_construct_missing_flag_is_usage_error(tmp_path, capsys):
    code = run_cli("construct", "--family", "h6", "--out-prefix", str(tmp_path / "x"))
    assert code == 2
    assert "requires --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--family", "h6", "--n", "10", "--B", "junk", "--r", "9"],
         "--B is only read by families hB and hprime"),
        (["--family", "cone-of", "--input", "g.txt", "--n", "3"],
         "--n is only read by families h6, chain, hB, hprime and minimal"),
        (["--family", "hprime", "--n", "100", "--B", "10", "--input", "g.txt"],
         "--input is only read by family cone-of"),
        (["--family", "chain", "--n", "3", "--B", "10"],
         "--B is only read by families hB and hprime"),
        (["--family", "cone-of", "--input", "g.txt", "--r", "5"],
         "--r is only read by family minimal"),
        (["--family", "minimal", "--n", "7", "--r", "4", "--input", "g.txt"],
         "--input is only read by family cone-of"),
    ],
)
def test_construct_rejects_flags_the_family_never_reads(tmp_path, capsys, flags, message):
    assert run_cli("construct", *flags, "--out-prefix", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--b", "--m"])
def test_construct_retired_flags_are_usage_errors(tmp_path, capsys, flag):
    # hb --b X is hB --B X, and chain --m X is chain --n X
    with pytest.raises(SystemExit) as exc:
        run_cli("construct", "--family", "hB", "--n", "20", flag, "3",
                "--out-prefix", str(tmp_path / "x"))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_construct_bad_slope_list(tmp_path, capsys):
    code = run_cli(
        "construct", "--family", "hB", "--n", "100", "--B", "10,oops",
        "--out-prefix", str(tmp_path / "x"),
    )
    assert code == 2
    assert "bad slope list" in capsys.readouterr().err
    code = run_cli(
        "construct", "--family", "hB", "--n", "100", "--B", "",
        "--out-prefix", str(tmp_path / "x"),
    )
    assert code == 2
    assert "error: bad slope list ''; expected like 10,20,40" in capsys.readouterr().err


def test_simulate_minimal_start(tmp_path, capsys):
    run_cli("construct", "--family", "minimal", "--n", "6", "--r", "4",
            "--out-prefix", str(tmp_path / "s"))
    capsys.readouterr()
    trace_path = tmp_path / "trace.json"
    code = run_cli(
        "simulate", "--start", str(tmp_path / "s.start.txt"), "--r", "4",
        "--trace", str(trace_path),
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "steps=1 percolated=true truncated=false"
    trace = fileio.read_trace(trace_path)
    assert trace.running_time == 1 and trace.percolated


def test_simulate_respects_host_and_budget(tmp_path, capsys):
    start = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    host = Graph.complete(4)
    host.remove_edge(0, 3)
    sp, hp = tmp_path / "s.txt", tmp_path / "h.txt"
    fileio.write_graph(start, sp)
    fileio.write_graph(host, hp)
    assert run_cli("simulate", "--start", str(sp), "--r", "3", "--host", str(hp)) == 0
    assert capsys.readouterr().out.strip() == "steps=1 percolated=true truncated=false"
    assert run_cli("simulate", "--start", str(sp), "--r", "3", "--max-steps", "0") == 0
    assert capsys.readouterr().out.strip() == "steps=0 percolated=false truncated=true"
    assert run_cli("simulate", "--start", str(sp), "--r", "3") == 0
    assert capsys.readouterr().out.strip() == "steps=2 percolated=true truncated=false"


def test_simulate_missing_file_is_exit_2(tmp_path, capsys):
    assert run_cli("simulate", "--start", str(tmp_path / "nope.txt"), "--r", "3") == 2
    assert "error:" in capsys.readouterr().err


def test_verify_induced_free_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    fileio.write_hypergraph(build_h6(20).hypergraph, good)
    assert run_cli("verify", "induced-free", "--hypergraph", str(good), "--r", "6") == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")

    bad = tmp_path / "bad.txt"
    fileio.write_hypergraph(
        UniformHypergraph(7, 5, [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)]), bad
    )
    assert run_cli("verify", "induced-free", "--hypergraph", str(bad), "--r", "5") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    witness_line = [l for l in out.splitlines() if l.startswith("WITNESS")][0]
    kind, *ids = witness_line.split()[1:]
    assert kind == "near-clique"
    ids = [int(x) for x in ids]
    # re-check the printed witness straight from the definition
    h = fileio.read_hypergraph(bad)
    skel = two_skeleton(h)
    spanned = sum(skel.has_edge(a, b) for a, b in itertools.combinations(ids, 2))
    assert spanned >= 9 and tuple(ids) not in set(h.edges)
    assert out.splitlines()[-1] == "WITNESS near-clique 0 2 3 4 5"

    # verbose lists every offender, the witness first
    argv = ("verify", "induced-free", "--hypergraph", str(bad), "--r", "5", "--verbose")
    assert run_cli(*argv) == 1
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "FAIL",
        "WITNESS near-clique 0 2 3 4 5",
        "WITNESS near-clique 0 2 3 4 6",
        "WITNESS near-clique 1 2 3 4 5",
        "WITNESS near-clique 1 2 3 4 6",
    ]


def test_verify_pairs_cli(tmp_path, capsys):
    c = build_chain(3)
    hp, fp = tmp_path / "h.txt", tmp_path / "f.txt"
    fileio.write_hypergraph(c.hypergraph, hp)
    fileio.write_fpairs(c.f_pairs, fp)
    assert run_cli("verify", "pairs", "--hypergraph", str(hp), "--fpairs", str(fp)) == 0
    capsys.readouterr()
    fileio.write_fpairs([c.f_pairs[0]] * 3, fp)
    assert run_cli("verify", "pairs", "--hypergraph", str(hp), "--fpairs", str(fp)) == 1
    assert "WITNESS pair-containment" in capsys.readouterr().out


def test_verify_apfree_cli(tmp_path, capsys):
    sp = tmp_path / "s.txt"
    sp.write_text("9 4\n1\n2\n6\n9\n")  # 4,6: wait 2,6 midpoint 4 absent; checked below
    code = run_cli("verify", "apfree", "--apset", str(sp))
    out = capsys.readouterr().out
    assert code == 0 and "PASS" in out
    sp.write_text("9 3\n1\n5\n9\n")
    assert run_cli("verify", "apfree", "--apset", str(sp)) == 1
    assert "WITNESS ap-triple 1 5 9" in capsys.readouterr().out


def test_verify_residue_cli(capsys):
    assert run_cli("verify", "residue", "--n", "10") == 0
    assert "PASS" in capsys.readouterr().out
    assert run_cli("verify", "residue", "--n", "9") == 2


def test_apset_cli(tmp_path, capsys):
    out_path = tmp_path / "s.txt"
    assert run_cli("apset", "--source", "digits3", "--n", "100", "--out", str(out_path)) == 0
    assert capsys.readouterr().out.strip() == "n=100 size=16"
    s = fileio.read_apset(out_path)
    assert len(s.elements) == 16
    assert run_cli("apset", "--source", "exhaustive", "--n", "9") == 0
    assert capsys.readouterr().out.strip() == "n=9 size=5"


def test_apset_cli_rejects_unknown_source(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("apset", "--source", "behrend", "--n", "100")
    assert exc.value.code == 2
    assert "invalid choice: 'behrend'" in capsys.readouterr().err


def test_maxtime_exact_cli(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    assert run_cli("maxtime", "--n", "4", "--r", "3", "--witness-out", str(wpath)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "M_3(4) = 2"
    assert out[1] == "12 of 64 starts take 2 steps"
    # remaining lines are the witness in graph format and match the file
    w = fileio.read_graph(wpath)
    assert out[2] == f"{w.n} {w.edge_count()}"
    assert len(out) == 3 + w.edge_count()


def test_maxtime_sampled_cli(capsys):
    assert run_cli("maxtime", "--n", "5", "--r", "4", "--samples", "1024", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "M_4(5) >= 2 (sampled, 1024 starts)\n91 of 1024 sampled starts take 2 steps\n" in out
    assert run_cli("maxtime", "--n", "5", "--r", "4", "--samples", "10") == 2
    assert "--samples requires --seed" in capsys.readouterr().err


def test_maxtime_seed_without_samples_is_usage_error(capsys):
    assert run_cli("maxtime", "--n", "5", "--r", "3", "--seed", "4") == 2
    captured = capsys.readouterr()
    assert "--seed requires --samples" in captured.err
    assert captured.out == ""


def test_experiment_cli_runs_and_resumes(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# chain sweep\n"
        "family chain\n"
        "n 1\n"
        "n 2\n"
        f"output {csv_path}\n"
    )
    assert run_cli("experiment", "--config", str(cfg)) == 0
    assert "wrote 2 new rows" in capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("family,n,r,B_size")
    assert len(lines) == 3
    # second run resumes: nothing new
    assert run_cli("experiment", "--config", str(cfg)) == 0
    assert "wrote 0 new rows" in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 3
    # extending the sweep adds only the missing point
    cfg.write_text(cfg.read_text() + "n 3\n")
    assert run_cli("experiment", "--config", str(cfg)) == 0
    assert "wrote 1 new rows" in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 4


def test_experiment_cli_rejects_jobs_below_one(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family chain\nn 1\noutput {csv_path}\n")
    for jobs in ("-3", "0"):
        assert run_cli("experiment", "--config", str(cfg), "--jobs", jobs) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not csv_path.exists()


def test_experiment_cli_jobs_overrides_the_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family chain\nn 1\njobs 1\noutput {tmp_path / 'rows.csv'}\n")
    seen = []
    monkeypatch.setattr(experiment, "run_experiment", lambda c: seen.append(c.jobs) or [])
    assert run_cli("experiment", "--config", str(cfg), "--jobs", "2") == 0
    assert run_cli("experiment", "--config", str(cfg)) == 0
    assert seen == [2, 1]


def test_experiment_cli_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family chain\nn 1\nwat 3\noutput x.csv\n")
    assert run_cli("experiment", "--config", str(cfg)) == 2
    assert "unknown key" in capsys.readouterr().err


def test_experiment_cli_refuses_slopes_the_builder_refuses(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    cfg = tmp_path / "sweep.cfg"
    for text, msg in (
        ("family hB\nn 20\nB 10\n", "slope 10 outside [1, 9]"),
        ("family hprime\nn 100\nB 15\n", "slope 15 is not a multiple of 10"),
    ):
        cfg.write_text(f"{text}output {csv_path}\n")
        assert run_cli("experiment", "--config", str(cfg)) == 2
        assert f"error: {cfg}:2: {msg}\n" == capsys.readouterr().err
    assert not csv_path.exists()
