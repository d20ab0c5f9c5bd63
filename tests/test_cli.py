import csv
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stripmwis
from stripmwis import cli, solver_degree
from stripmwis.cli import main
from stripmwis.fileio import read_graph, write_graph
from stripmwis.generate import generate_random_instance, generate_subdivided_claw

from helpers import (count_calls, cycle_mwis, esd_to_text, outcome_to_text, same_graph,
                     td_to_text, weighted_cycle)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def instance_file(tmp_path):
    G = generate_random_instance(24, 3, 2, 3)
    path = tmp_path / "g.graph"
    path.write_text(write_graph(G))
    return path, G


def test_solve_bruteforce(instance_file, capsys):
    path, G = instance_file
    code, out, _ = run_cli(["solve", str(path), "--algo", "bruteforce"], capsys)
    assert code == 0
    assert out.startswith("value ")


def test_solve_algorithms_agree(instance_file, capsys):
    path, _ = instance_file
    _, brute, _ = run_cli(["solve", str(path), "--algo", "bruteforce"], capsys)
    code, deg, _ = run_cli(["solve", str(path), "--algo", "degree", "--t", "2",
                            "--leaf-cap", "10"], capsys)
    assert code == 0 and brute.splitlines()[0] == deg.splitlines()[0]
    code, bic, _ = run_cli(["solve", str(path), "--algo", "biclique", "--t", "2",
                            "--k", "2", "--leaf-cap", "10"], capsys)
    assert code == 0 and brute.splitlines()[0] == bic.splitlines()[0]


def test_solve_auto_picks_bruteforce_at_desk_scale(instance_file, capsys):
    path, _ = instance_file
    code, out, err = run_cli(["solve", str(path)], capsys)
    assert code == 0
    assert "algo=bruteforce" in err


def test_solve_byte_identical_runs(instance_file, capsys):
    path, _ = instance_file
    args = ["solve", str(path), "--algo", "degree", "--leaf-cap", "10", "--witness"]
    outs = {run_cli(args, capsys)[1] for _ in range(3)}
    assert len(outs) == 1


def test_assert_free_exit_code(tmp_path, capsys):
    g = generate_subdivided_claw(2, 2, 2)
    path = tmp_path / "s.graph"
    path.write_text(write_graph(g))
    # bruteforce (auto here) and a root leaf make no search of their own;
    # the last run recurses and finds the claw in the solver
    for flags in ([], ["--algo", "degree"], ["--algo", "degree", "--leaf-cap", "4"]):
        code, out, _ = run_cli(["solve", str(path), "--assert-free", "--t", "2"] + flags,
                               capsys)
        assert code == 3
        lines = out.splitlines()
        assert lines[0].startswith("witness center ") and len(lines) == 4
        assert all(l.startswith("witness leg ") for l in lines[1:])
    code2, _, _ = run_cli(["solve", str(path), "--t", "2"], capsys)
    assert code2 == 0


@pytest.mark.parametrize("algo", ["auto", "degree", "biclique"])
def test_assert_free_searches_once(tmp_path, capsys, monkeypatch, algo):
    # a recursive run searches for the claw itself, so the CLI does not
    G = weighted_cycle(random.Random(0), 41)
    path = tmp_path / "c.graph"
    path.write_text(write_graph(G))
    searches = [count_calls(monkeypatch, module, "find_induced_sttt")
                for module in (cli, solver_degree)]
    code, out, _ = run_cli(["solve", str(path), "--assert-free", "--algo", algo,
                            "--k", "2"], capsys)
    assert code == 0 and out == f"value {cycle_mwis(G.weights)}\n"
    assert sum(map(len, searches)) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 1 0\nv 1 -5\n")
    code, _, err = run_cli(["solve", str(bad)], capsys)
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("flag, text, message", [
    (None, None, "cannot read"),
    ("--outcome", "paths x\n", "line 1"),
    ("--outcome", "paths 1\npath 1 a\nh 1 0\n", "line 2"),
    ("--outcome", "paths 0\nh 1 0\nbogus\n", "line 3"),
    ("--td", "t\n", "line 1"),
    ("--esd", None, "cannot read"),
    # files each of which a reader used to accept by dropping a line
    ("--esd", "h 1 5\neta v 0 : 1 2 3 4 5 6 7 8\n", "error: "),
    ("--esd", "h 1 0\neta v 0 : 1\neta v 0 : 1 2 3 4 5 6 7 8\n", "line 3"),
    ("--esd", "h 1 0\neta v 0 : 1 2 3 4 5 6 7 8\neta v 4 :\n", "line 3"),
    ("--esd", "h 2 1\nhe 0 1\nhe 0 1\neta v 0 : 1 2 3 4 5 6 7 8\n", "line 3"),
    ("--td", "t 1\nb 0 : 1\nb 0 : 1 2 3 4 5 6 7 8\n", "line 3"),
    ("--esd", "h 1 0\neta v 0 : 1 2 3 4 5 6 7 8\neta e 0 1 : | |\n", "line 3"),
    ("--td", "t 1\nt 1\nb 0 : 1 2 3 4 5 6 7 8\n", "line 2"),
    ("--td", "t 2\nb 0 : 1 2 3 4 5 6 7 8\nb 1 :\nte 0 1\nte 1 0\n", "line 5"),
    # a label listed twice inside one list
    ("--esd", "h 1 0\neta v 0 : 1 1 2 3 4 5 6 7 8\n", "line 2"),
    ("--td", "t 1\nb 0 : 1 1 2 3 4 5 6 7 8\n", "line 2"),
])
def test_malformed_or_missing_input_files_exit_2(tmp_path, capsys, flag, text, message):
    gpath = tmp_path / "g.graph"
    gpath.write_text(write_graph(generate_random_instance(8, 3, 2, 1)))
    fpath = tmp_path / "input.txt"
    if text is not None:
        fpath.write_text(text)
    if flag is None:
        args = ["solve", str(tmp_path / "missing.graph")]
    else:
        args = ["check", str(gpath), flag, str(fpath)]
    code, _, err = run_cli(args, capsys)
    assert code == 2 and message in err


def test_capacity_exit_code(tmp_path, capsys):
    G = generate_random_instance(41, 3, 2, 1)
    path = tmp_path / "big.graph"
    path.write_text(write_graph(G))
    code, _, _ = run_cli(["solve", str(path), "--algo", "bruteforce"], capsys)
    assert code == 4


def test_gen_families(tmp_path, capsys):
    out = tmp_path / "a.graph"
    code, _, _ = run_cli(["gen", "--family", "sttt", "--a", "2", "--b", "2",
                          "--c", "2", "-o", str(out)], capsys)
    assert code == 0
    G = read_graph(out.read_text())
    assert G.n == 7 and G.edge_count() == 6

    out2 = tmp_path / "b.graph"
    code, _, _ = run_cli(["gen", "--family", "random", "--n", "18", "--delta", "3",
                          "--t", "2", "--seed", "5", "-o", str(out2)], capsys)
    assert code == 0
    from stripmwis.patterns import find_induced_sttt
    G2 = read_graph(out2.read_text())
    assert G2.max_degree() <= 3
    assert find_induced_sttt(G2, 2) is None

    out3 = tmp_path / "c.graph"
    code, _, _ = run_cli(["gen", "--family", "linegraph", "--edges", "8",
                          "--seed", "2", "-o", str(out3)], capsys)
    assert code == 0
    assert out3.exists() and Path(str(out3) + ".base").exists()


def test_gen_linegraph_stdout_is_one_graph(tmp_path, capsys):
    # without -o the base graph goes to stdout as comment lines only
    args = ["gen", "--family", "linegraph", "--edges", "6", "--seed", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    out_file = tmp_path / "l.graph"
    run_cli(args + ["-o", str(out_file)], capsys)
    assert same_graph(read_graph(out), read_graph(out_file.read_text()))


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    run_cli(["gen", "--family", "random", "--n", "15", "--delta", "3",
             "--t", "2", "--seed", "9", "-o", str(a)], capsys)
    run_cli(["gen", "--family", "random", "--n", "15", "--delta", "3",
             "--t", "2", "--seed", "9", "-o", str(b)], capsys)
    assert a.read_text() == b.read_text()


def test_check_verbs(tmp_path, capsys):
    from stripmwis.decompose import decompose
    from stripmwis.esd import components_esd
    from stripmwis.treedec import TreeDecomposition

    G = generate_random_instance(16, 3, 2, 7)
    gpath = tmp_path / "g.graph"
    gpath.write_text(write_graph(G))
    G = read_graph(gpath.read_text())  # canonical 1-based labels

    (tmp_path / "t.esd").write_text(esd_to_text(components_esd([G.label_set])))
    (tmp_path / "t.td").write_text(td_to_text(TreeDecomposition({0: G.label_set}, [])))
    (tmp_path / "o.dec").write_text(outcome_to_text(decompose(G, G.label_set)))

    code, out, _ = run_cli(["check", str(gpath), "--esd", str(tmp_path / "t.esd"),
                            "--td", str(tmp_path / "t.td"), "--weissauer", "3",
                            "--outcome", str(tmp_path / "o.dec"), "--t", "2"], capsys)
    assert code == 0 and out.count("OK") == 3

    # break the esd: drop vertex 1 from the only eta list
    broken = esd_to_text(components_esd([G.label_set])).replace(": 1 ", ": ", 1)
    assert broken != esd_to_text(components_esd([G.label_set]))
    (tmp_path / "bad.esd").write_text(broken)
    code, out, _ = run_cli(["check", str(gpath), "--esd", str(tmp_path / "bad.esd")],
                           capsys)
    assert code == 2 and "violation" in out


def test_bench_csv(tmp_path, capsys):
    d = tmp_path / "inst"
    d.mkdir()
    for seed in range(3):
        G = generate_random_instance(18, 3, 2, seed)
        (d / f"i{seed}.graph").write_text(write_graph(G))
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(["bench", str(d), "--algo", "bruteforce,degree",
                          "--leaf-cap", "8", "-o", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance,algo,value,ms,depth,calls,ok"
    assert len(lines) == 7
    rows = [l.split(",") for l in lines[1:]]
    assert all(r[6] == "1" for r in rows)
    by_inst = {}
    for r in rows:
        by_inst.setdefault(r[0], set()).add(r[2])
    assert all(len(vals) == 1 for vals in by_inst.values())


def test_bench_empty_directory(tmp_path, capsys):
    d = tmp_path / "none"
    d.mkdir()
    code, out, _ = run_cli(["bench", str(d)], capsys)
    assert code == 0
    assert out.strip() == "instance,algo,value,ms,depth,calls,ok"


def test_trace_file_written(instance_file, tmp_path, capsys):
    path, _ = instance_file
    tracefile = tmp_path / "run.trace"
    code, _, _ = run_cli(["solve", str(path), "--algo", "degree", "--leaf-cap",
                          "10", "--trace", str(tracefile)], capsys)
    assert code == 0
    lines = tracefile.read_text().splitlines()
    assert lines and lines[0].startswith("call depth=0")


@pytest.mark.parametrize("algo", ["auto", "bruteforce"])
def test_trace_file_written_on_the_brute_force_path(tmp_path, capsys, algo):
    G = generate_random_instance(12, 3, 2, 4)
    path = tmp_path / "g.graph"
    path.write_text(write_graph(G))
    tracefile = tmp_path / "run.trace"
    code, _, err = run_cli(["solve", str(path), "--algo", algo, "--trace",
                            str(tracefile)], capsys)
    assert code == 0 and "algo=bruteforce" in err
    assert tracefile.read_text() == ""  # no recursive call is made


def test_config_file_defaults_with_flag_override(instance_file, tmp_path, capsys):
    path, _ = instance_file
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"algo": "degree", "leaf-cap": 10}')
    code, out, _ = run_cli(["--config", str(cfg), "solve", str(path)], capsys)
    assert code == 0
    _, brute, _ = run_cli(["--config", str(cfg), "solve", str(path),
                           "--algo", "bruteforce"], capsys)
    assert out.splitlines()[0] == brute.splitlines()[0]


def test_config_file_sets_any_option_of_the_subcommand(tmp_path, capsys):
    # gen's --seed is not shared with solve or bench
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 5}')
    code, out, _ = run_cli(["--config", str(cfg), "gen", "--family", "random", "--n", "6"],
                           capsys)
    assert code == 0
    _, want, _ = run_cli(["gen", "--family", "random", "--n", "6", "--seed", "5"], capsys)
    _, other, _ = run_cli(["gen", "--family", "random", "--n", "6"], capsys)
    assert out == want != other


def test_config_file_sets_the_bench_algorithms(tmp_path, capsys):
    d = tmp_path / "inst"
    d.mkdir()
    (d / "g.graph").write_text(write_graph(generate_random_instance(14, 3, 2, 2)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"algo": "degree", "leaf_cap": 8}')
    code, out, _ = run_cli(["--config", str(cfg), "bench", str(d)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[1] for r in rows[1:]] == ["degree"] and rows[1][-1] == "1"


@pytest.mark.parametrize("text, message", [
    ('{"seed": 5}', "names no option"),       # a gen option, not one of solve
    ('{"algo": "fastest"}', "invalid value"),
    ('{"witness": "yes"}', "invalid value"),
    ("{'algo': 'degree'}", "cannot read config file"),
    (None, "cannot read config file"),
])
def test_config_file_errors_exit_2(instance_file, tmp_path, capsys, text, message):
    path, _ = instance_file
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "solve", str(path)], capsys)
    assert code == 2 and out == "" and message in err


def test_entry_point_runs():
    # the child process imports the package under test, wherever it lives
    src = str(Path(stripmwis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "stripmwis.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_ell_scale_exits_2(instance_file, capsys, scale):
    path, _ = instance_file
    code, out, err = run_cli(["solve", str(path), "--algo", "degree", "--ell-scale", scale],
                             capsys)
    assert code == 2 and out == "" and "ell_scale must be finite" in err


@pytest.mark.parametrize("algo", ["degree", "biclique"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_leaf_cap_below_one_exits_2(tmp_path, capsys, algo, cap):
    path = tmp_path / "g.graph"
    assert run_cli(["gen", "--family", "random", "--n", "45", "--delta", "3", "--seed", "3",
                    "-o", str(path)], capsys)[0] == 0
    code, out, err = run_cli(["solve", str(path), "--algo", algo, "--leaf-cap", cap], capsys)
    assert code == 2 and out == "" and "leaf cap must be at least 1" in err


@pytest.mark.parametrize("algo", ["degree", "biclique"])
@pytest.mark.parametrize("t", ["0", "-1"])
def test_t_below_one_exits_2_on_a_root_leaf(instance_file, capsys, algo, t):
    # 24 vertices: the root is a leaf, so no claw search reads t
    path, _ = instance_file
    code, out, err = run_cli(["solve", str(path), "--algo", algo, "--t", t], capsys)
    assert code == 2 and out == "" and "t must be a positive integer" in err


def test_import_leaves_networkx_unloaded():
    # networkx is imported by the matching call and the bag split
    src = str(Path(stripmwis.__file__).resolve().parents[1])
    code = ("import sys, stripmwis; print([m for m in "
            "('networkx', 'fractions', 'dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


def test_solve_default_algo_above_the_oracle_budget(tmp_path, capsys):
    # auto picks the degree solver above 40 vertices
    G = weighted_cycle(random.Random(41), 41)
    path = tmp_path / "c41.graph"
    path.write_text(write_graph(G))
    code, out, _ = run_cli(["solve", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == f"value {cycle_mwis(G.weights)}"


def test_bench_reports_capacity_rows(tmp_path, capsys):
    d = tmp_path / "inst"
    d.mkdir()
    (d / "c41.graph").write_text(write_graph(weighted_cycle(random.Random(41), 41)))
    code, out, _ = run_cli(["bench", str(d), "--algo", "bruteforce"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["c41.graph", "bruteforce", "", "", "", "",
                       "capacity: oracle: 41 vertices exceed MAX_LEAF_VERTICES=40"]
