"""Tests of the benchmark's oracles, output checks and runner.

    PYTHONPATH=src python -m pytest perfbench -q

The oracles must agree with the program's branch-and-bound oracle
(`mwis_bruteforce`) on instances of at most 40 vertices, and each
workload's check must reject a value off by one and a witness that is
not independent.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import oracles
from stripmwis import WeightedGraph, line_graph, mwis_bruteforce

HERE = Path(__file__).resolve().parent


def _graph(inst):
    return WeightedGraph(range(1, inst["n"] + 1), inst["weights"], inst["edges"])


def _small_cycle(rng, n):
    edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
    return {"n": n, "edges": edges, "weights": [rng.randint(1, 100) for _ in range(n)]}


def _small_caterpillar(rng, family, n):
    make = corpus.hub_caterpillar if family == "hub" else corpus.windmill_caterpillar
    edges = make(rng, n, 2) if family == "windmill" else make(rng, n, 2, hub_legs=4)
    return {"n": n, "edges": edges, "weights": [rng.randint(1, 100) for _ in range(n)]}


def _small_root(rng, m, terminals=0):
    n, edges = corpus.random_root_graph(rng, m)
    inst = {"n": n, "edges": edges, "weights": [rng.randint(1, 20) for _ in edges]}
    if terminals:
        inst["terminals"] = sorted(rng.sample(range(m), terminals))
    return inst


def _line_graph(inst):
    root = WeightedGraph(range(1, inst["n"] + 1), [1] * inst["n"], inst["edges"])
    return line_graph(root, {frozenset(e): w for e, w in zip(inst["edges"], inst["weights"])})


def test_cycle_oracle_matches_bruteforce():
    rng = random.Random(1)
    for n in range(3, 41):
        inst = _small_cycle(rng, n)
        assert oracles.cycle_mwis(inst["weights"]) == mwis_bruteforce(_graph(inst))[0]


@pytest.mark.parametrize("family", ["hub", "windmill"])
def test_block_graph_oracle_matches_bruteforce(family):
    rng = random.Random(2)
    for n in range(12, 41, 2):
        inst = _small_caterpillar(rng, family, n)
        want = mwis_bruteforce(_graph(inst))[0]
        assert oracles.block_graph_mwis(inst["n"], inst["edges"], inst["weights"]) == want


def test_block_graph_oracle_rejects_a_non_clique_block():
    with pytest.raises(ValueError):
        oracles.block_graph_mwis(4, [(1, 2), (2, 3), (3, 4), (1, 4)], [1] * 4)


def test_matching_oracle_matches_bruteforce_on_line_graphs():
    rng = random.Random(3)
    for m in range(4, 41, 3):
        inst = _small_root(rng, m)
        L = _line_graph(inst)
        assert L.n <= 40
        assert oracles.matching_value(inst["n"], inst["edges"], inst["weights"]) \
            == mwis_bruteforce(L)[0]


def test_combine_cells_match_bruteforce():
    rng = random.Random(4)
    for m, k in ((10, 4), (14, 5), (18, 6)):
        inst = _small_root(rng, m, terminals=k)
        L = _line_graph(inst)
        label = {frozenset(lab): lab for lab in L.labels}
        term = {i: label[frozenset(inst["edges"][i])] for i in inst["terminals"]}
        cells = oracles.combine_cells(inst)
        assert len(cells) == 1 << k
        for S, got in cells.items():
            chosen = {term[i] for i in S}
            if not L.is_independent(chosen):
                assert got is None
                continue
            drop = L.closed_neighborhood(chosen) | (set(term.values()) - chosen)
            rest = mwis_bruteforce(L.subgraph(L.label_set - drop))[0]
            assert got == L.total_weight(chosen) + rest


def _independent_witness(inst):
    value, witness = mwis_bruteforce(_graph(inst))
    return value, sorted(witness)


@pytest.mark.parametrize("workload", oracles.WITNESS_WORKLOADS)
def test_witness_checks_reject_wrong_outputs(workload):
    rng = random.Random(5)
    inst = _small_cycle(rng, 15) if workload == "degree_cycle" \
        else _small_caterpillar(rng, "windmill", 30)
    want = oracles.expected(workload, inst)
    value, witness = _independent_witness(inst)
    assert oracles.check(workload, inst, want, {"value": value, "witness": witness}) is None
    assert oracles.check(workload, inst, want, {"value": value + 1, "witness": witness})
    assert oracles.check(workload, inst, want, {"value": value, "witness": None})
    # Add a neighbour of a witness vertex and claim the resulting weight.
    u, v = next((u, v) for u, v in inst["edges"] if (u in witness) != (v in witness))
    bad = sorted(set(witness) | {u, v})
    bad_value = sum(inst["weights"][x - 1] for x in bad)
    err = oracles.check(workload, inst, bad_value, {"value": bad_value, "witness": bad})
    assert err and "both ends" in err


def test_linegraph_check_rejects_a_value_off_by_one():
    inst = _small_root(random.Random(6), 20)
    want = oracles.expected("degree_linegraph", inst)
    assert oracles.check("degree_linegraph", inst, want, {"value": want, "witness": None}) is None
    assert oracles.check("degree_linegraph", inst, want, {"value": want - 1, "witness": None})


def test_combine_check_rejects_a_cell_off_by_one():
    inst = _small_root(random.Random(7), 14, terminals=5)
    want = oracles.expected("combine_linegraph", inst)
    order = list(reversed(inst["terminals"]))
    table = [want[frozenset(order[i] for i in range(5) if mask >> i & 1)]
             for mask in range(32)]
    out = {"terminals": order, "table": table}
    assert oracles.check("combine_linegraph", inst, want, out) is None
    mask = next(m for m, v in enumerate(table) if v is not None and m)
    table[mask] += 1
    assert oracles.check("combine_linegraph", inst, want, out)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_seeded(workload):
    a, b = corpus.build_corpus(workload, 1), corpus.build_corpus(workload, 2)
    assert a == corpus.build_corpus(workload, 1)
    assert [i["edges"] for i in a] == [i["edges"] for i in b]
    assert [i["weights"] for i in a] != [i["weights"] for i in b]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_end_to_end_metrics():
    res = _result(_run(HERE.parent, "--workload", "degree_cycle", "--seed", "3",
                       "--seconds", "1", "--trace", "0"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] % len(corpus.CYCLE_SIZES) == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_runs_repeat_their_counts():
    args = ("--workload", "combine_linegraph", "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(HERE.parent, *args)), _result(_run(HERE.parent, *args))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["matching.nonempty_calls"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "degree_cycle", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
