"""Command-line surface: solve, check, gen, bench.

Values go to stdout and are byte-stable across identical invocations;
timings, reports, and traces go to stderr or to the --trace file.

Exit codes: 0 success, 2 parse/config error, 3 an induced subdivided claw
was found while --assert-free was set, 4 capacity (search or oracle
budget), 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from .border import MAX_LEAF_VERTICES
from .errors import (CapacityError, ContractViolation, InputError,
                     InvariantError, ParseError)
from .esd import esd_from_text, validate_esd
from .fileio import read_graph, write_graph
from .generate import generate_random_instance, generate_subdivided_claw
from .graph import WeightedGraph, line_graph, sort_labels
from .oracle import mwis_bruteforce
from .patterns import find_induced_sttt
from .solver_biclique import BicliqueSolverConfig, mwis_biclique
from .solver_degree import DegreeSolverConfig, mwis
from .treedec import check_weissauer, td_from_text, validate_tree_decomposition

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_WITNESS = 3
EXIT_CAPACITY = 4
EXIT_INVARIANT = 5

MAX_K_RETRIES = 3


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # The file sets the subcommand's defaults; parsing again lets
            # explicit flags win.
            _apply_config_file(commands[args.command], args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvariantError, ContractViolation) as exc:
        print(f"invariant: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _build_parser():
    p = argparse.ArgumentParser(prog="stripmwis",
                                description="Exact MWIS toolkit for claw-subdivision-free graphs")
    p.add_argument("--config", help="JSON file with default flag values")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("graph", help="graph file")
    s.add_argument("--algo", default="auto",
                   choices=["auto", "bruteforce", "degree", "biclique"])
    s.add_argument("--t", type=int, default=2)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--ell-scale", type=float, default=1.0)
    s.add_argument("--leaf-cap", type=int, default=None)
    s.add_argument("--trace", default=None, help="write recursion trace to this file")
    s.add_argument("--assert-free", action="store_true",
                   help="fail with exit 3 if an induced subdivided claw exists")
    s.add_argument("--witness", action="store_true")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("check", help="validate decomposition files against a graph")
    c.add_argument("graph", help="graph file")
    c.add_argument("--esd", default=None)
    c.add_argument("--td", default=None)
    c.add_argument("--outcome", default=None)
    c.add_argument("--weissauer", type=int, default=None)
    c.add_argument("--t", type=int, default=2)
    c.set_defaults(func=cmd_check)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--family", required=True, choices=["sttt", "random", "linegraph"])
    g.add_argument("--a", type=int, default=2)
    g.add_argument("--b", type=int, default=2)
    g.add_argument("--c", type=int, default=2)
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--delta", type=int, default=4)
    g.add_argument("--t", type=int, default=2)
    g.add_argument("--edges", type=int, default=12)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("bench", help="run algorithms over a directory of instances")
    b.add_argument("directory")
    b.add_argument("--algo", default="bruteforce",
                   help="comma-separated list of algorithms")
    b.add_argument("--t", type=int, default=2)
    b.add_argument("--k", type=int, default=10)
    b.add_argument("--ell-scale", type=float, default=1.0)
    b.add_argument("--leaf-cap", type=int, default=None)
    b.add_argument("-o", "--output", default=None, help="CSV output (default stdout)")
    b.set_defaults(func=cmd_bench)
    return p, sub.choices


def _apply_config_file(parser, path):
    """Set the defaults of one subcommand's parser from a JSON object whose
    keys name its options (`leaf-cap` or `leaf_cap`); any problem with the
    file ends the run with exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"config file {path} must hold a JSON object")
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"config key {key!r} names no option of {parser.prog}")
        if action.nargs == 0:  # a switch such as --witness
            ok = isinstance(value, bool)
        elif value is None:
            ok = action.default is None
        else:
            # Kept as the text of a flag value, which argparse converts
            # when it parses again.
            ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
            value = str(value)
            ok = ok and (action.choices is None or value in action.choices)
        if not ok:
            parser.error(f"config key {key!r} has invalid value {config[key]!r}")
        defaults[action.dest] = value
    parser.set_defaults(**defaults)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_graph(path) -> WeightedGraph:
    return read_graph(_read_text(path))


def _fmt_witness(witness) -> str:
    return " ".join(str(v) for v in sort_labels(witness))


def _pick_algo(G, algo):
    if algo != "auto":
        return algo
    if G.n <= MAX_LEAF_VERTICES:
        return "bruteforce"
    return "degree" if G.max_degree() <= 6 else "biclique"


def _run_algo(G, algo, args):
    """Returns (value, witness, trace, algo_used)."""
    algo = _pick_algo(G, algo)
    if algo == "bruteforce":
        value, witness = mwis_bruteforce(G)
        return value, witness, None, algo
    if algo == "degree":
        cfg = DegreeSolverConfig(t=args.t, ell_scale=args.ell_scale,
                                 leaf_cap_override=args.leaf_cap,
                                 with_witnesses=getattr(args, "witness", False))
        out = mwis(G, cfg)
        if isinstance(out, tuple):
            value, witness, trace = out
            return value, witness, trace, algo
        raise _WitnessFound(out.witness)
    if algo == "biclique":
        last = None
        for k in range(args.k, args.k + MAX_K_RETRIES + 1):
            cfg = BicliqueSolverConfig(t=args.t, k=k, leaf_cap_override=args.leaf_cap,
                                       with_witnesses=getattr(args, "witness", False))
            try:
                out = mwis_biclique(G, cfg)
            except CapacityError as exc:
                last = exc
                continue
            if isinstance(out, tuple):
                value, witness, trace = out
                return value, witness, trace, algo
            raise _WitnessFound(out.witness)
        raise last
    raise InputError(f"unknown algorithm {algo!r}")


class _WitnessFound(Exception):
    def __init__(self, witness):
        self.witness = witness


def _print_claw(w):
    print(f"witness center {w.center}")
    for leg in w.legs:
        print("witness leg " + " ".join(str(v) for v in leg))


def _claw_found(G, t) -> bool:
    w = find_induced_sttt(G, t)
    if w is None:
        return False
    _print_claw(w)
    print("status claw-found", file=sys.stderr)
    return True


def cmd_solve(args) -> int:
    G = _load_graph(args.graph)
    algo = _pick_algo(G, args.algo)
    # The recursive solvers search for the claw themselves unless the root
    # is a leaf; bruteforce never searches, and a claw beats its capacity
    # exit, so it is searched for first.
    if args.assert_free and algo == "bruteforce" and _claw_found(G, args.t):
        return EXIT_WITNESS
    start = time.perf_counter()
    try:
        value, witness, trace, algo = _run_algo(G, algo, args)
    except _WitnessFound as wf:
        _print_claw(wf.witness)
        return EXIT_WITNESS if args.assert_free else EXIT_OK
    ms = (time.perf_counter() - start) * 1000.0
    # A root leaf's trace is its one leaf record.
    root_leaf = trace is not None and trace.call_count == trace.leaf_count == 1
    if args.assert_free and root_leaf and _claw_found(G, args.t):
        return EXIT_WITNESS
    print(f"value {value}")
    if args.witness and witness is not None:
        print(f"witness {_fmt_witness(witness)}")
    if args.trace:
        # The brute-force path makes no recursive call: its trace is empty.
        Path(args.trace).write_text(trace.dump() if trace else "", encoding="utf-8")
    stats = ""
    if trace is not None:
        stats = (f" calls={trace.call_count} maxdepth={trace.max_depth}"
                 f" leaves={trace.leaf_count}")
    print(f"report instance={args.graph} algo={algo} value={value}"
          f"{stats} ms={ms:.1f}", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    G = _load_graph(args.graph)
    failed = False
    if args.esd:
        D = esd_from_text(_read_text(args.esd))
        report = validate_esd(G, D, require_rigid=False)
        _print_report(f"esd {args.esd}", report)
        failed |= bool(report)
    if args.td:
        td = td_from_text(_read_text(args.td))
        report = validate_tree_decomposition(G, td)
        if not report and args.weissauer is not None:
            report = check_weissauer(G, td, args.weissauer)
        _print_report(f"td {args.td}", report)
        failed |= bool(report)
    if args.outcome:
        from .decompose import outcome_from_text, validate_outcome
        outcome = outcome_from_text(_read_text(args.outcome))
        report = validate_outcome(G, G.label_set, args.t, outcome)
        _print_report(f"outcome {args.outcome}", report)
        failed |= bool(report)
    if not (args.esd or args.td or args.outcome):
        raise InputError("nothing to check: pass --esd, --td, or --outcome")
    return EXIT_INPUT if failed else EXIT_OK


def _print_report(title, report):
    if report:
        print(f"{title}: {len(report)} violation(s)")
        for item in report:
            print(f"  {item}")
    else:
        print(f"{title}: OK")


def cmd_gen(args) -> int:
    if args.family == "sttt":
        G = generate_subdivided_claw(args.a, args.b, args.c)
        text = write_graph(G, comments=[f"family sttt a={args.a} b={args.b} c={args.c}"])
    elif args.family == "random":
        G = generate_random_instance(args.n, args.delta, args.t, args.seed)
        text = write_graph(G, comments=[
            f"family random n={args.n} delta={args.delta} t={args.t} seed={args.seed}"])
    else:
        import random as _random
        rng = _random.Random(f"linegraph:{args.edges}:{args.seed}")
        base = _random_base_graph(rng, args.edges)
        weights = {frozenset((base.labels[u], base.labels[v])): rng.randint(1, 20)
                   for u, v in base.edges_ids()}
        L = line_graph(base, weights)
        base_text = write_graph(base, comments=[
            f"family linegraph-base edges={args.edges} seed={args.seed}"])
        text = write_graph(L, comments=[
            f"family linegraph edges={args.edges} seed={args.seed}"])
        if args.output:
            Path(args.output + ".base").write_text(base_text, encoding="utf-8")
        else:
            # As comment lines, so that stdout stays one readable graph.
            sys.stdout.write("c companion base graph\n"
                             + "".join(f"c {line}\n" for line in base_text.splitlines()))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _random_base_graph(rng, m):
    n = max(3, int(m * 0.8) + 2)
    edges = set()
    tries = 0
    while len(edges) < m and tries < 50 * m + 100:
        tries += 1
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return WeightedGraph(range(n), [1] * n, sorted(edges))


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    files = sorted(Path(args.directory).glob("*.graph"))

    def run_one(path, algo):
        try:
            G = _load_graph(path)
        except InputError as exc:
            return [path.name, algo, "", "", "", "", f"parse-error: {exc}"]
        start = time.perf_counter()
        try:
            value, witness, trace, used = _run_algo(G, algo, args)
            ms = (time.perf_counter() - start) * 1000.0
        except _WitnessFound:
            return [path.name, algo, "witness", "", "", "", ""]
        except CapacityError as exc:
            return [path.name, algo, "", "", "", "", f"capacity: {exc}"]
        depth = trace.max_depth if trace else 0
        calls = trace.call_count if trace else 1
        ok = ""
        if G.n <= MAX_LEAF_VERTICES:
            ok = "1" if mwis_bruteforce(G)[0] == value else "0"
        return [path.name, algo, str(value), f"{ms:.1f}", str(depth), str(calls), ok]

    rows = [run_one(f, a) for f in files for a in algos]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance", "algo", "value", "ms", "depth", "calls", "ok"])
    for row in rows:
        writer.writerow(row)
    if args.output:
        Path(args.output).write_text(buf.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
