"""Benchmark of the stripmwis solvers, the combination step and their layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the workload's seeded corpus,
runs whole rounds of it for about S seconds (to the nearest round) in a
fresh single-threaded worker process, checks every output against an oracle computed apart
from the program, and prints one JSON object as the last line of
standard output: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
worker wraps the program's layers (spans.py) and the metrics are the
per-layer ones, given per operation.  A short summary goes to stderr.
See README.md for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Each run must end within 180 s; the worker gets what is left of that.
RUN_LIMIT_S = 170


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    began = time.monotonic()

    if not (SRC / "stripmwis" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'stripmwis'}; run from a full checkout",
              file=sys.stderr)
        return 2

    instances = corpus.build_corpus(args.workload, args.seed)
    job = {"workload": args.workload, "instances": instances,
           "seconds": args.seconds, "trace": bool(args.trace)}

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(_worker(dict(job, mode="setup"), began)["setup_s"])

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        job["trace_path"] = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    report = _worker(dict(job, mode="run"), began)

    ops = report["ops"]
    wanted = [oracles.expected(args.workload, inst) for inst in instances]
    failed = [op for op in ops if "error" in op]
    wrong = []
    for op in ops:
        if "out" in op:
            err = oracles.check(args.workload, instances[op["i"]], wanted[op["i"]], op["out"])
            if err is not None:
                wrong.append(f"{instances[op['i']]['name']}: {err}")

    times = [op["dt"] for op in ops]
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "solve_s_p50": {"value": statistics.median(times), "unit": "s"},
            "solved_per_s": {"value": (len(ops) - len(failed)) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    _summary(args, report, times, failed, wrong)
    print(json.dumps({"correct": not wrong, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _worker(job, began):
    """Run worker.py on `job` in a fresh process; its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed string hashing, so that set orders and the counts repeat.
    env["PYTHONHASHSEED"] = "0"
    left = RUN_LIMIT_S - (time.monotonic() - began)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=max(left, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout)


def _summary(args, report, times, failed, wrong):
    err = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(times)} ops in "
          f"{report['rounds']} rounds, {sum(times):.2f} s timed, "
          f"median {statistics.median(times):.4f} s, mean {statistics.fmean(times):.4f} s, "
          f"{len(failed)} failed, {len(wrong)} wrong", file=err)
    for op in failed[:3]:
        print(f"  failed: {op['error']}", file=err)
    for line in wrong[:3]:
        print(f"  wrong: {line}", file=err)
    if args.trace:
        self_s = report["self_s"]
        print(f"  self times per op sum to {sum(self_s.values()) / len(times):.4f} s "
              f"(benchmark's own share {self_s.get('op', 0.0) / len(times):.4f} s); "
              f"{report['dropped_spans']} spans not kept in the trace file", file=err)


if __name__ == "__main__":
    sys.exit(main())
