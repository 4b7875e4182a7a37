"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --runs 10 --sets 2 \\
        --workload sinc-protocol --workload large-fit

Runs ``run.py`` once per seed (``--sets`` sets of ``--runs`` runs, each
set on its own seeds, workloads interleaved) and prints, per workload
and metric, each set's median and quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. With
two sets it also prints how far the second median is worse than the
first, the check that two sets of runs of the same code agree, and
compares their shares of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much the second median is worse than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH",
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be >= 4 to have quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in names:
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                print(f"# set {s + 1} run {i + 1}: {w} seed {seed}",
                      file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n",
                                   encoding="utf-8")

    steady = True
    for w in names:
        sets = results[w]
        print(f"\n{w} ({args.runs} runs per set, seeds from "
              f"{args.first_seed})")
        print(f"{'metric':20} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}")
        for name, m in metrics.items():
            medians = []
            for s, runs in enumerate(sets):
                med, q1, q3, sp = spread(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                flag = ""
                if name != "setup_s" and sp > m["bound"]:
                    flag, steady = " over bound", False
                elif name != "setup_s" and sp > m["bound"] / 3:
                    flag = " over bound/3"
                print(f"{name:20} {s + 1:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} {m['bound']:6.3f}{flag}")
            if len(medians) == 2:
                worse = worse_by(medians[0], medians[1], m["better"])
                flag = ""
                if worse > m["bound"]:
                    flag, steady = " over bound", False
                print(f"{name:20} set 2 median worse than set 1 by "
                      f"{worse:+.3f}{flag}")
        shares = [sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in sets]
        print(f"failed share per set: {shares}")
        if len(set(shares)) > 1:
            steady = False
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
