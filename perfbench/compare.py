"""Paired comparison of two versions of redcycle on this benchmark.

From the repository root::

    python3 perfbench/compare.py --base /path/to/parent --head .

``--base`` and ``--head`` are source trees that each hold ``src/redcycle``,
for instance an extracted ``git archive`` of the parent commit and the
working tree.  Both are measured by this copy of the benchmark, so the
benchmark code and settings are the same on both sides.  For every workload
the script runs ``PAIRS`` pairs of ``run_seconds`` (BENCHMARK.json) each,
with one seed per pair from ``FIRST_SEED`` on, alternating which side runs
first, and reports for every end-to-end metric each side's median
and quartiles, the pairs the head won (ties count for neither side) and a
verdict:

* ``better``     - the head won at least nine tenths of the pairs and the
  medians differ by more than the base's quartile distance;
* ``worse``      - the head's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json, and the spread is within the bound
  or every head run lost to every base run;
* ``unresolved`` - the spread (quartile distance over median) of either side
  exceeds the bound, so "same" cannot be told from a change within it;
* ``same``       - none of the above: within the bound.

A run that reports wrong outputs marks its workload ``INCORRECT``.  The last
line of output is a JSON object with every figure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Pairs per workload; the win rule asks for nine tenths of them.
PAIRS = 10
#: Seed of the first pair; pair ``p`` uses ``FIRST_SEED + p`` on both sides.
FIRST_SEED = 1000


def run_once(side: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        "--src", os.path.join(side, "src"),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int]:
    """The verdict on one metric and the number of pairs the head won."""
    sign = 1 if better == "higher" else -1
    good_base = [sign * v for v in base]
    good_head = [sign * v for v in head]
    wins = sum(h > b for b, h in zip(good_base, good_head))
    gain = statistics.median(good_head) - statistics.median(good_base)
    q1, _, q3 = statistics.quantiles(good_base, n=4)
    if wins >= math.ceil(0.9 * len(base)) and gain > q3 - q1:
        return "better", wins
    wide = max(spread(base), spread(head)) > bound
    if -gain > bound * abs(statistics.median(base)) and (not wide or max(good_head) < min(good_base)):
        return "worse", wins
    return ("unresolved" if wide else "same"), wins


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="source tree of the parent")
    parser.add_argument("--head", required=True, help="source tree of the change")
    args = parser.parse_args()

    report: dict[str, dict] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for p in range(PAIRS):
            order = ("base", "head") if p % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, FIRST_SEED + p, bench["run_seconds"]))
        correct = all(r["correct"] for side in runs.values() for r in side)
        rows = {}
        print(f"{workload}{'' if correct else '  INCORRECT: a run reported wrong outputs'}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            head = [r["metrics"][name]["value"] for r in runs["head"]]
            label, wins = verdict(base, head, metric["better"], metric["bound"])
            row = {
                side: {"median": statistics.median(v), "quartiles": statistics.quantiles(v, n=4)[::2]}
                for side, v in (("base", base), ("head", head))
            }
            row.update(wins=wins, pairs=PAIRS, verdict=label)
            rows[name] = row
            b, h = row["base"], row["head"]
            print(
                f"  {name:16} base {b['median']:.6g} [{b['quartiles'][0]:.6g}, {b['quartiles'][1]:.6g}]"
                f"  head {h['median']:.6g} [{h['quartiles'][0]:.6g}, {h['quartiles'][1]:.6g}]"
                f"  wins {wins}/{PAIRS}  {label}"
            )
        report[workload] = {"correct": correct, "metrics": rows}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
