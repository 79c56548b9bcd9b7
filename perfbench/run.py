"""Benchmark of redcycle: seeded closed-loop workloads with checked outputs.

From the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the job mixes and why each was chosen):

* ``verify``  - checks given sequences: catalog self-checks, conjugated
  reddening sequences, random sequences, rotated cycles, acyclic builds;
* ``search``  - bounded reddening and maximal green searches;
* ``explore`` - class enumeration and forkless exploration.

One client sends the jobs of a workload one after another (closed loop).
With ``--trace 0`` a run runs the workload for ``--seconds`` in its own
process, which also times cold starts and the workload's CLI command in fresh
processes between rounds, and prints the end-to-end metrics.  Every time
they report is scaled by the reference loop of speed.py to a machine of fixed
speed; the measured times are printed beside them.  With ``--trace 1`` it
replays a fixed number of rounds, each job untraced and then traced, and
prints the per-layer metrics (tracing.py), each layer's share of self time
and the tracing overhead.

End-to-end metrics (``--trace 0``), each reported by every workload:

* ``setup_s``        - median of the cold starts: interpreter start,
  ``import redcycle`` and generation of the first round of inputs, up to the
  worker's ``ready`` line;
* ``verdict_p50_ms`` - median time of a completed job;
* ``verdict_p90_ms`` - 90th percentile (nearest rank) of the completed jobs;
  a run goes on until at least 10 jobs lie beyond it;
* ``verdicts_per_s`` - completed jobs per second of job time (the timed
  calls; the output checks, the reference loop and the CLI samples between
  jobs are benchmark overhead and not counted);
* ``verdict_ratio``  - completed jobs over attempted jobs; a job that raises
  a library error is not completed, so this is one minus the fail ratio;
* ``results_per_s``  - result items per second of job time: canonical forms
  (explore), sequences found (search), verdicts (verify, where it equals
  ``verdicts_per_s``);
* ``peak_rss_mb``    - ``ru_maxrss`` of the workload process;
* ``cli_s``          - mean wall time of the workload's CLI command in a
  fresh process (``catalog verify all --json`` for verify); a mean, because
  the median of a dozen samples jumps when the machine alternates between
  two speeds.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts jobs whose
output was wrong: a failed check, an output digest that differs from the one
recorded in digests.json, or an unexpected exception.  Library errors that
the record expects (the baseline raises IntegerOverflowError on some inputs)
are not wrong outputs; they lower ``verdict_ratio`` and are listed by job kind
and exception type.  The exit status is 2 when the benchmark cannot run, for
instance when there is no ``src/redcycle`` to measure; no result is printed
then.

``--src`` points at another source tree; compare.py uses it to run one copy
of the benchmark against two versions of the library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import speed
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seconds a worker may take beyond three times its measuring time (its own
#: limit) before it is killed.
GRACE_S = 30


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", args.src,
    ]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=worker.child_env(args.src), cwd=HERE, text=True,
        timeout=3 * args.seconds + GRACE_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"worker failed with exit status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def metadata(args, summary: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    package = os.path.join(args.src, "redcycle")
    lines = 0
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": summary.get("python"),
        "commit": git_commit(os.path.dirname(args.src)),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": summary.get("rounds"),
        "jobs": summary.get("kinds"),
        "src_lines": lines,
    }


def git_commit(root: str) -> str:
    """The commit checked out at ``root``, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(summary: dict) -> dict[str, tuple[float, str]]:
    job_s = summary["job_s"]
    return {
        "setup_s": (statistics.median(summary["setup_s"]), "s"),
        "verdict_p50_ms": (summary["p50_ms"], "ms"),
        "verdict_p90_ms": (summary["p90_ms"], "ms"),
        "verdicts_per_s": (summary["completed"] / job_s, "1/s"),
        "verdict_ratio": (summary["completed"] / summary["attempted"], "ratio"),
        "results_per_s": (summary["items"] / job_s, "1/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "cli_s": (statistics.fmean(summary["cli_s"]), "s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(worker.CLI), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src", help="directory holding the redcycle package")
    args = parser.parse_args()
    args.src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(args.src, "redcycle", "__init__.py")):
        print(f"no redcycle package under {args.src}", file=sys.stderr)
        return 2

    try:
        summary = run_worker(args)
        metrics = summary["layers"] if args.trace else end_to_end(summary)
        problems = summary["wrong"]
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    print(f"redcycle benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(metadata(args, summary), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:>14.6g} {unit}")
    print(
        f"  jobs: {summary['attempted']} attempted, {summary['completed']} completed,"
        f" {summary['beyond_p90']} beyond p90"
    )
    if not args.trace:
        raw = summary["raw"]
        print(
            f"  reference loop: mean {summary['reference_ms']:.4g} ms, times scaled to"
            f" {speed.REFERENCE_S * 1000:g} ms; measured: job time {raw['job_s']:.4g} s,"
            f" setup_s {raw['setup_s']:.4g} s, cli_s {raw['cli_s']:.4g} s"
        )
    errors = ", ".join(f"{k} {v}" for k, v in sorted(summary["errors"].items())) or "none"
    print(f"  library errors by kind and exception: {errors}")
    if args.trace:
        print("  self time by layer (share of traced job time):")
        total = sum(v for k, (v, _) in metrics.items() if k.endswith("_ms") and k != "trace.outside_ms")
        total += metrics["trace.outside_ms"][0]
        shares = sorted(
            ((v / total, k[: -len(".self_ms")]) for k, (v, _) in metrics.items() if k.endswith(".self_ms") and v),
            reverse=True,
        )
        for share, layer in shares:
            print(f"    {layer:34} {share:7.1%}")
    for problem in problems[:20]:
        print(f"  WRONG {problem}")
    result = {
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
