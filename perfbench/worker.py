"""One workload in its own process: set up, run jobs closed-loop, report.

run.py starts this with the redcycle sources on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 30 --trace 0 --src src

It prints ``ready`` once redcycle is imported and the first round of inputs
exists, then one JSON line of measurements.  With ``--setup-only`` it stops
after ``ready``; a run starts such workers between rounds and times each
cold start up to that line.

One client runs the jobs one after another; each starts when the previous
one and its output check have finished.  Only ``job.run()`` is timed, and
the reference loop of speed.py is timed after every job.  The times of the
untraced run are scaled to the reference machine; the traced run reports
measured times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

import speed

#: Completed jobs a run needs so that at least 10 lie beyond its 90th
#: percentile; a run goes on past ``--seconds`` until it has them, up to
#: three times ``--seconds``.
MIN_COMPLETED = 110
#: Rounds the traced run replays, each job untraced and then traced.  Fixed,
#: so a seed's per-layer counts repeat exactly.
TRACE_ROUNDS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
#: Cold starts and CLI commands timed per run, spread over the run;
#: ``setup_s`` is the median of the cold starts, ``cli_s`` the mean of the CLI
#: commands.
SUBPROCESS_RUNS = 12

#: The CLI command of each workload, as ``python -m redcycle`` arguments.
CLI = {
    "verify": ["catalog", "verify", "all", "--json"],
    "search": [
        "reddening-search", "--in", os.path.join(HERE, "inputs", "grid22.json"),
        "--max-len", "8", "--reduced", "--json",
    ],
    "explore": ["enumerate", "--in", os.path.join(HERE, "inputs", "a6.json"), "--json"],
}


def digest(text: str) -> str:
    """Short sha256 of an output's canonical text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_record(workload: str) -> tuple[dict[str, list[str]], str | None]:
    """Recorded output digests of every pool instance, by kind, and of the
    CLI command's stdout."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}, None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["jobs"].get(workload, {}), doc["cli"].get(workload)


def child_env(src: str) -> dict[str, str]:
    """Environment of the processes a run starts: only ``src`` on the path,
    a fixed hash seed, the library's default budget and bytecode caching."""
    env = dict(os.environ)
    env.pop("REDCYCLE_BUDGET", None)
    # Cold starts read cached bytecode, as an installed package does, whether
    # or not the caller's environment forbids writing it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(workload: str, src: str) -> tuple[float, int, str]:
    """Run the workload's CLI command in a fresh process; wall time, exit
    status and sha256 of its stdout."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "redcycle", *CLI[workload]],
        capture_output=True, cwd=HERE, env=child_env(src), timeout=60,
    )
    return time.perf_counter() - start, done.returncode, hashlib.sha256(done.stdout).hexdigest()


def time_setup(args) -> float:
    """Wall time of a cold start: a fresh worker with ``--setup-only``, from
    its start to its ``ready`` line."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--src", args.src, "--setup-only",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(args.src), cwd=HERE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready":
        raise RuntimeError(f"set-up worker did not start (exit status {proc.returncode})")
    return elapsed


def run_job(job, record: dict[str, list[str]], redcycle_error: type, tracer=None) -> dict:
    """Run one job, time it, and judge its output.

    ``status`` is ``ok``, ``error`` (a library error the record expects, or
    an unrecorded one) or ``wrong`` (a failed check, a changed digest or an
    unexpected exception).
    """
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # every exception is an outcome to judge
            error = exc
        elapsed = time.perf_counter() - start
    kinds = record.get(job.kind)
    expected = kinds[job.index] if kinds else None
    problem = None
    if error is not None:
        label = "!" + type(error).__name__
        status = "error"
        if not isinstance(error, redcycle_error):
            problem = f"unexpected {label[1:]}: {error}"
        elif expected is not None and expected != label:
            problem = f"raised {label[1:]}, recorded {expected}"
        items = 0
    else:
        label = digest(job.render(out))
        status = "ok"
        problem = job.check(out)
        if problem is None and expected is not None and not expected.startswith("!") and expected != label:
            problem = f"output digest {label} differs from recorded {expected}"
        items = job.items(out)
    if problem is not None:
        status = "wrong"
        problem = f"{job.kind}[{job.index}]: {problem}"
    return {
        "kind": job.kind, "s": elapsed, "status": status,
        "label": label, "problem": problem, "items": items,
    }


def summarize(outcomes: list[dict]) -> dict:
    done = sorted(o["s"] for o in outcomes if o["status"] == "ok")
    job_s = sum(o["s"] for o in outcomes)
    kinds: dict[str, int] = {}
    errors: dict[str, int] = {}
    for o in outcomes:
        kinds[o["kind"]] = kinds.get(o["kind"], 0) + 1
        if o["status"] == "error":
            key = f"{o['kind']}:{o['label'][1:]}"
            errors[key] = errors.get(key, 0) + 1
    rank90 = math.ceil(0.9 * len(done))
    return {
        "attempted": len(outcomes),
        "completed": len(done),
        "wrong": [o["problem"] for o in outcomes if o["status"] == "wrong"],
        "errors": errors,
        "kinds": kinds,
        "job_s": job_s,
        "items": sum(o["items"] for o in outcomes),
        "p50_ms": statistics.median(done) * 1000 if done else None,
        "p90_ms": done[rank90 - 1] * 1000 if done else None,
        "beyond_p90": len(done) - rank90,
    }


def measure(args, rounds_iter, jobs_record, cli_record, redcycle_error) -> dict:
    """Run rounds until ``args.seconds`` have passed, timing a cold start and
    the CLI command between rounds every ``args.seconds / SUBPROCESS_RUNS``."""
    seconds = args.seconds
    outcomes: list[dict] = []
    setup_s: list[float] = []
    cli_s: list[float] = []
    cli_problems: list[str] = []
    # probes[i] is the reference loop's time just before job i.
    probes = [speed.probe()]
    rounds = 0
    start = time.perf_counter()
    sample_due = start
    for jobs in rounds_iter:
        for job in jobs:
            outcomes.append(run_job(job, jobs_record, redcycle_error))
            probes.append(speed.probe())
        rounds += 1
        if time.perf_counter() >= sample_due:
            setup_s.append(time_setup(args))
            elapsed, status, out_digest = run_cli(args.workload, args.src)
            cli_s.append(elapsed)
            if status != 0:
                cli_problems.append(f"cli: exit status {status}")
            elif cli_record is not None and out_digest != cli_record:
                cli_problems.append(f"cli: stdout digest {out_digest[:16]} differs from recorded {cli_record[:16]}")
            sample_due = time.perf_counter() + seconds / SUBPROCESS_RUNS
        elapsed = time.perf_counter() - start
        completed = sum(o["status"] == "ok" for o in outcomes)
        if elapsed >= seconds and completed >= MIN_COMPLETED or elapsed >= 3 * seconds:
            break
    # Scale each job by the median of the four loop timings around it, so a
    # loop timing that was itself interrupted skews nothing.  A subprocess
    # runs while this process waits, and the speed often changes within its
    # tenth of a second, so loop timings beside it track it poorly; scale it
    # by the mean of all the run's loop timings instead.
    raw = {"job_s": sum(o["s"] for o in outcomes), "setup_s": statistics.median(setup_s),
           "cli_s": statistics.fmean(cli_s)}
    for i, o in enumerate(outcomes):
        o["s"] = speed.scale(o["s"], statistics.median(probes[max(0, i - 1) : i + 3]))
    summary = summarize(outcomes)
    summary["raw"] = raw
    summary["reference_ms"] = statistics.fmean(probes) * 1000
    summary["setup_s"] = [speed.scale(x, statistics.fmean(probes)) for x in setup_s]
    summary["cli_s"] = [speed.scale(x, statistics.fmean(probes)) for x in cli_s]
    summary["wrong"] += cli_problems
    summary["rounds"] = rounds
    return summary


def measure_traced(name: str, jobs, record, redcycle_error) -> dict:
    import tracing

    tracer = tracing.Tracer()
    # Each job runs untraced and then traced, back to back, so that a drift
    # of the machine's speed during the replay does not read as overhead.
    plain, traced = [], []
    for job in jobs:
        plain.append(run_job(job, record, redcycle_error))
        traced.append(run_job(job, record, redcycle_error, tracer))
    summary = summarize(traced)
    problems = summary["wrong"]
    for job, a, b in zip(jobs, plain, traced):
        if a["label"] != b["label"]:
            problems.append(f"{job.kind}[{job.index}]: traced output {b['label']} differs from untraced {a['label']}")
    metrics = tracer.metrics()
    for layer in tracing.EXPECTED[name]:
        if metrics[f"{layer}.calls"][0] == 0:
            problems.append(f"traced run recorded no call to {layer}")
    plain_s = sum(o["s"] for o in plain)
    metrics["trace.overhead_ratio"] = (summary["job_s"] / plain_s - 1, "ratio")
    metrics["trace.outside_ms"] = ((summary["job_s"] - tracer.covered_s) * 1000, "ms")
    summary["layers"] = metrics
    summary["rounds"] = TRACE_ROUNDS
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="directory holding the redcycle package")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        # The jobs, the loop timings and the subprocesses timed between rounds
        # (which inherit this) share one CPU: the CPUs of a shared machine are
        # loaded differently, and a loop timing tells the speed of its own.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import redcycle

    package_dir = os.path.dirname(os.path.abspath(redcycle.__file__))
    if package_dir != os.path.join(os.path.abspath(args.src), "redcycle"):
        print(f"redcycle imported from {package_dir}, not from {args.src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.Workload(args.workload, args.seed)
    first = workload.next_round()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    jobs_record, cli_record = load_record(args.workload)
    if args.trace:
        jobs = first + [job for _ in range(TRACE_ROUNDS - 1) for job in workload.next_round()]
        summary = measure_traced(args.workload, jobs, jobs_record, redcycle.RedcycleError)
    else:
        rounds = itertools.chain([first], iter(workload.next_round, None))
        summary = measure(args, rounds, jobs_record, cli_record, redcycle.RedcycleError)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary["python"] = sys.version.split()[0]
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
