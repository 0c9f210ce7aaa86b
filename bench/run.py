"""The crosscap benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (``worker.py``), single
threaded, one job at a time (closed loop, one client).  With ``--trace 0``
the last stdout line carries the end-to-end metrics: ``setup_s`` is the
median of repeated set-ups, the rest come from the timed run, with job
times in ``ref_ms`` (units of a reference kernel timed next to them).
With ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it holds the details: environment, job counts, the tail
percentile used and any output-check failures.  Both are also written to
``.bench_run/``.  See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Wall-clock budget of one invocation, kept under the 180 s limit.
BUDGET_S = 170.0

UNITS = {
    "jobs_per_s": "1/ref_s",
    "job_p50_ms": "ref_ms",
    "job_tail_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_revision": None,
        "git_dirty": None,
    }
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=20
        )
        if rev.returncode == 0:
            env["git_revision"] = rev.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=20,
            )
            env["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    # A fixed hash seed keeps dict and set layouts, and so timings, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker --mode {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crosscap benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "crosscap", "__init__.py")):
        sys.stderr.write(f"no crosscap sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    # Set-up times the import from bytecode, as an installed library is
    # imported.  Compile it here: the environment may keep Python from
    # writing bytecode itself, and compiling in every fresh process would
    # make set-up time depend on that.
    for path in (os.path.join(ROOT, "src", "crosscap"), BENCH_DIR):
        compileall.compile_dir(path, quiet=1)

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            result = worker(args, "trace", deadline)
            metrics = result["metrics"]
            units = tracing.metric_units()
        else:
            result = worker(args, "run", deadline)
            metrics = result["metrics"]
            units = UNITS
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fail_frac": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": final}, fh, indent=1)
    for problem in result["problems"]:
        sys.stderr.write(f"output check failed: {problem}\n")
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
