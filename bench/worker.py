"""One fresh benchmark process: set a workload up, then time or trace it.

Run by ``run.py``; prints one JSON object on its last stdout line.

    python3 bench/worker.py --workload W --seed N --seconds S --mode run|trace

``run`` sets the workload up SETUP_SAMPLES times, each time importing
``crosscap`` afresh, generating and parsing the inputs and running one
warm-up job, and reports the median set-up time.  It then runs whole passes
over the job pool until the time spent in jobs is closest to S seconds,
timing a fixed reference kernel after every job.  ``trace`` sets up once,
alternates untraced and traced passes for S seconds and reports per-layer
metrics per traced pass, plus the tracing overhead.  Every job's output is
checked between jobs, off the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Candidate tail percentiles, highest first; the first one with at least
#: ten jobs beyond it is reported.
TAIL_PERCENTILES = (90, 75, 50)
#: Failed checks kept for the report; the count of failed jobs is complete.
MAX_PROBLEMS = 5

#: Inputs of the reference kernel: a small exact convolution and a float
#: double loop, the two kinds of arithmetic the library spends its time on.
REF_FRACTIONS = tuple(Fraction(i % 7 - 3, i % 5 + 1) for i in range(12))
REF_FLOATS = tuple(0.5 + i for i in range(30))
#: Reference runs on each side of a job whose mean time is its ``ref_ms``.
REF_WINDOW = 3
#: Set-ups whose median is ``setup_s``, and the reference runs timed on each
#: side of one.
SETUP_SAMPLES = 11
SETUP_REF_RUNS = 10
#: ``setup_s`` is in seconds of a host on which the reference kernel takes
#: this long, so that it does not follow the host's speed from minute to minute.
REF_NOMINAL_MS = 0.5


def reference_kernel():
    """Fixed stdlib work of about a millisecond, the unit of ``ref_ms``."""
    out = [0] * (2 * len(REF_FRACTIONS) - 1)
    for i, a in enumerate(REF_FRACTIONS):
        for j, b in enumerate(REF_FRACTIONS):
            out[i + j] += a * b
    acc = 0.0
    for x in REF_FLOATS:
        for y in REF_FLOATS:
            acc += x * y
    return out, acc


def time_reference() -> int:
    """One reference kernel run, in ns, with the collector off so no job's garbage lands in it."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def import_crosscap():
    """Import the library from this checkout's ``src`` and return its modules."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import crosscap
    from crosscap import cli, config, report, verify

    if not os.path.abspath(crosscap.__file__).startswith(src + os.sep):
        raise ImportError(f"crosscap imported from {crosscap.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, config=config, report=report, verify=verify)


def load_goldens() -> dict:
    """Recorded outputs by job key; a dense float job uses its jet's exact report."""
    with open(GOLDENS, encoding="utf-8") as fh:
        return {key: value for section in json.load(fh).values() for key, value in section.items()}


def run_job(job, golden, tracer=None, job_id=0):
    """Run one job, traced as ``job_id`` if a tracer is given; returns (ns, problems)."""
    clock = time.perf_counter_ns
    with tracer.job(job_id) if tracer is not None else contextlib.nullcontext():
        t0 = clock()
        try:
            out = job.run()
        except Exception as exc:
            return clock() - t0, [f"{job.key}: {type(exc).__name__}: {exc}"]
        latency = clock() - t0
    try:
        return latency, [f"{job.key}: {p}" for p in job.check(out, golden)]
    except Exception as exc:
        return latency, [f"{job.key}: check raised {type(exc).__name__}: {exc}"]


class Tally:
    """Latencies and failures of every job in the measured passes."""

    def __init__(self, reference: bool = False):
        self.latencies = []
        self.failed = 0
        self.problems = []
        self.pass_ns = []
        #: Reference kernel times, one after every job if ``reference``.
        self.reference = reference
        self.ref_ns = []

    def run_pass(self, jobs, goldens, tracer=None) -> int:
        """Run every job once; returns the time spent in jobs, in ns."""
        busy = 0
        for job in jobs:
            latency, problems = run_job(job, goldens[job.key], tracer, len(self.latencies))
            if self.reference:
                self.ref_ns.append(time_reference())
            self.latencies.append(latency)
            busy += latency
            if problems:
                self.failed += 1
                self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])
        self.pass_ns.append(busy)
        return busy


def tail(latencies_ms):
    n = len(latencies_ms)
    q = next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10), TAIL_PERCENTILES[-1])
    return q, statistics.quantiles(latencies_ms, n=100, method="inclusive")[q - 1]


def in_ref_ms(latencies, ref_ns) -> list:
    """Each latency over the mean reference time of the runs around it (``REF_WINDOW`` each side)."""
    out = []
    for k, ns in enumerate(latencies):
        near = ref_ns[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]
        out.append(ns * len(near) / sum(near))
    return out


def measure(jobs, goldens, seconds: float) -> dict:
    """Whole passes until the time spent in jobs is nearest to ``seconds``.

    Latencies are reported in ``ref_ms``: a job's time over the mean time of
    the reference kernel runs next to it.  The host's other tenants slow
    jobs and kernel alike, so this takes most of their noise out; the
    wall-clock figures are kept in the details.
    """
    tally = Tally(reference=True)
    busy = 0
    while True:
        last = tally.run_pass(jobs, goldens)
        busy += last
        if busy + last / 2 >= seconds * 1e9:
            break
    lat_ms = [ns / 1e6 for ns in tally.latencies]
    lat_ref = in_ref_ms(tally.latencies, tally.ref_ns)
    q, tail_ms = tail(lat_ms)
    attempted = len(lat_ms)
    passed = attempted - tally.failed
    wall_clock = {
        "jobs_per_s": passed / (busy / 1e9),
        "job_p50_ms": statistics.median(lat_ms),
        "job_tail_ms": tail_ms,
        "ref_ms": statistics.fmean(tally.ref_ns) / 1e6,
    }
    return {
        "attempted": attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "passes": len(tally.pass_ns),
        "pass_s": [ns / 1e9 for ns in tally.pass_ns],
        "tail_percentile": q,
        "wall_clock": wall_clock,
        "metrics": {
            "jobs_per_s": passed / sum(lat_ref) * 1e3,
            "job_p50_ms": statistics.median(lat_ref),
            "job_tail_ms": tail(lat_ref)[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": passed / attempted,
        },
    }


def trace(jobs, goldens, seconds: float, spans_path: str) -> dict:
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    busy_plain = busy_traced = 0
    while True:
        busy_plain += plain.run_pass(jobs, goldens)
        with tracer:
            busy_traced += traced.run_pass(jobs, goldens, tracer)
        pair = (busy_plain + busy_traced) / len(plain.pass_ns)
        if busy_plain + busy_traced + pair / 2 >= seconds * 1e9:
            break
    metrics = tracer.layer_metrics(len(traced.pass_ns))
    metrics[tracing.OVERHEAD] = busy_traced / busy_plain
    tracer.write_spans(spans_path)
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": plain.failed + traced.failed,
        "problems": (plain.problems + traced.problems)[:MAX_PROBLEMS],
        "passes": len(traced.pass_ns),
        "spans": len(tracer.span_start),
        "metrics": metrics,
    }


def set_up(workload: str, seed: int, workdir: str):
    """Import ``crosscap`` afresh, build the job pool and run the warm-up job.

    Returns the jobs, the wall seconds this took, and the mean reference
    kernel time around it in ns.
    """
    for name in [n for n in sys.modules if n == "crosscap" or n.startswith("crosscap.")]:
        del sys.modules[name]
    gc.collect()  # so that peak_rss_mb holds one import, not the garbage of all
    refs = [time_reference() for _ in range(SETUP_REF_RUNS)]
    t0 = time.perf_counter()
    cc = import_crosscap()
    jobs = workloads.build_jobs(cc, workload, seed, workdir)
    with contextlib.suppress(Exception):  # the passes run and check every job
        workloads.warmup_job(cc, workload, workdir).run()
    seconds = time.perf_counter() - t0
    refs += [time_reference() for _ in range(SETUP_REF_RUNS)]
    return jobs, seconds, statistics.fmean(refs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("run", "trace"))
    args = parser.parse_args(argv)

    goldens = load_goldens()
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RUN_DIR)
    try:
        for _ in range(SETUP_REF_RUNS):  # the reference kernel's own warm-up
            reference_kernel()
        if args.mode == "run":
            samples = []
            for _ in range(SETUP_SAMPLES):
                jobs = None  # the previous import and its pool go before the next
                jobs, seconds, ref_ns = set_up(args.workload, args.seed, workdir)
                samples.append((seconds, ref_ns))
            result = {"jobs": len(jobs)}
            result.update(measure(jobs, goldens, args.seconds))
            result["metrics"]["setup_s"] = statistics.median(
                seconds * REF_NOMINAL_MS * 1e6 / ref_ns for seconds, ref_ns in samples
            )
            result["setup_samples"] = {
                "wall_s": [seconds for seconds, _ in samples],
                "ref_ms": [ref_ns / 1e6 for _, ref_ns in samples],
            }
        else:
            jobs = set_up(args.workload, args.seed, workdir)[0]
            result = {"jobs": len(jobs)}
            name = f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            result.update(trace(jobs, goldens, args.seconds, os.path.join(RUN_DIR, name)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
