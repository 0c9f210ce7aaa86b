"""Tests of the benchmark itself: inputs, tracing and output checks.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_crosscap, in_ref_ms, load_goldens, run_job  # noqa: E402


@pytest.fixture(scope="module")
def cc():
    return import_crosscap()


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


def _digest_in_fresh_process(workload: str, seed: int) -> str:
    code = (
        "import hashlib, workloads; "
        f"print(hashlib.sha256(workloads.input_bytes({workload!r}, {seed})).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.input_bytes(workload, 7)
    assert first == workloads.input_bytes(workload, 7)
    assert first != workloads.input_bytes(workload, 8)
    assert hashlib.sha256(first).hexdigest() == _digest_in_fresh_process(workload, 7)


def test_every_drawn_input_has_a_golden(goldens):
    for seed in range(20):
        assert all(f"sweep/{s}" in goldens for s in workloads.sweep_seeds(seed))
        assert all(f"dense/{s}/{v}" in goldens for s, v in workloads.dense_picks(seed))
        for command, name, scale in workloads.fixture_picks(seed):
            label = name if scale is None else f"{name}-dense{scale}"
            assert f"{command}/{label}" in goldens


def _bindings():
    import crosscap.series as series

    out = {}
    for name, module in sys.modules.items():
        if name == "crosscap" or name.startswith("crosscap."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (series.UniSeries, series.BiSeries):
        out.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return out


def test_wrappers_are_removed_after_a_traced_run(cc, goldens):
    import crosscap
    from crosscap.series import UniSeries

    before = _bindings()
    original_analyze = crosscap.pipeline.analyze
    job = workloads.dense_job(cc, 0, 0, "exact")
    with tracing.Tracer() as tracer:
        assert crosscap.pipeline.analyze is not original_analyze
        assert crosscap.analyze is crosscap.report.analyze is crosscap.pipeline.analyze
        assert UniSeries.__rmul__ is UniSeries.__mul__
        assert UniSeries.__mul__.__wrapped__ is before[("UniSeries", "__mul__")]
        _, problems = run_job(job, goldens[job.key], tracer)
    assert problems == []
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_self_times_sum_to_the_traced_job_time(cc, goldens):
    tracer = tracing.Tracer()
    jobs = [workloads.dense_job(cc, 0, 1, "float"), workloads.sweep_job(cc, 3)]
    with tracer:
        for job_id, job in enumerate(jobs):
            assert run_job(job, goldens[job.key], tracer, job_id)[1] == []
    self_ns = tracer.self_times()
    job_name = tracer.name_ids[tracing.JOB_SPAN]
    for job_id in range(len(jobs)):
        spans = [i for i, j in enumerate(tracer.span_job) if j == job_id]
        roots = [i for i in spans if tracer.span_name[i] == job_name]
        assert len(roots) == 1 and len(spans) > 100
        root = roots[0]
        assert all(tracer.span_job[tracer.span_parent[i]] == job_id for i in spans if i != root)
        assert all(self_ns[i] >= 0 for i in spans)
        assert sum(self_ns[i] for i in spans) == tracer.span_end[root] - tracer.span_start[root]
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["pipeline.analyze.calls"] == 1 and metrics["verify.run_sweep.calls"] == 1
    assert metrics["series.mul.out_bits_max"] > 0


def test_checker_accepts_and_rejects_reports(cc, goldens):
    exact = workloads.dense_job(cc, 0, 0, "exact")
    text = exact.run()
    golden = goldens[exact.key]
    assert exact.check(text, golden) == []
    floating = workloads.dense_job(cc, 0, 0, "float")
    assert floating.check(floating.run(), golden) == []

    doc = json.loads(text)
    doc["curvatures"]["tops"][0] = str(Fraction(doc["curvatures"]["tops"][0]) + Fraction(1, 7))
    problems = exact.check(json.dumps(doc), golden)
    assert any(p.startswith("curvatures.tops[0]:") for p in problems)


def test_checker_rejects_a_truncated_obj(cc, goldens, tmp_path):
    job = workloads.fixture_job(cc, str(tmp_path), "mesh", "s3", None)
    out = job.run()
    golden = goldens[job.key]
    assert job.check(out, golden) == []
    out = job.run()
    path = tmp_path / "mesh-s3" / "od_w.obj"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    assert any(p.startswith("od_w.obj: element counts") for p in job.check(out, golden))


def test_ref_ms_cancels_a_slowdown_of_the_host():
    latencies = [30, 10, 20, 40, 50] * 4
    steady = in_ref_ms(latencies, [10] * 20)
    assert steady == [x / 10 for x in latencies]
    # The host turns twice as slow half way: jobs and reference runs alike.
    slowed = in_ref_ms(latencies[:10] + [2 * x for x in latencies[10:]], [10] * 10 + [20] * 10)
    far = [k for k in range(20) if abs(k - 9.5) > 3]
    assert [slowed[k] for k in far] == pytest.approx([steady[k] for k in far])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
