"""Seeded inputs, jobs and output checks for the four benchmark workloads.

Every input comes from ``random.Random`` seeded with a string derived from
the benchmark seed, so one seed always yields the same bytes.  Each workload
draws its inputs from a fixed universe whose outputs were recorded in
``goldens.json`` at the seed commit; the draw is stratified so that every
seed gets the same mix of input shapes and the figures of two seeds stay
comparable.

Workloads (one job each):

* ``sweep``: ``verify.run_sweep(seed=s, draws=1)`` plus ``render_rows``;
* ``dense_exact``: ``build_report`` plus ``render_report`` on one dense jet;
* ``dense_float``: the same jets with ``"field": "float"``;
* ``fixtures_cli``: one in-process ``crosscap.cli.main`` call
  (``report``, ``verify`` or ``mesh``) on a bundled fixture.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("sweep", "dense_exact", "dense_float", "fixtures_cli")

#: Sweep seeds whose verify tables are recorded, and how many a run draws.
SWEEP_UNIVERSE = 1024
SWEEP_POOL = 64

#: Dense jet shapes (truncation, family, m, p, q).  ``mp`` with p = 2 is the
#: (c x^{2m}, x^m) shape, for which the A/B/C/D invariants apply.  The series
#: order m (k + 1) - 1 runs from 8 to 50, so cheap and expensive jobs mix.
DENSE_SHAPES = (
    (8, "mp", 1, 2, None),
    (9, "mp", 1, 3, None),
    (10, "mpq", 2, 1, 1),
    (11, "mp", 2, 2, None),
    (12, "mp", 1, 4, None),
    (13, "mpq", 3, 1, 2),
    (14, "mp", 3, 2, None),
    (15, "mp", 2, 3, None),
    (16, "mpq", 2, 2, 1),
    (8, "mp", 3, 2, None),
    (9, "mpq", 3, 2, 1),
    (10, "mp", 2, 5, None),
    (12, "mpq", 2, 4, 1),
    (14, "mp", 1, 2, None),
    (16, "mp", 1, 6, None),
    (11, "mpq", 3, 3, 2),
)
#: Recorded coefficient draws per shape, and how many of them a run takes.
#: Five per shape put ten jets in the costliest cluster, so the 90th
#: latency percentile is not the cost of one or two draws and varies little
#: from seed to seed.
DENSE_VARIANTS = 8
DENSE_PER_SHAPE = 5

FIXTURES = ("s1", "s2", "s3")
CLI_COMMANDS = ("report", "verify", "mesh")
MESH_FILES = ("umbrella.obj", "curve.obj", "od_w.obj")
#: Denser meshes per pass: two of eleven jobs, so that the 90th latency
#: percentile falls inside the denser meshes and the median inside the reports.
DENSE_MESHES = 2
#: Resolution of the denser mesh, and the window scales a seed chooses from.
DENSE_MESH = {"nx": 81, "ny": 41, "nu": 81, "nv": 81, "curve_samples": 161}
DENSE_MESH_SCALES = (0.5, 0.75, 1.0, 1.25)
DEFAULT_MESH_WINDOW = {"x_range": 0.3, "y_range": 0.3, "u_range": 0.35, "v_range": 0.35}

#: Float entries compare within RTOL relative to the larger magnitude, plus
#: ATOL (the library's own float zero tolerance) for values that are noise.
RTOL = 1e-6
ATOL = 1e-9

#: Report entries that only the exact field computes.
EXACT_ONLY = {"developable.classification.E_scaled", "developable.classification.F_scaled"}

#: Vertices sampled from each OBJ file for the coordinate check.
OBJ_SAMPLES = 9


@dataclass
class Job:
    """One unit of work: ``run`` is timed, ``check`` is not.

    ``key`` names the recorded output in ``goldens.json``; ``check`` returns
    a list of problems, empty when the output is correct.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object, object], list]
    record: Callable[[object], object]


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def sweep_seeds(seed: int) -> list:
    return random.Random(f"sweep/{seed}").sample(range(SWEEP_UNIVERSE), SWEEP_POOL)


def dense_picks(seed: int) -> list:
    """DENSE_PER_SHAPE recorded variants of each shape, in a seeded order: [(shape, variant)]."""
    rng = random.Random(f"dense/{seed}")
    picks = [
        (shape, variant)
        for shape in range(len(DENSE_SHAPES))
        for variant in rng.sample(range(DENSE_VARIANTS), DENSE_PER_SHAPE)
    ]
    rng.shuffle(picks)
    return picks


def _rational(rng: random.Random, nonzero: bool = False) -> str:
    while True:
        num = rng.randint(-9, 9)
        if num or not nonzero:
            return str(Fraction(num, rng.randint(1, 5)))


def dense_config(shape: int, variant: int, field: str) -> str:
    """A dense jet: every a_ij and b_i drawn, as a JSON configuration."""
    k, family, m, p, q = DENSE_SHAPES[shape]
    rng = random.Random(f"jet/{shape}/{variant}")
    a = {f"{i},{s - i}": _rational(rng) for s in range(2, k + 1) for i in range(s + 1)}
    a["0,2"] = _rational(rng, nonzero=True)
    b = {str(i): _rational(rng) for i in range(3, k + 1)}
    c = [_rational(rng, nonzero=True)] + [_rational(rng) for _ in range(m + 2)]
    if family == "mp" and p == 2:
        c[1:m] = ["0"] * (m - 1)
    curve = {"family": family, "m": m, "p": p, "c": c}
    if q is not None:
        curve["q"] = q
    doc = {"truncation": k, "surface": {"a": a, "b": b}, "curve": curve, "field": field}
    return json.dumps(doc)


def fixture_picks(seed: int) -> list:
    """CLI jobs in a seeded order: [(command, fixture, mesh scale index)]."""
    rng = random.Random(f"fixtures/{seed}")
    picks = [(cmd, name, None) for name in FIXTURES for cmd in CLI_COMMANDS]
    windows = [(name, scale) for name in FIXTURES for scale in range(len(DENSE_MESH_SCALES))]
    picks += [("mesh", name, scale) for name, scale in rng.sample(windows, DENSE_MESHES)]
    rng.shuffle(picks)
    return picks


def dense_mesh_config(fixture_text: str, scale_index: int) -> str:
    doc = json.loads(fixture_text)
    scale = DENSE_MESH_SCALES[scale_index]
    mesh = dict(DENSE_MESH)
    for name, half in DEFAULT_MESH_WINDOW.items():
        mesh[name] = [-half * scale, half * scale]
    doc["mesh"] = mesh
    return json.dumps(doc)


def input_bytes(workload: str, seed: int) -> bytes:
    """Everything a workload hands the library, serialized (fixture texts aside)."""
    if workload == "sweep":
        return json.dumps(sweep_seeds(seed)).encode()
    if workload in ("dense_exact", "dense_float"):
        field = "exact" if workload == "dense_exact" else "float"
        return "\n".join(dense_config(s, v, field) for s, v in dense_picks(seed)).encode()
    if workload == "fixtures_cli":
        return json.dumps(fixture_picks(seed)).encode()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def _close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _mask_numbers(text: str) -> str:
    return re.sub(r"-?\d[\d./e+-]*", "#", text)


def compare_report(doc: dict, golden: dict, field: str) -> list:
    """Problems between a report (config section removed) and the exact golden.

    Strings, integers, booleans and nulls must be equal; floats compare by
    RTOL/ATOL.  In the float field an exact golden entry ``"p/q"`` compares
    with the float by tolerance, flags compare with their numbers masked, and
    the EXACT_ONLY entries are not compared.
    """
    got = dict(_flatten(doc))
    want = dict(_flatten(golden))
    problems = []
    for path in sorted(set(got) | set(want)):
        if path not in got or path not in want:
            problems.append(f"{path}: present in only one of output and golden")
            continue
        g, w = got[path], want[path]
        if field == "float":
            if path in EXACT_ONLY:
                continue
            if path.startswith("flags") and isinstance(g, str) and isinstance(w, str):
                g, w = _mask_numbers(g), _mask_numbers(w)
            elif isinstance(g, float) and isinstance(w, str):
                try:
                    w = float(Fraction(w))
                except ValueError:
                    pass
        if isinstance(g, float) and isinstance(w, float):
            ok = _close(g, w)
        else:
            ok = type(g) is type(w) and g == w
        if not ok:
            problems.append(f"{path}: got {g!r}, golden {w!r}")
    return problems


def closed_form_failures(doc: dict, compare_reports) -> list:
    """Rows where ``verify.compare_reports`` finds the oracle contradicting the tables."""
    curv = doc["curvatures"]
    cf = curv["closed_form"]
    if not cf["applicable"]:
        return []
    tops = lambda values: tuple(None if v is None else Fraction(v) for v in values)
    oracle = SimpleNamespace(degrees=tuple(curv["degrees"]), tops=tops(curv["tops"]))
    reference = SimpleNamespace(
        degrees=tuple(cf["degrees"]), tops=tops(cf["tops"]), advisory=tuple(cf["advisory"])
    )
    return [
        f"closed form {c.quantity}: {c.note}"
        for c in compare_reports(oracle, reference)
        if c.status == "FAIL"
    ]


def obj_summary(text: str) -> dict:
    """Element counts, sampled vertices and per-axis absolute sums of an OBJ text."""
    counts = {"v": 0, "f": 0, "l": 0}
    vertices = []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "v":
            vertices.append([float(t) for t in rest.split()])
    n = len(vertices)
    picks = sorted({(n - 1) * i // (OBJ_SAMPLES - 1) for i in range(OBJ_SAMPLES)}) if n else []
    return {
        "counts": counts,
        "samples": [[i] + vertices[i] for i in picks],
        "abs_sums": [sum(abs(v[axis]) for v in vertices) for axis in range(3)],
    }


def compare_obj(summary: dict, golden: dict) -> list:
    problems = []
    if summary["counts"] != golden["counts"]:
        problems.append(f"element counts {summary['counts']} != golden {golden['counts']}")
        return problems
    for got, want in zip(summary["samples"], golden["samples"]):
        if got[0] != want[0] or not all(_close(a, b) for a, b in zip(got[1:], want[1:])):
            problems.append(f"vertex {want[0]}: got {got[1:]}, golden {want[1:]}")
    if not all(_close(a, b) for a, b in zip(summary["abs_sums"], golden["abs_sums"])):
        problems.append(f"coordinate sums {summary['abs_sums']} != golden {golden['abs_sums']}")
    return problems


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def _without_config(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "config"}


def sweep_job(cc, sweep_seed: int) -> Job:
    def run():
        return cc.verify.render_rows(cc.verify.run_sweep(seed=sweep_seed, draws=1))

    def check(text, golden):
        problems = [line for line in text.splitlines() if line.startswith("[FAIL]")]
        if digest(text) != golden:
            problems.append(f"verify table digest {digest(text)} != golden {golden}")
        return problems

    return Job(f"sweep/{sweep_seed}", run, check, digest)


def report_check(cc, cfg, field: str):
    """Check of a rendered report: echo of the config, golden entries, closed forms."""

    def check(text, golden):
        doc = json.loads(text)
        problems = []
        if cc.config.parse_config(json.dumps(doc["config"])) != cfg:
            problems.append("config echo does not parse back to the input")
        problems += compare_report(_without_config(doc), golden, field)
        if field == "exact":
            problems += closed_form_failures(doc, cc.verify.compare_reports)
        return problems

    return check


def _record_report(text):
    return _without_config(json.loads(text))


def dense_job(cc, shape: int, variant: int, field: str) -> Job:
    cfg = cc.config.parse_config(dense_config(shape, variant, field))

    def run():
        return cc.report.render_report(cc.report.build_report(cfg))

    return Job(f"dense/{shape}/{variant}", run, report_check(cc, cfg, field), _record_report)


def _cli(cc, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cc.cli.main(argv)
    return code, out.getvalue()


def fixture_job(cc, workdir: str, command: str, name: str, scale) -> Job:
    """One CLI call on a fixture; ``scale`` selects the denser mesh window."""
    text = cc.cli.fixture_text(name)
    label = name if scale is None else f"{name}-dense{scale}"
    if scale is not None:
        text = dense_mesh_config(text, scale)
    path = os.path.join(workdir, label + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    cfg = cc.config.parse_config(text)
    key = f"{command}/{label}"

    if command == "report":
        check_report = report_check(cc, cfg, "exact")

        def run():
            return _cli(cc, ["report", path])

        def check(out, golden):
            code, stdout = out
            return ([f"exit code {code}"] if code else []) + check_report(stdout, golden)

        return Job(key, run, check, lambda out: _record_report(out[1]))

    if command == "verify":

        def run():
            return _cli(cc, ["verify", path])

        def check(out, golden):
            code, stdout = out
            problems = [f"exit code {code}"] if code else []
            if digest(stdout) != golden:
                problems.append(f"verify table digest {digest(stdout)} != golden {golden}")
            return problems

        return Job(key, run, check, lambda out: digest(out[1]))

    if command != "mesh":
        raise ValueError(f"unknown command {command!r}")
    outdir = os.path.join(workdir, "mesh-" + label)

    def run_mesh():
        return _cli(cc, ["mesh", path, "--out", outdir])

    def summaries():
        out = {}
        for fname in MESH_FILES:
            with open(os.path.join(outdir, fname), encoding="utf-8") as fh:
                out[fname] = obj_summary(fh.read())
        return out

    def check_mesh(out, golden):
        code, _ = out
        if code:
            return [f"exit code {code}"]
        got = summaries()
        # The next run must write its own files, not pass on these.
        shutil.rmtree(outdir)
        return [f"{f}: {p}" for f in MESH_FILES for p in compare_obj(got[f], golden[f])]

    return Job(key, run_mesh, check_mesh, lambda out: summaries())


def build_jobs(cc, workload: str, seed: int, workdir: str) -> list:
    """The workload's job pool for this seed; one pass runs each job once."""
    if workload == "sweep":
        return [sweep_job(cc, s) for s in sweep_seeds(seed)]
    if workload in ("dense_exact", "dense_float"):
        field = "exact" if workload == "dense_exact" else "float"
        return [dense_job(cc, s, v, field) for s, v in dense_picks(seed)]
    if workload == "fixtures_cli":
        return [fixture_job(cc, workdir, *pick) for pick in fixture_picks(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(cc, workload: str, workdir: str) -> Job:
    """The job set-up runs once; the same for every seed, so ``setup_s`` does not follow the draw."""
    if workload == "sweep":
        return sweep_job(cc, 0)
    if workload in ("dense_exact", "dense_float"):
        return dense_job(cc, 0, 0, "exact" if workload == "dense_exact" else "float")
    if workload == "fixtures_cli":
        return fixture_job(cc, workdir, "mesh", "s1", None)
    raise ValueError(f"unknown workload {workload!r}")
