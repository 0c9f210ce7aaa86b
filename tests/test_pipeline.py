"""The staged analysis computes each quantity once, and only what is read.

Each case counts calls through every ``crosscap`` module binding of the
counted function, so a consumer that rebuilds a stage by hand is counted too.

The ladder of working truncations must not change a byte: reports and verify
rows produced through it are compared with those of the configured
truncation alone, obtained by making ``pipeline.lower_truncations`` (the
report's rungs) and ``pipeline.oracle_truncations`` (verify's) return no
rung; an analysis keeps the rung it first read (``report_rung``,
``oracle_rung``), so each policy reads a fresh one.  Each rung is an
analysis built without ``analyze``: ``analyze`` counts one configuration per
consumer call, ``model.build_curve`` one curve per analysis whose curve is
read, so a configured analysis that a lower rung resolves builds none.
"""

import json
import math
import random
import sys
from fractions import Fraction
from functools import cached_property
from importlib import resources

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)
from hypothesis import given, settings, strategies as st

from crosscap import (
    Analysis,
    FamilyMP,
    GeneralCurve,
    UmbrellaCoefficients,
    analyze,
    frame,
    model,
    parse_config,
    pipeline,
    series,
)
from crosscap.cli import fixture_text, main
from crosscap.config import RunConfig
from crosscap.obj import osculating_surface
from crosscap.series import CrosscapError, FloatSeries, UniSeries, Vec3Series
from crosscap.report import build_report, render_report, report_from_analysis
from crosscap.verify import NON_GENERIC, SUBCASES, _draw_fixture, run_sweep, verify_fixture
from output_digests import GENERAL_CURVE


def count_calls(monkeypatch, module, name, record=None):
    """The calls of ``module.name``: its name per call, or what ``record(*args)`` returns.

    ``module`` may be a class, whose method ``name`` is then counted with
    ``self`` as the first argument.
    """
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name if record is None else record(*args))
        return original(*args, **kwargs)

    if isinstance(module, type):
        monkeypatch.setattr(module, name, counting)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "crosscap" or mod_name.startswith("crosscap."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.fixture
def calls(monkeypatch):
    return {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            (series, "compose_bi"),
            (series, "compose_partials"),
            (frame, "curvature_numerators"),
            (frame, "darboux_frame"),
        )
    }


def fixture_config(name, field="exact"):
    raw = json.loads(fixture_text(name))
    raw["field"] = field
    return parse_config(json.dumps(raw))


@pytest.mark.parametrize(
    "name, field, compose, partials, numerators",
    [("s1", "exact", 6, 3, 1), ("s1", "float", 6, 3, 1), ("s3", "exact", 3, 3, 1)],
)
def test_report_computes_each_stage_once(calls, name, field, compose, partials, numerators):
    build_report(fixture_config(name, field))
    assert len(calls["compose_bi"]) == compose
    assert len(calls["compose_partials"]) == partials
    assert len(calls["curvature_numerators"]) == numerators


#: (mp) p = 2 jets, the (c x^{2m}, x^m) shape: s1 at truncation 9, and dense
#: shapes of m = 1, 2, 3 whose report is read at truncation 8 or from rung 5.
MP2_CONFIGS = [fixture_text("s1")] + [workloads.dense_config(shape, 1, "exact") for shape in (0, 3, 9, 13)]


@pytest.mark.parametrize("text", MP2_CONFIGS)
def test_report_squares_each_norm_once(monkeypatch, text):
    # |E_t(0)|^2 and |N(0)|^2 are the ``norms`` stage: the tangency, the
    # contour deviation and the developable all read it.
    norms = count_calls(monkeypatch, Vec3Series, "constant_norm_sq", lambda v: v)
    cfg = parse_config(text)
    analysis = analyze(cfg.coeffs, cfg.spec)
    doc = report_from_analysis(cfg, analysis)
    a = analysis.report_rung
    assert doc["invariants"]["applicable"] and doc["developable"]["applicable"]
    assert len(norms) == 2
    assert norms[0] is a.factors.tangent and norms[1] is a.factors.normal


def test_mesh_composes_only_the_image_and_the_normal(calls, tmp_path):
    cfg_path = tmp_path / "s1.json"
    cfg_path.write_text(fixture_text("s1"))
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (len(calls["compose_bi"]), len(calls["compose_partials"])) == (3, 3)


def test_verify_skips_the_float_frame(calls):
    cfg = fixture_config("s1")
    assert verify_fixture(Analysis(cfg.coeffs, cfg.spec)).status == "PASS"
    assert (len(calls["compose_bi"]), len(calls["compose_partials"])) == (3, 3)
    assert len(calls["curvature_numerators"]) == 1
    assert calls["darboux_frame"] == []


def test_curvature_numerators_share_one_cross_product(calls, monkeypatch):
    # N x E_t is built once (6 products) and dotted with E_t' and N'; with
    # E_t' . N that makes 3 + 3 + 3 more.  Two cross products made 21.
    cfg = fixture_config("s1")
    analysis = analyze(cfg.coeffs, cfg.spec)
    analysis.factors  # the factorisation's own products are not counted
    products = []
    original = UniSeries.__mul__

    def counting(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(UniSeries, "__mul__", counting)
    monkeypatch.setattr(UniSeries, "__rmul__", counting)
    analysis.numerators
    assert len(calls["curvature_numerators"]) == 1
    assert len(products) == 15


def test_verify_builds_each_power_table_once(monkeypatch):
    # The nine compositions (the image, W_u and W_v) read the powers of the
    # curve components c1 and c2 from the tables kept on them: each table is
    # built on the first composition and only read or extended afterwards.
    built = []
    original = series._powers

    def recording(s, n):
        if not hasattr(s, "_pows"):
            built.append(s)
        return original(s, n)

    monkeypatch.setattr(series, "_powers", recording)
    cfg = fixture_config("s1")
    verify_fixture(Analysis(cfg.coeffs, cfg.spec))
    assert len(built) == 2 and built[0] is not built[1]
    assert all(type(s) is UniSeries for s in built)


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_report_makes_no_float_series(calls, monkeypatch, name):
    # Every order, case and verdict is decided on exact series; each float
    # the report prints is read from an exact value, none from a series.
    roots = count_calls(monkeypatch, series, "sqrt_series")
    inverses = count_calls(monkeypatch, series, "reciprocal")
    floats = []
    original = UniSeries.to_float
    monkeypatch.setattr(UniSeries, "to_float", lambda s: floats.append(s) or original(s))
    build_report(fixture_config(name))
    assert (roots, inverses, calls["darboux_frame"], floats) == ([], [], [], [])


def test_mesh_normalises_the_director_once(tmp_path, monkeypatch):
    roots = count_calls(monkeypatch, series, "sqrt_series")
    inverses = count_calls(monkeypatch, series, "reciprocal")
    cfg_path = tmp_path / "s2.json"
    cfg_path.write_text(fixture_text("s2"))
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(roots) == 1 and len(inverses) == 1


def test_no_run_builds_the_fraction_view_of_a_series(tmp_path, monkeypatch, capsys):
    # The library reads each coefficient from the numerator / denominator
    # pair; ``UniSeries.coeffs`` (the one caller of ``_over``) builds the
    # whole tuple of reduced Fractions, for repr and the tests only.
    built = count_calls(monkeypatch, series, "_over")
    runs = []
    for name in ("s1", "s2", "s3"):
        for field in ("exact", "float"):
            raw = json.loads(fixture_text(name))
            raw["field"] = field
            path = tmp_path / f"{name}-{field}.json"
            path.write_text(json.dumps(raw))
            runs.append(["report", str(path)])
        runs += [["verify", str(path)], ["mesh", str(path), "--out", str(tmp_path / name)]]
    assert [main(run) for run in runs] == [0] * len(runs)
    capsys.readouterr()
    for shape in range(len(workloads.DENSE_SHAPES)):
        build_report(parse_config(workloads.dense_config(shape, 0, "exact")))
    assert built == []


class Rounded(Exception):
    """A rounding routine was called; not a library error, so nothing catches it."""


def _refuse(*args):
    raise Rounded(args)


#: Fields that hold constants of the normal form, not computed values.
_CONSTANT_FIELDS = frozenset(
    {"tangent_line_direction", "principal_intersection_direction", "null_vector", "principal_plane_normal"}
)

#: Every stage of ``Analysis``: each of its cached properties.
_STAGES = tuple(name for name, value in vars(Analysis).items() if isinstance(value, cached_property))

#: The stages whose value is an analysis, a rung; its own stages are read in turn.
_RUNG_STAGES = ("report_rung", "oracle_rung")


def _held(value, path, kinds):
    """(path, item) for every instance of ``kinds`` held in ``value``."""
    if isinstance(value, kinds):
        yield path, value
    elif isinstance(value, tuple) and hasattr(value, "_fields"):  # a record, before the tuple branch
        for name, v in zip(value._fields, value):
            if name not in _CONSTANT_FIELDS:
                yield from _held(v, f"{path}.{name}", kinds)
    elif isinstance(value, Vec3Series):
        for name, v in zip("xyz", value.components):
            yield from _held(v, f"{path}.{name}", kinds)
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            yield from _held(v, f"{path}[{i}]", kinds)


def _floats_in(value, path):
    """The paths of every float and float series held in ``value``."""
    return [p for p, _ in _held(value, path, (float, FloatSeries))]


def test_the_float_walker_reads_records_and_vectors(s1):
    # The walker sees the floats of the mesh's ruled surface through the
    # record and its vectors, and skips only the named constant fields.
    ruled = osculating_surface(s1.image, s1.developable.director)
    assert list(_floats_in(ruled, "ruled"))[:2] == ["ruled.gamma.x", "ruled.gamma.y"]
    assert list(_floats_in(s1.tangency, "tangency")) == []
    assert list(_floats_in(tuple(s1.tangency), "tangency"))[-1] == "tangency[6][2]"


def _no_rounding_configs() -> dict:
    from test_cli import HUGE_DELTA_TOP, HUGE_VALUES, LONGEST, NON_FINITE_DEVELOPABLE, TINY_EF

    configs = {name: fixture_text(name) for name in ("s1", "s2", "s3")}
    for shape in range(0, len(workloads.DENSE_SHAPES), 4):
        configs[f"dense-{shape}"] = workloads.dense_config(shape, shape % workloads.DENSE_VARIANTS, "exact")
    configs.update(
        {
            "huge-values": HUGE_VALUES,
            "huge-delta-top": HUGE_DELTA_TOP,
            "tiny-ef": TINY_EF,
            "non-finite-developable": NON_FINITE_DEVELOPABLE,
            # A limiting tangent whose first component is below the float range.
            "tiny-tangent": json.dumps(
                {
                    "truncation": 5,
                    "surface": {"a": {"0,2": LONGEST}},
                    "curve": {"family": "general", "c1": ["0", "0", "1/" + LONGEST], "c2": ["0", LONGEST]},
                }
            ),
        }
    )
    return configs


@pytest.mark.parametrize("name", sorted(_no_rounding_configs()))
def test_no_stage_but_ruled_rounds(monkeypatch, name):
    # Every stage keeps its values exact: a float is made only when the
    # report prints (``float`` of a SignedRoot, ``nearest_float``) or the
    # mesh builds its ruled surface (``to_float``), so a stage that rounds
    # raises here.  The rungs are read as analyses, stage by stage.
    monkeypatch.setattr(series.SignedRoot, "__float__", _refuse)
    monkeypatch.setattr(series, "nearest_float", _refuse)
    monkeypatch.setattr(UniSeries, "to_float", _refuse)
    cfg = parse_config(_no_rounding_configs()[name])
    analyses = [analyze(cfg.coeffs, cfg.spec)]
    for a in analyses:
        for stage in _STAGES:
            try:
                value = getattr(a, stage)
            except CrosscapError:  # the stage does not apply
                continue
            if stage in _RUNG_STAGES:
                assert isinstance(value, Analysis)
                if value not in analyses:
                    analyses.append(value)
            else:
                assert list(_floats_in(value, stage)) == []


#: The stages that hold exact series: the curve, the chain to the curvature
#: numerators and the developable (V, R, S and the striction scale).
SERIES_STAGES = ("curve", "image", "raw_normal", "factors", "cross", "numerators", "developable")


def _stored_series_analyses():
    """The report rungs of s1-s3 and of the 16 dense shapes at draw 0, and the oracle rungs of sweep seeds 0-39."""
    texts = [fixture_text(name) for name in ("s1", "s2", "s3")]
    texts += [workloads.dense_config(shape, 0, "exact") for shape in range(len(workloads.DENSE_SHAPES))]
    for text in texts:
        cfg = parse_config(text)
        yield analyze(cfg.coeffs, cfg.spec).report_rung
    for seed in range(40):
        for subcase in SUBCASES:
            yield sweep_draw(seed, subcase).oracle_rung


def test_every_series_a_stage_stores_is_canonical():
    # A product keeps its pair unreduced, and the sum, difference or
    # composition that reads it reduces it; every series a stage stores is
    # a canonical pair: den > 0 and gcd(den, *num) == 1.
    read = set()
    for a in _stored_series_analyses():
        for stage in SERIES_STAGES:
            for path, s in _held(getattr(a, stage), stage, UniSeries):
                assert s._den > 0 and math.gcd(s._den, *s._num) == 1, (a.spec, path)
                read.add(path)
    # The walk reaches every series the developable keeps.
    assert {"developable.director.z", "developable.delta", "developable.sigma", "developable.striction.scale[1]"} <= read


#: The stages of the sections that apply only to particular curves.
OPTIONAL_STAGES = ("closed_form", "invariants", "developable")


def _reason_configs() -> dict:
    configs = {name: fixture_text(name) for name in ("s1", "s2", "s3")}
    raw = json.loads(fixture_text("s1"))
    raw["truncation"] = 3  # too short for the developable
    configs["s1-3"] = json.dumps(raw)
    configs["general"] = json.dumps(GENERAL_CURVE)
    return configs


def test_reasons_hold_exactly_the_optional_stages_that_read_none():
    printed = set()
    for name, text in _reason_configs().items():
        cfg = parse_config(text)
        configured = analyze(cfg.coeffs, cfg.spec)
        doc = report_from_analysis(cfg, configured)
        rung = configured.report_rung
        for a in {configured, rung}:
            read = [stage for stage in OPTIONAL_STAGES if stage in vars(a)]  # cached by the report
            assert read == list(OPTIONAL_STAGES) or (a is not rung and read == []), name
            assert set(a.reasons) == {stage for stage in read if vars(a)[stage] is None}, name
        sections = (
            ("closed_form", doc["curvatures"]["closed_form"]),
            ("invariants", doc["invariants"]),
            ("invariants", doc["verdicts"]),  # the verdicts print the invariants' reason
            ("developable", doc["developable"]),
        )
        for stage, body in sections:
            assert ("reason" in body) == (stage in rung.reasons), (name, stage)
            if "reason" in body:
                assert body["reason"] == rung.reasons[stage]
                printed.add(stage)
    assert printed == set(OPTIONAL_STAGES)  # each optional stage is refused at least once


def test_mesh_prints_the_developable_reason(tmp_path, capsys):
    text = _reason_configs()["s1-3"]
    cfg = parse_config(text)
    analysis = analyze(cfg.coeffs, cfg.spec)
    assert analysis.developable is None
    cfg_path = tmp_path / "s1-3.json"
    cfg_path.write_text(text)
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == analysis.reasons["developable"] + "\n"


# ---------------------------------------------------------------------------
# The ladder of working truncations
# ---------------------------------------------------------------------------


def test_lower_truncations():
    # Rung 5 runs from truncation 10, and from truncation 8 at m = 3, the
    # only multiplicity the benchmark measures below truncation 10.
    for m in (1, 2, 4):
        for k in range(3, 201):
            assert pipeline.lower_truncations(m, k) == ([5] if k >= 10 else [])
    assert pipeline.lower_truncations(3, 6) == pipeline.lower_truncations(3, 7) == []
    assert pipeline.lower_truncations(3, 8) == pipeline.lower_truncations(3, 200) == [5]


def test_oracle_truncations():
    for m in (1, 2, 4):
        for k in range(3, 201):
            assert pipeline.oracle_truncations(m, k) == [4] * (k > 4) + [5] * (k >= 10)
    assert pipeline.oracle_truncations(3, 6) == pipeline.oracle_truncations(3, 7) == [4]
    assert pipeline.oracle_truncations(3, 8) == [4, 5]


# Truncation 16, which truncation 5 completes.
DENSE_16 = workloads.dense_config(8, 0, "exact")


def test_report_builds_the_surface_jet_only_on_the_resolving_rung(monkeypatch):
    truncations = count_calls(monkeypatch, model, "build_umbrella", lambda coeffs: coeffs.degree)
    build_report(parse_config(DENSE_16))
    assert truncations == [5]


@pytest.mark.parametrize("name, truncation", [("s1", 9), ("s2", 9), ("s3", 7)])
def test_a_report_below_the_first_rung_builds_one_surface_jet(monkeypatch, name, truncation):
    # s1 and s2 (m = 1) and s3 (m = 3) are too short for rung 5 to pay:
    # their reports run the configured truncation alone.
    truncations = count_calls(monkeypatch, model, "build_umbrella", lambda coeffs: coeffs.degree)
    build_report(fixture_at(name, truncation))
    assert truncations == [truncation]


def no_lower_rungs(monkeypatch):
    """Run every analysis at its configured truncation alone."""
    monkeypatch.setattr(pipeline, "lower_truncations", lambda m, k: [])
    monkeypatch.setattr(pipeline, "oracle_truncations", lambda m, k: [])


def test_each_rung_is_read_once_per_analysis(monkeypatch):
    # ``report_rung`` and ``oracle_rung`` are cached stages: a second report
    # or row of the same analysis climbs no ladder and builds no surface
    # jet, and a policy changed afterwards does not move the rung it read.
    jets = count_calls(monkeypatch, model, "build_umbrella", lambda coeffs: coeffs.degree)
    cfg = parse_config(DENSE_16)
    analysis = analyze(cfg.coeffs, cfg.spec)
    report = report_from_analysis(cfg, analysis)
    assert report_from_analysis(cfg, analysis) == report and jets == [5]
    row = verify_fixture(analysis)
    assert verify_fixture(analysis) == row and jets == [5, 4]
    no_lower_rungs(monkeypatch)
    assert (analysis.report_rung.coeffs.degree, analysis.oracle_rung.coeffs.degree) == (5, 4)
    assert jets == [5, 4]


#: The report stages that the report rung's completeness test does not read:
#: the tangency reads the spec's case and E_t(0), which every rung fixes, A-D
#: the jet through degree 4, and the verdicts jet terms of total degree <= 3.
RUNG_FREE_STAGES = ("tangency", "invariants", "verdicts")


def test_the_report_rung_reads_every_untested_stage_as_the_configured_truncation():
    texts = [fixture_text(name) for name in ("s1", "s2", "s3")]
    texts += [
        workloads.dense_config(shape, variant, "exact")
        for shape in range(len(workloads.DENSE_SHAPES))
        for variant in range(workloads.DENSE_VARIANTS)
    ]
    lowered = with_invariants = 0
    for text in texts:
        cfg = parse_config(text)
        configured = analyze(cfg.coeffs, cfg.spec)
        rung = configured.report_rung
        for stage in RUNG_FREE_STAGES:
            assert getattr(rung, stage) == getattr(configured, stage), (text, stage)
        lowered += rung is not configured
        with_invariants += rung is not configured and rung.invariants is not None
    assert lowered >= 110 and with_invariants >= 32  # the test reads lower rungs


def sweep_draw(seed, subcase):
    """The analysis of the draw of ``subcase`` in ``run_sweep(seed=seed, draws=1)``."""
    return _draw_fixture(random.Random((seed, subcase).__repr__()), subcase)


def fixture_path(name):
    return str(resources.files("crosscap").joinpath("fixtures", name + ".json"))


@pytest.mark.parametrize(
    "consume, curves, analyses",
    [
        (lambda: build_report(parse_config(DENSE_16)), 1, 1),  # rung 5 alone
        (lambda: build_report(parse_config(fixture_text("s1"))), 1, 1),  # truncation 9: no rung
        (lambda: main(["verify", fixture_path("s1")]), 1, 1),  # rung 4 alone
        (lambda: verify_fixture(sweep_draw(0, "mp/p3")), 1, 0),  # rung 4 alone
    ],
    ids=["dense-16", "s1", "cli-verify", "sweep-draw"],
)
def test_analyze_counts_configurations_and_build_curve_rungs(monkeypatch, consume, curves, analyses):
    built = count_calls(monkeypatch, model, "build_curve")
    calls = count_calls(monkeypatch, pipeline, "analyze")
    consume()
    assert (len(built), len(calls)) == (curves, analyses)


def through_ladder_and_alone(produce):
    """``produce()`` through the ladder, and with the configured truncation alone.

    An analysis keeps the rung it first read, so ``produce`` must build a
    fresh analysis on each call for the policy to take effect.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        no_lower_rungs(monkeypatch)
        alone = produce()
    return produce(), alone


def resolving_truncation(cfg):
    return analyze(cfg.coeffs, cfg.spec).report_rung.coeffs.degree


def assert_ladder_keeps_bytes(cfg):
    laddered, alone = through_ladder_and_alone(lambda: render_report(build_report(cfg)))
    assert laddered == alone
    if not isinstance(cfg.spec, GeneralCurve):
        rows = through_ladder_and_alone(lambda: verify_fixture(Analysis(cfg.coeffs, cfg.spec)))
        assert rows[0] == rows[1]


@pytest.mark.parametrize("field", ["exact", "float"])
def test_ladder_keeps_the_dense_reports(field):
    resolved_low = 0
    for shape in range(len(workloads.DENSE_SHAPES)):
        cfg = parse_config(workloads.dense_config(shape, shape % workloads.DENSE_VARIANTS, field))
        assert_ladder_keeps_bytes(cfg)
        resolved_low += resolving_truncation(cfg) < cfg.coeffs.degree
    # The 12 shapes of truncation >= 10, and shapes 9 and 10 (truncation 8
    # and 9, m = 3).
    assert resolved_low >= 14


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("shape", [9, 10])
def test_ladder_keeps_the_dense_m3_reports_below_truncation_10(shape, field):
    for variant in range(workloads.DENSE_VARIANTS):
        cfg = parse_config(workloads.dense_config(shape, variant, field))
        assert resolving_truncation(cfg) == 5
        assert_ladder_keeps_bytes(cfg)


def fixture_at(name, truncation, field="exact", curve=None):
    raw = json.loads(fixture_text(name))
    raw["truncation"] = truncation
    raw["field"] = field
    if curve is not None:
        raw["curve"] = curve
    return parse_config(json.dumps(raw))


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize(
    "name, truncation, curve, resolved",
    [
        ("s1", 12, None, 12),  # a cylinder: only the configured truncation completes it
        ("s2", 14, None, 14),  # sigma first appears at truncation 7
        ("s2", 20, None, 20),  # no rung between 5 and the configured truncation
        ("s3", 16, None, 5),
        # m = 3 runs rung 5 from truncation 8, which leaves this sparse report incomplete.
        ("s1", 8, {"family": "mp", "m": 3, "p": 2, "c": ["1"]}, 8),
    ],
    ids=["s1-12-12", "s2-14-14", "s2-20-20", "s3-16-5", "s1-mp-m3-8-8"],
)
def test_ladder_keeps_the_fixture_reports(name, truncation, curve, resolved, field):
    cfg = fixture_at(name, truncation, field, curve)
    assert resolving_truncation(cfg) == resolved
    assert_ladder_keeps_bytes(cfg)


def test_verify_climbs_past_an_unresolved_degree():
    # With b3 = 0 the tabulated kappa2 top of this curve vanishes (a
    # NON-GENERIC row); the true degree, 3, lies beyond what truncations 4
    # and 5 resolve, so the oracle must come from the configured truncation.
    coeffs = UmbrellaCoefficients(12, {(0, 2): 1}, {})
    spec = FamilyMP(m=1, p=5, c=(1,))
    assert pipeline.oracle_truncations(1, 12) == [4, 5]
    assert analyze(coeffs.truncated(4), spec).oracle.degrees[1] is None
    assert analyze(coeffs.truncated(5), spec).oracle.degrees[1] is None
    assert verify_fixture(Analysis(coeffs, spec)).comparisons[1].degree_oracle == 3
    assert_ladder_keeps_bytes(RunConfig(coeffs=coeffs, spec=spec))


def rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


@st.composite
def family_jets(draw):
    """A jet of truncation 8..14 with terms up to that degree and a family curve."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = draw(st.integers(8, 14))
    a = {f"{i},{s - i}": str(rational(rng)) for s in range(2, k + 1) for i in range(s + 1) if rng.random() < 0.6}
    a["0,2"] = str(rng.choice((1, -1, 2, Fraction(1, 3))))
    b = {str(i): str(rational(rng)) for i in range(3, k + 1) if rng.random() < 0.6}
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        curve = {"family": "mpq", "m": m, "p": draw(st.integers(1, 4)), "q": draw(st.integers(1, m - 1))}
    else:
        m = draw(st.integers(1, 3))
        curve = {"family": "mp", "m": m, "p": draw(st.integers(2, 5))}
    curve["c"] = [str(rng.choice((1, -2, Fraction(1, 2))))] + [str(rational(rng)) for _ in range(m + 1)]
    field = draw(st.sampled_from(["exact", "float"]))
    doc = {"truncation": k, "surface": {"a": a, "b": b}, "curve": curve, "field": field}
    return parse_config(json.dumps(doc))


@settings(max_examples=25, deadline=None)
@given(family_jets())
def test_ladder_keeps_drawn_family_jets(cfg):
    assert_ladder_keeps_bytes(cfg)


@pytest.mark.parametrize("seed", range(6))
def test_ladder_keeps_general_curves(seed):
    rng = random.Random(f"general/{seed}")
    k = rng.choice((10, 11, 12))
    a = {f"{i},{s - i}": str(rational(rng)) for s in range(2, k + 1) for i in range(s + 1)}
    a["0,2"] = "1"
    v1, v2 = rng.sample((1, 2, 3), 2)
    c1 = [0] * v1 + [rng.choice((1, -1, 3))] + [str(rational(rng)) for _ in range(4)]
    c2 = [0] * v2 + [rng.choice((2, -1))] + [str(rational(rng)) for _ in range(4)]
    doc = {
        "truncation": k,
        "surface": {"a": a, "b": {str(i): str(rational(rng)) for i in range(3, k + 1)}},
        "curve": {"family": "general", "c1": c1, "c2": c2},
        "field": rng.choice(("exact", "float")),
    }
    assert_ladder_keeps_bytes(parse_config(json.dumps(doc)))


def test_a_general_curve_climbs_like_a_family_curve():
    # A curve is exact polynomials: each rung builds it to its own series
    # order, so a general curve runs the lower rungs as a family curve does.
    spec = GeneralCurve(
        c1=(0, 1, 0, 1),
        c2=(0, 0, 1),
    )
    a = analyze(UmbrellaCoefficients(12, {(0, 2): 2}, {}), spec)
    for lower, k in ((pipeline.lower_truncations, 5), (pipeline.oracle_truncations, 4)):
        rung = a._climb(lambda rung: True, lower)
        assert rung is not a and rung.coeffs.degree == k
        assert [c.reliable_order for c in rung.curve] == [k, k]
    assert a.order == 12 and [c.reliable_order for c in a.curve] == [12, 12]


def test_climb_moves_on_only_past_library_errors():
    a = analyze(UmbrellaCoefficients(12, {(0, 2): 2}, {}), FamilyMP(m=1, p=2, c=(1,)))

    def library_error(rung):
        raise frame.FrameError("unresolved on a short jet")

    def stdlib_error(rung):
        raise ValueError("a programming error")

    def bug(rung):
        raise TypeError("a programming error")

    def overflow(rung):
        raise OverflowError("no stage makes a float")

    for lower in (pipeline.lower_truncations, pipeline.oracle_truncations):
        assert a._climb(library_error, lower) is a
        for error, compute in ((ValueError, stdlib_error), (TypeError, bug), (OverflowError, overflow)):
            with pytest.raises(error) as caught:
                a._climb(compute, lower)
            assert not isinstance(caught.value, CrosscapError)


def oracle_fails_below(monkeypatch, error, k):
    """Make the ``oracle`` stage raise ``error`` on every analysis of a truncation below k."""
    original = Analysis.oracle.func

    def failing(self):
        if self.coeffs.degree < k:
            raise error("oracle on a lower rung")
        return original(self)

    patched = cached_property(failing)
    patched.__set_name__(Analysis, "oracle")
    monkeypatch.setattr(Analysis, "oracle", patched)


def test_a_library_error_on_a_lower_rung_moves_on_and_a_stdlib_one_propagates(monkeypatch):
    # s3 at truncation 16 completes its report at rung 5.  A CrosscapError
    # there moves on to the configured truncation, with the same report; a
    # stdlib ValueError is a bug, and report_rung raises it.
    cfg = fixture_at("s3", 16)
    assert resolving_truncation(cfg) == 5
    report = render_report(build_report(cfg))
    oracle_fails_below(monkeypatch, frame.FrameError, 16)
    assert resolving_truncation(cfg) == 16
    assert render_report(build_report(cfg)) == report
    oracle_fails_below(monkeypatch, ValueError, 16)
    with pytest.raises(ValueError, match="on a lower rung") as caught:
        analyze(cfg.coeffs, cfg.spec).report_rung
    assert not isinstance(caught.value, CrosscapError)


@pytest.fixture
def compose_orders(monkeypatch):
    """The reliable order of the substituted curve of every ``compose_bi`` and every ``compose_partials`` call."""
    return {
        name: count_calls(monkeypatch, series, name, lambda F, u, v: u.reliable_order)
        for name in ("compose_bi", "compose_partials")
    }


def each_component_once(order):
    """The image's three compositions and the three of W_u and W_v, one pass per component."""
    return {"compose_bi": [order] * 3, "compose_partials": [order] * 3}


# s3 at truncation 16 completes the report at rung 5 and the oracle at rung
# 4.  Its curve has multiplicity 3, so the curve is built to order
# 3 (5 + 1) - 1 = 17 and 3 (4 + 1) - 1 = 14 there and to 3 (16 + 1) - 1 = 50
# at the configured truncation.
S3_RUNG_5_ORDER = 17
S3_RUNG_4_ORDER = 14
S3_TRUNCATION_16_ORDER = 50


def test_report_composes_only_on_the_resolving_rung(compose_orders):
    build_report(fixture_at("s3", 16))
    assert compose_orders == each_component_once(S3_RUNG_5_ORDER)


def test_verify_composes_only_on_the_resolving_rung(compose_orders):
    cfg = fixture_at("s3", 16)
    verify_fixture(Analysis(cfg.coeffs, cfg.spec))
    assert compose_orders == each_component_once(S3_RUNG_4_ORDER)


def test_mesh_composes_only_at_the_configured_truncation(compose_orders, tmp_path):
    raw = json.loads(fixture_text("s3"))
    raw["truncation"] = 16
    cfg_path = tmp_path / "s3.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert compose_orders == each_component_once(S3_TRUNCATION_16_ORDER)


def test_each_sweep_draw_computes_its_table_once(monkeypatch):
    # A draw is redrawn on its own closed form, and its row compares with
    # that same table: every computation reads a jet no other one read.
    tables = count_calls(monkeypatch, frame, "closed_form_reference", lambda spec, coeffs: coeffs)
    rows = run_sweep(seed=0, draws=10)
    assert len({id(coeffs) for coeffs in tables}) == len(tables) >= len(rows) == 90
    assert NON_GENERIC not in {row.status for row in rows}


def test_verify_resolves_every_sweep_draw_at_the_oracle_rung(monkeypatch):
    # The 576 draws of sweep seeds 0-63 of the benchmark's sweep universe.
    # The surface jet is built only on the rung whose oracle is read: once
    # at the configured truncation alone, then once at 4 through the ladder
    # when rung 4 resolves the draw.  The two rows must be equal.  Each run
    # reads a fresh analysis of the draw, since an analysis keeps its rung.
    jets = count_calls(monkeypatch, model, "build_umbrella", lambda coeffs: coeffs.degree)
    for seed in range(64):
        for subcase in SUBCASES:
            analysis = sweep_draw(seed, subcase)
            laddered, alone = through_ladder_and_alone(
                lambda: verify_fixture(Analysis(analysis.coeffs, analysis.spec), subcase)
            )
            assert jets == [analysis.coeffs.degree, 4], (seed, subcase)
            assert laddered == alone, (seed, subcase)
            jets.clear()
