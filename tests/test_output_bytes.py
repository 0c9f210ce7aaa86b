"""Byte-identity gate: SHA-256 of CLI outputs that a refactor must not change.

The digests are those of ``crosscap report`` (exact and float field),
``crosscap mesh`` and ``crosscap verify --sweep --seed 0`` on the bundled
fixtures, of ``verify --sweep --seed 1``, one digest per field over the
128 dense reports of the benchmark's jet universe
(``bench/workloads.dense_config``: 16 shapes x 8 draws, truncation 8 to 16),
and one digest over the benchmark's denser meshes
(``bench/workloads.dense_mesh_config``: each fixture at each window scale).
A change that alters these bytes on purpose records the new digests here and
says why in CHANGES.md.

The float field prints the exact analysis with each rational of the result
sections as its float; ``test_float_report_is_the_exact_report_in_floats``
checks that contract value by value.  Each float the report computes from an
exact value over a square root is that value rounded once:
``test_printed_floats_are_rounded_once`` checks it against 80 digits.
"""

import decimal
import hashlib
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
import workloads  # the benchmark's recorded input universe (bench/ is put on the path by conftest)

from crosscap import analyze, parse_config
from crosscap.cli import fixture_text, main
from crosscap.pipeline import lower_truncations
from crosscap.report import _complete, build_report, render_report
from crosscap.series import valuation

REPORT_SHA256 = {
    ("s1", "exact"): "3fb1739a0322575216472acb0493d07b9081082ccafd7962ac4af890a4df4ae9",
    ("s1", "float"): "bef9ac2685e19ac4fcd75fce24d21251bc625515686d051bbcfc6bcf11c25f2d",
    ("s2", "exact"): "fd9bbb3de3ca45ce8ba6869badb499fe4c6a099b6985ab1cdd7e83807b8c1809",
    ("s2", "float"): "911e669f8a0a06976019a5163e8431484badb1b327b917e56556dc034551d2e2",
    ("s3", "exact"): "50a6958d9589bc742dcd5108ccbe6ae1be5612f06e96bff39ea473728f849224",
    ("s3", "float"): "0c2a6d8c865be71ef6bd2804ad87902a4d43cfacf45aee5ee4076dfebf69444a",
}

MESH_SHA256 = {
    "s1": {
        "umbrella.obj": "f9809e4ebad4a2554ce9f6773ba3e9f163e145233828bb113b400aba64024095",
        "curve.obj": "3dccd2a885cf6517d7e992b5446596f8639960c4f5768b6590dff774ccff2ced",
        "od_w.obj": "50f427cc54bcb514d6a2b82892d06800692ff7bce28f60c3880b831b61f52186",
    },
    "s2": {
        "umbrella.obj": "6d440c14c603a9a576c1f43ba7152682df10adf87e0951c2e0efd2c44e41cb2b",
        "curve.obj": "a8f942de08d52963319cd66fea5fd070b3e6a6928280db56e2332cf2f739a924",
        "od_w.obj": "4ad0b96c181e1d764b707ea5be4a6717aff2965a51482786833553aad49e8aa6",
    },
    "s3": {
        "umbrella.obj": "5b4010ea8ab779c1be83dd1fc692f27590d40c9dbb36d52657d67168864c246c",
        "curve.obj": "9ec89fcf7b8edd4821e5d9ee3c6ce9acfad1d8e5d187a5599f141ad452dd8cc7",
        "od_w.obj": "8c94dede169d093e4792f63619eb7a72a94879aa423cf1ee0521d632ec0e350b",
    },
}

SWEEP_SHA256 = {
    0: "45a90c92af4967d2adb75002bfa5e42837efec2105f59303fa2854521642b86d",
    1: "86b96a5441f548f170922f53c7c7c5c1ca7f7374c89aa637c672ee1021d2b660",
}

#: One digest per field over the concatenated dense reports, shape by shape
#: and draw by draw.
DENSE_REPORTS_SHA256 = {
    "exact": "3e05dbb996da71f2bd38840b8aa84771bd7afa61393408861d6e8458b70c50ce",
    "float": "64183aa762ac5ce03cbae0719a62d4d15a869ac6c81f0a77036a9c1a893b4766",
}


#: One digest over the ``umbrella.obj``, ``curve.obj`` and ``od_w.obj`` bytes
#: of ``crosscap mesh``, fixture by fixture and window scale by window scale.
DENSE_MESHES_SHA256 = "584a2694a4c671b0a706973cd4de781db348a3acaa43e01792cd2a9b3be9927f"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixture_in_field(tmp_path, name, field):
    doc = json.loads(fixture_text(name))
    doc["field"] = field
    path = tmp_path / f"{name}-{field}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, field", sorted(REPORT_SHA256))
def test_report_bytes(tmp_path, name, field):
    out = tmp_path / "report.json"
    assert main(["report", _fixture_in_field(tmp_path, name, field), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == REPORT_SHA256[name, field]


@pytest.mark.parametrize("name", sorted(MESH_SHA256))
def test_mesh_bytes(tmp_path, name):
    out = tmp_path / "mesh"
    assert main(["mesh", _fixture_in_field(tmp_path, name, "exact"), "--out", str(out)]) == 0
    digests = {obj: _sha256((out / obj).read_bytes()) for obj in MESH_SHA256[name]}
    assert digests == MESH_SHA256[name]


def test_dense_mesh_bytes(tmp_path):
    digest = hashlib.sha256()
    config = tmp_path / "dense.json"
    for name in workloads.FIXTURES:
        for scale in range(len(workloads.DENSE_MESH_SCALES)):
            config.write_text(workloads.dense_mesh_config(fixture_text(name), scale))
            out = tmp_path / f"{name}-{scale}"
            assert main(["mesh", str(config), "--out", str(out)]) == 0
            for obj in workloads.MESH_FILES:
                digest.update((out / obj).read_bytes())
    assert digest.hexdigest() == DENSE_MESHES_SHA256


def _sweep_digest(capsys, seed):
    assert main(["verify", "--sweep", "--seed", str(seed)]) == 0
    return _sha256(capsys.readouterr().out.encode())


def test_verify_sweep_bytes(capsys):
    assert _sweep_digest(capsys, 0) == SWEEP_SHA256[0]


def test_verify_sweep_seed_1_bytes(capsys):
    assert _sweep_digest(capsys, 1) == SWEEP_SHA256[1]


def _dense_digest(field):
    digest = hashlib.sha256()
    for shape in range(len(workloads.DENSE_SHAPES)):
        for variant in range(workloads.DENSE_VARIANTS):
            cfg = parse_config(workloads.dense_config(shape, variant, field))
            digest.update(render_report(build_report(cfg)).encode())
    return digest.hexdigest()


def test_dense_report_bytes():
    assert _dense_digest("exact") == DENSE_REPORTS_SHA256["exact"]


def test_dense_float_report_bytes():
    assert _dense_digest("float") == DENSE_REPORTS_SHA256["float"]


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def in_floats(value):
    """A report section with every "p" or "p/q" string replaced by its float."""
    if isinstance(value, dict):
        return {key: in_floats(v) for key, v in value.items()}
    if isinstance(value, list):
        return [in_floats(v) for v in value]
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return float(Fraction(value))
    return value


def assert_float_report_is_the_exact_report_in_floats(exact_config: str):
    doc = json.loads(exact_config)
    exact = build_report(parse_config(json.dumps({**doc, "field": "exact"})))
    floating = build_report(parse_config(json.dumps({**doc, "field": "float"})))
    assert floating["config"] == {**exact["config"], "field": "float"}
    assert floating["flags"] == exact["flags"]
    assert list(floating) == list(exact)
    for key in exact:
        if key not in ("config", "flags"):
            # As JSON text, so that 0 and 0.0, or 0.0 and -0.0, differ.
            assert json.dumps(floating[key]) == json.dumps(in_floats(exact[key])), key


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_float_report_is_the_exact_report_in_floats(name):
    assert_float_report_is_the_exact_report_in_floats(fixture_text(name))


@pytest.mark.parametrize("shape", range(len(workloads.DENSE_SHAPES)))
def test_dense_float_report_is_the_exact_report_in_floats(shape):
    config = workloads.dense_config(shape, shape % workloads.DENSE_VARIANTS, "exact")
    assert_float_report_is_the_exact_report_in_floats(config)


def assert_rounded_once(got, value, radicand=Fraction(1)):
    """``got`` is within half an ulp of value / sqrt(radicand), computed to 80 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        want = Decimal(value.numerator) / Decimal(value.denominator)
        want /= (Decimal(radicand.numerator) / Decimal(radicand.denominator)).sqrt()
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(got)) / 2, (got, value, radicand)


def _square_norm(vector) -> Fraction:
    return sum(c * c for c in vector)


def assert_printed_floats_rounded_once(config: str) -> int:
    """Check every square-root float of the report of ``config``; returns how many it checked."""
    cfg = parse_config(config)
    doc = build_report(cfg)
    a = analyze(cfg.coeffs, cfg.spec).climb(_complete, lower_truncations)
    e_t = a.factors.tangent.constant_vector()
    n0 = a.factors.normal.constant_vector()
    e2, n2 = _square_norm(e_t), _square_norm(n0)
    checked = []

    def check(got, value, radicand=Fraction(1)):
        assert_rounded_once(got, Fraction(value), Fraction(radicand))
        checked.append(got)

    # The limiting tangent is E_t(0) / |E_t(0)|.
    for got, c in zip(doc["tangency"]["limiting_tangent"], e_t):
        check(got, c, e2)
    if a.invariants is not None:
        inv, c0, a02 = a.invariants, a.spec.c[0], cfg.coeffs.a02
        s = 1 if a02 > 0 else -1
        projection, contour = doc["verdicts"]["projection"], doc["verdicts"]["contour"]
        check(projection["unit_coeff_along_b"], s * inv.A / 3, 4 * c0 * c0 + a02 * a02)
        check(projection["unit_coeff_along_n"], -s * inv.B / 3)
        check(contour["coefficient"], s * inv.C, (4 * c0 * c0 + a02 * a02) * n2)
    d = a.developable
    if d is not None:
        printed = doc["developable"]
        r_top = valuation(d.delta).leading if d.delta_order is not None else None
        if r_top is not None:
            check(printed["delta_top"], r_top / (e2 * e2 * n2 * n2), n2)
        if d.sigma_order is not None:
            vv0 = _square_norm(d.director.constant_vector())
            check(printed["sigma_top"], valuation(d.sigma).leading / (r_top * r_top), vv0)
        cls = d.classification
        if cls.E_scaled is not None:
            check(printed["classification"]["E_coeff"], cls.E_scaled / (e2 * n2), e2 * n2)
            check(printed["classification"]["F_coeff"], cls.F_scaled / (e2 * n2), e2 * n2)
    return len(checked)


def test_printed_floats_are_rounded_once():
    configs = [fixture_text(name) for name in ("s1", "s2", "s3")] + [
        workloads.dense_config(shape, variant, "exact")
        for shape in range(len(workloads.DENSE_SHAPES))
        for variant in range(workloads.DENSE_VARIANTS)
    ]
    assert sum(map(assert_printed_floats_rounded_once, configs)) > 0
