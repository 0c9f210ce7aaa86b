"""Byte-identity gate: SHA-256 of CLI outputs that a refactor must not change.

The pinned digests, and the functions that recompute them, are in
``tests/output_digests.py``, which also runs without pytest
(``python3 tests/output_digests.py``).  A change that alters these bytes on
purpose records the new digests there and says why in CHANGES.md.

The float field prints the exact analysis with each rational of the result
sections as its float; ``test_float_report_is_the_exact_report_in_floats``
checks that contract value by value.  Each float the report computes from an
exact value over a square root is that value rounded once:
``test_printed_floats_are_rounded_once`` checks it against 80 digits.
"""

import decimal
import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
import workloads  # the benchmark's recorded input universe (bench/ is put on the path by conftest)

from crosscap import analyze, parse_config
from crosscap.cli import fixture_text
from crosscap.report import build_report
from crosscap.series import valuation
from output_digests import (
    DENSE_MESHES_SHA256,
    DENSE_REPORTS_SHA256,
    GENERAL_CURVE,
    MESH_SHA256,
    REPORT_SHA256,
    SWEEP_SHA256,
    dense_mesh_digest,
    dense_report_digest,
    mesh_digests,
    report_digest,
    sweep_digest,
)


@pytest.mark.parametrize("name, field", sorted(REPORT_SHA256))
def test_report_bytes(tmp_path, name, field):
    assert report_digest(str(tmp_path), name, field) == REPORT_SHA256[name, field]


@pytest.mark.parametrize("name", sorted(MESH_SHA256))
def test_mesh_bytes(tmp_path, name):
    assert mesh_digests(str(tmp_path), name) == MESH_SHA256[name]


def test_dense_mesh_bytes(tmp_path):
    assert dense_mesh_digest(str(tmp_path)) == DENSE_MESHES_SHA256


def test_verify_sweep_bytes():
    assert sweep_digest(0) == SWEEP_SHA256[0]


def test_verify_sweep_seed_1_bytes():
    assert sweep_digest(1) == SWEEP_SHA256[1]


def test_dense_report_bytes():
    assert dense_report_digest("exact") == DENSE_REPORTS_SHA256["exact"]


def test_dense_float_report_bytes():
    assert dense_report_digest("float") == DENSE_REPORTS_SHA256["float"]


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


def test_general_float_report_is_the_exact_report_in_floats():
    assert_float_report_is_the_exact_report_in_floats(json.dumps(GENERAL_CURVE))


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
    a = analyze(cfg.coeffs, cfg.spec).report_rung
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
