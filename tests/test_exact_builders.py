"""Differential tests: the integer-numerator builders against their Fraction originals.

``build_umbrella`` and ``build_curve`` build integer numerators over one
denominator, ``valuation`` of a vector builds one leading ``Fraction`` and
``curvature_numerators`` reads the shared cross product N x E_t.  Each must return
exactly what its original in ``tests/reference.py`` returns: the same
canonical numerator / denominator pair, the same reliable order, the same
leading coefficient and, for every ``BiSeries``, the same key order.  The
inputs are the bundled fixtures, the 128 dense jets of the benchmark's
universe, the draws of ``verify --sweep --seed 0`` to ``--seed 3``, and
drawn jets and curves whose multiplicity or first exponent may exceed the
order the curve is built to.

``normal_field_raw`` substitutes W_u and W_v first and crosses them as series
in x; it must equal the normal taken bivariate first
(``reference_normal_field_raw``: W_u x W_v in the reference ring, then
substituted), values and reliable orders, on every dense jet at its
truncation and at rung 5, on drawn sparse jets, on the general curve of
``tests/output_digests.py`` and on a truncation-3 jet.
"""

import json
import random
from fractions import Fraction

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)
from hypothesis import example, given, settings, strategies as st

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, parse_config
from crosscap.cli import fixture_names, fixture_text
from crosscap.frame import FrameError, curvature_numerators, frame_factors
from crosscap.model import build_curve, build_umbrella, image_curve, normal_field_raw, series_order
from crosscap.series import BiSeries, SeriesError, UniSeries, valuation
from crosscap.verify import SUBCASES, _draw_fixture
from output_digests import GENERAL_CURVE
from reference import (
    reference_bi_coeffs,
    reference_build_curve,
    reference_build_umbrella,
    reference_curvature_numerators,
    reference_normal_field_raw,
    reference_vector_valuation,
)


def assert_same_uni(got: UniSeries, want: UniSeries):
    assert (got._num, got._den, got.reliable_order) == (want._num, want._den, want.reliable_order)
    assert got.coeffs == want.coeffs
    assert valuation(got) == valuation(want)


def assert_same_bi(got: BiSeries, want: BiSeries):
    assert (got._num, got._den, got.reliable_order) == (want._num, want._den, want.reliable_order)
    assert list(got._num) == list(want._num)
    assert list(reference_bi_coeffs(got).items()) == list(reference_bi_coeffs(want).items())


def assert_builders_agree(coeffs: UmbrellaCoefficients, spec, order: int):
    """The builders, the vector valuations and the numerators of one jet and curve."""
    W, want_W = build_umbrella(coeffs), reference_build_umbrella(coeffs)
    for got, want in zip(W.components, want_W.components):
        assert_same_bi(got, want)
    curve, want_curve = build_curve(spec, order), reference_build_curve(spec, order)
    for got, want in zip(curve, want_curve):
        assert_same_uni(got, want)
    image, raw = image_curve(W, *curve), normal_field_raw(W, *curve)
    vectors = [image, raw] + ([image.diff()] if image.reliable_order >= 1 else [])
    for vec in vectors:
        assert valuation(vec) == reference_vector_valuation(vec)
    try:
        factors = frame_factors(image, raw)
        numerators = reference_curvature_numerators(factors)
    except (FrameError, SeriesError):
        return
    cross = factors.normal.cross(factors.tangent)
    for got, want in zip(curvature_numerators(factors, cross), numerators):
        assert_same_uni(got, want)


def assert_config_agrees(cfg):
    assert_builders_agree(cfg.coeffs, cfg.spec, series_order(cfg.spec.m, cfg.coeffs.degree))


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures(name):
    assert_config_agrees(parse_config(fixture_text(name)))


@pytest.mark.parametrize("shape", range(len(workloads.DENSE_SHAPES)))
def test_dense_jets(shape):
    for variant in range(workloads.DENSE_VARIANTS):
        assert_config_agrees(parse_config(workloads.dense_config(shape, variant, "exact")))


@pytest.mark.parametrize("seed", range(4))
def test_sweep_draws(seed):
    # The draws of ``run_sweep(seed)`` at its default of 10 draws per subcase.
    for subcase in SUBCASES:
        rng = random.Random((seed, subcase).__repr__())
        for _ in range(10):
            drawn = _draw_fixture(rng, subcase)
            coeffs, spec = drawn.coeffs, drawn.spec
            assert_builders_agree(coeffs, spec, series_order(spec.m, coeffs.degree))


RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
NONZERO = RATIONALS.filter(bool)


@st.composite
def jets(draw):
    """A normal-form jet of truncation 3..7 with drawn terms, zeros included."""
    k = draw(st.integers(3, 7))
    keys = [(i, s - i) for s in range(2, k + 1) for i in range(s + 1)]
    a = draw(st.dictionaries(st.sampled_from(keys), RATIONALS, max_size=8))
    a[(0, 2)] = draw(NONZERO)
    b = draw(st.dictionaries(st.integers(3, k), RATIONALS, max_size=3))
    return UmbrellaCoefficients(k, a, b)


@st.composite
def family_curves(draw):
    """A family curve, and an order from 0 up, that may cut below x^m or x^{first exponent}."""
    c = [draw(NONZERO)] + draw(st.lists(RATIONALS, max_size=4))
    if draw(st.booleans()):
        m = draw(st.integers(2, 5))
        spec = FamilyMPQ(m=m, p=draw(st.integers(1, 3)), q=draw(st.integers(1, m - 1)), c=tuple(c))
        first_exponent = spec.m * spec.p + spec.q
    else:
        spec = FamilyMP(m=draw(st.integers(1, 5)), p=draw(st.integers(2, 4)), c=tuple(c))
        first_exponent = spec.m * spec.p
    return spec, draw(st.integers(0, 3 * first_exponent))


@settings(deadline=None, max_examples=60)
@given(jets(), family_curves())
@example(UmbrellaCoefficients(3, {(0, 2): 2}, {}), (FamilyMP(m=4, p=2, c=(Fraction(1, 2),)), 3))  # m > order
@example(
    UmbrellaCoefficients(4, {(0, 2): Fraction(1, 3), (2, 0): 2, (1, 1): 0}, {3: 6, 4: Fraction(-24, 5)}),
    (FamilyMPQ(m=2, p=2, q=1, c=(Fraction(1, 6), Fraction(5, 4))), 4),  # first exponent 5 > order
)
@example(UmbrellaCoefficients(5, {(0, 2): 1}, {}), (FamilyMP(m=1, p=2, c=(3, Fraction(2, 3))), 0))
def test_drawn_jets_and_curves(coeffs, curve):
    spec, order = curve
    assert_builders_agree(coeffs, spec, order)


def test_general_curves_are_cut_as_before(s1_coeffs):
    cfg = parse_config(
        json.dumps(
            {
                "truncation": 6,
                "surface": {"a": {"0,2": "1", "1,1": "1/2"}},
                "curve": {"family": "general", "c1": [0, 0, "1/3", 1], "c2": [0, 2, 0, "-1/5"]},
            }
        )
    )
    for order in (1, 3, 9):
        assert_builders_agree(s1_coeffs, cfg.spec, order)


def assert_normal_is_bivariate_first(coeffs: UmbrellaCoefficients, spec, order: int):
    W, curve = build_umbrella(coeffs), build_curve(spec, order)
    got, want = normal_field_raw(W, *curve), reference_normal_field_raw(W, *curve)
    for got_c, want_c in zip(got.components, want.components):
        assert (got_c, got_c.reliable_order) == (want_c, want_c.reliable_order)


@pytest.mark.parametrize("shape", range(len(workloads.DENSE_SHAPES)))
def test_the_raw_normal_is_the_bivariate_first_normal_on_dense_jets(shape):
    for variant in range(workloads.DENSE_VARIANTS):
        cfg = parse_config(workloads.dense_config(shape, variant, "exact"))
        for k in (cfg.coeffs.degree, 5):
            assert_normal_is_bivariate_first(cfg.coeffs.truncated(k), cfg.spec, series_order(cfg.spec.m, k))


@settings(deadline=None, max_examples=60)
@given(jets(), family_curves())
@example(UmbrellaCoefficients(3, {(0, 2): 2, (2, 0): Fraction(-1, 3)}, {3: 1}), (FamilyMP(m=2, p=2, c=(1, 2)), 7))
def test_the_raw_normal_is_the_bivariate_first_normal_on_drawn_jets(coeffs, curve):
    spec, order = curve
    assert_normal_is_bivariate_first(coeffs, spec, order)


@pytest.mark.parametrize(
    "doc",
    [GENERAL_CURVE, {**json.loads(fixture_text("s1")), "truncation": 3}],
    ids=["general-curve", "s1-truncation-3"],
)
def test_the_raw_normal_is_the_bivariate_first_normal_on_a_general_curve_and_at_truncation_3(doc):
    cfg = parse_config(json.dumps(doc))
    assert_normal_is_bivariate_first(cfg.coeffs, cfg.spec, series_order(cfg.spec.m, cfg.coeffs.degree))
