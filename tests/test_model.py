import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap import (
    FamilyMP,
    FamilyMPQ,
    GeneralCurve,
    UmbrellaCoefficients,
    analyze,
    parse_config,
)
from crosscap.config import ConfigError
from crosscap.series import SignedRoot, UniSeries
from crosscap.model import (
    ModelError,
    build_curve,
    build_umbrella,
    classify_tangency,
    curve_multiplicity,
    image_curve,
    normal_field_raw,
    series_order,
)
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)
from conftest import random_family, random_surface
from output_digests import GENERAL_CURVE
from reference import reference_bi_coeffs, reference_limiting_tangent


def bicoeff(W, comp, i, j):
    return reference_bi_coeffs(W.components[comp]).get((i, j), 0)


# ---------------------------------------------------------------------------
# surface construction
# ---------------------------------------------------------------------------


def test_standard_cross_cap():
    co = UmbrellaCoefficients(degree=4, a={(0, 2): 2}, b={})
    W = build_umbrella(co)
    assert bicoeff(W, 0, 1, 0) == 1
    assert bicoeff(W, 1, 1, 1) == 1
    assert bicoeff(W, 2, 0, 2) == 1  # a02 / 2! = 1
    assert all(c == 0 for c in reference_bi_coeffs(W.y).values() if c != bicoeff(W, 1, 1, 1))


def test_surface_with_mixed_term():
    co = UmbrellaCoefficients(degree=5, a={(0, 2): 2, (1, 1): 1}, b={})
    W = build_umbrella(co)
    assert bicoeff(W, 2, 0, 2) == 1
    assert bicoeff(W, 2, 1, 1) == 1  # a11 / (1! 1!)


def test_cubic_second_component():
    co = UmbrellaCoefficients(degree=5, a={(0, 2): 2}, b={3: 6})
    W = build_umbrella(co)
    assert bicoeff(W, 1, 0, 3) == 1  # b3 / 3! = 1


def test_a02_required():
    with pytest.raises(ModelError, match="a_02"):
        UmbrellaCoefficients(degree=4, a={(0, 2): 0, (1, 1): 1}, b={})


def test_index_bounds():
    with pytest.raises(ModelError, match="outside"):
        UmbrellaCoefficients(degree=4, a={(0, 2): 1, (0, 5): 1}, b={})
    with pytest.raises(ModelError, match="outside"):
        UmbrellaCoefficients(degree=4, a={(0, 2): 1}, b={2: 1})


_VALUES = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def jets(draw):
    """A valid jet, zero entries included (the constructor drops them), in a drawn key order."""
    k = draw(st.integers(3, 10))
    a_keys = [(i, n - i) for n in range(2, k + 1) for i in range(n + 1) if (i, n - i) != (0, 2)]
    a = {key: draw(_VALUES) for key in draw(st.lists(st.sampled_from(a_keys), unique=True))}
    a[(0, 2)] = draw(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool))
    b = {i: draw(_VALUES) for i in draw(st.lists(st.integers(3, k), unique=True))}
    return UmbrellaCoefficients(k, a, b)


@settings(max_examples=150, deadline=None)
@given(jets(), st.integers(0, 13))
def test_a_cut_jet_equals_the_validated_cut(coeffs, degree):
    # ``truncated`` skips the constructor's checks; it must still give what
    # the constructor gives for the kept entries, in their key order, and
    # refuse a degree below 3 as the constructor does.
    a = {key: value for key, value in coeffs.a.items() if sum(key) <= degree}
    b = {i: value for i, value in coeffs.b.items() if i <= degree}
    if degree < 3:
        for make in (lambda: coeffs.truncated(degree), lambda: UmbrellaCoefficients(degree, a, b)):
            with pytest.raises(ModelError, match="must be >= 3"):
                make()
        return
    cut, validated = coeffs.truncated(degree), UmbrellaCoefficients(degree, a, b)
    assert type(cut) is UmbrellaCoefficients and cut == validated
    assert (list(cut.a.items()), list(cut.b.items())) == (list(validated.a.items()), list(validated.b.items()))


# ---------------------------------------------------------------------------
# curve construction
# ---------------------------------------------------------------------------


def test_parabolic_curve():
    c1, c2 = build_curve(FamilyMP(m=1, p=2, c=(1,)), 6)
    assert c1.coeffs == (0, 0, 1, 0, 0, 0, 0)
    assert c2.coeffs == (0, 1, 0, 0, 0, 0, 0)


def test_curve_with_linear_correction():
    c1, c2 = build_curve(FamilyMP(m=1, p=2, c=(1, -2)), 5)
    assert c1.coeffs == (0, 0, 1, -2, 0, 0)
    assert c2.coeffs == (0, 1, 0, 0, 0, 0)


def test_mpq_curve():
    c1, c2 = build_curve(FamilyMPQ(m=3, p=1, q=1, c=(1,)), 8)
    assert c1.coeffs[4] == 1
    assert sum(1 for c in c1.coeffs if c != 0) == 1
    assert c2.coeffs[3] == 1


def test_family_bounds():
    with pytest.raises(ModelError, match="q < m"):
        FamilyMPQ(m=2, p=1, q=2, c=(1,))
    with pytest.raises(ModelError, match="p >= 2"):
        FamilyMP(m=1, p=1, c=(1,))
    with pytest.raises(ModelError, match="c_0"):
        FamilyMP(m=1, p=2, c=(0, 1))


def test_general_curve_rank_two():
    ok = GeneralCurve(
        c1=(0, 1),
        c2=(0, 1, 1),
    )
    assert ok.c1 == (0, 1) and type(ok.c1[1]) is Fraction
    with pytest.raises(ModelError, match="rank-two"):
        GeneralCurve(
            c1=(0, 2, 4),
            c2=(0, 1, 2),
        )
    # Proportionality is decided on the whole polynomials, zero-padded:
    # trailing zeros do not matter, and a difference past any series order
    # makes the pair independent.
    with pytest.raises(ModelError, match="rank-two"):
        GeneralCurve(c1=(0, 2, 4, 0, 0), c2=(0, Fraction(1, 3), Fraction(2, 3)))
    assert GeneralCurve(c1=(0, 2, 4) + (0,) * 40 + (1,), c2=(0, 1, 2)).m == 1


def test_general_curve_is_validated_on_its_polynomials():
    with pytest.raises(ModelError, match="curve component c2 is zero"):
        GeneralCurve(c1=(0, 1), c2=(0, 0))
    with pytest.raises(ModelError, match="curve component c1 is zero"):
        GeneralCurve(c1=(), c2=(0, 1))
    with pytest.raises(ModelError, match="origin"):
        GeneralCurve(c1=(0, 1), c2=(Fraction(1, 2), 1))
    with pytest.raises(ModelError, match="not floats"):
        GeneralCurve(c1=(0, 0.5), c2=(0, 0, 1))
    # A component whose terms all lie past any series order is a curve.
    g = GeneralCurve(c1=(0,) * 12 + (1,), c2=(0, 1))
    assert g.m == 1 and analyze(UmbrellaCoefficients(4, {(0, 2): 1}, {}), g).tangency.case == 4


def test_curve_valuations_per_family():
    rng = random.Random(9)
    for _ in range(20):
        spec = random_family(rng)
        c1, c2 = build_curve(spec, 40)
        from crosscap.series import valuation

        v1, v2 = valuation(c1), valuation(c2)
        assert v2.order == spec.m
        if isinstance(spec, FamilyMPQ):
            assert v1.order == spec.m * spec.p + spec.q
        else:
            assert v1.order == spec.m * spec.p


# ---------------------------------------------------------------------------
# composition with the surface
# ---------------------------------------------------------------------------


def test_image_curve_s1(s1):
    img = s1.image
    assert img.x.coeffs[:5] == (0, 0, 1, 0, 0)
    assert img.y.coeffs[:5] == (0, 0, 0, 1, 0)
    assert img.z.coeffs[:5] == (0, 0, 1, 1, 0)


def test_image_curve_cross_cap():
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2}, b={})
    W = build_umbrella(co)
    c1, c2 = build_curve(FamilyMP(m=1, p=2, c=(1,)), 6)
    img = image_curve(W, c1, c2)
    assert img.x.coeffs[:4] == (0, 0, 1, 0)
    assert img.y.coeffs[:4] == (0, 0, 0, 1)
    assert img.z.coeffs[:4] == (0, 0, 1, 0)


def test_image_curve_s3(s3):
    img = s3.image
    assert img.x.coefficient(4) == 1
    assert img.y.coefficient(7) == 1
    assert img.z.coefficient(6) == 1
    assert img.z.coefficient(5) == 0


def test_normal_field_s1(s1):
    raw = s1.raw_normal
    assert raw.x.coeffs[:4] == (0, 0, 2, 0)
    assert raw.y.coeffs[:4] == (0, -2, -1, 0)
    assert raw.z.coeffs[:4] == (0, 0, 1, 0)


def test_normal_field_cross_cap_slanted_curve():
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2}, b={})
    W = build_umbrella(co)
    g = GeneralCurve(
        c1=(0, 1),
        c2=(0, 1, 1),
    )
    c1, c2 = build_curve(g, 12)
    raw = normal_field_raw(W, c1, c2)
    # (2v^2, -2v, u) along (x, x + x^2)
    assert raw.x.coeffs[:4] == (0, 0, 2, 4)
    assert raw.y.coeffs[:4] == (0, -2, -2, 0)
    assert raw.z.coeffs[:4] == (0, 1, 0, 0)


def test_normality_identity_on_random_fixtures():
    # <raw normal, image'> = 0 as an exact series, 50 random fixtures
    rng = random.Random(42)
    for _ in range(50):
        co = random_surface(rng)
        spec = random_family(rng)
        W = build_umbrella(co)
        order = series_order(spec.m, co.degree)
        c1, c2 = build_curve(spec, order)
        img = image_curve(W, c1, c2)
        raw = normal_field_raw(W, c1, c2)
        pairing = raw.dot(img.diff())
        assert all(c == 0 for c in pairing.coeffs)


# ---------------------------------------------------------------------------
# tangency classification
# ---------------------------------------------------------------------------


def test_case3_limiting_tangent_s1(s1_coeffs, s1_spec):
    t = analyze(s1_coeffs, s1_spec).tangency
    assert t.case == 3
    assert t.kind == "principal-plane"
    # Each component is 1/sqrt(2), which rounds once to 0.7071067811865476,
    # where 1 / math.sqrt(2) rounds twice and gives 0.7071067811865475.
    r = SignedRoot(1, Fraction(1, 2))
    assert t.limiting_tangent == (r, SignedRoot(0, Fraction(0)), r)
    assert tuple(map(float, t.limiting_tangent)) == (math.sqrt(0.5), 0.0, math.sqrt(0.5))


def test_case1_along_tangent_line():
    co = UmbrellaCoefficients(degree=5, a={(0, 2): 2}, b={})
    t = analyze(co, GeneralCurve(c1=(0, 1), c2=(0, 1, 0, 1))).tangency
    assert t.case == 1
    assert t.limiting_tangent == (SignedRoot(1, Fraction(1)), SignedRoot(0, Fraction(0)), SignedRoot(0, Fraction(0)))
    assert tuple(map(float, t.limiting_tangent)) == (1.0, 0.0, 0.0)
    assert t.kind == "tangent-line"


def test_case4_along_principal_intersection():
    co = UmbrellaCoefficients(degree=5, a={(0, 2): 2}, b={})
    spec = FamilyMP(m=1, p=5, c=(1,))
    t = analyze(co, spec).tangency
    assert t.case == 4
    assert t.limiting_tangent == (SignedRoot(0, Fraction(0)), SignedRoot(0, Fraction(0)), SignedRoot(1, Fraction(1)))
    assert tuple(map(float, t.limiting_tangent)) == (0.0, 0.0, 1.0)
    assert t.kind == "principal-intersection-line"


def test_case_mapping_per_family():
    rng = random.Random(4)
    for _ in range(30):
        co = random_surface(rng)
        spec = random_family(rng)
        t = analyze(co, spec).tangency
        if isinstance(spec, FamilyMPQ):
            assert t.case == (2 if spec.p == 1 else 4)
        elif spec.p == 2:
            assert t.case == 3
        else:
            assert t.case == 4


#: A curve of each tangency case, with its case.
TANGENCY_CASES = (
    (GeneralCurve(c1=(0, 0, 1), c2=(0, 1)), 3),
    (GeneralCurve(c1=(0, 0, 3), c2=(0, 0, 0, 1)), 1),
    (FamilyMPQ(m=3, p=1, q=1, c=(1,)), 2),
    (FamilyMP(m=2, p=3, c=(1,)), 4),
)


def test_tangency_is_read_from_the_spec(monkeypatch):
    # The case comes from the exact coefficient tuples: it needs no curve
    # series, only the limiting tangent reads E_t(0).
    monkeypatch.setattr(UniSeries, "make", None)
    for spec, case in TANGENCY_CASES:
        assert classify_tangency(spec, (1, 0, 0), 1).case == case


def test_limiting_tangent_matches_frame(s1, s2, s3):
    # The tangency's E_t(0) / |E_t(0)| is the unit vector that the four case
    # formulas write out from the curve's leading coefficients and a_02.
    co = UmbrellaCoefficients(degree=5, a={(0, 2): 2}, b={})
    analyses = [s1, s2, s3] + [analyze(co, spec) for spec, _ in TANGENCY_CASES]
    texts = [json.dumps(GENERAL_CURVE)]
    texts += [workloads.dense_config(shape, 0, "exact") for shape in range(len(workloads.DENSE_SHAPES))]
    analyses += [analyze(cfg.coeffs, cfg.spec) for cfg in map(parse_config, texts)]
    for a in analyses:
        t0 = a.factors.tangent.constant_vector()
        lt = a.tangency.limiting_tangent
        assert lt == reference_limiting_tangent(a.coeffs, a.spec), a.spec
        e0 = [float(c) / math.sqrt(sum(float(c) ** 2 for c in t0)) for c in t0]
        assert max(abs(p - float(q)) for p, q in zip(e0, lt)) < 1e-9
    assert len(analyses) == 3 + 4 + 1 + 16
    assert {a.tangency.case for a in analyses} == {1, 2, 3, 4}


def test_fixed_directions():
    co = UmbrellaCoefficients(degree=4, a={(0, 2): 2}, b={})
    t = analyze(co, FamilyMP(m=1, p=2, c=(1,))).tangency
    assert t.tangent_line_direction == (1.0, 0.0, 0.0)
    assert t.principal_intersection_direction == (0.0, 0.0, 1.0)
    assert t.null_vector == (0.0, 1.0)
    assert t.principal_plane_normal == (0.0, 1.0, 0.0)


def test_default_series_order_rule():
    # The series order is series_order(spec.m, k); a general curve's m is its
    # smaller component valuation, read from the components and not a field.
    assert series_order(FamilyMP(m=1, p=2, c=(1,)).m, 9) == 9
    assert series_order(FamilyMPQ(m=3, p=1, q=1, c=(1,)).m, 7) == 23
    g = GeneralCurve((0, 0, 0, 1), (0, 0, 1))
    assert g.m == 2 and g._fields == ("c1", "c2")


def test_one_multiplicity_rule_for_general_curves():
    # The smallest valuation over the components that vanish at 0 with a
    # nonzero jet: a component with a constant term or no nonzero term does
    # not count.
    assert curve_multiplicity([0, 0, 3], [0, 1]) == 1
    assert curve_multiplicity([0, 0, 0, 2], [0, 0, 1]) == 2
    assert curve_multiplicity([1, 1], [0, 0, 1]) == 2
    assert curve_multiplicity([0, 0], [0, 0, 5]) == 2
    assert curve_multiplicity([0], [0, 0]) is None
    assert curve_multiplicity([1], [0]) is None
    # The config parser sizes a general curve by the same rule that sets the
    # curve's m, for every accepted pair of coefficient lists.
    rng = random.Random(16)
    checked = 0
    for _ in range(500):
        lists = [[rng.choice((0, 0, 1, -2)) for _ in range(rng.randint(1, 6))] for _ in range(2)]
        doc = {"truncation": 4, "surface": {"a": {"0,2": "1"}}, "curve": {"family": "general"}}
        doc["curve"].update(c1=[str(c) for c in lists[0]], c2=[str(c) for c in lists[1]])
        try:
            cfg = parse_config(json.dumps(doc))
        except ConfigError:
            continue
        assert cfg.spec.m == curve_multiplicity(*lists) == curve_multiplicity(cfg.spec.c1, cfg.spec.c2)
        checked += 1
    assert checked >= 40
