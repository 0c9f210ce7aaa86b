import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.series import (
    SeriesError,
    SignedRoot,
    UniSeries,
    compose_bi,
    factor_power,
    nearest_float,
    reciprocal,
    sqrt_series,
    valuation,
)
from reference import (
    exact_vec3,
    float_series,
    float_vec3,
    over_sqrt,
    reference_bi_add,
    reference_bi_make,
    reference_evaluate,
    reference_reciprocal,
    unit,
)


def exact(coeffs, reliable=None):
    return UniSeries.make(coeffs, reliable)


def flt(coeffs, reliable=None):
    return float_series(coeffs, reliable)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    a = exact([1, 1], 5)
    b = exact([1, -1], 5)
    assert (a * b).coeffs == (1, 0, -1, 0, 0, 0)


def test_derivative_of_monomial_drops_reliability():
    a = exact([0, 0, 0, 1], 7)
    d = a.diff()
    assert d.coeffs[:4] == (0, 0, 3, 0)
    assert d.reliable_order == 6


def test_truncated_product_keeps_min_reliability():
    a = exact([2, 3], 1)          # 2 + 3x + O(x^2)
    b = exact([2], 2)             # 2 + O(x^3)
    p = a * b
    assert p.reliable_order == 1
    assert p.coeffs == (4, 6)


def test_field_mismatch_rejected():
    with pytest.raises(SeriesError, match="field mismatch"):
        exact([1]) * flt([1.0])


def test_exact_rejects_floats():
    with pytest.raises(SeriesError):
        exact([0.5])


def test_coefficient_beyond_reliable_order_is_an_error():
    a = exact([1, 2, 3])
    assert a.coefficient(2) == 3
    with pytest.raises(SeriesError, match="reliable"):
        a.coefficient(3)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_ring_axioms(xs, ys, zs):
    a, b, c = exact(xs, 6), exact(ys, 6), exact(zs, 6)
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(xs):
    a = exact(xs, 6)
    b = exact(list(reversed(xs)), 6)
    lhs = (a * b).diff()
    rhs = a.diff() * b + a * b.diff()
    assert lhs.coeffs == rhs.coeffs[: lhs.reliable_order + 1]


def test_exact_evaluation_commutes_with_ring_ops():
    rng = random.Random(7)
    for _ in range(20):
        a = exact([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)])
        b = exact([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)])
        x = Fraction(rng.randint(-2, 2), rng.randint(3, 7))
        # polynomial data: products agree exactly after truncation is removed
        full = [Fraction(0)] * 9
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                full[i + j] += ca * cb
        assert sum(c * x**k for k, c in enumerate(full)) == reference_evaluate(a, x) * reference_evaluate(b, x)
        assert reference_evaluate(a + b, x) == reference_evaluate(a, x) + reference_evaluate(b, x)


# ---------------------------------------------------------------------------
# reciprocal / sqrt: the exact inverse is the tests' reference_reciprocal, the
# float one and the square root are the library's
# ---------------------------------------------------------------------------


def test_reciprocal_geometric_series():
    a = exact([1, -1], 6)
    assert reference_reciprocal(a).coeffs == (1, 1, 1, 1, 1, 1, 1)


def test_reciprocal_of_constant_is_exact():
    a = exact([2], 3)
    assert reference_reciprocal(a).coeffs == (Fraction(1, 2), 0, 0, 0)


def test_reciprocal_long_division():
    a = exact([4, 12], 2)
    assert reference_reciprocal(a).coeffs == (Fraction(1, 4), Fraction(-3, 4), Fraction(9, 4))


def test_reciprocal_times_self_is_one():
    rng = random.Random(3)
    for _ in range(10):
        a = exact([Fraction(rng.randint(1, 5))] + [Fraction(rng.randint(-4, 4)) for _ in range(5)])
        p = a * reference_reciprocal(a)
        assert p.coeffs == (1,) + (0,) * (p.reliable_order)


def test_reciprocal_requires_unit():
    with pytest.raises(SeriesError, match="constant term"):
        reference_reciprocal(exact([0, 1]))
    with pytest.raises(SeriesError, match="constant term"):
        reciprocal(flt([0.0, 1.0]))


def test_sqrt_of_constant():
    assert sqrt_series(flt([4.0], 3)).coeffs == (2.0, 0.0, 0.0, 0.0)


def test_sqrt_binomial_series():
    s = sqrt_series(flt([1.0, 2.0], 4))
    expected = (1.0, 1.0, -0.5, 0.5, -0.625)
    assert all(abs(a - b) < 1e-12 for a, b in zip(s.coeffs, expected))


def test_sqrt_squares_back():
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.uniform(0.5, 2.0)] + [rng.uniform(-1, 1) for _ in range(6)]
        a = flt(coeffs)
        err = sqrt_series(a) * sqrt_series(a) - a
        assert all(abs(c) < 1e-12 for c in err.coeffs)


def test_sqrt_exact_field_rejected():
    with pytest.raises(SeriesError, match="FLOAT"):
        sqrt_series(exact([4]))


def test_sqrt_requires_positive_constant():
    with pytest.raises(SeriesError, match="positive"):
        sqrt_series(flt([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# valuation / factor_power
# ---------------------------------------------------------------------------


def test_valuation_basic():
    v = valuation(exact([0, 0, 3, 0, 5]))
    assert (v.order, v.leading) == (2, 3)


def test_valuation_zero_to_order():
    v = valuation(exact([], 6))
    assert v.is_zero_to_order
    assert v.order is None
    assert v.reliable_order == 6


def test_factor_power():
    a = exact([0, 0, 0, 1, 1], 4)
    f = factor_power(a, 3)
    assert f.coeffs == (1, 1)
    assert f.reliable_order == 1


def test_factor_power_valuation_guard():
    with pytest.raises(SeriesError, match="valuation smaller"):
        factor_power(exact([0, 0, 1], 5), 3)


def test_valuation_and_factor_power_are_exact_only():
    # No order is decided on a float series.
    a = flt([1e-12, 1e-11, 2.0, 3.0])
    with pytest.raises(SeriesError, match="EXACT"):
        valuation(a)
    with pytest.raises(SeriesError, match="EXACT"):
        factor_power(a, 2)


# ---------------------------------------------------------------------------
# SignedRoot: value / sqrt(radicand), rounded only by float
# ---------------------------------------------------------------------------

RATIONALS = st.fractions(max_denominator=10**40).filter(lambda q: q != 0)


def root_float(value, radicand):
    return float(SignedRoot.of(value, radicand))


@settings(deadline=None)
@given(RATIONALS, RATIONALS.map(abs))
def test_over_sqrt_rounds_to_the_nearest_float(value, radicand):
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        want = (Decimal(value.numerator) / Decimal(value.denominator)) / (
            Decimal(radicand.numerator) / Decimal(radicand.denominator)
        ).sqrt()
        got = root_float(value, radicand)
        assert abs(Decimal(got) - want) <= Decimal(math.ulp(got)) / 2


@pytest.mark.parametrize(
    "value, radicand, want",
    [
        (Fraction(8 * 2**1000), Fraction(2**2000), 8.0),  # the radicand alone passes the float range
        (Fraction(3, 2**1000), Fraction(1, 2**2000), 3.0),  # the radicand alone underflows
        (Fraction(-1), Fraction(4), -0.5),
    ],
)
def test_over_sqrt_scales_the_radicand(value, radicand, want):
    assert SignedRoot.of(value, radicand) == SignedRoot(int(math.copysign(1, want)), Fraction(want) ** 2)
    assert root_float(value, radicand) == want


def test_over_sqrt_refuses_a_quotient_beyond_the_float_range():
    huge = SignedRoot.of(Fraction(10**400), Fraction(1))  # exact, in range or not
    assert huge == SignedRoot(1, Fraction(10**800))
    with pytest.raises(OverflowError):
        float(huge)


def test_over_sqrt_and_nearest_float_refuse_a_nonzero_value_below_the_float_range():
    for tiny in (Fraction(1, 10**400), Fraction(-1, 2**1076)):
        with pytest.raises(OverflowError):
            root_float(tiny, Fraction(1))
        with pytest.raises(OverflowError):
            nearest_float(tiny)
    # The smallest subnormal and zero itself are in range.
    assert root_float(Fraction(1, 2**1074), Fraction(1)) == nearest_float(Fraction(1, 2**1074)) == 5e-324
    assert root_float(Fraction(0), Fraction(3)) == nearest_float(Fraction(0)) == 0.0


def _float_or_error(compute):
    """``compute()``'s float as ``float.hex``, or the type and text of its error."""
    try:
        return compute().hex()
    except OverflowError as exc:
        return type(exc), str(exc)


WIDE_RATIONALS = st.builds(
    lambda n, d, e: Fraction(n, d) * Fraction(2) ** e,
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.integers(-1200, 1200),
)


@settings(deadline=None)
@given(WIDE_RATIONALS, WIDE_RATIONALS.filter(lambda q: q != 0).map(abs))
def test_signed_root_float_is_the_float_over_sqrt_rounded(value, radicand):
    # Bit for bit, and the same refusal beyond the float range either way;
    # over a unit radicand, the float is the rational's own.
    got = _float_or_error(lambda: float(SignedRoot.of(value, radicand)))
    assert got == _float_or_error(lambda: over_sqrt(value, radicand))
    unit_radicand = _float_or_error(lambda: float(SignedRoot.of(value, 1)))
    assert unit_radicand == _float_or_error(lambda: nearest_float(value))


@settings(deadline=None)
@given(WIDE_RATIONALS, WIDE_RATIONALS.filter(lambda q: q != 0).map(abs), RATIONALS, WIDE_RATIONALS)
def test_signed_roots_are_equal_exactly_when_signs_and_squares_are(value, radicand, scale, other):
    a = SignedRoot.of(value, radicand)
    assert (a.sign == 0) == (a.square == 0) == (value == 0) and a.square >= 0
    # The same real number from another quotient: v t / sqrt(r t^2) for t > 0.
    t = abs(scale)
    same = SignedRoot.of(value * t, radicand * t * t)
    assert same == a and hash(same) == hash(a)
    # Equal to its negative, or to another value over the same root, only where
    # the sign and the square agree.
    for b in (SignedRoot.of(-value, radicand), SignedRoot.of(other, radicand)):
        assert (a == b) == (a.sign == b.sign and a.square == b.square)
        assert (a == b) == (value * value == b.square * radicand and (value > 0) - (value < 0) == b.sign)


BIG = 10**100
#: Zero, small and negative rationals, and numerators and denominators of up to 100 digits.
ANY_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
RADICANDS = st.one_of(
    st.integers(1, BIG),
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.fractions(min_value=0, max_value=20, max_denominator=36).filter(lambda q: q > 0),
)


@settings(deadline=None, max_examples=300)
@given(ANY_RATIONALS, RADICANDS)
def test_signed_root_of_is_the_rational_quotient(value, radicand):
    # The square built from the four integers is the reduced value^2 / radicand.
    got = SignedRoot.of(value, radicand)
    want = SignedRoot((value > 0) - (value < 0), value * value / radicand)
    assert type(got.sign) is int and type(got.square) is Fraction
    assert (got.sign, got.square) == (want.sign, want.square)
    assert got.square.denominator > 0 and math.gcd(got.square.numerator, got.square.denominator) == 1


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_monomial_substitution():
    F = reference_bi_make({(1, 1): 1}, 4)
    u = exact([0, 0, 1], 8)
    v = exact([0, 1], 8)
    out = compose_bi(F, u, v)
    assert valuation(out).order == 3
    assert out.coefficient(3) == 1


def test_compose_tail_reliability():
    # F = v^2 known to total degree 2: the discarded O(u,v)^3 tail can feed
    # x^3 terms, so the composition is reliable exactly to order 2.
    F = reference_bi_make({(0, 2): 1}, 2)
    u = exact([], 8)
    v = exact([0, 1], 8)
    out = compose_bi(F, u, v)
    assert out.reliable_order == 2
    assert out.coeffs == (0, 0, 1)


def test_compose_quadratic_curve_tail():
    # substituting series of valuation 2 pushes the tail to degree 2*(R_F+1)
    F = reference_bi_make({(0, 2): 1}, 2)
    v = exact([0, 0, 1], 8)
    u = exact([], 8)
    assert compose_bi(F, u, v).reliable_order == 5


def test_compose_surface_component():
    F = reference_bi_make({(1, 1): 1, (0, 2): 1}, 5)
    u = exact([0, 0, 1], 11)
    v = exact([0, 1], 11)
    out = compose_bi(F, u, v)
    assert out.coeffs[:5] == (0, 0, 1, 1, 0)


def test_compose_requires_vanishing_constant():
    F = reference_bi_make({(1, 0): 1}, 3)
    with pytest.raises(SeriesError, match="u\\(0\\) = 0"):
        compose_bi(F, exact([1]), exact([0, 1]))


def test_compose_matches_direct_monomial_expansion():
    # 20 random monomials: the composition agrees coefficientwise with the
    # exact polynomial product u^i v^j through its reliable order.
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        if i == j == 0:
            continue
        c = Fraction(rng.randint(-3, 3) or 1)
        F = reference_bi_make({(i, j): c}, 4)
        u = exact([0, rng.randint(-2, 2), rng.randint(-2, 2)], 10)
        v = exact([0, rng.choice((-2, -1, 1, 2))], 10)
        if valuation(u).is_zero_to_order and valuation(v).is_zero_to_order:
            continue
        out = compose_bi(F, u, v)
        up = [Fraction(1)] + [Fraction(0)] * 24
        for _ in range(i):
            up = _poly_mul(up, list(u.coeffs))
        vp = [Fraction(1)] + [Fraction(0)] * 24
        for _ in range(j):
            vp = _poly_mul(vp, list(v.coeffs))
        prod = _poly_mul(up, vp)
        for k in range(out.reliable_order + 1):
            assert out.coeffs[k] == c * prod[k]
        checked += 1


def test_compose_linear_in_surface():
    u = exact([0, 1, 2], 10)
    v = exact([0, -1], 10)
    F1 = reference_bi_make({(1, 1): 2, (0, 2): 1}, 4)
    F2 = reference_bi_make({(2, 0): -1, (0, 3): 3}, 4)
    lhs = compose_bi(reference_bi_add(F1, F2), u, v)
    rhs = compose_bi(F1, u, v) + compose_bi(F2, u, v)
    assert lhs.coeffs == rhs.coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * 25
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j < 25 and cb != 0:
                out[i + j] += ca * cb
    return out


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


def test_basis_cross_product():
    e1 = exact_vec3([1], [0], [0], 3)
    e2 = exact_vec3([0], [1], [0], 3)
    out = e1.cross(e2)
    assert out.constant_vector() == (0, 0, 1)


def test_norm_sq_tangent_factor():
    v = exact_vec3([2], [0, 3], [2, 3], 2)
    assert v.norm_sq().coeffs == (8, 12, 18)


def test_triple_product_identities():
    rng = random.Random(1)
    for _ in range(15):
        a = exact_vec3(
            [rng.randint(-3, 3) for _ in range(3)],
            [rng.randint(-3, 3) for _ in range(3)],
            [rng.randint(-3, 3) for _ in range(3)],
            4,
        )
        b = exact_vec3(
            [rng.randint(-3, 3) for _ in range(3)],
            [rng.randint(-3, 3) for _ in range(3)],
            [rng.randint(-3, 3) for _ in range(3)],
            4,
        )
        ab = a.cross(b)
        assert all(c == 0 for c in ab.dot(a).coeffs)
        assert all(c == 0 for c in ab.dot(b).coeffs)
        lagrange = ab.norm_sq() - (a.norm_sq() * b.norm_sq() - a.dot(b) * a.dot(b))
        assert all(c == 0 for c in lagrange.coeffs)


def test_vector_factor_componentwise():
    v = exact_vec3([0, 2], [0, -2, -1], [0, 0, 1], 4)
    val = valuation(v)
    assert val.order == 1
    f = factor_power(v, 1)
    assert f.x.coeffs[:2] == (2, 0)
    assert f.y.coeffs[:2] == (-2, -1)
    assert f.z.coeffs[:2] == (0, 1)


def test_vector_valuation_is_exact_only():
    with pytest.raises(SeriesError):
        valuation(float_vec3([0.0, 1.0], [0.0], [0.0], 2))


def test_unit_vector_orthonormality():
    v = float_vec3([2.0, 1.0], [0.0, 3.0], [2.0, 3.0, 1.0], 6)
    u = unit(v)
    ns = u.norm_sq()
    assert abs(ns.coeffs[0] - 1.0) < 1e-12
    assert all(abs(c) < 1e-12 for c in ns.coeffs[1:])


def test_reliability_monotone_through_pipeline():
    a = exact([1, 2, 3, 4], 3)
    b = exact([5, 6], 4)
    assert (a * b).reliable_order == 3  # min rule
    assert (a + b).reliable_order == 3
    assert a.diff().reliable_order == 2
    assert factor_power(exact([0, 1, 1], 5), 1).reliable_order == 4
    assert reciprocal(b.to_float()).reliable_order == 4
