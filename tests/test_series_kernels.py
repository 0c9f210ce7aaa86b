"""Differential tests: the integer-numerator series kernels against Fraction loops.

Every ``UniSeries`` and ``BiSeries`` operation, ``valuation``,
``factor_power`` and ``compose_bi`` must return exactly what the
coefficient-by-coefficient loops of ``tests/reference.py`` return: equal
values, reduced ``Fraction`` coefficients and a canonical numerator /
denominator pair in the exact field, the same float bits in the float field,
and for a ``BiSeries`` the same key order.  A ``BiSeries`` and
``compose_bi`` are exact only.  ``compose_bi`` must match also when the
power tables kept on its substituted series were built by earlier
compositions.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscap.series import (
    BiSeries,
    Field,
    SeriesError,
    UniSeries,
    _valuation_lower_bound,
    compose_bi,
    factor_power,
    valuation,
)
from reference import (
    reference_add,
    reference_bi_add,
    reference_bi_diff_u,
    reference_bi_diff_v,
    reference_bi_make,
    reference_bi_neg,
    reference_bi_float_coeffs,
    reference_bi_sub,
    reference_bimul,
    reference_compose_bi,
    reference_diff,
    reference_factor_power,
    reference_mul,
    reference_neg,
    reference_scale,
    reference_shift,
    reference_sub,
    reference_to_float,
    reference_truncate,
    reference_valuation,
)

E, F = Field.EXACT, Field.FLOAT

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
)
FLOATS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-20, max_value=20, allow_nan=False, allow_subnormal=False),
)


def _values(field):
    return RATIONALS if field is E else FLOATS


def _zero(field):
    return Fraction(0) if field is E else 0.0


@st.composite
def uni(draw, field, max_order=14):
    cs = draw(st.lists(_values(field), min_size=1, max_size=max_order + 1))
    return UniSeries(field, tuple(cs), len(cs) - 1)


@st.composite
def bi(draw, max_order=6):
    r = draw(st.integers(0, max_order))
    keys = st.tuples(st.integers(0, r), st.integers(0, r)).filter(lambda k: k[0] + k[1] <= r)
    return BiSeries(E, draw(st.dictionaries(keys, RATIONALS, max_size=15)), r)


@st.composite
def substituted(draw, field):
    """A series with s(0) = 0 and valuation at least 1, often more."""
    r = draw(st.integers(1, 14))
    leading_zeros = draw(st.integers(1, 4))
    tail = draw(st.lists(_values(field), min_size=r + 1, max_size=r + 1))
    cs = [_zero(field)] * leading_zeros + tail
    return UniSeries(field, tuple(cs[: r + 1]), r)


def ex(*cs):
    return UniSeries(E, tuple(Fraction(c) for c in cs), len(cs) - 1)


def _assert_canonical(s: UniSeries):
    """An EXACT series is its numerators over one denominator, den > 0, gcd 1."""
    assert len(s._num) == s.reliable_order + 1
    assert all(type(n) is int for n in s._num)
    assert s._den > 0 and math.gcd(s._den, *s._num) == 1


def _assert_same_uni(got: UniSeries, want: UniSeries):
    assert got.field is want.field
    assert got.reliable_order == want.reliable_order
    if got.field is E:
        _assert_canonical(got)
        assert got == want
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)
    else:
        assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]
        assert all(type(c) is float for c in got.coeffs)


def _assert_canonical_bi(s: BiSeries):
    """An EXACT BiSeries is nonzero integer numerators, in its coeffs' key order, over one denominator."""
    assert list(s._num) == list(s.coeffs)
    assert all(type(n) is int and n != 0 for n in s._num.values())
    assert s._den > 0 and math.gcd(s._den, *s._num.values()) == 1


def _assert_same_bi(got: BiSeries, want: BiSeries):
    assert got.field is want.field is E
    assert got.reliable_order == want.reliable_order
    assert list(got.coeffs) == list(want.coeffs)  # same keys in the same order
    _assert_canonical_bi(got)
    assert got == want
    assert list(got.coeffs.values()) == list(want.coeffs.values())
    assert all(type(c) is Fraction and c != 0 for c in got.coeffs.values())


@settings(deadline=None)
@given(st.sampled_from((E, F)).flatmap(lambda f: st.tuples(uni(f), uni(f))))
@example((ex(Fraction(-1, 6), 0, Fraction(5, 4)), ex(0, Fraction(7, 9), -3, Fraction(1, 10))))
@example((ex(0, 0, 0), ex(Fraction(2, 3))))
def test_uni_mul_matches_fraction_loop(pair):
    a, b = pair
    _assert_same_uni(a * b, reference_mul(a, b))
    _assert_same_uni(b * a, reference_mul(b, a))


@settings(deadline=None)
@given(st.tuples(bi(), bi()))
@example((BiSeries(E, {}, 3), BiSeries(E, {(1, 0): Fraction(1, 2)}, 3)))
@example((BiSeries(E, {}, 0), BiSeries(E, {}, 4)))
@example(
    (
        BiSeries(E, {(0, 1): Fraction(-1, 3), (1, 0): Fraction(0), (1, 1): Fraction(5, 2)}, 4),
        BiSeries(E, {(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 7), (2, 2): Fraction(3)}, 5),
    )
)
def test_bi_mul_matches_fraction_loop(pair):
    a, b = pair
    _assert_same_bi(a * b, reference_bimul(a, b))


@settings(deadline=None)
@given(st.tuples(bi(), substituted(E), substituted(E)))
@example((BiSeries(E, {}, 3), ex(0, 1, 2), ex(0, 0, Fraction(1, 2))))
@example(
    (
        BiSeries(E, {(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5), (0, 3): Fraction(7)}, 3),
        ex(0, 0, Fraction(3, 2), 0, -1, 0, 0, 0, 0, 0, 0),
        ex(0, 0, 0, Fraction(-1, 4), 0, 0, Fraction(2, 3), 0, 0, 0, 0),
    )
)
def test_compose_bi_matches_fraction_loop(args):
    G, u, v = args
    _assert_same_uni(compose_bi(G, u, v), reference_compose_bi(G, u, v))


def _fresh(s: UniSeries) -> UniSeries:
    """The same series without the power table that compositions keep on it."""
    return UniSeries(s.field, s.coeffs, s.reliable_order)


@settings(deadline=None)
@given(st.tuples(bi(), bi(), substituted(E), substituted(E), st.booleans()))
@example(
    (
        BiSeries(E, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3)}, 1),
        BiSeries(E, {(3, 0): Fraction(2, 3), (2, 2): Fraction(5), (0, 4): Fraction(-1, 7)}, 4),
        ex(0, Fraction(1, 3), 2, 0, Fraction(-1, 5), 0, 0, 0, 0, 0),
        ex(0, 0, Fraction(3, 4), 1, 0, 0, Fraction(2, 9), 0, 0, 0),
        False,
    )
)
def test_compose_bi_reuses_the_power_tables_of_its_curves(args):
    # The tables kept on u and v grow with the highest power a composition
    # reads and are cut at their own reliable orders, not at the output
    # order of the composition that built them.
    G1, G2, u, v, same = args
    if same:
        v = u
    for order in ((G1, G2), (G2, G1)):
        u1 = _fresh(u)
        v1 = u1 if same else _fresh(v)
        for G in order + order:
            _assert_same_uni(compose_bi(G, u1, v1), reference_compose_bi(G, u, v))


def test_compose_bi_skips_terms_beyond_the_cut():
    # val u = 2, val v = 3, R_F = 3: r_out = 2 * 4 - 1 = 7, so the v^3 term
    # (x-degree 9) is cut while u and u^2 (x-degrees 2 and 4) contribute.
    G = BiSeries(E, {(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5), (0, 3): Fraction(7)}, 3)
    u = ex(0, 0, Fraction(3, 2), 0, -1, 0, 0, 0, 0, 0, 0)
    v = ex(0, 0, 0, Fraction(-1, 4), 0, 0, Fraction(2, 3), 0, 0, 0, 0)
    val_u, val_v = _valuation_lower_bound(u), _valuation_lower_bound(v)
    out = compose_bi(G, u, v)
    assert out.reliable_order == 7
    assert [ij for ij in G.coeffs if ij[0] * val_u + ij[1] * val_v > 7] == [(0, 3)]
    assert out == compose_bi(BiSeries(E, {(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5)}, 3), u, v)
    _assert_same_uni(out, reference_compose_bi(G, u, v))


@settings(deadline=None)
@given(st.tuples(bi(), bi()))
def test_bi_sum_and_derivatives_match_make(pair):
    # The internal results are built without re-coercion; ``make`` is the
    # constructor for outside input and must agree with them.
    a, b = pair
    r = min(a.reliable_order, b.reliable_order)
    merged = {k: c for k, c in a.coeffs.items() if sum(k) <= r}
    for k, c in b.coeffs.items():
        if sum(k) <= r:
            merged[k] = merged.get(k, Fraction(0)) + c
    _assert_same_bi(a + b, BiSeries.make(E, merged, r))
    if a.reliable_order >= 1:
        du = {(i - 1, j): c * i for (i, j), c in a.coeffs.items() if i >= 1}
        dv = {(i, j - 1): c * j for (i, j), c in a.coeffs.items() if j >= 1}
        _assert_same_bi(a.diff_u(), BiSeries.make(E, du, a.reliable_order - 1))
        _assert_same_bi(a.diff_v(), BiSeries.make(E, dv, a.reliable_order - 1))


@settings(deadline=None)
@given(st.tuples(bi(), bi()))
@example(
    (
        BiSeries(E, {(1, 0): Fraction(1, 2)}, 2),
        BiSeries(E, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, 3),
    )
)
@example(
    (
        BiSeries(E, {(2, 0): Fraction(1, 2), (0, 3): Fraction(1, 6)}, 3),
        BiSeries(E, {(0, 3): Fraction(1, 6)}, 3),
    )
)
@example((BiSeries(E, {}, 0), BiSeries(E, {(0, 0): Fraction(-4, 3)}, 5)))
def test_bi_ring_operations_match_fraction_loops(pair):
    a, b = pair
    _assert_same_bi(a + b, reference_bi_add(a, b))
    _assert_same_bi(a - b, reference_bi_sub(a, b))
    _assert_same_bi(b - a, reference_bi_sub(b, a))
    _assert_same_bi(a - a, reference_bi_sub(a, a))
    _assert_same_bi(-a, reference_bi_neg(a))
    if a.reliable_order >= 1:
        _assert_same_bi(a.diff_u(), reference_bi_diff_u(a))
        _assert_same_bi(a.diff_v(), reference_bi_diff_v(a))
    else:
        for op in (BiSeries.diff_u, BiSeries.diff_v):
            with pytest.raises(SeriesError):
                op(a)


BI_INPUT_KEYS = st.tuples(st.integers(-1, 7), st.integers(-1, 7))


@settings(deadline=None)
@given(
    st.dictionaries(BI_INPUT_KEYS, RATIONALS | st.integers(-9, 9), max_size=12),
    st.integers(-1, 6),
)
@example({(0, 0): 0, (1, 0): Fraction(2, 4), (0, 1): 3, (4, 4): 1}, 3)
def test_bi_make_matches_fraction_loop(coeffs, r):
    try:
        want = reference_bi_make(E, coeffs, r)
    except SeriesError as exc:
        with pytest.raises(SeriesError, match=str(exc)):
            BiSeries.make(E, coeffs, r)
        return
    _assert_same_bi(BiSeries.make(E, coeffs, r), want)


def test_bi_series_refuse_floats():
    with pytest.raises(SeriesError, match="EXACT"):
        BiSeries.make(F, {(1, 0): 1}, 3)
    with pytest.raises(SeriesError, match="float"):
        BiSeries.make(E, {(1, 0): 0.5}, 3)
    with pytest.raises(SeriesError, match="field mismatch"):
        compose_bi(BiSeries(E, {(1, 0): Fraction(1)}, 3), ex(0, 1).to_float(), ex(0, 1).to_float())


SCALARS = st.one_of(st.integers(-30, 30), RATIONALS)


@settings(deadline=None)
@given(uni(E), uni(E), SCALARS)
@example(ex(Fraction(1, 2), Fraction(1, 2)), ex(Fraction(1, 2), Fraction(-1, 2)), Fraction(2, 3))
@example(ex(Fraction(1, 6), 0, Fraction(5, 4)), ex(Fraction(-1, 10), Fraction(7, 9)), 0)
def test_exact_ring_operations_match_fraction_loops(a, b, c):
    _assert_same_uni(a + b, reference_add(a, b))
    _assert_same_uni(a - b, reference_sub(a, b))
    _assert_same_uni(-a, reference_neg(a))
    _assert_same_uni(a * b, reference_mul(a, b))
    _assert_same_uni(a * c, reference_scale(a, c))
    _assert_same_uni(c * a, reference_scale(a, c))
    _assert_same_uni(a + c, reference_add(a, c))
    _assert_same_uni(a - c, reference_sub(a, c))
    _assert_same_uni(a - a, reference_scale(a, 0))


@settings(deadline=None)
@given(uni(E), st.integers(0, 16))
@example(ex(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 1)
def test_exact_calculus_and_slicing_match_fraction_loops(a, k):
    if a.reliable_order >= 1:
        _assert_same_uni(a.diff(), reference_diff(a))
    else:
        with pytest.raises(SeriesError):
            a.diff()
    _assert_same_uni(a.shift(k % 4), reference_shift(a, k % 4))
    _assert_same_uni(a.truncate(k), reference_truncate(a, k))
    _assert_same_uni(a.to_float(), reference_to_float(a))
    assert valuation(a) == reference_valuation(a)
    if k <= a.reliable_order and all(c == 0 for c in a.coeffs[:k]):
        _assert_same_uni(factor_power(a, k), reference_factor_power(a, k))
    else:
        with pytest.raises(SeriesError) as want:
            reference_factor_power(a, k)
        with pytest.raises(SeriesError) as got:
            factor_power(a, k)
        assert str(got.value) == str(want.value)


@settings(deadline=None)
@given(substituted(E))
def test_exact_factor_power_up_to_the_valuation(a):
    v = valuation(a)
    for power in range(a.reliable_order + 1 if v.order is None else v.order + 1):
        _assert_same_uni(factor_power(a, power), reference_factor_power(a, power))


@st.composite
def extreme(draw):
    """A rational n / d near the float range limits or among the subnormals."""
    n = draw(st.integers(1, 2**60)) * draw(st.sampled_from((1, -1)))
    e = draw(st.sampled_from((1024, 1023, -1022, -1074, -1075)) | st.integers(-1140, 1040))
    e += draw(st.integers(-64, 0))
    d = draw(st.integers(1, 10**6))
    return Fraction(n * 2**e, d) if e >= 0 else Fraction(n, d * 2**-e)


@settings(deadline=None)
@given(st.lists(extreme() | RATIONALS, min_size=1, max_size=4))
@example([Fraction(2**1024 - 2**970, 1), Fraction(1, 3)])  # max float, halfway up: overflows
@example([Fraction(2**1024 - 2**971 - 1, 1), Fraction(1, 3)])  # just below: rounds to max
@example([Fraction(1, 2**1075), Fraction(3, 2**1076), Fraction(1, 7)])  # ties at the bottom
@example([Fraction(-(2**53 + 1), 2**1128), Fraction(0)])
def test_to_float_rounds_like_float_of_fraction(cs):
    a = UniSeries(E, tuple(cs), len(cs) - 1)
    try:
        want = [float(c) for c in cs]
    except OverflowError:
        with pytest.raises(OverflowError):
            a.to_float()
        return
    got = a.to_float()
    assert got.field is F and got.reliable_order == a.reliable_order
    assert [repr(x) for x in got.coeffs] == [repr(x) for x in want]


@settings(deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), extreme() | RATIONALS, max_size=6))
@example({(0, 0): Fraction(2**1024 - 2**970, 1), (1, 0): Fraction(1, 3)})  # overflows
@example({(2, 1): Fraction(1, 2**1075), (0, 1): Fraction(3, 2**1076)})  # ties at the bottom
def test_bi_to_float_rounds_like_float_of_fraction(coeffs):
    # ``float_coeffs`` is the float reading of a BiSeries that mesh sampling uses.
    a = BiSeries(E, coeffs, 6)
    try:
        want = reference_bi_float_coeffs(a)
    except OverflowError:
        with pytest.raises(OverflowError):
            a.float_coeffs()
        return
    got = a.float_coeffs()
    assert list(got) == list(want)  # same keys in the same order
    assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]


def test_series_built_from_fractions_are_canonical_and_read_back():
    cs = (Fraction(2, 6), Fraction(0), Fraction(-5, 4), Fraction(7))
    a = UniSeries(E, cs, 3)
    _assert_canonical(a)
    assert (a._num, a._den) == ((4, 0, -15, 84), 12)
    assert a.coeffs == cs and a.coefficient(2) == Fraction(-5, 4)
    b = (a * 3).truncate(1)  # 1 + 0 x over 1
    assert (b._num, b._den) == ((1, 0), 1) and b.coeffs == (1, 0)
    assert b == UniSeries(E, (1, 0), 1) and hash(b) == hash(UniSeries(E, (1, 0), 1))
    assert a != a.to_float() and a.to_float() == UniSeries(F, (1 / 3, 0.0, -1.25, 7.0), 3)
    for s in (a, b):
        with pytest.raises(AttributeError):
            s.reliable_order = 5
