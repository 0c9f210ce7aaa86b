"""Differential tests: the integer-numerator series kernels against Fraction loops.

``UniSeries.__mul__``, ``BiSeries.__mul__`` and ``compose_bi`` must return
exactly what the coefficient-by-coefficient loops of ``tests/reference.py``
return: equal values, reduced ``Fraction`` coefficients in the exact field,
and the same float bits (and the same key order) in the float field.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from crosscap.series import BiSeries, Field, UniSeries, _valuation_lower_bound, compose_bi
from reference import reference_bimul, reference_compose_bi, reference_mul

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
def bi(draw, field, max_order=6):
    r = draw(st.integers(0, max_order))
    keys = st.tuples(st.integers(0, r), st.integers(0, r)).filter(lambda k: k[0] + k[1] <= r)
    return BiSeries(field, draw(st.dictionaries(keys, _values(field), max_size=15)), r)


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


def _assert_same_uni(got: UniSeries, want: UniSeries):
    assert got.reliable_order == want.reliable_order
    if got.field is E:
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)
    else:
        assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]
        assert all(type(c) is float for c in got.coeffs)


def _assert_same_bi(got: BiSeries, want: BiSeries):
    assert got.reliable_order == want.reliable_order
    assert list(got.coeffs) == list(want.coeffs)  # same keys in the same order
    if got.field is E:
        assert list(got.coeffs.values()) == list(want.coeffs.values())
        assert all(type(c) is Fraction and c != 0 for c in got.coeffs.values())
    else:
        assert [repr(c) for c in got.coeffs.values()] == [repr(c) for c in want.coeffs.values()]


@settings(deadline=None)
@given(st.sampled_from((E, F)).flatmap(lambda f: st.tuples(uni(f), uni(f))))
@example((ex(Fraction(-1, 6), 0, Fraction(5, 4)), ex(0, Fraction(7, 9), -3, Fraction(1, 10))))
@example((ex(0, 0, 0), ex(Fraction(2, 3))))
def test_uni_mul_matches_fraction_loop(pair):
    a, b = pair
    _assert_same_uni(a * b, reference_mul(a, b))
    _assert_same_uni(b * a, reference_mul(b, a))


@settings(deadline=None)
@given(st.sampled_from((E, F)).flatmap(lambda f: st.tuples(bi(f), bi(f))))
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
@given(st.sampled_from((E, F)).flatmap(lambda f: st.tuples(bi(f), substituted(f), substituted(f))))
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
@given(st.sampled_from((E, F)).flatmap(lambda f: st.tuples(bi(f), bi(f))))
def test_bi_sum_and_derivatives_match_make(pair):
    # The internal results are built without re-coercion; ``make`` is the
    # constructor for outside input and must agree with them.
    a, b = pair
    r = min(a.reliable_order, b.reliable_order)
    merged = {k: c for k, c in a.coeffs.items() if sum(k) <= r}
    for k, c in b.coeffs.items():
        if sum(k) <= r:
            merged[k] = merged.get(k, _zero(a.field)) + c
    _assert_same_bi(a + b, BiSeries.make(a.field, merged, r))
    if a.reliable_order >= 1:
        du = {(i - 1, j): c * i for (i, j), c in a.coeffs.items() if i >= 1}
        dv = {(i, j - 1): c * j for (i, j), c in a.coeffs.items() if j >= 1}
        _assert_same_bi(a.diff_u(), BiSeries.make(a.field, du, a.reliable_order - 1))
        _assert_same_bi(a.diff_v(), BiSeries.make(a.field, dv, a.reliable_order - 1))
