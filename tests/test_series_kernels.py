"""Differential tests: the integer-numerator series kernels against Fraction loops.

Every ``UniSeries`` and ``BiSeries`` operation, ``valuation``,
``factor_power`` and ``compose_bi`` must return exactly what the
coefficient-by-coefficient loops of ``tests/reference.py`` return, and
``compose_partials`` what ``compose_bi`` returns on each reference
derivative, its error type and message included: equal
values, reduced ``Fraction`` coefficients and a canonical numerator /
denominator pair for an exact series, and for a ``BiSeries`` the same key
order.  The sum, difference, product, derivative and inverse of a
``FloatSeries`` must give the float bits of the same loops (``float.hex``).
An exact and a float operand never mix: each mixed operation raises its one
``SeriesError`` message.  A ``BiSeries`` and ``compose_bi`` are exact only.  ``compose_bi`` must match also when the
power tables kept on its substituted series were built by earlier
compositions, and whatever the key order of the surface's numerators.
Every exact series is a plain ``UniSeries`` or ``BiSeries``, whatever built
it, so equal values have equal pairs, equal ``coeffs`` and, for a
``UniSeries``, equal hashes.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crosscap.model import GeneralCurve, ModelError
from crosscap.series import (
    BiSeries,
    FloatSeries,
    ReliabilityError,
    SeriesError,
    UniSeries,
    Vec3Series,
    _convolve,
    _valuation_lower_bound,
    compose_bi,
    compose_partials,
    factor_power,
    first_nonzero,
    reciprocal,
    sqrt_series,
    valuation,
)
from reference import (
    float_series,
    reference_add,
    reference_bi_add,
    reference_bi_diff_u,
    reference_bi_coeffs,
    reference_bi_diff_v,
    reference_bi_make as bi_make,
    reference_bi_float_coeffs,
    reference_bimul,
    reference_compose_bi,
    reference_diff,
    reference_factor_power,
    reference_mul,
    reference_neg,
    reference_reciprocal,
    reference_scale,
    reference_shift,
    reference_sub,
    reference_to_float,
    reference_valuation,
)

RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
)
FLOATS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-20, max_value=20, allow_nan=False, allow_subnormal=False),
)


def _values(kind):
    return RATIONALS if kind is UniSeries else FLOATS


@st.composite
def uni(draw, kind, max_order=14):
    """An exact ``UniSeries`` or a ``FloatSeries``, as ``kind`` says, of drawn coefficients."""
    cs = draw(st.lists(_values(kind), min_size=1, max_size=max_order + 1))
    return UniSeries.make(cs) if kind is UniSeries else FloatSeries(tuple(cs), len(cs) - 1)


@st.composite
def bi(draw, max_order=6):
    r = draw(st.integers(0, max_order))
    keys = st.tuples(st.integers(0, r), st.integers(0, r)).filter(lambda k: k[0] + k[1] <= r)
    return bi_make(draw(st.dictionaries(keys, RATIONALS, max_size=15)), r)


@st.composite
def substituted(draw):
    """An exact series with s(0) = 0 and valuation at least 1, often more."""
    r = draw(st.integers(1, 14))
    leading_zeros = draw(st.integers(1, 4))
    tail = draw(st.lists(RATIONALS, min_size=r + 1, max_size=r + 1))
    cs = [Fraction(0)] * leading_zeros + tail
    return UniSeries.make(cs, r)


def ex(*cs):
    return UniSeries.make([Fraction(c) for c in cs])


def _assert_canonical(s: UniSeries):
    """An exact series is its numerators over one denominator, den > 0, gcd 1."""
    assert len(s._num) == s.reliable_order + 1
    assert all(type(n) is int for n in s._num)
    assert s._den > 0 and math.gcd(s._den, *s._num) == 1


def _assert_same_uni(got, want):
    """Two exact series of one value and one canonical pair, or two float series of the same bits."""
    assert type(got) is type(want) and type(got) in (UniSeries, FloatSeries)
    assert got.reliable_order == want.reliable_order
    if type(got) is UniSeries:
        _assert_canonical(got)
        assert got == want
        assert got.coeffs == want.coeffs
        assert all(type(c) is Fraction for c in got.coeffs)
    else:
        assert len(got.coeffs) == got.reliable_order + 1
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want.coeffs]
        assert all(type(c) is float for c in got.coeffs)


def _assert_canonical_bi(s: BiSeries):
    """An exact BiSeries is nonzero integer numerators over one denominator."""
    assert all(type(n) is int and n != 0 for n in s._num.values())
    assert s._den > 0 and math.gcd(s._den, *s._num.values()) == 1


def _assert_same_bi(got: BiSeries, want: BiSeries):
    assert type(got) is type(want) is BiSeries
    assert got.reliable_order == want.reliable_order
    assert list(got._num) == list(want._num)  # same keys in the same order
    _assert_canonical_bi(got)
    assert got == want


@settings(deadline=None)
@given(st.sampled_from((UniSeries, FloatSeries)).flatmap(lambda kind: st.tuples(uni(kind), uni(kind))))
@example((ex(Fraction(-1, 6), 0, Fraction(5, 4)), ex(0, Fraction(7, 9), -3, Fraction(1, 10))))
@example((ex(0, 0, 0), ex(Fraction(2, 3))))
def test_uni_mul_matches_fraction_loop(pair):
    a, b = pair
    _assert_same_uni(a * b, reference_mul(a, b))
    _assert_same_uni(b * a, reference_mul(b, a))


@settings(deadline=None)
@given(st.tuples(bi(), bi()))
@example((bi_make({}, 3), bi_make({(1, 0): Fraction(1, 2)}, 3)))
@example((bi_make({}, 0), bi_make({}, 4)))
@example(
    (
        bi_make({(0, 1): Fraction(-1, 3), (1, 0): Fraction(0), (1, 1): Fraction(5, 2)}, 4),
        bi_make({(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 7), (2, 2): Fraction(3)}, 5),
    )
)
def test_bi_mul_matches_fraction_loop(pair):
    a, b = pair
    _assert_same_bi(a * b, reference_bimul(a, b))


@settings(deadline=None)
@given(st.tuples(bi(), substituted(), substituted()))
@example((bi_make({}, 3), ex(0, 1, 2), ex(0, 0, Fraction(1, 2))))
@example(
    (
        bi_make({(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5), (0, 3): Fraction(7)}, 3),
        ex(0, 0, Fraction(3, 2), 0, -1, 0, 0, 0, 0, 0, 0),
        ex(0, 0, 0, Fraction(-1, 4), 0, 0, Fraction(2, 3), 0, 0, 0, 0),
    )
)
def test_compose_bi_matches_fraction_loop(args):
    G, u, v = args
    _assert_same_uni(compose_bi(G, u, v), reference_compose_bi(G, u, v))


@settings(deadline=None)
@given(uni(UniSeries), uni(UniSeries), st.lists(st.integers(-50, 50), max_size=16), st.integers(-30, 30), st.data())
@example(ex(Fraction(1, 2), 0, 3), ex(0, Fraction(-2, 3), 1), [5, -1, 2], 7, None)
def test_convolve_adds_the_scaled_product_into_its_list(a, b, start, scale, data):
    # The numerator product a._num * b._num is the Fraction product times
    # a._den * b._den; cut after len(out) coefficients, it is added in place.
    r = min(a.reliable_order, b.reliable_order)
    n = r + 1 if data is None else data.draw(st.integers(0, r + 1))
    out = (start + [0] * n)[:n]
    want = [o + scale * c * a._den * b._den for o, c in zip(out, reference_mul(a, b).coeffs)]
    got = _convolve(out, a._num, b._num, scale)
    assert got is out and got == want


@pytest.mark.parametrize(
    "G, u, v",
    [
        # v is not a monomial and has interior zeros; u has zero coefficients.
        (
            bi_make({(1, 0): Fraction(2, 3), (0, 2): Fraction(-1, 2), (1, 1): Fraction(5), (2, 1): Fraction(1, 7)}, 4),
            ex(0, 0, Fraction(1, 3), 0, 0, 2, 0, Fraction(-3, 5), 0, 0, 0, 0),
            ex(0, 1, 0, 0, Fraction(-2, 9), 0, 3, 0, 0, 0, 0, 0),
        ),
        (
            bi_make({(0, 1): Fraction(1), (3, 0): Fraction(-4, 3), (1, 2): Fraction(2, 5), (0, 4): Fraction(1, 6)}, 5),
            ex(0, Fraction(1, 2), 0, 0, 7, 0, 0, 0, 0, 0),
            ex(0, 0, Fraction(-1, 4), 0, 0, 0, Fraction(9, 2), 0, 0, 0),
        ),
        # u is v: both skip branches on one power table.
        (
            bi_make({(1, 1): Fraction(3, 2), (2, 0): Fraction(1, 5), (0, 3): Fraction(-2)}, 3),
            ex(0, 2, 0, 0, Fraction(1, 3), 0, 0, 0),
            None,
        ),
    ],
)
def test_compose_bi_with_sparse_curves_matches_fraction_loop(G, u, v):
    v = u if v is None else v
    _assert_same_uni(compose_bi(G, u, v), reference_compose_bi(G, u, v))


@pytest.mark.parametrize(
    "values, start, want",
    [
        ((0, 0, 3, 0, 5), 0, 2),
        ((0, 0, 3, 0, 5), 3, 4),  # start inside a run of zeros
        ((0, 0, 3, 0, 5), 2, 2),
        ((0, 0, 3, 0, 5), 5, None),  # start at the end
        ((0, 0, 3, 0, 5), 9, None),  # start past the end
        ((0, Fraction(0), 0), 0, None),  # all zeros
        ((), 0, None),
        ([Fraction(0), Fraction(1, 3)], 1, 1),
    ],
)
def test_first_nonzero(values, start, want):
    assert first_nonzero(values, start) == want


@settings(deadline=None)
@given(uni(UniSeries))
@example(ex(Fraction(2, 6), 0, Fraction(-4, 8), 3))
def test_coefficient_reads_the_reduced_value_of_the_pair(a):
    for d in range(a.reliable_order + 1):
        c = a.coefficient(d)
        assert type(c) is Fraction and c == a.coeffs[d]
        assert (c.numerator, c.denominator) == (a.coeffs[d].numerator, a.coeffs[d].denominator)
    with pytest.raises(ReliabilityError):
        a.coefficient(a.reliable_order + 1)
    with pytest.raises(SeriesError, match="negative degree"):
        a.coefficient(-1)


def _fresh(s: UniSeries) -> UniSeries:
    """The same series without the power table that compositions keep on it."""
    return UniSeries.make(s.coeffs, s.reliable_order)


@settings(deadline=None)
@given(st.tuples(bi(), bi(), substituted(), substituted(), st.booleans()))
@example(
    (
        bi_make({(1, 0): Fraction(1, 2), (0, 1): Fraction(-3)}, 1),
        bi_make({(3, 0): Fraction(2, 3), (2, 2): Fraction(5), (0, 4): Fraction(-1, 7)}, 4),
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
    G = bi_make({(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5), (0, 3): Fraction(7)}, 3)
    u = ex(0, 0, Fraction(3, 2), 0, -1, 0, 0, 0, 0, 0, 0)
    v = ex(0, 0, 0, Fraction(-1, 4), 0, 0, Fraction(2, 3), 0, 0, 0, 0)
    val_u, val_v = _valuation_lower_bound(u), _valuation_lower_bound(v)
    out = compose_bi(G, u, v)
    assert out.reliable_order == 7
    assert [ij for ij in G._num if ij[0] * val_u + ij[1] * val_v > 7] == [(0, 3)]
    assert out == compose_bi(bi_make({(1, 0): Fraction(1, 3), (2, 0): Fraction(-2, 5)}, 3), u, v)
    _assert_same_uni(out, reference_compose_bi(G, u, v))


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of the ``SeriesError`` it raises."""
    try:
        return call(*args)
    except SeriesError as exc:
        return type(exc), str(exc)


def _assert_partials(G, u, v):
    """``compose_partials`` gives ``compose_bi`` of each reference derivative, or raises as it does."""
    got = _outcome(compose_partials, G, _fresh(u), _fresh(v))
    want = [_outcome(lambda d: compose_bi(d(G), u, v), d) for d in (reference_bi_diff_u, reference_bi_diff_v)]
    if isinstance(want[0], tuple):  # an error: both derivatives raise the same one
        assert got == want[0] == want[1]
        return
    assert type(got) is tuple and len(got) == 2
    for got_d, want_d in zip(got, want):
        _assert_same_uni(got_d, want_d)


# A term kept in one partial and cut in the other: val u = 3, val v = 1 and
# R_F = 3 give r_out = 1 * 3 - 1 = 2; u v has F_u = v (x-degree 1, kept)
# and F_v = u (x-degree 3, cut), v^2 gives 2 v in F_v, kept.
KEPT_AND_CUT = (
    bi_make({(1, 1): Fraction(2, 3), (0, 2): Fraction(-5, 4)}, 3),
    ex(0, 0, 0, Fraction(1, 2)),
    ex(0, 1, Fraction(-1, 3), 0),
)


@settings(deadline=None)
@given(
    st.tuples(
        bi(),
        st.one_of(substituted(), uni(UniSeries)),  # u(0) != 0 is drawn too
        st.one_of(substituted(), uni(UniSeries)),
    )
)
@example((bi_make({}, 3), ex(0, 1, 2), ex(0, 0, Fraction(1, 2))))  # F = 0
@example((bi_make({(0, 0): Fraction(5, 3)}, 4), ex(0, 1, 2), ex(0, 0, Fraction(1, 2))))  # a constant F
@example((bi_make({(0, 0): Fraction(5, 3)}, 0), ex(0, 1, 2), ex(0, 0, 1)))  # R_F = 0
@example((bi_make({(1, 0): Fraction(1, 3)}, 0), ex(1, 2), ex(2)))  # R_F = 0 before u(0) != 0
@example((bi_make({(1, 0): Fraction(1, 3), (0, 2): 1}, 3), ex(Fraction(1, 2), 2), ex(0, 1)))  # u(0) != 0
@example((bi_make({(1, 0): Fraction(1, 3), (0, 2): 1}, 3), ex(0, 2), ex(0, 0, 0)))  # v vanishes to its order
@example(
    (
        bi_make({(2, 1): Fraction(1, 2), (1, 2): Fraction(-3, 7), (0, 3): Fraction(2, 3), (3, 0): 5}, 4),
        ex(0, Fraction(2, 5), Fraction(-1, 3), 0, Fraction(7, 2), 0, 0, 0, 0, 0, 0, 0),
        ex(0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),  # v = x^3
    )
)
@example(
    (
        bi_make({(2, 1): Fraction(1, 2), (1, 2): Fraction(-3, 7), (0, 3): Fraction(2, 3), (3, 0): 5}, 4),
        ex(0, 0, 1, 0, 0, 0, 0, 0, 0),
        ex(0, Fraction(1, 3), Fraction(-2, 9), Fraction(4, 5), 3, Fraction(-1, 6), 2, Fraction(5, 7), 1),  # dense v
    )
)
@example(KEPT_AND_CUT)
def test_compose_partials_matches_compose_bi_of_the_derivatives(args):
    _assert_partials(*args)


def test_compose_partials_keeps_a_term_in_one_partial_and_cuts_it_in_the_other():
    G, u, v = KEPT_AND_CUT
    u, v = _fresh(u), _fresh(v)
    F_u, F_v = compose_partials(G, u, v)
    assert (len(u._pows), len(v._pows)) == (1, 2)  # the cut term reads no power of u
    assert F_u.reliable_order == F_v.reliable_order == 2
    assert F_u == UniSeries.make([0, Fraction(2, 3), Fraction(-2, 9)], 2)  # 2/3 v
    assert F_v == UniSeries.make([0, Fraction(-5, 2), Fraction(5, 6)], 2)  # -5/2 v; 2/3 u is cut
    _assert_partials(G, u, v)


@settings(deadline=None)
@given(st.tuples(bi(), bi()))
@example(
    (
        bi_make({(1, 0): Fraction(1, 2)}, 2),
        bi_make({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, 3),
    )
)
@example(
    (
        bi_make({(2, 0): Fraction(1, 2), (0, 3): Fraction(1, 6)}, 3),
        bi_make({(0, 3): Fraction(1, 6)}, 3),
    )
)
@example((bi_make({}, 0), bi_make({(0, 0): Fraction(-4, 3)}, 5)))
def test_bi_derivatives_match_fraction_loops(pair):
    # The reference derivatives, which the composition of the partials is
    # checked against: i c at (i - 1, j) and j c at (i, j - 1), in key
    # order, reliable one order less, and the product rule on the pair.
    for a in pair:
        coeffs, r = reference_bi_coeffs(a), a.reliable_order - 1
        if r < 0:
            for op in (reference_bi_diff_u, reference_bi_diff_v):
                assert _message(op, a, error=ReliabilityError) == "cannot differentiate a series reliable only to order 0"
            continue
        _assert_same_bi(reference_bi_diff_u(a), bi_make({(i - 1, j): i * c for (i, j), c in coeffs.items() if i}, r))
        _assert_same_bi(reference_bi_diff_v(a), bi_make({(i, j - 1): j * c for (i, j), c in coeffs.items() if j}, r))
    a, b = pair
    if min(a.reliable_order, b.reliable_order) >= 1:
        for d in (reference_bi_diff_u, reference_bi_diff_v):
            leibniz = reference_bi_add(reference_bimul(d(a), b), reference_bimul(a, d(b)))
            assert d(reference_bimul(a, b)) == leibniz


BI_INPUT_KEYS = st.tuples(st.integers(-1, 7), st.integers(-1, 7))


@settings(deadline=None)
@given(
    st.dictionaries(BI_INPUT_KEYS, st.integers(-30, 30), max_size=12),
    st.integers(-2, 40),
    st.integers(-1, 6),
)
@example({(0, 0): 0, (1, 0): 2, (0, 1): 6, (2, 1): -4}, 4, 3)
@example({(1, 0): 3}, 0, 3)
@example({(4, 4): 1}, 1, 3)
def test_bi_from_numerators_matches_fraction_loop(num, den, r):
    if r < 0 or den <= 0 or any(i < 0 or j < 0 or i + j > r for i, j in num):
        with pytest.raises(SeriesError):
            BiSeries.from_numerators(num, den, r)
        return
    got = BiSeries.from_numerators(num, den, r)
    assert got.reliable_order == r
    assert list(reference_bi_coeffs(got).items()) == [(k, Fraction(n, den)) for k, n in num.items() if n]
    _assert_same_bi(got, bi_make({k: Fraction(n, den) for k, n in num.items()}, r))


def test_bi_series_refuse_floats():
    with pytest.raises(TypeError):
        BiSeries({(1, 0): Fraction(1)}, 3)  # no constructor from Fractions
    with pytest.raises(TypeError):
        BiSeries.from_numerators({(1, 0): 0.5}, 1, 3)
    with pytest.raises(SeriesError, match="float"):
        bi_make({(1, 0): 0.5}, 3)
    with pytest.raises(SeriesError, match="field mismatch"):
        compose_bi(bi_make({(1, 0): Fraction(1)}, 3), ex(0, 1).to_float(), ex(0, 1).to_float())
    with pytest.raises(SeriesError, match="field mismatch"):
        compose_bi(bi_make({(1, 0): Fraction(1)}, 3), ex(0, 1), ex(0, 1).to_float())


SCALARS = st.one_of(st.integers(-30, 30), RATIONALS)


@settings(deadline=None)
@given(uni(UniSeries), uni(UniSeries), SCALARS)
@example(ex(Fraction(1, 2), Fraction(1, 2)), ex(Fraction(1, 2), Fraction(-1, 2)), Fraction(2, 3))
@example(ex(Fraction(1, 6), 0, Fraction(5, 4)), ex(Fraction(-1, 10), Fraction(7, 9)), 0)
def test_exact_ring_operations_match_fraction_loops(a, b, c):
    _assert_same_uni(a + b, reference_add(a, b))
    _assert_same_uni(a - b, reference_sub(a, b))
    _assert_same_uni(-a, reference_neg(a))
    _assert_same_uni(a * b, reference_mul(a, b))
    _assert_same_uni(a * c, reference_scale(a, c))
    _assert_same_uni(c * a, reference_scale(a, c))
    _assert_same_uni(a - a, reference_scale(a, 0))


@settings(deadline=None)
@given(uni(UniSeries), st.integers(0, 16))
@example(ex(Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)), 1)
def test_exact_calculus_and_slicing_match_fraction_loops(a, k):
    if a.reliable_order >= 1:
        _assert_same_uni(a.diff(), reference_diff(a))
    else:
        with pytest.raises(SeriesError):
            a.diff()
    _assert_same_uni(a.shift(k % 4), reference_shift(a, k % 4))
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
@given(substituted())
def test_exact_factor_power_up_to_the_valuation(a):
    v = valuation(a)
    for power in range(a.reliable_order + 1 if v.order is None else v.order + 1):
        _assert_same_uni(factor_power(a, power), reference_factor_power(a, power))


SIGNED_ZEROS = float_series([-0.0, 0.0, -1.5, 0.0]), float_series([0.0, -0.0, 2.0])


@settings(deadline=None)
@given(uni(FloatSeries), uni(FloatSeries))
@example(*SIGNED_ZEROS)
@example(*reversed(SIGNED_ZEROS))
@example(float_series([0.1, 0.2, 0.3]), float_series([3.0, 1 / 3]))
def test_float_operations_match_float_loops(a, b):
    # The mesh and the float frame read these bits: each operation does the
    # float operations of the coefficient loop in the same order, and the
    # difference a - b is the loop's a + (-b).
    _assert_same_uni(a + b, reference_add(a, b))
    _assert_same_uni(a - b, reference_sub(a, b))
    _assert_same_uni(a * b, reference_mul(a, b))
    for s in (a, b):
        if s.reliable_order >= 1:
            _assert_same_uni(s.diff(), reference_diff(s))
        else:
            with pytest.raises(SeriesError):
                s.diff()
        if s.coeffs[0]:
            _assert_same_uni(reciprocal(s), reference_reciprocal(s))


MISMATCH = "field mismatch between series operands"


def _message(call, *args, error=SeriesError):
    with pytest.raises(error) as err:
        call(*args)
    return str(err.value)


def test_exact_and_float_operands_never_mix():
    e = ex(0, 1, Fraction(1, 3))
    f = e.to_float()
    for op in (operator.add, operator.sub, operator.mul):
        assert _message(op, e, f) == MISMATCH
        assert _message(op, f, e) == MISMATCH
    assert _message(Vec3Series, e, f, e) == "Vec3Series components must share one kind"
    assert _message(Vec3Series, f, f, e) == "Vec3Series components must share one kind"
    G = bi_make({(1, 0): Fraction(1), (0, 1): Fraction(2)}, 3)
    assert _message(compose_bi, G, f, f) == MISMATCH
    assert _message(compose_bi, G, e, f) == MISMATCH
    assert _message(compose_bi, G, f, e) == MISMATCH
    assert _message(valuation, f) == "valuation is defined on the EXACT field only"
    assert _message(factor_power, f, 1) == "factor_power is defined on the EXACT field only"
    assert _message(valuation, Vec3Series(f, f, f)) == "valuation is defined on the EXACT field only"
    assert _message(factor_power, Vec3Series(f, f, f), 1) == "factor_power is defined on the EXACT field only"
    assert _message(sqrt_series, ex(1, 1)) == "sqrt_series is defined on the FLOAT field only"
    assert _message(reciprocal, ex(1, 1)) == "reciprocal is defined on the FLOAT field only"
    assert _message(UniSeries.make, [f]) == MISMATCH
    assert _message(UniSeries.make, [0.5]) == "EXACT series cannot absorb float coefficients"
    # A curve is exact rationals: a float coefficient is refused.
    general = "model coefficients must be exact rationals, not floats"
    assert _message(GeneralCurve, (0, 0.5), (0, 0, 1), error=ModelError) == general
    assert _message(GeneralCurve, (0, 1), (0.0, 0, 1), error=ModelError) == general


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
    a = UniSeries.make(cs)
    try:
        want = [float(c) for c in cs]
    except OverflowError:
        with pytest.raises(OverflowError):
            a.to_float()
        return
    got = a.to_float()
    assert type(got) is FloatSeries and got.reliable_order == a.reliable_order
    assert [repr(x) for x in got.coeffs] == [repr(x) for x in want]


@settings(deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), extreme() | RATIONALS, max_size=6))
@example({(0, 0): Fraction(2**1024 - 2**970, 1), (1, 0): Fraction(1, 3)})  # overflows
@example({(2, 1): Fraction(1, 2**1075), (0, 1): Fraction(3, 2**1076)})  # ties at the bottom
def test_bi_to_float_rounds_like_float_of_fraction(coeffs):
    # ``float_coeffs`` is the float reading of a BiSeries that mesh sampling uses.
    a = bi_make(coeffs, 6)
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
    a = UniSeries.make(cs, 3)
    _assert_canonical(a)
    assert (a._num, a._den) == ((4, 0, -15, 84), 12)
    assert a.coeffs == cs and a.coefficient(2) == Fraction(-5, 4)
    b = UniSeries.make((a * 3).coeffs[:2], 1)  # 1 + 0 x over 1
    assert (b._num, b._den) == ((1, 0), 1) and b.coeffs == (1, 0)
    same = UniSeries.from_numerators([3, 0], 3, 1)
    assert b == same and hash(b) == hash(same)
    assert a != a.to_float() and a.to_float().coeffs == (1 / 3, 0.0, -1.25, 7.0)
    for s in (a, b):
        with pytest.raises(AttributeError):
            s.reliable_order = 5


@settings(deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=10), st.integers(1, 12))
@example([Fraction(1, 2), Fraction(0), Fraction(-3, 4)], 6)
@example([Fraction(0)], 1)
def test_every_exact_uni_series_is_one_plain_class(cs, scale):
    # Built from Fractions, from numerators or by an operation, an exact
    # series of one value is one pair, one Fraction view and one hash.
    r = len(cs) - 1
    den = math.lcm(*(c.denominator for c in cs)) * scale
    a = UniSeries.make(cs, r)
    built = [
        a,
        UniSeries.make(cs),
        UniSeries.make(cs + [0], r),
        UniSeries.from_numerators([int(c * den) for c in cs], den, r),
        a + UniSeries.make([], r),
        a * 1,
        a * UniSeries.make([1], r),
        a * 3 - (a + a),
        -(-a),
        factor_power(a.shift(2), 2),
        UniSeries.make([0] + [c / (i + 1) for i, c in enumerate(cs)]).diff(),
        factor_power(compose_bi(bi_make({(1, 0): 1}, r + 1), a.shift(1), UniSeries.make([0, 1], r + 1)), 1),
    ]
    if cs[0]:
        built.append(reference_reciprocal(reference_reciprocal(a)))
    fresh = a * 1  # an operation result whose Fraction view was never read
    hash(fresh)
    assert not hasattr(fresh, "_coeffs")  # hashing reads the pair only
    for s in built:
        assert type(s) is UniSeries
        assert (s._num, s._den, s.reliable_order) == (a._num, a._den, r)
        assert hash(s) == hash(a)
        assert s == a and s.coeffs == tuple(cs)


def test_uni_series_has_one_rational_constructor_and_no_scalar_sum():
    # ``make`` and ``from_numerators`` build a series; there is no Fraction
    # constructor, as there is none for a BiSeries.  A sum or a difference
    # takes two series, never a scalar.
    for cls in (UniSeries, BiSeries):
        with pytest.raises(TypeError):
            cls((Fraction(1),), 0)
    a = ex(1, Fraction(1, 2))
    for op in (operator.add, operator.sub):
        for c in (1, Fraction(1, 2)):
            with pytest.raises(TypeError):
                op(a, c)
            with pytest.raises(TypeError):
                op(c, a)
    assert UniSeries.make((0, Fraction(1, 2), 0, 3), 5) == UniSeries.from_numerators([0, 1, 0, 6, 0, 0], 2, 5)


@settings(deadline=None)
@given(bi(), st.integers(1, 12))
@example(bi_make({(1, 0): Fraction(1, 2), (0, 2): Fraction(-2, 3)}, 3), 4)
def test_every_bi_series_is_one_plain_class(a, scale):
    r = a.reliable_order
    one = bi_make({(0, 0): 1}, r)
    built = [
        a,
        bi_make(reference_bi_coeffs(a), r),
        BiSeries.from_numerators({k: n * scale for k, n in a._num.items()}, a._den * scale, r),
        a * one,
        one * a,
        reference_bi_diff_u(bi_make({(i + 1, j): c / (i + 1) for (i, j), c in reference_bi_coeffs(a).items()}, r + 1)),
        reference_bi_diff_v(bi_make({(i, j + 1): c / (j + 1) for (i, j), c in reference_bi_coeffs(a).items()}, r + 1)),
    ]
    for s in built:
        assert type(s) is BiSeries
        assert (s._num, s._den, s.reliable_order) == (a._num, a._den, r)
        assert s == a


@settings(deadline=None)
@given(st.tuples(bi(), substituted(), substituted()), st.randoms(use_true_random=False))
@example(
    (
        bi_make({(0, 3): Fraction(7), (2, 0): Fraction(-2, 5), (1, 0): Fraction(1, 3)}, 3),
        ex(0, 0, Fraction(3, 2), 0, -1, 0, 0, 0, 0, 0, 0),
        ex(0, 0, 0, Fraction(-1, 4), 0, 0, Fraction(2, 3), 0, 0, 0, 0),
    ),
    random.Random(0),
)
def test_compose_bi_does_not_depend_on_the_key_order(args, rnd):
    # ``compose_bi`` sums its terms as exact integers in the key order of
    # the surface's numerators; any other order gives the same series.
    G, u, v = args
    items = list(G._num.items())
    orders = [sorted(items), sorted(items, reverse=True), rnd.sample(items, len(items))]
    want = compose_bi(G, u, v)
    for order in orders:
        H = BiSeries.from_numerators(dict(order), G._den, G.reliable_order)
        assert list(H._num) == [k for k, _ in order]
        _assert_same_uni(compose_bi(H, _fresh(u), _fresh(v)), want)
