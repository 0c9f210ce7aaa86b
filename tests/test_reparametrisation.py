"""Metamorphic test: reparametrising a general curve by x -> lambda x.

Let c~(x) = c(lambda x) for an exact lambda != 0, and write gamma = W o c
and gamma~ = W o c~ = gamma(lambda x).  The factorizations of the frame
module carry over with the same exponents:

    gamma~'(x)             = lambda gamma'(lambda x)
                           = lambda^(alpha + 1) E_t(lambda x) x^alpha,
    (W_u x W_v)(c~(x))     = lambda^beta N(lambda x) x^beta,

so E_t~(x) = lambda^(alpha + 1) E_t(lambda x) and N~(x) = lambda^beta
N(lambda x), and each derivative adds one more factor lambda:
E_t~' = lambda^(alpha + 2) E_t'(lambda x), N~' = lambda^(beta + 1)
N'(lambda x).  The curvature numerators are trilinear or bilinear in these:

    khat_1 = <E_t', N x E_t>  ->  lambda^(2 alpha + beta + 3) khat_1(lambda x),
    khat_2 = <E_t', N>        ->  lambda^(alpha + beta + 2)   khat_2(lambda x),
    khat_3 = <N' x E_t, N>    ->  lambda^(alpha + 2 beta + 2) khat_3(lambda x).

With e = (2 alpha + beta + 3, alpha + beta + 2, alpha + 2 beta + 2), the
coefficient of x^n in khat_i~ is lambda^(e_i + n) times that in khat_i.  A
nonzero factor keeps every zero, so the degrees d_i (and the reliable
orders, which depend only on the valuations of the curve) stay the same,
and each top T_i becomes lambda^(e_i + d_i) T_i.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from crosscap import GeneralCurve, UmbrellaCoefficients, analyze
from crosscap.frame import FrameError
from crosscap.model import ModelError, series_order

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = SMALL.filter(lambda c: c != 0)
LAMBDAS = st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(-7, 4), Fraction(1, 10)))


@st.composite
def jets(draw):
    """A surface jet and a general curve (c1, c2) of multiplicity 1 or 2."""
    k = draw(st.integers(3, 5))
    a = {(i, s - i): draw(SMALL) for s in range(2, k + 1) for i in range(s + 1)}
    a[(0, 2)] = draw(NONZERO)
    b = {i: draw(SMALL) for i in range(3, k + 1)}
    v1, v2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = min(v1, v2)
    assume(m <= 2)
    order = series_order(m, k)
    components = []
    for v in (v1, v2):
        cs = [Fraction(0)] * v + [draw(NONZERO)] + [draw(SMALL) for _ in range(order - v)]
        components.append(tuple(cs[: order + 1]))
    return UmbrellaCoefficients(k, a, b), components


def reparametrised(c: tuple, lam: Fraction) -> tuple:
    return tuple(cn * lam**n for n, cn in enumerate(c))


def oracle(coeffs, c1, c2):
    try:
        analysis = analyze(coeffs, GeneralCurve(c1, c2))
        return analysis.factors, analysis.oracle
    except (ModelError, FrameError):
        assume(False)


@settings(max_examples=30, deadline=None)
@given(jets(), LAMBDAS)
@example(
    (
        UmbrellaCoefficients(
            4, {(0, 2): Fraction(1), (1, 1): Fraction(2), (0, 3): Fraction(-1, 2)}, {3: Fraction(1)}
        ),
        [
            (0, 0, 1, Fraction(1, 3), 0, 2, 0, 0, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0, 0, 0),
        ],
    ),
    Fraction(-1, 3),
)
def test_reparametrisation_scales_each_top_by_a_power_of_lambda(jet, lam):
    coeffs, (c1, c2) = jet
    factors, report = oracle(coeffs, c1, c2)
    factors_l, report_l = oracle(coeffs, reparametrised(c1, lam), reparametrised(c2, lam))
    alpha, beta = factors.alpha, factors.beta
    assert (factors_l.alpha, factors_l.beta) == (alpha, beta)
    assert report_l.degrees == report.degrees
    assert report_l.reliable_orders == report.reliable_orders
    e = (2 * alpha + beta + 3, alpha + beta + 2, alpha + 2 * beta + 2)
    for i in range(3):
        d = report.degrees[i]
        if d is not None:
            assert report_l.tops[i] == lam ** (e[i] + d) * report.tops[i]
        k, k_l = report.numerators[i], report_l.numerators[i]
        assert k_l.coeffs == tuple(lam ** (e[i] + n) * kn for n, kn in enumerate(k.coeffs))
