"""Reliable orders are sound: a coefficient within one does not depend on the input beyond it.

Every "vanishes to reliable order" verdict, the ladder of working
truncations and verify's UNDETERMINED status rest on one claim.  Each stage
series of an ``Analysis`` at truncation k keeps coefficients only up to a
reliable order, and those coefficients are the same for every jet and curve
that agree with the analysed ones to that order.  This test states the
claim itself, not a kernel's formula for it.  A random jet is analysed at
truncation k.  Then two random extensions of it are analysed at k + 3: each
adds terms a_ij and b_i of degree k + 1 .. k + 3 to the jet, and terms of
degree past the series order m (k + 1) - 1 to the curve's components.  Every
stage series of the extensions must agree with that of the first analysis
within the first analysis' reliable order, and be reliable at least that far.
The stages are ``image``, ``raw_normal``, the tangent and the normal of
``factors``, the three curvature numerators, ``cross``, and the
developable's director, delta and sigma when the first analysis has them.
A stage that fails on the short jet ends the comparison there; once it
succeeds on the short jet it must succeed on every extension.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from crosscap import FamilyMP, FamilyMPQ, GeneralCurve, UmbrellaCoefficients, analyze
from crosscap.model import ModelError, series_order
from crosscap.series import first_nonzero

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = SMALL.filter(bool)
#: Zero-heavy coefficients, so that valuations and tops vanish often.
SPARSE = st.one_of(st.just(Fraction(0)), SMALL)


def _terms(draw, degrees, make_keys):
    """A map of drawn coefficients over the keys of the given total degrees."""
    keys = [key for d in degrees for key in make_keys(d)]
    return {key: draw(SPARSE) for key in keys}


def _a_keys(d):
    return [(i, d - i) for i in range(d + 1)]


@st.composite
def jets(draw):
    """A jet of truncation k = 3..5 and a family or general curve of multiplicity 1 or 2."""
    k = draw(st.integers(3, 5))
    a = _terms(draw, range(2, k + 1), _a_keys)
    a[(0, 2)] = draw(NONZERO)
    b = _terms(draw, range(3, k + 1), lambda d: [d])
    kind = draw(st.sampled_from(("mp", "mpq", "general")))
    if kind == "mp":
        spec = FamilyMP(m=draw(st.integers(1, 2)), p=draw(st.integers(2, 4)), c=(draw(NONZERO), draw(SPARSE)))
    elif kind == "mpq":
        spec = FamilyMPQ(m=2, p=draw(st.integers(1, 2)), q=1, c=(draw(NONZERO), draw(SPARSE)))
    else:
        v1, v2 = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        spec = _general(
            (0,) * v1 + (draw(NONZERO),) + tuple(draw(st.lists(SPARSE, max_size=4))),
            (0,) * v2 + (draw(NONZERO),) + tuple(draw(st.lists(SPARSE, max_size=4))),
        )
    return UmbrellaCoefficients(k, a, b), spec


def _general(c1, c2) -> GeneralCurve:
    """The general curve (c1, c2); a proportional draw is rejected."""
    try:
        return GeneralCurve(c1=c1, c2=c2)
    except ModelError:
        assume(False)


def _padded(cs: tuple, n: int) -> list:
    return list(cs) + [Fraction(0)] * (n - len(cs))


@st.composite
def extensions(draw, jet):
    """The jet at truncation k + 3 with drawn terms of degree k + 1 .. k + 3, and its curve extended past the series order."""
    coeffs, spec = jet
    k = coeffs.degree
    a = {**coeffs.a, **_terms(draw, range(k + 1, k + 4), _a_keys)}
    b = {**coeffs.b, **_terms(draw, range(k + 1, k + 4), lambda d: [d])}
    r = series_order(spec.m, k)
    if isinstance(spec, GeneralCurve):
        c1, c2 = (_padded(cs, r + 1)[: r + 1] + draw(st.lists(SPARSE, min_size=3, max_size=3)) for cs in spec)
        spec = _general(c1, c2)
    else:
        # c(x) x^e: the terms c_n with e + n past the series order.
        e = first_nonzero(spec.components[0])
        c = _padded(spec.c, r + 1 - e)[: max(r + 1 - e, 1)] + draw(st.lists(SPARSE, min_size=3, max_size=3))
        spec = spec._replace(c=tuple(c))
    return UmbrellaCoefficients(k + 3, a, b), spec


def stage_series(analysis):
    """(name, series) of each stage in chain order; a stage that fails raises from the generator."""
    yield "image", analysis.image.components
    yield "raw_normal", analysis.raw_normal.components
    factors = analysis.factors
    yield "tangent", factors.tangent.components
    yield "normal", factors.normal.components
    yield "numerators", analysis.numerators
    yield "cross", analysis.cross.components
    d = analysis.developable
    if d is not None:
        yield "director", d.director.components
        yield "delta", (d.delta,)
        if d.sigma is not None:
            yield "sigma", (d.sigma,)


def first_stages(analysis) -> dict:
    """The stage series of the short jet, up to the first stage that fails there."""
    out = {}
    try:
        for name, series in stage_series(analysis):
            out[name] = series
    except ValueError:
        pass
    return out


def assert_agrees(short, extended):
    stages = dict(stage_series(extended))
    for name, series in short.items():
        assert name in stages, f"{name} is missing on the extended jet"
        for i, (s, t) in enumerate(zip(series, stages[name])):
            r = s.reliable_order
            assert t.reliable_order >= r, f"{name}[{i}] is reliable to {t.reliable_order} < {r}"
            assert t.coeffs[: r + 1] == s.coeffs, f"{name}[{i}] differs within its reliable order {r}"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_stage_series_agree_within_their_reliable_order(data):
    jet = data.draw(jets())
    short = first_stages(analyze(*jet))
    for _ in range(2):
        assert_agrees(short, analyze(*data.draw(extensions(jet))))
