"""Metamorphic test: a homothety of space keeps every order the report prints.

Scaling space by lambda keeps the normal form when u is scaled with it:
lambda W(u / lambda, v) has a_ij -> lambda^(1 - i) a_ij and b_i -> lambda b_i,
and the curve (u(x), v(x)) becomes (lambda u(x), v(x)), so c -> lambda c.
The curvature degrees, the delta and sigma orders and the E/F case of the
osculating developable must not change.  Some jets have truncation >= 10,
so that their reports come from a lower working truncation.
"""

import random
from fractions import Fraction

import pytest

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients
from crosscap.config import RunConfig
from crosscap.report import build_report

LAMBDA = Fraction(1, 7)


def _rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def draw_jet(seed):
    rng = random.Random(f"homothety/{seed}")
    k = rng.choice((5, 6, 7, 8)) if seed % 4 else rng.choice((10, 11, 12))
    a = {(i, s - i): _rational(rng) for s in range(2, k + 1) for i in range(s + 1)}
    a[(0, 2)] = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2)))
    b = {i: _rational(rng) for i in range(3, k + 1)}
    m, p = rng.choice((1, 2)), rng.choice((2, 3))
    c = (Fraction(rng.choice((1, -1, 2, Fraction(1, 3)))),) + tuple(_rational(rng) for _ in range(m + 1))
    if m == 2 and rng.random() < 0.5:
        spec = FamilyMPQ(m=m, p=p - 1, q=1, c=c)
    else:
        spec = FamilyMP(m=m, p=p, c=c)
    return UmbrellaCoefficients(k, a, b), spec


def scaled(coeffs, spec, lam):
    a = {(i, j): lam ** (1 - i) * v for (i, j), v in coeffs.a.items()}
    b = {i: lam * v for i, v in coeffs.b.items()}
    c = tuple(lam * v for v in spec.c)
    spec = FamilyMPQ(spec.m, spec.p, spec.q, c) if isinstance(spec, FamilyMPQ) else FamilyMP(spec.m, spec.p, c)
    return UmbrellaCoefficients(coeffs.degree, a, b), spec


def orders(coeffs, spec):
    doc = build_report(RunConfig(coeffs=coeffs, spec=spec))
    dev = doc["developable"]
    case = dev["classification"]["case"] if dev["applicable"] else dev["reason"]
    return (
        doc["curvatures"]["degrees"],
        dev.get("delta_order"),
        dev.get("sigma_order"),
        dev.get("sigma_order_lower_bound"),
        case,
    )


@pytest.mark.parametrize("seed", range(40))
def test_homothety_keeps_the_orders(seed):
    coeffs, spec = draw_jet(seed)
    assert orders(*scaled(coeffs, spec, LAMBDA)) == orders(coeffs, spec)


# ---------------------------------------------------------------------------
# Cylinders and tiny tops: every order is decided on exact series, so no
# scale of the jet makes rounding noise read as an order.
# ---------------------------------------------------------------------------

CYLINDER_FLAG = "delta vanishes to reliable order; cylindrical to computed order"
#: The curve (100 x^2, x) on a02 = 1 and its image under the homothety
#: lambda = 1/100000.
LARGE_C0 = (Fraction(1), Fraction(100))
LARGE_C0_TWIN = (Fraction(1, 100000), Fraction(1, 1000))


def curve_on_cross_cap(a02, c0, field="exact"):
    """The report of the curve (c0 x^2, x) on the cross-cap with a_02 = a02 alone, truncation 8."""
    coeffs = UmbrellaCoefficients(8, {(0, 2): a02}, {})
    return build_report(RunConfig(coeffs=coeffs, spec=FamilyMP(m=1, p=2, c=(c0,)), field=field))


def assert_cylinder(doc):
    assert doc["developable"]["delta_order"] is None
    assert CYLINDER_FLAG in doc["flags"]


@pytest.mark.parametrize("c0", [1, 10, 30])
def test_the_cylinder_is_reported(c0):
    assert_cylinder(curve_on_cross_cap(Fraction(1), Fraction(c0)))


@pytest.mark.parametrize("a02, c0", [LARGE_C0, LARGE_C0_TWIN], ids=["c0=100", "homothety-twin"])
def test_the_cylinder_is_reported_at_large_c0(a02, c0):
    assert_cylinder(curve_on_cross_cap(a02, c0))


#: The exact curvature degrees of the twin; kappa3's top is -19999/10^15.
TWIN_DEGREES = [1, 0, 0]


def test_the_exact_field_finds_the_degrees_of_the_twin():
    assert curve_on_cross_cap(*LARGE_C0_TWIN)["curvatures"]["degrees"] == TWIN_DEGREES


def test_the_float_field_finds_the_exact_degrees_of_the_twin():
    # The float field prints the exact analysis: no tolerance decides a degree.
    assert curve_on_cross_cap(*LARGE_C0_TWIN, "float")["curvatures"]["degrees"] == TWIN_DEGREES
