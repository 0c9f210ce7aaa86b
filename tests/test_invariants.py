import math
import random
from fractions import Fraction

import pytest

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, analyze
from crosscap.invariants import (
    PROJ_DEGENERATE,
    PROJ_GENERIC,
    PROJ_TANGENT_TO_B,
    PROJ_TANGENT_TO_N,
    InvariantError,
    c2m_shape,
    self_intersection,
    top_invariants,
)
from crosscap.frame import darboux_frame
from crosscap.series import SignedRoot
from crosscap.model import build_umbrella
from conftest import rand_fraction, random_surface
from reference import expected_tops, float_constant_vector, float_vec3, secondary_normal_top


def a0_fixture():
    # A = 6 a11 c0^2 + a03 c0 - 3 a02 cm = 6 - 6 = 0 with B = 3 != 0
    co = UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={})
    spec = FamilyMP(m=1, p=2, c=(1, 1))
    return co, spec


def c0_fixture():
    # C = 2 + 2 - 4 = 0 with c0 = 1, a02 = 2, b3 = 2
    co = UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={3: 2})
    spec = FamilyMP(m=1, p=2, c=(1,))
    return co, spec


# ---------------------------------------------------------------------------
# invariant values
# ---------------------------------------------------------------------------


def test_s1_invariants(s1):
    inv = s1.invariants
    assert (inv.A, inv.B, inv.C, inv.D) == (6, 3, -2, 0)


def test_s2_invariants(s2):
    inv = s2.invariants
    assert (inv.A, inv.B, inv.C, inv.D) == (12, 0, -5, 4)


def test_top_factorization_s1(s1):
    assert expected_tops(s1.invariants, 1, Fraction(2)) == (12, -6, 4)
    assert expected_tops(s1.invariants, 1, Fraction(2)) == s1.oracle.tops


def test_c2m_shape_validation():
    with pytest.raises(InvariantError, match="shape"):
        c2m_shape(FamilyMPQ(m=2, p=1, q=1, c=(1,)))
    with pytest.raises(InvariantError, match="shape"):
        c2m_shape(FamilyMP(m=2, p=3, c=(1,)))
    with pytest.raises(InvariantError, match="c_1"):
        c2m_shape(FamilyMP(m=2, p=2, c=(1, 1)))
    assert c2m_shape(FamilyMP(m=2, p=2, c=(1, 0, 5))) == (2, 1, 5)
    assert c2m_shape(FamilyMP(m=1, p=2, c=(3,))) == (1, 3, 0)


def test_top_factorization_random_c2m():
    # oracle tops equal (m^3 a02 A, -m^2 a02 B, -m^2 a02 C) whenever the
    # respective invariant is nonzero; zero invariants push the degree up
    rng = random.Random(77)
    done = 0
    while done < 25:
        co = random_surface(rng)
        m = rng.choice((1, 2))
        c = [rand_fraction(rng, nonzero=True)] + [Fraction(0)] * (m - 1) + [rand_fraction(rng)]
        spec = FamilyMP(m=m, p=2, c=tuple(c))
        inv = top_invariants(co, spec)
        a = analyze(co, spec)
        want = expected_tops(inv, m, co.a02)
        degrees = (m - 1, m - 1, m - 1)
        for i in range(3):
            if want[i] != 0:
                assert a.oracle.degrees[i] == degrees[i]
                assert a.oracle.tops[i] == want[i]
            else:
                assert a.oracle.degrees[i] is None or a.oracle.degrees[i] > degrees[i]
        done += 1


def test_secondary_normal_top_when_B_vanishes():
    # with B = 0 the normal structure function drops to degree 2m-1 with
    # top-term m^2 D
    rng = random.Random(31)
    done = 0
    while done < 10:
        co = random_surface(rng)
        c0 = rand_fraction(rng, nonzero=True)
        b3 = -6 * c0  # force B = 0
        a = dict(co.a)
        b = dict(co.b)
        b[3] = b3
        co = UmbrellaCoefficients(degree=co.degree, a=a, b=b)
        m = rng.choice((1, 2))
        c = [c0] + [Fraction(0)] * (m - 1) + [rand_fraction(rng)]
        spec = FamilyMP(m=m, p=2, c=tuple(c))
        inv = top_invariants(co, spec)
        if inv.D == 0:
            continue
        res = analyze(co, spec)
        assert res.oracle.degrees[1] == 2 * m - 1
        assert res.oracle.tops[1] == secondary_normal_top(inv, m)
        done += 1


# ---------------------------------------------------------------------------
# projection of the curve along e(0)
# ---------------------------------------------------------------------------


def test_projection_s1_generic(s1_coeffs, s1_spec):
    p = analyze(s1_coeffs, s1_spec).verdicts.projection
    assert p.verdict == PROJ_GENERIC
    assert (p.coeff_along_b, p.coeff_along_n) == (2, 1)  # A/3, B/3
    assert p.unit_coeff_along_b == SignedRoot(1, Fraction(1, 2))  # 1/sqrt(2)
    assert p.unit_coeff_along_n == SignedRoot(-1, Fraction(1))
    assert float(p.unit_coeff_along_b) == math.sqrt(0.5)  # rounded once
    assert float(p.unit_coeff_along_n) == -1.0


def test_projection_s2_tangent_to_b(s2_coeffs, s2_spec):
    p = analyze(s2_coeffs, s2_spec).verdicts.projection
    assert p.verdict == PROJ_TANGENT_TO_B
    assert p.coeff_along_n == 0
    assert p.coeff_along_b == 4


def test_projection_a0_tangent_to_n():
    co, spec = a0_fixture()
    inv = top_invariants(co, spec)
    assert inv.A == 0 and inv.B == 3
    p = analyze(co, spec).verdicts.projection
    assert p.verdict == PROJ_TANGENT_TO_N
    assert p.coeff_along_b == 0


def test_projection_degenerate_when_A_and_B_vanish():
    # c0 = 1, a02 = 2, b3 = -6 makes B = 0; pick cm so A = 0 too
    co = UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={3: -6})
    spec = FamilyMP(m=1, p=2, c=(1, 1))  # A = 6 + 0 - 6 = 0
    p = analyze(co, spec).verdicts.projection
    assert p.verdict == PROJ_DEGENERATE


def test_projection_verdict_matches_invariants_randomly():
    rng = random.Random(5150)
    for _ in range(20):
        co = random_surface(rng)
        m = rng.choice((1, 2))
        c = [rand_fraction(rng, nonzero=True)] + [Fraction(0)] * (m - 1) + [rand_fraction(rng)]
        spec = FamilyMP(m=m, p=2, c=tuple(c))
        inv = top_invariants(co, spec)
        p = analyze(co, spec).verdicts.projection
        assert p.coeff_along_b * 3 == inv.A
        assert p.coeff_along_n * 3 == inv.B


# ---------------------------------------------------------------------------
# self-intersection curve
# ---------------------------------------------------------------------------


def test_self_intersection_printed_formulas():
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1, (0, 3): 2}, b={3: 6})
    si = self_intersection(co, build_umbrella(co), Fraction(1))
    assert si.d12 == -1  # -b3/6
    assert si.d22 == Fraction(6 * 1 - 2, 6 * 2)  # (b3 a11 - a03)/(6 a02) = 1/3
    assert (si.d11, si.d21) == (0, 1)


def test_self_intersection_s1(s1_coeffs, s1_spec):
    si = self_intersection(s1_coeffs, build_umbrella(s1_coeffs), s1_spec.c[0])
    assert si.d12 == 0 and si.d22 == 0
    # image tangent along the principal intersection line
    assert si.image_tangent_direction == (0, 0, 2)
    assert si.tangent_to_curve is False


def test_self_intersection_s2_tangency(s2_coeffs, s2_spec):
    si = self_intersection(s2_coeffs, build_umbrella(s2_coeffs), s2_spec.c[0])
    assert si.image_tangent_direction == (2, 0, 1)
    assert si.curve_tangent_direction == (2, 0, 1)
    assert si.tangent_to_curve is True


def test_self_intersection_symmetry_random():
    rng = random.Random(66)
    for _ in range(10):
        co = random_surface(rng)
        si = self_intersection(co, build_umbrella(co), Fraction(1))
        for comp in si.image.components:
            for deg in range(min(4, comp.reliable_order + 1)):
                if deg % 2 == 1:
                    assert comp.coefficient(deg) == 0


def test_self_intersection_tangency_iff_B_zero():
    rng = random.Random(8)
    done = 0
    while done < 15:
        co = random_surface(rng)
        c0 = rand_fraction(rng, nonzero=True)
        spec = FamilyMP(m=1, p=2, c=(c0,))
        inv = top_invariants(co, spec)
        si = self_intersection(co, build_umbrella(co), spec.c[0])
        assert si.tangent_to_curve == (inv.B == 0)
        done += 1
    # and a constructed B = 0 instance
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 3, (1, 1): 1}, b={3: -12})
    spec = FamilyMP(m=1, p=2, c=(2,))
    assert top_invariants(co, spec).B == 0
    assert self_intersection(co, build_umbrella(co), spec.c[0]).tangent_to_curve is True


# ---------------------------------------------------------------------------
# contour-line pairing
# ---------------------------------------------------------------------------


def test_contour_s1_value(s1):
    c = s1.verdicts.contour
    assert c.exact_coefficient == -2  # = C
    assert c.coefficient == SignedRoot(-1, Fraction(1, 8))  # -1/(2 sqrt(2))
    assert float(c.coefficient) == -math.sqrt(0.125)  # rounded once
    assert not c.vanishes


def test_contour_c0_fixture_vanishes():
    co, spec = c0_fixture()
    a = analyze(co, spec)
    assert a.invariants.C == 0
    assert a.verdicts.contour.exact_coefficient == 0
    assert a.verdicts.contour.vanishes


def test_contour_exact_equals_C_randomly():
    rng = random.Random(13)
    for _ in range(15):
        co = random_surface(rng)
        m = rng.choice((1, 2))
        c = [rand_fraction(rng, nonzero=True)] + [Fraction(0)] * (m - 1) + [rand_fraction(rng)]
        spec = FamilyMP(m=m, p=2, c=tuple(c))
        a = analyze(co, spec)
        assert a.verdicts.contour.exact_coefficient == a.invariants.C


def test_contour_coefficient_is_the_float_frame_pairing(s1):
    # The float coefficient is the x^m coefficient of <n(x), b(0)> of the
    # unit Darboux frame, read with one square root from the exact C.
    rng = random.Random(31)
    draws = []
    for _ in range(15):
        m = rng.choice((1, 2))
        c = [rand_fraction(rng, nonzero=True)] + [Fraction(0)] * (m - 1) + [rand_fraction(rng)]
        draws.append(analyze(random_surface(rng), FamilyMP(m=m, p=2, c=tuple(c))))
    for a in [s1] + draws:
        fr = darboux_frame(a.factors)
        b0 = float_constant_vector(fr.b)
        pairing = fr.n.dot(float_vec3([b0[0]], [b0[1]], [b0[2]], fr.n.reliable_order))
        want = pairing.coeffs[a.spec.m]
        assert abs(float(a.verdicts.contour.coefficient) - want) <= 1e-9 * abs(want) + 1e-12


def test_normal_pairing_with_itself(s1):
    n = darboux_frame(s1.factors).n
    n0 = float_constant_vector(n)
    const = float_vec3([n0[0]], [n0[1]], [n0[2]], n.reliable_order)
    assert abs(n.dot(const).coeffs[0] - 1.0) < 1e-12
