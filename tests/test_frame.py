import math
import random
from fractions import Fraction

import pytest

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, analyze
from crosscap.frame import (
    FrameError,
    closed_form_reference,
    curvature_series,
    darboux_frame,
    frame_factors,
    kappa_tilde_series,
)
from crosscap.model import build_curve, build_umbrella, series_order
from crosscap.series import valuation
from conftest import random_family, random_surface
from reference import (
    direct_regular_curvatures,
    horner,
    horner_vec3,
    norm_series,
    reconstruct_regular_curvatures,
    reference_shift,
    reference_truncate,
)


def series_close(a, b, tol=1e-9):
    r = min(a.reliable_order, b.reliable_order)
    return max(abs(a.coeffs[i] - b.coeffs[i]) for i in range(r + 1)) <= tol


def series_small(a, tol=1e-9):
    return max(abs(c) for c in a.coeffs) <= tol


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def test_s1_factors(s1):
    f = s1.factors
    assert (f.alpha, f.beta, f.alpha0) == (1, 1, 2)
    assert f.tangent.x.coeffs[:3] == (2, 0, 0)
    assert f.tangent.y.coeffs[:3] == (0, 3, 0)
    assert f.tangent.z.coeffs[:3] == (2, 3, 0)
    assert f.normal.constant_vector() == (0, -2, 0)
    assert tuple(c.coefficient(f.alpha0) for c in s1.image.components) == (1, 0, 1)


def test_s3_factors(s3):
    f = s3.factors
    assert (f.alpha, f.beta, f.alpha0) == (3, 3, 4)
    assert f.tangent.constant_vector() == (4, 0, 0)
    assert f.normal.constant_vector() == (0, -2, 0)


def test_normal_value_cross_cap_diagonal_curve():
    from crosscap import GeneralCurve, UniSeries

    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2}, b={})
    g = GeneralCurve(
        c1=UniSeries.make([0, 1], 12),
        c2=UniSeries.make([0, 1, 1], 12),
    )
    f = analyze(co, g).factors
    assert f.normal.constant_vector() == (0, -2, 1)


def test_factorization_identities_exact():
    rng = random.Random(21)
    for _ in range(10):
        co = random_surface(rng)
        spec = random_family(rng)
        W = build_umbrella(co)
        order = series_order(spec.m, co.degree)
        c1, c2 = build_curve(spec, order)
        from crosscap.model import image_curve, normal_field_raw

        img = image_curve(W, c1, c2)
        raw = normal_field_raw(W, c1, c2)
        f = frame_factors(img, raw)
        der = img.diff()
        for orig, factor in zip(der.components, f.tangent.components):
            rec = reference_shift(factor, f.alpha)
            r = min(orig.reliable_order, rec.reliable_order)
            assert orig.coeffs[: r + 1] == rec.coeffs[: r + 1]
        for orig, factor in zip(raw.components, f.normal.components):
            rec = reference_shift(factor, f.beta)
            r = min(orig.reliable_order, rec.reliable_order)
            assert orig.coeffs[: r + 1] == rec.coeffs[: r + 1]
        # alpha0 is the valuation of the image itself.
        assert not any(c.coeffs[i] for c in img.components for i in range(f.alpha0))
        assert any(c.coeffs[f.alpha0] for c in img.components)


def test_normal_tangent_orthogonality_as_series(s1, s2, s3):
    for a in (s1, s2, s3):
        pairing = a.factors.normal.dot(a.factors.tangent)
        assert all(c == 0 for c in pairing.coeffs)


# ---------------------------------------------------------------------------
# Darboux frame
# ---------------------------------------------------------------------------


def test_s1_frame_values(s1):
    fr = darboux_frame(s1.factors)
    e0 = fr.e.constant_vector()
    n0 = fr.n.constant_vector()
    b0 = fr.b.constant_vector()
    r = 1 / math.sqrt(2)
    assert max(abs(a - b) for a, b in zip(e0, (r, 0, r))) < 1e-12
    assert max(abs(a - b) for a, b in zip(n0, (0, -1, 0))) < 1e-12
    assert max(abs(a - b) for a, b in zip(b0, (-r, 0, r))) < 1e-12


def test_frame_value_formula_random_c2m():
    # e(0) = (2c0, 0, a02)/r, n(0) = (0, -a02, 0)/|a02|, b(0) = sgn(a02)(-a02, 0, 2c0)/r
    rng = random.Random(17)
    for _ in range(10):
        co = random_surface(rng)
        c0 = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        m = rng.choice((1, 2))
        spec = FamilyMP(m=m, p=2, c=(c0,))
        a = analyze(co, spec)
        a02f, c0f = float(co.a02), float(c0)
        r = math.sqrt(4 * c0f**2 + a02f**2)
        s = 1.0 if a02f > 0 else -1.0
        e0 = (2 * c0f / r, 0.0, a02f / r)
        n0 = (0.0, -s, 0.0)
        b0 = (-s * a02f / r, 0.0, s * 2 * c0f / r)
        fr = darboux_frame(a.factors)
        assert max(abs(p - q) for p, q in zip(fr.e.constant_vector(), e0)) < 1e-9
        assert max(abs(p - q) for p, q in zip(fr.n.constant_vector(), n0)) < 1e-9
        assert max(abs(p - q) for p, q in zip(fr.b.constant_vector(), b0)) < 1e-9


def orthonormality_defect(frame, order_cap=None):
    # The 1e-9 absolute tolerance presumes frame coefficients of magnitude
    # O(1)-O(10^2); order_cap keeps wild high-order coefficients of random
    # draws out of the comparison window.
    worst = 0.0
    pairs = [
        (frame.e, frame.e, 1.0),
        (frame.b, frame.b, 1.0),
        (frame.n, frame.n, 1.0),
        (frame.e, frame.b, 0.0),
        (frame.e, frame.n, 0.0),
        (frame.b, frame.n, 0.0),
    ]
    for u, v, target in pairs:
        p = u.dot(v)
        if order_cap is not None:
            p = reference_truncate(p, order_cap)
        worst = max(worst, abs(p.coeffs[0] - target))
        worst = max(worst, max((abs(c) for c in p.coeffs[1:]), default=0.0))
    return worst


def frame_magnitude(frame, order_cap):
    mags = []
    for vec in (frame.e, frame.b, frame.n):
        for comp in vec.components:
            mags.extend(abs(c) for c in reference_truncate(comp, order_cap).coeffs)
    return max(mags)


def test_orthonormality_fixtures(s1, s2, s3):
    for a in (s1, s2, s3):
        fr = darboux_frame(a.factors)
        assert orthonormality_defect(fr) <= 1e-9
        cross = fr.n.cross(fr.e) - fr.b
        assert all(series_small(c, 1e-9) for c in cross.components)


# ---------------------------------------------------------------------------
# curvature series and numerators
# ---------------------------------------------------------------------------


def test_frenet_antisymmetry(s1, s2, s3):
    for a in (s1, s2, s3):
        fr = darboux_frame(a.factors)
        lhs = fr.e.diff().dot(fr.b) + fr.b.diff().dot(fr.e)
        assert series_small(lhs, 1e-9)


def test_frenet_reconstruction(s1):
    fr = darboux_frame(s1.factors)
    k1, k2, k3 = curvature_series(fr)
    resid = fr.e.diff() - fr.b.scale(k1) - fr.n.scale(k2)
    assert all(series_small(c, 1e-9) for c in resid.components)


def test_s1_kappa2_constant_term(s1):
    k2 = curvature_series(darboux_frame(s1.factors))[1]
    assert abs(k2.coeffs[0] - (-6 / (2 * math.sqrt(2) * 2))) < 1e-12


def test_s1_numerators(s1):
    k1, k2, k3 = s1.numerators
    assert valuation(k1).order == 0 and k1.coeffs[0] == 12
    assert all(c == 0 for c in k1.coeffs[1:])
    assert all(c == 0 for c in k2.coeffs[1:]) and k2.coeffs[0] == -6
    assert k3.coeffs[:3] == (4, 12, 0)


def test_numerators_match_float_curvatures(s1, s2, s3):
    # khat_i / (norm denominators) equals the frame-side kappa_i series
    from crosscap.series import reciprocal

    for a in (s1, s2, s3):
        ne = norm_series(a.factors.tangent)
        nn = norm_series(a.factors.normal)
        k1, k2, k3 = (k.to_float() for k in a.numerators)
        d1 = reciprocal(ne * ne * nn)
        d2 = reciprocal(ne * nn)
        d3 = reciprocal(ne * nn * nn)
        kappas = curvature_series(darboux_frame(a.factors))
        assert series_close(k1 * d1, kappas[0])
        assert series_close(k2 * d2, kappas[1])
        assert series_close(k3 * d3, kappas[2])


def test_s3_numerator_valuations(s3):
    assert [valuation(k).order for k in s3.numerators] == [1, 2, 0]


# ---------------------------------------------------------------------------
# divergence reports and closed forms
# ---------------------------------------------------------------------------


def test_s1_report(s1):
    assert s1.oracle.degrees == (0, 0, 0)
    assert s1.oracle.tops == (12, -6, 4)


def test_s2_report(s2):
    assert s2.oracle.degrees == (0, 1, 0)
    assert s2.oracle.tops == (12, 4, 5)


def test_s3_report(s3):
    assert s3.oracle.degrees == (1, 2, 0)
    assert s3.oracle.tops == (96, -30, -8)


def test_s1_closed_form(s1_coeffs, s1_spec):
    ref = closed_form_reference(s1_spec, s1_coeffs)
    assert ref.degrees == (0, 0, 0)
    assert ref.tops == (12, -6, 4)
    assert ref.advisory == (False, False, False)


def test_s3_closed_form(s3_coeffs, s3_spec):
    ref = closed_form_reference(s3_spec, s3_coeffs)
    assert ref.degrees == (1, 2, 0)
    assert ref.tops == (96, -30, -8)
    # the p=1 kappa3 constant is advisory: it carries c0 to the first power
    assert ref.advisory == (False, False, True)


def test_closed_form_literal_transcription_p5():
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2}, b={3: 4})
    spec = FamilyMP(m=2, p=5, c=(1,))
    ref = closed_form_reference(spec, co)
    # tabulated +m^3 a02^2 b3/2 at degree 2m-1 (constant known to be advisory)
    assert ref.degrees[0] == 3
    assert ref.tops[0] == Fraction(2**3 * 4 * 4, 2)
    assert ref.advisory[0] is True


def test_closed_form_rejects_general_curve():
    from crosscap import GeneralCurve, UniSeries

    co = UmbrellaCoefficients(degree=4, a={(0, 2): 2}, b={})
    g = GeneralCurve(
        c1=UniSeries.make([0, 1], 8),
        c2=UniSeries.make([0, 0, 1], 8),
    )
    with pytest.raises(FrameError, match="families"):
        closed_form_reference(g, co)


def test_genericity_guard_b3_zero():
    # a vanishing tabulated top voids the degree claim: the true valuation
    # must strictly exceed it (checked for the flat-curve entries)
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1, (0, 3): 1}, b={})
    for spec in (FamilyMP(m=1, p=5, c=(1,)), FamilyMP(m=1, p=3, c=(2,))):
        oracle = analyze(co, spec).oracle
        ref = closed_form_reference(spec, co)
        for i in range(3):
            if ref.tops[i] == 0:
                assert oracle.degrees[i] is None or oracle.degrees[i] > ref.degrees[i]


# ---------------------------------------------------------------------------
# adjudicated reference constants (independent numeric evidence lives in the
# series oracle; these tests pin the computed values so regressions surface)
# ---------------------------------------------------------------------------


def test_adjudicated_constant_mp_p3plus_kappa2():
    for m, p in ((1, 3), (2, 3), (1, 5), (3, 4)):
        co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1}, b={3: 4})
        spec = FamilyMP(m=m, p=p, c=(2, 1))
        oracle = analyze(co, spec).oracle
        assert oracle.degrees[1] == m - 1
        assert oracle.tops[1] == Fraction(-(m**2) * 2 * 4, 2)  # no (p - 1) factor


def test_adjudicated_constant_mp_p5plus_kappa1_sign():
    for m, p in ((1, 5), (2, 5), (1, 6)):
        co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1}, b={3: 4})
        spec = FamilyMP(m=m, p=p, c=(2, 1))
        oracle = analyze(co, spec).oracle
        assert oracle.degrees[0] == 2 * m - 1
        assert oracle.tops[0] == Fraction(-(m**3) * 4 * 4, 2)  # negative sign


def test_adjudicated_constant_mpq_p4plus_kappa1():
    for m, q, p in ((2, 1, 4), (3, 1, 4), (3, 2, 5)):
        co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1}, b={3: 4})
        spec = FamilyMPQ(m=m, p=p, q=q, c=(2, 1))
        oracle = analyze(co, spec).oracle
        assert oracle.degrees[0] == 2 * m - 1
        assert oracle.tops[0] == Fraction(-(m**3) * 4 * 4, 2)


def test_adjudicated_constant_mpq_p1_kappa3_c0_squared():
    for m, q, c0 in ((2, 1, 2), (3, 2, 2), (3, 1, -3)):
        co = UmbrellaCoefficients(degree=6, a={(0, 2): 3, (1, 1): 1, (0, 3): 1}, b={3: 2})
        spec = FamilyMPQ(m=m, p=1, q=q, c=(c0,))
        oracle = analyze(co, spec).oracle
        assert oracle.degrees[2] == q - 1
        assert oracle.tops[2] == -Fraction(q * (m + q) * 3) * c0 * c0


def test_p4_entry_exact_for_all_m():
    # the p=4 tangential constant -m^3 a02^2 (8 c0 + b3/2) holds as printed
    for m, c0, b3 in ((1, 2, 4), (2, 1, 2), (2, -2, 6)):
        co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1}, b={3: b3})
        spec = FamilyMP(m=m, p=4, c=(c0,))
        oracle = analyze(co, spec).oracle
        expected = -Fraction(m**3) * 4 * (8 * Fraction(c0) + Fraction(b3, 2))
        assert oracle.degrees[0] == 2 * m - 1
        assert oracle.tops[0] == expected


# ---------------------------------------------------------------------------
# regular-point reconstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [0.01, -0.01, 0.02, -0.02])
def test_regular_reconstruction_matches_direct(s1, s2, s3, x):
    for a in (s1, s2, s3):
        rec = reconstruct_regular_curvatures(curvature_series(darboux_frame(a.factors)), a.factors, x)
        ref = direct_regular_curvatures(a.image, a.raw_normal, x)
        for name in ("kappa_g", "kappa_nu", "kappa_t"):
            lhs, rhs = getattr(rec, name), getattr(ref, name)
            assert abs(lhs - rhs) <= 1e-6 * max(1e-30, abs(rhs)), (name, x, lhs, rhs)


def test_sign_factor_flips_at_negative_x(s1):
    # alpha + beta = 2 even, beta = 1 odd: kappa_nu flips against kappa_2/|E|x
    kappas = curvature_series(darboux_frame(s1.factors))
    rec_pos = reconstruct_regular_curvatures(kappas, s1.factors, 0.01)
    rec_neg = reconstruct_regular_curvatures(kappas, s1.factors, -0.01)
    k2 = kappas[1]
    et = s1.factors.tangent.to_float()

    def raw_ratio(x):
        v = horner_vec3(et, x)
        return horner(k2, x) / (math.sqrt(sum(c * c for c in v)) * x)

    assert abs(rec_pos.kappa_nu - raw_ratio(0.01)) < 1e-9
    assert abs(rec_neg.kappa_nu + raw_ratio(-0.01)) < 1e-9


def test_kappa_t_continuous_when_alpha3_ge_alpha(s2):
    # alpha3 = 0 < alpha = 1 here, so kappa_t diverges; instead check the
    # sign-free definition: kappa_t(x) = kappa_3(x)/(|E(x)| x^alpha) both sides
    kappas = curvature_series(darboux_frame(s2.factors))
    for x in (0.01, -0.01):
        rec = reconstruct_regular_curvatures(kappas, s2.factors, x)
        ref = direct_regular_curvatures(s2.image, s2.raw_normal, x)
        assert abs(rec.kappa_t - ref.kappa_t) <= 1e-6 * abs(ref.kappa_t)


def test_reconstruction_rejects_zero():
    with pytest.raises(FrameError, match="singular"):
        reconstruct_regular_curvatures(
            (None, None, None), None, 0.0
        )


# ---------------------------------------------------------------------------
# kappa-tilde unit parts
# ---------------------------------------------------------------------------


def test_kappa_tilde_tops(s2):
    t1, t2, t3 = kappa_tilde_series(darboux_frame(s2.factors), s2.oracle)
    ne = math.sqrt(5.0)
    assert abs(t1.coeffs[0] - 12 / 5) < 1e-9
    assert abs(t2.coeffs[0] - 4 / ne) < 1e-9
    assert abs(t3.coeffs[0] - 5 / ne) < 1e-9


def test_frame_properties_random_draws():
    rng = random.Random(123)
    done = 0
    while done < 25:
        co = random_surface(rng)
        spec = random_family(rng)
        a = analyze(co, spec)
        fr = darboux_frame(a.factors)
        if frame_magnitude(fr, 8) > 1e3:
            continue  # outside the magnitude regime the tolerance presumes
        assert orthonormality_defect(fr, order_cap=8) <= 1e-9
        anti = reference_truncate(fr.e.diff().dot(fr.n) + fr.n.diff().dot(fr.e), 8)
        assert series_small(anti, 1e-9)
        done += 1
