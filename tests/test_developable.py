import math
import random
from fractions import Fraction

import pytest

from crosscap import (
    FamilyMP,
    FamilyMPQ,
    Field,
    UmbrellaCoefficients,
    UniSeries,
    analyze,
)
from crosscap.developable import (
    BRANCH_A2_GT_A3,
    BRANCH_A3_GE_A2,
    CASE_II,
    CASE_SIGMA_TOP_NONZERO,
    RuledSurface,
    osculating_director,
    osculating_surface,
)
from crosscap.frame import kappa_tilde_series, norm_series
from crosscap.series import Vec3Series, reciprocal, sqrt_series
from crosscap.obj import (
    MeshError,
    obj_mesh_text,
    obj_polyline_text,
    sample_curve_polyline,
    sample_ruled_surface,
    sample_surface_patch,
)
from conftest import rand_fraction, random_surface
from reference import developability_residual, striction_curve


def series_small(s, tol=1e-8, cap=None):
    if cap is not None:
        s = s.truncate(min(cap, s.reliable_order))
    return max(abs(c) for c in s.coeffs) <= tol


def vec_small(v, tol=1e-8, cap=None):
    return all(series_small(c, tol, cap) for c in v.components)


def s2_variant():
    co = UmbrellaCoefficients(degree=9, a={(0, 2): 1, (1, 1): 1}, b={3: -6})
    return co, FamilyMP(m=1, p=2, c=(1, 1))


# ---------------------------------------------------------------------------
# director
# ---------------------------------------------------------------------------


def test_s1_director_branch_and_frame_plane(s1):
    d = s1.developable
    assert d.branch == BRANCH_A3_GE_A2
    ns = d.director.norm_sq()
    assert abs(ns.coeffs[0] - 1.0) < 1e-9
    assert series_small(ns - UniSeries.constant(Field.FLOAT, 1.0, ns.reliable_order))
    assert series_small(d.director.dot(s1.frame.n))


def test_s2_director_branch(s2):
    assert s2.developable.branch == BRANCH_A2_GT_A3
    assert series_small(s2.developable.director.dot(s2.frame.n))


def test_s1_director_value(s1):
    # D_o(0) is the normalized (k3~ e - k2~ b)(0)
    t1, t2, t3 = kappa_tilde_series(s1.factors, s1.oracle)
    e0 = s1.frame.e.constant_vector()
    b0 = s1.frame.b.constant_vector()
    raw = tuple(t3.coeffs[0] * e - t2.coeffs[0] * b for e, b in zip(e0, b0))
    norm = math.sqrt(sum(c * c for c in raw))
    want = tuple(c / norm for c in raw)
    got = s1.developable.director.constant_vector()
    assert max(abs(p - q) for p, q in zip(got, want)) < 1e-9


# ---------------------------------------------------------------------------
# delta and the cylindrical order
# ---------------------------------------------------------------------------


def test_s1_is_cylindrical_to_computed_order(s1):
    # the image curve is planar, so the osculating developable degenerates
    # to a cylinder: delta vanishes identically and D_o is constant
    d = s1.developable
    assert d.delta_order is None
    assert series_small(d.delta)
    assert vec_small(d.director.diff() , 1e-9)
    assert d.striction.exists is False


def test_s2_delta(s2):
    d = s2.developable
    assert d.delta_order == 0
    assert abs(d.delta_top - 8.0) < 1e-9
    assert d.classification.case == CASE_II


def test_s3_delta(s3):
    d = s3.developable
    assert d.delta_order == 1  # alpha1, case (ii) with E != 0
    assert abs(d.delta_top - (-3.0)) < 1e-9


def test_director_derivative_identity(s2, s3):
    # D_o' = delta / rho^3 (k2~ x^{a2-a3} e + k3~ b) on the a2 > a3 branch
    for a in (s2, s3):
        d = a.developable
        director, branch, tilde, shifted = osculating_director(a.factors, a.frame, a.oracle)
        t1, t2, t3 = tilde
        t2b, t3b, rho_sq = shifted
        rho = sqrt_series(rho_sq)
        inv = reciprocal(rho_sq * rho)
        closed = (a.frame.e.scale(t2b) + a.frame.b.scale(t3b)).scale(d.delta * inv)
        resid = director.diff() - closed
        assert vec_small(resid, 1e-8, cap=6)


# ---------------------------------------------------------------------------
# developability of the ruled surface
# ---------------------------------------------------------------------------


def test_residual_vanishes_on_fixtures(s1, s2, s3):
    for a in (s1, s2, s3):
        surface = osculating_surface(a.factors, a.developable)
        resid = developability_residual(surface)
        assert series_small(resid, 1e-8, cap=8)


def test_cylinder_residual_zero():
    gamma = Vec3Series.make(Field.FLOAT, [0, 1.0, 2.0], [0, 0, 1.0], [0, 0.5], 6)
    xi = Vec3Series.make(Field.FLOAT, [1.0], [1.0], [0.0], 6)
    resid = developability_residual(RuledSurface(gamma, xi))
    assert series_small(resid, 1e-15)


def test_generic_ruled_surface_not_developable():
    gamma = Vec3Series.make(Field.FLOAT, [0, 1.0], [0.0], [0.0], 6)
    xi = Vec3Series.make(Field.FLOAT, [0.0], [1.0], [0, 1.0], 6)
    resid = developability_residual(RuledSurface(gamma, xi))
    assert abs(resid.coeffs[0] - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# striction curve and sigma
# ---------------------------------------------------------------------------


def test_s2_striction_exists_and_passes(s2):
    d = s2.developable
    assert d.striction.exists and d.striction.passes_through_singularity
    s0 = d.striction.curve.evaluate(0.0)
    assert max(abs(c) for c in s0) < 1e-12


def test_s2_striction_orthogonality(s2):
    d = s2.developable
    pairing = d.striction.curve.diff().dot(d.director.diff())
    assert series_small(pairing, 1e-8, cap=6)


def test_s2_sigma_collinearity(s2):
    d = s2.developable
    sw = d.striction.curve.diff()
    resid = sw - d.director.scale(d.sigma)
    assert vec_small(resid, 1e-8, cap=6)
    assert vec_small(sw.cross(d.director), 1e-8, cap=6)


def test_s2_sigma_top_vanishes(s2):
    # F = 0 makes the x^{alpha0 - 1} coefficient of sigma vanish
    d = s2.developable
    assert abs(d.classification.F_coeff) <= 1e-9
    assert d.sigma_order is not None and d.sigma_order > s2.factors.alpha0 - 1


def test_s2_classification_constants(s2):
    cls = s2.developable.classification
    assert cls.case == CASE_II
    assert cls.E_scaled == 40  # 10 * 4: proportional to the exact value 4
    assert cls.F_scaled == 0
    assert abs(cls.E_coeff - 8 / math.sqrt(5)) < 1e-9


def test_s2_variant_conical_order():
    co, spec = s2_variant()
    a = analyze(co, spec)
    d = a.developable
    # F proportional to 36 != 0 now; E proportional to 7
    assert d.classification.F_scaled != 0
    assert d.classification.E_scaled != 0
    assert d.sigma_order == a.factors.alpha0 - 1 == 1


def test_s2_variant_exact_EF_proportions():
    co, spec = s2_variant()
    a = analyze(co, spec)
    cls = a.developable.classification
    # the scaled constants are positive multiples of the printed m = 1
    # combinations 6 a11 c0^2 + a03 c0 + a02 cm + b4 a02/6 (for E) and
    # 24 a11 c0^2 + 4 a03 c0 + 12 a02 cm + b4 a02 (for F): the multiplier is
    # |E_t(0)|^2 |N(0)|^2, doubled on the E side
    e_printed = Fraction(6 + 0 + 1 + 0)   # = 7
    f_printed = Fraction(24 + 0 + 12 + 0)  # = 36
    ne2 = a.factors.tangent.norm_sq().coefficient(0)
    nn2 = a.factors.normal.norm_sq().coefficient(0)
    assert cls.E_scaled == 2 * ne2 * nn2 * e_printed
    assert cls.F_scaled == ne2 * nn2 * f_printed


def test_s3_sigma(s3):
    d = s3.developable
    assert d.striction.exists and d.striction.passes_through_singularity
    assert d.sigma_order == s3.factors.alpha0 - 1 == 3
    assert abs(d.sigma_top - (-14.0)) < 1e-8
    pairing = d.striction.curve.diff().dot(d.director.diff())
    assert series_small(pairing, 1e-8, cap=6)


def test_sigma_closed_form_identity(s2, s3):
    # sigma = |E_t| k3~ x^{alpha0-1} / rho - S' on the a2 > a3 branch
    for a in (s2, s3):
        d = a.developable
        _, _, tilde, shifted = osculating_director(a.factors, a.frame, a.oracle)
        t1, t2, t3 = tilde
        t2b, t3b, rho_sq = shifted
        ne = norm_series(a.factors.tangent)
        first = (ne * t3 * reciprocal(sqrt_series(rho_sq))).shift(a.factors.alpha0 - 1)
        closed = first - d.striction.scale.diff()
        resid = closed - d.sigma
        assert series_small(resid, 1e-8, cap=5)


def test_guarantee_sigma_top_nonzero_when_a3_ge_a2():
    # whenever alpha3 >= alpha2 with a nonvanishing delta top, sigma's top
    # survives at the predicted order alpha0 - k_cyl - 2
    rng = random.Random(2024)
    done = 0
    while done < 25:
        co = random_surface(rng)
        if rng.random() < 0.5:
            m = rng.choice((2, 3))
            spec = FamilyMPQ(m=m, p=rng.choice((2, 3)), q=rng.randrange(1, m),
                             c=(rand_fraction(rng, nonzero=True), rand_fraction(rng)))
        else:
            spec = FamilyMP(m=rng.choice((1, 2)), p=rng.choice((2, 3, 4)),
                            c=(rand_fraction(rng, nonzero=True), rand_fraction(rng)))
        try:
            a = analyze(co, spec)
        except Exception:
            continue
        d = a.developable
        if d is None or d.branch != BRANCH_A3_GE_A2:
            continue
        if d.delta_order is None or abs(d.delta_top) < 1e-6:
            continue
        if not d.striction.passes_through_singularity:
            continue
        assert d.classification.case == CASE_SIGMA_TOP_NONZERO
        assert d.sigma_order == a.factors.alpha0 - d.delta_order - 2
        assert abs(d.sigma_top) > 1e-9
        done += 1


def test_cone_striction_is_apex():
    gamma = Vec3Series.make(Field.FLOAT, [0.0], [0.0], [0.0], 8)
    xi = Vec3Series.make(Field.FLOAT, [1.0], [0, 1.0], [0, 0, 0.5], 8)
    scale, s = striction_curve(RuledSurface(gamma, xi))
    assert vec_small(s, 1e-12)
    assert series_small(scale, 1e-12)


def test_striction_curve_utility_matches_osculating(s2):
    d = s2.developable
    surface = osculating_surface(s2.factors, d)
    _, s = striction_curve(surface)
    resid = s - d.striction.curve
    assert vec_small(resid, 1e-8, cap=5)


# ---------------------------------------------------------------------------
# mesh sampling and OBJ output
# ---------------------------------------------------------------------------


def test_mesh_counting_contract():
    gamma = Vec3Series.make(Field.FLOAT, [0, 1.0], [0.0], [0.0], 4)
    xi = Vec3Series.make(Field.FLOAT, [0.0], [1.0], [0.0], 4)
    mesh = sample_ruled_surface(RuledSurface(gamma, xi), (-1, 1), (0, 1), 8, 2)
    assert len(mesh.vertices) == 16
    assert len(mesh.faces) == 7


def test_od_mesh_finite(s1):
    surface = osculating_surface(s1.factors, s1.developable)
    mesh = sample_ruled_surface(surface, (-0.3, 0.3), (-0.3, 0.3), 21, 7)
    assert len(mesh.vertices) == 21 * 7
    assert all(all(math.isfinite(c) for c in v) for v in mesh.vertices)


def test_cross_cap_double_segment():
    co = UmbrellaCoefficients(degree=4, a={(0, 2): 2}, b={})
    from crosscap.model import build_umbrella

    W = build_umbrella(co)
    mesh = sample_surface_patch(W, (-0.4, 0.4), (-0.4, 0.4), 5, 5)
    # v and -v collapse to one point on the u = 0 line: duplicated vertices
    # with z = v^2 > 0
    seen = {}
    dup = []
    for v in mesh.vertices:
        key = tuple(round(c, 12) for c in v)
        if key in seen:
            dup.append(key)
        seen[key] = True
    assert any(abs(k[0]) < 1e-12 and abs(k[1]) < 1e-12 and k[2] > 0 for k in dup)


def test_obj_text_format():
    gamma = Vec3Series.make(Field.FLOAT, [0, 1.0], [0.0], [0.0], 4)
    xi = Vec3Series.make(Field.FLOAT, [0.0], [1.0], [0.0], 4)
    mesh = sample_ruled_surface(RuledSurface(gamma, xi), (0, 1), (0, 1), 2, 2)
    text = obj_mesh_text(mesh)
    lines = text.splitlines()
    assert lines[0].startswith("v ")
    assert lines[-1] == "f 1 3 4 2"
    assert text.endswith("\n")
    # 9 significant digits
    pts = sample_curve_polyline(
        Vec3Series.make(Field.FLOAT, [0, 1 / 3], [0.0], [0.0], 4), (0, 1), 3
    )
    poly = obj_polyline_text(pts)
    assert "0.166666667" in poly
    assert "l 1 2" in poly


def test_degenerate_mesh_ranges_rejected():
    gamma = Vec3Series.make(Field.FLOAT, [0, 1.0], [0.0], [0.0], 4)
    xi = Vec3Series.make(Field.FLOAT, [0.0], [1.0], [0.0], 4)
    surface = RuledSurface(gamma, xi)
    with pytest.raises(MeshError):
        sample_ruled_surface(surface, (1, 1), (0, 1), 4, 4)
    with pytest.raises(MeshError):
        sample_ruled_surface(surface, (0, 1), (0, 1), 1, 4)


def test_branch2_consistency_identities():
    # a generic alpha3 >= alpha2 fixture: D_o' and sigma match their
    # alpha3-branch closed displays
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1, (0, 3): 1}, b={3: 2})
    a = analyze(co, FamilyMP(m=1, p=3, c=(1,)))
    d = a.developable
    assert d.branch == BRANCH_A3_GE_A2
    director, branch, tilde, shifted = osculating_director(a.factors, a.frame, a.oracle)
    t1, t2, t3 = tilde
    t2b, t3b, rho_sq = shifted
    rho = sqrt_series(rho_sq)
    closed_dir = (a.frame.e.scale(t2b) + a.frame.b.scale(t3b)).scale(
        d.delta * reciprocal(rho_sq * rho)
    )
    assert vec_small(director.diff() - closed_dir, 1e-8, cap=5)

    assert d.striction.passes_through_singularity
    ne = norm_series(a.factors.tangent)
    a0, a2, a3 = a.factors.alpha0, a.oracle.degrees[1], a.oracle.degrees[2]
    first = (ne * t3 * reciprocal(rho)).shift(a0 + a3 - a2 - 1)
    closed_sigma = first - d.striction.scale.diff()
    assert series_small(closed_sigma - d.sigma, 1e-8, cap=4)
    pairing = d.striction.curve.diff().dot(d.director.diff())
    assert series_small(pairing, 1e-8, cap=5)
