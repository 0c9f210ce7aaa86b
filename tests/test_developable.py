"""The exact osculating developable: director V, delta numerator R, striction and sigma.

Identities of the exact chain hold coefficient by coefficient, so they are
checked with ``==``.  The float chain of the unit Darboux frame
(``reference.reference_osculating_developable``) is the independent
reference: on the fixtures and on the 128 dense jets of the benchmark's
universe, each analysed at the truncation its report reads, both must find
the same orders, case and signs, and the same tops to 1e-9 relative.  An
exact second route to delta's numerator R, the identity that the frame
relations give R through the curvature numerators, must equal it on those
jets and on drawn sparse ones.
"""

import math
import random
from fractions import Fraction

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)

from crosscap import (
    FamilyMP,
    FamilyMPQ,
    UmbrellaCoefficients,
    analyze,
    parse_config,
)
from crosscap.cli import fixture_text
from crosscap import developable
from crosscap.developable import (
    BRANCH_A2_GT_A3,
    BRANCH_A3_GE_A2,
    CASE_II,
    CASE_SIGMA_TOP_NONZERO,
    DevelopableError,
    osculating_developable,
)
from crosscap.frame import darboux_frame, kappa_tilde_series
from crosscap.series import (
    ReliabilityError,
    SeriesError,
    SignedRoot,
    Vec3Series,
    factor_power,
    reciprocal,
    sqrt_series,
    valuation,
)
from crosscap.obj import (
    MeshError,
    RuledSurface,
    obj_mesh_text,
    obj_polyline_text,
    osculating_surface,
    sample_curve_polyline,
    sample_ruled_surface,
    sample_surface_patch,
)
from conftest import rand_fraction, random_surface
from reference import (
    FLOAT_TOL,
    developability_residual,
    float_constant_vector,
    float_series,
    float_vec3,
    norm_series,
    over_sqrt,
    reference_neg,
    reference_osculating_developable,
    reference_reciprocal,
    reference_shift,
    striction_curve,
)


def series_small(s, tol=1e-8, cap=None):
    cs = s.coeffs if cap is None else s.coeffs[: cap + 1]
    return max(abs(c) for c in cs) <= tol


def vec_small(v, tol=1e-8, cap=None):
    return all(series_small(c, tol, cap) for c in v.components)


def is_zero(s):
    """Every reliable coefficient of the exact series s (or 3-vector of series) is 0."""
    parts = s.components if isinstance(s, Vec3Series) else (s,)
    return all(c == 0 for part in parts for c in part.coeffs)


def s2_variant():
    co = UmbrellaCoefficients(degree=9, a={(0, 2): 1, (1, 1): 1}, b={3: -6})
    return co, FamilyMP(m=1, p=2, c=(1, 1))


def striction(a):
    """The exact striction curve img - (T~ / R~) V and the derivative img' of the curve."""
    d = a.developable
    t, r = d.striction.scale
    img = a.image
    return img - d.director.scale(t * reference_reciprocal(r)), img.diff()


# ---------------------------------------------------------------------------
# director
# ---------------------------------------------------------------------------


def test_s1_director_branch_and_frame_plane(s1):
    d = s1.developable
    assert d.branch == BRANCH_A3_GE_A2
    assert is_zero(d.director.dot(s1.factors.normal))
    unit = osculating_surface(s1.image, d.director).xi
    ns = unit.norm_sq()
    assert series_small(ns - float_series([1.0], ns.reliable_order), 1e-12)


def test_s2_director_branch(s2):
    assert s2.developable.branch == BRANCH_A2_GT_A3
    assert is_zero(s2.developable.director.dot(s2.factors.normal))


def test_s1_director_value(s1):
    # D_o(0) is the normalized (k3~ e - k2~ b)(0) of the unit frame
    frame = darboux_frame(s1.factors)
    t1, t2, t3 = kappa_tilde_series(frame, s1.oracle)
    e0, b0 = float_constant_vector(frame.e), float_constant_vector(frame.b)
    raw = tuple(t3.coeffs[0] * e - t2.coeffs[0] * b for e, b in zip(e0, b0))
    norm = math.sqrt(sum(c * c for c in raw))
    want = tuple(c / norm for c in raw)
    got = float_constant_vector(osculating_surface(s1.image, s1.developable.director).xi)
    assert max(abs(p - q) for p, q in zip(got, want)) < 1e-12


# ---------------------------------------------------------------------------
# delta and the cylindrical order
# ---------------------------------------------------------------------------


def test_s1_is_cylindrical_to_computed_order(s1):
    # the image curve is planar, so the osculating developable degenerates
    # to a cylinder: R vanishes identically and V' is parallel to V
    d = s1.developable
    assert d.delta_order is None
    assert is_zero(d.delta)
    assert is_zero(d.director.cross(d.director.diff()))
    assert d.striction.exists is False


@pytest.mark.parametrize("error", [ReliabilityError, SeriesError])
def test_only_a_reliability_shortfall_makes_the_developable_not_applicable(s1, monkeypatch, error):
    def failing(*args):
        raise error("raised in the chain")

    monkeypatch.setattr(developable, "delta_invariant", failing)
    with pytest.raises(ValueError, match="raised in the chain") as info:
        osculating_developable(s1.factors, s1.oracle, s1.cross)
    assert type(info.value) is (DevelopableError if error is ReliabilityError else SeriesError)


def test_s2_delta(s2):
    d = s2.developable
    assert d.delta_order == 0
    assert d.delta_top == SignedRoot(1, Fraction(64))
    assert float(d.delta_top) == 8.0
    assert d.classification.case == CASE_II


def test_s3_delta(s3):
    d = s3.developable
    assert d.delta_order == 1  # alpha1, case (ii) with E != 0
    assert d.delta_top == SignedRoot(-1, Fraction(9))
    assert float(d.delta_top) == -3.0


def test_director_derivative_identity(s1, s2, s3):
    # V and V' lie in the tangent plane, so V x V' = (R / |N|^2) N
    for a in (s1, s2, s3):
        d = a.developable
        normal = a.factors.normal
        assert is_zero(d.director.cross(d.director.diff()).scale(normal.norm_sq()) - normal.scale(d.delta))


# ---------------------------------------------------------------------------
# developability of the ruled surface
# ---------------------------------------------------------------------------


def test_residual_vanishes_on_fixtures(s1, s2, s3):
    for a in (s1, s2, s3):
        surface = osculating_surface(a.image, a.developable.director)
        resid = developability_residual(surface)
        assert series_small(resid, 1e-8, cap=8)
        # det(img', V, V') = 0 exactly
        img = a.image
        V = a.developable.director
        assert is_zero(img.diff().dot(V.cross(V.diff())))


def test_cylinder_residual_zero():
    gamma = float_vec3([0, 1.0, 2.0], [0, 0, 1.0], [0, 0.5], 6)
    xi = float_vec3([1.0], [1.0], [0.0], 6)
    resid = developability_residual(RuledSurface(gamma, xi))
    assert series_small(resid, 1e-15)


def test_generic_ruled_surface_not_developable():
    gamma = float_vec3([0, 1.0], [0.0], [0.0], 6)
    xi = float_vec3([0.0], [1.0], [0, 1.0], 6)
    resid = developability_residual(RuledSurface(gamma, xi))
    assert abs(resid.coeffs[0] - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# striction curve and sigma
# ---------------------------------------------------------------------------


def test_s2_striction_exists_and_passes(s2):
    d = s2.developable
    assert d.striction.exists and d.striction.passes_through_singularity
    s, _ = striction(s2)
    assert all(c == 0 for c in s.constant_vector())
    assert d.striction.scale[0].coeffs[0] == 0


def test_s2_striction_orthogonality(s2):
    # s' . D' = 0, with D' = (V' |V|^2 - V (V . V')) / |V|^3
    V = s2.developable.director
    dV = V.diff()
    s, _ = striction(s2)
    assert is_zero(s.diff().dot(dV.scale(V.norm_sq()) - V.scale(V.dot(dV))))


def test_s2_sigma_collinearity(s2):
    # s' = sigma D, so s' x V = 0 and S = (s' . V) R~^2
    d = s2.developable
    s, _ = striction(s2)
    r = d.striction.scale[1]
    assert is_zero(s.diff().cross(d.director))
    assert is_zero(s.diff().dot(d.director) * (r * r) - d.sigma)


def test_s2_sigma_top_vanishes(s2):
    # F = 0 makes the x^{alpha0 - 1} coefficient of sigma vanish
    d = s2.developable
    assert d.classification.F_coeff == SignedRoot(0, Fraction(0))
    assert float(d.classification.F_coeff) == 0.0
    assert d.sigma_order is not None and d.sigma_order > s2.factors.alpha0 - 1


def test_s2_classification_constants(s2):
    cls = s2.developable.classification
    assert cls.case == CASE_II
    assert cls.E_scaled == 40  # 10 * 4: proportional to the exact value 4
    assert cls.F_scaled == 0
    assert cls.E_coeff == SignedRoot(1, Fraction(64, 5))  # 8 / sqrt(5)
    assert float(cls.E_coeff) == over_sqrt(Fraction(8), Fraction(5)) == 3.5777087639996634


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
    assert d.sigma_top == SignedRoot(-1, Fraction(196))
    assert float(d.sigma_top) == -14.0
    V = d.director
    dV = V.diff()
    s, _ = striction(s3)
    assert is_zero(s.diff().dot(dV.scale(V.norm_sq()) - V.scale(V.dot(dV))))


def test_sigma_closed_form_identity(s2, s3):
    # The float reference: sigma = |E_t| k3~ x^{alpha0-1} / rho - S' on the a2 > a3 branch
    for a in (s2, s3):
        ref = reference_osculating_developable(a.factors, a.oracle, a.image)
        t1, t2, t3 = ref.tilde
        t2b, t3b, rho_sq = ref.shifted
        ne = norm_series(a.factors.tangent)
        first = reference_shift(ne * t3 * reciprocal(sqrt_series(rho_sq)), a.factors.alpha0 - 1)
        closed = first - ref.scale.diff()
        resid = closed - ref.sigma
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
        if d.delta_order is None:
            continue
        if not d.striction.passes_through_singularity:
            continue
        assert d.classification.case == CASE_SIGMA_TOP_NONZERO
        assert d.sigma_order == a.factors.alpha0 - d.delta_order - 2
        assert d.sigma_top != 0
        done += 1


#: Jets on the standard cross-cap (a02 = 2 and no other a_ij) at truncation
#: 7: (b, curve, branch, striction exists, striction passes through 0).
STRICTION_JETS = {
    # a2 > a3: val(T) = 3 > val(R) = 1, and the other branch's bound,
    # alpha0 - 1 = 1, would say the curve misses the singular point.
    "a2-gt-a3": ({}, FamilyMP(m=1, p=4, c=(1,)), BRANCH_A2_GT_A3, True, True),
    "a3-ge-a2": ({}, FamilyMP(m=1, p=2, c=(1, 1)), BRANCH_A3_GE_A2, True, True),
    # val(T) = val(R) = 1: T / R is a series that does not vanish at 0.
    "boundary": ({3: 1}, FamilyMP(m=1, p=4, c=(1,)), BRANCH_A3_GE_A2, True, False),
    # val(T) = 1 < val(R) = 2: T / R is no series.
    "no-striction": ({3: 1}, FamilyMP(m=1, p=5, c=(1,)), BRANCH_A3_GE_A2, False, False),
}


@pytest.mark.parametrize("name", sorted(STRICTION_JETS))
def test_the_striction_decisions_follow_the_valuations_of_T_and_R(name):
    # The striction curve img - (T / R) V exists when T / R is a series,
    # val(T) >= val(R), and passes through the singular point when T / R
    # vanishes at 0, val(T) > val(R).  The chain decides both from a bound
    # on val(T) that depends on the branch; here they are read from the
    # series T = -x^alpha V . (N x E_t) and R themselves.
    b, spec, branch, exists, passes = STRICTION_JETS[name]
    a = analyze(UmbrellaCoefficients(7, {(0, 2): 2}, b), spec)
    d = a.developable
    t = valuation(d.director.dot(a.cross).shift(a.factors.alpha))
    r = valuation(d.delta)
    assert not t.is_zero_to_order and not r.is_zero_to_order
    assert (d.branch, d.striction.exists, d.striction.passes_through_singularity) == (branch, exists, passes)
    assert (t.order >= r.order, t.order > r.order) == (exists, passes)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_the_sigma_order_lower_bound_never_exceeds_the_order_a_longer_jet_finds(p):
    # A sigma that vanishes to reliable order R has order R + 1 or more.  On
    # these jets the shortest truncation with a developable (5, 6 and 7)
    # leaves sigma vanishing to order 0, and every longer one finds it at
    # order 1: the bound is met exactly.
    spec = FamilyMP(m=1, p=p, c=(1,))
    found = analyze(UmbrellaCoefficients(12, {(0, 2): 2}, {}), spec).developable.sigma_order
    bounds = []
    for k in range(4, 12):
        d = analyze(UmbrellaCoefficients(k, {(0, 2): 2}, {}), spec).developable
        if d is not None:
            assert d.striction.passes_through_singularity and d.sigma_order_lower_bound <= found
            if d.sigma_order is None:
                bounds.append(d.sigma_order_lower_bound)
    assert bounds == [found] == [1]


def test_cone_striction_is_apex():
    gamma = float_vec3([0.0], [0.0], [0.0], 8)
    xi = float_vec3([1.0], [0, 1.0], [0, 0, 0.5], 8)
    scale, s = striction_curve(RuledSurface(gamma, xi))
    assert vec_small(s, 1e-12)
    assert series_small(scale, 1e-12)


def test_striction_curve_utility_matches_osculating(s2):
    surface = osculating_surface(s2.image, s2.developable.director)
    _, s = striction_curve(surface)
    resid = s - striction(s2)[0].to_float()
    assert vec_small(resid, 1e-8, cap=5)


# ---------------------------------------------------------------------------
# the exact chain against the float reference
# ---------------------------------------------------------------------------


def report_rungs():
    """s1-s3 and the 128 dense jets, each analysed at the truncation its report reads."""
    texts = [fixture_text(name) for name in ("s1", "s2", "s3")]
    texts += [
        workloads.dense_config(shape, variant, "exact")
        for shape in range(len(workloads.DENSE_SHAPES))
        for variant in range(workloads.DENSE_VARIANTS)
    ]
    for text in texts:
        cfg = parse_config(text)
        yield analyze(cfg.coeffs, cfg.spec).report_rung


def close(got, want):
    return got == want or abs(got - want) <= 1e-9 * abs(want)


def sign(x):
    return (x > 0) - (x < 0)


def test_exact_chain_agrees_with_the_float_reference():
    count = 0
    for a in report_rungs():
        d, ref = a.developable, reference_osculating_developable(a.factors, a.oracle, a.image)
        assert (d.branch, d.classification.case) == (ref.branch, ref.case)
        assert d.delta_order == ref.delta_order
        assert (d.striction.exists, d.striction.passes_through_singularity) == (ref.exists, ref.passes)
        assert d.sigma_order == ref.sigma_order
        for got, want in ((d.delta_top, ref.delta_top), (d.sigma_top, ref.sigma_top)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.sign == sign(want) and close(float(got), want), (got, want)
        cls = d.classification
        for got, want in ((cls.E_coeff, ref.E_coeff), (cls.F_coeff, ref.F_coeff)):
            assert (got is None) == (want is None)
            if got is not None:
                assert abs(float(got) - want) <= 1e-9 * abs(want) + FLOAT_TOL
        # the mesh's unit director is the reference's; the float chain's
        # rounding grows with the degree, so the comparison stops at x^8
        unit = osculating_surface(a.image, d.director).xi
        scale = max(abs(c) for comp in unit.components for c in comp.coeffs[:9])
        assert vec_small(unit - ref.director, 1e-9 * scale, cap=8)
        count += 1
    assert count == 3 + 128


def sparse_rungs(count):
    """``count`` drawn sparse jets whose developable applies, each at the truncation its report reads.

    Truncation 6 to 9, a family curve of multiplicity 1 to 3, and each a_ij
    and b_i present with probability 0.3 (a_02 always).
    """
    rng = random.Random(5)
    found = []
    while len(found) < count:
        k = rng.randint(6, 9)
        a = {(i, s - i): rand_fraction(rng, nonzero=True) for s in range(2, k + 1) for i in range(s + 1)}
        a = {key: value for key, value in a.items() if rng.random() < 0.3}
        a[(0, 2)] = rand_fraction(rng, nonzero=True)
        b = {i: rand_fraction(rng, nonzero=True) for i in range(3, k + 1) if rng.random() < 0.3}
        m = rng.randint(1, 3)
        c = (rand_fraction(rng, nonzero=True), rand_fraction(rng))
        if m == 1 or rng.random() < 0.5:
            spec = FamilyMP(m=m, p=rng.randint(2, 4), c=c)
        else:
            spec = FamilyMPQ(m=m, p=rng.randint(1, 3), q=rng.randint(1, m - 1), c=c)
        rung = analyze(UmbrellaCoefficients(k, a, b), spec).report_rung
        if rung.developable is not None:
            found.append(rung)
    return found


def test_delta_numerator_is_the_frame_identity():
    # With E = E_t, N and C = N x E, the relations E.N = C.E = C.N = 0,
    # E x C = |E|^2 N and N x C = -|N|^2 E turn R = (V x V').N, for
    # V = h3 E - h2 C, into
    #   R = khat_1 (h3^2 + h2^2 |N|^2) + |E|^2 |N|^2 (h2 h3' - h3 h2')
    #       - 1/2 h2 h3 |E|^2 (|N|^2)',
    # with h2, h3 the numerators khat_2, khat_3 factored by their degrees and
    # the one of higher degree shifted by the gap.
    rungs = [a for a in report_rungs() if a.developable is not None]
    assert len(rungs) == 3 + 128
    rungs += sparse_rungs(60)
    for a in rungs:
        _, a2, a3 = a.oracle.degrees
        k1, k2, k3 = a.oracle.numerators
        h2 = factor_power(k2, a2).shift(max(a2 - a3, 0))
        h3 = factor_power(k3, a3).shift(max(a3 - a2, 0))
        e2, n2 = a.factors.tangent.norm_sq(), a.factors.normal.norm_sq()
        R = (
            k1 * (h3 * h3 + h2 * h2 * n2)
            + e2 * n2 * (h2 * h3.diff() - h3 * h2.diff())
            - h2 * h3 * e2 * n2.diff() * Fraction(1, 2)
        )
        delta = a.developable.delta
        assert R.reliable_order == delta.reliable_order, a.spec
        assert R.coeffs == delta.coeffs, a.spec


# ---------------------------------------------------------------------------
# mesh sampling and OBJ output
# ---------------------------------------------------------------------------


def test_mesh_counting_contract():
    gamma = float_vec3([0, 1.0], [0.0], [0.0], 4)
    xi = float_vec3([0.0], [1.0], [0.0], 4)
    mesh = sample_ruled_surface(RuledSurface(gamma, xi), (-1, 1), (0, 1), 8, 2)
    assert (mesh.rows, mesh.cols, len(mesh.coords)) == (8, 2, 3 * 16)
    lines = obj_mesh_text(mesh).splitlines()
    assert sum(line.startswith("v ") for line in lines) == 16
    assert sum(line.startswith("f ") for line in lines) == 7


def test_od_mesh_finite(s1):
    surface = osculating_surface(s1.image, s1.developable.director)
    mesh = sample_ruled_surface(surface, (-0.3, 0.3), (-0.3, 0.3), 21, 7)
    assert len(mesh.coords) == 3 * 21 * 7
    assert all(map(math.isfinite, mesh.coords))


def test_cross_cap_double_segment():
    co = UmbrellaCoefficients(degree=4, a={(0, 2): 2}, b={})
    from crosscap.model import build_umbrella

    W = build_umbrella(co)
    mesh = sample_surface_patch(W, (-0.4, 0.4), (-0.4, 0.4), 5, 5)
    # v and -v collapse to one point on the u = 0 line: duplicated vertices
    # with z = v^2 > 0
    seen = {}
    dup = []
    for k in range(0, len(mesh.coords), 3):
        key = tuple(round(c, 12) for c in mesh.coords[k : k + 3])
        if key in seen:
            dup.append(key)
        seen[key] = True
    assert any(abs(k[0]) < 1e-12 and abs(k[1]) < 1e-12 and k[2] > 0 for k in dup)


def test_obj_text_format():
    gamma = float_vec3([0, 1.0], [0.0], [0.0], 4)
    xi = float_vec3([0.0], [1.0], [0.0], 4)
    mesh = sample_ruled_surface(RuledSurface(gamma, xi), (0, 1), (0, 1), 2, 2)
    text = obj_mesh_text(mesh)
    lines = text.splitlines()
    assert lines[0].startswith("v ")
    assert lines[-1] == "f 1 3 4 2"
    assert text.endswith("\n")
    # 9 significant digits
    pts = sample_curve_polyline(
        float_vec3([0, 1 / 3], [0.0], [0.0], 4), (0, 1), 3
    )
    poly = obj_polyline_text(pts)
    assert "0.166666667" in poly
    assert "l 1 2" in poly


def test_degenerate_mesh_ranges_rejected():
    gamma = float_vec3([0, 1.0], [0.0], [0.0], 4)
    xi = float_vec3([0.0], [1.0], [0.0], 4)
    surface = RuledSurface(gamma, xi)
    with pytest.raises(MeshError):
        sample_ruled_surface(surface, (1, 1), (0, 1), 4, 4)
    with pytest.raises(MeshError):
        sample_ruled_surface(surface, (0, 1), (0, 1), 1, 4)


def test_branch2_consistency_identities():
    # a generic alpha3 >= alpha2 fixture: the float reference's D_o' and
    # sigma match their alpha3-branch closed displays, and the exact chain
    # finds the same orders
    co = UmbrellaCoefficients(degree=6, a={(0, 2): 2, (1, 1): 1, (0, 3): 1}, b={3: 2})
    a = analyze(co, FamilyMP(m=1, p=3, c=(1,)))
    d = a.developable
    ref = reference_osculating_developable(a.factors, a.oracle, a.image)
    assert d.branch == ref.branch == BRANCH_A3_GE_A2
    frame = darboux_frame(a.factors)
    t1, t2, t3 = ref.tilde
    t2b, t3b, rho_sq = ref.shifted
    rho = sqrt_series(rho_sq)
    closed_dir = (frame.e.scale(t2b) - frame.b.scale(reference_neg(t3b))).scale(
        ref.delta * reciprocal(rho_sq * rho)
    )
    assert vec_small(ref.director.diff() - closed_dir, 1e-8, cap=5)

    assert d.striction.passes_through_singularity and ref.passes
    ne = norm_series(a.factors.tangent)
    a0, a2, a3 = a.factors.alpha0, a.oracle.degrees[1], a.oracle.degrees[2]
    first = reference_shift(ne * t3 * reciprocal(rho), a0 + a3 - a2 - 1)
    closed_sigma = first - ref.scale.diff()
    assert series_small(closed_sigma - ref.sigma, 1e-8, cap=4)
    pairing = ref.curve.diff().dot(ref.director.diff())
    assert series_small(pairing, 1e-8, cap=5)
    assert (d.delta_order, d.sigma_order) == (ref.delta_order, ref.sigma_order)
