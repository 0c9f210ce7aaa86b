"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, analyze, parse_config
from crosscap.cli import fixture_text, main
from crosscap.developable import BRANCH_A3_GE_A2, CASE_II
from crosscap.obj import osculating_surface
from crosscap.frame import closed_form_reference, curvature_series, darboux_frame
from crosscap.invariants import (
    PROJ_TANGENT_TO_B,
    PROJ_TANGENT_TO_N,
    self_intersection,
    top_invariants,
)
from crosscap.model import build_umbrella
from crosscap.report import build_report, render_report
from crosscap.verify import FAIL, SUBCASES, run_sweep
from conftest import rand_fraction, random_family, random_surface
from reference import (
    developability_residual,
    direct_regular_curvatures,
    expected_tops,
    reconstruct_regular_curvatures,
    reference_reciprocal,
    reference_truncate,
)
from test_frame import frame_magnitude, orthonormality_defect


def _ok(criterion: str, detail: str = ""):
    print(f"[ACCEPTANCE] {criterion}: PASS {detail}".rstrip())


def test_criterion_1_s1_exact_pipeline(s1, s1_coeffs, s1_spec):
    t0 = time.perf_counter()
    a = analyze(s1_coeffs, s1_spec)
    elapsed = time.perf_counter() - t0
    assert a.oracle.degrees == (0, 0, 0)
    assert a.oracle.tops == (Fraction(12), Fraction(-6), Fraction(4))
    ref = closed_form_reference(s1_spec, s1_coeffs)
    assert ref.degrees == a.oracle.degrees
    assert ref.tops == a.oracle.tops
    inv = top_invariants(s1_coeffs, s1_spec)
    assert (inv.A, inv.B, inv.C) == (6, 3, -2)
    assert expected_tops(inv, 1, s1_coeffs.a02) == a.oracle.tops
    assert elapsed < 1.0
    _ok("criterion 1", f"(S1 exact pipeline, {elapsed:.3f}s)")


def test_criterion_2_s3_closed_forms(s3_coeffs, s3_spec):
    t0 = time.perf_counter()
    a = analyze(s3_coeffs, s3_spec)
    elapsed = time.perf_counter() - t0
    assert a.oracle.degrees == (1, 2, 0)
    assert a.oracle.tops == (Fraction(96), Fraction(-30), Fraction(-8))
    ref = closed_form_reference(s3_spec, s3_coeffs)
    assert ref.degrees == a.oracle.degrees
    assert ref.tops == a.oracle.tops
    assert elapsed < 1.0
    _ok("criterion 2", f"(S3 closed forms, {elapsed:.3f}s)")


def test_criterion_3_table_sweep():
    t0 = time.perf_counter()
    rows = run_sweep(seed=0, draws=10)
    elapsed = time.perf_counter() - t0
    per_subcase = {s: 0 for s in SUBCASES}
    for row in rows:
        per_subcase[row.subcase] += 1
    assert all(count >= 10 for count in per_subcase.values())
    hard = [r for r in rows if r.status == FAIL]
    assert not hard, f"hard failures: {[(r.subcase, r.draw) for r in hard]}"
    # degrees are hard everywhere, including on advisory rows
    for row in rows:
        for c in row.comparisons:
            if c.top_reference != 0:
                assert c.degree_oracle == c.degree_reference, (row.subcase, row.draw)
    advisory = sum(1 for r in rows if r.status == "ADVISORY")
    assert elapsed < 30.0
    _ok(
        "criterion 3",
        f"({len(rows)} rows, 0 hard failures, {advisory} advisory rows on the "
        f"four adjudicated table constants, {elapsed:.2f}s)",
    )


def test_criterion_4_frame_properties(s1, s2, s3):
    for a in (s1, s2, s3):
        fr = darboux_frame(a.factors)
        assert orthonormality_defect(fr) <= 1e-9
        anti = fr.e.diff().dot(fr.b) + fr.b.diff().dot(fr.e)
        assert max(abs(c) for c in anti.coeffs) <= 1e-9
    rng = random.Random(404)
    done = 0
    while done < 25:
        co = random_surface(rng)
        spec = random_family(rng)
        a = analyze(co, spec)
        fr = darboux_frame(a.factors)
        if frame_magnitude(fr, 8) > 1e3:
            continue
        assert orthonormality_defect(fr, order_cap=8) <= 1e-9
        anti = reference_truncate(fr.e.diff().dot(fr.n) + fr.n.diff().dot(fr.e), 8)
        assert max(abs(c) for c in anti.coeffs) <= 1e-9
        done += 1
    _ok("criterion 4", "(orthonormality and antisymmetry <= 1e-9, fixtures + 25 draws)")


def test_criterion_5_regular_curvature_reconstruction(s1, s2, s3):
    for a in (s1, s2, s3):
        kappas = curvature_series(darboux_frame(a.factors))
        for x in (0.01, -0.01, 0.02, -0.02):
            rec = reconstruct_regular_curvatures(kappas, a.factors, x)
            ref = direct_regular_curvatures(a.image, a.raw_normal, x)
            for name in ("kappa_g", "kappa_nu", "kappa_t"):
                lhs, rhs = getattr(rec, name), getattr(ref, name)
                assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1e-30), (name, x)
    _ok("criterion 5", "(reconstruction matches the direct pipeline at x = ±0.01, ±0.02)")


def test_criterion_6_verdict_suite(s2_coeffs, s2_spec):
    # S2: B = 0, tangent to the self-intersection curve, projection along b(0)
    inv = top_invariants(s2_coeffs, s2_spec)
    assert inv.B == 0
    si = self_intersection(s2_coeffs, build_umbrella(s2_coeffs), s2_spec.c[0])
    assert si.tangent_to_curve is True
    proj = analyze(s2_coeffs, s2_spec).verdicts.projection
    assert proj.verdict == PROJ_TANGENT_TO_B

    # constructed A = 0 fixture projects along n(0)
    a0_co = UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={})
    a0_spec = FamilyMP(m=1, p=2, c=(1, 1))
    assert top_invariants(a0_co, a0_spec).A == 0
    assert analyze(a0_co, a0_spec).verdicts.projection.verdict == PROJ_TANGENT_TO_N

    # constructed C = 0 fixture zeroes the contour pairing at order m
    c0_co = UmbrellaCoefficients(degree=9, a={(0, 2): 2, (1, 1): 1}, b={3: 2})
    c0_spec = FamilyMP(m=1, p=2, c=(1,))
    a = analyze(c0_co, c0_spec)
    assert a.invariants.C == 0
    assert a.verdicts.contour.exact_coefficient == 0
    assert a.verdicts.contour.vanishes
    _ok("criterion 6", "(S2 tangency + projection, A=0 -> n(0), C=0 -> contour zero)")


def test_criterion_7_developable_suite(s1, s2, s3):
    for a in (s1, s2, s3):
        surface = osculating_surface(a.image, a.developable.director)
        resid = reference_truncate(developability_residual(surface), 8)
        assert max(abs(c) for c in resid.coeffs) <= 1e-8

    # The exact striction curve img - (T~ / R~) V: orthogonal to D' and
    # tangent to the rulings, coefficient by coefficient.
    d2 = s2.developable
    t, r = d2.striction.scale
    V, dV = d2.director, d2.director.diff()
    sw = (s2.image - V.scale(t * reference_reciprocal(r))).diff()
    ortho = sw.dot(dV.scale(V.norm_sq()) - V.scale(V.dot(dV)))
    assert all(c == 0 for c in ortho.coeffs)
    assert all(c == 0 for comp in sw.cross(V).components for c in comp.coeffs)

    assert d2.classification.case == CASE_II
    assert d2.classification.E_scaled == 40 and d2.classification.E_scaled != 0
    assert d2.classification.F_scaled == 0
    assert d2.sigma_order > s2.factors.alpha0 - 1

    variant = analyze(
        UmbrellaCoefficients(degree=9, a={(0, 2): 1, (1, 1): 1}, b={3: -6}),
        FamilyMP(m=1, p=2, c=(1, 1)),
    )
    assert variant.developable.sigma_order == variant.factors.alpha0 - 1 == 1

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
        if d.delta_order is None or d.delta_top.square < Fraction(1, 10**12):  # |top| < 1e-6
            continue
        if not d.striction.passes_through_singularity:
            continue
        assert d.sigma_order is not None and d.sigma_top.square > Fraction(1, 10**18)  # |top| > 1e-9
        done += 1
    _ok("criterion 7", "(residual/striction identities, S2 case (ii), 25 guarantee draws)")


def test_criterion_8_self_intersection_coefficients():
    rng = random.Random(300)
    for _ in range(10):
        co = random_surface(rng)
        si = self_intersection(co, build_umbrella(co), Fraction(1))
        b3 = co.b_coeff(3)
        a11 = co.a_coeff(1, 1)
        a03 = co.a_coeff(0, 3)
        assert si.d12 == -b3 / 6
        assert si.d22 == (b3 * a11 - a03) / (6 * co.a02)
        assert (si.d11, si.d21) == (0, 1)
        for comp in si.image.components:
            for deg in range(min(4, comp.reliable_order + 1)):
                if deg % 2 == 1:
                    assert comp.coefficient(deg) == 0
    _ok("criterion 8", "(10 random draws: printed coefficients and O(x^4) symmetry)")


def test_criterion_9_byte_determinism(capsys):
    cfg = parse_config(fixture_text("s2"))
    r1 = render_report(build_report(cfg)).encode()
    r2 = render_report(build_report(cfg)).encode()
    assert r1 == r2

    main(["verify", "--sweep", "--seed", "0", "--draws", "3"])
    v1 = capsys.readouterr().out
    main(["verify", "--sweep", "--seed", "0", "--draws", "3"])
    v2 = capsys.readouterr().out
    assert v1 == v2
    with capsys.disabled():
        _ok("criterion 9", "(byte-identical report and verify outputs)")
