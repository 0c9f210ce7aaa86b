"""Ruled-surface machinery and the osculating developable along the curve.

The osculating developable rules the curve by the unit director

    D_o = (k3~ e - k2~ x^{a2-a3} b) / sqrt(k2~^2 x^{2(a2-a3)} + k3~^2)   (a2 > a3)
    D_o = (k3~ x^{a3-a2} e - k2~ b) / sqrt(k2~^2 + k3~^2 x^{2(a3-a2)})   (a3 >= a2)

inside the tangent/co-normal plane, where k_i = k_i~ x^{a_i} splits each
structure function into its divergence degree and unit part.  Two scalar
invariants measure how far the surface is from a cylinder and from a cone:
delta (the numerator of |D_o'|) with its vanishing order, and sigma (the
speed of the striction curve) with its vanishing order.  All computations
here run in the FLOAT field; classification constants are additionally
produced in exact scaled form from the curvature top-terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import (
    UniSeries,
    Vec3Series,
    factor_power,
    is_zero_coeff,
    reciprocal,
    sqrt_series,
    valuation,
)
from .frame import (
    CurvatureReport,
    DarbouxFrame,
    FrameFactors,
    kappa_tilde_series,
)


class DevelopableError(ValueError):
    """Violated preconditions of the osculating-developable construction."""


# ---------------------------------------------------------------------------
# Generic ruled surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuledSurface:
    """F(x, y) = gamma(x) + y xi(x); the director must not vanish at 0."""

    gamma: Vec3Series
    xi: Vec3Series

    def __post_init__(self):
        c = self.xi.constant_vector()
        if all(is_zero_coeff(self.xi.field, v) for v in c):
            raise DevelopableError("director curve vanishes at 0")


# ---------------------------------------------------------------------------
# The osculating developable along the curve
# ---------------------------------------------------------------------------

BRANCH_A2_GT_A3 = "alpha2_gt_alpha3"
BRANCH_A3_GE_A2 = "alpha3_ge_alpha2"

CASE_I = "i"
CASE_II = "ii"
CASE_III = "iii"
CASE_SIGMA_TOP_NONZERO = "sigma-top-guaranteed-nonzero"


@dataclass(frozen=True)
class StrictionData:
    exists: bool
    passes_through_singularity: bool
    scale: UniSeries | None
    curve: Vec3Series | None


@dataclass(frozen=True)
class EFClassification:
    """Subcase of the vanishing analysis under a2 > a3, with the case-(ii) constants."""

    case: str
    E_coeff: float | None
    F_coeff: float | None
    E_scaled: Fraction | None
    F_scaled: Fraction | None


@dataclass(frozen=True)
class DevelopableData:
    branch: str
    director: Vec3Series
    delta: UniSeries
    delta_order: int | None
    delta_top: float | None
    striction: StrictionData
    sigma: UniSeries | None
    sigma_order: int | None
    sigma_top: float | None
    sigma_order_lower_bound: int
    classification: EFClassification


def osculating_director(frame: DarbouxFrame, report: CurvatureReport):
    """Unit director plus the branch data; needs nonvanishing k2~(0), k3~(0)."""
    if report.degrees[1] is None or report.degrees[2] is None:
        raise DevelopableError(
            "a normal structure function vanishes to reliable order: no director"
        )
    t1, t2, t3 = kappa_tilde_series(frame, report)
    a2, a3 = report.degrees[1], report.degrees[2]
    branch = BRANCH_A2_GT_A3 if a2 > a3 else BRANCH_A3_GE_A2
    t2b = t2.shift(max(a2 - a3, 0))
    t3b = t3.shift(max(a3 - a2, 0))
    rho_sq = t2b * t2b + t3b * t3b
    inv_rho = reciprocal(sqrt_series(rho_sq))
    director = (frame.e.scale(t3b) - frame.b.scale(t2b)).scale(inv_rho)
    return director, branch, (t1, t2, t3), (t2b, t3b, rho_sq)


def delta_invariant(tilde, shifted, report: CurvatureReport):
    """delta = k1~ x^a1 rho^2 + t2b t3b' - t2b' t3b; returns (series, order, top)."""
    t2b, t3b, rho_sq = shifted
    delta = tilde[0].shift(report.degrees[0]) * rho_sq + t2b * t3b.diff() - t2b.diff() * t3b
    v = valuation(delta)
    if v.is_zero_to_order:
        return delta, None, None
    return delta, v.order, v.leading


def classify_EF(
    factors: FrameFactors, report: CurvatureReport, tilde
) -> EFClassification:
    """Vanishing analysis of the delta/sigma top-terms under a2 > a3.

    case (i): a1 < a2 - a3 - 1, (ii): equality, (iii): a1 > a2 - a3 - 1.
    In case (ii) the top-terms of delta and sigma are proportional to

        E = k1~ k3~ - (a2 - a3) k2~,   F = k1~ k3~ - (a0 + a2 - a3) k2~

    at 0.  The scaled values multiply through by |E_t(0)|^3 |N(0)|^3 and are
    exact rationals with the same signs.  For a3 >= a2 the sigma top-term
    cannot vanish; no constants are attached.
    """
    a0 = factors.alpha0
    a1, a2, a3 = report.degrees
    if a2 <= a3:
        return EFClassification(CASE_SIGMA_TOP_NONZERO, None, None, None, None)
    gap = a2 - a3 - 1
    if a1 < gap:
        return EFClassification(CASE_I, None, None, None, None)
    if a1 > gap:
        return EFClassification(CASE_III, None, None, None, None)
    t1, t2, t3 = tilde
    e_coeff = t1.coeffs[0] * t3.coeffs[0] - (a2 - a3) * t2.coeffs[0]
    f_coeff = t1.coeffs[0] * t3.coeffs[0] - (a0 + a2 - a3) * t2.coeffs[0]
    T1, T2, T3 = report.tops
    nE2 = sum(c * c for c in factors.tangent.constant_vector())
    nN2 = sum(c * c for c in factors.normal.constant_vector())
    e_scaled = T1 * T3 - (a2 - a3) * T2 * nE2 * nN2
    f_scaled = T1 * T3 - (a0 + a2 - a3) * T2 * nE2 * nN2
    return EFClassification(CASE_II, e_coeff, f_coeff, e_scaled, f_scaled)


def osculating_developable(
    factors: FrameFactors,
    frame: DarbouxFrame,
    report: CurvatureReport,
) -> DevelopableData:
    """Full invariant chain: director, delta, striction, sigma, classification."""
    if report.degrees[0] is None:
        raise DevelopableError("tangential structure function vanishes to reliable order")
    director, branch, tilde, shifted = osculating_director(frame, report)
    delta, k_cyl, delta_top = delta_invariant(tilde, shifted, report)
    classification = classify_EF(factors, report, tilde)

    a0 = factors.alpha0
    a2, a3 = report.degrees[1], report.degrees[2]
    exists_bound = a0 + a2 - a3 - 1 if branch == BRANCH_A2_GT_A3 else a0 - 1

    # A cylinder (delta vanishing to reliable order) has no striction curve.
    exists = k_cyl is not None and exists_bound >= k_cyl
    passes = exists and exists_bound > k_cyl
    scale = s_curve = sigma = sigma_order = sigma_top = None
    sigma_lower = 0
    if exists:
        img = factors.curve.to_float().shift(a0)
        dpr = director.diff()
        den = dpr.dot(dpr)
        num = img.diff().dot(dpr)
        scale = factor_power(num, 2 * k_cyl) * reciprocal(factor_power(den, 2 * k_cyl))
        s_curve = img - director.scale(scale)
        if passes:
            sigma = s_curve.diff().dot(director)
            v = valuation(sigma)
            if v.is_zero_to_order:
                sigma_lower = v.reliable_order + 1
            else:
                sigma_order, sigma_top = v.order, v.leading
                sigma_lower = v.order
    striction = StrictionData(exists, passes, scale, s_curve)
    return DevelopableData(
        branch=branch,
        director=director,
        delta=delta,
        delta_order=k_cyl,
        delta_top=delta_top,
        striction=striction,
        sigma=sigma,
        sigma_order=sigma_order,
        sigma_top=sigma_top,
        sigma_order_lower_bound=sigma_lower,
        classification=classification,
    )


def osculating_surface(factors: FrameFactors, data: DevelopableData) -> RuledSurface:
    """The osculating developable as a ruled surface (base = the space curve)."""
    img = factors.curve.to_float().shift(factors.alpha0)
    return RuledSurface(gamma=img, xi=data.director)
