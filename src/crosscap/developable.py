"""The osculating developable along the curve, in exact arithmetic.

The osculating developable rules the curve by D = V / |V|, where the director

    V = h3 E_t - h2 (N x E_t),   h_i = (khat_i / x^{a_i}) x^{max(a_i - a_j, 0)}  ({i, j} = {2, 3}),

is rational: |E_t|^2 |N|^2 times (k3~ e - k2~ x^{a2-a3} b) of the unit frame.
Two invariants measure how far the surface is from a cylinder and from a
cone: delta (the numerator of |D'|) and sigma (the speed of the striction
curve), with their vanishing orders.  Let k be the order of R, and R~, T~
be R and T with x^k factored out:

    delta = R / (|E_t|^4 |N|^5),   R = (V x V') . N;
    striction curve = img - (T / R) V,   T = (V x img') . N = -x^alpha V . (N x E_t);
    sigma = S / (|V| R~^2),   S = (img' . V) R~^2 - (V . V') T~ R~ - |V|^2 (T~' R~ - T~ R~').

img' lies in span(V, V') on a developable, and T / R is its coefficient on
V'.  T has order alpha + max(a2 - a3, 0), so T / R is a series exactly when
the striction curve exists, and it vanishes at 0 exactly when that curve
passes through the singular point.  Every order and case is decided on
these exact series; each top of the unit frame is an exact top over one
square root (``SignedRoot``), which only the report rounds.  This module
makes no float: the mesh normalises V itself (``obj.osculating_surface``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .series import (
    CrosscapError,
    ReliabilityError,
    SignedRoot,
    UniSeries,
    Vec3Series,
    factor_power,
    valuation,
)
from .frame import CurvatureReport, FrameFactors


class DevelopableError(CrosscapError):
    """Violated preconditions of the osculating-developable construction."""


# ---------------------------------------------------------------------------
# The osculating developable along the curve
# ---------------------------------------------------------------------------

BRANCH_A2_GT_A3 = "alpha2_gt_alpha3"
BRANCH_A3_GE_A2 = "alpha3_ge_alpha2"

CASE_I = "i"
CASE_II = "ii"
CASE_III = "iii"
CASE_SIGMA_TOP_NONZERO = "sigma-top-guaranteed-nonzero"


class StrictionData(NamedTuple):
    """Whether the striction curve img - (T~ / R~) V exists; ``scale`` is (T~, R~)."""

    exists: bool
    passes_through_singularity: bool
    scale: tuple | None


class EFClassification(NamedTuple):
    """Subcase of the vanishing analysis under a2 > a3, with the case-(ii) constants."""

    case: str
    E_coeff: SignedRoot | None
    F_coeff: SignedRoot | None
    E_scaled: Fraction | None
    F_scaled: Fraction | None


class DevelopableData(NamedTuple):
    """The exact chain: ``director`` is V, ``delta`` is R and ``sigma`` is S."""

    branch: str
    director: Vec3Series
    delta: UniSeries
    delta_order: int | None
    delta_top: SignedRoot | None
    striction: StrictionData
    sigma: UniSeries | None
    sigma_order: int | None
    sigma_top: SignedRoot | None
    sigma_order_lower_bound: int
    classification: EFClassification


def _square_norms(factors: FrameFactors):
    """|E_t(0)|^2 and |N(0)|^2."""
    return [sum(c * c for c in v.constant_vector()) for v in (factors.tangent, factors.normal)]


def osculating_director(factors: FrameFactors, report: CurvatureReport, cross: Vec3Series):
    """The director V = h3 E_t - h2 (N x E_t) and its branch; needs alpha_2 and alpha_3."""
    _, a2, a3 = report.degrees
    if a2 is None or a3 is None:
        raise DevelopableError("a normal structure function vanishes to reliable order: no director")
    _, k2, k3 = report.numerators
    h2 = factor_power(k2, a2).shift(max(a2 - a3, 0))
    h3 = factor_power(k3, a3).shift(max(a3 - a2, 0))
    branch = BRANCH_A2_GT_A3 if a2 > a3 else BRANCH_A3_GE_A2
    return factors.tangent.scale(h3) - cross.scale(h2), branch


def delta_invariant(director: Vec3Series, normal: Vec3Series, e2: Fraction, n2: Fraction):
    """R = (V x V') . N; returns (R, order, top), with delta's top R_top / (|E_t(0)|^4 |N(0)|^5).

    ``e2`` and ``n2`` are |E_t(0)|^2 and |N(0)|^2 (``_square_norms``).
    """
    r = director.cross(director.diff()).dot(normal)
    v = valuation(r)
    if v.is_zero_to_order:
        return r, None, None
    return r, v.order, SignedRoot.of(v.leading / (e2 * e2 * n2 * n2), n2)


def classify_EF(factors: FrameFactors, report: CurvatureReport, e2n2: Fraction) -> EFClassification:
    """Vanishing analysis of the delta/sigma top-terms under a2 > a3.

    case (i): a1 < a2 - a3 - 1, (ii): equality, (iii): a1 > a2 - a3 - 1.
    In case (ii) the top-terms of delta and sigma are proportional to

        E = k1~ k3~ - (a2 - a3) k2~,   F = k1~ k3~ - (a0 + a2 - a3) k2~

    at 0, with ``e2n2`` = |E_t(0)|^2 |N(0)|^2.  The scaled values multiply
    through by |E_t(0)|^3 |N(0)|^3 and are exact rationals with the same
    signs; ``E_coeff`` and ``F_coeff`` are E and F themselves.  For a3 >= a2 the sigma top-term cannot vanish; no
    constants are attached.
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
    T1, T2, T3 = report.tops
    e_scaled = T1 * T3 - (a2 - a3) * T2 * e2n2
    f_scaled = T1 * T3 - (a0 + a2 - a3) * T2 * e2n2
    e_coeff = SignedRoot.of(e_scaled / e2n2, e2n2)
    f_coeff = SignedRoot.of(f_scaled / e2n2, e2n2)
    return EFClassification(CASE_II, e_coeff, f_coeff, e_scaled, f_scaled)


def osculating_developable(factors: FrameFactors, report: CurvatureReport, cross: Vec3Series) -> DevelopableData:
    """Full invariant chain: director, delta, striction, sigma, classification.

    ``cross`` is N x E_t, the one that ``frame.curvature_numerators``
    reads too (the ``cross`` stage of ``pipeline.Analysis``).  A jet too
    short for a derivative or a factor the chain takes (a
    ``ReliabilityError``) makes the developable not applicable, as a
    structure function that vanishes to reliable order does.
    """
    if report.degrees[0] is None:
        raise DevelopableError("tangential structure function vanishes to reliable order")
    try:
        return _developable_chain(factors, report, cross)
    except ReliabilityError as exc:
        raise DevelopableError(f"jet too short for the developable: {exc}") from None


def _developable_chain(factors: FrameFactors, report: CurvatureReport, cross: Vec3Series) -> DevelopableData:
    V, branch = osculating_director(factors, report, cross)
    e2, n2 = _square_norms(factors)
    R, k_cyl, delta_top = delta_invariant(V, factors.normal, e2, n2)
    classification = classify_EF(factors, report, e2 * n2)

    # T's order: alpha, and the shift that h2 takes.  A cylinder (delta
    # vanishing to reliable order) has no striction curve.
    a2, a3 = report.degrees[1], report.degrees[2]
    t_order = factors.alpha + max(a2 - a3, 0)
    exists = k_cyl is not None and t_order >= k_cyl
    passes = exists and t_order > k_cyl
    scale = S = sigma_order = sigma_top = None
    sigma_lower = 0
    if exists:
        T = factor_power(-V.dot(cross).shift(factors.alpha), k_cyl)
        Rk = factor_power(R, k_cyl)
        scale = (T, Rk)
        if passes:
            vv = V.norm_sq()
            iv = factors.tangent.dot(V).shift(factors.alpha)
            S = Rk * (iv * Rk - (vv.diff() * Fraction(1, 2)) * T - vv * T.diff()) + vv * (T * Rk.diff())
            v = valuation(S)
            if v.is_zero_to_order:
                sigma_lower = v.reliable_order + 1
            else:
                r0 = Rk.coefficient(0)
                sigma_order, sigma_lower = v.order, v.order
                sigma_top = SignedRoot.of(v.leading / (r0 * r0), vv.coefficient(0))
    return DevelopableData(
        branch=branch,
        director=V,
        delta=R,
        delta_order=k_cyl,
        delta_top=delta_top,
        striction=StrictionData(exists, passes, scale),
        sigma=S,
        sigma_order=sigma_order,
        sigma_top=sigma_top,
        sigma_order_lower_bound=sigma_lower,
        classification=classification,
    )

