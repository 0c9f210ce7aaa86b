"""Top-term invariants A, B, C, D and their geometric verdicts.

Everything here concerns curves of the shape (c(x) x^{2m}, x^m) with
c(x) = c_0 + c_m x^m + O(x^{m+1}), the family whose tangent leaves the
tangent line of the singularity.  The invariants

    A = 6 a11 c0^2 + a03 c0 - 3 a02 c_m
    B = 3 c0 + b3 / 2
    C = 2 c0^2 + b3 c0 - a02^2
    D = (a11 b3 - a03) c0 - 5 a02 c_m - b4 a02 / 3

control (in order) the projected limiting tangent, tangency to the surface's
self-intersection curve, the contour-line pairing, and the secondary normal
top-term once B vanishes.  The verdict operations compute the geometry from
series and cross-check it against the plugged invariant values; both sides
are exact rationals.  ``invariant_values`` is the one place the formulas
are written: ``top_invariants`` and the p = 2 row of
``frame.closed_form_reference`` both read it.

The shape is checked once, by ``top_invariants`` through ``c2m_shape``.  The
three verdicts take the m and c0 of a curve that passed it, and
``Verdicts`` holds them, in report order, for the ``verdicts`` stage of
``pipeline.Analysis``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .series import (
    CrosscapError,
    SignedRoot,
    UniSeries,
    Vec3Series,
    factor_power,
    first_nonzero,
    valuation,
)
from .model import (
    CurveSpec,
    FamilyMP,
    UmbrellaCoefficients,
    image_curve,
)


class InvariantError(CrosscapError):
    """A curve outside the (c, 2m) family, which ``top_invariants`` refuses, or a failed verdict cross-check.

    The first makes the invariants and the verdicts not applicable; the
    second is raised out of the ``verdicts`` stage.
    """


def c2m_shape(spec: CurveSpec):
    """Validate the (c(x) x^{2m}, x^m) shape and return (m, c0, c_m).

    Requires p = 2 and c_1 = ... = c_{m-1} = 0 so that c(x) = c0 + c_m x^m
    up to higher order; c_m itself may be zero.
    """
    if not isinstance(spec, FamilyMP) or spec.p != 2:
        raise InvariantError("curve is not of the (c(x) x^{2m}, x^m) shape")
    j = first_nonzero(spec.c[: spec.m], 1)
    if j is not None:
        raise InvariantError("curve is not of the (c(x) x^{2m}, x^m) shape: c_%d != 0" % j)
    cm = spec.c[spec.m] if spec.m < len(spec.c) else Fraction(0)
    return spec.m, spec.c[0], cm


class TopInvariants(NamedTuple):
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction


def top_invariants(coeffs: UmbrellaCoefficients, spec: CurveSpec) -> TopInvariants:
    _, c0, cm = c2m_shape(spec)
    return invariant_values(coeffs, c0, cm)


def invariant_values(coeffs: UmbrellaCoefficients, c0: Fraction, cm: Fraction) -> TopInvariants:
    """A, B, C and D of the surface jet ``coeffs`` and the curve coefficients c_0 and c_m."""
    a02 = coeffs.a02
    a11 = coeffs.a_coeff(1, 1)
    a03 = coeffs.a_coeff(0, 3)
    b3 = coeffs.b_coeff(3)
    b4 = coeffs.b_coeff(4)
    return TopInvariants(
        A=6 * a11 * c0 * c0 + a03 * c0 - 3 * a02 * cm,
        B=3 * c0 + b3 / 2,
        C=2 * c0 * c0 + b3 * c0 - a02 * a02,
        D=(a11 * b3 - a03) * c0 - 5 * a02 * cm - b4 * a02 / 3,
    )


# ---------------------------------------------------------------------------
# Projection of the curve along its limiting tangent
# ---------------------------------------------------------------------------

PROJ_GENERIC = "generic"
PROJ_TANGENT_TO_N = "tangent_to_n"
PROJ_TANGENT_TO_B = "tangent_to_b"
PROJ_DEGENERATE = "degenerate"


class ProjectionTangency(NamedTuple):
    """Leading behavior of the curve projected to the plane orthogonal to e(0).

    ``coeff_along_b``/``coeff_along_n`` are the exact x^{3m} coefficients of
    the pairings with the unnormalized frame directions (-a02, 0, 2c0) and
    (0, 1, 0); they equal A/3 and B/3.  The ``unit_`` attributes carry the
    same coefficients against the unit frame vectors b(0), n(0), as exact
    ``SignedRoot`` values.
    """

    verdict: str
    coeff_along_b: Fraction
    coeff_along_n: Fraction
    unit_coeff_along_b: SignedRoot
    unit_coeff_along_n: SignedRoot


def projection_tangency(
    coeffs: UmbrellaCoefficients, m: int, c0: Fraction, img: Vec3Series, inv: TopInvariants
) -> ProjectionTangency:
    """Verdict from the EXACT image curve, cross-checked against the invariants."""
    a02 = coeffs.a02
    pb = img.x * -a02 + img.z * (2 * c0)
    pn = img.y
    # The projection along e(0) leaves the b/n pairings untouched; everything
    # below x^{3m} must cancel.
    for deg in range(3 * m):
        if pb.coefficient(deg) != 0 or pn.coefficient(deg) != 0:
            raise InvariantError("unexpected low-order term in the projected curve")
    cb = pb.coefficient(3 * m)
    cn = pn.coefficient(3 * m)
    if cb * 3 != inv.A or cn * 3 != inv.B:
        raise InvariantError("projected coefficients disagree with the invariants")
    if cb == 0 and cn == 0:
        verdict = PROJ_DEGENERATE
    elif cb == 0:
        verdict = PROJ_TANGENT_TO_N
    elif cn == 0:
        verdict = PROJ_TANGENT_TO_B
    else:
        verdict = PROJ_GENERIC
    s = 1 if a02 > 0 else -1
    return ProjectionTangency(
        verdict=verdict,
        coeff_along_b=cb,
        coeff_along_n=cn,
        unit_coeff_along_b=SignedRoot.of(s * cb, 4 * c0 * c0 + a02 * a02),
        unit_coeff_along_n=SignedRoot.of(-s * cn, 1),
    )


# ---------------------------------------------------------------------------
# Self-intersection curve of the surface
# ---------------------------------------------------------------------------


class SelfIntersectionCurve(NamedTuple):
    """Quadratic-order preimage of the surface's double-point curve.

    Normalized to d(x) = (d12 x^2, x + d22 x^2); the image is symmetric in
    x -> -x through order 3 by construction.  ``image`` is reliable to
    order 3: the symmetry check reads its degrees 1 and 3, and the tangent
    direction degree 1 of its derivative.
    """

    d11: Fraction
    d21: Fraction
    d12: Fraction
    d22: Fraction
    image: Vec3Series
    image_tangent_direction: tuple
    curve_tangent_direction: tuple
    tangent_to_curve: bool


def self_intersection(coeffs: UmbrellaCoefficients, W: Vec3Series, c0: Fraction) -> SelfIntersectionCurve:
    """The double-point curve of the EXACT umbrella ``W`` built from ``coeffs``, against a curve of constant c0."""
    a02 = coeffs.a02
    a11 = coeffs.a_coeff(1, 1)
    a03 = coeffs.a_coeff(0, 3)
    b3 = coeffs.b_coeff(3)
    d12 = -b3 / 6
    d22 = (b3 * a11 - a03) / (6 * a02)
    order = 3  # the highest degree read below
    d1 = UniSeries.make([0, 0, d12], order)
    d2 = UniSeries.make([0, 1, d22], order)
    img = image_curve(W, d1, d2)
    for comp in img.components:
        for deg in range(1, min(4, comp.reliable_order + 1), 2):
            if comp.coefficient(deg) != 0:
                raise InvariantError("self-intersection image is not symmetric")
    d_img = img.diff()
    lead_d = factor_power(d_img, valuation(d_img).order).constant_vector()
    lead_c = (2 * c0, Fraction(0), a02)
    tangent = all(c == 0 for c in _cross3(lead_d, lead_c))
    return SelfIntersectionCurve(
        d11=Fraction(0),
        d21=Fraction(1),
        d12=d12,
        d22=d22,
        image=img,
        image_tangent_direction=lead_d,
        curve_tangent_direction=lead_c,
        tangent_to_curve=tangent,
    )


def _cross3(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# ---------------------------------------------------------------------------
# Contour-line pairing
# ---------------------------------------------------------------------------


class ContourDeviation(NamedTuple):
    """x^m coefficient of <n(x), b(0)> and its exact counterpart.

    The exact coefficient pairs the factored normal with the unnormalized
    direction (-a02, 0, 2c0) and equals C; ``coefficient`` carries the
    normalization sgn(a02) / (sqrt(4c0^2 + a02^2) |N(0)|) as an exact
    ``SignedRoot``.  ``vanishes`` is decided on the exact coefficient.
    """

    coefficient: SignedRoot
    exact_coefficient: Fraction
    vanishes: bool


def contour_deviation(coeffs: UmbrellaCoefficients, m: int, c0: Fraction, n: Vec3Series) -> ContourDeviation:
    """The pairing of the factored normal N (``FrameFactors.normal``) with (-a02, 0, 2c0)."""
    a02 = coeffs.a02
    exact = (n.x * -a02 + n.z * (2 * c0)).coefficient(m)
    n2 = sum(c * c for c in n.constant_vector())
    coeff = SignedRoot.of(exact if a02 > 0 else -exact, (4 * c0 * c0 + a02 * a02) * n2)
    return ContourDeviation(coefficient=coeff, exact_coefficient=exact, vanishes=exact == 0)


class Verdicts(NamedTuple):
    """The three geometric verdicts of a (c, 2m) curve, in report order."""

    projection: ProjectionTangency
    self_intersection: SelfIntersectionCurve
    contour: ContourDeviation
