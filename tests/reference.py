"""Reference computations that only the tests use.

Each one checks a library result by an independent route: the regular-point
curvatures straight from the unfactored series, the developability residual
and the striction curve of a generic ruled surface, and the curvature
top-terms that the A/B/C/D invariants predict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from crosscap.developable import DevelopableError, RuledSurface
from crosscap.frame import FrameError, FrameFactors
from crosscap.invariants import TopInvariants
from crosscap.series import UniSeries, Vec3Series, factor_power, reciprocal, valuation


# ---------------------------------------------------------------------------
# Ruled surfaces
# ---------------------------------------------------------------------------


def developability_residual(surface: RuledSurface) -> UniSeries:
    """det(gamma', xi, xi') as a series; identically zero iff developable."""
    return surface.gamma.diff().dot(surface.xi.cross(surface.xi.diff()))


def striction_curve(surface: RuledSurface):
    """Striction curve s = gamma - (<gamma', xi_bar'>/<xi_bar', xi_bar'>) xi_bar.

    Defined for non-(pseudo-)cylindrical surfaces whose numerator valuation
    does not fall below the denominator's; returns (scale series, curve).
    """
    xi_bar = surface.xi.unit()
    w = xi_bar.diff()
    den = w.dot(w)
    vd = valuation(den)
    if vd.is_zero_to_order:
        raise DevelopableError("director derivative vanishes to reliable order: cylinder")
    num = surface.gamma.diff().dot(w)
    scale = factor_power(num, vd.order) * reciprocal(factor_power(den, vd.order))
    return scale, surface.gamma - xi_bar.scale(scale)


# ---------------------------------------------------------------------------
# Reconstruction of the regular-point curvatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularCurvatures:
    """Geodesic curvature, normal curvature and geodesic torsion at one x != 0."""

    kappa_g: float
    kappa_nu: float
    kappa_t: float


def _sgn_power(x: float, t: int) -> float:
    return -1.0 if (x < 0.0 and t % 2 == 1) else 1.0


def reconstruct_regular_curvatures(
    kappas, factors: FrameFactors, x: float
) -> RegularCurvatures:
    """Undo the divergent normalization at a regular parameter value.

    kappa_g = sgn(x^{alpha+beta}) kappa_1(x) / (|E_t(x)| x^alpha) and its two
    companions; the sign factors account for the frame flipping across 0 when
    the factored exponents are odd.
    """
    if x == 0.0:
        raise FrameError("regular curvatures are undefined at the singular point")
    k1, k2, k3 = (k.evaluate(x) for k in kappas)
    et = factors.tangent.to_float().evaluate(x)
    norm_et = math.sqrt(sum(c * c for c in et))
    denom = norm_et * x**factors.alpha
    sab = _sgn_power(x, factors.alpha + factors.beta)
    sb = _sgn_power(x, factors.beta)
    return RegularCurvatures(
        kappa_g=sab * k1 / denom,
        kappa_nu=sb * k2 / denom,
        kappa_t=k3 / denom,
    )


def direct_regular_curvatures(img: Vec3Series, raw_normal: Vec3Series, x: float) -> RegularCurvatures:
    """Independent regular-point pipeline straight from the unfactored series.

    Builds the frame pointwise from the curve derivative and the raw normal,
    then applies the textbook formulas; shares nothing with the factored path
    beyond the input series.
    """
    if x == 0.0:
        raise FrameError("regular curvatures are undefined at the singular point")
    imgf = img.to_float()
    d1 = imgf.diff()
    d2 = d1.diff()
    nraw = raw_normal.to_float()
    dnraw = nraw.diff()

    c1 = d1.evaluate(x)
    c2 = d2.evaluate(x)
    nv = nraw.evaluate(x)
    dnv = dnraw.evaluate(x)

    def norm(v):
        return math.sqrt(sum(c * c for c in v))

    def scale(v, s):
        return tuple(c * s for c in v)

    def dot(a, b):
        return sum(p * q for p, q in zip(a, b))

    def cross(a, b):
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    speed = norm(c1)
    ebar = scale(c1, 1.0 / speed)
    nn = norm(nv)
    nbar = scale(nv, 1.0 / nn)
    bbar = cross(nbar, ebar)
    # d/dx of n_raw/|n_raw| by the quotient rule, evaluated numerically.
    nbar_dx = tuple(
        dnv[i] / nn - nv[i] * dot(nv, dnv) / nn**3 for i in range(3)
    )
    return RegularCurvatures(
        kappa_g=dot(c2, bbar) / speed**2,
        kappa_nu=dot(c2, nbar) / speed**2,
        kappa_t=-dot(nbar_dx, bbar) / speed,
    )


# ---------------------------------------------------------------------------
# Top-terms predicted by the invariants
# ---------------------------------------------------------------------------


def expected_tops(inv: TopInvariants, m: int, a02: Fraction):
    """The curvature top-terms this family must produce: (m^3 a02 A, -m^2 a02 B, -m^2 a02 C)."""
    mf = Fraction(m)
    return (mf**3 * a02 * inv.A, -(mf**2) * a02 * inv.B, -(mf**2) * a02 * inv.C)


def secondary_normal_top(inv: TopInvariants, m: int):
    """Top-term of the normal structure function once B = 0: m^2 D at degree 2m-1."""
    return Fraction(m) ** 2 * inv.D
