"""Frame factorizations, curvatures, divergence degrees and reference tables.

The tangent and normal fields along the curve degenerate at the singular
point; both factor as a nonvanishing vector series times a power of x:

    (W o c_w)'(x)          = E_t(x) x^alpha,    E_t(0) != 0,
    (W_u x W_v)(c_w(x))    = N(x)  x^beta,      N(0)  != 0,

and the image curve W o c_w itself has valuation alpha0.  The factors are
exact series.  Normalizing E_t and N takes square roots, so the extended
frame {e, b, n} with b = n x e has ``FloatSeries`` components, built from
the float images of the factors (``darboux_frame``).  No analysis reads
it, only the tests (as a float reference) and the benchmark's tracer.  The
structure functions are

    kappa_1 = <e', b>,   kappa_2 = <e', n>,   kappa_3 = <b', n>.

Their degrees and tops never take square roots: the exact numerators

    khat_1 = <E_t', N x E_t>, khat_2 = <E_t', N>, khat_3 = -<N', N x E_t>

satisfy kappa_1 = khat_1 / (|E_t|^2 |N|), kappa_2 = khat_2 / (|E_t| |N|),
kappa_3 = khat_3 / (|N|^2 |E_t|), so valuations and leading coefficients of
the khat_i are exactly the divergence degrees alpha_i and the normalized
top-terms T_i of the curvatures.  khat_3 is the triple product
<N' x E_t, N> written over the cross product N x E_t of khat_1, which is
built once and shared with the osculating developable.

The tabulated closed forms (``closed_form_reference``) read the top-term
invariants A, B and C of their p = 2 row from ``invariants.invariant_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import (
    FloatSeries,
    Vec3Series,
    factor_power,
    first_nonzero,
    reciprocal,
    sqrt_series,
    valuation,
    vec3_factor_power,
    vec3_valuation,
)
from .model import CurveSpec, FamilyMPQ, GeneralCurve, UmbrellaCoefficients
from .invariants import invariant_values


class FrameError(ValueError):
    """Degenerate factorization or an inapplicable closed form."""


@dataclass(frozen=True)
class FrameFactors:
    """The two factorizations with their exponents (exact series), and the image's valuation."""

    alpha: int
    tangent: Vec3Series  # E_t
    beta: int
    normal: Vec3Series  # N
    alpha0: int


def frame_factors(img: Vec3Series, raw: Vec3Series) -> FrameFactors:
    """Factor the derivative of the image curve and the raw normal along it."""
    alpha0 = _order(img, "curve")
    alpha, e_t = _factor(img.diff(), "tangent derivative")
    beta, n = _factor(raw, "normal field")
    return FrameFactors(alpha=alpha, tangent=e_t, beta=beta, normal=n, alpha0=alpha0)


def _order(vec: Vec3Series, label: str) -> int:
    val = vec3_valuation(vec)
    if val.is_zero_to_order:
        raise FrameError(f"{label} vanishes to reliable order {val.reliable_order}")
    return val.order


def _factor(vec: Vec3Series, label: str):
    order = _order(vec, label)
    return order, vec3_factor_power(vec, order)


@dataclass(frozen=True)
class DarbouxFrame:
    """Orthonormal frame {e, b, n} along the curve, with float series components."""

    e: Vec3Series
    b: Vec3Series
    n: Vec3Series
    inv_e: FloatSeries  # 1/|E_t|, reused by the unit curvature parts
    inv_n: FloatSeries  # 1/|N|


def darboux_frame(factors: FrameFactors) -> DarbouxFrame:
    e_t = factors.tangent.to_float()
    inv_e = reciprocal(sqrt_series(e_t.norm_sq()))
    e = e_t.scale(inv_e)
    n_f = factors.normal.to_float()
    inv_n = reciprocal(sqrt_series(n_f.norm_sq()))
    n = n_f.scale(inv_n)
    return DarbouxFrame(e=e, b=n.cross(e), n=n, inv_e=inv_e, inv_n=inv_n)


def curvature_series(frame: DarbouxFrame):
    """(kappa_1, kappa_2, kappa_3) as float series from the frame derivative."""
    de = frame.e.diff()
    db = frame.b.diff()
    return (de.dot(frame.b), de.dot(frame.n), db.dot(frame.n))


def curvature_numerators(factors: FrameFactors):
    """Square-root-free curvature numerators (khat_1, khat_2, khat_3) and N x E_t, exact.

    The cross product N x E_t is built once and read by khat_1, khat_3 and
    the osculating developable; the numerators take 15 series products.
    """
    e_t, n = factors.tangent, factors.normal
    de = e_t.diff()
    c = n.cross(e_t)
    k1 = de.dot(c)
    k2 = de.dot(n)
    k3 = -n.diff().dot(c)
    return (k1, k2, k3), c


@dataclass(frozen=True)
class CurvatureReport:
    """Divergence degrees alpha_1..alpha_3 and normalized top-terms T_1..T_3.

    A degree of ``None`` means the corresponding numerator vanished to its
    reliable order (recorded in ``reliable_orders``); for a closed-form
    report it never happens.  ``advisory`` flags table entries whose constant
    is known to disagree with the series computation on some inputs; the
    comparison layer reports instead of failing on those.  ``numerators``
    holds the khat_i an oracle report was extracted from.
    """

    degrees: tuple
    tops: tuple
    reliable_orders: tuple
    advisory: tuple = (False, False, False)
    numerators: tuple | None = None


def divergence_report(numerators) -> CurvatureReport:
    """Valuations and leading coefficients of the three curvature numerators."""
    degrees = []
    tops = []
    rel = []
    for k in numerators:
        v = valuation(k)
        degrees.append(v.order)
        tops.append(v.leading)
        rel.append(v.reliable_order)
    return CurvatureReport(
        degrees=tuple(degrees),
        tops=tuple(tops),
        reliable_orders=tuple(rel),
        numerators=tuple(numerators),
    )


# ---------------------------------------------------------------------------
# Closed-form reference tables
# ---------------------------------------------------------------------------


def closed_form_reference(spec: CurveSpec, coeffs: UmbrellaCoefficients) -> CurvatureReport:
    """Tabulated degrees and top-terms for the two curve families.

    The entries are transcribed literally from the reference tables.  Four
    constants are flagged advisory because the series computation (confirmed
    independently by pointwise finite differences) contradicts them on
    generic inputs; the degrees are reliable throughout:

    * family (mp+q), p = 1, kappa_3: tabulated -q(mp+q) a02 c0, computed
      -q(mp+q) a02 c0^2 (they coincide only at c0 = 1);
    * family (mp+q), 4 <= p, kappa_1: tabulated -m^2 a02^2 b3, computed
      -m^3 a02^2 b3 / 2 (they coincide only at m = 2);
    * family (mp), 5 <= p, kappa_1: tabulated +m^3 a02^2 b3 / 2, computed
      with the opposite sign;
    * family (mp), 3 <= p, kappa_2: tabulated -m^2 (p-1) a02 b3 / 2, computed
      without the (p-1) factor.
    """
    if isinstance(spec, GeneralCurve):
        raise FrameError("closed forms apply only to the two curve families")
    a02 = coeffs.a02
    b3 = coeffs.b_coeff(3)
    m = spec.m
    p = spec.p
    c0 = spec.c[0]
    advisory = [False, False, False]

    if isinstance(spec, FamilyMPQ):
        q = spec.q
        if p == 1:
            deg1, top1 = spec.m - spec.q - 1, m * (m * m - q * q) * a02 * a02 * c0
        elif p < 4:
            deg1 = spec.m * (p - 2) + spec.q - 1
            top1 = -m * (m * (p - 2) + q) * (m * p + q) * a02 * a02 * c0
        else:
            deg1, top1 = 2 * spec.m - 1, -m * m * a02 * a02 * b3
            advisory[0] = True
        deg2 = spec.m - 1
        top2 = -m * (m + 2 * q) * a02 * c0 if p == 1 else -m * m * a02 * b3 / 2
        if p == 1:
            deg3, top3 = spec.q - 1, -q * (m * p + q) * a02 * c0
            advisory[2] = True
        else:
            deg3, top3 = spec.m - 1, m * m * a02 ** 3
    else:
        if p == 2:
            # c_m is 0 when the first nonzero c_n (n >= 1) lies above m.
            inv = invariant_values(coeffs, c0, spec.c[m] if m < len(spec.c) else Fraction(0))
            n = first_nonzero(spec.c, 1)
            if n is not None and n < m:
                deg1, top1 = n - 1, -m * n * (2 * m + n) * a02 * a02 * spec.c[n]
            else:
                deg1, top1 = m - 1, m ** 3 * a02 * inv.A
        elif p == 3:
            deg1, top1 = spec.m - 1, -3 * m ** 3 * a02 * a02 * c0
        elif p == 4:
            deg1, top1 = 2 * spec.m - 1, -(m ** 3) * a02 * a02 * (8 * c0 + b3 / 2)
        else:
            deg1, top1 = 2 * spec.m - 1, m ** 3 * a02 * a02 * b3 / 2
            advisory[0] = True
        deg2 = spec.m - 1
        if p == 2:
            top2 = -m * m * a02 * inv.B
        else:
            top2 = -m * m * (p - 1) * a02 * b3 / 2
            advisory[1] = True
        deg3 = spec.m - 1
        if p == 2:
            top3 = -m * m * a02 * inv.C
        else:
            top3 = m * m * a02 ** 3

    degrees = (deg1, deg2, deg3)
    tops = (Fraction(top1), Fraction(top2), Fraction(top3))
    return CurvatureReport(
        degrees=degrees,
        tops=tops,
        reliable_orders=(-1, -1, -1),
        advisory=tuple(advisory),
    )


# ---------------------------------------------------------------------------
# Float unit curvature parts, a reference for the exact developable chain
# ---------------------------------------------------------------------------


def kappa_tilde_series(frame: DarbouxFrame, report: CurvatureReport):
    """Unit parts kappa~_i = kappa_i / x^{alpha_i} built from the oracle's numerators."""
    if any(d is None for d in report.degrees):
        raise FrameError("a curvature numerator vanishes to reliable order")
    k1, k2, k3 = report.numerators
    inv_e, inv_n = frame.inv_e, frame.inv_n
    a1, a2, a3 = report.degrees
    t1 = factor_power(k1, a1).to_float() * (inv_e * inv_e * inv_n)
    t2 = factor_power(k2, a2).to_float() * (inv_e * inv_n)
    t3 = factor_power(k3, a3).to_float() * (inv_e * (inv_n * inv_n))
    return (t1, t2, t3)
