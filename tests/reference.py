"""Reference computations that only the tests use.

Each one checks a library result by an independent route: the regular-point
curvatures straight from the unfactored series, the developability residual
and the striction curve of a generic ruled surface, the osculating
developable as the float chain of the unit Darboux frame, the curvature top-terms
that the A/B/C/D invariants predict, the limiting tangent by tangency case,
and the series operations, products
and composition as coefficient-by-coefficient ``Fraction`` loops (with
the sum and product of two ``BiSeries``, the two partial derivatives of
one, and ``reference_bi_make``, the one builder of a ``BiSeries`` from
``Fraction``s in the tests), the raw normal taken bivariate first, the
surface and curve builders, the vector valuation and the curvature
numerators as they were before the exact builders, and the mesh vertices,
the quads of a vertex grid and the OBJ text one vertex, one quad and one
line at a time, and the face block ``%d``-formatted from one flat index
list.  The float norm and unit vector of a vector series, a float zero
test with an absolute tolerance, the exact and float
``reference_reciprocal`` of the striction checks, and ``float_series``
and ``float_vec3`` (float fixtures padded with 0.0), ``float_constant_vector``
(the value at 0 of a float vector) and ``horner`` (the per-point float
evaluation) serve these checks; the univariate ring
loops take an exact ``UniSeries`` or a ``FloatSeries`` and return the same
type.
``over_sqrt``, the one-step float of value / sqrt(radicand), is the
reference for the float of a ``SignedRoot``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from crosscap.developable import (
    BRANCH_A2_GT_A3,
    BRANCH_A3_GE_A2,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_SIGMA_TOP_NONZERO,
    DevelopableError,
)
from crosscap.frame import CurvatureReport, FrameError, FrameFactors, darboux_frame, kappa_tilde_series
from crosscap.invariants import TopInvariants
from crosscap.model import CurveSpec, FamilyMPQ, GeneralCurve, UmbrellaCoefficients
from crosscap.obj import MeshError, QuadMesh, RuledSurface, _grid
from crosscap.series import (
    BiSeries,
    FloatSeries,
    ReliabilityError,
    SeriesError,
    SignedRoot,
    UniSeries,
    Valuation,
    Vec3Series,
    _coerce,
    nearest_float,
    reciprocal,
    sqrt_series,
    valuation,
)


# ---------------------------------------------------------------------------
# Float fixtures, evaluation, zero test and normalisation
# ---------------------------------------------------------------------------

#: Absolute tolerance for treating a float coefficient as zero.
FLOAT_TOL = 1e-9


def float_series(coeffs, reliable_order: int | None = None) -> FloatSeries:
    """The float series of ``coeffs`` (each through ``float``), cut or padded with 0.0 to ``reliable_order``."""
    cs = [float(c) for c in coeffs]
    if reliable_order is None:
        reliable_order = len(cs) - 1
    cs += [0.0] * (reliable_order + 1 - len(cs))
    return FloatSeries(tuple(cs[: reliable_order + 1]), reliable_order)


def float_vec3(cx, cy, cz, reliable_order: int) -> Vec3Series:
    """The float vector series of three coefficient lists, each padded as ``float_series`` pads."""
    return Vec3Series(*(float_series(c, reliable_order) for c in (cx, cy, cz)))


def float_constant_vector(vec: Vec3Series) -> tuple:
    """The coefficients of x^0 of a float vector; ``Vec3Series.constant_vector`` reads an exact one."""
    return tuple(c.coeffs[0] for c in vec.components)


def exact_vec3(cx, cy, cz, reliable_order: int) -> Vec3Series:
    """The exact vector series of three coefficient lists, each cut or padded as ``UniSeries.make`` does."""
    return Vec3Series(*(UniSeries.make(c, reliable_order) for c in (cx, cy, cz)))


def reference_evaluate(series: UniSeries, x: Fraction) -> Fraction:
    """The exact ``series`` at the rational ``x``: the sum of its reliable terms."""
    return sum((c * x**k for k, c in enumerate(series.coeffs)), Fraction(0))


def horner(series: FloatSeries, x: float) -> float:
    """The float ``series`` at ``x`` by Horner's rule from 0.0: the per-point reference of ``obj._horner``."""
    acc = 0.0
    for c in reversed(series.coeffs):
        acc = acc * x + c
    return acc


def horner_vec3(vec: Vec3Series, x: float) -> tuple:
    """The float vector series ``vec`` at ``x``, component by component."""
    return tuple(horner(c, x) for c in vec.components)


def is_zero_coeff(value) -> bool:
    """Zero test: exact for a rational, absolute tolerance FLOAT_TOL for a float."""
    if isinstance(value, float):
        return abs(value) <= FLOAT_TOL
    return value == 0



def norm_series(vec: Vec3Series) -> FloatSeries:
    """|vec| of an exact vector as a float series (the value at 0 must be nonzero)."""
    return sqrt_series(vec.to_float().norm_sq())


def unit(self: Vec3Series) -> Vec3Series:
    """Normalized vector field (float only; needs a nonvanishing value at 0)."""
    inv_norm = reciprocal(sqrt_series(self.norm_sq()))
    return self.scale(inv_norm)


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
    xi_bar = unit(surface.xi)
    w = xi_bar.diff()
    den = w.dot(w)
    vd = reference_valuation(den)
    if vd.is_zero_to_order:
        raise DevelopableError("director derivative vanishes to reliable order: cylinder")
    num = surface.gamma.diff().dot(w)
    scale = reference_factor_power(num, vd.order) * reference_reciprocal(reference_factor_power(den, vd.order))
    return scale, surface.gamma - xi_bar.scale(scale)


# ---------------------------------------------------------------------------
# The osculating developable in floats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatDevelopable:
    """The osculating developable as the float chain of the unit Darboux frame computes it.

    ``director`` is the unit director, ``shifted`` the unit curvature parts
    (t2b, t3b) with rho_sq = t2b^2 + t3b^2, ``scale`` and ``curve`` the
    striction scale and curve.  Orders are decided with the absolute
    tolerance FLOAT_TOL.
    """

    branch: str
    tilde: tuple
    shifted: tuple
    director: Vec3Series
    delta: UniSeries
    delta_order: int | None
    delta_top: float | None
    exists: bool
    passes: bool
    scale: UniSeries | None
    curve: Vec3Series | None
    sigma: UniSeries | None
    sigma_order: int | None
    sigma_top: float | None
    case: str
    E_coeff: float | None
    F_coeff: float | None


def reference_osculating_developable(factors: FrameFactors, report: CurvatureReport, img: Vec3Series) -> FloatDevelopable:
    """The float chain: unit frame, kappa~_i, unit director, delta, striction and sigma.

    ``img`` is the exact image curve.

    delta = k1~ x^a1 rho^2 + t2b t3b' - t2b' t3b, the striction scale is
    <img', D'> / <D', D'> with x^{2k} factored out of both, and sigma is the
    speed <s', D> of the striction curve s.
    """
    frame = darboux_frame(factors)
    tilde = t1, t2, t3 = kappa_tilde_series(frame, report)
    a0 = factors.alpha0
    a1, a2, a3 = report.degrees
    branch = BRANCH_A2_GT_A3 if a2 > a3 else BRANCH_A3_GE_A2
    t2b = reference_shift(t2, max(a2 - a3, 0))
    t3b = reference_shift(t3, max(a3 - a2, 0))
    rho_sq = t2b * t2b + t3b * t3b
    director = (frame.e.scale(t3b) - frame.b.scale(t2b)).scale(reciprocal(sqrt_series(rho_sq)))
    delta = reference_shift(t1, a1) * rho_sq + t2b * t3b.diff() - t2b.diff() * t3b
    v = reference_valuation(delta)
    k, delta_top = v.order, v.leading

    exists_bound = a0 + a2 - a3 - 1 if branch == BRANCH_A2_GT_A3 else a0 - 1
    exists = k is not None and exists_bound >= k
    passes = exists and exists_bound > k
    scale = curve = sigma = sigma_order = sigma_top = None
    if exists:
        img = img.to_float()
        dpr = director.diff()
        num = reference_factor_power(img.diff().dot(dpr), 2 * k)
        scale = num * reference_reciprocal(reference_factor_power(dpr.dot(dpr), 2 * k))
        curve = img - director.scale(scale)
        if passes:
            sigma = curve.diff().dot(director)
            vs = reference_valuation(sigma)
            sigma_order, sigma_top = vs.order, vs.leading

    e_coeff = f_coeff = None
    if a2 <= a3:
        case = CASE_SIGMA_TOP_NONZERO
    elif a1 != a2 - a3 - 1:
        case = CASE_I if a1 < a2 - a3 - 1 else CASE_III
    else:
        case = CASE_II
        e_coeff = t1.coeffs[0] * t3.coeffs[0] - (a2 - a3) * t2.coeffs[0]
        f_coeff = t1.coeffs[0] * t3.coeffs[0] - (a0 + a2 - a3) * t2.coeffs[0]
    return FloatDevelopable(
        branch, tilde, (t2b, t3b, rho_sq), director, delta, k, delta_top, exists, passes,
        scale, curve, sigma, sigma_order, sigma_top, case, e_coeff, f_coeff,
    )


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
    k1, k2, k3 = (horner(k, x) for k in kappas)
    et = horner_vec3(factors.tangent.to_float(), x)
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

    c1 = horner_vec3(d1, x)
    c2 = horner_vec3(d2, x)
    nv = horner_vec3(nraw, x)
    dnv = horner_vec3(dnraw, x)

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


# ---------------------------------------------------------------------------
# The limiting tangent by tangency case
# ---------------------------------------------------------------------------


def reference_limiting_tangent(coeffs: UmbrellaCoefficients, spec: CurveSpec) -> tuple:
    """E_t(0) / |E_t(0)| written out per tangency case, from the curve's leading coefficients and a_02.

    With v1 = val(c1) and l = v1 - m, E_t(0) is a positive multiple of
    (c1[v1], 0, 0) when l < m (cases 1 and 2), of (2 c1[v1], 0, a_02 c2[m]^2)
    when l = m (case 3) and of (0, 0, a_02 c2[m]^2) when l > m (case 4).
    """
    c1, c2 = spec.components
    m = spec.m
    v1 = next(i for i, c in enumerate(c1) if c)
    if v1 - m < m:
        x, z = c1[v1], 0
    else:
        z = coeffs.a02 * c2[m] ** 2
        # Case 3: the factored-derivative value (2m f1~(0), 0, m a_02 c2(0)^2), rescaled.
        x = 2 * c1[v1] if v1 - m == m else 0
    r = x * x + z * z
    return tuple(SignedRoot.of(c, r) for c in (x, 0, z))


# ---------------------------------------------------------------------------
# Series kernels as Fraction loops
# ---------------------------------------------------------------------------
#
# The univariate and bivariate series operations, the products and the
# composition as they were written before exact series became integer
# numerators over one denominator: one coefficient operation at a time on the
# ``coeffs`` tuples and maps.  A univariate loop takes an exact ``UniSeries``
# (``Fraction`` coefficients) or a ``FloatSeries`` (floats) and returns the
# same type.  The composition uses only these references, no ``UniSeries``
# operator, and builds its powers afresh on every call.


def _zero_of(s):
    """The zero coefficient of the series ``s``: 0.0 for a float series, else ``Fraction(0)``."""
    return 0.0 if isinstance(s, FloatSeries) else Fraction(0)


def _like(s, coeffs, r: int):
    """The series of type ``type(s)`` with the coefficients ``coeffs``, reliable to ``r``."""
    if isinstance(s, FloatSeries):
        return FloatSeries(tuple(coeffs), r)
    return UniSeries.make(coeffs, r)


def _same_type(a, b) -> None:
    if type(a) is not type(b):
        raise SeriesError("field mismatch between series operands")


def reference_add(self, other):
    """``UniSeries.__add__`` and ``FloatSeries.__add__`` of two series."""
    _same_type(self, other)
    r = min(self.reliable_order, other.reliable_order)
    return _like(self, [self.coeffs[i] + other.coeffs[i] for i in range(r + 1)], r)


def reference_neg(self):
    """``UniSeries.__neg__``, and negation coefficient by coefficient of a float series."""
    return _like(self, [-c for c in self.coeffs], self.reliable_order)


def reference_sub(self, other):
    """``UniSeries.__sub__`` and ``FloatSeries.__sub__``: the sum with the negated operand."""
    return reference_add(self, reference_neg(other))


def reference_scale(self, other):
    """The scalar branch of ``UniSeries.__mul__``."""
    c = _coerce(other)
    return _like(self, [a * c for a in self.coeffs], self.reliable_order)


def reference_diff(self):
    """``UniSeries.diff`` and ``FloatSeries.diff``."""
    if self.reliable_order < 1:
        raise SeriesError("cannot differentiate a series reliable only to order 0")
    cs = [i * self.coeffs[i] for i in range(1, self.reliable_order + 1)]
    return _like(self, cs, self.reliable_order - 1)


def reference_shift(self, power: int):
    """``UniSeries.shift``, and the same shift of a float series."""
    if power < 0:
        raise SeriesError("shift power must be >= 0")
    if power == 0:
        return self
    return _like(self, [_zero_of(self)] * power + list(self.coeffs), self.reliable_order + power)


def reference_truncate(self, reliable_order: int):
    """The series cut at ``reliable_order``, exact or float."""
    r = min(self.reliable_order, reliable_order)
    return _like(self, self.coeffs[: r + 1], r)


def reference_to_float(self: UniSeries) -> FloatSeries:
    """``UniSeries.to_float``."""
    return FloatSeries(tuple(float(c) for c in self.coeffs), self.reliable_order)


def reference_valuation(a) -> Valuation:
    """``valuation``, and its float counterpart with the tolerance of ``is_zero_coeff``."""
    for i, c in enumerate(a.coeffs):
        if not is_zero_coeff(c):
            return Valuation(i, c, a.reliable_order)
    return Valuation(None, None, a.reliable_order)


def reference_factor_power(a, power: int):
    """``factor_power``, and its float counterpart with the tolerance of ``is_zero_coeff``."""
    if power < 0:
        raise SeriesError("power must be >= 0")
    if power == 0:
        return a
    if a.reliable_order < power:
        raise SeriesError("series not reliable far enough to factor x^%d" % power)
    for c in a.coeffs[:power]:
        if not is_zero_coeff(c):
            raise SeriesError(
                "valuation smaller than %d: cannot factor x^%d out of the series" % (power, power)
            )
    return _like(a, a.coeffs[power:], a.reliable_order - power)


def reference_mul(self, other):
    """``UniSeries.__mul__`` of two series and ``FloatSeries.__mul__``."""
    _same_type(self, other)
    r = min(self.reliable_order, other.reliable_order)
    cs = [_zero_of(self)] * (r + 1)
    for i, a in enumerate(self.coeffs):
        if i > r:
            break
        if a == 0:
            continue
        for j, b in enumerate(other.coeffs[: r + 1 - i]):
            if b == 0:
                continue
            cs[i + j] += a * b
    return _like(self, cs, r)


def reference_reciprocal(a):
    """The inverse a * reference_reciprocal(a) = 1 + O(x^{R+1}) of a series with a_0 != 0.

    Exact for a ``UniSeries``, and ``reciprocal``'s loop for a ``FloatSeries``.
    """
    if a.coeffs[0] == 0:
        raise SeriesError("reciprocal requires a nonzero constant term")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.reliable_order + 1):
        acc = _zero_of(a)
        for k in range(1, n + 1):
            acc += a.coeffs[k] * out[n - k]
        out.append(-acc * inv0)
    return _like(a, out, a.reliable_order)


def reference_bi_make(coeffs, reliable_order: int) -> BiSeries:
    """The ``BiSeries`` with the rational coefficients ``coeffs`` up to total degree ``reliable_order``.

    The one way the tests build a ``BiSeries`` from ``Fraction``s: the terms
    are put over their least common denominator and go through
    ``BiSeries.from_numerators``, which drops the zeros and keeps the key
    order of ``coeffs``.
    """
    if reliable_order < 0:
        raise SeriesError("reliable_order must be >= 0")
    clean = {}
    for (i, j), c in coeffs.items():
        if i < 0 or j < 0:
            raise SeriesError("negative exponent in BiSeries")
        if i + j <= reliable_order:
            clean[(i, j)] = _coerce(c)
    den = math.lcm(*(c.denominator for c in clean.values()))
    return BiSeries.from_numerators(
        {k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den, reliable_order
    )


def reference_bi_add(self: BiSeries, other: BiSeries) -> BiSeries:
    """The sum of two ``BiSeries``, reliable to the smaller order."""
    r = min(self.reliable_order, other.reliable_order)
    out = dict()
    for (i, j), c in reference_bi_coeffs(self).items():
        if i + j <= r:
            out[(i, j)] = c
    for (i, j), c in reference_bi_coeffs(other).items():
        if i + j <= r:
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
    return reference_bi_make(out, r)


def reference_bi_diff_u(self: BiSeries) -> BiSeries:
    """d/du of a ``BiSeries``, reliable one order less; ``compose_partials`` substitutes it without building it."""
    if self.reliable_order < 1:
        raise ReliabilityError("cannot differentiate a series reliable only to order 0")
    r = self.reliable_order - 1
    out = {(i - 1, j): c * i for (i, j), c in reference_bi_coeffs(self).items() if i >= 1 and i + j <= r + 1}
    return reference_bi_make(out, r)


def reference_bi_diff_v(self: BiSeries) -> BiSeries:
    """d/dv of a ``BiSeries``, reliable one order less; ``compose_partials`` substitutes it without building it."""
    if self.reliable_order < 1:
        raise ReliabilityError("cannot differentiate a series reliable only to order 0")
    r = self.reliable_order - 1
    out = {(i, j - 1): c * j for (i, j), c in reference_bi_coeffs(self).items() if j >= 1 and i + j <= r + 1}
    return reference_bi_make(out, r)


def reference_bi_coeffs(self: BiSeries) -> dict:
    """The coefficients of a ``BiSeries`` as reduced ``Fraction``s, in the key order of its numerators."""
    return {k: Fraction(n, self._den) for k, n in self._num.items()}


def reference_bi_float_coeffs(self: BiSeries) -> dict:
    """``BiSeries.float_coeffs``."""
    return {k: float(c) for k, c in reference_bi_coeffs(self).items()}


def reference_bimul(self: BiSeries, other: BiSeries) -> BiSeries:
    """``BiSeries.__mul__``."""
    r = min(self.reliable_order, other.reliable_order)
    out: dict = {}
    for (i1, j1), c1 in reference_bi_coeffs(self).items():
        for (i2, j2), c2 in reference_bi_coeffs(other).items():
            i, j = i1 + i2, j1 + j2
            if i + j > r:
                continue
            key = (i, j)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return reference_bi_make(out, r)


def reference_compose_bi(F: BiSeries, u: UniSeries, v: UniSeries) -> UniSeries:
    """``compose_bi``: sums c u^i v^j series by series."""
    if type(u) is not UniSeries or type(v) is not UniSeries:
        raise SeriesError("field mismatch between series operands")
    for s, name in ((u, "u"), (v, "v")):
        if not is_zero_coeff(s.coeffs[0]):
            raise SeriesError(f"compose_bi requires {name}(0) = 0")

    def lower_bound(s: UniSeries) -> int:
        val = reference_valuation(s)
        return s.reliable_order + 1 if val.order is None else val.order

    val_u, val_v = lower_bound(u), lower_bound(v)
    m_min = min(val_u, val_v)
    if m_min < 1:
        raise SeriesError("substituted series must have positive valuation")
    r_out = min(m_min * (F.reliable_order + 1) - 1, u.reliable_order, v.reliable_order)
    if r_out < 0:
        raise SeriesError("composition carries no reliable coefficients")
    u = reference_truncate(u, r_out)
    v = reference_truncate(v, r_out)
    zero = UniSeries.make([], r_out)
    one = UniSeries.make([1], r_out)

    # Cache powers of u and v up to the largest exponent that can contribute.
    u_pows = [one]
    v_pows = [one]

    def upow(i: int) -> UniSeries:
        while len(u_pows) <= i:
            u_pows.append(reference_mul(u_pows[-1], u))
        return u_pows[i]

    def vpow(j: int) -> UniSeries:
        while len(v_pows) <= j:
            v_pows.append(reference_mul(v_pows[-1], v))
        return v_pows[j]

    acc = zero
    for (i, j), c in sorted(reference_bi_coeffs(F).items()):
        if i * val_u + j * val_v > r_out:
            continue
        acc = reference_add(acc, reference_scale(reference_mul(upow(i), vpow(j)), c))
    return acc


def reference_normal_field_raw(W: Vec3Series, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """``model.normal_field_raw`` bivariate first: W_u x W_v in the reference ring, then substituted."""
    W_u = [reference_bi_diff_u(F) for F in W.components]
    W_v = [reference_bi_diff_v(F) for F in W.components]

    def minus(a: BiSeries, b: BiSeries) -> BiSeries:
        return reference_bi_add(a, reference_bimul(reference_bi_make({(0, 0): -1}, b.reliable_order), b))

    normal = [
        minus(reference_bimul(W_u[i], W_v[j]), reference_bimul(W_u[j], W_v[i])) for i, j in ((1, 2), (2, 0), (0, 1))
    ]
    return Vec3Series(*[reference_compose_bi(N, c1, c2) for N in normal])


# ---------------------------------------------------------------------------
# Model builders, vector valuation and curvature numerators
# ---------------------------------------------------------------------------
#
# As they were written before the builders made integer numerators: one
# ``Fraction`` per coefficient, one ``Valuation`` per component, and the
# curvature numerators with two cross products (21 series products).


def reference_build_umbrella(coeffs: UmbrellaCoefficients) -> Vec3Series:
    """``model.build_umbrella``."""
    k = coeffs.degree
    fact = math.factorial
    comp1 = reference_bi_make({(1, 0): Fraction(1)}, k)
    second = {(1, 1): Fraction(1)}
    for i, b in coeffs.b.items():
        second[(0, i)] = Fraction(b.numerator, b.denominator * fact(i))
    comp2 = reference_bi_make(second, k)
    third = {}
    for (i, j), a in coeffs.a.items():
        third[(i, j)] = Fraction(a.numerator, a.denominator * fact(i) * fact(j))
    comp3 = reference_bi_make(third, k)
    return Vec3Series(comp1, comp2, comp3)


def reference_build_curve(spec: CurveSpec, order: int) -> tuple:
    """``model.build_curve``: each component padded with ``Fraction`` zeros and cut to ``order``."""
    if isinstance(spec, GeneralCurve):
        c1, c2 = spec.c1, spec.c2
    else:
        shift = spec.m * spec.p + (spec.q if isinstance(spec, FamilyMPQ) else 0)
        c1, c2 = [Fraction(0)] * shift + list(spec.c), [Fraction(0)] * spec.m + [Fraction(1)]
    return tuple(
        UniSeries.make([c[i] if i < len(c) else Fraction(0) for i in range(order + 1)], order) for c in (c1, c2)
    )


def reference_vector_valuation(a: Vec3Series) -> Valuation:
    """``valuation`` of a vector."""
    best: Valuation | None = None
    for comp in a.components:
        v = valuation(comp)
        if v.is_zero_to_order:
            continue
        if best is None or v.order < best.order:
            best = v
    if best is None:
        return Valuation(None, None, a.reliable_order)
    return Valuation(best.order, best.leading, a.reliable_order)


def reference_curvature_numerators(factors: FrameFactors):
    """The curvature numerators of ``frame.curvature_numerators``."""
    e_t, n = factors.tangent, factors.normal
    de = e_t.diff()
    k1 = de.dot(n.cross(e_t))
    k2 = de.dot(n)
    k3 = n.diff().cross(e_t).dot(n)
    return (k1, k2, k3)


# ---------------------------------------------------------------------------
# Mesh sampling and OBJ text
# ---------------------------------------------------------------------------


def reference_bi_evaluate(coeffs: dict, u: float, v: float) -> float:
    """The float coefficients (i, j) -> c of a bivariate series at (u, v), term by term."""
    acc = 0.0
    for (i, j), c in coeffs.items():
        acc += c * u**i * v**j
    return acc


def _quad_faces(rows: int, cols: int) -> list:
    """The 0-based quads (a, a + cols, a + cols + 1, a + 1) of a rows x cols vertex grid, row by row."""
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a = i * cols + j
            faces.append((a, a + cols, a + cols + 1, a + 1))
    return faces


def _points(coords) -> list:
    """Flat x, y, z coordinates as one 3-tuple per vertex."""
    return [tuple(coords[k : k + 3]) for k in range(0, len(coords), 3)]


def reference_surface_patch(W, u_range, v_range, nu: int, nv: int) -> QuadMesh:
    """``obj.sample_surface_patch`` by one evaluation per vertex and component."""
    us = _grid(u_range[0], u_range[1], nu)
    vs = _grid(v_range[0], v_range[1], nv)
    float_coeffs = [reference_bi_float_coeffs(c) for c in W.components]
    coords = []
    for u in us:
        for v in vs:
            coords.extend(reference_bi_evaluate(c, u, v) for c in float_coeffs)
    return QuadMesh(tuple(coords), nu, nv)


def reference_ruled_surface(surface: RuledSurface, x_range, y_range, nx: int, ny: int) -> QuadMesh:
    """``obj.sample_ruled_surface`` by one evaluation of gamma and xi per vertex."""
    xs = _grid(x_range[0], x_range[1], nx)
    ys = _grid(y_range[0], y_range[1], ny)
    coords = []
    for x in xs:
        g = horner_vec3(surface.gamma, x)
        d = horner_vec3(surface.xi, x)
        for y in ys:
            coords.extend(gc + y * dc for gc, dc in zip(g, d))
    return QuadMesh(tuple(coords), nx, ny)


def reference_curve_polyline(curve: Vec3Series, x_range, n: int) -> tuple:
    """``obj.sample_curve_polyline`` by one evaluation of the float curve per sample point."""
    return tuple(c for x in _grid(x_range[0], x_range[1], n) for c in horner_vec3(curve, x))


def _reference_fmt(value: float) -> str:
    if not math.isfinite(value):
        raise MeshError(f"non-finite vertex coordinate {value!r}: the window is too wide for this jet")
    return format(value, ".9g")


def _vertex_lines(coords) -> list:
    return ["v %s %s %s" % tuple(_reference_fmt(c) for c in p) for p in _points(coords)]


def reference_obj_mesh_text(mesh: QuadMesh) -> str:
    """``obj.obj_mesh_text``, one line at a time, with the faces of ``_quad_faces``."""
    lines = _vertex_lines(mesh.coords)
    for f in _quad_faces(mesh.rows, mesh.cols):
        lines.append("f %d %d %d %d" % tuple(i + 1 for i in f))
    return "\n".join(lines) + "\n"


def reference_face_block(rows: int, cols: int) -> str:
    """The ``f`` lines of ``obj.obj_mesh_text``, every index ``%d``-formatted in one pass over a flat index list."""
    width = 4 * (cols - 1)
    corners = [0] * (width * (rows - 1))
    for j in range(cols - 1):  # the quad of vertex a = i cols + j: a, a + cols, a + cols + 1, a + 1
        for offset, shift in enumerate((1, cols + 1, cols + 2, 2)):  # 1-based
            corners[4 * j + offset :: width] = range(j + shift, (rows - 1) * cols + j + shift, cols)
    return "f %d %d %d %d\n" * (len(corners) // 4) % tuple(corners)


def reference_obj_polyline_text(coords) -> str:
    """``obj.obj_polyline_text``, one line at a time."""
    lines = _vertex_lines(coords)
    for i in range(len(lines) - 1):
        lines.append("l %d %d" % (i + 1, i + 2))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# value / sqrt(radicand) rounded to a float in one step
# ---------------------------------------------------------------------------


def over_sqrt(value: Fraction, radicand: Fraction) -> float:
    """value / sqrt(radicand) for rationals with radicand > 0, rounded to the nearest float.

    The square root of value^2 / radicand is taken in integers, to at least
    58 bits with a sticky bit, so that the one rounding to a float is that
    of the real quotient.  OverflowError when it passes the float range,
    either way (``nearest_float``).  The reference for ``SignedRoot``'s float.
    """
    q = value * value / radicand
    shift = max(0, 58 - (q.numerator.bit_length() - q.denominator.bit_length()) // 2)
    n, rem = divmod(q.numerator << (2 * shift), q.denominator)
    root = math.isqrt(n)
    if rem or root * root != n:
        # The real root lies strictly between root and root + 1.
        root, shift = 2 * root + 1, shift + 1
    return nearest_float(Fraction(-root if value < 0 else root, 1 << shift))
