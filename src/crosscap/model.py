"""Input model: normal-form surface germ, curve families, tangency classification.

The surface is the coefficient-parameterized normal form of the cross-cap

    W(u, v) = (u,  uv + B(v),  A(u, v)) + O(u, v)^{k+1},
    B(v) = sum_{i=3}^{k} b_i v^i / i!,
    A(u, v) = sum_{2 <= i+j <= k} a_ij u^i v^j / (i! j!),   a_02 != 0,

truncated at total degree k.  Curves through the singular point come either
from the two admissible one-parameter families or as a general pair of exact
series of finite multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .series import (
    Field,
    UniSeries,
    BiSeries,
    Vec3Series,
    Vec3BiSeries,
    valuation,
)


class ModelError(ValueError):
    """Invalid surface coefficients or curve parameters."""


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise ModelError("model coefficients must be exact rationals, not floats")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class UmbrellaCoefficients:
    """Normal-form data: truncation degree k, the a_ij map and the b_i map.

    Absent entries are zero.  ``a[(0, 2)]`` must be nonzero; indices must
    satisfy 2 <= i+j <= k for a and 3 <= i <= k for b.
    """

    degree: int
    a: dict
    b: dict

    def __post_init__(self):
        if self.degree < 3:
            raise ModelError("truncation degree k must be >= 3")
        a = {}
        for key, value in self.a.items():
            i, j = key
            if i < 0 or j < 0 or not (2 <= i + j <= self.degree):
                raise ModelError(f"a index {key} outside 2 <= i+j <= k")
            value = _frac(value)
            if value != 0:
                a[(i, j)] = value
        b = {}
        for i, value in self.b.items():
            if not (3 <= i <= self.degree):
                raise ModelError(f"b index {i} outside 3 <= i <= k")
            value = _frac(value)
            if value != 0:
                b[i] = value
        if a.get((0, 2), Fraction(0)) == 0:
            raise ModelError("a_02 must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def a02(self) -> Fraction:
        return self.a[(0, 2)]

    def a_coeff(self, i: int, j: int) -> Fraction:
        return self.a.get((i, j), Fraction(0))

    def b_coeff(self, i: int) -> Fraction:
        return self.b.get(i, Fraction(0))

    def truncated(self, degree: int) -> "UmbrellaCoefficients":
        """The same jet cut at total degree ``degree``: a_ij with i+j > degree and b_i with i > degree dropped."""
        return UmbrellaCoefficients(
            degree,
            {key: value for key, value in self.a.items() if sum(key) <= degree},
            {i: value for i, value in self.b.items() if i <= degree},
        )


@dataclass(frozen=True)
class FamilyMPQ:
    """Curve (c(x) x^{m p + q}, x^m) with 1 <= p and 1 <= q < m.

    ``c`` lists the coefficients c_0, c_1, ... of c(x); c_0 != 0.
    """

    m: int
    p: int
    q: int
    c: tuple

    def __post_init__(self):
        c = tuple(_frac(v) for v in self.c)
        object.__setattr__(self, "c", c)
        if self.m < 2:
            raise ModelError("family (m p + q) requires m >= 2")
        if self.p < 1:
            raise ModelError("family (m p + q) requires p >= 1")
        if not (1 <= self.q < self.m):
            raise ModelError("family (m p + q) requires 1 <= q < m")
        if not c or c[0] == 0:
            raise ModelError("c_0 must be nonzero")

    @property
    def first_exponent(self) -> int:
        return self.m * self.p + self.q


@dataclass(frozen=True)
class FamilyMP:
    """Curve (c(x) x^{m p}, x^m) with p >= 2 and c_0 != 0."""

    m: int
    p: int
    c: tuple

    def __post_init__(self):
        c = tuple(_frac(v) for v in self.c)
        object.__setattr__(self, "c", c)
        if self.m < 1:
            raise ModelError("family (m p) requires m >= 1")
        if self.p < 2:
            raise ModelError("family (m p) requires p >= 2")
        if not c or c[0] == 0:
            raise ModelError("c_0 must be nonzero")

    @property
    def first_exponent(self) -> int:
        return self.m * self.p


@dataclass(frozen=True)
class GeneralCurve:
    """A finite-multiplicity curve given by two exact component series."""

    c1: UniSeries
    c2: UniSeries

    def __post_init__(self):
        if self.c1.field is not Field.EXACT or self.c2.field is not Field.EXACT:
            raise ModelError("general curves must be given in the EXACT field")
        for name, series in (("c1", self.c1), ("c2", self.c2)):
            v = valuation(series)
            if v.is_zero_to_order:
                raise ModelError(
                    f"curve component {name} vanishes to its reliable order {series.reliable_order}"
                )
            if v.order == 0:
                raise ModelError("curve must pass through the origin")
        if not _rank_two(self.c1, self.c2):
            raise ModelError(
                "curve components are proportional: the rank-two condition fails"
            )


CurveSpec = Union[FamilyMPQ, FamilyMP, GeneralCurve]


def _rank_two(c1: UniSeries, c2: UniSeries) -> bool:
    # Dependent iff both nonzero components are scalar multiples of a common
    # series, checked coefficientwise up to the shared reliable order.
    v1, v2 = valuation(c1), valuation(c2)
    if v1.order != v2.order:
        return True
    r = min(c1.reliable_order, c2.reliable_order)
    lead1, lead2 = v1.leading, v2.leading
    for i in range(r + 1):
        if c1.coeffs[i] * lead2 != c2.coeffs[i] * lead1:
            return True
    return False


def curve_multiplicity(c1: UniSeries, c2: UniSeries) -> int:
    """The multiplicity m: the smaller valuation of the two components."""
    v1, v2 = valuation(c1), valuation(c2)
    orders = [v.order for v in (v1, v2) if not v.is_zero_to_order]
    if not orders:
        raise ModelError("curve components vanish to reliable order")
    return min(orders)


def spec_multiplicity(spec: CurveSpec) -> int:
    if isinstance(spec, (FamilyMPQ, FamilyMP)):
        return spec.m
    return curve_multiplicity(spec.c1, spec.c2)


def default_series_order(spec: CurveSpec, degree: int) -> int:
    """Default storage/reliable order m_min (k + 1) - 1 dictated by the surface tail."""
    return spec_multiplicity(spec) * (degree + 1) - 1


def build_umbrella(coeffs: UmbrellaCoefficients) -> Vec3BiSeries:
    """The normal-form surface as a vector of bivariate series, reliable to degree k."""
    k = coeffs.degree
    comp1 = BiSeries.make(Field.EXACT, {(1, 0): Fraction(1)}, k)
    second = {(1, 1): Fraction(1)}
    for i, b in coeffs.b.items():
        second[(0, i)] = b / math.factorial(i)
    comp2 = BiSeries.make(Field.EXACT, second, k)
    third = {}
    for (i, j), a in coeffs.a.items():
        third[(i, j)] = a / (math.factorial(i) * math.factorial(j))
    comp3 = BiSeries.make(Field.EXACT, third, k)
    return Vec3BiSeries(comp1, comp2, comp3)


def build_curve(spec: CurveSpec, order: int) -> tuple:
    """Component series (first, second) of the curve, exact to the given order."""
    if isinstance(spec, GeneralCurve):
        return spec.c1.truncate(order), spec.c2.truncate(order)
    shift = spec.first_exponent
    first = [Fraction(0)] * (order + 1)
    for n, cn in enumerate(spec.c):
        if shift + n <= order:
            first[shift + n] = cn
    c1 = UniSeries.make(Field.EXACT, first, order)
    c2 = UniSeries.monomial(Field.EXACT, 1, spec.m, order) if spec.m <= order else UniSeries.zero(Field.EXACT, order)
    return c1, c2


def image_curve(W: Vec3BiSeries, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """The space curve W(c1(x), c2(x)) with propagated reliability."""
    return W.compose(c1, c2)


def normal_field_raw(W: Vec3BiSeries, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """(W_u x W_v) evaluated along the curve; vanishes at the singular point."""
    cross = W.diff_u().cross(W.diff_v())
    return cross.compose(c1, c2)


# ---------------------------------------------------------------------------
# Tangency classification
# ---------------------------------------------------------------------------

#: Directions attached to the normal form at the singular point.
TANGENT_LINE_DIRECTION = (1.0, 0.0, 0.0)
PRINCIPAL_INTERSECTION_DIRECTION = (0.0, 0.0, 1.0)
NULL_VECTOR = (0.0, 1.0)
PRINCIPAL_PLANE_NORMAL = (0.0, 1.0, 0.0)

_CASE_KIND = {
    1: "tangent-line",
    2: "tangent-line",
    3: "principal-plane",
    4: "principal-intersection-line",
}


@dataclass(frozen=True)
class TangencyClassification:
    """Which of the four contact cases the curve realizes at the singular point."""

    case: int
    kind: str
    limiting_tangent: tuple
    tangent_line_direction: tuple = TANGENT_LINE_DIRECTION
    principal_intersection_direction: tuple = PRINCIPAL_INTERSECTION_DIRECTION
    null_vector: tuple = NULL_VECTOR
    principal_plane_normal: tuple = PRINCIPAL_PLANE_NORMAL


def _normalize(vec) -> tuple:
    n = math.sqrt(sum(float(c) ** 2 for c in vec))
    return tuple(float(c) / n for c in vec)


def classify_tangency(coeffs: UmbrellaCoefficients, c1: UniSeries, c2: UniSeries) -> TangencyClassification:
    """Classify by how far the first component vanishes past the multiplicity.

    With the curve written as (f1, f2) x^m, the case is decided by
    l = val(first component) - m:  l = 0 -> (1), 0 < l < m -> (2), l = m -> (3),
    l > m -> (4).  The limiting tangent is the unit value at 0 of the factored
    derivative, written out per case.
    """
    m = curve_multiplicity(c1, c2)
    v1 = valuation(c1)
    if v1.is_zero_to_order:
        if c1.reliable_order < 2 * m + 1:
            raise ModelError(
                "tangency case indeterminable: first component vanishes to "
                "reliable order %d < %d" % (c1.reliable_order, 2 * m + 1)
            )
        ell = m + 1  # anything > m acts the same
    else:
        ell = v1.order - m
    if ell > 0:
        v2 = valuation(c2)
        if v2.is_zero_to_order or v2.order != m:
            raise ModelError("degenerate curve: second component must carry the multiplicity")
        c2_0 = c2.coeffs[m]
    if ell == 0:
        case = 1
        tangent = (float(v1.leading), 0.0, 0.0)
    elif ell < m:
        case = 2
        tangent = (float(v1.leading), 0.0, 0.0)
    elif ell == m:
        case = 3
        # Factored-derivative value (2m f1~(0), 0, m a_02 c2(0)^2), rescaled.
        tangent = (
            2.0 * float(v1.leading),
            0.0,
            float(coeffs.a02) * float(c2_0) ** 2,
        )
    else:
        case = 4
        tangent = (0.0, 0.0, float(coeffs.a02) * float(c2_0) ** 2)
    return TangencyClassification(
        case=case, kind=_CASE_KIND[case], limiting_tangent=_normalize(tangent)
    )
