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
    UniSeries,
    BiSeries,
    Vec3Series,
    Vec3BiSeries,
    SignedRoot,
    first_nonzero,
    valuation,
)


class ModelError(ValueError):
    """Invalid surface coefficients or curve parameters."""


def _frac(value) -> Fraction:
    if type(value) is Fraction:
        return value
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
    """A finite-multiplicity curve given by two exact component series.

    ``m``, the multiplicity (``curve_multiplicity``), is set on construction
    and is not a field, so it is not part of the config.
    """

    c1: UniSeries
    c2: UniSeries

    def __post_init__(self):
        if type(self.c1) is not UniSeries or type(self.c2) is not UniSeries:
            raise ModelError("general curves must be given in the EXACT field")
        v1, v2 = valuation(self.c1), valuation(self.c2)
        for name, series, v in (("c1", self.c1, v1), ("c2", self.c2, v2)):
            if v.is_zero_to_order:
                raise ModelError(
                    f"curve component {name} vanishes to its reliable order {series.reliable_order}"
                )
            if v.order == 0:
                raise ModelError("curve must pass through the origin")
        if not _rank_two(self.c1, self.c2, v1, v2):
            raise ModelError(
                "curve components are proportional: the rank-two condition fails"
            )
        object.__setattr__(self, "m", curve_multiplicity(self.c1.coeffs, self.c2.coeffs))


def curve_multiplicity(c1, c2) -> int | None:
    """The least valuation of the coefficient sequences c1, c2 that vanish at 0 with a nonzero jet, or None."""
    return min(filter(None, (first_nonzero(cs) for cs in (c1, c2))), default=None)


CurveSpec = Union[FamilyMPQ, FamilyMP, GeneralCurve]


def _rank_two(c1: UniSeries, c2: UniSeries, v1, v2) -> bool:
    # Dependent iff both nonzero components are scalar multiples of a common
    # series, checked coefficientwise up to the shared reliable order; v1 and
    # v2 are the valuations of c1 and c2.
    if v1.order != v2.order:
        return True
    r = min(c1.reliable_order, c2.reliable_order)
    lead1, lead2 = v1.leading, v2.leading
    for i in range(r + 1):
        if c1.coeffs[i] * lead2 != c2.coeffs[i] * lead1:
            return True
    return False


def series_order(m: int, degree: int) -> int:
    """The storage/reliable order m (k + 1) - 1 that a surface tail of degree k dictates."""
    return m * (degree + 1) - 1


def build_umbrella(coeffs: UmbrellaCoefficients) -> Vec3BiSeries:
    """The normal-form surface as a vector of bivariate series, reliable to degree k.

    Each of the components u, u v + B and A is built as integer numerators
    over one denominator; the b_i and the a_ij keep the order of ``coeffs``.
    """
    k = coeffs.degree
    fact = math.factorial
    second = {(1, 1): (1, 1)}
    for i, b in coeffs.b.items():
        second[(0, i)] = (b.numerator, b.denominator * fact(i))
    third = {(i, j): (a.numerator, a.denominator * fact(i) * fact(j)) for (i, j), a in coeffs.a.items()}
    return Vec3BiSeries(_bi_over_lcd({(1, 0): (1, 1)}, k), _bi_over_lcd(second, k), _bi_over_lcd(third, k))


def _bi_over_lcd(terms: dict, k: int) -> BiSeries:
    """The series of the terms (i, j) -> n / d (integers, d > 0) over the lcm of the d."""
    den = math.lcm(*(d for _, d in terms.values()))
    return BiSeries.from_numerators({key: n * (den // d) for key, (n, d) in terms.items()}, den, k)


def build_curve(spec: CurveSpec, order: int) -> tuple:
    """Component series (first, second) of the curve, exact to the given order.

    A family curve is built as integer numerators: c(x) x^e over the lcm
    of the denominators of the c_n, and x^m over 1.
    """
    if isinstance(spec, GeneralCurve):
        return spec.c1.truncate(order), spec.c2.truncate(order)
    shift = spec.first_exponent
    den = math.lcm(*(cn.denominator for cn in spec.c))
    first = [0] * (order + 1)
    for n, cn in enumerate(spec.c[: max(order + 1 - shift, 0)]):
        first[shift + n] = cn.numerator * (den // cn.denominator)
    second = [0] * (order + 1)
    if spec.m <= order:
        second[spec.m] = 1
    return UniSeries.from_numerators(first, den, order), UniSeries.from_numerators(second, 1, order)


def image_curve(W: Vec3BiSeries, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """The space curve W(c1(x), c2(x)) with propagated reliability."""
    return W.compose(c1, c2)


def normal_field_raw(W: Vec3BiSeries, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """(W_u x W_v) evaluated along the curve; vanishes at the singular point.

    W_u and W_v are substituted first and crossed as series in x: W_u, W_v
    and W_u x W_v are all reliable to total degree k - 1, so both orders of
    the two steps give the same series to the same reliable order.
    """
    return W.diff_u().compose(c1, c2).cross(W.diff_v().compose(c1, c2))


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


def classify_tangency(coeffs: UmbrellaCoefficients, m: int, c1: UniSeries, c2: UniSeries) -> TangencyClassification:
    """Classify by how far the first component vanishes past the multiplicity m.

    With the curve written as (f1, f2) x^m, the case is decided by
    l = val(first component) - m:  l = 0 -> (1), 0 < l < m -> (2), l = m -> (3),
    l > m -> (4).  The limiting tangent is the unit value at 0 of the factored
    derivative, written out per case as an exact vector (x, 0, z) over its
    norm: each component is a ``SignedRoot``, rounded only when printed.
    """
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
        z = coeffs.a02 * v2.leading ** 2
    if ell == 0:
        case, x, z = 1, v1.leading, 0
    elif ell < m:
        case, x, z = 2, v1.leading, 0
    elif ell == m:
        # Factored-derivative value (2m f1~(0), 0, m a_02 c2(0)^2), rescaled.
        case, x = 3, 2 * v1.leading
    else:
        case, x = 4, 0
    r = x * x + z * z
    return TangencyClassification(
        case=case, kind=_CASE_KIND[case], limiting_tangent=tuple(SignedRoot.of(c, r) for c in (x, 0, z))
    )
