"""Input model: normal-form surface germ, curve families, tangency classification.

The surface is the coefficient-parameterized normal form of the cross-cap

    W(u, v) = (u,  uv + B(v),  A(u, v)) + O(u, v)^{k+1},
    B(v) = sum_{i=3}^{k} b_i v^i / i!,
    A(u, v) = sum_{2 <= i+j <= k} a_ij u^i v^j / (i! j!),   a_02 != 0,

truncated at total degree k.  Curves through the singular point come either
from the two admissible one-parameter families or as a general pair of exact
polynomials of finite multiplicity.  Every curve spec is its two exact
coefficient tuples (``components``), and everything about the curve is read
from them here: its valuations and multiplicity, its tangency case
(``classify_tangency``, which takes the limiting tangent from the factored
derivative E_t(0)) and its series (``build_curve``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Union

from .series import (
    CrosscapError,
    UniSeries,
    BiSeries,
    Vec3Series,
    SignedRoot,
    compose_partials,
    first_nonzero,
)


class ModelError(CrosscapError):
    """Invalid surface coefficients or curve parameters; ``problems`` lists each one."""

    def __init__(self, *problems):
        self.problems = problems
        super().__init__("; ".join(problems))


def _frac(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ModelError("model coefficients must be exact rationals, not floats")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"not a rational number: {value!r}") from exc


#: The one zero an absent coefficient reads as.
_ZERO = Fraction(0)


class UmbrellaCoefficients(NamedTuple("UmbrellaCoefficients", [("degree", int), ("a", dict), ("b", dict)])):
    """Normal-form data: truncation degree k, the a_ij map and the b_i map.

    Absent entries are zero.  ``a[(0, 2)]`` must be nonzero; indices must
    satisfy 2 <= i+j <= k for a and 3 <= i <= k for b.  One ModelError
    names every index and a_02 problem.
    """

    __slots__ = ()

    def __new__(cls, degree: int, a: dict, b: dict):
        if degree < 3:
            raise ModelError("truncation degree k must be >= 3")
        problems = []
        clean_a = {}
        for key, value in a.items():
            i, j = key
            if i < 0 or j < 0 or not (2 <= i + j <= degree):
                problems.append(f"a index {key} outside 2 <= i+j <= k")
                continue
            value = _frac(value)
            if value:
                clean_a[(i, j)] = value
        clean_b = {}
        for i, value in b.items():
            if not (3 <= i <= degree):
                problems.append(f"b index {i} outside 3 <= i <= k")
                continue
            value = _frac(value)
            if value:
                clean_b[i] = value
        if (0, 2) not in clean_a:  # zeros were dropped
            problems.append("a_02 must be nonzero")
        if problems:
            raise ModelError(*problems)
        return tuple.__new__(cls, (degree, clean_a, clean_b))

    @property
    def a02(self) -> Fraction:
        return self.a[(0, 2)]

    def a_coeff(self, i: int, j: int) -> Fraction:
        return self.a.get((i, j), _ZERO)

    def b_coeff(self, i: int) -> Fraction:
        return self.b.get(i, _ZERO)

    def truncated(self, degree: int) -> "UmbrellaCoefficients":
        """The same jet cut at total degree ``degree``: a_ij with i+j > degree and b_i with i > degree dropped.

        The entries kept passed the checks of the constructor, and a_02
        survives every cut of degree >= 3, so only the degree is checked.
        """
        if degree < 3:
            raise ModelError("truncation degree k must be >= 3")
        a = {(i, j): value for (i, j), value in self.a.items() if i + j <= degree}
        return tuple.__new__(UmbrellaCoefficients, (degree, a, {i: v for i, v in self.b.items() if i <= degree}))


class FamilyMPQ(NamedTuple("FamilyMPQ", [("m", int), ("p", int), ("q", int), ("c", tuple)])):
    """Curve (c(x) x^{m p + q}, x^m) with 1 <= p and 1 <= q < m.

    ``c`` lists the coefficients c_0, c_1, ... of c(x); c_0 != 0.
    """

    __slots__ = ()

    def __new__(cls, m: int, p: int, q: int, c: tuple):
        c = tuple(_frac(v) for v in c)
        if m < 2:
            raise ModelError("family (m p + q) requires m >= 2")
        if p < 1:
            raise ModelError("family (m p + q) requires p >= 1")
        if not (1 <= q < m):
            raise ModelError("family (m p + q) requires 1 <= q < m")
        if not c or c[0] == 0:
            raise ModelError("c_0 must be nonzero")
        return tuple.__new__(cls, (m, p, q, c))

    @property
    def components(self) -> tuple:
        """The coefficients of the two components, from x^0."""
        return (0,) * (self.m * self.p + self.q) + self.c, (0,) * self.m + (1,)


class FamilyMP(NamedTuple("FamilyMP", [("m", int), ("p", int), ("c", tuple)])):
    """Curve (c(x) x^{m p}, x^m) with p >= 2 and c_0 != 0."""

    __slots__ = ()

    def __new__(cls, m: int, p: int, c: tuple):
        c = tuple(_frac(v) for v in c)
        if m < 1:
            raise ModelError("family (m p) requires m >= 1")
        if p < 2:
            raise ModelError("family (m p) requires p >= 2")
        if not c or c[0] == 0:
            raise ModelError("c_0 must be nonzero")
        return tuple.__new__(cls, (m, p, c))

    @property
    def components(self) -> tuple:
        """The coefficients of the two components, from x^0."""
        return (0,) * (self.m * self.p) + self.c, (0,) * self.m + (1,)


class GeneralCurve(NamedTuple("GeneralCurve", [("c1", tuple), ("c2", tuple)])):
    """A finite-multiplicity curve (c1(x), c2(x)) of two exact polynomials.

    ``c1`` and ``c2`` list the coefficients from x^0, as ``FamilyMP.c``
    does.  Each component is nonzero and vanishes at 0, and the two are not
    proportional; all three are decided on the whole polynomials.  ``m``,
    the multiplicity (``curve_multiplicity``), is read from the components
    and is not a field, so it is not part of the config.
    """

    __slots__ = ()

    def __new__(cls, c1: tuple, c2: tuple):
        c1 = tuple(_frac(v) for v in c1)
        c2 = tuple(_frac(v) for v in c2)
        for name, cs in (("c1", c1), ("c2", c2)):
            if not any(cs):
                raise ModelError(f"curve component {name} is zero")
            if cs[0]:
                raise ModelError("curve must pass through the origin")
        # Proportional iff c1 c2[v] = c2 c1[v] termwise, v the valuation of c1.
        n = max(len(c1), len(c2))
        p1, p2 = c1 + (0,) * (n - len(c1)), c2 + (0,) * (n - len(c2))
        v = first_nonzero(p1)
        if all(a * p2[v] == b * p1[v] for a, b in zip(p1, p2)):
            raise ModelError("curve components are proportional: the rank-two condition fails")
        return tuple.__new__(cls, (c1, c2))

    @property
    def components(self) -> tuple:
        """The coefficients of the two components, from x^0."""
        return self.c1, self.c2

    @property
    def m(self) -> int:
        return curve_multiplicity(self.c1, self.c2)


def curve_multiplicity(c1, c2) -> int | None:
    """The least valuation of the coefficient sequences c1, c2 that vanish at 0 with a nonzero jet, or None."""
    return min(filter(None, (first_nonzero(cs) for cs in (c1, c2))), default=None)


CurveSpec = Union[FamilyMPQ, FamilyMP, GeneralCurve]


def series_order(m: int, degree: int) -> int:
    """The storage/reliable order m (k + 1) - 1 that a surface tail of degree k dictates."""
    return m * (degree + 1) - 1


def build_umbrella(coeffs: UmbrellaCoefficients) -> Vec3Series:
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
    return Vec3Series(_bi_over_lcd({(1, 0): (1, 1)}, k), _bi_over_lcd(second, k), _bi_over_lcd(third, k))


def _bi_over_lcd(terms: dict, k: int) -> BiSeries:
    """The series of the terms (i, j) -> n / d (integers, d > 0) over the lcm of the d."""
    den = math.lcm(*(d for _, d in terms.values()))
    return BiSeries.from_numerators({key: n * (den // d) for key, (n, d) in terms.items()}, den, k)


def build_curve(spec: CurveSpec, order: int) -> tuple:
    """Component series (first, second) of the curve, exact to the given order."""
    c1, c2 = spec.components
    return UniSeries.make(c1, order), UniSeries.make(c2, order)


def image_curve(W: Vec3Series, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """The space curve W(c1(x), c2(x)) with propagated reliability."""
    return W.compose(c1, c2)


def normal_field_raw(W: Vec3Series, c1: UniSeries, c2: UniSeries) -> Vec3Series:
    """(W_u x W_v) evaluated along the curve; vanishes at the singular point.

    W_u and W_v are substituted first, each component's pair in one pass
    (``compose_partials``), and crossed as series in x: W_u, W_v and
    W_u x W_v are all reliable to total degree k - 1, so both orders of
    the two steps give the same series to the same reliable order.
    """
    W_u, W_v = zip(*[compose_partials(F, c1, c2) for F in W.components])
    return Vec3Series(*W_u).cross(Vec3Series(*W_v))


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


class TangencyClassification(NamedTuple):
    """Which of the four contact cases the curve realizes at the singular point."""

    case: int
    kind: str
    limiting_tangent: tuple
    tangent_line_direction: tuple = TANGENT_LINE_DIRECTION
    principal_intersection_direction: tuple = PRINCIPAL_INTERSECTION_DIRECTION
    null_vector: tuple = NULL_VECTOR
    principal_plane_normal: tuple = PRINCIPAL_PLANE_NORMAL


def classify_tangency(spec: CurveSpec, tangent: tuple) -> TangencyClassification:
    """Classify by how far the first component vanishes past the multiplicity m.

    With the curve written as (f1, f2) x^m, the case is decided by
    l = val(first component) - m:  l = 0 -> (1), 0 < l < m -> (2), l = m -> (3),
    l > m -> (4), both valuations read from the exact ``spec.components``.
    The limiting tangent is the unit vector of ``tangent``, the value E_t(0)
    of the factored derivative (``frame.frame_factors``): each component is
    a ``SignedRoot``, rounded only when printed.
    """
    m = spec.m
    ell = first_nonzero(spec.components[0]) - m
    case = 1 if ell == 0 else 2 if ell < m else 3 if ell == m else 4
    r = sum(c * c for c in tangent)
    return TangencyClassification(
        case=case, kind=_CASE_KIND[case], limiting_tangent=tuple(SignedRoot.of(c, r) for c in tangent)
    )
