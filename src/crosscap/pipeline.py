"""End-to-end analysis of one surface + curve fixture.

``Analysis`` names every quantity of the chain surface jet -> image curve
and raw normal -> factorizations -> curvature numerators -> degrees and
tops -> invariants and developable.  Each stage is computed on first access
and cached, so report, verify and mesh share one computation and each runs
only the stages it reads.  Pieces that only apply to particular curve
shapes (closed forms, the A/B/C/D block, geometric verdicts, the
developable) are None with a reason otherwise.
"""

from __future__ import annotations

from functools import cached_property

from .series import Field, Vec3Series
from .model import (
    CurveSpec,
    TangencyClassification,
    UmbrellaCoefficients,
    build_curve,
    build_umbrella,
    classify_tangency,
    default_series_order,
    image_curve,
    normal_field_raw,
)
from .frame import (
    CurvatureReport,
    DarbouxFrame,
    FrameError,
    FrameFactors,
    closed_form_reference,
    curvature_numerators,
    curvature_series,
    darboux_frame,
    divergence_report,
    frame_factors,
)
from .invariants import (
    ContourDeviation,
    InvariantError,
    ProjectionTangency,
    SelfIntersectionCurve,
    TopInvariants,
    contour_deviation,
    projection_tangency,
    self_intersection,
    top_invariants,
)
from .developable import (
    DevelopableData,
    DevelopableError,
    RuledSurface,
    osculating_developable,
    osculating_surface,
)


def _value_or_reason(compute, errors):
    """(value, None), or (None, message) when ``compute`` raises one of ``errors``."""
    try:
        return compute(), None
    except errors as exc:
        return None, str(exc)


class Analysis:
    """The lazily staged analysis of one surface jet and curve in one field.

    The EXACT surface and curve, which every stage starts from, are built on
    construction; every other attribute is a stage computed on first access.
    """

    def __init__(self, coeffs: UmbrellaCoefficients, spec: CurveSpec, field: Field = Field.EXACT):
        self.coeffs = coeffs
        self.spec = spec
        self.field = field
        self.order = default_series_order(spec, coeffs.degree)
        self.W = build_umbrella(coeffs)
        self.c1, self.c2 = build_curve(spec, self.order)

    @cached_property
    def tangency(self) -> TangencyClassification:
        return classify_tangency(self.coeffs, self.c1, self.c2)

    @cached_property
    def _working(self):
        """Surface and curve in the analysis field."""
        if self.field is Field.FLOAT:
            return self.W.to_float(), self.c1.to_float(), self.c2.to_float()
        return self.W, self.c1, self.c2

    @cached_property
    def image(self) -> Vec3Series:
        return image_curve(*self._working)

    @cached_property
    def raw_normal(self) -> Vec3Series:
        return normal_field_raw(*self._working)

    @cached_property
    def factors(self) -> FrameFactors:
        return frame_factors(self.image, self.raw_normal)

    @cached_property
    def frame(self) -> DarbouxFrame:
        return darboux_frame(self.factors)

    @cached_property
    def kappas(self) -> tuple:
        return curvature_series(self.frame)

    @cached_property
    def numerators(self) -> tuple:
        return curvature_numerators(self.factors)

    @cached_property
    def oracle(self) -> CurvatureReport:
        return divergence_report(self.numerators)

    @cached_property
    def _closed_form(self):
        return _value_or_reason(lambda: closed_form_reference(self.spec, self.coeffs), FrameError)

    @property
    def closed_form(self) -> CurvatureReport | None:
        return self._closed_form[0]

    @property
    def closed_form_reason(self) -> str | None:
        return self._closed_form[1]

    @cached_property
    def _invariants(self):
        return _value_or_reason(lambda: top_invariants(self.coeffs, self.spec), InvariantError)

    @property
    def invariants(self) -> TopInvariants | None:
        return self._invariants[0]

    @property
    def invariants_reason(self) -> str | None:
        return self._invariants[1]

    @cached_property
    def projection(self) -> ProjectionTangency | None:
        if self.invariants is None:
            return None
        exact_image = self.image if self.field is Field.EXACT else image_curve(self.W, self.c1, self.c2)
        return projection_tangency(self.coeffs, self.spec, exact_image, self.invariants)

    @cached_property
    def self_int(self) -> SelfIntersectionCurve | None:
        if self.invariants is None:
            return None
        return self_intersection(self.coeffs, self.spec)

    @cached_property
    def contour(self) -> ContourDeviation | None:
        if self.invariants is None:
            return None
        return contour_deviation(self.coeffs, self.spec, self.factors, self.frame)

    @cached_property
    def _developable(self):
        return _value_or_reason(
            lambda: osculating_developable(self.factors, self.frame, self.oracle),
            (DevelopableError, FrameError),
        )

    @property
    def developable(self) -> DevelopableData | None:
        return self._developable[0]

    @property
    def developable_reason(self) -> str | None:
        return self._developable[1]

    @cached_property
    def ruled(self) -> RuledSurface:
        """The osculating developable as a ruled surface; DevelopableError if it has none."""
        if self.developable is None:
            raise DevelopableError(self.developable_reason)
        return osculating_surface(self.factors, self.developable)


def analyze(coeffs: UmbrellaCoefficients, spec: CurveSpec, field: Field = Field.EXACT) -> Analysis:
    return Analysis(coeffs, spec, field)
