"""End-to-end analysis of one surface + curve fixture.

``Analysis`` names every quantity of the chain surface jet -> image curve
and raw normal -> factorizations -> curvature numerators -> degrees and
tops -> invariants and developable, all in exact arithmetic.  Each stage,
the surface jet included, is computed on first access and cached, so
report, verify and mesh share one computation and each runs only the
stages it reads.  Pieces that only
apply to particular curve shapes (closed forms, the A/B/C/D block,
geometric verdicts, the developable) are None with a reason otherwise.

Every reported number is the lowest nonvanishing coefficient of a series,
so a short jet usually fixes it already.  ``Analysis.climb`` first runs the
same analysis on the jet cut at the working truncation k' = 5 when
2 k' <= k, then on the configured truncation k itself.  It returns the
first of these rungs whose results the consumer accepts as complete.  The
reliability rules make this exact: a coefficient within its reliable order
on the lower rung equals the one at truncation k.  The configured
truncation is the last rung, and its outcome (values, reasons and errors)
is final.  ``report`` climbs for every result it prints and ``verify`` for
the oracle; ``mesh`` and the series-valued stages stay at the configured
truncation.
"""

from __future__ import annotations

from functools import cached_property

from .series import Vec3BiSeries, Vec3Series
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
    FrameError,
    FrameFactors,
    closed_form_reference,
    curvature_numerators,
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


#: The one working truncation below the configured one.  The invariants
#: A-D read the jet through degree 4 (b4 in D), and delta and sigma
#: differentiate once more.  Of the 128 dense jets of ``bench/workloads.py``,
#: truncation 5 completes the report of 124 and truncation 4 only 16, and an
#: incomplete rung costs almost as much as a complete one.  Over those jets
#: (process time, 2-core x86_64, Python 3.11) a rung at 5 made the reports
#: 2.05x faster than the configured truncation alone in the exact field and
#: 1.7x in the float field; rungs from 4 (4, 8, ...) made them no faster
#: (1.0x and 0.8x).  No benchmark input has truncation 20 or more, so no
#: higher rung was measured and none runs.
FIRST_RUNG = 5


def lower_truncations(k: int) -> list:
    """The working truncations run before k: FIRST_RUNG if 2 FIRST_RUNG <= k, else none.

    A rung close to k saves little when it completes and costs nearly a
    second analysis when it does not, so every input below truncation 10
    (the bundled fixtures, the sweep) runs the configured truncation alone.
    A rung at 5 under truncation 8 or 9 made the 32 dense jets of those
    truncations 1.5x faster (0.258 -> 0.176 s), but the s1 and s2 reports,
    which it does not complete and which are the median job of the CLI
    benchmark, slower: 3.9 -> 6.1 ms and 4.1 -> 5.9 ms.
    """
    return [FIRST_RUNG] if 2 * FIRST_RUNG <= k else []


def _value_or_reason(compute, errors):
    """(value, None), or (None, message) when ``compute`` raises one of ``errors``."""
    try:
        return compute(), None
    except errors as exc:
        return None, str(exc)


class Analysis:
    """The lazily staged analysis of one surface jet and curve.

    The curve, whose reliable order ``climb`` reads, is built on
    construction; the surface jet and every other attribute are stages
    computed on first access.  Every stage reads the one exact surface jet
    and curve and decides every order on exact series; only ``ruled``, the
    mesh's developable, is a float series.
    """

    def __init__(self, coeffs: UmbrellaCoefficients, spec: CurveSpec):
        self.coeffs = coeffs
        self.spec = spec
        self.order = default_series_order(spec, coeffs.degree)
        self.c1, self.c2 = build_curve(spec, self.order)

    def climb(self, complete) -> "Analysis":
        """The lowest rung whose results ``complete(rung)`` accepts.

        A lower rung is this analysis on the jet cut at one of
        ``lower_truncations(k)``.  A library error there (a ValueError, or
        an ArithmeticError such as a float overflow) moves on to the next rung:
        a short jet may fail where the configured one does not, and an
        error that is real is raised again by the configured truncation.
        Any other exception is a bug and propagates.  This analysis is the
        last rung and is returned unchecked.  A curve given to less than
        the configured order caps every reliable order, which then does not
        grow with the truncation; it runs no lower rung.
        """
        if min(self.c1.reliable_order, self.c2.reliable_order) < self.order:
            return self
        for k in lower_truncations(self.coeffs.degree):
            try:
                rung = analyze(self.coeffs.truncated(k), self.spec)
                if complete(rung):
                    return rung
            except (ValueError, ArithmeticError):
                continue
        return self

    @cached_property
    def W(self) -> Vec3BiSeries:
        return build_umbrella(self.coeffs)

    @cached_property
    def tangency(self) -> TangencyClassification:
        return classify_tangency(self.coeffs, self.c1, self.c2)

    @cached_property
    def image(self) -> Vec3Series:
        return image_curve(self.W, self.c1, self.c2)

    @cached_property
    def raw_normal(self) -> Vec3Series:
        return normal_field_raw(self.W, self.c1, self.c2)

    @cached_property
    def factors(self) -> FrameFactors:
        return frame_factors(self.image, self.raw_normal)

    @cached_property
    def _curvature(self) -> tuple:
        return curvature_numerators(self.factors)

    @property
    def numerators(self) -> tuple:
        return self._curvature[0]

    @property
    def cross(self) -> Vec3Series:
        """N x E_t, shared by the curvature numerators and the developable."""
        return self._curvature[1]

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
        return projection_tangency(self.coeffs, self.spec, self.image, self.invariants)

    @cached_property
    def self_int(self) -> SelfIntersectionCurve | None:
        if self.invariants is None:
            return None
        return self_intersection(self.coeffs, self.W, self.spec)

    @cached_property
    def contour(self) -> ContourDeviation | None:
        if self.invariants is None:
            return None
        return contour_deviation(self.coeffs, self.spec, self.factors)

    @cached_property
    def _developable(self):
        return _value_or_reason(
            lambda: osculating_developable(self.factors, self.oracle, self.cross), DevelopableError
        )

    @property
    def developable(self) -> DevelopableData | None:
        return self._developable[0]

    @property
    def developable_reason(self) -> str | None:
        return self._developable[1]

    @cached_property
    def ruled(self) -> RuledSurface:
        """The osculating developable as a float ruled surface; DevelopableError if it has none."""
        if self.developable is None:
            raise DevelopableError(self.developable_reason)
        return osculating_surface(self.factors, self.developable)


def analyze(coeffs: UmbrellaCoefficients, spec: CurveSpec) -> Analysis:
    return Analysis(coeffs, spec)
