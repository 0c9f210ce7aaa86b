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
so a short jet usually fixes it already.  Two stages decide which working
truncation a consumer reads, and nothing outside this module does:
``report_rung`` is the lowest rung of ``lower_truncations`` whose report is
complete, and ``oracle_rung`` the lowest rung of ``oracle_truncations``
(k' = 4 when 4 < k, then the report's rungs) that finds all three curvature
degrees, which is all ``verify`` reads.  The report's rung k' = 5 is tried
from truncation 10, and from truncation 8 for a curve of multiplicity
m = 3.  Either is the analysis itself when no lower rung qualifies, and
either is cached like every stage: a second read climbs no ladder.  A rung
is the same analysis on the jet cut at k'.  The reliability rules make this
exact: a coefficient within its reliable order on a lower rung equals the
one at truncation k.  The configured truncation is the last rung, and its
outcome (values, reasons and errors) is final.  ``mesh`` and the
series-valued stages stay at the configured truncation.

``analyze`` counts configurations: each consumer call makes one, and the
rungs are built as ``Analysis`` directly, without it.  A curve is exact
polynomials, so every rung and the configured truncation build it to their
own series order.  An analysis builds its curve series
(``model.build_curve``) on the first read of a stage that needs them, so a
configured analysis that a lower rung resolves builds none; the tangency
is read from the spec and needs no series.
"""

from __future__ import annotations

from functools import cached_property

from .series import Vec3Series
from .model import (
    CurveSpec,
    TangencyClassification,
    UmbrellaCoefficients,
    build_curve,
    build_umbrella,
    classify_tangency,
    image_curve,
    normal_field_raw,
    series_order,
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


#: The report's working truncation below the configured one.  The invariants
#: A-D read the jet through degree 4 (b4 in D), and delta and sigma
#: differentiate once more.  Of the 128 dense jets of ``bench/workloads.py``,
#: truncation 5 completes the report of 124 and truncation 4 only 16, and an
#: incomplete rung costs almost as much as a complete one.  Over those jets
#: (process time, 2-core x86_64, Python 3.11) a rung at 5 made the reports
#: 2.05x faster than the configured truncation alone in the exact field and
#: 1.7x in the float field; rungs from 4 (4, 8, ...) made them no faster
#: (1.0x and 0.8x).  ``lower_truncations`` tries it on 112 of those jets
#: (every shape of truncation 10 or more, and the two of truncation 8 and 9
#: with m = 3), and it completes 110 of them.  No benchmark input has
#: truncation 20 or more, so no higher rung was measured and none runs.
FIRST_RUNG = 5

#: The first working truncation of ``verify``, which reads only the
#: curvature degrees and tops.  On all 9216 draws of the 1024-seed sweep
#: universe of ``bench/workloads.py`` (truncation 6), truncation 4 finds
#: every degree, with the degrees and tops of truncation 6; truncation 3
#: finds them only on the draws with p <= 3 (checked on seeds 0-255).
ORACLE_RUNG = 4


def lower_truncations(m: int, k: int) -> list:
    """The rungs ``report`` runs before k for a curve of multiplicity m: FIRST_RUNG or none.

    FIRST_RUNG is tried from truncation 10, and from truncation 8 when
    m = 3.  Below truncation 10 a rung that cannot complete the report
    costs nearly a second analysis: a rung at 5 took the s1 report at
    truncation 9 (m = 1) from 1.66 to 2.26 ms and s2 from 2.24 to 3.25 ms.
    The only m >= 2 jets of truncation 8 and 9 that ``bench/workloads.py``
    measures are dense shapes 9 and 10 (m = 3), whose 16 variants all
    complete at rung 5; their reports became 2.0-2.2x and 2.2-2.5x faster
    (in-process medians over the 8 variants of each, 2-core x86_64,
    Python 3.11).  On sparse jets the rung fails more often: over 40 drawn
    jets per m of truncation 8 and 9 with about 30% of the terms, a failed
    rung cost a median of +48% (m = 2) and +47% (m = 3), a completed one
    saved 23% and 32%, and the mean change was +8% and +0%.  No workload
    measures m = 2 or m >= 4 there, so those keep truncation 10.
    """
    return [FIRST_RUNG] if k >= (8 if m == 3 else 2 * FIRST_RUNG) else []


def oracle_truncations(m: int, k: int) -> list:
    """The rungs ``verify`` runs before k: ORACLE_RUNG if below k, then ``lower_truncations(m, k)``."""
    return ([ORACLE_RUNG] if ORACLE_RUNG < k else []) + lower_truncations(m, k)


def _report_complete(a: "Analysis") -> bool:
    """Whether a rung resolves every result a shorter jet can leave unresolved in the report.

    Those are the three curvature degrees, and the developable with its
    delta order, and with its sigma order whenever the striction curve
    passes through the singular point.  Nothing else the report prints
    depends on the rung: the tangency reads only the spec, A-D read the
    jet through degree 4, and the three verdicts read jet terms of total
    degree <= 3, all within every rung's reliable orders.
    """
    d = a.developable
    return (
        None not in a.oracle.degrees
        and d is not None
        and d.delta_order is not None
        and (d.sigma_order is not None or not d.striction.passes_through_singularity)
    )


def _value_or_reason(compute, errors):
    """(value, None), or (None, message) when ``compute`` raises one of ``errors``."""
    try:
        return compute(), None
    except errors as exc:
        return None, str(exc)


class Analysis:
    """The lazily staged analysis of one surface jet and curve.

    Construction only fixes the series order m (k + 1) - 1 from the spec's
    multiplicity m; the curve, the surface jet and every other attribute
    are stages computed on first access.  Every stage reads the one exact
    surface jet and curve, decides every order on exact series and keeps
    every value exact (a top of the unit frame is a ``SignedRoot``); only
    ``ruled``, the mesh's developable, has ``FloatSeries`` components.
    """

    def __init__(self, coeffs: UmbrellaCoefficients, spec: CurveSpec):
        self.coeffs = coeffs
        self.spec = spec
        self.order = series_order(spec.m, coeffs.degree)

    def _climb(self, complete, lower) -> "Analysis":
        """The lowest rung whose results ``complete(rung)`` accepts.

        A lower rung is this analysis on the jet cut at one of
        ``lower(m, k)``, in that order; it is built as ``Analysis`` directly,
        not through ``analyze``.  A library error there (a ValueError)
        moves on to the next rung: a short jet may fail where the
        configured one does not, and an error that is real is raised again
        by the configured truncation.  No stage but ``ruled``, which is
        never climbed, makes a float, so no float overflow can arise; any
        other exception is a bug and propagates.  This analysis is the
        last rung and is returned unchecked.
        """
        for k in lower(self.spec.m, self.coeffs.degree):
            try:
                rung = Analysis(self.coeffs.truncated(k), self.spec)
                if complete(rung):
                    return rung
            except ValueError:
                continue
        return self

    @cached_property
    def report_rung(self) -> "Analysis":
        """The rung ``report`` reads: the lowest of ``lower_truncations`` whose report is complete."""
        return self._climb(_report_complete, lower_truncations)

    @cached_property
    def oracle_rung(self) -> "Analysis":
        """The rung ``verify`` reads: the lowest of ``oracle_truncations`` that finds every degree."""
        return self._climb(lambda rung: None not in rung.oracle.degrees, oracle_truncations)

    @cached_property
    def curve(self) -> tuple:
        """The component series (c1, c2) of the curve, to the series order."""
        return build_curve(self.spec, self.order)

    @cached_property
    def W(self) -> Vec3Series:
        return build_umbrella(self.coeffs)

    @cached_property
    def tangency(self) -> TangencyClassification:
        return classify_tangency(self.coeffs, self.spec)

    @cached_property
    def image(self) -> Vec3Series:
        return image_curve(self.W, *self.curve)

    @cached_property
    def raw_normal(self) -> Vec3Series:
        return normal_field_raw(self.W, *self.curve)

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
        return contour_deviation(self.coeffs, self.spec, self.factors.normal)

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
        return osculating_surface(self.image, self.developable)


def analyze(coeffs: UmbrellaCoefficients, spec: CurveSpec) -> Analysis:
    return Analysis(coeffs, spec)
