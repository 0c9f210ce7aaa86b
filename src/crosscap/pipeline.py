"""End-to-end analysis of one surface + curve fixture.

``Analysis`` names every quantity of the chain surface jet -> image curve
and raw normal -> factorizations -> curvature numerators -> degrees and
tops -> invariants and developable, all in exact arithmetic: no stage
holds a float (the mesh builds its float ruled surface in ``obj``).  Each
stage, the surface jet included, is one cached property that returns one value,
computed on first access, so report, verify and mesh share one computation
and each runs only the stages it reads.  N x E_t is the ``cross`` stage,
read by the ``numerators`` and the ``developable``.  The sections that
apply only to particular curves, ``closed_form``, ``invariants`` (A-D) and
``developable``, are their record or None; when one is None, the message of
the error that refused it is ``reasons[stage]``, under the stage's name, and
``reasons`` holds nothing else.  The (c(x) x^{2m}, x^m) shape is checked
once, by the invariants stage; the three verdicts are one stage,
``verdicts``, which is None exactly when the invariants are, for their
reason.

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
one at truncation k.  A library error (a ``CrosscapError``) on a lower rung
moves on to the next; any other exception is a bug and propagates.  The
configured truncation is the last rung, and its outcome (values, reasons
and errors) is final.  ``mesh`` and the
series-valued stages stay at the configured truncation.

``analyze`` counts configurations: each ``report``, ``mesh`` and ``verify
CONFIG`` makes one, and the sweep's draws and the rungs are built as
``Analysis`` directly, without it.  A curve is exact
polynomials, so every rung and the configured truncation build it to their
own series order.  An analysis builds its curve series
(``model.build_curve``) on the first read of a stage that needs them, so a
configured analysis that a lower rung resolves builds none.  The tangency
reads its case from the spec and its limiting tangent from E_t(0) of the
``factors`` stage.
"""

from __future__ import annotations

from functools import cached_property

from .series import CrosscapError, Vec3Series
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
    InvariantError,
    TopInvariants,
    Verdicts,
    contour_deviation,
    projection_tangency,
    self_intersection,
    top_invariants,
)
from .developable import DevelopableData, DevelopableError, osculating_developable


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
    depends on the rung: the tangency reads the spec's case and E_t(0),
    which every rung fixes, A-D read the jet through degree 4, and the
    three verdicts read jet terms of total degree <= 3, all within every
    rung's reliable orders.
    """
    d = a.developable
    return (
        None not in a.oracle.degrees
        and d is not None
        and d.delta_order is not None
        and (d.sigma_order is not None or not d.striction.passes_through_singularity)
    )


class Analysis:
    """The lazily staged analysis of one surface jet and curve.

    Construction only fixes the series order m (k + 1) - 1 from the spec's
    multiplicity m and starts ``reasons`` empty; the curve, the surface jet
    and every other attribute are stages computed on first access.  A
    stage of an optional section that does not apply reads None and adds
    its reason to ``reasons`` (see the module docstring).  Every stage reads the one exact
    surface jet and curve, decides every order on exact series and keeps
    every value exact (a top of the unit frame is a ``SignedRoot``).
    """

    def __init__(self, coeffs: UmbrellaCoefficients, spec: CurveSpec):
        self.coeffs = coeffs
        self.spec = spec
        self.order = series_order(spec.m, coeffs.degree)
        self.reasons: dict = {}

    def _climb(self, complete, lower) -> "Analysis":
        """The lowest rung whose results ``complete(rung)`` accepts.

        A lower rung is this analysis on the jet cut at one of
        ``lower(m, k)``, in that order; it is built as ``Analysis`` directly,
        not through ``analyze``.  A library error there (a ``CrosscapError``)
        moves on to the next rung: a short jet may fail where the
        configured one does not, and an error that is real is raised again
        by the configured truncation.  No stage makes a float, so no float
        overflow can arise; any other exception is a bug and propagates.
        This analysis is the last rung and is returned unchecked.
        """
        for k in lower(self.spec.m, self.coeffs.degree):
            try:
                rung = Analysis(self.coeffs.truncated(k), self.spec)
                if complete(rung):
                    return rung
            except CrosscapError:
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
        return classify_tangency(self.spec, self.factors.tangent.constant_vector())

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
    def cross(self) -> Vec3Series:
        """N x E_t, shared by the curvature numerators and the developable."""
        return self.factors.normal.cross(self.factors.tangent)

    @cached_property
    def numerators(self) -> tuple:
        return curvature_numerators(self.factors, self.cross)

    @cached_property
    def oracle(self) -> CurvatureReport:
        return divergence_report(self.numerators)

    def _or_reason(self, stage: str, error: type, compute, *args):
        """``compute(*args)``, or None when it raises ``error``, whose message becomes ``reasons[stage]``."""
        try:
            return compute(*args)
        except error as exc:
            self.reasons[stage] = str(exc)
            return None

    @cached_property
    def closed_form(self) -> CurvatureReport | None:
        return self._or_reason("closed_form", FrameError, closed_form_reference, self.spec, self.coeffs)

    @cached_property
    def invariants(self) -> TopInvariants | None:
        return self._or_reason("invariants", InvariantError, top_invariants, self.coeffs, self.spec)

    @cached_property
    def verdicts(self) -> Verdicts | None:
        """The three verdicts; None when the invariants, which check the curve's shape, do not apply."""
        inv = self.invariants
        if inv is None:
            return None
        m, c0 = self.spec.m, self.spec.c[0]
        return Verdicts(
            projection_tangency(self.coeffs, m, c0, self.image, inv),
            self_intersection(self.coeffs, self.W, c0),
            contour_deviation(self.coeffs, m, c0, self.factors.normal),
        )

    @cached_property
    def developable(self) -> DevelopableData | None:
        return self._or_reason(
            "developable", DevelopableError, osculating_developable, self.factors, self.oracle, self.cross
        )


def analyze(coeffs: UmbrellaCoefficients, spec: CurveSpec) -> Analysis:
    return Analysis(coeffs, spec)
