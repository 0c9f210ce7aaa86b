"""Symbolic-numeric invariants of curves through a cross-cap singularity.

The computational substrate is truncated power-series arithmetic with
explicit reliability tracking (``series``); on top of it sit the input model
(``model``), the extended frame with its curvature invariants (``frame``),
the top-term invariants with their geometric verdicts (``invariants``), the
osculating developable (``developable``), mesh export (``obj``) and the
configuration/report/verify surface used by the CLI (``config``, ``report``,
``verify``, ``cli``).
"""

from .series import (
    FLOAT_TOL,
    BiSeries,
    Field,
    SeriesError,
    UniSeries,
    Valuation,
    Vec3BiSeries,
    Vec3Series,
    compose_bi,
    factor_power,
    reciprocal,
    sqrt_series,
    valuation,
    vec3_factor_power,
    vec3_valuation,
)
from .model import (
    CurveSpec,
    FamilyMP,
    FamilyMPQ,
    GeneralCurve,
    ModelError,
    TangencyClassification,
    UmbrellaCoefficients,
    build_curve,
    build_umbrella,
    classify_tangency,
    curve_multiplicity,
    default_series_order,
    image_curve,
    normal_field_raw,
)
from .frame import (
    CurvatureReport,
    DarbouxFrame,
    FrameError,
    FrameFactors,
    RegularCurvatures,
    ReportSource,
    closed_form_reference,
    curvature_numerators,
    curvature_series,
    darboux_frame,
    direct_regular_curvatures,
    divergence_report,
    frame_factors,
    kappa_tilde_series,
    reconstruct_regular_curvatures,
)
from .invariants import (
    ContourDeviation,
    InvariantError,
    ProjectionTangency,
    SelfIntersectionCurve,
    TopInvariants,
    c2m_shape,
    contour_deviation,
    expected_tops,
    projection_tangency,
    secondary_normal_top,
    self_intersection,
    top_invariants,
)
from .developable import (
    DevelopableData,
    DevelopableError,
    RuledSurface,
    developability_residual,
    osculating_developable,
    osculating_surface,
    striction_curve,
)
from .pipeline import Analysis, analyze
from .config import ConfigError, RunConfig, parse_config, emit_config

__version__ = "0.1.0"
