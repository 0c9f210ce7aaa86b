"""Symbolic-numeric invariants of curves through a cross-cap singularity.

The computational substrate is truncated power-series arithmetic with
explicit reliability tracking (``series``); on top of it sit the input model
(``model``), the extended frame with its curvature invariants (``frame``),
the top-term invariants with their geometric verdicts (``invariants``), the
osculating developable (``developable``), mesh export (``obj``) and the
configuration/report/verify surface used by the CLI (``config``, ``report``,
``verify``, ``cli``).

The package root holds what a library user needs to build any input a
configuration can express and analyse it; everything else is imported from
its submodule.
"""

from .series import Field, UniSeries
from .model import FamilyMP, FamilyMPQ, GeneralCurve, UmbrellaCoefficients
from .pipeline import Analysis, analyze
from .config import ConfigError, parse_config

__version__ = "0.1.0"
