"""Deterministic JSON reports of a full fixture analysis.

Exact values are serialized as "p/q" strings, floats as JSON numbers, so a
reader can always tell which field produced an entry.  Key order is fixed by
construction; two runs over the same configuration emit identical bytes.
"""

from __future__ import annotations

import json

from .config import RunConfig, config_to_dict, json_value
from .pipeline import Analysis, analyze
from .series import Field, is_zero_coeff

#: Series-valued result fields: a section reports their orders and top-terms,
#: never the series themselves.
_SERIES_FIELDS = frozenset(
    {"tangent", "normal", "curve", "image", "director", "delta", "sigma", "scale"}
)


def _section(result) -> dict:
    """A result dataclass as a report section: every field but the series ones."""
    return json_value(result, _SERIES_FIELDS)


def build_report(cfg: RunConfig) -> dict:
    analysis = analyze(cfg.coeffs, cfg.spec, field=cfg.field)
    return report_from_analysis(cfg, analysis)


def report_from_analysis(cfg: RunConfig, a: Analysis) -> dict:
    doc: dict = {}
    doc["config"] = config_to_dict(cfg)
    doc["series_order"] = a.order

    doc["tangency"] = _section(a.tangency)
    doc["exponents"] = _section(a.factors)

    curv: dict = {
        "degrees": list(a.oracle.degrees),
        "tops": json_value(a.oracle.tops),
        "reliable_orders": list(a.oracle.reliable_orders),
    }
    flags = []
    if any(d is None for d in a.oracle.degrees):
        flags.append("NON-GENERIC: a curvature numerator vanishes to reliable order")
    if a.closed_form is not None:
        cf = a.closed_form

        def _tops_agree(o, c):
            if o is None or c is None:
                return o is None and c is None
            if isinstance(o, float):
                return is_zero_coeff(Field.FLOAT, o - float(c))
            return o == c

        matches_deg = [o == c for o, c in zip(a.oracle.degrees, cf.degrees)]
        matches_top = [_tops_agree(o, c) for o, c in zip(a.oracle.tops, cf.tops)]
        curv["closed_form"] = {
            "applicable": True,
            "degrees": list(cf.degrees),
            "tops": json_value(cf.tops),
            "advisory": list(cf.advisory),
            "degree_match": matches_deg,
            "top_match": matches_top,
        }
        for i in range(3):
            if not matches_top[i] and cf.advisory[i]:
                flags.append(
                    "ADVISORY: kappa%d tabulated top %s disagrees with computed %s"
                    % (i + 1, cf.tops[i], a.oracle.tops[i])
                )
    else:
        curv["closed_form"] = {"applicable": False, "reason": a.closed_form_reason}
    doc["curvatures"] = curv

    if a.invariants is not None:
        doc["invariants"] = {"applicable": True, **_section(a.invariants)}
        doc["verdicts"] = {
            "projection": _section(a.projection),
            "self_intersection": _section(a.self_int),
            "contour": _section(a.contour),
        }
    else:
        doc["invariants"] = {"applicable": False, "reason": a.invariants_reason}
        doc["verdicts"] = {"applicable": False, "reason": a.invariants_reason}

    if a.developable is not None:
        d = a.developable
        cls = d.classification
        doc["developable"] = {"applicable": True, **_section(d)}
        if d.delta_order is None:
            flags.append("delta vanishes to reliable order; cylindrical to computed order")
        if d.sigma_order is None and d.striction.passes_through_singularity:
            flags.append(
                "sigma vanishes to reliable order; conical to computed order"
            )
        elif (
            d.sigma_order is not None
            and cls.case == "ii"
            and cls.F_coeff is not None
            and is_zero_coeff(Field.FLOAT, cls.F_coeff)
        ):
            flags.append(
                "sigma top-term vanishes: order > %d" % (a.factors.alpha0 - 1)
            )
    else:
        doc["developable"] = {"applicable": False, "reason": a.developable_reason}

    doc["flags"] = flags
    return doc


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
