"""Deterministic JSON reports of a full fixture analysis.

Exact values are serialized as "p/q" strings, floats as JSON numbers, so a
reader can always tell which field produced an entry.  Key order is fixed by
construction; two runs over the same configuration emit identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .config import RunConfig, config_to_dict
from .pipeline import Analysis, analyze
from .series import Field, is_zero_coeff


def _num(value):
    """Tag-preserving scalar: Fraction -> 'p/q' string, float stays a number."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    return value


def _vec(values):
    if values is None:
        return None
    return [_num(v) for v in values]


def build_report(cfg: RunConfig) -> dict:
    analysis = analyze(cfg.coeffs, cfg.spec, field=cfg.field)
    return report_from_analysis(cfg, analysis)


def report_from_analysis(cfg: RunConfig, a: Analysis) -> dict:
    doc: dict = {}
    doc["config"] = config_to_dict(cfg)
    doc["series_order"] = a.order

    t = a.tangency
    doc["tangency"] = {
        "case": t.case,
        "kind": t.kind,
        "limiting_tangent": _vec(t.limiting_tangent),
        "tangent_line_direction": _vec(t.tangent_line_direction),
        "principal_intersection_direction": _vec(t.principal_intersection_direction),
        "null_vector": _vec(t.null_vector),
        "principal_plane_normal": _vec(t.principal_plane_normal),
    }

    doc["exponents"] = {
        "alpha": a.factors.alpha,
        "beta": a.factors.beta,
        "alpha0": a.factors.alpha0,
    }

    curv: dict = {
        "degrees": list(a.oracle.degrees),
        "tops": _vec(a.oracle.tops),
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
            "tops": _vec(cf.tops),
            "advisory": list(cf.advisory),
            "degree_match": matches_deg,
            "top_match": matches_top,
        }
        for i in range(3):
            if not matches_top[i] and cf.advisory[i]:
                flags.append(
                    "ADVISORY: kappa%d tabulated top %s disagrees with computed %s"
                    % (i + 1, _num(cf.tops[i]), _num(a.oracle.tops[i]))
                )
    else:
        curv["closed_form"] = {"applicable": False, "reason": a.closed_form_reason}
    doc["curvatures"] = curv

    if a.invariants is not None:
        inv = a.invariants
        doc["invariants"] = {
            "applicable": True,
            "A": _num(inv.A),
            "B": _num(inv.B),
            "C": _num(inv.C),
            "D": _num(inv.D),
        }
        doc["verdicts"] = {
            "projection": {
                "verdict": a.projection.verdict,
                "coeff_along_b": _num(a.projection.coeff_along_b),
                "coeff_along_n": _num(a.projection.coeff_along_n),
                "unit_coeff_along_b": _num(a.projection.unit_coeff_along_b),
                "unit_coeff_along_n": _num(a.projection.unit_coeff_along_n),
            },
            "self_intersection": {
                "d11": _num(a.self_int.d11),
                "d21": _num(a.self_int.d21),
                "d12": _num(a.self_int.d12),
                "d22": _num(a.self_int.d22),
                "image_tangent_direction": _vec(a.self_int.image_tangent_direction),
                "curve_tangent_direction": _vec(a.self_int.curve_tangent_direction),
                "tangent_to_curve": a.self_int.tangent_to_curve,
            },
            "contour": {
                "coefficient": _num(a.contour.coefficient),
                "exact_coefficient": _num(a.contour.exact_coefficient),
                "vanishes": a.contour.vanishes,
            },
        }
    else:
        doc["invariants"] = {"applicable": False, "reason": a.invariants_reason}
        doc["verdicts"] = {"applicable": False, "reason": a.invariants_reason}

    if a.developable is not None:
        d = a.developable
        cls = d.classification
        doc["developable"] = {
            "applicable": True,
            "branch": d.branch,
            "delta_order": d.delta_order,
            "delta_top": _num(d.delta_top),
            "striction": {
                "exists": d.striction.exists,
                "passes_through_singularity": d.striction.passes_through_singularity,
            },
            "sigma_order": d.sigma_order,
            "sigma_top": _num(d.sigma_top),
            "sigma_order_lower_bound": d.sigma_order_lower_bound,
            "classification": {
                "case": cls.case,
                "E_coeff": _num(cls.E_coeff),
                "F_coeff": _num(cls.F_coeff),
                "E_scaled": _num(cls.E_scaled),
                "F_scaled": _num(cls.F_scaled),
            },
        }
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
