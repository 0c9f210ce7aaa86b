"""Deterministic JSON reports of a full fixture analysis.

Every configuration is analysed once, in the exact field.  Exact rationals
are serialized as "p/q" strings and a rational over one square root
(``SignedRoot``) as its float, a JSON number, so a reader can always tell
which an entry is.  The ``float`` field prints each exact rational of the
result sections as its float instead; the ``config`` echo and the flags
read the same in both fields.  Printing is the one place that rounds: a
value whose float passes the float range, either way, is refused
(OverflowError) in either field.  Key order is fixed by
construction; two runs over the same configuration emit identical bytes.
"""

from __future__ import annotations

import json

from .config import RunConfig, config_to_dict, json_value
from .pipeline import Analysis, analyze, lower_truncations
from .series import nearest_float

#: Series-valued result fields: a section reports their orders and top-terms,
#: never the series themselves.
_SERIES_FIELDS = frozenset(
    {"tangent", "normal", "image", "director", "delta", "sigma", "scale"}
)

#: How each field prints an exact value of the result sections.  The float
#: field refuses (OverflowError) a nonzero value beyond the float range
#: either way, rather than print it as inf or 0.0.
_PRINT_RATIONAL = {"exact": str, "float": nearest_float}


def build_report(cfg: RunConfig) -> dict:
    analysis = analyze(cfg.coeffs, cfg.spec)
    return report_from_analysis(cfg, analysis)


def _complete(a: Analysis) -> bool:
    """Whether a rung finds every result the report prints.

    Every factor exponent and curvature degree is found, the developable
    exists with its delta order, and with its sigma order whenever the
    striction curve passes through the singular point, and the verdicts
    compute.  The other stages the report reads are read here for their
    errors only, so that an error there moves on to the next rung as well.
    """
    a.tangency, a.self_int
    d = a.developable
    return (
        None not in a.oracle.degrees
        and d is not None
        and d.delta_order is not None
        and (d.sigma_order is not None or not d.striction.passes_through_singularity)
        and (a.invariants is None or None not in (a.projection, a.contour))
    )


def report_from_analysis(cfg: RunConfig, analysis: Analysis) -> dict:
    """The report of ``analysis``, each result read from the lowest rung that completes it."""
    a = analysis.climb(_complete, lower_truncations)
    rational = _PRINT_RATIONAL[cfg.field]

    def _section(result) -> dict:
        """A result dataclass as a report section: every field but the series ones."""
        return json_value(result, _SERIES_FIELDS, rational)

    doc: dict = {}
    doc["config"] = config_to_dict(cfg)
    doc["series_order"] = analysis.order

    doc["tangency"] = _section(a.tangency)
    doc["exponents"] = _section(a.factors)

    # Once the valuations are fixed, every reliability rule takes a minimum
    # of, or adds a constant to, orders that all grow by m per truncation
    # step, as the curve's order m (k + 1) - 1 does.  So a reliable order on
    # the rung grows by analysis.order - a.order = m (k - k') at truncation k.
    curv: dict = {
        "degrees": list(a.oracle.degrees),
        "tops": json_value(a.oracle.tops, rational=rational),
        "reliable_orders": [r + analysis.order - a.order for r in a.oracle.reliable_orders],
    }
    flags = []
    if any(d is None for d in a.oracle.degrees):
        flags.append("NON-GENERIC: a curvature numerator vanishes to reliable order")
    if a.closed_form is not None:
        cf = a.closed_form
        matches_deg = [o == c for o, c in zip(a.oracle.degrees, cf.degrees)]
        matches_top = [o == c for o, c in zip(a.oracle.tops, cf.tops)]
        curv["closed_form"] = {
            "applicable": True,
            "degrees": list(cf.degrees),
            "tops": json_value(cf.tops, rational=rational),
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
        elif d.sigma_order is not None and cls.case == "ii" and cls.F_scaled == 0:
            flags.append(
                "sigma top-term vanishes: order > %d" % (a.factors.alpha0 - 1)
            )
    else:
        doc["developable"] = {"applicable": False, "reason": a.developable_reason}

    doc["flags"] = flags
    return doc


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
