"""Deterministic JSON reports of a full fixture analysis.

Every configuration is analysed once, in the exact field, and each result
is read from the analysis's ``report_rung``: the lowest working truncation
that resolves the report (see ``crosscap.pipeline``).  Exact rationals
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
from .pipeline import Analysis, analyze
from .series import nearest_float
from .verify import UNDETERMINED, compare_reports

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


def report_from_analysis(cfg: RunConfig, analysis: Analysis) -> dict:
    """The report of ``analysis``, each result read from its ``report_rung``."""
    a = analysis.report_rung
    rational = _PRINT_RATIONAL[cfg.field]

    def _section(result) -> dict:
        """A result record as a report section: every field but the series ones."""
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
    # A row that ``verify`` calls UNDETERMINED (the jet is too short to
    # confirm or refute the table) matches neither way and is flagged as
    # such; every other vanished degree is NON-GENERIC.
    flags = []
    cf = a.closed_form
    rows = compare_reports(a.oracle, cf) if cf is not None else []
    undetermined = [row.status == UNDETERMINED for row in rows] or [False] * 3
    if any(d is None and not u for d, u in zip(a.oracle.degrees, undetermined)):
        flags.append("NON-GENERIC: a curvature numerator vanishes to reliable order")
    flags += [f"UNDETERMINED: {row.quantity} jet too short: {row.note}" for row in rows if row.status == UNDETERMINED]
    if cf is not None:
        matches_deg = [None if u else o == c for u, o, c in zip(undetermined, a.oracle.degrees, cf.degrees)]
        matches_top = [None if u else o == c for u, o, c in zip(undetermined, a.oracle.tops, cf.tops)]
        curv["closed_form"] = {
            "applicable": True,
            "degrees": list(cf.degrees),
            "tops": json_value(cf.tops, rational=rational),
            "advisory": list(cf.advisory),
            "degree_match": matches_deg,
            "top_match": matches_top,
        }
        for i in range(3):
            if matches_top[i] is False and cf.advisory[i]:
                flags.append(
                    "ADVISORY: kappa%d tabulated top %s disagrees with computed %s"
                    % (i + 1, cf.tops[i], a.oracle.tops[i])
                )
    else:
        curv["closed_form"] = {"applicable": False, "reason": a.reasons["closed_form"]}
    doc["curvatures"] = curv

    if a.invariants is not None:
        doc["invariants"] = {"applicable": True, **_section(a.invariants)}
        doc["verdicts"] = _section(a.verdicts)
    else:
        doc["invariants"] = {"applicable": False, "reason": a.reasons["invariants"]}
        doc["verdicts"] = {"applicable": False, "reason": a.reasons["invariants"]}

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
        doc["developable"] = {"applicable": False, "reason": a.reasons["developable"]}

    doc["flags"] = flags
    return doc


def render_report(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"
