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

``render_report`` writes the text itself, without ``json.dumps``, whose
pure-Python indenting encoder took about a tenth of a dense report's time;
its bytes are those of ``json.dumps(doc, indent=2, ensure_ascii=True)``
for every document a report can hold, and any other value raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

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
    # Every match and flag is read from the rows of ``verify``.  A row it
    # calls UNDETERMINED (the jet is too short to confirm or refute the
    # table) has a vanished degree, matches neither way and is flagged as
    # such; every other vanished degree is NON-GENERIC.
    flags = []
    cf = a.closed_form
    rows = compare_reports(a.oracle, cf) if cf is not None else []
    undetermined = [row for row in rows if row.status == UNDETERMINED]
    if a.oracle.degrees.count(None) > len(undetermined):
        flags.append("NON-GENERIC: a curvature numerator vanishes to reliable order")
    flags += [f"UNDETERMINED: {row.quantity} jet too short: {row.note}" for row in undetermined]
    if cf is not None:
        curv["closed_form"] = {
            "applicable": True,
            "degrees": list(cf.degrees),
            "tops": json_value(cf.tops, rational=rational),
            "advisory": list(cf.advisory),
            "degree_match": [None if r in undetermined else r.degree_oracle == r.degree_reference for r in rows],
            "top_match": [None if r in undetermined else r.top_oracle == r.top_reference for r in rows],
        }
        flags += [
            "ADVISORY: %s tabulated top %s disagrees with computed %s"
            % (row.quantity, row.top_reference, row.top_oracle)
            for row, advisory in zip(rows, cf.advisory)
            if advisory and row not in undetermined and row.top_oracle != row.top_reference
        ]
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


#: ``json.dumps``'s spelling of the non-finite floats, by their ``repr``.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render_report(doc: dict) -> str:
    """``doc`` as the text of ``json.dumps(doc, indent=2, ensure_ascii=True) + "\\n"``.

    The bytes are the same for every document of dicts with ``str`` keys,
    lists, tuples, ``str``, ``int``, ``float``, ``bool`` and None: strings
    and keys are quoted by the function that quotes them in ``json.dumps``,
    numbers print as their ``int``/``float`` repr, with ``NaN``,
    ``Infinity`` and ``-Infinity`` for the non-finite floats, and an empty
    container as ``{}`` or ``[]``.  Any other value raises TypeError, so an
    exact value that escaped ``json_value`` is never printed; so does a key
    that is not a ``str``, which no report holds and which ``json.dumps``
    would turn into a string when it is a number, a bool or None.
    """
    out: list = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(o, out: list, indent: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``indent`` starts each line of its level."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_NON_FINITE.get(text, text))
    elif not isinstance(o, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = indent + "  "
        out.append("{")
        for key, value in o.items():
            # _quote raises TypeError on a key that is not a str.
            out.append(inner + _quote(key) + ": ")
            _write(value, out, inner)
            out.append(",")
        # The last item's comma gives way to the closing bracket.
        out[-1] = indent + "}"
    else:
        inner = indent + "  "
        out.append("[")
        for item in o:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = indent + "]"
