"""Oracle-vs-closed-form verification: single fixtures and seeded sweeps.

Each row compares, for one curve fixture, the exact divergence degrees and
top-terms computed by the series oracle, read from the analysis's
``oracle_rung`` (the lowest working truncation that finds every degree; see
``crosscap.pipeline``), against the tabulated closed forms.
Degrees compare hard.  Tops compare hard except for the four advisory
entries whose tabulated constants are contradicted by the oracle (see
``frame.closed_form_reference``); those rows report both values.  A row
with a vanishing tabulated top is NON-GENERIC: the oracle's degree must then
strictly exceed the tabulated one instead of matching it.  A row whose
oracle numerator vanishes only to a reliable order below the tabulated
degree is UNDETERMINED: the jet is too short to confirm or refute the
table, so it is neither a mismatch nor a proof of non-genericity; ``report``
takes that status from ``compare_reports`` too.  A sweep
draw is redrawn while a top of its closed form vanishes, so the table is
the one genericity rule of the sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .model import FamilyMP, FamilyMPQ, UmbrellaCoefficients
from .frame import FrameError
from .pipeline import Analysis

PASS = "PASS"
FAIL = "FAIL"
ADVISORY = "ADVISORY"
NON_GENERIC = "NON-GENERIC"
UNDETERMINED = "UNDETERMINED"

_STATUS_RANK = {PASS: 0, NON_GENERIC: 1, ADVISORY: 2, UNDETERMINED: 3, FAIL: 4}

#: Truncation degree used for sweep draws; large enough to resolve every
#: tabulated degree for m <= 3 with margin.
SWEEP_TRUNCATION = 6

SUBCASES = (
    "mpq/p1",
    "mpq/p23",
    "mpq/p4plus",
    "mp/p2_n_lt_m",
    "mp/p2_n_eq_m",
    "mp/p2_n_gt_m",
    "mp/p3",
    "mp/p4",
    "mp/p5plus",
)


class Comparison(NamedTuple):
    quantity: str
    degree_oracle: int | None
    degree_reference: int
    top_oracle: Fraction | None
    top_reference: Fraction
    status: str
    note: str = ""


class VerifyRow(NamedTuple):
    subcase: str
    draw: int
    params: str
    comparisons: tuple
    status: str


def compare_reports(oracle, reference) -> list:
    out = []
    for i, name in enumerate(("kappa1", "kappa2", "kappa3")):
        deg_o, top_o = oracle.degrees[i], oracle.tops[i]
        deg_r, top_r = reference.degrees[i], reference.tops[i]
        advisory = reference.advisory[i]
        if deg_o is None and oracle.reliable_orders[i] < deg_r:
            # The numerator vanishes only to an order below the tabulated
            # degree: the jet can neither confirm nor refute the table.
            status = UNDETERMINED
            note = f"oracle reliable only to order {oracle.reliable_orders[i]} < tabulated degree {deg_r}"
        elif top_r == 0:
            # The tabulated top factor vanishes: the degree claim is void and
            # the true valuation must sit strictly above it.
            if deg_o is None or deg_o > deg_r:
                status, note = NON_GENERIC, "tabulated top vanishes; oracle degree exceeds it"
            else:
                status, note = FAIL, "tabulated top vanishes but oracle degree does not exceed it"
        elif deg_o != deg_r:
            status, note = FAIL, "degree mismatch"
        elif top_o != top_r:
            if advisory:
                status, note = ADVISORY, "tabulated constant disagrees with computed value"
            else:
                status, note = FAIL, "top-term mismatch"
        else:
            status, note = PASS, ""
        out.append(
            Comparison(
                quantity=name,
                degree_oracle=deg_o,
                degree_reference=deg_r,
                top_oracle=top_o,
                top_reference=top_r,
                status=status,
                note=note,
            )
        )
    return out


def _row_status(comparisons) -> str:
    return max((c.status for c in comparisons), key=_STATUS_RANK.__getitem__)


def verify_fixture(analysis: Analysis, subcase: str = "fixture", draw: int = 0) -> VerifyRow:
    """The row of ``analysis``: the oracle of its ``oracle_rung`` against its closed form."""
    if analysis.closed_form is None:
        raise FrameError(f"verify: {analysis.reasons['closed_form']}")
    comparisons = compare_reports(analysis.oracle_rung.oracle, analysis.closed_form)
    return VerifyRow(
        subcase=subcase,
        draw=draw,
        params=_describe_spec(analysis.spec),
        comparisons=tuple(comparisons),
        status=_row_status(comparisons),
    )


def _describe_spec(spec) -> str:
    if isinstance(spec, FamilyMPQ):
        return f"m={spec.m} p={spec.p} q={spec.q} c=({', '.join(str(v) for v in spec.c)})"
    return f"m={spec.m} p={spec.p} c=({', '.join(str(v) for v in spec.c)})"


# ---------------------------------------------------------------------------
# Seeded generic draws
# ---------------------------------------------------------------------------


#: The 27 draws num / den, num in -4..4 and den in (1, 2, 3), by numerator.
_FRACTIONS = {num: tuple(Fraction(num, den) for den in (1, 2, 3)) for num in range(-4, 5)}


def _rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-4, 4)
        if nonzero and num == 0:
            continue
        return rng.choice(_FRACTIONS[num])


def _draw_surface(rng: random.Random) -> UmbrellaCoefficients:
    a = {
        (0, 2): _rand_fraction(rng, nonzero=True),
        (1, 1): _rand_fraction(rng),
        (2, 0): _rand_fraction(rng),
        (0, 3): _rand_fraction(rng),
        (1, 2): _rand_fraction(rng),
        (2, 1): _rand_fraction(rng),
        (3, 0): _rand_fraction(rng),
        (0, 4): _rand_fraction(rng),
    }
    b = {
        3: _rand_fraction(rng),
        4: _rand_fraction(rng),
        5: _rand_fraction(rng),
    }
    return UmbrellaCoefficients(degree=SWEEP_TRUNCATION, a=a, b=b)


def _c_with_pattern(rng: random.Random, length: int, first_nonzero: int | None) -> tuple:
    """Coefficients c_0.. with c_0 != 0 and prescribed first nonzero index >= 1."""
    c = [_rand_fraction(rng, nonzero=True)]
    for idx in range(1, length):
        if first_nonzero is None or idx < first_nonzero:
            c.append(Fraction(0))
        elif idx == first_nonzero:
            c.append(_rand_fraction(rng, nonzero=True))
        else:
            c.append(_rand_fraction(rng))
    return tuple(c)


def _draw_fixture(rng: random.Random, subcase: str) -> Analysis:
    """One generic draw for a subcase: the analysis of the first draw whose tabulated tops are all nonzero.

    The ``b3 == 0`` checks before a curve draw, and mp/p4's check before its
    m draw, reject a top that would vanish before the rest of the draw is
    made; they fix the random stream, and so the sweep's rows, and stay.
    """
    while True:
        coeffs = _draw_surface(rng)
        b3 = coeffs.b_coeff(3)
        if subcase == "mpq/p1":
            m = rng.choice((2, 3))
            spec = FamilyMPQ(m=m, p=1, q=rng.randrange(1, m), c=_c_with_pattern(rng, 3, 1))
        elif subcase == "mpq/p23":
            if b3 == 0:
                continue
            m = rng.choice((2, 3))
            spec = FamilyMPQ(m=m, p=rng.choice((2, 3)), q=rng.randrange(1, m), c=_c_with_pattern(rng, 3, 1))
        elif subcase == "mpq/p4plus":
            if b3 == 0:
                continue
            m = rng.choice((2, 3))
            spec = FamilyMPQ(m=m, p=rng.choice((4, 5)), q=rng.randrange(1, m), c=_c_with_pattern(rng, 3, 1))
        elif subcase.startswith("mp/p2"):
            m = rng.choice((2, 3)) if subcase == "mp/p2_n_lt_m" else rng.choice((1, 2, 3))
            if subcase == "mp/p2_n_lt_m":
                n = rng.randrange(1, m)
                c = _c_with_pattern(rng, m + 2, n)
            elif subcase == "mp/p2_n_eq_m":
                c = _c_with_pattern(rng, m + 2, m)
            else:
                c = _c_with_pattern(rng, m + 2, m + 1 if rng.random() < 0.5 else None)
            spec = FamilyMP(m=m, p=2, c=c)
        elif subcase == "mp/p3":
            if b3 == 0:
                continue
            spec = FamilyMP(m=rng.choice((1, 2, 3)), p=3, c=_c_with_pattern(rng, 3, 1))
        elif subcase == "mp/p4":
            c = _c_with_pattern(rng, 3, 1)
            if b3 == 0 or 8 * c[0] + b3 / 2 == 0:
                continue
            spec = FamilyMP(m=rng.choice((1, 2)), p=4, c=c)
        elif subcase == "mp/p5plus":
            if b3 == 0:
                continue
            spec = FamilyMP(m=rng.choice((1, 2)), p=rng.choice((5, 6)), c=_c_with_pattern(rng, 3, 1))
        else:
            raise ValueError(f"unknown subcase {subcase!r}")
        analysis = Analysis(coeffs, spec)
        if 0 not in analysis.closed_form.tops:
            return analysis


def run_sweep(seed: int = 0, draws: int = 10) -> list:
    """Deterministic sweep: `draws` generic fixtures per subcase, sorted rows."""
    rows = []
    for subcase in SUBCASES:
        rng = random.Random((seed, subcase).__repr__())
        for draw in range(draws):
            rows.append(verify_fixture(_draw_fixture(rng, subcase), subcase=subcase, draw=draw))
    rows.sort(key=lambda r: (r.subcase, r.draw))
    return rows


def has_hard_failure(rows) -> bool:
    return any(row.status == FAIL for row in rows)


def has_undetermined(rows) -> bool:
    return any(row.status == UNDETERMINED for row in rows)


def render_rows(rows) -> str:
    lines = []
    for row in rows:
        lines.append(f"[{row.status}] {row.subcase} draw={row.draw} {row.params}")
        for c in row.comparisons:
            detail = (
                f"    {c.quantity}: degree oracle={c.degree_oracle} ref={c.degree_reference}"
                f" | top oracle={c.top_oracle} ref={c.top_reference}"
            )
            if c.status != PASS:
                detail += f"  [{c.status}: {c.note}]"
            lines.append(detail)
    counts = {s: 0 for s in _STATUS_RANK}
    for row in rows:
        counts[row.status] += 1
    lines.append(
        "summary: %d rows | pass=%d non-generic=%d advisory=%d fail=%d"
        % (len(rows), counts[PASS], counts[NON_GENERIC], counts[ADVISORY], counts[FAIL])
        + (" undetermined=%d" % counts[UNDETERMINED] if counts[UNDETERMINED] else "")
    )
    return "\n".join(lines) + "\n"
