"""Hypothesis fuzz of ``report``, ``verify`` and ``mesh`` on valid, sparse configs.

Each config is valid: a zero-heavy surface jet whose nonzero coefficients
are small rationals or rationals scaled by 2^40 to 2^70, a family curve
(``mp`` or ``mpq``) or a general curve, and a truncation from 3 to 12.  On
every one, the three commands run in-process and:

* no command shows a traceback (every failure is one stderr line, exit 2);
* ``verify`` never prints FAIL: a FAIL on a valid config is a bug in the
  table, the oracle or the comparison, and a jet too short to decide is
  UNDETERMINED;
* ``report`` agrees with ``verify`` on each curvature row: a row ``verify``
  calls UNDETERMINED has its own report flag and no degree or top match,
  and the report's NON-GENERIC flag stands only on a vanished degree that
  ``verify`` does not call UNDETERMINED.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from crosscap import parse_config
from crosscap.cli import main

SMALL_MESH = {"nu": 3, "nv": 3, "nx": 3, "ny": 2, "curve_samples": 4}
NONZERO = st.sampled_from(["1", "-1", "2", "1/2", "-3/4", str(2**40), f"-1/{2**55}", f"{3 * 2**70}/7"])
#: Zero half the time: most coefficients of a sparse jet vanish.
SPARSE = st.one_of(st.just("0"), NONZERO)
NON_GENERIC_FLAG = "NON-GENERIC: a curvature numerator vanishes to reliable order"
ROW = re.compile(r"    kappa(\d): .*?(?:  \[([A-Z-]+): .*\])?$")


def _coefficients(draw, zeros: int) -> list:
    """``zeros`` zero entries, one nonzero entry and a sparse tail."""
    return ["0"] * zeros + [draw(NONZERO)] + draw(st.lists(SPARSE, max_size=3))


@st.composite
def sparse_configs(draw) -> dict:
    # Truncation 3 half the time: the shortest jets are the ones a table
    # degree can outrun.
    k = draw(st.one_of(st.just(3), st.integers(3, 12)))
    a_keys = [f"{i},{s - i}" for s in range(2, k + 1) for i in range(s + 1) if (i, s - i) != (0, 2)]
    a = {"0,2": draw(NONZERO)}
    a.update({key: draw(SPARSE) for key in draw(st.lists(st.sampled_from(a_keys), max_size=4, unique=True))})
    b = {str(i): draw(SPARSE) for i in draw(st.lists(st.integers(3, k), max_size=3, unique=True))}
    family = draw(st.sampled_from(("mp", "mpq", "general")))
    if family == "mp":
        curve = {"m": draw(st.integers(1, 3)), "p": draw(st.integers(2, 6)), "c": _coefficients(draw, 0)}
    elif family == "mpq":
        m = draw(st.integers(2, 3))
        curve = {"m": m, "p": draw(st.integers(1, 5)), "q": draw(st.integers(1, m - 1)), "c": _coefficients(draw, 0)}
    else:
        # Components of different valuations are never proportional.
        e = draw(st.integers(1, 3))
        d = draw(st.integers(1, 6).filter(lambda d: d != e))
        curve = {"c1": _coefficients(draw, d), "c2": _coefficients(draw, e)}
    return {"truncation": k, "surface": {"a": a, "b": b}, "curve": {"family": family, **curve}, "mesh": SMALL_MESH}


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    assert rc == 0 or (err.count("\n") == 1 and err.endswith("\n")), err
    return rc, out.getvalue()


#: A jet too short for the tabulated kappa1 degree: its khat_1 vanishes to
#: the reliable order 0, below the tabulated degree 1.
TOO_SHORT = {
    "truncation": 3,
    "surface": {"a": {"0,2": "2", "1,1": "1"}, "b": {"3": "1"}},
    "curve": {"family": "mp", "m": 1, "p": 4, "c": ["1"]},
    "mesh": SMALL_MESH,
}


@settings(derandomize=True, deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(sparse_configs())
@example(TOO_SHORT)
def test_report_verify_and_mesh_agree_on_valid_sparse_configs(doc):
    text = json.dumps(doc)
    parse_config(text)  # the input is valid
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        mesh_rc, _ = _run(["mesh", config, "--out", os.path.join(tmp, "mesh")])
        assert mesh_rc in (0, 2)
        report_rc, report = _run(["report", config])
        verify_rc, table = _run(["verify", config])
    assert report_rc == 0
    assert verify_rc in (0, 2) and "[FAIL]" not in table
    if doc["curve"]["family"] == "general":
        return  # verify requires a family curve: no table
    statuses = {int(m[1]) - 1: m[2] for m in map(ROW.fullmatch, table.splitlines()) if m}
    assert sorted(statuses) == [0, 1, 2]
    report = json.loads(report)
    degrees, flags = report["curvatures"]["degrees"], report["flags"]
    closed = report["curvatures"]["closed_form"]
    undetermined = [i for i, status in statuses.items() if status == "UNDETERMINED"]
    for i in undetermined:
        assert degrees[i] is None
        assert closed["degree_match"][i] is None and closed["top_match"][i] is None
        assert any(flag.startswith(f"UNDETERMINED: kappa{i + 1} ") for flag in flags)
    vanished = [i for i, d in enumerate(degrees) if d is None]
    assert (NON_GENERIC_FLAG in flags) == any(i not in undetermined for i in vanished)
