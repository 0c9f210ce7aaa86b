"""Hypothesis fuzz of ``parse_config`` and the CLI on mutated fixture configs.

Each config is a bundled fixture with a small ``mesh`` section, after one to
three random edits (replace, delete or insert a value anywhere in the JSON
tree) and, now and then, a cut in its text.  Whatever the edits,
``parse_config`` returns or raises ``ConfigError``, and ``crosscap report``,
``verify`` and ``mesh`` exit 0 or 2; on exit 2 stderr is one line without a
traceback, and ``mesh`` leaves no ``.obj`` file.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from crosscap import ConfigError, parse_config
from crosscap.cli import fixture_names, fixture_text, main
from crosscap.config import MAX_RATIONAL_DIGITS, MeshOptions

SMALL_MESH = {"nu": 4, "nv": 5, "nx": 4, "ny": 3, "curve_samples": 6}
BASES = [
    {**json.loads(fixture_text(name)), "mesh": dict(SMALL_MESH)} for name in fixture_names()
]

#: The keys a config may hold, a few it may not, and ``a``/``b`` index keys.
KEYS = st.sampled_from(
    ["truncation", "surface", "curve", "field", "description", "mesh", "a", "b"]
    + ["family", "m", "p", "q", "c", "c1", "c2"]
    + list(MeshOptions._fields)
    + ["0,2", "1,1", "2,0", "0,3", "3", "4", "-1,3", "1,2,3", "x", ""]
)
#: Values near every validation boundary: tiny and capped integers, special
#: floats, rationals at and past the digit cap, and the enumerated strings.
ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([201, 10**30, -(10**30)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e-300, 1e200, -1e308, math.inf, math.nan]),
    st.text(max_size=6),
    st.sampled_from(
        ["0", "1", "-2", "1/3", "-7/2", "1/0", "0.5", "1e5", "abc", "", "9" * MAX_RATIONAL_DIGITS]
        + ["1" + "0" * MAX_RATIONAL_DIGITS, "mp", "mpq", "general", "exact", "float"]
    ),
)
VALUES = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = draw(st.sampled_from(("replace", "delete", "insert")))
        if edit == "insert" or not keys:
            if isinstance(node, dict):
                node[draw(KEYS)] = draw(VALUES)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(VALUES))
            continue
        key = draw(st.sampled_from(keys))
        if edit == "replace":
            node[key] = draw(VALUES)
        else:
            del node[key]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(deadline=None, max_examples=150)
@given(mutated_configs())
def test_parse_config_returns_or_raises_config_error(text):
    try:
        parse_config(text)
    except ConfigError as exc:
        assert "\n" not in str(exc)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs(), st.sampled_from(("report", "verify", "mesh")))
def test_cli_exits_0_or_2_with_one_line(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "cfg.json")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, config] + (["--out", os.path.join(tmp, "out")] if command == "mesh" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        err = err.getvalue()
        assert rc in (0, 2), err
        if rc == 2:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "Traceback" not in err
            if command == "mesh":
                assert [f for _, _, files in os.walk(tmp) for f in files if f.endswith(".obj")] == []
