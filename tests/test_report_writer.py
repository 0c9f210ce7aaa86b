"""``report.render_report`` writes the bytes of ``json.dumps(doc, indent=2, ensure_ascii=True)``.

Drawn documents of every kind of value a report can hold must print as
``json.dumps`` prints them, on each Python version (its ``float`` repr and
its string quoting included); any other value, and a key that is not a
``str``, must raise TypeError; and the reports of the benchmark's dense
shapes, in both fields, must print as ``json.dumps`` prints them.
"""

import json
import math
from fractions import Fraction

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)
from hypothesis import given, settings, strategies as st

from crosscap import parse_config
from crosscap.report import build_report, render_report
from crosscap.series import SignedRoot


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


#: Any code point, surrogates included, and the ones quoting treats apart:
#: quotes, backslashes, controls, DEL, non-ASCII, astral ones, the line and
#: paragraph separators and lone surrogates of either half.
CHARACTERS = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\b\t\n\x0c\r\x1f\x7f\x80\xe9\u2028\u2029\ufeff\uffff\U0001f600\U0010ffff\ud800\udbff\udc00\udfff'),
)
STRINGS = st.text(CHARACTERS, max_size=8)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
INTEGERS = st.one_of(
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([0, -1, 2**63, 2**64, -(2**64) - 1, 10**300]),
)
LEAVES = st.one_of(st.none(), st.booleans(), INTEGERS, FLOATS, STRINGS, st.sampled_from([{}, [], ()]))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_a_drawn_document_prints_as_json_dumps_prints_it(doc):
    assert render_report(doc) == _json_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        Fraction(1, 3),
        {"tops": [Fraction(12), "-6"]},
        SignedRoot(1, Fraction(64)),
        {"developable": {"delta_top": SignedRoot(-1, Fraction(9))}},
        {1, 2},
        [[{"flags": set()}]],
        {1: "one"},
        {"verdicts": {"projection": {0: "tangent_to_b"}}},
    ],
    ids=["fraction", "nested-fraction", "signed-root", "nested-signed-root", "set", "nested-set", "int-key", "nested-int-key"],
)
def test_a_value_outside_the_writer_s_domain_raises_type_error(doc):
    with pytest.raises(TypeError):
        render_report(doc)


@pytest.mark.parametrize("field", ["exact", "float"])
def test_every_dense_shape_s_report_prints_as_json_dumps_prints_it(field):
    for shape in range(len(workloads.DENSE_SHAPES)):
        doc = build_report(parse_config(workloads.dense_config(shape, 0, field)))
        assert render_report(doc) == _json_dumps(doc), shape
