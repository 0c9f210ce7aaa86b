import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import workloads  # the benchmark's dense jet universe (bench/ is put on the path by conftest)

from crosscap import Analysis, ConfigError, UmbrellaCoefficients, parse_config
from crosscap import config as config_module
from crosscap.cli import MAX_DRAWS, fixture_names, fixture_text, main
from crosscap.config import (
    MAX_MESH_VERTICES,
    MAX_RATIONAL_DIGITS,
    MAX_SERIES_ORDER,
    MeshOptions,
    config_from_dict,
    config_to_dict,
)
from crosscap.report import build_report, render_report
from crosscap.verify import FAIL, NON_GENERIC, PASS, UNDETERMINED, compare_reports, verify_fixture


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_bundled_fixtures_parse():
    assert fixture_names() == ["s1", "s2", "s3"]
    for name in fixture_names():
        cfg = parse_config(fixture_text(name))
        assert cfg.coeffs.degree >= 3


def test_round_trip_all_fixtures():
    for name in fixture_names():
        cfg = parse_config(fixture_text(name))
        assert parse_config(json.dumps(config_to_dict(cfg))) == cfg


def test_round_trip_with_options():
    cfg = parse_config(
        json.dumps(
            {
                "truncation": 5,
                "surface": {"a": {"0,2": "3/2"}, "b": {"4": "-1/3"}},
                "curve": {"family": "mpq", "m": 2, "p": 1, "q": 1, "c": ["2", "1/2"]},
                "mesh": {"nx": 11, "x_range": [-0.2, 0.2]},
            }
        )
    )
    assert cfg.mesh.nx == 11
    assert cfg.mesh.ny == MeshOptions().ny
    assert parse_config(json.dumps(config_to_dict(cfg))) == cfg


def test_zero_a02_rejected():
    with pytest.raises(ConfigError, match="a_02 must be nonzero"):
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": "0"}},'
            ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]}}'
        )


def test_q_bound_rejected():
    with pytest.raises(ConfigError, match="1 <= q < m"):
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": "1"}},'
            ' "curve": {"family": "mpq", "m": 2, "p": 1, "q": 2, "c": ["1"]}}'
        )


def test_zero_c0_rejected():
    with pytest.raises(ConfigError, match="c_0"):
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": "1"}},'
            ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["0", "1"]}}'
        )


def test_malformed_rational_rejected():
    with pytest.raises(ConfigError, match="malformed rational"):
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": "x"}},'
            ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]}}'
        )


def test_float_coefficient_rejected():
    with pytest.raises(ConfigError, match="integers or strings"):
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": 0.5}},'
            ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]}}'
        )


#: The longest numerator or denominator admitted, and one digit more.
LONGEST = "1" + "0" * (MAX_RATIONAL_DIGITS - 1)
TOO_LONG = LONGEST + "0"


def _jet_text(a02, curve=None, mesh=None):
    """A truncation-6 config as JSON text, with ``a02`` inserted as raw JSON."""
    doc = {"truncation": 6, "surface": {"a": {"0,2": "A02"}}}
    doc["curve"] = curve or {"family": "mp", "m": 1, "p": 2, "c": ["1"]}
    if mesh is not None:
        doc["mesh"] = mesh
    return json.dumps(doc).replace('"A02"', a02)


def test_rationals_up_to_the_digit_cap_parse():
    for a02 in (LONGEST, f'"-{LONGEST}"', f'"1/{LONGEST}"', f'"-{LONGEST}/{LONGEST[:-1]}7"'):
        parse_config(_jet_text(a02))


def test_digit_cap_names_the_rational():
    with pytest.raises(ConfigError) as err:
        parse_config(_jet_text(f'"1/{TOO_LONG}"'))
    assert err.value.problems[0] == (
        f"surface.a[0,2]: numerator or denominator has more than {MAX_RATIONAL_DIGITS} digits"
    )


@pytest.mark.parametrize(
    "text, problem",
    [
        (
            _jet_text('"0.5"'),
            "surface.a[0,2]: malformed rational '0.5'; "
            "rationals must be integers or strings like '-3' or '1/2'",
        ),
        (
            _jet_text('"1"', {"family": "mp", "m": 1, "p": 2, "c": ["x"]}),
            "curve.c[0]: malformed rational 'x'; "
            "rationals must be integers or strings like '-3' or '1/2'",
        ),
        (
            _jet_text('"1"', {"family": "general", "c1": ["0", "1/0"], "c2": ["0", "0", "1"]}),
            "curve.c1[1]: zero denominator in '1/0'",
        ),
    ],
    ids=["a02", "c0", "general"],
)
def test_a_refused_rational_is_the_only_problem(text, problem):
    # No model check (a_02 != 0, c_0 != 0, a nonzero jet) runs on a refused value.
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [problem]


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as err:
        parse_config(
            '{"truncation": 4, "surface": {"a": {"0,2": "1"}, "extra": 1},'
            ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"], "bogus": 2},'
            ' "unknown_top": 3}'
        )
    text = str(err.value)
    assert "unknown key 'extra'" in text
    assert "unknown key 'bogus'" in text
    assert "unknown key 'unknown_top'" in text


def test_all_violations_reported_together():
    with pytest.raises(ConfigError) as err:
        parse_config(
            '{"truncation": 2, "surface": {"a": {"0,2": "0"}},'
            ' "curve": {"family": "mpq", "m": 2, "p": 1, "q": 5, "c": ["1"]}}'
        )
    assert len(err.value.problems) >= 3


MP_CURVE = {"family": "mp", "m": 1, "p": 2, "c": ["1"]}


def test_every_surface_index_problem_is_reported():
    surface = {"a": {"0,2": "0", "1,0": "1", "0,1": "1"}, "b": {"2": "1"}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"truncation": 4, "surface": surface, "curve": MP_CURVE}))
    assert err.value.problems == [
        "surface: a index (1, 0) outside 2 <= i+j <= k",
        "surface: a index (0, 1) outside 2 <= i+j <= k",
        "surface: b index 2 outside 3 <= i <= k",
        "surface: a_02 must be nonzero",
    ]


REFUSED_A = "surface.a[1,1]: malformed rational 'x'; rationals must be integers or strings like '-3' or '1/2'"
REFUSED_B = "surface.b[3]: zero denominator in '1/0'"


@pytest.mark.parametrize(
    "a11, b3, problems",
    [("x", "1/0", [REFUSED_A, REFUSED_B]), ("x", "2", [REFUSED_A]), ("3", "1/0", [REFUSED_B])],
    ids=["a-and-b", "a", "b"],
)
def test_a_refused_a_and_b_coefficient_are_both_reported_and_build_no_jet(monkeypatch, a11, b3, problems):
    built = []
    monkeypatch.setattr(config_module, "UmbrellaCoefficients", lambda *args, **kwargs: built.append(args))
    surface = {"a": {"0,2": "1", "1,1": a11, "2,0": "1/2"}, "b": {"3": b3, "4": "5"}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"truncation": 4, "surface": surface, "curve": MP_CURVE}))
    assert err.value.problems == problems
    assert built == []


@pytest.mark.parametrize(
    "surface, curve, problems",
    [
        ({"a": {"0,2": "1", "0,4": "1"}, "b": {"9": "1"}}, MP_CURVE, []),
        ({"a": {"0,2": "1"}}, dict(MP_CURVE, m=100), []),
        ({"a": {"0,2": "0", "5,5": "1"}}, MP_CURVE, ["surface: a_02 must be nonzero"]),
        ({"a": {"0,2": "1", "1,0": "1"}}, MP_CURVE, ["surface: a index (1, 0) outside 2 <= i+j <= k"]),
        ({"a": {"0,2": "1"}, "b": {"2": "1"}}, MP_CURVE, ["surface: b index 2 outside 3 <= i <= k"]),
        ({"a": {"0,2": "1", "0,04": "1"}}, MP_CURVE, ["surface.a: bad index key '0,04' (expected 'i,j')"]),
        ({"a": {"0,2": "1/0"}}, MP_CURVE, ["surface.a[0,2]: zero denominator in '1/0'"]),
    ],
    ids=["upper-degree", "series-order", "a02", "a-lower-degree", "b-lower-degree", "index-syntax", "rational"],
)
@pytest.mark.parametrize("truncation", ["x", 2, None])
def test_a_refused_truncation_causes_no_other_problem(truncation, surface, curve, problems):
    # A refused truncation once read as 3, so an index of degree above 3 and
    # the curve's series-order cap failed as well.  Without a truncation
    # neither is checked; every other rule still is.
    doc = {"surface": surface, "curve": curve}
    if truncation is not None:
        doc["truncation"] = truncation
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.problems == ["truncation: required integer >= 3"] + problems


@pytest.mark.parametrize(
    "part, key",
    [
        ("a", " 0, 2"),
        ("a", "0,2 "),
        ("a", "+0,2"),
        ("a", "0,02"),
        ("a", "0,\u0662"),  # ARABIC-INDIC DIGIT TWO
        ("b", "03"),
        ("b", "1_0"),
        ("b", "+3"),
        ("b", " 3"),
        ("b", "\u0663"),  # ARABIC-INDIC DIGIT THREE
    ],
)
def test_an_index_key_has_one_spelling(part, key):
    # Each of these keys read as an index through ``int``: an alias of "0,2"
    # overwrote a_02 and "1_0" was b_10.  An index is 0 or ASCII digits
    # without a leading zero, and an ``a`` pair has no spaces or signs.
    surface = {"a": {"0,2": "1"}, "b": {}}
    surface[part][key] = "5"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"truncation": 12, "surface": surface, "curve": MP_CURVE}))
    suffix = " (expected 'i,j')" if part == "a" else ""
    assert err.value.problems == [f"surface.{part}: bad index key {key!r}{suffix}"]


def test_a_key_given_twice_is_a_problem():
    # JSON keeps the last of two equal keys: a02 = 5 and truncation 6 were read
    # without a word.  Each repeat is one problem, reported with the others.
    text = (
        '{"truncation": 5, "truncation": 6, "surface": {"a": {"0,2": "1", "0,2": "5", "1,1": "x"}},'
        ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"], "c": ["2"], "c": ["3"]}, "bogus": 1}'
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [
        "duplicate key '0,2'",
        "duplicate key 'c'",
        "duplicate key 'c'",
        "duplicate key 'truncation'",
        "top level: unknown key 'bogus'",
        "surface.a[1,1]: malformed rational 'x'; rationals must be integers or strings like '-3' or '1/2'",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config('{"truncation": 5, "truncation": 5, "surface": {"a": {"0,2": "1"}}, "curve": {"family": "mp",'
                     ' "m": 1, "p": 2, "c": ["1"]}}')
    assert err.value.problems == ["duplicate key 'truncation'"]


def test_a_non_string_index_key_is_a_bad_key():
    doc = {
        "truncation": 5,
        1: 2,
        "surface": {"a": {"0,2": "1", (1, 1): "1", 2: "1"}, "b": {3: "1", None: "1", 4.0: "2"}},
        "curve": MP_CURVE,
    }
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert err.value.problems == [
        "top level: unknown key 1",
        "surface.a: bad index key (1, 1) (expected 'i,j')",
        "surface.a: bad index key 2 (expected 'i,j')",
        "surface.b: bad index key 3",
        "surface.b: bad index key None",
        "surface.b: bad index key 4.0",
    ]


def _bundled_and_benchmark_configs():
    texts = [fixture_text(name) for name in fixture_names()]
    for shape in range(len(workloads.DENSE_SHAPES)):
        for variant in range(workloads.DENSE_VARIANTS):
            texts += [workloads.dense_config(shape, variant, field) for field in ("exact", "float")]
    return texts


def test_bundled_and_benchmark_configs_read_their_keys_as_before():
    # The index keys that ship or that the benchmark draws are canonical, so
    # they read as ``int`` of each part read them.
    texts = _bundled_and_benchmark_configs()
    assert len(texts) == 3 + 2 * 128
    for text in texts:
        doc = json.loads(text)
        surface = doc["surface"]
        a = {tuple(int(p) for p in k.split(",")): Fraction(str(v)) for k, v in surface["a"].items()}
        b = {int(k): Fraction(str(v)) for k, v in surface.get("b", {}).items()}
        cfg = parse_config(text)
        assert cfg.coeffs == UmbrellaCoefficients(degree=doc["truncation"], a=a, b=b)
        assert cfg == config_from_dict(doc)


def test_the_readme_configuration_examples_parse_and_report():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        cfg = parse_config(block)
        doc = build_report(cfg)
        assert json.loads(render_report(doc)) == doc


# ---------------------------------------------------------------------------
# report command
# ---------------------------------------------------------------------------


def test_s1_report_values():
    cfg = parse_config(fixture_text("s1"))
    doc = build_report(cfg)
    assert doc["curvatures"]["tops"] == ["12", "-6", "4"]
    assert doc["curvatures"]["degrees"] == [0, 0, 0]
    inv = doc["invariants"]
    assert (inv["A"], inv["B"], inv["C"], inv["D"]) == ("6", "3", "-2", "0")
    assert doc["tangency"]["case"] == 3


def test_s2_report_values():
    cfg = parse_config(fixture_text("s2"))
    doc = build_report(cfg)
    assert doc["invariants"]["B"] == "0"
    assert doc["verdicts"]["self_intersection"]["tangent_to_curve"] is True
    assert doc["verdicts"]["projection"]["verdict"] == "tangent_to_b"
    assert doc["developable"]["classification"]["F_scaled"] == "0"
    assert doc["developable"]["sigma_order"] == 2
    assert any("order > 1" in f for f in doc["flags"])


def test_s3_report_values():
    cfg = parse_config(fixture_text("s3"))
    doc = build_report(cfg)
    assert doc["curvatures"]["degrees"] == [1, 2, 0]
    assert doc["curvatures"]["tops"] == ["96", "-30", "-8"]
    assert doc["invariants"]["applicable"] is False


def test_report_byte_determinism():
    cfg = parse_config(fixture_text("s2"))
    one = render_report(build_report(cfg)).encode()
    two = render_report(build_report(cfg)).encode()
    assert one == two


def test_report_cli_to_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["report", _fixture_path("s1"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["curvatures"]["tops"] == ["12", "-6", "4"]


def _fixture_path(name):
    import crosscap

    return os.path.join(os.path.dirname(crosscap.__file__), "fixtures", name + ".json")


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_single_fixture_passes():
    cfg = parse_config(fixture_text("s1"))
    row = verify_fixture(Analysis(cfg.coeffs, cfg.spec))
    assert row.status == PASS


def test_verify_exit_codes(capsys):
    rc = main(["verify", _fixture_path("s1")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out


def test_verify_sweep_determinism(capsys):
    rc1 = main(["verify", "--sweep", "--seed", "1", "--draws", "2"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "--sweep", "--seed", "1", "--draws", "2"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert rc1 == rc2 == 0


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_verify_sweep_rejects_draws_below_one(capsys, draws):
    assert main(["verify", "--sweep", "--draws", draws]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: --draws must be >= 1\n"


def test_verify_sweep_draws_cap(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("crosscap.cli.run_sweep", lambda seed, draws: calls.append(draws) or [])
    assert main(["verify", "--sweep", "--draws", str(MAX_DRAWS)]) == 0
    assert calls == [MAX_DRAWS]
    capsys.readouterr()
    assert main(["verify", "--sweep", "--draws", str(MAX_DRAWS + 1)]) == 2
    captured = capsys.readouterr()
    assert calls == [MAX_DRAWS]
    assert captured.out == ""
    assert captured.err == f"verify: --draws must be <= {MAX_DRAWS}\n"


#: A valid jet too short for the tabulated kappa1 degree: the oracle's
#: khat_1 vanishes to its reliable order 0, below the tabulated degree 1.
TOO_SHORT = {
    "truncation": 3,
    "surface": {"a": {"0,2": "2", "1,1": "1"}, "b": {"3": "1"}},
    "curve": {"family": "mp", "m": 1, "p": 4, "c": ["1"]},
}


def test_verify_calls_a_jet_too_short_undetermined(tmp_path, capsys):
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps(TOO_SHORT))
    assert main(["verify", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "[UNDETERMINED] fixture draw=0 m=1 p=4 c=(1)"
    assert lines[1] == (
        "    kappa1: degree oracle=None ref=1 | top oracle=None ref=-34"
        "  [UNDETERMINED: oracle reliable only to order 0 < tabulated degree 1]"
    )
    assert lines[-1] == "summary: 1 rows | pass=0 non-generic=0 advisory=0 fail=0 undetermined=1"
    assert captured.err == "verify: a degree is undetermined: the jet is too short; raise the truncation\n"
    # One order more resolves the degree, and the row is no longer undetermined.
    cfg_path.write_text(json.dumps({**TOO_SHORT, "truncation": 4}))
    assert main(["verify", str(cfg_path)]) == 0
    assert "UNDETERMINED" not in capsys.readouterr().out


def test_report_calls_a_jet_too_short_undetermined(tmp_path, capsys):
    cfg_path = tmp_path / "short.json"
    cfg_path.write_text(json.dumps(TOO_SHORT))
    assert main(["report", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curvatures"]["degrees"] == [None, 0, 0]
    # kappa1 is verify's UNDETERMINED row: it matches neither way.
    assert doc["curvatures"]["closed_form"]["degree_match"] == [None, True, True]
    assert doc["curvatures"]["closed_form"]["top_match"] == [None, False, True]
    assert doc["flags"] == [
        "UNDETERMINED: kappa1 jet too short: oracle reliable only to order 0 < tabulated degree 1",
        "ADVISORY: kappa2 tabulated top -3 disagrees with computed -1",
    ]


#: b3 = 0 makes the tabulated kappa1 and kappa2 tops of this curve vanish.
VANISHING_TOPS = {"surface": {"a": {"0,2": "1"}}, "curve": {"family": "mp", "m": 1, "p": 5, "c": ["1"]}}


@pytest.mark.parametrize(
    "truncation, degree_match, undetermined",
    [
        # khat_2 vanishes to order 0, the tabulated degree: NON-GENERIC; khat_1
        # only to order 0, below the tabulated degree 1: UNDETERMINED.
        (3, [None, False, True], ["UNDETERMINED: kappa1 jet too short: oracle reliable only to order 0 < tabulated degree 1"]),
        # Both vanish to order 1, at or past the tabulated degrees: NON-GENERIC.
        (4, [False, False, True], []),
    ],
)
def test_report_keeps_non_generic_for_a_vanished_degree_that_verify_does_not_call_undetermined(
    tmp_path, capsys, truncation, degree_match, undetermined
):
    cfg_path = tmp_path / "vanishing.json"
    cfg_path.write_text(json.dumps({**VANISHING_TOPS, "truncation": truncation}))
    assert main(["report", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curvatures"]["degrees"] == [None, None, 0]
    assert doc["curvatures"]["closed_form"]["degree_match"] == degree_match
    assert doc["flags"][0] == "NON-GENERIC: a curvature numerator vanishes to reliable order"
    assert [flag for flag in doc["flags"] if flag.startswith("UNDETERMINED")] == undetermined


def _oracle(degrees, reliable_orders=None):
    tops = tuple(None if d is None else Fraction(1) for d in degrees)
    if reliable_orders is None:  # as ``bench/workloads.closed_form_failures`` builds it
        return SimpleNamespace(degrees=degrees, tops=tops)
    return SimpleNamespace(degrees=degrees, tops=tops, reliable_orders=reliable_orders)


def test_compare_reports_reads_reliable_orders_only_for_a_vanished_numerator():
    table = SimpleNamespace(degrees=(3, 1, 2), tops=(Fraction(1), Fraction(0), Fraction(1)), advisory=(False,) * 3)
    # Vanished to an order below the tabulated degree: undetermined, in the
    # mismatch branch (kappa1, kappa3) and in the vanishing-top branch (kappa2).
    rows = compare_reports(_oracle((None, None, None), (2, 0, 1)), table)
    assert [c.status for c in rows] == [UNDETERMINED] * 3
    # Vanished to the tabulated degree or past it: a proven mismatch, and a
    # proven valuation above a vanishing top.
    rows = compare_reports(_oracle((None, None, None), (3, 1, 5)), table)
    assert [c.status for c in rows] == [FAIL, NON_GENERIC, FAIL]
    # Every degree found: the reliable orders are not read.
    rows = compare_reports(_oracle((3, 2, 2)), table)
    assert [c.status for c in rows] == [PASS, NON_GENERIC, PASS]


GENERAL_CURVE = (
    '{"truncation": 4, "surface": {"a": {"0,2": "1"}},'
    ' "curve": {"family": "general", "c1": ["0", "1"], "c2": ["0", "0", "1"]}}'
)


def test_verify_rejects_general_curve(tmp_path, capsys):
    cfg_path = tmp_path / "general.json"
    cfg_path.write_text(GENERAL_CURVE)
    assert main(["verify", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "verify: closed forms apply only to the two curve families\n"
    assert main(["verify"]) == 2
    assert "provide a config file or --sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, error",
    [
        (["{missing}", "--sweep", "--draws", "1"], "verify: give a config file or --sweep, not both"),
        (["{s1}", "--sweep"], "verify: give a config file or --sweep, not both"),
        (["{s1}", "--seed", "5", "--draws", "3"], "verify: --seed and --draws apply only to --sweep"),
        (["{s1}", "--seed", "0"], "verify: --seed and --draws apply only to --sweep"),  # the sweep's default
        (["{s1}", "--draws", "10"], "verify: --seed and --draws apply only to --sweep"),
    ],
)
def test_verify_refuses_arguments_it_would_ignore(tmp_path, capsys, args, error):
    paths = {"missing": str(tmp_path / "missing.json"), "s1": _fixture_path("s1")}
    assert main(["verify"] + [arg.format(**paths) for arg in args]) == 2
    assert capsys.readouterr() == ("", error + "\n")


# ---------------------------------------------------------------------------
# mesh command
# ---------------------------------------------------------------------------


def test_mesh_outputs(tmp_path):
    rc = main(["mesh", _fixture_path("s1"), "--out", str(tmp_path)])
    assert rc == 0
    for name in ("umbrella.obj", "curve.obj", "od_w.obj"):
        assert (tmp_path / name).exists()
    umbrella = (tmp_path / "umbrella.obj").read_text()
    nv = sum(1 for line in umbrella.splitlines() if line.startswith("v "))
    nf = sum(1 for line in umbrella.splitlines() if line.startswith("f "))
    assert nv == 41 * 41
    assert nf == 40 * 40
    curve = (tmp_path / "curve.obj").read_text().splitlines()
    assert "v 0 0 0" in curve  # the curve passes through the singular point
    assert any(line.startswith("l ") for line in curve)


def test_mesh_vertex_count_from_options(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"truncation": 6, "surface": {"a": {"0,2": "2", "1,1": "1"}},'
        ' "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]},'
        ' "mesh": {"nx": 9, "ny": 5, "nu": 7, "nv": 6, "curve_samples": 11}}'
    )
    rc = main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    od = (tmp_path / "out" / "od_w.obj").read_text()
    assert sum(1 for line in od.splitlines() if line.startswith("v ")) == 45
    umbrella = (tmp_path / "out" / "umbrella.obj").read_text()
    assert sum(1 for line in umbrella.splitlines() if line.startswith("v ")) == 42


def test_mesh_without_developable_exit_code(tmp_path, capsys):
    # the tangential structure function vanishes to reliable order: no director
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"truncation": 4, "surface": {"a": {"0,2": "1"}},'
        ' "curve": {"family": "mp", "m": 1, "p": 9, "c": ["1"]}}'
    )
    rc = main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "tangential structure function vanishes to reliable order\n"
    assert list(tmp_path.rglob("*.obj")) == []


@pytest.mark.parametrize("name, truncation", [("s1", 3), ("s2", 4)])
def test_a_jet_too_short_for_the_developable_reports_every_other_section(tmp_path, capsys, name, truncation):
    # The director is reliable only to order 0, so delta cannot differentiate
    # it: the developable is not applicable, as when a structure function
    # vanishes to reliable order, and every other section computes.
    raw = json.loads(fixture_text(name))
    raw["truncation"] = truncation
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    reason = "jet too short for the developable: cannot differentiate a series reliable only to order 0"
    assert main(["report", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["developable"] == {"applicable": False, "reason": reason}
    assert doc["invariants"]["applicable"] and None not in doc["curvatures"]["degrees"]
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == reason + "\n"
    assert list(tmp_path.rglob("*.obj")) == []


def test_mesh_refuses_a_window_that_overflows(tmp_path, capsys):
    # Finite bounds whose grid step overflows: every sampled vertex is inf or nan.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_jet_text('"1"', mesh={"x_range": [-1e308, 1e308]}))
    assert main(["report", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("non-finite vertex coordinate") and err.count("\n") == 1
    assert list(tmp_path.rglob("*.obj")) == []


@pytest.mark.parametrize("window", ["u_range", "v_range"])
def test_mesh_refuses_an_umbrella_window_whose_powers_overflow(tmp_path, capsys, window):
    # u**2 or v**2 of a bound passes the float range before any product does.
    doc = {
        "truncation": 6,
        "surface": {"a": {"0,2": "2", "2,0": "1"}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]},
        "mesh": {window: [-1e200, 1e200]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"{window[0]}**2 overflows: the window is too wide for this jet\n"
    assert list(tmp_path.rglob("*.obj")) == []


#: Tiny-scale jets, whose frame and striction scale lie below any absolute
#: float tolerance, with the orders the exact analysis finds:
#: (delta_order, sigma_order).
TINY_SCALE = {
    "mp-c1e-5": (_jet_text('"1/100000000"', {"family": "mp", "m": 1, "p": 2, "c": ["1/100000"]}), (None, None)),
    "mp-a1e-12": (_jet_text('"1/1000000000000"'), (None, None)),
    "mpq-a1e-8": (_jet_text('"1/100000000"', {"family": "mpq", "m": 2, "p": 1, "q": 1, "c": ["1"]}), (0, 2)),
}


@pytest.mark.parametrize("field", ["exact", "float"])
@pytest.mark.parametrize("config", sorted(TINY_SCALE))
def test_tiny_scale_jet_reports_in_full(tmp_path, capsys, config, field):
    text, (delta_order, sigma_order) = TINY_SCALE[config]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_in_field(text, field))
    assert main(["report", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert None not in doc["curvatures"]["degrees"]
    assert doc["developable"]["applicable"] is True
    assert (doc["developable"]["delta_order"], doc["developable"]["sigma_order"]) == (delta_order, sigma_order)
    cylinder = "delta vanishes to reliable order; cylindrical to computed order"
    assert (cylinder in doc["flags"]) == (delta_order is None)
    if config.startswith("mp-"):
        assert doc["invariants"]["applicable"] is True and doc["verdicts"]["contour"]["vanishes"] is False


@pytest.mark.parametrize("config", sorted(TINY_SCALE))
def test_tiny_scale_jet_meshes(tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(TINY_SCALE[config][0])
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["curve.obj", "od_w.obj", "umbrella.obj"]


# Configs that report and mesh refuse in one line with exit code 2.
ONE_LINE_ERRORS = {
    # Unbounded input: rationals beyond the digit cap or not of the form
    # p/q (json.loads itself refuses an integer of 5001 digits) and windows
    # that are not finite.
    "json-integer-5001-digits": _jet_text("1" * 5001),
    "exponent-1e-5000": _jet_text('"1e-5000"'),
    "exponent-1e999999": _jet_text('"1e999999"'),
    "decimal-string": _jet_text('"0.5"'),
    "long-integer": _jet_text(TOO_LONG),
    "long-numerator": _jet_text(f'"-{TOO_LONG}/3"'),
    "long-denominator": _jet_text(f'"1/{TOO_LONG}"'),
    "infinite-window": _jet_text('"1"', mesh={"x_range": [-math.inf, math.inf]}),
    "nan-window": _jet_text('"1"', mesh={"u_range": [math.nan, 1]}),
}
#: Values within the digit cap whose float images pass the float range: the
#: exact report prints in full, the float report and the mesh are refused.
HUGE_VALUES = json.dumps(
    {
        "truncation": 6,
        "surface": {"a": {"0,2": LONGEST, "1,1": LONGEST, "0,3": "1"}, "b": {"3": LONGEST}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": [LONGEST, "1"]},
    }
)

#: Values within the digit cap whose case-(ii) constants E_scaled and
#: F_scaled, about 5e-593, fall below the float range: the exact report
#: prints in full, the float report is refused rather than print them as 0.0.
TINY_EF = json.dumps(
    {
        "truncation": 6,
        "surface": {"a": {"0,2": "1/" + LONGEST, "1,1": "1/" + LONGEST, "0,3": "1"}, "b": {"3": "1/" + LONGEST}},
        "curve": {"family": "mpq", "m": 2, "p": 1, "q": 1, "c": ["1/" + LONGEST, "1"]},
    }
)

#: Values within the digit cap whose delta top, |E_t(0)|^4 |N(0)|^5 times
#: smaller than the exact top R_top, passes the float range: a02 = 10^-99,
#: b3 = 10^99.  The analysis keeps the top exact; its report is refused.
HUGE_DELTA_TOP = json.dumps(
    {
        "truncation": 6,
        "surface": {"a": {"0,2": "1/" + LONGEST, "1,1": "1"}, "b": {"3": LONGEST}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1", "1"]},
    }
)

#: Values within the digit cap that no exact value of the report passes, but
#: whose float unit director is not finite: the curve (10^99 x^2 + x^3, x) on
#: a02 = a11 = 1.
NON_FINITE_DEVELOPABLE = json.dumps(
    {
        "truncation": 6,
        "surface": {"a": {"0,2": "1", "1,1": "1"}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": [LONGEST, "1"]},
    }
)
NON_FINITE_REASON = "values beyond the float range (the director has a non-finite coefficient)"


@pytest.mark.parametrize(
    "command, config",
    [(cmd, name) for name in ONE_LINE_ERRORS for cmd in ("report", "mesh")]
    + [("mesh", "huge-values"), ("verify", "general")],
)
def test_library_errors_exit_2_in_one_line(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text({**ONE_LINE_ERRORS, "huge-values": HUGE_VALUES, "general": GENERAL_CURVE}[config])
    argv = [command, str(cfg_path)] + (["--out", str(tmp_path / "out")] if command == "mesh" else [])
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert list(tmp_path.rglob("*.obj")) == []


def test_exact_report_of_huge_values_prints_in_full(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(HUGE_VALUES)
    assert main(["report", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    dev = report["developable"]
    assert dev["applicable"] is True
    assert (dev["delta_order"], dev["sigma_order"], dev["classification"]["case"]) == (
        0, 0, "sigma-top-guaranteed-nonzero"
    )
    assert report["curvatures"]["degrees"] == [0, 0, 0]
    assert all(top.startswith(("59999", "-35", "-2")) for top in report["curvatures"]["tops"])
    assert report["invariants"]["applicable"] is True
    assert report["verdicts"]["projection"]["verdict"] == "generic"
    assert report["verdicts"]["self_intersection"]["tangent_to_curve"] is False
    assert report["verdicts"]["contour"]["vanishes"] is False


def test_exact_report_of_tiny_case_ii_constants_prints_in_full(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(TINY_EF)
    assert main(["report", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    cls = json.loads(captured.out)["developable"]["classification"]
    assert cls["case"] == "ii"
    assert Fraction(cls["E_scaled"]) == Fraction(27, 5 * 10**593)
    assert Fraction(cls["F_scaled"]) == Fraction(27, 10**593)
    assert not any(flag.startswith("sigma top-term vanishes") for flag in json.loads(captured.out)["flags"])


def test_report_of_a_huge_delta_top_exits_2_in_both_fields(tmp_path, capsys):
    # The analysis keeps the top exact, so the developable exists; printing
    # its float is the one place that rounds, and it refuses in either field.
    cfg_path = tmp_path / "cfg.json"
    for field in ("exact", "float"):
        cfg_path.write_text(_in_field(HUGE_DELTA_TOP, field))
        assert main(["report", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "integer division result too large for a float\n"
    # The mesh reads only the float unit director, which is finite.
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["curve.obj", "od_w.obj", "umbrella.obj"]


def test_report_of_a_non_finite_float_director_prints_the_developable(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(NON_FINITE_DEVELOPABLE)
    assert main(["report", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    dev = report["developable"]
    assert (dev["applicable"], dev["delta_order"], dev["delta_top"]) == (True, 0, 2.0)
    assert (dev["sigma_order"], dev["sigma_top"]) == (0, 1.5e198)
    assert report["invariants"]["applicable"] is True


def test_mesh_of_a_non_finite_developable_names_the_developable(tmp_path, capsys):
    # Not the window: the director itself is not finite.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(NON_FINITE_DEVELOPABLE)
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == NON_FINITE_REASON + "\n"
    assert list(tmp_path.rglob("*.obj")) == []


# ---------------------------------------------------------------------------
# fixtures command and CLI surface
# ---------------------------------------------------------------------------


def test_fixtures_list(capsys):
    rc = main(["fixtures", "--list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("s1", "s2", "s3"):
        assert name + ":" in out


def test_fixtures_show(capsys):
    rc = main(["fixtures", "--show", "s2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["curve"]["c"] == ["1", "-2"]


@pytest.mark.parametrize("name", ["nope", "../fixtures/s1", "fixtures/s1", "s1.json", ""])
def test_fixtures_show_accepts_only_bundled_names(capsys, name):
    rc = main(["fixtures", "--show", name])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"fixtures: unknown fixture {name!r} (known: s1, s2, s3)\n"


def test_fixtures_list_and_show_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "--list", "--show", "s1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    parsers = []
    original = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert main(["fixtures", "--list"]) == main(["fixtures", "--show", "s1"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"truncation": 4}')
    rc = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid configuration" in err


@pytest.mark.parametrize("command", ["report", "verify", "mesh"])
def test_a_config_file_that_is_not_utf8_exits_2_in_one_line(tmp_path, capsys, command):
    # A UTF-16 file with its byte-order mark: the decoder fails on byte 0xff.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + fixture_text("s1").encode("utf-16-le"))
    out = tmp_path / "out"
    argv = [command, str(bad)] + (["--out", str(out)] if command == "mesh" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid configuration: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


def _with(doc_text: str, key: str, raw: str) -> str:
    """``doc_text`` with the JSON value of the string ``"KEY"`` replaced by the raw JSON ``raw``."""
    return doc_text.replace(f'"{key}"', raw)


#: 4299 digits: JSON reads it, but a product of two of them has more digits
#: than Python's ``int``/``str`` limit of 4300 lets a message print.
DIGITS_4299 = "9" * 4299
_PLAIN = json.dumps({"truncation": "T", "surface": {"a": {"0,2": "1"}}, "curve": {**MP_CURVE, "m": "M"}})

#: Configurations that raised a Python limit out of ``parse_config`` and
#: exited 1 with a traceback, with the problems each now reports.
RUNTIME_LIMIT_CONFIGS = {
    # The JSON decoder recurses once per level: RecursionError.
    "nested-arrays": (
        "[" * 100000 + "]" * 100000,
        ["not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"],
    ),
    # ``int`` of an index key past 4300 digits: ValueError.
    "a-key-5000-digits": (
        json.dumps({"truncation": 6, "surface": {"a": {"0,2": "1", "9" * 5000 + ",0": "1"}}, "curve": MP_CURVE}),
        [f"surface.a: bad index key {'9' * 5000 + ',0'!r} (expected 'i,j')"],
    ),
    "b-key-5000-digits": (
        json.dumps({"truncation": 6, "surface": {"a": {"0,2": "1"}, "b": {"9" * 5000: "1"}}, "curve": MP_CURVE}),
        [f"surface.b: bad index key {'9' * 5000!r}"],
    ),
    # The vertex budget message formats nx * ny: ValueError.
    "mesh-4299-digits": (
        _with(_with(_PLAIN, "T", "6"), "M", "1")[:-1] + f', "mesh": {{"nx": {DIGITS_4299}, "ny": {DIGITS_4299}}}}}',
        [
            f"mesh.nx: integer has more than {MAX_RATIONAL_DIGITS} digits",
            f"mesh.ny: integer has more than {MAX_RATIONAL_DIGITS} digits",
        ],
    ),
    # The series-order message formats m (truncation + 1) - 1: ValueError.
    "order-4299-digits": (
        _with(_with(_PLAIN, "T", DIGITS_4299), "M", DIGITS_4299),
        [
            f"truncation: integer has more than {MAX_RATIONAL_DIGITS} digits",
            f"curve.m: integer has more than {MAX_RATIONAL_DIGITS} digits",
        ],
    ),
}


@pytest.mark.parametrize("command", ["report", "verify", "mesh"])
@pytest.mark.parametrize("case", sorted(RUNTIME_LIMIT_CONFIGS))
def test_a_config_past_a_python_limit_exits_2_in_one_line(tmp_path, capsys, command, case):
    text, problems = RUNTIME_LIMIT_CONFIGS[case]
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == problems
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    argv = [command, str(cfg_path)] + (["--out", str(out)] if command == "mesh" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration: " + "; ".join(problems) + "\n"
    assert not out.exists()


def test_integers_and_indices_have_at_most_the_digit_cap():
    # Up to the cap the budget and index checks read the value as before.
    longest, too_long = "9" * MAX_RATIONAL_DIGITS, "1" + "0" * MAX_RATIONAL_DIGITS
    order = int(longest) * (int(longest) + 1) - 1  # m (truncation + 1) - 1
    with pytest.raises(ConfigError) as err:
        parse_config(_with(_with(_PLAIN, "T", longest), "M", longest))
    assert err.value.problems == [f"curve: series order m (truncation + 1) - 1 = {order} exceeds {MAX_SERIES_ORDER}"]
    with pytest.raises(ConfigError) as err:
        parse_config(_with(_with(_PLAIN, "T", too_long), "M", "1"))
    assert err.value.problems == [f"truncation: integer has more than {MAX_RATIONAL_DIGITS} digits"]
    mesh = _with(_with(_PLAIN, "T", "6"), "M", "1")[:-1] + ', "mesh": {"nu": NU, "nv": 2}}'
    with pytest.raises(ConfigError) as err:
        parse_config(mesh.replace("NU", longest))
    assert err.value.problems == [f"mesh: nu * nv = {2 * int(longest)} vertices exceed {MAX_MESH_VERTICES}"]
    with pytest.raises(ConfigError) as err:
        parse_config(mesh.replace("NU", too_long))
    assert err.value.problems == [f"mesh.nu: integer has more than {MAX_RATIONAL_DIGITS} digits"]
    for key, problem in ((longest, "surface: b index"), (too_long, "surface.b: bad index key")):
        doc = {"truncation": 6, "surface": {"a": {"0,2": "1"}, "b": {key: "1"}}, "curve": MP_CURVE}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert [p[: len(problem)] for p in err.value.problems] == [problem]


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_verify_and_mesh_ignore_the_field(tmp_path, capsys, name):
    # ``field`` is the print mode of ``report`` only: the verify table and
    # every OBJ byte are the same in both fields.
    outputs = {}
    for field in ("exact", "float"):
        cfg_path = tmp_path / f"{field}.json"
        cfg_path.write_text(json.dumps({**json.loads(fixture_text(name)), "field": field}))
        rc = main(["verify", str(cfg_path)])
        table = capsys.readouterr().out
        assert main(["mesh", str(cfg_path), "--out", str(tmp_path / field)]) == 0
        meshes = {obj: (tmp_path / field / obj).read_bytes() for obj in ("umbrella.obj", "curve.obj", "od_w.obj")}
        outputs[field] = (rc, table, meshes)
    assert outputs["exact"] == outputs["float"]
    assert outputs["exact"][0] == 0 and outputs["exact"][1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crosscap.cli", "fixtures", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "s1" in proc.stdout


# ---------------------------------------------------------------------------
# float field and general curves through the full report
# ---------------------------------------------------------------------------


def test_float_field_report():
    raw = json.loads(fixture_text("s1"))
    raw["field"] = "float"
    doc = build_report(parse_config(json.dumps(raw)))
    assert doc["curvatures"]["tops"] == [12.0, -6.0, 4.0]
    assert doc["curvatures"]["closed_form"]["top_match"] == [True, True, True]
    assert doc["curvatures"]["degrees"] == [0, 0, 0]


def _in_field(text, field):
    return json.dumps({**json.loads(text), "field": field})


# The float field prints the exact analysis, so it reports the tiny-scale
# jets in full (``test_tiny_scale_jet_reports_in_full``); it refuses the huge
# values, whose top-terms pass the float range when printed as floats, and
# the tiny case-(ii) constants, which would print as 0.0.
@pytest.mark.parametrize("config", ["huge-values", "tiny-values"])
def test_float_field_report_exits_2_in_one_line(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_in_field({"huge-values": HUGE_VALUES, "tiny-values": TINY_EF}[config], "float"))
    assert main(["report", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


#: The curve (c0 x^2, x) with c0 = 1/1000 on the cross-cap a02 = 1/10^5 at
#: truncation 8: kappa3's exact top is -19999/10^15, below the float zero
#: tolerance 1e-9.
TINY_TOP_TWIN = json.dumps(
    {
        "truncation": 8,
        "surface": {"a": {"0,2": "1/100000"}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1/1000"]},
    }
)


def test_float_field_reports_the_exact_degrees_of_a_tiny_top(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_in_field(TINY_TOP_TWIN, "float"))
    assert main(["report", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curvatures"]["degrees"] == [1, 0, 0]
    assert doc["curvatures"]["tops"][2] == -19999 / 10**15
    assert not any(flag.startswith("NON-GENERIC") for flag in doc["flags"])


#: b3 = 1 + 10^-12 puts the contour coefficient C at 1/(2 10^12): nonzero,
#: but below the float zero tolerance 1e-9.
SMALL_CONTOUR = json.dumps(
    {
        "truncation": 6,
        "surface": {"a": {"0,2": "1"}, "b": {"3": "1000000000001/1000000000000"}},
        "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1/2"]},
    }
)


@pytest.mark.parametrize("field, exact_coefficient", [("exact", "1/2000000000000"), ("float", 5e-13)])
def test_contour_vanishes_only_when_its_exact_coefficient_does(field, exact_coefficient):
    contour = build_report(parse_config(_in_field(SMALL_CONTOUR, field)))["verdicts"]["contour"]
    assert contour["exact_coefficient"] == exact_coefficient
    assert contour["vanishes"] is False


def test_general_curve_report():
    cfg = parse_config(
        json.dumps(
            {
                "truncation": 6,
                "surface": {"a": {"0,2": "2", "1,1": "1"}},
                "curve": {"family": "general", "c1": ["0", "0", "1", "1"], "c2": ["0", "1"]},
            }
        )
    )
    doc = build_report(cfg)
    assert doc["tangency"]["case"] == 3
    assert doc["curvatures"]["closed_form"]["applicable"] is False
    assert doc["invariants"]["applicable"] is False
    assert doc["developable"]["applicable"] is True
    # ((1 + x) x^2, x) has a vanishing tangential invariant: degree jumps to 1
    assert doc["curvatures"]["degrees"][0] == 1
    assert parse_config(json.dumps(config_to_dict(cfg))) == cfg


def test_general_curve_polynomial_reliability():
    cfg = parse_config(
        json.dumps(
            {
                "truncation": 6,
                "surface": {"a": {"0,2": "2"}},
                "curve": {"family": "general", "c1": ["0", "0", "1"], "c2": ["0", "1"]},
            }
        )
    )
    # coefficient lists are exact polynomials: reliability extends to
    # m_min (k + 1) - 1 like the family constructors
    assert cfg.spec.c1 == (0, 0, 1) and cfg.spec.c2 == (0, 1)
    c1, c2 = Analysis(cfg.coeffs, cfg.spec).curve
    assert c1.reliable_order == 6
    assert c2.reliable_order == 6


def test_general_curve_requires_origin():
    with pytest.raises(ConfigError, match="origin|vanish"):
        parse_config(
            json.dumps(
                {
                    "truncation": 5,
                    "surface": {"a": {"0,2": "2"}},
                    "curve": {"family": "general", "c1": ["1", "1"], "c2": ["0", "1"]},
                }
            )
        )


def test_general_curve_past_the_series_order_is_analysed(tmp_path, capsys):
    # x^12 keeps no term up to the series order m (k + 1) - 1 = 4, but the
    # curve is the exact pair (x^12, x): it is reported, and its echo gives
    # the components as they were given.
    c1 = ["0"] * 12 + ["1"]
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(
        json.dumps(
            {
                "truncation": 4,
                "surface": {"a": {"0,2": "1"}},
                "curve": {"family": "general", "c1": c1, "c2": ["0", "1", "0"]},
            }
        )
    )
    assert main(["report", str(cfg_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["curve"] == {"family": "general", "c1": c1, "c2": ["0", "1", "0"]}
    assert doc["series_order"] == 4 and doc["tangency"]["case"] == 4


# ---------------------------------------------------------------------------
# cost budget
# ---------------------------------------------------------------------------

# m = 1, so the series order m (truncation + 1) - 1 is the truncation.
BUDGET_CURVES = {
    "mp": {"family": "mp", "m": 1, "p": 2, "c": ["1"]},
    "general": {"family": "general", "c1": ["0", "1"], "c2": ["0", "0", "1"]},
}


def _budget_config(truncation, curve, mesh=None):
    doc = {"truncation": truncation, "surface": {"a": {"0,2": "1"}}, "curve": curve}
    if mesh is not None:
        doc["mesh"] = mesh
    return json.dumps(doc)


@pytest.mark.parametrize("family", sorted(BUDGET_CURVES))
def test_series_order_cap(family):
    cfg = parse_config(_budget_config(MAX_SERIES_ORDER, BUDGET_CURVES[family]))
    assert cfg.coeffs.degree == MAX_SERIES_ORDER
    with pytest.raises(ConfigError) as err:
        parse_config(_budget_config(MAX_SERIES_ORDER + 1, BUDGET_CURVES[family]))
    assert err.value.problems == [
        f"curve: series order m (truncation + 1) - 1 = {MAX_SERIES_ORDER + 1} "
        f"exceeds {MAX_SERIES_ORDER}"
    ]


def test_series_order_cap_counts_the_multiplicity():
    # m = 2: truncation t gives order 2 t + 1
    curve = {"family": "mpq", "m": 2, "p": 1, "q": 1, "c": ["1"]}
    top = (MAX_SERIES_ORDER - 1) // 2
    parse_config(_budget_config(top, curve))
    with pytest.raises(ConfigError, match=f"= {2 * top + 3} exceeds"):
        parse_config(_budget_config(top + 1, curve))


@pytest.mark.parametrize(
    "curve, name",
    [
        ({"family": "mp", "m": 1, "p": 2}, "c"),
        ({"family": "mpq", "m": 2, "p": 1, "q": 1}, "c"),
        ({"family": "general", "c2": ["0", "1"]}, "c1"),
        ({"family": "general", "c1": ["0", "1"]}, "c2"),
    ],
)
def test_curve_coefficient_list_cap(tmp_path, capsys, curve, name):
    # An entry past index MAX_SERIES_ORDER can never reach a series.
    first = "0" if curve["family"] == "general" else "1"  # c_0 != 0, or a general curve through 0
    longest = [first] + ["1"] * MAX_SERIES_ORDER
    parse_config(_budget_config(4, {**curve, name: longest}))
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(_budget_config(4, {**curve, name: longest + ["1"]}))
    with pytest.raises(ConfigError) as err:
        parse_config(cfg_path.read_text())
    assert err.value.problems == [f"curve.{name}: more than {MAX_SERIES_ORDER + 1} entries"]
    assert main(["report", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid configuration: curve.{name}: more than {MAX_SERIES_ORDER + 1} entries\n"


def _factor_pair(n):
    d = next(d for d in range(2, n) if n % d == 0)
    return d, n // d


@pytest.mark.parametrize("keys", [("nu", "nv"), ("nx", "ny"), ("curve_samples",)])
def test_mesh_vertex_cap(keys):
    def mesh(vertices):
        return dict(zip(keys, _factor_pair(vertices) if len(keys) == 2 else (vertices,)))

    cfg = parse_config(_budget_config(4, BUDGET_CURVES["mp"], mesh(MAX_MESH_VERTICES)))
    assert cfg.mesh == MeshOptions(**mesh(MAX_MESH_VERTICES))
    with pytest.raises(ConfigError) as err:
        parse_config(_budget_config(4, BUDGET_CURVES["mp"], mesh(MAX_MESH_VERTICES + 1)))
    assert err.value.problems == [
        f"mesh: {' * '.join(keys)} = {MAX_MESH_VERTICES + 1} vertices exceed {MAX_MESH_VERTICES}"
    ]


def test_budget_admits_the_benchmark_inputs():
    # The densest benchmark inputs: series order 50 (mp m = 3 at truncation
    # 16) and the 81 x 81 umbrella, 81 x 41 developable and 161 curve
    # samples of the denser meshes.  The fixtures parse in
    # test_bundled_fixtures_parse.
    dense = {"nx": 81, "ny": 41, "nu": 81, "nv": 81, "curve_samples": 161}
    parse_config(_budget_config(16, {"family": "mp", "m": 3, "p": 2, "c": ["1"]}, dense))


def test_budget_exits_2_from_the_cli(tmp_path, capsys):
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(_budget_config(MAX_SERIES_ORDER + 1, BUDGET_CURVES["mp"]))
    assert main(["report", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err and "Traceback" not in captured.err


CONFIG_ERRORS = {
    "over-cap": (
        _budget_config(MAX_SERIES_ORDER + 1, BUDGET_CURVES["mp"]),
        [f"curve: series order m (truncation + 1) - 1 = {MAX_SERIES_ORDER + 1} exceeds {MAX_SERIES_ORDER}"],
    ),
    "two-problems": (
        json.dumps(
            {
                "truncation": 4,
                "surface": {"a": {"0,2": "1"}},
                "curve": {"family": "mp", "m": 1, "p": 2, "c": ["1"]},
                "field": "double",
                "bogus": 1,
            }
        ),
        ["top level: unknown key 'bogus'", "field: must be 'exact' or 'float'"],
    ),
    # An unhashable family tag raised TypeError (found by tests/test_fuzz.py).
    "list-family": (
        _budget_config(4, {"family": [], "m": 1, "p": 2, "c": ["1"]}),
        ["curve.family: must be 'mpq', 'mp' or 'general'"],
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_prints_one_line(tmp_path, capsys, case):
    text, problems = CONFIG_ERRORS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["report", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid configuration: " + "; ".join(problems) + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == problems
