import json
import os
import subprocess
import sys

import pytest

from crosscap import ConfigError, parse_config
from crosscap.cli import MAX_DRAWS, fixture_names, fixture_text, main
from crosscap.config import MAX_MESH_VERTICES, MAX_SERIES_ORDER, MeshOptions, config_to_dict
from crosscap.report import build_report, render_report
from crosscap.verify import PASS, verify_fixture


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
    row = verify_fixture(cfg.coeffs, cfg.spec)
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


GENERAL_CURVE = (
    '{"truncation": 4, "surface": {"a": {"0,2": "1"}},'
    ' "curve": {"family": "general", "c1": ["0", "1"], "c2": ["0", "0", "1"]}}'
)


def test_verify_rejects_general_curve(tmp_path, capsys):
    cfg_path = tmp_path / "general.json"
    cfg_path.write_text(GENERAL_CURVE)
    assert main(["verify", str(cfg_path)]) == 2
    assert "general curves" in capsys.readouterr().err
    assert main(["verify"]) == 2
    assert "provide a config file or --sweep" in capsys.readouterr().err


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


# Valid exact configs whose float frame or striction scale is too small for
# the float zero test: the analysis cannot be completed, which the CLI reports
# in one line with exit code 2.
TINY_SCALE = {
    "mp-c1e-5": ("1/100000000", {"family": "mp", "m": 1, "p": 2, "c": ["1/100000"]}),
    "mp-a1e-12": ("1/1000000000000", {"family": "mp", "m": 1, "p": 2, "c": ["1"]}),
    "mpq-a1e-8": ("1/100000000", {"family": "mpq", "m": 2, "p": 1, "q": 1, "c": ["1"]}),
}


@pytest.mark.parametrize(
    "command, config",
    [(cmd, name) for name in TINY_SCALE for cmd in ("report", "mesh")] + [("verify", "general")],
)
def test_library_errors_exit_2_in_one_line(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "cfg.json"
    if config == "general":
        cfg_path.write_text(GENERAL_CURVE)
    else:
        a02, curve = TINY_SCALE[config]
        cfg_path.write_text(
            json.dumps({"truncation": 6, "surface": {"a": {"0,2": a02}}, "curve": curve})
        )
    argv = [command, str(cfg_path)] + (["--out", str(tmp_path / "out")] if command == "mesh" else [])
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
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


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"truncation": 4}')
    rc = main(["report", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid configuration" in err


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
    assert cfg.spec.c1.reliable_order == 6
    assert cfg.spec.c2.reliable_order == 6


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


def test_general_curve_names_a_truncated_component():
    # x^12 keeps no term below the reliable order m (k + 1) - 1 = 4
    with pytest.raises(ConfigError, match="component c1 vanishes to its reliable order 4"):
        parse_config(
            json.dumps(
                {
                    "truncation": 4,
                    "surface": {"a": {"0,2": "1"}},
                    "curve": {"family": "general", "c1": ["0"] * 12 + ["1"], "c2": ["0", "1"]},
                }
            )
        )


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
