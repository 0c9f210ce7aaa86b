"""The staged analysis computes each quantity once, and only what is read.

Each case counts calls through every ``crosscap`` module binding of the
counted function, so a consumer that rebuilds a stage by hand is counted too.
"""

import json
import sys

import pytest

from crosscap import frame, parse_config, series
from crosscap.cli import fixture_text, main
from crosscap.report import build_report
from crosscap.verify import verify_fixture


def count_calls(monkeypatch, module, name):
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "crosscap" or mod_name.startswith("crosscap."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.fixture
def calls(monkeypatch):
    return {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            (series, "compose_bi"),
            (frame, "curvature_numerators"),
            (frame, "darboux_frame"),
        )
    }


def fixture_config(name, field="exact"):
    raw = json.loads(fixture_text(name))
    raw["field"] = field
    return parse_config(json.dumps(raw))


@pytest.mark.parametrize(
    "name, field, compose, numerators",
    [("s1", "exact", 9, 1), ("s1", "float", 12, 1), ("s3", "exact", 6, 1)],
)
def test_report_computes_each_stage_once(calls, name, field, compose, numerators):
    build_report(fixture_config(name, field))
    assert len(calls["compose_bi"]) == compose
    assert len(calls["curvature_numerators"]) == numerators


def test_mesh_composes_only_the_image_and_the_normal(calls, tmp_path):
    cfg_path = tmp_path / "s1.json"
    cfg_path.write_text(fixture_text("s1"))
    assert main(["mesh", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls["compose_bi"]) == 6


def test_verify_skips_the_float_frame(calls):
    cfg = fixture_config("s1")
    assert verify_fixture(cfg.coeffs, cfg.spec).status == "PASS"
    assert len(calls["compose_bi"]) == 6
    assert len(calls["curvature_numerators"]) == 1
    assert calls["darboux_frame"] == []
