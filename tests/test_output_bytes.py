"""Byte-identity gate: SHA-256 of CLI outputs that a refactor must not change.

The digests are those of ``crosscap report`` (exact and float field),
``crosscap mesh`` and ``crosscap verify --sweep --seed 0`` on the bundled
fixtures.  A change that alters these bytes on purpose records the new
digests here and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from crosscap.cli import fixture_text, main

REPORT_SHA256 = {
    ("s1", "exact"): "56de40a30299280664ecd20d818c743dd3303e9bff44e1d4ec8af08166473425",
    ("s1", "float"): "204f2560b12205c222b14db968c9173ef722ce935f3e6481daa8bad9daba9e6b",
    ("s2", "exact"): "7161438a012547e3fa4bb35d2c21e9845aebcd044e5f76d614b0dd029ab77a79",
    ("s2", "float"): "7077d720e7157af9b611e5738bb3f0217900b761813cee22bb5960066b6c483d",
    ("s3", "exact"): "50a6958d9589bc742dcd5108ccbe6ae1be5612f06e96bff39ea473728f849224",
    ("s3", "float"): "c9becc70c1a0b7607aa97809777d9ed83388b984355c82de23321e3f87af4578",
}

MESH_SHA256 = {
    "s1": {
        "umbrella.obj": "f9809e4ebad4a2554ce9f6773ba3e9f163e145233828bb113b400aba64024095",
        "curve.obj": "3dccd2a885cf6517d7e992b5446596f8639960c4f5768b6590dff774ccff2ced",
        "od_w.obj": "50f427cc54bcb514d6a2b82892d06800692ff7bce28f60c3880b831b61f52186",
    },
    "s2": {
        "umbrella.obj": "6d440c14c603a9a576c1f43ba7152682df10adf87e0951c2e0efd2c44e41cb2b",
        "curve.obj": "a8f942de08d52963319cd66fea5fd070b3e6a6928280db56e2332cf2f739a924",
        "od_w.obj": "4ad0b96c181e1d764b707ea5be4a6717aff2965a51482786833553aad49e8aa6",
    },
    "s3": {
        "umbrella.obj": "5b4010ea8ab779c1be83dd1fc692f27590d40c9dbb36d52657d67168864c246c",
        "curve.obj": "9ec89fcf7b8edd4821e5d9ee3c6ce9acfad1d8e5d187a5599f141ad452dd8cc7",
        "od_w.obj": "8c94dede169d093e4792f63619eb7a72a94879aa423cf1ee0521d632ec0e350b",
    },
}

SWEEP_SEED_0_SHA256 = "45a90c92af4967d2adb75002bfa5e42837efec2105f59303fa2854521642b86d"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fixture_in_field(tmp_path, name, field):
    doc = json.loads(fixture_text(name))
    doc["field"] = field
    path = tmp_path / f"{name}-{field}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, field", sorted(REPORT_SHA256))
def test_report_bytes(tmp_path, name, field):
    out = tmp_path / "report.json"
    assert main(["report", _fixture_in_field(tmp_path, name, field), "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == REPORT_SHA256[name, field]


@pytest.mark.parametrize("name", sorted(MESH_SHA256))
def test_mesh_bytes(tmp_path, name):
    out = tmp_path / "mesh"
    assert main(["mesh", _fixture_in_field(tmp_path, name, "exact"), "--out", str(out)]) == 0
    digests = {obj: _sha256((out / obj).read_bytes()) for obj in MESH_SHA256[name]}
    assert digests == MESH_SHA256[name]


def test_verify_sweep_bytes(capsys):
    assert main(["verify", "--sweep", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == SWEEP_SEED_0_SHA256
