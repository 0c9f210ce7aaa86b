"""Pinned SHA-256 digests of the CLI outputs, and a check of them without pytest.

The digests are those of ``crosscap report`` (exact and float field),
``crosscap mesh`` and ``crosscap verify --sweep --seed 0`` on the bundled
fixtures, of ``report`` (both fields) and ``mesh`` on one general curve
(``GENERAL_CURVE``), of ``verify --sweep --seed 1``, one digest per field
over the 128 dense reports of the benchmark's jet universe
(``bench/workloads.dense_config``: 16 shapes x 8 draws, truncation 8 to 16),
and one digest over the benchmark's denser meshes
(``bench/workloads.dense_mesh_config``: each fixture at each window scale).
Two more pins are too slow for every test run: the 1000-draw sweep
(``SWEEP_1000_SHA256``) and the s1 meshes at the vertex cap
(``VERTEX_CAP_MESH_SHA256``).  A change that alters these bytes on purpose
records the new digests here and says why in CHANGES.md.
``tests/test_output_bytes.py`` checks each other digest with the functions
below.

    PYTHONHASHSEED=4242 python3 tests/output_digests.py

recomputes every digest, those two included (about 11 s on a 2-core host),
with the standard library alone, prints one line per digest and exits 1 if
any differs, naming each mismatch; so it runs under any supported Python,
with or without pytest installed.  CI runs it so, under one fixed hash
seed, on every Python it tests: an output that hung on set or hash order
would then fail on every run, not now and then.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

REPORT_SHA256 = {
    ("s1", "exact"): "3fb1739a0322575216472acb0493d07b9081082ccafd7962ac4af890a4df4ae9",
    ("s1", "float"): "bef9ac2685e19ac4fcd75fce24d21251bc625515686d051bbcfc6bcf11c25f2d",
    ("s2", "exact"): "fd9bbb3de3ca45ce8ba6869badb499fe4c6a099b6985ab1cdd7e83807b8c1809",
    ("s2", "float"): "911e669f8a0a06976019a5163e8431484badb1b327b917e56556dc034551d2e2",
    ("s3", "exact"): "50a6958d9589bc742dcd5108ccbe6ae1be5612f06e96bff39ea473728f849224",
    ("s3", "float"): "0c2a6d8c865be71ef6bd2804ad87902a4d43cfacf45aee5ee4076dfebf69444a",
    ("general", "exact"): "2af2226467b347f30f287554795699486bfed5dc7bc49277f564c8edc1907096",
    ("general", "float"): "5a469ef5a22cd847b88f58b1d39aff068af547d3a528d97569ffa7012a14446e",
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
    "general": {
        "umbrella.obj": "63ec0182c9a96c4d8caf42e4edc79f395653ff21b382226ccc2d3be27f696f2d",
        "curve.obj": "1c859ef624b6f68bb9f59bdd3c92c82234771f57d3d8b9bf9b1225d582668c7f",
        "od_w.obj": "0434be4a62b7bdd39844856bc53fc38a9275d012f99c1dc0e9701c356b8789d7",
    },
}

#: The one general curve of the pinned outputs, given by its exact
#: coefficient lists; ``tests/test_reachability.py`` runs it too.
GENERAL_CURVE = {
    "truncation": 6,
    "surface": {"a": {"0,2": "2", "1,1": "1"}, "b": {"3": "1"}},
    "curve": {"family": "general", "c1": ["0", "0", "1", "1/2"], "c2": ["0", "1"]},
}

SWEEP_SHA256 = {
    0: "45a90c92af4967d2adb75002bfa5e42837efec2105f59303fa2854521642b86d",
    1: "86b96a5441f548f170922f53c7c7c5c1ca7f7374c89aa637c672ee1021d2b660",
}

#: The stdout of ``verify --sweep --seed 0 --draws 1000``: 9000 rows that pin
#: every rung of verify's ladder across all nine subcases.
SWEEP_1000_SHA256 = "3fd813e5a7512a6e1c97f0910184caf2ac58c424f20104e4ee1322395809e0e4"

#: ``mesh`` of s1 with every mesh at the vertex cap (500 x 500 grids, 250000
#: curve samples), file by file: the resource bound the README documents.
VERTEX_CAP_MESH_SHA256 = {
    "umbrella.obj": "d73784daf4867f0ed8c529300874ff1336f6ebe3d84d4dee45284735d1a7ca33",
    "curve.obj": "aef811f527b24344ff5eb19b91422198dbe66e17707ccf3f4165fa68756dccdb",
    "od_w.obj": "c9391aa1a0b3f8edefad1a96ac0830161e6d2bed49d115b2a29d1f44d97482d9",
}

#: One digest per field over the concatenated dense reports, shape by shape
#: and draw by draw.
DENSE_REPORTS_SHA256 = {
    "exact": "3e05dbb996da71f2bd38840b8aa84771bd7afa61393408861d6e8458b70c50ce",
    "float": "64183aa762ac5ce03cbae0719a62d4d15a869ac6c81f0a77036a9c1a893b4766",
}


#: One digest over the ``umbrella.obj``, ``curve.obj`` and ``od_w.obj`` bytes
#: of ``crosscap mesh``, fixture by fixture and window scale by window scale.
DENSE_MESHES_SHA256 = "584a2694a4c671b0a706973cd4de781db348a3acaa43e01792cd2a9b3be9927f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_in_field(workdir: str, name: str, field: str) -> str:
    """The path of a copy of fixture ``name`` in ``workdir`` with its ``field`` set.

    The name ``"general"`` stands for ``GENERAL_CURVE``.
    """
    from crosscap.cli import fixture_text

    doc = dict(GENERAL_CURVE) if name == "general" else json.loads(fixture_text(name))
    doc["field"] = field
    path = os.path.join(workdir, f"{name}-{field}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def _run(argv) -> str:
    """The stdout of ``crosscap`` on ``argv``, which must exit 0."""
    from crosscap.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"crosscap {' '.join(argv)} exited {code}")
    return out.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def report_digest(workdir: str, name: str, field: str) -> str:
    out = os.path.join(workdir, f"report-{name}-{field}.json")
    _run(["report", fixture_in_field(workdir, name, field), "--out", out])
    return sha256(_read(out))


def mesh_digests(workdir: str, name: str) -> dict:
    out = os.path.join(workdir, f"mesh-{name}")
    _run(["mesh", fixture_in_field(workdir, name, "exact"), "--out", out])
    return {obj: sha256(_read(os.path.join(out, obj))) for obj in MESH_SHA256[name]}


def dense_mesh_digest(workdir: str) -> str:
    import workloads
    from crosscap.cli import fixture_text

    digest = hashlib.sha256()
    config = os.path.join(workdir, "dense.json")
    for name in workloads.FIXTURES:
        for scale in range(len(workloads.DENSE_MESH_SCALES)):
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(workloads.dense_mesh_config(fixture_text(name), scale))
            out = os.path.join(workdir, f"dense-{name}-{scale}")
            _run(["mesh", config, "--out", out])
            for obj in workloads.MESH_FILES:
                digest.update(_read(os.path.join(out, obj)))
    return digest.hexdigest()


def sweep_digest(seed: int, draws: int = 10) -> str:
    return sha256(_run(["verify", "--sweep", "--seed", str(seed), "--draws", str(draws)]).encode())


def vertex_cap_mesh_digests(workdir: str) -> dict:
    from crosscap.cli import fixture_text

    doc = json.loads(fixture_text("s1"))
    doc["mesh"] = {"nu": 500, "nv": 500, "nx": 500, "ny": 500, "curve_samples": 250000}
    config = os.path.join(workdir, "cap.json")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    out = os.path.join(workdir, "cap")
    _run(["mesh", config, "--out", out])
    return {obj: sha256(_read(os.path.join(out, obj))) for obj in VERTEX_CAP_MESH_SHA256}


def dense_report_digest(field: str) -> str:
    import workloads
    from crosscap import parse_config
    from crosscap.report import build_report, render_report

    digest = hashlib.sha256()
    for shape in range(len(workloads.DENSE_SHAPES)):
        for variant in range(workloads.DENSE_VARIANTS):
            cfg = parse_config(workloads.dense_config(shape, variant, field))
            digest.update(render_report(build_report(cfg)).encode())
    return digest.hexdigest()


def main() -> int:
    checks = []
    with tempfile.TemporaryDirectory() as workdir:
        for (name, field), want in sorted(REPORT_SHA256.items()):
            checks.append((f"report {name} {field}", report_digest(workdir, name, field), want))
        for name, files in sorted(MESH_SHA256.items()):
            got = mesh_digests(workdir, name)
            checks += [(f"mesh {name} {obj}", got[obj], want) for obj, want in files.items()]
        for seed, want in sorted(SWEEP_SHA256.items()):
            checks.append((f"verify --sweep --seed {seed}", sweep_digest(seed), want))
        for field, want in sorted(DENSE_REPORTS_SHA256.items()):
            checks.append((f"dense reports {field}", dense_report_digest(field), want))
        checks.append(("dense meshes", dense_mesh_digest(workdir), DENSE_MESHES_SHA256))
        checks.append(("verify --sweep --seed 0 --draws 1000", sweep_digest(0, 1000), SWEEP_1000_SHA256))
        got = vertex_cap_mesh_digests(workdir)
        checks += [(f"vertex-cap mesh s1 {obj}", got[obj], want) for obj, want in VERTEX_CAP_MESH_SHA256.items()]
    mismatches = [label for label, got, want in checks if got != want]
    for label, got, want in checks:
        print(f"{'ok' if got == want else 'MISMATCH'} {label}: {got}" + ("" if got == want else f" (pinned {want})"))
    print(f"{len(checks) - len(mismatches)} of {len(checks)} digests match; Python {sys.version.split()[0]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_root, "src"), os.path.join(_root, "bench")]
    sys.exit(main())
