"""Record ``goldens.json``: the outputs every benchmark job is checked against.

    python3 bench/record_goldens.py

Runs every job of the recorded universe once (all SWEEP_UNIVERSE sweep
seeds, every dense jet variant in the exact field, every fixture command and
denser-mesh window) and stores what the checks compare.  Record only at a
commit whose outputs are trusted: the goldens define "correct" for every
later run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads
from worker import GOLDENS, RUN_DIR, import_crosscap


def universe(cc, workdir):
    yield "sweep", [workloads.sweep_job(cc, s) for s in range(workloads.SWEEP_UNIVERSE)]
    yield "dense", [
        workloads.dense_job(cc, shape, variant, "exact")
        for shape in range(len(workloads.DENSE_SHAPES))
        for variant in range(workloads.DENSE_VARIANTS)
    ]
    picks = [(cmd, name, None) for name in workloads.FIXTURES for cmd in workloads.CLI_COMMANDS]
    picks += [
        ("mesh", name, scale)
        for name in workloads.FIXTURES
        for scale in range(len(workloads.DENSE_MESH_SCALES))
    ]
    yield "fixtures_cli", [workloads.fixture_job(cc, workdir, *pick) for pick in picks]


def main() -> int:
    cc = import_crosscap()
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=RUN_DIR)
    sections = {}
    try:
        for section, jobs in universe(cc, workdir):
            sections[section] = {job.key: job.record(job.run()) for job in jobs}
            sys.stderr.write(f"{section}: {len(jobs)} outputs recorded\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n")
        for i, (section, entries) in enumerate(sections.items()):
            fh.write(f"{json.dumps(section)}: {{\n")
            lines = [
                f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                for key, value in entries.items()
            ]
            fh.write(",\n".join(lines))
            fh.write("\n}" + (",\n" if i < len(sections) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
