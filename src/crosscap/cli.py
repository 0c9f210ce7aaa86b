"""Command-line interface: report, verify, mesh and fixtures subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from .config import ConfigError, RunConfig, MeshOptions, parse_config
from .report import build_report, render_report
from .verify import has_hard_failure, render_rows, run_sweep, verify_fixture
from .series import SeriesError
from .model import GeneralCurve, ModelError
from .frame import FrameError
from .invariants import InvariantError
from .developable import DevelopableError
from .pipeline import analyze
from .obj import (
    MeshError,
    obj_mesh_text,
    obj_polyline_text,
    sample_curve_polyline,
    sample_ruled_surface,
    sample_surface_patch,
    write_obj,
)


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_report(args) -> int:
    cfg = _load_config(args.config)
    doc = build_report(cfg)
    text = render_report(doc)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.sweep:
        rows = run_sweep(seed=args.seed, draws=args.draws)
    else:
        if not args.config:
            sys.stderr.write("verify: provide a config file or --sweep\n")
            return 2
        cfg = _load_config(args.config)
        if isinstance(cfg.spec, GeneralCurve):
            sys.stderr.write("verify: general curves have no closed forms to verify against\n")
            return 2
        rows = [verify_fixture(cfg.coeffs, cfg.spec)]
    sys.stdout.write(render_rows(rows))
    return 1 if has_hard_failure(rows) else 0


def _cmd_mesh(args) -> int:
    cfg = _load_config(args.config)
    mesh = cfg.mesh or MeshOptions()
    analysis = analyze(cfg.coeffs, cfg.spec)
    ruled = analysis.ruled  # fails before any file is written when there is no developable
    os.makedirs(args.out, exist_ok=True)

    patch = sample_surface_patch(analysis.W, mesh.u_range, mesh.v_range, mesh.nu, mesh.nv)
    write_obj(os.path.join(args.out, "umbrella.obj"), obj_mesh_text(patch))

    curve_pts = sample_curve_polyline(analysis.image, mesh.x_range, mesh.curve_samples)
    write_obj(os.path.join(args.out, "curve.obj"), obj_polyline_text(curve_pts))

    od = sample_ruled_surface(ruled, mesh.x_range, mesh.y_range, mesh.nx, mesh.ny)
    write_obj(os.path.join(args.out, "od_w.obj"), obj_mesh_text(od))
    return 0


def fixture_names() -> list:
    root = resources.files("crosscap").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def fixture_text(name: str) -> str:
    return resources.files("crosscap").joinpath("fixtures", name + ".json").read_text()


def _cmd_fixtures(args) -> int:
    if args.show:
        sys.stdout.write(fixture_text(args.show))
        return 0
    for name in fixture_names():
        cfg = parse_config(fixture_text(name))
        desc = cfg.description or ""
        sys.stdout.write(f"{name}: {desc}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crosscap",
        description=(
            "Invariants of curves passing through a cross-cap surface singularity: "
            "frame curvatures with divergence degrees and top-terms, projection/"
            "self-intersection/contour verdicts, and the osculating developable."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full invariant report as JSON")
    p_report.add_argument("config", help="JSON configuration file")
    p_report.add_argument("--out", help="write to a file instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser("verify", help="oracle vs closed-form comparison table")
    p_verify.add_argument("config", nargs="?", help="JSON configuration file")
    p_verify.add_argument("--sweep", action="store_true", help="run the seeded sweep over all subcases")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--draws", type=int, default=10)
    p_verify.set_defaults(func=_cmd_verify)

    p_mesh = sub.add_parser("mesh", help="export umbrella.obj, curve.obj and od_w.obj")
    p_mesh.add_argument("config", help="JSON configuration file")
    p_mesh.add_argument("--out", required=True, help="output directory")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_fix = sub.add_parser("fixtures", help="bundled fixture configurations")
    p_fix.add_argument("--list", action="store_true", help="list bundled fixtures")
    p_fix.add_argument("--show", metavar="NAME", help="print one fixture's JSON")
    p_fix.set_defaults(func=_cmd_fixtures)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        SeriesError,
        ModelError,
        FrameError,
        InvariantError,
        DevelopableError,
        MeshError,
    ) as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
