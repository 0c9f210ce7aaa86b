"""Command-line interface: report, verify, mesh and fixtures subcommands."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .config import ConfigError, RunConfig, MeshOptions, parse_config
from .report import build_report, render_report
from .verify import has_hard_failure, has_undetermined, render_rows, run_sweep, verify_fixture
from .series import CrosscapError
from .pipeline import analyze
from .developable import DevelopableError
from .obj import (
    obj_mesh_text,
    obj_polyline_text,
    osculating_surface,
    sample_curve_polyline,
    sample_ruled_surface,
    sample_surface_patch,
    write_obj,
)


#: Largest ``verify --sweep --draws``.  Each draw adds one row per subcase,
#: nine rows of exact work; 1000 draws take about 5 s of wall time
#: (4.5-7.3 s over five runs) on a shared 2-core x86_64 host with Python 3.11.7.
MAX_DRAWS = 1000


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"not UTF-8 text: {exc}"]) from None
    return parse_config(text)


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
        if args.config:
            sys.stderr.write("verify: give a config file or --sweep, not both\n")
            return 2
        draws = 10 if args.draws is None else args.draws
        if draws < 1:
            sys.stderr.write("verify: --draws must be >= 1\n")
            return 2
        if draws > MAX_DRAWS:
            sys.stderr.write(f"verify: --draws must be <= {MAX_DRAWS}\n")
            return 2
        rows = run_sweep(seed=0 if args.seed is None else args.seed, draws=draws)
    else:
        if not args.config:
            sys.stderr.write("verify: provide a config file or --sweep\n")
            return 2
        if args.seed is not None or args.draws is not None:
            sys.stderr.write("verify: --seed and --draws apply only to --sweep\n")
            return 2
        cfg = _load_config(args.config)
        rows = [verify_fixture(analyze(cfg.coeffs, cfg.spec))]
    sys.stdout.write(render_rows(rows))
    if has_hard_failure(rows):
        return 1
    if has_undetermined(rows):
        sys.stderr.write("verify: a degree is undetermined: the jet is too short; raise the truncation\n")
        return 2
    return 0


def _cmd_mesh(args) -> int:
    cfg = _load_config(args.config)
    mesh = cfg.mesh or MeshOptions()
    analysis = analyze(cfg.coeffs, cfg.spec)
    d = analysis.developable  # fails first when the curve has no developable
    if d is None:
        raise DevelopableError(analysis.reasons["developable"])
    ruled = osculating_surface(analysis.image, d.director)
    # Every mesh is sampled and formatted before any file is written, so a
    # refusal (no developable, a non-finite vertex) leaves no partial output;
    # each grid is dropped as soon as its text is formatted.
    texts = {
        "umbrella.obj": obj_mesh_text(sample_surface_patch(analysis.W, mesh.u_range, mesh.v_range, mesh.nu, mesh.nv)),
        "curve.obj": obj_polyline_text(sample_curve_polyline(ruled.gamma, mesh.x_range, mesh.curve_samples)),
        "od_w.obj": obj_mesh_text(sample_ruled_surface(ruled, mesh.x_range, mesh.y_range, mesh.nx, mesh.ny)),
    }
    os.makedirs(args.out, exist_ok=True)
    for name, text in texts.items():
        write_obj(os.path.join(args.out, name), text)
    return 0


def fixture_names() -> list:
    # Imported here and in fixture_text, not at the top: it loads pathlib,
    # zipfile and tempfile, about 12 ms of every report, verify or mesh start.
    from importlib import resources

    root = resources.files("crosscap").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def fixture_text(name: str) -> str:
    from importlib import resources

    return resources.files("crosscap").joinpath("fixtures", name + ".json").read_text()


def _cmd_fixtures(args) -> int:
    if args.show is not None:
        names = fixture_names()
        if args.show not in names:
            sys.stderr.write(f"fixtures: unknown fixture {args.show!r} (known: {', '.join(names)})\n")
            return 2
        sys.stdout.write(fixture_text(args.show))
        return 0
    for name in fixture_names():
        cfg = parse_config(fixture_text(name))
        desc = cfg.description or ""
        sys.stdout.write(f"{name}: {desc}\n")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands, built on the first call and kept."""
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
    # None when not given, so that a config run can refuse them.
    p_verify.add_argument("--seed", type=int, help="sweep seed (default 0)")
    p_verify.add_argument("--draws", type=int, help="sweep draws per subcase (default 10)")
    p_verify.set_defaults(func=_cmd_verify)

    p_mesh = sub.add_parser("mesh", help="export umbrella.obj, curve.obj and od_w.obj")
    p_mesh.add_argument("config", help="JSON configuration file")
    p_mesh.add_argument("--out", required=True, help="output directory")
    p_mesh.set_defaults(func=_cmd_mesh)

    p_fix = sub.add_parser("fixtures", help="bundled fixture configurations")
    fix_mode = p_fix.add_mutually_exclusive_group()
    fix_mode.add_argument("--list", action="store_true", help="list bundled fixtures")
    fix_mode.add_argument("--show", metavar="NAME", help="print one fixture's JSON")
    p_fix.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # Every library error is a CrosscapError; an OverflowError is a float
    # conversion of a jet value beyond the float range.
    except (CrosscapError, OverflowError) as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
