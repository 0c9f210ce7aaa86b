"""Quad-mesh sampling of surfaces/curves and Wavefront OBJ output.

OBJ conventions: ``v x y z`` vertex lines followed by ``f i j k l`` quads
(1-indexed) for surfaces, or ``l i j`` segments for polylines; LF endings;
coordinates printed with 9 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import Vec3BiSeries, Vec3Series
from .developable import RuledSurface


class MeshError(ValueError):
    """Degenerate sampling ranges or resolutions, or a non-finite vertex."""


@dataclass(frozen=True)
class QuadMesh:
    vertices: tuple
    faces: tuple  # 0-based quads (i, j, k, l)


def _grid(lo: float, hi: float, n: int):
    if n < 2:
        raise MeshError("resolution must be at least 2")
    if not (hi > lo):
        raise MeshError("degenerate range [%r, %r]" % (lo, hi))
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _quad_faces(nx: int, ny: int):
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            faces.append((a, a + ny, a + ny + 1, a + 1))
    return faces


def sample_ruled_surface(surface: RuledSurface, x_range, y_range, nx: int, ny: int) -> QuadMesh:
    xs = _grid(x_range[0], x_range[1], nx)
    ys = _grid(y_range[0], y_range[1], ny)
    vertices = []
    for x in xs:
        g = surface.gamma.evaluate(x)
        d = surface.xi.evaluate(x)
        for y in ys:
            vertices.append(tuple(float(gc) + y * float(dc) for gc, dc in zip(g, d)))
    return QuadMesh(tuple(vertices), tuple(_quad_faces(nx, ny)))


def sample_surface_patch(W: Vec3BiSeries, u_range, v_range, nu: int, nv: int) -> QuadMesh:
    us = _grid(u_range[0], u_range[1], nu)
    vs = _grid(v_range[0], v_range[1], nv)
    Wf = W.to_float()
    vertices = []
    for u in us:
        for v in vs:
            vertices.append(tuple(float(c) for c in Wf.evaluate(u, v)))
    return QuadMesh(tuple(vertices), tuple(_quad_faces(nu, nv)))


def sample_curve_polyline(curve: Vec3Series, x_range, n: int):
    xs = _grid(x_range[0], x_range[1], n)
    cf = curve.to_float()
    return tuple(tuple(float(c) for c in cf.evaluate(x)) for x in xs)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise MeshError(f"non-finite vertex coordinate {value!r}: the window is too wide for this jet")
    return format(value, ".9g")


def obj_mesh_text(mesh: QuadMesh) -> str:
    lines = []
    for v in mesh.vertices:
        lines.append("v %s %s %s" % (_fmt(v[0]), _fmt(v[1]), _fmt(v[2])))
    for f in mesh.faces:
        lines.append("f %d %d %d %d" % tuple(i + 1 for i in f))
    return "\n".join(lines) + "\n"


def obj_polyline_text(points) -> str:
    lines = ["v %s %s %s" % (_fmt(p[0]), _fmt(p[1]), _fmt(p[2])) for p in points]
    for i in range(len(points) - 1):
        lines.append("l %d %d" % (i + 1, i + 2))
    return "\n".join(lines) + "\n"


def write_obj(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
