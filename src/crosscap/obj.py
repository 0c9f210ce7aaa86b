"""Quad-mesh sampling of surfaces/curves and Wavefront OBJ output.

OBJ conventions: ``v x y z`` vertex lines followed by ``f i j k l`` quads
(1-indexed) for surfaces, or ``l i j`` segments for polylines; LF endings;
coordinates printed with 9 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

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
        gx, gy, gz = surface.gamma.evaluate(x)
        dx, dy, dz = surface.xi.evaluate(x)
        vertices += [(gx + y * dx, gy + y * dy, gz + y * dz) for y in ys]
    return QuadMesh(tuple(vertices), tuple(_quad_faces(nx, ny)))


def _powers(name: str, values, exponents) -> dict:
    """``{k: [x**k for x in values]}``; a power beyond the float range is a MeshError."""
    table = {}
    for k in sorted(exponents):
        try:
            table[k] = [x**k for x in values]
        except OverflowError:
            raise MeshError(f"{name}**{k} overflows: the window is too wide for this jet") from None
    return table


def sample_surface_patch(W: Vec3BiSeries, u_range, v_range, nu: int, nv: int) -> QuadMesh:
    us = _grid(u_range[0], u_range[1], nu)
    vs = _grid(v_range[0], v_range[1], nv)
    # Each coordinate adds c * u**i * v**j over its terms in dict order, left
    # to right from 0.0: the float operations of a per-vertex evaluation, so
    # the bytes of the OBJ text do not depend on this tabulation.  Not sum():
    # from Python 3.12 on it adds floats with compensation.
    terms = [list(comp.float_coeffs().items()) for comp in W.components]
    upow = _powers("u", us, {i for t in terms for (i, _), _ in t})
    vpow = _powers("v", vs, {j for t in terms for (_, j), _ in t})
    vertices = []
    for row in range(nu):
        coords = []
        for t in terms:
            acc = [0.0] * nv
            for (i, j), c in t:
                cu = c * upow[i][row]
                acc = [a + cu * p for a, p in zip(acc, vpow[j])]
            coords.append(acc)
        vertices += zip(*coords)
    return QuadMesh(tuple(vertices), tuple(_quad_faces(nu, nv)))


def sample_curve_polyline(curve: Vec3Series, x_range, n: int):
    xs = _grid(x_range[0], x_range[1], n)
    cf = curve.to_float()
    return tuple(tuple(float(c) for c in cf.evaluate(x)) for x in xs)


def _coordinates(points) -> tuple:
    """Every coordinate of ``points`` in vertex order; MeshError names the first non-finite one."""
    flat = tuple(chain.from_iterable(points))
    if not all(map(math.isfinite, flat)):
        bad = next(c for c in flat if not math.isfinite(c))
        raise MeshError(f"non-finite vertex coordinate {bad!r}: the window is too wide for this jet")
    return flat


def obj_mesh_text(mesh: QuadMesh) -> str:
    coords = _coordinates(mesh.vertices)
    corners = tuple([i + 1 for f in mesh.faces for i in f])
    return (
        "v %.9g %.9g %.9g\n" * len(mesh.vertices) % coords
        + "f %d %d %d %d\n" * len(mesh.faces) % corners
    )


def obj_polyline_text(points) -> str:
    coords = _coordinates(points)
    ends = tuple([k for i in range(1, len(points)) for k in (i, i + 1)])
    return "v %.9g %.9g %.9g\n" * len(points) % coords + "l %d %d\n" * (len(points) - 1) % ends


def write_obj(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
