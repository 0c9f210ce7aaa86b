"""The float ruled surface of the mesh, quad-mesh sampling of surfaces/curves and Wavefront OBJ output.

The analysis is exact; floats enter the mesh here.  ``osculating_surface``
turns the image curve and the exact director V of the osculating developable
into a float ruled surface, gamma = img and xi = V / |V|, normalised as
``FloatSeries``.  A mesh is its sampling grid: flat vertex coordinates (x,
y, z, row by row), ``rows`` and ``cols``; the faces follow from the shape.
A float series (the components of the ruled surface ``mesh`` samples) is
evaluated over the whole x grid by a column Horner pass, ``acc = [a * x + c
for a, x in zip(acc, xs)]``: at each x the operations of a per-point Horner
evaluation from 0.0, in the same order, so each coordinate is that of a
per-point evaluation.

OBJ conventions: ``v x y z`` vertex lines followed by ``f i j k l`` quads
(1-indexed) for surfaces, or ``l i j`` segments for polylines; LF endings;
coordinates printed with 9 significant digits.
"""

from __future__ import annotations

import math
from itertools import chain, filterfalse
from typing import NamedTuple

from .series import CrosscapError, FloatSeries, Vec3Series, reciprocal, sqrt_series


class MeshError(CrosscapError):
    """Degenerate sampling ranges or resolutions, or a non-finite director or vertex."""


class RuledSurface(NamedTuple):
    """F(x, y) = gamma(x) + y xi(x)."""

    gamma: Vec3Series
    xi: Vec3Series


def osculating_surface(img: Vec3Series, director: Vec3Series) -> RuledSurface:
    """The osculating developable as a float ruled surface: the image curve ``img`` and V / |V|.

    Both are ``Vec3Series`` of ``FloatSeries``: ``to_float`` of the exact
    series, and the exact director V normalised by
    ``reciprocal(sqrt_series(...))``.
    """
    try:
        v = director.to_float()
        xi = v.scale(reciprocal(sqrt_series(v.norm_sq())))
        finite = all(math.isfinite(c) for s in xi.components for c in s.coeffs)
    except OverflowError:
        finite = False
    if not finite:
        raise MeshError("values beyond the float range (the director has a non-finite coefficient)")
    return RuledSurface(gamma=img.to_float(), xi=xi)


class QuadMesh(NamedTuple):
    coords: tuple  # x, y, z of vertex i * cols + j at 3 (i * cols + j)
    rows: int
    cols: int


def _grid(lo: float, hi: float, n: int):
    if n < 2:
        raise MeshError("resolution must be at least 2")
    if not (hi > lo):
        raise MeshError("degenerate range [%r, %r]" % (lo, hi))
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _horner(series: FloatSeries, xs) -> list:
    """The float ``series`` at every x of ``xs``: a per-point Horner pass's operations, column by column."""
    acc = [0.0] * len(xs)
    for c in reversed(series.coeffs):
        acc = [a * x + c for a, x in zip(acc, xs)]
    return acc


def sample_ruled_surface(surface: RuledSurface, x_range, y_range, nx: int, ny: int) -> QuadMesh:
    xs = _grid(x_range[0], x_range[1], nx)
    ys = _grid(y_range[0], y_range[1], ny)
    coords = [0.0] * (3 * nx * ny)
    for axis, (g, d) in enumerate(zip(surface.gamma.components, surface.xi.components)):
        gs, ds = _horner(g, xs), _horner(d, xs)
        for col, y in enumerate(ys):
            coords[3 * col + axis :: 3 * ny] = [gx + y * dx for gx, dx in zip(gs, ds)]
    return QuadMesh(tuple(coords), nx, ny)


def _powers(name: str, values, exponents) -> dict:
    """``{k: [x**k for x in values]}``; a power beyond the float range is a MeshError."""
    table = {}
    for k in sorted(exponents):
        try:
            table[k] = [x**k for x in values]
        except OverflowError:
            raise MeshError(f"{name}**{k} overflows: the window is too wide for this jet") from None
    return table


def sample_surface_patch(W: Vec3Series, u_range, v_range, nu: int, nv: int) -> QuadMesh:
    us = _grid(u_range[0], u_range[1], nu)
    vs = _grid(v_range[0], v_range[1], nv)
    # Each coordinate adds c * u**i * v**j over its terms in dict order, left
    # to right from 0.0: the float operations of a per-vertex evaluation, so
    # the bytes of the OBJ text do not depend on this tabulation.  Not sum():
    # from Python 3.12 on it adds floats with compensation.
    terms = [list(comp.float_coeffs().items()) for comp in W.components]
    upow = _powers("u", us, {i for t in terms for (i, _), _ in t})
    vpow = _powers("v", vs, {j for t in terms for (_, j), _ in t})
    coords = [0.0] * (3 * nu * nv)
    for row in range(nu):
        for axis, t in enumerate(terms):
            acc = [0.0] * nv
            for (i, j), c in t:
                cu = c * upow[i][row]
                acc = [a + cu * p for a, p in zip(acc, vpow[j])]
            coords[3 * nv * row + axis : 3 * nv * (row + 1) : 3] = acc
    return QuadMesh(tuple(coords), nu, nv)


def sample_curve_polyline(curve: Vec3Series, x_range, n: int) -> tuple:
    """Flat x, y, z coordinates of the float ``curve`` (``RuledSurface.gamma``) at ``n`` samples."""
    xs = _grid(x_range[0], x_range[1], n)
    columns = [_horner(comp, xs) for comp in curve.components]
    return tuple(chain.from_iterable(zip(*columns)))


def _finite(coords) -> tuple:
    """``coords`` as a tuple; MeshError names the first non-finite one."""
    coords = tuple(coords)
    if not math.isfinite(sum(coords)):  # finite floats have a finite sum unless it overflows
        for bad in filterfalse(math.isfinite, coords):
            raise MeshError(f"non-finite vertex coordinate {bad!r}: the window is too wide for this jet")
    return coords


def obj_mesh_text(mesh: QuadMesh) -> str:
    rows, cols = mesh.rows, mesh.cols
    vertices = "v %.9g %.9g %.9g\n" * (rows * cols) % _finite(mesh.coords)
    # Each 1-based vertex index is formatted once; the quad of vertex
    # a = i cols + j is a, a + cols, a + cols + 1, a + 1.
    ids = [str(k) for k in range(1, rows * cols + 1)]
    faces = [vertices]
    for a in range(0, (rows - 1) * cols, cols):
        top, bottom = ids[a : a + cols], ids[a + cols : a + 2 * cols]
        faces += [f"f {p} {q} {r} {s}\n" for p, q, r, s in zip(top, bottom, bottom[1:], top[1:])]
    return "".join(faces)


def obj_polyline_text(coords) -> str:
    n = len(coords) // 3
    ends = tuple(chain.from_iterable(zip(range(1, n), range(2, n + 1))))
    return "v %.9g %.9g %.9g\n" * n % _finite(coords) + "l %d %d\n" * (n - 1) % ends


def write_obj(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
