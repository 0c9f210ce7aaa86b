"""Mesh sampling and OBJ text against the per-vertex, per-line references.

The tabulated sampling must run the float operations of one evaluation per
vertex in the same order, so every coordinate is compared bit for bit
(``float.hex``), and the bulk ``%.9g`` formatting must print the bytes of
``format(value, ".9g")`` line by line.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, analyze
from crosscap.developable import DevelopableError
from crosscap.frame import FrameError
from crosscap.model import build_umbrella
from crosscap.obj import (
    MeshError,
    QuadMesh,
    obj_mesh_text,
    obj_polyline_text,
    sample_ruled_surface,
    sample_surface_patch,
)
from crosscap.series import SeriesError
from reference import (
    reference_obj_mesh_text,
    reference_obj_polyline_text,
    reference_ruled_surface,
    reference_surface_patch,
)

NUMERATORS = st.integers(1, 10**6)
DENOMINATORS = st.integers(1, 10**4)
RATIONALS = st.builds(Fraction, st.integers(-(10**6), 10**6), DENOMINATORS)
NONZERO = st.builds(lambda n, d, sign: Fraction(sign * n, d), NUMERATORS, DENOMINATORS, st.sampled_from((1, -1)))


@st.composite
def umbrellas(draw, min_degree=3, max_degree=7):
    """Normal-form coefficients whose ``a`` keys come in a drawn order."""
    degree = draw(st.integers(min_degree, max_degree))
    index = [(i, n - i) for n in range(2, degree + 1) for i in range(n + 1)]
    keys = draw(st.lists(st.sampled_from(index), unique=True, max_size=12))
    if (0, 2) not in keys:
        keys.insert(draw(st.integers(0, len(keys))), (0, 2))
    a = {k: draw(NONZERO if k == (0, 2) else RATIONALS) for k in keys}
    b = {i: draw(RATIONALS) for i in draw(st.lists(st.integers(3, degree), unique=True, max_size=4))}
    return UmbrellaCoefficients(degree=degree, a=a, b=b)


@st.composite
def windows(draw, scale=3.0):
    lo = draw(st.floats(-scale, scale))
    return (lo, lo + draw(st.floats(1e-3, 2 * scale)))


RESOLUTION = st.integers(2, 9)


def hex_vertices(mesh: QuadMesh):
    return [tuple(c.hex() for c in v) for v in mesh.vertices]


@settings(deadline=None, max_examples=60)
@given(umbrellas(), windows(), windows(), RESOLUTION, RESOLUTION)
def test_surface_patch_matches_the_per_vertex_evaluation(coeffs, u_range, v_range, nu, nv):
    W = build_umbrella(coeffs)
    got = sample_surface_patch(W, u_range, v_range, nu, nv)
    want = reference_surface_patch(W, u_range, v_range, nu, nv)
    assert hex_vertices(got) == hex_vertices(want)
    assert got.faces == want.faces


def test_surface_patch_keeps_each_components_term_order():
    # Added in sorted key order, these three terms round differently.
    a = {(2, 0): Fraction(1, 3), (0, 2): Fraction(2, 7), (1, 1): Fraction(1, 11)}
    coeffs = UmbrellaCoefficients(degree=4, a=a, b={})
    W = build_umbrella(coeffs)
    got = sample_surface_patch(W, (-0.7, 0.9), (-1.3, 0.4), 5, 6)
    assert hex_vertices(got) == hex_vertices(reference_surface_patch(W, (-0.7, 0.9), (-1.3, 0.4), 5, 6))


def curves():
    mp = st.builds(FamilyMP, m=st.integers(1, 2), p=st.integers(2, 4), c=st.tuples(NONZERO, RATIONALS))
    mpq = st.builds(
        FamilyMPQ, m=st.just(2), p=st.integers(1, 3), q=st.just(1), c=st.tuples(NONZERO, RATIONALS)
    )
    return st.one_of(mp, mpq)


@settings(deadline=None, max_examples=30)
@given(umbrellas(min_degree=5, max_degree=6), curves(), windows(0.2), windows(0.2), RESOLUTION, RESOLUTION)
def test_ruled_surface_matches_the_per_vertex_evaluation(coeffs, spec, x_range, y_range, nx, ny):
    try:
        ruled = analyze(coeffs, spec).ruled
    except (DevelopableError, FrameError, SeriesError, OverflowError):
        assume(False)
    got = sample_ruled_surface(ruled, x_range, y_range, nx, ny)
    want = reference_ruled_surface(ruled, x_range, y_range, nx, ny)
    assert hex_vertices(got) == hex_vertices(want)
    assert got.faces == want.faces


#: Finite coordinates that stress the formatter: signed zeros, subnormals and
#: magnitudes near the ends of the float range.
EDGE_VALUES = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e-300,
    -3.5e-301,
    1e300,
    -7.25e299,
    1.7976931348623157e308,
)
COORD = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_VALUES))
POINTS = st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=40)


@st.composite
def meshes(draw):
    vertices = draw(POINTS)
    corner = st.integers(0, len(vertices) - 1)
    faces = draw(st.lists(st.tuples(corner, corner, corner, corner), max_size=40))
    return QuadMesh(tuple(vertices), tuple(faces))


@settings(deadline=None, max_examples=200)
@given(meshes())
def test_mesh_text_matches_the_line_by_line_formatter(mesh):
    assert obj_mesh_text(mesh) == reference_obj_mesh_text(mesh)


@settings(deadline=None, max_examples=200)
@given(POINTS)
def test_polyline_text_matches_the_line_by_line_formatter(points):
    assert obj_polyline_text(points) == reference_obj_polyline_text(points)


NON_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


@st.composite
def with_non_finite(draw):
    """Points with one to three coordinates replaced by inf, -inf or nan."""
    flat = [c for p in draw(POINTS) for c in p]
    for _ in range(draw(st.integers(1, 3))):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(NON_FINITE)
    return [tuple(flat[k : k + 3]) for k in range(0, len(flat), 3)]


def _first_non_finite(points):
    return next(c for p in points for c in p if not math.isfinite(c))


@settings(deadline=None, max_examples=100)
@given(with_non_finite())
def test_a_non_finite_coordinate_is_named_in_vertex_order(points):
    message = f"non-finite vertex coordinate {_first_non_finite(points)!r}: the window is too wide for this jet"
    with pytest.raises(MeshError) as polyline:
        obj_polyline_text(points)
    with pytest.raises(MeshError) as mesh:
        obj_mesh_text(QuadMesh(tuple(points), ()))
    with pytest.raises(MeshError) as reference:
        reference_obj_polyline_text(points)
    assert str(polyline.value) == str(mesh.value) == str(reference.value) == message


@pytest.mark.parametrize("window", ["u", "v"])
def test_a_power_beyond_the_float_range_is_a_mesh_error(window):
    W = build_umbrella(UmbrellaCoefficients(degree=4, a={(0, 2): 2, (2, 0): 1}, b={}))
    ranges = {"u": (-0.1, 0.1), "v": (-0.1, 0.1), window: (-1e200, 1e200)}
    with pytest.raises(MeshError, match=rf"^{window}\*\*2 overflows: the window is too wide for this jet$"):
        sample_surface_patch(W, ranges["u"], ranges["v"], 3, 3)
    with pytest.raises(OverflowError):
        reference_surface_patch(W, ranges["u"], ranges["v"], 3, 3)
