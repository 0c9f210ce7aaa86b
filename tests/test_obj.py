"""Mesh sampling and OBJ text against the per-vertex, per-line references.

The tabulated and column-wise sampling must run the float operations of one
evaluation per vertex in the same order, so every coordinate is compared bit
for bit (``float.hex``), the bulk ``%.9g`` formatting must print the bytes of
``format(value, ".9g")`` line by line, and the face block built from the
grid shape must list the faces of the per-face reference.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from crosscap import FamilyMP, FamilyMPQ, UmbrellaCoefficients, analyze
from crosscap.frame import FrameError
from crosscap.model import build_umbrella
from crosscap.obj import (
    MeshError,
    QuadMesh,
    _horner,
    obj_mesh_text,
    obj_polyline_text,
    osculating_surface,
    sample_curve_polyline,
    sample_ruled_surface,
    sample_surface_patch,
)
from crosscap.series import SeriesError
from reference import (
    _quad_faces,
    float_series,
    horner,
    reference_curve_polyline,
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
    return (mesh.rows, mesh.cols, [c.hex() for c in mesh.coords])


@settings(deadline=None, max_examples=60)
@given(umbrellas(), windows(), windows(), RESOLUTION, RESOLUTION)
def test_surface_patch_matches_the_per_vertex_evaluation(coeffs, u_range, v_range, nu, nv):
    W = build_umbrella(coeffs)
    got = sample_surface_patch(W, u_range, v_range, nu, nv)
    want = reference_surface_patch(W, u_range, v_range, nu, nv)
    assert hex_vertices(got) == hex_vertices(want)


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
        a = analyze(coeffs, spec)
        assume(a.developable is not None)
        ruled = osculating_surface(a.image, a.developable.director)
    except (MeshError, FrameError, SeriesError, OverflowError):
        assume(False)
    got = sample_ruled_surface(ruled, x_range, y_range, nx, ny)
    want = reference_ruled_surface(ruled, x_range, y_range, nx, ny)
    assert hex_vertices(got) == hex_vertices(want)
    got = sample_curve_polyline(ruled.gamma, x_range, nx)
    assert [c.hex() for c in got] == [c.hex() for c in reference_curve_polyline(ruled.gamma, x_range, nx)]


#: Finite and non-finite floats that stress the column Horner pass: signed
#: zeros, subnormals and values whose products overflow to inf (and then,
#: added to an inf of the other sign, give nan).
HORNER_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308)
HORNER_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(HORNER_EDGES))


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.one_of(HORNER_FLOATS, st.sampled_from((math.inf, -math.inf, math.nan))), min_size=1, max_size=8),
    st.lists(HORNER_FLOATS, max_size=12),
)
def test_column_horner_is_evaluate_at_every_x(coeffs, xs):
    series = float_series(coeffs)
    assert [v.hex() for v in _horner(series, xs)] == [horner(series, x).hex() for x in xs]


def test_column_horner_covers_the_signed_and_non_finite_cases():
    # 1.0 * -0.0 + -0.0 keeps the sign of zero; 1e300 * 1e300 overflows to
    # inf, and inf + -inf is nan: the column pass must give each at its x.
    cases = {
        (-0.0, 1.0): [-0.0, 0.0],
        (0.0, 1e300): [1e300, -1e300],
        (-math.inf, 1e300): [1e300, 1.0],
    }
    seen = set()
    for coeffs, xs in cases.items():
        series = float_series(coeffs)
        got = _horner(series, xs)
        assert [v.hex() for v in got] == [horner(series, x).hex() for x in xs]
        seen.update(v.hex() for v in got)
    assert {"-0x0.0p+0", "inf", "-inf", "nan"} <= seen


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


GRID_SIDE = st.integers(2, 8)


@st.composite
def meshes(draw):
    """A random rows x cols grid of random coordinates."""
    rows, cols = draw(GRID_SIDE), draw(GRID_SIDE)
    coords = draw(st.lists(COORD, min_size=3 * rows * cols, max_size=3 * rows * cols))
    return QuadMesh(tuple(coords), rows, cols)


@settings(deadline=None, max_examples=200)
@given(meshes())
def test_mesh_text_matches_the_line_by_line_formatter(mesh):
    assert obj_mesh_text(mesh) == reference_obj_mesh_text(mesh)


@settings(deadline=None, max_examples=100)
@given(st.integers(2, 60), st.integers(2, 60))
def test_the_face_block_is_the_per_face_reference(rows, cols):
    text = obj_mesh_text(QuadMesh((0.0,) * (3 * rows * cols), rows, cols))
    faces = [line for line in text.splitlines() if not line.startswith("v ")]
    assert faces == ["f %d %d %d %d" % tuple(i + 1 for i in f) for f in _quad_faces(rows, cols)]
    assert len(faces) == (rows - 1) * (cols - 1)


def flat(points):
    return tuple(c for p in points for c in p)


@settings(deadline=None, max_examples=200)
@given(POINTS)
def test_polyline_text_matches_the_line_by_line_formatter(points):
    assert obj_polyline_text(flat(points)) == reference_obj_polyline_text(flat(points))


NON_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


@st.composite
def with_non_finite(draw):
    """A random grid with one to three coordinates replaced by inf, -inf or nan."""
    mesh = draw(meshes())
    coords = list(mesh.coords)
    for _ in range(draw(st.integers(1, 3))):
        coords[draw(st.integers(0, len(coords) - 1))] = draw(NON_FINITE)
    return QuadMesh(tuple(coords), mesh.rows, mesh.cols)


def test_finite_coordinates_whose_sum_overflows_are_accepted():
    grid = QuadMesh((1.7976931348623157e308,) * 12, 2, 2)
    assert obj_mesh_text(grid) == reference_obj_mesh_text(grid)
    assert obj_polyline_text(grid.coords) == reference_obj_polyline_text(grid.coords)


@settings(deadline=None, max_examples=100)
@given(with_non_finite())
def test_a_non_finite_coordinate_is_named_in_vertex_order(grid):
    first = next(c for c in grid.coords if not math.isfinite(c))
    message = f"non-finite vertex coordinate {first!r}: the window is too wide for this jet"
    with pytest.raises(MeshError) as polyline:
        obj_polyline_text(grid.coords)
    with pytest.raises(MeshError) as mesh:
        obj_mesh_text(grid)
    with pytest.raises(MeshError) as reference_polyline:
        reference_obj_polyline_text(grid.coords)
    with pytest.raises(MeshError) as reference_mesh:
        reference_obj_mesh_text(grid)
    assert {str(e.value) for e in (polyline, mesh, reference_polyline, reference_mesh)} == {message}


@pytest.mark.parametrize("window", ["u", "v"])
def test_a_power_beyond_the_float_range_is_a_mesh_error(window):
    W = build_umbrella(UmbrellaCoefficients(degree=4, a={(0, 2): 2, (2, 0): 1}, b={}))
    ranges = {"u": (-0.1, 0.1), "v": (-0.1, 0.1), window: (-1e200, 1e200)}
    with pytest.raises(MeshError, match=rf"^{window}\*\*2 overflows: the window is too wide for this jet$"):
        sample_surface_patch(W, ranges["u"], ranges["v"], 3, 3)
    with pytest.raises(OverflowError):
        reference_surface_patch(W, ranges["u"], ranges["v"], 3, 3)
