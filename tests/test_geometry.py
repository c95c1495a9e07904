import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from loopfield import (
    Circle,
    CompositeCurve,
    DegenerateIntersection,
    DegeneratePatch,
    DipoleSheetSpec,
    Disk,
    NonTransversal,
    PlanarRect,
    PolyLine,
    RectLoop,
    SurfacePatch,
    as_vec3,
    coulomb_surface_field,
    dipole_sheet_field_exact,
    mesh_boundary,
    mesh_surface,
)
from loopfield.experiments import maxwell_probe
from loopfield.geometry import cross, segment_crossings
from test_fields import disk_area_element


def test_vec3_rejects_nan_and_bad_shape():
    with pytest.raises(ValueError):
        as_vec3((1.0, float("nan"), 0.0))
    with pytest.raises(ValueError):
        as_vec3((1.0, 2.0))


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_circle_eval_at_zero():
    c = Circle((0, 0, 0), 1.0, (0, 0, 1), "ccw")
    pos, tan = c.position(0.0), c.tangent(0.0)
    assert np.allclose(pos, [1, 0, 0], atol=1e-15)
    assert np.allclose(tan, [0, 1, 0], atol=1e-15)
    assert (c.t_start, c.t_end) == (0.0, 2.0 * math.pi)


def test_circle_closure_and_distance():
    c = Circle((1, 2, 3), 0.7, (0, 1, 0))
    start = c.position(c.t_start)
    end = c.position(c.t_end)
    assert np.linalg.norm(start - end) <= 1e-12
    # distance formula: hypot(rho - R, height)
    assert abs(c.distance_to((1, 2, 3)) - 0.7) <= 1e-14
    assert abs(c.distance_to((1, 3, 3)) - math.hypot(0.7, 1.0)) <= 1e-14


def test_rect_loop_traces_the_four_legs():
    loop = RectLoop(4)
    expected = [(0, 0, -4), (0, 0, 4), (4, 0, 4), (4, 0, -4)]
    assert np.allclose(loop.vertices, expected)
    # midpoint of the first leg: the origin, moving straight up
    pos, tan = loop.position(4.0), loop.tangent(4.0)
    assert np.allclose(pos, [0, 0, 0], atol=1e-15)
    assert np.allclose(tan, [0, 0, 1.0], atol=1e-15)
    assert loop.closed


def test_polyline_open_interpolation():
    line = PolyLine([(0, 0, 0), (1, 0, 0)])
    pos, tan = line.position(0.5), line.tangent(0.5)
    assert np.allclose(pos, [0.5, 0, 0])
    assert np.allclose(tan, [1, 0, 0])


def test_polyline_vertex_tangent_is_outgoing():
    bent = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    tan = bent.tangent(1.0)  # exactly at the interior vertex
    assert np.allclose(tan, [0, 1, 0])
    # final parameter falls back to the last segment
    tan_end = bent.tangent(bent.t_end)
    assert np.allclose(tan_end, [0, 1, 0])


@pytest.mark.parametrize(
    "curve",
    [
        Circle((0.3, -1.0, 2.0), 1.3, (1, 2, 2), "ccw"),
        PolyLine([(0, 0, 0), (1, 0.2, 0), (1.3, 1, 0.5), (0, 1, 1)], closed=True),
        RectLoop(3),
    ],
)
def test_reversal_negates_tangent_at_matching_positions(curve):
    rev = curve.reversed()
    span = curve.t_end - curve.t_start
    ts = curve.t_start + span * (np.linspace(0.013, 0.987, 31))
    # stay away from vertices, where the outgoing-tangent convention applies
    breaks = np.concatenate([curve.breakpoints(), rev.breakpoints()])
    checked = 0
    for t in ts:
        t_rev = rev.t_end - (t - curve.t_start)
        if breaks.size and (
            np.min(np.abs(breaks - t)) < 1e-6 or np.min(np.abs(breaks - t_rev)) < 1e-6
        ):
            continue
        pos = curve.position(t)
        pos_rev = rev.position(t_rev)
        assert np.allclose(pos_rev, pos, atol=1e-9)
        assert np.allclose(rev.tangent(t_rev), -curve.tangent(t), atol=1e-9)
        checked += 1
    assert checked > 20


def test_composite_curve_concatenates():
    a = PolyLine([(0, 0, 0), (1, 0, 0)])
    b = PolyLine([(1, 0, 0), (1, 1, 0)])
    combo = CompositeCurve([a, b])
    assert combo.t_end == pytest.approx(2.0)
    assert np.allclose(combo.position(0.5), [0.5, 0, 0])
    assert np.allclose(combo.position(1.5), [1, 0.5, 0])
    assert np.allclose(combo.tangent(1.5), [0, 1, 0])
    assert len(combo.breakpoints()) == 1


def test_polyline_distance_exact():
    line = PolyLine([(0, 0, 0), (2, 0, 0)])
    assert line.distance_to((1.0, 1.0, 0.0)) == pytest.approx(1.0)
    assert line.distance_to((3.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert line.distance_to((-1.0, 1.0, 0.0)) == pytest.approx(math.sqrt(2))


def test_distance_to_takes_many_points():
    circle = Circle((1, 2, 3), 0.7, (0, 1, 1))
    line = PolyLine([(0, 0, 0), (2, 0, 0), (2, 1, 1)])
    curves = (circle, line, CompositeCurve([line, PolyLine([(2, 1, 1), (1, 2, 3)])]))
    points = np.random.default_rng(5).uniform(-2.0, 4.0, (7, 3))
    for curve in curves:
        many = curve.distance_to(points)
        assert many.shape == (7,)
        assert np.array_equal(many, [curve.distance_to(p) for p in points])
        assert isinstance(curve.distance_to(points[0]), float)
        for bad in (np.zeros((2, 2)), [[0.0, 0.0, math.nan]]):
            with pytest.raises(ValueError):
                curve.distance_to(bad)


def test_polyline_rejects_bad_vertices():
    # one array check of all vertices: a ragged list, a vertex of 2 or 4
    # components, a flat list, and a vertex that is not finite
    for bad in (
        [(0, 0, 0), (1, 0)],
        [(0, 0, 0, 0), (1, 0, 0, 0)],
        [0.0, 1.0, 2.0],
        [(0, 0, 0), (1, math.nan, 0)],
        [(0, 0, 0), (1, 0, -math.inf)],
    ):
        with pytest.raises(ValueError):
            PolyLine(bad)
    line = PolyLine(np.array([(0, 0, 0), (1, 0, 0)], dtype=int))
    assert line.vertices.dtype == float


def test_patch_distance_to_takes_many_points():
    # points over, beside and in the plane of each patch, one array call
    # against one point at a time
    points = np.concatenate((
        np.random.default_rng(6).uniform(-2.0, 3.0, (6, 3)),
        [(0.5, 0.5, 0.3), (0.2, 0.1, -0.4), (2.0, 0.5, 0.0), (0.0, 0.0, 0.0)],
    ))
    rect, disk = patches = (PlanarRect((0, 0, 0), (1, 0, 0), (0.3, 1, 0)), Disk((0, 0, 0), 1.0, (0, 0, 1)))
    for patch in patches:
        many = patch.distance_to(points)
        assert many.shape == (len(points),)
        assert np.array_equal(many, [patch.distance_to(p) for p in points]), patch
        assert isinstance(patch.distance_to(points[0]), float)
        for bad in (np.zeros((2, 2)), [[0.0, 0.0, math.nan]]):
            with pytest.raises(ValueError):
                patch.distance_to(bad)
    assert rect.distance_to((0.5, 0.5, 0.3)) == pytest.approx(0.3, abs=1e-15)
    assert rect.distance_to((2.0, 0.5, 0.0)) == pytest.approx(0.85 / math.hypot(0.3, 1.0), abs=1e-15)
    assert disk.distance_to((0.2, 0.1, -0.4)) == pytest.approx(0.4, abs=1e-15)
    assert disk.distance_to((2.0, 0.0, 1.0)) == pytest.approx(math.sqrt(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# Cross product
# ---------------------------------------------------------------------------

_FLOATS = st.floats(-1e100, 1e100, allow_nan=False, width=64)

# the broadcast shapes of the integrands: a 2-D cell, a 1-D cell, and
# points against segments
_CROSS_SHAPES = st.one_of(
    st.just(((8, 1, 3), (1, 8, 3))),
    st.just(((8, 3), (8, 3))),
    st.tuples(st.integers(1, 5), st.integers(1, 6)).map(lambda pk: ((*pk, 3), (pk[1], 3))),
)


@given(
    _CROSS_SHAPES.flatmap(
        lambda shapes: st.tuples(*(hnp.arrays(np.float64, s, elements=_FLOATS) for s in shapes))
    )
)
def test_cross_is_bitwise_np_cross(pair):
    a, b = pair
    ours, reference = cross(a, b), np.cross(a, b)
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# Patches and meshes
# ---------------------------------------------------------------------------


class Dome(SurfacePatch):
    """The unit disk lifted to z = h (1 - rho^2): a curved surface that the
    package knows only by its points, as a mesh."""

    def __init__(self, height: float):
        self._disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
        self._height = height

    def point(self, u, v):
        p = self._disk.point(u, v)
        p[..., 2] = self._height * (1.0 - p[..., 0] ** 2 - p[..., 1] ** 2)
        return p


def _sheet(patch, offset):
    """The flat patch moved by offset along its normal: one sheet of its
    dipole layer."""
    shift = offset * patch.constant_normal()
    if isinstance(patch, Disk):
        return Disk(patch.center + shift, patch.radius, patch.axis)
    return PlanarRect(patch.corner + shift, patch.edge_a, patch.edge_b)


_UNIT_NODES = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)


def _corner_cells(width):
    """The 8 x 8 Gauss nodes of the four corner cells of the given width."""
    for cu in (0.0, 1.0 - width):
        for cv in (0.0, 1.0 - width):
            yield (cu + width * _UNIT_NODES)[:, None], (cv + width * _UNIT_NODES)[None, :]


@pytest.mark.parametrize(
    "patch",
    [
        PlanarRect((0.1, -0.2, 0.3), (1.0, 0.2, 0.0), (0.3, 0.8, 0.5)),
        _sheet(PlanarRect((0.1, -0.2, 0.3), (1.0, 0.2, 0.0), (0.3, 0.8, 0.5)), -0.05),
        PlanarRect((0, 0, 0), (0, 1, 0), (1, 0, 0)),  # du x dv along -z
        Disk((0.1, -0.2, 0.3), 1.7, (0.3, 0.4, 1.0)),
        _sheet(Disk((0.1, -0.2, 0.3), 1.7, (0.3, 0.4, 1.0)), 0.02),
        Disk((0, 0, 0), 1.0, (0, 0, -1)),
    ],
    ids=["rect", "shifted_rect", "flipped_rect", "disk", "shifted_disk", "flipped_disk"],
)
def test_rim_is_the_boundary_counterclockwise_about_du_x_dv(patch):
    rim = patch.rim()
    assert rim.closed
    # the image of the square's boundary lies on the rim
    side = np.linspace(0.0, 1.0, 9)
    edges = np.concatenate([patch.point(side, 0.0 * side), patch.point(1.0 + 0.0 * side, side),
                            patch.point(side, 1.0 + 0.0 * side), patch.point(0.0 * side, side)])
    assert rim.distance_to(edges).max() <= 1e-14
    # its vector area 1/2 sum p_i x p_(i+1) points along dpoint/du x
    # dpoint/dv, here by central differences; on a flat patch any step
    # keeps them in its plane, and a wide one keeps their rounding small
    samples = rim.position(np.linspace(rim.t_start, rim.t_end, 257)[:-1])
    area = 0.5 * np.cross(samples, np.roll(samples, -1, axis=0)).sum(axis=0)
    step = 1.0 / 16.0
    du = (patch.point(0.4 + step, 0.6) - patch.point(0.4 - step, 0.6)) / (2 * step)
    dv = (patch.point(0.4, 0.6 + step) - patch.point(0.4, 0.6 - step)) / (2 * step)
    normal = np.cross(du, dv)
    normal /= np.linalg.norm(normal)
    assert area @ normal > 0.0
    assert np.linalg.norm(np.cross(area, normal)) <= 1e-12 * np.linalg.norm(area)


def test_curved_patches_have_no_rim():
    assert Dome(0.35).rim() is None


def test_curved_patches_have_no_sheet_field():
    # a sheet's field is its rim's closed form; a patch without one is
    # refused by type before its guard, which would need its box and
    # distances, and whatever the density or the point
    dome = Dome(0.35)
    for sigma, x in ((1.0, (0.0, 0.0, 2.0)), (0.0, (0.0, 0.0, 2.0)), (1.0, dome.point(0.5, 0.5))):
        with pytest.raises(TypeError, match="Dome"):
            coulomb_surface_field(dome, sigma, x)


def test_curved_patches_have_no_two_sheet_field():
    # the sheets of a dipole layer are the patch seen from x -/+ (h / 2) n,
    # which needs one normal n; so does the Maxwell probe, which probes it
    with pytest.raises(ValueError):
        dipole_sheet_field_exact(Dome(0.35), DipoleSheetSpec(1.0, 1e-3), (0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        maxwell_probe(Dome(0.35), 1.0, [(0.0, 0.0, 2.0)], [1e-3])


def test_curved_patches_mesh():
    # the mesh of a curved patch is its nodes: its boundary is the rim
    # circle, and its cell areas telescope to the boundary's vector area
    # (test_linking counts crossings through the same mesh)
    mesh = mesh_surface(Dome(0.35), 15, 15)
    boundary = mesh_boundary(mesh)
    assert np.abs(np.hypot(boundary.vertices[:, 0], boundary.vertices[:, 1]) - 1.0).max() <= 1e-15
    assert np.abs(boundary.vertices[:, 2]).max() <= 1e-15
    starts, ends = boundary.segments()
    enclosed = 0.5 * np.cross(starts, ends).sum(axis=0)
    assert np.allclose(mesh.cell_vector_areas.sum(axis=(0, 1)), enclosed, rtol=0.0, atol=1e-14)


def test_disk_area_element_keeps_its_digits_at_the_corners():
    # the tests' Jacobian of the Disk's map (test_fields) against
    # 4 R^2 sx sy - R^2 x^2 y^2 / (sx sy) at 40 digits, 2^-20 from a corner
    radius = 1.7

    def exact(u, v):
        x, y = 2 * mpmath.mpf(u) - 1, 2 * mpmath.mpf(v) - 1
        sx, sy = mpmath.sqrt(1 - x * x / 2), mpmath.sqrt(1 - y * y / 2)
        return float(radius**2 * (4 * sx * sy - x * x * y * y / (sx * sy)))

    with mpmath.workdps(40):
        for u, v in _corner_cells(2.0**-20):
            area = disk_area_element(radius, u, v)
            reference = np.array([[exact(a, b) for b in v[0]] for a in u[:, 0]])
            np.testing.assert_allclose(area, reference, rtol=1e-14, atol=0.0)


def test_mesh_single_panel_identity():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    mesh = mesh_surface(patch, 1, 1)
    assert mesh.m == mesh.n == 1
    assert np.allclose(mesh.cell_vector_areas[0, 0], [0, 0, 1])


def test_mesh_2x2_quarters():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    mesh = mesh_surface(patch, 2, 2)
    areas = mesh.cell_vector_areas.reshape(-1, 3)
    assert len(areas) == 4
    for area in areas:
        assert np.allclose(area, [0, 0, 0.25])
    assert np.allclose(areas.sum(axis=0), [0, 0, 1])


def test_disk_mesh_area_converges_to_pi():
    disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
    sums = {}
    for m in (8, 16, 32):
        mesh = mesh_surface(disk, m, m)
        assert mesh.m * mesh.n == m * m
        total = mesh.cell_vector_areas.sum(axis=(0, 1))
        assert total[0] == pytest.approx(0.0, abs=1e-12)
        assert total[1] == pytest.approx(0.0, abs=1e-12)
        sums[m] = total[2]
    deficits = [math.pi - sums[m] for m in (8, 16, 32)]
    assert all(d > 0 for d in deficits)  # inscribed panels undershoot
    # second-order approach to the full disk area
    assert deficits[0] / deficits[1] > 3.5
    assert deficits[1] / deficits[2] > 3.5
    assert abs(sums[32] - math.pi) < 2e-3


def test_interior_edges_cancel_by_multiset():
    # brute-force edge-multiset oracle, independent of mesh_boundary: the
    # directed edges left after shared ones cancel are exactly the
    # consecutive vertex pairs of mesh_boundary's closed loop
    disk = Disk((0.5, 0, 0), 2.0, (1, 1, 1))
    for m, n in ((1, 1), (1, 3), (3, 1), (2, 2), (5, 7), (6, 4)):
        _check_boundary_edges(mesh_surface(disk, m, n))


def _check_boundary_edges(mesh):
    m, n = mesh.m, mesh.n
    counts = {}
    for i in range(m):
        for j in range(n):
            a, b, c, d = (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)
            for u, v in ((a, b), (b, c), (c, d), (d, a)):
                key = (min(u, v), max(u, v))
                counts[key] = counts.get(key, 0) + (1 if (u, v) == key else -1)
    assert set(counts.values()) <= {-1, 0, 1}
    boundary = {(u, v) if k > 0 else (v, u) for (u, v), k in counts.items() if k != 0}
    interior = {key for key, k in counts.items() if k == 0}
    assert len(boundary) == 2 * (m + n)
    assert len(interior) == 2 * m * n - m - n
    index = {mesh.nodes[i, j].tobytes(): (i, j) for i in range(m + 1) for j in range(n + 1)}
    loop = [index[vertex.tobytes()] for vertex in mesh_boundary(mesh).vertices]
    assert len(loop) == len(boundary)
    assert set(zip(loop, loop[1:] + loop[:1])) == boundary


def test_boundary_1x1_matches_rect_vertices():
    patch = PlanarRect((0.5, -1, 2), (2, 0, 0), (0, 0, 3))
    boundary = mesh_boundary(mesh_surface(patch, 1, 1))
    assert boundary.closed
    assert np.allclose(boundary.vertices, patch.rim().vertices)


def test_boundary_2x2_has_eight_segments():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    boundary = mesh_boundary(mesh_surface(patch, 2, 2))
    assert boundary.segment_count == 8
    # interior nodes are absent from the boundary
    assert not any(np.allclose(v, [0.5, 0.5, 0]) for v in boundary.vertices)


def test_boundary_orientation_is_induced():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))  # normal +z
    boundary = mesh_boundary(mesh_surface(patch, 3, 3))
    verts = boundary.vertices
    nxt = np.roll(verts, -1, axis=0)
    area = 0.5 * np.cross(verts, nxt).sum(axis=0)
    assert area[2] > 0  # counterclockwise seen from +z


def test_disk_boundary_stays_near_circle():
    mesh = mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, 1)), 16, 16)
    boundary = mesh_boundary(mesh)
    ts = np.linspace(boundary.t_start, boundary.t_end, 5001)
    radii = np.linalg.norm(boundary.position(ts)[:, :2], axis=1)
    assert np.abs(radii - 1.0).max() < 0.02
    # the polyline vertices themselves sit on the circle
    assert np.abs(np.linalg.norm(boundary.vertices[:, :2], axis=1) - 1.0).max() < 1e-12


def test_degenerate_patch_rejected():
    with pytest.raises(DegeneratePatch):
        PlanarRect((0, 0, 0), (1, 0, 0), (2, 0, 0))
    # degeneracy is the angle between the edges, whatever their lengths
    sin = 1e-13
    sliver = np.array([math.sqrt(1 - sin * sin), sin, 0.0])
    for scale in (1e-100, 1.0, 1e100):
        with pytest.raises(DegeneratePatch):
            PlanarRect((0, 0, 0), (scale, 0, 0), 0.5 * scale * sliver)
        patch = PlanarRect((0, 0, 0), (scale, 0, 0), (0, 1e-6 * scale, 0))
        assert np.array_equal(patch.constant_normal(), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        mesh_surface(PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)), 0, 4)


# ---------------------------------------------------------------------------
# Signed crossings through a single cell
# ---------------------------------------------------------------------------


def _cell(corner, edge_a, edge_b):
    """The 2 x 2 nodes of the one cell spanned by edge_a, edge_b at corner."""
    return mesh_surface(PlanarRect(corner, edge_a, edge_b), 1, 1).nodes


def _crossing(start, end, nodes):
    """(sign, point) of the segment's one crossing through the cell, or None."""
    signs, points = segment_crossings(start, end, nodes)
    assert len(signs) <= 1
    return (int(signs[0]), points[0]) if len(signs) else None


@pytest.fixture
def unit_cell():
    return _cell((0, 0, 0), (1, 0, 0), (0, 1, 0))


def test_axis_aligned_crossing(unit_cell):
    # through the cell's diagonal, shared by its two triangles
    sign, point = _crossing((0.5, 0.5, -1), (0.5, 0.5, 1), unit_cell)
    assert sign == 1
    assert np.allclose(point, [0.5, 0.5, 0])


def test_crossing_sign_antisymmetry(unit_cell):
    sign, point = _crossing((0.5, 0.5, 1), (0.5, 0.5, -1), unit_cell)
    assert sign == -1
    assert np.allclose(point, [0.5, 0.5, 0])


def test_parallel_segment_misses(unit_cell):
    assert _crossing((0, 0, 1), (1, 0, 1), unit_cell) is None


def test_crossing_outside_panel(unit_cell):
    assert _crossing((2.0, 0.5, -1), (2.0, 0.5, 1), unit_cell) is None


def test_panel_orientation_flip_negates_sign(unit_cell):
    flipped = _cell((0, 0, 0), (0, 1, 0), (1, 0, 0))
    up = _crossing((0.5, 0.5, -1), (0.5, 0.5, 1), unit_cell)
    up_flipped = _crossing((0.5, 0.5, -1), (0.5, 0.5, 1), flipped)
    assert up[0] == -up_flipped[0]


# unit cells (i, j) covering [0, 3] x [0, 4]; triangle 0 of a cell is its
# lower right half (corners 0, 1, 2), triangle 1 its upper left half
_GRID = mesh_surface(PlanarRect((0, 0, 0), (3, 0, 0), (0, 4, 0)), 3, 4).nodes


def _raised(error, starts, ends, nodes):
    with pytest.raises(error) as info:
        segment_crossings(starts, ends, nodes)
    return info.value


def _vertical(*xy):
    """Segments from (x, y, -1) to (x, y, 1), one per (x, y)."""
    return [(x, y, -1.0) for x, y in xy], [(x, y, 1.0) for x, y in xy]


def test_edge_proximity_is_degenerate(unit_cell):
    # on each of the cell's own four edges, and at a corner, with the
    # triangle whose rim edge it is
    rim_points = ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0))
    for (x, y), triangle in zip(rim_points, (1, 0, 0, 1, 0)):
        exc = _raised(DegenerateIntersection, (x, y, -1), (x, y, 1), unit_cell)
        assert (exc.segment, exc.cell, exc.triangle) == (0, (0, 0), triangle)
        assert str(exc) == "crossing lies exactly on the surface's outer boundary"
        assert type(exc) is DegenerateIntersection
    exc = _raised(DegenerateIntersection, *_vertical((0.5, 0.5), (1.5, 2.5), (3.0, 2.5)), _GRID)
    assert (exc.segment, exc.cell, exc.triangle) == (2, (2, 2), 0)


def test_endpoint_on_plane_is_degenerate(unit_cell):
    exc = _raised(DegenerateIntersection, (0.5, 0.5, 0), (0.5, 0.5, 1), unit_cell)
    assert (exc.segment, exc.cell, exc.triangle) == (0, (0, 0), 0)
    assert str(exc).startswith("sample endpoint lies on a triangle's plane inside the triangle")
    starts, ends = _vertical((0.5, 0.5), (2.2, 3.2), (1.5, 2.5))
    starts[2] = (1.5, 2.5, 0.0)
    exc = _raised(DegenerateIntersection, starts, ends, _GRID)
    assert (exc.segment, exc.cell, exc.triangle) == (2, (1, 2), 0)


def test_glancing_crossing_is_nontransversal(unit_cell):
    exc = _raised(NonTransversal, (0.4, 0.5, -1e-12), (0.6, 0.5, 1e-12), unit_cell)
    assert (exc.segment, exc.cell, exc.triangle) == (0, (0, 0), 0)
    assert exc.cos_angle == pytest.approx(1e-11, rel=1e-9)
    assert str(exc) == "crossing direction nearly parallel to the surface (|cos| = 1e-11)"
    # the most glancing of two, in the upper left half of cell (2, 3)
    starts, ends = _vertical((0.5, 0.5), (1.5, 2.5))
    starts += [(1.1, 0.5, -5e-11), (2.1, 3.5, -1e-12)]
    ends += [(1.3, 0.5, 5e-11), (2.3, 3.5, 1e-12)]
    exc = _raised(NonTransversal, starts, ends, _GRID)
    assert (exc.segment, exc.cell, exc.triangle) == (3, (2, 3), 1)
    assert exc.cos_angle == pytest.approx(1e-11, rel=1e-9)


def test_crossing_error_attributes_default_to_none():
    for exc in (DegenerateIntersection("message"), NonTransversal("message")):
        assert str(exc) == "message"
        assert (exc.segment, exc.cell, exc.triangle) == (None, None, None)
    assert NonTransversal("message").cos_angle is None


def test_far_coplanar_endpoint_is_harmless(unit_cell):
    # endpoint on the cell's infinite plane but far from the cell itself
    assert _crossing((50.0, 0.5, 0.0), (50.0, 0.5, 1.0), unit_cell) is None


def test_skew_panel_crossing():
    patch = PlanarRect((0, 0, 0), (1, 0, 0.2), (0.1, 1, -0.1))
    mid = patch.point(0.5, 0.5)
    n = patch.constant_normal()
    sign, point = _crossing(mid - n, mid + n, _cell(patch.corner, patch.edge_a, patch.edge_b))
    assert sign == 1
    assert np.allclose(point, mid, atol=1e-12)


@pytest.mark.parametrize("chunk", [1 << 12, 7])
@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (8, 8), (13, 6), (17, 4)])
def test_broad_phase_finds_every_overlapping_box(monkeypatch, chunk, m, n):
    from loopfield import geometry

    monkeypatch.setattr(geometry, "_SEGMENT_CHUNK", chunk)
    rng = np.random.default_rng(m * 100 + n)
    u, v = np.meshgrid(np.linspace(0, 1, m + 1), np.linspace(0, 1, n + 1), indexing="ij")
    nodes = np.stack([u, v, 0.3 * np.sin(3 * u) * v], axis=-1) + 0.01 * rng.normal(size=(m + 1, n + 1, 3))
    cells = np.stack([nodes[:-1, :-1], nodes[1:, :-1], nodes[1:, 1:], nodes[:-1, 1:]], axis=2)
    starts = rng.uniform(-0.2, 1.2, (60, 3))
    ends = starts + rng.normal(scale=0.15, size=(60, 3))
    seg, cell = geometry._candidate_pairs(starts, ends, cells)
    lo, hi = cells.min(axis=2).reshape(-1, 3), cells.max(axis=2).reshape(-1, 3)
    s_lo, s_hi = np.minimum(starts, ends), np.maximum(starts, ends)
    expected = np.all((s_lo[:, None] <= hi) & (s_hi[:, None] >= lo), axis=-1)
    found = np.zeros_like(expected)
    found[seg, cell] = True
    assert len(seg) == expected.sum()
    assert np.array_equal(found, expected)


# grid sides weighted toward the edges of the broad phase's padding, 4^k - 1,
# 4^k and 4^k + 1
_GRID_SIDES = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65]), st.integers(1, 70))


@given(
    m=_GRID_SIDES,
    n=_GRID_SIDES,
    count=st.integers(0, 40),
    jitter=st.sampled_from([0.0, 1e-3, 0.05]),
    length=st.sampled_from([0.0, 0.02, 0.3, 2.0]),
    snap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_broad_phase_returns_the_brute_force_pairs(m, n, count, jitter, length, snap, seed):
    from loopfield import geometry

    rng = np.random.default_rng(seed)
    u, v = np.meshgrid(np.linspace(0, 1, m + 1), np.linspace(0, 1, n + 1), indexing="ij")
    nodes = np.stack([u, v, 0.2 * u * v], axis=-1) + jitter * rng.normal(size=(m + 1, n + 1, 3))
    starts = rng.uniform(-0.5, 1.5, (count, 3))
    ends = starts + length * rng.normal(size=(count, 3))
    if snap:
        # on a coarse grid, so that segment and cell boxes touch exactly
        nodes, starts, ends = (np.round(16 * x) / 16 for x in (nodes, starts, ends))
    cells = np.stack([nodes[:-1, :-1], nodes[1:, :-1], nodes[1:, 1:], nodes[:-1, 1:]], axis=2)
    seg, cell = geometry._candidate_pairs(starts, ends, cells)
    lo, hi = cells.min(axis=2).reshape(-1, 3), cells.max(axis=2).reshape(-1, 3)
    s_lo, s_hi = np.minimum(starts, ends), np.maximum(starts, ends)
    expected = np.all((s_lo[:, None] <= hi) & (s_hi[:, None] >= lo), axis=-1)
    assert np.all(np.diff(seg) >= 0)
    pairs = sorted(zip(seg.tolist(), cell.tolist()))
    assert pairs == [tuple(pair) for pair in np.argwhere(expected).tolist()]


def _orientations_by_np_cross(tri, origin, direction):
    """The reference for geometry._edge_orientations, by np.cross and np.roll."""
    rel = tri - origin[:, None, :]
    nxt = np.roll(rel, -1, axis=1)
    d = direction[:, None, :]
    r, q = np.abs(rel), np.abs(nxt)
    abs_cross = r[..., [1, 2, 0]] * q[..., [2, 0, 1]] + r[..., [2, 0, 1]] * q[..., [1, 2, 0]]

    def dot(x, y):
        return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]

    return dot(d, np.cross(rel, nxt)), 8.0 * 2.0**-53 * dot(np.abs(d), abs_cross)


def test_edge_orientations_are_bitwise_the_np_cross_reference():
    # triangles, origins and directions over many binary exponents; on small
    # integers some orientations are exactly zero, and with the origin on the
    # line of an edge some are within their error bound.  Which of them go to
    # the exact fallback is decided by these floats, so they must not drift.
    from loopfield import geometry

    rng = np.random.default_rng(20261019)
    in_doubt = 0
    for trial in range(60):
        count = int(rng.integers(1, 40))
        scale = np.ldexp(1.0, int(rng.integers(-80, 80)))
        tri = scale * np.ldexp(rng.normal(size=(count, 3, 3)), rng.integers(-20, 20, (count, 1, 1)))
        origin = tri.mean(axis=1) + scale * rng.normal(size=(count, 3))
        direction = np.ldexp(rng.normal(size=(count, 3)), rng.integers(-60, 60, (count, 1)))
        if trial % 3 == 1:
            tri, origin = np.round(tri / scale), np.round(origin / scale)
            direction = rng.integers(-3, 4, (count, 3)).astype(float)
        elif trial % 3 == 2:
            origin = tri[:, 0] + rng.uniform(-1, 2, (count, 1)) * (tri[:, 1] - tri[:, 0])
        ours = geometry._edge_orientations(tri, origin, direction)
        in_doubt += np.count_nonzero(np.abs(ours[0]) <= ours[1])
        reference = _orientations_by_np_cross(tri, origin, direction)
        for x, y in zip(ours, reference):
            assert x.shape == y.shape == (count, 3)
            assert x.tobytes() == y.tobytes()
    assert in_doubt >= 100


def _fraction_side(p0, p1, a, b):
    """The reference for geometry._exact_side: the same two signs in
    fractions.Fraction arithmetic."""
    p0, p1, a, b = ([Fraction(float(x)) for x in v] for v in (p0, p1, a, b))
    d, u, v = ([x - y for x, y in zip(q, p0)] for q in (p1, a, b))
    e = [x - y for x, y in zip(v, u)]

    def sign(x):
        return (x > 0) - (x < 0)

    side = sign(sum(d[i] * (u[i - 2] * v[i - 1] - u[i - 1] * v[i - 2]) for i in range(3)))
    ties = [sign(d[i - 2] * e[i - 1] - d[i - 1] * e[i - 2]) for i in range(3)]
    return side, next((t for t in ties if t), 0)


def test_exact_side_matches_fractions_on_near_degenerate_lines():
    # lines through grid nodes and through points on grid edges, of meshes
    # that are moved and scaled (some not at all, so that orientations are
    # exactly zero and the tie-break decides), against each edge at the node
    from loopfield import geometry

    rng = np.random.default_rng(20261018)
    exact_zero = 0
    for trial in range(40):
        mesh = mesh_surface(
            Disk((0, 0, 0), 1.0, (0, 0, 1)) if trial % 2 else PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)),
            6,
            6,
        )
        nodes = mesh.nodes
        if trial >= 8:
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            scale = 10.0 ** rng.uniform(-8, 8)
            nodes = scale * nodes @ rot.T + rng.uniform(-1e3, 1e3, 3)
        for _ in range(25):
            i, j = rng.integers(1, 6, 2)
            node = nodes[i, j]
            neighbours = [nodes[i + 1, j], nodes[i, j + 1], nodes[i + 1, j + 1], nodes[i - 1, j]]
            through = node if rng.uniform() < 0.5 else node + rng.uniform() * (neighbours[0] - node)
            direction = np.cross(nodes[i + 1, j] - node, nodes[i, j + 1] - node)
            if trial >= 4:
                direction = direction + 0.3 * np.linalg.norm(direction) * rng.normal(size=3)
            p0, p1 = through - direction, through + 0.7 * direction
            for other in neighbours:
                for a, b in ((node, other), (other, node)):
                    expected = _fraction_side(p0, p1, a, b)
                    assert geometry._exact_side(p0, p1, a, b) == expected
                    exact_zero += expected[0] == 0
    assert exact_zero >= 100
