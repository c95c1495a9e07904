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
    ParamOutOfRange,
    PlanarRect,
    PolyLine,
    RectLoop,
    SurfacePatch,
    as_vec3,
    dipole_sheet_field_exact,
    eval_curve,
    mesh_boundary,
    mesh_surface,
)
from loopfield.geometry import cross, segment_crossings


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
    pos, tan = eval_curve(c, 0.0)
    assert np.allclose(pos, [1, 0, 0], atol=1e-15)
    assert np.allclose(tan, [0, 1, 0], atol=1e-15)
    assert c.param_interval == (0.0, 2.0 * math.pi)


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
    pos, tan = eval_curve(loop, 4.0)
    assert np.allclose(pos, [0, 0, 0], atol=1e-15)
    assert np.allclose(tan, [0, 0, 1.0], atol=1e-15)
    assert loop.closed


def test_polyline_open_interpolation():
    line = PolyLine([(0, 0, 0), (1, 0, 0)])
    pos, tan = eval_curve(line, 0.5)
    assert np.allclose(pos, [0.5, 0, 0])
    assert np.allclose(tan, [1, 0, 0])


def test_polyline_vertex_tangent_is_outgoing():
    bent = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    _, tan = eval_curve(bent, 1.0)  # exactly at the interior vertex
    assert np.allclose(tan, [0, 1, 0])
    # final parameter falls back to the last segment
    _, tan_end = eval_curve(bent, bent.t_end)
    assert np.allclose(tan_end, [0, 1, 0])


def test_param_out_of_range():
    line = PolyLine([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ParamOutOfRange):
        eval_curve(line, 1.5)
    with pytest.raises(ParamOutOfRange):
        eval_curve(line, -0.1)


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
    """The unit disk lifted to z = h (1 - rho^2), with exact derivatives."""

    def __init__(self, height: float):
        self._disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
        self._height = height

    def point(self, u, v):
        p = self._disk.point(u, v)
        p[..., 2] = self._height * (1.0 - p[..., 0] ** 2 - p[..., 1] ** 2)
        return p

    def _lifted(self, u, v, d):
        p = self._disk.point(u, v)
        d[..., 2] = -2.0 * self._height * (p[..., 0] * d[..., 0] + p[..., 1] * d[..., 1])
        return d

    def du(self, u, v):
        return self._lifted(u, v, self._disk.du(u, v))

    def dv(self, u, v):
        return self._lifted(u, v, self._disk.dv(u, v))


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
        Disk((0.1, -0.2, 0.3), 1.7, (0.3, 0.4, 1.0)),
        _sheet(Disk((0.1, -0.2, 0.3), 1.7, (0.3, 0.4, 1.0)), -0.05),
        _sheet(PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0)), 0.01),
        Dome(0.35),
    ],
    ids=["rect", "disk", "shifted_disk", "shifted_rect", "dome"],
)
def test_element_is_point_and_area_element(patch):
    # whole square, then corner cells down to where the Disk's area element
    # is 3e-3 of its peak; nearer the corners |du x dv| itself loses digits
    cells = [(_UNIT_NODES[:, None], _UNIT_NODES[None, :])]
    for width in (1.0 / 4, 1.0 / 64):
        cells.extend(_corner_cells(width))
    for u, v in cells:
        point, area = patch.element(u, v)
        reference = np.linalg.norm(np.cross(patch.du(u, v), patch.dv(u, v)), axis=-1)
        np.testing.assert_allclose(point, patch.point(u, v), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(np.broadcast_to(area, reference.shape), reference, rtol=1e-13, atol=0.0)


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
    # its vector area 1/2 sum p_i x p_(i+1) points along du x dv
    samples = rim.position(np.linspace(rim.t_start, rim.t_end, 257)[:-1])
    area = 0.5 * np.cross(samples, np.roll(samples, -1, axis=0)).sum(axis=0)
    normal = patch.normal(0.4, 0.6)
    assert area @ normal > 0.0
    assert np.linalg.norm(np.cross(area, normal)) <= 1e-12 * np.linalg.norm(area)


def test_curved_patches_have_no_rim():
    assert Dome(0.35).rim() is None


def test_curved_patches_have_no_two_sheet_field():
    # the sheets of a dipole layer are the patch seen from x -/+ (h / 2) n,
    # which needs one normal n
    with pytest.raises(ValueError):
        dipole_sheet_field_exact(Dome(0.35), DipoleSheetSpec(1.0, 1e-3), (0.0, 0.0, 2.0))


def test_disk_area_element_keeps_its_digits_at_the_corners():
    # 4 R^2 sx sy - R^2 x^2 y^2 / (sx sy) at 40 digits; 2^-20 from a corner
    # |du x dv| of the float derivatives is off by about 1e-9
    radius = 1.7
    disk = Disk((0.1, -0.2, 0.3), radius, (0.3, 0.4, 1.0))

    def exact(u, v):
        x, y = 2 * mpmath.mpf(u) - 1, 2 * mpmath.mpf(v) - 1
        sx, sy = mpmath.sqrt(1 - x * x / 2), mpmath.sqrt(1 - y * y / 2)
        return float(radius**2 * (4 * sx * sy - x * x * y * y / (sx * sy)))

    with mpmath.workdps(40):
        for u, v in _corner_cells(2.0**-20):
            _, area = disk.element(u, v)
            reference = np.array([[exact(a, b) for b in v[0]] for a in u[:, 0]])
            np.testing.assert_allclose(area, reference, rtol=1e-14, atol=0.0)


def test_mesh_single_panel_identity():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    mesh = mesh_surface(patch, 1, 1)
    assert mesh.m == mesh.n == 1
    assert np.allclose(mesh.cell_vector_areas[0, 0], [0, 0, 1])
    assert np.allclose(mesh.total_area_vector(), [0, 0, 1])


def test_mesh_2x2_quarters():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    mesh = mesh_surface(patch, 2, 2)
    areas = mesh.cell_vector_areas.reshape(-1, 3)
    assert len(areas) == 4
    for area in areas:
        assert np.allclose(area, [0, 0, 0.25])
    assert np.allclose(mesh.total_area_vector(), [0, 0, 1])


def test_disk_mesh_area_converges_to_pi():
    disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
    sums = {}
    for m in (8, 16, 32):
        mesh = mesh_surface(disk, m, m)
        assert mesh.m * mesh.n == m * m
        total = mesh.total_area_vector()
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


def test_edge_proximity_is_degenerate(unit_cell):
    # on each of the cell's own four edges, and at a corner
    for x, y in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 1.0)):
        with pytest.raises(DegenerateIntersection):
            _crossing((x, y, -1), (x, y, 1), unit_cell)


def test_endpoint_on_plane_is_degenerate(unit_cell):
    with pytest.raises(DegenerateIntersection):
        _crossing((0.5, 0.5, 0), (0.5, 0.5, 1), unit_cell)


def test_glancing_crossing_is_nontransversal(unit_cell):
    with pytest.raises(NonTransversal):
        _crossing((0.4, 0.5, -1e-12), (0.6, 0.5, 1e-12), unit_cell)


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
