import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp

from loopfield import (
    Circle,
    CompositeCurve,
    Curve,
    DegenerateIntersection,
    DegeneratePatch,
    DipoleSheetSpec,
    Disk,
    NonTransversal,
    PlanarRect,
    PolyLine,
    RectLoop,
    SurfaceMesh,
    SurfacePatch,
    as_vec3,
    bounding_box_diagonal,
    combinatorial_lk,
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
    breaks = np.concatenate([curve.smooth_cuts(), rev.smooth_cuts()])
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
    assert combo.smooth_cuts() == (0.0, 1.0, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_composite_closedness_does_not_change_under_scaling():
    # a composite is closed when every joint lies within 1e-12 box
    # diagonals, with no absolute floor, and its gaps are measured in a
    # power-of-two unit: at 2^k, for k from -600 to 600, each composite is
    # as closed as it is at size 1, and the two open polylines below stay
    # open at 1e-13
    ring = Circle((0.1, -0.2, 0.3), 0.9, (1, 2, 3))
    joint = ring.position(0.0)
    corner = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0)], dtype=float)

    def composites(s):
        """(composite, closed) pairs at size s."""
        return [
            (CompositeCurve([PolyLine(s * corner), PolyLine(s * np.array([(0, 2, 0), (0, 3, 0)]))]), False),
            (CompositeCurve([PolyLine(s * corner), PolyLine(s * np.array([(1, 1, 0), (0, 0, 0)]))]), True),
            (CompositeCurve([PolyLine(s * corner), PolyLine(s * np.array([(1, 1, 0), (0, 1e-13, 0)]))]), True),
            (CompositeCurve([PolyLine(s * corner), PolyLine(s * np.array([(1, 1, 0), (0, 1e-11, 0)]))]), False),
            (CompositeCurve([Circle(s * ring.center, s * ring.radius, ring.axis),
                             PolyLine(s * np.array([joint, (1, 1, 1), joint]))]), True),
            (CompositeCurve([Circle(s * ring.center, s * ring.radius, ring.axis),
                             PolyLine(s * np.array([joint, (1, 1, 1)]))]), False),
        ]

    for s in [1e-13] + [2.0**k for k in range(-600, 601)]:
        for n, (composite, closed) in enumerate(composites(s)):
            assert composite.closed == closed, (s, n)


def test_nested_composite_keeps_its_smooth_cuts():
    # the parts' cuts, each moved to its place in the stack, with the
    # shared ends once; the values the base class's dedup of the parts'
    # interior breakpoints gave
    ring = Circle((0, 0, 0), 1.0, (0, 0, 1))
    spur = PolyLine([(1, 0, 0), (1, 0, 0.3), (0.6, 0.1, 0.3), (1, 0, 0)])
    hook = PolyLine([(1, 0, 0), (1.2, 0.1, 0), (1.3, 0.4, 0.2)])
    tilted = Circle((1, 1, 1), 0.7, (1, 2, 3), "cw")
    curve = CompositeCurve([ring, CompositeCurve([spur, CompositeCurve([hook, tilted])]), hook.reversed()])
    assert curve.smooth_cuts() == (
        0.0, 6.283185307179586, 6.583185307179586, 6.995495869741353, 7.505397821100631,
        7.72900461885061, 8.103170357528004, 14.38635566470759, 14.760521403384985, 14.984128201134963,
    )


def _rotation(q):
    """The rotation matrix of the quaternion q, normalized."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


_UNIT_BOX = st.floats(-1.0, 1.0)


@st.composite
def _moved_curves(draw):
    """A Circle, a PolyLine or composites of them nested up to three deep,
    under one rotation, scale from 1e-3 to 1e3 and shift."""
    q = draw(hnp.arrays(float, 4, elements=_UNIT_BOX))
    assume(np.linalg.norm(q) > 0.1)
    rotation = _rotation(q)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    shift = draw(hnp.arrays(float, 3, elements=st.floats(-1e3, 1e3)))

    def curve(depth):
        kind = draw(st.sampled_from(["circle", "polyline", "composite"][: 3 if depth < 3 else 2]))
        if kind == "circle":
            axis = draw(hnp.arrays(float, 3, elements=_UNIT_BOX))
            assume(np.linalg.norm(axis) > 0.1)
            center = draw(hnp.arrays(float, 3, elements=_UNIT_BOX))
            radius = draw(st.floats(0.1, 3.0))
            orientation = draw(st.sampled_from(["ccw", "cw"]))
            return Circle(scale * rotation @ center + shift, scale * radius, rotation @ axis, orientation)
        if kind == "polyline":
            vertices = draw(hnp.arrays(float, (draw(st.integers(2, 6)), 3), elements=_UNIT_BOX))
            closed = draw(st.booleans())
            legs = np.diff(np.concatenate((vertices, vertices[:1])) if closed else vertices, axis=0)
            assume(np.linalg.norm(legs, axis=1).min() > 1e-3)
            return PolyLine(scale * vertices @ rotation.T + shift, closed=closed)
        return CompositeCurve([curve(depth + 1) for _ in range(draw(st.integers(1, 3)))])

    return curve(0)


@given(curve=_moved_curves())
def test_max_speed_bounds_the_tangent_and_is_reached(curve):
    # dense samples, and one inside each smooth piece, so the fastest
    # part is sampled however short it is
    cuts = np.array(curve.smooth_cuts())
    ts = np.concatenate((np.linspace(curve.t_start, curve.t_end, 1025), 0.5 * (cuts[:-1] + cuts[1:])))
    speeds = np.linalg.norm(curve.tangent(ts), axis=1)
    bound = curve.max_speed()
    assert speeds.max() <= bound * (1.0 + 2.0**-50)
    assert speeds.max() >= bound * (1.0 - 2.0**-50)


def test_a_curve_kind_without_the_closed_forms_raises_type_error():
    class Bare(Curve):
        pass

    with pytest.raises(TypeError, match="no parameter speed bound for a Bare"):
        Bare().max_speed()
    with pytest.raises(TypeError, match="no closed-form vector area for a Bare"):
        Bare().vector_area()


def test_polyline_distance_exact():
    line = PolyLine([(0, 0, 0), (2, 0, 0)])
    assert line.distance_to((1.0, 1.0, 0.0)) == pytest.approx(1.0)
    assert line.distance_to((3.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert line.distance_to((-1.0, 1.0, 0.0)) == pytest.approx(math.sqrt(2))


def test_distance_to_takes_many_points():
    circle = Circle((1, 2, 3), 0.7, (0, 1, 1))
    line = PolyLine([(0, 0, 0), (2, 0, 0), (2, 1, 1)])
    # a tilted axis: the height along it was a matmul, whose one-row kernel
    # rounds unlike its many-row one
    tilted = Circle((0.1, -0.2, 0.3), 0.8, (0.3, -0.4, 1.0))
    curves = (circle, tilted, line, CompositeCurve([line, PolyLine([(2, 1, 1), (1, 2, 3)])]))
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
    tilted = (PlanarRect((0.1, -0.2, 0.3), (1.2, 0.3, -0.1), (-0.2, 0.9, 0.4)), Disk((0.1, -0.2, 0.3), 0.8, (0.3, -0.4, 1.0)))
    for patch in patches + tilted:
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


def _objects_of_size(rng, s):
    """A circle, a disk, a parallelogram, and a closed and an open polyline,
    of size about s near s * (1, 1, 1); rng draws the same shapes for
    every s."""
    c = s * (1.0 + rng.normal(size=3))
    verts = c + s * rng.normal(size=(5, 3))
    return [
        Circle(c, s * rng.uniform(0.5, 2.0), rng.normal(size=3)),
        Disk(c, s * rng.uniform(0.5, 2.0), rng.normal(size=3)),
        PlanarRect(c, s * rng.normal(size=3), s * rng.normal(size=3)),
        PolyLine(verts, closed=True),
        PolyLine(verts[:3]),
    ]


@given(k=st.integers(-600, 600), seed=st.integers(0, 2**32 - 1))
@example(k=511, seed=0)
@example(k=-511, seed=0)
@example(k=600, seed=0)
@example(k=-600, seed=0)
def test_distances_and_the_box_diagonal_scale_by_powers_of_two(k, seed):
    # each distance and the box diagonal work in a power-of-two unit of
    # their object's size, so at 2^k they are 2^k times the unscaled ones,
    # bitwise and under warnings as errors, for points from 1e-3 to 1e3
    # sizes away
    s = 2.0**k
    rng = np.random.default_rng(seed)
    points = 1.0 + rng.normal(size=(9, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (9, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unscaled = _objects_of_size(np.random.default_rng(seed), 1.0)
        scaled = _objects_of_size(np.random.default_rng(seed), s)
        for one, other in zip(unscaled, scaled):
            assert other.distance_to(s * points).tobytes() == (s * one.distance_to(points)).tobytes(), type(one)
            assert bounding_box_diagonal([other]) == s * bounding_box_diagonal([one])
        assert bounding_box_diagonal(scaled) == s * bounding_box_diagonal(unscaled)


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


def test_curved_patches_have_no_bounding_box():
    # a patch's box is its rim's; a patch without one is refused by type
    with pytest.raises(TypeError, match="Dome"):
        bounding_box_diagonal([Dome(0.35)])
    # nor offsets, which are its rim's too, nor so a distance
    with pytest.raises(TypeError, match="Dome"):
        Dome(0.35).distance_to((0.0, 0.0, 2.0))


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


def test_meshes_of_any_size_build_and_a_collapsed_one_raises():
    # the degeneracy check's cross products overflowed at 1e80 and
    # underflowed to zero, a degenerate mesh, at 1e-200; the edge lengths'
    # squares read 0.0 at 1e-170 and overflowed at 1e160
    unit_disk_edge = math.sqrt(2.0) / 3.0
    for patch, edge in ((PlanarRect((0, 0, 0), (1e80, 0, 0), (0, 1e80, 0)), 1e80 / 3.0),
                        (Disk((0, 0, 0), 1e-200, (0, 0, 1)), 1e-200 * unit_disk_edge),
                        (Disk((0, 0, 0), 1e-170, (0, 0, 1)), 1e-170 * unit_disk_edge),
                        (Disk((0, 0, 0), 1e160, (0, 0, 1)), 1e160 * unit_disk_edge)):
        mesh = mesh_surface(patch, 3, 3)
        assert mesh.min_edge_length() == pytest.approx(edge, rel=1e-15)
    nodes = PlanarRect((0, 0, 0), (1e80, 0, 0), (0, 1e80, 0)).point(
        np.linspace(0, 1, 4)[:, None], np.linspace(0, 1, 4)[None, :]
    )
    collapsed = nodes.copy()
    collapsed[1] = collapsed[0]
    with pytest.raises(DegeneratePatch, match="min area 0$"):
        SurfaceMesh(collapsed)
    # a sliver's area in absolute units: 1e60 by a third of 1e80
    sliver = nodes.copy()
    sliver[1, :, 0] = 1e60
    with pytest.raises(DegeneratePatch, match=r"min area 3\.33333e\+139$"):
        SurfaceMesh(sliver)


def test_planar_rects_of_any_size_build():
    # the normal's cross product underflowed to zero at 1e-170, so the
    # patch read as degenerate, and overflowed at 1e160; so did the dual
    # basis's Gram matrix and the rim's squared edge lengths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in (1e-170, 1e160):
            rect = PlanarRect((0, 0, 0), (size, 0, 0), (0, size, 0))
            assert np.array_equal(rect.constant_normal(), [0.0, 0.0, 1.0])
            assert rect.rim().t_end == pytest.approx(4.0 * size, rel=1e-15)
            assert rect.distance_to((0.25 * size, 0.5 * size, 3.0 * size)) == 3.0 * size


def _bad_grid(case):
    """A 2 x 2 grid of the unit square, spoilt as `case` says."""
    u = np.linspace(0, 1, 3)
    nodes = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)).point(u[:, None], u[None, :])
    if case in ("nan", "inf"):
        nodes[1, 1, 2] = float(case)
        return nodes
    return {"2-D": nodes[0], "one row": nodes[:1], "one column": nodes[:, :1], "two components": nodes[..., :2]}[case]


@pytest.mark.parametrize("case", ["nan", "inf", "2-D", "one row", "one column", "two components"])
def test_a_bad_node_grid_raises_degenerate_patch(case):
    # a NaN node passed the degeneracy check, so the dipole sum read NaN
    # and a loop through the unit square counted Lk 0; the others raised
    # a RuntimeWarning, an IndexError or a ValueError
    match = "non-finite" if case in ("nan", "inf") else r"\(M\+1, N\+1, 3\) grid"
    with pytest.raises(DegeneratePatch, match=match):
        SurfaceMesh(_bad_grid(case))


def test_a_patch_with_non_finite_points_does_not_mesh():
    class Cusp(PlanarRect):
        def point(self, u, v):
            return super().point(u, v) + np.where(np.asarray(u)[..., None] == 0.5, np.inf, 0.0)

    with pytest.raises(DegeneratePatch, match="non-finite"):
        mesh_surface(Cusp((0, 0, 0), (1, 0, 0), (0, 1, 0)), 2, 2)


def test_a_mesh_keeps_its_own_copy_of_the_nodes():
    # the mesh froze the caller's array, so the first assignment raised
    # "assignment destination is read-only"; neither the mesh's nodes nor
    # the crossing index built from them may follow the caller's edits
    nodes = mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, 1)), 15, 15).nodes.copy()
    mesh = SurfaceMesh(nodes)
    loop = Circle((1, 0, 0), 1.0, (0, 1, 0), "ccw")
    assert combinatorial_lk(loop, mesh) == 1
    kept = mesh.nodes.copy()
    nodes[0, 0, 0] = 5.0
    nodes[..., 2] += 3.0  # a disk this high would miss the loop
    assert np.array_equal(mesh.nodes, kept)
    assert not mesh.nodes.flags.writeable
    assert combinatorial_lk(loop, mesh) == 1


_EDGE_MESHES = {
    "rect": lambda: mesh_surface(PlanarRect((0.1, -0.2, 0.3), (1.2, 0.3, -0.1), (-0.2, 0.9, 0.4)), 5, 7),
    "disk": lambda: mesh_surface(Disk((0.1, -0.2, 0.3), 0.8, (0.3, -0.4, 1.0)), 8, 8),
    "dome": lambda: mesh_surface(Dome(0.35), 6, 9),
}


@pytest.mark.parametrize("name", sorted(_EDGE_MESHES))
def test_mesh_areas_and_edges_are_the_absolute_formulas_bitwise(name):
    # the mesh works in a power-of-two unit, exactly
    mesh = _EDGE_MESHES[name]()
    n = mesh.nodes
    assert np.array_equal(mesh.cell_vector_areas, 0.5 * np.cross(n[1:, 1:] - n[:-1, :-1], n[:-1, 1:] - n[1:, :-1]))
    assert mesh.min_edge_length() == min(np.linalg.norm(np.diff(n, axis=axis), axis=-1).min() for axis in (0, 1))


def test_min_edge_length_sees_the_last_row_and_column():
    # a trapezoid whose edges along i shrink from 1/3 at j = 0 to 1/3000
    # at j = n: only the edges leaving each cell's first node were
    # measured, which gave 0.111
    u, v = np.linspace(0, 1, 4)[:, None], np.linspace(0, 1, 4)[None, :]
    nodes = np.stack(np.broadcast_arrays(u * (1.0 - 0.999 * v), v, 0.0), axis=-1)
    assert SurfaceMesh(nodes).min_edge_length() == pytest.approx(1.0 / 3000.0, rel=1e-12)


@pytest.mark.parametrize("name", sorted(_EDGE_MESHES))
@given(k=st.integers(-600, 600))
def test_min_edge_length_scales_exactly_by_powers_of_two(name, k):
    mesh = _EDGE_MESHES[name]()
    assert SurfaceMesh(mesh.nodes * 2.0**k).min_edge_length() == mesh.min_edge_length() * 2.0**k


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
    seg, cell = geometry._candidate_pairs(starts, ends, geometry._triangle_index(nodes))
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
    seg, cell = geometry._candidate_pairs(starts, ends, geometry._triangle_index(nodes))
    lo, hi = cells.min(axis=2).reshape(-1, 3), cells.max(axis=2).reshape(-1, 3)
    s_lo, s_hi = np.minimum(starts, ends), np.maximum(starts, ends)
    expected = np.all((s_lo[:, None] <= hi) & (s_hi[:, None] >= lo), axis=-1)
    assert np.all(np.diff(seg) >= 0)
    pairs = sorted(zip(seg.tolist(), cell.tolist()))
    assert pairs == [tuple(pair) for pair in np.argwhere(expected).tolist()]


@pytest.mark.parametrize("m, n", [(8, 8), (9, 9), (15, 15), (16, 16), (17, 17), (8, 70), (65, 64)])
def test_the_triangle_index_keeps_its_stated_bytes_per_cell(m, n):
    # _TriangleIndex states 214 bytes per cell for the triangles and at most
    # 310 in all from 8 to 70 cells a side; growth has to change both
    from loopfield import geometry

    u, v = np.meshgrid(np.linspace(0, 1, m + 1), np.linspace(0, 1, n + 1), indexing="ij")
    index = geometry._triangle_index(np.stack([u, v, 0.2 * u * v], axis=-1))
    arrays = [value for value in index if isinstance(value, np.ndarray)]
    triangles = sum(x.nbytes for x in arrays)
    boxes = sum(level.nbytes for level, _ in index.levels)
    assert triangles == 214 * m * n
    assert triangles + boxes <= 310 * m * n


def _crossings_outcome(count):
    """A count's signs and crossing points as bytes, or its error's type,
    message and attributes."""
    try:
        signs, points = count()
    except (DegenerateIntersection, NonTransversal) as exc:
        return type(exc), str(exc), exc.segment, exc.cell, exc.triangle, getattr(exc, "cos_angle", None)
    return signs.tobytes(), points.tobytes()


@given(
    surface=st.sampled_from(["flat", "curved", "disk"]),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    count=st.integers(1, 40),
    snap=st.booleans(),
    glancing=st.booleans(),
    k=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_kept_index_counts_as_the_one_shot_form(surface, m, n, count, snap, glancing, k, seed):
    # twice through one mesh, the second time through the index its first
    # count kept, and once through segment_crossings, which indexes the
    # grid for that call alone: one kernel, so the same crossings bitwise,
    # or the same error.  Snapped to eighths, segments run exactly through
    # nodes and edges and end on flat grids, which reaches the tie-break
    # and both degenerate cases; a glancing segment reaches NonTransversal
    rng = np.random.default_rng(seed)
    if surface == "disk":
        nodes = mesh_surface(Disk((0.1, -0.2, 0.3), 0.4 * max(m, n), (0.3, -0.4, 1.0)), m, n).nodes
    else:
        u, v = np.meshgrid(np.arange(m + 1.0), np.arange(n + 1.0), indexing="ij")
        nodes = np.stack([u, v, 0.0 * u if surface == "flat" else 0.3 * np.sin(u) * v], axis=-1)
    starts = rng.uniform(-1.0, max(m, n) + 1.0, (count, 3))
    starts[:, 2] = rng.uniform(-2.0, 2.0, count)
    ends = starts + rng.normal(scale=2.0, size=(count, 3))
    if glancing:
        starts[-1, 2] = -1e-11
        ends[-1] = starts[-1] + (2.0, 1.0, 2e-11)
    if snap:
        nodes, starts, ends = (np.round(8.0 * x) / 8.0 for x in (nodes, starts, ends))
    nodes, starts, ends = (x * 2.0**k for x in (nodes, starts, ends))
    try:
        mesh = SurfaceMesh(nodes)
    except DegeneratePatch:
        assume(False)

    def through_the_mesh():
        signs, points = mesh.scaled_crossings(starts / mesh.unit, ends / mesh.unit)
        return signs, points * mesh.unit

    first, kept = _crossings_outcome(through_the_mesh), _crossings_outcome(through_the_mesh)
    assert first == kept == _crossings_outcome(lambda: segment_crossings(starts, ends, nodes))


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


def _reference_crossings(starts, ends, nodes, oriented):
    """A plain narrow phase over the broad phase's pairs, in their order,
    for segment_crossings to agree with bitwise: plane sides, endpoints on
    a plane, orientations by np.cross with fractions where their sign is in
    doubt, then the glancing and boundary checks and the tie-break.

    Appends to `oriented` the number of rows it orients at each step:
    those with an endpoint on their plane, and those that straddle it."""
    from loopfield import geometry

    p0s = np.asarray(starts, dtype=float).reshape(-1, 3)
    p1s = np.asarray(ends, dtype=float).reshape(-1, 3)
    m, n = nodes.shape[0] - 1, nodes.shape[1] - 1
    pairs = geometry._candidate_pairs(p0s, p1s, geometry._triangle_index(nodes))
    # two rows per pair, triangle 0 = corners (0, 1, 2) of the cell and 1 = (0, 2, 3)
    seg, cell = (np.repeat(ids, 2) for ids in pairs)
    half = np.tile([0, 1], len(seg) // 2)
    i, j = np.divmod(cell, n)
    quad = np.stack([nodes[i, j], nodes[i + 1, j], nodes[i + 1, j + 1], nodes[i, j + 1]], axis=1)
    tri = np.where(half[:, None, None] == 0, quad[:, [0, 1, 2]], quad[:, [0, 2, 3]])
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    rim = np.column_stack([(half == 0) & (j == 0), np.where(half == 0, i == m - 1, j == n - 1), (half == 1) & (i == 0)])
    p0, p1 = p0s[seg], p1s[seg]
    d = p1 - p0

    def dot(x, y):
        return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]

    def error(kind, message, row, **extra):
        return kind(message, segment=int(seg[row]), cell=(int(i[row]), int(j[row])), triangle=int(half[row]), **extra)

    s0, s1 = dot(normal, p0 - tri[:, 0]), dot(normal, p1 - tri[:, 0])
    for end, s in ((p0, s0), (p1, s1)):
        on_plane = np.flatnonzero(s == 0.0)
        oriented.append(len(on_plane))
        if len(on_plane):
            w, _ = _orientations_by_np_cross(tri[on_plane], end[on_plane], normal[on_plane])
            inside = on_plane[np.all(w >= 0.0, axis=1)]
            if len(inside):
                message = "sample endpoint lies on a triangle's plane inside the triangle; refine or perturb the sampling"
                raise error(DegenerateIntersection, message, inside[0])
    k = np.flatnonzero(np.sign(s0) * np.sign(s1) < 0.0)
    oriented.append(len(k))
    w, err = _orientations_by_np_cross(tri[k], p0[k], d[k])
    side, tie = np.sign(w).astype(int), np.zeros(w.shape, dtype=int)
    for r, e in zip(*np.nonzero(np.abs(w) <= err)):
        q = k[r]
        side[r, e], tie[r, e] = _fraction_side(p0[q], p1[q], tri[q, e], tri[q, (e + 1) % 3])
    closed = np.all(side >= 0, axis=1) | np.all(side <= 0, axis=1)
    k, side, tie = k[closed], side[closed], tie[closed]
    cos_angle = np.abs(dot(d[k], normal[k])) / (np.linalg.norm(d[k], axis=1) * np.linalg.norm(normal[k], axis=1))
    if np.any(cos_angle < 1e-9):
        r = cos_angle.argmin()
        message = f"crossing direction nearly parallel to the surface (|cos| = {cos_angle[r]:g})"
        raise error(NonTransversal, message, k[r], cos_angle=float(cos_angle[r]))
    on_rim = np.flatnonzero((rim[k] & (side == 0)).any(axis=1))
    if len(on_rim):
        raise error(DegenerateIntersection, "crossing lies exactly on the surface's outer boundary", k[on_rim[0]])
    side = np.where(side == 0, tie, side)
    hit = np.all(side > 0, axis=1) | np.all(side < 0, axis=1)
    k = k[hit]
    tau = s0[k] / (s0[k] - s1[k])
    return side[hit, 0], p0[k] + tau[:, None] * d[k]


@given(
    surface=st.sampled_from(["flat", "curved", "disk"]),
    m=st.integers(1, 10),
    n=st.integers(1, 10),
    count=st.integers(0, 20),
    special=st.sampled_from([None, "node", "endpoint", "boundary", "glancing"]),
    snap=st.booleans(),
    k=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_narrow_phase_agrees_with_a_plain_reference(surface, m, n, count, special, snap, k, seed):
    # signs and points bitwise, or the same error with the same attributes;
    # and only the rows with an endpoint on their plane and the rows that
    # straddle it reach the orientations, none when no row does.  Snapped
    # to eighths, segments run exactly through nodes and along edges, which
    # reaches the exact fallback and the tie-break; the special segment runs
    # through a node, ends on one, crosses the outer boundary or glances
    from unittest import mock

    from loopfield import geometry

    rng = np.random.default_rng(seed)
    if surface == "disk":
        nodes = mesh_surface(Disk((0.1, -0.2, 0.3), 0.4 * max(m, n), (0.3, -0.4, 1.0)), m, n).nodes
    else:
        u, v = np.meshgrid(np.arange(m + 1.0), np.arange(n + 1.0), indexing="ij")
        nodes = np.stack([u, v, 0.0 * u if surface == "flat" else 0.3 * np.sin(u) * v], axis=-1)
    starts = rng.uniform(-1.0, max(m, n) + 1.0, (count, 3))
    starts[:, 2] = rng.uniform(-2.0, 2.0, count)
    ends = starts + rng.normal(scale=2.0, size=(count, 3))
    if snap:
        nodes, starts, ends = (np.round(8.0 * x) / 8.0 for x in (nodes, starts, ends))
    a, b = rng.integers(0, m), rng.integers(0, n)
    node = nodes[a, b]
    if special == "node":
        starts, ends = np.append(starts, [node - (0.25, 0.125, 1.0)], 0), np.append(ends, [node + (0.25, 0.125, 1.0)], 0)
    elif special == "endpoint":
        starts, ends = np.append(starts, [node - (0.25, 0.5, 1.0)], 0), np.append(ends, [node], 0)
    elif special == "boundary":
        rim = [nodes[:, 0], nodes[-1], nodes[::-1, -1], nodes[0, ::-1]][int(rng.integers(4))]
        edge = 0.5 * (rim[0] + rim[1])
        starts, ends = np.append(starts, [edge - (0.0, 0.0, 1.0)], 0), np.append(ends, [edge + (0.0, 0.0, 1.0)], 0)
    elif special == "glancing":
        # across triangle 0 of cell (a, b), 1e-11 out of its plane
        corner, along, across = node, nodes[a + 1, b] - node, nodes[a + 1, b + 1] - node
        normal = np.cross(along, across)
        lift = 1e-11 * normal / np.linalg.norm(normal)
        middle = corner + 0.6 * along + 0.3 * across
        starts, ends = np.append(starts, [middle - 0.5 * along - lift], 0), np.append(ends, [middle + 0.5 * along + lift], 0)
    nodes, starts, ends = (x * 2.0**k for x in (nodes, starts, ends))
    try:
        SurfaceMesh(nodes)
    except DegeneratePatch:
        assume(False)

    rows = []
    orientations = geometry._edge_orientations

    def counted(tri, origin, direction):
        rows.append(len(origin))
        return orientations(tri, origin, direction)

    with mock.patch.object(geometry, "_edge_orientations", counted):
        ours = _crossings_outcome(lambda: segment_crossings(starts, ends, nodes))
    oriented = []
    assert ours == _crossings_outcome(lambda: _reference_crossings(starts, ends, nodes, oriented))
    assert sum(rows) == sum(oriented)
