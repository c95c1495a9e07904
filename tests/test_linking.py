import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield import (
    Circle,
    CompositeCurve,
    CurvesTooClose,
    DegenerateIntersection,
    Disk,
    FieldConstants,
    LinkScene,
    PlanarRect,
    PolyLine,
    QuadratureSpec,
    RectLoop,
    bounding_box_diagonal,
    combinatorial_lk,
    curve_min_distance,
    gauss_linking,
    gauss_pair_integral,
    mesh_surface,
    vector_area,
)
from loopfield import linking, quadrature
from loopfield.experiments import axis_leg_closed_form, default_catalog, unit_circle, unit_disk_mesh
from test_fields import OtherCurve, gauss_pair_by_quadrature
from test_geometry import Dome


def hopf_partner():
    """Circle through the center of the unit circle's disk, linking it once."""
    return Circle((1, 0, 0), 1.0, (0, 1, 0), "ccw")


# ---------------------------------------------------------------------------
# Gauss double integral
# ---------------------------------------------------------------------------


def test_axis_leg_matches_closed_form():
    # the axis-leg integrand against the unit circle reduces to
    # (1+t^2)^(-3/2); its antiderivative t/sqrt(1+t^2) gives n/sqrt(1+n^2)
    circle = unit_circle()
    for n in (2, 5, 16):
        leg = PolyLine([(0, 0, -n), (0, 0, n)])
        value, err = gauss_pair_integral(leg, circle)
        assert abs(value - axis_leg_closed_form(n)) <= max(1e-10, 10 * err)


def _circle_with_spur():
    """The unit ring with a straight spur out and back from where its
    parameter starts (its joint, at (1, 0, 0)), leaving the ring's plane."""
    ring = unit_circle()
    joint = ring.position(ring.t_start)
    tip = joint + 0.5 * np.array([0.0, 0.6, 0.8])
    return CompositeCurve([ring, PolyLine([joint, tip, joint])]), joint


def test_composite_source_takes_the_circulation_route(monkeypatch):
    def no_2d(*args, **kwargs):
        raise AssertionError("a composite source reached 2-D quadrature")

    composite, _ = _circle_with_spur()
    nested = CompositeCurve([hopf_partner(), CompositeCurve([PolyLine([(2, 0, 0), (2, 0, 0.4), (2, 0, 0)])])])
    pairs = [(composite, Circle((1.0, 0.0, 0.0), 0.5, (0.0, 1.0, 0.0), "ccw")), (nested, unit_circle())]
    references = [gauss_pair_by_quadrature(c, l) for c, l in pairs]
    monkeypatch.setattr(linking, "integrate_2d", no_2d)
    for (c, l), (reference, err_ref) in zip(pairs, references):
        value, err = gauss_pair_integral(c, l)
        assert abs(abs(value) - 1.0) <= 1e-9
        assert abs(value - reference) <= err + err_ref


def test_sweep_to_the_guard_at_a_composite_joint():
    # a unit square in the plane of the joint's radius and the ring's axis,
    # its inner side d inside the joint; the ring crosses it at the joint
    # along +y, against the square's normal (radius x axis = -y), so Lk = -1
    composite, joint = _circle_with_spur()
    out, axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])

    def square(d):
        corners = [(-d, -0.5), (1.0 - d, -0.5), (1.0 - d, 0.5), (-d, 0.5)]
        return PolyLine([joint + a * out + b * axis for a, b in corners], closed=True)

    guard = QuadratureSpec().resolve_guard(bounding_box_diagonal([composite, square(1e-2)]))
    for d in np.geomspace(10.0 * guard, 1e-2, 5):
        assert curve_min_distance(composite, square(d)) == pytest.approx(d, rel=1e-9)
        for scene in (LinkScene(composite, square(d)), LinkScene(square(d), composite)):
            value, err = gauss_linking(scene)
            assert abs(value + 1.0) <= err <= 1e-6, (d, scene.curve_c)


def test_hopf_link_is_one():
    value, err = gauss_linking(LinkScene(hopf_partner(), unit_circle()))
    assert abs(value - 1.0) <= 1e-6
    assert err <= 1e-6


def test_far_circles_unlink():
    far = Circle((0, 0, 10.0), 1.0, (0, 0, 1), "ccw")
    value, err = gauss_linking(LinkScene(far, unit_circle()))
    assert abs(value) <= 1e-6


def _moved_circle_pair(seed):
    """A circle in the xz-plane about (a, 0, 0) that links the unit ring
    about +z, each traversed either way, with their linking number; moved
    by a seeded proper rotation and a shift of up to 1e6 sizes, then scaled
    by 2^k, k from -20 to 20.  Unlinked pairs are left out: shifted that
    far, their near approach makes rounding noise above abs_tol, and the
    quadrature stops converging by either form of the integrand."""
    rng = np.random.default_rng(seed)
    while True:
        a, r = rng.uniform(0.6, 1.6), rng.uniform(0.3, 0.9)
        # the circle meets the ring's plane at x = a - r, inside the ring,
        # and x = a + r, outside it
        if a - r < 0.9 and a + r > 1.1:
            break
    ways = rng.choice(["ccw", "cw"], 2)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    shift = rng.uniform(-1e6, 1e6, 3)
    scale = 2.0 ** int(rng.integers(-20, 21))

    def moved(center, radius, axis, way):
        return Circle(scale * (rot @ np.array(center) + shift), scale * radius, rot @ np.array(axis), way)

    circle_c = moved((a, 0.0, 0.0), r, (0.0, 1.0, 0.0), ways[0])
    ring = moved((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), ways[1])
    return circle_c, ring, 1 if ways[0] == ways[1] else -1


def _counting_cells(monkeypatch, module):
    """Counts the cells module's integrate_2d evaluates, one per integrand call."""
    cells = [0]
    integrate = module.integrate_2d

    def counting(f, *args, **kwargs):
        def counted(*xs):
            cells[0] += 1
            return f(*xs)

        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_2d", counting)
    return cells


@pytest.mark.parametrize("seed", range(16))
def test_circle_pair_integrand_matches_the_cross_product_form(monkeypatch, seed):
    # the circle source's cached-product integrand against the plain
    # (dm x (l - m)) . dl form: the same cell tree, the same value to
    # rounding, and the linking number within the estimate
    circle_c, circle_l, lk = _moved_circle_pair(seed)
    cells = _counting_cells(monkeypatch, linking)
    cells_ref = _counting_cells(monkeypatch, quadrature)
    value, err = gauss_pair_integral(circle_c, circle_l)
    reference, _ = gauss_pair_by_quadrature(circle_c, circle_l)
    assert cells[0] == cells_ref[0] > 0
    assert abs(value - reference) <= 1e-13
    assert abs(value - lk) <= err


def test_rect_loop_scenes_give_one():
    for n in (2, 32):
        value, _ = gauss_linking(LinkScene(RectLoop(n), unit_circle()))
        assert abs(value - 1.0) <= 1e-2
        assert abs(value - 1.0) <= 1e-6  # in practice far tighter than spec asks


def test_exchange_symmetry():
    scene = LinkScene(hopf_partner(), unit_circle())
    a_fwd, e_fwd = gauss_linking(scene)
    a_swp, e_swp = gauss_linking(scene.swapped())
    assert abs(a_fwd - a_swp) <= 2 * (e_fwd + e_swp) + 1e-12


def test_antisymmetry_under_reversal():
    scene = LinkScene(hopf_partner(), unit_circle())
    value, _ = gauss_linking(scene)
    rev_c, _ = gauss_linking(LinkScene(hopf_partner().reversed(), unit_circle()))
    rev_l, _ = gauss_linking(LinkScene(hopf_partner(), unit_circle().reversed()))
    assert rev_c == pytest.approx(-value, abs=1e-9)
    assert rev_l == pytest.approx(-value, abs=1e-9)


def test_deformation_invariance():
    # replacing the circle by a dilated, shifted coplanar circle that
    # cobounds an annulus missing the partner leaves the integral fixed
    partner = hopf_partner()
    small, e1 = gauss_linking(LinkScene(partner, unit_circle()))
    big, e2 = gauss_linking(
        LinkScene(partner, Circle((0.2, 0, 0), 1.4, (0, 0, 1), "ccw"))
    )
    assert abs(small - big) <= 2 * (e1 + e2) + 1e-12


def test_too_close_rejected():
    touching = Circle((1, 0, 0), 1.0, (0, 0, 1), "ccw")  # shares point with ring
    with pytest.raises(CurvesTooClose):
        gauss_linking(LinkScene(touching, unit_circle()))


def test_open_curve_rejected():
    arc = PolyLine([(0, 0, -1), (0, 0, 1)])
    with pytest.raises(ValueError):
        gauss_linking(LinkScene(arc, unit_circle()))


def test_curve_min_distance():
    a = Circle((0, 0, 0), 1.0, (0, 0, 1))
    b = Circle((0, 0, 3.0), 1.0, (0, 0, 1))
    assert curve_min_distance(a, b) == pytest.approx(3.0, abs=1e-6)
    # constant-distance pair
    assert curve_min_distance(hopf_partner(), unit_circle()) == pytest.approx(1.0, abs=1e-6)


def test_curve_min_distance_at_the_seam_and_at_a_corner():
    # the square's nearest point sits just before its parameter's end,
    # which is the same point as its start; the quadrilateral's at a corner
    square = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)
    beside_the_seam = Circle((-0.5, 0.01, 0.0), 0.2, (0, 0, 1))
    assert abs(curve_min_distance(square, beside_the_seam) - 0.3) <= 1e-12
    quad = PolyLine([(0, 0, 0), (1, 0, 0), (1.1, 0.9, 0), (0, 0.7, 0)], closed=True)
    beyond_a_corner = Circle((1.6, 1.3, 0.0), 0.2, (0, 0, 1))
    assert abs(curve_min_distance(quad, beyond_a_corner) - (math.sqrt(0.41) - 0.2)) <= 1e-12


# ---------------------------------------------------------------------------
# Combinatorial count
# ---------------------------------------------------------------------------


def test_rect_loops_cross_once():
    disk = unit_disk_mesh()
    for n in (2, 4, 8, 16, 32):
        assert combinatorial_lk(RectLoop(n), disk) == 1


def test_far_circle_crosses_zero_times():
    far = Circle((0, 0, 10.0), 1.0, (0, 0, 1), "ccw")
    assert combinatorial_lk(far, unit_disk_mesh()) == 0


def test_double_wind_counts_two():
    # passes up through the disk at x=+0.3 and x=-0.3, returning outside:
    # two upward transversal crossings, each +1
    loop = PolyLine(
        [
            (0.3, 0, -1), (0.3, 0, 1), (2.5, 0, 1), (2.5, 0, -1),
            (-0.3, 0, -1), (-0.3, 0, 1), (-2.5, 0, 1), (-2.5, 0, -1),
        ],
        closed=True,
    )
    assert combinatorial_lk(loop, unit_disk_mesh()) == 2


def test_zero_wind_cancels():
    # up at x=+0.3, down at x=-0.3: +1 - 1 = 0
    loop = PolyLine(
        [(0.3, 0, -1), (0.3, 0, 1), (-0.3, 0, 1), (-0.3, 0, -1)], closed=True
    )
    assert combinatorial_lk(loop, unit_disk_mesh()) == 0


def test_lk_sign_flips():
    disk = unit_disk_mesh()
    assert combinatorial_lk(hopf_partner(), disk) == 1
    assert combinatorial_lk(hopf_partner().reversed(), disk) == -1
    flipped_disk = mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, -1)), 15, 15)
    assert combinatorial_lk(hopf_partner(), flipped_disk) == -1


def test_lk_is_surface_independent():
    dome = mesh_surface(Dome(0.35), 15, 15)
    disk = unit_disk_mesh()
    for curve in (
        hopf_partner(),
        RectLoop(4),
        PolyLine(
            [
                (0.3, 0, -1), (0.3, 0, 1), (2.5, 0, 1), (2.5, 0, -1),
                (-0.3, 0, -1), (-0.3, 0, 1), (-2.5, 0, 1), (-2.5, 0, -1),
            ],
            closed=True,
        ),
    ):
        assert combinatorial_lk(curve, disk) == combinatorial_lk(curve, dome)


def _unit_square_mesh():
    return mesh_surface(PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)), 2, 2)


def _vertical_loop(x, y):
    """Up through (x, y, 0), back down at (3, 0.5), outside every mesh here."""
    return PolyLine([(x, y, -1), (x, y, 1), (3, 0.5, 1), (3, 0.5, -1)], closed=True)


def test_crossing_through_interior_node_counts_once():
    # vertical line through the centre node of the spanning square, where
    # four cells and two diagonals meet
    assert combinatorial_lk(_vertical_loop(0.5, 0.5), _unit_square_mesh()) == 1
    assert combinatorial_lk(_vertical_loop(0.5, 0.5).reversed(), _unit_square_mesh()) == -1


@pytest.mark.parametrize(
    "x, y", [(1.0, 0.3), (0.3, 0.0), (1.0, 1.0), (0.0, 0.7), (0.7, 1.0), (0.0, 0.5)]
)
def test_crossing_on_the_outer_boundary_raises(x, y):
    # undefined whichever side an infinitesimal shift of the line picks
    with pytest.raises(DegenerateIntersection):
        combinatorial_lk(_vertical_loop(x, y), _unit_square_mesh())


def test_sample_point_on_the_mesh_raises():
    # the vertex at z = 0 is a sample point lying inside a triangle
    loop = PolyLine(
        [(0.3, 0.2, -1), (0.3, 0.2, 0), (0.3, 0.2, 1), (3, 0.5, 1), (3, 0.5, -1)],
        closed=True,
    )
    with pytest.raises(DegenerateIntersection):
        combinatorial_lk(loop, _unit_square_mesh())


def test_crossing_in_a_former_panel_gap_counts_once():
    # the parallelogram panels of a disk mesh left a gap at this point
    assert combinatorial_lk(_vertical_loop(-0.441779, 0.679083), unit_disk_mesh(15, 15)) == 1


@pytest.mark.parametrize("surface", ["disk", "dome"])
def test_vertical_lines_inside_the_rim_count_once(surface):
    mesh = unit_disk_mesh(15, 15) if surface == "disk" else mesh_surface(Dome(0.35), 15, 15)
    rng = np.random.default_rng(20261018)
    radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 300))
    phi = rng.uniform(0.0, 2.0 * math.pi, 300)
    counts = [
        combinatorial_lk(_vertical_loop(r * math.cos(p), r * math.sin(p)), mesh)
        for r, p in zip(radius, phi)
    ]
    assert counts == [1] * 300


CATALOG_LK = {
    "hopf": 1,
    "hopf_reversed": -1,
    "unlinked_far": 0,
    "zero_wind": 0,
    "double_wind": 2,
    "axis_rect_8": 1,
}


@pytest.mark.parametrize("m", range(2, 33))
def test_catalog_counts_on_every_mesh_size(m):
    # even sizes put grid lines, and for axis_rect_8 the centre node, on
    # the crossing points
    for scene in default_catalog(m, m):
        lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
        assert lk == CATALOG_LK[scene.name], scene.name


def _moved_catalog(seed, m):
    """Catalog loops, the ring and an m x m disk spanning it, moved rigidly
    and scaled by a seeded motion, rebuilt from the moved centers, axes and
    vertices."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)  # a proper rotation
    scale = rng.uniform(0.1, 10.0)
    shift = rng.uniform(-5.0, 5.0, 3)

    def point(p):
        return scale * (rot @ np.asarray(p, dtype=float)) + shift

    def moved(curve):
        if isinstance(curve, Circle):
            return Circle(
                point(curve.center), scale * curve.radius, rot @ curve.axis, curve.orientation
            )
        return PolyLine([point(v) for v in curve.vertices], closed=True)

    disk = mesh_surface(Disk(point((0, 0, 0)), scale, rot @ np.array([0.0, 0.0, 1.0])), m, m)
    return [
        (scene.name, moved(scene.curve_c), moved(scene.curve_l), disk)
        for scene in default_catalog(m, m)
    ]


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 24))
def test_catalog_counts_survive_rigid_motion_and_scaling(seed, m):
    for name, curve, _, disk in _moved_catalog(seed, m):
        assert combinatorial_lk(curve, disk) == CATALOG_LK[name], name


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_polygon_gauss_routes_survive_rigid_motion_and_scaling(seed):
    # a polygon source takes the closed-form route and the ring source the
    # 2-D quadrature route; both land on Lk and agree with each other
    for name, polygon, ring, _ in _moved_catalog(seed, 2):
        if not isinstance(polygon, PolyLine):
            continue
        scene = LinkScene(polygon, ring, name=name)
        a_cl, e_cl = gauss_linking(scene)
        a_lc, e_lc = gauss_linking(scene.swapped())
        lk = CATALOG_LK[name]
        assert abs(a_cl - lk) <= 1e-4, name
        assert abs(a_lc - lk) <= 1e-4, name
        assert abs(a_cl - a_lc) <= e_cl + e_lc, name


def test_scene_mesh_boundary_validation():
    partner = hopf_partner()
    wrong_disk = mesh_surface(Disk((0, 0, 0), 0.8, (0, 0, 1)), 15, 15)
    with pytest.raises(ValueError):
        LinkScene(partner, unit_circle(), wrong_disk).validate()
    flipped = mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, -1)), 15, 15)
    with pytest.raises(ValueError):
        LinkScene(partner, unit_circle(), flipped).validate()
    # the matching mesh passes
    LinkScene(partner, unit_circle(), unit_disk_mesh()).validate()


def test_vector_area():
    assert np.allclose(vector_area(unit_circle()), [0, 0, math.pi], atol=1e-12)
    square = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)
    assert np.allclose(vector_area(square), [0, 0, 1.0], atol=1e-15)
    assert np.allclose(vector_area(unit_circle().reversed()), [0, 0, -math.pi], atol=1e-12)
    # a composite is the sum of its parts: a spur out and back adds nothing
    ring = unit_circle()
    joint = ring.position(ring.t_start)
    spur = PolyLine([joint, joint + (0.3, 0.2, 0.5), joint + (0.7, -0.1, 0.2)])
    composite = CompositeCurve([ring, spur, spur.reversed()])
    assert np.linalg.norm(vector_area(composite) - [0, 0, math.pi]) <= 1e-15 * math.pi
    assert list(inspect.signature(vector_area).parameters) == ["curve"]
    with pytest.raises(TypeError):
        vector_area(OtherCurve())


def test_integer_proximity_with_tight_quadrature():
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    scene = LinkScene(hopf_partner(), unit_circle(), unit_disk_mesh())
    value, err = gauss_linking(scene, FieldConstants(), spec)
    lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
    assert abs(value - lk) <= 1e-4 + err
