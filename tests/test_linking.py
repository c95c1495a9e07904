import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loopfield import (
    Circle,
    CompositeCurve,
    CurvesTooClose,
    DegenerateIntersection,
    Disk,
    FieldConstants,
    LinkScene,
    NoConvergence,
    PlanarRect,
    PolyLine,
    QuadratureSpec,
    RectLoop,
    SurfaceMesh,
    bounding_box_diagonal,
    combinatorial_lk,
    curve_min_distance,
    gauss_linking,
    gauss_pair_integral,
    mesh_surface,
)
from loopfield import linking, quadrature
from loopfield.experiments import axis_leg_closed_form, default_catalog, unit_circle, unit_disk_mesh
from loopfield.scenefile import parse_scene_file
from test_fields import OtherCurve, gauss_pair_by_quadrature
from test_geometry import Dome


SCENES = Path(__file__).resolve().parents[1] / "scenes"


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
        _assert_decides_at(composite, square(d), d)
        for scene in (LinkScene(composite, square(d)), LinkScene(square(d), composite)):
            value, err = gauss_linking(scene)
            assert abs(value + 1.0) <= err <= 1e-6, (d, scene.curve_c)


def _record_integrand_points(monkeypatch):
    """The number of points of each integrand call of linking's 1-D
    quadrature, as a list that fills while the patch holds."""
    sizes = []
    integrate = linking.integrate_1d

    def recording(f, *args, **kwargs):
        def recorded(ss):
            sizes.append(ss.size)
            return f(ss)

        return integrate(recorded, *args, **kwargs)

    monkeypatch.setattr(linking, "integrate_1d", recording)
    return sizes


def test_many_segment_pair_takes_bounded_calls(monkeypatch):
    # two linked 400-gons: the 1-D route's first cells are the 400 edges,
    # and each integrand call sums 400 segments' fields at its points, so
    # the rule's cap on cells per call, not the vertex count, bounds memory
    t = 2.0 * math.pi * np.arange(400) / 400
    ring = PolyLine(np.stack([np.cos(t), np.sin(t), 0.0 * t], axis=1), closed=True)
    partner = PolyLine(np.stack([1.1 + 0.7 * np.cos(t), 0.0 * t, 0.7 * np.sin(t)], axis=1), closed=True)
    sizes = _record_integrand_points(monkeypatch)
    tracemalloc.start()
    try:
        value, err = gauss_pair_integral(ring, partner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value + 1.0) <= err
    assert max(sizes) <= 8 * quadrature._CALL_CELLS
    assert peak < 64 * 2**20


def _regular_polygon(n, point):
    """The closed n-gon of vertices point(2 pi k / n), k = 0, ..., n - 1."""
    t = 2.0 * math.pi * np.arange(n) / n
    return PolyLine(np.stack(point(t), axis=1), closed=True)


def _hopf_composite():
    """The gauss_link benchmark's composite: a circle of radius 0.7 with a
    spur out and back from its joint, and the ring it links."""
    circle = Circle((0, 0, 0), 0.7, (0, 0, 1))
    joint = circle.position(0.0)
    spur = PolyLine([joint, joint + (0.0, 0.0, 0.3), joint])
    return CompositeCurve([circle, spur]), Circle(joint - (1.8, 0, 0), 1.0, (0, -1, 0))


@pytest.mark.parametrize(
    "curve_c, curve_l, lk, cells",
    [
        pytest.param(*_hopf_composite(), 1, 18, id="composite"),
        pytest.param(
            _regular_polygon(64, lambda t: (1.1 + 0.7 * np.cos(t), 0.0 * t, 0.7 * np.sin(t))),
            unit_circle(), -1, 18, id="hopf_64gon",
        ),
        # three radii above the ring: its one piece is halved once, to two
        # cells no wider than 4 / 6 of their gap of about 3
        pytest.param(
            _regular_polygon(400, lambda t: (np.cos(t), np.sin(t), 3.0 + 0.0 * t)),
            unit_circle(), 0, 6, id="far_400gon",
        ),
    ],
)
def test_graded_first_cells_take_one_integrand_call(monkeypatch, curve_c, curve_l, lk, cells):
    # with first cells sized from their distance to the source, the near
    # pairs' first call converges (the smooth pieces alone took four), and
    # so does a far pair's
    points = _record_integrand_points(monkeypatch)
    value, err = gauss_linking(LinkScene(curve_c, curve_l))
    assert abs(value - lk) <= err
    assert (len(points), sum(points) // 8) == (1, cells)


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


def test_a_composite_whose_parts_jump_is_not_closed():
    # the first part ends 1e-9 from the unit ring, the second starts 2 from
    # it; only the first start and the last end meet.  Taken as closed,
    # the guard read 0.0205 and the integral did not converge
    jumping = CompositeCurve([
        PolyLine([(3, 0, 0.5), (2, 0, 0.25), (1 + 1e-9, 0, 0)]),
        PolyLine([(3, 0, -0.5), (3, 0, 0), (3, 0, 0.5)]),
    ])
    assert not jumping.closed
    with pytest.raises(ValueError, match="curve_c must be a closed curve"):
        LinkScene(jumping, unit_circle()).validate()
    with pytest.raises(ValueError, match="curve_c must be closed"):
        combinatorial_lk(jumping, unit_disk_mesh())
    # the same legs joined end to start form a closed composite
    joined = CompositeCurve([jumping.parts[0], PolyLine([(1 + 1e-9, 0, 0), (3, 0, 0.5)])])
    assert joined.closed


# ---------------------------------------------------------------------------
# Closest approach and the guard
# ---------------------------------------------------------------------------


def _assert_decides_at(curve_a, curve_b, d):
    """The search's bracket holds the known closest approach d, and its
    decision is exact at the edges of its contract: a guard 1e-6 above d
    is refused, because the certified lower bound cannot exceed d, and a
    guard whose double lies 1e-6 below d is accepted, because no sample
    comes within twice the guard.  Guards between d / 2 and d may go
    either way."""
    for a, b in ((curve_a, curve_b), (curve_b, curve_a)):
        lower, upper, t = curve_min_distance(a, b, 0.25 * d)
        # d is exact, the curves' distances are not: they carry the rounding
        # of coordinates about 1 in size
        assert 0.25 * d < lower <= d <= upper + 1e-15, (lower, d, upper)
        assert b.distance_to(a.position(t)) == upper
        assert curve_min_distance(a, b, d * (1.0 + 1e-6)).lower <= d * (1.0 + 1e-6)
        assert curve_min_distance(a, b, 0.5 * d * (1.0 - 1e-6)).lower > 0.5 * d * (1.0 - 1e-6)


def test_curve_min_distance():
    a = Circle((0, 0, 0), 1.0, (0, 0, 1))
    b = Circle((0, 0, 3.0), 1.0, (0, 0, 1))
    _assert_decides_at(a, b, 3.0)
    # constant-distance pair
    _assert_decides_at(hopf_partner(), unit_circle(), 1.0)


def test_curve_min_distance_at_the_seam_and_at_a_corner():
    # the square's nearest point sits just before its parameter's end,
    # which is the same point as its start; the quadrilateral's at a corner
    square = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)
    beside_the_seam = Circle((-0.5, 0.01, 0.0), 0.2, (0, 0, 1))
    _assert_decides_at(square, beside_the_seam, 0.3)
    quad = PolyLine([(0, 0, 0), (1, 0, 0), (1.1, 0.9, 0), (0, 0.7, 0)], closed=True)
    beyond_a_corner = Circle((1.6, 1.3, 0.0), 0.2, (0, 0, 1))
    _assert_decides_at(quad, beyond_a_corner, math.sqrt(0.41) - 0.2)


def test_curve_min_distance_needs_a_speed_bound():
    with pytest.raises(TypeError):
        curve_min_distance(OtherCurve(), unit_circle(), 0.0)


def _former_scan_angle(k):
    """The unit ring's parameter at sample k of the former search's first
    scan, 192 evenly spaced samples; it missed approaches between them."""
    return 2.0 * math.pi * k / 191


def _two_leg_loop(near, gap, far, far_gap, height):
    """A closed 4-gon of two vertical legs from -height to height outside
    the unit ring about +z: one at angle near, gap outside the ring, and
    one at angle far, far_gap outside it.  Its closest approach is gap,
    at the middle of the first leg, if far_gap and height exceed it."""

    def leg(angle, out):
        foot = (1.0 + out) * np.array([math.cos(angle), math.sin(angle), 0.0])
        return foot - (0.0, 0.0, height), foot + (0.0, 0.0, height)

    (a, b), (c, d) = leg(near, gap), leg(far, far_gap)
    return PolyLine([a, b, d, c], closed=True)


@pytest.mark.parametrize("gap", [1e-9, 1e-7])
def test_an_approach_between_scan_samples_is_refused(gap):
    # one leg midway between the former scan's samples 10 and 11, the other
    # 0.01 outside at sample 60: that scan read 0.0100 either way and let
    # the pair through, after which the Gauss integral of this unlinked pair
    # read 0.499999 +- 3.7e-9 at gap 1e-9 and raised NoConvergence at 1e-7
    ring = unit_circle()
    loop = _two_leg_loop(_former_scan_angle(10.5), gap, _former_scan_angle(60), 0.01, 0.5)
    for scene in (LinkScene(ring, loop), LinkScene(loop, ring)):
        lower, upper, _ = curve_min_distance(scene.curve_c, scene.curve_l, 0.0)
        assert lower <= gap <= upper
        with pytest.raises(CurvesTooClose):
            scene.validate()
        with pytest.raises(CurvesTooClose):
            gauss_linking(scene)


def _rigid_motion(seed):
    """A seeded proper rotation, scale in [1e-3, 1e3] and shift of up to 5
    scales, as a map of points."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    shift = scale * rng.uniform(-5.0, 5.0, 3)
    return rot, scale, lambda p: scale * (rot @ np.asarray(p, dtype=float)) + shift


@given(
    log_gap=st.floats(-9.0, -1.0),
    sample=st.integers(0, 190),
    partner=st.sampled_from(["polygon", "circle"]),
    tilt=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# an accepted gap of about two guards, on which the circulation over the
# smooth pieces alone raised NoConvergence
@example(log_gap=-5.0, sample=0, partner="polygon", tilt=0.0, seed=0)
def test_the_guard_decides_a_planted_approach(log_gap, sample, partner, tilt, seed):
    # a near approach of gap g, drawn log-uniform from 1e-9 to 1e-1 scene
    # sizes, planted on the unit ring midway between two of the former
    # scan's samples, against a two-leg polygon or a circle tilted about
    # the ring's radius there, which bulges away from the ring; then moved
    # rigidly and scaled.  Whenever the guard accepts the polygon as
    # source, |A - Lk| <= estimate: its circulation's first cells are
    # sized from their distance to it.  A circle source still takes the
    # 2-D route, whose first cells are its smooth pieces, so its value is
    # not checked (ROADMAP.md item 2)
    near = _former_scan_angle(sample + 0.5)
    radial = np.array([math.cos(near), math.sin(near), 0.0])

    def planted(gap):
        if partner == "polygon":
            loop = _two_leg_loop(near, gap, near + 2.5, 1.0, 1.0)
            return [loop.vertices]
        axis = math.cos(tilt) * np.array([0.0, 0.0, 1.0]) + math.sin(tilt) * np.cross(radial, (0.0, 0.0, 1.0))
        return [(1.5 + gap) * radial, 0.5, axis]

    ring = unit_circle()
    size = bounding_box_diagonal([ring, PolyLine(planted(0.0)[0], closed=True)] if partner == "polygon"
                                 else [ring, Circle(*planted(0.0))])
    gap = 10.0**log_gap * size
    rot, scale, point = _rigid_motion(seed)
    moved_ring = Circle(point((0, 0, 0)), scale, rot @ ring.axis)
    if partner == "polygon":
        other = PolyLine([point(v) for v in planted(gap)[0]], closed=True)
    else:
        center, radius, axis = planted(gap)
        other = Circle(point(center), scale * radius, rot @ axis)
    gap *= scale
    scene = LinkScene(moved_ring, other)
    guard = QuadratureSpec().resolve_guard(bounding_box_diagonal([moved_ring, other]))
    # the moved curves' closest approach is gap to the rounding of their
    # coordinates, which reach about 10 scales
    slack = 1e-13 * scale
    for s in (scene, scene.swapped()):
        approach = curve_min_distance(s.curve_c, s.curve_l, guard)
        lower, upper, _ = approach
        assert lower <= gap + slack and upper >= gap - slack
        if gap <= guard - slack:
            with pytest.raises(CurvesTooClose):
                s.validate()
        elif gap > 2.0 * guard + slack:
            # validate walks curve_l
            assert s.validate() == curve_min_distance(s.curve_l, s.curve_c, guard)
        if lower > guard and s.curve_c is other and partner == "polygon":
            value, err = gauss_linking(s)
            mesh = mesh_surface(Disk(moved_ring.center, moved_ring.radius, moved_ring.axis), 6, 6)
            assert abs(value - combinatorial_lk(other, mesh)) <= err, (value, err)


def test_a_gap_just_beyond_the_guard_converges():
    # the second leg 0.5 outside the ring, the first 1e-5 outside: about two
    # guards, accepted, and the circulation over the smooth pieces alone
    # hit max_depth on it
    ring = unit_circle()
    loop = _two_leg_loop(_former_scan_angle(10.5), 1e-5, _former_scan_angle(60), 0.5, 0.5)
    start = time.perf_counter()
    value, err = gauss_linking(LinkScene(loop, ring))
    assert time.perf_counter() - start < 1.0
    assert abs(value) <= err


def legs_loop(feet):
    """A closed polygon of vertical legs from z = -1 to 1 around the unit
    ring about +z, taken alternately up and down: leg i at angle
    feet[i][0] and radius feet[i][1], in that order.  Its linking number
    with the ring counts the legs inside it, +1 up and -1 down, and each
    leg's closest approach to the ring is |radius - 1|, at its middle."""
    verts = []
    for i, (angle, radius) in enumerate(feet):
        foot = radius * np.array([math.cos(angle), math.sin(angle), 0.0])
        leg = [foot - (0.0, 0.0, 1.0), foot + (0.0, 0.0, 1.0)]
        verts += leg if i % 2 == 0 else leg[::-1]
    return PolyLine(verts, closed=True)


def defect_a_loop(legs):
    """legs_loop of (k, gap) legs at angle 2 pi k / 64, gap outside the ring."""
    return legs_loop([(2.0 * math.pi * k / 64, 1.0 + gap) for k, gap in legs])


# ROADMAP item 3's Defect A: two and four near approaches, each accepted,
# on which first cells shrunk toward one approach left the others to the
# quadrature, which raised NoConvergence at max_depth
TWO_LEGS = [(10.5, 1e-5), (40, 1.2e-5)]
FOUR_LEGS = [(5.5, 2e-5), (20, 2e-5), (37, 2e-5), (52, 2e-5)]

# ROADMAP item 3's Defect B: a random pair of closed polygons with Lk -2,
# 6,900 guards apart, whose first cells were the legs of L; its error was
# 1.6 times the estimate
DEFECT_B_C = [
    (-1.3703, 1.1935, 1.3215), (-0.9271, 0.2373, 0.2338), (-0.385, 1.1221, 1.1435),
    (-0.9457, 0.5737, 0.7052), (-0.3348, -1.0284, -0.7651), (-1.0966, 0.0743, 1.1071),
    (-1.2956, 2.8851, -0.7965), (-0.3552, 0.4796, -0.7259), (0.5655, 0.8432, -0.1336),
    (-0.7146, -0.6782, 1.4257),
]
DEFECT_B_L = [
    (-1.9021, 0.0107, 0.9743), (0.0125, 0.0297, 1.4073), (1.0667, -1.099, 1.3444),
    (-0.4129, -0.9169, 0.8578), (-0.4825, 0.3315, 1.0462), (0.7454, -1.2888, 0.6823),
    (0.927, 0.6444, 2.3445), (1.1767, -1.6845, 0.3308), (0.1987, -1.6828, -0.0918),
    (-1.1961, -0.8337, 1.94), (0.0731, -1.4306, -1.1166),
]


@pytest.mark.parametrize("legs", [TWO_LEGS, FOUR_LEGS], ids=["two_legs", "four_legs"])
def test_every_near_approach_of_a_polygon_source_converges(legs):
    scene = LinkScene(defect_a_loop(legs), unit_circle())
    start = time.perf_counter()
    value, err = gauss_linking(scene)
    assert time.perf_counter() - start < 1.0
    assert abs(value) <= err


@pytest.mark.xfail(strict=True, raises=NoConvergence,
                   reason="ROADMAP item 2: a bare circle source takes the 2-D route over its smooth pieces")
def test_every_near_approach_of_a_ring_source_converges():
    value, err = gauss_linking(LinkScene(unit_circle(), defect_a_loop(TWO_LEGS)))
    assert abs(value) <= err


def test_the_estimate_covers_the_defect_b_pair():
    value, err = gauss_linking(LinkScene(PolyLine(DEFECT_B_C, closed=True), PolyLine(DEFECT_B_L, closed=True)))
    assert abs(value + 2.0) <= err


@settings(max_examples=150)
@given(
    planted=st.lists(st.tuples(st.floats(1.01, 10.0), st.booleans()), min_size=1, max_size=4),
    slots=st.lists(st.integers(0, 63), min_size=4, max_size=4, unique=True),
    composite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-600, 600),
)
def test_planted_near_approaches_all_converge(planted, slots, composite, seed, k):
    # 1 to 4 legs at 1.01 to 10 guards from the ring, each inside or
    # outside it, and a far leg when their count is odd; the polygon, or a
    # composite of its two halves, as source, turned, shifted by up to a
    # ring radius and scaled by 2^k.  Every accepted draw converges within
    # 1 s and within its estimate.  Shifted tens of sizes, a pair two
    # guards apart meets the rounding of its coordinates, which ROADMAP.md
    # item 4 owns
    ring = unit_circle()
    angles = 2.0 * math.pi * np.sort(slots)[: len(planted) + len(planted) % 2] / 64
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    shift = rng.uniform(-1.0, 1.0, 3)
    factor = 2.0**k

    def moved(unit):
        # the legs at the drawn gaps in units of unit, and the ring, moved
        sides = [1.0 - g * unit if inside else 1.0 + g * unit for g, inside in planted]
        loop = legs_loop(list(zip(angles, sides + [1.5] * (len(planted) % 2))))
        verts = [factor * (rot @ v + shift) for v in loop.vertices]
        if composite:
            source = CompositeCurve([PolyLine(verts[:3]), PolyLine(verts[2:] + verts[:1])])
        else:
            source = PolyLine(verts, closed=True)
        return source, Circle(factor * shift, factor, rot @ ring.axis)

    # the guard of the moved pair, whose bounding box turns with it
    guard = QuadratureSpec().resolve_guard(bounding_box_diagonal(moved(0.0)))
    scene = LinkScene(*moved(guard / factor))
    lk = sum(1 if i % 2 == 0 else -1 for i, (_, inside) in enumerate(planted) if inside)
    try:
        scene.validate()
    except CurvesTooClose:
        # a pair beyond twice the guard is always accepted
        assert min(g for g, _ in planted) < 2.0 + 1e-6
        return
    start = time.perf_counter()
    value, err = gauss_linking(scene)
    assert time.perf_counter() - start < 1.0
    assert abs(value - lk) <= err, (value, lk, err)


def _counting_distances(curve):
    """Records the number of points of each distance_from call on curve,
    where the walk and distance_to measure points."""
    counts = []
    measure = curve.distance_from

    def counted(offsets):
        distances = measure(offsets)
        counts.append(len(distances))
        return distances

    curve.distance_from = counted
    return counts


def test_guard_zero_refuses_a_crossing_within_bounded_passes():
    # a leg through the unit ring between the former scan's samples, slanted
    # so that no sample lands on the crossing: the former search read
    # 5.6e-17 or 6.7e-9 and let the pair through at guard 0, after which
    # the Gauss integral raised NoConvergence or read 0.5 for it
    ring = unit_circle()
    near = _former_scan_angle(10.5)
    foot = np.array([math.cos(near), math.sin(near), 0.0])
    slant = np.array([0.1 * math.sin(near), -0.1 * math.cos(near), 0.5])
    loop = PolyLine([foot - slant, foot + slant, 2.0 * foot + slant, 2.0 * foot - slant], closed=True)
    spec = QuadratureSpec(min_distance_guard=0.0)
    for curve_c, curve_l in ((ring, loop), (loop, ring)):
        passes = _counting_distances(curve_l)
        with pytest.raises(CurvesTooClose) as raised:
            LinkScene(curve_c, curve_l).validate(spec)
        assert raised.value.lower == 0.0
        assert len(passes) <= 64


def test_the_walk_refuses_a_crossing_at_guard_zero_within_bounded_passes():
    # the crossing above, counted on the source, whose distance the walk
    # along curve_l takes: the former search counted its passes on curve_l
    ring = unit_circle()
    near = _former_scan_angle(10.5)
    foot = np.array([math.cos(near), math.sin(near), 0.0])
    slant = np.array([0.1 * math.sin(near), -0.1 * math.cos(near), 0.5])
    loop = PolyLine([foot - slant, foot + slant, 2.0 * foot + slant, 2.0 * foot - slant], closed=True)
    spec = QuadratureSpec(min_distance_guard=0.0)
    for curve_c, curve_l in ((ring, loop), (loop, ring)):
        passes = _counting_distances(curve_c)
        with pytest.raises(CurvesTooClose) as raised:
            gauss_linking(LinkScene(curve_c, curve_l), spec=spec)
        assert raised.value.lower == 0.0
        assert len(passes) <= 64


def _drawn_curve(kind, rng):
    """A random closed polygon of 3 to 8 vertices drawn N(0, 1), a circle,
    or the polygon as a composite of two open halves."""
    if kind == "circle":
        return Circle(rng.normal(size=3), rng.uniform(0.2, 2.0), rng.normal(size=3))
    verts = rng.normal(size=(int(rng.integers(3, 9)), 3))
    if kind == "polygon":
        return PolyLine(verts, closed=True)
    cut = len(verts) // 2
    return CompositeCurve([PolyLine(verts[: cut + 1]), PolyLine(np.concatenate((verts[cut:], verts[:1])))])


def _moved(curve, point, factor):
    """curve under the map point, its radius scaled by factor."""
    if isinstance(curve, Circle):
        return Circle(point(curve.center), factor * curve.radius, point(curve.axis) - point(np.zeros(3)))
    if isinstance(curve, CompositeCurve):
        return CompositeCurve([_moved(part, point, factor) for part in curve.parts])
    return PolyLine([point(v) for v in curve.vertices], closed=curve.closed)


def _assert_graded(curve_c, curve_l, cuts, lower, guard, levels):
    """Every first cell of the walk along curve_l is at most _KAPPA times
    as wide as its gap from curve_c, unless its level met levels or held
    more than _CHUNK wide cells, and lower is at most the bound of every
    cell that clears the guard.  The distances' rounding, which every
    bound gives up, is the test's slack."""
    corners = np.concatenate((*curve_c.bounding_box(), *curve_l.bounding_box()))
    rounding = linking._ROUNDING * float(np.abs(corners).max())
    pieces = np.array(curve_l.smooth_cuts())
    assert np.isin(pieces, cuts).all()
    a, b = cuts[:-1], cuts[1:]
    mid = 0.5 * (a + b)
    d = curve_c.distance_to(curve_l.position(mid))
    slack = 0.5 * curve_l.max_speed() * (b - a)
    piece = np.searchsorted(pieces, mid) - 1
    level = np.rint(np.log2((pieces[piece + 1] - pieces[piece]) / (b - a))).astype(int)
    wide = (2.0 + linking._KAPPA) * slack > linking._KAPPA * (d + rounding)
    for n in np.unique(level[wide]):
        assert n == levels or np.count_nonzero(wide & (level == n)) > linking._CHUNK, n
    bound = d - slack - rounding
    assert lower <= bound[bound > guard].min(initial=math.inf) + rounding


@settings(max_examples=40)
@given(
    kinds=st.tuples(*[st.sampled_from(["polygon", "circle", "composite"])] * 2),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-600, 600),
    gaps=st.floats(0.0, 3.0),
)
def test_one_walk_brackets_the_approach_and_grades_the_first_cells(kinds, seed, k, gaps):
    # two drawn curves, moved rigidly and scaled by 2^k, and a guard of 0
    # to 3 times their sampled gap; the walk along either curve against
    # the other, for the approach and the first cells together, and for
    # the first cells alone
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    shift, factor = rng.uniform(-2.0, 2.0, 3), 2.0**k
    curves = [_moved(_drawn_curve(kind, rng), lambda p: factor * (rot @ p + shift), factor) for kind in kinds]
    levels = QuadratureSpec().max_depth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = np.linspace(curves[1].t_start, curves[1].t_end, 257)
        guard = gaps * float(curves[0].distance_to(curves[1].position(ts)).min())
        pairs = [curves, curves[::-1]]
        walks = [linking._halving(c, l, guard, levels) for c, l in pairs]
        for (c, l), (approach, cuts), (other, _) in zip(pairs, walks, walks[::-1]):
            corners = np.concatenate((*c.bounding_box(), *l.bounding_box()))
            rounding = linking._ROUNDING * float(np.abs(corners).max())
            # with the first cells and without: lower is certified, and the
            # pair is refused exactly when lower is within the guard, and
            # always accepted beyond twice the guard and the rounding
            for lower, upper, t in (approach, curve_min_distance(l, c, guard)):
                assert lower <= other.upper and lower <= upper
                assert c.distance_to(l.position(t)) == upper
                if other.lower > 2.0 * guard + 2.0 * rounding:
                    assert lower > guard
            if approach.lower > guard:
                _assert_graded(c, l, cuts, approach.lower, guard, levels)
            alone, cells = linking._halving(c, l, -math.inf, levels)
            _assert_graded(c, l, cells, alone.lower, -math.inf, levels)


def _level_by_level_walk(curve_c, curve_l, guard, levels):
    """linking._halving as it was before its passes looked ahead: one
    distance_to pass per level, _CHUNK points per call, and np.unique of
    the breakpoints; the reference for the bits of the walk's results."""
    chunk, kappa = linking._CHUNK, linking._KAPPA
    speed = curve_l.max_speed()
    corners = np.concatenate((*curve_c.bounding_box(), *curve_l.bounding_box()))
    rounding = linking._ROUNDING * float(np.abs(corners).max())
    cuts = np.array(curve_l.smooth_cuts())
    kept = [cuts]
    a, b = cuts[:-1], cuts[1:]
    upper, at = math.inf, math.nan
    settled = math.inf
    while len(a):
        measured = []
        lowest = narrowest = math.inf
        for k in range(0, len(a), chunk):
            ca, cb = a[k : k + chunk], b[k : k + chunk]
            mid = 0.5 * (ca + cb)
            d = curve_c.distance_to(curve_l.position(mid))
            best = d.argmin()
            if d[best] < upper:
                upper, at = float(d[best]), float(mid[best])
            slack = 0.5 * speed * (cb - ca)
            bound = d - slack - rounding
            near, low = bound <= guard, float(bound.min())
            if low <= guard:
                lowest = min(lowest, low)
                narrowest = min(narrowest, float(slack[near].min()))
                low = float(bound.min(where=~near, initial=math.inf))
            settled = min(settled, low)
            wide, split = mid[:0], near
            if levels > 0:
                gap = kappa * d
                wide = mid[(2.0 + kappa) * slack > gap]
                split = near | ((1.0 + kappa) * slack > gap)
            measured.append((near, split, wide))
        if lowest <= guard and (upper <= 2.0 * guard or 2.0 * narrowest <= rounding):
            return linking.Approach(max(min(lowest, upper), 0.0), upper, at), cuts
        near, split, wide = measured.pop() if len(measured) == 1 else map(np.concatenate, zip(*measured))
        if len(wide) > chunk:
            split, levels = near, 0
        elif len(wide):
            kept.append(wide)
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        levels -= 1
    approach = linking.Approach(max(min(settled, upper), 0.0), upper, at)
    return approach, np.unique(np.concatenate(kept)) if kept[1:] else cuts


def _assert_same_bits(walked, reference):
    (approach, cuts), (expected, expected_cuts) = walked, reference
    assert np.array(approach).tobytes() == np.array(expected).tobytes(), (approach, expected)
    assert cuts.dtype == expected_cuts.dtype and cuts.tobytes() == expected_cuts.tobytes()


@settings(max_examples=200)
@given(
    kinds=st.tuples(*[st.sampled_from(["polygon", "circle", "composite"])] * 2),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-600, 600),
    guard=st.sampled_from(["zero", "none", "default", "sampled"]),
    levels=st.sampled_from([0, QuadratureSpec().max_depth]),
)
def test_the_look_ahead_walks_as_a_pass_a_level_did(kinds, seed, k, guard, levels):
    # two drawn curves, moved rigidly and scaled by 2^k, walked along
    # either against the other: the passes that measure several levels
    # at once give the approach and the breakpoints of a pass a level, bit
    # for bit, at guard 0, -inf (the first cells alone), the default, and
    # 0 to 3 times their sampled gap, where cells stay near the guard
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rot *= np.linalg.det(rot)
    shift, factor = rng.uniform(-2.0, 2.0, 3), 2.0**k
    curves = [_moved(_drawn_curve(kind, rng), lambda p: factor * (rot @ p + shift), factor) for kind in kinds]
    ts = np.linspace(curves[1].t_start, curves[1].t_end, 257)
    guard = {
        "zero": 0.0,
        "none": -math.inf,
        "default": QuadratureSpec().resolve_guard(bounding_box_diagonal(curves)),
        "sampled": rng.uniform(0.0, 3.0) * float(curves[0].distance_to(curves[1].position(ts)).min()),
    }[guard]
    for c, l in (curves, curves[::-1]):
        _assert_same_bits(linking._halving(c, l, guard, levels), _level_by_level_walk(c, l, guard, levels))


def test_a_many_segment_source_looks_no_level_ahead():
    # the 400-gons of test_many_segment_pair_takes_bounded_calls, either as
    # the source, and the far_400gon pair's 400-gon above the ring: one
    # cell and its two halves are 3 * 400 point-segments, beyond the walk's
    # budget, so each pass measures one level, the points the level-by-level
    # walk measured (400 edges in one level; the ring's piece and its
    # halves in two), and never the 30 times as costly look-ahead
    ring = _regular_polygon(400, lambda t: (np.cos(t), np.sin(t), 0.0 * t))
    partner = _regular_polygon(400, lambda t: (1.1 + 0.7 * np.cos(t), 0.0 * t, 0.7 * np.sin(t)))
    above = _regular_polygon(400, lambda t: (np.cos(t), np.sin(t), 3.0 + 0.0 * t))
    assert 3 * 400 > linking._BUDGET
    depth = QuadratureSpec().max_depth
    for curve_c, curve_l, levels in ((ring, partner, [400]), (partner, ring, [400]), (above, unit_circle(), [1, 2])):
        passes = _counting_distances(curve_c)
        reference = _level_by_level_walk(curve_c, curve_l, -math.inf, depth)
        assert passes == levels
        passes.clear()
        _assert_same_bits(linking._halving(curve_c, curve_l, -math.inf, depth), reference)
        assert passes == levels


def test_the_look_ahead_walks_a_long_near_run_as_a_pass_a_level_did():
    # the concentric circles 2.5 guards apart of the two bounded-time tests
    # below: levels of up to 2^20 cells near the guard, and one of more than
    # _CHUNK wide cells, which ends the first cells' levels
    guard = 2.83e-6
    ring, wider = unit_circle(), Circle((0, 0, 0), 1.0 + 2.5 * guard, (0, 0, 1))
    depth = QuadratureSpec().max_depth
    for curve_c, curve_l in ((ring, wider), (wider, ring), (CompositeCurve([wider]), ring)):
        walked = linking._halving(curve_c, curve_l, guard, depth)
        _assert_same_bits(walked, _level_by_level_walk(curve_c, curve_l, guard, depth))


def test_a_constant_distance_near_the_guard_takes_bounded_time_and_memory():
    # coplanar concentric circles 2.5 guards apart: no gap's bound clears
    # the guard until gaps are about 3 guards wide, about 2^20 of them
    guard = 2.83e-6
    ring, wider = unit_circle(), Circle((0, 0, 0), 1.0 + 2.5 * guard, (0, 0, 1))
    spec = QuadratureSpec(min_distance_guard=guard)
    for scene in (LinkScene(ring, wider), LinkScene(wider, ring)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            scene.validate(spec)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 2.0
        assert peak < 64 * 2**20


def test_a_long_near_run_takes_bounded_time_and_memory():
    # a composite of one circle, coplanar and concentric with the ring 2.5
    # guards outside it, takes the circulation route, and every cell of the
    # ring lies near it: halving them all for max_depth levels took 8.8 s
    # and 265 MB, so a level of that many wide cells is left to the
    # quadrature
    guard = 2.83e-6
    wider = CompositeCurve([Circle((0, 0, 0), 1.0 + 2.5 * guard, (0, 0, 1))])
    LinkScene(wider, unit_circle()).validate(QuadratureSpec(min_distance_guard=guard))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value, err = gauss_pair_integral(wider, unit_circle())
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value) <= err
    assert seconds < 2.0
    assert peak < 64 * 2**20


def _winding_loop(lk):
    """The crossing workloads' polygon threading the unit disk lk times:
    up through (0.4, 0, 0) and (-0.4, 0.1, 0), down outside the ring."""
    inside = [np.array([0.4, 0.0, 0.0]), np.array([-0.4, 0.1, 0.0])]
    outside = [np.array([1.8, 0.0, 0.0]), np.array([-1.8, 0.3, 0.0])]
    up, down = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    if lk == 0:
        verts = [inside[0] + down, inside[0] + up, inside[1] + up, inside[1] + down]
    else:
        verts = []
        for p, mid in zip(inside[: abs(lk)], outside):
            verts += [p + down, p + up, 2.0 * mid - p + down]
    return PolyLine(verts[::-1] if lk < 0 else verts, closed=True)


def _pinned_pairs():
    """(name, curve_c, curve_l, the points of each curve_c.distance_from
    call of one gauss_linking call): the shipped scenes, and the gauss_link
    benchmark's shapes about the unit ring.  A bare circle source takes
    the guard's walk alone.  Each pass measures as many levels below the
    ring's cells as linking._BUDGET holds: 63 points under a circle, 31
    under 3 segments or a circle and a 2-segment spur, 15 under 4 to 6
    segments, 7 and then the 8 still open under the 8-gon."""
    ring = unit_circle()
    pairs = [
        ("hopf", Circle((1.1, 0, 0), 0.7, (0, 1, 0)), ring, [63]),
        ("composite", *_hopf_composite(), [31]),
        ("axis_rect", PolyLine([(0, 0, -4), (0, 0, 4), (4, 0, 4), (4, 0, -4)], closed=True), ring, [15]),
    ]
    pairs += [
        (f"winding_{lk}", _winding_loop(lk), ring, passes)
        for lk, passes in ((-2, [15]), (-1, [31]), (0, [15]), (1, [31]), (2, [15]))
    ]
    for name, passes in (("hopf", [63]), ("double_wind", [7, 8]), ("unlinked", [63])):
        scene = parse_scene_file(SCENES / f"{name}.json").build_scene(name)
        pairs.append((f"{name}.json", scene.curve_c, scene.curve_l, passes))
    return [pytest.param(*pair[1:], id=pair[0]) for pair in pairs]


@pytest.mark.parametrize("curve_c, curve_l, passes", _pinned_pairs())
def test_validate_settles_the_shipped_pairs_in_one_pass(curve_c, curve_l, passes):
    # one walk along curve_l validates the pair and sizes its first cells,
    # in passes that look levels ahead: one, or two under the 8-gon, where
    # a pass a level took three or four of 1 to 8 points.  The former search along curve_c took one
    # pass of 64 samples and its smooth cuts, then the first cells four or
    # five more passes of 11 to 19 points in all, the last of which only
    # confirmed them
    evaluations = _counting_distances(curve_c)
    gauss_linking(LinkScene(curve_c, curve_l))
    assert evaluations == passes


def test_a_line_limit_leg_takes_no_confirming_pass():
    # the axis leg is 1 from the ring everywhere, so the ring's cells at
    # half-width pi / 4 are wide, and so narrow that their halves are not:
    # the walk reads no level below them, where a fourth pass of 8 points
    # confirmed them.  Its one pass looks 63 points ahead, where a pass a
    # level took three
    for n in (2, 16):
        leg = PolyLine([(0, 0, -n), (0, 0, n)])
        evaluations = _counting_distances(leg)
        value, err = gauss_pair_integral(leg, unit_circle())
        assert abs(value - axis_leg_closed_form(n)) <= max(1e-14, err)
        assert evaluations == [63]


def test_too_close_names_the_bracket_guard_and_parameter():
    ring = unit_circle()
    loop = _two_leg_loop(_former_scan_angle(10.5), 1e-9, _former_scan_angle(60), 0.01, 0.5)
    scene = LinkScene(loop, ring)
    guard = QuadratureSpec().resolve_guard(bounding_box_diagonal([loop, ring]))
    with pytest.raises(CurvesTooClose, match=r"^curves approach within \S+ \(guard \S+\)$") as raised:
        scene.validate()
    err = raised.value
    assert err.guard == guard
    assert 0.0 <= err.lower <= 1e-9 <= err.distance
    assert err.lower <= guard
    # t is curve_l's parameter
    assert loop.distance_to(ring.position(err.t)) == err.distance
    assert f"within {err.distance:g} (guard {guard:g})" in str(err)


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


def test_every_catalog_scene_gives_its_linking_number_within_its_estimate():
    # the estimate covers the rounding of the returned value: axis_rect_8
    # lands 4.4e-16 from 1, above its estimate without the rounding term,
    # 1.4e-16
    for scene in default_catalog():
        value, err = gauss_linking(scene)
        assert abs(value - CATALOG_LK[scene.name]) <= err, (scene.name, value, err)


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


def _scaled(curve, factor):
    """A catalog loop scaled by factor, rebuilt from its center and radius
    or its vertices."""
    if isinstance(curve, Circle):
        return Circle(curve.center * factor, curve.radius * factor, curve.axis, curve.orientation)
    return PolyLine(curve.vertices * factor, closed=True)


@given(k=st.integers(-600, 600))
@example(k=500)
@example(k=-500)
@example(k=600)
@example(k=-600)
def test_catalog_counts_are_scale_free(k):
    # the count works in the mesh's power-of-two unit and the sampling in
    # one of its chord bound, so 2^k times a scene counts what the scene
    # does and samples 2^k times its samples, bitwise; the scene validates
    # with its mesh, whose orientation check takes the vector areas in the
    # mesh's unit
    factor = 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scene in default_catalog(15, 15):
            mesh = SurfaceMesh(scene.spanning_mesh.nodes * factor)
            curve = _scaled(scene.curve_c, factor)
            LinkScene(curve, _scaled(scene.curve_l, factor), mesh, scene.name).validate()
            assert combinatorial_lk(curve, mesh) == CATALOG_LK[scene.name], scene.name
            edge = scene.spanning_mesh.min_edge_length() / 4.0
            samples = linking.sample_closed_polyline(curve, edge * factor)
            assert np.array_equal(samples, linking.sample_closed_polyline(scene.curve_c, edge) * factor)


def test_hopf_pair_counts_at_two_to_the_minus_560():
    # the circle's squared probe chords underflowed, so it was sampled as
    # one point and both orientations counted 0
    factor = 2.0**-560
    mesh = SurfaceMesh(unit_disk_mesh().nodes * factor)
    assert combinatorial_lk(_scaled(hopf_partner(), factor), mesh) == 1
    assert combinatorial_lk(_scaled(hopf_partner().reversed(), factor), mesh) == -1


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


@pytest.mark.parametrize(
    "factor",
    [1e-170, 1e-150, 1e120, 1e150, 1e160, 2.0**600, 2.0**-600],
    ids=["1e-170", "1e-150", "1e120", "1e150", "1e160", "2^600", "2^-600"],
)
def test_ring_source_is_scale_free(factor):
    # the 2-D route takes both curves in the ring's unit: its integrand's
    # numerator and |l - m|^-3 overflowed or underflowed on their own,
    # which raised RuntimeWarning at 1e-170, 1e-150 and 1e160 and returned
    # (0.0, -0.0) at 1e120 and 1e150
    polygon = _regular_polygon(40, lambda t: (1.1 + 0.7 * np.cos(t), 0.0 * t, 0.7 * np.sin(t)))
    scene = LinkScene(_scaled(unit_circle(), factor), _scaled(polygon, factor))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, err = gauss_linking(scene)
    assert abs(value + 1.0) <= err


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
    assert np.allclose(unit_circle().vector_area(), [0, 0, math.pi], atol=1e-12)
    square = PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)
    assert np.allclose(square.vector_area(), [0, 0, 1.0], atol=1e-15)
    assert np.allclose(unit_circle().reversed().vector_area(), [0, 0, -math.pi], atol=1e-12)
    # a composite is the sum of its parts: a spur out and back adds nothing
    ring = unit_circle()
    joint = ring.position(ring.t_start)
    spur = PolyLine([joint, joint + (0.3, 0.2, 0.5), joint + (0.7, -0.1, 0.2)])
    composite = CompositeCurve([ring, spur, spur.reversed()])
    assert np.linalg.norm(composite.vector_area() - [0, 0, math.pi]) <= 1e-15 * math.pi
    # in a power-of-two unit of its size, a curve's area is the same bits
    # at any size
    for factor in (2.0**600, 2.0**-600):
        for curve in (square, unit_circle().reversed()):
            assert np.array_equal(_scaled(curve, factor).vector_area(factor), curve.vector_area())
        parts = [_scaled(ring, factor), PolyLine(spur.vertices * factor), PolyLine(spur.reversed().vertices * factor)]
        assert np.array_equal(CompositeCurve(parts).vector_area(factor), composite.vector_area())
    with pytest.raises(TypeError, match="no closed-form vector area for a OtherCurve"):
        OtherCurve().vector_area()


def test_integer_proximity_with_tight_quadrature():
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)
    scene = LinkScene(hopf_partner(), unit_circle(), unit_disk_mesh())
    value, err = gauss_linking(scene, FieldConstants(), spec)
    lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
    assert abs(value - lk) <= 1e-4 + err
