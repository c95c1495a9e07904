import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from loopfield import (
    Circle,
    CompositeCurve,
    Curve,
    DegenerateBase,
    DipoleSheetSpec,
    Disk,
    FieldConstants,
    NearSingular,
    NoConvergence,
    NotUnit,
    PlanarRect,
    PrefactorOverflow,
    PolyLine,
    QuadratureSpec,
    RectLoop,
    SurfaceMesh,
    biot_savart,
    bounding_box_diagonal,
    circle_field,
    coulomb_surface_field,
    cross_projection_identity,
    curve_field,
    differential_probe,
    dipole_mesh_field,
    dipole_sheet_field_exact,
    disk_sheet_field,
    mesh_surface,
    point_dipole_field,
    polygon_sheet_field,
    segment_field,
    taylor_probe,
)
from loopfield import fields, quadrature
from loopfield.linking import gauss_pair_integral

UNIT = FieldConstants(k_E=1.0, k_B=1.0)


def unit_circle():
    return Circle((0, 0, 0), 1.0, (0, 0, 1), "ccw")


def unit_square_loop():
    return PolyLine([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)


# ---------------------------------------------------------------------------
# Biot-Savart
# ---------------------------------------------------------------------------


def test_circle_center_value():
    # closed form at the center of a circular loop: 2*pi*k_B/R
    b = biot_savart(unit_circle(), (0, 0, 0))
    assert np.allclose(b, [0, 0, 0.5], atol=1e-10)


def test_orientation_reversal_negates_field():
    x = (0.3, -0.2, 0.9)
    b = biot_savart(unit_circle(), x)
    b_rev = biot_savart(unit_circle().reversed(), x)
    assert np.allclose(b_rev, -b, atol=1e-10)


def test_on_axis_closed_form():
    # 2*pi*R^2 / (R^2 + z^2)^(3/2) along the axis, with k_B = 1
    for z in (0.5, 1.5, 4.0):
        b = biot_savart(unit_circle(), (0, 0, z), UNIT)
        expected = 2.0 * math.pi / (1.0 + z * z) ** 1.5
        assert abs(b[2] - expected) <= 1e-9 * expected
        assert np.hypot(b[0], b[1]) <= 1e-12


def test_square_loop_center_closed_form():
    # four finite straight wires: B = 8*sqrt(2)*k_B / side
    b = biot_savart(unit_square_loop(), (0.5, 0.5, 0.0), UNIT)
    assert abs(b[2] - 8.0 * math.sqrt(2.0)) <= 1e-9
    assert np.hypot(b[0], b[1]) <= 1e-12


def test_near_singular_guard():
    with pytest.raises(NearSingular):
        biot_savart(unit_circle(), (1.0, 0.0, 0.0))
    with pytest.raises(NearSingular):
        biot_savart(unit_circle(), (1.0 + 1e-9, 0.0, 0.0))


def test_near_singular_names_the_distance_guard_and_source_kind():
    # messages are unchanged; the attributes say the same as numbers
    with pytest.raises(NearSingular, match=r"^field point at distance \S+ from the curve \(guard \S+\)$") as raised:
        biot_savart(unit_circle(), [(0.0, 0.0, 2.0), (1.0 + 1e-9, 0.0, 0.0)])
    err = raised.value
    assert err.kind == "curve"
    assert err.guard == QuadratureSpec().resolve_guard(2.0 * math.sqrt(2.0))
    assert err.distance == pytest.approx(1e-9, rel=1e-6)
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(NearSingular) as raised:
        coulomb_surface_field(patch, 1.0, (0.5, 0.5, 0.0), UNIT, QuadratureSpec(min_distance_guard=0.25))
    assert (raised.value.kind, raised.value.distance, raised.value.guard) == ("sheet", 0.0, 0.25)
    with pytest.raises(NearSingular, match="^field point within guard distance of a panel center$") as raised:
        dipole_mesh_field(mesh_surface(patch, 1, 1), DipoleSheetSpec(1.0, 1e-3), (0.5, 0.5, 1e-12), UNIT)
    assert (raised.value.kind, raised.value.distance, raised.value.guard) == ("mesh", 1e-12, 1e-9)
    # of many points, the first inside the guard
    points = [(0.0, 0.0, 2.0), (0.5, 0.5, 2e-12), (0.5, 0.5, 1e-12)]
    with pytest.raises(NearSingular, match="^field point within guard distance of a panel center$") as raised:
        dipole_mesh_field(mesh_surface(patch, 1, 1), DipoleSheetSpec(1.0, 1e-3), points, UNIT)
    assert (raised.value.kind, raised.value.distance, raised.value.guard) == ("mesh", 2e-12, 1e-9)


def test_prefactor_linearity():
    x = (0.2, 0.1, 1.2)
    b1 = biot_savart(unit_circle(), x, FieldConstants(k_B=1.0))
    b2 = biot_savart(unit_circle(), x, FieldConstants(k_B=-2.5))
    assert np.allclose(b2, -2.5 * b1, rtol=1e-12)


def test_resampling_invariance():
    # the same square traversed with extra collinear vertices
    square = unit_square_loop()
    dense = []
    verts = square.vertices
    for i in range(4):
        a, b = verts[i], verts[(i + 1) % 4]
        for k in range(8):
            dense.append(a + (b - a) * (k / 8.0))
    resampled = PolyLine(dense, closed=True)
    x = (0.4, 0.8, 0.7)
    assert np.allclose(
        biot_savart(square, x), biot_savart(resampled, x), atol=1e-9
    )


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(7)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.normal(size=3)
    loop = PolyLine([(0, 0, 0), (1, 0.1, 0), (0.9, 1, 0.2), (-0.1, 0.8, 0.1)], closed=True)
    moved = PolyLine([rot @ v + shift for v in loop.vertices], closed=True)
    x = np.array([0.4, 0.3, 1.5])
    b = biot_savart(loop, x)
    b_moved = biot_savart(moved, rot @ x + shift)
    assert np.allclose(b_moved, rot @ b, atol=1e-9)


# ---------------------------------------------------------------------------
# Closed-form straight segments
# ---------------------------------------------------------------------------


def _mp_segment_field(start, end, x):
    """integral of d x (x - r) / |x - r|^3 dl along start -> end, by mpmath
    quadrature at 40 digits on the same binary inputs, split at the foot
    of the perpendicular."""
    with mpmath.workdps(40):
        a, b, p = ([mpmath.mpf(float(c)) for c in v] for v in (start, end, x))
        chord = [bi - ai for ai, bi in zip(a, b)]
        length = mpmath.sqrt(mpmath.fsum(c * c for c in chord))
        d = [c / length for c in chord]
        rel = [pi - ai for ai, pi in zip(a, p)]
        foot = mpmath.fsum(di * ri for di, ri in zip(d, rel))
        # d x (x - r) = d x (x - start) for every r on the segment
        cross = [
            d[1] * rel[2] - d[2] * rel[1],
            d[2] * rel[0] - d[0] * rel[2],
            d[0] * rel[1] - d[1] * rel[0],
        ]

        def inv_r3(s):
            return mpmath.fsum((ri - s * di) ** 2 for ri, di in zip(rel, d)) ** -1.5

        cuts = [0, foot, length] if 0 < foot < length else [0, length]
        integral = mpmath.quad(inv_r3, cuts)
        return np.array([float(c * integral) for c in cross])


def _segment_field_rel_error(start, end, points):
    got = segment_field(start, end, points)
    assert got.shape == (len(points), 3)
    refs = [_mp_segment_field(start, end, x) for x in points]
    return max(np.linalg.norm(g - r) / np.linalg.norm(r) for g, r in zip(got, refs))


_SEG_START = np.array([0.3, -0.2, 0.1])
_SEG_END = np.array([1.1, 0.4, -0.5])


def _unit_normals(rng, count):
    """Unit vectors perpendicular to the test segment."""
    d = (_SEG_END - _SEG_START) / np.linalg.norm(_SEG_END - _SEG_START)
    n = np.cross(d, rng.normal(size=(count, 3)))
    return n / np.linalg.norm(n, axis=1)[:, None]


def test_segment_field_far_from_the_segment():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(12, 3))
    radius = rng.uniform(10.0, 100.0, 12)
    mid = 0.5 * (_SEG_START + _SEG_END)
    points = mid + radius[:, None] * u / np.linalg.norm(u, axis=1)[:, None]
    assert _segment_field_rel_error(_SEG_START, _SEG_END, points) <= 1e-14


def test_segment_field_beside_the_interior():
    chord = _SEG_END - _SEG_START
    fractions = np.array([0.05, 0.37, 0.5, 0.93])
    points = _SEG_START + fractions[:, None] * chord + 1e-6 * _unit_normals(
        np.random.default_rng(12), 4
    )
    assert _segment_field_rel_error(_SEG_START, _SEG_END, points) <= 1e-9


def test_segment_field_off_the_extended_line():
    # rounding the direction by one ulp tilts the line by about 1e-16, which
    # moves these points by that much against their 1e-9 offset
    chord = _SEG_END - _SEG_START
    beyond = np.array([[1.5], [-0.8], [4.0], [1.0 + 1e-6]])
    points = _SEG_START + beyond * chord + 1e-9 * _unit_normals(np.random.default_rng(13), 4)
    assert _segment_field_rel_error(_SEG_START, _SEG_END, points) <= 1e-6


@pytest.mark.parametrize("length, distance", [(1e4, 1.0), (1.0, 1e-4)])
def test_segment_field_of_a_long_segment(length, distance):
    rng = np.random.default_rng(14)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    start = np.array([0.2, -0.1, 0.3])
    end = start + length * d
    n = np.cross(d, rng.normal(size=(3, 3)))
    n /= np.linalg.norm(n, axis=1)[:, None]
    points = start + np.array([[0.01], [0.5], [0.77]]) * (end - start) + distance * n
    assert _segment_field_rel_error(start, end, points) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_segment_field_is_scale_free():
    # scaling by 2^k is exact, so the field of the scaled polygon at the
    # scaled points is the field scaled by 2^-k, bit for bit, at every k
    # whose lengths stay normal floats
    corners = np.array([(0.0, 0.0, 0.0), (1.25, 0.0, 0.0), (1.1, 0.9, 0.2), (0.2, 1.0, -0.1)])
    starts, ends = corners, np.roll(corners, -1, axis=0)
    points = np.array(
        [
            (0.6, 1e-7, 3e-8),  # beside the first edge
            (2.0, 0.0, 0.0),  # on the first edge's extended line
            (-0.5, 0.0, 0.0),
            (0.55, 0.45, 0.02),  # in the polygon's interior
        ]
    )
    field = segment_field(starts, ends, points)
    for k in range(-330, 331):
        scaled = segment_field(np.ldexp(starts, k), np.ldexp(ends, k), np.ldexp(points, k))
        assert scaled.tobytes() == np.ldexp(field, -k).tobytes(), k


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_segment_field_rejects_a_zero_length_segment():
    # it once divided by the zero length and returned NaN after a warning
    starts, ends = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="zero length"):
        segment_field(starts, ends, [[0.0, 0.0, 1.0]])


def _pentagon():
    return PolyLine(
        [(0.0, 0.0, 0.0), (1.0, 0.1, 0.0), (1.2, 0.9, 0.3), (0.4, 1.3, 0.1), (-0.2, 0.6, -0.2)],
        closed=True,
    )


def _as_composite(polyline):
    """The same polyline as a composite of one-segment polylines, whose
    field biot_savart sums leg by leg."""
    starts, ends = polyline.segments()
    return CompositeCurve([PolyLine([a, b]) for a, b in zip(starts, ends)])


def biot_savart_by_quadrature(curve, x, consts=FieldConstants(), spec=QuadratureSpec()):
    """k_B * integral of dl x (x - r) / |x - r|^3 along the curve, in one
    1-D quadrature whose first cells are its smooth pieces: the reference
    for the closed forms.  The integrator is looked up in the quadrature
    module at each call, so a test may wrap it there."""
    x = np.asarray(x, dtype=float)

    def integrand(ts):
        rel = x - curve.position(ts)
        inv_r3 = (rel * rel).sum(axis=-1) ** -1.5
        return np.cross(curve.tangent(ts), rel) * inv_r3[:, None]

    value, _ = quadrature.integrate_1d(integrand, curve.smooth_cuts(), spec)
    return consts.k_B * value


def gauss_pair_by_quadrature(curve_c, curve_l, consts=FieldConstants(), spec=QuadratureSpec()):
    """k_B * the Gauss double integral of (dm x (l - m)) . dl / |l - m|^3,
    in one 2-D quadrature whose first cells are the products of both
    curves' smooth pieces: the reference for the circulation route.
    Returns (value, error_estimate)."""

    def integrand(tt, ss):
        m, dm = curve_c.position(tt[:, 0]), curve_c.tangent(tt[:, 0])
        l, dl = curve_l.position(ss[0]), curve_l.tangent(ss[0])
        rel = l[None, :, :] - m[:, None, :]
        num = np.einsum("ijk,jk->ij", np.cross(dm[:, None, :], rel), dl)
        return num * np.einsum("ijk,ijk->ij", rel, rel) ** -1.5

    value, err = quadrature.integrate_2d(integrand, (curve_c.smooth_cuts(), curve_l.smooth_cuts()), spec)
    return consts.k_B * float(value), abs(consts.k_B) * err


def disk_area_element(radius, u, v):
    """|dpoint/du x dpoint/dv| of Disk's elliptical map at (u, v).

    With x = 2u - 1, y = 2v - 1, sx = sqrt(1 - x^2 / 2) and
    sy = sqrt(1 - y^2 / 2) it is 4 R^2 (sx sy - x^2 y^2 / (4 sx sy)) =
    2 R^2 (2 - x^2 - y^2) / (sx sy), and 1 - x^2 = 4 u (1 - u): no
    cancellation where it vanishes at the corners.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    sx, sy = np.sqrt(1.0 - 0.5 * (2.0 * u - 1.0) ** 2), np.sqrt(1.0 - 0.5 * (2.0 * v - 1.0) ** 2)
    return (8.0 * radius**2) * (u * (1.0 - u) + v * (1.0 - v)) / (sx * sy)


def sheet_field_by_quadrature(patch, x, consts=FieldConstants(), spec=QuadratureSpec()):
    """k_E * integral of (x - p) |dp/du x dp/dv| / |x - p|^3 over the unit
    square, p = patch.point(u, v), for a unit-charged PlanarRect or Disk,
    in one 2-D quadrature: the reference for the sheets' closed forms.
    The integrator is looked up in the quadrature module at each call, so
    a test may wrap it there."""
    x = np.asarray(x, dtype=float)
    if isinstance(patch, Disk):
        jacobian = functools.partial(disk_area_element, patch.radius)
    else:
        area = math.hypot(*np.cross(patch.edge_a, patch.edge_b))
        jacobian = lambda u, v: area

    def integrand(u, v):
        rel = x - patch.point(u, v)
        inv_r3 = (rel * rel).sum(axis=-1) ** -1.5
        return rel * (jacobian(u, v) * inv_r3)[..., None]

    value, _ = quadrature.integrate_2d(integrand, ((0.0, 1.0), (0.0, 1.0)), spec)
    return consts.k_E * value


@pytest.mark.parametrize("x", [(0.5, 0.5, 0.4), (0.1, -0.3, 0.2), (2.0, 1.0, -1.0), (0.6, 0.7, 0.0)])
def test_polyline_field_matches_quadrature(x):
    pentagon = _pentagon()
    closed_form = biot_savart(pentagon, x)
    by_quadrature = biot_savart_by_quadrature(pentagon, x)
    assert np.allclose(closed_form, by_quadrature, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("closed", [True, False])
def test_polyline_gauss_integral_matches_quadrature_within_the_estimate(closed):
    # a ring 0.3 around the pentagon's first edge links it once; the open
    # pentagon gives a value that is not an integer
    pentagon = PolyLine(_pentagon().vertices, closed=closed)
    ring = Circle((0.5, 0.05, 0.0), 0.3, (1.0, 0.1, 0.0), "ccw")
    closed_form, err_cf = gauss_pair_integral(pentagon, ring)
    by_quadrature, err_q = gauss_pair_by_quadrature(pentagon, ring)
    assert abs(closed_form - by_quadrature) <= err_cf + err_q
    if closed:
        assert abs(abs(closed_form) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Closed-form circles; near the wire, one tolerance for the whole integral
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _circle_field_closed_form(x, k_b, radius=1.0):
    """Field of the circle of the given radius about +z through the origin
    (ccw), from K and E at 40 digits on the same binary inputs."""
    with mpmath.workdps(40):
        r = mpmath.mpf(radius)
        rho = mpmath.sqrt(mpmath.mpf(x[0]) ** 2 + mpmath.mpf(x[1]) ** 2)
        z = mpmath.mpf(x[2])
        big = (r + rho) ** 2 + z * z
        small = (r - rho) ** 2 + z * z
        m = 4 * r * rho / big
        kk, ee = mpmath.ellipk(m), mpmath.ellipe(m)
        scale = 2 * mpmath.mpf(k_b) / mpmath.sqrt(big)
        b_z = scale * (kk + (r * r - rho * rho - z * z) / small * ee)
        if rho == 0:
            return np.array([0.0, 0.0, float(b_z)])
        b_rho = scale * z / rho * (-kk + (r * r + rho * rho + z * z) / small * ee)
        return np.array([float(b_rho * x[0] / rho), float(b_rho * x[1] / rho), float(b_z)])


def _relative_error(got, expected):
    return float(np.linalg.norm(got - expected) / np.linalg.norm(expected))


def _within_tolerance(field, expected, consts, spec=QuadratureSpec()):
    magnitude = float(np.abs(expected).max())
    bound = 10.0 * (spec.rel_tol * magnitude + abs(consts.k_B) * spec.abs_tol)
    return float(np.abs(field - expected).max()) <= bound


# the nearest distance is 10x the guard, 1e-6 x the ring's bounding-box diagonal
@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4, 4e-5, 10 * 1e-6 * 2 * math.sqrt(2)])
def test_circle_field_near_the_wire(d):
    consts = FieldConstants()
    ring = unit_circle()
    c, s = math.cos(0.3), math.sin(0.3)
    for x, conditioning in (
        ((1.0 + d, 0.0, 0.0), 0.0),
        ((1.0 - d, 0.0, 0.0), 0.0),
        ((1.0, 0.0, -d), 0.0),
        # off the x-z plane rho rounds by about an ulp, which moves the
        # point by that much against its distance d from the wire
        ((c, s, d), 4 * _EPS / d),
        ((c * (1 + d), s * (1 + d), 0.0), 4 * _EPS / d),
    ):
        expected = _circle_field_closed_form(x, consts.k_B)
        assert _relative_error(biot_savart(ring, x, consts), expected) <= 1e-12 + conditioning, x


def test_circle_field_near_the_axis_and_far_away():
    radius = 1.5
    ring = Circle((0, 0, 0), radius, (0, 0, 1), "ccw")
    points = [
        (rho * radius, 0.0, z * radius)
        for rho in (0.0, 1e-9, 1e-6, 1e-3)
        for z in (-0.7, 0.0, 0.4, 2.0)
    ]
    points += [1e3 * radius * np.array(u) for u in ((1, 0, 0), (0, 0, 1), (0.6, 0, 0.8), (-0.8, 0, -0.6))]
    got = circle_field(ring, points)
    for x, b in zip(points, got):
        assert _relative_error(b, _circle_field_closed_form(x, 1.0, radius)) <= 1e-12, x
    assert np.array_equal(circle_field(ring.reversed(), points), -got)
    with pytest.raises(ValueError):
        circle_field(ring, [(0.0, 0.0, 1.0), (0.0, radius, 0.0)])


def test_circle_field_matches_quadrature_within_the_estimate():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    circle = Circle((0.3, -0.2, 0.5), 0.8, (0.2, -0.4, 0.9), "cw")
    on_wire = circle.position(1.1)
    outward = (on_wire - circle.center) / 0.8
    points = [(0.1, 0.4, -0.3), (1.5, 0.2, 0.9), circle.center, on_wire + 1e-3 * outward]
    for x in points:
        closed_form = biot_savart(circle, x, UNIT, spec)
        by_quadrature = biot_savart_by_quadrature(circle, x, UNIT, spec)
        assert _within_tolerance(by_quadrature, closed_form, UNIT, spec), x


def _near_wire_distances(diagonal):
    # from 1e-2 down to twice the guard, 1e-6 x the bounding-box diagonal
    return (1e-2, 1e-3, 1e-4, 1e-5, 2.0 * QuadratureSpec().resolve_guard(diagonal))


def test_composite_square_field_near_a_joint_and_a_leg():
    consts = FieldConstants()
    square = unit_square_loop()
    composite = _as_composite(square)
    for d in _near_wire_distances(math.sqrt(2.0)):
        r = d / math.sqrt(2.0)
        points = (
            (1.0 + r, -r, 0.0),  # outside the joint at (1, 0, 0)
            (1.0, 1.0, d),  # above the joint at (1, 1, 0)
            (0.3, -d, 0.0),  # beside a leg, outside
            (0.0 + d, 0.6, 0.0),  # beside a leg, inside
        )
        for x in points:
            expected = biot_savart(square, x, consts)
            assert _relative_error(biot_savart(composite, x, consts), expected) <= 1e-13, (d, x)


def test_composite_field_is_the_sum_of_its_leaves():
    consts = FieldConstants()
    ring = unit_circle()
    one_part = CompositeCurve([ring])
    # the benchmark's shape: a circle and a straight spur out and back from
    # where its parameter starts
    circle = Circle((0.1, -0.2, 0.3), 0.7, (0.2, 0.3, 1.0), "cw")
    joint = circle.position(circle.t_start)
    axis = circle.axis / np.linalg.norm(circle.axis)
    spur = PolyLine([joint, joint + 0.3 * axis, joint])
    with_spur = CompositeCurve([circle, spur])
    outward = (joint - circle.center) / 0.7
    side = np.cross(axis, outward)
    for d in _near_wire_distances(2.0 * math.sqrt(2.0)):
        for x in ((1.0 + d, 0.0, 0.0), (1.0 - d, 0.0, 0.0), (0.0, 1.0, d)):
            expected = biot_savart(ring, x, consts)
            assert _relative_error(biot_savart(one_part, x, consts), expected) <= 1e-15, (d, x)
        for x in (joint + d * outward, joint + 0.1 * axis + d * side, circle.position(2) + d * axis):
            leaves = circle_field(circle, x) + segment_field(*spur.segments(), x)
            assert np.array_equal(biot_savart(with_spur, x, consts), consts.k_B * leaves[0]), (d, x)


class OtherCurve(Curve):
    """A kind of curve that no scene can declare, with the unit circle's
    box and distances."""

    def bounding_box(self):
        return unit_circle().bounding_box()

    def distance_to(self, point):
        return unit_circle().distance_to(point)


def test_loop_fields_need_no_quadrature(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("quadrature reached")

    # the routine every quadrature route meets, as selftest criterion 10
    # poisons it, and the names that bench/spans.py wraps under fields
    monkeypatch.setattr(quadrature, "_integrate", poisoned)
    monkeypatch.setattr(fields, "integrate_1d", poisoned)
    monkeypatch.setattr(fields, "integrate_2d", poisoned)
    ring = unit_circle()
    tilted = Circle((0.2, 0.1, 0.4), 0.5, (1.0, 0.2, 0.3), "cw")
    open_line = PolyLine([(0, 0, 0), (1, 0.2, 0), (1.2, 1, 0.3)])
    spur = PolyLine([(1, 0, 0), (1, 0, 0.5), (1, 0, 0)])
    nested = CompositeCurve([ring, CompositeCurve([spur, tilted]), open_line])
    x = (0.3, -0.4, 0.7)
    for curve in (ring, open_line, unit_square_loop(), RectLoop(2), nested):
        assert np.all(np.isfinite(biot_savart(curve, x))), curve
    b = {curve: biot_savart(curve, x, UNIT) for curve in (ring, spur, tilted, open_line)}
    assert np.array_equal(biot_savart(nested, x, UNIT), b[ring] + (b[spur] + b[tilted]) + b[open_line])
    with pytest.raises(TypeError):
        biot_savart(OtherCurve(), x)


# ---------------------------------------------------------------------------
# Coulomb sheets
# ---------------------------------------------------------------------------


def solid_angle_of_square(half_side, height):
    """Solid angle of a square of half-side a seen from height d over its center."""
    a, d = half_side, height
    return 4.0 * math.atan(a * a / (d * math.sqrt(d * d + 2 * a * a)))


def test_sheet_field_matches_solid_angle():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    e = coulomb_surface_field(patch, 1.0, (0.5, 0.5, 1.0), UNIT)
    assert abs(e[2] - solid_angle_of_square(0.5, 1.0)) <= 1e-9
    assert np.hypot(e[0], e[1]) <= 1e-10


def test_far_field_is_point_charge():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    e = coulomb_surface_field(patch, 1.0, (0.5, 0.5, 100.0), UNIT)
    assert abs(e[2] - 1e-4) <= 1e-4 * 1e-3
    assert np.hypot(e[0], e[1]) <= 1e-12


def test_mirror_symmetry_above_center():
    patch = PlanarRect((0, 0, 0), (2, 0, 0), (0, 2, 0))
    e = coulomb_surface_field(patch, -0.7, (1.0, 1.0, 0.5), UNIT)
    assert abs(e[0]) <= 1e-10 and abs(e[1]) <= 1e-10
    assert e[2] < 0  # negative charge pulls the field down


def test_growing_sheet_approaches_infinite_plane():
    # E_z -> 2*pi*sigma*k_E from below as the sheet grows
    values = []
    for side in (1.0, 4.0, 16.0):
        patch = PlanarRect((-side / 2, -side / 2, 0), (side, 0, 0), (0, side, 0))
        e = coulomb_surface_field(patch, 1.0, (0, 0, 0.01), UNIT)
        oracle = solid_angle_of_square(side / 2, 0.01)
        assert abs(e[2] - oracle) <= 1e-7 * oracle
        values.append(e[2])
    assert values[0] < values[1] < values[2] < 2 * math.pi
    assert 2 * math.pi - values[-1] < 0.01


def test_sheet_guard():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(NearSingular):
        coulomb_surface_field(patch, 1.0, (0.5, 0.5, 0.0), UNIT)


def _rectangle_field_40_digits(width, depth, x):
    """Field of the unit-charged rectangle [0, width] x [0, depth] in z = 0,
    summed over its corners at 40 digits: with u, v the corner's offsets
    from x and r its distance, E_z sums +-atan(u v / (z r)) and E_x, E_y
    sum +-log(v + r), +-log(u + r)."""
    with mpmath.workdps(40):
        px, py, pz = (mpmath.mpf(float(c)) for c in x)
        field = [mpmath.mpf(0)] * 3
        for i, u in enumerate((-px, mpmath.mpf(width) - px)):
            for j, v in enumerate((-py, mpmath.mpf(depth) - py)):
                sign = (-1) ** (i + j)
                r = mpmath.sqrt(u * u + v * v + pz * pz)
                field[0] += sign * mpmath.log(v + r)
                field[1] += sign * mpmath.log(u + r)
                if pz != 0:
                    field[2] += sign * mpmath.atan(u * v / (pz * r))
        return np.array([float(c) for c in field])


def test_sheet_field_matches_40_digits_near_edges_corners_and_the_interior():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0))
    points = [
        (0.3, 0.5, 1e-6),  # above the interior
        (0.5, 0.4, -1e-6),
        (1e-6, 0.4, 1e-6),  # inside an edge
        (1.0 + 1e-6, 0.4, 0.0),  # beside an edge, in the plane
        (0.5, -1e-6, 1e-3),
        (1e-6, 1e-6, 1e-6),  # inside a corner
        (-1e-6, -1e-6, 1e-6),  # outside a corner
        (1.0 + 1e-6, 0.8 + 2e-6, -0.3),
        (0.5, 0.4, 0.3),
    ]
    # the points at 1e-6 lie inside the guard, 1e-6 x the diagonal, which
    # the closed form itself does not need
    for x, e in zip(points, polygon_sheet_field(patch.rim().vertices, points)):
        assert _relative_error(e, _rectangle_field_40_digits(1.0, 0.8, x)) <= 1e-12, x
    x = points[-1]
    assert np.array_equal(coulomb_surface_field(patch, 1.0, x, UNIT), polygon_sheet_field(patch.rim().vertices, x)[0])


def test_sheet_field_far_away():
    # the edges' in-plane terms, each about l / r, cancel to about A / r^2,
    # so far away the in-plane part keeps about eps r / l relative
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0))
    for x in ((0.5, 0.4, 2e3), (2e3, 1e3, 0.5), (1e3, -1e3, 1e3), (2e3, 0.4, 0.0)):
        r = float(np.linalg.norm(x))
        expected = _rectangle_field_40_digits(1.0, 0.8, x)
        got = coulomb_surface_field(patch, 1.0, x, UNIT)
        assert _relative_error(got, expected) <= 1e-12 + 8 * _EPS * r / 0.8, x


def test_sheet_field_is_scale_free():
    # the field of a uniformly charged sheet is dimensionless
    points = np.array(
        [(0.3, 0.48, 0.01), (0.5, 0.4, -0.3), (2.0, 1.0, -1.0), (1.2, 0.4, 0.0), (-0.2, -0.3, 0.7)]
    )
    unit = PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0))
    expected = [coulomb_surface_field(unit, 1.0, x, UNIT) for x in points]
    for s in (1e-100, 1e-6, 1.0, 1e77, 1e100):
        patch = PlanarRect((0, 0, 0), (s, 0, 0), (0, 0.8 * s, 0))
        for x, e in zip(s * points, expected):
            assert _relative_error(coulomb_surface_field(patch, 1.0, x, UNIT), e) <= 1e-12, (s, x)


def test_sheet_field_matches_quadrature_within_the_estimate():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    consts = FieldConstants(k_E=1.0)
    disk = Disk((0.2, -0.1, 0.3), 1.3, (0.3, -0.4, 1.0))
    rect = PlanarRect((0.2, -0.1, 0.3), (0.9, 0.3, -0.2), (-0.1, 0.6, 0.5))
    # and the two sheets of the disk's dipole layer with separation 0.1
    sheets = [Disk(disk.center + s * disk.constant_normal(), 1.3, disk.axis) for s in (0.05, -0.05)]
    for patch in (rect, disk, *sheets):
        normal = patch.constant_normal()
        inside = patch.point(0.3, 0.7)
        # above, below, away, and in the plane beyond the rim
        for x in (inside + 1e-2 * normal, inside - 0.4 * normal, (2.0, 1.0, -1.0), patch.point(1.2, 0.5)):
            closed_form = coulomb_surface_field(patch, 1.0, x, consts, spec)
            by_quadrature = sheet_field_by_quadrature(patch, x, consts, spec)
            assert np.abs(by_quadrature - closed_form).max() <= 10 * (
                spec.rel_tol * np.abs(closed_form).max() + spec.abs_tol
            ), (patch, x)


def test_disk_field_on_the_axis():
    # the solid angle 2 pi (1 - |z| / sqrt(z^2 + R^2)), written without the difference
    radius = 1.7
    disk = Disk((0.1, -0.2, 0.3), radius, (0.3, 0.4, 1.0))
    normal = disk.constant_normal()
    for z in (1e-4, 0.03, -0.5, 2.0, -40.0):
        slant = math.hypot(z, radius)
        expected = math.copysign(2 * math.pi * radius**2 / (slant * (slant + abs(z))), z) * normal
        e = coulomb_surface_field(disk, 1.0, disk.center + z * normal, UNIT)
        assert np.abs(e - expected).max() <= 1e-12 * np.abs(expected).max(), z


# (rho, z) of the unit disk: far above the centre and the rim, far out in
# and above the plane, and beside the rim just off the plane
@pytest.mark.parametrize(
    "rho, z",
    [(0.5, 1e3), (1.0, 1e5), (3.0, 30.0), (1e3, 1e-2), (1e5, 1e5), (1e8, 1.0), (0.999, 1e-7), (1.001, -1e-7)],
)
def test_disk_solid_angle_loses_no_digits(rho, z):
    # Paxton's Omega = sign(z) (2 pi H(1 - rho) - 2 |z| / sqrt(A) (K(m) + s Pi(1 - s^2, m))),
    # s = (1 - rho) / (1 + rho), at 60 digits; far away its terms are up to
    # (r / R)^2 larger than Omega
    with mpmath.workdps(60):
        rho_, z_ = mpmath.mpf(rho), mpmath.mpf(z)
        big = (1 + rho_) ** 2 + z_**2
        m, s = 4 * rho_ / big, (1 - rho_) / (1 + rho_)
        # 2 pi H(1 - rho) with H(0) = 1/2, where s Pi(1 - s^2) has the limit 0
        inner = mpmath.pi * (1 + mpmath.sign(s))
        third = s * mpmath.ellippi(1 - s * s, m) if s else 0
        expected = float(mpmath.sign(z_) * (inner - 2 * abs(z_) / mpmath.sqrt(big) * (mpmath.ellipk(m) + third)))
    omega = disk_sheet_field(unit_circle(), [(rho, 0.0, z)])[0, 2]
    assert abs(omega - expected) <= 1e-14 * abs(expected)


@functools.lru_cache(maxsize=None)
def _disk_field_40_digits(rho, z):
    """(E_rho, E_z) of the unit-charged unit disk about +z at distance rho
    from its axis and height z, at 40 digits, by routes apart from
    disk_sheet_field's: E_rho = closed integral of cos(phi) / R dphi by
    mpmath's K and E, and the solid angle over the rays from the foot of
    x, each reaching the rim at
    s = (1 - rho^2) / (rho cos(psi) + sqrt(1 - rho^2 sin^2(psi))) from
    inside, or crossing the disk between the two roots from outside."""
    with mpmath.workdps(40):
        rho, z = mpmath.mpf(rho), mpmath.mpf(z)
        big, b = rho**2 + 1 + z**2, 2 * rho
        m = 2 * b / (big + b)
        e_rho = 4 / b * (big * mpmath.ellipk(m) / mpmath.sqrt(big + b) - mpmath.sqrt(big + b) * mpmath.ellipe(m))
        if z == 0:
            return float(e_rho), 0.0

        def root(psi):
            return mpmath.sqrt(max(0, 1 - (rho * mpmath.sin(psi)) ** 2))

        def seen(s):
            return abs(z) / mpmath.sqrt(s * s + z * z)

        if rho < 1:
            # the ray lengths vary on the scale sqrt(1 - rho^2) about psi = pi/2
            w, half = mpmath.sqrt(1 - rho**2) / rho, mpmath.pi / 2
            cuts = [0, half - 10 * w, half - w, half, half + w, half + 10 * w, mpmath.pi]
            omega = 2 * mpmath.quad(lambda psi: 1 - seen((1 - rho**2) / (rho * mpmath.cos(psi) + root(psi))), cuts)
        else:

            def crossing(psi):
                far = -rho * mpmath.cos(psi) + root(psi)
                return seen((rho**2 - 1) / far) - seen(far)

            omega = 2 * mpmath.quad(crossing, [mpmath.pi - mpmath.asin(1 / rho), mpmath.pi])
        return float(e_rho), float(mpmath.sign(z) * omega)


def test_disk_field_near_the_rim():
    # from 1e-2 down to twice the guard (1e-6 x the bounding-box diagonal)
    # and 1.01 x the guard from the rim: outside in the plane, outside
    # above, straight above, inside above, inside below, outside below and
    # straight below, at the seam t = 0 (where rho = R exactly straight
    # above) and at t = 2.1; closer to the sheet than the guard it raises
    disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    guard = spec.resolve_guard(math.sqrt(8.0))
    half = math.sqrt(0.5)
    directions = ((1.0, 0.0), (half, half), (0.0, 1.0), (-half, half), (-half, -half), (half, -half), (0.0, -1.0))
    for d in (1e-2, 1e-3, 1e-4, 1e-5, 2 * guard, 1.01 * guard):
        for t in (0.0, 2.1):
            radial = np.array([math.cos(t), math.sin(t), 0.0])
            for out, up in directions:
                x = radial + d * (out * radial + (0.0, 0.0, up))
                if disk.distance_to(x) <= guard:
                    with pytest.raises(NearSingular):
                        coulomb_surface_field(disk, 1.0, x, UNIT, spec)
                    continue
                rho = math.hypot(x[0], x[1])
                # mirror images share the 40-digit value
                e_rho, e_z = _disk_field_40_digits(rho, abs(x[2]))
                expected = np.array([e_rho * x[0] / rho, e_rho * x[1] / rho, math.copysign(e_z, x[2])])
                scale = np.abs(expected).max()
                for s in (spec, QuadratureSpec()):
                    e = coulomb_surface_field(disk, 1.0, x, UNIT, s)
                    assert np.abs(e - expected).max() <= 1e-12 * scale, (d, t, out, up, s)
                # the 2-D route, where it converges: at least down to 1e-3
                try:
                    by_quadrature = sheet_field_by_quadrature(disk, x, UNIT, spec)
                except NoConvergence:
                    assert d < 1e-3
                    continue
                tol = 10 * (spec.rel_tol * scale + spec.abs_tol)
                assert np.abs(by_quadrature - expected).max() <= tol, (d, t, out, up)


@pytest.mark.parametrize("radius", [1e-100, 1e-60, 1e60, 1e100])
def test_circle_and_disk_fields_are_scale_free(radius):
    # B of a loop scales as 1 / length and the sheet field not at all,
    # with no over- or underflow on the way
    x = np.array([0.3, 0.2, 0.5])
    b_unit = biot_savart(unit_circle(), x, UNIT)
    e_unit = coulomb_surface_field(Disk((0, 0, 0), 1.0, (0, 0, 1)), 1.0, x, UNIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = biot_savart(Circle((0, 0, 0), radius, (0, 0, 1)), radius * x, UNIT)
        e = coulomb_surface_field(Disk((0, 0, 0), radius, (0, 0, 1)), 1.0, radius * x, UNIT)
    assert _relative_error(radius * b, b_unit) <= 1e-12
    assert _relative_error(e, e_unit) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_circle_and_disk_fields_scale_exactly_by_powers_of_two():
    # the guard, the distance and both closed forms share the circle's
    # frame in a power-of-two unit of its radius, so at 2^k, for every k
    # from -600 to 600, the loop field is 2^-k times the field and the
    # sheet field the same, bit for bit; the axis enters only as
    # unit_axis, so one 2^j times longer, for j from -1000 to 1000, gives
    # the same fields bit for bit
    center, radius, axis = np.array([0.1, -0.2, 0.3]), 0.9, np.array([0.3, -0.4, 0.8])
    x = np.array([(0.3, 0.2, 0.5), (1.4, -0.3, 0.1), (0.1, -0.2, 2.0), (-0.5, 0.4, -0.6)])

    def fields(k, axis):
        """The loop and the sheet field of the circle at 2^k, at the points."""
        at, c, r = np.ldexp(x, k), np.ldexp(center, k), math.ldexp(radius, k)
        return biot_savart(Circle(c, r, axis), at, UNIT), coulomb_surface_field(Disk(c, r, axis), 1.0, at, UNIT)

    loop, sheet = fields(0, axis)
    for k in range(-600, 601):
        b, e = fields(k, axis)
        assert b.tobytes() == np.ldexp(loop, -k).tobytes(), k
        assert e.tobytes() == sheet.tobytes(), k
    for j in range(-1000, 1001):
        b, e = fields(0, np.ldexp(axis, j))
        assert b.tobytes() == loop.tobytes() and e.tobytes() == sheet.tobytes(), j


def test_the_guard_reaches_a_source_of_size_2_to_the_minus_565():
    # the guard's box diagonal and the distances once squared absolute
    # offsets, which underflow at this size: every point was beyond reach
    # and both fields read exactly zero.  In units, the loop field is 2^565
    # times the unscaled one and the sheet field equals it, bitwise
    s = 2.0**-565
    x = np.array([0.5, 0.5, 0.3])
    square = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], dtype=float)
    b_unit = biot_savart(PolyLine(square, closed=True), x, UNIT)
    e_unit = coulomb_surface_field(PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)), 1.0, x, UNIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = biot_savart(PolyLine(s * square, closed=True), s * x, UNIT)
        e = coulomb_surface_field(PlanarRect((0, 0, 0), (s, 0, 0), (0, s, 0)), 1.0, s * x, UNIT)
    assert np.abs(b_unit).max() > 0.0 and np.abs(e_unit).max() > 0.0
    assert b.tobytes() == (b_unit * 2.0**565).tobytes()
    assert e.tobytes() == e_unit.tobytes()


@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-300, 300))
def test_disk_field_turns_with_the_disk_mirrors_and_ignores_scale(seed, power):
    # a disk and a point at least a tenth of its radius from the sheet,
    # moved by x -> 2^power (Q x + t) with Q a proper rotation
    rng = np.random.default_rng(seed)
    radius = rng.uniform(0.2, 2.0)
    disk = Disk(rng.uniform(-1.0, 1.0, 3), radius, rng.normal(size=3))
    normal = disk.constant_normal()
    across = np.cross(normal, rng.normal(size=3))
    across /= np.linalg.norm(across)
    angle, rho, z = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2.5), rng.uniform(0.1, 2.0)
    turned = math.cos(angle) * across + math.sin(angle) * np.cross(normal, across)
    x = disk.center + radius * (rho * turned + math.copysign(z, rng.uniform(-1.0, 1.0)) * normal)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.uniform(-3.0, 3.0, 3)

    def moved(scale):
        def move(p):
            return scale * (rot @ p + shift)

        return Disk(move(disk.center), scale * radius, rot @ normal), move(x)

    e = coulomb_surface_field(disk, 1.0, x, UNIT)
    size = np.linalg.norm(e)
    turned_disk, turned_x = moved(1.0)
    e_turned = coulomb_surface_field(turned_disk, 1.0, turned_x, UNIT)
    assert np.linalg.norm(e_turned - rot @ e) <= 1e-12 * size
    scaled_disk, scaled_x = moved(math.ldexp(1.0, power))
    e_scaled = coulomb_surface_field(scaled_disk, 1.0, scaled_x, UNIT)
    assert np.linalg.norm(e_scaled - e_turned) <= 1e-12 * size
    # the mirror image of x through the disk's plane
    mirrored = x - 2.0 * ((x - disk.center) @ normal) * normal
    e_mirrored = coulomb_surface_field(disk, 1.0, mirrored, UNIT)
    assert np.linalg.norm(e_mirrored - (e - 2.0 * (e @ normal) * normal)) <= 1e-12 * size


# ---------------------------------------------------------------------------
# Dipole layers
# ---------------------------------------------------------------------------


def _panel_dipole(corner, edge_a, edge_b, dp, x):
    """k_E = 1 field of a flat panel's dipole layer shrunk to its corner."""
    moment = np.cross(edge_a, edge_b)
    return dp.separation * dp.sigma * point_dipole_field(corner, moment, x)[0]


def test_panel_field_above_base():
    e = _panel_dipole((0, 0, 0), (1, 0, 0), (0, 1, 0), DipoleSheetSpec(1.0, 1.0), (0, 0, 2))
    assert np.allclose(e, [0, 0, 0.25], atol=1e-15)


def test_panel_field_in_plane_direction():
    e = _panel_dipole((0, 0, 0), (1, 0, 0), (0, 1, 0), DipoleSheetSpec(1.0, 1.0), (1, 0, 0))
    assert np.allclose(e, [0, 0, -1.0], atol=1e-15)


def test_panel_field_zero_density():
    e = _panel_dipole((0, 0, 0), (1, 0, 0), (0, 1, 0), DipoleSheetSpec(0.0, 1.0), (0, 0, 2))
    assert np.allclose(e, 0.0)


def test_panel_field_linear_in_sigma_h_and_area():
    x = (0.3, 0.4, 1.7)
    square = ((0, 0, 0), (0.2, 0, 0), (0, 0.2, 0))
    e1 = _panel_dipole(*square, DipoleSheetSpec(1.0, 1e-3), x)
    e2 = _panel_dipole(*square, DipoleSheetSpec(-2.0, 1e-3), x)
    e3 = _panel_dipole(*square, DipoleSheetSpec(1.0, 3e-3), x)
    e4 = _panel_dipole((0, 0, 0), (0.4, 0, 0), (0, 0.2, 0), DipoleSheetSpec(1.0, 1e-3), x)
    assert np.allclose(e2, -2.0 * e1, rtol=1e-14)
    assert np.allclose(e3, 3.0 * e1, rtol=1e-14)
    assert np.allclose(e4, 2.0 * e1, rtol=1e-14)


def test_panel_field_rotation_equivariance():
    rng = np.random.default_rng(11)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    anchor, moment = np.array([0.1, 0.2, 0.0]), np.cross((0.3, 0, 0), (0, 0.25, 0.05))
    x = np.array([0.5, -0.4, 1.1])
    assert np.allclose(
        point_dipole_field(rot @ anchor, rot @ moment, rot @ x),
        point_dipole_field(anchor, moment, x) @ rot.T,
        atol=1e-14,
    )


def test_point_dipole_field_sums_over_anchors_for_every_point():
    rng = np.random.default_rng(5)
    anchors, moments = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    points = rng.normal(size=(3, 3)) + (0.0, 0.0, 5.0)
    field = point_dipole_field(anchors, moments, points)
    assert field.shape == (3, 3)
    for x, row in zip(points, field):
        single = sum(point_dipole_field(a, m, x)[0] for a, m in zip(anchors, moments))
        assert np.allclose(row, single, rtol=1e-14, atol=0.0)


def test_dipole_sheet_zero_cases():
    patch = PlanarRect((0, 0, 0), (0.01, 0, 0), (0, 0.01, 0))
    assert np.allclose(
        dipole_sheet_field_exact(patch, DipoleSheetSpec(1.0, 0.0), (0, 0, 2), UNIT), 0.0
    )
    assert np.allclose(
        dipole_sheet_field_exact(patch, DipoleSheetSpec(0.0, 1e-3), (0, 0, 2), UNIT), 0.0
    )


def test_dipole_sheet_matches_center_anchored_closed_form():
    # two-sheet quadrature vs the closed form anchored at the patch center
    side, h = 0.01, 1e-3
    patch = PlanarRect((0, 0, 0), (side, 0, 0), (0, side, 0))
    x = (0, 0, 2)
    exact = dipole_sheet_field_exact(patch, DipoleSheetSpec(1.0, h), x, UNIT)
    edges = ((side, 0, 0), (0, side, 0))
    closed_form = _panel_dipole((side / 2, side / 2, 0), *edges, DipoleSheetSpec(1.0, h), x)
    rel = np.linalg.norm(exact - closed_form) / np.linalg.norm(closed_form)
    assert rel <= 1e-3
    # the base-corner anchor differs by O(panel size / distance)
    corner_form = _panel_dipole((0, 0, 0), *edges, DipoleSheetSpec(1.0, h), x)
    rel_corner = np.linalg.norm(exact - corner_form) / np.linalg.norm(corner_form)
    assert rel_corner <= 1.5e-2


def test_dipole_sheet_converges_to_panel_form():
    # joint shrink of panel size and separation: first-order agreement
    x = (0, 0, 1.0)
    rels = []
    for eps in (0.08, 0.04, 0.02):
        patch = PlanarRect((0, 0, 0), (eps, 0, 0), (0, eps, 0))
        dp = DipoleSheetSpec(1.0, eps * 1e-2)
        exact = dipole_sheet_field_exact(patch, dp, x, UNIT)
        approx = _panel_dipole((0, 0, 0), (eps, 0, 0), (0, eps, 0), dp, x)
        rels.append(np.linalg.norm(exact - approx) / np.linalg.norm(approx))
    order = np.polyfit(np.log([0.08, 0.04, 0.02]), np.log(rels), 1)[0]
    assert order >= 0.9
    assert rels[0] > rels[1] > rels[2]


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.01, 100.0),
    orientation=st.sampled_from(["ccw", "cw"]),
)
def test_closed_forms_move_with_rigid_motions_and_scalings(seed, scale, orientation):
    # B of a loop scales as 1 / length; the sheet field is scale-free
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.uniform(-3.0, 3.0, 3)

    def move(p):
        return scale * (rot @ np.asarray(p, dtype=float)) + shift

    circle = Circle((0.1, -0.2, 0.3), 0.7, (0.3, 0.5, 0.8), orientation)
    moved_circle = Circle(move(circle.center), scale * 0.7, rot @ circle.axis, orientation)
    patch = PlanarRect((0.1, 0.0, -0.2), (0.8, 0.1, 0.0), (0.2, 0.6, 0.3))
    moved_patch = PlanarRect(move(patch.corner), scale * rot @ patch.edge_a, scale * rot @ patch.edge_b)
    points = rng.uniform(-1.5, 1.5, (4, 3))
    moved_points = np.array([move(p) for p in points])
    b, b_moved = circle_field(circle, points), circle_field(moved_circle, moved_points)
    assert np.allclose(b_moved * scale, b @ rot.T, rtol=0.0, atol=1e-11 * np.abs(b).max())
    e = polygon_sheet_field(patch.rim().vertices, points)
    e_moved = polygon_sheet_field(moved_patch.rim().vertices, moved_points)
    assert np.allclose(e_moved, e @ rot.T, rtol=0.0, atol=1e-11 * np.abs(e).max())
    # the disk's closed form, which ignores the rim's orientation
    rim = Circle((0.1, 0.0, -0.2), 0.7, (0.3, -0.5, 0.8), orientation)
    moved_rim = Circle(move(rim.center), scale * 0.7, rot @ rim.axis)
    e, e_moved = disk_sheet_field(rim, points), disk_sheet_field(moved_rim, moved_points)
    assert np.allclose(e_moved, e @ rot.T, rtol=0.0, atol=1e-11 * np.abs(e).max())


def _assert_dipole_sheet_leaves_h_loop_field_by_h_squared(patch):
    # the two-sheet field is a central difference in h, so it leaves
    # h B(boundary) by O(h^3), O(h^2) relative
    x = (0.4, 0.3, 0.6)
    loop = biot_savart(patch.rim(), x, UNIT)
    deviations = []
    for h in (1e-2, 1e-3, 1e-4):
        dipole = dipole_sheet_field_exact(patch, DipoleSheetSpec(1.0, h), x, UNIT)
        deviations.append(np.linalg.norm(dipole - h * loop) / (h * np.linalg.norm(loop)))
    for coarse, fine in zip(deviations[:-1], deviations[1:]):
        assert 80.0 <= coarse / fine <= 120.0, deviations


def test_dipole_sheet_is_h_times_the_boundary_loop_field_to_second_order():
    # both sides in closed form
    _assert_dipole_sheet_leaves_h_loop_field_by_h_squared(
        PlanarRect((0.0, 0.0, 0.0), (1.0, 0.2, 0.0), (0.3, 0.9, 0.1))
    )


def test_tilted_disk_dipole_sheet_is_h_times_its_rim_field_to_second_order():
    # the disk's closed form against the circle's, both from one AGM
    disk = Disk((0.4, 0.5, 0.0), 0.6, (0.2, -0.3, 1.0))
    _assert_dipole_sheet_leaves_h_loop_field_by_h_squared(disk)


def test_mesh_field_far_additivity():
    # total moment and centroid agree, so refinements match to ~(size/dist)^2
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    dp = DipoleSheetSpec(1.0, 1e-4)
    x = (0.5, 0.5, 1000.0)
    one = dipole_mesh_field(mesh_surface(patch, 1, 1), dp, x, UNIT)
    four = dipole_mesh_field(mesh_surface(patch, 2, 2), dp, x, UNIT)
    assert np.linalg.norm(four - one) <= 1e-6 * np.linalg.norm(one)


def test_mesh_field_second_order_cauchy():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    dp = DipoleSheetSpec(1.0, 1e-4)
    x = (0.5, 0.5, 2.0)
    values = {m: dipole_mesh_field(mesh_surface(patch, m, m), dp, x, UNIT) for m in (8, 16, 32)}
    d1 = np.linalg.norm(values[16] - values[8])
    d2 = np.linalg.norm(values[32] - values[16])
    assert d1 / d2 >= 3.9


def test_mesh_field_single_cell_is_center_anchored():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    dp = DipoleSheetSpec(1.0, 1e-4)
    x = (0.3, 0.9, 1.4)
    mesh = dipole_mesh_field(mesh_surface(patch, 1, 1), dp, x, UNIT)
    centered = _panel_dipole((0.5, 0.5, 0.0), (1, 0, 0), (0, 1, 0), dp, x)
    assert np.allclose(mesh, centered, rtol=1e-14)


# ---------------------------------------------------------------------------
# Point arrays
# ---------------------------------------------------------------------------

_TILTED_RING = Circle((0.1, -0.2, 0.3), 0.8, (0.3, -0.4, 1.0))
_BENT_LINE = PolyLine([(0.2, 0.1, 0.4), (1.1, -0.3, 0.2), (0.9, 0.8, -0.5), (-0.4, 0.6, 0.1)], closed=True)
_CURVES = {
    "circle": _TILTED_RING,
    "polyline": _BENT_LINE,
    "composite": CompositeCurve([_TILTED_RING, PolyLine([_TILTED_RING.position(1.0), (0.5, 0.5, 1.5)])]),
}
_PATCHES = {
    "rect": PlanarRect((0.1, -0.2, 0.3), (1.2, 0.3, -0.1), (-0.2, 0.9, 0.4)),
    "disk": Disk((0.1, -0.2, 0.3), 0.8, (0.3, -0.4, 1.0)),
}
# the closed forms of circles and disks run their AGM until every point of
# a batch has converged, a few more steps for the others; polylines and
# polygons keep every row bitwise
_BATCH_ULPS = {"circle": 4, "composite": 4, "polyline": 0, "rect": 0, "disk": 4}
_NEAR_POINTS = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
_FAR_POINTS = st.lists(st.floats(1e299, 1e300) | st.floats(-1e300, -1e299), min_size=3, max_size=3)
_BATCHES = st.lists(_NEAR_POINTS | _FAR_POINTS, min_size=1, max_size=8).map(np.array)


def _batch_and_rows(field, points):
    """field at all points in one call and at one point at a time; None
    for both when a point raises NearSingular, after checking that the
    whole batch raises it too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles = []
        for x in points:
            try:
                singles.append(field(x))
            except NearSingular:
                singles.append(None)
        if any(row is None for row in singles):
            with pytest.raises(NearSingular):
                field(points)
            return None, None
        return field(points), np.array(singles)


def _assert_rows_match(batch, rows, ulps, scale=None):
    assert batch.shape == rows.shape
    scale = np.linalg.norm(rows, axis=1) if scale is None else scale
    assert np.all(np.linalg.norm(batch - rows, axis=1) <= ulps * _EPS * scale)


@pytest.mark.parametrize("name", sorted(_CURVES))
@given(points=_BATCHES)
def test_biot_savart_batch_matches_one_point_at_a_time(name, points):
    batch, rows = _batch_and_rows(lambda x: biot_savart(_CURVES[name], x), points)
    if batch is not None:
        _assert_rows_match(batch, rows, _BATCH_ULPS[name])
        assert not batch[np.abs(points).max(axis=1) >= 1e299].any()


@pytest.mark.parametrize("name", sorted(_PATCHES))
@given(points=_BATCHES, sigma=st.floats(-2.0, 2.0))
def test_sheet_fields_batch_match_one_point_at_a_time(name, points, sigma):
    patch = _PATCHES[name]
    far = np.abs(points).max(axis=1) >= 1e299
    batch, rows = _batch_and_rows(lambda x: coulomb_surface_field(patch, sigma, x), points)
    if batch is not None:
        _assert_rows_match(batch, rows, _BATCH_ULPS[name])
        assert not batch[far].any()
    layer = DipoleSheetSpec(sigma, 0.25)
    batch, rows = _batch_and_rows(lambda x: dipole_sheet_field_exact(patch, layer, x), points)
    if batch is not None:
        # each row is the difference of two sheets' fields, each within its ulps
        shift = 0.125 * patch.constant_normal()
        sheets = [np.linalg.norm(coulomb_surface_field(patch, sigma, points + s), axis=1) for s in (shift, -shift)]
        _assert_rows_match(batch, rows, _BATCH_ULPS[name], sheets[0] + sheets[1])
        assert not batch[far].any()


@given(points=_BATCHES)
def test_dipole_mesh_field_batch_matches_one_point_at_a_time(points):
    mesh = mesh_surface(_PATCHES["rect"], 3, 4)
    layer = DipoleSheetSpec(0.7, 0.25)
    batch, rows = _batch_and_rows(lambda x: dipole_mesh_field(mesh, layer, x, UNIT), points)
    if batch is not None:
        _assert_rows_match(batch, rows, 0)
        assert not batch[np.abs(points).max(axis=1) >= 1e299].any()


def test_dipole_mesh_field_is_zero_beyond_reach():
    # the dipole sum's squares and cubes overflowed there, with a warning
    mesh = mesh_surface(PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0)), 3, 3)
    layer = DipoleSheetSpec(1.0, 1e-3)
    for x in ((1e120, 0.0, 0.0), (1e300, 0.0, 0.0)):
        assert not dipole_mesh_field(mesh, layer, x).any()
    # a point within reach keeps its value beside a far one
    near = (0.3, 0.4, 2.0)
    both = dipole_mesh_field(mesh, layer, [near, (1e300, 0.0, 0.0)])
    assert np.array_equal(both, [dipole_mesh_field(mesh, layer, near), np.zeros(3)])


@pytest.mark.parametrize("size, x", [(1e5, 1e103), (1e5, 1e104), (1e60, 1e155)])
def test_dipole_mesh_field_of_a_wide_mesh_within_reach(size, x):
    # in absolute units the cubes of these distances overflowed, and at
    # 1e155 the squares of the guard's distances as well, though that
    # field is below the float range
    mesh = mesh_surface(PlanarRect((0, 0, 0), (size, 0, 0), (0, size, 0)), 3, 3)
    layer = DipoleSheetSpec(1.0, 1.0)
    got = dipole_mesh_field(mesh, layer, (x, 0.0, 0.0))
    with mpmath.workdps(40):
        expected = [mpmath.mpf(0)] * 3
        cells = zip(mesh.cell_centers.reshape(-1, 3), mesh.cell_vector_areas.reshape(-1, 3))
        for anchor, area in cells:
            rel = [mpmath.mpf(p) - mpmath.mpf(float(a)) for p, a in zip((x, 0.0, 0.0), anchor)]
            dist = mpmath.sqrt(mpmath.fsum(r * r for r in rel))
            proj = mpmath.fsum(r * mpmath.mpf(float(m)) for r, m in zip(rel, area)) / dist
            for i in range(3):
                expected[i] += (3 * proj * rel[i] / dist - mpmath.mpf(float(area[i]))) / dist**3
        expected = np.array([float(e) for e in expected])
    assert (expected[2] != 0.0) == (x < 1e155)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _dome_mesh(m, n):
    """A curved mesh: the nodes of the unit disk's mesh lifted to
    z = 0.35 (1 - rho^2)."""
    nodes = mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, 1)), m, n).nodes.copy()
    nodes[..., 2] = 0.35 * (1.0 - nodes[..., 0] ** 2 - nodes[..., 1] ** 2)
    return SurfaceMesh(nodes)


_MESHES = {
    "rect": mesh_surface(_PATCHES["rect"], 5, 7),
    "disk": mesh_surface(_PATCHES["disk"], 8, 8),
    "dome": _dome_mesh(6, 9),
}
# points on a grid of hundredths: scaled by 2^k for |k| <= 600 they stay
# normal floats, so the scaling is exact
_GRID_POINTS = st.lists(st.lists(st.integers(-300, 300), min_size=3, max_size=3), min_size=1, max_size=4).map(
    lambda rows: np.array(rows) / 100.0
)


@pytest.mark.parametrize("name", sorted(_MESHES))
@given(points=_GRID_POINTS)
def test_dipole_mesh_field_is_the_prefactor_times_its_cells_point_dipoles(name, points):
    # the sum in the mesh's unit is the sum in absolute units, bitwise
    mesh = _MESHES[name]
    consts, layer = FieldConstants(k_E=0.8), DipoleSheetSpec(-1.3, 0.25)
    prefactor = consts.k_E * layer.separation * layer.sigma
    expected = prefactor * point_dipole_field(mesh.cell_centers, mesh.cell_vector_areas, points)
    assert np.array_equal(dipole_mesh_field(mesh, layer, points, consts), expected)
    assert np.array_equal(dipole_mesh_field(mesh, layer, points[0], consts), expected[0])


@pytest.mark.parametrize("name", sorted(_MESHES))
@given(k=st.integers(-600, 600), points=_GRID_POINTS)
def test_dipole_mesh_field_scales_exactly_by_powers_of_two(name, k, points):
    # below about 2^-510 the cell areas' squares underflowed and the field
    # read exactly zero; from about 2^530 they overflowed
    mesh, layer, scale = _MESHES[name], DipoleSheetSpec(1.0, 1e-4), 2.0**k
    unscaled = dipole_mesh_field(mesh, layer, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = dipole_mesh_field(SurfaceMesh(mesh.nodes * scale), layer, points * scale)
    assert np.array_equal(scaled, unscaled * 2.0**-k)


def test_dipole_mesh_field_of_a_tiny_disk_is_not_zero():
    # radius 2^-660: the field is 2^660 times that of the unit disk
    layer, x = DipoleSheetSpec(1.0, 1e-4), np.array([0.1, 0.2, 1.0])
    unit = dipole_mesh_field(mesh_surface(Disk((0, 0, 0), 1.0, (0, 0, 1)), 8, 8), layer, x)
    tiny = dipole_mesh_field(mesh_surface(Disk((0, 0, 0), 2.0**-660, (0, 0, 1)), 8, 8), layer, x * 2.0**-660)
    assert tiny[2] == pytest.approx(1.03e195, rel=1e-2)
    assert np.array_equal(tiny, unit * 2.0**660)


def _overflows():
    """Each prefactor's call whose result leaves the float range: the
    expected prefactor, and the call."""
    rect = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    mesh = mesh_surface(rect, 3, 3)
    near = (0.5, 0.5, 0.01)
    hopf = Circle((1, 0, 0), 1.0, (0, 1, 0))
    return {
        "biot_savart": (1e308, lambda: biot_savart(unit_circle(), (0, 0, 0), FieldConstants(k_B=1e308))),
        "coulomb_surface_field": (1e308, lambda: coulomb_surface_field(rect, 1e308, near)),
        # k_E sigma is inf already, and inf times a zero component NaN
        "dipole_sheet_field_exact": (
            math.inf,
            lambda: dipole_sheet_field_exact(rect, DipoleSheetSpec(1e308, 1e-3), near, FieldConstants(k_E=1e10)),
        ),
        "dipole_mesh_field": (1e308, lambda: dipole_mesh_field(mesh, DipoleSheetSpec(1e308, 1.0), (0.5, 0.5, 0.1))),
        "gauss_pair_integral": (1e308, lambda: gauss_pair_integral(hopf, unit_circle(), FieldConstants(k_B=1e308))),
    }


@pytest.mark.parametrize("name", list(_overflows()))
def test_a_prefactor_beyond_the_float_range_raises_a_typed_error(name):
    # each returned inf or NaN, with a numpy warning or none at all
    prefactor, call = _overflows()[name]
    with pytest.raises(PrefactorOverflow, match="^overflow: prefactor") as caught:
        call()
    assert caught.value.prefactor == prefactor


def test_one_point_in_the_guard_fails_the_whole_batch():
    points = np.array([(0.0, 0.0, 2.0), (3.0, 1.0, -1.0), (1e300, 0.0, 0.0)])
    rect, disk = _PATCHES["rect"], _PATCHES["disk"]
    layer = DipoleSheetSpec(1.0, 1e-3)
    # each field with a point within 1e-9 of its source: a dipole layer's
    # sources are its two sheets, 5e-4 off the patch
    fields_and_points = [
        (lambda x: biot_savart(_CURVES["circle"], x), _CURVES["circle"].position(0.3)),
        (lambda x: biot_savart(_CURVES["polyline"], x), _CURVES["polyline"].position(0.3)),
        (lambda x: coulomb_surface_field(rect, 1.0, x), rect.point(0.4, 0.7)),
        (lambda x: dipole_sheet_field_exact(disk, layer, x), disk.point(0.4, 0.7) + 5e-4 * disk.constant_normal()),
    ]
    for field, on_source in fields_and_points:
        assert field(points).shape == (3, 3)
        for k in range(len(points) + 1):
            with pytest.raises(NearSingular, match="field point at distance") as caught:
                field(np.insert(points, k, on_source + 1e-9 * np.array([0.0, 0.6, 0.8]), axis=0))
            # the caller's point, also for the layer, which measures two
            # shifted copies of each
            assert caught.value.point == k


def test_near_singular_names_the_first_offending_point():
    # two offending points behind one beyond reach, which the guard does
    # not measure, and one within it: the first is named by its index
    # among the caller's points
    mesh = mesh_surface(_PATCHES["rect"], 3, 4)
    centre = mesh.cell_centers[1, 2]
    rect = _PATCHES["rect"]
    layer = DipoleSheetSpec(1.0, 1e-3)
    on_sheet = rect.point(0.2, 0.9) - 5e-4 * rect.constant_normal()
    cases = [
        (lambda x: dipole_mesh_field(mesh, layer, x), centre, "mesh"),
        (lambda x: dipole_sheet_field_exact(rect, layer, x), on_sheet, "sheet"),
        (lambda x: coulomb_surface_field(rect, 1.0, x), rect.point(0.2, 0.9), "sheet"),
    ]
    for field, on_source, kind in cases:
        points = np.array([(1e300, 0.0, 0.0), (0.3, 0.2, 2.0), on_source, on_source, (2.0, 1.0, -1.0)])
        with pytest.raises(NearSingular) as caught:
            field(points)
        assert (caught.value.point, caught.value.kind) == (2, kind)
        with pytest.raises(NearSingular) as caught:
            field(on_source)
        assert caught.value.point == 0


def _shell_point(source):
    """A point on the sphere of 1e100 box diagonals about the source's box
    centre that the box test keeps within reach and whose distance is
    beyond 1e100 diagonals: rounding puts such points either side."""
    lo, hi = source.bounding_box()
    centre, diag = 0.5 * (lo + hi), bounding_box_diagonal([source])
    reach = 1e100 * diag
    for u in np.random.default_rng(3).normal(size=(200, 3)):
        for j in range(-3, 4):
            x = centre + reach * (1.0 + j * 2.0**-52) * u / np.linalg.norm(u)
            if np.hypot.reduce(x - centre) <= reach + diag and source.distance_to(x) > reach:
                return x
    raise AssertionError("no point in the shell")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_point_whose_distance_is_beyond_reach_reads_zero():
    # the box test lets the point through, and the guard's distance, from
    # the same offsets as the field, takes it out: the closed forms, which
    # overflow there, never see it
    near = np.array([0.2, 0.4, 1.1])
    cases = [
        (_CURVES["circle"], lambda x: biot_savart(_CURVES["circle"], x)),
        (_CURVES["composite"], lambda x: biot_savart(_CURVES["composite"], x)),
        (_PATCHES["rect"], lambda x: coulomb_surface_field(_PATCHES["rect"], 1.0, x)),
        (_PATCHES["disk"], lambda x: coulomb_surface_field(_PATCHES["disk"], 1.0, x)),
    ]
    for source, field in cases:
        shell = _shell_point(source)
        assert np.array_equal(field(np.array([shell, near])), [np.zeros(3), field(near)])
        assert not field(shell).any()


# the one-pass guard: each source kind, and the two-sheet layer of each
# flat patch, whose sources are its sheets
_GUARD_SOURCES = ("circle", "closed", "open", "nested", "rect", "disk", "rect_layer", "disk_layer")
_GUARD_POINTS = ("inside", "below", "above", "near", "far")


def _direction(v):
    """v over its length, which is taken in units of its largest
    component, so that no square over- or underflows."""
    v = v / np.abs(v).max()
    return v / np.linalg.norm(v)


def _leaf_point(curve):
    """A function drawing, from an rng, a point inside a segment or on a
    circle of one of the curve's leaves and a unit vector across the curve
    there: offsets along it of a few guards keep that point the nearest."""
    if isinstance(curve, CompositeCurve):
        leaves = [_leaf_point(part) for part in curve.parts]
        return lambda rng: leaves[rng.integers(len(leaves))](rng)
    if isinstance(curve, Circle):
        def on_circle(rng):
            t, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
            q = curve.position(t)
            radial = _direction(q - curve.center)
            return q, math.cos(psi) * radial + math.sin(psi) * curve.unit_axis
        return on_circle
    starts, ends = curve.segments()

    def on_segment(rng):
        j = rng.integers(len(starts))
        q = starts[j] + rng.uniform(0.3, 0.7) * (ends[j] - starts[j])
        return q, _direction(np.cross(_direction(ends[j] - starts[j]), rng.normal(size=3)))
    return on_segment


def _guard_case(name, seed, k):
    """The named source of _GUARD_SOURCES at about 2^k, turned and moved
    by a seeded rigid motion, as (source, field, closed form, prefactor,
    sheet shift, on source).

    field takes (n, 3) or (3,) points; the closed form, without the
    prefactor, takes the rows that the source is measured from: the points
    themselves, or for a layer x -/+ the shift, side by side (the shift is
    None for the rest).  on source draws, from an rng, a point on a
    source and a unit vector across it there."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rot) < 0.0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.uniform(-0.5, 0.5, 3)

    def move(p):
        return np.ldexp(np.asarray(p, dtype=float) @ rot.T + shift, k)

    verts = rng.normal(size=(5, 3))
    circle = Circle(move(rng.normal(size=3)), math.ldexp(rng.uniform(0.5, 1.5), k), rot @ rng.normal(size=3),
                    rng.choice(["ccw", "cw"]))
    kind, _, layer = name.partition("_")
    if kind not in ("rect", "disk"):
        curve = {
            "circle": circle,
            "closed": PolyLine(move(verts), closed=True),
            "open": PolyLine(move(verts[:3])),
            "nested": CompositeCurve([circle, CompositeCurve([PolyLine(move(verts[:3])), circle.reversed()])]),
        }[kind]
        k_b = FieldConstants().k_B
        return curve, lambda x: biot_savart(curve, x), lambda rows: curve_field(curve, rows), k_b, None, \
            _leaf_point(curve)
    if kind == "rect":
        patch = PlanarRect(move(rng.normal(size=3)), rot @ np.ldexp(rng.normal(size=3), k),
                           rot @ np.ldexp(rng.normal(size=3), k))
        closed_form = functools.partial(polygon_sheet_field, patch.rim().vertices)
    else:
        patch = Disk(move(rng.normal(size=3)), math.ldexp(rng.uniform(0.5, 1.5), k), rot @ rng.normal(size=3))
        closed_form = functools.partial(disk_sheet_field, patch.rim())
    normal = patch.constant_normal()

    def on_patch(rng):
        return patch.point(*rng.uniform(0.2, 0.8, 2)), normal

    sigma = float(rng.uniform(-2.0, 2.0))
    if not layer:
        return patch, lambda x: coulomb_surface_field(patch, sigma, x), closed_form, sigma, None, on_patch
    dp = DipoleSheetSpec(sigma, 1e-3 * bounding_box_diagonal([patch]))
    sheet = 0.5 * dp.separation * normal

    def on_sheet(rng):
        # the sheet at +s n seen from x is the patch seen from x - s n
        q, n = on_patch(rng)
        return q + rng.choice([-1.0, 1.0]) * sheet, n

    return patch, lambda x: dipole_sheet_field_exact(patch, dp, x), closed_form, sigma, sheet, on_sheet


def _guard_point(source, on_source, kind, rng):
    """A point of a kind of _GUARD_POINTS for the source's guard: within
    it, at (1 -/+ 1e-9) times it, 1e-5 to 1 box diagonals from a source,
    or beyond 1e100 of them."""
    diag = bounding_box_diagonal([source])
    guard = QuadratureSpec().resolve_guard(diag)
    if kind == "far":
        # by a margin on which the box test and the distances agree
        lo, hi = source.bounding_box()
        return 0.5 * (lo + hi) + 10.0 ** rng.uniform(100.2, 101.5) * diag * _direction(rng.normal(size=3))
    q, across = on_source(rng)
    height = {
        "inside": rng.uniform(0.0, 1.0) * guard,
        "below": (1.0 - 1e-9) * guard,
        "above": (1.0 + 1e-9) * guard,
        "near": 10.0 ** rng.uniform(-5.0, 0.0) * diag,
    }[kind]
    return q + height * across


@pytest.mark.parametrize("name", _GUARD_SOURCES)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-600, 600),
    kinds=st.lists(st.sampled_from(_GUARD_POINTS), min_size=1, max_size=6),
)
def test_the_one_pass_guard_keeps_the_distance_rule(name, seed, k, kinds):
    # the guard takes its distances from the offsets that the field is
    # summed from: NearSingular exactly when distance_to finds a point
    # within the guard, with distance_to's distance of the first such point
    # bit for bit; otherwise the prefactor times the public closed form,
    # zero beyond 1e100 diagonals, and n points at once give the bits of n
    # calls of one point (to the few ulps of the AGM for circles and disks)
    source, field, closed_form, prefactor, sheet, on_source = _guard_case(name, seed, k)
    rng = np.random.default_rng(seed)
    points = np.array([_guard_point(source, on_source, kind, rng) for kind in kinds])
    # the rows the guard measures: the points, or each one's two copies
    seen = points if sheet is None else np.stack((points - sheet, points + sheet), axis=1).reshape(-1, 3)
    copies = len(seen) // len(points)
    diag = bounding_box_diagonal([source])
    guard = QuadratureSpec().resolve_guard(diag)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = source.distance_to(seen)
        if dist.min() <= guard:
            first = int((dist <= guard).argmax())
            with pytest.raises(NearSingular) as caught:
                field(points)
            assert caught.value.distance == dist[first]
            assert caught.value.point == first // copies
            return
        # the closed form at the rows within reach, among zeros; a layer
        # takes its prefactor after the difference of its sheets
        far = dist > 1e100 * diag
        rows = np.zeros(seen.shape)
        if not far.all():
            rows[~far] = closed_form(seen[~far])
        if sheet is None:
            rows[~far] = fields.prefactor_times(prefactor, rows[~far])
            expected, size = rows, np.abs(rows).max(axis=1)
        else:
            sheets = rows.reshape(-1, 2, 3)
            expected = fields.prefactor_times(prefactor, sheets[:, 0] - sheets[:, 1])
            size = abs(prefactor) * np.abs(sheets).max(axis=(1, 2))
        batch = field(points)
        singles = np.array([field(x) for x in points])
        assert batch.tobytes() == expected.tobytes()
        if name in ("closed", "open", "rect", "rect_layer"):
            assert singles.tobytes() == batch.tobytes()
        else:
            # each component within 4 ulps of the largest it is summed from
            assert np.all(np.abs(batch - singles).max(axis=1) <= 4.0 * _EPS * size)


# ---------------------------------------------------------------------------
# Differential probe
# ---------------------------------------------------------------------------


def test_probe_linear_rotation_field():
    def rotation(p):
        return np.stack((-p[:, 1], p[:, 0], np.zeros(len(p))), axis=1)

    curl, div = differential_probe(rotation, (0.3, 0.7, -0.2), 1e-3)
    assert np.allclose(curl, [0, 0, 2.0], atol=1e-9)
    assert abs(div) <= 1e-9


def test_probe_radial_field():
    curl, div = differential_probe(lambda p: np.asarray(p, dtype=float), (1.0, -2.0, 0.5), 1e-3)
    assert abs(div - 3.0) <= 1e-9
    assert np.linalg.norm(curl) <= 1e-9


def test_probe_loop_field_is_curl_free():
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    curl, _ = differential_probe(
        lambda p: biot_savart(unit_circle(), p, FieldConstants(), spec), (0, 0, 1.5), 1e-3
    )
    assert np.linalg.norm(curl) <= 1e-5


# ---------------------------------------------------------------------------
# Algebraic identity and Taylor probe
# ---------------------------------------------------------------------------


def test_identity_standard_basis_case():
    r = np.array([0.48, 0.6, 0.64])  # unit by construction
    lhs, rhs = cross_projection_identity((1, 0, 0), (0, 1, 0), r)
    expected = np.array([r[2] * r[0], r[2] * r[1], r[2] ** 2])
    assert np.allclose(lhs, expected, atol=1e-15)
    assert np.allclose(rhs, expected, atol=1e-15)


def test_identity_degenerate_equal_vectors():
    lhs, rhs = cross_projection_identity((1, 2, 3), (1, 2, 3), (1, 0, 0))
    assert np.allclose(lhs, 0.0) and np.allclose(rhs, 0.0)


def test_identity_random_triples():
    rng = np.random.default_rng(123)
    for _ in range(2000):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        lhs, rhs = cross_projection_identity(a, b, r)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


def test_identity_rejects_non_unit():
    with pytest.raises(NotUnit):
        cross_projection_identity((1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_taylor_probe_aligned():
    slopes, analytic = taylor_probe((1, 0, 0), (1, 0, 0), [1e-4])
    assert analytic == -3.0
    assert abs(slopes[0] - analytic) <= 1e-3


def test_taylor_probe_perpendicular():
    slopes, analytic = taylor_probe((1, 0, 0), (0, 1, 0), [0.02, 0.01, 0.005])
    assert analytic == 0.0
    mags = [abs(s) for s in slopes]
    assert mags[0] > mags[1] > mags[2]
    assert mags[1] / mags[2] == pytest.approx(2.0, abs=0.1)


def test_taylor_probe_halving_ratio():
    eps = [0.02, 0.01, 0.005, 0.0025]
    slopes, analytic = taylor_probe((1.3, -0.4, 0.7), (0.5, 1.1, -0.2), eps)
    errs = [abs(s - analytic) for s in slopes]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_taylor_probe_preconditions():
    with pytest.raises(DegenerateBase):
        taylor_probe((0, 0, 0), (1, 0, 0), [1e-3])
    with pytest.raises(ValueError):
        taylor_probe((1, 0, 0), (1, 0, 0), [0.6])
    with pytest.raises(ValueError):
        taylor_probe((1, 0, 0), (1, 0, 0), [0.0])
