"""Fast checks of the benchmark's closed-form references against
textbook values and brute-force numerics."""

import math

import numpy as np
import pytest

import calibration
import reference as ref

K_B = 1.0 / (4.0 * math.pi)


def _gl(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _loop_field_numeric(points, tangents, weights, x, k_b):
    rel = x - points
    return k_b * np.sum(
        weights[:, None] * np.cross(tangents, rel) / np.linalg.norm(rel, axis=1)[:, None] ** 3,
        axis=0,
    )


def test_elliptic_textbook_values():
    k, e = ref.ellip_ke(0.0)
    assert k == pytest.approx(math.pi / 2, rel=1e-15)
    assert e == pytest.approx(math.pi / 2, rel=1e-15)
    k, e = ref.ellip_ke(0.5)
    assert k == pytest.approx(1.8540746773013719, rel=1e-14)
    assert e == pytest.approx(1.3506438810476755, rel=1e-14)
    k, e = ref.ellip_ke(1.0 - 2.0**-40)  # K ~ ln(4 / k'), E ~ 1 as m -> 1
    assert e == pytest.approx(1.0, abs=1e-10)
    assert k == pytest.approx(math.log(4.0 * 2.0**20), rel=1e-10)
    with pytest.raises(ValueError):
        ref.ellip_ke(1.0)


def test_circle_on_axis_matches_textbook():
    for radius, z in ((1.0, 0.0), (1.0, 0.7), (2.5, -1.3)):
        b = ref.circle_field((0, 0, 0), radius, (0, 0, 1), (0, 0, z), K_B)
        expected = radius**2 / (2.0 * (radius**2 + z * z) ** 1.5)
        assert b == pytest.approx([0.0, 0.0, expected], abs=1e-15)


def test_circle_off_axis_matches_quadrature_and_orientation():
    center = np.array([0.3, -0.2, 0.5])
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    u, v, a = ref._frame(axis)
    t, w = _gl(400, 0.0, 2.0 * math.pi)
    pts = center + 1.4 * (np.outer(np.cos(t), u) + np.outer(np.sin(t), v))
    tans = 1.4 * (np.outer(-np.sin(t), u) + np.outer(np.cos(t), v))
    for x in ((1.2, 0.4, -0.3), (0.0, 0.0, 2.0), (2.1, -0.9, 1.1)):
        numeric = _loop_field_numeric(pts, tans, w, np.array(x), K_B)
        exact = ref.circle_field(center, 1.4, axis, x, K_B)
        assert np.allclose(exact, numeric, rtol=1e-11, atol=1e-14)
        assert np.allclose(ref.circle_field(center, 1.4, axis, x, K_B, sign=-1.0), -exact)


def test_segment_matches_quadrature_and_infinite_wire():
    start, end = np.array([0.1, 0.2, -0.4]), np.array([0.9, -0.3, 0.8])
    s, w = _gl(200, 0.0, 1.0)
    pts = start + np.outer(s, end - start)
    tans = np.broadcast_to(end - start, pts.shape)
    for x in ((1.0, 1.0, 1.0), (0.5, 0.5, 0.0), (-0.2, 0.1, 0.3)):
        numeric = _loop_field_numeric(pts, tans, w, np.array(x), K_B)
        assert np.allclose(ref.segment_field(start, end, x, K_B), numeric, rtol=1e-11)
    wire = ref.segment_field((0, 0, -1e6), (0, 0, 1e6), (0.25, 0, 0), K_B)
    assert wire == pytest.approx([0.0, 2.0 * K_B / 0.25, 0.0], rel=1e-9)


def test_square_polygon_center_field():
    side = 2.0
    square = [(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)]
    b = ref.polygon_field(square, (0, 0, 0), K_B)
    # four segments at distance side/2, each 2 k_B sqrt(2) / (side/2)
    expected = 4.0 * K_B * math.sqrt(2.0) / (side / 2.0)
    assert b == pytest.approx([0.0, 0.0, expected], rel=1e-14)


def test_rectangle_matches_quadrature_and_plane_limit():
    corner = np.array([0.2, -0.1, 0.3])
    ea = np.array([1.0, 2.0, 2.0]) / 3.0
    eb = np.array([2.0, 1.0, -2.0]) / 3.0
    n = np.cross(ea, eb)
    la, lb = 1.3, 0.7
    u, wu = _gl(120, 0.0, la)
    v, wv = _gl(120, 0.0, lb)
    pts = corner + u[:, None, None] * ea + v[None, :, None] * eb
    weights = wu[:, None] * wv[None, :]
    for local in ((0.4, 0.3, 0.5), (-0.5, 1.2, -0.8), (1.0, 0.1, 0.9)):
        x = corner + local[0] * ea + local[1] * eb + local[2] * n
        rel = x - pts
        numeric = np.einsum(
            "ij,ijk->k", weights, rel / np.linalg.norm(rel, axis=-1)[..., None] ** 3
        )
        exact = ref.rectangle_field(corner, la * ea, lb * eb, x, 1.0, 1.0)
        assert np.allclose(exact, numeric, rtol=1e-9, atol=1e-12)
    big = ref.rectangle_field((-1e4, -1e4, 0), (2e4, 0, 0), (0, 2e4, 0), (0, 0, 1e-3), 2.0, 1.0)
    assert big == pytest.approx([0.0, 0.0, 4.0 * math.pi], rel=1e-6, abs=1e-9)
    with pytest.raises(ValueError):
        ref.rectangle_field(corner, ea, ea + eb, corner + n, 1.0, 1.0)


def test_disk_axis_and_axis_leg():
    assert ref.disk_axis_field(1.0, 1e-12, 1.0, 1.0) == pytest.approx(2.0 * math.pi)
    assert ref.disk_axis_field(1.0, -1.0, 1.0, 1.0) == pytest.approx(
        -2.0 * math.pi * (1.0 - 1.0 / math.sqrt(2.0))
    )
    far = ref.disk_axis_field(1.0, 1e3, 1.0, 1.0)
    assert far == pytest.approx(math.pi / 1e6, rel=1e-5)  # point charge pi sigma R^2 / z^2
    assert ref.axis_leg(1.0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert ref.axis_leg(1e8) == pytest.approx(1.0)


def test_calibration_kernel_is_the_hopf_linking_number():
    # a fixed 16-cell product rule, not adaptive: about 1e-6 from -1
    assert calibration.kernel() == pytest.approx(-1.0, abs=1e-5)
