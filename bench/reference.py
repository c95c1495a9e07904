"""Closed-form reference values, computed apart from loopfield.

Every answer the benchmark checks is compared with a value from this
module or with a property the method must have; nothing here imports the
package under test.  All functions take plain numpy arrays.

* complete elliptic integrals K(m), E(m) by the arithmetic-geometric mean;
* the field of a circular loop from K and E;
* the field of a straight segment (Hanson & Hirshman 2002, Phys. Plasmas
  9, 4410), summed over the edges of a closed polygon;
* the field of a uniformly charged rectangle, and the on-axis field of a
  uniformly charged disk;
* the Gauss integral of the z-axis leg of height 2n against the unit
  circle, n / sqrt(1 + n^2).

Field prefactors follow loopfield's conventions: B = k_B * integral of
dl x (x - r) / |x - r|^3 and E = k_E * sigma * integral of
(x - p) / |x - p|^3 dA.
"""

from __future__ import annotations

import math

import numpy as np

_AGM_STEPS = 40


def ellip_ke(m):
    """Complete elliptic integrals (K(m), E(m)) for parameter m = k^2 < 1.

    Uses the arithmetic-geometric mean: K = pi / (2 AGM(1, sqrt(1 - m)))
    and E = K (1 - sum_n 2^(n-1) c_n^2) with c_0^2 = m.
    """
    m = np.asarray(m, dtype=float)
    if np.any((m < 0.0) | (m >= 1.0)):
        raise ValueError("elliptic parameter must lie in [0, 1)")
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    total = 0.5 * m  # 2^-1 c_0^2
    weight = 0.5
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        total = total + weight * c * c
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - total)


def _frame(axis):
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.6 else np.array([0.0, 1.0, 0.0])
    u = helper - a * (helper @ a)
    u /= np.linalg.norm(u)
    return u, np.cross(a, u), a


def circle_field(center, radius, axis, x, k_b, sign=1.0):
    """Field of a circular current loop, counterclockwise about `axis`.

    sign=-1 reverses the current.  Valid at every point off the loop;
    on the axis the radial part vanishes.
    """
    u, _, a = _frame(axis)
    rel = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    z = float(rel @ a)
    radial = rel - z * a
    rho = float(np.linalg.norm(radial))
    r = float(radius)
    big = (r + rho) ** 2 + z * z
    small = (r - rho) ** 2 + z * z
    kk, ee = ellip_ke(4.0 * r * rho / big)
    kk, ee = float(kk), float(ee)
    root = math.sqrt(big)
    b_z = 2.0 * k_b / root * (kk + (r * r - rho * rho - z * z) / small * ee)
    if rho == 0.0:
        b_rho = 0.0
        rho_hat = u
    else:
        b_rho = 2.0 * k_b * z / (rho * root) * (-kk + (r * r + rho * rho + z * z) / small * ee)
        rho_hat = radial / rho
    return sign * (b_z * a + b_rho * rho_hat)


def segment_field(start, end, x, k_b):
    """Field of a straight current segment from `start` to `end` at x.

    Hanson & Hirshman's form 2 L (R_i + R_f) / (R_i R_f ((R_i + R_f)^2 - L^2))
    times e x R_i.  The difference (R_i + R_f)^2 - L^2 is factored so that
    it stays accurate near the segment's line and for long segments.
    """
    start = np.asarray(start, dtype=float)
    chord = np.asarray(end, dtype=float) - start
    length = np.linalg.norm(chord, axis=-1)[..., None]
    e = chord / length
    r_i = np.asarray(x, dtype=float) - start
    r_f = r_i - chord
    ri = np.linalg.norm(r_i, axis=-1)[..., None]
    rf = np.linalg.norm(r_f, axis=-1)[..., None]
    # (R_i + R_f)^2 - L^2 = (R_i + R_f - L)(R_i + R_f + L), with
    # R_i + R_f - L = (R_i - R_i.e) + (R_f + R_f.e) summed without cancellation
    d2 = np.sum(np.cross(e, r_i) ** 2, axis=-1)[..., None]
    p_i = np.sum(r_i * e, axis=-1)[..., None]
    p_f = np.sum(r_f * e, axis=-1)[..., None]
    gap_i = np.where(p_i > 0.0, d2 / (ri + np.abs(p_i)), ri - p_i)
    gap_f = np.where(p_f < 0.0, d2 / (rf + np.abs(p_f)), rf + p_f)
    s = ri + rf
    scale = 2.0 * length * s / (ri * rf * (gap_i + gap_f) * (s + length))
    return k_b * scale * np.cross(e, r_i)


def polygon_field(vertices, x, k_b):
    """Field of a closed polygon carrying current in vertex order."""
    verts = np.asarray(vertices, dtype=float)
    return segment_field(verts, np.roll(verts, -1, axis=0), x, k_b).sum(axis=0)


def rectangle_field(corner, edge_a, edge_b, x, sigma, k_e):
    """Field of a uniformly charged rectangle (edge_a orthogonal to edge_b).

    In the rectangle's frame each component is a sum over its corners:
    asinh terms for the in-plane parts and atan terms for the normal part.
    The point must lie off the rectangle's plane.
    """
    edge_a = np.asarray(edge_a, dtype=float)
    edge_b = np.asarray(edge_b, dtype=float)
    la, lb = float(np.linalg.norm(edge_a)), float(np.linalg.norm(edge_b))
    ea, eb = edge_a / la, edge_b / lb
    if abs(float(ea @ eb)) > 1e-12:
        raise ValueError("rectangle edges must be orthogonal")
    n = np.cross(ea, eb)
    rel = np.asarray(x, dtype=float) - np.asarray(corner, dtype=float)
    px, py, z = float(rel @ ea), float(rel @ eb), float(rel @ n)
    if z == 0.0:
        raise ValueError("point lies in the rectangle's plane")
    xs = (-px, la - px)  # source offsets X = x' - x at the two x-edges
    ys = (-py, lb - py)
    ex = ey = ez = 0.0
    for i, xx in enumerate(xs):
        for j, yy in enumerate(ys):
            sgn = 1.0 if i == j else -1.0
            r = math.sqrt(xx * xx + yy * yy + z * z)
            ez += sgn * math.atan(xx * yy / (z * r))
    for i, xx in enumerate(xs):
        c = math.hypot(xx, z)
        ex += (1.0 if i else -1.0) * (math.asinh(ys[1] / c) - math.asinh(ys[0] / c))
    for j, yy in enumerate(ys):
        c = math.hypot(yy, z)
        ey += (1.0 if j else -1.0) * (math.asinh(xs[1] / c) - math.asinh(xs[0] / c))
    return k_e * sigma * (ex * ea + ey * eb + ez * n)


def disk_axis_field(radius, z, sigma, k_e):
    """Normal field of a uniformly charged disk at height z on its axis."""
    z = float(z)
    if z == 0.0:
        raise ValueError("point lies on the disk")
    return 2.0 * math.pi * k_e * sigma * math.copysign(1.0, z) * (
        1.0 - abs(z) / math.sqrt(z * z + float(radius) ** 2)
    )


def axis_leg(n):
    """Gauss integral of the leg (0,0,-n) -> (0,0,n) against the unit circle."""
    n = float(n)
    return n / math.sqrt(1.0 + n * n)
