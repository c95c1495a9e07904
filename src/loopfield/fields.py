"""Static field formulas: Biot-Savart, Coulomb sheets, and dipole layers.

Sign convention: the magnetic field of an oriented curve is

    B(x) = k_B * integral of  dl x (x - r) / |x - r|^3

taken along the curve, i.e. the field circulates right-handedly around
the current direction.  With k_B = 1/(4*pi) the circulation of B around
a loop equals the (signed) number of times the loop links the curve.

Electric fields use E = k_E * integral of sigma * (x - p) / |x - p|^3.
Both prefactors are explicit because the dipole/loop similitude is
stated with k_E = k_B = 1 while linking experiments want k_B = 1/(4*pi).

Straight segments, circles, flat polygon and disk sheets and point
dipoles have closed forms (segment_field, circle_field,
polygon_sheet_field, disk_sheet_field, point_dipole_field).  curve_field
sums the closed forms of a curve's PolyLine and Circle leaves, for
biot_savart and the Gauss integrals of linking alike,
coulomb_surface_field uses the polygon's or the disk's for a flat patch,
by its rim, and dipole_mesh_field the dipoles' for a mesh's cells, which
may span a curved surface.  The two-sheet dipole layer of a flat patch
is its sheet field seen from x -/+ (separation / 2) n.  biot_savart,
coulomb_surface_field, dipole_sheet_field_exact and dipole_mesh_field
take one (3,) point or (n, 3) points and measure them against the source
once, by one guard (_guarded): the source's offsets of the points
(Curve.offsets, SurfaceMesh.offsets), in its power-of-two unit, give
both the guard's distances and the closed form or dipole sum.  The
source-only half of each (a PolyLine's scaled segments, a polygon's
plane, a circle's frame, a mesh's cells) is kept with the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateBase, NearSingular, NotUnit, PrefactorOverflow
from .geometry import (
    Circle,
    CompositeCurve,
    Curve,
    PolyLine,
    ScaledSegments,
    SurfaceMesh,
    SurfacePatch,
    as_points,
    as_vec3,
    cross,
    scale_segments,
)
# integrate_1d and integrate_2d are not called here, but bench/spans.py
# wraps both under this module's name
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d  # noqa: F401

__all__ = [
    "FieldConstants",
    "DipoleSheetSpec",
    "segment_field",
    "circle_field",
    "curve_field",
    "polygon_sheet_field",
    "disk_sheet_field",
    "point_dipole_field",
    "biot_savart",
    "coulomb_surface_field",
    "dipole_sheet_field_exact",
    "dipole_mesh_field",
    "differential_probe",
    "cross_projection_identity",
    "taylor_probe",
]


@dataclass(frozen=True)
class FieldConstants:
    """Explicit field prefactors."""

    k_E: float = 1.0
    k_B: float = 1.0 / (4.0 * math.pi)

    def __post_init__(self):
        for name, value in (("k_E", self.k_E), ("k_B", self.k_B)):
            if not math.isfinite(value) or value == 0.0:
                raise ValueError(f"{name} must be finite and nonzero, got {value}")


@dataclass(frozen=True)
class DipoleSheetSpec:
    """Double layer: charge density +/- sigma on sheets separated by h."""

    sigma: float
    separation: float

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if not math.isfinite(self.separation) or self.separation < 0.0:
            raise ValueError("separation must be finite and >= 0")


# this many bounding-box diagonals from a source its field is below 1e-200
# of the field beside it; zero stands in for it from there on.  The closed
# forms work in units of the source's size, so a source of any size is
# fine, but they give out sooner for far points: circle_field's
# rho * rho * small and segment_field's n1 * n2 * rho2 overflow from about
# 1e77 source sizes away.  Between there and _FAR numpy's default error
# state prints a RuntimeWarning on stderr and the in-plane components read
# 0, while under np.errstate(over="raise"), as the CLI runs, the overflow
# raises FloatingPointError (ROADMAP.md, "Closed forms that hold far from
# their source")
_FAR = 1e100


def prefactor_times(prefactor: float, value):
    """prefactor * value, of a finite float or array value; raises
    PrefactorOverflow, which names the prefactor, when the product is not
    finite."""
    size = abs(prefactor)
    # rounding is monotone: a prefactor of size at most 1 keeps a finite
    # value finite, and a larger one makes no product bigger than the
    # largest |value|'s, so that one decides; a NaN prefactor fails both
    if not (size <= 1.0 or math.isfinite(size * float(np.abs(value).max(initial=0.0)))):
        raise PrefactorOverflow(f"overflow: prefactor {prefactor:g} takes the result beyond the float range",
                                prefactor=prefactor)
    return prefactor * value


def _guarded(source, field, points, guard: float, what: str) -> np.ndarray:
    """field(offsets) at the (n, 3) points, from the source's offsets of
    them (Curve.offsets, SurfaceMesh.offsets), zero at those beyond _FAR
    source sizes, which field never sees; raises NearSingular if any point
    lies within the guard distance of the source, naming the first.

    The points are measured against the source once: the guard's
    distances come from the same offsets as the field, by the source's
    distance_from, so they are bitwise its distance_to."""
    centre, scale = source.reach
    # every point of the source lies within scale / 2 of its box's centre:
    # a point this far from it is beyond reach and outside the guard,
    # decided before the offsets, whose squares overflow
    off = points - centre
    far = np.hypot.reduce(off, axis=1) > max(guard, _FAR * scale) + scale
    # with no point far, a slice: a view of the points, not a copy
    near = ~far if far.any() else slice(None)
    offsets = source.offsets(points[near])
    dist = source.distance_from(offsets)
    if dist.min(initial=math.inf) <= guard:
        first = int((dist <= guard).argmax())
        raise NearSingular(
            f"field point at distance {dist[first]:g} from the {what} (guard {guard:g})",
            distance=float(dist[first]),
            guard=guard,
            kind=what,
            point=int(np.arange(len(points))[near][first]),
        )
    beyond = dist > _FAR * scale
    if beyond.any():
        far[near] = beyond
        offsets = _rows(offsets, ~beyond)
    if not far.any():
        return field(offsets)
    out = np.zeros((len(far), 3))
    if not far.all():
        out[~far] = field(offsets)
    return out


def _rows(offsets, keep):
    """The rows keep of a source's offsets: an array, or a tuple of arrays
    or of such tuples, each with one row per point."""
    if isinstance(offsets, tuple):
        return tuple(_rows(o, keep) for o in offsets)
    return offsets[keep]


def _as_rows(points) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, 3)


def segment_field(starts, ends, points) -> np.ndarray:
    """Closed-form field of straight segments, without the prefactor k_B.

    Returns the (p, 3) sums over the k segments start -> end of

        integral of  d x (x - r) / |x - r|^3 dl = (d x R1) * I

    at each of the p points x, with d the unit direction, R_i = x - r_i
    and, for the signed positions t_i = d . (r_i - x) of the ends along
    the segment's line, L = t2 - t1 and rho = |d x R1|,

        I = (t2 |R1| - t1 |R2|) / (|R1| |R2| rho^2)             foot inside
        I = L (t1 + t2) / (|R1| |R2| (t2 |R1| + t1 |R2|))      otherwise

    (Hanson & Hirshman 2002).  Each branch adds terms of one sign only,
    so neither cancels near the wire or on its extended line, where the
    textbook |R1| |R2| + R1 . R2 does.  The denominators multiply four
    lengths, so the sums are taken in units of a power of two near the
    segments' size (scale_segments): exactly, and with no over- or
    underflow at any size.  Points must not lie on a segment.
    """
    segments = scale_segments(starts, ends)
    return _segments_at(segments, segments.offsets(_as_rows(points)))


def _segments_at(segments: ScaledSegments, offsets) -> np.ndarray:
    """segment_field from the segments in their unit and the points'
    offsets from them (ScaledSegments.offsets)."""
    x, r1 = offsets
    length, d = segments.lengths, segments.dirs
    r2 = x - segments.ends
    n1 = np.sqrt(np.einsum("pij,pij->pi", r1, r1))
    n2 = np.sqrt(np.einsum("pij,pij->pi", r2, r2))
    t1, t2 = -np.einsum("pij,ij->pi", r1, d), -np.einsum("pij,ij->pi", r2, d)
    perp = cross(d, r1)
    rho2 = np.einsum("pij,pij->pi", perp, perp)
    inside = (t1 < 0.0) & (t2 > 0.0)
    num = np.where(inside, t2 * n1 - t1 * n2, length * (t1 + t2))
    den = n1 * n2 * np.where(inside, rho2, t2 * n1 + t1 * n2)
    return np.einsum("pij,pi->pj", perp, num / den) / segments.unit


# c_n <= sqrt(eps) a_n: the next AGM step moves a_n by under eps a_n / 4,
# and the next term of T by under eps / 8 of the last one
_AGM_TOL = math.sqrt(float(np.finfo(float).eps))


class _Ring(NamedTuple):
    """A circle seen from p points, in the circle's unit: its axial split
    of x - centre (Circle.offsets: z, radial, rho), the radius r,
    A = (r + rho)^2 + z^2, Q = (r - rho)^2 + z^2, m = 4 r rho / A,
    k_c = sqrt(Q / A), K and T of the AGM of 1 and k_c (see
    circle_field), and the AGM's (a_n, b_n, c_n) from n = 1 on."""

    z: np.ndarray
    radial: np.ndarray
    rho: np.ndarray
    r: float
    big: np.ndarray
    small: np.ndarray
    m: np.ndarray
    kc: np.ndarray
    k: np.ndarray
    t: np.ndarray
    agm: list


def _ring(circle: Circle, offsets) -> _Ring:
    """The circle's axial frame and complete elliptic integrals at the
    points, from the circle's offsets of them.

    Dividing lengths by a power of two is exact, and keeps A and Q,
    squares of lengths, from over- or underflowing at any radius.  The AGM
    runs until c_n <= sqrt(eps) a_n at every point.  Raises ValueError for
    a point on the circle, where the AGM of 1 and 0 never converges.
    """
    z, radial, rho = offsets
    r = circle.radius / circle.unit
    big = (r + rho) ** 2 + z * z
    small = (r - rho) ** 2 + z * z
    if not (small > 0.0).all():
        raise ValueError("points must not lie on the circle")
    m = 4.0 * r * rho / big
    kc = np.sqrt(small / big)
    # a_1, b_1 and c_1 = (1 - k_c) / 2, written without the cancelling difference
    a, b, c = 0.5 * (1.0 + kc), np.sqrt(kc), m / (2.0 * (1.0 + kc))
    t, weight, agm = c * c, 1.0, [(a, b, c)]
    while (c > _AGM_TOL * a).any():
        total = a + b
        a, b, c = 0.5 * total, np.sqrt(a * b), c * c / (2.0 * total)
        weight *= 2.0
        t = t + weight * c * c
        agm.append((a, b, c))
    return _Ring(z, radial, rho, r, big, small, m, kc, 0.5 * math.pi / a, t, agm)


def circle_field(circle: Circle, points) -> np.ndarray:
    """Closed-form field of a circle, without the prefactor k_B.

    Returns the (p, 3) values of  closed integral of  dl x (x - r) / |x - r|^3
    at the p points x.  In the circle's frame (radius R, axial height z,
    distance rho from the axis, A = (R + rho)^2 + z^2, Q = (R - rho)^2 + z^2,
    m = 4 R rho / A, k_c^2 = Q / A), with T = sum over n >= 1 of
    2^(n-1) c_n^2 from the arithmetic-geometric mean of 1 and k_c
    (a_0 = 1, b_0 = k_c, c_(n+1) = c_n^2 / (4 a_(n+1))), K = pi / (2 a_inf)
    and E = K (1 - m/2 - T),

        B_rho = 2 z sqrt(A) K (m^2/4 - (1 - m/2) T) / (rho Q)
        B_z   = 2 K (2 R^2 (R^2 - rho^2 + z^2) / A - (R^2 - rho^2 - z^2) T) / (sqrt(A) Q)

    for the counterclockwise circle about its axis; "cw" negates both.
    These are the textbook K, E forms with -K + c E and K + c_z E
    rearranged so that T carries the parts that cancel: near the axis and
    far away, where m is small, the textbook forms lose digits like 1/m^2,
    and here no step loses more than a small factor.  k_c^2 comes from Q
    itself, never from 1 - m, so the AGM keeps its digits beside the wire.
    B is evaluated in units of a power of two near R (_ring) and scaled
    back by 1 / length: exactly, and with no over- or underflow at any
    size.  Raises ValueError for a point on the circle.
    """
    return _circle_at(circle, circle.offsets(_as_rows(points)))


def _circle_at(circle: Circle, offsets) -> np.ndarray:
    """circle_field from the circle's offsets of the points."""
    ring = _ring(circle, offsets)
    r, rho, z, m, k, t = ring.r, ring.rho, ring.z, ring.m, ring.k, ring.t
    big, small = ring.big, ring.small
    root = np.sqrt(big)
    g = k * (0.25 * m * m - (1.0 - 0.5 * m) * t)
    b_rho_over_rho = np.divide(
        2.0 * z * root * g, rho * rho * small, out=np.zeros_like(rho), where=rho > 0.0
    )
    square_gap = (r - rho) * (r + rho)
    b_z = 2.0 * k * (2.0 * r * r * (square_gap + z * z) / big - (square_gap - z * z) * t) / (
        root * small
    )
    sign = 1.0 if circle.orientation == "ccw" else -1.0
    return sign / circle.unit * (b_rho_over_rho[:, None] * ring.radial + b_z[:, None] * circle.unit_axis)


def _cel_excess(ring: _Ring, sigma, one_plus) -> np.ndarray:
    """(cel(k_c, s^2, 1, s) - cel(1, s^2, 1, s)) / (pi / 2) for
    s = sigma = (R - rho) / (R + rho), along the ring's AGM, given
    1 + s = 2 R / (R + rho).

    cel(k_c, p, a, b) is the integral over [0, pi/2] of
    (a cos^2 + b sin^2) / ((cos^2 + p sin^2) sqrt(cos^2 + k_c^2 sin^2)),
    so (1 + s) cel(k_c, s^2, 1, s) = K + s Pi(1 - s^2).  Bulirsch's Gauss
    transformations (Numer. Math. 13, 305, 1969) carry (a, b, p) along
    the AGM, M_n = 2^n a_n and Q_n = 2^n b_n, and keep cel unchanged:

        a <- a + b / p,  b <- 2 (b + a Q M / p),  p <- p + Q M / p.

    His last step evaluates the k_c = 1 form (pi/2) (a M + b) / (M (M + p)),
    whose terms nearly cancel far from the disk.  Here the change of that
    form over each step,

        (pi/2) (M - Q) (b (p + M + Q) + a Q M) / (M (M + p) (M + Q) (p + Q)),

    is summed instead, with M_n - Q_n = 2^(n+1) c_(n+1) from the AGM, and
    the first term and step are in closed form.  a, b and p are carried
    times |s|, which starts them at a = sign(s) (1 + s), b = 2 (k_c + s),
    p = k_c + s^2, so nothing divides by s; at s = 0, sign(0) = 0 gives
    the mean of the limits from either side, as H(0) = 1/2 does in Omega.
    The sum runs one step past the AGM's last c_n, to c_n^2 / (4 a_(n+1)).
    """
    kc, size, sign = ring.kc, np.abs(sigma), np.sign(sigma)
    # outside the rim k_c + s = (k_c^2 - s^2) / (k_c - s), with k_c^2 - s^2 = m z^2 / (R + rho)^2
    spread = (ring.r + ring.rho) ** 2 * (kc - sigma)
    kc_plus = np.divide(ring.m * ring.z**2, spread, out=kc + sigma, where=sigma < 0.0)
    excess = 2.0 * ring.agm[0][2] * (sign * (1.0 + size) + (1.0 + sign) * kc) / (
        (1.0 + size) * (1.0 + kc) * (size + kc)
    )
    a, b, p = sign * one_plus, 2.0 * kc_plus, kc + size * size
    last_a, last_b, last_c = ring.agm[-1]
    gaps = [c for _, _, c in ring.agm[1:]] + [last_c * last_c / (2.0 * (last_a + last_b))]
    scale = 2.0
    for n, ((a_n, b_n, _), gap) in enumerate(zip(ring.agm, gaps)):
        if n:
            g = size * qm / p
            a, b, p = a + size * b / p, 2.0 * (b + a * g), p + size * g
        m_n, q_n = scale * a_n, scale * b_n
        qm, total = q_n * m_n, m_n + q_n
        excess = excess + (2.0 * scale) * gap * (b * (p + size * total) + size * a * qm) / (
            m_n * (size * m_n + p) * total * (p + size * q_n)
        )
        scale *= 2.0
    return excess


def disk_sheet_field(circle: Circle, points) -> np.ndarray:
    """Closed-form Coulomb field of a uniformly charged flat disk, without
    the prefactor k_E sigma.

    Returns the (p, 3) values of  integral of  (x - y) / |x - y|^3 dA  over
    the disk bounded by circle, at the p points x.  With n the circle's
    unit axis, rho_vec the part of x - centre across it, z the height
    along it, A, Q, m, k_c, K and T as in circle_field, and
    s = (R - rho) / (R + rho), the field is  Omega n + (E_rho / rho) rho_vec:

    * Omega, the solid angle signed like z, is Paxton's (1959) K and
      Pi(1 - s^2) folded into one cel,

          Omega = sign(z) (2 pi H(R - rho) - (2 |z| / sqrt(A)) (1 + s) cel(k_c, s^2, 1, s)),

      with H(0) = 1/2.  cel(1, s^2, 1, s) = pi H(R - rho) / (1 + s), so
      this is  2 pi H (1 - |z| / sqrt(A))  less (2 |z| / sqrt(A)) (1 + s)
      times cel's excess over its k_c = 1 value (_cel_excess), with
      1 - |z| / sqrt(A) = (R + rho)^2 / (sqrt(A) (sqrt(A) + |z|)): no
      difference of nearly equal terms near the axis, near the rim, or far
      away, and nothing diverges directly above the rim.
    * E_rho / rho = 2 K T sqrt(A) / rho^2 is the in-plane part, the
      closed integral of (y' x n) / |x - y| around the rim: the textbook
      (4 R / sqrt(A)) ((2/m - 1) K - (2/m) E) / rho with E = K (1 - m/2 - T).

    The field is dimensionless, so it is evaluated in the units of _ring,
    and it does not depend on the circle's orientation.  Raises ValueError
    for a point on the rim; points must not lie on the disk.
    """
    return _disk_at(circle, circle.offsets(_as_rows(points)))


def _disk_at(circle: Circle, offsets) -> np.ndarray:
    """disk_sheet_field from the rim's offsets of the points."""
    ring = _ring(circle, offsets)
    r, rho, z = ring.r, ring.rho, ring.z
    root, height = np.sqrt(ring.big), np.abs(z)
    sigma, one_plus = (r - rho) / (r + rho), 2.0 * r / (r + rho)
    excess = _cel_excess(ring, sigma, one_plus)
    uncovered = (r + rho) ** 2 / (root * (root + height))  # 1 - |z| / sqrt(A)
    omega = (math.pi * np.sign(z)) * (
        (1.0 + np.sign(sigma)) * uncovered - height / root * one_plus * excess
    )
    in_plane = np.divide(
        2.0 * ring.k * ring.t * root, rho * rho, out=np.zeros_like(rho), where=rho > 0.0
    )
    return omega[:, None] * circle.unit_axis + in_plane[:, None] * ring.radial


def polygon_sheet_field(vertices, points) -> np.ndarray:
    """Closed-form Coulomb field of a uniformly charged flat polygon,
    without the prefactor k_E sigma.

    Returns the (p, 3) values of  integral of  (x - y) / |x - y|^3 dA  over
    the polygon with the given (k, 3) vertices, at the p points x.  With n
    the unit normal about which the vertices turn counterclockwise and h
    the height of x above the plane, the field is  Omega n + sum over
    edges of nu_e I_e:

    * Omega is the solid angle, signed like h.  It is summed over the
      fan triangles (P, a, b) that join the foot P of x to each edge a -> b,
      each by the atan2 form of Van Oosterom & Strackee (1983):
      Omega_e = 2 sign(h) atan2(l_e s_e, |R_a||R_b| + R_a.R_b + |h| (|R_a| + |R_b|)),
      with R = x - vertex, l_e the edge length and s_e the signed distance
      of P from the edge's line.  Fanning from P rather than from a vertex
      puts no fan edge across the polygon, so only the polygon's own edges
      meet the cancelling |R_a||R_b| + R_a.R_b, which is taken as
      l_e^2 q^2 / (|R_a||R_b| - R_a.R_b) when R_a.R_b < 0 (q the distance
      of x from the edge's line).
    * nu_e is the edge's outward in-plane normal and I_e the integral of
      dl / |x - y| along it, log1p(2 l / (|R_a| + |R_b| - l)).  The gap
      |R_a| + |R_b| - l = (|R_a| + t_a) + (|R_b| - t_b), t the positions of
      the ends along the edge seen from x, adds two one-signed gaps, each
      R + t taken as q^2 / (R - t) where t < 0, as in segment_field.

    The field is dimensionless, so it is evaluated in the unit of the
    polygon's edges, the closed PolyLine through the vertices: exactly,
    and with no over- or underflow at any size.  That PolyLine's checks
    apply to the vertices, and points must not lie on the polygon.
    """
    rim = PolyLine(_as_rows(vertices), closed=True)
    return _polygon_at(rim, rim.offsets(_as_rows(points)))


def _polygon_at(rim: PolyLine, offsets) -> np.ndarray:
    """polygon_sheet_field of the polygon bounded by the closed rim, from
    the rim's offsets of the points, with the rim's kept segments and
    plane."""
    segments = rim.scaled_segments
    length, d = segments.lengths, segments.dirs
    normal, outward = rim.plane
    x, r_a = offsets
    # einsum, not matmul: numpy's matmul of one row takes another BLAS
    # kernel than that of several, which rounds differently
    height = np.einsum("pj,j->p", r_a[:, 0], normal)
    r_b = x - segments.ends
    n_a = np.sqrt(np.einsum("pij,pij->pi", r_a, r_a))
    n_b = np.concatenate((n_a[:, 1:], n_a[:, :1]), axis=1)  # each edge ends where the next starts
    t_a, t_b = -np.einsum("pij,ij->pi", r_a, d), -np.einsum("pij,ij->pi", r_b, d)
    perp = cross(d, r_a)
    q2 = np.einsum("pij,pij->pi", perp, perp)
    # solid angle over the fan from the foot of x
    dot = np.einsum("pij,pij->pi", r_a, r_b)
    both = n_a * n_b
    opening = np.where(dot >= 0.0, both + dot, length * length * q2 / (both + np.abs(dot)))
    spread = opening + np.abs(height)[:, None] * (n_a + n_b)
    omega = 2.0 * np.sign(height) * np.arctan2(length * (perp @ normal), spread).sum(axis=1)
    # in-plane part from the edges
    gap_a = np.where(t_a >= 0.0, n_a + t_a, q2 / (n_a + np.abs(t_a)))
    gap_b = np.where(t_b <= 0.0, n_b - t_b, q2 / (n_b + np.abs(t_b)))
    line = np.log1p(2.0 * length / (gap_a + gap_b))
    return omega[:, None] * normal + np.einsum("pi,ij->pj", line, outward)


def point_dipole_field(anchors, moments, points) -> np.ndarray:
    """Closed-form field of point dipoles, without the prefactor k_E.

    Returns the (p, 3) sums over the k dipoles of moment m at anchor a of

        (3 (u . m) u - m) / |x - a|^3,    u = (x - a) / |x - a|,

    at each of the p points x: per unit density and separation, the field
    of a flat dipole layer of vector area m shrunk to the point a.  Points
    must not lie on an anchor.
    """
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 3)
    moments = np.asarray(moments, dtype=float).reshape(-1, 3)
    rel = np.asarray(points, dtype=float).reshape(-1, 3)[:, None, :] - anchors
    return _dipole_sum(rel, _lengths(rel), moments)


def _lengths(rel: np.ndarray) -> np.ndarray:
    """|rel| over the last axis: np.linalg.norm's products and sum, without
    its dispatch."""
    return np.sqrt((rel * rel).sum(axis=-1))


def _dipole_sum(rel: np.ndarray, dist: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """point_dipole_field's (p, 3) sums, from the (p, k, 3) offsets x - a
    and their (p, k) lengths."""
    u_hat = rel / dist[..., None]
    proj = np.einsum("pij,ij->pi", u_hat, moments)
    return ((3.0 * proj[..., None] * u_hat - moments) / (dist**3)[..., None]).sum(axis=1)


def curve_field(curve: Curve, points) -> np.ndarray:
    """Closed-form field of a curve, without the prefactor k_B.

    Returns the (p, 3) values at the p points, summed over the curve's
    PolyLine (segment_field) and Circle (circle_field) leaves, since the
    Biot-Savart law is additive; any other curve raises TypeError.
    """
    field = _curve_form(curve)
    return field(curve.offsets(_as_rows(points)))


def _curve_form(curve: Curve) -> Callable:
    """curve_field as a function of the curve's offsets of the points
    (Curve.offsets); any curve but a PolyLine, a Circle or a composite of
    them raises TypeError."""
    if isinstance(curve, PolyLine):
        return partial(_segments_at, curve.scaled_segments)
    if isinstance(curve, Circle):
        return partial(_circle_at, curve)
    if isinstance(curve, CompositeCurve):
        forms = [_curve_form(part) for part in curve.parts]
        return lambda offsets: sum(form(o) for form, o in zip(forms, offsets))
    raise TypeError(f"no closed-form field for a {type(curve).__name__}")


def _sheet_form(patch: SurfacePatch) -> Callable:
    """The field of a patch without the prefactor k_E sigma, as a function
    of the patch's offsets of the points (SurfacePatch.offsets, its rim's):
    the closed form of its rim, a PolyLine's polygon or a Circle's disk.
    A patch with any other rim, or none, raises TypeError."""
    rim = patch.rim()
    if isinstance(rim, PolyLine):
        return partial(_polygon_at, rim)
    if isinstance(rim, Circle):
        return partial(_disk_at, rim)
    raise TypeError(f"no closed-form field for a {type(patch).__name__} sheet")


def biot_savart(
    curve: Curve,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Magnetic field of an oriented curve at a (3,) point x, or the (n, 3)
    fields at (n, 3) points x.

    k_B times segment_field for a PolyLine (RectLoop and mesh_boundary
    output included), circle_field for a Circle, and the sum over the
    parts of a CompositeCurve; any other curve raises TypeError.  The
    curve's offsets of the points, in its unit, are formed once (_guarded):
    the guard's distances and the closed form, all points in one call,
    both come from them.  Raises NearSingular when any point is within
    the guard distance (from spec) of the curve, naming the first; beyond
    1e100 times its bounding-box diagonal the field is zero.  A field that
    k_B takes beyond the float range raises PrefactorOverflow.
    """
    points, single = as_points(x)
    form = _curve_form(curve)
    guard = spec.resolve_guard(curve.reach[1])
    field = _guarded(curve, lambda o: prefactor_times(consts.k_B, form(o)), points, guard, "curve")
    return field[0] if single else field


def coulomb_surface_field(
    patch: SurfacePatch,
    sigma: float,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Electric field of a uniformly charged surface at a (3,) point x, or
    the (n, 3) fields at (n, 3) points x.

    The patch hands its field to its rim (SurfacePatch.rim()): with n
    the unit normal and y(t) the rim counterclockwise about n,

        E / (k_E sigma) = Omega n + closed integral of (y' x n) / |x - y| dt,

    the solid angle Omega the loop's scalar potential and the line
    integral the in-plane part, by the divergence theorem in the plane.
    Both are in closed form: polygon_sheet_field for a PolyLine rim (a
    PlanarRect's) and disk_sheet_field for a Circle rim (a Disk's).  The
    rim's offsets of the points are formed once (_guarded), for the
    guard's distances and for the closed form, all points in one call.  A
    patch with any other rim, or none (a curved one), raises TypeError
    before any other check.  Raises NearSingular when any point is within
    the guard distance of the sheet, naming the first, sigma = 0 included
    (its field is 0.0 times the sheet's); beyond 1e100 times its
    bounding-box diagonal the field is zero.  A field that k_E sigma takes
    beyond the float range raises PrefactorOverflow.
    """
    sheet = _sheet_form(patch)
    points, single = as_points(x)
    guard = spec.resolve_guard(patch.reach[1])
    field = _guarded(patch, lambda o: prefactor_times(consts.k_E * sigma, sheet(o)), points, guard, "sheet")
    return field[0] if single else field


def dipole_sheet_field_exact(
    patch: SurfacePatch,
    dp: DipoleSheetSpec,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Field of the two-sheet dipole layer of a flat patch, in closed form,
    at a (3,) point x or at (n, 3) points x.

    The sheets are the patch moved by +/- s n, s = separation / 2 and n
    its unit normal, charged +/- sigma.  The sheet at +s n seen from x is
    the patch seen from x - s n, so the layer's field is

        E(x - s n) - E(x + s n),

    with E the patch's own Coulomb field (coulomb_surface_field), all 2n
    points measured once and in one call of its rim's closed form.  Each
    sheet has the patch's guard, and NearSingular names the input point
    whose shifted copy fell within it, a zero sigma or separation
    included; its field is zero beyond 1e100 bounding-box diagonals.
    Raises ValueError for a curved patch, which has no constant normal,
    and PrefactorOverflow for a field that k_E sigma takes beyond the
    float range.
    """
    points, single = as_points(x)
    normal = patch.constant_normal()
    if normal is None:
        raise ValueError("the two-sheet field needs a flat patch")
    sheet = _sheet_form(patch)
    shift = 0.5 * dp.separation * normal
    # x - s n and x + s n of each point side by side, in the order the guard checks them
    seen = np.stack((points - shift, points + shift), axis=1).reshape(-1, 3)
    try:
        sheets = _guarded(patch, sheet, seen, spec.resolve_guard(patch.reach[1]), "sheet").reshape(-1, 2, 3)
    except NearSingular as exc:
        exc.point //= 2  # the input point of which seen's row is a copy
        raise
    field = prefactor_times(consts.k_E * dp.sigma, sheets[:, 0] - sheets[:, 1])
    return field[0] if single else field


def dipole_mesh_field(
    mesh: SurfaceMesh,
    dp: DipoleSheetSpec,
    x,
    consts: FieldConstants = FieldConstants(),
) -> np.ndarray:
    """Sum of the point-dipole fields of a mesh's cells (point_dipole_field).

    Each cell contributes a dipole anchored at its four-node centroid with
    the cell-boundary vector area as moment.  Both choices coincide with
    the base-anchored parallelogram panel at first order but keep the sum
    second-order accurate: corner anchoring would shed an O(1/M) Riemann
    boundary term, and on curved patches the parallelogram area vectors
    carry an O(1/M) net defect that the cell-boundary areas cancel by
    telescoping.  The mesh is measured by the guard of every source
    (_guarded), at 1e-9 times its shortest edge from a cell's centre: a
    point that close raises NearSingular, which names the first (its
    distance, and its index in x as `point`); beyond 1e100 bounding-box
    diagonals the field is zero.  A field that k_E h sigma takes beyond
    the float range raises PrefactorOverflow.

    The cells come in the mesh's power-of-two unit (SurfaceMesh.scaled_cells),
    and each point's offsets from the cell centres and their lengths
    (SurfaceMesh.offsets) are formed once, for the guard and the sum.  The
    scaling is exact: the result is bitwise k_E h sigma
    point_dipole_field(cell_centers, cell_vector_areas, x) wherever that
    stays in range, and a mesh and points 2^k times larger give 2^-k times
    the field, for |k| up to 600 at least.
    """
    points, single = as_points(x)
    prefactor = consts.k_E * dp.separation * dp.sigma
    areas = mesh.scaled_cells()[1]
    guard = 1e-9 * mesh.min_edge_length()
    field = _guarded(
        mesh, lambda o: prefactor_times(prefactor, _dipole_sum(*o, areas) / mesh.unit), points, guard, "mesh"
    )
    return field[0] if single else field


def differential_probe(
    field: Callable[[np.ndarray], np.ndarray],
    x,
    step: float,
) -> tuple[np.ndarray, float]:
    """Second-order central-difference (curl, divergence) of a vector field.

    field takes (n, 3) points and returns their (n, 3) values, as
    biot_savart does; it is called once, on the (6, 3) stencil
    x + step e_0, x - step e_0, x + step e_1, ..., x - step e_2.
    """
    if step <= 0.0 or not math.isfinite(step):
        raise ValueError(f"step must be positive and finite, got {step}")
    x = as_vec3(x, "x")
    offsets = np.repeat(step * np.eye(3), 2, axis=0)
    offsets[1::2] *= -1.0
    values = np.asarray(field(x + offsets), dtype=float)
    if values.shape != (6, 3) or not np.isfinite(values).all():
        raise ValueError(f"field values must be finite, of shape (6, 3), got shape {values.shape}")
    jac = ((values[0::2] - values[1::2]) / (2.0 * step)).T  # jac[i, j] = dF_i / dx_j
    curl = np.array(
        [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
    )
    divergence = float(np.trace(jac))
    return curl, divergence


def cross_projection_identity(a, b, r_hat) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the projection identity for cross products.

    For any a, b and unit r:

        ((a x b) . r) r  ==  a x b + (r . a) (b x r) - (r . b) (a x r)

    Returns (lhs, rhs) evaluated exactly as written; they agree to
    rounding error.  Raises NotUnit when |r| deviates from 1 by more
    than 1e-12.
    """
    a = as_vec3(a, "a")
    b = as_vec3(b, "b")
    r = as_vec3(r_hat, "r_hat")
    norm = float(np.linalg.norm(r))
    if abs(norm - 1.0) > 1e-12:
        raise NotUnit(f"|r_hat| = {norm!r} is not 1 within 1e-12")
    axb = cross(a, b)
    lhs = float(axb @ r) * r
    rhs = axb + float(r @ a) * cross(b, r) - float(r @ b) * cross(a, r)
    return lhs, rhs


def taylor_probe(
    x,
    a,
    eps_list: Sequence[float],
) -> tuple[list[float], float]:
    """First-order expansion probe of the inverse-cube norm.

    Measures the finite-difference slopes

        (|x + eps*a|^-3 - |x|^-3) / eps

    for each eps and returns them with the analytic first-order
    coefficient -3 |x|^-5 (x . a); the slopes approach the coefficient
    linearly in eps.
    """
    x = as_vec3(x, "x")
    a = as_vec3(a, "a")
    x_norm = float(np.linalg.norm(x))
    if x_norm == 0.0:
        raise DegenerateBase("base point x must be nonzero")
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr:
        raise ValueError("eps_list must be non-empty")
    a_norm = float(np.linalg.norm(a))
    for eps in eps_arr:
        if eps == 0.0 or not math.isfinite(eps):
            raise ValueError(f"eps must be nonzero and finite, got {eps}")
        if abs(eps) * a_norm >= 0.5 * x_norm:
            raise ValueError(
                f"|eps * a| = {abs(eps) * a_norm:g} too large relative to |x| = {x_norm:g}"
            )
    base = x_norm**-3
    slopes = []
    for eps in eps_arr:
        shifted = float(np.linalg.norm(x + eps * a)) ** -3
        slopes.append((shifted - base) / eps)
    analytic = -3.0 * x_norm**-5 * float(x @ a)
    return slopes, analytic
