"""Static field formulas: Biot-Savart, Coulomb sheets, and dipole layers.

Sign convention: the magnetic field of an oriented curve is

    B(x) = k_B * integral of  dl x (x - r) / |x - r|^3

taken along the curve, i.e. the field circulates right-handedly around
the current direction.  With k_B = 1/(4*pi) the circulation of B around
a loop equals the (signed) number of times the loop links the curve.

Electric fields use E = k_E * integral of sigma * (x - p) / |x - p|^3.
Both prefactors are explicit because the dipole/loop similitude is
stated with k_E = k_B = 1 while linking experiments want k_B = 1/(4*pi).

Straight segments, circles, flat polygon sheets and point dipoles have
closed forms (segment_field, circle_field, polygon_sheet_field,
point_dipole_field), which biot_savart and coulomb_surface_field use for
PolyLine and Circle sources and for flat polygon patches, and
dipole_mesh_field for a mesh's cells.  The field of any other flat sheet,
a disk for one, is one adaptive line integral around its rim; composite
curves and curved patches are integrated by adaptive quadrature along the
curve and over the unit square.  The two-sheet dipole layer of a flat
patch is its sheet field seen from x -/+ (separation / 2) n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateBase, NearSingular, NotUnit
from .geometry import (
    Circle,
    Curve,
    PolyLine,
    SurfaceMesh,
    SurfacePatch,
    as_vec3,
    cross,
)
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d

__all__ = [
    "FieldConstants",
    "DipoleSheetSpec",
    "segment_field",
    "circle_field",
    "polygon_sheet_field",
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
# of the field beside it; zero stands in for it from there on, because
# the closed forms' squares of distances overflow past about 1.3e154
_FAR = 1e100


def _beyond_reach(source, x, spec: QuadratureSpec, what: str) -> bool:
    """Whether x lies beyond _FAR source sizes (its field is then zero);
    raises NearSingular within the guard distance of the source."""
    lo, hi = source.bounding_box()
    span = hi - lo
    scale = math.sqrt(span @ span)
    guard = spec.resolve_guard(scale)
    # every point of the source lies within scale / 2 of its box's centre:
    # a point this far from it is beyond reach and outside the guard,
    # decided without the distances, whose squares overflow
    if math.hypot(*(x - 0.5 * (lo + hi))) > max(guard, _FAR * scale) + scale:
        return True
    dist = source.distance_to(x)
    if dist <= guard:
        raise NearSingular(f"field point at distance {dist:g} from the {what} (guard {guard:g})")
    return dist > _FAR * scale


# a rim's first cuts sit at its parameter nearest the field point and this
# share of its period to either side (1e-2 on a circle), so that a peak
# as narrow as the distance from the rim starts in cells of its own
_RIM_WINDOW = 1e-2 / (2.0 * math.pi)


def _rim_cuts(rim: Curve, t_near: float) -> tuple[float, ...]:
    """The rim's ends and t_near, t_near +- window, taken modulo the period,
    so that a peak at the seam gets small cells on both sides."""
    start, end = rim.t_start, rim.t_end
    span = end - start
    window = _RIM_WINDOW * span
    inner = {start + (t_near - start + s) % span for s in (-window, 0.0, window)}
    return (start, *sorted(t for t in inner if start < t < end), end)


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
    textbook |R1| |R2| + R1 . R2 does.  Points must not lie on a segment.
    """
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    x = np.asarray(points, dtype=float).reshape(-1, 3)[:, None, :]
    chords = ends - starts
    length = np.sqrt(np.einsum("ij,ij->i", chords, chords))
    d = chords / length[:, None]
    r1, r2 = x - starts, x - ends
    n1 = np.sqrt(np.einsum("pij,pij->pi", r1, r1))
    n2 = np.sqrt(np.einsum("pij,pij->pi", r2, r2))
    t1, t2 = -np.einsum("pij,ij->pi", r1, d), -np.einsum("pij,ij->pi", r2, d)
    perp = cross(d, r1)
    rho2 = np.einsum("pij,pij->pi", perp, perp)
    inside = (t1 < 0.0) & (t2 > 0.0)
    num = np.where(inside, t2 * n1 - t1 * n2, length * (t1 + t2))
    den = n1 * n2 * np.where(inside, rho2, t2 * n1 + t1 * n2)
    return np.einsum("pij,pi->pj", perp, num / den)


# c_n <= sqrt(eps) a_n: the next AGM step moves a_n by under eps a_n / 4,
# and the next term of T by under eps / 8 of the last one
_AGM_TOL = math.sqrt(float(np.finfo(float).eps))


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
    itself, never from 1 - m, so the AGM keeps its digits beside the wire,
    and it runs until c_n <= sqrt(eps) a_n at every point.  Raises
    ValueError for a point on the circle.
    """
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    axis = circle.axis / np.linalg.norm(circle.axis)
    rel = x - circle.center
    z = rel @ axis
    radial = rel - z[:, None] * axis
    rho = np.sqrt(np.einsum("ij,ij->i", radial, radial))
    r = circle.radius
    big = (r + rho) ** 2 + z * z
    small = (r - rho) ** 2 + z * z
    if not np.all(small > 0.0):
        # the AGM of 1 and 0 never converges
        raise ValueError("points must not lie on the circle")
    m = 4.0 * r * rho / big
    kc = np.sqrt(small / big)
    # a_1, b_1 and c_1 = (1 - k_c) / 2, written without the cancelling difference
    a, b, c = 0.5 * (1.0 + kc), np.sqrt(kc), m / (2.0 * (1.0 + kc))
    t, weight = c * c, 1.0
    while np.any(c > _AGM_TOL * a):
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), c * c / (2.0 * (a + b))
        weight *= 2.0
        t = t + weight * c * c
    k = 0.5 * math.pi / a
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
    return sign * (b_rho_over_rho[:, None] * radial + b_z[:, None] * axis)


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

    Points must not lie on the polygon.
    """
    verts = np.asarray(vertices, dtype=float).reshape(-1, 3)
    x = np.asarray(points, dtype=float).reshape(-1, 3)
    ends = np.roll(verts, -1, axis=0)
    spokes = verts[1:] - verts[0]
    normal = cross(spokes[:-1], spokes[1:]).sum(axis=0)
    normal = normal / np.linalg.norm(normal)
    chords = ends - verts
    length = np.sqrt(np.einsum("ij,ij->i", chords, chords))
    d = chords / length[:, None]
    height = (x - verts[0]) @ normal
    r_a, r_b = x[:, None, :] - verts, x[:, None, :] - ends
    n_a = np.sqrt(np.einsum("pij,pij->pi", r_a, r_a))
    n_b = np.sqrt(np.einsum("pij,pij->pi", r_b, r_b))
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
    return omega[:, None] * normal + line @ cross(d, normal)


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
    dist = np.linalg.norm(rel, axis=2)
    u_hat = rel / dist[..., None]
    proj = np.einsum("pij,ij->pi", u_hat, moments)
    return ((3.0 * proj[..., None] * u_hat - moments) / (dist**3)[..., None]).sum(axis=1)


def biot_savart(
    curve: Curve,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Magnetic field of an oriented curve at point x.

    A PolyLine source (RectLoop and mesh_boundary output included) is
    summed in closed form by segment_field, and a Circle by circle_field;
    any other curve is integrated, k_B * dl x (x - r) / |x - r|^3, in one
    quadrature whose first cells are its smooth pieces.  Raises
    NearSingular when x is within the guard distance of the curve; beyond
    1e100 times its bounding-box diagonal the field is returned as zero.
    """
    x = as_vec3(x, "x")
    if _beyond_reach(curve, x, spec, "curve"):
        return np.zeros(3)
    if isinstance(curve, PolyLine):
        return consts.k_B * segment_field(*curve.segments(), x)[0]
    if isinstance(curve, Circle):
        return consts.k_B * circle_field(curve, x)[0]

    def integrand(ts):
        m = curve.position(ts)
        dm = curve.tangent(ts)
        rel = x - m
        inv_r3 = (rel * rel).sum(axis=-1) ** -1.5
        return cross(dm, rel) * inv_r3[:, None]

    value, _ = integrate_1d(integrand, curve.smooth_cuts(), spec)
    return consts.k_B * value


def coulomb_surface_field(
    patch: SurfacePatch,
    sigma: float,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Electric field of a uniformly charged surface at point x.

    A flat patch hands its field to its rim (SurfacePatch.rim()): with n
    the unit normal, h the height of x above the plane, and y(t) the rim
    counterclockwise about n,

        E / (k_E sigma) = Omega n + closed integral of (y' x n) / R dt,

    R = |x - y|.  The solid angle Omega is the loop's scalar potential and
    the line integral the in-plane part, by the divergence theorem in the
    plane.  A PolyLine rim (a PlanarRect's) is summed in closed form by
    polygon_sheet_field; any other rim (a Disk's circle) is one adaptive
    line integral of

        sign(h) ((y - x) . (y' x n)) / (R (R + |h|)) n + (y' x n) / R,

    the solid-angle density (1 - |h|/R) / rho^2 written so that nothing
    cancels, whose first cells are cut at the rim parameter nearest x and
    to either side of it.  A curved patch is integrated,
    k_E * sigma * (x - p) |du x dv| / |x - p|^3, in one 2-D quadrature over
    the unit square.  Raises NearSingular when x is within the guard
    distance of the sheet; beyond 1e100 times its bounding-box diagonal
    the field is returned as zero.
    """
    x = as_vec3(x, "x")
    if sigma == 0.0 or _beyond_reach(patch, x, spec, "sheet"):
        return np.zeros(3)
    rim = patch.rim()
    if isinstance(rim, PolyLine):
        return consts.k_E * sigma * polygon_sheet_field(rim.vertices, x)[0]
    if rim is not None:
        normal = patch.constant_normal()
        t_near = rim.nearest_param(x)
        height = float((x - rim.position(t_near)) @ normal)
        up, lift = float(np.sign(height)), abs(height)
        turn = cross(np.eye(3), normal)  # y' x n = y' @ turn

        def rim_integrand(ts):
            rel = rim.position(ts) - x
            outward = rim.tangent(ts) @ turn
            dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
            solid = up * np.einsum("ij,ij->i", rel, outward) / (dist * (dist + lift))
            return solid[:, None] * normal + outward / dist[:, None]

        value, _ = integrate_1d(rim_integrand, _rim_cuts(rim, t_near), spec)
        return consts.k_E * sigma * value

    def integrand(u, v):
        p, jac = patch.element(u, v)
        rel = x - p
        inv_r3 = (rel * rel).sum(axis=-1) ** -1.5
        return rel * (jac * inv_r3)[..., None]

    value, _ = integrate_2d(integrand, ((0.0, 1.0), (0.0, 1.0)), spec)
    return consts.k_E * sigma * value


def dipole_sheet_field_exact(
    patch: SurfacePatch,
    dp: DipoleSheetSpec,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Field of the two-sheet dipole layer of a flat patch, integrated exactly.

    The sheets are the patch moved by +/- s n, s = separation / 2 and n
    its unit normal, charged +/- sigma.  The sheet at +s n seen from x is
    the patch seen from x - s n, so the layer's field is

        E(x - s n) - E(x + s n),

    with E the patch's own Coulomb field (coulomb_surface_field): closed
    forms for a polygon, rim line integrals for a disk.  The guard applies
    to each sheet as to the patch.  Raises ValueError for a curved patch,
    which has no constant normal.
    """
    x = as_vec3(x, "x")
    normal = patch.constant_normal()
    if normal is None:
        raise ValueError("the two-sheet field needs a flat patch")
    if dp.sigma == 0.0 or dp.separation == 0.0:
        # zero density, or coincident sheets cancelling exactly
        return np.zeros(3)
    shift = 0.5 * dp.separation * normal
    return coulomb_surface_field(patch, dp.sigma, x - shift, consts, spec) - coulomb_surface_field(
        patch, dp.sigma, x + shift, consts, spec
    )


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
    telescoping.
    """
    r = as_vec3(x, "x")
    areas = mesh.cell_vector_areas.reshape(-1, 3)
    anchors = mesh.cell_centers.reshape(-1, 3)
    dist = np.linalg.norm(r - anchors, axis=1)
    panel_scale = mesh.min_edge_length()
    if float(dist.min()) <= 1e-9 * panel_scale:
        raise NearSingular("field point within guard distance of a panel center")
    return consts.k_E * dp.separation * dp.sigma * point_dipole_field(anchors, areas, r)[0]


def differential_probe(
    field: Callable[[np.ndarray], np.ndarray],
    x,
    step: float,
) -> tuple[np.ndarray, float]:
    """Second-order central-difference (curl, divergence) of a vector field."""
    if step <= 0.0 or not math.isfinite(step):
        raise ValueError(f"step must be positive and finite, got {step}")
    x = as_vec3(x, "x")
    jac = np.empty((3, 3))  # jac[i, j] = dF_i / dx_j
    for j in range(3):
        offset = np.zeros(3)
        offset[j] = step
        f_plus = as_vec3(field(x + offset), "field value")
        f_minus = as_vec3(field(x - offset), "field value")
        jac[:, j] = (f_plus - f_minus) / (2.0 * step)
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
    axb = np.cross(a, b)
    lhs = float(axb @ r) * r
    rhs = axb + float(r @ a) * np.cross(b, r) - float(r @ b) * np.cross(a, r)
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
