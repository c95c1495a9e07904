"""Static field formulas: Biot-Savart, Coulomb sheets, and dipole layers.

Sign convention: the magnetic field of an oriented curve is

    B(x) = k_B * integral of  dl x (x - r) / |x - r|^3

taken along the curve, i.e. the field circulates right-handedly around
the current direction.  With k_B = 1/(4*pi) the circulation of B around
a loop equals the (signed) number of times the loop links the curve.

Electric fields use E = k_E * integral of sigma * (x - p) / |x - p|^3.
Both prefactors are explicit because the dipole/loop similitude is
stated with k_E = k_B = 1 while linking experiments want k_B = 1/(4*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateBase, NearSingular, NotUnit
from .geometry import (
    Curve,
    Panel,
    PolyLine,
    ShiftedPatch,
    SurfaceMesh,
    SurfacePatch,
    as_vec3,
    bounding_box_diagonal,
    cross,
)
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d

__all__ = [
    "FieldConstants",
    "DipoleSheetSpec",
    "segment_field",
    "biot_savart",
    "coulomb_surface_field",
    "dipole_sheet_field_exact",
    "dipole_panel_field",
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


def _guard_distance(spec: QuadratureSpec, *objects) -> float:
    return spec.resolve_guard(bounding_box_diagonal(objects))


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


def biot_savart(
    curve: Curve,
    x,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> np.ndarray:
    """Magnetic field of an oriented curve at point x.

    A PolyLine source (RectLoop and mesh_boundary output included) is
    summed in closed form by segment_field; any other curve is integrated,
    k_B * dl x (x - r) / |x - r|^3, in one quadrature whose first cells
    are its smooth pieces.  Raises NearSingular when x is within the
    guard distance of the curve.
    """
    x = as_vec3(x, "x")
    guard = _guard_distance(spec, curve)
    dist = curve.distance_to(x)
    if dist <= guard:
        raise NearSingular(
            f"field point at distance {dist:g} from the curve (guard {guard:g})"
        )
    if isinstance(curve, PolyLine):
        return consts.k_B * segment_field(*curve.segments(), x)[0]

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
    """Electric field of a uniformly charged surface at point x."""
    x = as_vec3(x, "x")
    if sigma == 0.0:
        return np.zeros(3)
    guard = _guard_distance(spec, patch)
    dist = patch.distance_to(x)
    if dist <= guard:
        raise NearSingular(
            f"field point at distance {dist:g} from the sheet (guard {guard:g})"
        )

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
    """Field of the two-sheet dipole layer, integrated exactly.

    The patch is displaced by +/- separation/2 along its pointwise unit
    normal and carries +/- sigma; the result is the sum of the two
    Coulomb fields.
    """
    x = as_vec3(x, "x")
    if dp.sigma == 0.0 or dp.separation == 0.0:
        # zero density, or coincident sheets cancelling exactly
        return np.zeros(3)
    half = 0.5 * dp.separation
    plus = ShiftedPatch(patch, +half)
    minus = ShiftedPatch(patch, -half)
    return coulomb_surface_field(plus, +dp.sigma, x, consts, spec) + coulomb_surface_field(
        minus, -dp.sigma, x, consts, spec
    )


def dipole_panel_field(
    panel: Panel,
    dp: DipoleSheetSpec,
    x,
    consts: FieldConstants = FieldConstants(),
) -> np.ndarray:
    """Closed-form dipole-layer field of a single flat panel.

    First order in both the panel extent and the sheet separation,
    anchored at the panel's base corner:

        E(r) = k_E * h * sigma / |r - x0|^3 * (3 (u.A) u - A)

    with x0 the base corner, u the unit vector from x0 to r, and A the
    panel area vector.
    """
    r = as_vec3(x, "x")
    rel = r - panel.base
    dist = float(np.linalg.norm(rel))
    panel_scale = float(np.linalg.norm(panel.edge_a) + np.linalg.norm(panel.edge_b))
    if dist <= 1e-9 * panel_scale:
        raise NearSingular(f"field point within {dist:g} of the panel base")
    u_hat = rel / dist
    area = panel.area_vector
    coeff = consts.k_E * dp.separation * dp.sigma / dist**3
    return coeff * (3.0 * float(u_hat @ area) * u_hat - area)


def dipole_mesh_field(
    mesh: SurfaceMesh,
    dp: DipoleSheetSpec,
    x,
    consts: FieldConstants = FieldConstants(),
) -> np.ndarray:
    """Sum of the closed-form panel dipole fields over a mesh.

    Each cell contributes the closed form anchored at its four-node
    centroid with the cell-boundary vector area as moment.  Both choices
    coincide with the base-anchored parallelogram panel at first order
    but keep the sum second-order accurate: corner anchoring would shed
    an O(1/M) Riemann boundary term, and on curved patches the
    parallelogram area vectors carry an O(1/M) net defect that the
    cell-boundary areas cancel by telescoping.
    """
    r = as_vec3(x, "x")
    areas = mesh.cell_vector_areas.reshape(-1, 3)
    anchors = mesh.cell_centers.reshape(-1, 3)
    rel = r - anchors
    dist = np.linalg.norm(rel, axis=1)
    panel_scale = mesh.min_edge_length()
    if float(dist.min()) <= 1e-9 * panel_scale:
        raise NearSingular("field point within guard distance of a panel center")
    u_hat = rel / dist[:, None]
    proj = np.einsum("ij,ij->i", u_hat, areas)
    contrib = (3.0 * proj[:, None] * u_hat - areas) / (dist**3)[:, None]
    return consts.k_E * dp.separation * dp.sigma * contrib.sum(axis=0)


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
