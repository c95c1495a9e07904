"""Executable limit and identity studies built on the field/linking engines.

Exact infinitesimal statements are externalized as finite-step runs with
a measured convergence order: each study evaluates both sides of an
equality over a sweep of a small parameter, records the error per step,
fits the log-log slope, and passes when the slope and final error meet
their thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import LoopfieldError, NearSingular
from .fields import (
    DipoleSheetSpec,
    FieldConstants,
    biot_savart,
    coulomb_surface_field,
    differential_probe,
    dipole_mesh_field,
    dipole_sheet_field_exact,
    point_dipole_field,
)
from .geometry import (
    Circle,
    Disk,
    PolyLine,
    RectLoop,
    SurfacePatch,
    as_vec3,
    mesh_boundary,
    mesh_surface,
)
from .linking import (
    LinkScene,
    combinatorial_lk,
    gauss_linking,
    gauss_pair_integral,
)
from .quadrature import QuadratureSpec

__all__ = [
    "ConvergenceReport",
    "ReportRow",
    "CatalogRow",
    "similitude_infinitesimal",
    "similitude_general",
    "curl_vanishing",
    "maxwell_probe",
    "line_limit_study",
    "LineLimitRow",
    "LineLimitReport",
    "ampere_catalog",
    "symmetry_sweep",
    "SymmetryRow",
    "default_catalog",
    "unit_circle",
    "unit_disk_mesh",
]

# prefactor-free constants used by the similitude statements
UNIT_CONSTS = FieldConstants(k_E=1.0, k_B=1.0)

# tight quadrature for finite-difference probes, where integration noise
# is amplified by 1/step
PROBE_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)


@dataclass(frozen=True)
class ReportRow:
    scale_parameter: float
    measured: object  # float or (3,) array
    reference: object
    abs_error: float


@dataclass
class ConvergenceReport:
    rows: list[ReportRow]
    fitted_order: float
    passed: bool
    notes: list[str] = field(default_factory=list)
    # per-point probe rows: ProbeRow for curl_vanishing, (kind, ProbeRow)
    # for maxwell_probe
    point_rows: list = field(default_factory=list)


def _fit_order(rows: Sequence[ReportRow]) -> float:
    pts = [(r.scale_parameter, r.abs_error) for r in rows if r.abs_error > 0.0]
    if len(pts) < 3 or len({p[0] for p in pts}) < 2:
        return float("nan")
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def _sorted_rows(rows: list[ReportRow]) -> list[ReportRow]:
    return sorted(rows, key=lambda r: -r.scale_parameter)


# ---------------------------------------------------------------------------
# Dipole/loop similitude
# ---------------------------------------------------------------------------


def similitude_infinitesimal(
    base,
    a,
    b,
    r,
    eps_list: Sequence[float],
    h: float,
    consts: Optional[FieldConstants] = None,
    spec: QuadratureSpec = PROBE_SPEC,
) -> ConvergenceReport:
    """Point dipole field vs h * loop field on a shrinking parallelogram.

    For each eps, takes the parallelogram spanned by eps*a, eps*b at
    `base` and its four-segment boundary loop, then compares the field of
    a dipole with separation h and moment eps*a x eps*b anchored at `base`
    (point_dipole_field) against h times the Biot-Savart field of the
    loop at r.  The relative error shrinks (at least) linearly in eps;
    the report passes when the fitted order is >= 0.9.
    """
    consts = consts or UNIT_CONSTS
    base = as_vec3(base, "base")
    a = as_vec3(a, "a")
    b = as_vec3(b, "b")
    r = as_vec3(r, "r")
    if np.linalg.norm(np.cross(a, b)) == 0.0:
        raise ValueError("a x b must be nonzero")
    span = max(np.linalg.norm(a), np.linalg.norm(b))
    offset = float(np.linalg.norm(r - base))
    rows = []
    for eps in eps_list:
        if eps * span > offset / 10.0:
            raise ValueError(f"eps {eps} too large for field distance {offset}")
        loop = PolyLine(
            [base, base + eps * a, base + eps * a + eps * b, base + eps * b],
            closed=True,
        )
        e_dp = consts.k_E * h * point_dipole_field(base, np.cross(eps * a, eps * b), r)[0]
        b_ref = h * biot_savart(loop, r, consts, spec)
        rel = float(np.linalg.norm(e_dp - b_ref) / np.linalg.norm(b_ref))
        rows.append(ReportRow(float(eps), e_dp, b_ref, rel))
    rows = _sorted_rows(rows)
    order = _fit_order(rows)
    return ConvergenceReport(rows, order, passed=bool(order >= 0.9))


def similitude_general(
    patch: SurfacePatch,
    r,
    h: float,
    mesh_sizes: Sequence[int],
    consts: Optional[FieldConstants] = None,
    spec: QuadratureSpec = PROBE_SPEC,
) -> ConvergenceReport:
    """Summed panel dipole fields vs h * field of the mesh boundary.

    For each mesh size M the patch is panelized M x M; the report records
    the relative deviation between the dipole-layer sum and h times the
    Biot-Savart field of the mesh boundary loop.  Passes when the finest
    mesh lands within 1e-3 relative and the fitted order is >= 0.9.
    """
    consts = consts or UNIT_CONSTS
    r = as_vec3(r, "r")
    rows = []
    for m in mesh_sizes:
        mesh = mesh_surface(patch, m, m)
        boundary = mesh_boundary(mesh)
        e_dp = dipole_mesh_field(mesh, DipoleSheetSpec(1.0, h), r, consts)
        b_ref = h * biot_savart(boundary, r, consts, spec)
        rel = float(np.linalg.norm(e_dp - b_ref) / np.linalg.norm(b_ref))
        rows.append(ReportRow(1.0 / m, e_dp, b_ref, rel))
    rows = _sorted_rows(rows)
    order = _fit_order(rows)
    final_ok = rows[-1].abs_error <= 1e-3
    return ConvergenceReport(rows, order, passed=bool(final_ok and order >= 0.9))


# ---------------------------------------------------------------------------
# Differential probes of the integral fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    point: np.ndarray
    step: float
    curl_norm: float
    div_norm: float
    floor: float


def _probe_field(field, probe_points, steps, floor_of_step):
    rows = []
    for point in probe_points:
        p = as_vec3(point, "probe point")
        for step in steps:
            curl, div = differential_probe(field, p, float(step))
            rows.append(
                ProbeRow(p, float(step), float(np.linalg.norm(curl)), abs(div),
                         floor_of_step(float(step)))
            )
    return rows


def _ratio_ok(rows_for_point: list[ProbeRow], lo: float, hi: float) -> bool:
    """Check step-halving error ratios where both errors clear the floor."""
    ordered = sorted(rows_for_point, key=lambda r: -r.step)
    for coarse, fine in zip(ordered[:-1], ordered[1:]):
        if coarse.curl_norm > 10.0 * coarse.floor and fine.curl_norm > 10.0 * fine.floor:
            ratio = coarse.curl_norm / fine.curl_norm
            expected = (coarse.step / fine.step) ** 2
            if not (lo * expected / 4.0 <= ratio <= hi * expected / 4.0):
                return False
    return True


def curl_vanishing(
    curve,
    probe_points: Sequence,
    steps: Sequence[float],
    consts: Optional[FieldConstants] = None,
    spec: QuadratureSpec = PROBE_SPEC,
) -> ConvergenceReport:
    """Finite-difference curl of the loop field at points off the curve.

    The true curl vanishes away from the curve, so the measured curl is
    pure stencil truncation plus quadrature noise: it must stay below
    1e-5 at the smallest step and shrink ~4x per step halving while above
    the quadrature floor.  The divergence is probed with the same stencil
    as a bonus check.
    """
    consts = consts or FieldConstants()

    def field(p):
        return biot_savart(curve, p, consts, spec)

    def floor_of_step(step):
        return 3.0 * spec.abs_tol / step

    probe_rows = _probe_field(field, probe_points, steps, floor_of_step)
    small = min(float(s) for s in steps)
    passed = True
    for p in probe_points:
        pt = as_vec3(p, "probe point")
        mine = [r for r in probe_rows if np.array_equal(r.point, pt)]
        finest = [r for r in mine if r.step == small]
        if any(r.curl_norm > 1e-5 or r.div_norm > 1e-5 for r in finest):
            passed = False
        if not _ratio_ok(mine, 3.0, 5.0):
            passed = False
    rows = [
        ReportRow(r.step, r.curl_norm, 0.0, r.curl_norm) for r in probe_rows
    ]
    return ConvergenceReport(
        _sorted_rows(rows), _fit_order(rows), passed, point_rows=probe_rows
    )


def maxwell_probe(
    patch: SurfacePatch,
    sigma: float,
    probe_points: Sequence,
    steps: Sequence[float],
    consts: Optional[FieldConstants] = None,
    spec: QuadratureSpec = PROBE_SPEC,
    dipole_separation: float = 1e-3,
) -> ConvergenceReport:
    """Divergence and curl of the sheet fields off the charge support.

    Probes both the plain charged sheet and the dipole layer built from
    it.  Off the support both div E and curl E vanish, so the report
    passes when every probe stays below 1e-5 at the smallest step.  A
    point that trips the near-singularity guard of either field is
    recorded in the notes rather than aborting the run, and fails the
    report: it is not off the support.
    """
    consts = consts or FieldConstants()
    kinds: list[tuple[str, object]] = [
        ("sheet", lambda p: coulomb_surface_field(patch, sigma, p, consts, spec)),
        (
            "dipole",
            lambda p: dipole_sheet_field_exact(
                patch, DipoleSheetSpec(sigma, dipole_separation), p, consts, spec
            ),
        ),
    ]

    def floor_of_step(step):
        return 3.0 * spec.abs_tol / step

    probe_rows, notes = [], []
    for kind, field_fn in kinds:
        for point in probe_points:
            p = as_vec3(point, "probe point")
            try:
                point_rows = _probe_field(field_fn, [p], steps, floor_of_step)
            except NearSingular as exc:
                notes.append(f"{kind} probe at {p.tolist()} skipped: {exc}")
                continue
            probe_rows += [(kind, row) for row in point_rows]
    small = min(float(s) for s in steps)
    passed = not notes and not any(
        row.curl_norm > 1e-5 or row.div_norm > 1e-5 for _, row in probe_rows if row.step == small
    )
    rows = [
        ReportRow(row.step, row.curl_norm, 0.0, max(row.curl_norm, row.div_norm))
        for _, row in probe_rows
    ]
    return ConvergenceReport(
        _sorted_rows(rows), _fit_order(rows), passed, notes, probe_rows
    )


# ---------------------------------------------------------------------------
# Straight-wire limit of the Gauss integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineLimitRow:
    n: int
    a_total: float
    a_axis_leg: float
    a_far_legs: float
    lk: int
    error_estimate: float


@dataclass
class LineLimitReport(ConvergenceReport):
    detail: list[LineLimitRow] = field(default_factory=list)
    analytic_reference: float = 1.0


def axis_leg_closed_form(n: float) -> float:
    """Gauss integral of the axis leg against the unit circle, in closed form.

    The integrand reduces to (1 + t^2)^(-3/2) whose antiderivative is
    t / sqrt(1 + t^2), giving n / sqrt(1 + n^2); the n -> infinity limit
    is the full straight-wire value 1.
    """
    return float(n / math.sqrt(1.0 + n * n))


def unit_circle() -> Circle:
    return Circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), "ccw")


def unit_disk_mesh(m: int = 15, n: int = 15):
    """Spanning mesh of the unit circle."""
    return mesh_surface(Disk((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0)), m, n)


def line_limit_study(
    n_list: Sequence[int],
    spec: QuadratureSpec = QuadratureSpec(),
    consts: Optional[FieldConstants] = None,
) -> LineLimitReport:
    """Gauss integral of growing axis-anchored rectangles against the circle.

    Splits each rectangle into the z-axis leg and the three far legs.
    The total stays at 1 for every n (it is the linking number); the
    axis-leg term climbs to the straight-wire value 1 while the far-leg
    tail decays monotonically to 0.  The combinatorial count is 1 for
    every n.
    """
    consts = consts or FieldConstants()
    circle = unit_circle()
    disk = unit_disk_mesh()
    detail = []
    rows = []
    for n in n_list:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        nf = float(n)
        axis_leg = PolyLine([(0.0, 0.0, -nf), (0.0, 0.0, nf)])
        far_legs = PolyLine(
            [(0.0, 0.0, nf), (nf, 0.0, nf), (nf, 0.0, -nf), (0.0, 0.0, -nf)]
        )
        a1, e1 = gauss_pair_integral(axis_leg, circle, consts, spec)
        a2, e2 = gauss_pair_integral(far_legs, circle, consts, spec)
        lk = combinatorial_lk(RectLoop(int(n)), disk)
        detail.append(LineLimitRow(int(n), a1 + a2, a1, a2, lk, e1 + e2))
        rows.append(ReportRow(1.0 / nf, a1 + a2, 1.0, abs(a1 + a2 - 1.0)))
    detail.sort(key=lambda r: r.n)
    tails = [r.a_far_legs for r in detail]
    legs = [abs(r.a_axis_leg - 1.0) for r in detail]
    monotone_tail = all(b < a for a, b in zip(tails[:-1], tails[1:]))
    leg_converges = all(b < a for a, b in zip(legs[:-1], legs[1:]))
    total_ok = abs(detail[-1].a_total - 1.0) <= 1e-2
    lk_ok = all(r.lk == 1 for r in detail)
    passed = monotone_tail and leg_converges and total_ok and lk_ok
    rows = _sorted_rows(rows)
    return LineLimitReport(rows, _fit_order(rows), passed, detail=detail)


# ---------------------------------------------------------------------------
# Linking catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogRow:
    scene_id: str
    gauss_value: float
    error_estimate: float
    lk: Optional[int]
    abs_diff: float
    passed: bool
    note: str = ""


def ampere_catalog(
    scenes: Sequence[LinkScene],
    spec: QuadratureSpec = QuadratureSpec(),
    consts: Optional[FieldConstants] = None,
) -> list[CatalogRow]:
    """Gauss integral vs combinatorial count for every scene.

    A row passes when |A - Lk| <= 1e-4 + error estimate.  Per-scene
    failures are recorded in the row instead of aborting the batch.
    """
    consts = consts or FieldConstants()
    rows = []
    for scene in scenes:
        sid = scene.name or f"scene{len(rows)}"
        try:
            value, err = gauss_linking(scene, consts, spec)
            if scene.spanning_mesh is None:
                raise ValueError("scene has no spanning mesh for the combinatorial count")
            lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
            diff = abs(value - lk)
            rows.append(
                CatalogRow(sid, value, err, lk, diff, bool(diff <= 1e-4 + err))
            )
        except (LoopfieldError, ValueError) as exc:
            rows.append(CatalogRow(sid, float("nan"), float("nan"), None,
                                   float("nan"), False, note=str(exc)))
    return rows


@dataclass(frozen=True)
class SymmetryRow:
    scene_id: str
    a_forward: float
    a_swapped: float
    diff: float
    bound: float
    passed: bool


def symmetry_sweep(
    scenes: Sequence[LinkScene],
    consts: Optional[FieldConstants] = None,
    spec: QuadratureSpec = QuadratureSpec(),
) -> list[SymmetryRow]:
    """Exchange symmetry of the Gauss integral on every scene."""
    consts = consts or FieldConstants()
    rows = []
    for scene in scenes:
        sid = scene.name or f"scene{len(rows)}"
        a_fwd, e_fwd = gauss_linking(scene, consts, spec)
        a_swp, e_swp = gauss_linking(scene.swapped(), consts, spec)
        diff = abs(a_fwd - a_swp)
        bound = 2.0 * (e_fwd + e_swp)
        rows.append(SymmetryRow(sid, a_fwd, a_swp, diff, max(bound, 1e-12), diff <= max(bound, 1e-12)))
    return rows


def default_catalog(mesh_m: int = 15, mesh_n: int = 15) -> list[LinkScene]:
    """Six shipped scenes with linking numbers -1, 0, 0, 1, 1, 2.

    All spanning meshes are the unit disk in the xy-plane; the counts
    hold for every mesh size, odd or even.
    """
    circle = unit_circle()
    disk = unit_disk_mesh(mesh_m, mesh_n)
    hopf_partner = Circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), "ccw")
    far_ring = Circle((0.0, 0.0, 10.0), 1.0, (0.0, 0.0, 1.0), "ccw")
    zero_wind = PolyLine(
        [
            (0.3, 0.0, -1.0),
            (0.3, 0.0, 1.0),
            (-0.3, 0.0, 1.0),
            (-0.3, 0.0, -1.0),
        ],
        closed=True,
    )
    double_wind = PolyLine(
        [
            (0.3, 0.0, -1.0),
            (0.3, 0.0, 1.0),
            (2.5, 0.0, 1.0),
            (2.5, 0.0, -1.0),
            (-0.3, 0.0, -1.0),
            (-0.3, 0.0, 1.0),
            (-2.5, 0.0, 1.0),
            (-2.5, 0.0, -1.0),
        ],
        closed=True,
    )
    return [
        LinkScene(hopf_partner, circle, disk, name="hopf"),
        LinkScene(hopf_partner.reversed(), circle, disk, name="hopf_reversed"),
        LinkScene(far_ring, circle, disk, name="unlinked_far"),
        LinkScene(zero_wind, circle, disk, name="zero_wind"),
        LinkScene(double_wind, circle, disk, name="double_wind"),
        LinkScene(RectLoop(8), circle, disk, name="axis_rect_8"),
    ]
