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
touch.  One walk along curve_l (_halving) guards it with a certified
lower bound of the closest approach, refusing every pair that comes
within the guard and accepting every pair beyond twice the guard, and
sizes the circulation's first cells, each at most _KAPPA times as wide
as its gap from curve_c, in the spirit of QUADPACK's QAGP (Piessens et
al. 1983), so every near approach of a pair just beyond the guard is
resolved in a few refinement levels.  The walk measures several of its
levels in one distance pass, as many as a fixed budget of source work
holds (_BUDGET), so a circle pair settles in one pass.
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
    CompositeCurve,
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


# points per distance_from call: a deep pass over many cells holds no
# more than this many points' temporaries at once, as quadrature's
# _CALL_CELLS cells do per integrand call
_CHUNK = 1024

# the look-ahead of one pass of the walk, in points times curve_c's
# segments and circles (_leaves).  A distance pass's fixed set-up costs
# about as much as 150 to 250 point-leaves of its arithmetic (a ring
# source: 15 us a call and 0.1 us a point; a hexagon: 20 us and 0.08 us a
# point-segment; 2-vCPU x86-64).  Each level ahead doubles the points, so
# the last one costs about half the budget: at 96 it stays below half a
# pass's set-up, and a ring under a circle settles in one pass of 63
# points, under a hexagon of 15; budgets of 64 and 128 made the gauss_link
# benchmark's walks about 6% and 2% slower in sum.  A budget of points
# alone made the walk of a ring under a 400-gon 3 times as long; with
# this one that source looks no level ahead
_BUDGET = 96

# the distances' rounding, as a fraction of the largest coordinate of
# either curve; every cell's bound gives it up, and a cell whose Lipschitz
# slack L*h falls below it can no longer be decided by halving
_ROUNDING = 2.0**-44

# a first cell of the circulation is at most _KAPPA times as wide as its
# gap from the source, so each cell's Bernstein ellipse clears the
# field's singularities by one ratio and the 8-point rule's error falls
# at one rate however near the curves come (Trefethen, Approximation
# Theory and Approximation Practice, 2013, Thm 19.3); 2 doubles the
# cells, and their cost, near an approach
_KAPPA = 4.0


class Approach(NamedTuple):
    """The closest approach lies in [lower, upper]; t is the walked
    curve's parameter at the closest sample, the one at distance upper."""

    lower: float
    upper: float
    t: float


def _halving(curve_c: Curve, curve_l: Curve, guard: float, levels: int) -> tuple[Approach, np.ndarray]:
    """One walk along curve_l: curve_c's certified closest approach,
    decided against guard, and the breakpoints of curve_l's first cells.

    curve_c's distance d(s) from curve_l(s) is Lipschitz in s with
    constant L = curve_l.max_speed(), so a cell of half-width h about s
    keeps at least d(s) - L*h, less the distances' rounding, from curve_c
    (Piyavskii 1972, Shubert 1972).  Each level halves the open cells,
    from curve_l's smooth pieces on.  A cell is open while its bound
    is within the guard and, for the first levels levels and while a
    level has at most _CHUNK such cells, while (2 + _KAPPA) * L * h >
    _KAPPA * d(s): more than _KAPPA times as wide as its gap.  Once
    (1 + _KAPPA) * L * h <= _KAPPA * d(s) as well, its halves meet that
    rule by the Lipschitz bound, and the walk reads no level below it.
    While a cell is within the guard, the walk refuses once a sample lies
    within 2 * guard, or the cell is too narrow for its bound to rise
    above the rounding, which bounds the levels also at guard 0.  Guard
    -inf asks for the first cells alone, levels 0 for the approach alone.

    The walk looks ahead: one pass measures the midpoints of the open
    cells and of all their halves for as many levels as _BUDGET holds, at
    least one, by one curve_l.position and one curve_c.offsets and
    distance_from call per _CHUNK points.  The rule then reads each
    level's open cells among them, in the order of a pass per level, so
    the results are bitwise those of a pass per level.

    Returns (Approach(lower, upper, t), breakpoints): the closest approach
    lies in [lower, upper], lower is certified and within the guard
    exactly when the walk refused, and upper is the least sampled
    distance, at curve_l's parameter t.  The breakpoints are the smooth
    cuts and the midpoints of the cells halved for their width.  A
    curve_l with no speed bound raises TypeError.
    """
    speed = curve_l.max_speed()
    corners = np.concatenate((*curve_c.bounding_box(), *curve_l.bounding_box()))
    rounding = _ROUNDING * float(np.abs(corners).max())
    leaves = _leaves(curve_c)
    cuts = np.array(curve_l.smooth_cuts())
    kept = [cuts]
    a, b = cuts[:-1], cuts[1:]  # the open cells' ends
    upper, at = math.inf, math.nan
    settled = math.inf  # the least bound that cleared the guard
    while len(a):
        # the open cells, then each level's cells and their halves, left
        # halves first: a pass per level keeps its open cells in this order
        n = total = len(a)
        los, his = [a], [b]
        while leaves * (total + 2 * len(a)) <= _BUDGET:
            mid = 0.5 * (a + b)
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
            los.append(a)
            his.append(b)
            total += len(a)
        lo, hi = (np.concatenate(los), np.concatenate(his)) if len(los) > 1 else (a, b)
        # the midpoints' distances, _CHUNK at a time; in place: a level of
        # 2^20 cells holds few arrays of their size
        d = np.empty(len(lo))
        for k in range(0, len(lo), _CHUNK):
            mid = 0.5 * (lo[k : k + _CHUNK] + hi[k : k + _CHUNK])
            d[k : k + _CHUNK] = curve_c.distance_from(curve_c.offsets(curve_l.position(mid)))
        # each cell's slack L*h, then in its place its bound d - L*h - rounding
        bound = hi - lo
        bound *= 0.5 * speed
        # too narrow to rise above the rounding; wide; and so wide that the
        # halves may be too
        narrow_at = 2.0 * bound <= rounding
        if levels > 0:
            gap = _KAPPA * d
            wide_at, split_at = (2.0 + _KAPPA) * bound > gap, (1.0 + _KAPPA) * bound > gap
        np.subtract(d, bound, out=bound)
        bound -= rounding
        near_at = bound <= guard
        # which of a level's cells are open, where the level starts and its size
        cells, start, size = np.ones(n, dtype=bool), 0, n
        while start < len(lo):
            level = slice(start, start + size)
            dist = d[level]
            least = float(dist.min(where=cells, initial=math.inf))
            if least < upper:
                # the first open cell at that distance
                first = (cells & (dist == least)).argmax()
                upper, at = float(dist[first]), float(0.5 * (lo[level][first] + hi[level][first]))
            near, low = cells & near_at[level], float(bound[level].min(where=cells, initial=math.inf))
            if low <= guard:
                if upper <= 2.0 * guard or (near & narrow_at[level]).any():
                    return Approach(max(min(low, upper), 0.0), upper, at), cuts
                low = float(bound[level].min(where=cells & ~near, initial=math.inf))
            settled = min(settled, low)
            split = near
            if levels > 0:
                wide = cells & wide_at[level]
                count = np.count_nonzero(wide)
                # more than _CHUNK wide cells on one level are no approach
                # but a long near run, or curves that meet: the quadrature
                # refines those only where the integrand needs it, in
                # bounded time and memory
                if count > _CHUNK:
                    levels = 0
                else:
                    split = near | (cells & split_at[level])
                    if count:
                        kept.append(0.5 * (lo[level][wide] + hi[level][wide]))
            levels -= 1
            start, size = start + size, 2 * size
            cells = np.concatenate((split, split))
            if not split.any():
                break
        a, b = lo[level][split], hi[level][split]  # the last level's halved cells
        mid = 0.5 * (a + b)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    approach = Approach(max(min(settled, upper), 0.0), upper, at)
    if len(kept) == 1:
        return approach, cuts
    # np.unique's own core, a sort that drops equal neighbours, without its
    # import of numpy.ma
    breaks = np.sort(np.concatenate(kept))
    return approach, breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]


def _leaves(curve: Curve) -> int:
    """The segments and circles whose distances curve_c.distance_from
    takes per point: the source work of one sample."""
    if isinstance(curve, CompositeCurve):
        return sum(map(_leaves, curve.parts))
    return curve.segment_count if isinstance(curve, PolyLine) else 1


def curve_min_distance(curve_a: Curve, curve_b: Curve, guard: float) -> Approach:
    """Certified closest approach between two curves, decided against
    guard by the guard part of _halving's walk along curve_a: it lies in
    [lower, upper], lower <= guard exactly when the walk refused, upper is
    the least sampled distance, at curve_a's parameter t, and a pair beyond
    2 * guard is always accepted.  curve_a must state Curve.max_speed."""
    return _halving(curve_b, curve_a, guard, 0)[0]


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
        """The certified closest approach of curve_l to curve_c, t on
        curve_l; raises CurvesTooClose when it is within the guard."""
        return self._walk(spec, 0)[0]

    def _walk(self, spec: QuadratureSpec, levels: int) -> tuple[Approach, np.ndarray]:
        """validate's checks, whose walk (_halving) also halves the first
        cells for at most levels levels; the approach and their breakpoints."""
        for label, curve in (("curve_c", self.curve_c), ("curve_l", self.curve_l)):
            if not curve.closed:
                raise ValueError(f"{label} must be a closed curve")
        scale = bounding_box_diagonal([self.curve_c, self.curve_l])
        guard = spec.resolve_guard(scale)
        approach, cuts = _halving(self.curve_c, self.curve_l, guard, levels)
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
        return approach, cuts

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
    curve_c (_halving's width rule alone), so every near approach, one or
    several, is resolved from the first call on; curve_l must state its
    largest parameter speed (Curve.max_speed).  Only a bare Circle source
    still takes one 2-D quadrature, whose first cells are the products of
    both curves' smooth pieces, so every cell sees a smooth integrand.
    Its numerator is expanded about the circle's centre o as
    dm . ((l - o) x dl) + ((m - o) x dm) . dl, whose cross products are
    cached with each set of nodes, so a cell takes one matrix product of
    its nodes' terms; both curves are taken in the circle's unit.  No
    closedness is required, which lets limit studies integrate over
    sub-arcs.  Returns (value, error_estimate), the estimate being the
    quadrature's.  A source with no closed-form field raises TypeError,
    and a value or estimate that k_B takes beyond the float range
    PrefactorOverflow.
    """
    cuts = None if isinstance(curve_c, Circle) else _halving(curve_c, curve_l, -math.inf, spec.max_depth)[1]
    return _pair_integral(curve_c, curve_l, cuts, consts, spec)


def _pair_integral(
    curve_c: Curve, curve_l: Curve, cuts: Optional[np.ndarray], consts: FieldConstants, spec: QuadratureSpec
) -> tuple[float, float]:
    """gauss_pair_integral from curve_l's first cells' breakpoints cuts,
    or by the 2-D route when cuts is None."""
    if cuts is not None:

        def circulation(ss):
            field = curve_field(curve_c, curve_l.position(ss))
            return np.einsum("ij,ij->i", field, curve_l.tangent(ss))

        value, err = integrate_1d(circulation, cuts, spec)
    else:
        # A Circle has a closed form too, but the benchmark's span test pins
        # a circle-circle pair to one integrate_2d call with 8x8 nodes per
        # integrand call; this branch goes when a benchmark revision makes
        # that pin route-free.
        # About one origin o, (dm x (l - m)) . dl splits into
        # dm . ((l - o) x dl) + ((m - o) x dm) . dl: one cross product per
        # node, not per node pair.  o is the source's centre, so both
        # products stay as small as the curves wherever they sit.  The
        # integrand has no dimension, so both curves are taken in the
        # source's unit, where values in range keep their bits.
        unit = curve_c.unit
        o = curve_c.center / unit

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
                pos, tan = curve.position(ts) / unit, curve.tangent(ts) / unit
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
    One walk along curve_l validates the pair and sizes the integral's
    first cells by gauss_pair_integral's rule (LinkScene._walk); a bare
    Circle source, whose 2-D route starts from the smooth pieces, takes
    the guard part alone."""
    circle = isinstance(scene.curve_c, Circle)
    _, cuts = scene._walk(spec, 0 if circle else spec.max_depth)
    return _pair_integral(scene.curve_c, scene.curve_l, None if circle else cuts, consts, spec)


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
