"""Two independent routes to the linking number of a pair of loops.

* gauss_linking evaluates the Gauss double line integral with adaptive
  quadrature; with k_B = 1/(4*pi) it equals the circulation of the
  Biot-Savart field of one loop around the other.  When that loop is a
  polyline, its field is summed in closed form and only the circulation
  is integrated.
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
from .fields import FieldConstants, per_piece_spec, segment_field
from .geometry import (
    Circle,
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


def curve_min_distance(curve_a: Curve, curve_b: Curve, coarse: int = 192) -> float:
    """Closest approach between two curves.

    Coarse double sampling followed by local window zooms; deterministic
    and accurate far beyond guard-checking needs.
    """
    ta = np.linspace(curve_a.t_start, curve_a.t_end, coarse)
    tb = np.linspace(curve_b.t_start, curve_b.t_end, coarse)
    for _ in range(6):
        pa = curve_a.position(ta)
        pb = curve_b.position(tb)
        diff = pa[:, None, :] - pb[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        best = math.sqrt(float(d2[i, j]))
        span_a = (ta[-1] - ta[0]) / (len(ta) - 1)
        span_b = (tb[-1] - tb[0]) / (len(tb) - 1)
        ta = np.linspace(
            max(ta[i] - 2 * span_a, curve_a.t_start),
            min(ta[i] + 2 * span_a, curve_a.t_end),
            33,
        )
        tb = np.linspace(
            max(tb[j] - 2 * span_b, curve_b.t_start),
            min(tb[j] + 2 * span_b, curve_b.t_end),
            33,
        )
    return best


def vector_area(curve: Curve, samples: int = 4096) -> np.ndarray:
    """Vector area (1/2) * closed integral of r x dr of a closed curve.

    Exact for polylines and circles; dense chord sampling otherwise.
    """
    if isinstance(curve, PolyLine):
        verts = curve.vertices
        nxt = np.roll(verts, -1, axis=0)
        return 0.5 * np.cross(verts, nxt).sum(axis=0)
    if isinstance(curve, Circle):
        sign = 1.0 if curve.orientation == "ccw" else -1.0
        return sign * math.pi * curve.radius**2 * (curve.axis / np.linalg.norm(curve.axis))
    ts = np.linspace(curve.t_start, curve.t_end, samples + 1)
    pts = curve.position(ts)
    return 0.5 * np.cross(pts[:-1], pts[1:]).sum(axis=0)


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
        worst = max(
            self.curve_l.distance_to(v) for v in boundary.vertices
        )
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

    over the full parameter rectangle.  When curve_c is a PolyLine, the
    inner integral is its field in closed form (segment_field), and the
    result is the circulation k_B * integral of B_C . dl, one 1-D
    quadrature over curve_l's smooth pieces.  Otherwise the rectangle is
    split at tangent breakpoints of both curves so every 2-D quadrature
    cell sees a smooth integrand.  No closedness is required, which lets
    limit studies integrate over sub-arcs.  Returns (value,
    error_estimate), the estimate being the quadrature's.
    """
    pieces_s = curve_l.smooth_pieces()
    if isinstance(curve_c, PolyLine):
        segments = curve_c.segments()
        piece_spec = per_piece_spec(spec, len(pieces_s))

        def circulation(ss):
            field = segment_field(*segments, curve_l.position(ss))
            return np.einsum("ij,ij->i", field, curve_l.tangent(ss))

        parts = [integrate_1d(circulation, piece, piece_spec) for piece in pieces_s]
    else:
        pieces_t = curve_c.smooth_pieces()
        cell_spec = per_piece_spec(spec, len(pieces_t) * len(pieces_s))
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

        parts = [
            integrate_2d(integrand, (piece_t, piece_s), cell_spec)
            for piece_t in pieces_t
            for piece_s in pieces_s
        ]
    values, errors = zip(*parts)
    return consts.k_B * sum(map(float, values)), abs(consts.k_B) * sum(errors)


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
    for a, b in curve.smooth_pieces():
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


def combinatorial_lk(
    curve_c: Curve,
    spanning_mesh: SurfaceMesh,
    transversality_tol: float = 1e-9,
) -> int:
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
    signs, _ = segment_crossings(
        pts, np.roll(pts, -1, axis=0), spanning_mesh.nodes, transversality_tol
    )
    return int(signs.sum())
