"""Curves, surface patches, panel meshes, and signed segment crossings.

Conventions used throughout the package:

* Points and vectors are numpy arrays of shape (3,), dtype float64, with
  finite components.  Curve/patch evaluators broadcast over 1-D (and for
  patches, n-D) parameter arrays and then return arrays with a trailing
  axis of length 3.
* Curves are parametrized on [t_start, t_end].  Polylines use arc-length
  parametrization, so their tangent is the unit segment direction.
* A surface patch maps the unit square by point(u, v); its positive side
  is the direction of dpoint/du x dpoint/dv and the induced boundary runs
  counterclockwise as seen from that side.
* All objects are immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateIntersection, DegeneratePatch, NonTransversal

__all__ = [
    "as_vec3",
    "as_points",
    "bounding_box_diagonal",
    "cross",
    "Curve",
    "Circle",
    "PolyLine",
    "RectLoop",
    "CompositeCurve",
    "SurfacePatch",
    "PlanarRect",
    "Disk",
    "SurfaceMesh",
    "mesh_surface",
    "mesh_boundary",
    "segment_crossings",
]

_TWO_PI = 2.0 * math.pi


def as_vec3(value, name: str = "vector") -> np.ndarray:
    """Coerce to a finite (3,) float array; reject NaN/Inf and bad shapes."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have exactly 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite components, got {arr}")
    return arr.copy()


def as_points(value) -> tuple[np.ndarray, bool]:
    """Finite (n, 3) points from one (3,) point or an (n, 3) array, and
    whether one point was given; reject NaN/Inf and bad shapes.

    One point comes back as a (1, 3) view: the functions that take points
    treat it as a batch of one and return row 0 of their answer.
    """
    arr = np.asarray(value, dtype=float)
    single = arr.shape == (3,)
    if single:
        arr = arr[None, :]
    elif arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"points must have shape (3,) or (n, 3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must have finite components")
    return arr, single


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of two broadcastable float arrays.

    The same products and differences as np.cross, so bitwise equal to
    it, without its per-call set-up, which costs more than the arithmetic
    on one 8 x 8 quadrature cell.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    first = a1 * b2 - a2 * b1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError(f"{name} must be nonzero")
    return v / n


def _orthonormal_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed frame (u, v, a) with a = normalized axis and v = a x u.

    The in-plane seed is chosen deterministically so that identical axes
    always yield identical frames.
    """
    a = _unit(axis, "axis")
    seed = np.array([1.0, 0.0, 0.0]) if abs(a[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    u = _unit(seed - a * float(seed @ a))
    v = np.cross(a, u)
    return u, v, a


def _merge_boxes(boxes: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    los, his = zip(*boxes)
    return np.min(los, axis=0), np.max(his, axis=0)


def bounding_box_diagonal(objects: Sequence) -> float:
    """Diagonal of the joint bounding box of curves, patches or meshes;
    the scene length scale."""
    boxes = [obj.bounding_box() for obj in objects]
    lo, hi = boxes[0] if len(boxes) == 1 else _merge_boxes(boxes)
    span = hi - lo
    # the products and sum of np.linalg.norm, without its dispatch
    return math.sqrt(span @ span)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


class Curve:
    """Oriented parametric curve on [t_start, t_end]."""

    t_start: float
    t_end: float
    closed: bool

    def position(self, t):
        raise NotImplementedError

    def tangent(self, t):
        raise NotImplementedError

    def breakpoints(self) -> np.ndarray:
        """Interior parameters where the tangent may jump (none by default)."""
        return np.empty(0)

    def smooth_cuts(self) -> tuple[float, ...]:
        """Increasing parameters t_start, ..., t_end; the curve is smooth between them."""
        cuts = [self.t_start, *np.asarray(self.breakpoints(), float), self.t_end]
        return tuple(float(b) for a, b in zip([-math.inf, *cuts], cuts) if b > a)

    def reversed(self) -> "Curve":
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def distance_to(self, point):
        """Distance from a point, or the (n,) distances from (n, 3) points."""
        raise NotImplementedError


class Circle(Curve):
    """Circle of given center/radius in the plane normal to `axis`.

    Parametrized on [0, 2*pi].  With orientation "ccw" the traversal is
    counterclockwise as seen from the +axis side (right-hand rule); "cw"
    is the reverse traversal.
    """

    def __init__(self, center, radius: float, axis, orientation: str = "ccw"):
        if radius <= 0.0 or not math.isfinite(radius):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        if orientation not in ("ccw", "cw"):
            raise ValueError(f"orientation must be 'ccw' or 'cw', got {orientation!r}")
        self.center = _frozen(as_vec3(center, "center"))
        self.radius = float(radius)
        self.axis = _frozen(as_vec3(axis, "axis"))
        self.orientation = orientation
        u, v, a = _orthonormal_frame(self.axis)
        self._u = _frozen(u)
        self._v = _frozen(v if orientation == "ccw" else -v)
        self._a = _frozen(a)
        # per-axis half-extent of a 3-D circle: R * sqrt(1 - a_i^2)
        ext = self.radius * np.sqrt(np.clip(1.0 - a**2, 0.0, 1.0))
        self._box = (_frozen(self.center - ext), _frozen(self.center + ext))
        self.t_start = 0.0
        self.t_end = _TWO_PI
        self.closed = True

    def position(self, t):
        t = np.asarray(t, dtype=float)
        ct, st = np.cos(t), np.sin(t)
        return self.center + self.radius * (
            np.multiply.outer(ct, self._u) + np.multiply.outer(st, self._v)
        )

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        ct, st = np.cos(t), np.sin(t)
        return self.radius * (
            np.multiply.outer(-st, self._u) + np.multiply.outer(ct, self._v)
        )

    def reversed(self) -> "Circle":
        flipped = "cw" if self.orientation == "ccw" else "ccw"
        return Circle(self.center, self.radius, self.axis, flipped)

    def bounding_box(self):
        return self._box

    def _axial(self, pts):
        """(height along the axis, distance from the axis) of (n, 3) points."""
        rel = pts - self.center
        z = rel @ self._a
        radial = rel - z[:, None] * self._a
        # np.linalg.norm's own sum, without its per-call set-up
        return z, np.sqrt(np.add.reduce(radial * radial, axis=1))

    def distance_to(self, point):
        pts, single = as_points(point)
        z, rho = self._axial(pts)
        dist = np.hypot(rho - self.radius, z)
        return float(dist[0]) if single else dist


class PolyLine(Curve):
    """Piecewise-straight curve, arc-length parametrized.

    `vertices` are traversed in order; with closed=True the final segment
    returns to the first vertex (a duplicated last vertex is dropped).
    The tangent is the unit direction of the current segment; at an
    interior vertex parameter the outgoing segment wins.
    """

    def __init__(self, vertices, closed: bool = False):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must have shape (n, 3), got {verts.shape}")
        if not np.isfinite(verts).all():
            raise ValueError("vertices must have finite components")
        if closed and len(verts) > 1 and np.array_equal(verts[0], verts[-1]):
            verts = verts[:-1]
        if len(verts) < 2:
            raise ValueError("polyline needs at least 2 distinct vertices")
        starts = verts
        ends = np.roll(verts, -1, axis=0) if closed else verts[1:]
        if not closed:
            starts = verts[:-1]
        chords = ends - starts
        lengths = np.linalg.norm(chords, axis=1)
        if np.any(lengths == 0.0):
            raise ValueError("polyline has a zero-length segment")
        self.vertices = _frozen(verts)
        self._box = (_frozen(verts.min(axis=0)), _frozen(verts.max(axis=0)))
        self.closed = bool(closed)
        self._starts = _frozen(starts)
        self._ends = _frozen(ends)
        self._dirs = _frozen(chords / lengths[:, None])
        self._lengths = _frozen(lengths)
        cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self._cum = _frozen(cum)
        self.t_start = 0.0
        self.t_end = float(cum[-1])

    @property
    def segment_count(self) -> int:
        return len(self._lengths)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of the straight segments, (k, 3) each, in
        traversal order; the ends are the vertices themselves."""
        return self._starts, self._ends

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cum, t, side="right") - 1
        return np.clip(idx, 0, self.segment_count - 1)

    def position(self, t):
        arr = np.asarray(t, dtype=float)
        idx = self._segment_index(np.atleast_1d(arr))
        local = np.atleast_1d(arr) - self._cum[idx]
        pos = self._starts[idx] + local[:, None] * self._dirs[idx]
        return pos[0] if arr.ndim == 0 else pos

    def tangent(self, t):
        arr = np.asarray(t, dtype=float)
        idx = self._segment_index(np.atleast_1d(arr))
        tan = self._dirs[idx]
        return tan[0] if arr.ndim == 0 else tan.copy()

    def breakpoints(self) -> np.ndarray:
        return self._cum[1:-1].copy()

    def reversed(self) -> "PolyLine":
        if self.closed:
            # same cycle, opposite traversal, same start vertex
            verts = np.concatenate((self.vertices[:1], self.vertices[:0:-1]))
        else:
            verts = self.vertices[::-1]
        return PolyLine(verts, closed=self.closed)

    def bounding_box(self):
        return self._box

    def distance_to(self, point):
        pts, single = as_points(point)
        p = pts[:, None, :]
        proj = np.einsum("pij,ij->pi", p - self._starts, self._dirs)
        proj = np.minimum(np.maximum(proj, 0.0), self._lengths)  # np.clip, without its set-up
        closest = self._starts + proj[..., None] * self._dirs
        gap = p - closest
        dist = np.sqrt(np.add.reduce(gap * gap, axis=2)).min(axis=1)
        return float(dist[0]) if single else dist


class RectLoop(PolyLine):
    """Closed rectangle with one leg on the z-axis, extent n.

    Traverses (0,0,-n) -> (0,0,n) -> (n,0,n) -> (n,0,-n) -> close.  Used
    by the straight-wire limit study: the first leg approximates an
    infinite upward wire through the unit circle as n grows.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        self.n = int(n)
        verts = [
            (0.0, 0.0, -float(n)),
            (0.0, 0.0, float(n)),
            (float(n), 0.0, float(n)),
            (float(n), 0.0, -float(n)),
        ]
        super().__init__(verts, closed=True)


class CompositeCurve(Curve):
    """Concatenation of curves traversed in order, parameter ranges stacked."""

    def __init__(self, parts: Sequence[Curve]):
        if not parts:
            raise ValueError("composite curve needs at least one part")
        self.parts = tuple(parts)
        spans = [p.t_end - p.t_start for p in self.parts]
        bounds = np.concatenate(([0.0], np.cumsum(spans)))
        self._bounds = _frozen(bounds)
        self.t_start = 0.0
        self.t_end = float(bounds[-1])
        start = self.parts[0].position(self.parts[0].t_start)
        end = self.parts[-1].position(self.parts[-1].t_end)
        scale = max(bounding_box_diagonal(self.parts), 1.0)
        self.closed = bool(np.linalg.norm(end - start) <= 1e-12 * scale)

    def _map_params(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.searchsorted(self._bounds, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.parts) - 1)
        return idx, t - self._bounds[idx]

    def _eval(self, t, attr: str):
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        idx, local = self._map_params(flat)
        out = np.empty((len(flat), 3))
        for k, part in enumerate(self.parts):
            mask = idx == k
            if np.any(mask):
                out[mask] = getattr(part, attr)(part.t_start + local[mask])
        return out[0] if arr.ndim == 0 else out

    def position(self, t):
        return self._eval(t, "position")

    def tangent(self, t):
        return self._eval(t, "tangent")

    def breakpoints(self) -> np.ndarray:
        cuts = [self._bounds[1:-1]]
        for k, part in enumerate(self.parts):
            inner = np.asarray(part.breakpoints(), float)
            if inner.size:
                cuts.append(inner - part.t_start + self._bounds[k])
        return np.sort(np.concatenate(cuts))

    def reversed(self) -> "CompositeCurve":
        return CompositeCurve([p.reversed() for p in reversed(self.parts)])

    def bounding_box(self):
        return _merge_boxes(p.bounding_box() for p in self.parts)

    def distance_to(self, point):
        pts, single = as_points(point)
        dist = np.min([p.distance_to(pts) for p in self.parts], axis=0)
        return float(dist[0]) if single else dist


# ---------------------------------------------------------------------------
# Surface patches
# ---------------------------------------------------------------------------


class SurfacePatch:
    """Oriented parametric patch over the unit square [0,1]^2.

    The package's patches are flat, with a closed-form rim and an exact
    distance; a curved surface enters only through point(u, v), as the
    nodes of its mesh (mesh_surface).
    """

    def point(self, u, v) -> np.ndarray:
        raise NotImplementedError

    def constant_normal(self) -> Optional[np.ndarray]:
        """Unit normal if the patch is planar, else None."""
        return None

    def rim(self) -> Optional[Curve]:
        """The closed boundary curve, counterclockwise about the positive
        side, if the patch is flat, else None.

        Flat patches hand their fields to the rim: the Coulomb field of a
        charged flat sheet is the solid angle its rim subtends (along the
        normal) plus a line integral around the rim (in the plane).
        """
        return None

    def bounding_box(self):
        """A flat patch's box, which is its rim's."""
        return self.rim().bounding_box()

    def distance_to(self, point):
        """Distance from a point to the patch, or the (n,) distances from
        (n, 3) points."""
        raise NotImplementedError


class PlanarRect(SurfacePatch):
    """Flat parallelogram patch: corner + u*edge_a + v*edge_b."""

    def __init__(self, corner, edge_a, edge_b):
        self.corner = _frozen(as_vec3(corner, "corner"))
        self.edge_a = _frozen(as_vec3(edge_a, "edge_a"))
        self.edge_b = _frozen(as_vec3(edge_b, "edge_b"))
        n = np.cross(self.edge_a, self.edge_b)
        # hypot scales before it squares, so no edge length over- or underflows
        mag = math.hypot(*n)
        if mag <= 1e-12 * math.hypot(*self.edge_a) * math.hypot(*self.edge_b):
            raise DegeneratePatch("edge_a x edge_b vanishes")
        self._normal = _frozen(n / mag)
        c, a, b = self.corner, self.edge_a, self.edge_b
        corners = np.array([c, c + a, c + a + b, c + b])
        self._rim = PolyLine(corners, closed=True)
        # columns e_a*, e_b* of the dual basis and the unit normal:
        # (alpha, beta, height) = (p - corner) @ frame
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        duals = np.linalg.inv(gram) @ np.array([a, b])
        self._frame = _frozen(np.column_stack((*duals, self._normal)))

    def point(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return (
            self.corner
            + np.multiply.outer(u, self.edge_a)
            + np.multiply.outer(v, self.edge_b)
        )

    def constant_normal(self):
        return self._normal.copy()

    def rim(self) -> PolyLine:
        return self._rim

    def distance_to(self, point):
        pts, single = as_points(point)
        coords = (pts - self.corner) @ self._frame
        # over the parallelogram the height, beside it the rim's distance;
        # min(t, 1 - t) < 0 exactly where t < 0 or t > 1
        dist = np.abs(coords[:, 2])
        ab = coords[:, :2]
        margin = np.minimum(ab, 1.0 - ab)
        if margin.min(initial=0.0) < 0.0:
            beside = margin.min(axis=1) < 0.0
            dist[beside] = self._rim.distance_to(pts[beside])
        return float(dist[0]) if single else dist


class Disk(SurfacePatch):
    """Flat disk patch via a smooth square-to-disk map.

    Uses the elliptical mapping (x*sqrt(1-y^2/2), y*sqrt(1-x^2/2)) on
    [-1,1]^2, which sends the square boundary onto the circle exactly and
    whose Jacobian vanishes only at the four parameter corners.  Unlike a
    polar map it produces no degenerate interior panels when meshed.
    """

    def __init__(self, center, radius: float, axis):
        # the square's boundary maps onto this circle, counterclockwise
        # about the positive side
        rim = self._rim = Circle(center, radius, axis, "ccw")
        self.center, self.radius, self.axis = rim.center, rim.radius, rim.axis
        self._u, self._v, self._a = rim._u, rim._v, rim._a

    def point(self, u, v):
        x = 2.0 * np.asarray(u, dtype=float) - 1.0
        y = 2.0 * np.asarray(v, dtype=float) - 1.0
        px, py = x * np.sqrt(1.0 - 0.5 * y**2), y * np.sqrt(1.0 - 0.5 * x**2)
        return self.center + self.radius * (
            np.multiply.outer(px, self._u) + np.multiply.outer(py, self._v)
        )

    def constant_normal(self):
        return self._a.copy()

    def rim(self) -> Circle:
        return self._rim

    def distance_to(self, point):
        pts, single = as_points(point)
        z, rho = self._rim._axial(pts)
        # over the disk the height, beside it the rim's distance
        dist = np.where(rho <= self.radius, np.abs(z), np.hypot(rho - self.radius, z))
        return float(dist[0]) if single else dist


# ---------------------------------------------------------------------------
# Panels and meshes
# ---------------------------------------------------------------------------


class SurfaceMesh:
    """M x N grid of four-node cells, from an (M+1, N+1, 3) grid of nodes.

    Cell (i, j) has the corners nodes[i, j], nodes[i+1, j], nodes[i+1, j+1]
    and nodes[i, j+1] in that order; interior grid edges are traversed by
    exactly two adjacent cells in opposite directions, so they cancel from
    the mesh boundary.  The dipole sum sees a cell as one point dipole
    (cell_centers, cell_vector_areas), and the counting route as the two
    triangles of its 0-2 diagonal (see segment_crossings), which tile the
    mesh without gaps or overlaps on a curved patch too.
    """

    def __init__(self, nodes: np.ndarray):
        self.m, self.n = nodes.shape[0] - 1, nodes.shape[1] - 1
        self.nodes = _frozen(nodes)
        bases = nodes[:-1, :-1, :]
        self._edges_a = _frozen(nodes[1:, :-1, :] - bases)
        self._edges_b = _frozen(nodes[:-1, 1:, :] - bases)
        norms = np.linalg.norm(np.cross(self._edges_a, self._edges_b), axis=-1)
        if float(norms.min()) <= 1e-13 * float(norms.max()):
            raise DegeneratePatch(
                f"mesh {self.m}x{self.n} has (near-)degenerate panels: min area {norms.min():g}"
            )

    @property
    def cell_centers(self) -> np.ndarray:
        """Average of the four grid-node corners per cell."""
        n = self.nodes
        return 0.25 * (n[:-1, :-1] + n[1:, :-1] + n[:-1, 1:] + n[1:, 1:])

    @property
    def cell_vector_areas(self) -> np.ndarray:
        """Vector area enclosed by each cell's four-node boundary loop.

        Half the cross product of the cell diagonals; summed over all
        cells this telescopes exactly to the vector area of the mesh
        boundary polygon.  For a parallelogram cell it is the cross
        product of the two edges leaving node (i, j).
        """
        n = self.nodes
        d1 = n[1:, 1:] - n[:-1, :-1]
        d2 = n[:-1, 1:] - n[1:, :-1]
        return 0.5 * np.cross(d1, d2)

    def min_edge_length(self) -> float:
        la = np.linalg.norm(self._edges_a, axis=-1)
        lb = np.linalg.norm(self._edges_b, axis=-1)
        return float(min(la.min(), lb.min()))

    def bounding_box(self):
        pts = self.nodes.reshape(-1, 3)
        return pts.min(axis=0), pts.max(axis=0)


def mesh_surface(patch: SurfacePatch, m: int, n: int) -> SurfaceMesh:
    """Mesh a patch by the m x n grid of cells between the nodes
    patch.point(i/m, j/n), i = 0..m, j = 0..n."""
    if m < 1 or n < 1:
        raise ValueError(f"mesh dimensions must be >= 1, got {m}x{n}")
    uu = np.linspace(0.0, 1.0, m + 1)
    vv = np.linspace(0.0, 1.0, n + 1)
    nodes = patch.point(uu[:, None], vv[None, :])
    if nodes.shape != (m + 1, n + 1, 3):
        raise DegeneratePatch(f"patch evaluator returned shape {nodes.shape}")
    if not np.all(np.isfinite(nodes)):
        raise DegeneratePatch("patch evaluator returned non-finite nodes")
    return SurfaceMesh(nodes)


def mesh_boundary(mesh: SurfaceMesh) -> PolyLine:
    """Outer boundary of the mesh as a closed polyline in induced orientation.

    The perimeter of the (m+1) x (n+1) node grid from node (0, 0): along
    i at j = 0, along j at i = m, back along i at j = n and back along j
    at i = 0.  These are the cell edges (i, j) -> (i+1, j) -> (i+1, j+1)
    -> (i, j+1) that no second cell cancels.  Requires the patch map to be
    injective on the closed unit square, which holds for all shipped
    patch kinds.
    """
    nodes = mesh.nodes
    perimeter = (nodes[:-1, 0], nodes[-1, :-1], nodes[:0:-1, -1], nodes[0, :0:-1])
    return PolyLine(np.concatenate(perimeter), closed=True)


# ---------------------------------------------------------------------------
# Signed segment crossings through a triangulated quad grid
# ---------------------------------------------------------------------------

# the broad phase's tree of boxes merges _FAN x _FAN boxes per level, and
# its segments go down it in chunks that bound the temporary arrays
_FAN = 4
_SEGMENT_CHUNK = 1 << 12

# each cell (c0, c1, c2, c3) splits along its 0-2 diagonal
_CELL_TRIANGLES = np.array([[0, 1, 2], [0, 2, 3]])

# a crossing this close to parallel to its triangle (|cos angle| between
# the segment and the normal) is glancing, not transversal
_TRANSVERSALITY_TOL = 1e-9

# bound on the rounding error of a float triple product of differences,
# as a multiple of its permanent (Shewchuk 1997, orient3d, (7 + 56u)u)
_ORIENT_ERR = 8.0 * 2.0**-53


def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _edge_orientations(tri, origin, direction):
    """direction . ((A - origin) x (B - origin)) for edges AB, BC, CA, and
    a bound on its rounding error."""
    rel = tri - origin[:, None, :]
    nxt = rel[:, [1, 2, 0]]
    d = direction[:, None, :]
    r, q = np.abs(rel), np.abs(nxt)
    abs_cross = r[..., [1, 2, 0]] * q[..., [2, 0, 1]] + r[..., [2, 0, 1]] * q[..., [1, 2, 0]]
    permanent = _dot(np.abs(d), abs_cross)
    return _dot(d, cross(rel, nxt)), _ORIENT_ERR * permanent


def _candidate_pairs(p0s, p1s, cells):
    """Segment and cell indices of every pair whose bounding boxes overlap,
    grouped by segment in ascending order.

    `cells` holds the (m, n, 4, 3) cell corners.  The leaves of a tree of
    boxes are the cells of the grid padded to the least power _FAN^k >=
    max(m, n) on each side, so a 17 x 17 mesh has 64 x 64 leaf boxes, and
    each level above merges _FAN x _FAN boxes.  The tree is rebuilt on
    every call, on purpose: callers mesh once per run, and elementwise
    maxima of strided slices fold each level in a few numpy calls.  The
    build is a fixed cost that grows with the padded leaf count, not with
    the segments.  Segments go down the tree level by level in whole arrays:
    only this traversal grows with the logarithm of the mesh size, and it
    follows the segments near the mesh whatever its turn in space.

    A box is stored as (hi, -lo) and a segment as the key (lo, -hi): they
    overlap exactly when key <= box in all six components, so a level
    costs one gather of keys, one of boxes and one comparison.  Negation
    and comparison are exact, so no crossing is lost.  Padding boxes are
    -inf and overlap nothing.
    """
    m, n = cells.shape[:2]
    size = _FAN
    while size < max(m, n):
        size *= _FAN
    # components first, so that a gather takes whole rows and the six
    # comparisons reduce across them
    box = np.full((6, size, size), -np.inf)
    corners = cells.transpose(2, 3, 0, 1)
    box[:3, :m, :n] = reduce(np.maximum, corners)
    box[3:, :m, :n] = -reduce(np.minimum, corners)
    levels = [box]
    while box.shape[1] > 1:
        box = reduce(np.maximum, (box[:, k::_FAN] for k in range(_FAN)))
        box = reduce(np.maximum, (box[:, :, k::_FAN] for k in range(_FAN)))
        levels.append(box)
    di, dj = np.divmod(np.arange(_FAN * _FAN), _FAN)
    keys = np.concatenate([np.minimum(p0s, p1s).T, -np.maximum(p0s, p1s).T])
    seg_ids, cell_ids = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for start in range(0, len(p0s), _SEGMENT_CHUNK):
        seg = np.arange(start, min(start + _SEGMENT_CHUNK, len(p0s)))
        i = j = np.zeros(len(seg), dtype=int)
        for depth, box in enumerate(reversed(levels)):
            if depth:
                seg = np.repeat(seg, _FAN * _FAN)
                i, j = (_FAN * i[:, None] + di).ravel(), (_FAN * j[:, None] + dj).ravel()
            boxes = box.reshape(6, -1).take(i * box.shape[1] + j, axis=1)
            hit = np.flatnonzero((keys.take(seg, axis=1) <= boxes).all(axis=0))
            seg, i, j = seg[hit], i[hit], j[hit]
        seg_ids.append(seg)
        cell_ids.append(i * n + j)
    return np.concatenate(seg_ids), np.concatenate(cell_ids)


def _exact_side(p0, p1, a, b) -> tuple[int, int]:
    """Exact sign of (p1 - p0) . ((a - p0) x (b - p0)), and the sign it
    takes once the line p0 p1 moves by an infinitesimal e_x, then e_y,
    then e_z: that of -e . ((b - a) x (p1 - p0)).

    Both are antisymmetric in a and b, so the two triangles sharing an
    edge always see it from opposite sides.  Every binary float is an
    integer times a power of two, so all twelve coordinates are scaled by
    one common power of two to Python ints; both expressions are
    homogeneous, which leaves their signs unchanged.
    """
    ratios = [float(x).as_integer_ratio() for v in (p0, p1, a, b) for x in v]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    p0, p1, a, b = ints[0:3], ints[3:6], ints[6:9], ints[9:12]
    d, u, v = ([x - y for x, y in zip(q, p0)] for q in (p1, a, b))
    e = [x - y for x, y in zip(v, u)]
    side = _sign(sum(d[i] * (u[i - 2] * v[i - 1] - u[i - 1] * v[i - 2]) for i in range(3)))
    ties = (_sign(d[i - 2] * e[i - 1] - d[i - 1] * e[i - 2]) for i in range(3))
    return side, next((t for t in ties if t), 0)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def segment_crossings(starts, ends, nodes):
    """Signed crossings of segments through a quad grid split into triangles.

    `nodes` is an (m+1, n+1, 3) grid: cell (i, j) has the corners
    nodes[i, j], nodes[i+1, j], nodes[i+1, j+1], nodes[i, j+1] and splits
    along its 0-2 diagonal into two triangles, which tile the grid with no
    gaps or overlaps.  A bounding-box broad phase picks the candidate
    segment x cell pairs.  A segment crosses a triangle when its endpoints
    lie strictly on opposite sides of the triangle's plane and its line
    passes through the triangle, judged by the signs of the three edge
    orientations (p1 - p0) . ((A - p0) x (B - p0)).  Each is computed in
    floating point and, when its error bound does not fix the sign, again
    in exact integer arithmetic.  An orientation of exactly zero (the
    line meets an interior edge or node) takes the sign it has once the
    line moves by an infinitesimal fixed vector, so such a crossing counts
    exactly once.

    Returns (signs, points), one entry per crossing, with sign the sign of
    (end - start) . triangle normal.  Raises NonTransversal when a crossing
    direction has |cos angle| < 1e-9 with the triangle's normal, and
    DegenerateIntersection when a crossing lies exactly on the grid's
    outer boundary or an endpoint lies exactly on a triangle's plane
    inside the triangle.  The error names its segment x triangle pair by
    attributes: `segment`, an index into `starts`; `cell`, the (i, j) of
    the cell; and `triangle`, 0 for corners (0, 1, 2) and 1 for (0, 2, 3).
    DegenerateIntersection names the first such pair, and NonTransversal
    the most glancing crossing, with its `cos_angle`.
    """
    p0s = np.asarray(starts, dtype=float).reshape(-1, 3)
    p1s = np.asarray(ends, dtype=float).reshape(-1, 3)
    m, n = nodes.shape[0] - 1, nodes.shape[1] - 1
    cells = np.stack([nodes[:-1, :-1], nodes[1:, :-1], nodes[1:, 1:], nodes[:-1, 1:]], axis=2)
    seg, cell = (np.repeat(ids, 2) for ids in _candidate_pairs(p0s, p1s, cells))
    cells = cells.reshape(-1, 4, 3)
    half = np.tile([0, 1], len(cell) // 2)
    tri = cells[cell[:, None], _CELL_TRIANGLES[half]]

    def pair(row):
        """The error attributes of candidate row `row`."""
        return {"segment": int(seg[row]), "cell": divmod(int(cell[row]), n), "triangle": int(half[row])}

    p0, p1 = p0s[seg], p1s[seg]
    d = p1 - p0
    a = tri[:, 0]
    normal = cross(tri[:, 1] - a, tri[:, 2] - a)
    s0, s1 = _dot(normal, p0 - a), _dot(normal, p1 - a)
    for end, s in ((p0, s0), (p1, s1)):
        k = np.flatnonzero(s == 0.0)
        if not len(k):
            continue
        inside = np.all(_edge_orientations(tri[k], end[k], normal[k])[0] >= 0.0, axis=1)
        if inside.any():
            raise DegenerateIntersection(
                "sample endpoint lies on a triangle's plane inside the triangle; "
                "refine or perturb the sampling",
                **pair(k[inside.argmax()]),
            )

    k = np.flatnonzero(np.sign(s0) * np.sign(s1) < 0.0)
    w, err = _edge_orientations(tri[k], p0[k], d[k])
    side, tie = np.sign(w).astype(int), np.zeros_like(w, dtype=int)
    for r, e in zip(*np.nonzero(np.abs(w) <= err)):
        q = k[r]
        side[r, e], tie[r, e] = _exact_side(p0[q], p1[q], tri[q, e], tri[q, (e + 1) % 3])
    closed = np.all(side >= 0, axis=1) | np.all(side <= 0, axis=1)
    k, side, tie = k[closed], side[closed], tie[closed]
    cos_angle = np.abs(_dot(d[k], normal[k])) / (
        np.linalg.norm(d[k], axis=1) * np.linalg.norm(normal[k], axis=1)
    )
    if np.any(cos_angle < _TRANSVERSALITY_TOL):
        r = cos_angle.argmin()
        raise NonTransversal(
            f"crossing direction nearly parallel to the surface (|cos| = {cos_angle[r]:g})",
            cos_angle=float(cos_angle[r]),
            **pair(k[r]),
        )
    i, j = np.divmod(cell[k], n)
    upper = half[k] == 1
    # edges AB, BC, CA of each triangle on the outer boundary; the
    # diagonal never is
    rim = np.column_stack(
        [~upper & (j == 0), np.where(upper, j == n - 1, i == m - 1), upper & (i == 0)]
    )
    on_rim = rim & (side == 0)
    if on_rim.any():
        r = on_rim.any(axis=1).argmax()
        raise DegenerateIntersection(
            "crossing lies exactly on the surface's outer boundary",
            **pair(k[r]),
        )
    side = np.where(side == 0, tie, side)
    hit = np.all(side > 0, axis=1) | np.all(side < 0, axis=1)
    k = k[hit]
    tau = s0[k] / (s0[k] - s1[k])
    return side[hit, 0], p0[k] + tau[:, None] * d[k]

