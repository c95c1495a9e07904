"""Curves, surface patches, panel meshes, and signed segment crossings.

Conventions used throughout the package:

* Points and vectors are numpy arrays of shape (3,), dtype float64, with
  finite components.  Curve/patch evaluators broadcast over 1-D (and for
  patches, n-D) parameter arrays and then return arrays with a trailing
  axis of length 3.
* Curves are parametrized on [t_start, t_end].  Polylines use arc-length
  parametrization, so their tangent is the unit segment direction.
* A surface patch maps the unit square; its positive side is the
  direction of du x dv and the induced boundary runs counterclockwise as
  seen from that side.
* All objects are immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateIntersection,
    DegeneratePatch,
    NonTransversal,
    ParamOutOfRange,
)

__all__ = [
    "as_vec3",
    "bounding_box_diagonal",
    "cross",
    "Curve",
    "Circle",
    "PolyLine",
    "RectLoop",
    "CompositeCurve",
    "eval_curve",
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


def _as_points(value) -> tuple[np.ndarray, bool]:
    """Finite (n, 3) points from one point or an (n, 3) array, and whether
    one point was given."""
    arr = np.asarray(value, dtype=float)
    if arr.shape == (3,):
        return as_vec3(arr, "point")[None, :], True
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"points must have shape (3,) or (n, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must have finite components")
    return arr, False


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
    """Diagonal of the joint bounding box; the scene length scale.

    Accepts curves, patches, meshes, and bare points.
    """
    boxes = []
    for obj in objects:
        if hasattr(obj, "bounding_box"):
            boxes.append(obj.bounding_box())
        else:
            p = as_vec3(obj, "point")
            boxes.append((p, p))
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

    @property
    def param_interval(self) -> tuple[float, float]:
        return (self.t_start, self.t_end)

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

    def _check_param(self, t) -> None:
        span = self.t_end - self.t_start
        slack = 1e-12 * max(span, 1.0)
        arr = np.asarray(t, dtype=float)
        if np.any(arr < self.t_start - slack) or np.any(arr > self.t_end + slack):
            raise ParamOutOfRange(
                f"parameter {t} outside [{self.t_start}, {self.t_end}]"
            )


def eval_curve(curve: Curve, t) -> tuple[np.ndarray, np.ndarray]:
    """Return (position, tangent) of the curve at parameter t.

    At a polyline vertex the tangent of the outgoing segment is returned;
    at the final parameter of a closed polyline, the last segment's.
    """
    curve._check_param(t)
    return curve.position(t), curve.tangent(t)


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

    def distance_to(self, point):
        pts, single = _as_points(point)
        rel = pts - self.center
        z = rel @ self._a
        rho = np.linalg.norm(rel - z[:, None] * self._a, axis=1)
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
        verts = np.array([as_vec3(v, "vertex") for v in vertices], dtype=float)
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
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def distance_to(self, point):
        pts, single = _as_points(point)
        p = pts[:, None, :]
        proj = np.einsum("pij,ij->pi", p - self._starts, self._dirs)
        proj = np.clip(proj, 0.0, self._lengths)
        closest = self._starts + proj[..., None] * self._dirs
        dist = np.linalg.norm(p - closest, axis=2).min(axis=1)
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

    def reversed(self) -> PolyLine:
        return PolyLine(self.vertices, closed=True).reversed()


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
        return np.sort(np.concatenate(cuts)) if cuts else np.empty(0)

    def reversed(self) -> "CompositeCurve":
        return CompositeCurve([p.reversed() for p in reversed(self.parts)])

    def bounding_box(self):
        return _merge_boxes(p.bounding_box() for p in self.parts)

    def distance_to(self, point):
        pts, single = _as_points(point)
        dist = np.min([p.distance_to(pts) for p in self.parts], axis=0)
        return float(dist[0]) if single else dist


# ---------------------------------------------------------------------------
# Surface patches
# ---------------------------------------------------------------------------


class SurfacePatch:
    """Oriented parametric patch over the unit square [0,1]^2."""

    def point(self, u, v) -> np.ndarray:
        raise NotImplementedError

    def du(self, u, v) -> np.ndarray:
        raise NotImplementedError

    def dv(self, u, v) -> np.ndarray:
        raise NotImplementedError

    def normal(self, u, v) -> np.ndarray:
        n = cross(self.du(u, v), self.dv(u, v))
        mag = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / mag

    def element(self, u, v) -> tuple[np.ndarray, np.ndarray | float]:
        """(point, |du x dv|): the position and the area element at (u, v).

        Subclasses with a closed-form Jacobian override this; a constant
        one may come back as a float, which broadcasts.
        """
        n = cross(self.du(u, v), self.dv(u, v))
        return self.point(u, v), np.linalg.norm(n, axis=-1)

    def constant_normal(self) -> Optional[np.ndarray]:
        """Unit normal if the patch is planar, else None."""
        return None

    def rim(self) -> Optional[Curve]:
        """The closed boundary curve, counterclockwise about du x dv, if
        the patch is flat, else None.

        Flat patches hand their fields to the rim: the Coulomb field of a
        charged flat sheet is the solid angle its rim subtends (along the
        normal) plus a line integral around the rim (in the plane).
        """
        return None

    def bounding_box(self):
        grid = np.linspace(0.0, 1.0, 17)
        pts = self.point(grid[:, None], grid[None, :]).reshape(-1, 3)
        return pts.min(axis=0), pts.max(axis=0)

    def distance_to(self, point) -> float:
        """Distance from a point to the patch (sampled; exact in subclasses)."""
        p = as_vec3(point, "point")
        u_lo, u_hi = 0.0, 1.0
        v_lo, v_hi = 0.0, 1.0
        best = None
        # coarse grid with zoom rounds; plenty for guard checks
        for _ in range(4):
            uu = np.linspace(u_lo, u_hi, 33)
            vv = np.linspace(v_lo, v_hi, 33)
            pts = self.point(uu[:, None], vv[None, :])
            d = np.linalg.norm(pts - p, axis=-1)
            i, j = np.unravel_index(np.argmin(d), d.shape)
            best = float(d[i, j])
            span_u = (u_hi - u_lo) / 8.0
            span_v = (v_hi - v_lo) / 8.0
            u_lo, u_hi = max(uu[i] - span_u, 0.0), min(uu[i] + span_u, 1.0)
            v_lo, v_hi = max(vv[j] - span_v, 0.0), min(vv[j] + span_v, 1.0)
        return best


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
        self._area = mag
        c, a, b = self.corner, self.edge_a, self.edge_b
        corners = np.array([c, c + a, c + a + b, c + b])
        self._rim = PolyLine(corners, closed=True)
        self._box = (_frozen(corners.min(axis=0)), _frozen(corners.max(axis=0)))
        # rows e_a*, e_b* of the dual basis: (alpha, beta) = duals @ (p - corner)
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        self._duals = _frozen(np.linalg.inv(gram) @ np.array([a, b]))

    def point(self, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        return (
            self.corner
            + np.multiply.outer(u, self.edge_a)
            + np.multiply.outer(v, self.edge_b)
        )

    def du(self, u, v):
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return np.broadcast_to(self.edge_a, shape + (3,)).copy()

    def dv(self, u, v):
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        return np.broadcast_to(self.edge_b, shape + (3,)).copy()

    def element(self, u, v):
        return self.point(u, v), self._area

    def constant_normal(self):
        return self._normal.copy()

    def rim(self) -> PolyLine:
        return self._rim

    def bounding_box(self):
        return self._box

    def distance_to(self, point) -> float:
        p = as_vec3(point, "point")
        rel = p - self.corner
        alpha, beta = self._duals @ rel
        if 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0:
            return abs(float(rel @ self._normal))
        return self._rim.distance_to(p)


class Disk(SurfacePatch):
    """Flat disk patch via a smooth square-to-disk map.

    Uses the elliptical mapping (x*sqrt(1-y^2/2), y*sqrt(1-x^2/2)) on
    [-1,1]^2, which sends the square boundary onto the circle exactly and
    whose Jacobian vanishes only at the four parameter corners.  Unlike a
    polar map it produces no degenerate interior panels when meshed.
    """

    def __init__(self, center, radius: float, axis):
        if radius <= 0.0 or not math.isfinite(radius):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.center = _frozen(as_vec3(center, "center"))
        self.radius = float(radius)
        self.axis = _frozen(as_vec3(axis, "axis"))
        u, v, a = _orthonormal_frame(self.axis)
        self._u = _frozen(u)
        self._v = _frozen(v)
        self._a = _frozen(a)
        # the square's boundary maps onto this circle, counterclockwise about du x dv
        self._rim = Circle(self.center, self.radius, self.axis, "ccw")

    @staticmethod
    def _square(u, v):
        """x = 2u - 1, y = 2v - 1, sx = sqrt(1 - x^2 / 2), sy = sqrt(1 - y^2 / 2)."""
        x = 2.0 * np.asarray(u, dtype=float) - 1.0
        y = 2.0 * np.asarray(v, dtype=float) - 1.0
        return x, y, np.sqrt(1.0 - 0.5 * x**2), np.sqrt(1.0 - 0.5 * y**2)

    def _in_plane(self, px, py):
        return self.center + self.radius * (
            np.multiply.outer(px, self._u) + np.multiply.outer(py, self._v)
        )

    def point(self, u, v):
        x, y, sx, sy = self._square(u, v)
        return self._in_plane(x * sy, y * sx)

    def element(self, u, v):
        # |du x dv| = 4 R^2 (sx sy - x^2 y^2 / (4 sx sy)) = 2 R^2 (2 - x^2 - y^2) / (sx sy),
        # and 1 - x^2 = 4 u (1 - u): no cancellation where it vanishes at the corners
        x, y, sx, sy = self._square(u, v)
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        area = (8.0 * self.radius**2) * (u * (1.0 - u) + v * (1.0 - v)) / (sx * sy)
        return self._in_plane(x * sy, y * sx), area

    def du(self, u, v):
        x, y, sx, sy = self._square(u, v)
        return self.radius * (
            np.multiply.outer(2.0 * sy, self._u)
            - np.multiply.outer(x * y / sx, self._v)
        )

    def dv(self, u, v):
        x, y, sx, sy = self._square(u, v)
        return self.radius * (
            -np.multiply.outer(x * y / sy, self._u)
            + np.multiply.outer(2.0 * sx, self._v)
        )

    def constant_normal(self):
        return self._a.copy()

    def rim(self) -> Circle:
        return self._rim

    def bounding_box(self):
        return self._rim.bounding_box()

    def distance_to(self, point) -> float:
        rel = as_vec3(point, "point") - self.center
        z = float(rel @ self._a)
        rho = float(np.linalg.norm(rel - z * self._a))
        if rho <= self.radius:
            return abs(z)
        return math.hypot(rho - self.radius, z)


# ---------------------------------------------------------------------------
# Panels and meshes
# ---------------------------------------------------------------------------


class SurfaceMesh:
    """M x N grid of flat panels over a patch.

    Panel (i, j) is anchored at grid node (i/M, j/N) with edges given by
    grid-node differences; interior grid edges are traversed by exactly
    two adjacent cells in opposite directions, so they cancel from the
    mesh boundary.  The counting route sees the mesh as the two triangles
    of each cell's 0-2 diagonal (see segment_crossings), which tile it
    without the gaps and overlaps of the panels on a curved patch.
    """

    def __init__(self, patch: SurfacePatch, m: int, n: int, nodes: np.ndarray):
        self.source = patch
        self.m = int(m)
        self.n = int(n)
        self.nodes = _frozen(nodes)
        bases = nodes[:-1, :-1, :]
        self._edges_a = _frozen(nodes[1:, :-1, :] - bases)
        self._edges_b = _frozen(nodes[:-1, 1:, :] - bases)
        areas = np.cross(self._edges_a, self._edges_b)
        norms = np.linalg.norm(areas, axis=-1)
        if float(norms.min()) <= 1e-13 * float(norms.max()):
            raise DegeneratePatch(
                f"mesh {m}x{n} has (near-)degenerate panels: min area {norms.min():g}"
            )
        self._areas = _frozen(areas)

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
        boundary polygon.  Equals edge_a x edge_b on flat patches.
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

    def total_area_vector(self) -> np.ndarray:
        return self._areas.sum(axis=(0, 1))


def mesh_surface(patch: SurfacePatch, m: int, n: int) -> SurfaceMesh:
    """Panelize a patch into an m x n grid of flat parallelogram panels."""
    if m < 1 or n < 1:
        raise ValueError(f"mesh dimensions must be >= 1, got {m}x{n}")
    uu = np.linspace(0.0, 1.0, m + 1)
    vv = np.linspace(0.0, 1.0, n + 1)
    nodes = patch.point(uu[:, None], vv[None, :])
    if nodes.shape != (m + 1, n + 1, 3):
        raise DegeneratePatch(f"patch evaluator returned shape {nodes.shape}")
    if not np.all(np.isfinite(nodes)):
        raise DegeneratePatch("patch evaluator returned non-finite nodes")
    return SurfaceMesh(patch, m, n, nodes)


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

# bound on the rounding error of a float triple product of differences,
# as a multiple of its permanent (Shewchuk 1997, orient3d, (7 + 56u)u)
_ORIENT_ERR = 8.0 * 2.0**-53


def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _edge_orientations(tri, origin, direction):
    """direction . ((A - origin) x (B - origin)) for edges AB, BC, CA, and
    a bound on its rounding error."""
    rel = tri - origin[:, None, :]
    nxt = np.roll(rel, -1, axis=1)
    d = direction[:, None, :]
    r, q = np.abs(rel), np.abs(nxt)
    abs_cross = r[..., [1, 2, 0]] * q[..., [2, 0, 1]] + r[..., [2, 0, 1]] * q[..., [1, 2, 0]]
    permanent = _dot(np.abs(d), abs_cross)
    return _dot(d, np.cross(rel, nxt)), _ORIENT_ERR * permanent


def _candidate_pairs(p0s, p1s, cells):
    """Segment and cell indices of every pair whose bounding boxes overlap.

    `cells` holds the (m, n, 4, 3) cell corners.  The leaves of a tree of
    boxes are the cells of the grid padded to a power of _FAN on each
    side, and each level above merges _FAN x _FAN boxes.  Segments go down
    it level by level in whole arrays, so the work follows the segments
    near the mesh and grows with the logarithm of its size, whatever its
    turn in space.  Box comparisons are exact, so no crossing is lost.
    """
    m, n = cells.shape[:2]
    size = _FAN
    while size < max(m, n):
        size *= _FAN
    # padding cells have empty boxes, which overlap nothing
    lo, hi = np.full((size, size, 3), np.inf), np.full((size, size, 3), -np.inf)
    lo[:m, :n], hi[:m, :n] = cells.min(axis=2), cells.max(axis=2)
    levels = [(lo, hi)]
    while len(lo) > 1:
        shape = (len(lo) // _FAN, _FAN, len(lo) // _FAN, _FAN, 3)
        lo, hi = lo.reshape(shape).min(axis=(1, 3)), hi.reshape(shape).max(axis=(1, 3))
        levels.append((lo, hi))
    di, dj = np.divmod(np.arange(_FAN * _FAN), _FAN)
    seg_lo, seg_hi = np.minimum(p0s, p1s), np.maximum(p0s, p1s)
    seg_ids, cell_ids = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for start in range(0, len(p0s), _SEGMENT_CHUNK):
        seg = np.arange(start, min(start + _SEGMENT_CHUNK, len(p0s)))
        i = j = np.zeros(len(seg), dtype=int)
        for depth, (lo, hi) in enumerate(reversed(levels)):
            if depth:
                seg = np.repeat(seg, _FAN * _FAN)
                i, j = (_FAN * i[:, None] + di).ravel(), (_FAN * j[:, None] + dj).ravel()
            # axis by axis: np.all over a length-3 axis is several times slower
            hit = np.ones(len(seg), dtype=bool)
            for x in range(3):
                hit &= (seg_lo[seg, x] <= hi[i, j, x]) & (seg_hi[seg, x] >= lo[i, j, x])
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


def segment_crossings(starts, ends, nodes, transversality_tol: float = 1e-9):
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
    direction has |cos angle| < transversality_tol with the triangle's
    normal, and DegenerateIntersection when a crossing lies exactly on the
    grid's outer boundary or an endpoint lies exactly on a triangle's
    plane inside the triangle.
    """
    p0s = np.asarray(starts, dtype=float).reshape(-1, 3)
    p1s = np.asarray(ends, dtype=float).reshape(-1, 3)
    m, n = nodes.shape[0] - 1, nodes.shape[1] - 1
    cells = np.stack([nodes[:-1, :-1], nodes[1:, :-1], nodes[1:, 1:], nodes[:-1, 1:]], axis=2)
    seg, cell = (np.repeat(ids, 2) for ids in _candidate_pairs(p0s, p1s, cells))
    cells = cells.reshape(-1, 4, 3)
    half = np.tile([0, 1], len(cell) // 2)
    tri = cells[cell[:, None], _CELL_TRIANGLES[half]]

    p0, p1 = p0s[seg], p1s[seg]
    d = p1 - p0
    a = tri[:, 0]
    normal = np.cross(tri[:, 1] - a, tri[:, 2] - a)
    s0, s1 = _dot(normal, p0 - a), _dot(normal, p1 - a)
    for end, s in ((p0, s0), (p1, s1)):
        k = np.flatnonzero(s == 0.0)
        if np.any(np.all(_edge_orientations(tri[k], end[k], normal[k])[0] >= 0.0, axis=1)):
            raise DegenerateIntersection(
                "sample endpoint lies on a triangle's plane inside the triangle; "
                "refine or perturb the sampling"
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
    if np.any(cos_angle < transversality_tol):
        raise NonTransversal(
            f"crossing direction nearly parallel to the surface (|cos| = {cos_angle.min():g})"
        )
    i, j = np.divmod(cell[k], n)
    upper = half[k] == 1
    # edges AB, BC, CA of each triangle on the outer boundary; the
    # diagonal never is
    rim = np.column_stack(
        [~upper & (j == 0), np.where(upper, j == n - 1, i == m - 1), upper & (i == 0)]
    )
    if np.any(rim & (side == 0)):
        raise DegenerateIntersection("crossing lies exactly on the surface's outer boundary")
    side = np.where(side == 0, tie, side)
    hit = np.all(side > 0, axis=1) | np.all(side < 0, axis=1)
    k = k[hit]
    tau = s0[k] / (s0[k] - s1[k])
    return side[hit, 0], p0[k] + tau[:, None] * d[k]

