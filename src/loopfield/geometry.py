"""Curves, surface patches, panel meshes, and signed segment crossings.

Conventions used throughout the package:

* Points and vectors are numpy arrays of shape (3,), dtype float64, with
  finite components.  Curve/patch evaluators broadcast over 1-D (and for
  patches, n-D) parameter arrays and then return arrays with a trailing
  axis of length 3.
* Curves are parametrized on [t_start, t_end].  Polylines use arc-length
  parametrization, so their tangent is the unit segment direction.  Each
  curve kind states its smooth cuts, its largest parameter speed and its
  vector area exactly, a composite from its parts.
* A surface patch maps the unit square by point(u, v); its positive side
  is the direction of dpoint/du x dpoint/dv and the induced boundary runs
  counterclockwise as seen from that side.
* All objects are immutable after construction and safe to share across
  threads.  A mesh builds its crossing index and its cells in its unit on
  first use and keeps them; two threads may both build them, to equal arrays.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateIntersection, DegeneratePatch, NonTransversal

__all__ = [
    "as_vec3",
    "as_points",
    "bounding_box_diagonal",
    "cross",
    "power_of_two_unit",
    "ScaledSegments",
    "scale_segments",
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
    if not np.isfinite(arr).all():
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


def power_of_two_unit(size: float) -> float:
    """The largest power of two at most size > 0 (0.5 for size 0): lengths
    near size, in this unit, have squares and products that neither over-
    nor underflow, and dividing by it is exact, so a formula in units
    agrees bitwise with itself in absolute units wherever those stay in
    range."""
    return math.ldexp(1.0, math.frexp(size)[1] - 1)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _distance_to(source, point):
    """source.distance_from(source.offsets(points)) of one (3,) point, as
    a float, or of (n, 3) points."""
    pts, single = as_points(point)
    dist = source.distance_from(source.offsets(pts))
    return float(dist[0]) if single else dist


class ScaledSegments(NamedTuple):
    """Straight segments in `unit`, power_of_two_unit of their largest
    coordinate extent: their (k, 3) starts and ends, (k,) lengths and
    (k, 3) unit directions, all in the unit, where squares of lengths
    near theirs neither over- nor underflow.  A PolyLine keeps its own
    (PolyLine.scaled_segments), and fields.segment_field sums from them."""

    unit: float
    starts: np.ndarray
    ends: np.ndarray
    lengths: np.ndarray
    dirs: np.ndarray

    def offsets(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (n, 3) points in the unit, as (n, 1, 3), and their (n, k, 3)
        offsets from the starts."""
        p = pts[:, None, :] / self.unit
        return p, p - self.starts


def scale_segments(starts, ends) -> ScaledSegments:
    """The segments from the (k, 3) starts to the (k, 3) ends, in their unit."""
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    chords = ends - starts
    unit = power_of_two_unit(float(np.abs(chords).max()))
    chords /= unit
    lengths = np.sqrt(np.einsum("ij,ij->i", chords, chords))
    if not lengths.all():
        raise ValueError("a segment has zero length")
    return ScaledSegments(unit, _frozen(starts / unit), _frozen(ends / unit), _frozen(lengths),
                          _frozen(chords / lengths[:, None]))


def _length(v: np.ndarray) -> float:
    """|v| of a (3,) vector.  While its largest component lies in
    (2^-450, 2^450) this is sqrt(v @ v), numpy's norm; otherwise the root
    is taken in a power-of-two unit of that component, where no square
    over- or underflows.  The two agree wherever both apply (a square
    below 2^-1022 is far below half an ulp of the sum), so |2^k v| is
    2^k |v| bitwise."""
    big = max(map(abs, v.tolist()))  # no numpy pass: every field guard comes here
    if 2.0**-450 < big < 2.0**450:
        return math.sqrt(v @ v)
    unit = power_of_two_unit(big)
    v = v / unit
    return math.sqrt(v @ v) * unit


def _unit(v: np.ndarray, name: str = "vector") -> np.ndarray:
    n = _length(v)
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
    v = cross(a, u)
    return u, v, a


def _merge_boxes(boxes: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    # np.min over a list of arrays stacks them first, at 8 times the cost
    los, his = zip(*boxes)
    return reduce(np.minimum, los), reduce(np.maximum, his)


def _box_reach(source) -> tuple[np.ndarray, float]:
    """The centre of a source's bounding box and its diagonal: every point
    of the source lies within half the diagonal of the centre."""
    lo, hi = source.bounding_box()
    return 0.5 * (lo + hi), _length(hi - lo)


def bounding_box_diagonal(objects: Sequence) -> float:
    """Diagonal of the joint bounding box of curves or patches; the scene
    length scale."""
    lo, hi = _merge_boxes(obj.bounding_box() for obj in objects)
    return _length(hi - lo)


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

    def smooth_cuts(self) -> tuple[float, ...]:
        """Increasing parameters t_start, ..., t_end; the curve is smooth between them."""
        raise NotImplementedError

    def max_speed(self) -> float:
        """Largest |tangent(t)| along the curve, exactly: the Lipschitz
        constant of the position in t."""
        raise TypeError(f"no parameter speed bound for a {type(self).__name__}")

    def vector_area(self, unit: float = 1.0) -> np.ndarray:
        """Vector area (1/2) * integral of r x dr along the curve, exactly,
        in units of unit^2, taken from r / unit: for a closed curve, the
        vector area it spans.  In a power-of-two unit of the curve's size
        no square over- or underflows, and the scaling is exact."""
        raise TypeError(f"no closed-form vector area for a {type(self).__name__}")

    def reversed(self) -> "Curve":
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # the field guard's (fields._guarded), kept with the curve on first use
    reach = cached_property(_box_reach)

    def offsets(self, pts: np.ndarray):
        """The (n, 3) points as the curve's distance and closed-form field
        see them: a tuple of arrays with one row per point, in the curve's
        unit."""
        raise NotImplementedError

    def distance_from(self, offsets) -> np.ndarray:
        """The (n,) distances of the points from their offsets."""
        raise NotImplementedError

    def distance_to(self, point):
        """Distance from a point, or the (n,) distances from (n, 3) points:
        distance_from(offsets(points))."""
        return _distance_to(self, point)


class Circle(Curve):
    """Circle of given center/radius in the plane normal to `axis`.

    Parametrized on [0, 2*pi].  With orientation "ccw" the traversal is
    counterclockwise as seen from the +axis side (right-hand rule); "cw"
    is the reverse traversal.  `unit_axis` is the axis over its length and
    `unit` is power_of_two_unit(radius), the unit of offsets(), which its
    distance and its closed-form fields share.
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
        self.unit_axis = _frozen(a)
        # per-axis half-extent of a 3-D circle: R * sqrt(1 - a_i^2)
        ext = self.radius * np.sqrt(np.maximum(1.0 - a * a, 0.0))
        self._box = (_frozen(self.center - ext), _frozen(self.center + ext))
        self.unit = power_of_two_unit(self.radius)
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

    def smooth_cuts(self) -> tuple[float, ...]:
        return (self.t_start, self.t_end)

    def max_speed(self) -> float:
        return self.radius

    def vector_area(self, unit: float = 1.0) -> np.ndarray:
        # +-pi R^2 along the unit axis, by the traversal's sense about it
        sign = 1.0 if self.orientation == "ccw" else -1.0
        return sign * math.pi * (self.radius / unit) ** 2 * self.unit_axis

    def reversed(self) -> "Circle":
        flipped = "cw" if self.orientation == "ccw" else "ccw"
        return Circle(self.center, self.radius, self.axis, flipped)

    def bounding_box(self):
        return self._box

    def offsets(self, pts):
        """(height z along unit_axis, the part `radial` across it, its
        length rho) of the offsets of (n, 3) points from the centre, in
        `unit`, where their squares neither over- nor underflow."""
        rel = (pts - self.center) / self.unit
        # einsum, not matmul: numpy's matmul of one row takes another BLAS
        # kernel than that of several, which rounds differently
        z = np.einsum("ij,j->i", rel, self.unit_axis)
        radial = rel - z[:, None] * self.unit_axis
        # the products and sum of numpy's norm, without its per-call set-up
        return z, radial, np.sqrt(np.einsum("ij,ij->i", radial, radial))

    def distance_from(self, offsets):
        z, _, rho = offsets
        return np.hypot(rho - self.radius / self.unit, z) * self.unit


class PolyLine(Curve):
    """Piecewise-straight curve, arc-length parametrized.

    `vertices` are traversed in order; with closed=True the final segment
    returns to the first vertex (a duplicated last vertex is dropped).
    The tangent is the unit direction of the current segment; at an
    interior vertex parameter the outgoing segment wins.  `unit` is the
    unit of its segments (`scaled_segments`), in which its distance and
    its closed-form fields take the offsets of points.
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
        # np.roll's values, without its set-up
        ends = np.concatenate((verts[1:], verts[:1])) if closed else verts[1:]
        if not closed:
            starts = verts[:-1]
        # one frame for the arc lengths, the distance and the closed form, in
        # a unit where the squares of lengths and gaps neither over- nor underflow
        self.scaled_segments = scale_segments(starts, ends)
        self.unit = unit = self.scaled_segments.unit
        self.vertices = _frozen(verts)
        self._box = (_frozen(verts.min(axis=0)), _frozen(verts.max(axis=0)))
        self.closed = bool(closed)
        self._starts = _frozen(starts)
        self._ends = _frozen(ends)
        cum = np.concatenate(([0.0], np.cumsum(self.scaled_segments.lengths * unit)))
        self._cum = _frozen(cum)
        self.t_start = 0.0
        self.t_end = float(cum[-1])

    @property
    def segment_count(self) -> int:
        return len(self._starts)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of the straight segments, (k, 3) each, in
        traversal order; the ends are the vertices themselves."""
        return self._starts, self._ends

    def _segment_index(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cum, t, side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.segment_count - 1)

    def position(self, t):
        arr = np.asarray(t, dtype=float)
        idx = self._segment_index(np.atleast_1d(arr))
        local = np.atleast_1d(arr) - self._cum[idx]
        pos = self._starts[idx] + local[:, None] * self.scaled_segments.dirs[idx]
        return pos[0] if arr.ndim == 0 else pos

    def tangent(self, t):
        arr = np.asarray(t, dtype=float)
        idx = self._segment_index(np.atleast_1d(arr))
        tan = self.scaled_segments.dirs[idx]
        return tan[0] if arr.ndim == 0 else tan.copy()

    def smooth_cuts(self) -> tuple[float, ...]:
        # the vertices' parameters; a segment too short to move the running
        # sum leaves a repeat, which dict.fromkeys drops
        return tuple(dict.fromkeys(self._cum.tolist()))

    def max_speed(self) -> float:
        return 1.0  # arc length

    def vector_area(self, unit: float = 1.0) -> np.ndarray:
        return 0.5 * cross(self._starts / unit, self._ends / unit).sum(axis=0)

    def reversed(self) -> "PolyLine":
        if self.closed:
            # same cycle, opposite traversal, same start vertex
            verts = np.concatenate((self.vertices[:1], self.vertices[:0:-1]))
        else:
            verts = self.vertices[::-1]
        return PolyLine(verts, closed=self.closed)

    def bounding_box(self):
        return self._box

    @cached_property
    def plane(self) -> tuple[np.ndarray, np.ndarray]:
        """Of a closed polyline, the polygon's unit normal, about which its
        vertices turn counterclockwise, summed over the fan of spokes from
        its first vertex, and each edge's in-plane unit normal, its
        direction x the normal, which points out of the polygon; from
        scaled_segments, on first use."""
        segments = self.scaled_segments
        spokes = segments.starts[1:] - segments.starts[0]
        normal = cross(spokes[:-1], spokes[1:]).sum(axis=0)
        normal = normal / math.sqrt(normal @ normal)
        return _frozen(normal), _frozen(cross(segments.dirs, normal))

    def offsets(self, pts):
        """ScaledSegments.offsets: the points in `unit`, (n, 1, 3), and
        their (n, k, 3) offsets from the segments' starts."""
        return self.scaled_segments.offsets(pts)

    def distance_from(self, offsets):
        p, rel = offsets
        segments = self.scaled_segments
        proj = np.einsum("pij,ij->pi", rel, segments.dirs)
        proj = np.minimum(np.maximum(proj, 0.0), segments.lengths)  # np.clip, without its set-up
        closest = segments.starts + proj[..., None] * segments.dirs
        gap = p - closest
        return np.sqrt(np.add.reduce(gap * gap, axis=2)).min(axis=1) * self.unit


class RectLoop(PolyLine):
    """Closed rectangle with one leg on the z-axis, extent n.

    Traverses (0,0,-n) -> (0,0,n) -> (n,0,n) -> (n,0,-n) -> close.  Used
    by the straight-wire limit study: the first leg approximates an
    infinite upward wire through the unit circle as n grows.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        verts = [
            (0.0, 0.0, -float(n)),
            (0.0, 0.0, float(n)),
            (float(n), 0.0, float(n)),
            (float(n), 0.0, -float(n)),
        ]
        super().__init__(verts, closed=True)


class CompositeCurve(Curve):
    """Concatenation of curves traversed in order, parameter ranges stacked;
    closed when each part ends where the next starts, the last the first."""

    def __init__(self, parts: Sequence[Curve]):
        if not parts:
            raise ValueError("composite curve needs at least one part")
        self.parts = tuple(parts)
        spans = [p.t_end - p.t_start for p in self.parts]
        bounds = np.concatenate(([0.0], np.cumsum(spans)))
        self._bounds = _frozen(bounds)
        self.t_start = 0.0
        self.t_end = float(bounds[-1])
        starts = [p.position(p.t_start) for p in self.parts]
        ends = [p.position(p.t_end) for p in self.parts]
        lo, hi = self._box = tuple(map(_frozen, _merge_boxes(p.bounding_box() for p in self.parts)))
        # every joint within 1e-12 diagonals, a rule that no scaling changes
        tol = 1e-12 * _length(hi - lo)
        self.closed = all(_length(start - end) <= tol for start, end in zip(starts[1:] + starts[:1], ends))

    def _map_params(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.searchsorted(self._bounds, t, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), len(self.parts) - 1)
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

    def smooth_cuts(self) -> tuple[float, ...]:
        # each part's cuts moved to its place in the stack, in order: a part's
        # ends land exactly on the bounds it shares with its neighbours, and
        # rounding is monotone, so its other cuts stay between them
        stack = zip(self.parts, self._bounds.tolist())
        shifted = (c - part.t_start + bound for part, bound in stack for c in part.smooth_cuts())
        return tuple(dict.fromkeys(shifted))

    def max_speed(self) -> float:
        # each part's parameter is a shifted copy of its own
        return max(p.max_speed() for p in self.parts)

    def vector_area(self, unit: float = 1.0) -> np.ndarray:
        # the integral is additive over the parts
        return sum(p.vector_area(unit) for p in self.parts)

    def reversed(self) -> "CompositeCurve":
        return CompositeCurve([p.reversed() for p in reversed(self.parts)])

    def bounding_box(self):
        return self._box

    def offsets(self, pts):
        """Each part's offsets of the points, in part order."""
        return tuple(p.offsets(pts) for p in self.parts)

    def distance_from(self, offsets):
        return np.min([p.distance_from(o) for p, o in zip(self.parts, offsets)], axis=0)


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

    def _flat_rim(self) -> Curve:
        rim = self.rim()
        if rim is None:
            raise TypeError(f"a {type(self).__name__} patch has no rim, box or offsets")
        return rim

    def bounding_box(self):
        """A flat patch's box, which is its rim's; a patch with no rim
        raises TypeError."""
        return self._flat_rim().bounding_box()

    reach = cached_property(_box_reach)

    def offsets(self, pts: np.ndarray):
        """The (n, 3) points as the patch's distance and closed-form sheet
        field see them: its rim's offsets (Curve.offsets), as its box is its
        rim's; a patch with no rim raises TypeError."""
        return self._flat_rim().offsets(pts)

    def distance_from(self, offsets) -> np.ndarray:
        """The (n,) distances of the points from their offsets."""
        raise NotImplementedError

    def distance_to(self, point):
        """Distance from a point to the patch, or the (n,) distances from
        (n, 3) points: distance_from(offsets(points))."""
        return _distance_to(self, point)


class PlanarRect(SurfacePatch):
    """Flat parallelogram patch: corner + u*edge_a + v*edge_b."""

    def __init__(self, corner, edge_a, edge_b):
        self.corner = _frozen(as_vec3(corner, "corner"))
        self.edge_a = _frozen(as_vec3(edge_a, "edge_a"))
        self.edge_b = _frozen(as_vec3(edge_b, "edge_b"))
        # the normal and the dual basis in units of the edges' size, where
        # their products neither over- nor underflow
        unit = power_of_two_unit(float(np.abs((self.edge_a, self.edge_b)).max()))
        a, b = self.edge_a / unit, self.edge_b / unit
        n = cross(a, b)
        mag = math.hypot(*n)
        if mag <= 1e-12 * math.hypot(*a) * math.hypot(*b):
            raise DegeneratePatch("edge_a x edge_b vanishes")
        self._normal = _frozen(n / mag)
        c, ea, eb = self.corner, self.edge_a, self.edge_b
        corners = np.array([c, c + ea, c + ea + eb, c + eb])
        self._rim = PolyLine(corners, closed=True)
        # columns e_a*, e_b* of the dual basis and the unit normal, for
        # offsets in the rim's unit: (alpha, beta, height / unit) = rel @ frame
        gram = np.array([[a @ a, a @ b], [a @ b, b @ b]])
        duals = np.linalg.inv(gram) @ np.array([a, b]) * (self._rim.unit / unit)
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

    def distance_from(self, offsets):
        p, rel = offsets
        # the offsets from the rim's first vertex, the corner
        coords = rel[:, 0] @ self._frame
        # over the parallelogram the height, beside it the rim's distance;
        # min(t, 1 - t) < 0 exactly where t < 0 or t > 1
        dist = np.abs(coords[:, 2]) * self._rim.unit
        ab = coords[:, :2]
        margin = np.minimum(ab, 1.0 - ab)
        if margin.min(initial=0.0) < 0.0:
            beside = margin.min(axis=1) < 0.0
            dist[beside] = self._rim.distance_from((p[beside], rel[beside]))
        return dist


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
        self._u, self._v = rim._u, rim._v

    def point(self, u, v):
        x = 2.0 * np.asarray(u, dtype=float) - 1.0
        y = 2.0 * np.asarray(v, dtype=float) - 1.0
        px, py = x * np.sqrt(1.0 - 0.5 * y**2), y * np.sqrt(1.0 - 0.5 * x**2)
        return self.center + self.radius * (
            np.multiply.outer(px, self._u) + np.multiply.outer(py, self._v)
        )

    def constant_normal(self):
        return self._rim.unit_axis.copy()

    def rim(self) -> Circle:
        return self._rim

    def distance_from(self, offsets):
        z, _, rho = offsets
        radius = self.radius / self._rim.unit
        # over the disk the height, beside it the rim's distance
        return np.where(rho <= radius, np.abs(z), np.hypot(rho - radius, z)) * self._rim.unit


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

    A grid of any other shape, with M or N below 1, with a non-finite node
    or with a (near-)degenerate cell raises DegeneratePatch.  The mesh
    works in `unit`, the largest power of two at most the largest
    coordinate offset of a node from nodes[0, 0]: its degeneracy check, its
    edge lengths and the cells that dipole_mesh_field sums (scaled_cells)
    come from nodes / unit, where the squares of edges and of their cross
    products neither over- nor underflow.  The scaling is exact, so these
    agree bitwise with the same formulas in absolute units wherever those
    stay in range, and a mesh 2^k times another has the same cells in
    units, for |k| up to 600 at least.  The counting route's index of the
    mesh's triangles (scaled_crossings) is in the same unit.  The mesh
    keeps a read-only copy of the nodes it is given.  Its field guard
    (fields._guarded) reads bounding_box(), nodes[0, 0] -/+ that offset,
    and the offsets and distance of points from the cell centres.
    """

    def __init__(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 3 or nodes.shape[0] < 2 or nodes.shape[1] < 2 or nodes.shape[2] != 3:
            raise DegeneratePatch(f"mesh nodes must be an (M+1, N+1, 3) grid with M, N >= 1, got shape {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise DegeneratePatch("mesh has non-finite nodes")
        self.m, self.n = nodes.shape[0] - 1, nodes.shape[1] - 1
        # a copy, so that no caller can rewrite the nodes its index was built from
        self.nodes = nodes = _frozen(nodes.copy())
        offset = float(np.abs(nodes - nodes[0, 0]).max())
        self._box = (_frozen(nodes[0, 0] - offset), _frozen(nodes[0, 0] + offset))
        self.unit = power_of_two_unit(offset)
        self._scaled = scaled = _frozen(nodes / self.unit)
        # in units the squares of the edges and of their cross products
        # neither over- nor underflow, and sqrt is monotone: the root of the
        # least square is the least norm
        along_i, along_j = scaled[1:] - scaled[:-1], scaled[:, 1:] - scaled[:, :-1]
        self._shortest = math.sqrt(min(float((e * e).sum(axis=-1).min()) for e in (along_i, along_j)))
        # each cell's normal, from the two edges that leave its first node
        normals = cross(along_i[:, :-1], along_j[:-1])
        squares = (normals * normals).sum(axis=-1)
        least = math.sqrt(squares.min())
        if least <= 1e-13 * math.sqrt(squares.max()):
            area = least * self.unit * self.unit
            raise DegeneratePatch(f"mesh {self.m}x{self.n} has (near-)degenerate panels: min area {area:g}")

    @property
    def cell_centers(self) -> np.ndarray:
        """Average of the four grid-node corners per cell."""
        return _cell_centers(self.nodes)

    @property
    def cell_vector_areas(self) -> np.ndarray:
        """Vector area enclosed by each cell's four-node boundary loop.

        Half the cross product of the cell diagonals; summed over all
        cells this telescopes exactly to the vector area of the mesh
        boundary polygon.  For a parallelogram cell it is the cross
        product of the two edges leaving node (i, j).
        """
        return _cell_vector_areas(self.nodes)

    def scaled_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The (m * n, 3) cell centres in units of `unit` and the cell
        vector areas in units of its square, rows in cell order."""
        return self._cells

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray]:
        scaled = self._scaled
        return _frozen(_cell_centers(scaled).reshape(-1, 3)), _frozen(_cell_vector_areas(scaled).reshape(-1, 3))

    def bounding_box(self):
        return self._box

    reach = cached_property(_box_reach)

    def offsets(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (n, m * n, 3) offsets of (n, 3) points from the cell centres,
        in `unit`, and their (n, m * n) lengths."""
        rel = pts[:, None, :] / self.unit - self._cells[0]
        return rel, np.sqrt((rel * rel).sum(axis=-1))

    def distance_from(self, offsets) -> np.ndarray:
        """The (n,) distances of the points from the nearest cell centre."""
        return offsets[1].min(axis=1) * self.unit

    def min_edge_length(self) -> float:
        """Length of the shortest grid edge."""
        return self._shortest * self.unit

    def scaled_crossings(self, starts, ends):
        """segment_crossings of the segments from starts to ends, given in
        units of `unit`, through this mesh, crossing points in the same
        units; the first call indexes the mesh's triangles, and every
        later one reuses that index."""
        return _crossings(starts, ends, self._triangles)

    @cached_property
    def _triangles(self) -> "_TriangleIndex":
        return _triangle_index(self._scaled)


def _cell_centers(nodes: np.ndarray) -> np.ndarray:
    return 0.25 * (nodes[:-1, :-1] + nodes[1:, :-1] + nodes[:-1, 1:] + nodes[1:, 1:])


def _cell_vector_areas(nodes: np.ndarray) -> np.ndarray:
    return 0.5 * cross(nodes[1:, 1:] - nodes[:-1, :-1], nodes[:-1, 1:] - nodes[1:, :-1])


def mesh_surface(patch: SurfacePatch, m: int, n: int) -> SurfaceMesh:
    """Mesh a patch by the m x n grid of cells between the nodes
    patch.point(i/m, j/n), i = 0..m, j = 0..n."""
    if m < 1 or n < 1:
        raise ValueError(f"mesh dimensions must be >= 1, got {m}x{n}")
    uu = np.linspace(0.0, 1.0, m + 1)
    vv = np.linspace(0.0, 1.0, n + 1)
    return SurfaceMesh(patch.point(uu[:, None], vv[None, :]))


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

# a crossing this close to parallel to its triangle (|cos angle| between
# the segment and the normal) is glancing, not transversal
_TRANSVERSALITY_TOL = 1e-9

# bound on the rounding error of a float triple product of differences,
# as a multiple of its permanent (Shewchuk 1997, orient3d, (7 + 56u)u)
_ORIENT_ERR = 8.0 * 2.0**-53

# a row's orientation signs on AB, BC, CA as one number 9 s_AB + 3 s_BC +
# s_CA, from -13 to 13, and whether each sign triple is closed (no two
# signs opposite), in that order: one product and one gather per test
_SIGN_DIGITS = np.array([9, 3, 1])
_CLOSED = np.array([min(t) >= 0 or max(t) <= 0 for t in itertools.product((-1, 0, 1), repeat=3)])


def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


# the places, among a triangle's nine values in row order, of its corners
# A, B, C, A, each with the components x, y, z, x, y: one gather, after
# which the vertex and component rolls of an orientation are slices
_ROLLED = (3 * np.array([0, 1, 2, 0])[:, None] + [0, 1, 2, 0, 1]).ravel()


def _edge_orientations(tri, origin, direction):
    """direction . ((A - origin) x (B - origin)) for edges AB, BC, CA, and
    a bound on its rounding error.

    Both come from the six products r_i q_j of the components of
    r = A - origin and q = B - origin, formed once: |r_i| |q_j| =
    |r_i q_j| exactly, so the bound is the permanent of the same terms."""
    rel = (tri - origin[:, None, :]).reshape(-1, 9).take(_ROLLED, axis=1).reshape(-1, 4, 5)
    r, q = rel[:, :3], rel[:, 1:]
    plus, minus = r[..., 1:4] * q[..., 2:5], r[..., 2:5] * q[..., 1:4]
    d = direction[:, None, :]
    permanent = _dot(np.abs(d), np.abs(plus) + np.abs(minus))
    return _dot(d, plus - minus), _ORIENT_ERR * permanent


class _TriangleIndex(NamedTuple):
    """What the crossing kernel reads of an m x n grid, built once per
    grid: the broad phase's tree of boxes, root first, each level as its
    (6, rows * cols) boxes and its cols; and of the triangles, triangle h
    of cell c = i * n + j at row 2c + h, their (2mn, 3, 3) corners, their
    (2mn, 3) normals and the normals' (2mn,) lengths, and which of their
    edges AB, BC and CA lie on the grid's outer boundary, (2mn, 3).

    The triangles take 214 bytes per cell: corners 144, normals 48,
    lengths 16 and boundary flags 6.  Each box of the tree takes 48, and
    the levels are padded to multiples of _FAN, so a grid of 8 to 70
    cells a side keeps at most 310 bytes per cell in all (272 at 15 x 15,
    265 at 16 x 16)."""

    levels: list
    corners: np.ndarray
    normals: np.ndarray
    lengths: np.ndarray
    rim: np.ndarray
    n: int


def _triangle_index(nodes: np.ndarray) -> _TriangleIndex:
    """The index of an (m+1, n+1, 3) node grid (see _candidate_pairs and
    segment_crossings)."""
    m, n = nodes.shape[0] - 1, nodes.shape[1] - 1
    c0, c1, c2, c3 = nodes[:-1, :-1], nodes[1:, :-1], nodes[1:, 1:], nodes[:-1, 1:]
    # each cell splits along its 0-2 diagonal
    triangles = np.stack((c0, c1, c2, c0, c2, c3), axis=2).reshape(-1, 3, 3)
    a = triangles[:, 0]
    normals = cross(triangles[:, 1] - a, triangles[:, 2] - a)
    lengths = np.sqrt(_dot(normals, normals))
    # the grid edges of triangle 0 are AB at j = 0 and BC at i = m - 1, those
    # of triangle 1 BC at j = n - 1 and CA at i = 0; the diagonal is interior
    rim = np.zeros((m, n, 2, 3), dtype=bool)
    rim[:, 0, 0, 0] = rim[-1, :, 0, 1] = rim[:, -1, 1, 1] = rim[0, :, 1, 2] = True
    # components first, so that a gather takes whole rows and the six
    # comparisons reduce across them
    quad = (c0, c1, c2, c3)
    box = np.concatenate((reduce(np.maximum, quad), -reduce(np.minimum, quad)), axis=2).transpose(2, 0, 1)
    levels = []
    while box.shape[1:] != (1, 1):
        rows, cols = box.shape[1:]
        padded = np.full((6, _FAN * -(-rows // _FAN), _FAN * -(-cols // _FAN)), -np.inf)
        padded[:, :rows, :cols] = box
        levels.append(padded)
        box = reduce(np.maximum, (padded[:, k::_FAN] for k in range(_FAN)))
        box = reduce(np.maximum, (box[:, :, k::_FAN] for k in range(_FAN)))
    levels.append(box)
    levels = [(_frozen(level.reshape(6, -1)), level.shape[2]) for level in reversed(levels)]
    return _TriangleIndex(levels, _frozen(triangles), _frozen(normals), _frozen(lengths),
                          _frozen(rim.reshape(-1, 3)), n)


def _candidate_pairs(p0s, p1s, index: _TriangleIndex):
    """Segment and cell indices of every pair whose bounding boxes overlap,
    grouped by segment in ascending order.

    The leaves of the index's tree of boxes are the grid's cells, and each
    level above merges _FAN x _FAN boxes; a level is padded to _FAN times
    the size of the level above, so every box's children are in it.  The
    index is built once per mesh and kept, because meshes are counted
    through more than once: the shipped catalog counts six loops through
    one mesh, and the straight-wire limit study three.  Segments go down
    the tree level by level in whole arrays: only this traversal grows
    with the logarithm of the mesh size, and it follows the segments near
    the mesh whatever its turn in space.

    A box is stored as (hi, -lo) and a segment as the key (lo, -hi): they
    overlap exactly when key <= box in all six components, so a level
    costs one gather of keys, one of boxes and one comparison.  Negation
    and comparison are exact, so no crossing is lost.  Padding boxes are
    -inf and overlap nothing.
    """
    di, dj = np.divmod(np.arange(_FAN * _FAN), _FAN)
    keys = np.concatenate([np.minimum(p0s, p1s).T, -np.maximum(p0s, p1s).T])
    seg_ids, cell_ids = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for start in range(0, len(p0s), _SEGMENT_CHUNK):
        seg = np.arange(start, min(start + _SEGMENT_CHUNK, len(p0s)))
        i = j = np.zeros(len(seg), dtype=int)
        for depth, (boxes, cols) in enumerate(index.levels):
            if depth:
                seg = np.repeat(seg, _FAN * _FAN)
                i, j = (_FAN * i[:, None] + di).ravel(), (_FAN * j[:, None] + dj).ravel()
            hit = np.flatnonzero((keys.take(seg, axis=1) <= boxes.take(i * cols + j, axis=1)).all(axis=0))
            seg, i, j = seg[hit], i[hit], j[hit]
        seg_ids.append(seg)
        cell_ids.append(i * index.n + j)
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
    segment x cell pairs.  This is the one-shot form: it indexes the grid's
    triangles for this call alone, where a SurfaceMesh keeps its index for
    every count (SurfaceMesh.scaled_crossings); both run the same kernel.
    A segment crosses a triangle when its endpoints
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
    return _crossings(starts, ends, _triangle_index(np.asarray(nodes, dtype=float)))


def _crossings(starts, ends, index: _TriangleIndex):
    """The kernel of segment_crossings and SurfaceMesh.scaled_crossings:
    the signed crossings of the segments through an indexed grid.

    Candidate row f is triangle f & 1 of candidate pair f >> 1.  The plane
    test reads only the normals and the corner that a cell's two triangles
    share first; everything after it reads only the rows that straddle a
    plane.  Gathers of whole rows go by take and compress, which cost
    less per call than fancy indexing."""
    p0s = np.asarray(starts, dtype=float).reshape(-1, 3)
    p1s = np.asarray(ends, dtype=float).reshape(-1, 3)
    seg, cell = _candidate_pairs(p0s, p1s, index)

    def pair(f):
        """The error attributes of candidate row f."""
        return {"segment": int(seg[f >> 1]), "cell": divmod(int(cell[f >> 1]), index.n), "triangle": int(f & 1)}

    normals = index.normals.reshape(-1, 2, 3).take(cell, axis=0)
    a = index.corners[::2, 0].take(cell, axis=0)
    p0, p1 = p0s.take(seg, axis=0), p1s.take(seg, axis=0)
    s0 = _dot(normals, (p0 - a)[:, None, :]).ravel()
    s1 = _dot(normals, (p1 - a)[:, None, :]).ravel()
    sides = np.sign(s0) * np.sign(s1)
    if not sides.all():
        for end, s in ((p0, s0), (p1, s1)):
            f = (s == 0.0).nonzero()[0]
            if not len(f):
                continue
            rows = 2 * cell[f >> 1] + (f & 1)
            tri, normal = index.corners.take(rows, axis=0), index.normals.take(rows, axis=0)
            inside = np.all(_edge_orientations(tri, end.take(f >> 1, axis=0), normal)[0] >= 0.0, axis=1)
            if inside.any():
                raise DegenerateIntersection(
                    "sample endpoint lies on a triangle's plane inside the triangle; "
                    "refine or perturb the sampling",
                    **pair(f[inside.argmax()]),
                )

    f = (sides < 0.0).nonzero()[0]
    if not len(f):
        return np.empty(0, dtype=int), np.empty((0, 3))
    k = f >> 1
    rows = 2 * cell[k] + (f & 1)
    tri, p0, p1 = index.corners.take(rows, axis=0), p0.take(k, axis=0), p1.take(k, axis=0)
    d = p1 - p0
    w, err = _edge_orientations(tri, p0, d)
    side, tie = np.sign(w).astype(int), np.zeros_like(w, dtype=int)
    for r, e in zip(*np.nonzero(np.abs(w) <= err)):
        side[r, e], tie[r, e] = _exact_side(p0[r], p1[r], tri[r, e], tri[r, (e + 1) % 3])
    closed = _CLOSED[side @ _SIGN_DIGITS + 13]
    f, rows = f[closed], rows[closed]
    side, tie, p0, d = (x.compress(closed, axis=0) for x in (side, tie, p0, d))
    normal = index.normals.take(rows, axis=0)
    cos_angle = np.abs(_dot(d, normal)) / (np.sqrt(_dot(d, d)) * index.lengths[rows])
    if np.any(cos_angle < _TRANSVERSALITY_TOL):
        r = cos_angle.argmin()
        raise NonTransversal(
            f"crossing direction nearly parallel to the surface (|cos| = {cos_angle[r]:g})",
            cos_angle=float(cos_angle[r]),
            **pair(f[r]),
        )
    on_rim = index.rim.take(rows, axis=0) & (side == 0)
    if on_rim.any():
        raise DegenerateIntersection(
            "crossing lies exactly on the surface's outer boundary",
            **pair(f[on_rim.any(axis=1).argmax()]),
        )
    side = np.where(side == 0, tie, side)
    hit = np.abs(side @ _SIGN_DIGITS) == 13
    f = f[hit]
    tau = s0[f] / (s0[f] - s1[f])
    return side[hit, 0], p0.compress(hit, axis=0) + tau[:, None] * d.compress(hit, axis=0)
