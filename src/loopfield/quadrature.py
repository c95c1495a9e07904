"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One globally adaptive routine serves both, as QUADPACK's QAG (Piessens et
al. 1983) and Berntsen, Espelid & Genz (1991) do.  A cell is a tuple of
one or two intervals; the pieces between the caller's breakpoints are the
first cells.  A heap keeps the cells, worst error |sum of children -
one-cell value| first, and splits the worst until the summed error meets
max(abs_tol, rel_tol * |total|) for the whole integral, or the rounding
floor.  Vector integrands share one cell tree, and the value is summed
over the leaves in cell order, so identical inputs give identical bits.

The quadrature never inspects geometry; singularity guards live in the
callers (fields, linking).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, itemgetter, lt

import numpy as np

from .errors import NoConvergence

__all__ = ["QuadratureSpec", "integrate_1d", "integrate_2d"]

# differences at the rounding level of a sum carry no information
_ROUNDING = 8.0 * float(np.finfo(float).eps)


# every cell takes the 8-node rule, on each axis of a 2-D cell as well,
# where the 64 tensor-product weights contract both axes in one product
_NODES, _WEIGHTS_1D = np.polynomial.legendre.leggauss(8)
_WEIGHTS_2D = np.outer(_WEIGHTS_1D, _WEIGHTS_1D).ravel()
for _array in (_NODES, _WEIGHTS_1D, _WEIGHTS_2D):
    _array.setflags(write=False)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and depth limit of the adaptive integrators, and the
    guard distance of their field and linking callers.

    min_distance_guard is an absolute distance used by field/linking
    callers; None means "1e-6 x scene scale", resolved at the call site.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 18
    min_distance_guard: float | None = None

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_distance_guard is not None and self.min_distance_guard < 0.0:
            raise ValueError("min_distance_guard must be >= 0")

    def resolve_guard(self, scene_scale: float) -> float:
        if self.min_distance_guard is not None:
            return self.min_distance_guard
        return 1e-6 * scene_scale


def _rule_1d(f, cell):
    ((a, b),) = cell
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * _NODES
    return half * (_WEIGHTS_1D @ np.asarray(f(xs), dtype=float))


def _split_1d(cell):
    ((a, b),) = cell
    mid = 0.5 * (a + b)
    return ((a, mid),), ((mid, b),)


def _rule_2d(f, cell):
    (a, b), (c, d) = cell
    half_x, half_y = 0.5 * (b - a), 0.5 * (d - c)
    xs, ys = 0.5 * (a + b) + half_x * _NODES, 0.5 * (c + d) + half_y * _NODES
    vals = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
    return half_x * half_y * (_WEIGHTS_2D @ vals.reshape(_WEIGHTS_2D.size, *vals.shape[2:]))


def _split_2d(cell):
    (a, b), (c, d) = cell
    mx, my = 0.5 * (a + b), 0.5 * (c + d)
    return ((a, mx), (c, my)), ((a, mx), (my, d)), ((mx, b), (c, my)), ((mx, b), (my, d))


def _magnitude(value) -> float:
    # largest |component|, NaN unless all are finite; cheaper than numpy's max
    parts = abs(value).reshape(-1).tolist()
    return max(parts) if sum(parts) < math.inf else math.nan


def _pieces(axis) -> list[tuple[float, float]]:
    cuts = tuple(map(float, axis))
    # any comparison with NaN is false, so increasing cuts are not NaN
    if len(cuts) < 2 or not all(map(lt, cuts, cuts[1:])) or math.inf in map(abs, cuts):
        raise ValueError(f"breakpoints must be finite and increasing, got {axis}")
    return list(zip(cuts, cuts[1:]))


def _integrate(f, axes, spec: QuadratureSpec):
    """Integrate f over the product of the axes' breakpoint ranges."""
    cells = list(product(*map(_pieces, axes)))
    cell_rule, split = (_rule_1d, _split_1d) if len(axes) == 1 else (_rule_2d, _split_2d)
    heap: list = []

    def push(cell, coarse, depth) -> float:
        kids = split(cell)
        values = [cell_rule(f, kid) for kid in kids]
        fine = sum(values[1:], values[0])
        err = _magnitude(fine - coarse)
        if not err < math.inf:
            raise NoConvergence(f"quadrature cell {cell}: non-finite integrand")
        # distinct cells break ties between equal errors deterministically
        heapq.heappush(heap, (-err, cell, depth, kids, values, fine))
        return err

    err_sum = math.fsum(push(cell, cell_rule(f, cell), 1) for cell in cells)
    # the goal, and |total| in it, are refreshed only when the leaf count
    # has doubled and before any stop, so no split pays for a numpy sum
    goal, refresh_at = 0.0, 0
    while True:
        if len(heap) >= refresh_at or err_sum <= goal:
            total = reduce(add, map(itemgetter(5), sorted(heap, key=itemgetter(1))))
            mag = _magnitude(total)
            err_sum = -math.fsum(map(itemgetter(0), heap))
            goal = max(spec.abs_tol, spec.rel_tol * mag, _ROUNDING * mag * math.sqrt(len(heap)))
            if err_sum <= goal:
                return total, err_sum
            refresh_at = 2 * len(heap)
        neg_err, cell, depth, kids, values, _ = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise NoConvergence(
                f"quadrature cell {cell} at max depth {spec.max_depth}: "
                f"error {err_sum:g} > tolerance {goal:g}"
            )
        err_sum += neg_err
        for kid, value in zip(kids, values):
            err_sum += push(kid, value, depth + 1)


def integrate_1d(f, interval, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    The value sums the leaves' children; the estimate, |children - leaf|
    summed, bounds the leaves' own coarser values, not the returned one,
    which is usually far closer (double_wind: 1.9e-8 against 1.0e-11).

    interval is (a, b) or increasing breakpoints (a, t1, ..., b), whose
    pieces are the first cells.  f must accept a 1-D array of parameters
    and return a matching 1-D array (scalar integrand) or an (n, 3) array
    (vector integrand, integrated componentwise on a shared cell tree).
    """
    return _integrate(f, (interval,), spec)


def integrate_2d(f, rect, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a,b] x [c,d]; returns (value, error_estimate),
    the estimate bounding the leaves' coarser values as in integrate_1d.

    Each axis of rect is (a, b) or increasing breakpoints, and the
    products of the two axes' pieces are the first cells.  f must accept
    broadcastable parameter arrays (n,1) and (1,n) and return an (n,n)
    array, or (n,n,3) for vector integrands.
    """
    return _integrate(f, rect, spec)
