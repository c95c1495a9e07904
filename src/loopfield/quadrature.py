"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One globally adaptive routine serves both, as QUADPACK's QAG (Piessens et
al. 1983) and Berntsen, Espelid & Genz (1991) do.  A cell is a tuple of
one or two intervals; the pieces between the caller's breakpoints are the
first cells.  A heap keeps the cells, worst error |sum of children -
one-cell value| first, and splits the worst until the summed error meets
max(abs_tol, rel_tol * |total|) for the whole integral, or the rounding
floor.  Vector integrands share one cell tree, and the value is summed
over the leaves in cell order, so identical inputs give identical bits.
A 1-D integrand is called once for the first cells and their children,
then once per split for the four grandchildren of the split cell, so
its per-call cost is paid per split, not per cell; a 2-D integrand sees
one cell per call.

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


def _rule_1d(f, cells):
    # one integrand call for the nodes of every cell; each cell's value is
    # the same one-cell product as when it is evaluated alone
    ends = np.array([cell[0] for cell in cells])
    halves = 0.5 * (ends[:, 1] - ends[:, 0])
    xs = 0.5 * (ends[:, 0] + ends[:, 1])[:, None] + halves[:, None] * _NODES
    vals = np.asarray(f(xs.reshape(-1)), dtype=float)
    vals = vals.reshape(len(cells), _NODES.size, *vals.shape[1:])
    return [half * (_WEIGHTS_1D @ block) for half, block in zip(halves.tolist(), vals)]


def _rule_2d(f, cells):
    # one 8x8 cell per integrand call; the nodes of every cell are one
    # array pass, with the same elementwise arithmetic as one cell alone
    ends = np.array(cells)
    halves = 0.5 * (ends[:, :, 1] - ends[:, :, 0])
    nodes = 0.5 * (ends[:, :, 0] + ends[:, :, 1])[:, :, None] + halves[:, :, None] * _NODES
    values = []
    for (xs, ys), (half_x, half_y) in zip(nodes, halves.tolist()):
        vals = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
        values.append(half_x * half_y * (_WEIGHTS_2D @ vals.reshape(_WEIGHTS_2D.size, *vals.shape[2:])))
    return values


def _split(cell):
    """The children of a cell: the product of each axis's two halves, two
    cells in 1-D and four in 2-D, the last axis varying fastest."""
    halves = []
    for a, b in cell:
        mid = 0.5 * (a + b)
        halves.append(((a, mid), (mid, b)))
    return tuple(product(*halves))


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
    cell_rule = _rule_1d if len(axes) == 1 else _rule_2d
    heap: list = []

    def push(cells, depth, coarse=None) -> list[float]:
        """Heap the cells with their one-cell values, coarse, and their
        children's; returns the cells' errors in order.  One integrand
        call evaluates the children, and the cells too when coarse is None."""
        kids = [_split(cell) for cell in cells]
        fresh = cells if coarse is None else []
        values = cell_rule(f, fresh + [kid for group in kids for kid in group])
        if coarse is None:
            coarse, values = values[: len(cells)], values[len(cells) :]
        errs = []
        for i, (cell, value, group) in enumerate(zip(cells, coarse, kids)):
            own = values[i * len(group) : (i + 1) * len(group)]
            fine = sum(own[1:], own[0])
            err = _magnitude(fine - value)
            if not err < math.inf:
                raise NoConvergence(f"quadrature cell {cell}: non-finite integrand")
            # distinct cells break ties between equal errors deterministically
            heapq.heappush(heap, (-err, cell, depth, group, own, fine))
            errs.append(err)
        return errs

    err_sum = math.fsum(push(cells, 1))
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
        for err in push(kids, depth + 1, values):
            err_sum += err


def integrate_1d(f, interval, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    The value sums the leaves' children; the estimate, |children - leaf|
    summed, bounds the leaves' own coarser values, not the returned one,
    which is usually far closer (double_wind: 1.9e-8 against 1.0e-11).

    interval is (a, b) or increasing breakpoints (a, t1, ..., b), whose
    pieces are the first cells.  f must accept a 1-D array of parameters
    and return a matching 1-D array (scalar integrand) or an (n, 3) array
    (vector integrand, integrated componentwise on a shared cell tree).
    One call may carry the nodes of several cells, so n is a multiple of
    8 and f must treat each parameter on its own.
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
