"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One globally adaptive routine serves both, as QUADPACK's QAG (Piessens et
al. 1983) and Berntsen, Espelid & Genz (1991) do.  A cell is a tuple of
one or two intervals; the pieces between the caller's breakpoints are the
first cells.  A heap keeps the cells, worst error |sum of children -
one-cell value| first, and splits the worst until the summed error meets
max(abs_tol, rel_tol * |total|) for the whole integral, or the rounding
floor.  Vector integrands share one cell tree, and the value is summed
over the leaves in cell order, so identical inputs give identical bits.
A leaf whose own error is above the goal must be split before any stop,
so a 1-D step splits the worst leaf and every other leaf above the goal,
and one integrand call evaluates all their grandchildren: one call per
refinement level, at most _CALL_CELLS cells.  The first cells and their
children take calls of at most _CALL_CELLS cells too.  A 2-D integrand
sees one cell per call, and a 2-D step splits one cell.

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

# the most cells one 1-D integrand call carries, 8 nodes each: the
# grandchildren of 16 splits; a field summed over 400 segments at one
# call's 512 points peaks near 29 MiB
_CALL_CELLS = 64


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
        # written so that NaN fails every test
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not isinstance(self.max_depth, int) or self.max_depth < 1:
            raise ValueError("max_depth must be an integer >= 1")
        if self.min_distance_guard is not None and not self.min_distance_guard >= 0.0:
            raise ValueError("min_distance_guard must be None or >= 0")

    def resolve_guard(self, scene_scale: float) -> float:
        if self.min_distance_guard is not None:
            return self.min_distance_guard
        return 1e-6 * scene_scale


def _rule_1d(f, cells):
    # one integrand call per _CALL_CELLS cells; each cell's value is the
    # same one-cell product as when it is evaluated alone
    values = []
    for start in range(0, len(cells), _CALL_CELLS):
        ends = np.array([cell[0] for cell in cells[start : start + _CALL_CELLS]])
        halves = 0.5 * (ends[:, 1] - ends[:, 0])
        xs = 0.5 * (ends[:, 0] + ends[:, 1])[:, None] + halves[:, None] * _NODES
        vals = np.asarray(f(xs.reshape(-1)), dtype=float)
        vals = vals.reshape(len(ends), _NODES.size, *vals.shape[1:])
        values += [half * (_WEIGHTS_1D @ block) for half, block in zip(halves.tolist(), vals)]
    return values


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
    # a step's 1-D splits share one call, four grandchildren each; a 2-D
    # cell takes a call of its own, so a 2-D step splits one cell
    cell_rule, step_splits = (_rule_1d, _CALL_CELLS // 4) if len(axes) == 1 else (_rule_2d, 1)
    heap: list = []

    def push(cells, depths, coarse=None) -> list[float]:
        """Heap the cells at their depths with their one-cell values,
        coarse, and their children's; returns the cells' errors in order.
        One rule call evaluates the children, and the cells too when coarse
        is None."""
        kids = [_split(cell) for cell in cells]
        fresh = cells if coarse is None else []
        values = cell_rule(f, fresh + [kid for group in kids for kid in group])
        if coarse is None:
            coarse, values = values[: len(cells)], values[len(cells) :]
        errs = []
        for i, (cell, depth, value, group) in enumerate(zip(cells, depths, coarse, kids)):
            own = values[i * len(group) : (i + 1) * len(group)]
            fine = sum(own[1:], own[0])
            err = _magnitude(fine - value)
            if not err < math.inf:
                raise NoConvergence(f"quadrature cell {cell}: non-finite integrand", cell=cell, depth=depth)
            # distinct cells break ties between equal errors deterministically
            heapq.heappush(heap, (-err, cell, depth, group, own, fine))
            errs.append(err)
        return errs

    err_sum = math.fsum(push(cells, [1] * len(cells)))
    # the goal, and |total| in it, are refreshed only when the leaf count
    # has doubled and before any stop, so no split pays for a numpy sum
    goal, refresh_at = 0.0, 0
    while True:
        if len(heap) >= refresh_at or err_sum <= goal:
            total = reduce(add, map(itemgetter(5), sorted(heap, key=itemgetter(1))))
            mag = _magnitude(total)
            err_sum = -math.fsum(map(itemgetter(0), heap))
            rounding = _ROUNDING * mag * math.sqrt(len(heap))
            goal = max(spec.abs_tol, spec.rel_tol * mag, rounding)
            if err_sum <= goal:
                return total, err_sum + rounding
            refresh_at = 2 * len(heap)
        # every leaf above the goal must be split before any stop, so the
        # worst goes with the others above the goal, up to a call's worth
        popped = [heapq.heappop(heap)]
        while len(popped) < step_splits and heap and -heap[0][0] > goal:
            popped.append(heapq.heappop(heap))
        kids, depths, coarse = [], [], []
        for _, cell, depth, group, own, _ in popped:
            if depth >= spec.max_depth:
                raise NoConvergence(
                    f"quadrature cell {cell} at max depth {spec.max_depth}: "
                    f"error {err_sum:g} > tolerance {goal:g}",
                    cell=cell, depth=depth, error=err_sum, goal=goal,
                )
            kids += group
            depths += [depth + 1] * len(group)
            coarse += own
        for entry in popped:
            err_sum += entry[0]
        for err in push(kids, depths, coarse):
            err_sum += err


def integrate_1d(f, interval, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    The value sums the leaves' children.  The estimate is |children - leaf|
    summed, which bounds the leaves' own coarser values, plus the stop
    goal's rounding term 8 eps |value| sqrt(leaves), which covers the
    rounding of the returned value.  That value is usually far closer
    than the estimate says (double_wind: 1.0e-11 against 4.4e-16).

    interval is (a, b) or increasing breakpoints (a, t1, ..., b), whose
    pieces are the first cells.  f must accept a 1-D array of parameters
    and return a matching 1-D array (scalar integrand) or an (n, 3) array
    (vector integrand, integrated componentwise on a shared cell tree).
    The quadrature makes one call per refinement level, at most
    _CALL_CELLS cells, so n is a multiple of 8 no larger than
    8 * _CALL_CELLS, and f must treat each parameter on its own.
    """
    return _integrate(f, (interval,), spec)


def integrate_2d(f, rect, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a,b] x [c,d]; returns (value, error_estimate),
    the estimate covering the leaves' coarser values and the rounding of
    the value, as in integrate_1d.

    Each axis of rect is (a, b) or increasing breakpoints, and the
    products of the two axes' pieces are the first cells.  f must accept
    broadcastable parameter arrays (n,1) and (1,n) and return an (n,n)
    array, or (n,n,3) for vector integrands.
    """
    return _integrate(f, rect, spec)
