"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

Composite Gauss-Legendre with dyadic refinement: a cell is accepted when
the difference between its one-cell value and the sum over its children
falls below the distributed tolerance.  Vector-valued integrands share a
single cell tree (refinement is driven by the worst component), results
are reduced in a fixed order, and identical inputs always reproduce
bit-identical output.

The quadrature never inspects geometry; singularity guards live in the
callers (fields, linking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence

__all__ = ["QuadratureSpec", "integrate_1d", "integrate_2d"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the adaptive integrators.

    min_distance_guard is an absolute distance used by field/linking
    callers; None means "1e-6 x scene scale", resolved at the call site.
    """

    nodes_per_cell: int = 8
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 18
    min_distance_guard: float | None = None

    def __post_init__(self):
        if self.nodes_per_cell < 2:
            raise ValueError("nodes_per_cell must be >= 2")
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


@lru_cache(maxsize=32)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _magnitude(value) -> float:
    return float(np.abs(value).max())


def _cell_1d(f, a: float, b: float, rule) -> np.ndarray | float:
    nodes, weights = rule
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    return half * (weights @ np.asarray(f(xs), dtype=float))


def _refine_1d(f, a, b, coarse, tol, rule, depth, max_depth, floor, sink):
    mid = 0.5 * (a + b)
    left = _cell_1d(f, a, mid, rule)
    right = _cell_1d(f, mid, b, rule)
    fine = left + right
    err = _magnitude(fine - coarse)
    if err <= tol or err <= floor:
        sink[0] += err
        return fine
    if depth >= max_depth:
        raise NoConvergence(
            f"1-D quadrature on [{a:g}, {b:g}]: error {err:g} > tolerance {tol:g} "
            f"at max depth {max_depth}"
        )
    child_tol = 0.5 * tol
    vl = _refine_1d(f, a, mid, left, child_tol, rule, depth + 1, max_depth, floor, sink)
    vr = _refine_1d(f, mid, b, right, child_tol, rule, depth + 1, max_depth, floor, sink)
    return vl + vr


def integrate_1d(f, interval, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a, b]; returns (value, error_estimate).

    f must accept a 1-D array of parameters and return either a matching
    1-D array (scalar integrand) or an (n, 3) array (vector integrand,
    integrated componentwise on a shared cell tree).
    """
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(f"invalid interval [{a}, {b}]")
    rule = _gauss_rule(spec.nodes_per_cell)
    root = _cell_1d(f, a, b, rule)
    tol = max(spec.abs_tol, spec.rel_tol * _magnitude(root))
    # refinement differences at the rounding level of the whole integral
    # carry no information; stop there regardless of the leaf tolerance
    floor = 8.0 * np.finfo(float).eps * _magnitude(root)
    sink = [0.0]
    value = _refine_1d(f, a, b, root, tol, rule, 1, spec.max_depth, floor, sink)
    return value, sink[0]


def _cell_2d(f, rect, rule) -> np.ndarray | float:
    (a, b), (c, d) = rect
    nodes, weights = rule
    half_x = 0.5 * (b - a)
    half_y = 0.5 * (d - c)
    xs = 0.5 * (a + b) + half_x * nodes
    ys = 0.5 * (c + d) + half_y * nodes
    vals = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
    # the inner product contracts the x axis of a scalar cell and the y
    # axis of a vector one; both axes carry the same weights
    return half_x * half_y * (weights @ (weights @ vals))


def _split4(rect):
    (a, b), (c, d) = rect
    mx = 0.5 * (a + b)
    my = 0.5 * (c + d)
    return (
        ((a, mx), (c, my)),
        ((a, mx), (my, d)),
        ((mx, b), (c, my)),
        ((mx, b), (my, d)),
    )


def _refine_2d(f, rect, coarse, tol, rule, depth, max_depth, floor, sink):
    children = _split4(rect)
    fine_parts = [_cell_2d(f, child, rule) for child in children]
    fine = fine_parts[0] + fine_parts[1] + fine_parts[2] + fine_parts[3]
    err = _magnitude(fine - coarse)
    if err <= tol or err <= floor:
        sink[0] += err
        return fine
    if depth >= max_depth:
        raise NoConvergence(
            f"2-D quadrature on {rect}: error {err:g} > tolerance {tol:g} "
            f"at max depth {max_depth}"
        )
    child_tol = 0.25 * tol
    total = None
    for child, part in zip(children, fine_parts):
        v = _refine_2d(f, child, part, child_tol, rule, depth + 1, max_depth, floor, sink)
        total = v if total is None else total + v
    return total


def integrate_2d(f, rect, spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over [a,b] x [c,d]; returns (value, error_estimate).

    f must accept broadcastable parameter arrays (n,1) and (1,n) and
    return an (n,n) array, or (n,n,3) for vector integrands.
    """
    (a, b), (c, d) = (float(rect[0][0]), float(rect[0][1])), (float(rect[1][0]), float(rect[1][1]))
    if not all(map(math.isfinite, (a, b, c, d))) or a >= b or c >= d:
        raise ValueError(f"invalid rectangle {rect}")
    rule = _gauss_rule(spec.nodes_per_cell)
    box = ((a, b), (c, d))
    root = _cell_2d(f, box, rule)
    tol = max(spec.abs_tol, spec.rel_tol * _magnitude(root))
    floor = 8.0 * np.finfo(float).eps * _magnitude(root)
    sink = [0.0]
    value = _refine_2d(f, box, root, tol, rule, 1, spec.max_depth, floor, sink)
    return value, sink[0]
