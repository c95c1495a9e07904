import functools
import heapq
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfield import (
    Circle,
    CompositeCurve,
    Disk,
    NoConvergence,
    PlanarRect,
    PolyLine,
    QuadratureSpec,
    fields,
    integrate_1d,
    integrate_2d,
    linking,
    quadrature,
)
from test_fields import biot_savart_by_quadrature, sheet_field_by_quadrature
from test_linking import DEFECT_B_C, DEFECT_B_L, TWO_LEGS, defect_a_loop


def test_polynomial():
    value, err = integrate_1d(lambda x: x**2, (0.0, 1.0))
    assert abs(value - 1.0 / 3.0) <= 1e-12
    assert err >= 0.0


def test_full_period_sine():
    value, _ = integrate_1d(np.sin, (0.0, 2.0 * math.pi))
    assert abs(value) <= 1e-12


def test_sharp_peak_closed_form():
    # antiderivative of (x^2 + c)^(-3/2) is x / (c * sqrt(x^2 + c))
    c = 1e-2

    def antiderivative(x):
        return x / (c * math.sqrt(x * x + c))

    expected = antiderivative(1.0) - antiderivative(-1.0)
    value, err = integrate_1d(lambda x: (x**2 + c) ** -1.5, (-1.0, 1.0))
    assert abs(value - expected) <= max(1e-10, err * 10)


def test_vector_integrand_componentwise():
    def f(x):
        return np.stack([x, x**2, np.sin(x)], axis=-1)

    value, _ = integrate_1d(f, (0.0, 1.0))
    assert np.allclose(value, [0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], atol=1e-12)


def test_2d_constant_and_bilinear():
    ones = lambda s, t: np.broadcast_to(1.0, np.broadcast_shapes(s.shape, t.shape)).copy()
    value, _ = integrate_2d(ones, ((0.0, 1.0), (0.0, 1.0)))
    assert abs(value - 1.0) <= 1e-12
    value, _ = integrate_2d(lambda s, t: s * t, ((0.0, 1.0), (0.0, 1.0)))
    assert abs(value - 0.25) <= 1e-12


def test_2d_separable_closed_form():
    # integral of dt / (1+t^2)^(3/2) = t / sqrt(1+t^2)
    expected = 2.0 * math.pi * (2.0 * 10.0 / math.sqrt(101.0))
    value, err = integrate_2d(
        lambda s, t: (1.0 + t**2) ** -1.5 + 0.0 * s,
        ((0.0, 2.0 * math.pi), (-10.0, 10.0)),
    )
    assert abs(value - expected) <= max(1e-8, 10 * err)


def test_linearity_on_fixed_tree():
    # huge tolerances force the root-only tree, so linearity is exact
    spec = QuadratureSpec(abs_tol=1e3, rel_tol=1e3)
    f = lambda x: np.exp(x)
    g = lambda x: np.sin(3.0 * x)
    alpha, beta = 2.5, -1.25
    combo = lambda x: alpha * f(x) + beta * g(x)
    vf, _ = integrate_1d(f, (0.0, 2.0), spec)
    vg, _ = integrate_1d(g, (0.0, 2.0), spec)
    vc, _ = integrate_1d(combo, (0.0, 2.0), spec)
    assert abs(vc - (alpha * vf + beta * vg)) <= 1e-12 * max(1.0, abs(vc))


def test_interval_additivity():
    f = lambda x: np.exp(-x) * np.sin(5 * x)
    total, err_total = integrate_1d(f, (0.0, 3.0))
    left, err_left = integrate_1d(f, (0.0, 1.1))
    right, err_right = integrate_1d(f, (1.1, 3.0))
    assert abs(total - (left + right)) <= err_total + err_left + err_right + 1e-13


def test_determinism_bit_identical():
    f = lambda x: 1.0 / (x**2 + 1e-3) ** 1.5
    first = integrate_1d(f, (-1.0, 1.0))
    second = integrate_1d(f, (-1.0, 1.0))
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_no_convergence_raises():
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=3)
    with pytest.raises(NoConvergence):
        integrate_1d(lambda x: 1.0 / (x**2 + 1e-12) ** 1.5, (-1.0, 1.0), spec)
    # a NaN fails too, also where a larger component hides it in a cell's error
    nan_beyond = lambda x: np.where(x > 0.5, np.nan, x)
    for f in (nan_beyond, lambda x: np.stack([10.0 + x, nan_beyond(x)], axis=-1)):
        with pytest.raises(NoConvergence):
            integrate_1d(f, (0.0, 1.0))


def test_no_convergence_says_where():
    # at max depth: the popped cell, its depth, the summed error and the
    # goal it missed, in 1-D and 2-D
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=3)
    runs = (
        (lambda: integrate_1d(lambda x: 1.0 / (x**2 + 1e-12) ** 1.5, (-1.0, 1.0), spec), ((-0.5, 0.0),)),
        (
            lambda: integrate_2d(lambda s, t: 1.0 / (s**2 + t**2 + 1e-12), ((-1.0, 1.0), (-1.0, 1.0)), spec),
            ((-0.5, 0.0), (-0.5, 0.0)),
        ),
    )
    for run, cell in runs:
        with pytest.raises(NoConvergence) as info:
            run()
        exc = info.value
        assert (exc.cell, exc.depth) == (cell, 3)
        assert exc.error > exc.goal > 0.0
        assert str(exc) == f"quadrature cell {cell} at max depth 3: error {exc.error:g} > tolerance {exc.goal:g}"
    # a non-finite integrand: the first cell whose children met it; the
    # goal is not yet set, so neither error nor goal is given
    with pytest.raises(NoConvergence) as info:
        integrate_1d(lambda x: np.where(x > 0.5, np.nan, x), (0.0, 1.0))
    exc = info.value
    assert (exc.cell, exc.depth, exc.error, exc.goal) == (((0.0, 1.0),), 1, None, None)
    assert str(exc) == "quadrature cell ((0.0, 1.0),): non-finite integrand"


def test_no_convergence_attributes_default_to_none():
    exc = NoConvergence("message")
    assert str(exc) == "message"
    assert (exc.cell, exc.depth, exc.error, exc.goal) == (None, None, None, None)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, (1.0, 0.0))
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    # NaN would switch the tolerances or the guard off; a depth is a count
    for bad in (dict(abs_tol=math.nan), dict(rel_tol=math.nan), dict(abs_tol=math.inf), dict(rel_tol=math.inf),
                dict(max_depth=2.5), dict(min_distance_guard=math.nan), dict(min_distance_guard=-1.0)):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    assert QuadratureSpec(min_distance_guard=math.inf).resolve_guard(1.0) == math.inf


def test_breakpoints_are_the_first_cells():
    # the kink of |x - 1.1| sits on a piece edge, so every cell is a
    # polynomial of degree 1 and the 8-node rule is exact
    f = lambda x: np.abs(x - 1.1)
    exact = 0.5 * 1.1**2 + 0.5 * 1.9**2
    value, err = integrate_1d(f, (0.0, 1.1, 3.0))
    assert abs(value - exact) <= 1e-14
    assert err <= 1e-14
    again = integrate_1d(f, (0.0, 1.1, 3.0))
    assert (again[0], again[1]) == (value, err)
    # the same pieces on both axes of a 2-D integral
    value_2d, _ = integrate_2d(lambda s, t: f(s) * f(t), ((0.0, 1.1, 3.0), (0.0, 1.1, 3.0)))
    assert abs(value_2d - exact**2) <= 1e-13
    for cuts in ((0.0, 1.1, 1.1, 3.0), (0.0, 2.0, 1.0), (0.0,), (0.0, math.nan, 3.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            integrate_1d(f, cuts)
        with pytest.raises(ValueError):
            integrate_2d(lambda s, t: s * t, ((0.0, 1.0), cuts))


def test_guard_resolution():
    assert QuadratureSpec().resolve_guard(2.0) == 2e-6
    assert QuadratureSpec(min_distance_guard=0.5).resolve_guard(100.0) == 0.5


# Cells of reference integrals under the default spec, counted as the
# integrand's points over the rule's (8 in 1-D, 64 in 2-D), since a 1-D
# call carries several cells.  Only a change to the refinement rule may
# move these counts: cheaper cells, batched calls, cached curve nodes or a
# closed-form Jacobian must leave the tree as it is.  Every curve has a
# closed-form field and every sheet a rim field, so the ring's field
# reaches quadrature through the tests' own Biot-Savart integrand, and
# the rectangle's and the disk's through their own Coulomb integrand.  The
# composite (the hopf circle with a spur out and back from where its
# parameter starts), the two-leg loop of two near approaches and the
# Defect B polygon pair take the 1-D circulation route, whose first
# cells are sized from their distance to the source.
_UNIT_RING = Circle((0, 0, 0), 1.0, (0, 0, 1))
_HOPF_CIRCLE = Circle((1.1, 0, 0), 0.7, (0, 1, 0))
_JOINT = _HOPF_CIRCLE.position(_HOPF_CIRCLE.t_start)
_COMPOSITE = CompositeCurve([_HOPF_CIRCLE, PolyLine([_JOINT, _JOINT + (0, 0.3, 0), _JOINT])])
_REFERENCE_CELLS = {
    "hopf_pair": (lambda: linking.gauss_pair_integral(_HOPF_CIRCLE, _UNIT_RING), 213),
    "composite_pair": (lambda: linking.gauss_pair_integral(_COMPOSITE, _UNIT_RING), 18),
    "rect_sheet": (
        lambda: sheet_field_by_quadrature(PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0)), (0.3, 0.48, 0.01)),
        309,
    ),
    "disk_axis": (lambda: sheet_field_by_quadrature(Disk((0, 0, 0), 1.0, (0, 0, 1)), (0, 0, 0.03)), 341),
    "circle_field": (lambda: biot_savart_by_quadrature(_UNIT_RING, (1.01, 0, 0)), 71),
    "two_leg_loop": (lambda: linking.gauss_pair_integral(defect_a_loop(TWO_LEGS), _UNIT_RING), 233),
    "defect_b_pair": (
        lambda: linking.gauss_pair_integral(PolyLine(DEFECT_B_C, closed=True), PolyLine(DEFECT_B_L, closed=True)),
        162,
    ),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CELLS))
def test_reference_integrals_keep_their_cell_counts(monkeypatch, name):
    cells = [0]

    def counting(integrate, rule_size):
        def wrapped(f, *args, **kwargs):
            def counted(*xs):
                cells[0] += np.broadcast(*xs).size // rule_size
                return f(*xs)

            return integrate(counted, *args, **kwargs)

        return wrapped

    for module in (fields, linking, quadrature):
        for attr, rule_size in (("integrate_1d", 8), ("integrate_2d", 64)):
            monkeypatch.setattr(module, attr, counting(getattr(module, attr), rule_size))
    run, expected = _REFERENCE_CELLS[name]
    run()
    assert cells[0] == expected


def _recording(f, shapes):
    def recorded(*xs):
        shapes.append(np.broadcast(*xs).shape)
        return f(*xs)

    return recorded


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cells_of(points):
    """The (a, b) of each cell whose 8 Gauss nodes are consecutive in points."""
    nodes = np.asarray(points).reshape(-1, 8)
    half = (nodes[:, -1] - nodes[:, 0]) / (2.0 * _GL_NODES[-1])
    mid = 0.5 * (nodes[:, 0] + nodes[:, -1])
    return np.stack([mid - half, mid + half], axis=1)


@pytest.mark.parametrize("vector", [False, True])
def test_1d_integrand_sees_whole_grandchild_groups_one_call_per_level(vector):
    # three first pieces of a peaked integrand: the first call carries the
    # first cells and their children, and each later call the four
    # grandchildren of every cell it splits, at most _CALL_CELLS cells
    def peak(x):
        y = (x * x + 1e-3) ** -1.5
        return np.stack([y, np.cos(x)], axis=-1) if vector else y

    calls = []

    def recorded(x):
        calls.append(x.copy())
        return peak(x)

    cuts = (-1.0, -0.2, 0.4, 1.0)
    value, _ = integrate_1d(recorded, cuts)
    assert np.array_equal(value, integrate_1d(peak, cuts)[0])
    first = len(cuts) - 1
    assert calls[0].shape == (8 * 3 * first,)
    for x in calls[1:]:
        assert x.ndim == 1 and x.size % 32 == 0 and x.size <= 8 * quadrature._CALL_CELLS
        # four abutting cells of one width, the grandchildren of one cell
        for a, b in _cells_of(x).reshape(-1, 4, 2).transpose(0, 2, 1):
            assert np.allclose(b[:-1], a[1:], rtol=0.0, atol=1e-12)
            assert np.allclose(b - a, b[0] - a[0], rtol=1e-9, atol=0.0)
    splits, rest = divmod(sum(x.size for x in calls) // 8 - 3 * first, 4)
    assert rest == 0 and len(calls) <= splits + 1
    # the peak needs several splits on one refinement level
    assert len(calls) < splits + 1


def test_2d_integrand_sees_one_cell_per_call():
    shapes = []
    f = lambda s, t: 1.0 / ((s - 0.3) ** 2 + (t - 0.6) ** 2 + 1e-2)
    integrate_2d(_recording(f, shapes), ((0.0, 0.5, 1.0), (0.0, 1.0)))
    assert len(shapes) > 6 and set(shapes) == {(8, 8)}


def _one_cell_rule(f, cell):
    """The 8 x 8 Gauss-Legendre rule on one cell alone: the reference for
    the rule's batched node arithmetic."""
    (a, b), (c, d) = cell
    half_x, half_y = 0.5 * (b - a), 0.5 * (d - c)
    xs, ys = 0.5 * (a + b) + half_x * _GL_NODES, 0.5 * (c + d) + half_y * _GL_NODES
    vals = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
    return half_x * half_y * (np.outer(_GL_WEIGHTS, _GL_WEIGHTS).ravel() @ vals.reshape(64, *vals.shape[2:]))


@pytest.mark.parametrize("vector", [False, True])
def test_2d_rule_is_bitwise_the_one_cell_rule(vector):
    def f(s, t):
        y = np.sin(s + 2.0 * t) / (1.0 + s * s + t * t) + np.cos(s * t)
        return np.stack(np.broadcast_arrays(y, s * t, np.cos(s - t)), axis=-1) if vector else y

    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 5, 12, 40):
        lows = rng.uniform(-3.0, 3.0, (size, 2)) * 10.0 ** rng.integers(-6, 3, (size, 1))
        widths = rng.uniform(0.0, 1.0, (size, 2)) * 10.0 ** rng.integers(-9, 1, (size, 2)) + 1e-12
        cells = [((a, a + w), (c, c + v)) for (a, c), (w, v) in zip(lows.tolist(), widths.tolist())]
        got = quadrature._rule_2d(f, cells)
        assert [value.tobytes() for value in got] == [_one_cell_rule(f, cell).tobytes() for cell in cells]


def _one_split_per_step(f, axes, spec):
    """The adaptive loop splitting one cell per step and calling the
    integrand once per split: the reference for steps that split every
    leaf above the goal at once.  Returns (value, estimate), or raises
    NoConvergence where that loop does."""
    rule = quadrature._rule_1d if len(axes) == 1 else quadrature._rule_2d
    heap = []

    def push(cells, depth, coarse=None):
        kids = [quadrature._split(cell) for cell in cells]
        fresh = cells if coarse is None else []
        values = rule(f, fresh + [kid for group in kids for kid in group])
        if coarse is None:
            coarse, values = values[: len(cells)], values[len(cells) :]
        errs = []
        for i, (cell, value, group) in enumerate(zip(cells, coarse, kids)):
            own = values[i * len(group) : (i + 1) * len(group)]
            fine = sum(own[1:], own[0])
            err = quadrature._magnitude(fine - value)
            if not err < math.inf:
                raise NoConvergence("non-finite integrand")
            heapq.heappush(heap, (-err, cell, depth, group, own, fine))
            errs.append(err)
        return errs

    err_sum = math.fsum(push(list(itertools.product(*map(quadrature._pieces, axes))), 1))
    goal, refresh_at = 0.0, 0
    while True:
        if len(heap) >= refresh_at or err_sum <= goal:
            total = functools.reduce(operator.add, (entry[5] for entry in sorted(heap, key=lambda entry: entry[1])))
            mag = quadrature._magnitude(total)
            err_sum = -math.fsum(entry[0] for entry in heap)
            rounding = quadrature._ROUNDING * mag * math.sqrt(len(heap))
            goal = max(spec.abs_tol, spec.rel_tol * mag, rounding)
            if err_sum <= goal:
                return total, err_sum + rounding
            refresh_at = 2 * len(heap)
        neg_err, cell, depth, kids, values, _ = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise NoConvergence("max depth")
        err_sum += neg_err
        for err in push(list(kids), depth + 1, values):
            err_sum += err


def _lorentzians(draw, dims, vector):
    """A sum of one to four peaks of random height, place and width; in
    2-D no narrower than a 1-D tree of the same cost resolves."""
    peaks = draw(
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0),
                st.lists(st.floats(-1.2, 1.2), min_size=dims, max_size=dims),
                st.floats(-3.0 / dims, 0.0).map(lambda e: 10.0**e),
            ),
            min_size=1,
            max_size=4,
        )
    )

    def f(*xs):
        y = sum(h / (sum((x - c) ** 2 for x, c in zip(xs, at)) + w * w) for h, at, w in peaks)
        return np.stack(np.broadcast_arrays(y, np.cos(xs[0])), axis=-1) if vector else y

    return f


@st.composite
def _quadrature_draws(draw):
    dims = draw(st.sampled_from((1, 1, 1, 2)))
    f = _lorentzians(draw, dims, draw(st.booleans()))
    axes = []
    for _ in range(dims):
        inner = draw(st.lists(st.floats(-0.95, 0.95), max_size=3 if dims == 1 else 1, unique=True))
        axes.append((-1.0, *sorted(inner), 1.0))
    spec = QuadratureSpec(
        abs_tol=10.0 ** draw(st.floats(-12.0, -4.0)),
        rel_tol=10.0 ** draw(st.floats(-12.0, -4.0)),
        max_depth=draw(st.integers(3, 18) if dims == 1 else st.integers(3, 8)),
    )
    return f, axes, spec


def _outcome(f, integrate, axes, spec):
    """integrate's (value, estimate) or None where it raises
    NoConvergence, and the points at which it called f, sorted."""
    points = []

    def recorded(*xs):
        points.extend(x.reshape(-1) for x in np.broadcast_arrays(*xs))
        return f(*xs)

    try:
        result = integrate(recorded, axes, spec)
    except NoConvergence:
        result = None
    return result, np.sort(np.concatenate(points))


@settings(max_examples=300)
@given(_quadrature_draws())
def test_level_steps_match_one_split_per_step(draw):
    # the same raises; the same bits wherever the same cells were
    # evaluated, and otherwise values within the two estimates.  A count
    # of cells does not tell the trees apart: a step may split a leaf that
    # one split at a time leaves whole, and the other loop another leaf.
    f, axes, spec = draw
    got, points = _outcome(f, quadrature._integrate, axes, spec)
    reference, points_ref = _outcome(f, _one_split_per_step, axes, spec)
    assert (got is None) == (reference is None)
    if got is None:
        return
    (value, err), (value_ref, err_ref) = got, reference
    if np.array_equal(points, points_ref):
        assert (value.tobytes(), err) == (value_ref.tobytes(), err_ref)
    else:
        assert len(axes) == 1
        assert np.all(np.abs(value - value_ref) <= err + err_ref)
