import math

import numpy as np
import pytest

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


def test_invalid_inputs():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, (1.0, 0.0))
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)


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
# parameter starts) takes the 1-D circulation route.
_UNIT_RING = Circle((0, 0, 0), 1.0, (0, 0, 1))
_HOPF_CIRCLE = Circle((1.1, 0, 0), 0.7, (0, 1, 0))
_JOINT = _HOPF_CIRCLE.position(_HOPF_CIRCLE.t_start)
_COMPOSITE = CompositeCurve([_HOPF_CIRCLE, PolyLine([_JOINT, _JOINT + (0, 0.3, 0), _JOINT])])
_REFERENCE_CELLS = {
    "hopf_pair": (lambda: linking.gauss_pair_integral(_HOPF_CIRCLE, _UNIT_RING), 213),
    "composite_pair": (lambda: linking.gauss_pair_integral(_COMPOSITE, _UNIT_RING), 23),
    "rect_sheet": (
        lambda: sheet_field_by_quadrature(PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0)), (0.3, 0.48, 0.01)),
        309,
    ),
    "disk_axis": (lambda: sheet_field_by_quadrature(Disk((0, 0, 0), 1.0, (0, 0, 1)), (0, 0, 0.03)), 341),
    "circle_field": (lambda: biot_savart_by_quadrature(_UNIT_RING, (1.01, 0, 0)), 71),
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


@pytest.mark.parametrize("vector", [False, True])
def test_1d_integrand_sees_whole_cells_one_call_per_split(vector):
    # three first pieces of a peaked integrand; every cell is first, a
    # child of a first cell, or one of the four grandchildren of a split
    def peak(x):
        y = (x * x + 1e-3) ** -1.5
        return np.stack([y, np.cos(x)], axis=-1) if vector else y

    shapes = []
    cuts = (-1.0, -0.2, 0.4, 1.0)
    value, _ = integrate_1d(_recording(peak, shapes), cuts)
    assert np.array_equal(value, integrate_1d(peak, cuts)[0])
    assert all(len(shape) == 1 and shape[0] % 8 == 0 for shape in shapes)
    cells = sum(shape[0] for shape in shapes) // 8
    first = len(cuts) - 1
    splits, rest = divmod(cells - 3 * first, 4)
    assert rest == 0 and splits > 0
    assert shapes[0] == (8 * 3 * first,)
    assert len(shapes) == splits + 1


def test_2d_integrand_sees_one_cell_per_call():
    shapes = []
    f = lambda s, t: 1.0 / ((s - 0.3) ** 2 + (t - 0.6) ** 2 + 1e-2)
    integrate_2d(_recording(f, shapes), ((0.0, 0.5, 1.0), (0.0, 1.0)))
    assert len(shapes) > 6 and set(shapes) == {(8, 8)}


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
