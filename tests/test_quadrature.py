import math

import numpy as np
import pytest

from loopfield import (
    Circle,
    Disk,
    NoConvergence,
    PlanarRect,
    QuadratureSpec,
    fields,
    integrate_1d,
    integrate_2d,
    linking,
    quadrature,
)
from test_fields import QuadratureOnlyPatch, biot_savart_by_quadrature


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


# Cells (integrand calls) of reference integrals under the default spec.
# Only a change to the refinement rule may move these counts: cheaper
# cells, cached curve nodes or a closed-form Jacobian must leave the tree
# as it is.  Every curve has a closed-form field and flat sheets rim
# fields, so the ring's field reaches quadrature through the tests' own
# Biot-Savart integrand, and the rectangle and the disk as patches that
# hide their rims.
_UNIT_RING = Circle((0, 0, 0), 1.0, (0, 0, 1))
_REFERENCE_CELLS = {
    "hopf_pair": (
        lambda: linking.gauss_pair_integral(Circle((1.1, 0, 0), 0.7, (0, 1, 0)), _UNIT_RING),
        213,
    ),
    "rect_sheet": (
        lambda: fields.coulomb_surface_field(
            QuadratureOnlyPatch(PlanarRect((0, 0, 0), (1, 0, 0), (0, 0.8, 0))), 1.0, (0.3, 0.48, 0.01)
        ),
        309,
    ),
    "disk_axis": (
        lambda: fields.coulomb_surface_field(
            QuadratureOnlyPatch(Disk((0, 0, 0), 1.0, (0, 0, 1))), 1.0, (0, 0, 0.03)
        ),
        341,
    ),
    "circle_field": (lambda: biot_savart_by_quadrature(_UNIT_RING, (1.01, 0, 0)), 71),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_CELLS))
def test_reference_integrals_keep_their_cell_counts(monkeypatch, name):
    calls = [0]

    def counting(integrate):
        def wrapped(f, *args, **kwargs):
            def counted(*xs):
                calls[0] += 1
                return f(*xs)

            return integrate(counted, *args, **kwargs)

        return wrapped

    for module in (fields, linking, quadrature):
        for attr in ("integrate_1d", "integrate_2d"):
            monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
    run, cells = _REFERENCE_CELLS[name]
    run()
    assert calls[0] == cells
