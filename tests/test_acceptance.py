"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Runtime budgets are asserted where stated; every numerical threshold is
pinned here rather than deferred to configuration.
"""

import contextlib
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from loopfield import (
    Circle,
    FieldConstants,
    PlanarRect,
    QuadratureSpec,
    RectLoop,
    cross_projection_identity,
    taylor_probe,
)
from loopfield.experiments import (
    ampere_catalog,
    curl_vanishing,
    default_catalog,
    line_limit_study,
    maxwell_probe,
    similitude_general,
    similitude_infinitesimal,
    unit_circle,
    unit_disk_mesh,
)
from loopfield.linking import combinatorial_lk, gauss_linking, gauss_pair_integral
from loopfield.selftest import default_probe_points

REPO = Path(__file__).resolve().parents[1]


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"acceptance {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_straight_wire_limit():
    start = time.monotonic()
    report = line_limit_study([2, 4, 8, 16, 32])
    elapsed = time.monotonic() - start
    final = report.detail[-1]
    tails = [r.a_far_legs for r in report.detail]
    ok = (
        abs(final.a_total - 1.0) <= 1e-2
        and all(b < a for a, b in zip(tails[:-1], tails[1:]))
        and all(r.lk == 1 for r in report.detail)
        and elapsed <= 30.0
    )
    _report(
        "criterion-1 straight-wire limit",
        ok,
        f"|A(32)-1|={abs(final.a_total - 1.0):.3e} runtime={elapsed:.1f}s",
    )


def test_criterion_2_ampere_catalog():
    start = time.monotonic()
    rows = ampere_catalog(default_catalog())
    elapsed = time.monotonic() - start
    lks = {r.lk for r in rows}
    ok = (
        len(rows) >= 6
        and {-1, 0, 1, 2} <= lks
        and all(r.passed for r in rows)
        and all(r.abs_diff <= 1e-4 + r.error_estimate for r in rows)
        and elapsed <= 60.0
    )
    worst = max(r.abs_diff for r in rows)
    _report(
        "criterion-2 circulation-law catalog",
        ok,
        f"scenes={len(rows)} worst|A-Lk|={worst:.3e} runtime={elapsed:.1f}s",
    )


def test_criterion_3_symmetry():
    diffs, ok = [], True
    for scene in default_catalog():
        a_fwd, e_fwd = gauss_linking(scene)
        a_swp, e_swp = gauss_linking(scene.swapped())
        diffs.append(abs(a_fwd - a_swp))
        ok = ok and diffs[-1] <= max(2.0 * (e_fwd + e_swp), 1e-12)
    _report(
        "criterion-3 exchange symmetry",
        ok,
        f"worst diff={max(diffs):.3e}",
    )


def test_criterion_4_infinitesimal_similitude():
    report = similitude_infinitesimal(
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), [0.2, 0.1, 0.05, 0.025], 1e-4
    )
    ok = report.fitted_order >= 0.9
    _report(
        "criterion-4 infinitesimal similitude",
        ok,
        f"fitted_order={report.fitted_order:.3f}",
    )


def test_criterion_5_general_similitude():
    start = time.monotonic()
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    report = similitude_general(patch, (0.5, 0.5, 2.0), 1e-4, [8, 16, 32, 64])
    elapsed = time.monotonic() - start
    ok = (
        report.rows[-1].abs_error <= 1e-3
        and report.fitted_order >= 0.9
        and elapsed <= 120.0
    )
    _report(
        "criterion-5 general similitude",
        ok,
        f"final_rel={report.rows[-1].abs_error:.3e} order={report.fitted_order:.3f} "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_6_curl_vanishing():
    report = curl_vanishing(unit_circle(), default_probe_points(), [4e-3, 2e-3, 1e-3])
    finest = [r for r in report.point_rows if r.step == 1e-3]
    below = all(r.curl_norm <= 1e-5 for r in finest)
    # step-halving ratios where the truncation term dominates the floor
    ratios_ok = True
    for point in default_probe_points():
        mine = sorted(
            (r for r in report.point_rows if np.allclose(r.point, point)),
            key=lambda r: -r.step,
        )
        for coarse, fine in zip(mine[:-1], mine[1:]):
            if coarse.curl_norm > 10 * coarse.floor and fine.curl_norm > 10 * fine.floor:
                ratios_ok = ratios_ok and 3.0 <= coarse.curl_norm / fine.curl_norm <= 5.0
    ok = report.passed and below and ratios_ok
    _report(
        "criterion-6 curl-vanishing",
        ok,
        f"worst|curl|@1e-3={max(r.curl_norm for r in finest):.3e}",
    )


def test_criterion_7_maxwell_off_support():
    square = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    from loopfield import Disk

    disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
    reports = [
        maxwell_probe(square, 1.0, [(0.5, 0.5, 1.0), (0.2, 0.8, 0.9)], [2e-3, 1e-3]),
        maxwell_probe(disk, 1.0, [(0.0, 0.0, 1.5), (0.3, -0.2, 1.2)], [2e-3, 1e-3]),
    ]
    finest = [
        row for rep in reports for _, row in rep.point_rows if row.step == 1e-3
    ]
    worst = max(max(r.curl_norm, r.div_norm) for r in finest)
    ok = all(rep.passed for rep in reports) and worst <= 1e-5
    _report("criterion-7 maxwell off-support", ok, f"worst={worst:.3e}")


def test_criterion_8_projection_identity():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        lhs, rhs = cross_projection_identity(a, b, r)
        worst = max(
            worst,
            float(np.linalg.norm(lhs - rhs) / (np.linalg.norm(a) * np.linalg.norm(b))),
        )
    ok = worst <= 1e-12
    _report("criterion-8 projection identity", ok, f"worst_rel={worst:.3e}")


def test_criterion_9_taylor_probe():
    eps = [0.02, 0.01, 0.005, 0.0025]
    slopes, analytic = taylor_probe((1.3, -0.4, 0.7), (0.5, 1.1, -0.2), eps)
    errs = [abs(s - analytic) for s in slopes]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    expected = -3.0 * np.linalg.norm([1.3, -0.4, 0.7]) ** -5 * (
        1.3 * 0.5 + (-0.4) * 1.1 + 0.7 * (-0.2)
    )
    ok = all(1.8 <= r <= 2.2 for r in ratios) and analytic == pytest.approx(expected)
    _report(
        "criterion-9 taylor probe",
        ok,
        "ratios=" + "/".join(f"{r:.3f}" for r in ratios),
    )


def _no_integrals(*args, **kwargs):
    raise AssertionError("the integrator was called")


def test_criterion_10_route_independence(monkeypatch):
    import loopfield.geometry as geometry
    import loopfield.quadrature as quadrature

    partner = Circle((1, 0, 0), 1.0, (0, 1, 0), "ccw")

    # the combinatorial route must never run the routine behind both integrators
    monkeypatch.setattr(quadrature, "_integrate", _no_integrals)
    lk = combinatorial_lk(partner, unit_disk_mesh())
    monkeypatch.undo()

    # the integral route must never run the crossing kernel, with a circle
    # source (2-D quadrature) or a polygon source (closed-form field, 1-D
    # quadrature)
    def no_intersections(*args, **kwargs):
        raise AssertionError("integral route called the intersector")

    monkeypatch.setattr(geometry, "_crossings", no_intersections)
    value, err = gauss_pair_integral(partner, unit_circle())
    rect_value, rect_err = gauss_pair_integral(RectLoop(8), unit_circle())
    monkeypatch.undo()

    ok = lk == 1 and abs(value - lk) <= 1e-4 + err and abs(rect_value - 1.0) <= 1e-4 + rect_err
    _report(
        "criterion-10 route independence", ok, f"lk={lk} gauss={value:.10f}"
    )


def test_poisoned_integrator_reaches_every_integral_route(monkeypatch):
    import loopfield.quadrature as quadrature
    from loopfield.linking import LinkScene, gauss_linking

    partner = Circle((1, 0, 0), 1.0, (0, 1, 0), "ccw")
    monkeypatch.setattr(quadrature, "_integrate", _no_integrals)
    # a circle source (2-D quadrature) and a polygon source (1-D)
    for source in (partner, RectLoop(8)):
        with pytest.raises(AssertionError, match="integrator was called"):
            gauss_pair_integral(source, unit_circle())
    # a polygon source through validation, with first cells sized from
    # their distance to it
    scene = LinkScene(RectLoop(8), unit_circle(), unit_disk_mesh())
    with pytest.raises(AssertionError, match="integrator was called"):
        gauss_linking(scene)
    assert combinatorial_lk(partner, unit_disk_mesh()) == 1


def test_poisoned_kernel_reaches_every_crossing_count():
    import loopfield.geometry as geometry
    from loopfield.geometry import segment_crossings
    from loopfield.selftest import _poisoned

    partner = Circle((1, 0, 0), 1.0, (0, 1, 0), "ccw")
    mesh = unit_disk_mesh()
    assert combinatorial_lk(partner, mesh) == 1  # the mesh now keeps its index
    with _poisoned("kernel was called", (geometry, "_crossings")):
        # through the kept index, a fresh mesh's first count and the one-shot form
        for spanning in (mesh, unit_disk_mesh()):
            with pytest.raises(AssertionError, match="kernel was called"):
                combinatorial_lk(partner, spanning)
        with pytest.raises(AssertionError, match="kernel was called"):
            segment_crossings((0.5, 0.5, -1.0), (0.5, 0.5, 1.0), mesh.nodes)
    assert combinatorial_lk(partner, mesh) == 1


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_selftest_poisoning_restores_every_name(raises):
    import loopfield.geometry as geometry
    import loopfield.quadrature as quadrature
    from loopfield.selftest import _poisoned

    # every name criterion 10 poisons
    targets = [(quadrature, "_integrate"), (geometry, "_crossings")]
    before = [getattr(module, name) for module, name in targets]

    with pytest.raises(KeyError) if raises else contextlib.nullcontext():
        with _poisoned("poisoned", *targets):
            for module, name in targets:
                with pytest.raises(AssertionError, match="poisoned"):
                    getattr(module, name)()
            if raises:
                raise KeyError
    after = [getattr(module, name) for module, name in targets]
    assert all(a is b for a, b in zip(after, before))


def test_criterion_11_run_to_run_determinism():
    start = time.monotonic()
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "loopfield.cli", "selftest"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append(result.stdout)
    elapsed = time.monotonic() - start
    ok = outputs[0] == outputs[1] and "selftest PASS" in outputs[0]
    _report(
        "criterion-11 run-to-run determinism",
        ok,
        f"byte_identical={outputs[0] == outputs[1]} runtime={elapsed:.1f}s",
    )
