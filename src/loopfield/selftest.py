"""Acceptance suite: one deterministic pass/fail line per criterion.

Used by the `selftest` CLI subcommand and by the pytest acceptance
module.  Output lines contain only deterministic quantities (no timing),
so repeated runs are byte-identical.

`BUILTIN` is the built-in scene file: one schema-valid experiment entry
per built-in run, each parameter written once.  The command line runs
its entries when there is no --scene, and criteria 01 and 04-07 check
them.  `INFINITESIMAL` is the panel that a `similitude` entry without a
surface shrinks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import geometry, quadrature
from .experiments import (
    ampere_catalog,
    curl_vanishing,
    default_catalog,
    line_limit_study,
    maxwell_probe,
    similitude_general,
    similitude_infinitesimal,
    symmetry_sweep,
    unit_circle,
    unit_disk_mesh,
)
from .fields import cross_projection_identity, taylor_probe
from .geometry import Circle, Disk
from .linking import combinatorial_lk, gauss_pair_integral
from .scenefile import parse_scene_dict

__all__ = ["BUILTIN", "INFINITESIMAL", "CriterionResult", "default_probe_points", "run_selftest"]


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def default_probe_points():
    """Shipped curl-probe points: one on the loop axis, two generic."""
    return [[0.0, 0.0, 1.5], [1.3, 0.8, 1.0], [0.4, -0.2, 1.3]]


_SQUARE = {"kind": "planar_rect", "corner": [0, 0, 0], "edge_a": [1, 0, 0], "edge_b": [0, 1, 0]}

# The built-in runs, in the order the command line runs them; each entry
# names its geometry by the label it reports.  With no scenes, the ampere
# entry runs the built-in catalog.
BUILTIN = parse_scene_dict({
    "version": 1,
    "curves": {
        "unit_circle": {"kind": "circle", "center": [0, 0, 0], "radius": 1, "axis": [0, 0, 1]},
    },
    "surfaces": {"general_square": _SQUARE, "square_sheet": _SQUARE},
    "experiments": [
        {"kind": "ampere"},
        {"kind": "linelimit", "n": [2, 4, 8, 16, 32]},
        {"kind": "similitude", "r": [0.0, 0.0, 2.0], "h": 1e-4},  # the shrinking panel
        {"kind": "similitude", "surface": "general_square", "r": [0.5, 0.5, 2.0], "h": 1e-4},
        {"kind": "maxwell", "surface": "square_sheet", "sigma": 1.0,
         "points": [[0.5, 0.5, 1.0], [0.2, 0.8, 0.9]], "steps": [2e-3, 1e-3]},
        {"kind": "curl", "curve": "unit_circle", "points": default_probe_points(),
         "steps": [4e-3, 2e-3, 1e-3]},
    ],
})

# similitude_infinitesimal's panel: the unit square's corner, shrinking
INFINITESIMAL = {
    "base": (0.0, 0.0, 0.0), "a": (1.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0),
    "eps_list": [0.2, 0.1, 0.05, 0.025],
}


def _builtin(kind: str) -> list[dict]:
    """BUILTIN's entries of one kind, in order."""
    return [e for e in BUILTIN.experiments if e["kind"] == kind]


def _c1_line_limit() -> CriterionResult:
    (entry,) = _builtin("linelimit")
    report = line_limit_study(entry["n"])
    last = report.detail[-1]
    tail = [r.a_far_legs for r in report.detail]
    monotone = all(b < a for a, b in zip(tail[:-1], tail[1:]))
    return CriterionResult(
        "01",
        "straight-wire limit",
        report.passed,
        f"|A(32)-1|={_fmt(abs(last.a_total - 1.0))} tail32={_fmt(last.a_far_legs)} "
        f"monotone={monotone} lk={'/'.join(str(r.lk) for r in report.detail)}",
    )


def _c2_catalog():
    rows = ampere_catalog(default_catalog())
    lks = {r.lk for r in rows if r.lk is not None}
    coverage = {-1, 0, 1, 2} <= lks
    ok = len(rows) >= 6 and coverage and all(r.passed for r in rows)
    worst = max((r.abs_diff for r in rows if not math.isnan(r.abs_diff)), default=float("nan"))
    result = CriterionResult(
        "02",
        "circulation law catalog",
        ok,
        f"scenes={len(rows)} lk_values={sorted(lks)} worst|A-Lk|={_fmt(worst)}",
    )
    return result, rows


def _c3_symmetry() -> CriterionResult:
    rows = symmetry_sweep(default_catalog())
    ok = all(r.passed for r in rows)
    worst = max(r.diff for r in rows)
    return CriterionResult(
        "03", "exchange symmetry", ok, f"scenes={len(rows)} worst|A(C,L)-A(L,C)|={_fmt(worst)}"
    )


def _c4_similitude_infinitesimal() -> CriterionResult:
    panel, _ = _builtin("similitude")
    report = similitude_infinitesimal(**INFINITESIMAL, r=panel["r"], h=panel["h"])
    return CriterionResult(
        "04",
        "infinitesimal similitude",
        report.passed,
        f"fitted_order={_fmt(report.fitted_order)} "
        f"final_rel={_fmt(report.rows[-1].abs_error)}",
    )


def _c5_similitude_general() -> CriterionResult:
    _, entry = _builtin("similitude")
    patch = BUILTIN.build_patch(entry["surface"])
    report = similitude_general(patch, entry["r"], entry["h"], entry["mesh_sizes"])
    return CriterionResult(
        "05",
        "general similitude",
        report.passed,
        f"fitted_order={_fmt(report.fitted_order)} "
        f"final_rel={_fmt(report.rows[-1].abs_error)}",
    )


def _step_label(step: float) -> str:
    return np.format_float_scientific(step, trim="-", exp_digits=1)


def _c6_curl() -> CriterionResult:
    (entry,) = _builtin("curl")
    report = curl_vanishing(BUILTIN.build_curve(entry["curve"]), entry["points"], entry["steps"])
    small = min(entry["steps"])
    worst = max(r.curl_norm for r in report.point_rows if r.step == small)
    return CriterionResult(
        "06", "curl-free loop field", report.passed,
        f"worst|curl|@{_step_label(small)}={_fmt(worst)}",
    )


# criterion 07 probes the unit disk about +z as well, on its axis and off it
_DISK_PROBE_POINTS = ((0.0, 0.0, 1.5), (0.3, -0.2, 1.2))


def _c7_maxwell() -> CriterionResult:
    (entry,) = _builtin("maxwell")
    steps = entry["steps"]
    rep_square = maxwell_probe(
        BUILTIN.build_patch(entry["surface"]), entry["sigma"], entry["points"], steps,
        dipole_separation=entry["dipole_separation"],
    )
    rep_disk = maxwell_probe(
        Disk((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0)), 1.0, _DISK_PROBE_POINTS, steps
    )
    small = min(steps)
    finest = [
        row for rep in (rep_square, rep_disk)
        for _, row in rep.point_rows if row.step == small
    ]
    worst = max(max(r.curl_norm, r.div_norm) for r in finest)
    ok = rep_square.passed and rep_disk.passed
    return CriterionResult(
        "07", "div/curl off the sheets", ok, f"worst@{_step_label(small)}={_fmt(worst)}"
    )


def _c8_identity() -> CriterionResult:
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        lhs, rhs = cross_projection_identity(a, b, r)
        scale = float(np.linalg.norm(a) * np.linalg.norm(b))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    ok = worst <= 1e-12
    return CriterionResult(
        "08", "cross-projection identity", ok, f"worst_rel={_fmt(worst)} (10000 triples)"
    )


def _c9_taylor() -> CriterionResult:
    eps = [0.02, 0.01, 0.005, 0.0025]
    slopes, analytic = taylor_probe((1.3, -0.4, 0.7), (0.5, 1.1, -0.2), eps)
    errs = [abs(s - analytic) for s in slopes]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ratio_ok = all(1.8 <= r <= 2.2 for r in ratios)
    slopes_axis, analytic_axis = taylor_probe((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), [1e-4])
    slope_ok = abs(slopes_axis[0] - analytic_axis) <= 1e-3 and analytic_axis == -3.0
    ok = ratio_ok and slope_ok
    return CriterionResult(
        "09", "inverse-cube Taylor probe", ok,
        "ratios=" + "/".join(_fmt(r) for r in ratios),
    )


@contextmanager
def _poisoned(message: str, *targets):
    """Within the block, calling any (module, name) of targets raises
    AssertionError(message); afterwards each name is what it was."""
    def boom(*_args, **_kwargs):
        raise AssertionError(message)

    saved = [(module, name, getattr(module, name)) for module, name in targets]
    try:
        for module, name, _ in saved:
            setattr(module, name, boom)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def _c10_independence(catalog_rows) -> CriterionResult:
    # counting route must not run the one routine behind both integrators
    with _poisoned("combinatorial route invoked quadrature", (quadrature, "_integrate")):
        lk = combinatorial_lk(
            Circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), "ccw"), unit_disk_mesh()
        )
    count_ok = lk == 1
    # integral route must not run the one kernel behind every crossing count
    with _poisoned("integral route invoked panel intersection", (geometry, "_crossings")):
        value, _ = gauss_pair_integral(
            Circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), "ccw"), unit_circle()
        )
    integral_ok = abs(value - 1.0) <= 1e-6
    agreement_ok = all(r.passed for r in catalog_rows)
    ok = count_ok and integral_ok and agreement_ok
    return CriterionResult(
        "10", "route independence", ok,
        f"lk={lk} gauss={_fmt(value)} catalog_agreement={agreement_ok}",
    )


def _c11_determinism() -> CriterionResult:
    partner = Circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), "ccw")
    outputs = []
    for _ in range(2):
        value, err = gauss_pair_integral(partner, unit_circle())
        lk = combinatorial_lk(partner, unit_disk_mesh())
        outputs.append(f"{_fmt(value)},{_fmt(err)},{lk}")
    ok = outputs[0] == outputs[1]
    return CriterionResult("11", "run-to-run identical results", ok, f"outputs_equal={ok}")


def run_selftest(stream=None) -> bool:
    """Run every acceptance criterion; print one line each; return all-pass."""
    import sys

    stream = stream or sys.stdout
    results: list[CriterionResult] = []

    results.append(_c1_line_limit())
    c2, catalog_rows = _c2_catalog()
    results.append(c2)
    results.append(_c3_symmetry())
    results.append(_c4_similitude_infinitesimal())
    results.append(_c5_similitude_general())
    results.append(_c6_curl())
    results.append(_c7_maxwell())
    results.append(_c8_identity())
    results.append(_c9_taylor())
    results.append(_c10_independence(catalog_rows))
    results.append(_c11_determinism())

    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        stream.write(f"criterion {res.ident} {status} {res.title}: {res.detail}\n")
        all_ok = all_ok and res.passed
    stream.write(f"selftest {'PASS' if all_ok else 'FAIL'} ({len(results)} criteria)\n")
    return all_ok
