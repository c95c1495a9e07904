"""Acceptance suite: one deterministic pass/fail line per criterion.

Used by the `selftest` CLI subcommand and by the pytest acceptance
module.  Output lines contain only deterministic quantities (no timing),
so repeated runs are byte-identical.

`BUILTIN` is the built-in scene file: one schema-valid experiment entry
per built-in run, each parameter written once.  The command line runs
its entries when there is no --scene.  The selftest runs them through
the command line's own runners, as those subcommands do, and criteria
01-07 and 11 judge the records those runs return; criterion 07 also
judges one more maxwell entry, on BUILTIN's unit disk.  Criterion 03
takes A(C, L) from the ampere record and integrates only the swapped
pairs, and criterion 11 runs every entry twice and compares the JSON
text of the two passes' records.
`INFINITESIMAL` is the panel that a `similitude` entry without a
surface shrinks.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys

import numpy as np

from . import geometry, quadrature
from .experiments import default_catalog, unit_circle, unit_disk_mesh
from .fields import cross_projection_identity, taylor_probe
from .geometry import Circle
from .linking import combinatorial_lk, gauss_linking, gauss_pair_integral
from .scenefile import parse_experiment, parse_scene_dict

__all__ = ["BUILTIN", "INFINITESIMAL", "default_probe_points", "run_selftest"]


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
    "surfaces": {
        "general_square": _SQUARE,
        "square_sheet": _SQUARE,
        "unit_disk": {"kind": "disk", "center": [0, 0, 0], "radius": 1, "axis": [0, 0, 1]},
    },
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

# criterion 07 probes the unit disk as well, on its axis and off it; not a
# built-in run, so `loopfield maxwell` leaves it out
_DISK_MAXWELL = parse_experiment(
    {"kind": "maxwell", "surface": "unit_disk", "sigma": 1.0,
     "points": [[0.0, 0.0, 1.5], [0.3, -0.2, 1.2]], "steps": [2e-3, 1e-3]},
    "criterion 07", BUILTIN,
)


def _c1_line_limit(record, passed):
    rows = record["rows"]
    tail = [r["A_c2"] for r in rows]
    monotone = all(b < a for a, b in zip(tail[:-1], tail[1:]))
    return passed, (
        f"|A(32)-1|={_fmt(abs(rows[-1]['A_total'] - 1.0))} tail32={_fmt(tail[-1])} "
        f"monotone={monotone} lk={'/'.join(str(r['lk']) for r in rows)}"
    )


def _c2_catalog(record, passed):
    rows = record["rows"]
    lks = {r["Lk"] for r in rows if r["Lk"] is not None}
    coverage = {-1, 0, 1, 2} <= lks
    ok = len(rows) >= 6 and coverage and passed
    worst = max((r["abs_diff"] for r in rows if not math.isnan(r["abs_diff"])), default=float("nan"))
    return ok, f"scenes={len(rows)} lk_values={sorted(lks)} worst|A-Lk|={_fmt(worst)}"


def _c3_symmetry(record):
    """A(C, L) of each catalog scene, from the ampere record, against
    A(L, C) of the scene swapped."""
    consts, spec = BUILTIN.field_constants(), BUILTIN.quadrature_spec()  # the ampere run's
    rows, scenes = record["rows"], default_catalog()
    ok, worst = len(rows) == len(scenes), 0.0
    for row, scene in zip(rows, scenes):
        a_swp, e_swp = gauss_linking(scene.swapped(), consts, spec)
        diff = abs(row["A"] - a_swp)
        bound = max(2.0 * (row["error_estimate"] + e_swp), 1e-12)
        ok = ok and row["scene_id"] == scene.name and diff <= bound
        worst = max(worst, diff)
    return ok, f"scenes={len(rows)} worst|A(C,L)-A(L,C)|={_fmt(worst)}"


def _c45_similitude(record, passed):
    (study,) = record["studies"].values()
    return passed, (
        f"fitted_order={_fmt(study['fitted_order'])} "
        f"final_rel={_fmt(study['rows'][-1]['abs_error'])}"
    )


def _c67_probes(quantity: str, *runs):
    """Of probe studies' runs: whether all pass, and the largest error (of
    the named quantity) at their smallest step."""
    rows = [row for rec, _ in runs for study in rec["studies"].values() for row in study["rows"]]
    small = min(r["scale_parameter"] for r in rows)
    worst = max(r["abs_error"] for r in rows if r["scale_parameter"] == small)
    step = np.format_float_scientific(small, trim="-", exp_digits=1)
    return all(passed for _, passed in runs), f"worst{quantity}@{step}={_fmt(worst)}"


def _c8_identity():
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
    return ok, f"worst_rel={_fmt(worst)} (10000 triples)"


def _c9_taylor():
    eps = [0.02, 0.01, 0.005, 0.0025]
    slopes, analytic = taylor_probe((1.3, -0.4, 0.7), (0.5, 1.1, -0.2), eps)
    errs = [abs(s - analytic) for s in slopes]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ratio_ok = all(1.8 <= r <= 2.2 for r in ratios)
    slopes_axis, analytic_axis = taylor_probe((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), [1e-4])
    slope_ok = abs(slopes_axis[0] - analytic_axis) <= 1e-3 and analytic_axis == -3.0
    ok = ratio_ok and slope_ok
    return ok, "ratios=" + "/".join(_fmt(r) for r in ratios)


@contextlib.contextmanager
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


def _c10_independence(catalog_agrees: bool):
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
    ok = count_ok and integral_ok and catalog_agrees
    return ok, f"lk={lk} gauss={_fmt(value)} catalog_agreement={catalog_agrees}"


def _c11_determinism(json_text, first, second):
    """Whether two passes of the same runs give records whose JSON text,
    as `loopfield` writes it, is the same."""
    ok = [json_text(rec) for rec, _ in first] == [json_text(rec) for rec, _ in second]
    return ok, f"outputs_equal={ok}"


def run_selftest(stream=None) -> bool:
    """Run every acceptance criterion; print one line each; return all-pass."""
    from . import cli  # not at the top: cli imports this module for BUILTIN

    def run(entry):
        """The entry's JSON record and pass flag, as its subcommand runs it."""
        _, record, passed = cli._KINDS[entry["kind"]][1](BUILTIN, entry)
        return record, passed

    entries = [*BUILTIN.experiments, _DISK_MAXWELL]
    with contextlib.redirect_stderr(io.StringIO()):  # the runners' progress lines
        runs, again = [list(map(run, entries)) for _ in range(2)]
    ampere, linelimit, panel, general, square, curl, disk = runs
    table = [
        ("01", "straight-wire limit", *_c1_line_limit(*linelimit)),
        ("02", "circulation law catalog", *_c2_catalog(*ampere)),
        ("03", "exchange symmetry", *_c3_symmetry(ampere[0])),
        ("04", "infinitesimal similitude", *_c45_similitude(*panel)),
        ("05", "general similitude", *_c45_similitude(*general)),
        ("06", "curl-free loop field", *_c67_probes("|curl|", curl)),
        ("07", "div/curl off the sheets", *_c67_probes("", square, disk)),
        ("08", "cross-projection identity", *_c8_identity()),
        ("09", "inverse-cube Taylor probe", *_c9_taylor()),
        ("10", "route independence", *_c10_independence(ampere[1])),
        ("11", "run-to-run identical results", *_c11_determinism(cli._json_text, runs, again)),
    ]
    stream = stream or sys.stdout
    for ident, title, passed, detail in table:
        stream.write(f"criterion {ident} {'PASS' if passed else 'FAIL'} {title}: {detail}\n")
    all_ok = all(passed for _, _, passed, _ in table)
    stream.write(f"selftest {'PASS' if all_ok else 'FAIL'} ({len(table)} criteria)\n")
    return all_ok
