from pathlib import Path

import numpy as np
import pytest

from loopfield import (
    Circle,
    Disk,
    DipoleSheetSpec,
    FieldConstants,
    LinkScene,
    PlanarRect,
    PolyLine,
    biot_savart,
    coulomb_surface_field,
    differential_probe,
    dipole_mesh_field,
    dipole_sheet_field_exact,
    mesh_boundary,
    mesh_surface,
)
from loopfield import experiments
from loopfield.experiments import (
    ampere_catalog,
    axis_leg_closed_form,
    curl_vanishing,
    default_catalog,
    line_limit_study,
    maxwell_probe,
    similitude_general,
    similitude_infinitesimal,
    unit_circle,
)
from loopfield.scenefile import parse_scene_file
from loopfield.selftest import BUILTIN
from test_geometry import Dome

SCENES = Path(__file__).resolve().parents[1] / "scenes"


# ---------------------------------------------------------------------------
# Similitude studies
# ---------------------------------------------------------------------------


def test_similitude_infinitesimal_default_panel():
    report = similitude_infinitesimal(
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), [0.2, 0.1, 0.05, 0.025], 1e-4
    )
    assert report.passed
    assert report.fitted_order >= 0.9
    errors = [r.abs_error for r in report.rows]
    assert errors == sorted(errors, reverse=True)


def test_similitude_infinitesimal_oblique_direction():
    report = similitude_infinitesimal(
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1.1, 0.4, 1.7), [0.2, 0.1, 0.05, 0.025], 1e-4
    )
    assert report.passed


def test_similitude_errors_independent_of_separation():
    # both sides scale linearly in the sheet separation
    args = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), [0.1, 0.05])
    r1 = similitude_infinitesimal(*args, 1e-3)
    r2 = similitude_infinitesimal(*args, 1e-4)
    for a, b in zip(r1.rows, r2.rows):
        assert a.abs_error == pytest.approx(b.abs_error, rel=1e-9)


def test_similitude_general_flat_square():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    report = similitude_general(patch, (0.5, 0.5, 2.0), 1e-4, [8, 16, 32, 64])
    assert report.passed
    assert report.fitted_order >= 0.9
    assert report.rows[-1].abs_error <= 1e-3


def test_similitude_general_disk_on_axis():
    report = similitude_general(Disk((0, 0, 0), 1.0, (0, 0, 1)), (0, 0, 3.0), 1e-4, [8, 16, 32, 64])
    assert report.passed
    assert report.rows[-1].abs_error <= 1e-3


@pytest.mark.parametrize("r", [(0.0, 0.0, 3.0), (0.5, 0.3, 2.0), (0.2, -0.1, -1.5)])
def test_similitude_general_curved_dome(r):
    # the paper's similitude holds for any spanning surface: on a curved
    # one too the dipole layer's field is h times its rim's, to second
    # order in the mesh spacing
    report = similitude_general(Dome(0.35), r, 1e-4, [8, 16, 32, 64])
    assert report.passed
    assert report.fitted_order >= 1.9
    assert report.rows[-1].abs_error <= 2e-4


def test_similitude_single_cell_reduces_to_panel_comparison():
    # a 1x1 mesh of a small square is the infinitesimal configuration
    side = 0.05
    patch = PlanarRect((0, 0, 0), (side, 0, 0), (0, side, 0))
    mesh = mesh_surface(patch, 1, 1)
    consts = FieldConstants(k_E=1.0, k_B=1.0)
    h = 1e-4
    r = (0, 0, 2.0)
    e_dp = dipole_mesh_field(mesh, DipoleSheetSpec(1.0, h), r, consts)
    b = h * biot_savart(mesh_boundary(mesh), r, consts)
    rel = np.linalg.norm(e_dp - b) / np.linalg.norm(b)
    report = similitude_general(patch, r, h, [1, 2, 4])
    assert report.rows[0].abs_error == pytest.approx(rel, rel=1e-12)


def test_similitude_eps_guard():
    with pytest.raises(ValueError):
        similitude_infinitesimal(
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), [0.5], 1e-4
        )


# ---------------------------------------------------------------------------
# Differential probes
# ---------------------------------------------------------------------------


def test_curl_vanishing_study():
    report = curl_vanishing(
        unit_circle(), [(0, 0, 1.5), (1.3, 0.8, 1.0)], [4e-3, 2e-3, 1e-3]
    )
    assert report.passed
    finest = [r for r in report.point_rows if r.step == 1e-3]
    assert all(r.curl_norm <= 1e-5 for r in finest)
    assert all(r.div_norm <= 1e-5 for r in finest)


def test_curl_step_halving_ratio_off_axis():
    report = curl_vanishing(unit_circle(), [(1.3, 0.8, 1.0)], [4e-3, 2e-3, 1e-3])
    rows = sorted(report.point_rows, key=lambda r: -r.step)
    ratios = [rows[i].curl_norm / rows[i + 1].curl_norm for i in range(len(rows) - 1)]
    assert all(3.0 <= r <= 5.0 for r in ratios)


def test_maxwell_probe_square_sheet():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    report = maxwell_probe(patch, 1.0, [(0.5, 0.5, 1.0), (0.2, 0.8, 0.9)], [2e-3, 1e-3])
    assert report.passed
    kinds = {kind for kind, _ in report.point_rows}
    assert kinds == {"sheet", "dipole"}


def test_maxwell_probe_guard_trip_is_reported():
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    report = maxwell_probe(
        patch, 1.0, [(0.5, 0.5, 1.0), (0.5, 0.5, 1e-9)], [1e-3]
    )
    assert report.notes  # the near-sheet point is recorded, not fatal
    assert any("skipped" in note for note in report.notes)
    assert not report.passed


def test_maxwell_probe_point_on_the_sheet_fails():
    # the dipole layer's sheets lie h/2 = 5e-4 to either side, within the
    # steps, so its stencil would straddle them: neither field is probed
    disk = Disk((0, 0, 0), 1.0, (0, 0, 1))
    report = maxwell_probe(disk, 1.0, [[0.2, 0.1, 0.0]], [2e-3, 1e-3])
    assert [note.split()[0] for note in report.notes] == ["sheet", "dipole"]
    assert report.point_rows == []
    assert not report.passed


@pytest.mark.parametrize("scene", ["square_sheet.json", "disk_sheet.json", "builtin"])
def test_shipped_and_builtin_maxwell_probes_keep_every_row(scene):
    scene_file = BUILTIN if scene == "builtin" else parse_scene_file(SCENES / scene)
    entry = next(e for e in scene_file.experiments if e["kind"] == "maxwell")
    report = maxwell_probe(
        scene_file.build_patch(entry["surface"]), entry["sigma"], entry["points"], entry["steps"],
        dipole_separation=entry["dipole_separation"],
    )
    assert report.passed and not report.notes
    assert len(report.point_rows) == 2 * len(entry["points"]) * len(entry["steps"])


def _counting(calls, field, where):
    """field, recording the shape of the points argument (at position
    where) of every call."""

    def counted(*args):
        calls.append(np.shape(args[where]))
        return field(*args)

    return counted


def test_differential_probe_calls_the_field_once_on_its_stencil():
    calls = []
    differential_probe(_counting(calls, np.asarray, 0), (0.3, -0.2, 0.5), 1e-3)
    assert calls == [(6, 3)]


def test_curl_probe_makes_one_field_call_per_point_and_step(monkeypatch):
    calls, distance_calls = [], []
    monkeypatch.setattr(experiments, "biot_savart", _counting(calls, biot_savart, 1))
    ring = unit_circle()
    monkeypatch.setattr(ring, "distance_to", _counting(distance_calls, ring.distance_to, 0))
    points, steps = [(0, 0, 1.5), (1.3, 0.8, 1.0), (0.2, -0.4, 0.7)], [4e-3, 2e-3, 1e-3, 5e-4]
    curl_vanishing(ring, points, steps)
    assert calls == [(6, 3)] * (len(points) * len(steps))
    # the guard takes its distances from the offsets the field is summed from
    assert distance_calls == []


def test_maxwell_probe_makes_one_field_call_per_point_and_step(monkeypatch):
    sheet_calls, layer_calls, distance_calls = [], [], []
    monkeypatch.setattr(experiments, "coulomb_surface_field", _counting(sheet_calls, coulomb_surface_field, 2))
    monkeypatch.setattr(experiments, "dipole_sheet_field_exact", _counting(layer_calls, dipole_sheet_field_exact, 2))
    patch = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))
    monkeypatch.setattr(patch, "distance_to", _counting(distance_calls, patch.distance_to, 0))
    points, steps = [(0.5, 0.5, 1.0), (0.2, 0.8, 0.9), (1.5, -0.3, 0.4)], [2e-3, 1e-3]
    assert maxwell_probe(patch, 1.0, points, steps).passed
    assert sheet_calls == layer_calls == [(6, 3)] * (len(points) * len(steps))
    # per field one near test, over every point seen from each of its
    # sheets; the guards take their distances from the field's own offsets
    assert distance_calls == [(3, 3), (6, 3)]


# ---------------------------------------------------------------------------
# Straight-wire limit
# ---------------------------------------------------------------------------


def test_line_limit_study():
    report = line_limit_study([2, 4, 8, 16])
    assert report.passed
    assert report.analytic_reference == 1.0
    for row in report.detail:
        assert abs(row.a_total - 1.0) <= 1e-6
        assert row.lk == 1
        assert row.a_axis_leg == pytest.approx(axis_leg_closed_form(row.n), abs=1e-8)
    tails = [r.a_far_legs for r in report.detail]
    assert tails == sorted(tails, reverse=True)
    assert tails[-1] > 0.0


def test_line_limit_rejects_small_n():
    with pytest.raises(ValueError):
        line_limit_study([1, 2])


_SQUARE = PlanarRect((0, 0, 0), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize(
    "name, run",
    [
        ("eps_list", lambda: similitude_infinitesimal((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 2), [], 1e-4)),
        ("mesh_sizes", lambda: similitude_general(_SQUARE, (0.5, 0.5, 2.0), 1e-3, [])),
        ("probe_points", lambda: curl_vanishing(unit_circle(), [], [1e-3])),
        ("steps", lambda: curl_vanishing(unit_circle(), [(0, 0, 1.5)], [])),
        ("probe_points", lambda: maxwell_probe(_SQUARE, 1.0, [], [1e-3])),
        ("steps", lambda: maxwell_probe(_SQUARE, 1.0, [(0.5, 0.5, 1.0)], [])),
        ("n_list", lambda: line_limit_study([])),
    ],
    ids=["similitude_infinitesimal", "similitude_general", "curl_points", "curl_steps",
         "maxwell_points", "maxwell_steps", "line_limit"],
)
def test_an_empty_sweep_is_refused(name, run):
    # a report over nothing measured would pass or fail on no evidence
    with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
        run()


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_default_catalog_composition():
    scenes = default_catalog()
    assert len(scenes) >= 6
    names = [s.name for s in scenes]
    assert len(set(names)) == len(names)
    assert all(s.spanning_mesh is not None for s in scenes)


def test_ampere_catalog_passes():
    rows = ampere_catalog(default_catalog())
    assert all(r.passed for r in rows)
    assert {r.lk for r in rows} >= {-1, 0, 1, 2}
    for row in rows:
        assert row.abs_diff <= 1e-4 + row.error_estimate


def test_ampere_catalog_records_scene_errors():
    # a scene without a spanning mesh cannot be counted; the row records it
    bad = LinkScene(
        Circle((0, 0, 10.0), 1.0, (0, 0, 1)), unit_circle(), None, name="no_mesh"
    )
    rows = ampere_catalog([bad])
    assert len(rows) == 1
    assert not rows[0].passed
    assert rows[0].lk is None


def test_reports_are_deterministic():
    a = line_limit_study([2, 4])
    b = line_limit_study([2, 4])
    assert [r.a_total for r in a.detail] == [r.a_total for r in b.detail]
    assert [r.error_estimate for r in a.detail] == [r.error_estimate for r in b.detail]
