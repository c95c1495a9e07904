import json
from pathlib import Path

import numpy as np
import pytest

from loopfield import Circle, LinkScene, SceneFormatError
from loopfield.scenefile import parse_experiment, parse_scene_dict, parse_scene_file
from loopfield.selftest import BUILTIN

SCENES_DIR = Path(__file__).resolve().parents[1] / "scenes"

MINIMAL = {
    "version": 1,
    "curves": {
        "ring": {
            "kind": "circle",
            "center": [0.0, 0.0, 0.0],
            "radius": 1.0,
            "axis": [0.0, 0.0, 1.0],
            "orientation": "ccw",
        },
        "partner": {
            "kind": "circle",
            "center": [1.0, 0.0, 0.0],
            "radius": 1.0,
            "axis": [0.0, 1.0, 0.0],
            "orientation": "ccw",
        },
    },
    "surfaces": {
        "disk": {
            "kind": "disk",
            "center": [0.0, 0.0, 0.0],
            "radius": 1.0,
            "axis": [0.0, 0.0, 1.0],
            "mesh": [15, 15],
        }
    },
    "scenes": {
        "hopf": {"curve_c": "partner", "curve_l": "ring", "spanning_surface": "disk"}
    },
    "experiments": [{"kind": "link", "scene": "hopf"}],
}


def test_minimal_scene_parses_and_builds():
    sf = parse_scene_dict(MINIMAL)
    scene = sf.build_scene("hopf")
    assert isinstance(scene, LinkScene)
    assert isinstance(scene.curve_c, Circle)
    assert scene.spanning_mesh.m == 15
    scene.validate()


def test_round_trip_is_identical():
    sf = parse_scene_dict(MINIMAL)
    again = parse_scene_dict(json.loads(json.dumps(sf.to_dict())))
    assert sf == again
    assert again.to_dict() == sf.to_dict()


def _assert_round_trips_and_builds(sf):
    again = parse_scene_dict(json.loads(sf.to_json()))
    assert sf == again
    for name in sf.scenes:
        sf.build_scene(name).validate()
    for name in sf.curves:
        sf.build_curve(name)
    for name in sf.surfaces:
        sf.build_mesh(name)


@pytest.mark.parametrize("path", sorted(SCENES_DIR.glob("*.json")))
def test_shipped_scene_files_round_trip(path):
    _assert_round_trips_and_builds(parse_scene_file(path))


def test_builtin_scene_file_round_trips():
    # the command line's built-in runs are ordinary, schema-valid entries
    _assert_round_trips_and_builds(BUILTIN)
    for k, entry in enumerate(BUILTIN.experiments):
        assert parse_experiment(entry, f"experiments[{k}]", BUILTIN) == entry
    assert [e["kind"] for e in BUILTIN.experiments] == [
        "ampere", "linelimit", "similitude", "similitude", "maxwell", "curl"
    ]


def test_similitude_surface_is_optional_but_r_and_h_are_not():
    data = {"version": 1, "experiments": [{"kind": "similitude", "r": [0, 0, 2], "h": 1e-4}]}
    (panel,) = parse_scene_dict(data).experiments
    assert "surface" not in panel
    for key in ("r", "h"):
        entry = {"kind": "similitude", "r": [0, 0, 2], "h": 1e-4}
        del entry[key]
        with pytest.raises(SceneFormatError, match=f"missing fields \\['{key}'\\]"):
            parse_scene_dict({"version": 1, "experiments": [entry]})


def test_version_must_match():
    bad = dict(MINIMAL, version=2)
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_unknown_top_level_field_rejected():
    bad = dict(MINIMAL, plotting=True)
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_unknown_curve_field_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["curves"]["ring"]["colour"] = "red"
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_missing_reference_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["scenes"]["hopf"]["curve_c"] = "nope"
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_bad_vector_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["curves"]["ring"]["center"] = [0.0, 0.0]
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_non_finite_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["curves"]["ring"]["radius"] = float("inf")
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_experiment_reference_checked():
    bad = json.loads(json.dumps(MINIMAL))
    bad["experiments"] = [{"kind": "link", "scene": "missing"}]
    with pytest.raises(SceneFormatError):
        parse_scene_dict(bad)


def test_polyline_and_rect_loop_specs():
    sf = parse_scene_dict(
        {
            "version": 1,
            "curves": {
                "zig": {
                    "kind": "polyline",
                    "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
                    "closed": True,
                },
                "rect": {"kind": "rect_loop", "n": 4},
                "both": {"kind": "composite", "parts": ["zig"]},
            },
        }
    )
    zig = sf.build_curve("zig")
    assert zig.closed
    rect = sf.build_curve("rect")
    assert np.allclose(rect.vertices[0], [0, 0, -4])
    sf.build_curve("both")


def test_composite_cycle_rejected():
    with pytest.raises(SceneFormatError):
        parse_scene_dict(
            {
                "version": 1,
                "curves": {"a": {"kind": "composite", "parts": ["a"]}},
            }
        ).build_curve("a")


def test_constants_and_quadrature_blocks():
    sf = parse_scene_dict(
        {
            "version": 1,
            "constants": {"k_E": 2.0, "k_B": 1.0},
            "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-7, "max_depth": 10},
        }
    )
    assert sf.field_constants().k_E == 2.0
    spec = sf.quadrature_spec()
    assert (spec.abs_tol, spec.rel_tol, spec.max_depth) == (1e-9, 1e-7, 10)
    with pytest.raises(SceneFormatError):
        parse_scene_dict({"version": 1, "constants": {"k_E": 0.0}})


def test_quadrature_rule_is_not_a_scene_setting():
    # every cell takes the 8-node rule; a scene cannot choose another
    with pytest.raises(SceneFormatError, match=r"unknown fields \['nodes_per_cell'\]"):
        parse_scene_dict({"version": 1, "quadrature": {"nodes_per_cell": 6}})


_SHEET = {"kind": "planar_rect", "corner": [0, 0, 0], "edge_a": [1, 0, 0], "edge_b": [0, 1, 0]}
_MAXWELL = {"kind": "maxwell", "surface": "sheet", "sigma": 1.0, "points": [[0.5, 0.5, 1.0]],
            "steps": [0.002, 0.001]}
_CURL = {"kind": "curl", "curve": "ring", "points": [[0.0, 0.0, 1.5]], "steps": [0.002, 0.001]}
_SIMILITUDE = {"kind": "similitude", "surface": "sheet", "r": [0.5, 0.5, 2.0], "h": 1e-4}


@pytest.mark.parametrize("entry", [
    dict(_MAXWELL, points=5),
    dict(_MAXWELL, steps=0.001),
    dict(_MAXWELL, points=[]),
    dict(_MAXWELL, steps=[]),
    dict(_MAXWELL, steps=[0.002, 0.0]),
    dict(_CURL, points=[]),
    dict(_CURL, steps=[-0.001]),
    dict(_SIMILITUDE, h=0),
    {"kind": "linelimit", "n": [2, 2, 4]},
    {"kind": "linelimit", "n": [1, 2]},
    {"kind": ["maxwell"]},
])
def test_experiment_entries_that_crash_or_pass_vacuously_are_rejected(entry):
    # points: a non-empty list of 3-vectors; steps: a non-empty list of
    # positive numbers; h: nonzero; n: distinct extents >= 2
    data = json.loads(json.dumps(MINIMAL))
    data["surfaces"]["sheet"] = _SHEET
    data["experiments"] = [entry]
    with pytest.raises(SceneFormatError):
        parse_scene_dict(data)


def test_unhashable_curve_kind_rejected():
    with pytest.raises(SceneFormatError):
        parse_scene_dict({"version": 1, "curves": {"c": {"kind": ["circle"]}}})


def test_composite_may_name_a_later_curve_but_not_a_missing_one():
    curves = {
        "both": {"kind": "composite", "parts": ["rect"]},
        "rect": {"kind": "rect_loop", "n": 2},
    }
    parse_scene_dict({"version": 1, "curves": curves}).build_curve("both")
    curves["both"]["parts"] = ["nope"]
    with pytest.raises(SceneFormatError):
        parse_scene_dict({"version": 1, "curves": curves})


def _shipped(name, edit):
    """The shipped scene file name, as data, after edit(data)."""
    data = json.loads((SCENES_DIR / name).read_text())
    edit(data)
    return data


def _swap_and_separate(data):
    data["experiments"].reverse()
    data["experiments"][1]["dipole_separation"] = -0.001


# each parsed, then stopped `run --scene` after its earlier entries had
# written their outputs
_FAILS_AT_RUN = {
    "mesh_sizes_zero": ("square_sheet.json", lambda d: d["experiments"][1].update(mesh_sizes=[0, 1, 2]),
                        r"^experiments\[1\]\.mesh_sizes: must be >= 1, got 0$"),
    "mesh_sizes_negative": ("square_sheet.json", lambda d: d["experiments"][1].update(mesh_sizes=[-3, 4, 5]),
                            r"^experiments\[1\]\.mesh_sizes: must be >= 1, got -3$"),
    "negative_separation": ("square_sheet.json", _swap_and_separate,
                            r"^experiments\[1\]\.dipole_separation: must be >= 0, got -0\.001$"),
    "zero_radius": ("hopf.json", lambda d: d["curves"]["ring"].update(radius=0),
                    r"^curves\.ring: radius must be positive and finite, got 0\.0$"),
    "zero_axis": ("hopf.json", lambda d: d["curves"]["ring"].update(axis=[0, 0, 0]),
                  r"^curves\.ring: axis must be nonzero$"),
    "unused_circular_composite": ("hopf.json", lambda d: d["curves"].update(loop={"kind": "composite",
                                                                                   "parts": ["loop"]}),
                                  r"^curve 'loop': circular composite reference$"),
    "degenerate_patch": ("square_sheet.json", lambda d: d["surfaces"]["sheet"].update(edge_b=[2.0, 0.0, 0.0]),
                         r"^surfaces\.sheet: edge_a x edge_b vanishes$"),
}


@pytest.mark.parametrize("case", sorted(_FAILS_AT_RUN))
def test_a_scene_that_cannot_run_does_not_parse(case):
    name, edit, message = _FAILS_AT_RUN[case]
    with pytest.raises(SceneFormatError, match=message):
        parse_scene_dict(_shipped(name, edit))

