import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st


REPO = Path(__file__).resolve().parents[1]
SCENES = REPO / "scenes"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "loopfield.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
    )


def test_link_hopf_scene():
    result = run_cli("link", "--scene", str(SCENES / "hopf.json"))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "scene,value,error_estimate,lk"
    scene, value, err, lk = lines[1].split(",")
    assert scene == "hopf"
    assert abs(float(value) - 1.0) <= 1e-6
    assert int(lk) == 1


def test_missing_scene_file_is_usage_error():
    result = run_cli("link", "--scene", "missing.json")
    assert result.returncode == 2
    assert "missing.json" in result.stderr


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate", "--scene", "missing.json").returncode == 2
    assert run_cli("run", "--scene", "missing.json").returncode == 2


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("link", "--scene", str(bad))
    assert result.returncode == 2
    assert "bad.json" in result.stderr


def test_numerical_error_exit_code(tmp_path):
    scene = {
        "version": 1,
        "curves": {
            "ring": {"kind": "circle", "center": [0, 0, 0], "radius": 1.0,
                      "axis": [0, 0, 1], "orientation": "ccw"},
            "touching": {"kind": "circle", "center": [1, 0, 0], "radius": 1.0,
                          "axis": [0, 0, 1], "orientation": "ccw"},
        },
        "scenes": {"touch": {"curve_c": "touching", "curve_l": "ring"}},
    }
    path = tmp_path / "touch.json"
    path.write_text(json.dumps(scene))
    result = run_cli("link", "--scene", str(path))
    assert result.returncode == 3
    assert "numerical error" in result.stderr


def test_linelimit_csv_columns(tmp_path):
    out = tmp_path / "report.csv"
    result = run_cli("linelimit", "--n", "2,4,8", "--out", str(out))
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,A_total,A_c1,A_c2,abs_err"
    assert len(lines) == 4
    assert (tmp_path / "report.json").exists()
    record = json.loads((tmp_path / "report.json").read_text())
    assert record["passed"] is True
    assert [row["n"] for row in record["rows"]] == [2, 4, 8]


def test_ampere_default_catalog():
    result = run_cli("ampere")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "scene_id,A,Lk,abs_diff,pass"
    assert len(lines) == 7
    assert all(line.endswith("true") for line in lines[1:])


def test_lk_subcommand():
    result = run_cli("lk", "--scene", str(SCENES / "double_wind.json"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1] == "double_wind,2"


def test_field_subcommand():
    result = run_cli(
        "field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring",
        "--points", "0,0,0;0,0,1.5",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "point_x,point_y,point_z,field_x,field_y,field_z"
    first = [float(v) for v in lines[1].split(",")]
    assert abs(first[5] - 0.5) <= 1e-9


def test_field_beside_the_wire():
    # 1e-3 outside the hopf ring, in its plane, where the field is -z
    result = run_cli(
        "field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring",
        "--points=1.001,0,0",
    )
    assert result.returncode == 0, result.stderr
    row = [float(v) for v in result.stdout.strip().splitlines()[1].split(",")]
    with mpmath.workdps(40):
        rho = mpmath.mpf(row[0])
        big, small = (1 + rho) ** 2, (1 - rho) ** 2
        m = 4 * rho / big
        b_z = 2 / (4 * mpmath.pi) / mpmath.sqrt(big) * (
            mpmath.ellipk(m) + (1 - rho * rho) / small * mpmath.ellipe(m)
        )
    assert row[3:5] == [0.0, 0.0]
    assert abs(row[5] - float(b_z)) <= 10 * (1e-8 * abs(float(b_z)) + 1e-10 / (4 * math.pi))


def test_field_near_the_guard(tmp_path):
    # 2e-5 outside the hopf ring, about 7x its guard of 2.8e-6; quadrature
    # stopped at about 4e-5, the circle's closed form reaches the guard
    result = run_cli(
        "field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring",
        "--points=1.00002,0,0",
    )
    assert result.returncode == 0, result.stderr
    # and so does the ring as a one-part composite, the sum of its one leaf
    scene = json.loads((SCENES / "hopf.json").read_text())
    scene["curves"]["wrapped"] = {"kind": "composite", "parts": ["ring"]}
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(scene))
    wrapped = run_cli("field", "--scene", str(path), "--curve", "wrapped", "--points=1.00002,0,0")
    assert wrapped.returncode == 0, wrapped.stderr
    assert wrapped.stdout == result.stdout
    row = [float(v) for v in result.stdout.strip().splitlines()[1].split(",")]
    with mpmath.workdps(40):
        rho = mpmath.mpf(row[0])
        big, small = (1 + rho) ** 2, (1 - rho) ** 2
        m = 4 * rho / big
        b_z = 2 / (4 * mpmath.pi) / mpmath.sqrt(big) * (
            mpmath.ellipk(m) + (1 - rho * rho) / small * mpmath.ellipe(m)
        )
    assert row[3:5] == [0.0, 0.0]
    assert abs(row[5] - float(b_z)) <= 1e-12 * abs(float(b_z))


def test_circle_and_sheet_commands_need_no_quadrature(monkeypatch, tmp_path):
    # the unit circle, the square sheets and the disk sheet are closed
    # form; a silent fallback to quadrature over the unit square, or along
    # a curve or a rim, would raise here
    from loopfield import cli, fields, quadrature

    def poisoned(*args, **kwargs):
        raise AssertionError("quadrature reached")

    out = str(tmp_path / "out.csv")
    # the routine every quadrature route meets, as selftest criterion 10
    # poisons it, and the names that bench/spans.py wraps under fields
    monkeypatch.setattr(quadrature, "_integrate", poisoned)
    monkeypatch.setattr(fields, "integrate_1d", poisoned)
    monkeypatch.setattr(fields, "integrate_2d", poisoned)
    disk_scene = str(SCENES / "disk_sheet.json")
    assert cli.run(["maxwell", "--scene", disk_scene, "--out", out]) == 0
    points = "0,0,0.5;0.3,-0.2,1.2;1.0,0,1e-3;1.5,0.2,-0.4"
    assert cli.run(["field", "--scene", disk_scene, "--surface", "sheet", "--points", points, "--out", out]) == 0
    assert cli.run(["maxwell", "--scene", str(SCENES / "square_sheet.json"), "--out", out]) == 0
    assert cli.run(["maxwell", "--out", out]) == 0
    assert cli.run(["curl", "--out", out]) == 0


def test_field_requires_exactly_one_object():
    result = run_cli(
        "field", "--scene", str(SCENES / "hopf.json"),
        "--curve", "ring", "--surface", "ring_disk", "--points", "0,0,0",
    )
    assert result.returncode == 2


def test_csv_output_is_stable_across_runs(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    r1 = run_cli("link", "--scene", str(SCENES / "hopf.json"), "--out", str(out1))
    r2 = run_cli("link", "--scene", str(SCENES / "hopf.json"), "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()  # LF endings only


def test_shipped_maxwell_scene(tmp_path):
    out = tmp_path / "maxwell.csv"
    result = run_cli(
        "maxwell", "--scene", str(SCENES / "square_sheet.json"), "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    header = out.read_text().splitlines()[0]
    assert header == "surface,field,point_x,point_y,point_z,step,abs_div,curl_norm"


def test_shipped_similitude_scene():
    result = run_cli("similitude", "--scene", str(SCENES / "disk_sheet.json"))
    assert result.returncode == 0, result.stderr
    assert "passed=True" in result.stderr


def _assert_usage_error(result):
    assert result.returncode == 2, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def test_linelimit_bad_extents_are_usage_errors():
    _assert_usage_error(run_cli("linelimit", "--n", "1"))
    _assert_usage_error(run_cli("linelimit", "--n", "a"))
    _assert_usage_error(run_cli("linelimit", "--n", ","))
    _assert_usage_error(run_cli("linelimit", "--n", "2,2,4"))


def test_field_bad_point_is_usage_error():
    _assert_usage_error(
        run_cli("field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring",
                "--points", "1,2,x")
    )


def test_field_zero_length_segment_is_usage_error(tmp_path):
    scene = {
        "version": 1,
        "curves": {
            "stutter": {"kind": "polyline", "closed": True,
                        "vertices": [[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]]},
        },
    }
    path = tmp_path / "stutter.json"
    path.write_text(json.dumps(scene))
    _assert_usage_error(
        run_cli("field", "--scene", str(path), "--curve", "stutter", "--points", "0,0,2")
    )


def _hopf_with_disk_radius(tmp_path, radius):
    scene = json.loads((SCENES / "hopf.json").read_text())
    scene["surfaces"]["ring_disk"]["radius"] = radius
    path = tmp_path / "hopf_small_disk.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_mesh_not_spanning_the_loop_is_usage_error(tmp_path):
    path = _hopf_with_disk_radius(tmp_path, 0.8)
    _assert_usage_error(run_cli("link", "--scene", path))
    _assert_usage_error(run_cli("lk", "--scene", path))


def test_field_points_may_start_with_a_minus():
    args = ("field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring")
    spaced = run_cli(*args, "--points", "-0.5,0,1")
    joined = run_cli(*args, "--points=-0.5,0,1")
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    assert spaced.stdout.splitlines()[1].startswith("-0.5,0,1,")


def test_python_dash_m_loopfield_runs_the_cli():
    argv = ["lk", "--scene", str(SCENES / "hopf.json")]
    result = subprocess.run(
        [sys.executable, "-m", "loopfield", *argv], capture_output=True, text=True, cwd=REPO
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli(*argv).stdout


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_shipped_outputs_tool_writes_every_output(tmp_path):
    # two runs at once, into two directories, write byte-identical trees
    tool = REPO / "tools" / "shipped_outputs.py"
    runs = [subprocess.Popen([sys.executable, str(tool), str(tmp_path / side)], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for side in ("first", "second")]
    errors = [run.communicate()[1] for run in runs]
    assert [run.returncode for run in runs] == [0, 0], errors
    out = tmp_path / "first"
    assert _tree(out) == _tree(tmp_path / "second")
    logs = sorted(out.rglob("*.log"))
    assert len(logs) == len(list(SCENES.glob("*.json"))) + 11  # 10 commands and selftest
    assert all(log.read_text().startswith("exit 0\n") for log in logs)
    assert "selftest PASS" in (out / "selftest.log").read_text()
    for scene in SCENES.glob("*.json"):
        for entry in json.loads(scene.read_text())["experiments"]:
            assert (out / f"run_{scene.stem}" / entry["out"]).with_suffix(".json").exists()


def test_shipped_outputs_repeat_byte_for_byte_in_one_process(tmp_path, monkeypatch):
    # the second run meets whatever the first left in module state and
    # caches, which two processes never share
    spec = importlib.util.spec_from_file_location("shipped_outputs", REPO / "tools" / "shipped_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ in front
    for side in ("first", "second"):
        assert tool.main([str(tmp_path / side)]) == 0
    assert _tree(tmp_path / "first") == _tree(tmp_path / "second")


def test_field_far_away_is_zero_not_nan(capsys):
    # the closed forms' squares overflow beyond about 1.3e154; past 1e100
    # sheet sizes the field, below 1e-200, is zero
    from loopfield import cli

    for scene, option in (("square_sheet.json", "--surface=sheet"), ("disk_sheet.json", "--surface=sheet"),
                          ("hopf.json", "--curve=ring")):
        for point in ("1000.0,1000.0,1.3407807929942597e+154", "-1e300,2e300,1.5e308"):
            assert cli.run(["field", "--scene", str(SCENES / scene), option, f"--points={point}"]) == 0
            row = capsys.readouterr().out.strip().splitlines()[1].split(",")
            assert [float(v) for v in row[3:]] == [0.0, 0.0, 0.0], (scene, point, row)


_SHEETS = {"disk_sheet.json": "disk", "square_sheet.json": "square"}


@st.composite
def _sheet_points(draw, shape):
    """--points values near and far from the disk (unit, about +z at the
    origin) or the unit square in z = 0: on the rim, in the plane, on the
    sheet, just off it, far away, or not finite."""
    kind = draw(st.sampled_from(["rim", "plane", "sheet", "near", "far", "text"]))
    if kind == "text":
        coords = draw(st.lists(
            st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0x1p3", "", "1,", "abc"]), min_size=3, max_size=3,
        ))
        return ",".join(coords)
    if kind == "far":
        far = st.one_of(st.floats(1e3, 1e300), st.floats(-1e300, -1e3))
        coords = draw(st.lists(far, min_size=3, max_size=3))
        return ",".join(map(repr, coords))
    t = draw(st.floats(0.0, 1.0))
    if shape == "disk":
        angle = 2.0 * math.pi * t
        rim = [math.cos(angle), math.sin(angle), 0.0]
    else:
        rim = [[t, 0.0, 0.0], [1.0, t, 0.0], [t, 1.0, 0.0], [0.0, t, 0.0]][draw(st.integers(0, 3))]
    if kind == "rim":
        point = rim
    elif kind == "plane":
        point = [draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), 0.0]
    elif kind == "sheet":
        scale = draw(st.floats(0.0, 1.0))
        point = [scale * rim[0], scale * rim[1], 0.0] if shape == "disk" else [scale, t, 0.0]
    else:
        point = [c + draw(st.floats(-1e-5, 1e-5)) for c in rim]
    return ",".join(map(repr, point))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), scene=st.sampled_from(sorted(_SHEETS)))
def test_sheet_field_fuzz_never_crashes(data, scene):
    from loopfield import cli

    points = data.draw(_sheet_points(_SHEETS[scene]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(["field", "--scene", str(SCENES / scene), "--surface", "sheet", f"--points={points}"])
    assert code in (0, 2, 3), (points, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        rows = stdout.getvalue().strip().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")), (points, rows)
    else:
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()


def _run_in_process(argv):
    from loopfield import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue()



@pytest.mark.parametrize("name", ["a,b", '"quoted" name', "two\nlines", "carriage\rreturn", "crlf\r\nname"])
def test_csv_quotes_names_that_hold_commas_quotes_or_newlines(name, tmp_path):
    scene = json.loads((SCENES / "hopf.json").read_text())
    scene["scenes"] = {name: scene["scenes"]["hopf"]}
    del scene["experiments"]
    path = tmp_path / "named.json"
    path.write_text(json.dumps(scene))
    code, stdout, stderr = _run_in_process(["lk", "--scene", str(path)])
    assert code == 0, stderr
    assert list(csv.reader(io.StringIO(stdout))) == [["scene", "lk"], [name, "1"]]


def test_json_record_writes_numpy_values_as_python_numbers(tmp_path):
    from loopfield import cli

    record = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "flag": np.bool_(True), "array": np.array([1.5, -0.0, 1e-300, np.nan]),
        "pair": (np.float64(2.0), 3), "nan": float("nan"),
    }
    with contextlib.redirect_stderr(io.StringIO()):
        cli._emit("h\n", record, str(tmp_path / "r.csv"))
    assert (tmp_path / "r.json").read_text() == (
        '{\n  "array": [\n    1.5,\n    -0.0,\n    1e-300,\n    NaN\n  ],\n'
        '  "f32": 0.10000000149011612,\n  "f64": 0.1,\n  "flag": true,\n  "i64": -7,\n'
        '  "nan": NaN,\n  "pair": [\n    2.0,\n    3\n  ]\n}\n'
    )

@pytest.mark.parametrize("path", sorted(SCENES.glob("*.json")), ids=lambda p: p.name)
def test_run_writes_every_entry_of_a_shipped_scene(path, tmp_path, monkeypatch):
    from loopfield.scenefile import parse_scene_file

    entries = parse_scene_file(path).experiments
    assert entries and all("out" in e for e in entries)
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = _run_in_process(["run", "--scene", str(path)])
    assert code == 0, stderr
    assert stdout == ""
    for entry in entries:
        out = tmp_path / entry["out"]
        assert out.read_text().count("\n") >= 2, out  # header and at least one row
        assert json.loads(out.with_suffix(".json").read_text())["command"] == entry["kind"]


@pytest.mark.parametrize("name", ["hopf.json", "double_wind.json"])
def test_run_link_and_lk_match_their_subcommands(name, tmp_path, monkeypatch):
    path = str(SCENES / name)
    monkeypatch.chdir(tmp_path)
    assert _run_in_process(["run", "--scene", path])[0] == 0
    stem = name.removesuffix(".json")
    for kind in ("link", "lk"):
        code, stdout, _ = _run_in_process([kind, "--scene", path])
        assert code == 0
        assert (tmp_path / f"{stem}_{kind}.csv").read_text() == stdout
        assert _run_in_process([kind, "--scene", path, "--out", "again.csv"])[0] == 0
        again = (tmp_path / "again.json").read_bytes()
        assert again == (tmp_path / f"{stem}_{kind}.json").read_bytes()


def test_every_scene_kind_has_a_runner():
    from loopfield import cli, scenefile

    assert set(cli._KINDS) == set(scenefile._EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind", ["ampere", "similitude", "maxwell", "curl"])
def test_builtin_runs_are_the_builtin_scene_file(kind, tmp_path):
    # with no --scene a subcommand runs the entries of selftest.BUILTIN,
    # exactly as it runs any file's
    from loopfield.selftest import BUILTIN

    path = tmp_path / "builtin.json"
    path.write_text(BUILTIN.to_json())
    plain, scened = tmp_path / "plain.csv", tmp_path / "scened.csv"
    assert _run_in_process([kind, "--out", str(plain)])[0] == 0
    assert _run_in_process([kind, "--scene", str(path), "--out", str(scened)])[0] == 0
    for suffix in (".csv", ".json"):
        assert plain.with_suffix(suffix).read_bytes() == scened.with_suffix(suffix).read_bytes()


def test_ampere_in_a_file_without_scenes_runs_the_builtin_catalog(tmp_path):
    # it once passed vacuously: exit 0 with a header and no rows
    path = tmp_path / "no_scenes.json"
    path.write_text(json.dumps({"version": 1, "experiments": [{"kind": "ampere"}]}))
    code, stdout, stderr = _run_in_process(["run", "--scene", str(path)])
    assert code == 0, stderr
    lines = stdout.splitlines()
    assert lines[0] == "scene_id,A,Lk,abs_diff,pass" and len(lines) == 7
    assert stdout == _run_in_process(["ampere"])[1]


def test_a_composite_whose_parts_jump_is_refused(tmp_path):
    scene = json.loads((SCENES / "hopf.json").read_text())
    # link exited 3 (NoConvergence), and lk printed Lk = 0
    scene["curves"].update(
        inward={"kind": "polyline", "vertices": [[3, 0, 0.5], [2, 0, 0.25], [1.000000001, 0, 0]],
                "closed": False},
        outside={"kind": "polyline", "vertices": [[3, 0, -0.5], [3, 0, 0], [3, 0, 0.5]], "closed": False},
        jumping={"kind": "composite", "parts": ["inward", "outside"]},
    )
    scene["scenes"]["hopf"]["curve_c"] = "jumping"
    path = tmp_path / "jumping.json"
    path.write_text(json.dumps(scene))
    for kind in ("link", "lk"):
        code, _, stderr = _run_in_process([kind, "--scene", str(path)])
        assert code == 2 and "curve_c must be" in stderr, stderr


def test_run_refuses_a_file_whose_second_entry_cannot_run_before_writing(tmp_path, monkeypatch):
    # the maxwell entry wrote its CSV and JSON, then the similitude entry
    # stopped the run with "mesh dimensions must be >= 1"
    scene = json.loads((SCENES / "square_sheet.json").read_text())
    scene["experiments"][1]["mesh_sizes"] = [0, 1, 2]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = _run_in_process(["run", "--scene", str(path)])
    assert code == 2 and stderr == "error: experiments[1].mesh_sizes: must be >= 1, got 0\n", stderr
    assert stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["scene.json"]


def test_run_without_out_writes_csv_to_stdout(tmp_path):
    scene = {"version": 1, "experiments": [{"kind": "linelimit", "n": [2, 3]}]}
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(scene))
    code, stdout, _ = _run_in_process(["run", "--scene", str(path)])
    assert code == 0
    assert stdout == _run_in_process(["linelimit", "--n", "2,3"])[1]
    assert stdout.startswith("n,A_total,A_c1,A_c2,abs_err\n")


def test_run_maxwell_probe_on_the_sheet_fails(tmp_path):
    # the sheet field's guard skips the point; it is not off the support
    scene = json.loads((SCENES / "disk_sheet.json").read_text())
    maxwell = next(e for e in scene["experiments"] if e["kind"] == "maxwell")
    maxwell.update(points=[[0.2, 0.1, 0.0]], out=str(tmp_path / "maxwell.csv"))
    scene["experiments"] = [maxwell]
    path = tmp_path / "on_sheet.json"
    path.write_text(json.dumps(scene))
    code, _, stderr = _run_in_process(["run", "--scene", str(path)])
    assert code == 1, stderr
    assert "sheet probe at [0.2, 0.1, 0.0] skipped" in stderr


def _guarded_scene(tmp_path):
    """A unit square and the unit ring under a guard of 0.5, which trips
    0.1 from either; each probe entry names one of them."""
    scene = {
        "version": 1,
        "quadrature": {"min_distance_guard": 0.5},
        "curves": {"ring": {"kind": "circle", "center": [0, 0, 0], "radius": 1, "axis": [0, 0, 1]}},
        "surfaces": {"sheet": {"kind": "planar_rect", "corner": [0, 0, 0], "edge_a": [1, 0, 0],
                               "edge_b": [0, 1, 0]}},
        "experiments": [
            {"kind": "similitude", "surface": "sheet", "r": [0.1, 0.5, 0.3], "h": 1e-4},
            {"kind": "maxwell", "surface": "sheet", "sigma": 1.0, "points": [[0.5, 0.5, 0.1]],
             "steps": [2e-3, 1e-3]},
            {"kind": "curl", "curve": "ring", "points": [[1.1, 0.0, 0.0]], "steps": [2e-3, 1e-3]},
        ],
    }
    path = tmp_path / "guarded.json"
    path.write_text(json.dumps(scene))
    return str(path)


def test_scene_guard_reaches_maxwell_probes(tmp_path):
    path = _guarded_scene(tmp_path)
    field = ["field", "--scene", path, "--surface", "sheet", "--points", "0.5,0.5,0.1"]
    code, _, stderr = _run_in_process(field)
    assert code == 3 and "guard 0.5" in stderr
    # maxwell probes the same point: both sheets note the guard, no rows
    out = tmp_path / "maxwell.csv"
    code, _, stderr = _run_in_process(["maxwell", "--scene", path, "--out", str(out)])
    assert code == 1, stderr
    notes = json.loads(out.with_suffix(".json").read_text())["studies"]["sheet"]["notes"]
    assert [note.split()[0] for note in notes] == ["sheet", "dipole"]
    assert all("(guard 0.5)" in note for note in notes)
    assert out.read_text().count("\n") == 1  # the header alone


def test_scene_guard_reaches_curl_probes(tmp_path):
    code, _, stderr = _run_in_process(["curl", "--scene", _guarded_scene(tmp_path)])
    assert code == 3 and "guard 0.5" in stderr


def test_scene_guard_reaches_similitude(tmp_path):
    # r is 0.32 from the square's edge x = 0
    code, _, stderr = _run_in_process(["similitude", "--scene", _guarded_scene(tmp_path)])
    assert code == 3 and "guard 0.5" in stderr


def test_parser_is_built_once_and_usage_errors_leave_it_intact():
    from loopfield import cli

    valid = ["linelimit", "--n", "2,3"]
    first = _run_in_process(valid)
    assert first[0] == 0
    for bad in (["linelimit", "--bogus"], ["frobnicate"], ["field", "--scene", "x.json"]):
        assert _run_in_process(bad)[0] == 2, bad
    assert _run_in_process(valid) == first
    assert cli._build_parser() is cli._build_parser()


_FUZZ_SCENE = {
    "version": 1,
    "curves": {
        "ring": {"kind": "circle", "center": [0, 0, 0], "radius": 1.0, "axis": [0, 0, 1]},
        "partner": {"kind": "circle", "center": [1, 0, 0], "radius": 1.0, "axis": [0, 1, 0]},
    },
    "surfaces": {
        "square": {"kind": "planar_rect", "corner": [0, 0, 0], "edge_a": [1, 0, 0],
                   "edge_b": [0, 1, 0], "mesh": [4, 4]},
        "disk": {"kind": "disk", "center": [0, 0, 0], "radius": 1.0, "axis": [0, 0, 1],
                 "mesh": [6, 6]},
    },
    "scenes": {"hopf": {"curve_c": "partner", "curve_l": "ring", "spanning_surface": "disk"}},
}

_VEC = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)
_JUNK = st.sampled_from([None, True, "", "ring", [], [1, 2], [[0, 0]], 5, 0, -1.5, 1e308, {"a": 1}])
# cheap values for every experiment field: few points, steps and meshes
_FIELD_VALUES = {
    "scene": st.sampled_from(["hopf", "hopf", "hopf", "nope"]),
    "scenes": st.lists(st.sampled_from(["hopf", "hopf", "hopf", "nope"]), max_size=2),
    "surface": st.sampled_from(["square", "disk", "square", "disk", "nope"]),
    "curve": st.sampled_from(["ring", "partner", "ring", "partner", "nope"]),
    "points": st.lists(_VEC, min_size=1, max_size=2),
    "steps": st.lists(st.floats(-1e-3, 1e-2), min_size=1, max_size=2),
    "sigma": st.floats(-2.0, 2.0),
    "r": _VEC,
    "h": st.floats(-1e-3, 1e-3),
    "n": st.lists(st.integers(1, 6), min_size=1, max_size=3),
    "mesh_sizes": st.lists(st.integers(0, 6), min_size=2, max_size=4),
    "dipole_separation": st.floats(-1e-2, 1e-2),
    "out": st.sampled_from(["a.csv", "sub/b.csv", "a.csv/c.csv", "."]),
}


@st.composite
def _experiment(draw):
    from loopfield.scenefile import _EXPERIMENT_KINDS

    kind = draw(st.sampled_from(sorted(_EXPERIMENT_KINDS)))
    required, optional = _EXPERIMENT_KINDS[kind]
    entry = {"kind": kind}
    for key in sorted(required | optional):
        if key in required or draw(st.booleans()):
            entry[key] = draw(_JUNK if draw(st.integers(0, 24)) == 24 else _FIELD_VALUES[key])
    if draw(st.integers(0, 19)) == 19:
        entry.pop(draw(st.sampled_from(sorted(entry))))
    return entry


_TEXT = st.sampled_from(["0,0,2;1.5,0,0", "2,4", "1.5", "", ",", "2,2", "1", "a", "1,0,0", "1,2",
                         "nan,0,0", "-1", "1e999"])
# each subcommand's own flags, then the flags of the others
_FLAGS = {
    "link": ["--name"], "lk": ["--name"], "similitude": [], "ampere": [], "linelimit": ["--n"],
    "maxwell": [], "curl": [], "field": ["--points", "--curve", "--surface", "--sigma"], "run": [],
}


@st.composite
def _argv(draw, scene):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    values = {
        "--scene": st.sampled_from([scene, str(SCENES / "hopf.json"), "missing.json",
                                    str(SCENES / "line_limit.json")]),
        "--name": st.sampled_from(["hopf", "nope"]),
        "--curve": st.sampled_from(["ring", "nope"]),
        "--surface": st.sampled_from(["square", "disk", "nope"]),
        "--out": st.sampled_from(["o.csv", "o.csv/p.csv"]),
    }
    own = ["--scene", *_FLAGS[command], "--out"]
    flags = [f for f in own if draw(st.integers(0, 3)) < 3]
    if draw(st.integers(0, 9)) == 9:
        flags.append(draw(st.sampled_from(["--n", "--points", "--name", "--sigma", "--bogus"])))
    return [command, *(f"{f}={draw(values.get(f, _TEXT))}" for f in dict.fromkeys(flags))]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_fuzz_never_crashes(data):
    # experiment entries run with `run --scene`, and subcommand argv: exit
    # 0-3, no traceback, and one stderr line on exit 2 or 3
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "fuzz.json"
        entries = data.draw(st.lists(_experiment(), min_size=1, max_size=2))
        scene_dict = dict(_FUZZ_SCENE, experiments=entries)
        if data.draw(st.booleans()):
            del scene_dict["scenes"]  # ampere then runs the built-in catalog
        scene.write_text(json.dumps(scene_dict))
        if data.draw(st.booleans()):
            argv = ["run", "--scene", str(scene)]
        else:
            argv = data.draw(_argv(str(scene)))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, _, stderr = _run_in_process(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, entries, stderr)
    assert "Traceback" not in stderr
    if code in (2, 3):
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, entries, stderr)


def test_a_gauss_integral_beyond_the_float_range_exits_3(tmp_path):
    # k_B 1e308 once printed the value inf and exited 0
    scene = json.loads((SCENES / "double_wind.json").read_text())
    scene["constants"] = {"k_B": 1e308}
    path = tmp_path / "huge_k_B.json"
    path.write_text(json.dumps(scene))
    code, stdout, stderr = _run_in_process(["link", "--scene", str(path)])
    assert code == 3 and stdout == "", stderr
    assert stderr == "numerical error: overflow: prefactor 1e+308 takes the result beyond the float range\n"


def test_selftest_takes_no_out_path(tmp_path):
    # --out was accepted and ignored
    out = tmp_path / "selftest.csv"
    code, stdout, stderr = _run_in_process(["selftest", "--out", str(out)])
    assert code == 2 and stdout == "" and stderr.startswith("error: unrecognized arguments: --out"), stderr
    assert not list(tmp_path.iterdir())


def test_selftest_writes_nothing_to_stderr():
    # it runs the built-in entries through the subcommands' runners, whose
    # progress lines stay out of its report
    code, stdout, stderr = _run_in_process(["selftest"])
    assert code == 0 and stdout.endswith("\nselftest PASS (11 criteria)\n"), stdout + stderr
    assert stderr == ""


def test_selftest_judges_the_command_lines_runs(monkeypatch):
    # every driver, under the name the command line calls it by, reports a
    # failure: exactly the criteria that judge the built-in runs fail
    from loopfield import cli
    from loopfield.selftest import run_selftest

    def failing(driver):
        def wrapped(*args, **kwargs):
            report = driver(*args, **kwargs)
            if isinstance(report, list):  # ampere_catalog's rows
                return [dataclasses.replace(row, passed=False) for row in report]
            return dataclasses.replace(report, passed=False)

        return wrapped

    for name in ("line_limit_study", "ampere_catalog", "similitude_infinitesimal",
                 "similitude_general", "curl_vanishing", "maxwell_probe"):
        monkeypatch.setattr(cli, name, failing(getattr(cli, name)))
    out = io.StringIO()
    assert run_selftest(out) is False
    *criteria, summary = out.getvalue().splitlines()
    status = {}
    for line in criteria:
        _, ident, verdict = line.split()[:3]
        status.setdefault(verdict, []).append(ident)
    assert status == {
        "FAIL": ["01", "02", "04", "05", "06", "07", "10"],
        "PASS": ["03", "08", "09", "11"],
    }
    assert summary == "selftest FAIL (11 criteria)"


def _failed_criteria(report: str) -> set[str]:
    """The criteria a selftest report marks FAIL."""
    return {line.split()[1] for line in report.splitlines()[:-1] if line.split()[2] == "FAIL"}


def test_selftest_criterion_03_takes_a_c_l_from_the_ampere_record(monkeypatch):
    # the ampere run's values, shifted by 1e-6, no longer match the
    # swapped pairs' integrals; its pass flags and |A - Lk| are untouched
    from loopfield import cli
    from loopfield.selftest import run_selftest

    catalog = cli.ampere_catalog

    def shifted(*args, **kwargs):
        rows = catalog(*args, **kwargs)
        return [dataclasses.replace(row, gauss_value=row.gauss_value + 1e-6) for row in rows]

    monkeypatch.setattr(cli, "ampere_catalog", shifted)
    out = io.StringIO()
    assert run_selftest(out) is False
    assert _failed_criteria(out.getvalue()) == {"03"}


def test_selftest_criterion_11_compares_the_records_of_two_passes(monkeypatch):
    # the second linelimit run's first row moves by one ulp: only the
    # record comparison of criterion 11 can see it
    from loopfield import cli
    from loopfield.selftest import run_selftest

    study, calls = cli.line_limit_study, []

    def drifting(*args, **kwargs):
        report = study(*args, **kwargs)
        calls.append(report)
        if len(calls) == 2:
            first, *rest = report.detail
            moved = dataclasses.replace(first, a_total=math.nextafter(first.a_total, math.inf))
            report = dataclasses.replace(report, detail=[moved, *rest])
        return report

    monkeypatch.setattr(cli, "line_limit_study", drifting)
    out = io.StringIO()
    assert run_selftest(out) is False
    assert len(calls) == 2
    assert _failed_criteria(out.getvalue()) == {"11"}


@pytest.mark.parametrize("points", ["1e80,3e79,2e79", "1e80,3e79,2e79;0,0,2;3,0,0"])
def test_a_ring_field_that_overflows_is_a_numerical_error(points):
    # from about 1e77 radii out to the zero-field cut-off the ring's closed
    # form overflows; one point runs it on numpy scalars and a batch on
    # arrays, whose messages differ, and each is one line
    argv = ["field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring", f"--points={points}"]
    code, stdout, stderr = _run_in_process(argv)
    assert code == 3 and stdout == "", stderr
    assert stderr.startswith("numerical error: overflow") and stderr.count("\n") == 1, stderr


def test_a_field_beyond_the_float_range_is_a_numerical_error(tmp_path):
    # sigma 1e308 overflows the sheet field; the output once held inf,
    # after a numpy warning on stderr
    scene = json.loads((SCENES / "square_sheet.json").read_text())
    maxwell = next(e for e in scene["experiments"] if e["kind"] == "maxwell")
    scene["experiments"] = [dict(maxwell, sigma=1e308, out=str(tmp_path / "maxwell.csv"))]
    path = tmp_path / "huge_sigma.json"
    path.write_text(json.dumps(scene))
    field = ["field", "--scene", str(path), "--surface", "sheet", "--sigma=1e308",
             "--points=0.5,0.5,0.01"]
    for argv in (field, ["maxwell", "--scene", str(path)], ["run", "--scene", str(path)]):
        code, stdout, stderr = _run_in_process(argv)
        assert code == 3 and stdout == "", (argv, stderr)
        assert stderr.startswith("numerical error: overflow") and stderr.count("\n") == 1, stderr
