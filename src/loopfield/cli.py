"""Command-line entry point: scene ingestion, experiment dispatch, reports.

Subcommands: field, link, lk, similitude, ampere, linelimit, maxwell,
curl, selftest.  Tabular results are CSV (17-significant-digit floats,
fixed column order, LF endings); the full structured record is written
as JSON next to the CSV.  Diagnostics go to stderr; with no output path
the CSV goes to stdout.

Exit codes: 0 all pass, 1 a required check failed, 2 usage or scene-file
error, 3 numerical failure (no convergence / guard tripped).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import LoopfieldError, SceneFormatError
from .experiments import (
    ampere_catalog,
    curl_vanishing,
    default_catalog,
    line_limit_study,
    maxwell_probe,
    similitude_general,
    similitude_infinitesimal,
    unit_circle,
)
from .fields import FieldConstants, biot_savart, coulomb_surface_field
from .geometry import PlanarRect
from .linking import combinatorial_lk, gauss_linking
from .quadrature import QuadratureSpec
from .scenefile import SceneFile, parse_scene_file
from .selftest import default_probe_points, run_selftest

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return f"{float(value):.17g}"


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(csv_text: str, record: dict, out: str | None) -> None:
    if out:
        path = Path(out)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(csv_text)
        json_path = path.with_suffix(".json")
        with open(json_path, "w", newline="\n") as fh:
            json.dump(_jsonable(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} and {json_path}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)


def _report_rows(report):
    rows = []
    for row in report.rows:
        measured = np.atleast_1d(np.asarray(row.measured, dtype=float))
        reference = np.atleast_1d(np.asarray(row.reference, dtype=float))
        rows.append(
            [row.scale_parameter, *measured.tolist(), *reference.tolist(), row.abs_error]
        )
    return rows


def _report_record(report) -> dict:
    return {
        "rows": [
            {
                "scale_parameter": r.scale_parameter,
                "measured": _jsonable(r.measured),
                "reference": _jsonable(r.reference),
                "abs_error": r.abs_error,
            }
            for r in report.rows
        ],
        "fitted_order": report.fitted_order,
        "passed": report.passed,
        "notes": list(report.notes),
    }


def _load_scene_file(path: str) -> SceneFile:
    return parse_scene_file(path)


def _scene_names(scene_file: SceneFile, requested: str | None) -> list[str]:
    if requested is not None:
        if requested not in scene_file.scenes:
            raise SceneFormatError(f"scene {requested!r} not present in the file")
        return [requested]
    if not scene_file.scenes:
        raise SceneFormatError("scene file defines no scenes")
    return list(scene_file.scenes)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_link(args) -> int:
    scene_file = _load_scene_file(args.scene)
    consts = scene_file.field_constants()
    spec = scene_file.quadrature_spec()
    rows = []
    for name in _scene_names(scene_file, args.name):
        scene = scene_file.build_scene(name)
        value, err = gauss_linking(scene, consts, spec)
        lk = (
            combinatorial_lk(scene.curve_c, scene.spanning_mesh)
            if scene.spanning_mesh is not None
            else None
        )
        rows.append([name, value, err, lk])
        print(f"{name}: A={value:.12g} +/- {err:.3g} Lk={lk}", file=sys.stderr)
    csv_text = _csv_lines(["scene", "value", "error_estimate", "lk"], rows)
    record = {
        "command": "link",
        "rows": [
            {"scene": r[0], "value": r[1], "error_estimate": r[2], "lk": r[3]}
            for r in rows
        ],
    }
    _emit(csv_text, record, args.out)
    return EXIT_OK


def _cmd_lk(args) -> int:
    scene_file = _load_scene_file(args.scene)
    spec = scene_file.quadrature_spec()
    rows = []
    for name in _scene_names(scene_file, args.name):
        scene = scene_file.build_scene(name)
        if scene.spanning_mesh is None:
            raise SceneFormatError(f"scene {name!r} has no spanning surface")
        scene.validate(spec)
        lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
        rows.append([name, lk])
        print(f"{name}: Lk={lk}", file=sys.stderr)
    csv_text = _csv_lines(["scene", "lk"], rows)
    record = {"command": "lk", "rows": [{"scene": r[0], "lk": r[1]} for r in rows]}
    _emit(csv_text, record, args.out)
    return EXIT_OK


def _cmd_ampere(args) -> int:
    if args.scene:
        scene_file = _load_scene_file(args.scene)
        consts = scene_file.field_constants()
        spec = scene_file.quadrature_spec()
        scenes = [scene_file.build_scene(name) for name in scene_file.scenes]
    else:
        consts = FieldConstants()
        spec = QuadratureSpec()
        scenes = default_catalog()
    rows = ampere_catalog(scenes, spec, consts)
    table = [
        [r.scene_id, r.gauss_value, r.lk, r.abs_diff, r.passed] for r in rows
    ]
    csv_text = _csv_lines(["scene_id", "A", "Lk", "abs_diff", "pass"], table)
    record = {
        "command": "ampere",
        "rows": [
            {
                "scene_id": r.scene_id,
                "A": r.gauss_value,
                "error_estimate": r.error_estimate,
                "Lk": r.lk,
                "abs_diff": r.abs_diff,
                "pass": r.passed,
                "note": r.note,
            }
            for r in rows
        ],
    }
    _emit(csv_text, record, args.out)
    failures = [r for r in rows if not r.passed]
    for r in failures:
        print(f"FAIL {r.scene_id}: |A-Lk|={r.abs_diff:g} {r.note}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _cmd_linelimit(args) -> int:
    n_list = [int(tok) for tok in args.n.split(",") if tok]
    report = line_limit_study(n_list)
    table = [
        [r.n, r.a_total, r.a_axis_leg, r.a_far_legs, abs(r.a_total - 1.0)]
        for r in report.detail
    ]
    csv_text = _csv_lines(["n", "A_total", "A_c1", "A_c2", "abs_err"], table)
    record = {
        "command": "linelimit",
        "analytic_reference": report.analytic_reference,
        "passed": report.passed,
        "rows": [
            {
                "n": r.n,
                "A_total": r.a_total,
                "A_c1": r.a_axis_leg,
                "A_c2": r.a_far_legs,
                "lk": r.lk,
                "error_estimate": r.error_estimate,
            }
            for r in report.detail
        ],
    }
    _emit(csv_text, record, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _default_similitude_reports():
    square = PlanarRect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    reports = [
        (
            "infinitesimal",
            similitude_infinitesimal(
                (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                (0.0, 0.0, 2.0), [0.2, 0.1, 0.05, 0.025], 1e-4,
            ),
        ),
        ("general_square", similitude_general(square, (0.5, 0.5, 2.0), 1e-4, [8, 16, 32, 64])),
    ]
    return reports


def _cmd_similitude(args) -> int:
    if args.scene:
        scene_file = _load_scene_file(args.scene)
        entries = [e for e in scene_file.experiments if e["kind"] == "similitude"]
        if not entries:
            raise SceneFormatError("scene file has no similitude experiments")
        reports = []
        for entry in entries:
            patch = scene_file.build_patch(entry["surface"])
            rep = similitude_general(
                patch, entry["r"], entry["h"], entry["mesh_sizes"]
            )
            reports.append((entry["surface"], rep))
    else:
        reports = _default_similitude_reports()
    rows = []
    record = {"command": "similitude", "studies": {}}
    all_ok = True
    for label, rep in reports:
        for row in _report_rows(rep):
            rows.append([label, *row])
        record["studies"][label] = _report_record(rep)
        all_ok = all_ok and rep.passed
        print(
            f"{label}: fitted_order={rep.fitted_order:.4g} passed={rep.passed}",
            file=sys.stderr,
        )
    header = [
        "study", "scale_parameter",
        "measured_x", "measured_y", "measured_z",
        "reference_x", "reference_y", "reference_z",
        "abs_error",
    ]
    csv_text = _csv_lines(header, rows)
    _emit(csv_text, record, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_maxwell(args) -> int:
    if args.scene:
        scene_file = _load_scene_file(args.scene)
        consts = scene_file.field_constants()
        entries = [e for e in scene_file.experiments if e["kind"] == "maxwell"]
        if not entries:
            raise SceneFormatError("scene file has no maxwell experiments")
        jobs = [
            (
                entry["surface"],
                scene_file.build_patch(entry["surface"]),
                entry["sigma"],
                entry["points"],
                entry["steps"],
                entry.get("dipole_separation", 1e-3),
            )
            for entry in entries
        ]
    else:
        consts = FieldConstants()
        square = PlanarRect((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        jobs = [("square_sheet", square, 1.0, [(0.5, 0.5, 1.0), (0.2, 0.8, 0.9)], [2e-3, 1e-3], 1e-3)]
    rows = []
    record = {"command": "maxwell", "studies": {}}
    all_ok = True
    for label, patch, sigma, points, steps, separation in jobs:
        rep = maxwell_probe(patch, sigma, points, steps, consts,
                            dipole_separation=separation)
        for kind, prow in rep.point_rows:
            rows.append(
                [label, kind, *prow.point.tolist(), prow.step, prow.div_norm, prow.curl_norm]
            )
        record["studies"][label] = _report_record(rep)
        all_ok = all_ok and rep.passed
        print(f"{label}: passed={rep.passed} notes={rep.notes}", file=sys.stderr)
    header = ["surface", "field", "point_x", "point_y", "point_z", "step", "abs_div", "curl_norm"]
    _emit(_csv_lines(header, rows), record, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_curl(args) -> int:
    if args.scene:
        scene_file = _load_scene_file(args.scene)
        consts = scene_file.field_constants()
        entries = [e for e in scene_file.experiments if e["kind"] == "curl"]
        if not entries:
            raise SceneFormatError("scene file has no curl experiments")
        jobs = [
            (entry["curve"], scene_file.build_curve(entry["curve"]),
             entry["points"], entry["steps"])
            for entry in entries
        ]
    else:
        consts = FieldConstants()
        jobs = [("unit_circle", unit_circle(), default_probe_points(), [4e-3, 2e-3, 1e-3])]
    rows = []
    record = {"command": "curl", "studies": {}}
    all_ok = True
    for label, curve, points, steps in jobs:
        rep = curl_vanishing(curve, points, steps, consts)
        for prow in rep.point_rows:
            rows.append([label, *prow.point.tolist(), prow.step, prow.curl_norm, prow.div_norm])
        record["studies"][label] = _report_record(rep)
        all_ok = all_ok and rep.passed
        print(f"{label}: passed={rep.passed}", file=sys.stderr)
    header = ["curve", "point_x", "point_y", "point_z", "step", "curl_norm", "abs_div"]
    _emit(_csv_lines(header, rows), record, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _parse_points(text: str) -> list[list[float]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise SceneFormatError(f"bad point {chunk!r}: expected x,y,z")
        points.append([float(p) for p in parts])
    if not points:
        raise SceneFormatError("no evaluation points given")
    return points


def _cmd_field(args) -> int:
    scene_file = _load_scene_file(args.scene)
    consts = scene_file.field_constants()
    spec = scene_file.quadrature_spec()
    if (args.curve is None) == (args.surface is None):
        raise SceneFormatError("give exactly one of --curve or --surface")
    points = _parse_points(args.points)
    rows = []
    if args.curve is not None:
        if args.curve not in scene_file.curves:
            raise SceneFormatError(f"unknown curve {args.curve!r}")
        curve = scene_file.build_curve(args.curve)
        for p in points:
            value = biot_savart(curve, p, consts, spec)
            rows.append([*p, *value.tolist()])
        label = args.curve
    else:
        if args.surface not in scene_file.surfaces:
            raise SceneFormatError(f"unknown surface {args.surface!r}")
        patch = scene_file.build_patch(args.surface)
        for p in points:
            value = coulomb_surface_field(patch, args.sigma, p, consts, spec)
            rows.append([*p, *value.tolist()])
        label = args.surface
    header = ["point_x", "point_y", "point_z", "field_x", "field_y", "field_z"]
    record = {
        "command": "field",
        "object": label,
        "rows": [
            {"point": r[:3], "field": r[3:]} for r in rows
        ],
    }
    _emit(_csv_lines(header, rows), record, args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    ok = run_selftest(sys.stdout)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors to exit code 2
        raise SceneFormatError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="loopfield", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="CSV output path (JSON record written alongside)")
        return p

    p = add("field", _cmd_field, "evaluate a field at points")
    p.add_argument("--scene", required=True, help="scene file (JSON)")
    p.add_argument("--curve", help="curve name for the magnetic field")
    p.add_argument("--surface", help="surface name for the electric field")
    p.add_argument("--sigma", type=float, default=1.0, help="surface charge density")
    p.add_argument("--points", required=True, help='evaluation points "x,y,z;x,y,z;..."')

    p = add("link", _cmd_link, "Gauss linking integral of scenes")
    p.add_argument("--scene", required=True)
    p.add_argument("--name", help="run a single named scene")

    p = add("lk", _cmd_lk, "combinatorial linking number of scenes")
    p.add_argument("--scene", required=True)
    p.add_argument("--name")

    p = add("similitude", _cmd_similitude, "dipole-sheet vs loop-field studies")
    p.add_argument("--scene", help="scene file with similitude experiments")

    p = add("ampere", _cmd_ampere, "A vs Lk over a scene catalog")
    p.add_argument("--scene", help="scene file (default: built-in catalog)")

    p = add("linelimit", _cmd_linelimit, "straight-wire limit of the Gauss integral")
    p.add_argument("--n", default="2,4,8,16,32", help="comma-separated loop extents")

    p = add("maxwell", _cmd_maxwell, "div/curl probes of sheet fields")
    p.add_argument("--scene", help="scene file with maxwell experiments")

    p = add("curl", _cmd_curl, "curl probe of loop fields")
    p.add_argument("--scene", help="scene file with curl experiments")

    add("selftest", _cmd_selftest, "run the acceptance suite")
    return parser


def _check_threads_env() -> None:
    value = os.environ.get("THREADS")
    if value is None:
        return
    try:
        threads = int(value)
    except ValueError:
        raise SceneFormatError(f"THREADS must be a positive integer, got {value!r}")
    if threads < 1:
        raise SceneFormatError(f"THREADS must be a positive integer, got {value!r}")


def _join_points_value(argv: list[str]) -> list[str]:
    """Join "--points VALUE" into "--points=VALUE": argparse would take a
    VALUE whose first coordinate is negative for an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--points":
            out[-1] = f"--points={tok}"
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        _check_threads_env()
        args = parser.parse_args(_join_points_value(sys.argv[1:] if argv is None else argv))
        if getattr(args, "command", None) is None:
            raise SceneFormatError("missing subcommand")
        return args.func(args)
    except SceneFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LoopfieldError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # input rejected by the library's own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
