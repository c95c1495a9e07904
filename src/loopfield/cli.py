"""Command-line entry point: scene ingestion, experiment dispatch, reports.

Subcommands: field, link, lk, similitude, ampere, linelimit, maxwell,
curl, run, selftest.  Each experiment kind of the scene schema has one
entry in `_KINDS`: its CSV header and its runner.  A subcommand turns
its flags into experiment entries, or takes its kind's entries from the
scene file, and runs them through the same loop; with no --scene that
file is `selftest.BUILTIN`, whose entries are the built-in runs.  The
selftest runs those entries through the same runners, and its criteria
01-07 and 11 judge the records they return; criterion 03 integrates
only the swapped pairs, and criterion 11 compares two passes' records
as the JSON text that `_emit` writes.
`run --scene F` runs every entry of F and writes each to its `out` path.
Tabular results are CSV (17-significant-digit floats, fixed column
order, LF endings); the full structured record is written as JSON next
to the CSV.  Diagnostics go to stderr; with no output path the CSV goes
to stdout.

Exit codes: 0 all pass, 1 a required check failed, 2 usage or scene-file
error, 3 numerical failure (no convergence / guard tripped / a value
beyond the float range).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace
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
)
from .fields import biot_savart, coulomb_surface_field
from .linking import combinatorial_lk, gauss_linking
from .scenefile import parse_experiment, parse_scene_file
from .selftest import BUILTIN, INFINITESIMAL, run_selftest

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
    """The rows as CSV with LF endings.  The writer ends each row with CRLF,
    so that it quotes a field holding either character, and that ending
    becomes LF."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(
        map(_fmt, row) for row in [header, *rows]
    )
    return "".join(line[:-2] + "\n" for line in lines)


def _json_text(record: dict) -> str:
    # numpy scalars and arrays as Python numbers and lists
    return json.dumps(record, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def _emit(csv_text: str, record: dict, out: str | None) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(csv_text)
        json_path = path.with_suffix(".json")
        with open(json_path, "w", newline="\n") as fh:
            fh.write(_json_text(record))
        print(f"wrote {path} and {json_path}", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)


# ---------------------------------------------------------------------------
# Experiment runners: (scene file, entry) -> (CSV rows, part of the JSON
# record, passed)
# ---------------------------------------------------------------------------


def _study(label: str, report, rows: list, summary: str):
    """Result of a convergence study: its rows, its record under its label."""
    print(f"{label}: {summary}", file=sys.stderr)
    record = {
        "rows": [vars(r) for r in report.rows],
        "fitted_order": report.fitted_order,
        "passed": report.passed,
        "notes": list(report.notes),
    }
    return rows, {"studies": {label: record}}, report.passed


def _run_link(scene_file, entry):
    name = entry["scene"]
    scene = scene_file.build_scene(name)
    value, err = gauss_linking(scene, scene_file.field_constants(), scene_file.quadrature_spec())
    lk = (
        combinatorial_lk(scene.curve_c, scene.spanning_mesh)
        if scene.spanning_mesh is not None
        else None
    )
    print(f"{name}: A={value:.12g} +/- {err:.3g} Lk={lk}", file=sys.stderr)
    row = {"scene": name, "value": value, "error_estimate": err, "lk": lk}
    return [list(row.values())], {"rows": [row]}, True


def _run_lk(scene_file, entry):
    name = entry["scene"]
    scene = scene_file.build_scene(name)
    if scene.spanning_mesh is None:
        raise SceneFormatError(f"scene {name!r} has no spanning surface")
    scene.validate(scene_file.quadrature_spec())
    lk = combinatorial_lk(scene.curve_c, scene.spanning_mesh)
    print(f"{name}: Lk={lk}", file=sys.stderr)
    return [[name, lk]], {"rows": [{"scene": name, "lk": lk}]}, True


def _run_ampere(scene_file, entry):
    names = entry.get("scenes", scene_file.scenes)
    scenes = [scene_file.build_scene(n) for n in names] or default_catalog()
    rows = ampere_catalog(scenes, scene_file.quadrature_spec(), scene_file.field_constants())
    for r in rows:
        if not r.passed:
            print(f"FAIL {r.scene_id}: |A-Lk|={r.abs_diff:g} {r.note}", file=sys.stderr)
    record = [
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
    ]
    table = [[r.scene_id, r.gauss_value, r.lk, r.abs_diff, r.passed] for r in rows]
    return table, {"rows": record}, all(r.passed for r in rows)


def _run_linelimit(scene_file, entry):
    report = line_limit_study(entry["n"])
    table = [
        [r.n, r.a_total, r.a_axis_leg, r.a_far_legs, abs(r.a_total - 1.0)]
        for r in report.detail
    ]
    record = {
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
    return table, record, report.passed


def _run_similitude(scene_file, entry):
    if "surface" not in entry:  # the built-in shrinking panel
        label = "infinitesimal"
        report = similitude_infinitesimal(**INFINITESIMAL, r=entry["r"], h=entry["h"])
    else:
        label = entry["surface"]
        report = similitude_general(
            scene_file.build_patch(label), entry["r"], entry["h"], entry["mesh_sizes"],
            scene_file.quadrature_spec(),
        )
    rows = [
        [label, r.scale_parameter, *r.measured, *r.reference, r.abs_error] for r in report.rows
    ]
    summary = f"fitted_order={report.fitted_order:.4g} passed={report.passed}"
    return _study(label, report, rows, summary)


def _run_maxwell(scene_file, entry):
    label = entry["surface"]
    report = maxwell_probe(
        scene_file.build_patch(label), entry["sigma"], entry["points"], entry["steps"],
        scene_file.field_constants(), scene_file.quadrature_spec(),
        dipole_separation=entry["dipole_separation"],
    )
    rows = [
        [label, kind, *r.point.tolist(), r.step, r.div_norm, r.curl_norm]
        for kind, r in report.point_rows
    ]
    return _study(label, report, rows, f"passed={report.passed} notes={report.notes}")


def _run_curl(scene_file, entry):
    label = entry["curve"]
    report = curl_vanishing(
        scene_file.build_curve(label), entry["points"], entry["steps"],
        scene_file.field_constants(), scene_file.quadrature_spec(),
    )
    rows = [
        [label, *r.point.tolist(), r.step, r.curl_norm, r.div_norm] for r in report.point_rows
    ]
    return _study(label, report, rows, f"passed={report.passed}")


def _run_field(scene_file, entry):
    consts, spec = scene_file.field_constants(), scene_file.quadrature_spec()
    points = entry["points"]
    if "curve" in entry:
        label = entry["curve"]
        field = biot_savart(scene_file.build_curve(label), points, consts, spec)
    else:
        label = entry["surface"]
        field = coulomb_surface_field(scene_file.build_patch(label), entry["sigma"], points, consts, spec)
    rows = [[*p, *f] for p, f in zip(points, field.tolist())]
    return rows, {"object": label, "rows": [{"point": r[:3], "field": r[3:]} for r in rows]}, True


_PROBE = ["point_x", "point_y", "point_z", "step"]

# experiment kind -> (CSV header, runner)
_KINDS = {
    "link": (["scene", "value", "error_estimate", "lk"], _run_link),
    "lk": (["scene", "lk"], _run_lk),
    "ampere": (["scene_id", "A", "Lk", "abs_diff", "pass"], _run_ampere),
    "linelimit": (["n", "A_total", "A_c1", "A_c2", "abs_err"], _run_linelimit),
    "similitude": (
        [
            "study", "scale_parameter",
            "measured_x", "measured_y", "measured_z",
            "reference_x", "reference_y", "reference_z",
            "abs_error",
        ],
        _run_similitude,
    ),
    "maxwell": (["surface", "field", *_PROBE, "abs_div", "curl_norm"], _run_maxwell),
    "curl": (["curve", *_PROBE, "curl_norm", "abs_div"], _run_curl),
    "field": (
        ["point_x", "point_y", "point_z", "field_x", "field_y", "field_z"], _run_field
    ),
}


def _run_entries(kind: str, scene_file, entries: list[dict], out: str | None) -> int:
    """Run the entries of one kind, then write one CSV and one JSON record."""
    header, runner = _KINDS[kind]
    rows, record, passed = [], {"command": kind}, True
    for entry in entries:
        entry_rows, part, ok = runner(scene_file, entry)
        rows += entry_rows
        for key, value in part.items():
            if isinstance(value, list):
                record.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                record.setdefault(key, {}).update(value)
            else:
                record[key] = value
        passed = passed and ok
    _emit(_csv_lines(header, rows), record, out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _parse_points(text: str) -> list[list[float]]:
    return [[float(p) for p in chunk.split(",")] for chunk in text.split(";") if chunk.strip()]


def _flag_entries(args, scene_file) -> list[dict]:
    """The experiment entries a subcommand's flags ask for."""
    kind = args.command

    def checked(flags: dict) -> dict:
        obj = {"kind": kind, **{k: v for k, v in flags.items() if v is not None}}
        return parse_experiment(obj, kind, scene_file)

    if kind in ("link", "lk"):
        if args.name is None and not scene_file.scenes:
            raise SceneFormatError("scene file defines no scenes")
        names = scene_file.scenes if args.name is None else [args.name]
        return [checked({"scene": name}) for name in names]
    if kind == "field":
        flags = {"curve": args.curve, "surface": args.surface, "sigma": args.sigma}
        return [checked({**flags, "points": _parse_points(args.points)})]
    if kind == "linelimit" and args.n is not None:
        return [checked({"n": [int(tok) for tok in args.n.split(",") if tok]})]
    if kind == "ampere":
        return [checked({})]  # every scene of the file, or the built-in catalog
    entries = [e for e in scene_file.experiments if e["kind"] == kind]
    if not entries:
        raise SceneFormatError(f"scene file has no {kind} experiments")
    return entries


def _run_scene_file(scene_file) -> int:
    """Run every experiment entry of the file, each to its own `out`."""
    if not scene_file.experiments:
        raise SceneFormatError("scene file has no experiments")
    codes = [
        _run_entries(entry["kind"], scene_file, [entry], entry.get("out"))
        for entry in scene_file.experiments
    ]
    return max(codes)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse errors to exit code 2
        raise SceneFormatError(message)


@functools.cache  # once per process: building it takes a third of a short run
def _build_parser() -> _Parser:
    parser = _Parser(prog="loopfield", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="CSV output path (JSON record written alongside)")
        return p

    p = add("field", "evaluate a field at points")
    p.add_argument("--scene", required=True, help="scene file (JSON)")
    p.add_argument("--curve", help="curve name for the magnetic field")
    p.add_argument("--surface", help="surface name for the electric field")
    p.add_argument("--sigma", type=float, help="surface charge density (default 1)")
    p.add_argument("--points", required=True, help='evaluation points "x,y,z;x,y,z;..."')

    p = add("link", "Gauss linking integral of scenes")
    p.add_argument("--scene", required=True)
    p.add_argument("--name", help="run a single named scene")

    p = add("lk", "combinatorial linking number of scenes")
    p.add_argument("--scene", required=True)
    p.add_argument("--name")

    p = add("similitude", "dipole-sheet vs loop-field studies")
    p.add_argument("--scene", help="scene file with similitude experiments")

    p = add("ampere", "A vs Lk over a scene catalog")
    p.add_argument("--scene", help="scene file (default: built-in catalog)")

    p = add("linelimit", "straight-wire limit of the Gauss integral")
    p.add_argument("--n", help="comma-separated loop extents (default 2,4,8,16,32)")

    p = add("maxwell", "div/curl probes of sheet fields")
    p.add_argument("--scene", help="scene file with maxwell experiments")

    p = add("curl", "curl probe of loop fields")
    p.add_argument("--scene", help="scene file with curl experiments")

    p = sub.add_parser("run", help="every experiment of a scene file, each to its out path")
    p.add_argument("--scene", required=True)

    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


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


def _dispatch(argv: list[str]) -> int:
    args = _build_parser().parse_args(_join_points_value(argv))
    if args.command is None:
        raise SceneFormatError("missing subcommand")
    if args.command == "selftest":
        return EXIT_OK if run_selftest(sys.stdout) else EXIT_CHECK_FAILED
    scene_file = parse_scene_file(args.scene) if getattr(args, "scene", None) else BUILTIN
    if args.command == "run":
        return _run_scene_file(scene_file)
    return _run_entries(args.command, scene_file, _flag_entries(args, scene_file), args.out)


def run(argv=None) -> int:
    # progress lines reach stderr on exit 0 or 1; exit 2 or 3 prints one line
    progress = io.StringIO()
    try:
        # an overflow or NaN raises rather than reaching the output as inf or nan
        with contextlib.redirect_stderr(progress), np.errstate(over="raise", invalid="raise"):
            code = _dispatch(sys.argv[1:] if argv is None else argv)
    except SceneFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LoopfieldError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # input the library rejects, or an unwritable out path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stderr.write(progress.getvalue())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
