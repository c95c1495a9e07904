"""Strict JSON scene files: named curves, surfaces, scenes, experiments.

A scene file is plain data; geometry objects are built on demand.  The
parser rejects unknown fields and dangling references, and builds every
curve and surface patch once, as it builds the constants and the
quadrature settings, keeping none of them: a value that a constructor
refuses (a zero radius or axis, a circular composite, a degenerate
patch) is a SceneFormatError that names its entry, so that a file that
parses is a file that runs.  Parsing, re-serializing, and re-parsing
yields an identical structure.

Each curve, surface and experiment kind lists its required and optional
fields in `_CURVE_KINDS`, `_SURFACE_KINDS` or `_EXPERIMENT_KINDS` (a
curve or surface kind also names the class built from them); each field
has one parser in `_FIELDS`, and `parse_experiment` checks an entry
against both.  The command line builds its own entries from flags and
checks them with the same parser.  Every entry may name an `out` path:
`loopfield run` writes the entry's CSV there and its JSON record beside
it.  A `similitude` entry without a `surface` shrinks the built-in panel;
an `ampere` entry in a file without scenes runs the built-in catalog.

The optional `constants` and `quadrature` blocks take the fields of
`FieldConstants` and `QuadratureSpec`.  The constants reach the link,
ampere, maxwell, curl and field entries; `similitude` uses k_E = k_B = 1
by design.  Of the quadrature settings, abs_tol, rel_tol and max_depth
reach only the Gauss integrals of `link` and `ampere` entries, since
every other field a scene can declare is closed form, and
min_distance_guard reaches the guard of every kind but `linelimit` and
the shrinking panel, whose settings are built in.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .errors import SceneFormatError
from .fields import FieldConstants
from .geometry import (
    Circle,
    CompositeCurve,
    Disk,
    PlanarRect,
    PolyLine,
    RectLoop,
    mesh_surface,
)
from .linking import LinkScene
from .quadrature import QuadratureSpec

__all__ = ["SceneFile", "parse_scene_file", "parse_scene_dict", "parse_experiment"]

SCENE_VERSION = 1

_SCENE_KEYS = {"curve_c", "curve_l"}

# kind -> (class, required fields, optional fields); the class takes a
# curve's fields, or a surface's required ones, as keyword arguments
_CURVE_KINDS = {
    "circle": (Circle, {"center", "radius", "axis"}, {"orientation"}),
    "polyline": (PolyLine, {"vertices"}, {"closed"}),
    "rect_loop": (RectLoop, {"n"}, set()),
    "composite": (CompositeCurve, {"parts"}, set()),
}

_SURFACE_KINDS = {
    "planar_rect": (PlanarRect, {"corner", "edge_a", "edge_b"}, {"mesh"}),
    "disk": (Disk, {"center", "radius", "axis"}, {"mesh"}),
}

_EXPERIMENT_KINDS = {
    "link": ({"scene"}, {"out"}),
    "lk": ({"scene"}, {"out"}),
    "ampere": (set(), {"scenes", "out"}),
    "linelimit": ({"n"}, {"out"}),
    "similitude": ({"r", "h"}, {"surface", "mesh_sizes", "out"}),
    "maxwell": ({"surface", "sigma", "points", "steps"}, {"dipole_separation", "out"}),
    "curl": ({"curve", "points", "steps"}, {"out"}),
    "field": ({"points"}, {"curve", "surface", "sigma", "out"}),
}


def _check_keys(obj: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise SceneFormatError(f"{where}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SceneFormatError(f"{where}: unknown fields {sorted(unknown)}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise SceneFormatError(f"{where}: must be finite, got {value!r}")
    return out


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_vec(value, where: str) -> list[float]:
    if not isinstance(value, list) or len(value) != 3:
        raise SceneFormatError(f"{where}: expected a 3-element list, got {value!r}")
    return [_as_number(v, where) for v in value]


def _as_name(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise SceneFormatError(f"{where}: expected a non-empty string, got {value!r}")
    return value


@dataclass
class SceneFile:
    """Validated plain-data image of a scene file."""

    version: int = SCENE_VERSION
    constants: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    surfaces: dict = field(default_factory=dict)
    scenes: dict = field(default_factory=dict)
    experiments: list = field(default_factory=list)

    # -- object builders ----------------------------------------------------

    def field_constants(self) -> FieldConstants:
        return FieldConstants(**self.constants)

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(**self.quadrature)

    def build_curve(self, name: str, _stack: tuple = ()):
        if name in _stack:
            raise SceneFormatError(f"curve {name!r}: circular composite reference")
        args = dict(self.curves[name])
        build = _CURVE_KINDS[args.pop("kind")][0]
        if "parts" in args:
            args["parts"] = [self.build_curve(p, _stack + (name,)) for p in args["parts"]]
        return build(**args)

    def build_patch(self, name: str):
        spec = self.surfaces[name]
        build, required, _ = _SURFACE_KINDS[spec["kind"]]
        return build(**{k: spec[k] for k in required})

    def build_mesh(self, name: str):
        spec = self.surfaces[name]
        m, n = spec["mesh"]
        return mesh_surface(self.build_patch(name), m, n)

    def build_scene(self, name: str) -> LinkScene:
        spec = self.scenes[name]
        mesh = None
        if "spanning_surface" in spec:
            mesh = self.build_mesh(spec["spanning_surface"])
        return LinkScene(
            self.build_curve(spec["curve_c"]),
            self.build_curve(spec["curve_l"]),
            mesh,
            name=name,
        )

    def to_dict(self) -> dict:
        out = {"version": self.version}
        for key in ("constants", "quadrature", "curves", "surfaces", "scenes", "experiments"):
            if getattr(self, key):
                out[key] = copy.deepcopy(getattr(self, key))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Parsing / validation
# ---------------------------------------------------------------------------


def _field(convert, test=None, says=""):
    """Parser of one field: convert, then reject the value unless test holds."""

    def parse(value, where, scene_file):
        out = convert(value, where)
        if test is not None and not test(out):
            raise SceneFormatError(f"{where}: {says}, got {value!r}")
        return out

    return parse


def _ref(table: str):
    """Parser of a name that must resolve in the scene file's table."""

    def parse(value, where, scene_file):
        name = _as_name(value, where)
        if name not in getattr(scene_file, table):
            raise SceneFormatError(f"{where}: unknown {table[:-1]} {name!r}")
        return name

    return parse


def _items(item, what: str, least: int = 1, most: int | None = None, distinct: bool = False):
    """Parser of a list of `least` to `most` items, each checked by `item`."""

    def parse(value, where, scene_file):
        if not isinstance(value, list) or not least <= len(value) <= (most or len(value)):
            raise SceneFormatError(f"{where}: need {what}")
        out = [item(v, where, scene_file) for v in value]
        if distinct and len(set(out)) < len(out):
            raise SceneFormatError(f"{where}: values must be distinct, got {value!r}")
        return out

    return parse


_NUMBER, _INT, _VEC = _field(_as_number), _field(_as_int), _field(_as_vec)
_SIZE = _field(_as_int, lambda m: m >= 1, "must be >= 1")

# field name -> parser(value, where, scene_file), for every object of the
# schema; a curve's "n" differs and is in _CURVE_FIELDS
_FIELDS = {
    "k_E": _NUMBER,
    "k_B": _NUMBER,
    "max_depth": _INT,
    "abs_tol": _NUMBER,
    "rel_tol": _NUMBER,
    "min_distance_guard": lambda v, where, sf: None if v is None else _NUMBER(v, where, sf),
    "center": _VEC,
    "radius": _NUMBER,
    "axis": _VEC,
    "orientation": _field(_as_name, lambda o: o in ("ccw", "cw"), "must be 'ccw' or 'cw'"),
    "vertices": _items(_VEC, "at least 2 vertices", least=2),
    "closed": _field(lambda v, where: v, lambda c: isinstance(c, bool), "must be a boolean"),
    "parts": _items(_ref("curves"), "at least one part name"),
    "corner": _VEC,
    "edge_a": _VEC,
    "edge_b": _VEC,
    "mesh": _items(_SIZE, "[M, N]", least=2, most=2),
    "curve_c": _ref("curves"),
    "curve_l": _ref("curves"),
    "spanning_surface": _ref("surfaces"),
    "scene": _ref("scenes"),
    "scenes": _items(_ref("scenes"), "at least one scene name"),
    "surface": _ref("surfaces"),
    "curve": _ref("curves"),
    "points": _items(_VEC, "at least one point"),
    "steps": _items(_field(_as_number, lambda s: s > 0.0, "must be positive"), "at least one step"),
    "sigma": _NUMBER,
    "r": _VEC,
    "h": _field(_as_number, lambda h: h != 0.0, "must be nonzero"),
    "n": _items(_field(_as_int, lambda n: n >= 2, "must be >= 2"), "at least one value",
                distinct=True),
    "mesh_sizes": _items(_SIZE, "at least 3 sizes", least=3),
    "dipole_separation": _field(_as_number, lambda s: s >= 0.0, "must be >= 0"),
    "out": _field(_as_name),
}
_CURVE_FIELDS = {**_FIELDS, "n": _field(_as_int, lambda n: n >= 1, "must be positive")}

# values of optional fields that an object leaves out
_DEFAULTS = {
    "orientation": "ccw",
    "closed": True,
    "mesh": [15, 15],
    "mesh_sizes": [8, 16, 32, 64],
    "dipole_separation": 1e-3,
    "sigma": 1.0,
}


def _parse_fields(obj, required, optional, where, scene_file, fields=_FIELDS) -> dict:
    _check_keys(obj, required, optional, where)
    given = {**obj, **{k: v for k, v in _DEFAULTS.items() if k in optional and k not in obj}}
    return {k: fields[k](v, f"{where}.{k}", scene_file) for k, v in given.items() if k != "kind"}


def _parse_kind(obj, kinds: dict, where, scene_file, fields=_FIELDS) -> dict:
    """Parse obj by the required and optional fields of its kind."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SceneFormatError(f"{where}: missing 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise SceneFormatError(f"{where}: unknown kind {kind!r}")
    required, optional = kinds[kind][-2:]
    parsed = _parse_fields(obj, required | {"kind"}, optional, where, scene_file, fields)
    return {"kind": kind, **parsed}


def parse_experiment(obj, where: str, scene_file: SceneFile) -> dict:
    """Check one experiment entry; the names it uses must resolve in scene_file."""
    out = _parse_kind(obj, _EXPERIMENT_KINDS, where, scene_file)
    if out["kind"] == "field" and ("curve" in out) == ("surface" in out):
        raise SceneFormatError(f"{where}: give exactly one of 'curve' or 'surface'")
    return out


def parse_scene_dict(data) -> SceneFile:
    _check_keys(
        data,
        {"version"},
        {"constants", "quadrature", "curves", "surfaces", "scenes", "experiments"},
        "scene file",
    )
    version = _as_int(data["version"], "version")
    if version != SCENE_VERSION:
        raise SceneFormatError(f"unsupported scene file version {version}")
    sf = SceneFile(version)
    for block, settings in (("constants", FieldConstants), ("quadrature", QuadratureSpec)):
        keys = {f.name for f in dataclasses.fields(settings)}
        setattr(sf, block, _parse_fields(data.get(block, {}), set(), keys, block, sf))
    raw = {table: data.get(table, {}) for table in ("curves", "surfaces", "scenes")}
    for table, named in raw.items():
        if not isinstance(named, dict):
            raise SceneFormatError(f"{table}: expected an object of named {table}")
        setattr(sf, table, dict.fromkeys(named))  # names first: references may point forward
    sf.curves = {
        name: _parse_kind(spec, _CURVE_KINDS, f"curves.{name}", sf, _CURVE_FIELDS)
        for name, spec in raw["curves"].items()
    }
    sf.surfaces = {
        name: _parse_kind(spec, _SURFACE_KINDS, f"surfaces.{name}", sf)
        for name, spec in raw["surfaces"].items()
    }
    sf.scenes = {
        name: _parse_fields(spec, _SCENE_KEYS, {"spanning_surface"}, f"scenes.{name}", sf)
        for name, spec in raw["scenes"].items()
    }
    raw_experiments = data.get("experiments", [])
    if not isinstance(raw_experiments, list):
        raise SceneFormatError("experiments: expected a list")
    sf.experiments = [
        parse_experiment(spec, f"experiments[{i}]", sf) for i, spec in enumerate(raw_experiments)
    ]
    # constructible check: bad numeric combinations and geometry surface at
    # parse time, named by their entry
    builds = [("constants", sf.field_constants), ("quadrature", sf.quadrature_spec)]
    builds += [(f"curves.{name}", partial(sf.build_curve, name)) for name in sf.curves]
    builds += [(f"surfaces.{name}", partial(sf.build_patch, name)) for name in sf.surfaces]
    for where, build in builds:
        try:
            build()
        except SceneFormatError:
            raise
        except ValueError as exc:
            raise SceneFormatError(f"{where}: {exc}") from exc
    return sf


def parse_scene_file(path) -> SceneFile:
    path = Path(path)
    if not path.exists():
        raise SceneFormatError(f"scene file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scene_dict(data)
