"""The benchmark's four workloads: seeded inputs and the check of each answer.

`BUILDERS[name](lf, rng, workdir, scenes)` returns one round: a list of `Op`s whose
kinds are interleaved round-robin.  Every op's expected answer comes from
`reference` or from how its input was built (linking numbers), never
from loopfield's own output.

Seeded inputs vary by rigid motion, scale and parameters drawn inside
fixed strata, so the cost mix of a round is nearly the same for every
seed.  Ops marked `kept_fault` exercise a known defect of the program on
inputs that do not depend on the seed; they are expected to fail and are
counted as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

K_B = 1.0 / (4.0 * math.pi)
ZHAT = np.array([0.0, 0.0, 1.0])


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    kept_fault: Optional[str] = None


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the groups, so that kinds alternate within a round."""
    out = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


# ---------------------------------------------------------------------------
# Seeded geometry
# ---------------------------------------------------------------------------


class Motion:
    """x -> scale * Q x + shift with Q a proper rotation (Lk is invariant)."""

    def __init__(self, rng, scale_range=(0.5, 2.0)):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        self.q = q
        self.scale = float(rng.uniform(*scale_range))
        self.shift = rng.uniform(-2.0, 2.0, 3)

    def point(self, p):
        return self.scale * (self.q @ np.asarray(p, dtype=float)) + self.shift

    def points(self, ps):
        return [self.point(p) for p in ps]

    def vector(self, v):
        return self.q @ np.asarray(v, dtype=float)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def winding_loop(inside, outside, normal, lk, height):
    """Closed polygon threading a surface with linking number lk.

    `inside` are points on the spanning surface, `outside` points in its
    plane but off the surface.  |lk| passes go up (along `normal`) through
    the inside points and come back down through the outside points, so
    each pass links once; lk = 0 goes up through the first inside point and
    down through the second.  Legs between passes stay at -height below the
    plane, so they never cross it.  Negative lk reverses the traversal.
    """
    n = np.asarray(normal, dtype=float)
    up, down = height * n, -height * n
    verts = []
    if lk == 0:
        p, q = inside[0], inside[1]
        verts = [p + down, p + up, q + up, q + down]
    else:
        for k in range(abs(lk)):
            p, mid = inside[k], outside[k]
            verts += [p + down, p + up, 2.0 * mid - p + down]
    if lk < 0:
        verts = verts[::-1]
    return verts


# ---------------------------------------------------------------------------
# gauss_link
# ---------------------------------------------------------------------------


def _hopf_partner(lf, motion, turn, sign):
    """A circle of radius 0.7 through the unit disk at radius 0.4, out at 1.8."""
    center = turn @ np.array([1.1, 0.0, 0.0])
    axis = turn @ np.array([0.0, 1.0, 0.0])
    # ccw about +y moves up through the inner crossing: Lk = +1
    orientation = "ccw" if sign > 0 else "cw"
    return lf.Circle(motion.point(center), 0.7 * motion.scale, motion.vector(axis), orientation)


def _gauss_op(lf, kind, curve_c, ring, lk):
    scene = lf.LinkScene(curve_c, ring, name=kind)

    def check(result):
        value, err = result
        return abs(value - lk) <= 1e-4 + err

    return Op(kind, lambda: lf.linking.gauss_linking(scene), check)


def build_gauss_link(lf, rng, workdir, scenes) -> list[Op]:
    """Fixed shapes around the unit ring; the seed draws each scene's rigid
    motion, scale and turn about the ring's axis, which leave both the
    linking number and the quadrature's work unchanged."""
    groups: dict[str, list[Op]] = {"hopf": [], "composite": [], "winding": [], "axis_rect": []}

    def placed():
        motion = Motion(rng)
        ring = lf.Circle(motion.point((0, 0, 0)), motion.scale, motion.vector(ZHAT), "ccw")
        return motion, ring, rot_z(rng.uniform(0.0, 2.0 * math.pi))

    for sign in (1, -1):
        motion, ring, turn = placed()
        groups["hopf"].append(_gauss_op(lf, "hopf", _hopf_partner(lf, motion, turn, sign), ring, sign))
    for sign in (1, -1):
        # the hopf shape again, with the ring placed from where the circle's
        # parameter starts, so that a straight spur out and back from that
        # point (adding 0) always sits at the circle's far side
        motion = Motion(rng)
        circle = lf.Circle(motion.point((0, 0, 0)), 0.7 * motion.scale, motion.vector(ZHAT),
                           "ccw" if sign > 0 else "cw")
        p = circle.position(circle.t_start)
        out = (p - circle.center) / np.linalg.norm(p - circle.center)
        axis = circle.axis / np.linalg.norm(circle.axis)
        ring = lf.Circle(p - 1.8 * motion.scale * out, motion.scale, np.cross(out, axis), "ccw")
        spur = lf.PolyLine([p, p + 0.3 * motion.scale * axis, p])
        composite = lf.CompositeCurve([circle, spur])
        groups["composite"].append(_gauss_op(lf, "composite", composite, ring, sign))
    inside = [np.array([0.4, 0.0, 0.0]), np.array([-0.4, 0.1, 0.0])]
    outside = [np.array([1.8, 0.0, 0.0]), np.array([-1.8, 0.3, 0.0])]
    for lk in (-2, -1, 0, 1, 2):
        motion, ring, turn = placed()
        verts = [turn @ v for v in winding_loop(inside, outside, ZHAT, lk, 1.0)]
        groups["winding"].append(
            _gauss_op(lf, "winding", lf.PolyLine(motion.points(verts), closed=True), ring, lk)
        )
    for _ in range(2):
        motion, ring, turn = placed()
        # the RectLoop(4) shape: up the z-axis through the ring, Lk = +1
        rect = [turn @ np.array(v, dtype=float) for v in ((0, 0, -4), (0, 0, 4), (4, 0, 4), (4, 0, -4))]
        groups["axis_rect"].append(
            _gauss_op(lf, "axis_rect", lf.PolyLine(motion.points(rect), closed=True), ring, 1)
        )
    return interleave(list(groups.values()))


# ---------------------------------------------------------------------------
# crossing_count
# ---------------------------------------------------------------------------


def _count_op(lf, kind, loop, mesh, lk, kept_fault=None):
    return Op(
        kind,
        lambda: lf.linking.combinatorial_lk(loop, mesh),
        lambda result: result == lk,
        kept_fault,
    )


def _disk_cells(rng, m, count):
    """Parameters (u, v) in the middle 40% of distinct cells at least two
    cells from the edge of the parameter square."""
    cells = set()
    while len(cells) < count:
        cells.add((int(rng.integers(2, m - 2)), int(rng.integers(2, m - 2))))
    return [((i + 0.5 + rng.uniform(-0.2, 0.2)) / m, (j + 0.5 + rng.uniform(-0.2, 0.2)) / m)
            for i, j in sorted(cells)]


def build_crossing_count(lf, rng, workdir, scenes) -> list[Op]:
    disk_ops, rect_ops, circle_ops = [], [], []
    sizes = (13, 15, 17, 19)
    for k, lk in enumerate((-2, -1, 0, 1, 2, 1)):
        motion = Motion(rng)
        center, axis = motion.point((0, 0, 0)), motion.vector(ZHAT)
        disk = lf.Disk(center, motion.scale, axis)
        m = sizes[k % len(sizes)]
        mesh = lf.geometry.mesh_surface(disk, m, m)
        inside = [disk.point(u, v) for u, v in _disk_cells(rng, m, 2)]
        outside = []
        for p in inside:
            radial = p - center
            radial = radial / np.linalg.norm(radial)
            outside.append(center + motion.scale * rng.uniform(1.45, 1.8) * radial)
        verts = winding_loop(inside, outside, axis, lk, motion.scale * rng.uniform(0.6, 1.0))
        disk_ops.append(_count_op(lf, "disk_polygon", lf.PolyLine(verts, closed=True), mesh, lk))
    for k, lk in enumerate((-2, -1, 0, 1, 2, -1)):
        motion = Motion(rng)
        la, lb = rng.uniform(1.0, 2.0, 2) * motion.scale
        skew = rng.uniform(-0.3, 0.3)
        edge_a = motion.vector((la, 0, 0))
        edge_b = motion.vector((skew * lb, lb, 0))
        corner = motion.point((0, 0, 0))
        rect = lf.PlanarRect(corner, edge_a, edge_b)
        m = sizes[(k + 2) % len(sizes)]
        mesh = lf.geometry.mesh_surface(rect, m, m)
        normal = motion.vector(ZHAT)
        uv_in = rng.uniform(0.05, 0.95, (2, 2))
        uv_out = np.column_stack([rng.uniform(1.3, 1.6, 2), rng.uniform(0.1, 0.9, 2)])
        inside = [corner + u * edge_a + v * edge_b for u, v in uv_in]
        outside = [corner + u * edge_a + v * edge_b for u, v in uv_out]
        verts = winding_loop(inside, outside, normal, lk, motion.scale * rng.uniform(0.6, 1.0))
        rect_ops.append(_count_op(lf, "rect_polygon", lf.PolyLine(verts, closed=True), mesh, lk))
    for k, sign in enumerate((1, -1, 1, -1)):
        motion = Motion(rng)
        center, axis = motion.point((0, 0, 0)), motion.vector(ZHAT)
        disk = lf.Disk(center, motion.scale, axis)
        m = sizes[(k + 1) % len(sizes)]
        mesh = lf.geometry.mesh_surface(disk, m, m)
        (u, v), = _disk_cells(rng, m, 1)
        p = disk.point(u, v)
        radial = p - center
        radial = radial / np.linalg.norm(radial)
        radius = 0.5 * (motion.scale * rng.uniform(1.5, 2.2) - float(np.linalg.norm(p - center)))
        # through p and out past the rim; ccw about normal x radial moves
        # up through p, so Lk = +1
        circle = lf.Circle(p + radius * radial, radius, np.cross(axis, radial),
                           "ccw" if sign > 0 else "cw")
        circle_ops.append(_count_op(lf, "disk_circle", circle, mesh, sign))
    kept = [
        _count_op(lf, f"even_mesh_{scene.name}", scene.curve_c, scene.spanning_mesh,
                  CATALOG_LK[scene.name],
                  None if scene.name == "unlinked_far" else "DegenerateIntersection on a 16x16 disk")
        for scene in lf.experiments.default_catalog(16, 16)
    ]
    x, y = -0.441779, 0.679083
    gap_loop = lf.PolyLine([(x, y, -1.0), (x, y, 1.0), (3.0, 0.0, 1.0), (3.0, 0.0, -1.0)], closed=True)
    unit_disk = lf.geometry.mesh_surface(lf.Disk((0, 0, 0), 1.0, (0, 0, 1)), 15, 15)
    kept.append(_count_op(lf, "panel_gap", gap_loop, unit_disk, 1, "crossing in a panel gap counts 0"))
    return interleave([disk_ops, rect_ops, circle_ops, kept])


# linking numbers of experiments.default_catalog, by construction of each loop
CATALOG_LK = {
    "hopf": 1,
    "hopf_reversed": -1,
    "unlinked_far": 0,
    "zero_wind": 0,
    "double_wind": 2,
    "axis_rect_8": 1,
}


# ---------------------------------------------------------------------------
# field_eval
# ---------------------------------------------------------------------------


def _field_check(expected, spec, prefactor):
    """Within ten times the spec's tolerance of the integral, times its prefactor."""
    tol = 10.0 * (spec.rel_tol * np.linalg.norm(expected) + abs(prefactor) * spec.abs_tol)

    def check(result):
        return bool(np.linalg.norm(result - expected) <= tol)

    return check


def build_field_eval(lf, rng, workdir, scenes) -> list[Op]:
    fields = lf.fields
    probe = lf.experiments.PROBE_SPEC
    default = lf.QuadratureSpec()
    unit_consts = lf.FieldConstants(k_E=1.0, k_B=1.0)
    circle_ops, polygon_ops, similitude_ops, rect_ops, disk_ops = [], [], [], [], []

    # circles under the default spec, 1e-2..1 radii from the wire; each
    # point sits at a fixed parameter and direction of the circle's own
    # parametrization, so the quadrature's work does not depend on the seed
    for k, d in enumerate(np.geomspace(1e-2, 1.0, 6)):
        motion = Motion(rng)
        center, axis, radius = motion.point((0, 0, 0)), motion.vector(ZHAT), motion.scale
        circle = lf.Circle(center, radius, axis, "ccw")
        t, psi = (0.7 + 1.9 * k) % (2.0 * math.pi), 2.4 * k
        wire = circle.position(t)
        outward = (wire - center) / radius
        x = wire + d * radius * (math.cos(psi) * outward + math.sin(psi) * axis)
        expected = ref.circle_field(center, radius, axis, x, K_B)
        circle_ops.append(Op("circle", lambda c=circle, x=x: fields.biot_savart(c, x),
                             _field_check(expected, default, K_B)))
    # a fixed non-planar pentagon, 1e-2..1 from one of its edges
    pentagon = [np.array([math.cos(a), math.sin(a), z]) for a, z in
                zip((0.3, 1.5, 2.6, 3.9, 5.2), (0.1, -0.2, 0.25, -0.1, 0.0))]
    for k, d in enumerate(np.geomspace(1e-2, 1.0, 4)):
        motion = Motion(rng)
        a, b = pentagon[k], pentagon[k + 1]
        across = np.cross(b - a, (0.3, -0.5, 0.8))
        x = motion.point(a + 0.37 * (b - a) + d * across / np.linalg.norm(across))
        verts = motion.points(pentagon)
        expected = ref.polygon_field(verts, x, K_B)
        polygon_ops.append(Op("polygon", lambda p=lf.PolyLine(verts, closed=True), x=x: fields.biot_savart(p, x),
                              _field_check(expected, default, K_B)))
    # one similitude row: M x M mesh, its boundary loop under PROBE_SPEC and
    # the summed panel dipoles beside h times the boundary field
    h = 1e-4
    for m, d in zip((8, 12, 16), np.geomspace(0.3, 1.0, 3)):
        motion = Motion(rng, scale_range=(0.7, 1.4))
        corner = motion.point((0, 0, 0))
        edge_a, edge_b = motion.scale * motion.vector((1.0, 0, 0)), motion.scale * motion.vector((0, 0.8, 0))
        patch = lf.PlanarRect(corner, edge_a, edge_b)
        x = motion.point((0.37, 0.61 * 0.8, d))
        loop = np.concatenate([  # the mesh boundary, counterclockwise about edge_a x edge_b
            corner + np.linspace(0, 1, m + 1)[:-1, None] * edge_a,
            corner + edge_a + np.linspace(0, 1, m + 1)[:-1, None] * edge_b,
            corner + edge_a + edge_b - np.linspace(0, 1, m + 1)[:-1, None] * edge_a,
            corner + edge_b - np.linspace(0, 1, m + 1)[:-1, None] * edge_b,
        ])
        b_ref = ref.polygon_field(loop, x, 1.0)

        def similitude(patch=patch, m=m, x=x):
            mesh = lf.geometry.mesh_surface(patch, m, m)
            boundary = lf.geometry.mesh_boundary(mesh)
            dipole = fields.dipole_mesh_field(mesh, lf.DipoleSheetSpec(1.0, h), x, unit_consts)
            return dipole, h * fields.biot_savart(boundary, x, unit_consts, probe)

        def check(result, b_ref=b_ref, m=m):
            dipole, hb = result
            loop_ok = _field_check(b_ref, probe, 1.0)(hb / h)
            # second-order panel sum: relative deviation O(1/M^2)
            dipole_ok = np.linalg.norm(dipole / h - b_ref) <= 2.0 / m**2 * np.linalg.norm(b_ref)
            return bool(loop_ok and dipole_ok)

        similitude_ops.append(Op("similitude", similitude, check))
    # uniformly charged rectangles, 1e-2..1 above the sheet
    spots = ((0.3, 0.6), (0.55, 0.35), (0.7, 0.7), (0.45, 0.5))
    for (u, v), d, side in zip(spots, np.geomspace(1e-2, 1.0, 4), (1.0, -1.0, 1.0, -1.0)):
        motion = Motion(rng, scale_range=(0.7, 1.4))
        corner = motion.point((0, 0, 0))
        edge_a, edge_b = motion.scale * motion.vector((1.0, 0, 0)), motion.scale * motion.vector((0, 0.8, 0))
        patch = lf.PlanarRect(corner, edge_a, edge_b)
        x = motion.point((u, 0.8 * v, side * d))
        expected = ref.rectangle_field(corner, edge_a, edge_b, x, 1.0, 1.0)
        rect_ops.append(Op("rect_sheet", lambda p=patch, x=x: fields.coulomb_surface_field(p, 1.0, x),
                           _field_check(expected, default, 1.0)))
    # charged disks on their axis, 3e-2..1 radii from the sheet;
    # the nearest height twice, once each side, so that the slowest tenth of
    # a round's operations is one cluster of similar cost
    for d, side in zip((3e-2, 3e-2, 0.17, 1.0), (1.0, -1.0, 1.0, -1.0)):
        motion = Motion(rng, scale_range=(0.7, 1.4))
        center, axis, radius = motion.point((0, 0, 0)), motion.vector(ZHAT), motion.scale
        disk = lf.Disk(center, radius, axis)
        z = side * d * radius
        x = center + z * axis
        expected = ref.disk_axis_field(radius, z, 1.0, 1.0) * axis
        disk_ops.append(Op("disk_sheet", lambda p=disk, x=x: fields.coulomb_surface_field(p, 1.0, x),
                           _field_check(expected, default, 1.0)))
    unit = lf.Circle((0, 0, 0), 1.0, (0, 0, 1), "ccw")
    near = np.array([1.003, 0.0, 0.0])
    kept = [Op("near_wire", lambda: fields.biot_savart(unit, near),
               _field_check(ref.circle_field((0, 0, 0), 1.0, ZHAT, near, K_B), default, K_B),
               "NoConvergence 3e-3 from a circle")]
    return interleave([circle_ops, polygon_ops, similitude_ops, rect_ops, disk_ops, kept])


# ---------------------------------------------------------------------------
# cli_scenes
# ---------------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def build_cli_scenes(lf, rng, workdir, scenes) -> list[Op]:
    ops, kept = [], []
    default = lf.QuadratureSpec()

    def cli_op(kind, argv, check, kept_fault=None):
        out = workdir / f"{kind}.csv"

        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return lf.cli.run([*argv, "--out", str(out)])

        def checked(code):
            return code == 0 and check(_read_json(out.with_suffix(".json")), _read_csv(out))

        (kept if kept_fault else ops).append(Op(kind, run, checked, kept_fault))

    def link_ok(lk_by_scene):
        def check(record, rows):
            got = {r["scene"]: r for r in record["rows"]}
            return set(got) == set(lk_by_scene) and all(
                abs(got[s]["value"] - lk) <= 1e-4 + got[s]["error_estimate"] and got[s]["lk"] == lk
                for s, lk in lk_by_scene.items()
            )

        return check

    def lk_ok(lk_by_scene):
        return lambda record, rows: {r["scene"]: r["lk"] for r in record["rows"]} == lk_by_scene

    def ampere_ok(lk_by_scene):
        def check(record, rows):
            got = {r["scene_id"]: r for r in record["rows"]}
            return set(got) == set(lk_by_scene) and all(
                got[s]["Lk"] == lk and abs(got[s]["A"] - lk) <= 1e-4 + got[s]["error_estimate"]
                for s, lk in lk_by_scene.items()
            )

        return check

    n_list = [2, 4, 6]

    def linelimit_ok(record, rows):
        got = record["rows"]
        return [r["n"] for r in got] == n_list and all(
            abs(r["A_c1"] - ref.axis_leg(r["n"])) <= 1e-4 + r["error_estimate"]
            and abs(r["A_total"] - 1.0) <= 1e-4 + r["error_estimate"]
            and r["lk"] == 1
            for r in got
        )

    def similitude_ok(record, rows):
        # order >= 0.9 for every study; finest general mesh within 1e-3
        return all(
            study["fitted_order"] >= 0.9
            and (label == "infinitesimal" or study["rows"][-1]["abs_error"] <= 1e-3)
            for label, study in record["studies"].items()
        )

    def probe_ok(expected_rows):
        # div and curl vanish off the sources: <= 1e-5 at the smallest step
        def check(record, rows):
            small = min(float(r["step"]) for r in rows)
            return len(rows) == expected_rows and all(
                float(r["curl_norm"]) <= 1e-5 and float(r["abs_div"]) <= 1e-5
                for r in rows if float(r["step"]) == small
            )

        return check

    def field_ok(points):
        expected = [ref.circle_field((0, 0, 0), 1.0, ZHAT, p, K_B) for p in points]
        checks = [_field_check(e, default, K_B) for e in expected]

        def check(record, rows):
            got = [np.array(r["field"]) for r in record["rows"]]
            return len(got) == len(points) and all(c(g) for c, g in zip(checks, got))

        return check

    def points_arg(points):
        # "--points=..." form: argparse would read a leading minus as an option
        return "--points=" + ";".join(",".join(repr(float(c)) for c in p) for p in points)

    hopf, double_wind = str(scenes / "hopf.json"), str(scenes / "double_wind.json")
    square, disk = str(scenes / "square_sheet.json"), str(scenes / "disk_sheet.json")
    cli_op("link_hopf", ["link", "--scene", hopf], link_ok({"hopf": 1}))
    cli_op("link_double_wind", ["link", "--scene", double_wind], link_ok({"double_wind": 2}))
    cli_op("lk_hopf", ["lk", "--scene", hopf], lk_ok({"hopf": 1}))
    cli_op("lk_double_wind", ["lk", "--scene", double_wind], lk_ok({"double_wind": 2}))
    # the built-in catalog (about twice the next slowest run) would sit alone
    # in the slow tail; one scene keeps the tail a cluster of similar runs
    cli_op("ampere", ["ampere", "--scene", double_wind], ampere_ok({"double_wind": 2}))
    cli_op("linelimit", ["linelimit", "--n", ",".join(map(str, n_list))], linelimit_ok)
    cli_op("similitude", ["similitude"], similitude_ok)
    cli_op("similitude_square", ["similitude", "--scene", square], similitude_ok)
    cli_op("similitude_disk", ["similitude", "--scene", disk], similitude_ok)
    # default: 1 sheet x 2 points x 2 steps x (sheet, dipole)
    cli_op("maxwell", ["maxwell"], probe_ok(8))
    cli_op("maxwell_square", ["maxwell", "--scene", square], probe_ok(8))
    # default: 3 points x 3 steps
    cli_op("curl", ["curl"], probe_ok(9))
    # the hopf ring is the unit circle about +z; points 0.05..1 from the wire
    points = []
    for d in np.geomspace(5e-2, 1.0, 3):
        phi, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
        outward = np.array([math.cos(phi), math.sin(phi), 0.0])
        points.append(outward + d * (math.cos(psi) * outward + math.sin(psi) * ZHAT))
    cli_op("field", ["field", "--scene", hopf, "--curve", "ring", points_arg(points)],
           field_ok(points))
    near = [np.array([1.001, 0.0, 0.0])]
    cli_op("field_near_wire",
           ["field", "--scene", hopf, "--curve", "ring", points_arg(near)],
           field_ok(near), "exit 3: NoConvergence 1e-3 from the ring")
    return [ops[k] for k in rng.permutation(len(ops))] + kept


BUILDERS = {
    "gauss_link": build_gauss_link,
    "crossing_count": build_crossing_count,
    "field_eval": build_field_eval,
    "cli_scenes": build_cli_scenes,
}
