"""Spans around calls into loopfield's layers, recorded from outside.

The package imports names into its calling modules (`from .quadrature
import integrate_2d`), so each public name is wrapped where its caller
looks it up: `loopfield.linking.integrate_2d`, `loopfield.fields.
integrate_1d`, `loopfield.cli.biot_savart` and so on.  A span records
(name, operation, parent, start, end); integrand calls inside a
quadrature span are counted into that span rather than recorded one by
one, so a traced run stays small.  `Tracer` is a context manager and puts
every wrapped name back on exit, also when the body raises.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

clock = time.perf_counter

# span name -> (modules whose global is wrapped, attribute)
_FUNCTION_SPANS = {
    "quadrature.integrate_1d": (("fields",), "integrate_1d"),
    "quadrature.integrate_2d": (("fields", "linking"), "integrate_2d"),
    "fields.biot_savart": (("fields", "experiments", "cli"), "biot_savart"),
    "fields.coulomb": (("fields", "experiments", "cli"), "coulomb_surface_field"),
    "fields.dipole_mesh": (("fields", "experiments"), "dipole_mesh_field"),
    "linking.closest": (("linking",), "curve_min_distance"),
    "linking.gauss_pair": (("linking", "experiments"), "gauss_pair_integral"),
    "linking.count": (("linking", "experiments", "cli"), "combinatorial_lk"),
    "geometry.mesh": (("geometry", "experiments", "scenefile"), "mesh_surface"),
    "geometry.boundary": (("geometry", "experiments", "linking"), "mesh_boundary"),
    "scenefile.parse": (("cli",), "parse_scene_file"),
    "cli.self": (("cli",), "run"),
}
EXPERIMENT_DRIVERS = (
    "ampere_catalog",
    "line_limit_study",
    "similitude_general",
    "similitude_infinitesimal",
    "maxwell_probe",
    "curl_vanishing",
)
for _driver in EXPERIMENT_DRIVERS:
    _FUNCTION_SPANS[f"experiments.{_driver}"] = (("cli",), _driver)

# span name -> (module, class, method)
_METHOD_SPANS = {
    "linking.validate": ("linking", "LinkScene", ("validate",)),
    "scenefile.build": (
        "scenefile",
        "SceneFile",
        ("build_curve", "build_patch", "build_mesh", "build_scene"),
    ),
}

# span record fields
NAME, OP, PARENT, START, END, CHILD, CALLS, POINTS, SEGMENTS, PAIRS = range(10)


class Tracer:
    """Install span wrappers on loopfield's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, self.op, -1 if parent is None else id(parent), clock(), 0.0, 0.0, 0, 0, 0, 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += span[END] - span[START]

    def _span_wrapper(self, name, func):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                if name == "linking.count":
                    mesh = args[1] if len(args) > 1 else kwargs["spanning_mesh"]
                    result = func(*args, **kwargs)
                    span[PAIRS] = span[SEGMENTS] * mesh.m * mesh.n
                    return result
                return func(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _quadrature_wrapper(self, name, func):
        tracer = self

        def traced(f, *args, **kwargs):
            span = tracer._open(name)

            def counted(*xs):
                start = clock()
                try:
                    return f(*xs)
                finally:
                    span[CHILD] += clock() - start
                    span[CALLS] += 1
                    span[POINTS] += np.broadcast(*xs).size

            try:
                return func(counted, *args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _segment_counter(self, func):
        tracer = self

        def counted(*args, **kwargs):
            points = func(*args, **kwargs)
            if tracer._stack:
                tracer._stack[-1][SEGMENTS] += len(points)
            return points

        return counted

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        try:
            mod = {
                name: importlib.import_module(f"loopfield.{name}")
                for name in ("fields", "linking", "experiments", "geometry", "scenefile", "cli")
            }
            for span_name, (modules, attr) in _FUNCTION_SPANS.items():
                for module in modules:
                    original = getattr(mod[module], attr)
                    if span_name.startswith("quadrature."):
                        wrapper = self._quadrature_wrapper(span_name, original)
                    else:
                        wrapper = self._span_wrapper(span_name, original)
                    self._patch(mod[module], attr, wrapper)
            for span_name, (module, cls_name, methods) in _METHOD_SPANS.items():
                cls = getattr(mod[module], cls_name)
                for method in methods:
                    self._patch(cls, method, self._span_wrapper(span_name, cls.__dict__[method]))
            linking = mod["linking"]
            self._patch(
                linking,
                "sample_closed_polyline",
                self._segment_counter(linking.sample_closed_polyline),
            )
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines with times relative to the first span."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                record = {
                    "name": span[NAME],
                    "op": span[OP],
                    "parent": index.get(span[PARENT], -1),
                    "start_us": round(1e6 * (span[START] - t0), 3),
                    "end_us": round(1e6 * (span[END] - t0), 3),
                    "child_us": round(1e6 * span[CHILD], 3),
                }
                if span[CALLS]:
                    record["integrand_calls"] = span[CALLS]
                    record["points"] = span[POINTS]
                if span[SEGMENTS]:
                    record["segments"] = span[SEGMENTS]
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer figures over `ops` traced operations."""
        self_ms: dict[str, float] = {}
        integrand_s = calls = points = segments = pairs = count_s = quad_calls = 0
        for span in self.spans:
            name = span[NAME]
            duration = span[END] - span[START]
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (duration - span[CHILD])
            if name.startswith("quadrature."):
                quad_calls += 1
                calls += span[CALLS]
                points += span[POINTS]
                integrand_s += span[CHILD]
            elif name == "linking.count":
                segments += span[SEGMENTS]
                pairs += span[PAIRS]
                count_s += duration
        overhead_ms = self_ms.get("quadrature.integrate_1d", 0.0) + self_ms.get(
            "quadrature.integrate_2d", 0.0
        )
        n = max(ops, 1)
        out = {
            "quadrature.calls_per_op": (quad_calls / n, "count"),
            "quadrature.integrand_calls_per_op": (calls / n, "count"),
            "quadrature.points_per_op": (points / n, "count"),
            "quadrature.integrand_ms_per_op": (1e3 * integrand_s / n, "ms"),
            "quadrature.overhead_ms_per_op": (overhead_ms / n, "ms"),
            "quadrature.us_per_point": (
                (1e3 * (1e3 * integrand_s + overhead_ms) / points) if points else 0.0,
                "us",
            ),
            "linking.segments_per_op": (segments / n, "count"),
            "linking.nominal_pair_tests_per_s": (pairs / count_s if count_s else 0.0, "1/s"),
        }
        for name in LAYER_TIMES:
            out[f"{name}_ms"] = (self_ms.get(name, 0.0) / n, "ms")
        return out


# spans reported as self time per operation, as `<name>_ms`
LAYER_TIMES = (
    "linking.validate",
    "linking.closest",
    "linking.gauss_pair",
    "linking.count",
    "fields.biot_savart",
    "fields.coulomb",
    "fields.dipole_mesh",
    "geometry.mesh",
    "geometry.boundary",
    *(f"experiments.{d}" for d in EXPERIMENT_DRIVERS),
    "scenefile.parse",
    "scenefile.build",
    "cli.self",
)
