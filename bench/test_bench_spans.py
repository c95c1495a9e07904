"""The tracer puts every wrapped name back and counts work exactly; the
benchmark's loops link the ring as built."""

import math

import numpy as np
import pytest

import loopfield
import loopfield.cli
import loopfield.scenefile
import spans
import workloads
from loopfield import linking


def _wrapped_names():
    mod = {
        name: getattr(loopfield, name)
        for name in ("fields", "linking", "experiments", "geometry", "cli", "scenefile")
    }
    names = {(mod[m], attr) for ms, attr in spans._FUNCTION_SPANS.values() for m in ms}
    for module, cls, methods in spans._METHOD_SPANS.values():
        names |= {(getattr(mod[module], cls), method) for method in methods}
    names.add((mod["linking"], "sample_closed_polyline"))
    return {(owner, attr): vars(owner)[attr] for owner, attr in names}


def test_tracer_restores_names_and_counts_work():
    before = _wrapped_names()
    partner = loopfield.Circle((1.0, 0.0, 0.0), 1.0, (0.0, 1.0, 0.0), "ccw")
    ring = loopfield.Circle((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 1.0), "ccw")
    mesh = loopfield.mesh_surface(loopfield.Disk((0, 0, 0), 1.0, (0, 0, 1)), 9, 9)
    with spans.Tracer() as tracer:
        tracer.op = 0
        value, _ = linking.gauss_pair_integral(partner, ring)
        lk = linking.combinatorial_lk(partner, mesh)
    assert _wrapped_names() == before
    assert linking.integrate_2d is loopfield.quadrature.integrate_2d
    assert abs(value - 1.0) < 1e-6 and lk == 1
    metrics = tracer.layer_metrics(1)
    assert metrics["quadrature.calls_per_op"][0] == 1
    assert metrics["quadrature.points_per_op"][0] == 64 * metrics["quadrature.integrand_calls_per_op"][0]
    segments = len(linking.sample_closed_polyline(partner, mesh.min_edge_length() / 4.0))
    assert metrics["linking.segments_per_op"][0] == segments

    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("body failed")
    assert _wrapped_names() == before


def _gauss_numeric(vertices, n=160):
    """Gauss integral of a closed polygon against the unit circle about +z."""
    t, wt = np.polynomial.legendre.leggauss(n)
    phi = math.pi * (t + 1.0)
    circ = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)])
    dcirc = math.pi * np.column_stack([-np.sin(phi), np.cos(phi), np.zeros(n)])
    verts = np.asarray(vertices, dtype=float)
    total = 0.0
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
            s = lo + (hi - lo) * 0.5 * (t + 1.0)
            pts = a + np.outer(s, b - a)
            rel = circ[None, :, :] - pts[:, None, :]
            num = np.einsum("ijk,jk->ij", np.cross(b - a, rel), dcirc)
            w = 0.5 * (hi - lo) * np.outer(wt, wt)
            total += np.sum(w * num / np.linalg.norm(rel, axis=-1) ** 3)
    return total / (4.0 * math.pi)


@pytest.mark.parametrize("lk", [-2, -1, 0, 1, 2])
def test_winding_loops_link_as_built(lk):
    inside = [np.array([0.4, 0.0, 0.0]), np.array([-0.4, 0.1, 0.0])]
    outside = [np.array([1.8, 0.0, 0.0]), np.array([-1.8, 0.3, 0.0])]
    verts = workloads.winding_loop(inside, outside, workloads.ZHAT, lk, 1.0)
    assert _gauss_numeric(verts) == pytest.approx(lk, abs=1e-6)
