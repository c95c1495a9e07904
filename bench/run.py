"""Run one benchmark workload against the loopfield sources of this checkout.

    python3 bench/run.py --workload gauss_link --seed 1 --seconds 20 --trace 0

Workloads: gauss_link, crossing_count, field_eval, cli_scenes (see
bench/README.md).  Load is a closed loop: one client in this process
calls the library synchronously, one operation after another, in whole
rounds of the same operations until --seconds have passed (and at least
MIN_OPS operations ran).  Every answer is checked against a reference
computed apart from the program.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end figures; with --trace 1 they are per-layer figures from spans
recorded around calls into each module, and the spans are written to
bench/out/trace-<workload>-<seed>.jsonl.  Operation times and rates are
scaled to a reference host speed measured around every operation (see
calibration.py); setup_s is reported as measured.
"""

import os

# the program is sequential; keep numpy's BLAS on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 15
MIN_OPS = 100

clock = time.perf_counter


def fresh_import():
    """Import loopfield and its CLI from this checkout, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "loopfield" or m.startswith("loopfield.")]:
        del sys.modules[name]
    lf = importlib.import_module("loopfield")
    importlib.import_module("loopfield.cli")
    return lf


def setup(workload, seed, workdir):
    """Import the package and build the inputs SETUP_REPEATS times.

    Returns the last package and round of operations, and the median
    set-up time in seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        lf = fresh_import()
        ops = workloads.BUILDERS[workload](lf, np.random.default_rng(seed), workdir, ROOT / "scenes")
        times.append(clock() - start)
    return lf, ops, statistics.median(times)


class Tally:
    """Outcome counts and good-operation times of a set of rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.good_ms: list[float] = []
        self.round_rates: list[float] = []  # good ops per busy second, per round
        self.calibration_s: list[float] = []  # every calibration.measure()
        self.problems: list[str] = []

    def good_ops_per_s(self) -> float:
        """Median over rounds, so that a slow stretch of the host weighs little."""
        return statistics.median(self.round_rates)

    def record(self, op, seconds, result, error):
        self.attempted += 1
        try:
            ok = error is None and bool(op.check(result))
        except Exception as exc:  # a malformed answer is a wrong answer
            ok, error = False, exc
        if ok:
            self.good_ms.append(1e3 * seconds)
            return
        self.failed += 1
        if op.kept_fault is None:
            detail = f"{type(error).__name__}: {error}" if error else f"wrong answer {result!r}"
            self.problems.append(f"{op.kind}: {detail}")


def run_round(ops, tally, tracer=None):
    """One round; each time is scaled to the reference host speed by the
    calibration measured just before and just after the operation."""
    host_s = [calibration.measure()]
    outcomes = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # the op failed; the check decides what it counts as
            result, error = None, exc
        seconds = clock() - start
        host_s.append(calibration.measure())
        outcomes.append((op, seconds, result, error))
    busy, good = 0.0, len(tally.good_ms)
    for k, (op, seconds, result, error) in enumerate(outcomes):
        seconds *= calibration.REFERENCE_S / (0.5 * (host_s[k] + host_s[k + 1]))
        busy += seconds
        tally.record(op, seconds, result, error)
    tally.round_rates.append((len(tally.good_ms) - good) / busy)
    tally.calibration_s += host_s


def measure(ops, seconds, tracer=None):
    """Whole rounds until `seconds` have passed and MIN_OPS ops ran.

    Without a tracer every round is timed into one tally.  With one,
    rounds alternate between traced and untraced, so the tracing
    overhead is measured under the same conditions.
    """
    warmup = Tally()
    run_round(ops, warmup)
    plain, traced = Tally(), Tally()
    start = clock()
    rounds = 0
    while rounds < 2 or clock() - start < seconds or plain.attempted + traced.attempted < MIN_OPS:
        if tracer is not None and rounds % 2 == 0:
            with tracer:
                run_round(ops, traced, tracer)
        else:
            run_round(ops, plain)
        rounds += 1
    return warmup, plain, traced


def percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def at_reference_speed(value, unit, factor):
    """Scale a per-layer time (or rate) to the reference host speed."""
    if unit in ("ms", "us"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BUILDERS)}")
    if not (ROOT / "src" / "loopfield" / "__init__.py").is_file():
        print(f"error: no loopfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        lf, ops, setup_s = setup(args.workload, args.seed, workdir)
        if not Path(lf.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"error: imported loopfield from {lf.__file__}", file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        warmup, plain, traced = measure(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = warmup.problems + plain.problems + traced.problems
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    timed = traced if tracer is not None else plain
    if tracer is not None:
        host_s = statistics.median(plain.calibration_s + traced.calibration_s)
        factor = calibration.REFERENCE_S / host_s
        metrics = {
            name: {"value": at_reference_speed(value, unit, factor), "unit": unit}
            for name, (value, unit) in tracer.layer_metrics(traced.attempted).items()
        }
        overhead = percentile(traced.good_ms, 50) / percentile(plain.good_ms, 50) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        metrics["trace.spans_per_op"] = {"value": len(tracer.spans) / traced.attempted, "unit": "count"}
        metrics["host.calibration_ms"] = {"value": 1e3 * host_s, "unit": "ms"}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "good_ops_per_s": {"value": timed.good_ops_per_s(), "unit": "1/s"},
            "op_p50_ms": {"value": percentile(timed.good_ms, 50), "unit": "ms"},
            "op_p90_ms": {"value": percentile(timed.good_ms, 90), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
