"""Benchmark of this repository: four workloads, end-to-end and per-layer metrics.

One workload, with its result as the last line of stdout (one JSON object)::

    python3 benchmarks/suite/run.py --workload mc_parallel --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Without ``--workload`` every workload
runs, untraced and then traced; the metrics print as
``workload metric value unit`` lines, the full record goes to ``--out`` and
each workload's spans to ``trace_<workload>.json`` beside it::

    python -m benchmarks.suite --seed 1999 [--out FILE] [--smoke]

Each workload runs in fresh interpreters: set-up is timed in several
launches, and one more launch runs the ops.  Every op is one governed call,
issued after the previous one returned (a closed loop with one client).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports only the standard library)

#: fresh interpreters whose set-up time is measured (median reported)
SETUP_LAUNCHES = 3
#: ops per workload in the traced pass
TRACE_OPS = 3
#: wall-clock limit of one child interpreter
CHILD_TIMEOUT_S = 150


# -- child interpreters -------------------------------------------------------


class _Ops:
    """Runs ops of one workload, checking each and counting failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, i: int, expect: dict | None = None):
        """Op ``i`` as ``(counts or None, seconds)``; failures are counted."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            counts = self.wl.run(i)
        except Exception as exc:  # a failing op is reported, never fatal
            seconds = time.perf_counter() - t0
            traceback.print_exc()
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None, seconds
        seconds = time.perf_counter() - t0
        bad = self.wl.check(counts)
        if expect is not None and _canonical(counts) != _canonical(expect):
            bad.append("re-run counts differ from the first run")
        if bad:
            self._fail(i, "; ".join(bad))
        return counts, seconds

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        self.errors.append(f"op {i}: {message}")
        print(f"{self.wl.name}: op {i} failed: {message}", file=sys.stderr)

    def timed(self, first: int, seconds: float, min_ops: int) -> list[float]:
        """Times of ops ``first, first + 1, ...`` run for ``seconds``."""
        times = []
        end = time.perf_counter() + seconds
        i = first
        while i - first < min_ops or time.perf_counter() < end:
            counts, dt = self.run(i)
            if counts is not None:
                times.append(dt)
            i += 1
        return times

    def tally(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


def _canonical(counts: dict) -> str:
    return json.dumps(counts, sort_keys=True)


def _environment() -> dict:
    """Host description plus a fixed numpy + Python calibration loop's time."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.arange(1 << 20, dtype=np.uint64)
    for _ in range(32):
        x = (x * np.uint64(6364136223846793005)) ^ (x >> np.uint64(29))
    total = 0
    for k in range(300_000):
        total += k * k % 7
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS,
        "calibration_s": time.perf_counter() - t0,
    }


def _measure(wl, seconds: float) -> dict:
    ops = _Ops(wl)
    first, _ = ops.run(0)  # untimed warm-up: caches fill, lazy set-up ends
    times = ops.timed(1, seconds, min_ops=1)
    ops.run(0, expect=first)  # seeded determinism: op 0 again, byte for byte
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "times": times,
        "items": wl.items,
        "counts": first,
        "peak_rss_mib": peak_kib / 1024,
        "environment": _environment(),
        **ops.tally(),
    }


def _trace(wl, seconds: float, trace_file: str | None) -> dict:
    import tracing

    ops = _Ops(wl)
    first, _ = ops.run(0)
    untraced = ops.timed(1, seconds, min_ops=TRACE_OPS)
    ops.run(0, expect=first)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    per_op, traced = [], []
    for i in range(1, TRACE_OPS + 1):  # fixed op ids: counts repeat per seed
        tracer.begin(i)
        counts, wall = ops.run(i)
        metrics = tracer.end(wall)
        if counts is not None:
            metrics.update(wl.layer_extras(counts))
            traced.append(wall)
        per_op.append(metrics)
    keys = sorted(set().union(*per_op))
    metrics = {k: statistics.median(m.get(k, 0) for m in per_op) for k in keys}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1
        if traced and untraced
        else 0.0
    )
    if trace_file:
        base = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [
            [name, t0 - base, t1 - base, parent, op, own]
            for name, t0, t1, parent, op, own in tracer.spans
        ]
        record = {
            "workload": wl.name,
            "metrics": metrics,
            "per_op": per_op,
            "span_fields": ["name", "start_s", "end_s", "parent", "op", "self_s"],
            "spans": spans,
        }
        Path(trace_file).write_text(json.dumps(record))
    return {"metrics": metrics, **ops.tally()}


def _child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    prefix = f"{args.workload}."
    for pin in args.pin:
        key, _, value = pin.partition("=")
        if key.startswith(prefix):
            wl.pins[key[len(prefix) :]] = json.loads(value)
    result = {"setup_s": setup_s}
    if args.child == "measure":
        result.update(_measure(wl, args.seconds))
    elif args.child == "trace":
        result.update(_trace(wl, args.seconds, args.trace_file))
    print(json.dumps(result))
    return 0


# -- parent: launches, metrics, reports ------------------------------------------


def _launch(mode: str, name: str, args, seconds: float, trace_file=None) -> dict:
    """Run one child interpreter and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", name, "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    if args.smoke:
        cmd.append("--smoke")
    for pin in args.pin:
        cmd += ["--pin", pin]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    # Its own process group, so every process it forks can be stopped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        sys.exit(f"error: {mode} run of {name} took over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"error: {mode} run of {name} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _summary(values: list[float], unit: str) -> dict:
    """Median and quartiles of ``values``."""
    if not values:
        return {"value": 0.0, "unit": unit, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def measure(name: str, args, spec: dict) -> dict:
    """End-to-end record of one workload (tracing off)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    launches = 1 if args.smoke else SETUP_LAUNCHES
    setups = [
        _launch("setup", name, args, 0)["setup_s"] for _ in range(launches - 1)
    ]
    run = _launch("measure", name, args, args.seconds)
    setups.append(run["setup_s"])
    values = {
        "configs_per_s": [run["items"] / t for t in run["times"]],
        "setup_s": setups,
        "peak_rss_mib": [run["peak_rss_mib"]],
    }
    return {
        "metrics": {k: _summary(v, units[k]) for k, v in values.items()},
        "ops": len(run["times"]),
        "op_s": run["times"],
        "items_per_op": run["items"],
        "counts": run["counts"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "error_rate": run["failed"] / run["attempted"],
        "errors": run["errors"],
        "environment": run["environment"],
    }


def trace(name: str, args, seconds: float, trace_file=None) -> dict:
    """Per-layer record of one workload (tracing on)."""
    import tracing

    rec = _launch("trace", name, args, seconds, trace_file)
    rec["exact"] = {k: v for k, v in rec["metrics"].items() if tracing.is_exact(k)}
    return rec


def _one_workload(args, spec: dict) -> int:
    if args.trace:
        rec = trace(args.workload, args, args.seconds)
        metrics = {
            m["name"]: {"value": rec["metrics"].get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        rec = measure(args.workload, args, spec)
        metrics = {
            m["name"]: {"value": rec["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps(rec))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))
    return 0


def _whole_suite(args, spec: dict) -> int:
    import tracing

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
        "trace": {},
    }
    for name in workloads.NAMES:
        rec = measure(name, args, spec)
        report["environment"] = rec.pop("environment")
        report["workloads"][name] = rec
        for m in spec["end_to_end"]:
            print(name, m["name"], f"{rec['metrics'][m['name']]['value']:.6g}", m["unit"])
        print(name, "error_rate", f"{rec['error_rate']:.6g}", "ratio", flush=True)
    for name in workloads.NAMES:
        rec = trace(name, args, 0, out.parent / f"trace_{name}.json")
        report["trace"][name] = rec
        for metric, value in rec["metrics"].items():
            print(name, metric, f"{value:.6g}", tracing.unit_of(metric))
        print(name, "trace.error_rate", f"{rec['failed'] / rec['attempted']:.6g}", "ratio", flush=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    parts = list(report["workloads"].values()) + list(report["trace"].values())
    return 1 if any(part["failed"] for part in parts) else 0


def _parse(argv):
    p = argparse.ArgumentParser(
        prog="benchmarks.suite",
        description="Run the repository benchmark (see BENCHMARK.json).",
    )
    p.add_argument("--workload", choices=workloads.NAMES,
                   help="run one workload; the last stdout line is its JSON result")
    p.add_argument("--seed", type=int, default=1999)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 1 reports the per-layer metrics")
    p.add_argument("--out", default=str(HERE / "out" / "results.json"),
                   help="without --workload: where the full record is written")
    p.add_argument("--smoke", action="store_true",
                   help="12-16 node rings and a single timed op")
    p.add_argument("--pin", action="append", default=[], metavar="WORKLOAD.KEY=JSON",
                   help="override a pinned count (to check failure accounting)")
    p.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--trace-file", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return _one_workload(args, spec)
    return _whole_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
