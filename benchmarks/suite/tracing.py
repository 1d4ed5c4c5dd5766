"""Per-layer tracing for the benchmark's traced pass.

:func:`install` wraps each layer's public callables by patching module and
class attributes (no file under ``src/`` changes).  Each wrapped call is a
span kept in memory: name, start, end, parent span and op id.  A span's self
time is its duration minus the time its child spans cover.

Forked ``process``-backend workers cannot hand spans back directly: a worker
keeps per-layer totals and, when its outermost span ends, records them into
the ``repro.obs`` registry (``bench.<layer>.*`` timers and counters).  The
worker already ships registry snapshots to the parent, which merges them.

Each span name belongs to one *stage*, and every workload spends time in
every stage, so the stage totals compare across workloads:

``input``   generating the configurations an op classifies
``step``    applying the global map around the bitwise kernel
``eval``    the shared lowered bitwise kernel itself
``detect``  deciding each configuration's attractor
``reduce``  folding per-configuration results into the op's statistics
``govern``  the governed call: budget, chunk loops, shard dispatch and wait
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from time import perf_counter

STAGES = ("input", "step", "eval", "detect", "reduce", "govern")


def _eval_counts(args, result):
    words = args[2]  # an int, or a (rows, words) tile shape
    words = math.prod(words) if isinstance(words, tuple) else int(words)
    return {"perf.bitplane.eval.lane_updates": 64 * words}


#: module, class (None: a module function), attribute, span name, stage,
#: and an optional ``(args, result) -> {counter: value}`` hook
LAYERS = (
    ("repro.mc.engine", None, "build_mc_estimate", "mc.engine", "govern", None),
    ("repro.mc.engine", None, "merge_mc_counts", "mc.estimators", "reduce", None),
    ("repro.mc.engine", None, "mc_estimates", "mc.estimators", "reduce", None),
    ("repro.mc.kernel", "McKernel", "census_range", "mc.kernel.batch", "detect", None),
    ("repro.mc.kernel", "McKernel", "step", "mc.kernel.step", "step", None),
    ("repro.mc.kernel", "McKernel", "energy2", "mc.kernel.energy", "reduce", None),
    (
        "repro.mc.sampler", None, "sample_planes", "mc.sampler", "input",
        lambda args, result: {"mc.sampler.bytes": int(result.nbytes)},
    ),
    (
        "repro.analysis.census", None, "build_attractor_census",
        "analysis.census", "govern", None,
    ),
    (
        "repro.perf.process", "ProcessBackend", "governed_sweep",
        "perf.process", "govern",
        lambda args, result: {"perf.process.workers": int(args[0].workers)},
    ),
    (
        "repro.perf.attractor", "AttractorKernel", "census_range",
        "perf.attractor.census_range", "reduce", None,
    ),
    (
        "repro.perf.attractor", "AttractorKernel", "classify",
        "perf.attractor.classify", "detect",
        lambda args, result: {"perf.attractor.classify.lanes": int(args[1].size)},
    ),
    ("repro.perf.attractor", "AttractorKernel", "_step", "perf.attractor.step", "step", None),
    (
        "repro.analysis.quotient", "QuotientSpec", "reps_in_range",
        "analysis.quotient.reps_in_range", "input",
        lambda args, result: {"analysis.quotient.reps": int(result[0].size)},
    ),
    (
        "repro.core.phase_space", None, "build_phase_space",
        "core.phase_space.build", "govern", None,
    ),
    (
        "repro.core.phase_space", "PhaseSpace", "has_proper_cycle",
        "core.phase_space.classify", "detect", None,
    ),
    (
        "repro.core.phase_space", "PhaseSpace", "fixed_points",
        "core.phase_space.fixed_points", "reduce", None,
    ),
    (
        "repro.core.nondet", None, "build_nondet_phase_space",
        "core.nondet.build", "govern", None,
    ),
    (
        "repro.core.nondet", "NondetPhaseSpace", "has_proper_cycle",
        "core.nondet.scc", "detect", None,
    ),
    (
        "repro.core.nondet", "NondetPhaseSpace", "fixed_points",
        "core.nondet.fixed_points", "reduce", None,
    ),
    ("repro.core.nondet", None, "scc_labels", "analysis.cycles.scc_labels", "detect", None),
    (
        "repro.core.automaton", "CellularAutomaton", "step_all_range",
        "core.automaton.step_all_range", "govern", None,
    ),
    (
        "repro.core.automaton", "CellularAutomaton", "node_successors",
        "core.automaton.node_successors", "govern", None,
    ),
    (
        "repro.perf.bitplane", "BitplaneBackend", "step_all_range",
        "perf.bitplane.step_all_range", "step", None,
    ),
    (
        "repro.perf.bitplane", "BitplaneBackend", "node_successors_range",
        "perf.bitplane.node_successors_range", "step", None,
    ),
    ("repro.perf.bitplane", "BitplaneBackend", "_plane", "perf.bitplane.plane", "input", None),
    # One kernel, bound by name into three modules.
    ("repro.mc.kernel", None, "eval_bit_kernel", "perf.bitplane.eval", "eval", _eval_counts),
    ("repro.perf.attractor", None, "eval_bit_kernel", "perf.bitplane.eval", "eval", _eval_counts),
    ("repro.perf.bitplane", None, "eval_bit_kernel", "perf.bitplane.eval", "eval", _eval_counts),
)

STAGE_OF = {layer[3]: layer[4] for layer in LAYERS}

#: registry counters the process backend keeps, reported per op
_PROCESS_COUNTERS = {
    "perf.process.shards": "perf.process.shards_done",
    "perf.process.redispatches": "perf.process.redispatches",
    "perf.process.worker_deaths": "perf.process.worker_deaths",
}

_EXACT_SUFFIXES = (".calls", ".lane_updates", ".bytes", ".reps", ".lanes", ".shards")


def is_exact(metric: str) -> bool:
    """Counts that repeat exactly between runs with the same seed."""
    return metric.endswith(_EXACT_SUFFIXES)


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_per_code"):
        return "frac"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Spans of the wrapped layer calls, kept in memory per op."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index, op id, self time)`` per span
        self.spans: list = []
        self.op: int | None = None
        self._totals: dict[str, list] = {}  # name -> [self_s, s, calls]
        self._counts: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [child time, span index]
        self._forked = False
        self._before: dict = {}
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._forked = True
        self.spans = []
        self._totals = {}
        self._counts = {}
        self._stack = []

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, len(self.spans)]
            if not self._forked:
                self.spans.append(None)
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    for key, value in count(args, result).items():
                        self._counts[key] = self._counts.get(key, 0) + value
                return result
            finally:
                self._close(name, frame, t0, perf_counter())

        return traced

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        own = duration - frame[0]
        if stack:
            stack[-1][0] += duration
        total = self._totals.get(name)
        if total is None:
            total = self._totals[name] = [0.0, 0.0, 0]
        total[0] += own
        total[1] += duration
        total[2] += 1
        if not self._forked:
            parent = stack[-1][1] if stack else -1
            self.spans[frame[1]] = (name, t0, t1, parent, self.op, own)
        elif not stack:
            self._flush_to_registry()

    def _flush_to_registry(self) -> None:
        from repro import obs

        for name, (own, duration, calls) in self._totals.items():
            obs.observe(f"bench.{name}.self_s", own)
            obs.observe(f"bench.{name}.s", duration)
            obs.inc(f"bench.{name}.calls", calls)
        for key, value in self._counts.items():
            obs.inc(f"bench.{key}", value)
        self._totals.clear()
        self._counts.clear()

    def begin(self, op: int) -> None:
        from repro.obs import REGISTRY

        self.op = op
        self._totals = {}
        self._counts = {}
        self._before = REGISTRY.snapshot()

    def end(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the op since :meth:`begin`, ``wall`` its time."""
        from repro.obs import REGISTRY

        after = REGISTRY.snapshot()
        before = self._before

        def counter(key):
            return after["counters"].get(key, 0) - before["counters"].get(key, 0)

        def timer(key):
            now = after["timers"].get(key, {}).get("total_s", 0.0)
            return now - before["timers"].get(key, {}).get("total_s", 0.0)

        parent_self = sum(own for own, _, _ in self._totals.values())
        totals, counts = self._totals, self._counts
        for key in after["counters"]:
            if not key.startswith("bench."):
                continue
            name, delta = key[len("bench.") :], counter(key)
            if not name.endswith(".calls"):
                counts[name] = counts.get(name, 0) + delta
            elif delta:  # a span's totals, recorded by forked workers
                span = name[: -len(".calls")]
                total = totals.setdefault(span, [0.0, 0.0, 0])
                total[0] += timer(f"bench.{span}.self_s")
                total[1] += timer(f"bench.{span}.s")
                total[2] += delta

        metrics: dict[str, float] = {f"stage.{s}.self_s": 0.0 for s in STAGES}
        for name, (own, duration, calls) in totals.items():
            metrics[f"{name}.self_s"] = own
            metrics[f"{name}.s"] = duration
            metrics[f"{name}.calls"] = calls
            metrics[f"stage.{STAGE_OF[name]}.self_s"] += own
        metrics.update(counts)
        if "perf.process.s" in metrics:
            wall_s = metrics["perf.process.s"]
            workers = metrics.pop("perf.process.workers") / metrics["perf.process.calls"]
            busy = metrics.get("perf.attractor.census_range.s", 0.0)
            metrics["perf.process.wall_s"] = wall_s
            metrics["perf.process.worker_busy_s"] = busy
            metrics["perf.process.busy_frac"] = busy / (workers * wall_s)
            for name, key in _PROCESS_COUNTERS.items():
                metrics[name] = counter(key)
        metrics["trace.op_wall_s"] = wall
        metrics["trace.accounted_frac"] = parent_self / wall
        return metrics


def _rewrap(owner, attr: str, original, wrap):
    """``original`` (a class or module attribute) with its callable wrapped."""
    if isinstance(original, property):
        return property(wrap(original.fget))
    if isinstance(original, functools.cached_property):
        new = functools.cached_property(wrap(original.func))
        new.__set_name__(owner, attr)
        return new
    return wrap(original)


def install(tracer: Tracer) -> None:
    """Patch every layer in :data:`LAYERS` to record spans into ``tracer``."""
    for module_name, cls, attr, name, _stage, count in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        wrap = functools.partial(tracer.wrap, name=name, count=count)
        setattr(owner, attr, _rewrap(owner, attr, vars(owner)[attr], wrap))
