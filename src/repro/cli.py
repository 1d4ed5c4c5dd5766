"""Command-line interface: ``repro-ca`` (or ``python -m repro``).

Subcommands
-----------
``list``
    Show the experiment registry (one entry per paper artifact).
``run E4 [E5 ...] [--json] [--timeout S] [--retries N] [--isolate] [--resume DIR]``
    Run experiments through the fault-tolerant harness and print their
    verdicts (``all`` runs everything).  Exit codes: 0 all hold, 1 some
    fail, 2 error/timeout/unknown id.  ``--resume DIR`` journals
    progress and skips experiments already completed there.
``simulate``
    Run a CA/SCA trajectory and print an ASCII space-time diagram.
``phase-space``
    Summarise (and optionally export as Graphviz DOT) the parallel or
    sequential phase space of a small automaton.
``census`` / ``survey`` / ``report``
    The MAJORITY-ring census (E20), the 256-rule elementary survey (E21),
    and a markdown report of every experiment.
``mc``
    Streaming Monte-Carlo estimation of fixed-point / 2-cycle incidence,
    convergence time and energy descent for rings far beyond exact
    enumeration (n up to 10**6), with Wilson/Welford confidence
    intervals and a contract-validated ``repro-mc/1`` artifact.
``stats``
    Pretty-print the obs metrics snapshot (in-process, or from a run
    directory written via ``--artifacts-dir``); ``--format prom`` emits
    Prometheus textfile-collector exposition instead.
``runs``
    Query the cross-run sqlite index (``runs_index.sqlite``):
    ``index`` ingests artifact directories/files (all five dialects),
    ``list``/``show`` browse, ``gc`` prunes stale rows, and ``compare``
    diffs two runs' timer medians (exit 1 on a regression beyond
    ``--tolerance``).
``doctor RUN_DIR``
    Crash-recovery triage: validate every artifact in a run directory
    against its contract (:mod:`repro.contracts`), repair what is
    mechanically repairable (torn JSONL tails, a snapshot regenerable
    from its journal, a rebuildable sqlite index, stale sidecars) and
    quarantine the rest under ``RUN_DIR/quarantine/``.  ``--no-repair``
    reports only.  Exit codes: 0 consistent as found, 1 repaired (or,
    with ``--no-repair``, repairable), 2 corruption remains.
``tail``
    Follow a live or finished run's ``progress.jsonl`` heartbeats.
``fuzz``
    Seeded differential fuzzing of the sweep backends against the
    scalar oracle and the paper's theorems (``--self-test`` injects
    known-bad mutant kernels; ``--replay finding.json`` re-checks a
    recorded counterexample).

Every subcommand but ``doctor`` (under ``runs``: each of its five
leaves) accepts ``--trace`` (record tracing spans into the
metrics registry), ``--artifacts-dir DIR`` (persist the run as
``manifest.json`` + ``events.jsonl`` + ``metrics.prom`` under DIR;
implies ``--trace``), ``--profile FILE`` (write a span profile in
speedscope or collapsed-stack format; implies ``--trace``) and
``--progress`` (stream throttled rate/ETA heartbeats to stderr, and to
``progress.jsonl`` when an artifacts dir is active).  ``REPRO_TRACE=1``
in the environment enables tracing globally.

Resource governance: the enumerating subcommands accept ``--budget-mem``
/ ``--budget-wall`` / ``--budget-states``; tripping a budget yields an
honest partial result and exit code 3 instead of an OOM kill.
``--resume DIR`` (``phase-space``, ``census --n N`` and ``mc``)
checkpoints the explored frontier on truncation and resumes from it.
Ctrl-C exits 130 with a one-line notice (no traceback); SIGTERM cancels
cooperatively and exits 143.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.obs.progress import PROGRESS_NAME
from repro.core.budget import (
    Budget,
    BudgetExceeded,
    CancelToken,
    format_bytes,
    parse_size,
    use_budget,
)
from repro.analysis.drawing import (
    nondet_phase_space_dot,
    phase_space_dot,
    render_spacetime,
)
from repro.core.automaton import CellularAutomaton
from repro.core.evolution import sequential_trajectory
from repro.core.rules import (
    MajorityRule,
    SimpleThresholdRule,
    UpdateRule,
    WolframRule,
    XorRule,
)
from repro.core.schedules import (
    FixedPermutation,
    RandomPermutationSweeps,
    RandomSingleNode,
    Synchronous,
    UpdateSchedule,
)
from repro.experiments import EXPERIMENTS
from repro.experiments.registry import get_experiment
from repro.harness import faults
from repro.harness.checkpoint import load_frontier, save_frontier
from repro.perf import (
    BACKEND_ENV,
    BACKEND_NAMES,
    MAX_SWEEP_N,
    BackendUnsupported,
    _check_name,
)
from repro.perf.supervise import ShardFailed
from repro.spaces.base import FiniteSpace
from repro.spaces.grid import Grid2D
from repro.spaces.hypercube import Hypercube
from repro.spaces.line import Line, Ring
from repro.util.bitops import parse_config

__all__ = ["main", "build_parser"]


def _make_space(args: argparse.Namespace) -> FiniteSpace:
    if args.space == "ring":
        return Ring(args.n, radius=args.radius)
    if args.space == "line":
        return Line(args.n, radius=args.radius)
    if args.space == "grid":
        return Grid2D(args.rows, args.cols, torus=not args.bounded)
    if args.space == "hypercube":
        return Hypercube(args.dimension)
    raise ValueError(f"unknown space {args.space!r}")


def _make_rule(args: argparse.Namespace) -> UpdateRule:
    if args.rule == "majority":
        return MajorityRule()
    if args.rule == "xor":
        return XorRule()
    if args.rule == "threshold":
        if args.threshold is None:
            raise SystemExit("--threshold is required with --rule threshold")
        return SimpleThresholdRule(args.threshold)
    if args.rule == "wolfram":
        if args.wolfram is None:
            raise SystemExit("--wolfram is required with --rule wolfram")
        return WolframRule(args.wolfram)
    raise ValueError(f"unknown rule {args.rule!r}")


def _make_automaton(args: argparse.Namespace, **backend) -> CellularAutomaton:
    """The automaton ``args`` describe; one the space cannot hold (a ring
    too small for its radius, a rule of another arity) is a one-line error."""
    try:
        return CellularAutomaton(
            _make_space(args),
            _make_rule(args),
            memory=not args.memoryless,
            **backend,
        )
    except ValueError as err:
        raise SystemExit(str(err)) from err


def _make_schedule(args: argparse.Namespace) -> UpdateSchedule:
    if args.schedule == "parallel":
        return Synchronous()
    if args.schedule == "sweep":
        return FixedPermutation()
    if args.schedule == "random-sweeps":
        return RandomPermutationSweeps(args.seed)
    if args.schedule == "random":
        return RandomSingleNode(args.seed)
    raise ValueError(f"unknown schedule {args.schedule!r}")


def _make_initial(args: argparse.Namespace, n: int) -> np.ndarray:
    if args.init == "random":
        return np.random.default_rng(args.seed).integers(0, 2, n).astype(np.uint8)
    if args.init == "alternating":
        return (np.arange(n) % 2).astype(np.uint8)
    if args.init == "one":
        state = np.zeros(n, dtype=np.uint8)
        state[n // 2] = 1
        return state
    state = parse_config(args.init)
    if state.size != n:
        raise SystemExit(f"--init has {state.size} bits, automaton has {n} nodes")
    return state


def _add_space_rule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", default="ring",
                   choices=["ring", "line", "grid", "hypercube"])
    p.add_argument("--n", type=int, default=16, help="nodes (ring/line)")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--bounded", action="store_true",
                   help="grid: fixed instead of toroidal boundary")
    p.add_argument("--dimension", type=int, default=3, help="hypercube dimension")
    _add_rule_args(p)


def _add_rule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", default="majority",
                   choices=["majority", "xor", "threshold", "wolfram"])
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--wolfram", type=int, default=None)
    p.add_argument("--memoryless", action="store_true",
                   help="exclude the node's own state from its window")


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("sweep engine")
    group.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                       help="whole-space sweep kernel (default: the "
                            "REPRO_BACKEND env var, then 'auto' — bitplane "
                            "when the rule lowers to bitwise ops, numpy "
                            "otherwise, process sharding for large spaces "
                            "on multi-CPU hosts)")
    group.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for the process backend "
                            "(default: REPRO_WORKERS, then the CPU count)")
    group.add_argument("--max-shard-retries", type=int, default=None,
                       metavar="N",
                       help="failed attempts before the process backend "
                            "quarantines a shard as poison and recomputes "
                            "it serially (default: "
                            "REPRO_MAX_SHARD_RETRIES, then 2)")


def _add_budget_args(p: argparse.ArgumentParser, resume: bool = False) -> None:
    group = p.add_argument_group("resource governance")
    group.add_argument("--budget-mem", default=None, metavar="SIZE",
                       help="memory ceiling for the enumerators, e.g. '256M' "
                            "or '2G' (deterministic charged-bytes accounting; "
                            "tripping yields an honest partial result, exit 3)")
    group.add_argument("--budget-wall", type=float, default=None,
                       metavar="SECONDS",
                       help="cooperative wall-clock deadline for the "
                            "enumerators")
    group.add_argument("--budget-states", type=int, default=None, metavar="N",
                       help="cap on enumerated states before truncating")
    if resume:
        group.add_argument("--resume", default=None, metavar="DIR",
                           help="frontier checkpoint directory: a truncated "
                                "build saves its explored prefix there and "
                                "the next run resumes from it disk-backed")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("observability")
    group.add_argument("--trace", action="store_true",
                       help="record tracing spans into the metrics registry")
    group.add_argument("--trace-memory", action="store_true",
                       help="with --trace: annotate spans with tracemalloc "
                            "deltas (slower)")
    group.add_argument("--artifacts-dir", default=None, metavar="DIR",
                       help="persist this run as manifest.json + events.jsonl "
                            "under DIR (implies --trace)")
    group.add_argument("--profile", default=None, metavar="FILE",
                       help="write a span profile of this invocation to FILE "
                            "(implies --trace)")
    group.add_argument("--profile-format", default="speedscope",
                       choices=["speedscope", "collapsed"],
                       help="profile format: speedscope JSON (open at "
                            "speedscope.app) or collapsed stacks for "
                            "flamegraph.pl (default: speedscope)")
    group.add_argument("--progress", action="store_true",
                       help="stream rate/ETA heartbeats to stderr (and to "
                            "progress.jsonl under --artifacts-dir), throttled "
                            "to >= 1s apart")
    group.add_argument("--progress-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="minimum seconds between heartbeats (floored "
                            "at 1)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ca",
        description=(
            "Concurrency vs. sequential interleavings in 1-D threshold "
            "cellular automata (Tosic & Agha, IPPS 2004) — reproduction CLI"
        ),
    )
    # A meter's total mirrors what its command charges to the budget (run
    # advances per experiment instead), so the ETA means something; a
    # command with no meter of its own is labelled by its name alone.
    parser.set_defaults(progress_label=lambda a: a.command,
                        progress_total=lambda a: None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the experiment registry")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run experiments by id",
        description=(
            "Run experiments through the fault-tolerant harness.  Exit "
            "code: 0 all hold, 1 some fail, 2 error/timeout/usage."
        ),
    )
    p_run.add_argument("ids", nargs="+",
                       help="experiment ids (E1..E22) or 'all'")
    p_run.add_argument("--json", action="store_true", dest="as_json")
    res = p_run.add_argument_group("resilience")
    res.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                     help="per-experiment wall-clock budget; exceeding it "
                          "records status 'timeout' instead of hanging")
    res.add_argument("--retries", type=int, default=0, metavar="N",
                     help="retry a failing experiment up to N times with "
                          "exponential backoff + jitter")
    res.add_argument("--isolate", action="store_true",
                     help="run each experiment in a subprocess so a "
                          "segfault/OOM cannot take down the batch")
    res.add_argument("--resume", default=None, metavar="DIR",
                     help="journal progress under DIR (journal.jsonl + "
                          "checkpoint.json) and skip experiments already "
                          "completed there")
    p_run.set_defaults(
        handler=_cmd_run,
        progress_total=lambda a: len({i.upper() for i in _run_ids(a)}),
    )

    p_sim = sub.add_parser("simulate", help="print a space-time diagram")
    _add_space_rule_args(p_sim)
    p_sim.add_argument("--schedule", default="parallel",
                       choices=["parallel", "sweep", "random-sweeps", "random"])
    p_sim.add_argument("--steps", type=int, default=20)
    p_sim.add_argument("--init", default="random",
                       help="'random', 'alternating', 'one', or a 0/1 string")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_ps = sub.add_parser("phase-space", help="analyse a full phase space")
    _add_space_rule_args(p_ps)
    p_ps.add_argument("--mode", default="parallel",
                      choices=["parallel", "sequential"])
    p_ps.add_argument("--dot", default=None, metavar="FILE",
                      help="write a Graphviz DOT rendering to FILE")
    _add_backend_args(p_ps)
    _add_budget_args(p_ps, resume=True)
    p_ps.set_defaults(
        handler=_cmd_phase_space,
        progress_label=lambda a: f"phase-space n={_space_nodes(a)}",
        progress_total=lambda a: (1 << _space_nodes(a)) * (
            _space_nodes(a) if a.mode == "sequential" else 1
        ),
    )

    p_census = sub.add_parser(
        "census", help="phase-space census of MAJORITY rings (E20)"
    )
    p_census.add_argument("--min-n", type=int, default=3)
    p_census.add_argument("--max-n", type=int, default=12)
    p_census.add_argument("--n", type=int, default=None,
                          help="census a single ring size (attractor-direct "
                               "by default: no materialized phase space, so "
                               "n may exceed the full-table ceiling)")
    p_census.add_argument("--mode", default="auto",
                          choices=["auto", "full", "attractor"],
                          help="'full' materializes each phase space (GoE / "
                               "transient columns, n <= 18); 'attractor' "
                               "counts fixed points and cycles directly via "
                               "the SWAR kernel over the dihedral quotient; "
                               "'auto' picks attractor when --n is given")
    _add_backend_args(p_census)
    _add_budget_args(p_census, resume=True)
    p_census.set_defaults(
        handler=_cmd_census,
        progress_label=lambda a: (
            f"census n={a.n}" if a.n is not None
            else f"census n={a.min_n}..{a.max_n}"
        ),
        progress_total=lambda a: sum(1 << k for k in _census_sizes(a)),
    )

    p_mc = sub.add_parser(
        "mc", help="streaming Monte-Carlo estimation (n up to 10**6)",
        description=(
            "Seeded streaming Monte-Carlo over homogeneous ring automata: "
            "configurations are sampled in 64-lane SWAR batches, each "
            "trajectory is classified as fixed point / 2-cycle / "
            "undecided, and incidence rates carry Wilson intervals "
            "(convergence time and energy descent carry exact-moment "
            "means).  Exit codes: 0 done (artifact validated when "
            "--artifact is given), 3 budget-truncated partial (frontier "
            "saved under --resume)."
        ),
    )
    p_mc.add_argument("--n", type=int, default=1000, help="ring size")
    p_mc.add_argument("--radius", type=int, default=1)
    _add_rule_args(p_mc)
    p_mc.add_argument("--schedule", default="parallel",
                      choices=["parallel", "sweep"],
                      help="synchronous macro steps, or one full "
                           "identity-order sequential sweep per macro step")
    p_mc.add_argument("--samples", type=int, default=1024,
                      help="sampled configurations (rounded up to whole "
                           "SWAR batches)")
    p_mc.add_argument("--horizon", type=int, default=None, metavar="STEPS",
                      help="macro-step cap per trajectory before a lane "
                           "counts as undecided (default 4n + 64)")
    p_mc.add_argument("--family", default="uniform",
                      choices=["uniform", "density", "perturb"],
                      help="sampling family: iid uniform bits, iid "
                           "Bernoulli(--density) bits, or --flips random "
                           "flips of the single-seed configuration")
    p_mc.add_argument("--density", type=float, default=0.5,
                      help="ones density for --family density")
    p_mc.add_argument("--flips", type=int, default=1,
                      help="random flips for --family perturb")
    p_mc.add_argument("--seed", type=int, default=0,
                      help="sample-stream seed (the same stream on every "
                           "machine, serial or sharded)")
    p_mc.add_argument("--artifact", default=None, metavar="FILE",
                      help="durably write the repro-mc/1 estimate artifact "
                           "to FILE and validate it against its contract")
    _add_backend_args(p_mc)
    _add_budget_args(p_mc, resume=True)
    p_mc.set_defaults(handler=_cmd_mc,
                      progress_label=lambda a: f"mc n={a.n}",
                      progress_total=_mc_samples)

    p_survey = sub.add_parser(
        "survey", help="classify all 256 elementary rules (E21)"
    )
    p_survey.add_argument("--max-ring", type=int, default=7,
                          help="largest ring size checked per rule")
    p_survey.add_argument("--full-table", action="store_true",
                          help="print one line per rule, not just the summary")
    _add_backend_args(p_survey)
    _add_budget_args(p_survey)
    p_survey.set_defaults(handler=_cmd_survey)

    p_report = sub.add_parser(
        "report", help="run every experiment and emit a markdown report"
    )
    p_report.add_argument("--output", default=None, metavar="FILE",
                          help="write to FILE instead of stdout")
    p_report.set_defaults(handler=_cmd_report)

    p_stats = sub.add_parser(
        "stats", help="pretty-print the obs metrics snapshot"
    )
    p_stats.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the raw snapshot as JSON "
                              "(same as --format json)")
    p_stats.add_argument("--format", default=None, dest="stats_format",
                         choices=["text", "json", "prom"],
                         help="output format: human text (default), raw "
                              "JSON, or Prometheus textfile exposition")
    p_stats.set_defaults(handler=_cmd_stats)

    p_runs = sub.add_parser(
        "runs", help="query the cross-run sqlite index",
        description=(
            "Cross-run observability: ingest every artifact dialect the "
            "library emits (obs manifests, harness journals, budget "
            "frontiers, BENCH_*.json reports, qa findings) into one "
            "sqlite index and query it."
        ),
    )
    p_runs.set_defaults(handler=_cmd_runs)
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    r_index = runs_sub.add_parser(
        "index", help="ingest run directories / artifact files"
    )
    r_index.add_argument("paths", nargs="+", metavar="PATH",
                         help="run directories (walked recursively) or "
                              "artifact files (BENCH_*.json, finding-*.json, "
                              "manifest.json, ...)")
    r_list = runs_sub.add_parser("list", help="list indexed runs")
    r_list.add_argument("--kind", default=None,
                        choices=["manifest", "harness", "frontier", "bench",
                                 "finding"],
                        help="only runs of this artifact kind")
    r_show = runs_sub.add_parser("show", help="show one run in detail")
    r_show.add_argument("run", metavar="RUN",
                        help="run id (or unique prefix)")
    r_gc = runs_sub.add_parser(
        "gc", help="drop runs whose artifacts no longer exist on disk"
    )
    r_gc.add_argument("--keep", type=int, default=None, metavar="N",
                      help="additionally keep only the N most recently "
                           "indexed runs per kind")
    r_compare = runs_sub.add_parser(
        "compare", help="diff two runs' timer medians (exit 1 on regression)"
    )
    r_compare.add_argument("baseline", metavar="BASELINE",
                           help="baseline run id (or unique prefix)")
    r_compare.add_argument("current", metavar="CURRENT",
                           help="current run id (or unique prefix)")
    r_compare.add_argument("--tolerance", type=float, default=2.0,
                           help="fail when current median > tolerance * "
                                "baseline (default 2.0)")
    for rp in (r_index, r_list, r_show, r_gc, r_compare):
        rp.add_argument("--db", default=None, metavar="FILE",
                        help="index database (default: $REPRO_RUNS_DB, then "
                             "./runs_index.sqlite)")

    p_doctor = sub.add_parser(
        "doctor", help="validate, repair and quarantine a run directory",
        description=(
            "Classify every artifact under RUN_DIR against its versioned "
            "contract as valid / truncated-recoverable / corrupt, repair "
            "the recoverable (drop torn JSONL tails, regenerate "
            "checkpoint.json from the journal, rebuild "
            "runs_index.sqlite, refresh stale sidecars), quarantine the "
            "corrupt, and write doctor_report.json.  Exit codes: 0 "
            "consistent as found, 1 repaired into consistency, 2 "
            "corruption remains."
        ),
    )
    p_doctor.add_argument("run_dir", metavar="RUN_DIR",
                          help="run directory to triage (walked recursively)")
    p_doctor.add_argument("--no-repair", action="store_true",
                          help="classify and report only; change nothing")
    p_doctor.add_argument("--json", action="store_true", dest="doctor_json",
                          help="emit the machine-readable report on stdout")
    p_doctor.set_defaults(handler=_cmd_doctor)

    p_tail = sub.add_parser(
        "tail", help="follow a run's progress.jsonl heartbeats"
    )
    p_tail.add_argument("run_dir", metavar="RUN_DIR",
                        help="run directory written with --artifacts-dir")
    p_tail.add_argument("-f", "--follow", action="store_true",
                        help="keep polling for new heartbeats until the "
                             "final one (like tail -f)")
    p_tail.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS", dest="tail_timeout",
                        help="with --follow: give up after SECONDS")
    p_tail.set_defaults(handler=_cmd_tail)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing + invariant oracles (qa)",
        description=(
            "Seeded, deterministic fuzzing: random CA instances are run "
            "through every applicable sweep backend and diffed against "
            "the scalar oracle and the paper's theorems; failures shrink "
            "to minimal replayable findings.  Exit code: 0 clean, 1 "
            "findings (or a missed mutant under --self-test), 2 usage, "
            "3 budget-truncated."
        ),
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="master seed; case c of seed s is the same "
                             "instance on every machine")
    p_fuzz.add_argument("--cases", type=int, default=200, metavar="N",
                        help="number of fuzz cases to run (default 200)")
    p_fuzz.add_argument("--backends", default="auto", metavar="LIST",
                        help="comma-separated sweep backends to diff "
                             "(default 'auto': every applicable serial "
                             "kernel — numpy, bitplane — plus "
                             "process sharding on hosts with >= 2 CPUs)")
    p_fuzz.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="greedily minimise failing instances "
                             "(--no-shrink keeps the raw counterexample)")
    p_fuzz.add_argument("--max-findings", type=int, default=8, metavar="N",
                        help="stop after N findings (default 8)")
    p_fuzz.add_argument("--findings-dir", default=None, metavar="DIR",
                        help="write each finding.json under DIR (default: "
                             "<artifacts-dir>/findings when --artifacts-dir "
                             "is given)")
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="inject each known-bad mutant kernel and "
                             "require the oracles to catch it and shrink "
                             "the counterexample to n <= 6")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="replay a finding.json instead of fuzzing: "
                             "exit 0 if it no longer reproduces, 1 if it "
                             "still fails")
    _add_budget_args(p_fuzz)
    p_fuzz.set_defaults(
        handler=_cmd_fuzz,
        progress_label=lambda a: f"fuzz seed={a.seed}",
        progress_total=lambda a: None if a.replay or a.self_test else a.cases,
    )

    for p in (p_list, p_run, p_sim, p_ps, p_census, p_mc, p_survey,
              p_report, p_stats, p_fuzz, r_index, r_list, r_show, r_gc,
              r_compare, p_tail):
        _add_obs_args(p)

    return parser


#: Numeric flag bounds keyed by argparse dest: ``(flag, allowed,
#: predicate)``.  One entry covers every subcommand declaring the dest.
_BOUNDS: dict[str, tuple[str, str, Callable[[float], bool]]] = {
    "n": ("--n", ">= 1", lambda v: v >= 1),
    "radius": ("--radius", ">= 1", lambda v: v >= 1),
    "rows": ("--rows", ">= 1", lambda v: v >= 1),
    "cols": ("--cols", ">= 1", lambda v: v >= 1),
    "dimension": ("--dimension", ">= 1", lambda v: v >= 1),
    "steps": ("--steps", ">= 0", lambda v: v >= 0),
    "retries": ("--retries", ">= 0", lambda v: v >= 0),
    "workers": ("--workers", ">= 1", lambda v: v >= 1),
    "max_shard_retries": ("--max-shard-retries", ">= 1", lambda v: v >= 1),
    "wolfram": ("--wolfram", "an elementary rule number in 0..255",
                lambda v: 0 <= v <= 255),
    "timeout": ("--timeout", "positive", lambda v: v > 0),
    "cases": ("--cases", ">= 1", lambda v: v >= 1),
    "samples": ("--samples", ">= 1", lambda v: v >= 1),
    "horizon": ("--horizon", ">= 1", lambda v: v >= 1),
    "density": ("--density", "strictly between 0 and 1", lambda v: 0 < v < 1),
    "flips": ("--flips", ">= 0", lambda v: v >= 0),
    "max_findings": ("--max-findings", ">= 1", lambda v: v >= 1),
    "tolerance": ("--tolerance", "> 1.0", lambda v: v > 1.0),
    "keep": ("--keep", ">= 1", lambda v: v >= 1),
    "progress_interval": ("--progress-interval", "positive", lambda v: v > 0),
    "tail_timeout": ("--timeout", "positive", lambda v: v > 0),
    "budget_wall": ("--budget-wall", "positive", lambda v: v > 0),
    "budget_states": ("--budget-states", ">= 1", lambda v: v >= 1),
}


def _validate_args(args: argparse.Namespace) -> None:
    """Reject out-of-domain numeric flags at the boundary.

    Catching these here turns deep numpy/space-construction tracebacks
    into one-line usage errors.
    """
    for dest, (flag, allowed, ok) in _BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            shown = f"{value:g}" if isinstance(value, float) else value
            raise SystemExit(f"{flag} must be {allowed}, got {shown}")
    if hasattr(args, "workers") and args.workers is None:
        # No explicit count: the backend will consult REPRO_WORKERS —
        # reject a malformed value here as a usage error, not a traceback.
        from repro.perf.process import default_workers

        try:
            default_workers()
        except ValueError as err:
            raise SystemExit(str(err)) from err
    if getattr(args, "backend", None) is None and hasattr(args, "backend"):
        # Same for a malformed REPRO_BACKEND when no --backend is given.
        env = os.environ.get(BACKEND_ENV, "").strip()
        if env:
            try:
                _check_name(env)
            except ValueError as err:
                raise SystemExit(f"{BACKEND_ENV}: {err}") from err
    if hasattr(args, "max_shard_retries"):
        from repro.perf.supervise import (
            MAX_SHARD_RETRIES_ENV,
            default_max_shard_retries,
        )

        if args.max_shard_retries is not None:
            # Threaded to the backend via the env var so every construction
            # path (CellularAutomaton, resolve_backend, qa) sees it.
            os.environ[MAX_SHARD_RETRIES_ENV] = str(args.max_shard_retries)
        else:
            try:
                default_max_shard_retries()
            except ValueError as err:
                raise SystemExit(str(err)) from err
    backends = getattr(args, "backends", None)
    if backends is not None:
        for name in backends.split(","):
            if name.strip() and name.strip() not in BACKEND_NAMES:
                raise SystemExit(
                    f"--backends: unknown sweep backend {name.strip()!r} "
                    f"(choose from {', '.join(BACKEND_NAMES)})"
                )
    mem = getattr(args, "budget_mem", None)
    if mem is not None:
        try:
            args.budget_mem = parse_size(mem)
        except ValueError as err:
            raise SystemExit(f"--budget-mem: {err}") from err


def _cmd_list(args: argparse.Namespace, out) -> int:
    width = max(len(e.title) for e in EXPERIMENTS.values())
    for exp in EXPERIMENTS.values():
        print(f"{exp.id:>4}  {exp.title:<{width}}  [{exp.paper_ref}]", file=out)
    return 0


def _run_ids(args: argparse.Namespace) -> list[str]:
    """The experiment ids ``run`` was given, with ``all`` expanded."""
    if any(i.lower() == "all" for i in args.ids):
        return list(EXPERIMENTS)
    return args.ids


def _cmd_run(args: argparse.Namespace, out) -> int:
    from repro.harness import (
        Checkpoint,
        ExperimentRunner,
        RunnerConfig,
        batch_exit_code,
    )

    try:
        ids = [get_experiment(i).id for i in _run_ids(args)]
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2
    checkpoint = Checkpoint(args.resume) if args.resume else None
    runner = ExperimentRunner(
        RunnerConfig(
            timeout_s=args.timeout,
            retries=args.retries,
            isolate=args.isolate,
        ),
        checkpoint=checkpoint,
        token=getattr(args, "_cancel_token", None),
    )
    reporter = getattr(args, "_progress", None)
    on_result = None
    if reporter is not None:
        on_result = lambda eid, res: reporter.update(1)  # noqa: E731
    try:
        results = runner.run_many(ids, on_result=on_result)
    finally:
        if checkpoint is not None:
            checkpoint.close()
    if args.as_json:
        json.dump(results, out, indent=2, default=str)
        print(file=out)
    else:
        for exp_id, res in results.items():
            status = res.get("status", "ok")
            if status == "timeout":
                verdict, note = "TIMEOUT", f"  (no result in {res['timeout_s']:g}s)"
            elif status == "budget":
                verdict = "BUDGET"
                note = f"  ({res.get('truncation')})"
            elif status == "error":
                err = res.get("error") or {}
                verdict = "ERROR"
                note = f"  ({err.get('type')}: {err.get('message')})"
            else:
                verdict = "HOLDS" if res.get("holds") else "FAILS"
                note = "  (resumed)" if res.get("resumed") else ""
            print(
                f"{exp_id:>4}  {verdict}  {EXPERIMENTS[exp_id].title}{note}",
                file=out,
            )
    return batch_exit_code(results)


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    ca = _make_automaton(args)
    state = _make_initial(args, ca.n)
    schedule = _make_schedule(args)
    traj = sequential_trajectory(ca, state, schedule, args.steps)
    print(ca.describe(), file=out)
    print(f"schedule: {schedule.describe()}", file=out)
    print(render_spacetime(traj, ruler=True), file=out)
    return 0


def _load_resume(resume_dir: str | None, out) -> dict | None:
    """The frontier saved in ``resume_dir`` (announced on ``out``), or None."""
    try:
        frontier = load_frontier(resume_dir) if resume_dir else None
    except ValueError as err:  # a frontier no build resumes from
        raise SystemExit(str(err)) from err
    if frontier is not None:
        print(
            f"resuming from {resume_dir} "
            f"(previously explored {frontier.get('explored', 0)} configs)",
            file=out,
        )
    return frontier


def _truncated(partial, resume_dir: str | None, out) -> int:
    """Report a budget-truncated partial, checkpoint its frontier; exit 3."""
    print(f"  {partial.describe()}", file=out)
    stats = partial.stats or {}
    for key, value in stats.items():
        print(f"  {key}: {value}", file=out)
    if partial.frontier is not None and resume_dir:
        save_frontier(resume_dir, partial)
        need = stats.get("analysis_bytes")
        if need is None:
            print(
                f"  frontier saved — rerun with --resume {resume_dir} to continue",
                file=out,
            )
        else:
            # The sweep is complete, and a resume charges its disk-backed
            # array nothing: only a ceiling that holds the analysis finishes.
            print(
                f"  frontier saved — the sweep is complete; the analysis needs "
                f"{format_bytes(need)}, so rerun with --resume {resume_dir} "
                f"--budget-mem {-(-need // (1 << 20))}M or more to finish",
                file=out,
            )
    elif partial.frontier is not None:
        print(
            "  (pass --resume DIR to checkpoint the frontier for later)",
            file=out,
        )
    return 3


def _cmd_phase_space(args: argparse.Namespace, out) -> int:
    from repro.core.budget import ambient_budget
    from repro.core.nondet import build_nondet_phase_space
    from repro.core.phase_space import build_phase_space
    from repro.util.validation import check_memory_budget

    ca = _make_automaton(args, backend=args.backend, workers=args.workers)
    budget = ambient_budget()
    resume_dir = getattr(args, "resume", None)
    if ca.n > MAX_SWEEP_N:
        raise SystemExit(
            f"phase space over 2**{ca.n} configurations is too large even "
            f"for a governed build (max --n {MAX_SWEEP_N})"
        )
    if ca.n > 20 and budget.mem_bytes is None and not resume_dir:
        raise SystemExit(
            f"phase space over 2**{ca.n} configurations is too large; pass "
            f"--budget-mem SIZE for a governed (possibly partial) build, or "
            f"--resume DIR to checkpoint and resume the frontier"
        )
    try:
        check_memory_budget(ca.n, budget.mem_bytes)
    except ValueError as err:
        raise SystemExit(str(err)) from err
    frontier = _load_resume(resume_dir, out)
    print(ca.describe(), file=out)
    build = (
        build_phase_space if args.mode == "parallel" else build_nondet_phase_space
    )
    try:
        partial = build(ca, frontier=frontier)
    except ValueError as err:  # frontier/mode mismatch, oversized space
        raise SystemExit(str(err)) from err
    if not partial.complete:
        return _truncated(partial, resume_dir, out)
    print(f"  {partial.describe()}", file=out)
    for key, value in partial.value.summary().items():
        print(f"  {key}: {value}", file=out)
    if args.dot:
        render = (
            phase_space_dot if args.mode == "parallel" else nondet_phase_space_dot
        )
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(render(partial.value, title=ca.describe()))
        print(f"wrote {args.dot}", file=out)
    return 0


def _census_sizes(args: argparse.Namespace) -> range:
    """Ring sizes a census covers: ``--n`` alone, else ``--min-n..--max-n``."""
    if args.n is not None:
        return range(args.n, args.n + 1)
    return range(args.min_n, args.max_n + 1)


def _census_attractor(args: argparse.Namespace, out) -> int:
    """Attractor-direct census: exact counts with no materialized space."""
    from repro.analysis.census import build_attractor_census
    from repro.perf.base import MAX_ATTRACTOR_N

    sizes = _census_sizes(args)
    if not sizes or min(sizes) < 3:
        raise SystemExit("census needs ring sizes >= 3")
    if max(sizes) > MAX_ATTRACTOR_N:
        raise SystemExit(
            f"attractor census supports n up to {MAX_ATTRACTOR_N}, "
            f"got {max(sizes)}"
        )
    resume_dir = args.resume
    if resume_dir and len(sizes) != 1:
        raise SystemExit("census --resume needs a single size (--n N)")
    frontier = _load_resume(resume_dir, out)
    print(f"{'n':>3} {'configs':>12} {'reps':>10} {'FPs':>8} "
          f"{'CCs':>5} {'2CCs':>5} {'maxLen':>6}  quotient", file=out)
    for n in sizes:
        ca = CellularAutomaton(
            Ring(n),
            MajorityRule(),
            memory=True,
            backend=args.backend,
            workers=args.workers,
        )
        try:
            partial = build_attractor_census(ca, frontier=frontier)
        except ValueError as err:  # frontier/run mismatch
            raise SystemExit(str(err)) from err
        frontier = None
        if not partial.complete:
            return _truncated(partial, resume_dir, out)
        r = partial.value
        print(
            f"{r.n:>3} {r.configurations:>12} {r.orbit_reps:>10} "
            f"{r.fixed_points:>8} {r.cycle_configs:>5} "
            f"{r.two_cycle_configs:>5} {r.max_cycle_len:>6}  {r.quotient}",
            file=out,
        )
    return 0


def _cmd_census(args: argparse.Namespace, out) -> int:
    from repro.analysis.census import find_linear_recurrence, majority_ring_census

    mode = args.mode
    if mode == "auto":
        mode = "attractor" if args.n is not None else "full"
    if mode == "attractor":
        return _census_attractor(args, out)
    if args.resume:
        raise SystemExit("census --resume needs attractor mode (--n N, "
                         "not --mode full)")
    sizes = _census_sizes(args)
    if not sizes or sizes[0] < 3 or sizes[-1] > 18:
        raise SystemExit(
            "census --mode full needs 3 <= min-n <= max-n <= 18 "
            "(attractor-direct mode reaches larger rings)"
        )
    rows = majority_ring_census(
        sizes, backend=args.backend, workers=args.workers
    )
    print(f"{'n':>3} {'configs':>8} {'FPs':>6} {'CCs':>4} {'GoE':>7} "
          f"{'GoE%':>6} {'maxT':>5}", file=out)
    for r in rows:
        print(
            f"{r.n:>3} {r.configurations:>8} {r.fixed_points:>6} "
            f"{r.cycle_configs:>4} {r.gardens_of_eden:>7} "
            f"{r.garden_fraction:>6.1%} {r.max_transient:>5}",
            file=out,
        )
    rec = find_linear_recurrence([r.fixed_points for r in rows])
    if rec is not None:
        terms = " + ".join(
            f"{c}*a(n-{k + 1})" for k, c in enumerate(rec[1]) if c != 0
        )
        print(f"fixed-point recurrence: a(n) = {terms}", file=out)
    return 0


def _mc_samples(args: argparse.Namespace) -> int:
    """Samples ``mc`` will draw: the request rounded up to whole batches."""
    from repro.mc import lanes_for, round_samples

    return round_samples(args.samples, lanes_for(args.n))


def _cmd_mc(args: argparse.Namespace, out) -> int:
    """Streaming Monte-Carlo estimation over a seeded sample stream."""
    from repro.contracts.dialects import McContract
    from repro.mc import McKernel, build_mc_estimate, write_mc_artifact

    if args.n < 2 * args.radius + 1:
        raise SystemExit(
            f"--n must be >= 2*radius + 1 = {2 * args.radius + 1}, "
            f"got {args.n}"
        )
    rule = _make_rule(args)
    kernel_kwargs = dict(
        schedule=args.schedule,
        family=args.family,
        seed=args.seed,
        horizon=args.horizon,
        density=args.density,
        flips=args.flips,
    )
    backend = None
    if args.backend == "process":
        # Explicit process sharding splits the sample stream over the
        # supervised worker pool.  Every other backend choice runs the
        # kernel's serial loop — it is already 64-way SWAR-parallel, so
        # no automaton (or backend) is constructed at all.
        ca = CellularAutomaton(
            Ring(args.n, radius=args.radius),
            rule,
            memory=not args.memoryless,
            backend="process",
            workers=args.workers,
        )
        kernel = McKernel.from_automaton(ca, **kernel_kwargs)
        backend = ca.backend
    else:
        kernel = McKernel(
            rule,
            args.n,
            radius=args.radius,
            memory=not args.memoryless,
            **kernel_kwargs,
        )
    resume_dir = getattr(args, "resume", None)
    frontier = _load_resume(resume_dir, out)
    print(kernel.describe(), file=out)
    try:
        partial = build_mc_estimate(
            kernel, args.samples, frontier=frontier, backend=backend
        )
    except ValueError as err:  # frontier/run mismatch
        raise SystemExit(str(err)) from err
    if not partial.complete:
        return _truncated(partial, resume_dir, out)
    payload = partial.value
    est = payload["estimates"]
    print(
        f"  samples: {payload['samples']} (lanes={payload['lanes']}, "
        f"family={payload['family']}, seed={payload['seed']}, "
        f"horizon={payload['horizon']})",
        file=out,
    )
    for label, key in (
        ("fixed-point", "fixed_point"),
        ("2-cycle", "two_cycle"),
        ("undecided", "undecided"),
    ):
        e = est[key]
        lo99, hi99 = e["ci99"]
        print(
            f"  {label:<12} rate {e['rate']:.6f}  "
            f"ci99 [{lo99:.6f}, {hi99:.6f}]  ({e['count']} samples)",
            file=out,
        )
    conv = est["convergence_time"]
    if conv["count"]:
        clo, chi = conv["ci95"]
        print(
            f"  convergence time: mean {conv['mean']:.3f} steps  "
            f"ci95 [{clo:.3f}, {chi:.3f}]  max {conv['max']}",
            file=out,
        )
    energy = est.get("energy_descent")
    if energy is not None and energy["count"]:
        elo, ehi = energy["ci95"]
        print(
            f"  energy descent: mean {energy['mean']:.3f}  "
            f"ci95 [{elo:.3f}, {ehi:.3f}]",
            file=out,
        )
    if args.artifact:
        write_mc_artifact(args.artifact, payload)
        check = McContract().validate(args.artifact)
        if check.status != "valid":
            print(
                f"artifact {args.artifact} failed its contract: "
                f"{check.detail}",
                file=sys.stderr,
            )
            return 2
        print(f"wrote {args.artifact} (repro-mc/1, contract-valid)", file=out)
    return 0


def _cmd_survey(args: argparse.Namespace, out) -> int:
    from repro.analysis.elementary import survey_all_rules, survey_summary

    sizes = tuple(range(5, max(6, args.max_ring + 1)))
    profiles = survey_all_rules(sizes, args.backend, args.workers)
    if args.full_table:
        print(f"{'rule':>5} {'mono':>5} {'sym':>4} {'thr':>4} "
              f"{'par-cycles':>10} {'seq-cycles':>10}", file=out)
        for p in profiles:
            print(
                f"{p.number:>5} {str(p.monotone):>5} {str(p.symmetric):>4} "
                f"{str(p.linear_threshold):>4} "
                f"{str(p.parallel_cycles_somewhere):>10} "
                f"{str(p.sequential_cycles_somewhere):>10}",
                file=out,
            )
    for key, value in survey_summary(profiles).items():
        print(f"  {key}: {value}", file=out)
    return 0


def _cmd_stats(args: argparse.Namespace, out) -> int:
    """Pretty-print a metrics snapshot (live registry or a run directory)."""
    source = "in-process registry"
    labels: dict[str, object] = {}
    if args.artifacts_dir:
        try:
            manifest = obs.load_manifest(args.artifacts_dir)
        except (OSError, json.JSONDecodeError) as err:
            raise SystemExit(
                f"cannot read run directory {args.artifacts_dir!r}: {err}"
            ) from err
        snapshot = manifest.get("metrics") or {}
        labels = {
            "run_id": manifest.get("run_id"),
            "command": manifest.get("command") or "run",
        }
        source = (
            f"run {manifest.get('run_id')} "
            f"(command: {manifest.get('command')}, "
            f"started: {manifest.get('started')})"
        )
        if not manifest.get("finalized", True):
            source += " [NOT FINALIZED — run crashed or is still going]"
    else:
        snapshot = obs.REGISTRY.snapshot()
    fmt = getattr(args, "stats_format", None) or "text"
    if args.as_json:
        fmt = "json"
    if fmt == "json":
        json.dump(snapshot, out, indent=2, default=str)
        print(file=out)
        return 0
    if fmt == "prom":
        out.write(obs.render_prometheus(snapshot, labels=labels or None))
        return 0
    print(f"metrics snapshot — {source}", file=out)
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    timers = snapshot.get("timers") or {}
    if not (counters or gauges or timers):
        print("  (empty — run something with --trace first)", file=out)
        return 0
    if counters:
        print("counters:", file=out)
        for name, value in counters.items():
            print(f"  {name:<40} {value}", file=out)
    if gauges:
        print("gauges:", file=out)
        for name, value in gauges.items():
            print(f"  {name:<40} {value:g}", file=out)
    if timers:
        print("timers:", file=out)
        print(f"  {'name':<40} {'count':>6} {'total':>12} "
              f"{'mean':>12} {'last':>12} {'p50':>12}", file=out)
        for name, stats in timers.items():
            p50 = stats.get("p50_s")
            p50_txt = f"{p50 * 1e3:>10.3f}ms" if p50 is not None else f"{'-':>12}"
            print(
                f"  {name:<40} {stats['count']:>6} "
                f"{stats['total_s'] * 1e3:>10.3f}ms "
                f"{stats['mean_s'] * 1e3:>10.3f}ms "
                f"{stats['last_s'] * 1e3:>10.3f}ms "
                f"{p50_txt}",
                file=out,
            )
    return 0


def _cmd_fuzz(args: argparse.Namespace, out) -> int:
    from repro import qa
    from repro.qa.fuzz import SELF_TEST_MAX_N

    backends = None
    if args.backends and args.backends != "auto":
        backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    elif (os.cpu_count() or 1) >= 2:
        # 'auto' with real parallelism available: also diff the sharded
        # fork + shared-memory merge path against the serial kernels.
        from repro.qa.differential import AUTO_BACKENDS

        backends = [*AUTO_BACKENDS, "process"]
    findings_dir = args.findings_dir
    if findings_dir is None and getattr(args, "artifacts_dir", None):
        findings_dir = os.path.join(args.artifacts_dir, "findings")

    if args.replay:
        try:
            violation = qa.replay_finding(args.replay, backends=backends)
        except (OSError, ValueError, KeyError) as err:
            raise SystemExit(f"cannot replay {args.replay!r}: {err}") from err
        if violation is None:
            print(f"{args.replay}: check passes — finding no longer "
                  f"reproduces", file=out)
            return 0
        print(f"{args.replay}: still failing", file=out)
        print(json.dumps(violation, indent=2, sort_keys=True, default=str),
              file=out)
        return 1

    if args.self_test:
        results = qa.run_self_test(
            seed=args.seed, cases=args.cases, backends=backends,
            findings_dir=findings_dir,
        )
        all_ok = True
        for name, res in results.items():
            if res["caught"] and res["shrunk_n"] <= SELF_TEST_MAX_N:
                print(f"  {name}: caught by {res['check']} after "
                      f"{res['cases_run']} case(s), shrunk to "
                      f"n={res['shrunk_n']}", file=out)
            elif res["caught"]:
                all_ok = False
                print(f"  {name}: caught by {res['check']} but only "
                      f"shrunk to n={res['shrunk_n']} "
                      f"(want <= {SELF_TEST_MAX_N})", file=out)
            else:
                all_ok = False
                print(f"  {name}: MISSED after {res['cases_run']} case(s)",
                      file=out)
        print(f"self-test: {len(results)} mutant kernels, "
              f"{'all caught' if all_ok else 'ORACLE BLIND SPOT'}", file=out)
        return 0 if all_ok else 1

    report = qa.run_fuzz(
        seed=args.seed, cases=args.cases, backends=backends,
        shrink=args.shrink, max_findings=args.max_findings,
        findings_dir=findings_dir,
    )
    names = ",".join(report.backends_seen) or "none"
    print(f"fuzz seed={report.seed}: {report.cases_run}/"
          f"{report.cases_requested} cases, backends [{names}], "
          f"{len(report.findings)} finding(s)", file=out)
    for finding in report.findings:
        spec = qa.InstanceSpec.from_dict(finding.spec)
        where = ""
        if findings_dir is not None:
            where = f" -> {os.path.join(findings_dir, finding.name + '.json')}"
        print(f"  {finding.check}: {spec.describe()} "
              f"[digest {finding.digest}]{where}", file=out)
    if report.findings:
        return 1
    if report.truncated is not None:
        print(f"budget exhausted — {report.truncated}", file=sys.stderr)
        return 3
    return 0


def _runs_db_path(args: argparse.Namespace) -> str:
    return (
        getattr(args, "db", None)
        or os.environ.get("REPRO_RUNS_DB", "").strip()
        or "runs_index.sqlite"
    )


def _cmd_doctor(args: argparse.Namespace, out) -> int:
    from repro.contracts import run_doctor

    run_dir = args.run_dir
    if not os.path.isdir(run_dir):
        raise SystemExit(f"no such run directory: {run_dir!r}")
    report = run_doctor(run_dir, repair=not args.no_repair)
    if args.doctor_json:
        json.dump(report, out, indent=2)
        print(file=out)
        return report["exit_code"]
    summary = report["summary"]
    print(
        f"doctor {run_dir}: {summary['valid']} valid, "
        f"{summary['truncated-recoverable']} truncated-recoverable, "
        f"{summary['corrupt']} corrupt",
        file=out,
    )
    for check in report["files"]:
        if check["status"] == "valid" and "repair" not in check:
            continue
        print(f"  [{check['status']}] {check['path']}: {check['detail']}",
              file=out)
    for repair_rec in report["repairs"]:
        print(f"  repaired ({repair_rec['action']}) {repair_rec['path']}: "
              f"{repair_rec['detail']}", file=out)
    for check in report["unresolved"]:
        print(f"  UNRESOLVED {check['path']}: {check['detail']}",
              file=out)
    verdict = {0: "consistent", 1: "repaired" if not args.no_repair
               else "repairable", 2: "corrupt"}[report["exit_code"]]
    print(f"verdict: {verdict} (report: "
          f"{os.path.join(run_dir, 'doctor_report.json')})", file=out)
    return report["exit_code"]


def _cmd_runs(args: argparse.Namespace, out) -> int:
    from repro.obs.index import compare_medians, open_with_recovery

    db = _runs_db_path(args)
    action = args.runs_command
    if action != "index" and not os.path.exists(db):
        raise SystemExit(
            f"no run index at {db!r} — build one with 'repro runs index DIR'"
        )
    # A corrupt or schema-foreign database is moved aside and rebuilt
    # (re-ingesting the paths an `index` invocation names) rather than
    # surfacing a raw sqlite3.DatabaseError traceback.
    rebuild_from = list(args.paths) if action == "index" else []
    try:
        idx, recovery = open_with_recovery(db, rebuild_from=rebuild_from)
    except (OSError, RuntimeError) as err:
        raise SystemExit(f"cannot open run index {db!r}: {err}") from err
    if recovery is not None:
        print(
            f"warning: {db}: {recovery['problem']}; moved the damaged "
            f"database to {recovery['moved_to'][0]} and rebuilt "
            f"({len(recovery['reindexed'])} run(s) re-ingested)",
            file=sys.stderr,
        )
    with idx:
        if action == "index":
            ingested: list[str] = []
            for path in args.paths:
                try:
                    ingested.extend(idx.index_run(path))
                except (FileNotFoundError, ValueError) as err:
                    raise SystemExit(f"runs index: {err}") from err
            print(f"indexed {len(ingested)} run(s) into {db}", file=out)
            for rid in ingested:
                print(f"  {rid}", file=out)
            return 0
        if action == "list":
            rows = idx.list_runs(kind=args.kind)
            if not rows:
                print("(no indexed runs)", file=out)
                return 0
            print(f"{'run_id':<36} {'kind':<9} {'status':<12} "
                  f"{'started':<24} {'dur':>9}  command", file=out)
            for r in rows:
                dur = (
                    f"{r['duration_s']:.2f}s"
                    if r["duration_s"] is not None
                    else "-"
                )
                print(
                    f"{r['run_id']:<36} {r['kind']:<9} "
                    f"{(r['status'] or '-'):<12} "
                    f"{(r['started'] or '-'):<24} {dur:>9}  "
                    f"{r['command'] or '-'}",
                    file=out,
                )
            return 0
        if action == "show":
            try:
                run = idx.resolve_run(args.run)
            except KeyError as err:
                raise SystemExit(str(err.args[0])) from err
            rid = run["run_id"]
            for key in ("run_id", "kind", "command", "status", "path",
                        "started", "finished", "duration_s", "exit_code",
                        "schema"):
                if run.get(key) is not None:
                    print(f"  {key:<12} {run[key]}", file=out)
            if run.get("extra"):
                print(f"  {'extra':<12} {run['extra']}", file=out)
            counts = idx.counts(rid)
            print(f"  {'rows':<12} metrics={counts['metrics']} "
                  f"spans={counts['spans']} findings={counts['findings']}",
                  file=out)
            medians = idx.timer_medians(rid)
            if medians:
                print("  top timers (median):", file=out)
                ranked = sorted(
                    medians.items(), key=lambda kv: kv[1], reverse=True
                )
                for name, median in ranked[:10]:
                    print(f"    {name:<46} {median * 1e3:>10.3f}ms", file=out)
            for finding in idx.run_findings(rid):
                print(f"  finding {finding['check_name']} "
                      f"[digest {finding['digest']}]", file=out)
            return 0
        if action == "gc":
            dropped = idx.gc(keep=args.keep)
            print(f"dropped {dropped} run(s) from {db}", file=out)
            return 0
        if action == "compare":
            try:
                base_run = idx.resolve_run(args.baseline)
                cur_run = idx.resolve_run(args.current)
            except KeyError as err:
                raise SystemExit(str(err.args[0])) from err
            baseline = idx.timer_medians(base_run["run_id"])
            current = idx.timer_medians(cur_run["run_id"])
            if not baseline:
                print(f"no timers indexed for baseline "
                      f"{base_run['run_id']}", file=sys.stderr)
                return 2
            if not current:
                print(f"no timers indexed for current "
                      f"{cur_run['run_id']}", file=sys.stderr)
                return 2
            lines, failed = compare_medians(
                baseline, current, args.tolerance
            )
            print(
                f"run comparison ({base_run['run_id']} -> "
                f"{cur_run['run_id']}, tolerance {args.tolerance:g}x):",
                file=out,
            )
            print("\n".join(lines), file=out)
            if failed:
                print("FAIL: at least one timer regressed beyond tolerance",
                      file=sys.stderr)
                return 1
            print("OK: no timer regressed beyond tolerance", file=out)
            return 0
    raise AssertionError(
        f"unhandled runs action {action!r}"
    )  # pragma: no cover


def _cmd_tail(args: argparse.Namespace, out) -> int:
    from repro.obs.progress import format_heartbeat, iter_progress

    run_dir = args.run_dir
    if not os.path.isdir(run_dir):
        raise SystemExit(f"no such run directory: {run_dir!r}")
    count = 0
    for ev in iter_progress(
        run_dir, follow=args.follow, timeout=args.tail_timeout
    ):
        print(format_heartbeat(ev), file=out)
        count += 1
    if count == 0:
        print("(no progress heartbeats recorded — was the run started "
              "with --progress?)", file=out)
        try:
            manifest = obs.load_manifest(run_dir)
        except (OSError, json.JSONDecodeError):
            return 0
        status = manifest.get("status") or (
            "complete" if manifest.get("finalized") else "in-progress"
        )
        print(f"manifest: command={manifest.get('command')} status={status}",
              file=out)
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    from repro.experiments.report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=out)
    else:
        print(text, file=out)
    if "**ERROR**" in text or "**TIMEOUT**" in text or "**BUDGET**" in text:
        return 2
    return 0 if "**FAILS**" not in text else 1


def _dispatch(args: argparse.Namespace, out) -> int:
    return args.handler(args, out)


def _budget_from_args(args: argparse.Namespace, token: CancelToken) -> Budget:
    """The session budget: CLI flags (already validated/parsed) + the token.

    With no flags this is an unlimited budget that still carries the
    cancellation token, so SIGTERM reaches every governed loop.
    """
    return Budget(
        wall_s=getattr(args, "budget_wall", None),
        mem_bytes=getattr(args, "budget_mem", None),
        max_states=getattr(args, "budget_states", None),
        token=token,
    )


def _install_sigterm(token: CancelToken) -> None:
    """First SIGTERM cancels cooperatively; a second one kills for real."""

    def _on_sigterm(signum, frame):  # pragma: no cover - signal delivery
        if token.cancelled:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
        token.cancel("SIGTERM")

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use) — skip the handler


def _space_nodes(args: argparse.Namespace) -> int:
    """Node count implied by the space flags (for progress totals)."""
    space = getattr(args, "space", "ring")
    if space == "grid":
        return args.rows * args.cols
    if space == "hypercube":
        return 1 << args.dimension
    return args.n


def _partial_location(args: argparse.Namespace) -> str:
    where = getattr(args, "artifacts_dir", None) or getattr(args, "resume", None)
    if where:
        return f" — partial artifacts in {where}"
    return ""


@contextmanager
def _profiled(args: argparse.Namespace) -> Iterator[None]:
    """Under ``--profile`` (which implies ``--trace``), run the block as a
    ``cli.<command>`` root span and write the profile however it exits."""
    path = getattr(args, "profile", None)
    if not path:
        yield
        return
    profiler = obs.Profiler()
    profiler.install()
    enabled_here = not obs.is_enabled()
    if enabled_here:
        obs.enable(trace_memory=args.trace_memory)
    try:
        with obs.span(f"cli.{args.command}"):
            yield
    finally:
        profiler.uninstall()
        if enabled_here:
            obs.disable()
        try:
            obs.write_profile(path, profiler.profile(), fmt=args.profile_format,
                              name=f"repro {args.command}")
        except OSError as err:
            print(f"cannot write profile {path!r}: {err}", file=sys.stderr)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 some experiment fails, 2 error/timeout/usage,
    3 budget-truncated partial result, 130 Ctrl-C, 143 SIGTERM.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    _validate_args(args)
    obs.enable_from_env()
    faults.install_from_env()

    # ``stats`` *reads* observability state; it never starts a run of its
    # own, so it bypasses the artifact/tracing setup below (keeping only
    # the --profile contract, which holds for every subcommand).
    if args.command == "stats":
        with _profiled(args):
            return _dispatch(args, out)

    token = CancelToken()
    args._cancel_token = token
    _install_sigterm(token)

    want_trace = bool(getattr(args, "trace", False))
    artifacts_dir = getattr(args, "artifacts_dir", None)
    artifacts = None
    if artifacts_dir:
        raw_argv = list(argv) if argv is not None else sys.argv[1:]
        try:
            artifacts = obs.RunArtifacts(
                artifacts_dir, command=args.command, argv=raw_argv
            )
        except OSError as err:
            raise SystemExit(
                f"cannot create artifacts directory {artifacts_dir!r}: {err}"
            ) from err
        artifacts.activate()
        want_trace = True
    progress = None
    if getattr(args, "progress", False):
        progress = obs.ProgressReporter(
            args.progress_label(args),
            total=args.progress_total(args),
            interval=getattr(args, "progress_interval", 1.0),
            path=(
                os.path.join(artifacts_dir, PROGRESS_NAME)
                if artifacts_dir
                else None
            ),
        )
        args._progress = progress
    enabled_here = want_trace and not obs.is_enabled()
    if enabled_here:
        obs.enable(trace_memory=bool(getattr(args, "trace_memory", False)))
    code = 1
    try:
        try:
            budget = _budget_from_args(args, token)
            if progress is not None and args.command != "run":
                # ``run`` advances per experiment via on_result; hooking
                # its budget too would double-count experiment-internal
                # charges against the experiment total.
                budget.on_charge = progress.on_charge
            with use_budget(budget), _profiled(args):
                code = _dispatch(args, out)
        except BackendUnsupported as exc:
            # An explicit --backend that cannot run the automaton: a
            # one-line error, not a traceback (auto never raises this).
            raise SystemExit(str(exc)) from exc
        except ShardFailed as exc:
            # The process backend's typed terminal error: the shard failed
            # every worker attempt *and* the serial fallback.  The original
            # worker traceback beats the parent's re-raise stack.
            tb = exc.traceback_text
            if tb:
                print(tb.rstrip(), file=sys.stderr)
            print(f"sweep failed: {exc}", file=sys.stderr)
            code = 1
        except KeyboardInterrupt:
            # Satellite of the governance work: no traceback, one line,
            # the conventional 128+SIGINT exit code.  Artifacts/metrics
            # are still flushed by the ``finally`` below.
            token.cancel("KeyboardInterrupt")
            print(f"interrupted{_partial_location(args)}", file=sys.stderr)
            code = 130
        except BudgetExceeded as exc:
            if token.reason == "SIGTERM":
                print(f"terminated{_partial_location(args)}", file=sys.stderr)
                code = 143
            else:
                print(f"budget exhausted — {exc.reason}", file=sys.stderr)
                if exc.partial is not None:
                    print(exc.partial.describe(), file=sys.stderr)
                code = 3
        else:
            if token.reason == "SIGTERM":
                print(f"terminated{_partial_location(args)}", file=sys.stderr)
                code = 143
        return code
    finally:
        if progress is not None:
            progress.finish()
        if enabled_here:
            obs.disable()
        if artifacts is not None:
            artifacts.finalize(exit_code=code)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
