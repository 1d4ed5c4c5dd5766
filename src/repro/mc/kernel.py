"""Batched SWAR trajectory kernel: 64 sampled configurations per word.

The exact census packs 64 *consecutive codes* per uint64; here each bit
lane carries one *sampled* initial condition instead, and the state is an
``(n, lanes // 64)`` bitplane array — node-major, so a synchronous step
is ``n`` evaluations of the very same lowered bitwise kernel the sweep
backends compiled (:func:`repro.perf.bitplane.eval_bit_kernel`), chunked
over node tiles that keep the working set cache-sized even at n=10^6.  A
sequential sweep evaluates the same kernel one wavefront level of its
update order at a time (:meth:`McKernel._sweep_plan`).

Each batch runs to the paper's dichotomy: Proposition 1 says a parallel
threshold orbit ends in a fixed point or a 2-cycle, so per-lane
classification needs only two trailing states — lane masks
``cur == nxt`` (fixed point, convergence time ``t``) and ``prev == nxt``
(2-cycle, entered at ``t - 1``).  Lanes still live at the step horizon
are counted ``undecided``, never guessed.

The kernel is a counts kernel (:mod:`repro.perf.counts`), so governed,
resumable and ``process``-sharded runs share the attractor census's
driver: a chunk or shard is just a lane-aligned slice of the
deterministic sample stream.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.core.rules import MajorityRule, SimpleThresholdRule, TableRule
from repro.mc import sampler
from repro.mc.estimators import (
    IDX,
    K_MC_COUNTS,
    MC_COUNT_FIELDS,
    merge_mc_counts,
    zero_mc_counts,
)
from repro.perf.base import BackendUnsupported
from repro.perf.bitplane import eval_bit_kernel, lower_bit_kernel
from repro.spaces.line import Ring
from repro.util.bitops import lane_counts, lane_diff, unpack_lanes

__all__ = ["McKernel", "MC_TILE_WORDS", "count_threshold"]

#: uint64 words per node tile of the synchronous step (~256 KiB per
#: input plane), the cache-sizing knob for huge rings
MC_TILE_WORDS = 1 << 15

#: batches folded per governed chunk (budget-trip / cancel granularity)
_CHUNK_BATCHES = 4

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def count_threshold(rule, width: int):
    """Firing threshold of a monotone symmetric rule, or ``None``.

    Mirrors :meth:`repro.core.energy.ThresholdNetwork.from_automaton`
    exactly, so the kernel's integer energy agrees with the scalar
    Lyapunov implementation slot for slot.
    """
    if isinstance(rule, SimpleThresholdRule):
        return int(rule.threshold)
    if isinstance(rule, MajorityRule):
        return width // 2 + 1 if rule.ties == "zero" else (width + 1) // 2
    if isinstance(rule, TableRule):
        t = rule.function.as_count_threshold()
        return None if t is None else int(t)
    return None


class McKernel:
    """Monte-Carlo trajectory driver for one homogeneous threshold ring.

    Built directly from ``(rule, n, radius, memory)`` — setup is O(1) in
    ``n`` (no window materialization, no automaton object), which is what
    keeps ``repro mc --n 1000000`` instant to start.
    """

    def __init__(
        self,
        rule,
        n: int,
        radius: int = 1,
        memory: bool = True,
        *,
        schedule: str = "parallel",
        perm=None,
        family: str = "uniform",
        seed: int = 0,
        horizon: int | None = None,
        density: float = 0.5,
        flips: int = 1,
        lanes: int | None = None,
    ):
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            raise BackendUnsupported(
                "bit-plane packing assumes a little-endian host"
            )
        if n < 2 * radius + 1:
            raise ValueError(
                f"ring of {n} nodes cannot support radius {radius}; "
                f"need n >= {2 * radius + 1}"
            )
        if schedule not in ("parallel", "sweep"):
            raise ValueError(
                f"schedule must be 'parallel' or 'sweep', got {schedule!r}"
            )
        if family not in sampler.FAMILIES:
            raise ValueError(f"unknown sampler family {family!r}")
        self.rule = rule
        self.n = int(n)
        self.radius = int(radius)
        self.memory = bool(memory)
        self.schedule = schedule
        self.family = family
        self.seed = int(seed)
        self.density = float(density)
        self.flips = int(flips)
        self.width = 2 * self.radius + (1 if self.memory else 0)
        kern = lower_bit_kernel(rule, self.width)
        if kern is None:
            raise BackendUnsupported(
                f"rule {rule.name} has no bitwise lowering at width {self.width}"
            )
        self._kern = kern
        self.offsets = [
            d for d in range(-self.radius, self.radius + 1) if self.memory or d
        ]
        self.lanes = int(lanes) if lanes is not None else sampler.lanes_for(n)
        if self.lanes < 64 or self.lanes % 64:
            raise ValueError(
                f"lanes must be a positive multiple of 64, got {self.lanes}"
            )
        self.nwords = self.lanes // 64
        if perm is not None:
            perm = [int(i) for i in perm]
            if sorted(perm) != list(range(self.n)):
                raise ValueError("perm must be a permutation of range(n)")
        self.perm = perm if perm is not None else list(range(self.n))
        self._plan = self._sweep_plan() if schedule == "sweep" else None
        # Sequential sweeps converge within n(ish) sweeps (Theorem 1's flip
        # bound); parallel transients are O(n) too — 4n + 64 is a generous
        # default horizon with slack for tiny rings.
        self.horizon = int(horizon) if horizon is not None else 4 * self.n + 64
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        self.theta = count_threshold(rule, self.width)
        #: set per run by the engine: off when theta is unknown or the
        #: integer power sums could overflow int64 at the run's sample count
        self.energy_enabled = self.theta is not None
        # -- counts-kernel protocol (repro.perf.counts) ----------------------
        self.chunk = self.lanes * _CHUNK_BATCHES
        self.shard_align = self.lanes

    counts_slots = K_MC_COUNTS
    count_fields = MC_COUNT_FIELDS
    progress_fields = ("samples", "fixed_point", "two_cycle")
    merge = staticmethod(merge_mc_counts)
    shards_per_worker = 4

    # -- construction from an automaton (qa / tests) -------------------------

    @classmethod
    def supports(cls, ca) -> str | None:
        """Reason this automaton cannot run the MC kernel, or ``None``."""
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            return "bit-plane packing assumes a little-endian host"
        if not isinstance(ca.space, Ring):
            return f"monte-carlo kernel needs a ring space, got {ca.space.describe()}"
        rules = {id(ca.rule_at(i)) for i in range(ca.n)}
        if len(rules) > 1:
            return "monte-carlo kernel needs a homogeneous rule assignment"
        width = int(ca._lengths[0])
        if lower_bit_kernel(ca.rule_at(0), width) is None:
            return (
                f"rule {ca.rule_at(0).name} has no bitwise lowering "
                f"at window width {width}"
            )
        return None

    @classmethod
    def from_automaton(cls, ca, **kwargs) -> "McKernel":
        """Kernel over ``ca``'s rule/ring; raises when unsupported."""
        reason = cls.supports(ca)
        if reason is not None:
            raise BackendUnsupported(reason)
        return cls(
            ca.rule_at(0), ca.n, radius=ca.space.radius, memory=ca.memory, **kwargs
        )

    def describe(self) -> str:
        mem = "memory" if self.memory else "memoryless"
        return (
            f"mc[{self.rule.name} on Ring(n={self.n}, radius={self.radius}), "
            f"{mem}, {self.schedule}]"
        )

    def frontier_key(self) -> tuple[str, int, str]:
        """``describe()`` plus everything that fixes the sample stream.

        A frontier's counts resume only the run with the same automaton,
        schedule (and, for sweeps, the same order), sampler, lane width
        and horizon.
        """
        key = f"{self.describe()} seed={self.seed} family={self.family}"
        if self.family == "density":
            key += f"(density={self.density!r})"
        elif self.family == "perturb":
            key += f"(flips={self.flips})"
        key += f" lanes={self.lanes} horizon={self.horizon}"
        if self.schedule == "sweep":
            perm = np.asarray(self.perm, dtype=np.int64).tobytes()
            key += f" perm={hashlib.sha256(perm).hexdigest()[:16]}"
        return "mc", self.n, key

    # -- stepping -------------------------------------------------------------

    def step(self, planes: np.ndarray) -> np.ndarray:
        """One macro step of every lane: synchronous, or one full sweep."""
        if self.schedule == "sweep":
            return self._step_sweep(planes)
        return self._step_parallel(planes)

    def _step_parallel(self, planes: np.ndarray) -> np.ndarray:
        n, r = self.n, self.radius
        ext = np.concatenate([planes[n - r :], planes, planes[:r]], axis=0)
        out = np.empty_like(planes)
        tile = max(1, MC_TILE_WORDS // max(1, self.nwords))
        for t0 in range(0, n, tile):
            t1 = min(t0 + tile, n)
            inputs = [ext[t0 + r + d : t1 + r + d] for d in self.offsets]
            out[t0:t1] = eval_bit_kernel(
                self._kern, inputs, (t1 - t0, self.nwords)
            )
        return out

    def _sweep_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Compile ``perm`` into wavefront levels: ``(nodes, starts)``.

        A sweep depends on its order only through the acyclic orientation
        the order induces on the ring (Macauley-McCammond).  Node ``i``'s
        level is its longest-path depth in that orientation: ``1 +`` the
        highest level among the ring neighbours ``perm`` updates before
        it, or ``0`` when there are none.  Nodes within distance ``r``
        always get different levels, so a node reads only lower levels
        (already updated) and higher ones (not yet) — exactly what the
        one-node-at-a-time sweep reads.  ``nodes`` lists the nodes by
        level, and level ``k`` is ``nodes[starts[k]:starts[k + 1]]``.
        """
        n, r = self.n, self.radius
        # Neighbour i + d as a negative index where it wraps past either end.
        shifts = [d if d < 0 else d - n for d in range(-r, r + 1) if d]
        level = [-1] * n  # -1 until updated, so later nodes never count
        for i in self.perm:
            top = -1
            for s in shifts:
                if level[i + s] > top:
                    top = level[i + s]
            level[i] = top + 1
        levels = np.asarray(level, dtype=np.int64)
        starts = np.zeros(int(levels.max()) + 2, dtype=np.int64)
        np.cumsum(np.bincount(levels), out=starts[1:])
        return np.argsort(levels, kind="stable"), starts

    def _step_sweep(self, planes: np.ndarray) -> np.ndarray:
        """One sweep in ``perm`` order, all lanes at once, level by level.

        Every node reads the *current* (partially updated) planes — the
        fixed-permutation sequential semantics of the paper's SCA — and
        the nodes of one level are independent, so each tile of a level
        is one gather, one kernel evaluation and one scatter.
        """
        nwords, kern = self.nwords, self._kern
        # Row i + d as a negative index where it wraps, as in the plan.
        shifts = [d if d <= 0 else d - self.n for d in self.offsets]
        nodes, starts = self._plan
        out = planes.copy()
        tile = max(1, MC_TILE_WORDS // nwords)
        bounds = starts.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1:
                # One node (long chains are all such levels): row views, so
                # it costs what a single-node update does.  A one-row gather
                # and scatter makes an identity-order sweep ~1.5x slower
                # (bench_montecarlo's test_mc_sweep_throughput[10000-identity]).
                i = nodes.item(lo)
                inputs = [out[i + s] for s in shifts]
                out[i] = eval_bit_kernel(kern, inputs, nwords)
                continue
            for t0 in range(lo, hi, tile):
                rows = nodes[t0 : min(t0 + tile, hi)]
                inputs = [out.take(rows + s, axis=0) for s in shifts]
                out[rows] = eval_bit_kernel(kern, inputs, (rows.size, nwords))
        return out

    # -- energy ---------------------------------------------------------------

    def energy2_bound(self):
        """Per-lane bound on ``|E2(x, x)|``, or ``None`` without a theta."""
        if self.theta is None:
            return None
        return (
            2 * abs(self.theta) * self.n
            + 2 * self.radius * self.n
            + (self.n if self.memory else 0)
        )

    def energy2(self, planes: np.ndarray) -> np.ndarray:
        """Per-lane ``E2(x, x) = -x^T W x + 2 theta . x`` (int64).

        Exactly twice the scalar sequential Lyapunov of
        :mod:`repro.core.energy` — doubled so it stays an integer for
        odd thresholds.
        """
        if self.theta is None:
            raise BackendUnsupported(
                f"rule {self.rule.name} has no threshold form; energy disabled"
            )
        ones = lane_counts(planes, self.lanes)
        acc = 2 * self.theta * ones
        pairs = np.empty_like(planes)
        for d in range(1, self.radius + 1):
            # pairs[i] = x[i] & x[(i + d) % n]; the last d rows wrap around.
            np.bitwise_and(planes[:-d], planes[d:], out=pairs[:-d])
            np.bitwise_and(planes[-d:], planes[:d], out=pairs[-d:])
            acc -= 2 * lane_counts(pairs, self.lanes)
        if self.memory:
            acc -= ones
        return acc

    # -- batch classification --------------------------------------------------

    def _run_batch(self, counts: np.ndarray, batch_lo: int) -> None:
        """Sample, run, and classify one ``lanes``-wide batch into counts."""
        planes = sampler.sample_planes(
            self.family,
            self.n,
            self.lanes,
            self.seed,
            batch_lo,
            density=self.density,
            flips=self.flips,
        )
        want_energy = self.energy_enabled
        x0 = planes.copy() if want_energy else None
        cur = planes
        prev = None
        done = np.zeros(self.nwords, dtype=np.uint64)
        fp_mask = np.zeros(self.nwords, dtype=np.uint64)
        two_mask = np.zeros(self.nwords, dtype=np.uint64)
        conv_t = np.zeros(self.lanes, dtype=np.int64)
        steps = 0
        for t in range(self.horizon):
            nxt = self.step(cur)
            steps += 1
            live_fp = ~lane_diff(cur, nxt) & ~done
            if live_fp.any():
                fp_mask |= live_fp
                done |= live_fp
                conv_t[unpack_lanes(live_fp, self.lanes)] = t
            if prev is not None:
                live_2c = ~lane_diff(prev, nxt) & ~done
                if live_2c.any():
                    two_mask |= live_2c
                    done |= live_2c
                    conv_t[unpack_lanes(live_2c, self.lanes)] = t - 1
            if (done == _ONES).all():
                cur = nxt
                break
            prev, cur = cur, nxt
        fp = unpack_lanes(fp_mask, self.lanes)
        two = unpack_lanes(two_mask, self.lanes)
        decided = fp | two
        counts[IDX["samples"]] += self.lanes
        counts[IDX["fixed_point"]] += int(fp.sum())
        counts[IDX["two_cycle"]] += int(two.sum())
        counts[IDX["undecided"]] += self.lanes - int(decided.sum())
        counts[IDX["steps"]] += steps
        ts = conv_t[decided]
        if ts.size:
            counts[IDX["conv_count"]] += ts.size
            counts[IDX["conv_sum"]] += int(ts.sum())
            counts[IDX["conv_sumsq"]] += int((ts * ts).sum())
            counts[IDX["conv_max"]] = max(
                int(counts[IDX["conv_max"]]), int(ts.max())
            )
        if want_energy and fp.any():
            # Fixed-point lanes hold their settled state in `cur` (further
            # steps are identity there), so the descent is exact.
            drop = (self.energy2(x0) - self.energy2(cur))[fp]
            counts[IDX["energy_count"]] += drop.size
            counts[IDX["energy_sum2"]] += int(drop.sum())
            counts[IDX["energy_sumsq4"]] += int((drop * drop).sum())

    # -- counts-kernel protocol ------------------------------------------------

    def census_range(self, lo: int, hi: int) -> np.ndarray:
        """Counts over the lane-aligned sample range ``[lo, hi)``."""
        if lo % self.lanes or (hi - lo) % self.lanes:
            raise ValueError(
                f"sample range [{lo}, {hi}) is not {self.lanes}-lane aligned"
            )
        counts = zero_mc_counts()
        for blo in range(lo, hi, self.lanes):
            self._run_batch(counts, blo)
        return counts

    def transient_bytes(self) -> int:
        """Peak working-set estimate of one batch (planes + step scratch)."""
        plane = (self.n + 2 * self.radius) * self.nwords * 8
        return 6 * plane + 64 * self.lanes
