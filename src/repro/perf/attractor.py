"""Attractor-direct SWAR cycle kernel: 64 trajectories per machine word.

The materialized pipeline stores the full ``2**n`` successor array and
analyses it (:mod:`repro.analysis.cycles`), which caps exact sweeps at
``MAX_SWEEP_N``.  This kernel never stores the global map: it packs 64
*trajectories* into each ``uint64`` word of an ``(n + 1, words)`` plane
array — row ``j``, word ``w``, bit ``t`` holds bit ``j`` of trajectory
lane ``64*w + t``, and row ``n`` is zero — and advances all lanes
through the sweep backend's node loop
(:func:`repro.perf.bitplane.step_planes`).  Brent's cycle-finding
runs per lane with vectorized counters: lanes that meet their hare are
retired via bitmask blending, and words with no live lane are compacted
out of the working set, so converged trajectories stop costing work.

Fed only symmetry-orbit representatives
(:class:`repro.analysis.quotient.QuotientSpec`) with orbit-size weights,
the per-lane ``(cycle length, on-cycle)`` classification folds into an
exact whole-space census — fixed points, two-cycles, cycle configurations
— in O(transient + cycle) steps per orbit and O(lane batch) memory.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.perf.base import CHUNK, MAX_ATTRACTOR_N, BackendUnsupported
# eval_bit_kernel is called through step_planes; the name stays bound here
# because the repository benchmark's tracer patches it by module.
from repro.perf.bitplane import eval_bit_kernel, lower_nodes, step_planes  # noqa: F401
from repro.util.bitops import lane_diff, pack_lanes, unpack_lanes

__all__ = [
    "AttractorKernel",
    "MAX_ATTRACTOR_N",
    "ATTRACTOR_CHUNK",
    "K_COUNTS",
    "COUNT_FIELDS",
    "merge_counts",
    "zero_counts",
]

#: trajectory lanes advanced per Brent batch (memory: ~6 plane sets of
#: (n + 1) * LANES/64 words each — a few MB at n=32, far under any budget)
LANES = 1 << 18

#: code-range chunk of big attractor censuses (serial governed chunks and
#: worker cancel-poll granularity).  Wide enough that representative
#: batches fill whole lane blocks — at 2**22 codes a dihedral quotient
#: yields ~2**22/2n representatives per chunk — instead of the sweeps'
#: much finer CHUNK, whose per-call overhead would dominate Brent batches.
#: Spaces of at most this many codes keep CHUNK (honest budget-trip
#: granularity).
ATTRACTOR_CHUNK = 1 << 22

#: representative-enumeration sub-range (bounds the input stage's scratch)
ENUM_CHUNK = 1 << 20

#: slots of the census counts vector (all int64; "max_cycle_len" merges by
#: max, everything else by sum — see :func:`merge_counts`)
COUNT_FIELDS = (
    "codes_scanned",
    "orbit_reps",
    "configs_covered",
    "fixed_points",
    "cycle_configs",
    "two_cycle_configs",
    "max_cycle_len",
    "reserved",
)
K_COUNTS = len(COUNT_FIELDS)
_IDX = {name: i for i, name in enumerate(COUNT_FIELDS)}
_MAX_IDX = _IDX["max_cycle_len"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def zero_counts() -> np.ndarray:
    """A fresh all-zero census counts vector."""
    return np.zeros(K_COUNTS, dtype=np.int64)


def merge_counts(acc: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Fold ``delta`` into ``acc`` in place (sum slots, max-merge the max)."""
    acc[:_MAX_IDX] += delta[:_MAX_IDX]
    acc[_MAX_IDX] = max(acc[_MAX_IDX], delta[_MAX_IDX])
    acc[_MAX_IDX + 1 :] += delta[_MAX_IDX + 1 :]
    return acc


class AttractorKernel:
    """Brent cycle classification over bit-packed trajectory lanes.

    Bound to one automaton (whose per-node rules must lower to bitwise
    kernels) and one :class:`~repro.analysis.quotient.QuotientSpec`.  The
    public census entry point is :meth:`census_range`, driven through the
    counts-kernel protocol of :mod:`repro.perf.counts`; :meth:`classify`
    exposes the raw per-lane ``(cycle length, on-cycle)`` classification
    for tests and exploratory use.
    """

    counts_slots = K_COUNTS
    count_fields = COUNT_FIELDS
    progress_fields = ("orbit_reps", "fixed_points")
    merge = staticmethod(merge_counts)
    shard_align = CHUNK
    #: pure compute with a fixed-size result: slice finer than successor
    #: sweeps for load balance and short shard leases even at n=32
    shards_per_worker = 16

    def __init__(self, ca, quotient=None):
        reason = self.supports(ca)
        if reason is not None:
            raise BackendUnsupported(
                f"attractor kernel cannot run {ca.describe()}: {reason}"
            )
        if quotient is None:
            from repro.analysis.quotient import QuotientSpec

            quotient = QuotientSpec.for_automaton(ca)
        if quotient.n != ca.n:
            raise ValueError(
                f"quotient is for n={quotient.n}, automaton has n={ca.n}"
            )
        self.ca = ca
        self.n = ca.n
        self.quotient = quotient
        self.lanes = LANES
        self.chunk = CHUNK if 1 << self.n <= ATTRACTOR_CHUNK else ATTRACTOR_CHUNK
        self._kernels, self._windows = lower_nodes(ca)

    @classmethod
    def supports(cls, ca) -> str | None:
        """``None`` when the kernel can run ``ca``, else the reason not.

        Lanes hold arbitrary codes, so any ``n`` up to the ceiling runs and
        the qa differential harness can cross-check the kernel on the
        smallest instances.
        """
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            return "trajectory-plane packing assumes a little-endian host"
        if ca.n > MAX_ATTRACTOR_N:
            return f"n={ca.n} exceeds the attractor-direct ceiling {MAX_ATTRACTOR_N}"
        lowered = lower_nodes(ca)
        return lowered if isinstance(lowered, str) else None

    def describe(self) -> str:
        return f"attractor[{self.quotient.describe()}]"

    def frontier_key(self) -> tuple[str, int, str]:
        return "attractor_census", self.n, self.ca.describe()

    # -- trajectory planes -----------------------------------------------------

    def _make_planes(self, codes: np.ndarray) -> np.ndarray:
        """Pack lane codes (a multiple of 64 of them) into ``(n + 1, words)``
        bit planes, the last row zero (:func:`step_planes`)."""
        planes = np.zeros((self.n + 1, codes.size >> 6), dtype=np.uint64)
        for j in range(self.n):
            bits = ((codes >> np.uint64(j)) & np.uint64(1)).astype(np.uint8)
            planes[j] = pack_lanes(bits)
        return planes

    def _step(self, planes: np.ndarray) -> np.ndarray:
        """One synchronous global step of every lane."""
        return step_planes(self._kernels, self._windows, planes)

    @staticmethod
    def _blend(dst: np.ndarray, src: np.ndarray, mask: np.ndarray) -> None:
        """``dst = src`` on masked lanes, unchanged elsewhere (in place)."""
        dst ^= (dst ^ src) & mask

    # -- Brent cycle classification --------------------------------------------

    def classify(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane ``(cycle length, on-cycle)`` for a batch of codes.

        ``lam[t]`` is the length of the unique cycle the trajectory of
        ``codes[t]`` falls into; ``on_cycle[t]`` is whether ``codes[t]``
        itself lies on that cycle (``f**lam`` fixes it).  Everything a
        symmetry-weighted attractor census needs, with no successor array.
        """
        m = int(codes.size)
        if m == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.astype(bool)
        m64 = (m + 63) & ~63
        padded = np.empty(m64, dtype=np.uint64)
        padded[:m] = codes.astype(np.uint64, copy=False)
        padded[m:] = padded[m - 1]  # pad lanes repeat a real code
        x0 = self._make_planes(padded)
        lam_out = self._brent_lambda(x0)
        on_cycle = self._on_cycle(x0, lam_out)
        return lam_out[:m], on_cycle[:m]

    def _brent_lambda(self, x0: np.ndarray) -> np.ndarray:
        """Vectorized Brent phase A: per-lane cycle length ``lam``."""
        m64 = x0.shape[1] << 6
        tort = x0.copy()
        hare = self._step(x0)
        lane_idx = np.arange(m64, dtype=np.int64)
        power = np.ones(m64, dtype=np.int64)
        lam = np.ones(m64, dtype=np.int64)
        active = np.ones(m64, dtype=bool)
        lam_out = np.zeros(m64, dtype=np.int64)
        while True:
            eq = ~unpack_lanes(lane_diff(tort, hare), active.size)
            done = active & eq
            if done.any():
                lam_out[lane_idx[done]] = lam[done]
                active &= ~done
                # Early exit: drop words with no live lane so converged
                # trajectories stop paying for the step kernel.
                word_live = active.reshape(-1, 64).any(axis=1)
                if not word_live.all():
                    keep = np.flatnonzero(word_live)
                    if keep.size == 0:
                        return lam_out
                    sel = (
                        keep[:, None] * 64 + np.arange(64, dtype=np.int64)
                    ).ravel()
                    tort = tort.take(keep, axis=1)
                    hare = hare.take(keep, axis=1)
                    lane_idx = lane_idx[sel]
                    power = power[sel]
                    lam = lam[sel]
                    active = active[sel]
            teleport = active & (power == lam)
            if teleport.any():
                mask = pack_lanes(teleport)
                self._blend(tort, hare, mask)
                power[teleport] <<= 1
                lam[teleport] = 0
            hare = self._step(hare)
            lam += active

    def _on_cycle(self, x0: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Which lanes sit on their own cycle: does ``f**lam`` fix them?"""
        final = x0.copy()
        cur = x0.copy()
        rem = lam.copy()
        word_idx = np.arange(x0.shape[1], dtype=np.int64)
        while True:
            active = rem > 0
            word_live = active.reshape(-1, 64).any(axis=1)
            if not word_live.all():
                keep = np.flatnonzero(word_live)
                drop = np.flatnonzero(~word_live)
                # Scatter finished words back before compacting them away.
                final[:, word_idx[drop]] = cur.take(drop, axis=1)
                cur = cur.take(keep, axis=1)
                word_idx = word_idx[keep]
                rem = rem.reshape(-1, 64)[keep].ravel()
                if word_idx.size == 0:
                    break
                active = rem > 0
            stepped = self._step(cur)
            self._blend(cur, stepped, pack_lanes(active))
            rem -= active
        return ~unpack_lanes(lane_diff(final, x0), lam.size)

    # -- census ----------------------------------------------------------------

    def census_range(self, lo: int, hi: int) -> np.ndarray:
        """Weighted attractor counts over configuration codes ``lo..hi-1``.

        Enumerates the quotient's orbit representatives in the range,
        classifies them in lane batches, and folds orbit-weighted results
        into a :data:`COUNT_FIELDS` vector.  Disjoint ranges merge with
        :func:`merge_counts`, which is what both the serial governed loop
        and the sharded process backend rely on.
        """
        counts = zero_counts()
        counts[_IDX["codes_scanned"]] = hi - lo
        for qlo in range(lo, hi, ENUM_CHUNK):
            qhi = min(qlo + ENUM_CHUNK, hi)
            reps, weights = self.quotient.reps_in_range(qlo, qhi)
            counts[_IDX["orbit_reps"]] += reps.size
            counts[_IDX["configs_covered"]] += int(weights.sum())
            for b in range(0, reps.size, self.lanes):
                lam, on_cycle = self.classify(reps[b : b + self.lanes])
                w = weights[b : b + self.lanes]
                counts[_IDX["fixed_points"]] += int(
                    w[on_cycle & (lam == 1)].sum()
                )
                counts[_IDX["cycle_configs"]] += int(
                    w[on_cycle & (lam >= 2)].sum()
                )
                counts[_IDX["two_cycle_configs"]] += int(
                    w[on_cycle & (lam == 2)].sum()
                )
                if lam.size:
                    counts[_MAX_IDX] = max(
                        counts[_MAX_IDX], int(lam.max())
                    )
        return counts

    def transient_bytes(self) -> int:
        """Peak per-chunk scratch bytes (deterministic budget charging).

        Six plane sets (x0, tortoise, hare, final, current, one step
        output) of ``n + 1`` planes over ``lanes/64`` words; the padded lane
        codes and Brent's per-lane int64 counters; plus what the
        quotient's input stage holds for one enumeration sub-range
        (:meth:`~repro.analysis.quotient.QuotientSpec.scratch_bytes`),
        which also covers the representatives and weights held while
        their lanes classify.
        """
        plane_words = self.lanes >> 6
        planes = 6 * (self.n + 1) * plane_words * 8
        per_lane = 5 * self.lanes * 8
        return planes + per_lane + self.quotient.scratch_bytes(ENUM_CHUNK)
