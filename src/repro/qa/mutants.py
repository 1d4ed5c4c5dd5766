"""Known-bad mutant kernels: the fuzzer's self-test.

Each mutant monkey-patches one backend kernel with a subtly wrong
variant of the real implementation — the kind of off-by-one a kernel
rewrite could plausibly introduce.  ``repro fuzz --self-test`` runs the
fuzz loop with each mutant active and demands that the differential
harness catches it and shrinks the counterexample to ``n <= 6``; a
mutant that survives means the oracles have a blind spot.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import repro.analysis.cycles as cycles
import repro.analysis.quotient as quotient
import repro.core.nondet as nondet
import repro.mc.sampler as mc_sampler
import repro.perf.attractor as attractor
import repro.perf.bitplane as bitplane
from repro.mc.kernel import McKernel
from repro.util.bitops import flip_lanes, lane_counts

__all__ = ["MUTANTS", "active_mutant"]


def _mutant_bitplane_stale_bit():
    """Node update XORs the new bit instead of replacing the old one.

    Patches the one range kernel, which both maps encode from: the
    parallel successors and every node-successor path (row, matrix and
    governed build).
    """

    def flips_range(self, lo, hi):
        nwords = (hi - lo + 63) >> 6
        cache: dict = {}
        # BUG: flips bit i whenever the new bit is 1, rather than
        # whenever it differs from the old bit.
        flips = np.stack(
            [
                bitplane.eval_bit_kernel(
                    kernel,
                    [self._plane(int(src), lo, nwords, cache) for src in window],
                    nwords,
                )
                for kernel, window in zip(self._kernels, self._windows)
            ]
        )
        if (hi - lo) & 63:
            flips[:, -1] &= np.uint64((1 << ((hi - lo) & 63)) - 1)
        return flips

    return [(bitplane.BitplaneBackend, "flips_range", flips_range)]


def _mutant_bitplane_parity_drop():
    """Bit-plane parity kernel forgets the last input plane.

    Patches the shared module-level evaluator in *both* namespaces that
    bind it (:mod:`repro.perf.bitplane` and the attractor kernel's
    imported reference), as a bad edit to the shared lowering would hit
    both the sweep backend and the attractor-direct path.
    """
    original = bitplane.eval_bit_kernel

    def eval_bit_kernel(kernel, inputs, nwords):
        kind, _ = kernel
        if kind == "parity" and len(inputs) > 1:
            out = np.zeros(nwords, dtype=np.uint64)
            for plane in inputs[:-1]:  # BUG: one plane short
                out ^= plane
            return out
        return original(kernel, inputs, nwords)

    return [
        (bitplane, "eval_bit_kernel", eval_bit_kernel),
        (attractor, "eval_bit_kernel", eval_bit_kernel),
    ]


def _mutant_count_profile_live_reuse():
    """Count-profile recurrence takes the lowest live level one too high.

    A level's buffer may be reused in place once no later level reads it:
    the level just below the lowest live one.  This one also reuses the
    lowest live level, ANDing the input into it while that level is still
    to be lifted, so its count drops what the inputs before summed and a
    buffer ends up held twice.  A step profile at width 3 (MAJORITY r = 1)
    never keeps two levels below its top, so only wider windows and
    non-step profiles reach it.  Patches the private helper that
    :func:`~repro.perf.bitplane.eval_bit_kernel` calls, so the sweep
    backend, the attractor kernel and the MC kernel all run it.
    """

    def _count_profile(profile, inputs, nwords):
        p = profile.tolist()
        steps = [t for t in range(1, len(p)) if p[t] != p[t - 1]]
        if not steps:
            return np.full(nwords, ~np.uint64(0) if p[0] else 0, dtype=np.uint64)
        k, t_min, t_max = len(inputs), steps[0], steps[-1]
        first = inputs[0]
        ge = {1: first}
        spare = []
        for m in range(2, k + 1):
            x = inputs[m - 1]
            lo = max(1, t_min - (k - m))
            for j in range(min(m, t_max), lo - 1, -1):
                if j == 1:
                    g = ge[1]
                    ge[1] = np.bitwise_or(g, x, out=None if g is first else g)
                    continue
                below = ge[j - 1]
                # BUG: <= reuses the lowest live level, not just the dying one
                if j - 1 <= lo and below is not first:
                    lift = np.bitwise_and(below, x, out=below)
                else:
                    lift = np.bitwise_and(
                        below, x, out=spare.pop() if spare else None
                    )
                g = ge.get(j)
                if g is None:
                    ge[j] = lift
                else:
                    np.bitwise_or(g, lift, out=g)
                    spare.append(lift)
            ge.pop(lo - 1, None)
        out = ge[steps[0]]
        out = out.copy() if out is first else out
        for t in steps[1:]:
            np.bitwise_xor(out, ge[t], out=out)
        if p[0]:
            np.invert(out, out=out)
        return out

    return [(bitplane, "_count_profile", _count_profile)]


def _mutant_quotient_reflection_drop():
    """Dihedral quotient forgets to minimize over reflections.

    Keeps every necklace as an "orbit representative" while still
    weighting it dihedrally (``p`` when achiral, else ``2p``) — so the
    census overcounts exactly where reflection symmetry mattered.  The
    smallest chiral binary necklace pair lives at ``n = 6`` (e.g.
    ``001011``/``001101``), which is what lets the self-test shrink this
    below the n <= 6 bar.
    """

    def _reflection_pass(necklaces, periods, n):
        best = np.empty_like(necklaces)
        quotient._least_reversal_rotation(necklaces, n, best)
        weights = periods.astype(np.int64)
        weights[necklaces != best] <<= 1
        return necklaces, weights  # BUG: chiral partners both survive as reps

    return [(quotient, "_reflection_pass", _reflection_pass)]


def _mutant_necklace_period_drop():
    """Necklace generator reports every rotation period as ``n``.

    Weighting each cyclic orbit by the ring size instead of its period
    overcounts every periodic necklace (``0000``, ``0101``, ...), so the
    census's coverage identity fails: at ``n = 4`` the six necklaces
    weigh 24, not 16.
    """
    original = quotient.necklaces_in_range

    def necklaces_in_range(n, lo, hi):
        codes, periods = original(n, lo, hi)
        # BUG: the generator's period is dropped for the ring size.
        return codes, np.full(codes.size, n, dtype=np.uint8)

    return [(quotient, "necklaces_in_range", necklaces_in_range)]


def _mutant_cycle_mask_round_early():
    """Cycle-node jump returns one round before the image stops shrinking.

    The images of ``succ**(2**k)`` shrink to the cycle nodes, and the real
    loop returns the first one that stops shrinking.  This one returns the
    image from the round before, one squaring short, so a transient node
    with a long enough chain of predecessors counts as a cycle node: any
    instance with a transient configuration shows it.  The phase digests
    run the mutant on both sides of their diff; only
    ``differential.functional_graph``, against the reference peel, sees it.
    """

    def _cycle_mask(succ, budget=None):
        before = np.ones(succ.size, dtype=bool)  # the image of succ**0
        image = np.zeros(succ.size, dtype=bool)
        image[succ] = True
        power = succ
        while True:
            power = power[power]
            squared = np.zeros(succ.size, dtype=bool)
            squared[power] = True
            if np.count_nonzero(squared) == np.count_nonzero(image):
                return before  # BUG: one round short of the cycle nodes
            before, image = image, squared

    return [(cycles, "_cycle_mask", _cycle_mask)]


def _mutant_sequential_peel_round_short():
    """Sink peel decides from the live set one round before the last.

    The real peel reports whether the set it keeps in the round where the
    set stops changing or empties is non-empty.  This one reports the set
    that round started from: on a cyclic space the two are equal, but on
    an acyclic one the round that empties the set starts from the sources
    of the longest change paths, so every cycle-free space reads as
    cyclic.  Only ``differential.sequential_peel`` diffs the peel against
    SCC, ahead of the Lemma 1 oracle that would also trip over it.
    """

    def sink_peel(words, budget=None):
        n = words.shape[0]
        alive = np.full(words.shape[1], ~np.uint64(0))
        if n < 6:
            alive[0] = (1 << (1 << n)) - 1
        while True:
            kept = np.zeros_like(alive)
            for i in range(n):
                kept |= flip_lanes(alive, i) & words[i]
            if not kept.any() or np.array_equal(kept, alive):
                return bool(alive.any())  # BUG: one round short
            alive = kept

    return [(nondet, "sink_peel", sink_peel)]


def _mutant_coreach_mask_before_flip():
    """Backward search masks a level before flipping it.

    A configuration ``x`` is a predecessor of the level ``T`` through node
    ``i`` when ``x`` is in ``U_i`` and ``x ^ 2**i`` in ``T``: ``U_i &
    flip_i(T)``.  This one takes ``flip_i(U_i & T)``, the forward step,
    so ``coreachable_to`` answers ``reachable_from``'s question.  Nothing
    but the reachability queries runs the search, so only
    ``differential.sequential_reachability`` (against the closure's
    column) can see it.
    """

    def _levels(self, code, forward=True):
        level = np.zeros_like(self.words[0])
        level[int(code) >> 6] = np.uint64(1) << np.uint64(int(code) & 63)
        seen = level.copy()
        while True:
            yield seen, level
            grown = np.zeros_like(seen)
            for i, row in enumerate(self.words):
                # BUG: backward steps mask before the flip, like forward ones
                grown |= flip_lanes(level & row, i)
            grown |= seen
            grown ^= seen
            if not grown.any():
                return
            seen |= grown
            level = grown

    return [(nondet.NondetPhaseSpace, "_levels", _levels)]


def _mutant_mc_sampler_tail_drop():
    """Uniform MC sampler silently drops the all-ones tail.

    Clears every lane whose sampled configuration is all-ones — a
    plausible "mask off the sentinel value" bug in the packer.  The step
    kernels stay bit-exact on whatever states remain, so only a check
    that diffs the *sample stream* itself (``differential.mc_sampler``)
    can see the bias; at the fuzzer's n <= 8 the all-ones configuration
    carries real probability mass, so a 4096-lane draw exposes it with
    near certainty.
    """
    original = mc_sampler.sample_planes

    def sample_planes(family, n, lanes, seed, batch_lo, **kwargs):
        planes = original(family, n, lanes, seed, batch_lo, **kwargs)
        if family == "uniform":
            # BUG: lanes that drew the all-ones configuration are zeroed.
            allones = np.bitwise_and.reduce(planes, axis=0)
            planes = planes & ~allones
        return planes

    return [(mc_sampler, "sample_planes", sample_planes)]


def _mutant_mc_sweep_level_merge():
    """Sweep plan runs wavefront levels 0 and 1 as one level.

    Every level-1 node has a level-0 neighbour that the order updates
    first; merged, the two update together and the level-1 node reads
    its neighbour's stale value.  The parallel step never builds a plan,
    so only ``differential.mc_step``'s sweep diff (a fixed-permutation
    case against composed single-node updates) can see it.
    """
    original = McKernel._sweep_plan

    def _sweep_plan(self):
        nodes, starts = original(self)
        # BUG: the boundary between levels 0 and 1 is dropped.
        return nodes, np.delete(starts, 1)

    return [(McKernel, "_sweep_plan", _sweep_plan)]


def _mutant_mc_energy_wrap_drop():
    """MC energy's neighbour AND leaves out its ``d`` wrap-around rows.

    Rows ``n - d .. n - 1`` pair with rows ``0 .. d - 1`` across the
    ring's seam; a slice-built AND that forgets the second slice counts
    a line, not a ring.  Classification never reads the energy, so only
    ``differential.mc_energy`` (per-lane ``energy2`` against the scalar
    sequential Lyapunov) can see it; on the fuzzer's small rings the seam
    pairs are a large share of every lane's sum.
    """

    def energy2(self, planes):
        ones = lane_counts(planes, self.lanes)
        acc = 2 * self.theta * ones
        for d in range(1, self.radius + 1):
            # BUG: only x[i] & x[i + d] for i < n - d; the wrap is missing.
            pairs = planes[:-d] & planes[d:]
            acc -= 2 * lane_counts(pairs, self.lanes)
        if self.memory:
            acc -= ones
        return acc

    return [(McKernel, "energy2", energy2)]


#: name -> patch factory returning [(class-or-module, attribute,
#: replacement), ...]
MUTANTS = {
    "bitplane-stale-bit": _mutant_bitplane_stale_bit,
    "bitplane-parity-drop": _mutant_bitplane_parity_drop,
    "count-profile-live-reuse": _mutant_count_profile_live_reuse,
    "quotient-reflection-drop": _mutant_quotient_reflection_drop,
    "necklace-period-drop": _mutant_necklace_period_drop,
    "cycle-mask-round-early": _mutant_cycle_mask_round_early,
    "sequential-peel-round-short": _mutant_sequential_peel_round_short,
    "coreach-mask-before-flip": _mutant_coreach_mask_before_flip,
    "mc-sampler-tail-drop": _mutant_mc_sampler_tail_drop,
    "mc-sweep-level-merge": _mutant_mc_sweep_level_merge,
    "mc-energy-wrap-drop": _mutant_mc_energy_wrap_drop,
}


@contextmanager
def active_mutant(name: str):
    """Install a named mutant kernel for the duration of the context."""
    if name not in MUTANTS:
        raise ValueError(f"unknown mutant {name!r}")
    patches = MUTANTS[name]()
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in patches]
    for cls, attr, replacement in patches:
        setattr(cls, attr, replacement)
    try:
        yield name
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)
