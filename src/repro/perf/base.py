"""Sweep-backend protocol and the generic ``numpy`` reference backend.

A *sweep backend* computes whole-phase-space maps for one bound
automaton from one range kernel, :meth:`SweepBackend.flips_range`: where
updating each node alone changes each configuration of a range (the
sequential map), from which the parallel map ``x ^ sum_i flip_i(x) << i``
is encoded once, here.  Every sweep of the engine
(:class:`repro.core.automaton.CellularAutomaton`) and of the governed
builders in :mod:`repro.core.phase_space` and :mod:`repro.core.nondet`
runs through one loop, :meth:`SweepBackend.governed_sweep`, which the
sharded backend overrides: budgets, frontiers and resume semantics are
identical whichever kernel does the arithmetic.

Backends are duck-typed against the automaton: they read ``ca.n``,
``ca._windows`` / ``ca._lengths`` (the padded window matrix, sentinel
``ca.n`` = quiescent 0), ``ca.rule_at(i)`` and ``ca._rule_groups()`` —
which both the homogeneous and the heterogeneous engines provide.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.rules import SymmetricRule
from repro.util.bitops import unpack_lanes

__all__ = [
    "CHUNK",
    "MAX_SWEEP_N",
    "MAX_ATTRACTOR_N",
    "BackendUnsupported",
    "SweepBackend",
    "NumpyBackend",
    "chunk_configs",
    "flip_row_words",
    "sweep_entries",
]

#: configurations processed per chunk in whole-space sweeps (2**16 keeps the
#: intermediate scratch of every backend in the tens of megabytes at most)
CHUNK = 1 << 16

#: hard ceiling on exact *materialized* whole-space sweeps: 2**28
#: successor entries are 2 GB of int64, the most a governed single-host
#: build can usefully hold (disk-backed frontiers included).  Above this,
#: go attractor-direct — or sample.
MAX_SWEEP_N = 28

#: hard ceiling on exact *attractor-direct* sweeps
#: (:mod:`repro.perf.attractor`).  No per-configuration array is ever
#: held — the census streams orbit representatives through bounded lane
#: batches — so this ceiling is set by scan time, not memory.
MAX_ATTRACTOR_N = 34


def chunk_configs(n: int) -> int:
    """Configurations a sweep over ``2**n`` puts in one chunk: ``CHUNK``, or
    the whole space when smaller, padded to one 64-configuration word."""
    return max(64, min(CHUNK, 1 << n))


def flip_row_words(n: int) -> int:
    """``uint64`` words of one node's flip row over ``2**n``
    configurations: a bit each, and at least one (zero-padded) word."""
    return max(1, (1 << n) >> 6)


def sweep_entries(dtype, lo: int, hi: int) -> slice:
    """Entries of a sweep output of ``dtype`` that hold configurations
    ``lo .. hi - 1``.

    A ``uint64`` output holds packed flip words, 64 configurations each
    (configuration ``c`` is bit ``c % 64`` of word ``c // 64``; ``lo`` is
    a multiple of 64); any other output one configuration per entry.
    """
    if np.dtype(dtype) == np.uint64:
        return slice(lo >> 6, (hi + 63) >> 6)
    return slice(lo, hi)


class BackendUnsupported(ValueError):
    """An explicitly requested backend cannot run the given automaton.

    The ``auto`` policy never raises this — it falls through to the next
    applicable backend; only a direct ``backend=...`` request surfaces it
    (the CLI renders it as a one-line error instead of a traceback).
    """


class SweepBackend:
    """One compiled sweep strategy bound to one automaton.

    Subclasses implement the one range kernel, :meth:`flips_range`, and
    :meth:`transient_bytes`; ``supports`` is a classmethod returning
    ``None`` when the backend can handle the automaton and a
    human-readable reason when it cannot (the ``auto`` policy falls
    through to the next backend on a reason).
    """

    name = "?"
    #: True for backends that split sweeps across worker processes: their
    #: :meth:`governed_sweep` also drives counts kernels
    #: (:mod:`repro.perf.counts`).  Sharded backends own their workers'
    #: failure semantics: a worker death must never corrupt the governed
    #: prefix — the backend either heals (re-dispatching the lost shards,
    #: possibly serially) or raises a typed error
    #: (``repro.perf.supervise.ShardFailed``); it never hangs and never
    #: returns a range it did not fully compute.
    is_sharded = False

    def __init__(self, ca):
        self.ca = ca

    @classmethod
    def supports(cls, ca) -> str | None:
        """``None`` if this backend can run ``ca``, else the reason not."""
        return None

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.ca.describe()})"

    # -- the range kernel ------------------------------------------------------

    def flips_range(self, lo: int, hi: int) -> np.ndarray:
        """Every node's flip words for configurations ``lo .. hi - 1``: an
        ``(n, words)`` ``uint64`` array whose row ``i`` has bit ``c - lo``
        set where updating only node ``i`` changes configuration ``c``.

        ``lo`` is a multiple of 64; a range that does not end on a word
        leaves the padding bits of its last word zero.  A single-node
        update changes at most bit ``i``, so row ``i`` is the whole
        sequential map of node ``i`` on the range.
        """
        raise NotImplementedError

    def transient_bytes(self) -> int:
        """Peak per-chunk scratch bytes (for deterministic budget charging)."""
        raise NotImplementedError

    # -- the maps encoded from it ----------------------------------------------

    def _encode(self, lo: int, hi: int, nodes) -> np.ndarray:
        """``c ^ sum_i flip_i(c) << i`` over ``nodes`` for ``lo <= c < hi``,
        from the flip words of the range widened down to a word."""
        lo0 = lo & ~63
        flips = self.flips_range(lo0, hi)
        out = np.arange(lo0, hi, dtype=np.int64)
        bits = np.empty_like(out)  # one int64 temporary at every size
        for i in nodes:
            np.copyto(bits, unpack_lanes(flips[i], hi - lo0))
            bits <<= i
            out ^= bits
        return out[lo - lo0 :]

    def step_all_range(self, lo: int, hi: int) -> np.ndarray:
        """Packed synchronous successors of configurations ``lo .. hi-1``."""
        return self._encode(lo, hi, range(self.ca.n))

    def node_successors_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        """Packed successors under updating only node ``i``, for the range
        (every node's flip words are swept to encode them)."""
        return self._encode(lo, hi, (i,))

    # -- the sweep loop --------------------------------------------------------

    def governed_sweep(
        self,
        out: np.ndarray,
        budget,
        *,
        fill,
        start: int = 0,
        per_state: float = 0,
    ) -> tuple[int, str | None]:
        """Fill ``out`` from configuration ``start`` on with ``fill(lo, hi)``,
        one ``CHUNK`` at a time, at ``out[..., sweep_entries(...)]``.

        Every configuration counts one state per row of ``out`` (the
        sequential flip words have ``n`` rows, a successor array one).
        Before each chunk the budget must have room for this backend's
        scratch plus ``per_state`` bytes per state; the chunk is then
        filled and charged as states (and those bytes).  Returns
        ``(next_lo, reason)``: ``reason`` is None when the sweep completed,
        else the trip reason, and ``next_lo`` is the first unfilled
        configuration — the honest resume point.
        """
        # Lazy import: repro.harness imports the checkpoint layer, which
        # imports the engine that imports this module.
        from repro.harness import faults

        total = 1 << self.ca.n
        rows = math.prod(out.shape[:-1])
        transient = self.transient_bytes()
        for lo in range(start, total, CHUNK):
            hi = min(lo + CHUNK, total)
            states = rows * (hi - lo)
            nbytes = math.ceil(per_state * states)
            reason = budget.over(pending_bytes=transient + nbytes)
            if reason is not None:
                return lo, reason
            faults.inject("sweep.chunk")
            out[..., sweep_entries(out.dtype, lo, hi)] = fill(lo, hi)
            budget.charge(states=states, bytes_=nbytes)
        return total, None


class NumpyBackend(SweepBackend):
    """The generic window-gather backend: works for every space and rule.

    One bounded chunk = unpack the codes to uint8 bit vectors, gather each
    node's window through the padded window matrix, apply the vectorized
    rule.  This is the reference implementation the compiled backends are
    property-tested against (and the fallback when they do not apply).
    """

    name = "numpy"

    def flips_range(self, lo: int, hi: int) -> np.ndarray:
        ca = self.ca
        # the range as rows of bits, with the trailing quiescent slot: bit
        # n of a code below 2**n is 0
        codes = np.arange(lo, hi, dtype="<u8").view(np.uint8).reshape(-1, 8)
        ext = np.unpackbits(codes, axis=1, count=ca.n + 1, bitorder="little")
        del codes  # not held through the rule
        # node-major bools, padded to whole words, pack straight to rows
        flips = np.zeros((ca.n, (hi - lo + 63) & ~63), dtype=bool)
        for rule, nodes in ca._rule_groups():
            new = rule.apply_windows(ext[:, ca._windows[nodes]], ca._lengths[nodes])
            flips[nodes, : hi - lo] = (new != ext[:, nodes]).T
        return np.packbits(flips, axis=1, bitorder="little").view(np.uint64)

    def transient_bytes(self) -> int:
        ca = self.ca
        k_max = ca._windows.shape[1]
        # Per configuration: ext bits and bool flips (2n + 1), and per node
        # of the widest rule group its inputs and the rule's scratch: int64
        # sums, a decision and two result bytes (18) for a totalistic rule,
        # else int64 inputs and codes.  Sums cast through 64 KiB.
        group = max(
            len(nodes)
            * (k_max + (18 if isinstance(rule, SymmetricRule) else 8 * k_max + 8))
            for rule, nodes in ca._rule_groups()
        )
        return chunk_configs(ca.n) * (2 * ca.n + 1 + group) + (64 << 10)
