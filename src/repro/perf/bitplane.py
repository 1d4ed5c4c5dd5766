"""Bit-plane (SWAR) sweep backend: 64 configurations per machine word.

A chunk of consecutive configuration codes ``lo .. hi-1`` is represented
as ``n`` *bit planes*: plane ``j`` is a ``uint64`` array whose word ``w``,
bit ``t``, holds bit ``j`` of configuration ``lo + 64*w + t``.  Because
the codes are consecutive, every input plane is free to generate — plane
``j < 6`` is a constant repeating pattern and plane ``j >= 6`` is
constant within each word — so the sweep never unpacks configurations at
all.  Each node's rule is lowered to a pure bitwise kernel
(:func:`lower_bit_kernel`):

* ``parity`` — XOR of the input planes (the paper's XOR rule);
* ``profile`` — a totalistic count profile (MAJORITY, simple
  threshold, any :class:`~repro.core.rules.SymmetricRule`) from
  at-least-``j`` count planes, one AND and one OR per input and level,
  XORed at the counts where the profile changes value; a threshold or
  MAJORITY rule is the single level ``count >= theta`` (4 word ops for
  MAJORITY-3) — 64 configurations per bitwise op;
* ``table`` — small fixed-arity truth tables (elementary/Wolfram rules)
  as a sum-of-products over the input planes.

Throughput is an order of magnitude over the gather path for exactly the
rules the paper studies.  A range is padded out to whole 64-configuration
words (:meth:`BitplaneBackend.flips_range`), so any ``n`` runs, down to
Fig. 1's 2-node XOR.  Rules with no lowering are rejected by ``supports``
and the ``auto`` policy falls back to the numpy backend.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.perf.base import BackendUnsupported, SweepBackend, chunk_configs

__all__ = [
    "BitplaneBackend",
    "lower_bit_kernel",
    "lower_nodes",
    "eval_bit_kernel",
    "MAX_SOP_WIDTH",
]

#: widest window lowered as a raw truth-table sum-of-products (2**6 = 64
#: minterms; wider non-totalistic rules run on the numpy backend)
MAX_SOP_WIDTH = 6

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: word patterns of bit-plane j < 6 for consecutive codes: bit t of the
#: word is ``(t >> j) & 1``.
_LOW_PATTERNS = (
    np.uint64(0xAAAAAAAAAAAAAAAA),
    np.uint64(0xCCCCCCCCCCCCCCCC),
    np.uint64(0xF0F0F0F0F0F0F0F0),
    np.uint64(0xFF00FF00FF00FF00),
    np.uint64(0xFFFF0000FFFF0000),
    np.uint64(0xFFFFFFFF00000000),
)


def lower_bit_kernel(rule, width: int):
    """Lower ``rule`` at ``width`` to a bitwise kernel spec, or ``None``.

    Returns ``("parity", None)``, ``("profile", profile)`` or
    ``("table", lut)``; ``None`` when the rule has no bitwise lowering at
    this width (non-totalistic and wider than :data:`MAX_SOP_WIDTH`).
    """
    profile = rule.count_profile(width)
    if profile is not None:
        profile = np.asarray(profile, dtype=np.uint8)
        if np.array_equal(profile, np.arange(width + 1) % 2):
            return ("parity", None)
        return ("profile", profile)
    if width <= MAX_SOP_WIDTH:
        try:
            return ("table", np.asarray(rule.lut(width), dtype=np.uint8))
        except ValueError:
            return None
    return None


def lower_nodes(ca):
    """Every node's lowered kernel and input window, or why not.

    Returns ``(kernels, windows)`` — per node ``i`` the
    :func:`lower_bit_kernel` spec of its rule (lowered once per distinct
    rule and width) and its window of ``ca._lengths[i]`` source bits — or
    the reason string for the first node whose rule has no lowering.
    """
    lowered: dict[tuple[int, int], tuple | None] = {}
    kernels: list[tuple] = []
    windows: list[np.ndarray] = []
    for i in range(ca.n):
        rule = ca.rule_at(i)
        width = int(ca._lengths[i])
        key = (id(rule), width)
        if key not in lowered:
            lowered[key] = lower_bit_kernel(rule, width)
        if lowered[key] is None:
            return (
                f"node {i}: rule {rule.name} has no bitwise lowering "
                f"at window width {width}"
            )
        kernels.append(lowered[key])
        windows.append(np.asarray(ca._windows[i][:width], dtype=np.int64))
    return kernels, windows


def _minterm_or(
    selected: np.ndarray,
    planes: list[np.ndarray],
    nwords: int,
    nbits: int,
) -> np.ndarray:
    """OR of the minterms ``selected`` over ``nbits`` of ``planes``."""
    out = np.zeros(nwords, dtype=np.uint64)
    for code in selected.tolist():
        term = np.full(nwords, _ONES, dtype=np.uint64)
        for b in range(nbits):
            term &= planes[b] if (code >> b) & 1 else ~planes[b]
        out |= term
    return out


def _count_profile(
    profile: np.ndarray, inputs: list[np.ndarray], nwords
) -> np.ndarray:
    """``profile[count of ones]`` per bit, by at-least-``j`` levels.

    Level ``j`` is the plane of ``count >= j`` over the inputs seen so
    far; an input ``x`` lifts it as ``ge[j] |= x & ge[j - 1]``, top level
    first (level 0 is all ones).  The profile changes value exactly at its
    transition counts ``t``, so it is ``profile[0]`` XOR every ``ge[t]``,
    and only the levels some transition can still reach are kept: those in
    ``[t_min - inputs left, min(inputs seen, t_max)]``.  A step profile
    (every threshold and MAJORITY rule) is the one level ``ge[theta]``.
    Inputs are only read; the result is a fresh array.
    """
    p = profile.tolist()
    steps = [t for t in range(1, len(p)) if p[t] != p[t - 1]]
    if not steps:
        return np.full(nwords, _ONES if p[0] else 0, dtype=np.uint64)
    k, t_min, t_max = len(inputs), steps[0], steps[-1]
    first = inputs[0]
    ge = {1: first}  # every level but this first one is a buffer of ours
    spare: list[np.ndarray] = []  # our buffers that no level holds
    for m in range(2, k + 1):
        x = inputs[m - 1]
        lo = max(1, t_min - (k - m))
        for j in range(min(m, t_max), lo - 1, -1):
            if j == 1:
                g = ge[1]
                ge[1] = np.bitwise_or(g, x, out=None if g is first else g)
                continue
            below = ge[j - 1]
            if j - 1 < lo and below is not first:
                lift = np.bitwise_and(below, x, out=below)  # its last read
            else:
                lift = np.bitwise_and(below, x, out=spare.pop() if spare else None)
            g = ge.get(j)
            if g is None:  # the new top level
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


def eval_bit_kernel(
    kernel: tuple, inputs: list[np.ndarray], nwords: int
) -> np.ndarray:
    """Evaluate a lowered bitwise kernel over arbitrary input planes.

    ``inputs`` need not come from consecutive-code generation — the
    attractor kernel feeds *trajectory* planes through the very same
    lowering the sweep backend compiled, so both paths share one
    arithmetic implementation.  ``nwords`` is the planes' shape (an int,
    or ``(rows, words)`` for node-major blocks); the inputs are never
    written, and the result is a fresh array.
    """
    kind, data = kernel
    if kind == "parity":
        out = np.zeros(nwords, dtype=np.uint64)
        for plane in inputs:
            out ^= plane
        return out
    if kind == "profile":
        return _count_profile(data, inputs, nwords)
    # kind == "table": sum-of-products over the raw input planes.
    ones = np.flatnonzero(data)
    if ones.size * 2 > data.size:
        zeros = np.flatnonzero(data == 0)
        return ~_minterm_or(zeros, inputs, nwords, len(inputs))
    return _minterm_or(ones, inputs, nwords, len(inputs))


class BitplaneBackend(SweepBackend):
    """SWAR kernels over 64-configuration words."""

    name = "bitplane"

    @classmethod
    def supports(cls, ca) -> str | None:
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            return "bit-plane packing assumes a little-endian host"
        lowered = lower_nodes(ca)
        return lowered if isinstance(lowered, str) else None

    def __init__(self, ca):
        super().__init__(ca)
        reason = self.supports(ca)
        if reason is not None:
            raise BackendUnsupported(
                f"bitplane backend cannot run {ca.describe()}: {reason}"
            )
        self._kernels, self._windows = lower_nodes(ca)

    # -- plane generation ------------------------------------------------------

    def _plane(
        self, j: int, lo: int, nwords: int, cache: dict[int, np.ndarray]
    ) -> np.ndarray:
        """Input plane of configuration bit ``j`` for an aligned chunk."""
        plane = cache.get(j)
        if plane is not None:
            return plane
        if j == self.ca.n:  # quiescent sentinel slot: always 0
            plane = np.zeros(nwords, dtype=np.uint64)
        elif j < 6:
            plane = np.full(nwords, _LOW_PATTERNS[j], dtype=np.uint64)
        else:
            words = (lo >> 6) + np.arange(nwords, dtype=np.int64)
            plane = np.where(
                (words >> (j - 6)) & 1 == 1, _ONES, np.uint64(0)
            )
        cache[j] = plane
        return plane

    # -- the kernel --------------------------------------------------------------

    def flips_range(self, lo: int, hi: int) -> np.ndarray:
        # A short last word is padded: for n < 6 its padding codes lie
        # past 2**n; they are computed and zeroed.
        nwords = (hi - lo + 63) >> 6
        cache: dict[int, np.ndarray] = {}  # each input plane once per chunk
        flips = np.empty((self.ca.n, nwords), dtype=np.uint64)
        for i, (kernel, window) in enumerate(zip(self._kernels, self._windows)):
            inputs = [self._plane(int(src), lo, nwords, cache) for src in window]
            # The new bit XOR the node's own plane is its flip word.
            np.bitwise_xor(
                eval_bit_kernel(kernel, inputs, nwords),
                self._plane(i, lo, nwords, cache),
                out=flips[i],
            )
        if (hi - lo) & 63:
            flips[:, -1] &= np.uint64((1 << ((hi - lo) & 63)) - 1)
        return flips

    # The base encoders, bound here too: the repository benchmark's tracer
    # patches ``BitplaneBackend.step_all_range`` and
    # ``.node_successors_range`` by name.
    step_all_range = SweepBackend.step_all_range
    node_successors_range = SweepBackend.node_successors_range

    def transient_bytes(self) -> int:
        n = self.ca.n
        # the flip words (n/8 per configuration) beside the input-plane
        # cache and count-level/minterm scratch, or the encoder (two int64s,
        # a row)
        return chunk_configs(n) * (n // 8 + 1 + max((n + 1) // 8 + 5, 17))
