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
* ``profile`` — a carry-save adder sums the input planes into binary
  count planes, then the totalistic count profile (MAJORITY, simple
  threshold, any :class:`~repro.core.rules.SymmetricRule`) is an OR of
  count minterms — 64 configurations per bitwise op;
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


def eval_bit_kernel(
    kernel: tuple, inputs: list[np.ndarray], nwords: int
) -> np.ndarray:
    """Evaluate a lowered bitwise kernel over arbitrary input planes.

    ``inputs`` need not come from consecutive-code generation — the
    attractor kernel feeds *trajectory* planes through the very same
    lowering the sweep backend compiled, so both paths share one
    arithmetic implementation.
    """
    kind, data = kernel
    if kind == "parity":
        out = np.zeros(nwords, dtype=np.uint64)
        for plane in inputs:
            out ^= plane
        return out
    if kind == "profile":
        sums = _popcount_planes(inputs, nwords)
        ones = np.flatnonzero(data)
        # Evaluate whichever side of the profile has fewer minterms.
        if ones.size * 2 > data.size:
            zeros = np.flatnonzero(data == 0)
            return ~_minterm_or(zeros, sums, nwords, len(sums))
        return _minterm_or(ones, sums, nwords, len(sums))
    # kind == "table": sum-of-products over the raw input planes.
    ones = np.flatnonzero(data)
    if ones.size * 2 > data.size:
        zeros = np.flatnonzero(data == 0)
        return ~_minterm_or(zeros, inputs, nwords, len(inputs))
    return _minterm_or(ones, inputs, nwords, len(inputs))


def _popcount_planes(planes: list[np.ndarray], nwords: int) -> list[np.ndarray]:
    """Binary count planes (little-endian) of per-bit sums of ``planes``.

    A ripple-carry counter: adding each input plane to the running binary
    counter costs two bitwise ops per existing count plane, so the whole
    sum is ``O(k log k)`` word operations for ``k`` inputs.
    """
    sums: list[np.ndarray] = []
    for plane in planes:
        carry = plane.copy()
        for s in range(len(sums)):
            sums[s], carry = sums[s] ^ carry, sums[s] & carry
        if len(sums) < max(1, len(planes)).bit_length():
            sums.append(carry)
    if not sums:
        sums.append(np.zeros(nwords, dtype=np.uint64))
    return sums


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
        # cache and adder/minterm scratch, or the encoder (two int64s, a row)
        return chunk_configs(n) * (n // 8 + 1 + max((n + 1) // 8 + 5, 17))
