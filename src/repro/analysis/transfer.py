"""Exact fixed-point and two-cycle counts of ring automata by transfer matrix.

A configuration of an ``n``-node ring is a fixed point of a homogeneous
radius-``r`` automaton ``F`` exactly when every window agrees with its own
centre: ``f(x[i + o] for o in offsets) == x[i]`` at every node ``i``.
Read the ring as a closed walk of length ``n`` in the de Bruijn graph over
``2r``-bit windows, with an edge ``x[i-r .. i+r-1] -> x[i-r+1 .. i+r]``
only when the ``(2r+1)``-bit window it spans satisfies that constraint.
Closed walks of length ``n`` are exactly the ``n``-periodic words, so

    #Fix(F) = trace(T**n)

for the 0/1 transfer matrix ``T`` of that graph.  The same construction
over the composed radius-``2r`` rule of ``F∘F`` counts ``#Fix(F²)``, and
``#Fix(F²) - #Fix(F)`` is the number of configurations on cycles of length
exactly two.  For threshold rules every cycle has length at most two
(Goles–Martinez, the paper's Prop. 1), so that difference is also the
census's ``cycle_configs``.

``T`` is built only from ``rule.lut(width)`` and the ring's window offsets:
nothing here shares code with the SWAR kernels, Brent detection or the
symmetry quotient, which is what makes it an independent oracle for the
attractor census at every ``n`` up to ``MAX_ATTRACTOR_N`` and beyond.
Each row of ``T`` has at most two ones, so entries of ``T**k`` are at most
``2**k`` and ``int64`` matrix powers are exact for ``n <= MAX_TRANSFER_N``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_TRANSFER_N",
    "TransferCounts",
    "ring_rule",
    "composed_rule",
    "transfer_matrix",
    "trace_power",
    "transfer_counts",
]

#: largest ring whose matrix-power trace is exact in int64 (entries of
#: ``T**n`` are at most ``2**n``)
MAX_TRANSFER_N = 62


@dataclass(frozen=True)
class TransferCounts:
    """``#Fix(F)`` and ``#Fix(F²)`` of one ``n``-node ring automaton."""

    n: int
    fixed_points: int
    period2_points: int

    @property
    def two_cycle_configs(self) -> int:
        """Configurations on cycles of length exactly two."""
        return self.period2_points - self.fixed_points


def ring_rule(ca) -> tuple[np.ndarray, tuple[int, ...]]:
    """``(lut, offsets)`` of a homogeneous ring automaton.

    ``offsets[j]`` is the signed ring offset that the rule's input ``j``
    reads (``lut`` index bit ``j``).  Node 0's window indices are taken
    mod ``n``; a ring has ``n >= 2r + 1``, so every offset ``|o| <= r``
    has one signed representative.
    """
    from repro.spaces.line import Ring

    if not isinstance(ca.space, Ring):
        raise ValueError(
            f"transfer matrices need a ring, got {ca.space.describe()}"
        )
    groups = ca._rule_groups()
    if len(groups) != 1:
        raise ValueError("transfer matrices need a homogeneous rule")
    n, r = ca.n, ca.space.radius
    window = ca.space.input_window(0, ca.memory)
    offsets = tuple(j if j <= r else j - n for j in window)
    lut = np.asarray(groups[0][0].lut(len(offsets)), dtype=np.uint8)
    return lut, offsets


def _window_bits(width: int) -> np.ndarray:
    """``bits[c, k]`` = bit ``k`` of code ``c``, for every ``width``-bit code."""
    codes = np.arange(1 << width, dtype=np.int64)
    return (codes[:, None] >> np.arange(width, dtype=np.int64)) & 1


def _apply(
    lut: np.ndarray, offsets, bits: np.ndarray, centre: int
) -> np.ndarray:
    """The rule applied around column ``centre`` of ``bits`` (a row per word)."""
    index = np.zeros(bits.shape[0], dtype=np.int64)
    for j, o in enumerate(offsets):
        index |= bits[:, centre + o] << j
    return lut[index].astype(np.int64)


def composed_rule(
    lut: np.ndarray, offsets
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``(lut, offsets)`` of ``F∘F``: radius ``2r``, offsets ``-2r .. 2r``.

    Input ``k`` of the composed rule reads offset ``k - 2r``.  Its value
    is ``f`` applied to the images ``F(x)[i + o]``, each of which is ``f``
    of the cells around ``i + o``.
    """
    r = max(abs(o) for o in offsets)
    wide = 4 * r + 1
    bits = _window_bits(wide)
    centre = 2 * r
    image = np.stack(
        [_apply(lut, offsets, bits, centre + o) for o in range(-r, r + 1)],
        axis=1,
    )
    out = _apply(lut, offsets, image, r)
    return out.astype(np.uint8), tuple(range(-2 * r, 2 * r + 1))


def transfer_matrix(lut: np.ndarray, offsets) -> np.ndarray:
    """0/1 de Bruijn transfer matrix of the fixed-point constraint.

    States are ``2R``-bit words (``R`` the largest offset), bit ``k``
    holding the cell at ``k - R`` relative to the window centre.  The
    ``(2R+1)``-bit word ``w`` spans the edge ``w & (2**2R - 1) -> w >> 1``,
    present iff the rule maps ``w`` to its centre bit.
    """
    r = max(abs(o) for o in offsets)
    bits = _window_bits(2 * r + 1)
    keep = _apply(lut, offsets, bits, r) == bits[:, r]
    words = np.flatnonzero(keep)
    size = 1 << (2 * r)
    mat = np.zeros((size, size), dtype=np.int64)
    mat[words & (size - 1), words >> 1] = 1
    return mat


def trace_power(mat: np.ndarray, n: int) -> int:
    """``trace(mat**n)`` by binary powering (exact for ``n <= MAX_TRANSFER_N``)."""
    if not 1 <= n <= MAX_TRANSFER_N:
        raise ValueError(f"n={n} outside 1..{MAX_TRANSFER_N}")
    result = np.eye(mat.shape[0], dtype=np.int64)
    base = mat.astype(np.int64)
    while n:
        if n & 1:
            result = result @ base
        n >>= 1
        if n:
            base = base @ base
    return int(np.trace(result))


def transfer_counts(ca) -> TransferCounts:
    """``#Fix(F)`` and ``#Fix(F²)`` of a homogeneous ring automaton."""
    lut, offsets = ring_rule(ca)
    n = ca.n
    fix1 = trace_power(transfer_matrix(lut, offsets), n)
    fix2 = trace_power(transfer_matrix(*composed_rule(lut, offsets)), n)
    return TransferCounts(n=n, fixed_points=fix1, period2_points=fix2)
