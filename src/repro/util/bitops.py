"""Bit-packed configuration codecs.

A global configuration of an ``n``-node Boolean automaton is a vector in
``{0, 1}^n``.  Phase-space algorithms enumerate all ``2**n`` of them, so we
represent configurations both ways:

* as ``numpy.uint8`` vectors (the simulation engines' working format), and
* as Python/NumPy integers whose bit ``i`` is the state of node ``i``
  (the phase-space format: a configuration is an index into dense arrays).

The little-endian convention (node 0 -> bit 0) is used everywhere in the
library; :func:`bits_to_int` and :func:`int_to_bits` are the only places the
convention is spelled out.

The SWAR kernels carry one configuration per *bit lane* instead: lane
``j`` of a ``uint64`` word array is bit ``j % 64`` of word ``j // 64``.
:func:`pack_lanes`, :func:`unpack_lanes` and :func:`lane_counts` convert
between lane words and per-lane values; :func:`flip_lanes` and
:func:`popcount_words` act on whole sets of configurations held as lane
words (the sequential phase space's flip words).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "bits_to_int",
    "int_to_bits",
    "all_configurations",
    "flip_successors",
    "xor_flip",
    "flip_lanes",
    "popcount",
    "popcount_array",
    "popcount_words",
    "rotate_bits",
    "rotate_bits_array",
    "reverse_bits",
    "reverse_bits_array",
    "canonical_ring_form",
    "pack_lanes",
    "unpack_lanes",
    "lane_counts",
    "config_str",
    "parse_config",
]


def bits_to_int(bits: Sequence[int] | np.ndarray) -> int:
    """Pack a 0/1 vector into an integer, node ``i`` -> bit ``i``.

    >>> bits_to_int([1, 0, 1])
    5
    """
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return value


def int_to_bits(value: int, n: int) -> np.ndarray:
    """Unpack an integer into a length-``n`` ``uint8`` vector.

    >>> int_to_bits(5, 4)
    array([1, 0, 1, 0], dtype=uint8)
    """
    if value < 0:
        raise ValueError(f"configuration code must be non-negative, got {value}")
    if n < 0:
        raise ValueError(f"number of nodes must be non-negative, got {n}")
    if value >> n:
        raise ValueError(f"code {value} does not fit in {n} bits")
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        out[i] = (value >> i) & 1
    return out


def all_configurations(n: int) -> np.ndarray:
    """Matrix of all ``2**n`` configurations, shape ``(2**n, n)``, ``uint8``.

    Row ``c`` is ``int_to_bits(c, n)``; the row index doubles as the packed
    configuration code.  Memory is ``2**n * n`` bytes, so this is intended
    for exhaustive phase-space work at ``n <= ~22``.
    """
    if n < 0:
        raise ValueError(f"number of nodes must be non-negative, got {n}")
    if n > 26:
        raise ValueError(
            f"refusing to materialise 2**{n} configurations; "
            "use streaming APIs for large n"
        )
    codes = np.arange(1 << n, dtype=np.uint32 if n <= 31 else np.uint64)
    return ((codes[:, None] >> np.arange(n, dtype=codes.dtype)) & 1).astype(np.uint8)


def flip_successors(words: np.ndarray) -> np.ndarray:
    """The ``(n, 2**n)`` int64 successors ``c ^ (f << i)`` of sequential
    flip words: ``f``, lane ``c`` of row ``i``, says whether updating node
    ``i`` changes configuration ``c``."""
    n = words.shape[0]
    succ = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        axis=1,
        count=1 << n,
        bitorder="little",
    ).astype(np.int64)
    succ <<= np.arange(n, dtype=np.int64)[:, None]
    succ ^= np.arange(1 << n, dtype=np.int64)
    return succ


def xor_flip(out: np.ndarray, words: np.ndarray, i: int, source: np.ndarray) -> None:
    """``out ^= flip_i(source) << i`` in place, ``flip_i`` read from node
    ``i``'s flip ``words`` (``source`` is ``out`` for a sequential step)."""
    bit = unpack_lanes(words, out.size)[source].astype(np.int64)
    bit <<= i
    out ^= bit


#: ``(shift, mask)`` of each ``i < 6``: the shift ``2**i`` and the word
#: mask of the lanes whose bit ``i`` is 0, the low half of every aligned
#: group of ``2 * 2**i`` lanes (0-d arrays: NumPy dispatches them faster
#: than scalars, which tells on one-word spaces)
_HALF_SWAPS = tuple(
    (
        np.array(1 << i, dtype=np.uint64),
        np.array(
            sum(1 << t for t in range(64) if not (t >> i) & 1), dtype=np.uint64
        ),
    )
    for i in range(6)
)


def flip_lanes(words: np.ndarray, i: int) -> np.ndarray:
    """Lane words with the bit of lane ``x`` moved to lane ``x ^ 2**i``
    (along the last axis).

    For ``i < 6`` the partner lanes share a word: a shift and a mask swap
    each word's halves.  For ``i >= 6`` whole blocks of ``2**(i - 6)``
    words swap places.
    """
    if i < 6:
        shift, low = _HALF_SWAPS[i]
        out = words >> shift
        out &= low
        high = words & low
        high <<= shift
        out |= high
        return out
    blocks = words.reshape(*words.shape[:-1], -1, 2, 1 << (i - 6))
    out = np.empty_like(words)
    swapped = out.reshape(blocks.shape)
    swapped[..., 0, :] = blocks[..., 1, :]
    swapped[..., 1, :] = blocks[..., 0, :]
    return out


def popcount(value: int) -> int:
    """Number of set bits of a non-negative integer."""
    if value < 0:
        raise ValueError(f"popcount of negative value {value}")
    return int(value).bit_count()


def popcount_array(codes: np.ndarray) -> np.ndarray:
    """Vectorized popcount over an integer array.

    Uses the SWAR reduction on 64-bit lanes, which is branch-free and keeps
    everything inside NumPy (no Python-level loop over elements).
    """
    v = codes.astype(np.uint64, copy=True)
    # In place, so at most one temporary of the input's size is live.
    t = v >> np.uint64(1)
    t &= np.uint64(0x5555555555555555)
    v -= t
    np.right_shift(v, np.uint64(2), out=t)
    t &= np.uint64(0x3333333333333333)
    v &= np.uint64(0x3333333333333333)
    v += t
    np.right_shift(v, np.uint64(4), out=t)
    v += t
    v &= np.uint64(0x0F0F0F0F0F0F0F0F)
    del t
    v *= np.uint64(0x0101010101010101)
    v >>= np.uint64(56)
    return v.view(np.int64)


def popcount_words(words: np.ndarray) -> int:
    """Number of set bits (lanes) in a ``uint64`` word array."""
    if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: one byte per word
        return int(np.bitwise_count(words).sum())
    return int(popcount_array(words).sum())


def rotate_bits(value: int, n: int, shift: int) -> int:
    """Cyclically rotate the low ``n`` bits of ``value`` left by ``shift``.

    Rotating a ring configuration corresponds to the ring's translation
    symmetry; phase-space code uses this to quotient orbits by rotation.
    """
    if n <= 0:
        raise ValueError(f"bit width must be positive, got {n}")
    if value >> n:
        raise ValueError(f"code {value} does not fit in {n} bits")
    shift %= n
    mask = (1 << n) - 1
    return ((value << shift) | (value >> (n - shift))) & mask


def reverse_bits(value: int, n: int) -> int:
    """Reverse the low ``n`` bits of ``value`` (the ring's mirror symmetry)."""
    if n <= 0:
        raise ValueError(f"bit width must be positive, got {n}")
    if value >> n:
        raise ValueError(f"code {value} does not fit in {n} bits")
    out = 0
    for i in range(n):
        if (value >> i) & 1:
            out |= 1 << (n - 1 - i)
    return out


#: reversed-byte lookup: _BYTE_REV[b] is b with its 8 bits mirrored
_BYTE_REV = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64
)


def rotate_bits_array(codes: np.ndarray, n: int, shift: int) -> np.ndarray:
    """Vectorized :func:`rotate_bits` over a ``uint64`` code array."""
    if n <= 0 or n > 64:
        raise ValueError(f"bit width must be in 1..64, got {n}")
    shift %= n
    v = codes.astype(np.uint64, copy=False)
    if shift == 0:
        return v.copy()
    mask = np.uint64((1 << n) - 1) if n < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    return ((v << np.uint64(shift)) | (v >> np.uint64(n - shift))) & mask


def reverse_bits_array(codes: np.ndarray, n: int) -> np.ndarray:
    """Vectorized :func:`reverse_bits` over a ``uint64`` code array.

    Mirrors the low ``ceil(n / 8)`` bytes of each word via the
    byte-reversal table, then shifts the result down so the low ``n``
    bits land back at bit 0.
    """
    if n <= 0 or n > 64:
        raise ValueError(f"bit width must be in 1..64, got {n}")
    v = codes.astype(np.uint64, copy=False)
    nbytes = (n + 7) // 8
    out = np.zeros_like(v)
    for byte in range(nbytes):
        part = _BYTE_REV[((v >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.int64)]
        out |= part << np.uint64(8 * (nbytes - 1 - byte))
    if n < 8 * nbytes:
        out >>= np.uint64(8 * nbytes - n)
    return out


def canonical_ring_form(
    codes: np.ndarray, n: int, reflections: bool = True
) -> np.ndarray:
    """Least code in each configuration's dihedral (or cyclic) orbit.

    ``2n`` rotate/min passes over the whole array (the minimum over every
    :func:`rotate_bits` of the code and of its :func:`reverse_bits`).
    """
    v = codes.astype(np.uint64, copy=False)
    best = v.copy()
    refl = reverse_bits_array(v, n) if reflections else None
    if refl is not None:
        np.minimum(best, refl, out=best)
    for shift in range(1, n):
        np.minimum(best, rotate_bits_array(v, n, shift), out=best)
        if refl is not None:
            np.minimum(best, rotate_bits_array(refl, n, shift), out=best)
    return best


#: rows :func:`lane_counts` unpacks byte-wise instead of adding them in
#: its adder tree (so rings of up to this many nodes never enter the tree)
LANE_COUNT_TAIL_ROWS = 32


def pack_lanes(bools: np.ndarray) -> np.ndarray:
    """Per-lane booleans to ``uint64`` words, zero-padded to whole words."""
    if bools.size % 64:
        bools = np.concatenate([bools, np.zeros(-bools.size % 64, dtype=bools.dtype)])
    return np.packbits(bools, bitorder="little").view(np.uint64)


def unpack_lanes(words: np.ndarray, lanes: int) -> np.ndarray:
    """The first ``lanes`` per-lane booleans of ``uint64`` lane words."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), count=lanes, bitorder="little"
    ).view(bool)


def _add_unpacked(out: np.ndarray, digits: list[np.ndarray]) -> None:
    """``out += sum_k 2**k * column sums of digits[k]`` (per lane)."""
    lanes = out.size
    for k, rows in enumerate(digits):
        bits = np.unpackbits(
            np.ascontiguousarray(rows).view(np.uint8), axis=1, bitorder="little"
        )[:, :lanes]
        out += bits.sum(axis=0, dtype=np.int64) << k


def lane_counts(planes: np.ndarray, lanes: int) -> np.ndarray:
    """Per-lane column sums (int64) of a ``(rows, nwords)`` lane-word array.

    A bit-sliced adder tree.  The rows are binary numbers held as
    little-endian digit planes (one digit to start with); each level adds
    the top half of the rows to the bottom half by ripple-carry addition,
    two numpy ops on the lowest digit plane and five on each higher one,
    and grows one digit for the carry out.
    An odd last row, and the at most :data:`LANE_COUNT_TAIL_ROWS` rows
    left at the end, are unpacked and added digit by digit at their place
    values, so the count is exact.
    """
    out = np.zeros(lanes, dtype=np.int64)
    digits = [planes]
    while digits[0].shape[0] > LANE_COUNT_TAIL_ROWS:
        rows = digits[0].shape[0]
        if rows % 2:
            _add_unpacked(out, [d[-1:] for d in digits])
        half = rows // 2
        summed, carry = [], None
        for d in digits:
            a, b = d[:half], d[half : 2 * half]
            if carry is None:  # half adder
                summed.append(a ^ b)
                carry = a & b
            else:  # full adder
                t = a ^ b
                summed.append(t ^ carry)
                t &= carry
                carry = a & b
                carry |= t
        summed.append(carry)
        digits = summed
    _add_unpacked(out, digits)
    return out


def config_str(value: int, n: int) -> str:
    """Render a packed configuration as a left-to-right 0/1 string.

    Node 0 is the leftmost character, matching the paper's notation for
    configurations such as ``...010101...``.

    >>> config_str(5, 4)
    '1010'
    """
    return "".join("1" if (value >> i) & 1 else "0" for i in range(n))


def parse_config(text: str | Iterable[int]) -> np.ndarray:
    """Parse a 0/1 string (or iterable of bits) into a ``uint8`` vector.

    >>> parse_config("0110")
    array([0, 1, 1, 0], dtype=uint8)
    """
    if isinstance(text, str):
        bits = []
        for ch in text:
            if ch in "01":
                bits.append(int(ch))
            elif ch in " _,":
                continue
            else:
                raise ValueError(f"invalid character {ch!r} in configuration string")
        return np.array(bits, dtype=np.uint8)
    arr = np.asarray(list(text), dtype=np.uint8)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("configuration must be a flat 0/1 sequence")
    return arr
