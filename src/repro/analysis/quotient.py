"""Dihedral symmetry quotients of configuration space.

A homogeneous rule on a ring commutes with the ring's symmetry group:
rotations always, reflections exactly when the local rule is
mirror-symmetric in its window.  Fixed-point-ness,
cycle membership and cycle length are therefore *class functions* — they
agree across a whole orbit — so an exact attractor census only needs one
representative per orbit, weighted by the orbit size.  That is a ~2n×
reduction in work, and it is what lifts the attractor-direct census past
the materialized ``MAX_SWEEP_N`` ceiling.

Representatives are *canonical*: the numerically least code in the orbit
(:func:`repro.util.bitops.canonical_ring_form`).  Read most-significant
bit first, a code that is least among its rotations is a *necklace*, and
:func:`necklaces_in_range` generates necklaces instead of testing codes,
by the Fredricksen–Kessler–Maiorana rule (Ruskey, Savage & Wang,
"Generating necklaces", J. Algorithms 1992): a prenecklace
``a_1 .. a_t`` of period ``p`` extends only by ``a_{t+1} >= a_{t+1-p}``,
keeping ``p`` on equality and taking ``p = t + 1`` above it, and a
length-``n`` prenecklace is a necklace iff ``p | n``, ``p`` then being
its rotation period — the cyclic orbit size.  A code range splits into
aligned power-of-two blocks; a block whose fixed top bits are no
prenecklace holds no necklace and costs one Python pass over them, and
every other block extends level by level in numpy over its free low
bits.  The work is proportional to the prenecklaces in range — about
``2**n / n`` over the whole space — not to the ``2**n`` codes.

For the dihedral quotient one pass over the necklaces,
:func:`_reflection_pass`, keeps a necklace iff it is at most the least
rotation of its reversal, and weights it ``p`` when the two are equal
(an achiral orbit) and ``2p`` otherwise.  Summed over all
representatives the weights recover ``2**n`` exactly — the coverage
identity the census checks at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.bitops import reverse_bits_array, rotate_bits_array

__all__ = [
    "QuotientSpec",
    "quotient_mode",
    "necklaces_in_range",
]

#: widest window whose truth table the mirror-symmetry probe will build
#: (matches the LUT materialization gate in ``UpdateRule.lut``)
_MAX_PROBE_WIDTH = 16

#: necklaces per slice of the reflection pass (its word arrays stay in a
#: per-core L2 cache)
_REFLECT_SLICE = 1 << 15

#: bytes :meth:`QuotientSpec.reps_in_range` holds per code of its range at
#: its peak.  Every necklace but ``0**n`` ends in a 1 bit, so a range of
#: ``c`` codes holds at most ``c/2 + 1`` necklaces, and the generator's
#: last level extends at most ``c/2`` words.  That level holds at most 22
#: bytes per word and 10 per child, and the reflection pass at most 27
#: per necklace; the trivial quotient's codes and unit weights take 16.
_BYTES_PER_CODE = 16

#: the reflection pass's per-slice scratch: the reversal plus the three
#: temporaries of one rotation (four slice-sized arrays at peak, the
#: byte-table reversal needing fewer), with two slices of headroom
_REFLECT_SCRATCH = 6 * 8 * _REFLECT_SLICE


def _prefix_period(prefix: int, m: int) -> int:
    """Period of the ``m``-bit prenecklace ``prefix`` (read most-significant
    bit first), or 0 when ``prefix`` is no prenecklace.

    The empty prefix has period 1, so the first generated bit compares
    against a virtual ``a_0 = 0`` and both of its values keep ``p = 1``.
    """
    p = 1
    for t in range(2, m + 1):
        bit = (prefix >> (m - t)) & 1
        ref = (prefix >> (m - t + p)) & 1
        if bit < ref:
            return 0
        if bit > ref:
            p = t
    return p


def _aligned_blocks(lo: int, hi: int):
    """``(base, k)`` for the maximal aligned blocks ``[base, base + 2**k)``
    that tile ``[lo, hi)``, in ascending order."""
    while lo < hi:
        k = (lo & -lo).bit_length() - 1 if lo else (hi - lo).bit_length() - 1
        while lo + (1 << k) > hi:
            k -= 1
        yield lo, k
        lo += 1 << k


def _extend(
    words: np.ndarray, periods: np.ndarray, length: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Extend ascending length-``length`` prenecklaces to the necklaces
    of length ``n`` they prefix: ``(codes ascending, periods)``.

    ``a_{t-p}`` is bit ``p - 1`` of a length-``(t-1)`` word.  Every word
    extends by that bit, keeping ``p``; a word whose bit is 0 also extends
    by 1, with ``p = t``.  Emitting each word's children in place keeps
    the level ascending: ``2w`` and ``2w + 1`` sit between the children
    of the words around ``w``.  The last level emits only children whose
    period divides ``n``.
    """
    divides = np.array([d > 0 and n % d == 0 for d in range(n + 1)])
    one = np.uint64(1)
    for t in range(length + 1, n + 1):
        ref = words >> (periods - np.uint8(1))
        ref &= one
        words <<= one
        words |= ref
        count = ref.view(np.int64)  # reuses ref's buffer
        if t < n:
            np.subtract(2, count, out=count)
        else:
            keep = divides[periods]
            up = ref == 0
            lone = up & ~keep  # its only necklace child is 2w + 1, period n
            words |= lone
            periods = np.where(lone, np.uint8(n), periods)
            np.add(keep, up, out=count, dtype=np.int64)
            del keep, up, lone
        # A zero bit's two children start equal (2w) and the second
        # becomes 2w + 1 with period t.
        words = np.repeat(words, count)
        periods = np.repeat(periods, count)
        del ref, count
        second = words[1:] == words[:-1]
        words[1:] |= second
        periods[1:][second] = t
    return words, periods


def necklaces_in_range(
    n: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Necklaces among codes ``lo .. hi - 1``: ``(codes ascending, periods)``.

    Codes are ``uint64``; periods (``uint8``) are each necklace's rotation
    period, so its cyclic orbit holds exactly that many codes.  A code is
    a necklace iff it is the least of its rotations, so restricting to a
    range is exact: the union over a partition of ``[0, 2**n)`` is every
    necklace, which is what lets the process backend shard enumeration by
    code range.
    """
    codes, periods = [], []
    for base, k in _aligned_blocks(max(lo, 0), min(hi, 1 << n)):
        m = n - k
        p = _prefix_period(base >> k, m)
        if p == 0 or (k == 0 and n % p):
            continue  # no prenecklace, or a whole word that is no necklace
        words, per = _extend(
            np.array([base >> k], dtype=np.uint64),
            np.array([p], dtype=np.uint8),
            m,
            n,
        )
        codes.append(words)
        periods.append(per)
    if not codes:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8)
    if len(codes) == 1:
        return codes[0], periods[0]
    return np.concatenate(codes), np.concatenate(periods)


def _least_reversal_rotation(
    codes: np.ndarray, n: int, out: np.ndarray
) -> None:
    """``out`` = the least rotation of each code's ``n``-bit reversal."""
    refl = reverse_bits_array(codes, n)
    out[:] = refl
    for shift in range(1, n):
        np.minimum(out, rotate_bits_array(refl, n, shift), out=out)


def _reflection_pass(
    necklaces: np.ndarray, periods: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dihedral ``(representatives, weights)`` from necklaces and periods.

    ``best`` is the least rotation of each necklace's reversal: a necklace
    represents its dihedral orbit iff it is at most ``best``, and the
    orbit is achiral (weight ``p``) iff the two are equal, else ``2p``.
    ``best`` is built over cache-sized slices.  Split out as a named
    seam: keeping every necklace here while still weighting dihedrally
    double-counts each chiral orbit — the known-bad mutant
    ``quotient-reflection-drop`` in :mod:`repro.qa.mutants`.
    """
    best = np.empty_like(necklaces)
    for lo in range(0, necklaces.size, _REFLECT_SLICE):
        hi = lo + _REFLECT_SLICE
        _least_reversal_rotation(necklaces[lo:hi], n, best[lo:hi])
    keep = necklaces <= best
    chiral = (necklaces != best)[keep]
    del best
    weights = periods[keep].astype(np.int64)
    weights[chiral] <<= 1
    return necklaces[keep], weights


def _mirror_symmetric(rule, width: int) -> bool:
    """Is the rule invariant under reversing its input window?

    Ring windows list neighbours in ascending offset order (see
    ``repro.spaces.line``), so reversing the window's input bits *is* the
    spatial mirror.  Totalistic rules (a count profile exists) are mirror
    symmetric by construction; otherwise probe the truth table.
    """
    if rule.count_profile(width) is not None:
        return True
    if width > _MAX_PROBE_WIDTH:
        return False
    try:
        lut = np.asarray(rule.lut(width), dtype=np.uint8)
    except ValueError:
        return False
    codes = np.arange(1 << width, dtype=np.uint64)
    return bool(np.array_equal(lut, lut[reverse_bits_array(codes, width)]))


def quotient_mode(ca) -> str:
    """The largest symmetry quotient valid for this automaton.

    ``"dihedral"`` for a homogeneous ring with a mirror-symmetric rule,
    ``"cyclic"`` for a homogeneous ring with an asymmetric rule, and
    ``"trivial"`` (no quotient — every code is its own representative)
    otherwise.  Validity is structural: only symmetries the global map
    provably commutes with are used, so the quotiented census is exact by
    construction, never heuristically.
    """
    from repro.spaces.line import Ring

    if not isinstance(ca.space, Ring):
        return "trivial"
    groups = ca._rule_groups()
    if len(groups) != 1:
        return "trivial"
    rule = groups[0][0]
    width = int(ca._lengths[0])
    if int(ca._lengths.min()) != width or int(ca._lengths.max()) != width:
        return "trivial"  # pragma: no cover - rings always have equal widths
    return "dihedral" if _mirror_symmetric(rule, width) else "cyclic"


@dataclass(frozen=True)
class QuotientSpec:
    """One chosen symmetry quotient of an ``n``-node configuration space."""

    n: int
    mode: str  # "trivial" | "cyclic" | "dihedral"

    def __post_init__(self):
        if self.mode not in ("trivial", "cyclic", "dihedral"):
            raise ValueError(f"unknown quotient mode {self.mode!r}")

    @classmethod
    def for_automaton(cls, ca) -> "QuotientSpec":
        return cls(ca.n, quotient_mode(ca))

    def reps_in_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(representatives ascending, orbit weights)`` for codes
        ``lo .. hi - 1``."""
        if self.mode == "trivial":
            reps = np.arange(lo, hi, dtype=np.uint64)
            return reps, np.ones(reps.size, dtype=np.int64)
        necklaces, periods = necklaces_in_range(self.n, lo, hi)
        if self.mode == "cyclic":
            return necklaces, periods.astype(np.int64)
        return _reflection_pass(necklaces, periods, self.n)

    def scratch_bytes(self, codes: int) -> int:
        """Most bytes :meth:`reps_in_range` holds for a ``codes``-code range."""
        if self.mode == "trivial":
            return _BYTES_PER_CODE * codes
        return _BYTES_PER_CODE * codes + _REFLECT_SCRATCH

    def describe(self) -> str:
        return f"{self.mode} quotient (n={self.n})"
