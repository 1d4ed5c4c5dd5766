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
(:func:`repro.util.bitops.canonical_ring_form`).  Enumeration over a code
range uses a progressive filter — survivors of ``c <= rot_s(c)`` are
compacted before the next rotation is tried — so the whole-space scan
costs about ``2**n · ln n`` word operations rather than ``2**n · 2n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.bitops import reverse_bits_array, rotate_bits_array

__all__ = [
    "QuotientSpec",
    "quotient_mode",
    "orbit_reps_in_range",
    "orbit_weights",
]

#: widest window whose truth table the mirror-symmetry probe will build
#: (matches the LUT materialization gate in ``UpdateRule.lut``)
_MAX_PROBE_WIDTH = 16


def _rotation_filter(surv: np.ndarray, n: int) -> np.ndarray:
    """Survivors that are minimal among all their rotations."""
    for shift in range(1, n):
        if surv.size == 0:
            break
        surv = surv[surv <= rotate_bits_array(surv, n, shift)]
    return surv


def _reflection_filter(surv: np.ndarray, n: int) -> np.ndarray:
    """Survivors also minimal among all rotations of their reflection.

    Split out as a named seam: dropping this stage (while keeping
    dihedral weights) double-counts every chiral orbit — the known-bad
    mutant ``quotient-reflection-drop`` in :mod:`repro.qa.mutants`.
    """
    if surv.size == 0:
        return surv
    refl = reverse_bits_array(surv, n)
    keep = np.ones(surv.size, dtype=bool)
    for shift in range(n):
        keep &= surv <= rotate_bits_array(refl, n, shift)
    return surv[keep]


def orbit_reps_in_range(
    n: int, lo: int, hi: int, reflections: bool = True
) -> np.ndarray:
    """Canonical orbit representatives among codes ``lo .. hi - 1``.

    A code is a representative iff it equals its own canonical form, so
    restricting to a range is exact: the union over a partition of
    ``[0, 2**n)`` is the full representative set, which is what lets the
    process backend shard representative enumeration by code range.
    """
    if hi <= lo:
        return np.empty(0, dtype=np.uint64)
    full = (1 << n) - 1
    # A representative other than the all-ones ring has some 0 bit, hence
    # a rotation below 2**(n-1): prune the whole upper half up front.
    half = 1 << (n - 1)
    if lo >= half:
        return (
            np.array([full], dtype=np.uint64)
            if lo <= full < hi
            else np.empty(0, dtype=np.uint64)
        )
    surv = np.arange(lo, min(hi, half), dtype=np.uint64)
    surv = _rotation_filter(surv, n)
    if reflections:
        surv = _reflection_filter(surv, n)
    if lo <= full < hi:
        surv = np.concatenate([surv, np.array([full], dtype=np.uint64)])
    return surv


def orbit_weights(
    reps: np.ndarray, n: int, reflections: bool = True
) -> np.ndarray:
    """Orbit size of each canonical representative.

    The cyclic orbit size is the minimal rotation period ``p`` (the least
    divisor ``d`` of ``n`` with ``rot_d(r) == r``); the dihedral orbit is
    ``p`` when the orbit is achiral (its reflection is one of its own
    rotations) and ``2p`` otherwise.  Summed over all representatives the
    weights recover ``2**n`` exactly — the coverage identity the qa
    differential check enforces.
    """
    reps = reps.astype(np.uint64, copy=False)
    period = np.full(reps.size, n, dtype=np.int64)
    for d in range(1, n):
        if n % d:
            continue
        fixed = rotate_bits_array(reps, n, d) == reps
        period[fixed & (period == n)] = d
    if not reflections:
        return period
    # Achiral iff the rotation-canonical form of the reflection is the
    # representative itself (representatives are rotation-minimal).
    refl = reverse_bits_array(reps, n)
    best = refl.copy()
    for shift in range(1, n):
        np.minimum(best, rotate_bits_array(refl, n, shift), out=best)
    achiral = best == reps
    return np.where(achiral, period, 2 * period)


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

    @property
    def reflections(self) -> bool:
        return self.mode == "dihedral"

    def reps_in_range(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(representatives, orbit weights)`` for codes ``lo .. hi - 1``."""
        if self.mode == "trivial":
            reps = np.arange(lo, hi, dtype=np.uint64)
            return reps, np.ones(reps.size, dtype=np.int64)
        reps = orbit_reps_in_range(self.n, lo, hi, self.reflections)
        return reps, orbit_weights(reps, self.n, self.reflections)

    def describe(self) -> str:
        return f"{self.mode} quotient (n={self.n})"
