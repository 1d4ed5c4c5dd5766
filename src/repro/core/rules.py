"""Local update rules (the CA "software" of Definition 2).

Two families:

* **Table rules** — arbitrary Boolean functions of a fixed-width window,
  applied by packed-code lookup.  This covers Wolfram's elementary rules and
  the XOR example of the paper's Section 3.1.
* **Symmetric (totalistic) rules** — the value depends only on the *count*
  of ones in the window, so one rule object applies uniformly to windows of
  any width (rings of any radius, grids, hypercubes, irregular graphs).
  MAJORITY and the simple-threshold rules — the paper's protagonists — live
  here.

Both families implement the same two-method interface: scalar
:meth:`UpdateRule.evaluate` for sequential single-node updates and the exact
semantics, and vectorized :meth:`UpdateRule.apply_windows` used by the
synchronous engine (one call handles every node of every configuration in a
batch — no Python loop on the hot path, per the HPC guide).

Two *lowerings* feed the compiled sweep backends (:mod:`repro.perf`):

* :meth:`UpdateRule.count_profile` exposes the count profile of totalistic
  rules — threshold/majority/parity rules become pure bitwise kernels over
  64-configuration words;
* :meth:`UpdateRule.lut` materialises the rule at a concrete window width
  as a ``2**k`` lookup table — the ``bitplane`` backend turns narrow
  non-totalistic tables (elementary rules) into sums of products.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.boolean import (
    BooleanFunction,
    majority_function,
    threshold_count_function,
    wolfram_table,
    xor_function,
)
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "UpdateRule",
    "TableRule",
    "WolframRule",
    "SymmetricRule",
    "MajorityRule",
    "SimpleThresholdRule",
    "XorRule",
    "TotalisticRule",
    "OuterTotalisticRule",
    "life_rule",
]


class UpdateRule(ABC):
    """Abstract local update rule.

    :attr:`arity` is the required window width, or ``None`` when the rule is
    count-based and accepts any width.
    """

    #: window width the rule requires; None = any width (symmetric rules)
    arity: int | None = None

    @abstractmethod
    def evaluate(self, inputs: Sequence[int]) -> int:
        """The next state for one window of current states (0/1 ints)."""

    @abstractmethod
    def apply_windows(self, inputs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Vectorized application.

        ``inputs`` has shape ``(..., k_max)`` with zero padding beyond each
        window's true length; ``lengths`` has shape ``(n,)``, broadcastable
        against the leading dimensions, giving true window widths.  Returns
        a ``uint8`` array of shape ``inputs.shape[:-1]``.
        """

    @property
    def name(self) -> str:
        return type(self).__name__

    def truth_table(self, arity: int | None = None) -> BooleanFunction:
        """Materialise the rule at a concrete arity as a BooleanFunction."""
        k = arity if arity is not None else self.arity
        if k is None:
            raise ValueError("symmetric rule needs an explicit arity")
        if self.arity is not None and k != self.arity:
            raise ValueError(f"rule has fixed arity {self.arity}, requested {k}")
        check_non_negative(k, "arity")
        idx = np.arange(1 << k, dtype=np.uint32)
        table = np.empty(1 << k, dtype=np.uint8)
        for code in range(1 << k):
            bits = [(code >> j) & 1 for j in range(k)]
            table[code] = self.evaluate(bits)
        del idx
        return BooleanFunction(table)

    def with_arity(self, arity: int) -> "UpdateRule":
        """A fixed-arity view of the rule (needed by the infinite line)."""
        return TableRule(self.truth_table(arity), name=f"{self.name}[{arity}]")

    # -- lowerings for the compiled sweep backends -----------------------------

    def lut(self, width: int) -> np.ndarray:
        """The rule at window width ``width`` as a ``2**width`` uint8 table.

        Entry ``c`` is the next state for the window whose input ``j`` is
        bit ``j`` of ``c`` (little-endian, matching the packed-code
        convention everywhere else).  Subclasses override this with
        vectorized constructions; the generic fallback enumerates the
        truth table scalar by scalar, so it is gated to small widths.
        """
        if width > 20:
            raise ValueError(
                f"refusing to materialise a 2**{width}-entry lookup table"
            )
        return self.truth_table(width).table

    def count_profile(self, width: int) -> np.ndarray | None:
        """``profile[c]`` = next state when exactly ``c`` of ``width``
        inputs are 1, or ``None`` when the rule is not totalistic at this
        width.  Totalistic rules are exactly what the ``bitplane`` backend
        lowers to count-profile kernels (at-least-``j`` count planes)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class TableRule(UpdateRule):
    """Arbitrary fixed-arity rule given by a truth table.

    The window must have uniform width ``arity`` on every node (quiescent
    boundary slots count — they read 0), which every 1-D space guarantees.
    """

    def __init__(self, function: BooleanFunction | Sequence[int], name: str | None = None):
        if not isinstance(function, BooleanFunction):
            function = BooleanFunction(function)
        self.function = function
        self.arity = function.arity
        self._name = name or f"TableRule(arity={self.arity})"
        # Precomputed little-endian place values for packed-code lookup.
        self._weights = (1 << np.arange(self.arity, dtype=np.int64))

    def evaluate(self, inputs: Sequence[int]) -> int:
        return self.function.evaluate(inputs)

    def apply_windows(self, inputs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        if inputs.shape[-1] != self.arity or not np.all(lengths == self.arity):
            raise ValueError(
                f"{self._name} needs uniform windows of width {self.arity}; "
                f"got widths {np.unique(lengths).tolist()}"
            )
        codes = inputs.astype(np.int64) @ self._weights
        return self.function.table[codes]

    def lut(self, width: int) -> np.ndarray:
        if width != self.arity:
            raise ValueError(
                f"{self._name} has fixed arity {self.arity}, requested "
                f"width {width}"
            )
        return self.function.table

    def count_profile(self, width: int) -> np.ndarray | None:
        if width != self.arity or not self.function.is_symmetric():
            return None
        # Symmetric: any representative of each count works; use the
        # all-low-bits code ``(1 << c) - 1`` which has popcount ``c``.
        reps = (1 << np.arange(width + 1, dtype=np.int64)) - 1
        return self.function.table[reps]

    @property
    def name(self) -> str:
        return self._name

    def is_monotone(self) -> bool:
        return self.function.is_monotone()

    def is_symmetric(self) -> bool:
        return self.function.is_symmetric()


class WolframRule(TableRule):
    """Elementary CA rule (radius 1, with memory) in Wolfram numbering.

    Notable instances: rule 232 is MAJORITY, rule 150 is 3-input XOR.
    """

    def __init__(self, rule_number: int):
        super().__init__(wolfram_table(rule_number), name=f"WolframRule({rule_number})")
        self.rule_number = rule_number


class SymmetricRule(UpdateRule):
    """Base for count-based (totalistic) rules of arbitrary window width."""

    arity: int | None = None

    @abstractmethod
    def decide(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Next states from ones-counts and window widths (vectorized)."""

    def evaluate(self, inputs: Sequence[int]) -> int:
        if self.arity is not None and len(inputs) != self.arity:
            raise ValueError(
                f"{self.name} has fixed arity {self.arity}, got {len(inputs)} inputs"
            )
        count = np.asarray(int(sum(int(b) for b in inputs)))
        length = np.asarray(len(inputs))
        return int(self.decide(count, length))

    def apply_windows(self, inputs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        if self.arity is not None and not np.all(lengths == self.arity):
            raise ValueError(
                f"{self.name} has fixed arity {self.arity}; "
                f"got widths {np.unique(lengths).tolist()}"
            )
        counts = inputs.sum(axis=-1, dtype=np.int64)
        return self.decide(counts, np.broadcast_to(lengths, counts.shape))

    def _check_width(self, width: int) -> None:
        if self.arity is not None and width != self.arity:
            raise ValueError(
                f"{self.name} has fixed arity {self.arity}, requested "
                f"width {width}"
            )

    def lut(self, width: int) -> np.ndarray:
        from repro.util.bitops import popcount_array

        self._check_width(width)
        if width > 20:
            raise ValueError(
                f"refusing to materialise a 2**{width}-entry lookup table"
            )
        counts = popcount_array(np.arange(1 << width, dtype=np.int64))
        lengths = np.full(counts.shape, width, dtype=np.int64)
        return self.decide(counts, lengths).astype(np.uint8)

    def count_profile(self, width: int) -> np.ndarray | None:
        self._check_width(width)
        counts = np.arange(width + 1, dtype=np.int64)
        lengths = np.full(width + 1, width, dtype=np.int64)
        return self.decide(counts, lengths).astype(np.uint8)


class MajorityRule(SymmetricRule):
    """Strict MAJORITY: next state 1 iff more than half the inputs are 1.

    With-memory 1-D windows have odd width ``2r + 1``, so no ties arise and
    this is exactly the paper's MAJORITY rule.  For even windows the
    ``ties`` policy applies: ``'zero'`` (default) breaks ties to 0,
    ``'one'`` to 1 — both keep the rule monotone symmetric.
    """

    def __init__(self, ties: str = "zero", arity: int | None = None):
        if ties not in ("zero", "one"):
            raise ValueError(f"ties must be 'zero' or 'one', got {ties!r}")
        self.ties = ties
        if arity is not None:
            check_non_negative(arity, "arity")
        self.arity = arity

    def decide(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        doubled = 2 * counts
        if self.ties == "zero":
            return (doubled > lengths).astype(np.uint8)
        return (doubled >= lengths).astype(np.uint8)

    @property
    def name(self) -> str:
        suffix = "" if self.ties == "zero" else ", ties=one"
        return f"MajorityRule({suffix.lstrip(', ')})" if suffix else "MajorityRule()"


class SimpleThresholdRule(SymmetricRule):
    """``k``-threshold rule: next state 1 iff at least ``threshold`` inputs are 1.

    This is the general monotone symmetric rule (every monotone symmetric
    Boolean function is of this form); MAJORITY is the special case
    ``threshold = floor(width/2) + 1``.
    """

    def __init__(self, threshold: int, arity: int | None = None):
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = threshold
        if arity is not None:
            check_non_negative(arity, "arity")
        self.arity = arity

    def decide(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return (counts >= self.threshold).astype(np.uint8)

    @property
    def name(self) -> str:
        return f"SimpleThresholdRule(threshold={self.threshold})"


class XorRule(SymmetricRule):
    """Parity rule — symmetric but non-monotone.

    The paper's Section 3.1 uses the two-input with-memory version (each
    node XORs its own state with its only neighbor's).
    """

    def __init__(self, arity: int | None = None):
        if arity is not None:
            check_non_negative(arity, "arity")
        self.arity = arity

    def decide(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return (counts % 2).astype(np.uint8)

    @property
    def name(self) -> str:
        return "XorRule()"


class TotalisticRule(SymmetricRule):
    """Fixed-arity totalistic rule given by its count profile.

    ``profile[c]`` is the next state when exactly ``c`` inputs are 1.
    """

    def __init__(self, profile: Sequence[int]):
        prof = np.asarray(profile, dtype=np.uint8).ravel()
        if prof.size < 1:
            raise ValueError("profile needs at least 1 entry (arity >= 0)")
        if not np.all(prof <= 1):
            raise ValueError("profile entries must be 0 or 1")
        self.profile = prof
        self.profile.setflags(write=False)
        self.arity = prof.size - 1

    def decide(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        return self.profile[counts]

    @property
    def name(self) -> str:
        return f"TotalisticRule({''.join(map(str, self.profile.tolist()))})"


def majority_table_rule(arity: int) -> TableRule:
    """MAJORITY at a fixed arity, as a table rule (for cross-validation)."""
    return TableRule(majority_function(arity), name=f"MajorityTable[{arity}]")


def threshold_table_rule(arity: int, threshold: int) -> TableRule:
    """Count-threshold at a fixed arity, as a table rule."""
    return TableRule(
        threshold_count_function(arity, threshold),
        name=f"ThresholdTable[{arity},{threshold}]",
    )


def xor_table_rule(arity: int) -> TableRule:
    """Parity at a fixed arity, as a table rule."""
    return TableRule(xor_function(arity), name=f"XorTable[{arity}]")


def OuterTotalisticRule(
    degree: int,
    birth: Sequence[int],
    survive: Sequence[int],
    self_position: int = 0,
    name: str | None = None,
) -> TableRule:
    """Outer-totalistic rule: next state from (own state, neighbor count).

    The classic Game-of-Life family: a dead cell becomes alive iff its
    live-neighbor count is in ``birth``; a live cell stays alive iff the
    count is in ``survive``.  Materialised as a fixed-arity table over the
    with-memory window, so it plugs into every engine unchanged.

    ``self_position`` is the index of the node's own state inside its
    window: 0 for graph-like spaces (grids, hypercubes, arbitrary graphs),
    ``r`` for 1-D spaces of radius ``r`` (their windows are ordered left
    to right).  ``degree`` is the number of neighbors, so the window width
    is ``degree + 1``.
    """
    check_positive(degree, "degree")
    width = degree + 1
    if not 0 <= self_position < width:
        raise ValueError(
            f"self_position {self_position} outside window of width {width}"
        )
    birth_set = set(int(b) for b in birth)
    survive_set = set(int(s) for s in survive)
    for count in birth_set | survive_set:
        if not 0 <= count <= degree:
            raise ValueError(f"neighbor count {count} exceeds degree {degree}")
    table = np.zeros(1 << width, dtype=np.uint8)
    for code in range(1 << width):
        me = (code >> self_position) & 1
        neighbors = bin(code & ~(1 << self_position)).count("1")
        alive = neighbors in (survive_set if me else birth_set)
        table[code] = int(alive)
    label = name or (
        f"OuterTotalistic(B{''.join(map(str, sorted(birth_set)))}/"
        f"S{''.join(map(str, sorted(survive_set)))}, degree={degree})"
    )
    return TableRule(BooleanFunction(table), name=label)


def life_rule(degree: int = 8, self_position: int = 0) -> TableRule:
    """Conway's Game of Life (B3/S23), for Moore-neighborhood grids."""
    return OuterTotalisticRule(
        degree, birth=(3,), survive=(2, 3), self_position=self_position,
        name=f"GameOfLife(degree={degree})",
    )
