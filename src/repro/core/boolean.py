"""Boolean-function toolkit.

The paper's results hinge on structural properties of local update rules:
*symmetry* (totalistic rules), *monotonicity*, and *linear-threshold
representability*.  :class:`BooleanFunction` wraps a truth table and decides
each property; the enumeration helpers generate exactly the rule classes the
theorems quantify over (e.g. Theorem 1's "all monotone symmetric Boolean
rules").

Input convention: a ``k``-ary function's input ``j`` is bit ``j`` of the
truth-table index, matching :func:`repro.util.bitops.bits_to_int`.  For 1-D
windows this means input 0 is the leftmost cell of the window.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property

import numpy as np

from repro.util.bitops import popcount
from repro.util.validation import check_positive

__all__ = [
    "BooleanFunction",
    "all_boolean_functions",
    "symmetric_functions",
    "monotone_symmetric_functions",
    "majority_function",
    "threshold_count_function",
    "xor_function",
    "wolfram_table",
]

_MAX_ARITY = 20  # 2**20-entry tables; beyond this the dense table explodes


class BooleanFunction:
    """A Boolean function of fixed arity, stored as a dense truth table.

    >>> f = BooleanFunction([0, 0, 0, 1])   # AND of two inputs
    >>> f.evaluate([1, 1])
    1
    >>> f.is_monotone() and f.is_symmetric()
    True
    """

    def __init__(self, table: Sequence[int] | np.ndarray):
        tab = np.asarray(table, dtype=np.uint8).ravel()
        size = tab.size
        if size == 0 or size & (size - 1):
            raise ValueError(f"truth table length must be a power of two, got {size}")
        if not np.all(tab <= 1):
            raise ValueError("truth table entries must be 0 or 1")
        self.table = tab
        self.table.setflags(write=False)
        self.arity = int(size).bit_length() - 1
        if self.arity > _MAX_ARITY:
            raise ValueError(f"arity {self.arity} too large for a dense table")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Apply the function to a bit sequence of length ``arity``."""
        if len(inputs) != self.arity:
            raise ValueError(
                f"expected {self.arity} inputs, got {len(inputs)}"
            )
        code = 0
        for j, b in enumerate(inputs):
            if b:
                code |= 1 << j
        return int(self.table[code])

    def __call__(self, *inputs: int) -> int:
        return self.evaluate(inputs)

    def apply_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized lookup by packed input code."""
        return self.table[codes]

    # -- structural properties ----------------------------------------------

    @cached_property
    def _counts(self) -> np.ndarray:
        idx = np.arange(self.table.size, dtype=np.uint32)
        counts = np.zeros(self.table.size, dtype=np.int64)
        for j in range(self.arity):
            counts += (idx >> j) & 1
        return counts

    def is_constant(self) -> bool:
        """True for the two constant functions."""
        return bool(np.all(self.table == self.table[0]))

    def is_symmetric(self) -> bool:
        """True iff the value depends only on the number of ones.

        Symmetric rules are exactly the *totalistic* CA rules of the paper.
        """
        for c in range(self.arity + 1):
            vals = self.table[self._counts == c]
            if vals.size and not np.all(vals == vals[0]):
                return False
        return True

    def is_monotone(self) -> bool:
        """True iff ``x <= y`` (bitwise) implies ``f(x) <= f(y)``.

        Checked over all covering pairs, which suffices by transitivity.
        """
        size = self.table.size
        for x in range(size):
            fx = self.table[x]
            for j in range(self.arity):
                if not (x >> j) & 1 and fx > self.table[x | (1 << j)]:
                    return False
        return True

    def count_profile(self) -> tuple[int, ...]:
        """For symmetric functions: output per ones-count ``0..arity``."""
        if not self.is_symmetric():
            raise ValueError("count_profile() requires a symmetric function")
        out = []
        for c in range(self.arity + 1):
            vals = self.table[self._counts == c]
            out.append(int(vals[0]))
        return tuple(out)

    def as_count_threshold(self) -> int | None:
        """If monotone symmetric, the threshold ``T`` with f=1 iff count>=T.

        Every monotone symmetric Boolean function is a count threshold:
        ``T = 0`` is the constant 1, ``T = arity + 1`` the constant 0.
        Returns ``None`` for functions outside the class.
        """
        if not self.is_symmetric():
            return None
        profile = self.count_profile()
        # Monotone symmetric <=> profile is 0...0 1...1.
        ones_started = False
        threshold = self.arity + 1
        for c, v in enumerate(profile):
            if v and not ones_started:
                ones_started = True
                threshold = c
            elif not v and ones_started:
                return None
        return threshold

    def threshold_representation(
        self,
    ) -> tuple[np.ndarray, float] | None:
        """Weights/threshold realising f as a linear threshold function.

        Solves the separation LP: find ``w, theta`` with ``w.x >= theta``
        whenever ``f(x) = 1`` and ``w.x <= theta - 1`` whenever ``f(x) = 0``
        (the unit margin is without loss of generality by scaling).  Returns
        ``None`` when the LP is infeasible — i.e. the function is *not* a
        linear threshold function (e.g. XOR).
        """
        # Imported here: only this LP needs scipy.optimize, a 0.5 s import.
        from scipy.optimize import linprog

        k = self.arity
        size = self.table.size
        # Variables: w_0..w_{k-1}, theta.  Constraints in A_ub @ v <= b_ub.
        rows, rhs = [], []
        idx = np.arange(size)
        bits = ((idx[:, None] >> np.arange(k)) & 1).astype(float)
        for x in range(size):
            if self.table[x]:
                # -(w.x) + theta <= 0
                rows.append(np.concatenate([-bits[x], [1.0]]))
                rhs.append(0.0)
            else:
                # w.x - theta <= -1
                rows.append(np.concatenate([bits[x], [-1.0]]))
                rhs.append(-1.0)
        result = linprog(
            c=np.zeros(k + 1),
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            bounds=[(None, None)] * (k + 1),
            method="highs",
        )
        if not result.success:
            return None
        weights = result.x[:k]
        theta = float(result.x[k])
        return weights, theta

    def is_linear_threshold(self) -> bool:
        """True iff some weight vector and threshold realise the function."""
        return self.threshold_representation() is not None

    def preserves_quiescence(self) -> bool:
        """True iff the all-zero input maps to 0 (Definition 1's quiescent state)."""
        return int(self.table[0]) == 0

    # -- algebra -------------------------------------------------------------

    def negate(self) -> "BooleanFunction":
        """Pointwise complement."""
        return BooleanFunction(1 - self.table)

    def dual(self) -> "BooleanFunction":
        """The dual ``x -> not f(not x)``; self-dual iff equal to self."""
        size = self.table.size
        flipped = np.empty_like(self.table)
        for x in range(size):
            flipped[x] = 1 - self.table[(size - 1) ^ x]
        return BooleanFunction(flipped)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.arity == other.arity and bool(np.all(self.table == other.table))

    def __hash__(self) -> int:
        return hash((self.arity, self.table.tobytes()))

    def __repr__(self) -> str:
        bits = "".join(map(str, self.table.tolist()))
        if len(bits) > 16:
            bits = bits[:16] + "..."
        return f"BooleanFunction(arity={self.arity}, table={bits})"


# -- enumeration ------------------------------------------------------------


def all_boolean_functions(arity: int) -> Iterator[BooleanFunction]:
    """All ``2**(2**arity)`` Boolean functions; sensible only for arity <= 4."""
    check_positive(arity, "arity")
    if arity > 4:
        raise ValueError(f"2**(2**{arity}) functions is too many to enumerate")
    size = 1 << arity
    for code in range(1 << size):
        table = [(code >> i) & 1 for i in range(size)]
        yield BooleanFunction(table)


def symmetric_functions(arity: int) -> Iterator[BooleanFunction]:
    """All ``2**(arity+1)`` symmetric (totalistic) functions of given arity."""
    check_positive(arity, "arity")
    idx = np.arange(1 << arity, dtype=np.uint32)
    counts = np.zeros(1 << arity, dtype=np.int64)
    for j in range(arity):
        counts += (idx >> j) & 1
    for code in range(1 << (arity + 1)):
        profile = np.array([(code >> c) & 1 for c in range(arity + 1)], dtype=np.uint8)
        yield BooleanFunction(profile[counts])


def threshold_count_function(arity: int, threshold: int) -> BooleanFunction:
    """The monotone symmetric function ``f(x) = [count(x) >= threshold]``.

    ``threshold = 0`` gives the constant 1; ``threshold = arity + 1`` the
    constant 0.
    """
    check_positive(arity, "arity")
    if not 0 <= threshold <= arity + 1:
        raise ValueError(
            f"threshold must be in 0..{arity + 1}, got {threshold}"
        )
    idx = np.arange(1 << arity, dtype=np.uint32)
    counts = np.zeros(1 << arity, dtype=np.int64)
    for j in range(arity):
        counts += (idx >> j) & 1
    return BooleanFunction((counts >= threshold).astype(np.uint8))


def monotone_symmetric_functions(arity: int) -> Iterator[BooleanFunction]:
    """Exactly the ``arity + 2`` monotone symmetric functions of given arity.

    These are the count-threshold functions — the class Theorem 1
    quantifies over.
    """
    for threshold in range(arity + 2):
        yield threshold_count_function(arity, threshold)


def majority_function(arity: int) -> BooleanFunction:
    """Strict majority: fires iff more than half the inputs are 1.

    For odd arity (the paper's with-memory windows) there are no ties and
    this is *the* MAJORITY rule; for even arity ties resolve to 0.
    """
    return threshold_count_function(arity, arity // 2 + 1)


def xor_function(arity: int) -> BooleanFunction:
    """Parity of the inputs — symmetric but *not* monotone.

    The paper's Section 3.1 warm-up example rule.
    """
    check_positive(arity, "arity")
    idx = np.arange(1 << arity, dtype=np.uint32)
    counts = np.zeros(1 << arity, dtype=np.int64)
    for j in range(arity):
        counts += (idx >> j) & 1
    return BooleanFunction((counts % 2).astype(np.uint8))


def wolfram_table(rule_number: int) -> BooleanFunction:
    """Elementary (radius-1, with-memory) CA rule in Wolfram numbering.

    Wolfram indexes neighborhoods ``(left, self, right)`` as the big-endian
    value ``4*left + 2*self + right``; our tables index inputs little-endian
    (input 0 = leftmost).  This is the one place the conversion happens.
    """
    if not 0 <= rule_number <= 255:
        raise ValueError(f"Wolfram rule number must be in 0..255, got {rule_number}")
    table = np.zeros(8, dtype=np.uint8)
    for code in range(8):
        left, centre, right = code & 1, (code >> 1) & 1, (code >> 2) & 1
        wolfram_index = 4 * left + 2 * centre + right
        table[code] = (rule_number >> wolfram_index) & 1
    return BooleanFunction(table)


def popcount_of_index(x: int) -> int:
    """Popcount helper re-exported for symmetry with the table indexing."""
    return popcount(x)
