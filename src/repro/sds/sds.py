"""Sequential (SDS) and synchronous (SyDS) dynamical systems.

Following Barrett–Mortveit–Reidys: an SDS is a triple ``(G, {f_v}, pi)`` of
an undirected graph, one Boolean function per vertex over the vertex's
*closed* neighborhood (own state included — SDS are always "with memory"),
and a permutation ``pi``.  One application of the SDS map updates the
vertices in ``pi``'s order, each seeing the partially updated state.  The
SyDS drops ``pi`` and updates all vertices simultaneously.

Implementation: vertex updates are exactly the single-node updates of a
:class:`repro.core.CellularAutomaton` over the corresponding
:class:`repro.spaces.GraphSpace`, whose flip words (bit ``x`` of row ``i``:
updating ``i`` changes ``x``) one sweep computes; an SDS map over all
``2**n`` configurations is their composition, ``x ^= flip_i(x) << i`` per
letter — one vectorized gather each, no per-configuration work.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import networkx as nx
import numpy as np

from repro.core.automaton import CellularAutomaton
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.phase_space import PhaseSpace
from repro.core.rules import TableRule, UpdateRule
from repro.spaces.base import FiniteSpace
from repro.spaces.graph import GraphSpace
from repro.util.bitops import xor_flip
from repro.util.orders import is_permutation_word
from repro.util.validation import check_state_vector

__all__ = ["SDS", "SyDS", "VertexFunctions"]

VertexFunctions = UpdateRule | Sequence[UpdateRule]


class SDS:
    """A sequential dynamical system ``(graph, vertex functions, permutation)``.

    ``functions`` may be a single rule (homogeneous SDS) or one rule per
    vertex.  ``permutation`` defaults to the identity order.
    """

    def __init__(
        self,
        graph: nx.Graph | FiniteSpace,
        functions: VertexFunctions,
        permutation: Sequence[int] | None = None,
    ):
        self.space = graph if isinstance(graph, FiniteSpace) else GraphSpace(graph)
        n = self.space.n
        if isinstance(functions, UpdateRule):
            self._ca: CellularAutomaton = CellularAutomaton(
                self.space, functions, memory=True
            )
        else:
            self._ca = HeterogeneousCA(self.space, list(functions), memory=True)
        self.permutation = (
            tuple(range(n)) if permutation is None else tuple(int(i) for i in permutation)
        )
        if not is_permutation_word(self.permutation, n):
            raise ValueError(
                f"{self.permutation} is not a permutation of 0..{n - 1}"
            )
        #: the vertices' flip words once swept, shared by every
        #: :meth:`with_permutation` clone
        self._swept: dict[str, np.ndarray] = {}

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.space.n

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One application of the SDS map (one full sweep in pi's order)."""
        state = check_state_vector(state, self.n)
        for i in self.permutation:
            self._ca.update_node_inplace(state, i)
        return state

    def _compose(self, word: Sequence[int], what: str) -> np.ndarray:
        """The packed map of updating the letters of ``word`` in order:
        each takes ``x`` to ``x ^ flip_i(x) << i``."""
        n = self.n
        if n > 22:
            raise ValueError(f"{what} over 2**{n} configurations is too large")
        if "flips" not in self._swept:
            self._swept["flips"] = self._ca.flips()
        result = np.arange(1 << n, dtype=np.int64)
        for i in map(int, word):
            if not 0 <= i < n:
                raise ValueError(f"word letter {i} out of range for n={n}")
            xor_flip(result, self._swept["flips"][i], i, result)
        return result

    @cached_property
    def global_map(self) -> np.ndarray:
        """The SDS map over all ``2**n`` packed configurations.

        Composed from the vertices' flip words in permutation order —
        ``n`` fancy-indexing passes over ``2**n`` entries.
        """
        return self._compose(self.permutation, "global map")

    def word_map(self, word: Sequence[int]) -> np.ndarray:
        """Global map of an arbitrary update *word* (word-SDS).

        The SDS literature generalises permutation orders to words over
        the vertex set — vertices may repeat or be skipped within a sweep.
        Returns the packed global map of applying the word left to right;
        ``word_map(w1 + w2)`` equals the composition of the two maps.
        """
        return self._compose(word, "word map")

    def phase_space(self) -> PhaseSpace:
        """Deterministic phase space of the (deterministic) SDS map."""
        return PhaseSpace(self.global_map, self.n)

    def map_fingerprint(self) -> bytes:
        """Canonical bytes of the global map, for equality grouping."""
        return self.global_map.tobytes()

    def with_permutation(self, permutation: Sequence[int]) -> "SDS":
        """Same graph and functions under a different update order."""
        clone = SDS.__new__(SDS)
        clone.space = self.space
        clone._ca = self._ca
        clone._swept = self._swept
        perm = tuple(int(i) for i in permutation)
        if not is_permutation_word(perm, self.n):
            raise ValueError(f"{perm} is not a permutation of 0..{self.n - 1}")
        clone.permutation = perm
        return clone

    def describe(self) -> str:
        return f"SDS({self.space.describe()}, pi={self.permutation})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class SyDS:
    """The synchronous counterpart: all vertices update simultaneously."""

    def __init__(self, graph: nx.Graph | FiniteSpace, functions: VertexFunctions):
        self.space = graph if isinstance(graph, FiniteSpace) else GraphSpace(graph)
        if isinstance(functions, UpdateRule):
            self._ca: CellularAutomaton = CellularAutomaton(
                self.space, functions, memory=True
            )
        else:
            self._ca = HeterogeneousCA(self.space, list(functions), memory=True)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.space.n

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One synchronous step."""
        return self._ca.step(state)

    @cached_property
    def global_map(self) -> np.ndarray:
        """The SyDS map over all packed configurations."""
        return self._ca.step_all()

    def phase_space(self) -> PhaseSpace:
        """Deterministic phase space of the SyDS map."""
        return PhaseSpace(self.global_map, self.n)

    def describe(self) -> str:
        return f"SyDS({self.space.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def constant_vertex_functions(space: FiniteSpace, rule: UpdateRule) -> list[TableRule]:
    """Materialise one fixed-arity table per vertex from a symmetric rule.

    Convenience for building heterogeneous SDS that start homogeneous.
    """
    _, lengths = space.windows(True)
    return [rule.with_arity(int(lengths[i])) for i in range(space.n)]
