"""Deterministic phase spaces and the FP/CC/TC classification.

Definition 3 of the paper classifies the configurations of a deterministic
automaton into fixed points (FP), cycle configurations (CC) and transient
configurations (TC) — and observes that determinism makes the three classes
a partition.  :class:`PhaseSpace` materialises the full phase space of a
parallel CA (the functional graph of its global map over all ``2**n``
configurations) and answers every question the paper asks of it: cycles and
their lengths, attractors and basins, unreachable (Garden-of-Eden)
configurations, transient depths.
"""

from __future__ import annotations

from enum import IntEnum
from functools import cached_property

import networkx as nx
import numpy as np

from repro.analysis.cycles import FunctionalGraph
from repro.core.automaton import CellularAutomaton
from repro.core.budget import (
    PHASE_ANALYSIS_BYTES_PER_STATE,
    SUCC_BYTES_PER_STATE,
    Budget,
    BudgetExceeded,
    Partial,
    check_frontier,
    resolve_budget,
)
from repro.obs import span
from repro.perf.base import CHUNK, MAX_SWEEP_N
from repro.util.bitops import config_str

__all__ = ["ConfigClass", "PhaseSpace", "build_phase_space"]

#: extra per-configuration bytes the cycle analysis holds beyond ``succ``
#: (in-degree + peel order int64, on-cycle + classes masks).
_ANALYSIS_EXTRA_PER_STATE = PHASE_ANALYSIS_BYTES_PER_STATE - SUCC_BYTES_PER_STATE


class ConfigClass(IntEnum):
    """Definition 3's configuration types."""

    FIXED_POINT = 0
    CYCLE = 1  # proper cycle configuration, period >= 2
    TRANSIENT = 2


class PhaseSpace:
    """The full phase space of a deterministic automaton.

    Construct with :meth:`from_automaton` (which computes the global map
    vectorized over all configurations) or directly from a packed successor
    array.
    """

    def __init__(self, succ: np.ndarray, n_nodes: int, budget: Budget | None = None):
        succ = np.asarray(succ, dtype=np.int64).ravel()
        if succ.size != 1 << n_nodes:
            raise ValueError(
                f"successor array has {succ.size} entries, expected 2**{n_nodes}"
            )
        self.succ = succ
        self.n_nodes = n_nodes
        self.graph = FunctionalGraph(succ, budget=budget)

    @classmethod
    def from_automaton(
        cls, ca: CellularAutomaton, budget: Budget | None = None
    ) -> "PhaseSpace":
        """Build the synchronous (parallel) phase space of an automaton.

        Governed by ``budget`` (or the ambient budget when None).  A budget
        trip raises :class:`~repro.core.budget.BudgetExceeded` whose
        ``partial`` carries the explored frontier; callers that want the
        truncated result as a value use :func:`build_phase_space` instead.
        """
        partial = build_phase_space(ca, budget=budget)
        if not partial.complete:
            raise BudgetExceeded(partial.reason, partial=partial)
        return partial.value

    @property
    def size(self) -> int:
        """Number of configurations (``2**n``)."""
        return self.succ.size

    # -- Definition 3 ----------------------------------------------------------

    @cached_property
    def classes(self) -> np.ndarray:
        """Per-configuration :class:`ConfigClass`, as an int8 array."""
        out = np.full(self.size, int(ConfigClass.TRANSIENT), dtype=np.int8)
        out[self.graph.on_cycle] = int(ConfigClass.CYCLE)
        out[self.graph.fixed_points] = int(ConfigClass.FIXED_POINT)
        return out

    def classify(self, code: int) -> ConfigClass:
        """The class of one packed configuration."""
        return ConfigClass(int(self.classes[code]))

    @property
    def fixed_points(self) -> np.ndarray:
        """Packed codes of all fixed points."""
        return self.graph.fixed_points

    @property
    def cycle_configs(self) -> np.ndarray:
        """Packed codes of all proper-cycle configurations (period >= 2)."""
        return np.flatnonzero(self.classes == int(ConfigClass.CYCLE))

    @property
    def transient_configs(self) -> np.ndarray:
        """Packed codes of all transient configurations."""
        return np.flatnonzero(self.classes == int(ConfigClass.TRANSIENT))

    # -- cycles and attractors ---------------------------------------------------

    @property
    def cycles(self) -> list[list[int]]:
        """All attractor cycles (fixed points appear as length-1 cycles)."""
        return self.graph.cycles

    @property
    def proper_cycles(self) -> list[list[int]]:
        """Temporal cycles of period >= 2 — what Lemma 1(i) exhibits."""
        return self.graph.proper_cycles

    def has_proper_cycle(self) -> bool:
        """True iff some configuration is on a cycle of period >= 2."""
        return len(self.graph.proper_cycles) > 0

    def cycle_lengths(self) -> list[int]:
        """Sorted multiset of attractor cycle lengths."""
        return sorted(len(c) for c in self.graph.cycles)

    def attractor_of(self, code: int) -> list[int]:
        """The cycle that the orbit of ``code`` eventually enters."""
        return self.graph.cycles[int(self.graph.attractor_of[code])]

    def basin_sizes(self) -> np.ndarray:
        """Basin size per attractor, aligned with :attr:`cycles`."""
        return self.graph.basin_sizes()

    def basin_members(self, attractor_index: int) -> np.ndarray:
        """All configurations draining into attractor ``attractor_index``
        (the attractor's own configurations included), as packed codes."""
        if not 0 <= attractor_index < len(self.cycles):
            raise ValueError(
                f"attractor index {attractor_index} out of range "
                f"(phase space has {len(self.cycles)} attractors)"
            )
        return np.flatnonzero(self.graph.attractor_of == attractor_index)

    def attractor_index_of(self, code: int) -> int:
        """Index into :attr:`cycles` of the attractor ``code`` falls into."""
        return int(self.graph.attractor_of[code])

    def transient_length(self, code: int) -> int:
        """Steps from ``code`` until its orbit first enters its cycle."""
        return int(self.graph.steps_to_cycle[code])

    def max_transient(self) -> int:
        """The deepest transient in the whole phase space."""
        return self.graph.max_transient()

    # -- reachability ------------------------------------------------------------

    @property
    def gardens_of_eden(self) -> np.ndarray:
        """Configurations with no preimage under the global map."""
        return self.graph.gardens_of_eden

    @cached_property
    def _pred_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style inverse of the global map: ``(indptr, order)``.

        ``order`` lists all configurations sorted by successor; the
        predecessors of ``code`` are ``order[indptr[code]:indptr[code+1]]``.
        Built once in O(2**n log 2**n); each query is then O(in-degree)
        instead of a fresh O(2**n) scan of ``succ``.
        """
        order = np.argsort(self.succ, kind="stable").astype(np.int64)
        counts = np.bincount(self.succ, minlength=self.size)
        indptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, order

    def predecessors(self, code: int) -> np.ndarray:
        """All configurations mapping onto ``code`` in one step."""
        if not 0 <= code < self.size:
            raise ValueError(f"configuration code {code} out of range")
        indptr, order = self._pred_index
        return np.sort(order[indptr[code] : indptr[code + 1]])

    def is_stable_attractor(self, code: int) -> bool:
        """Deterministic FPs are always stable sinks: once there, stay there.

        Provided for symmetry with the SCA notion of *pseudo*-fixed points,
        which are not stable; for a deterministic phase space this is just
        fixed-point membership.
        """
        return bool(self.succ[code] == code)

    # -- export ------------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """The phase space as a DiGraph with 0/1-string node labels."""
        g = nx.DiGraph()
        # Vectorized labels: unpack all codes to a (size, n) bit matrix,
        # view each '0'/'1' byte row as one fixed-width bytes scalar.
        codes = np.arange(self.size, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(self.n_nodes, dtype=np.int64)) & 1
        chars = (bits + ord("0")).astype(np.uint8)
        labels = np.ascontiguousarray(chars).view(f"S{self.n_nodes}").ravel()
        g.add_nodes_from(
            (int(code), {"label": label.decode("ascii")})
            for code, label in zip(codes, labels)
        )
        g.add_edges_from(zip(codes.tolist(), self.succ.tolist()))
        return g

    def summary(self) -> dict[str, object]:
        """Headline statistics, as a plain dict (CLI/benchmark friendly)."""
        return {
            "configurations": self.size,
            "fixed_points": int(self.fixed_points.size),
            "proper_cycles": len(self.proper_cycles),
            "cycle_lengths": self.cycle_lengths(),
            "transient_configs": int(self.transient_configs.size),
            "gardens_of_eden": int(self.gardens_of_eden.size),
            "max_transient": self.max_transient(),
        }


def build_phase_space(
    ca: CellularAutomaton,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
) -> Partial[PhaseSpace]:
    """Governed phase-space build: exact, or honestly truncated + resumable.

    Enumerates the global map in bounded chunks, consulting ``budget``
    (explicit, or the ambient one) before each chunk.  Memory accounting
    is deterministic — the build *charges* the bytes the eventual analysis
    will hold (:data:`~repro.core.budget.PHASE_ANALYSIS_BYTES_PER_STATE`
    per configuration) rather than sampling the allocator, so the same
    budget trips at the same configuration on every machine.

    On a trip the returned :class:`~repro.core.budget.Partial` carries the
    filled successor prefix as a resume ``frontier``; persist it with
    :func:`repro.harness.checkpoint.save_frontier` and pass the loaded
    frontier back here to continue.  A resumed frontier's successor array
    is a disk-backed memmap, so the resumed enumeration charges only chunk
    transients and can finish the sweep under the same ceiling — the
    cycle-analysis gate then decides (again deterministically) whether a
    full :class:`PhaseSpace` fits, or returns the streamed statistics
    (fixed-point count) as a complete-enumeration partial.
    """
    budget = resolve_budget(budget)
    n = ca.n
    if n > MAX_SWEEP_N:
        raise ValueError(f"phase space over 2**{n} configurations is too large")
    total = 1 << n
    if frontier is not None:
        check_frontier(frontier, "phase_space", n, ca.describe())
        succ = frontier["succ"]
        start = int(frontier["next_lo"])
        fp_count = int(frontier.get("fixed_points_so_far", 0))
    else:
        succ = np.empty(total, dtype=np.int64)
        start = 0
        fp_count = 0
    # Disk-backed (resumed) successor arrays live outside the memory
    # envelope: only the per-chunk scratch is charged, which is what lets
    # a resume make progress under the very ceiling that truncated it.
    per_state = 0 if isinstance(succ, np.memmap) else PHASE_ANALYSIS_BYTES_PER_STATE

    def _frontier(next_lo: int) -> dict[str, object]:
        return {
            "kind": "phase_space",
            "n": n,
            "automaton": ca.describe(),
            "total": total,
            "next_lo": next_lo,
            "fixed_points_so_far": fp_count,
            "succ": succ,
        }

    with span(
        "phase_space.build", n=n, configs=total, budget=budget.describe()
    ) as build_span:
        with span("phase_space.global_map", n=n, resumed_from=start):
            next_lo, reason = ca.backend.governed_sweep(
                succ,
                budget,
                fill=ca.step_all_range,
                start=start,
                per_state=per_state,
            )
            for lo in range(start, next_lo, CHUNK):
                hi = min(lo + CHUNK, next_lo)
                codes = np.arange(lo, hi, dtype=np.int64)
                fp_count += int(np.count_nonzero(succ[lo:hi] == codes))
            if reason is not None:
                build_span.set(truncated=reason, explored=next_lo)
                return Partial.truncated(
                    reason,
                    explored=next_lo,
                    total=total,
                    stats={"fixed_points_so_far": fp_count},
                    frontier=_frontier(next_lo),
                )
        # Enumeration complete.  Gate the cycle analysis on the *projected*
        # analysis footprint so the FunctionalGraph arrays never OOM: the
        # in-memory path pre-charged the analysis share per state, the
        # disk-backed path must fit the analysis arrays (succ stays on disk).
        analysis_pending = (
            _ANALYSIS_EXTRA_PER_STATE * total if per_state == 0 else 0
        )
        reason = budget.over(pending_bytes=analysis_pending)
        if reason is not None:
            build_span.set(truncated=reason, explored=total)
            return Partial.truncated(
                reason,
                explored=total,
                total=total,
                stats={"fixed_points": fp_count},
                frontier=_frontier(total),
            )
        budget.charge(bytes_=analysis_pending)
        ps = PhaseSpace(succ, n, budget=budget)
        return Partial.done(
            ps, explored=total, total=total, stats={"fixed_points": fp_count}
        )
