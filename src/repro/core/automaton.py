"""The cellular automaton engine.

A :class:`CellularAutomaton` pairs a finite cellular space with a local
update rule (Definition 2 of the paper).  It exposes:

* :meth:`step` — one synchronous (classical, parallel) global step, fully
  vectorized: one gather through the space's window matrix plus one
  vectorized rule application;
* :meth:`update_node` / :meth:`node_next` — the sequential primitive, a
  single node update (the "basic operation" whose interleavings the paper
  studies);
* :meth:`step_all` / :meth:`node_successors` — the same two maps applied to
  *all* ``2**n`` configurations at once, producing the packed successor
  arrays that the phase-space machinery consumes.  Work is chunked so peak
  memory stays bounded regardless of ``n``.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import BudgetExceeded, resolve_budget
from repro.core.rules import UpdateRule
from repro.perf.base import MAX_SWEEP_N, flip_row_words
from repro.spaces.base import FiniteSpace
from repro.util.bitops import bits_to_int, flip_successors, int_to_bits
from repro.util.validation import check_node_index, check_state_vector

__all__ = ["CellularAutomaton"]


class CellularAutomaton:
    """A Boolean cellular automaton over a finite cellular space.

    Parameters
    ----------
    space:
        The cellular space (ring, line, grid, hypercube, graph, ...).
    rule:
        The local update rule applied at every node (homogeneous CA).
    memory:
        If True (the paper's default), a node's own state is part of its
        rule's window; if False the node sees only its neighbors.
    backend:
        Sweep-backend name (``auto``, ``bitplane``, ``numpy``,
        ``process``) for the whole-space sweeps; None defers to the
        ``REPRO_BACKEND`` env var and then the ``auto`` policy.  See
        :mod:`repro.perf`.
    workers:
        Worker-process count for the ``process`` backend (None: the
        ``REPRO_WORKERS`` env var, then the CPU count).
    """

    def __init__(
        self,
        space: FiniteSpace,
        rule: UpdateRule,
        memory: bool = True,
        backend: str | None = None,
        workers: int | None = None,
    ):
        self.space = space
        self.rule = rule
        self.memory = memory
        self._windows, self._lengths = space.windows(memory)
        if rule.arity is not None:
            widths = np.unique(self._lengths)
            if widths.size != 1 or widths[0] != rule.arity:
                raise ValueError(
                    f"rule {rule.name} has arity {rule.arity} but space "
                    f"{space.describe()} has window widths {widths.tolist()}"
                )
        self._init_backend(backend, workers)

    def _init_backend(self, backend: str | None, workers: int | None) -> None:
        """Record the backend selection; construction is lazy (the compiled
        backend does real work — kernel lowering — that pure-dynamics
        callers never need), but an explicit bad name fails fast here."""
        if backend is not None:
            from repro.perf import _check_name

            backend = _check_name(backend)
        self._backend_spec = backend
        self._workers = workers
        self._backend = None

    @property
    def backend(self):
        """The bound :class:`~repro.perf.SweepBackend` (built on first use)."""
        if self._backend is None:
            from repro.perf import resolve_backend

            self._backend = resolve_backend(
                self, self._backend_spec, self._workers
            )
        return self._backend

    def rule_at(self, i: int) -> UpdateRule:
        """The local rule of node ``i`` (uniform here; heterogeneous CAs
        override this — it is the per-node contract the backends compile)."""
        return self.rule

    def _rule_groups(self) -> list[tuple[UpdateRule, np.ndarray]]:
        """``(rule, nodes)`` batches for vectorized application — one batch
        for a homogeneous automaton."""
        return [(self.rule, np.arange(self.n, dtype=np.int64))]

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.space.n

    def describe(self) -> str:
        mem = "memory" if self.memory else "memoryless"
        return f"CA[{self.space.describe()}, {self.rule.name}, {mem}]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    # -- packing helpers -----------------------------------------------------

    def pack(self, state: np.ndarray) -> int:
        """Packed integer code of a state vector."""
        return bits_to_int(state)

    def unpack(self, code: int) -> np.ndarray:
        """State vector of a packed configuration code."""
        return int_to_bits(code, self.n)

    # -- synchronous (parallel) dynamics --------------------------------------

    def step(self, state: np.ndarray) -> np.ndarray:
        """One synchronous global step: every node updates simultaneously."""
        state = check_state_vector(state, self.n)
        ext = np.concatenate([state, np.zeros(1, dtype=np.uint8)])
        inputs = ext[self._windows]  # (n, k_max)
        return self.rule.apply_windows(inputs, self._lengths).astype(np.uint8)

    def step_naive(self, state: np.ndarray) -> np.ndarray:
        """Reference synchronous step with explicit Python loops.

        Semantically identical to :meth:`step`; kept as the correctness
        oracle for property tests and as the baseline in the
        vectorization-ablation benchmark.
        """
        state = check_state_vector(state, self.n)
        out = np.empty(self.n, dtype=np.uint8)
        for i in range(self.n):
            window = self.space.input_window(i, self.memory)
            inputs = [0 if j < 0 else int(state[j]) for j in window]
            out[i] = self.rule.evaluate(inputs)
        return out

    def trajectory_steps(self, state: np.ndarray, steps: int) -> np.ndarray:
        """Stack of ``steps + 1`` synchronous states, row 0 the input."""
        state = check_state_vector(state, self.n)
        out = np.empty((steps + 1, self.n), dtype=np.uint8)
        out[0] = state
        for t in range(steps):
            out[t + 1] = self.step(out[t])
        return out

    # -- sequential dynamics ---------------------------------------------------

    def node_next(self, state: np.ndarray, i: int) -> int:
        """The value node ``i`` would take if it updated now."""
        check_node_index(i, self.n)
        state = check_state_vector(state, self.n)
        window = self.space.input_window(i, self.memory)
        inputs = [0 if j < 0 else int(state[j]) for j in window]
        return self.rule.evaluate(inputs)

    def update_node(self, state: np.ndarray, i: int) -> np.ndarray:
        """Sequential step: a fresh state with only node ``i`` updated."""
        new = check_state_vector(state, self.n)
        new[i] = self.node_next(state, i)
        return new

    def update_node_inplace(self, state: np.ndarray, i: int) -> bool:
        """In-place sequential step; returns True iff the state changed.

        The in-place variant is what the long sequential simulations use —
        no per-step allocation (see the HPC guide on in-place operations).
        """
        new_bit = self.node_next(state, i)
        changed = new_bit != state[i]
        state[i] = new_bit
        return bool(changed)

    def is_fixed_point(self, state: np.ndarray) -> bool:
        """True iff no node would change — the same test for CA and SCA.

        For with-memory rules a configuration is a parallel fixed point iff
        it is fixed under every single-node update, so this one predicate
        serves both dynamics.
        """
        state = check_state_vector(state, self.n)
        return bool(np.array_equal(self.step(state), state))

    # -- whole-phase-space sweeps ----------------------------------------------

    def step_all_range(self, lo: int, hi: int) -> np.ndarray:
        """Packed synchronous successors of configurations ``lo .. hi - 1``.

        One bounded-memory chunk of :meth:`step_all`, computed by the
        bound sweep backend; the governed phase-space builder calls this
        directly so it can consult its budget between chunks.
        """
        return self.backend.step_all_range(lo, hi)

    def _check_sweep_size(self, what: str) -> int:
        if self.n > MAX_SWEEP_N:
            raise ValueError(
                f"{what} over 2**{self.n} configurations is too large"
            )
        return 1 << self.n

    def _sweep(self, what: str, fill, budget=None, out=None) -> np.ndarray:
        """``fill`` over all ``2**n`` configurations into ``out`` (else a
        fresh int64 array), under the cancel token and deadline of
        ``budget`` (else the ambient one) and nothing else: no caps apply
        and nothing is charged."""
        if out is None:
            out = np.empty(self._check_sweep_size(what), dtype=np.int64)
        view = resolve_budget(budget).uncapped()
        _, reason = self.backend.governed_sweep(out, view, fill=fill)
        if reason is not None:
            raise BudgetExceeded(reason)
        return out

    def step_all(self) -> np.ndarray:
        """Packed synchronous successor of every configuration.

        Returns ``succ`` with ``succ[c] = pack(step(unpack(c)))`` for all
        ``c`` in ``0 .. 2**n - 1`` — the full global map as one array.
        The ambient budget is consulted between chunks (wall-clock/
        cancellation only; memory-governed builds with resumable frontiers
        live in :func:`repro.core.phase_space.build_phase_space`).
        """
        return self._sweep("step_all", self.step_all_range)

    def flips(self) -> np.ndarray:
        """Every node's ``(n, flip_row_words(n))`` ``uint64`` flip words:
        bit ``c`` of row ``i`` is set iff updating node ``i`` changes
        configuration ``c``.  One sweep, under the ambient budget the way
        :meth:`step_all` is."""
        self._check_sweep_size("flips")
        words = np.empty((self.n, flip_row_words(self.n)), dtype=np.uint64)
        return self._sweep("flips", self.backend.flips_range, out=words)

    def node_successors(self, i: int, budget=None) -> np.ndarray:
        """Packed successor of every configuration under updating node ``i``.

        ``succ_i[c]`` differs from ``c`` in at most bit ``i``.  The family
        ``{succ_i}`` is the full nondeterministic sequential transition
        relation of the SCA.  ``budget`` (else the ambient one) is consulted
        between chunks, wall-clock/cancellation only, like :meth:`step_all`.
        Each call sweeps every node's flip words: to compose many nodes'
        maps, take the words once from :meth:`flips`.
        """
        check_node_index(i, self.n)
        backend = self.backend
        return self._sweep(
            "node_successors",
            lambda lo, hi: backend.node_successors_range(i, lo, hi),
            budget,
        )

    def all_node_successors(self) -> np.ndarray:
        """Matrix of shape ``(n, 2**n)``: row ``i`` is :meth:`node_successors(i)`,
        encoded at once from :meth:`flips`."""
        return flip_successors(self.flips())
