"""Resource governance: budgets, cooperative cancellation, partial results.

The paper's phase spaces blow up as ``2**n`` (and the interleaving spaces
worse), and the PSPACE-completeness results for majority automata networks
say this is intrinsic.  A service that enumerates them must therefore
*govern* the explosion instead of hoping it fits: every unbounded loop in
the core enumerators periodically consults a :class:`Budget` — a wall-clock
deadline, a memory ceiling, a state-count cap and a :class:`CancelToken` —
and winds down cooperatively when any of them trips.

Degradation ladder
------------------
* **exact** — the budget never trips; governed builders return a complete
  :class:`Partial` whose ``value`` is the ordinary result.
* **truncated** — the budget trips mid-enumeration; the builder returns a
  :class:`Partial` carrying the explored frontier, counts so far and the
  truncation reason, instead of dying by OOM or watchdog kill.
* **resumable** — the frontier can be persisted by the harness checkpoint
  layer (:func:`repro.harness.checkpoint.save_frontier`) and handed back to
  the builder to make further progress under a fresh budget.

Functions that cannot return a partial value (orbit drivers, DFS
explorers) raise :class:`BudgetExceeded` whose ``partial`` attribute still
carries the progress snapshot.

Budgets thread two ways: explicitly (``build_phase_space(ca, budget=b)``)
or ambiently — :func:`use_budget` installs a budget that every governed
loop picks up via :func:`resolve_budget`, which is how the CLI's
``--budget-*`` flags and the harness runner's cooperative ``--timeout``
deadline reach experiment code without changing any experiment signature.
The default ambient budget is unlimited, so ungoverned callers pay one
cheap ``over()`` check per chunk and nothing else.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import log2
from typing import Generic, TypeVar

from repro import obs

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CancelToken",
    "Partial",
    "check_frontier",
    "ambient_budget",
    "set_ambient",
    "use_budget",
    "resolve_budget",
    "parse_size",
    "format_bytes",
    "format_pow2",
    "SUCC_BYTES_PER_STATE",
    "PHASE_ANALYSIS_BYTES_PER_STATE",
    "NONDET_BYTES_PER_STATE",
    "estimate_succ_bytes",
    "estimate_phase_space_bytes",
    "estimate_nondet_bytes",
]

T = TypeVar("T")

#: bytes per configuration held by a packed successor array (int64).
SUCC_BYTES_PER_STATE = 8

#: peak bytes per configuration of a governed deterministic phase-space
#: build *including* cycle analysis: the successor array plus
#: :class:`~repro.analysis.cycles.FunctionalGraph`'s in-degree and peel
#: arrays (int64 each) and the on-cycle/classes masks (1 byte each).
PHASE_ANALYSIS_BYTES_PER_STATE = 26

#: peak bytes per (configuration, node) pair of a governed sequential
#: phase-space build: the per-node successor row plus the change-edge
#: src/dst arrays the SCC analysis materialises.
NONDET_BYTES_PER_STATE = 24

_ENV_WALL = "REPRO_BUDGET_WALL_S"
_ENV_MEM = "REPRO_BUDGET_MEM"
_ENV_STATES = "REPRO_BUDGET_STATES"

_SIZE_SUFFIXES = {
    "": 1,
    "B": 1,
    "K": 1 << 10,
    "KB": 1 << 10,
    "M": 1 << 20,
    "MB": 1 << 20,
    "G": 1 << 30,
    "GB": 1 << 30,
    "T": 1 << 40,
    "TB": 1 << 40,
}


def parse_size(spec: int | float | str) -> int:
    """Parse a human memory size (``"256M"``, ``"1.5GB"``, ``4096``) to bytes."""
    if isinstance(spec, (int, float)):
        value = int(spec)
    else:
        text = spec.strip().upper().replace(" ", "")
        digits = text.rstrip("KMGTB")
        suffix = text[len(digits):]
        if suffix not in _SIZE_SUFFIXES or not digits:
            raise ValueError(f"cannot parse memory size {spec!r} (try '256M', '2GB')")
        try:
            value = int(float(digits) * _SIZE_SUFFIXES[suffix])
        except ValueError as err:
            raise ValueError(f"cannot parse memory size {spec!r}") from err
    if value <= 0:
        raise ValueError(f"memory size must be positive, got {spec!r}")
    return value


def format_bytes(nbytes: int) -> str:
    """Human-readable byte count (``436.2MB``)."""
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError  # pragma: no cover

def format_pow2(count: int) -> str:
    """``16777216`` as ``2^24``, ``11534336`` as ``2^23.5`` — phase-space
    sizes read better as powers of two."""
    if count <= 0:
        return str(count)
    exponent = log2(count)
    if exponent == int(exponent):
        return f"2^{int(exponent)}"
    return f"2^{exponent:.1f}"


def estimate_succ_bytes(n_nodes: int) -> int:
    """Bytes of the bare ``2**n`` packed successor table."""
    return (1 << n_nodes) * SUCC_BYTES_PER_STATE


def estimate_phase_space_bytes(n_nodes: int) -> int:
    """Peak bytes of a full deterministic phase-space build + analysis."""
    return (1 << n_nodes) * PHASE_ANALYSIS_BYTES_PER_STATE


def estimate_nondet_bytes(n_nodes: int) -> int:
    """Peak bytes of a full sequential (nondeterministic) phase-space build."""
    return n_nodes * (1 << n_nodes) * NONDET_BYTES_PER_STATE


class CancelToken:
    """Cooperative cancellation flag, shared across threads.

    ``cancel(reason)`` is one-shot (the first reason wins) and thread-safe;
    governed loops observe it at their next budget check.  Signal handlers
    (SIGTERM, Ctrl-C mapping) and the harness watchdog cancel the token
    instead of killing the process, so enumerators flush partial results.
    """

    __slots__ = ("_event", "_reason", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None
        self._lock = threading.Lock()

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; returns True iff this call was the first."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            return True

    @property
    def cancelled(self) -> bool:
        """True iff :meth:`cancel` has been called."""
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        """The first cancellation reason, or None while not cancelled."""
        return self._reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"cancelled: {self._reason}" if self.cancelled else "armed"
        return f"CancelToken({state})"


@dataclass
class Partial(Generic[T]):
    """A governed enumerator's result: complete, or honestly truncated.

    ``value`` is the ordinary result when ``complete``; ``explored`` /
    ``total`` count enumerated units (configurations, states); ``reason``
    says which budget dimension tripped; ``stats`` carries whatever
    streaming counts the enumerator accumulated before stopping; and
    ``frontier`` is the resume state (may hold numpy arrays — persist it
    with :func:`repro.harness.checkpoint.save_frontier`).
    """

    value: T | None
    complete: bool
    explored: int
    total: int | None = None
    reason: str | None = None
    stats: dict[str, object] = field(default_factory=dict)
    frontier: dict[str, object] | None = None

    @classmethod
    def done(
        cls,
        value: T,
        explored: int,
        total: int | None = None,
        stats: dict[str, object] | None = None,
    ) -> "Partial[T]":
        """A complete result (the budget never tripped)."""
        return cls(value, True, explored, total, None, dict(stats or {}))

    @classmethod
    def truncated(
        cls,
        reason: str,
        explored: int,
        total: int | None = None,
        value: T | None = None,
        stats: dict[str, object] | None = None,
        frontier: dict[str, object] | None = None,
    ) -> "Partial[T]":
        """A truncated result carrying the frontier and the trip reason."""
        return cls(value, False, explored, total, reason, dict(stats or {}), frontier)

    def describe(self) -> str:
        """One honest line: ``explored 2^23.5/2^24 configs — truncated: ...``."""
        span_txt = format_pow2(self.explored)
        if self.total is not None:
            span_txt += f"/{format_pow2(self.total)}"
        if self.complete:
            return f"explored {span_txt} configs (complete)"
        return f"explored {span_txt} configs — truncated: {self.reason}"

    def summary_dict(self) -> dict[str, object]:
        """JSON-safe summary (frontier arrays dropped) for harness results."""
        out: dict[str, object] = {
            "complete": self.complete,
            "explored": int(self.explored),
        }
        if self.total is not None:
            out["total"] = int(self.total)
        if self.reason is not None:
            out["reason"] = self.reason
        if self.stats:
            out["stats"] = {k: v for k, v in self.stats.items()}
        out["resumable"] = self.frontier is not None
        return out


def check_frontier(frontier: dict, kind: str, n: int, automaton: str) -> None:
    """Refuse a resume frontier that another kind of run, ring size or
    automaton saved."""
    if frontier.get("kind") != kind or int(frontier.get("n", -1)) != n:
        raise ValueError(
            f"frontier is not a {kind} frontier for n={n}: "
            f"{ {k: frontier[k] for k in ('kind', 'n') if k in frontier} }"
        )
    saved = frontier.get("automaton")
    if saved != automaton:
        raise ValueError(
            f"frontier was saved by {saved!r}, not by this run's {automaton!r}"
        )


class BudgetExceeded(RuntimeError):
    """A budget dimension tripped inside a governed loop.

    ``reason`` is the human-readable trip reason; ``partial`` (when the
    raiser could snapshot progress) is a :class:`Partial` of work done so
    far, so even the exception path degrades gracefully.
    """

    def __init__(self, reason: str, partial: Partial | None = None):
        super().__init__(reason)
        self.reason = reason
        self.partial = partial


class Budget:
    """Resource envelope for one governed computation.

    Parameters
    ----------
    wall_s:
        Wall-clock allowance in seconds, measured from construction.
    mem_bytes:
        Ceiling on *accounted* bytes — governed enumerators
        :meth:`charge` the persistent arrays they build (and project the
        next chunk via ``over(pending_bytes=...)``), so trips are
        deterministic and machine-independent.
    max_states:
        Cap on enumerated work units (configurations, DFS states).
    token:
        Shared :class:`CancelToken`; a fresh one is created if omitted.

    All dimensions default to unlimited; checks on an unlimited budget are
    a handful of attribute reads, cheap enough for per-chunk use.
    """

    __slots__ = (
        "wall_s",
        "mem_bytes",
        "max_states",
        "token",
        "states_used",
        "bytes_held",
        "on_charge",
        "_t0",
        "_deadline",
        "_tripped",
    )

    def __init__(
        self,
        wall_s: float | None = None,
        mem_bytes: int | None = None,
        max_states: int | None = None,
        token: CancelToken | None = None,
    ):
        if wall_s is not None and wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {wall_s}")
        if mem_bytes is not None and mem_bytes <= 0:
            raise ValueError(f"mem_bytes must be positive, got {mem_bytes}")
        if max_states is not None and max_states <= 0:
            raise ValueError(f"max_states must be positive, got {max_states}")
        self.wall_s = wall_s
        self.mem_bytes = mem_bytes
        self.max_states = max_states
        self.token = token if token is not None else CancelToken()
        self.states_used = 0
        self.bytes_held = 0
        #: optional progress hook ``cb(budget, states)`` invoked on every
        #: charge — the observability layer's tap into governed loops
        #: (see :class:`repro.obs.progress.ProgressReporter`).  None (the
        #: default) keeps the hot path to a single attribute check.
        self.on_charge = None
        self._t0 = time.monotonic()
        self._deadline = None if wall_s is None else self._t0 + wall_s
        self._tripped = False

    @classmethod
    def from_env(
        cls,
        environ: Mapping[str, str] | None = None,
        token: CancelToken | None = None,
    ) -> "Budget":
        """Budget from ``REPRO_BUDGET_WALL_S`` / ``_MEM`` / ``_STATES``.

        Unset variables leave that dimension unlimited — the harness child
        process installs this so cooperative deadlines cross the
        ``--isolate`` boundary.
        """
        env = os.environ if environ is None else environ
        wall = env.get(_ENV_WALL, "").strip()
        mem = env.get(_ENV_MEM, "").strip()
        states = env.get(_ENV_STATES, "").strip()
        return cls(
            wall_s=float(wall) if wall else None,
            mem_bytes=parse_size(mem) if mem else None,
            max_states=int(states) if states else None,
            token=token,
        )

    # -- accounting ------------------------------------------------------------

    def charge(self, states: int = 0, bytes_: int = 0) -> None:
        """Record ``states`` enumerated units and ``bytes_`` held bytes."""
        self.states_used += states
        self.bytes_held += bytes_
        cb = self.on_charge
        if cb is not None:
            cb(self, states)

    def release_bytes(self, nbytes: int) -> None:
        """Return ``nbytes`` of previously charged memory."""
        self.bytes_held = max(0, self.bytes_held - nbytes)

    @property
    def elapsed_s(self) -> float:
        """Seconds since the budget clock started."""
        return time.monotonic() - self._t0

    @property
    def remaining_s(self) -> float | None:
        """Wall-clock seconds left, or None when unlimited."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    @property
    def is_unlimited(self) -> bool:
        """True iff no dimension can ever trip (barring cancellation)."""
        return (
            self.wall_s is None
            and self.mem_bytes is None
            and self.max_states is None
        )

    def fits_memory(self, nbytes: int) -> bool:
        """Would holding ``nbytes`` more stay under the ceiling?"""
        if self.mem_bytes is None:
            return True
        return self.bytes_held + nbytes <= self.mem_bytes

    # -- checks ----------------------------------------------------------------

    def over(self, pending_bytes: int = 0, pending_states: int = 0) -> str | None:
        """The trip reason, or None while every dimension has headroom.

        ``pending_bytes`` projects the next allocation: governed loops ask
        "may I hold one more chunk?" *before* allocating it, which is what
        turns an OOM kill into a clean truncation.  ``pending_states``
        likewise projects work already dispatched but not yet charged —
        the sharded sweep uses it so a states cap trips at the same
        configuration the serial chunk loop trips at.
        """
        reason: str | None = None
        if self.token.cancelled:
            reason = f"cancelled: {self.token.reason}"
        elif self._deadline is not None and time.monotonic() >= self._deadline:
            reason = f"deadline: wall-clock budget {self.wall_s:g}s exhausted"
        elif self.mem_bytes is not None and (
            self.bytes_held + pending_bytes > self.mem_bytes
        ):
            reason = (
                f"memory: holding {format_bytes(self.bytes_held)}"
                + (f" + {format_bytes(pending_bytes)} pending" if pending_bytes else "")
                + f" exceeds the {format_bytes(self.mem_bytes)} ceiling"
            )
        elif self.max_states is not None and (
            self.states_used + pending_states >= self.max_states
        ):
            reason = (
                f"states: enumerated {self.states_used + pending_states} "
                f">= cap {self.max_states}"
            )
        if reason is not None and not self._tripped:
            self._tripped = True
            obs.inc("budget.trips")
        return reason

    def check(self, pending_bytes: int = 0, partial: Partial | None = None) -> None:
        """Raise :class:`BudgetExceeded` if any dimension has tripped."""
        reason = self.over(pending_bytes=pending_bytes)
        if reason is not None:
            raise BudgetExceeded(reason, partial=partial)

    def uncapped(self) -> "Budget":
        """A view that trips only on this budget's cancellation or deadline.

        It shares the cancel token and the deadline, has no memory or
        states cap, and keeps its charges to itself — the envelope of a
        sweep that no caller accounts for.
        """
        view = Budget(token=self.token)
        view.wall_s, view._t0, view._deadline = self.wall_s, self._t0, self._deadline
        return view

    def describe(self) -> str:
        """The envelope, compact (``wall=10s mem=256.0MB states=2^22``)."""
        parts = []
        if self.wall_s is not None:
            parts.append(f"wall={self.wall_s:g}s")
        if self.mem_bytes is not None:
            parts.append(f"mem={format_bytes(self.mem_bytes)}")
        if self.max_states is not None:
            parts.append(f"states={format_pow2(self.max_states)}")
        return " ".join(parts) if parts else "unlimited"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Budget({self.describe()})"


#: The do-nothing envelope governed loops see when nothing is installed.
_UNLIMITED = Budget()

#: Ambient budget stack (module-global, like the tracing state — the
#: library is single-threaded numpy; the harness installs per-attempt
#: budgets around whole experiments, not concurrently).
_AMBIENT: list[Budget] = []


def ambient_budget() -> Budget:
    """The innermost installed budget (an unlimited one by default)."""
    return _AMBIENT[-1] if _AMBIENT else _UNLIMITED


def resolve_budget(budget: Budget | None) -> Budget:
    """``budget`` if given, else the ambient budget — never None."""
    return budget if budget is not None else ambient_budget()


def set_ambient(budget: Budget | None) -> Budget | None:
    """Install ``budget`` as the sole ambient budget; returns the previous.

    ``set_ambient(None)`` clears the stack.  The CLI uses this to make its
    ``--budget-*`` flags govern the whole invocation.
    """
    previous = _AMBIENT[-1] if _AMBIENT else None
    _AMBIENT.clear()
    if budget is not None:
        _AMBIENT.append(budget)
    return previous


@contextmanager
def use_budget(budget: Budget) -> Iterator[Budget]:
    """Context manager installing ``budget`` ambiently for the duration."""
    _AMBIENT.append(budget)
    try:
        yield budget
    finally:
        if _AMBIENT and _AMBIENT[-1] is budget:
            _AMBIENT.pop()
        elif budget in _AMBIENT:  # pragma: no cover - torn nesting
            _AMBIENT.remove(budget)
