"""Pluggable sweep backends for whole-phase-space enumeration.

Every experiment in the paper reduces to whole-space sweeps — every
node's flip words over all ``2**n`` configurations, from which the packed
parallel (``step_all``) and single-node sequential (``node_successors``)
successors are encoded.  This package holds the kernels that compute
them, behind one registry:

``numpy``
    The generic window-gather reference (works for every space and rule).
``bitplane``
    SWAR kernels packing 64 configurations per ``uint64`` word; threshold
    / XOR / small-arity (elementary) rules as pure bitwise ops, at any n.
``process``
    A multiprocessing shard layer over any serial backend, merging shards
    through shared memory into the caller's output; it admits and charges
    the serial loop's chunks, so trips and frontiers are the serial ones.

Selection: ``CellularAutomaton(backend=...)`` > the ``REPRO_BACKEND`` env
var > ``auto``.  The ``auto`` policy picks bitplane when every node's rule
lowers to a bit kernel and numpy otherwise, and wraps it in process
sharding for spaces of at least ``2**PROCESS_MIN_N`` configurations on
multi-CPU hosts.
"""

from __future__ import annotations

import os

from repro.perf.base import (
    CHUNK,
    MAX_SWEEP_N,
    BackendUnsupported,
    NumpyBackend,
    SweepBackend,
)
from repro.perf.bitplane import BitplaneBackend, lower_bit_kernel
from repro.perf.process import ProcessBackend, default_workers
from repro.perf.supervise import (
    ShardFailed,
    default_max_shard_retries,
    default_max_worker_deaths,
    default_shard_timeout_s,
)

__all__ = [
    "CHUNK",
    "MAX_SWEEP_N",
    "PROCESS_MIN_N",
    "BackendUnsupported",
    "BACKENDS",
    "BACKEND_NAMES",
    "SweepBackend",
    "NumpyBackend",
    "BitplaneBackend",
    "ProcessBackend",
    "ShardFailed",
    "lower_bit_kernel",
    "default_workers",
    "default_max_shard_retries",
    "default_max_worker_deaths",
    "default_shard_timeout_s",
    "resolve_backend",
    "resolve_serial_backend",
]

#: env var selecting the default backend (``auto`` when unset)
BACKEND_ENV = "REPRO_BACKEND"

#: smallest n the ``auto`` policy shards across processes (below this the
#: fork + shared-memory overhead outweighs the sweep itself)
PROCESS_MIN_N = 22

BACKENDS: dict[str, type[SweepBackend]] = {
    "numpy": NumpyBackend,
    "bitplane": BitplaneBackend,
    "process": ProcessBackend,
}

#: ``auto`` plus the concrete backends, in documentation order
BACKEND_NAMES = ("auto", "bitplane", "numpy", "process")


def _check_name(name: str) -> str:
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown sweep backend {name!r} (choose from "
            f"{', '.join(BACKEND_NAMES)})"
        )
    return name


def resolve_serial_backend(ca) -> SweepBackend:
    """The serial backend ``auto`` picks for ``ca``: bitplane when it
    applies, else numpy."""
    if BitplaneBackend.supports(ca) is None:
        return BitplaneBackend(ca)
    return NumpyBackend(ca)


def resolve_backend(
    ca, name: str | None = None, workers: int | None = None
) -> SweepBackend:
    """Backend for ``ca`` per the explicit ``name`` > env > ``auto`` chain.

    ``workers`` only matters for the process backend (explicit count >
    ``REPRO_WORKERS`` > CPU count).  ``auto`` adds process sharding only
    for spaces of at least ``2**PROCESS_MIN_N`` configurations and more
    than one available worker.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or "auto"
    name = _check_name(name)
    if name == "process":
        return ProcessBackend(ca, workers=workers)
    if name != "auto":
        return BACKENDS[name](ca)
    effective = workers if workers is not None else default_workers()
    if (
        ca.n >= PROCESS_MIN_N
        and effective > 1
        and ProcessBackend.supports(ca) is None
    ):
        return ProcessBackend(ca, workers=workers)
    return resolve_serial_backend(ca)
