"""Crash-safe progress journal + atomic snapshot for experiment batches.

Layout of a checkpoint directory::

    <dir>/
        journal.jsonl      # append-only event stream, flushed per line
        checkpoint.json    # atomic snapshot: completed results so far

The **journal** records one JSON object per line: ``start`` when an
attempt begins, ``finish`` when an experiment reaches a terminal status.
Lines are flushed (and the file is never rewritten), so after a crash or
SIGKILL the journal is intact up to possibly one truncated final line —
which :func:`read_journal` tolerates and flags rather than raising.
Every line embeds a CRC32 of its own serialisation (see
:func:`repro.core.durable.jsonl_line`), so mid-file corruption is
detected record by record, not just the torn tail.

The **snapshot** holds the full result dicts of every *completed*
experiment.  It is rewritten after each completion through the durable
write protocol (:func:`repro.core.durable.durable_write_json`: temp +
fsync + ``os.replace`` + directory fsync + integrity sidecar), so
readers always see either the previous or the next complete snapshot,
never a torn one — even across a power cut.

Resume semantics: an experiment counts as completed only when the
snapshot holds a result whose status is ``ok`` — errored, timed-out,
or mid-flight (``start`` without ``finish``) experiments are re-run.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np

from repro.core import durable
from repro.harness import faults

__all__ = [
    "Checkpoint",
    "read_journal",
    "journal_summary",
    "save_frontier",
    "load_frontier",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "FRONTIER_NAME",
    "FRONTIER_ARRAY_NAME",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "checkpoint.json"
FRONTIER_NAME = "frontier.json"
FRONTIER_ARRAY_NAME = "frontier_succ.npy"

#: schema versions stamped into the JSON artifacts (validated by
#: :mod:`repro.contracts`)
SNAPSHOT_SCHEMA = "repro-checkpoint/1"
FRONTIER_SCHEMA = "repro-frontier/1"

durable.register_write_site(
    "checkpoint.journal", "append one journal.jsonl record (CRC-framed)"
)
durable.register_write_site(
    "checkpoint.snapshot", "atomically replace checkpoint.json"
)
durable.register_write_site(
    "checkpoint.frontier_array", "flush the frontier_succ.npy memmap prefix"
)
durable.register_write_site(
    "checkpoint.frontier", "atomically replace frontier.json metadata"
)


def read_journal(directory: str | os.PathLike[str]) -> tuple[list[dict], int]:
    """Parse ``journal.jsonl``; returns ``(events, skipped_lines)``.

    A truncated or garbled line (the normal state of a crashed run's
    final line) is skipped and counted, never raised — as is a line
    whose embedded CRC32 disagrees with its content (mid-file
    corruption).  CRC-less lines from pre-durability journals are
    trusted as before.  A missing journal reads as empty.
    """
    path = Path(directory) / JOURNAL_NAME
    events: list[dict] = []
    skipped = 0
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return events, skipped
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            payload, status = durable.decode_jsonl_line(line)
            if status in ("ok", "unchecked"):
                events.append(payload)
            else:
                skipped += 1
    return events, skipped


def journal_summary(directory: str | os.PathLike[str]) -> dict:
    """Digest one checkpoint directory's journal for indexing/reporting.

    Returns a dict with:

    * ``statuses`` — ``{exp_id: terminal status}`` (last finish wins);
    * ``durations`` — ``{exp_id: seconds}`` where the finish recorded one;
    * ``in_flight`` — ids with a ``start`` but no ``finish`` (a crash or
      a run still going);
    * ``starts`` / ``finishes`` — raw event counts;
    * ``skipped`` — garbled journal lines tolerated by
      :func:`read_journal`;
    * ``first_ts`` / ``last_ts`` — epoch bounds over every event.
    """
    events, skipped = read_journal(directory)
    statuses: dict[str, str | None] = {}
    durations: dict[str, float] = {}
    started: set[str] = set()
    starts = finishes = 0
    first_ts: float | None = None
    last_ts: float | None = None
    for ev in events:
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        eid = ev.get("id")
        kind = ev.get("ev")
        if kind == "start" and eid is not None:
            starts += 1
            started.add(eid)
        elif kind == "finish" and eid is not None:
            finishes += 1
            statuses[eid] = ev.get("status")
            dur = ev.get("duration_s")
            if isinstance(dur, (int, float)):
                durations[eid] = float(dur)
    return {
        "statuses": statuses,
        "durations": durations,
        "in_flight": sorted(started - set(statuses)),
        "starts": starts,
        "finishes": finishes,
        "skipped": skipped,
        "first_ts": first_ts,
        "last_ts": last_ts,
    }


def save_frontier(directory: str | os.PathLike[str], partial) -> Path:
    """Persist a truncated :class:`~repro.core.budget.Partial`'s frontier.

    Writes the successor array as a full-size ``.npy`` memmap
    (``frontier_succ.npy``) holding the explored prefix, then atomically
    replaces ``frontier.json`` with the resume metadata.  The array is
    written first: a crash (or an armed ``checkpoint.frontier``
    ``partial-write`` fault) between the two leaves either the previous
    metadata or none at all — never metadata pointing past the data — so
    :func:`load_frontier` always resumes from a consistent (possibly
    older) frontier.

    Re-saving a frontier whose array is already the directory's memmap
    (the resumed-build case) just flushes it in place.
    """
    frontier = partial.frontier
    if frontier is None:
        raise ValueError("partial result has no frontier to save")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {k: v for k, v in frontier.items() if k != "succ"}
    meta["schema"] = FRONTIER_SCHEMA
    meta["explored"] = int(partial.explored)
    meta["reason"] = partial.reason
    meta["stats"] = partial.stats
    meta["saved_ts"] = time.time()
    if "succ" in frontier:
        # Counts-kernel frontiers carry their counts vector inline, so
        # their whole checkpoint is the one metadata write below.  A
        # successor array goes to the memmap first, and its torn-write
        # stamp rides in the metadata written *after* the flush: the
        # metadata can never describe bytes that are not on disk, and a
        # crash between the two leaves old metadata whose checksum
        # disagrees with the new array, so load_frontier falls back to
        # re-enumeration instead of silently resuming from garbage.
        succ = frontier["succ"]
        array_path = directory / FRONTIER_ARRAY_NAME
        in_place = isinstance(succ, np.memmap) and succ.filename is not None and (
            Path(succ.filename).resolve() == array_path.resolve()
        )
        if frontier.get("kind") == "nondet":
            rows = int(frontier["next_row"])
        else:
            rows = int(frontier["next_lo"])
        if in_place:
            succ.flush()
            prefix_crc = durable.crc32_of_array_prefix(succ, rows)
        else:
            mm = np.lib.format.open_memmap(
                array_path, mode="w+", dtype=np.int64, shape=succ.shape
            )
            mm[:rows] = succ[:rows]
            mm.flush()
            prefix_crc = durable.crc32_of_array_prefix(mm, rows)
            del mm
        faults.inject("checkpoint.frontier_array")
        meta["array"] = {
            "crc32": prefix_crc,
            "rows": rows,
            "nbytes": os.path.getsize(array_path),
        }
    return durable.durable_write_json(
        directory / FRONTIER_NAME, meta, site="checkpoint.frontier"
    )


def load_frontier(directory: str | os.PathLike[str]) -> dict | None:
    """Load a saved frontier for resuming, or ``None`` if there is none.

    The successor array comes back as a read-write memmap
    (``mmap_mode="r+"``), so the resumed build writes new chunks straight
    to disk and the budget charges only chunk transients — the property
    that lets a resume make progress under the very memory ceiling that
    truncated the original run.

    The array is validated against the length/checksum stamp the
    metadata carries (when present): a torn or bit-rotted
    ``frontier_succ.npy`` — or one the metadata predates — makes this
    return ``None`` with a :class:`UserWarning`, so the caller falls
    back to re-enumeration instead of silently resuming from garbage.
    """
    directory = Path(directory)
    path = directory / FRONTIER_NAME
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        # Missing, or a torn first write that never reached os.replace.
        return None
    if "counts" in meta:
        # Array-less counts-kernel frontier: the metadata is the whole
        # checkpoint.
        return meta
    array_path = directory / FRONTIER_ARRAY_NAME
    try:
        succ = np.load(array_path, mmap_mode="r+")
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as err:
        # A torn or garbled .npy header: not resumable, but recoverable
        # by starting the enumeration over.
        warnings.warn(
            f"{array_path}: unreadable frontier array ({err}); ignoring "
            f"the checkpoint and re-enumerating from scratch",
            stacklevel=2,
        )
        return None
    integrity = meta.get("array")
    if isinstance(integrity, dict):
        rows = int(integrity.get("rows", 0))
        nbytes = integrity.get("nbytes")
        crc = integrity.get("crc32")
        actual_nbytes = os.path.getsize(array_path)
        ok = (
            rows <= succ.shape[0]
            and (nbytes is None or int(nbytes) == actual_nbytes)
            and (crc is None or durable.crc32_of_array_prefix(succ, rows) == crc)
        )
        if not ok:
            warnings.warn(
                f"{array_path}: frontier array does not match its metadata "
                f"checksum (torn write or corruption); ignoring the "
                f"checkpoint and re-enumerating from scratch",
                stacklevel=2,
            )
            return None
    meta["succ"] = succ
    return meta


class Checkpoint:
    """Writer/reader for one checkpoint directory.

    The runner drives it::

        cp = Checkpoint(run_dir)
        done = cp.completed()          # {"E1": {...}, ...} — skip these
        cp.record_start("E5", attempt=1)
        cp.record_finish("E5", result) # journal line + atomic snapshot
    """

    def __init__(self, directory: str | os.PathLike[str]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._journal_fh = None
        self._results: dict[str, dict] = {}
        self._load()

    # -- recovery --------------------------------------------------------------

    def _load(self) -> None:
        """Recover prior state: snapshot first, journal as arbiter."""
        snap_path = self.directory / SNAPSHOT_NAME
        snapshot: dict[str, dict] = {}
        try:
            data = json.loads(snap_path.read_text(encoding="utf-8"))
            snapshot = data.get("results", {})
        except (FileNotFoundError, json.JSONDecodeError):
            # Atomic replace means a *partial* snapshot is impossible,
            # but an interrupted very first write can leave nothing.
            snapshot = {}
        self.journal_events, self.journal_skipped = read_journal(self.directory)
        finished = {
            ev["id"]: ev.get("status")
            for ev in self.journal_events
            if ev.get("ev") == "finish" and "id" in ev
        }
        # Trust a snapshot entry only if the journal confirms the finish
        # (a snapshot can never be *ahead* of the journal, but be strict).
        self._results = {
            eid: res
            for eid, res in snapshot.items()
            if eid in finished
        }

    def completed(self) -> dict[str, dict]:
        """Results of experiments that finished with status ``ok``."""
        return {
            eid: res
            for eid, res in self._results.items()
            if res.get("status") == "ok"
        }

    def results(self) -> dict[str, dict]:
        """All recorded terminal results (any status), id -> result."""
        return dict(self._results)

    # -- writing ---------------------------------------------------------------

    def _append(self, event: dict) -> None:
        if self._journal_fh is None:
            self._journal_fh = open(
                self.directory / JOURNAL_NAME, "a", encoding="utf-8"
            )
        line = durable.jsonl_line(event)
        fault = faults.inject("checkpoint.journal")
        if fault is not None:  # partial-write: crash mid-line
            self._journal_fh.write(line[: max(1, len(line) // 2)])
            self._journal_fh.flush()
            raise faults.FaultError("checkpoint.journal", fault.kind)
        self._journal_fh.write(line + "\n")
        self._journal_fh.flush()

    def record_start(self, exp_id: str, attempt: int = 1) -> None:
        """Journal that an attempt at ``exp_id`` is beginning."""
        self._append(
            {"ev": "start", "id": exp_id, "attempt": attempt, "ts": time.time()}
        )

    def record_finish(self, exp_id: str, result: dict) -> None:
        """Journal a terminal result and atomically refresh the snapshot."""
        self._append(
            {
                "ev": "finish",
                "id": exp_id,
                "status": result.get("status"),
                "holds": result.get("holds"),
                "duration_s": result.get("duration_s"),
                "ts": time.time(),
            }
        )
        self._results[exp_id] = result
        self._write_snapshot()

    def _write_snapshot(self) -> None:
        durable.durable_write_json(
            self.directory / SNAPSHOT_NAME,
            {
                "schema": SNAPSHOT_SCHEMA,
                "updated": time.time(),
                "results": self._results,
            },
            site="checkpoint.snapshot",
        )

    def close(self) -> None:
        """Close the journal handle (idempotent)."""
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
