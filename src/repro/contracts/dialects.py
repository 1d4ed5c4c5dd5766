"""Versioned contracts for the six artifact dialects the library emits.

========================  ==========================  =====================
dialect                   files                       schema
========================  ==========================  =====================
``obs``                   manifest.json,              ``repro-obs-manifest/1``
                          events.jsonl
``harness``               journal.jsonl,              ``repro-checkpoint/1``
                          checkpoint.json
``frontier``              frontier.json,              ``repro-frontier/1``
                          frontier_succ.npy
``bench``                 BENCH_*.json                ``repro-bench/1``
``finding``               finding-*.json              ``repro-finding/1``
``mc``                    mc.json, mc-*.json          ``repro-mc/1``
========================  ==========================  =====================

Each contract's ``validate()`` classifies one file as valid /
truncated-recoverable / corrupt (see :mod:`repro.contracts.base`).  The
JSONL contracts additionally report exactly which line range must be
dropped, so the doctor's repair is a mechanical rewrite, not a guess.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.contracts.base import (
    FileCheck,
    Contract,
    check_fields,
    check_schema,
    load_json_object,
)
from repro.core import durable
from repro.harness.checkpoint import ROW_BY_ROW_FRONTIER

__all__ = [
    "JsonContract",
    "JsonlContract",
    "ObsManifestContract",
    "CheckpointContract",
    "FrontierMetaContract",
    "FrontierArrayContract",
    "BenchContract",
    "FindingContract",
    "McContract",
    "DIALECTS",
    "contract_for",
]


class JsonContract(Contract):
    """Whole-file JSON artifact written through the durable protocol.

    The atomic replace makes a *partially written* file impossible, so
    unparseable JSON here is corruption (or a file that never went
    through the protocol) — never a normal crash state.
    """

    required: dict[str, type | tuple] = {}
    corrupt_repair: str | None = "quarantine"

    def validate(self, path: str | Path) -> FileCheck:
        obj, problem = load_json_object(path)
        if obj is None:
            return self.corrupt(path, problem or "unreadable",
                                repair=self.corrupt_repair)
        problem = check_schema(obj, self.schema or "")
        if problem is None:
            problem = check_fields(obj, self.required)
        if problem is not None:
            return self.corrupt(path, problem, repair=self.corrupt_repair)
        return self.finish(path, obj)

    def finish(self, path: str | Path, obj: dict) -> FileCheck:
        """Hook for dialect-specific cross-checks once the shape holds."""
        return self.ok(path)


class JsonlContract(Contract):
    """Append-only CRC-framed JSONL stream (journal, span events).

    Any undecodable or CRC-failing line makes the file repairable rather
    than corrupt: records are independent, so a rewrite keeping only the
    intact lines recovers everything a crash did not destroy.  The check
    records how many lines survive and how many drop, and whether the
    damage is confined to the torn tail (the normal crash signature) or
    sits mid-file (bit rot — still recoverable, but worth flagging).
    """

    def validate(self, path: str | Path) -> FileCheck:
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            return self.corrupt(path, f"unreadable: {exc}")
        good = bad = 0
        last_bad_is_tail = True
        lines = [ln for ln in text.splitlines() if ln.strip()]
        for i, line in enumerate(lines):
            _, status = durable.decode_jsonl_line(line.strip())
            if status in ("ok", "unchecked"):
                good += 1
                continue
            bad += 1
            if i != len(lines) - 1:
                last_bad_is_tail = False
        extra = {"records": good, "damaged": bad}
        if bad == 0:
            return self.ok(path, f"{good} intact records", extra=extra)
        where = "torn tail" if (bad == 1 and last_bad_is_tail) else "mid-file"
        return self.truncated(
            path,
            f"{bad} damaged line(s) ({where}), {good} intact",
            repair="rewrite-valid-records",
            extra=extra,
        )


class ObsManifestContract(JsonContract):
    name = "obs"
    schema = "repro-obs-manifest/1"
    required = {"run_id": str}


class ObsEventsContract(JsonlContract):
    name = "obs"
    schema = "repro-obs-manifest/1"


class JournalContract(JsonlContract):
    name = "harness"
    schema = "repro-checkpoint/1"


class CheckpointContract(JsonContract):
    name = "harness"
    schema = "repro-checkpoint/1"
    required = {"results": dict}
    #: a broken snapshot is not a loss — the journal is the arbiter and
    #: holds every finish, so the doctor regenerates instead of quarantines.
    corrupt_repair = "rebuild-from-journal"


class FrontierMetaContract(JsonContract):
    """``frontier.json`` plus the stamp over its sibling array.

    The metadata is written *after* the array, so a stamp that disagrees
    with ``frontier_succ.npy`` means the crash landed between the two:
    truncated-recoverable (resume falls back to re-enumeration), not
    corrupt.
    """

    name = "frontier"
    schema = "repro-frontier/1"
    required = {"n": int}

    def finish(self, path: str | Path, obj: dict) -> FileCheck:
        if "next_lo" not in obj and "counts" not in obj:
            return self.truncated(
                path, ROW_BY_ROW_FRONTIER, repair="quarantine-frontier"
            )
        array_path = Path(path).with_name("frontier_succ.npy")
        stamp = obj.get("array")
        if not isinstance(stamp, dict):
            return self.ok(path, "no array stamp (pre-contract frontier)")
        if not array_path.exists():
            return self.truncated(
                path,
                "metadata stamps an array that is missing",
                repair="quarantine-frontier",
            )
        problem = _verify_array_stamp(array_path, stamp)
        if problem is not None:
            return self.truncated(
                path,
                f"array does not match its stamp ({problem}); resume "
                f"re-enumerates from scratch",
                repair="quarantine-frontier",
            )
        return self.ok(path, "array stamp verified")


class FrontierArrayContract(Contract):
    """``frontier_succ.npy`` — only meaningful next to valid metadata.

    The array carries no self-contained integrity; the durable protocol
    writes it first and stamps length + CRC into the atomically-replaced
    ``frontier.json`` after.  An array without (valid) metadata is the
    crash window between the two writes: recoverable by dropping it.
    """

    name = "frontier"
    schema = "repro-frontier/1"

    def validate(self, path: str | Path) -> FileCheck:
        meta_path = Path(path).with_name("frontier.json")
        meta, problem = load_json_object(meta_path)
        if meta is None:
            return self.truncated(
                path,
                f"orphaned array: no usable frontier.json ({problem})",
                repair="quarantine-frontier",
            )
        stamp = meta.get("array")
        if not isinstance(stamp, dict):
            return self.ok(path, "unstamped (pre-contract frontier)")
        problem = _verify_array_stamp(Path(path), stamp)
        if problem is not None:
            return self.truncated(
                path,
                f"does not match the metadata stamp ({problem})",
                repair="quarantine-frontier",
            )
        return self.ok(path, "matches the metadata stamp")


def _verify_array_stamp(array_path: Path, stamp: dict) -> str | None:
    """Compare one on-disk ``.npy`` against its metadata stamp."""
    import os

    import numpy as np

    nbytes = stamp.get("nbytes")
    if nbytes is not None:
        try:
            actual = os.path.getsize(array_path)
        except OSError as exc:
            return f"unreadable: {exc}"
        if int(nbytes) != actual:
            return f"size {actual} != stamped {nbytes}"
    try:
        succ = np.load(array_path, mmap_mode="r")
    except (OSError, ValueError) as exc:
        return f"unloadable: {exc}"
    rows = int(stamp.get("rows", 0))
    if rows > succ.shape[-1]:
        return f"stamped rows {rows} exceed array length {succ.shape[-1]}"
    crc = stamp.get("crc32")
    if crc is not None and durable.crc32_of_array_prefix(succ, rows) != crc:
        return "prefix CRC mismatch"
    return None


class BenchContract(JsonContract):
    name = "bench"
    schema = "repro-bench/1"
    required = {"module": str, "benchmarks": list}


class McContract(JsonContract):
    """``mc.json`` — a streaming Monte-Carlo estimate (``repro-mc/1``).

    Beyond the shape, cross-checks the counts ledger: classified lanes
    must partition into fixed-point / 2-cycle / undecided exactly, so a
    truncated-then-hand-edited artifact cannot masquerade as complete.
    """

    name = "mc"
    schema = "repro-mc/1"
    required = {"n": int, "samples": int, "counts": dict, "estimates": dict}

    def finish(self, path: str | Path, obj: dict) -> FileCheck:
        counts = obj["counts"]
        parts = ("fixed_point", "two_cycle", "undecided")
        try:
            classified = sum(int(counts[k]) for k in parts)
            total = int(counts["samples"])
        except (KeyError, TypeError, ValueError) as exc:
            return self.corrupt(
                path, f"counts ledger unreadable: {exc!r}", repair="quarantine"
            )
        if classified != total:
            return self.corrupt(
                path,
                f"counts ledger does not balance: "
                f"{classified} classified != {total} samples",
                repair="quarantine",
            )
        return self.ok(path)


class FindingContract(JsonContract):
    name = "finding"
    schema = "repro-finding/1"
    required = {"check": str, "spec": dict}

    def finish(self, path: str | Path, obj: dict) -> FileCheck:
        # Findings carry their own identity: the digest is recomputable
        # from the spec, so a mismatch proves the record was altered.
        from repro.qa.findings import spec_digest

        declared = obj.get("digest")
        if declared is not None and declared != spec_digest(obj["spec"]):
            return self.corrupt(
                path,
                f"digest {declared!r} does not match the spec",
                repair="quarantine",
            )
        return self.ok(path)


#: The six dialects and every contract each one comprises.
DIALECTS: dict[str, list[Contract]] = {
    "obs": [ObsManifestContract(), ObsEventsContract()],
    "harness": [JournalContract(), CheckpointContract()],
    "frontier": [FrontierMetaContract(), FrontierArrayContract()],
    "bench": [BenchContract()],
    "finding": [FindingContract()],
    "mc": [McContract()],
}

_BY_NAME: dict[str, Contract] = {
    "manifest.json": DIALECTS["obs"][0],
    "events.jsonl": DIALECTS["obs"][1],
    "journal.jsonl": DIALECTS["harness"][0],
    "checkpoint.json": DIALECTS["harness"][1],
    "frontier.json": DIALECTS["frontier"][0],
    "frontier_succ.npy": DIALECTS["frontier"][1],
    "mc.json": DIALECTS["mc"][0],
}


def contract_for(path: str | Path) -> Contract | None:
    """The contract governing ``path``, by filename convention."""
    name = Path(path).name
    exact = _BY_NAME.get(name)
    if exact is not None:
        return exact
    if name.startswith("BENCH_") and name.endswith(".json"):
        return DIALECTS["bench"][0]
    if name.startswith("finding") and name.endswith(".json"):
        return DIALECTS["finding"][0]
    if name.startswith("mc-") and name.endswith(".json"):
        return DIALECTS["mc"][0]
    return None
