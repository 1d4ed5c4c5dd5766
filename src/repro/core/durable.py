"""The single durability layer for every artifact the system writes.

Five subsystems persist five artifact dialects (obs manifests + event
streams, harness journals + checkpoints, budget frontiers, ``BENCH_*``
reports, qa findings).  Before this module each hand-rolled its own
write path with inconsistent atomicity; now they all go through one
protocol:

* **whole-file writes** (:func:`durable_write_bytes` and friends) —
  temp file *in the same directory*, flush, ``fsync``, ``os.replace``,
  then an ``fsync`` of the containing directory so the rename itself is
  durable.  A crash at any point leaves either the previous complete
  file or the new complete file, never a torn one.  An optional sidecar
  (``<name>.sum``) records the content's sha256 and byte length so
  silent corruption (bit rot, a torn copy) is detectable later;
* **append-only JSONL** (:func:`jsonl_line` / :func:`decode_jsonl_line`)
  — each record embeds a CRC32 of its own serialisation under the
  :data:`CRC_KEY` key, so a reader can tell a torn tail (the normal
  state of a crashed run) from mid-file corruption, record by record.
  Newline framing carries the record length; a line that fails to
  decode or whose CRC mismatches is by construction not a record;
* **memmap arrays** (the ``frontier_succ.npy`` prefix) — callers use
  :func:`crc32_of_array_prefix` to stamp a length + checksum into the
  atomically-replaced metadata file written *after* the array, so
  metadata can never describe bytes that were not flushed first.

Every write path registers itself in :data:`WRITE_SITES` and probes
:func:`repro.harness.faults.inject` at its protocol points — including
the new ``crash`` fault kind, which SIGKILLs the process mid-protocol —
which is what lets the crash-consistency test matrix prove that a kill
at *every* site leaves a state ``repro doctor`` classifies as
consistent and ``--resume`` completes from.

The sidecar deliberately lags the payload (payload replaced first, then
the sidecar refreshed): after a crash between the two, the payload is a
complete, parseable file whose sidecar is stale — the doctor verifies
the payload on its own merits and refreshes the sidecar, rather than
quarantining good data.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Any

__all__ = [
    "CRC_KEY",
    "SIDECAR_SUFFIX",
    "TMP_SUFFIX",
    "WRITE_SITES",
    "register_write_site",
    "registered_write_sites",
    "durable_write_bytes",
    "durable_write_text",
    "durable_write_json",
    "fsync_directory",
    "jsonl_line",
    "decode_jsonl_line",
    "crc32_hex",
    "crc32_of_array_prefix",
    "sidecar_path",
    "write_sidecar",
    "read_sidecar",
    "verify_sidecar",
]

#: JSON key carrying the per-record CRC32 in append-only JSONL streams.
CRC_KEY = "#crc"

#: Suffix of the integrity sidecar written next to durable whole files.
SIDECAR_SUFFIX = ".sum"

#: Suffix of the in-flight temp file (same directory as the target).
TMP_SUFFIX = ".tmp"

#: Registry of every durable write site: ``site -> description``.  The
#: crash-consistency matrix enumerates this to SIGKILL the process at
#: each one; keep descriptions short and operator-facing.
WRITE_SITES: dict[str, str] = {}

# Syscall hooks, swappable by the power-cut simulator in the tests: the
# simulator records the (write, fsync, replace, dir-fsync) sequence and
# replays every crash prefix to prove old-or-new-complete semantics.
_fsync = os.fsync
_replace = os.replace


def register_write_site(site: str, description: str) -> str:
    """Register (and return) a durable write site name."""
    WRITE_SITES[site] = description
    return site


def registered_write_sites() -> dict[str, str]:
    """Snapshot of the write-site registry (site -> description)."""
    return dict(WRITE_SITES)


def fsync_directory(directory: str | os.PathLike[str]) -> None:
    """``fsync`` a directory so a rename inside it survives power loss.

    Best-effort: some filesystems (and non-POSIX platforms) refuse
    directory handles; the rename is then only as durable as the OS
    makes it, which is the pre-existing behaviour everywhere.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        _fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# -- integrity sidecars --------------------------------------------------------


def sidecar_path(path: str | os.PathLike[str]) -> Path:
    """``<name>.sum`` next to ``path``."""
    p = Path(path)
    return p.with_name(p.name + SIDECAR_SUFFIX)


def write_sidecar(path: str | os.PathLike[str], data: bytes) -> Path:
    """Write ``path``'s integrity sidecar (atomic, no recursion).

    Format: one line, ``sha256:<hex>:<length>``.  The sidecar is itself
    replaced atomically but carries no sidecar of its own.
    """
    side = sidecar_path(path)
    digest = hashlib.sha256(data).hexdigest()
    content = f"sha256:{digest}:{len(data)}\n".encode("ascii")
    tmp = side.with_name(side.name + TMP_SUFFIX)
    with open(tmp, "wb") as fh:
        fh.write(content)
        fh.flush()
        try:
            _fsync(fh.fileno())
        except OSError:
            pass
    _replace(tmp, side)
    return side


def read_sidecar(path: str | os.PathLike[str]) -> tuple[str, str, int] | None:
    """Parse ``path``'s sidecar into ``(algo, hexdigest, length)``.

    Returns ``None`` when the sidecar is missing or garbled (a garbled
    sidecar never condemns the payload — the payload is validated on
    its own merits).
    """
    try:
        raw = sidecar_path(path).read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None
    fields = raw.split(":")
    if len(fields) != 3:
        return None
    algo, digest, length = fields
    try:
        return algo, digest, int(length)
    except ValueError:
        return None


def verify_sidecar(path: str | os.PathLike[str]) -> str:
    """Check ``path`` against its sidecar.

    Returns one of:

    * ``"ok"`` — sidecar present and the payload matches;
    * ``"missing"`` — no (readable) sidecar: integrity unknown;
    * ``"stale"`` — sidecar present but does not describe the payload.
      Either the payload rotted, or a crash landed between the payload
      replace and the sidecar refresh — the caller decides by
      validating the payload itself;
    * ``"unreadable"`` — the payload itself cannot be read.
    """
    parsed = read_sidecar(path)
    if parsed is None:
        return "missing"
    algo, digest, length = parsed
    try:
        data = Path(path).read_bytes()
    except OSError:
        return "unreadable"
    if len(data) != length:
        return "stale"
    if algo != "sha256" or hashlib.sha256(data).hexdigest() != digest:
        return "stale"
    return "ok"


# -- whole-file durable writes -------------------------------------------------


def durable_write_bytes(
    path: str | os.PathLike[str],
    data: bytes,
    *,
    site: str | None = None,
    checksum: bool = True,
    fsync: bool = True,
) -> Path:
    """Atomically and durably replace ``path`` with ``data``.

    Protocol: write ``<name>.tmp`` in the target's directory, flush +
    ``fsync`` it, ``os.replace`` over the target, ``fsync`` the
    directory, then refresh the ``<name>.sum`` sidecar (when
    ``checksum``).  ``fsync=False`` keeps the atomicity (tmp + replace)
    but skips the syncs for hot paths where the OS cache is acceptable.

    ``site`` names the fault-injection checkpoint: ``<site>`` fires
    before anything is written (a ``partial-write`` fault truncates the
    payload into the temp file and raises, leaving the target intact),
    ``<site>@rename`` between the durable temp and the replace, and
    ``<site>@dirsync`` between the replace and the directory sync — the
    three distinct crash windows of the protocol.
    """
    from repro.harness import faults

    target = Path(path)
    tmp = target.with_name(target.name + TMP_SUFFIX)
    if site is not None:
        fault = faults.inject(site)
        if fault is not None:  # partial-write: torn temp, target untouched
            with open(tmp, "wb") as fh:
                fh.write(data[: max(1, len(data) // 2)])
                fh.flush()
            raise faults.FaultError(site, fault.kind)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if fsync:
            try:
                _fsync(fh.fileno())
            except OSError:
                pass
    if site is not None:
        faults.inject(site + "@rename")
    _replace(tmp, target)
    if site is not None:
        faults.inject(site + "@dirsync")
    if fsync:
        fsync_directory(target.parent)
    if checksum:
        write_sidecar(target, data)
    return target


def durable_write_text(
    path: str | os.PathLike[str],
    text: str,
    *,
    site: str | None = None,
    checksum: bool = True,
    fsync: bool = True,
    encoding: str = "utf-8",
) -> Path:
    """:func:`durable_write_bytes` for text content."""
    return durable_write_bytes(
        path, text.encode(encoding), site=site, checksum=checksum, fsync=fsync
    )


def durable_write_json(
    path: str | os.PathLike[str],
    obj: Any,
    *,
    site: str | None = None,
    checksum: bool = True,
    fsync: bool = True,
    indent: int | None = 2,
    sort_keys: bool = False,
) -> Path:
    """:func:`durable_write_bytes` for a JSON document (+ trailing LF)."""
    payload = json.dumps(obj, indent=indent, sort_keys=sort_keys, default=str)
    return durable_write_bytes(
        path,
        (payload + "\n").encode("utf-8"),
        site=site,
        checksum=checksum,
        fsync=fsync,
    )


# -- append-only JSONL integrity -----------------------------------------------


def crc32_hex(data: bytes) -> str:
    """CRC32 of ``data`` as eight lowercase hex digits."""
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def jsonl_line(payload: dict) -> str:
    """Serialise one JSONL record with an embedded CRC32 (no newline).

    The CRC is computed over the record serialised *without* the
    :data:`CRC_KEY` key, which is then appended as the final key — so
    :func:`decode_jsonl_line` can pop it and recompute over the same
    byte sequence.  The line remains plain JSON for any consumer that
    ignores the extra key.
    """
    body = json.dumps(payload, default=str)
    crc = crc32_hex(body.encode("utf-8"))
    if body == "{}":
        return json.dumps({CRC_KEY: crc})
    return f'{body[:-1]}, "{CRC_KEY}": "{crc}"}}'


def decode_jsonl_line(line: str) -> tuple[dict | None, str]:
    """Parse one JSONL line; returns ``(payload, status)``.

    ``status`` is one of:

    * ``"ok"`` — decoded and the embedded CRC matches;
    * ``"unchecked"`` — decoded but carries no CRC (a pre-durability
      record, or one written by an external tool) — trusted as before;
    * ``"mismatch"`` — decoded JSON whose CRC disagrees: mid-file
      corruption, payload is returned for forensics but must not be
      trusted;
    * ``"garbled"`` — not decodable at all (the torn tail of a crashed
      run, or arbitrary corruption), payload is ``None``.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None, "garbled"
    if not isinstance(obj, dict):
        return None, "garbled"
    crc = obj.pop(CRC_KEY, None)
    if crc is None:
        return obj, "unchecked"
    body = json.dumps(obj, default=str)
    if crc32_hex(body.encode("utf-8")) != crc:
        return obj, "mismatch"
    return obj, "ok"


# -- memmap prefix checksums ---------------------------------------------------


def crc32_of_array_prefix(array, prefix: int, chunk_rows: int = 1 << 20) -> str:
    """CRC32 (hex) over the first ``prefix`` entries of every row (along
    the last axis; a 1-D array is one row) of a (mem)mapped array.

    Chunked so a multi-hundred-MB frontier never materialises in RAM;
    the resulting stamp goes into the atomically-written metadata that
    trails the array, giving resumed builds torn-write detection.
    """
    crc = 0
    for row in array.reshape(-1, array.shape[-1]):
        for lo in range(0, int(prefix), chunk_rows):
            hi = min(int(prefix), lo + chunk_rows)
            crc = zlib.crc32(row[lo:hi].tobytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"
