"""Cross-run sqlite index over every artifact dialect the library emits.

Five subsystems persist five artifact dialects:

* **obs runs** — ``manifest.json`` + ``events.jsonl`` (:mod:`repro.obs.artifacts`);
* **harness checkpoints** — ``journal.jsonl`` + ``checkpoint.json``
  (:mod:`repro.harness.checkpoint`);
* **budget frontiers** — ``frontier.json`` (+ ``frontier_succ.npy``) left
  by truncated governed sweeps;
* **benchmark reports** — ``BENCH_*.json`` (schema ``repro-bench/1``)
  from :mod:`benchmarks.conftest`;
* **qa findings** — ``finding-*.json`` from :mod:`repro.qa.findings`.

:class:`RunIndex` ingests any of them into one schema-versioned sqlite
database (``runs_index.sqlite``, WAL mode) with four tables — ``runs``,
``metrics``, ``spans``, ``findings`` — so "what ran, how fast, and is it
getting slower?" becomes a query instead of an archaeology dig.
Ingestion is as tolerant as the readers it builds on: truncated journal
lines are counted and skipped, unfinalized manifests index as
in-progress/interrupted rather than erroring, and re-indexing the same
artifact replaces its previous rows (idempotent).

:func:`compare_medians` is the shared regression arithmetic — both
``repro runs compare`` and ``benchmarks/compare_bench.py`` call it, so
the CLI gate and the CI gate can never drift apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path

from repro.core import durable

__all__ = [
    "DB_NAME",
    "SCHEMA_VERSION",
    "RunIndex",
    "check_database",
    "open_with_recovery",
    "compare_medians",
    "bench_medians",
]

DB_NAME = "runs_index.sqlite"
SCHEMA_VERSION = 1

#: Quarantine name for a corrupt/foreign database moved aside by
#: :func:`open_with_recovery` (the previous quarantined copy, if any, is
#: overwritten — the rebuilt index is the artifact of record).
CORRUPT_SUFFIX = ".corrupt"

durable.register_write_site(
    "index.write", "ingest artifacts into runs_index.sqlite (WAL transactions)"
)

#: events.jsonl rows are inserted in batches of this many.
_SPAN_BATCH = 512

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id     TEXT PRIMARY KEY,
    path       TEXT NOT NULL,
    kind       TEXT NOT NULL,
    command    TEXT,
    status     TEXT,
    started    TEXT,
    finished   TEXT,
    duration_s REAL,
    exit_code  INTEGER,
    schema     TEXT,
    extra      TEXT,
    indexed_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id  TEXT NOT NULL,
    name    TEXT NOT NULL,
    kind    TEXT NOT NULL,
    value   REAL,
    count   INTEGER,
    total_s REAL,
    mean_s  REAL,
    min_s   REAL,
    max_s   REAL,
    p50_s   REAL,
    p95_s   REAL,
    p99_s   REAL,
    PRIMARY KEY (run_id, name, kind)
);
CREATE TABLE IF NOT EXISTS spans (
    run_id     TEXT NOT NULL,
    seq        INTEGER NOT NULL,
    name       TEXT,
    depth      INTEGER,
    t_start    REAL,
    duration_s REAL,
    self_s     REAL,
    error      TEXT,
    attrs      TEXT,
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS findings (
    run_id     TEXT NOT NULL,
    name       TEXT NOT NULL,
    check_name TEXT,
    digest     TEXT,
    spec       TEXT,
    shrunk     INTEGER,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS idx_spans_name ON spans (name);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
"""


def _path_id(prefix: str, path: Path, salt: str = "") -> str:
    digest = hashlib.sha256(
        (str(path.resolve()) + "\0" + salt).encode("utf-8")
    ).hexdigest()[:12]
    return f"{prefix}-{digest}"


def _jdump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


class RunIndex:
    """Reader/writer for one ``runs_index.sqlite`` database."""

    def __init__(self, path: str | os.PathLike[str] = DB_NAME):
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.conn = sqlite3.connect(self.path)
        self.conn.row_factory = sqlite3.Row
        self.conn.execute("PRAGMA journal_mode=WAL")
        version = self.conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            raise RuntimeError(
                f"{self.path}: index schema v{version} is newer than this "
                f"library's v{SCHEMA_VERSION}; refusing to touch it"
            )
        with self.conn:
            self.conn.executescript(_SCHEMA)
            self.conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "RunIndex":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- ingestion -------------------------------------------------------------

    def index_run(self, path: str | os.PathLike[str]) -> list[str]:
        """Ingest every artifact found at ``path`` (file or tree).

        A directory is walked recursively; each directory contributes
        whichever dialects it holds (a single run dir can hold several —
        e.g. a CLI run with both a manifest and a saved frontier).
        Returns the run_ids created or refreshed.
        """
        # Lazy import mirrors the dialect readers below: obs must stay
        # importable without the harness package.
        from repro.harness import faults

        faults.inject("index.write")
        p = Path(path)
        if p.is_file():
            run_id = self._ingest_file(p)
            return [run_id] if run_id else []
        if not p.is_dir():
            raise FileNotFoundError(f"no such run path: {p}")
        ingested: list[str] = []
        for dirpath, _dirnames, filenames in os.walk(p):
            d = Path(dirpath)
            names = set(filenames)
            if "manifest.json" in names:
                ingested.append(self._ingest_manifest(d))
            if "journal.jsonl" in names or "checkpoint.json" in names:
                ingested.append(self._ingest_harness(d))
            if "frontier.json" in names:
                rid = self._ingest_frontier(d)
                if rid:
                    ingested.append(rid)
            for fname in sorted(names):
                fp = d / fname
                if fname.startswith("BENCH_") and fname.endswith(".json"):
                    rid = self._ingest_bench(fp)
                elif fname.startswith("finding") and fname.endswith(".json"):
                    rid = self._ingest_finding(fp)
                else:
                    continue
                if rid:
                    ingested.append(rid)
        return ingested

    def _ingest_file(self, path: Path) -> str | None:
        name = path.name
        if name.startswith("BENCH_") and name.endswith(".json"):
            return self._ingest_bench(path)
        if name == "manifest.json":
            return self._ingest_manifest(path.parent)
        if name in ("journal.jsonl", "checkpoint.json"):
            return self._ingest_harness(path.parent)
        if name == "frontier.json":
            return self._ingest_frontier(path.parent)
        if name.endswith(".json"):
            return self._ingest_finding(path)
        raise ValueError(f"unrecognised artifact file: {path}")

    def _replace_run(
        self,
        run_id: str,
        *,
        path: Path,
        kind: str,
        command: str | None = None,
        status: str | None = None,
        started: str | None = None,
        finished: str | None = None,
        duration_s: float | None = None,
        exit_code: int | None = None,
        schema: str | None = None,
        extra: dict | None = None,
    ) -> None:
        with self.conn:
            for table in ("metrics", "spans", "findings"):
                self.conn.execute(
                    f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
                )
            self.conn.execute(
                "INSERT OR REPLACE INTO runs (run_id, path, kind, command, "
                "status, started, finished, duration_s, exit_code, schema, "
                "extra, indexed_at) VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                (
                    run_id,
                    str(path.resolve()),
                    kind,
                    command,
                    status,
                    started,
                    finished,
                    duration_s,
                    exit_code,
                    schema,
                    _jdump(extra) if extra else None,
                    time.time(),
                ),
            )

    def _insert_metrics(self, run_id: str, snapshot: dict) -> None:
        rows: list[tuple] = []
        for name, value in (snapshot.get("counters") or {}).items():
            rows.append(
                (run_id, name, "counter", float(value), None, None, None,
                 None, None, None, None, None)
            )
        for name, value in (snapshot.get("gauges") or {}).items():
            rows.append(
                (run_id, name, "gauge", float(value), None, None, None,
                 None, None, None, None, None)
            )
        for name, stats in (snapshot.get("timers") or {}).items():
            if not isinstance(stats, dict):
                continue
            rows.append(
                (
                    run_id, name, "timer", None,
                    stats.get("count"), stats.get("total_s"),
                    stats.get("mean_s"), stats.get("min_s"),
                    stats.get("max_s"), stats.get("p50_s"),
                    stats.get("p95_s"), stats.get("p99_s"),
                )
            )
        if rows:
            with self.conn:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO metrics VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?)",
                    rows,
                )

    # -- dialect: obs manifest + events ---------------------------------------

    def _ingest_manifest(self, directory: Path) -> str:
        from repro.obs.artifacts import load_manifest, read_events

        manifest = load_manifest(directory)
        run_id = str(manifest.get("run_id") or _path_id("manifest", directory))
        if manifest.get("finalized"):
            status = str(manifest.get("status") or "complete")
        else:
            status = "in-progress"
        extra = {
            k: manifest.get(k)
            for k in ("python", "platform", "repro_version", "argv")
            if manifest.get(k) is not None
        }
        self._replace_run(
            run_id,
            path=directory,
            kind="manifest",
            command=manifest.get("command"),
            status=status,
            started=manifest.get("started"),
            finished=manifest.get("finished"),
            duration_s=manifest.get("duration_s"),
            exit_code=manifest.get("exit_code"),
            extra=extra or None,
        )
        metrics = manifest.get("metrics")
        if isinstance(metrics, dict):
            self._insert_metrics(run_id, metrics)
        # Stream the event log in bounded batches — it can be huge.
        batch: list[tuple] = []
        seq = 0
        for ev in read_events(directory):
            if ev.get("event") not in (None, "span"):
                continue
            batch.append(
                (
                    run_id, seq,
                    ev.get("name"), ev.get("depth"), ev.get("t_start"),
                    ev.get("duration_s"), ev.get("self_s"), ev.get("error"),
                    _jdump(ev["attrs"]) if ev.get("attrs") else None,
                )
            )
            seq += 1
            if len(batch) >= _SPAN_BATCH:
                self._flush_spans(batch)
                batch = []
        self._flush_spans(batch)
        return run_id

    def _flush_spans(self, rows: list[tuple]) -> None:
        if rows:
            with self.conn:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO spans VALUES (?,?,?,?,?,?,?,?,?)",
                    rows,
                )

    # -- dialect: harness journal + checkpoint --------------------------------

    def _ingest_harness(self, directory: Path) -> str:
        from repro.harness.checkpoint import journal_summary

        summary = journal_summary(directory)
        run_id = _path_id("harness", directory)
        statuses = summary["statuses"]
        if summary["in_flight"]:
            status = "in-progress"
        elif statuses and all(s == "ok" for s in statuses.values()):
            status = "complete"
        elif statuses:
            bad = sorted(s for s in statuses.values() if s != "ok")
            status = bad[0] if bad else "complete"
        else:
            status = "empty"
        first_ts = summary.get("first_ts")
        last_ts = summary.get("last_ts")
        self._replace_run(
            run_id,
            path=directory,
            kind="harness",
            command="run",
            status=status,
            started=_iso(first_ts),
            finished=_iso(last_ts) if not summary["in_flight"] else None,
            duration_s=(
                last_ts - first_ts
                if first_ts is not None and last_ts is not None
                else None
            ),
            extra={
                "experiments": len(statuses),
                "in_flight": summary["in_flight"],
                "skipped_journal_lines": summary["skipped"],
                "statuses": statuses,
            },
        )
        durations = summary.get("durations") or {}
        rows = [
            (
                run_id, f"experiment.{eid}", "timer", None,
                1, dur, dur, dur, dur, None, None, None,
            )
            for eid, dur in durations.items()
            if isinstance(dur, (int, float))
        ]
        if rows:
            with self.conn:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO metrics VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?)",
                    rows,
                )
        return run_id

    # -- dialect: budget frontier ---------------------------------------------

    def _ingest_frontier(self, directory: Path) -> str | None:
        try:
            meta = json.loads(
                (directory / "frontier.json").read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None  # torn first write — same tolerance as load_frontier
        run_id = _path_id("frontier", directory)
        saved = meta.get("saved_ts")
        self._replace_run(
            run_id,
            path=directory,
            kind="frontier",
            command="sweep",
            status="truncated",
            started=_iso(saved),
            finished=_iso(saved),
            extra={
                k: meta.get(k)
                for k in ("kind", "n", "reason", "explored", "next_lo", "mode")
                if meta.get(k) is not None
            },
        )
        stats = meta.get("stats")
        if isinstance(stats, dict):
            gauges = {
                k: v for k, v in stats.items() if isinstance(v, (int, float))
            }
            if gauges:
                self._insert_metrics(run_id, {"gauges": gauges})
        return run_id

    # -- dialect: benchmark report --------------------------------------------

    def _ingest_bench(self, path: Path) -> str | None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or "benchmarks" not in payload:
            return None
        module = str(payload.get("module") or path.stem)
        run_id = _path_id(
            f"bench-{module.removeprefix('bench_')}",
            path,
            salt=str(payload.get("generated", "")),
        )
        exit_status = payload.get("exit_status")
        self._replace_run(
            run_id,
            path=path,
            kind="bench",
            command=module,
            status="complete" if exit_status in (0, None) else "failing",
            started=payload.get("generated"),
            finished=payload.get("generated"),
            exit_code=exit_status,
            schema=payload.get("schema"),
            extra=payload.get("environment"),
        )
        rows: list[tuple] = []
        for entry in payload.get("benchmarks", []):
            if not isinstance(entry, dict):
                continue
            stats = entry.get("stats") or {}
            fullname = entry.get("fullname")
            if not fullname:
                continue
            rows.append(
                (
                    run_id, str(fullname), "timer", None,
                    stats.get("rounds"), stats.get("total_s"),
                    stats.get("mean_s"), stats.get("min_s"),
                    stats.get("max_s"), stats.get("median_s"),
                    None, None,
                )
            )
        if rows:
            with self.conn:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO metrics VALUES "
                    "(?,?,?,?,?,?,?,?,?,?,?,?)",
                    rows,
                )
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            self._insert_metrics(run_id, metrics)
        return run_id

    # -- dialect: qa finding ---------------------------------------------------

    def _ingest_finding(self, path: Path) -> str | None:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or "check" not in data or "spec" not in data:
            return None
        digest = str(data.get("digest") or _path_id("qa", path)[3:])
        run_id = f"qa-{digest}"
        self._replace_run(
            run_id,
            path=path,
            kind="finding",
            command="fuzz",
            status="failing",
            extra={
                "backends": data.get("backends"),
                "shrink_steps": data.get("shrink_steps"),
            },
        )
        with self.conn:
            self.conn.execute(
                "INSERT OR REPLACE INTO findings VALUES (?,?,?,?,?,?)",
                (
                    run_id,
                    path.stem,
                    data.get("check"),
                    digest,
                    _jdump(data.get("spec")),
                    1 if data.get("shrunk") else 0,
                ),
            )
        return run_id

    # -- queries ---------------------------------------------------------------

    def list_runs(self, kind: str | None = None) -> list[dict]:
        """All indexed runs, newest started first."""
        sql = "SELECT * FROM runs"
        params: tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " ORDER BY COALESCE(started, '') DESC, run_id"
        return [dict(r) for r in self.conn.execute(sql, params)]

    def get_run(self, run_id: str) -> dict | None:
        row = self.conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return dict(row) if row else None

    def resolve_run(self, token: str) -> dict:
        """Find one run by exact id or unique id prefix; raise otherwise."""
        run = self.get_run(token)
        if run is not None:
            return run
        rows = self.conn.execute(
            "SELECT * FROM runs WHERE run_id LIKE ? ORDER BY run_id",
            (token + "%",),
        ).fetchall()
        if len(rows) == 1:
            return dict(rows[0])
        if not rows:
            raise KeyError(f"no indexed run matches {token!r}")
        ids = ", ".join(r["run_id"] for r in rows[:5])
        raise KeyError(f"ambiguous run {token!r}: matches {ids}")

    def run_metrics(self, run_id: str) -> list[dict]:
        return [
            dict(r)
            for r in self.conn.execute(
                "SELECT * FROM metrics WHERE run_id = ? ORDER BY kind, name",
                (run_id,),
            )
        ]

    def run_spans(self, run_id: str, limit: int | None = None) -> list[dict]:
        sql = "SELECT * FROM spans WHERE run_id = ? ORDER BY seq"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [dict(r) for r in self.conn.execute(sql, (run_id,))]

    def run_findings(self, run_id: str) -> list[dict]:
        return [
            dict(r)
            for r in self.conn.execute(
                "SELECT * FROM findings WHERE run_id = ? ORDER BY name",
                (run_id,),
            )
        ]

    def counts(self, run_id: str) -> dict[str, int]:
        """Row counts per child table for one run (show/test helper)."""
        out: dict[str, int] = {}
        for table in ("metrics", "spans", "findings"):
            out[table] = self.conn.execute(
                f"SELECT COUNT(*) FROM {table} WHERE run_id = ?", (run_id,)
            ).fetchone()[0]
        return out

    def timer_medians(self, run_id: str) -> dict[str, float]:
        """Timer name -> best-available median seconds for one run.

        Prefers the recorded p50 (reservoir quantile for obs runs,
        ``median_s`` for bench entries), falling back to the mean — the
        same "median wall time per name" contract
        ``benchmarks/compare_bench.py`` gates on.
        """
        out: dict[str, float] = {}
        for row in self.conn.execute(
            "SELECT name, p50_s, mean_s FROM metrics "
            "WHERE run_id = ? AND kind = 'timer'",
            (run_id,),
        ):
            median = row["p50_s"]
            if median is None:
                median = row["mean_s"]
            if isinstance(median, (int, float)) and median > 0:
                out[row["name"]] = float(median)
        return out

    # -- maintenance -----------------------------------------------------------

    def gc(self, keep: int | None = None) -> int:
        """Drop rows whose artifact path no longer exists; returns count.

        With ``keep=N``, additionally retains only the ``N`` most
        recently indexed runs of each kind.
        """
        doomed = [
            row["run_id"]
            for row in self.conn.execute("SELECT run_id, path FROM runs")
            if not Path(row["path"]).exists()
        ]
        if keep is not None:
            by_kind: dict[str, list] = {}
            for row in self.conn.execute(
                "SELECT run_id, kind FROM runs ORDER BY indexed_at DESC"
            ):
                by_kind.setdefault(row["kind"], []).append(row["run_id"])
            for ids in by_kind.values():
                doomed.extend(ids[keep:])
        doomed = sorted(set(doomed))
        with self.conn:
            for run_id in doomed:
                for table in ("metrics", "spans", "findings", "runs"):
                    self.conn.execute(
                        f"DELETE FROM {table} WHERE run_id = ?", (run_id,)
                    )
        return len(doomed)


def check_database(path: str | os.PathLike[str]) -> str | None:
    """Probe one index database; return a problem description or ``None``.

    Checks, in order: the file opens as sqlite at all, ``PRAGMA
    quick_check`` reports ``ok``, and ``PRAGMA user_version`` is a schema
    this library can write (0 for a fresh file, else
    :data:`SCHEMA_VERSION`).  Never raises on a broken database — the
    whole point is to classify them.
    """
    try:
        conn = sqlite3.connect(Path(path))
        try:
            row = conn.execute("PRAGMA quick_check").fetchone()
            if row is None or str(row[0]).lower() != "ok":
                return f"integrity check failed: {row[0] if row else 'empty'}"
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, SCHEMA_VERSION):
                return (
                    f"schema v{version} does not match this library's "
                    f"v{SCHEMA_VERSION}"
                )
        finally:
            conn.close()
    except sqlite3.DatabaseError as exc:
        return f"not a readable sqlite database: {exc}"
    return None


def open_with_recovery(
    path: str | os.PathLike[str] = DB_NAME,
    rebuild_from: list[str | os.PathLike[str]] | None = None,
) -> tuple[RunIndex, dict | None]:
    """Open ``path`` as a :class:`RunIndex`, healing a broken database.

    On a clean open returns ``(index, None)``.  If :func:`check_database`
    finds the file corrupt or schema-mismatched, the database (plus its
    ``-wal``/``-shm`` companions) is moved aside to ``<name>.corrupt``, a
    fresh index is created in its place, and every path in
    ``rebuild_from`` is re-ingested; the second element then describes
    the recovery (``problem``, ``moved_to``, ``reindexed``).  Callers
    that want the hard-failure behaviour keep constructing
    :class:`RunIndex` directly.
    """
    db = Path(path)
    if not db.exists():
        return RunIndex(db), None
    problem = check_database(db)
    if problem is None:
        return RunIndex(db), None
    moved: list[str] = []
    quarantined = db.with_name(db.name + CORRUPT_SUFFIX)
    os.replace(db, quarantined)
    moved.append(str(quarantined))
    for suffix in ("-wal", "-shm"):
        companion = db.with_name(db.name + suffix)
        if companion.exists():
            target = companion.with_name(companion.name + CORRUPT_SUFFIX)
            os.replace(companion, target)
            moved.append(str(target))
    index = RunIndex(db)
    reindexed: list[str] = []
    for root in rebuild_from or []:
        try:
            reindexed.extend(index.index_run(root))
        except FileNotFoundError:
            continue
    return index, {
        "problem": problem,
        "moved_to": moved,
        "reindexed": sorted(set(reindexed)),
    }


def _iso(ts: float | None) -> str | None:
    if ts is None:
        return None
    from datetime import datetime, timezone

    return datetime.fromtimestamp(float(ts), timezone.utc).isoformat(
        timespec="milliseconds"
    )


def bench_medians(path: str | os.PathLike[str]) -> dict[str, float]:
    """Benchmark fullname -> median seconds from one ``BENCH_*.json``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    out: dict[str, float] = {}
    for entry in payload.get("benchmarks", []):
        median = entry.get("stats", {}).get("median_s")
        name = entry.get("fullname")
        if name and isinstance(median, (int, float)) and median > 0:
            out[str(name)] = float(median)
    return out


def compare_medians(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float = 2.0,
) -> tuple[list[str], bool]:
    """Per-timer report lines and whether any regression trips.

    Names are matched exactly; a timer present on only one side is
    reported (``NEW``/``MISSING``) but never fails the gate.  The gate
    trips when ``current > tolerance * baseline`` for any shared name —
    the exact arithmetic ``benchmarks/compare_bench.py`` has always
    applied to benchmark medians.
    """
    lines: list[str] = []
    failed = False
    for name in sorted(set(baseline) | set(current)):
        old = baseline.get(name)
        new = current.get(name)
        if old is None:
            lines.append(f"  NEW      {name}: {new:.4f}s (no baseline)")
            continue
        if new is None:
            lines.append(f"  MISSING  {name}: baseline {old:.4f}s, not rerun")
            continue
        ratio = new / old
        verdict = "OK"
        if ratio > tolerance:
            verdict = "REGRESSED"
            failed = True
        lines.append(
            f"  {verdict:<9}{name}: {old:.4f}s -> {new:.4f}s "
            f"({ratio:.2f}x)"
        )
    return lines, failed
