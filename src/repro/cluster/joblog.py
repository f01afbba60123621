"""Durable append-only job log: a JSON-lines WAL with replay + compaction.

Both cluster roles persist their in-flight work through this one module:
the :class:`~repro.cluster.router.ShardRouter` records every job its
dispatch leaves pending, and each
:class:`~repro.service.server.DetectionService` backend records every
job it queues, so a restart of either resumes pending jobs instead of
forgetting them.

Both roles log only work that is still pending.  A cache hit is complete
before the client's ack is sent, so neither role writes a record for it:
there is nothing a restart would need to replay, and the hit skips a
write of its whole spec (inline pixels included).  "No acked job is
lost" still holds: a pending job's ``submit`` (and, on the router, its
``assign``) is flushed before its ack leaves the process.  At-most-once
completion is unchanged too: a job with no record was never pending.

The record vocabulary is three verbs over one job id:

``submit``
    The job exists: its wire spec (replayable), routing key, client and
    priority.
``assign``
    The job is placed: which backend node owns it (router-side only),
    and under which backend-local job id.
``complete``
    The job is finished (``done``/``failed``/``cancelled``/
    ``replayed``) and will never be replayed.

A job is *pending* iff its ``submit`` has no ``complete``.  Replay
returns pending jobs in submission order with their latest assignment,
which is all a restarted process needs: re-admit (service) or re-route
(router) each one.  Completion is therefore *at-most-once by
construction only together with content addressing*: a job that finished
just before the crash-without-``complete`` window replays as a fresh
submission, and the backend's content-addressed
:class:`~repro.engine.cache.ResultCache` collapses it into a cache hit
instead of a second computation.

Durability model: records are written line-atomically and flushed on
every append; ``fsync=True`` additionally forces them to stable storage
(off by default — the log defends against process death, not power
loss).  A torn final line from a mid-write crash is skipped on replay,
never fatal.  Compaction rewrites the file keeping only pending jobs'
records (atomic ``os.replace``) and runs automatically every
``compact_every`` appends once completed records dominate.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.errors import ClusterError

__all__ = ["JobLog", "JobLogReplay", "PendingJob"]

#: Job-log states a ``complete`` record may carry.
COMPLETE_STATES = frozenset({"done", "failed", "cancelled", "replayed"})


@dataclass
class PendingJob:
    """One incomplete job as replay reconstructs it."""

    job_id: str
    spec: Dict[str, Any]
    key: Optional[str] = None
    client: Optional[str] = None
    priority: int = 0
    submitted_at: float = 0.0
    node: Optional[str] = None  #: last assigned backend (router logs)
    backend_job_id: Optional[str] = None
    n_assigns: int = 0


@dataclass
class JobLogReplay:
    """What a full log scan found."""

    pending: "Dict[str, PendingJob]" = field(default_factory=dict)
    n_records: int = 0
    n_submitted: int = 0
    n_completed: int = 0
    n_corrupt: int = 0  #: undecodable lines skipped (torn writes)

    @property
    def n_pending(self) -> int:
        return len(self.pending)


class JobLog:
    """An append-only JSON-lines WAL over one file.

    Parameters
    ----------
    path:
        The log file; created (with parents) on first append.
    fsync:
        Force every append to stable storage.  Default off: flush-only
        survives process death, which is the failure mode the cluster
        tests exercise.
    compact_every:
        Auto-compaction cadence — every N appends, rewrite the file if
        completed records outnumber pending ones.  ``0`` disables
        auto-compaction (``compact()`` stays available).
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = False,
        compact_every: int = 512,
    ) -> None:
        if compact_every < 0:
            raise ClusterError(f"compact_every must be >= 0, got {compact_every}")
        self.path = Path(path)
        self.fsync = fsync
        self.compact_every = compact_every
        self._file = None
        #: Guards the append handle and file identity (swap/close); held
        #: only for O(1) work so event-loop appends never stall.
        self._lock = threading.Lock()
        #: Serialises whole compactions against each other (the long
        #: snapshot phase runs outside ``_lock``).
        self._compact_lock = threading.Lock()
        self._appends_since_compact = 0
        self._compactor: Optional[threading.Thread] = None
        self.n_appended = 0
        self.n_compactions = 0

    # -- appending -------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Write one record line; flushes (and optionally fsyncs)."""
        rtype = record.get("type")
        if rtype not in ("submit", "assign", "complete"):
            raise ClusterError(f"unknown job-log record type {rtype!r}")
        if not isinstance(record.get("job_id"), str):
            raise ClusterError(f"job-log records need a string job_id: {record!r}")
        line = json.dumps(record, separators=(",", ":")) + "\n"
        compactor: Optional[threading.Thread] = None
        with self._lock:
            self._write_line(line)
            self.n_appended += 1
            self._appends_since_compact += 1
            if (
                self.compact_every > 0
                and self._appends_since_compact >= self.compact_every
                and (self._compactor is None or not self._compactor.is_alive())
            ):
                # Off the caller's thread: append() runs on the router/
                # service event loop, and compaction reads + rewrites
                # the file.  The thread is started via the *local* —
                # racing appenders may each create a thread (harmless,
                # compaction is idempotent and serialised), but nobody
                # ever start()s an object another thread replaced.
                compactor = threading.Thread(
                    target=lambda: self.compact(only_if_worthwhile=True),
                    name="repro-joblog-compact",
                    daemon=True,
                )
                self._compactor = compactor
                self._appends_since_compact = 0
        if compactor is not None:
            compactor.start()

    def _write_line(self, line: str) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Seal a torn final line from a previous crash before
            # appending: without its newline, the torn fragment and the
            # next record would merge into one corrupt line, losing a
            # good record along with the torn one.
            if self.path.is_file():
                with open(self.path, "rb") as fh:
                    try:
                        fh.seek(-1, os.SEEK_END)
                        torn = fh.read(1) != b"\n"
                    except OSError:
                        torn = False
                if torn:
                    with open(self.path, "ab") as fh:
                        fh.write(b"\n")
            self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(line)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    # -- the three verbs -------------------------------------------------------
    def log_submit(
        self,
        job_id: str,
        spec: Dict[str, Any],
        key: Optional[str] = None,
        client: Optional[str] = None,
        priority: int = 0,
    ) -> None:
        self.append({
            "type": "submit",
            "job_id": job_id,
            "spec": spec,
            "key": key,
            "client": client,
            "priority": priority,
            "t": time.time(),
        })

    def log_assign(
        self,
        job_id: str,
        node: Optional[str] = None,
        backend_job_id: Optional[str] = None,
    ) -> None:
        self.append({
            "type": "assign",
            "job_id": job_id,
            "node": node,
            "backend_job_id": backend_job_id,
            "t": time.time(),
        })

    def log_complete(self, job_id: str, state: str) -> None:
        if state not in COMPLETE_STATES:
            raise ClusterError(
                f"complete state must be one of {sorted(COMPLETE_STATES)}, got {state!r}"
            )
        self.append({
            "type": "complete",
            "job_id": job_id,
            "state": state,
            "t": time.time(),
        })

    # -- reading ---------------------------------------------------------------
    def records(self) -> Iterator[Dict[str, Any]]:
        """Every decodable record, in file order (corrupt lines skipped)."""
        if not self.path.is_file():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                record = self._decode(line)
                if record is not None:
                    yield record

    @staticmethod
    def _decode(line: str) -> Optional[Dict[str, Any]]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict) or not isinstance(record.get("job_id"), str):
            return None
        if record.get("type") not in ("submit", "assign", "complete"):
            return None
        return record

    def replay(self, max_bytes: Optional[int] = None) -> JobLogReplay:
        """Scan the log and reconstruct the pending-job set.

        Submission order is preserved (dict insertion order), so a
        restarted process re-admits jobs in the order clients submitted
        them.  ``assign`` records for unknown jobs (compacted-away
        submits) and duplicate ``complete`` records are tolerated.
        *max_bytes* bounds the scan to a prefix (always a line boundary
        for sizes observed under the append lock) — the compaction
        snapshot uses it so concurrent appends land beyond the bound.
        """
        out = JobLogReplay()
        if not self.path.is_file():
            return out
        consumed = 0
        with open(self.path, "rb") as fh:
            for raw in fh:
                if max_bytes is not None and consumed + len(raw) > max_bytes:
                    break
                consumed += len(raw)
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    out.n_corrupt += 1
                    continue
                if not line.strip():
                    continue
                record = self._decode(line)
                if record is None:
                    out.n_corrupt += 1
                    continue
                out.n_records += 1
                job_id = record["job_id"]
                rtype = record["type"]
                if rtype == "submit":
                    out.n_submitted += 1
                    spec = record.get("spec")
                    if not isinstance(spec, dict):
                        out.n_corrupt += 1
                        continue
                    out.pending[job_id] = PendingJob(
                        job_id=job_id,
                        spec=spec,
                        key=record.get("key"),
                        client=record.get("client"),
                        priority=int(record.get("priority") or 0),
                        submitted_at=float(record.get("t") or 0.0),
                    )
                elif rtype == "assign":
                    job = out.pending.get(job_id)
                    if job is not None:
                        job.node = record.get("node")
                        job.backend_job_id = record.get("backend_job_id")
                        job.n_assigns += 1
                elif rtype == "complete":
                    if out.pending.pop(job_id, None) is not None:
                        out.n_completed += 1
        return out

    # -- compaction ------------------------------------------------------------
    def compact(self, only_if_worthwhile: bool = False) -> int:
        """Rewrite the log keeping only pending jobs' records.

        Returns the number of records dropped.  With
        *only_if_worthwhile*, skips the rewrite while pending records
        still dominate (compacting a mostly-live log buys nothing).
        Atomic: the new file is written beside the old and swapped in
        with ``os.replace``.

        Concurrency: the expensive phase (prefix replay + rewrite) runs
        against a byte-bounded snapshot *without* holding the append
        lock, so appends — which run on the router/service event loop —
        stay O(1) throughout; the lock is taken only to splice the
        records appended meanwhile onto the rewritten file and swap it
        in.  Whole compactions serialise on their own lock.
        """
        with self._compact_lock:
            with self._lock:
                if not self.path.is_file():
                    self._appends_since_compact = 0
                    return 0
                if self._file is not None:
                    self._file.flush()
                snapshot_size = self.path.stat().st_size

            # -- long phase: appends keep flowing past snapshot_size ----
            replay = self.replay(max_bytes=snapshot_size)
            live = replay.n_pending
            kept = sum(
                1 + (1 if job.n_assigns else 0) for job in replay.pending.values()
            )
            dropped = replay.n_records - kept
            if only_if_worthwhile and (live > 0 and dropped < live):
                with self._lock:
                    self._appends_since_compact = 0
                return 0
            tmp = self.path.with_suffix(self.path.suffix + ".compact")
            with open(tmp, "w", encoding="utf-8") as fh:
                for job in replay.pending.values():
                    fh.write(json.dumps({
                        "type": "submit",
                        "job_id": job.job_id,
                        "spec": job.spec,
                        "key": job.key,
                        "client": job.client,
                        "priority": job.priority,
                        "t": job.submitted_at,
                    }, separators=(",", ":")) + "\n")
                    if job.n_assigns:
                        fh.write(json.dumps({
                            "type": "assign",
                            "job_id": job.job_id,
                            "node": job.node,
                            "backend_job_id": job.backend_job_id,
                            "t": job.submitted_at,
                        }, separators=(",", ":")) + "\n")
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())

            # -- short phase: splice the concurrent tail, swap ----------
            with self._lock:
                with open(self.path, "rb") as src:
                    src.seek(snapshot_size)
                    tail = src.read()
                if tail:
                    with open(tmp, "ab") as fh:
                        fh.write(tail)
                        fh.flush()
                        if self.fsync:
                            os.fsync(fh.fileno())
                if self._file is not None:
                    self._file.close()
                    self._file = None
                os.replace(tmp, self.path)
                self.n_compactions += 1
                self._appends_since_compact = 0
            return max(0, dropped)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JobLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def summary(self) -> Dict[str, Any]:
        """Machine-readable log state for stats surfaces."""
        replay = self.replay()
        return {
            "path": str(self.path),
            "n_records": replay.n_records,
            "n_pending": replay.n_pending,
            "n_completed": replay.n_completed,
            "n_corrupt": replay.n_corrupt,
            "n_appended_this_session": self.n_appended,
            "n_compactions": self.n_compactions,
        }
