"""Load generation through the gateway, and the benchmark's own spans.

One process, at most ``clients`` threads (never more than the host's
cores), one connection per thread at a time.  Each job is a
``POST /v1/jobs`` followed by ``GET /v1/jobs/{id}/events`` read to the
terminal event.

Closed loop: each client sends its next job when the previous one ends,
and a job's latency runs from its submit.  Open loop: each job has a due
time on a seeded schedule, a free client sends it no earlier than that,
and its latency runs from the due time, so a stalled client charges the
wait to the jobs behind it; ``late_s`` says how late the sender ran.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


class Spans:
    """Spans the benchmark records around its own calls into a layer:
    name, start, end, parent, and the id of the job they belong to.
    Kept in memory and written out when the run ends.  Disabled, it
    records nothing and costs one branch."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, job: Any = None,
             parent: Optional[int] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.records.append({"id": span_id, "name": name, "job": job,
                                 "parent": parent, "start": start,
                                 "end": time.perf_counter()})


@dataclass
class JobRecord:
    index: int  # position in the send order; negative outside the phase
    pool_index: int
    due: float  # perf_counter time the latency clock starts
    sent: float = 0.0
    acked: float = 0.0
    sse_first: float = 0.0  # first SSE frame (the stream ack)
    first_event: float = 0.0  # first frame carrying a job event
    done: float = 0.0
    job_id: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    cached: bool = False
    wire_bytes: int = 0
    error: Optional[str] = None
    verified: bool = False
    f1: Optional[float] = None
    trace: Optional[Dict[str, Any]] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def completed(self) -> bool:
        return self.result is not None and self.error is None


def run_job(client, spec: Dict[str, Any], record: JobRecord, spans: Spans,
            submit_bytes: int) -> None:
    """Submit *spec* through the gateway and read its events to the end."""
    record.sent = time.perf_counter()
    try:
        with spans.span("gateway.job", record.index) as root:
            with spans.span("gateway.submit", record.index, root):
                ack = client.submit(spec)
            record.acked = time.perf_counter()
            record.job_id = ack["job_id"]
            record.wire_bytes = submit_bytes
            with spans.span("gateway.events", record.index, root):
                for event, data in client.stream_raw(record.job_id):
                    now = time.perf_counter()
                    record.wire_bytes += len(data) + 1
                    if not record.sse_first:
                        record.sse_first = now
                    if event is None:
                        continue  # the stream ack
                    if not record.first_event:
                        record.first_event = now
                    if event == "result":
                        doc = json.loads(data)
                        record.result = doc["result"]
                        record.cached = bool(doc.get("cached"))
                    elif event in ("error", "cancelled"):
                        record.error = f"terminal event {event}: {data[:200]}"
            record.done = time.perf_counter()
        if record.result is None and record.error is None:
            record.error = "stream ended without a result"
    except Exception as exc:  # a refused or failed job is a counted miss
        record.error = f"{type(exc).__name__}: {exc}"
        record.done = time.perf_counter()


def prime(client, specs: List[Dict[str, Any]], order: List[int], spans: Spans,
          submit_bytes: List[int],
          after_job: Optional[Callable[[Any, JobRecord], None]] = None) -> List[JobRecord]:
    """Send each distinct job of *order* once, one at a time, before
    the measured phase: these are the first touches of their keys."""
    records = []
    for n, i in enumerate(dict.fromkeys(order)):
        record = JobRecord(index=-1 - n, pool_index=i, due=time.perf_counter())
        run_job(client, specs[i], record, spans, submit_bytes[i])
        records.append(record)
        if after_job is not None:
            after_job(client, record)
    return records


@dataclass
class Phase:
    records: List[JobRecord] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    late_s: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.ended - self.started


def drive(make_client: Callable[[], Any], specs: List[Dict[str, Any]],
          submit_bytes: List[int], order: List[int], due: Optional[List[float]],
          clients: int, seconds: float, spans: Spans,
          after_job: Optional[Callable[[Any, JobRecord], None]] = None) -> Phase:
    """Send jobs from *order* for *seconds* (closed loop when *due* is
    None, open loop otherwise) and return every attempted job.

    Jobs in flight when the window closes finish and count; no job
    starts after it.  *after_job* runs on the client thread outside the
    latency clock (the traced run fetches the job's trace there).
    """
    phase = Phase()
    lock = threading.Lock()
    counter = itertools.count()
    phase.started = time.perf_counter()
    stop_at = phase.started + seconds

    def client_loop() -> None:
        client = make_client()
        while True:
            n = next(counter)
            if n >= len(order):
                return
            if due is None:
                if time.perf_counter() >= stop_at:
                    return
                start = time.perf_counter()
            else:
                start = phase.started + due[n]
                wait = start - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            record = JobRecord(index=n, pool_index=order[n], due=start)
            run_job(client, specs[order[n]], record, spans, submit_bytes[order[n]])
            with lock:
                phase.records.append(record)
                if due is not None:
                    phase.late_s.append(max(0.0, record.sent - start))
            if after_job is not None:
                after_job(client, record)

    # Daemon threads: if the run's watchdog fires, the process can exit
    # without waiting for clients stuck on a dead server.
    threads = [threading.Thread(target=client_loop, name=f"client-{i}", daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.ended = max((r.done for r in phase.records), default=time.perf_counter())
    phase.records.sort(key=lambda r: r.index)
    return phase
