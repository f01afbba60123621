"""The cache-hit path: a repeated inline-pixel job costs O(key), not O(pixels).

Count guards on a gateway-fronted :class:`LocalCluster` with thread
backends.  After an image's first touch, identical resubmissions must
not decode the pixels again (no ``request_from_wire`` call on the
router or on the owning backend) and must not append to the router's
job log.  Work that is still pending stays durable: a queued miss is
logged ``submit`` → ``assign`` → ``complete``, and a router restart
before it completes replays it under its original id.  Terminal router
jobs keep no spec, so serving repeats does not grow memory per job.
"""

import sys
import time

import pytest

from repro.bench.workloads import synthetic_workload
from repro.cluster import JobLog, LocalCluster
from repro.errors import ServiceError
from repro.service import pixels_job, protocol, scene_job


def wait_until(predicate, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def image_job(seed, size=64):
    image = synthetic_workload(size=size, n_circles=3, seed=seed).scene.image
    return pixels_job(image, iterations=60, seed=seed)


def count_parses(monkeypatch):
    """Wrap ``request_from_wire`` in every ``repro`` module that holds
    it, so a call from the router or a (thread) backend is counted
    however it was imported; returns the list of parsed specs."""
    calls = []
    real = protocol.request_from_wire

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "request_from_wire", None) is real):
            monkeypatch.setattr(module, "request_from_wire", counted)
    return calls


def records_of(path, job_id):
    return [r for r in JobLog(path).records() if r["job_id"] == job_id]


@pytest.fixture
def cluster():
    with LocalCluster(n_backends=2, workers=1, gateway=True) as cluster:
        yield cluster


class TestRepeatHits:
    def test_repeats_neither_decode_nor_log(self, cluster, monkeypatch):
        gateway = cluster.gateway_client()
        spec = image_job(seed=3)
        first = gateway.detect(spec)  # first touch: a miss, queued and run
        assert first["cached"] is False
        wal = cluster.router.job_log
        appended = wal.n_appended
        calls = count_parses(monkeypatch)
        for _ in range(4):
            again = gateway.detect(spec)
            assert again["cached"] is True
            assert again["result"] == first["result"]
        assert len(calls) == 0
        assert wal.n_appended == appended

    def test_queued_miss_is_logged_submit_assign_complete(self, cluster):
        gateway = cluster.gateway_client()
        ack = gateway.submit(image_job(seed=4))
        for _ in gateway.stream(ack["job_id"]):
            pass
        # The router completes a streamed job before it relays the
        # terminal event, so the record is there once the stream ends.
        types = [r["type"] for r in records_of(cluster.router_log_path,
                                               ack["job_id"])]
        assert types == ["submit", "assign", "complete"]

    def test_rejected_submit_leaves_no_record(self, cluster):
        for i in range(len(cluster.backends)):
            cluster.kill_backend(i)
        with cluster.client() as client:
            with pytest.raises(ServiceError, match="no healthy backends"):
                client.submit(image_job(seed=5), max_attempts=1)
        assert JobLog(cluster.router_log_path).replay().n_records == 0


class TestRestartReplay:
    def test_queued_job_replays_under_its_original_id(self):
        # workers=0: backends admit and queue but never run, so the job
        # is certainly pending when the router restarts.
        with LocalCluster(n_backends=2, workers=0, gateway=True) as cluster:
            gateway = cluster.gateway_client()
            ack = gateway.submit(image_job(seed=6))
            rid = ack["job_id"]
            assert ack["cached"] is False
            cluster.restart_router(settle=0.1)
            with cluster.client() as client:
                assert wait_until(client.ping)
                assert client.stats()["n_replayed"] == 1
                status = client.status(rid)
            assert status["job_id"] == rid
            assert status["state"] == "queued"
            types = [r["type"] for r in records_of(cluster.router_log_path, rid)]
            # One submit: the replayed job is already logged, so its
            # re-dispatch only records the new assignment.
            assert types[0] == "submit" and types.count("submit") == 1
            assert set(types[1:]) == {"assign"}


class TestSpecRetention:
    def test_terminal_router_jobs_hold_no_spec(self, cluster):
        gateway = cluster.gateway_client()
        specs = [image_job(seed=s, size=160) for s in (7, 8)]
        rids = []
        for spec in specs * 3:  # two misses, then four hits
            ack = gateway.submit(spec)
            for _ in gateway.stream(ack["job_id"]):
                pass
            rids.append(ack["job_id"])
        jobs = dict(cluster.router._jobs)
        assert all(jobs[rid].terminal for rid in rids)
        assert [rid for rid in rids if jobs[rid].spec is not None] == []
        with cluster.client() as client:
            stats = client.stats()
            assert stats["jobs"].get("done") == len(rids)
            assert client.status(rids[0])["state"] == "done"

    def test_spec_less_jobs_restore_from_the_index(self, cluster):
        gateway = cluster.gateway_client()
        miss = gateway.submit(image_job(seed=9, size=160))
        for _ in gateway.stream(miss["job_id"]):
            pass
        rid = gateway.submit(image_job(seed=9, size=160))["job_id"]  # a hit
        assert miss["cached"] is False
        cluster.restart_router(settle=0.1)
        with cluster.client() as client:
            assert wait_until(client.ping)
            stats = client.stats()
            assert stats["n_replayed"] == 0
            assert stats["n_restored"] == 2
            status = client.status(rid)
            assert status["state"] == "done" and status["restored"] is True
            # A new submit of the same image is a plain hit on the
            # restarted router.
            again = client.detect(image_job(seed=9, size=160))
            assert again.cached
        assert all(job.spec is None for job in cluster.router._jobs.values()
                   if job.terminal)


def test_scene_misses_keep_three_records_per_job(cluster):
    rids = []
    with cluster.client() as client:
        for seed in (1, 2):
            ack = client.submit(scene_job(size=32, circles=2,
                                          iterations=40, seed=seed))
            client.collect(ack["job_id"])
            rids.append(ack["job_id"])
    assert len(list(JobLog(cluster.router_log_path).records())) == 3 * len(rids)
