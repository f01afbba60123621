"""The traced run: per-layer metrics, the L0-L4 ladder and the stage
cross-check.

The workload runs through the gateway as in the untraced run, with the
benchmark's own spans on, and the program's assembled trace of each
sampled job is read back (``GET /v1/jobs/{id}/trace``).  Then the
ladder times calls into each layer's public functions from outside, on
one reference request of the workload (the first ``intelligent`` job
of its send order):

* L0 ``mcmc``     ``MarkovChain.run`` and per-move-class price->rollback
* L1 ``engine``   ``engine.run`` per strategy, ``run_stream`` phases,
                  executor start-up, ``request_key``
* L2 ``service``  ``ServiceClient`` straight to a backend, cached and cold
* L3 ``cluster``  ``ServiceClient`` to a standalone router, cached
* L4 ``gateway``  ``GatewayClient``, cached
* ``obs``         ``engine.run`` with the program's span collector on and off

Every ladder number is the median of interleaved repeats and carries its
quartiles.  A layer's marginal cost is the per-repeat difference of
adjacent layers on the same cached request (paired, so drift cancels).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from typing import Any, Dict, List

from perfbench import drive, golden, system
from perfbench.workloads import STRATEGIES

#: Interleaved repeats of the cached L2/L3/L4 rounds.
HOT_ROUNDS = 21
#: Paired rounds of the span-collector A/B (collector on vs off).
OVERHEAD_ROUNDS = 11
#: Paired cold rounds (service vs direct engine run).
COLD_ROUNDS = 4
#: Rounds of the in-process engine and kernel measurements.
ENGINE_ROUNDS = 3
KERNEL_ROUNDS = 5
KERNEL_ITERATIONS = 1500
KERNEL_WARMUP = 1000
REJECT_CYCLES = 150

#: ``obs.stage_self_s.*`` suffix -> the stage the program's own
#: analyzer (``repro.obs.critical.stage_self_times``, as shown by
#: ``repro trace``) buckets self time into.
STAGES = {
    "queue-wait": "queue_wait",
    "dispatch": "dispatch",
    "kernel": "kernel",
    "merge": "merge",
    "sse-flush": "sse_flush",
}
#: Stage -> the ladder number it should agree with.  Only stages whose
#: self time under the program's rule (duration minus the summed
#: children, floored at 0) is that stage's own cost are checked.
#: ``dispatch`` reads 0 on a miss, whose ``service.run`` child outlasts
#: ``cluster.submit``; ``merge`` reads 0 when pool-run partitions sum past
#: ``engine.run_stream``; ``sse-flush`` is the gateway's whole wait for
#: the result, as ``gateway.sse_stream`` has no children.
#: ``engine.kernel_s`` (summed partition chain time) is a ladder-only
#: number kept for this check.
STAGE_VS_LADDER = {
    "queue-wait": "service.queue_wait_p50_s",
    "kernel": "engine.kernel_s",
}

UNITS = {
    "mcmc.iters_per_s": "1/s", "mcmc.reject_cycle_us": "us",
    "mcmc.acceptance_ratio": "ratio",
    **{f"engine.run_s.{s}": "s" for s in STRATEGIES},
    "engine.plan_s": "s", "engine.merge_s": "s",
    "engine.partition_imbalance": "ratio", "engine.parallel_efficiency": "ratio",
    "engine.executor_startup_s": "s", "engine.request_key_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "service.decode_s": "s", "service.wire_bytes_per_job": "bytes",
    "service.hit_rtt_s": "s", "service.cold_overhead_s": "s",
    "service.queue_wait_p50_s": "s", "service.rejected": "count",
    "cluster.hop_s": "s", "cluster.affinity_hit_ratio": "ratio",
    "cluster.placement_skew": "ratio", "cluster.wal_appends_per_job": "count",
    "cluster.redispatches": "count",
    "gateway.hop_s": "s", "gateway.ack_s": "s", "gateway.sse_first_s": "s",
    "gateway.non_2xx": "count",
    "obs.trace_overhead_ratio": "ratio",
    **{f"obs.stage_self_s.{s}": "s" for s in STAGES},
}


def spread(samples: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of *samples*."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0] if values else float("nan")
    return {"median": q2 if len(values) >= 2 else q1, "q1": q1, "q3": q3,
            "n": len(values)}


class Ladder:
    """Samples per metric, plus the correctness findings of the run."""

    def __init__(self, spans: drive.Spans) -> None:
        self.spans = spans
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.problems: List[str] = []

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def timed(self, name: str, fn, job: Any = None):
        """Call *fn* inside a span; return ``(result, seconds)``."""
        with self.spans.span(name, f"ladder-{job}"):
            started = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - started

    def expect(self, what: str, got: str, want: str) -> None:
        self.attempted += 1
        if got != want:
            self.problems.append(f"{what}: digest {got[:12]} != {want[:12]}")

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.problems.append(what)


def _digest_of(result: Dict[str, Any]) -> str:
    return golden.circles_digest(result["circles"])


def _engine_digest(result) -> str:
    return golden.circles_digest([(c.x, c.y, c.r) for c in result.circles])


# -- L2-L4: the transport layers on a cached request ---------------------------

def transport_rounds(lad: Ladder, dep, ref: Dict[str, Any], want: str) -> None:
    from repro.gateway.client import GatewayClient
    from repro.service.client import ServiceClient

    direct = ServiceClient(*dep.backends[0].address, timeout=120.0)
    router = ServiceClient(*dep.router.address, timeout=120.0)
    gateway = GatewayClient(dep.gateway.address, timeout=120.0)
    paths = {
        "service": lambda: direct.detect(ref).result,
        "cluster": lambda: router.detect(ref).result,
        "gateway": lambda: gateway.detect(ref)["result"],
    }
    try:
        for name, call in paths.items():  # fill each path's cache
            lad.expect(f"{name} warm", _digest_of(call()), want)
        names = list(paths)
        for r in range(HOT_ROUNDS):
            took = {}
            for name in names[r % 3:] + names[:r % 3]:
                result, took[name] = lad.timed(f"ladder.{name}.cached", paths[name], r)
                lad.expect(f"{name} cached round {r}", _digest_of(result), want)
            lad.add("service.hit_rtt_s", took["service"])
            lad.add("cluster.hop_s", took["cluster"] - took["service"])
            lad.add("gateway.hop_s", took["gateway"] - took["cluster"])
    finally:
        direct.close()
        router.close()


def cold_rounds(lad: Ladder, dep, ref: Dict[str, Any]) -> None:
    """Cold job straight to a backend vs the same request run in this
    process by ``engine.run``: the service's overhead on a miss."""
    from repro.engine import run
    from repro.service.client import ServiceClient
    from repro.service.protocol import request_from_wire

    with ServiceClient(*dep.backends[0].address, timeout=120.0) as direct:
        for r in range(COLD_ROUNDS):
            spec = dict(ref, seed=int(ref.get("seed") or 0) + 700_000 + r)
            arms = {
                "service": lambda: _digest_of(direct.detect(spec).result),
                "engine": lambda: _engine_digest(run(request_from_wire(spec))),
            }
            took, digests = {}, {}
            for name in (("service", "engine") if r % 2 == 0 else ("engine", "service")):
                digests[name], took[name] = lad.timed(f"ladder.{name}.cold", arms[name], r)
            lad.expect(f"cold round {r}", digests["service"], digests["engine"])
            lad.add("service.cold_overhead_s", took["service"] - took["engine"])


# -- L1: engine ----------------------------------------------------------------

def engine_rounds(lad: Ladder, ref: Dict[str, Any], want: str,
                  distinct: List[Dict[str, Any]]) -> None:
    from repro.engine import request_key, run, run_stream
    from repro.engine.executors import engine_executor
    from repro.engine.schema import (PartitionResultEvent, ResultEvent,
                                     TilePlannedEvent)
    from repro.service.protocol import decode_line, encode_line, request_from_wire

    per_strategy = {s: dict(ref, strategy=s) for s in STRATEGIES}
    seen: Dict[str, str] = {}
    for r in range(ENGINE_ROUNDS):
        for s in STRATEGIES[r % 4:] + STRATEGIES[:r % 4]:
            result, took = lad.timed(f"ladder.engine.run.{s}",
                                     lambda: run(request_from_wire(per_strategy[s])), r)
            lad.add(f"engine.run_s.{s}", took)
            digest = _engine_digest(result)
            if s == ref.get("strategy"):
                lad.expect(f"engine.run {s} round {r}", digest, want)
            else:  # same request, same circles on every round
                lad.expect(f"engine.run {s} round {r}", digest, seen.setdefault(s, digest))

        request = request_from_wire(ref)
        started = time.perf_counter()
        last_plan = last_part = done = None
        result = None
        with lad.spans.span("ladder.engine.run_stream", f"ladder-{r}"):
            for event in run_stream(request):
                now = time.perf_counter()
                if isinstance(event, TilePlannedEvent):
                    last_plan = now
                elif isinstance(event, PartitionResultEvent):
                    last_part = now
                elif isinstance(event, ResultEvent):
                    done, result = now, event.result
        lad.expect(f"run_stream round {r}", _engine_digest(result), want)
        plan_s = (last_plan or started) - started
        merge_s = done - (last_part or started)
        lad.add("engine.plan_s", plan_s)
        lad.add("engine.merge_s", merge_s)
        elapsed = [rep.elapsed_seconds for rep in result.reports]
        lad.add("engine.kernel_s", sum(elapsed))
        if elapsed and statistics.fmean(elapsed) > 0:
            lad.add("engine.partition_imbalance", max(elapsed) / statistics.fmean(elapsed))
        workers = 1 if result.executor_kind == "serial" else \
            max(1, min(result.n_tasks or len(elapsed), os.cpu_count() or 1))
        lad.add("engine.parallel_efficiency", sum(elapsed) / ((done - started) * workers))

        pool_request = dataclasses.replace(request, executor="process")
        started = time.perf_counter()
        with lad.spans.span("ladder.engine.executor", f"ladder-{r}"):
            with engine_executor(pool_request, pool_request.image, 2):
                pass
        lad.add("engine.executor_startup_s", time.perf_counter() - started)

        requests = [request_from_wire(spec) for spec in distinct]
        started = time.perf_counter()
        for req in requests:
            request_key(req)
        lad.add("engine.request_key_s", (time.perf_counter() - started) / len(requests))

        line = encode_line({"op": "submit", "job": ref, "priority": 0})
        started = time.perf_counter()
        request_from_wire(decode_line(line)["job"])
        lad.add("service.decode_s", time.perf_counter() - started)


# -- obs: the program's span collection ---------------------------------------

def overhead_rounds(lad: Ladder, ref: Dict[str, Any], want: str) -> None:
    """``engine.run`` of the reference request in this process with the
    program's span collector on and off, alternating which arm goes
    first (the soak tracing-overhead probe's paired design): one
    traced / untraced latency ratio per round."""
    from repro.engine import run
    from repro.obs.collect import set_collector_enabled
    from repro.service.protocol import request_from_wire

    request = request_from_wire(ref)
    for r in range(OVERHEAD_ROUNDS):
        took = {}
        for enabled in ((True, False) if r % 2 == 0 else (False, True)):
            previous = set_collector_enabled(enabled)
            try:
                result, took[enabled] = lad.timed(
                    f"ladder.obs.collector_{'on' if enabled else 'off'}",
                    lambda: run(request), r)
            finally:
                set_collector_enabled(previous)
            lad.expect(f"collector A/B round {r}", _engine_digest(result), want)
        lad.add("obs.trace_overhead_ratio", took[True] / took[False])


# -- L0: the chain kernel ------------------------------------------------------

def kernel_rounds(lad: Ladder, ref: Dict[str, Any]) -> None:
    from repro.imaging.filters import threshold_filter
    from repro.mcmc import MarkovChain, MoveGenerator, PosteriorState
    from repro.mcmc.spec import MoveType
    from repro.service.protocol import request_from_wire
    from repro.utils.rng import RngStream

    request = request_from_wire(ref)
    theta = request.options.get("theta", 0.4)
    post = PosteriorState(threshold_filter(request.image, theta), request.spec)
    gen = MoveGenerator(request.spec, request.move_config)
    chain = MarkovChain(post, gen, seed=17, record_every=100)
    chain.run(KERNEL_WARMUP)
    for r in range(KERNEL_ROUNDS):
        proposed = sum(chain.stats.proposed.values())
        accepted = sum(chain.stats.accepted.values())
        _, took = lad.timed("ladder.mcmc.run", lambda: chain.run(KERNEL_ITERATIONS), r)
        lad.add("mcmc.iters_per_s", KERNEL_ITERATIONS / took)
        d_prop = sum(chain.stats.proposed.values()) - proposed
        d_acc = sum(chain.stats.accepted.values()) - accepted
        lad.add("mcmc.acceptance_ratio", d_acc / d_prop if d_prop else 0.0)

        stream = RngStream(seed=1000 + r)
        per_class = []
        with lad.spans.span("ladder.mcmc.reject_cycles", f"ladder-{r}"):
            for move_type in MoveType:
                busy, n = 0.0, 0
                for _ in range(REJECT_CYCLES):
                    move = gen.generate_of_type(move_type, post, stream)
                    if not move.is_valid(post):
                        continue
                    started = time.perf_counter()
                    move.price(post)
                    move.rollback(post)
                    busy += time.perf_counter() - started
                    n += 1
                if n:
                    per_class.append(busy / n)
        lad.add("mcmc.reject_cycle_us", 1e6 * statistics.fmean(per_class))


# -- stage cross-check ---------------------------------------------------------

def stage_self_times(trace: Dict[str, Any]) -> Dict[str, float]:
    """The program's per-stage self time of one assembled trace, keyed
    by ``STAGES`` name; stages absent from the trace are left out."""
    from repro.obs.critical import build_tree, stage_self_times as program_stages

    totals = program_stages(build_tree(trace.get("spans") or []))
    return {name: totals[key] for name, key in STAGES.items() if key in totals}


def cross_check(stages: Dict[str, Dict[str, float]],
                ladder: Dict[str, Dict[str, float]]) -> List[str]:
    """Stages whose trace self time falls outside the band of the ladder
    metric it should agree with (quartiles widened by the larger of one
    IQR, half the median, and a millisecond)."""
    lines = []
    for stage, metric in STAGE_VS_LADDER.items():
        got, ref = stages.get(stage), ladder.get(metric)
        if got is None or ref is None:
            continue
        slack = max(ref["q3"] - ref["q1"], 0.5 * abs(ref["median"]), 1e-3)
        low, high = ref["q1"] - slack, ref["q3"] + slack
        if not low <= got["median"] <= high:
            lines.append(f"{stage} self {got['median']:.5f} s (n={got['n']}) "
                         f"outside {metric} band [{low:.5f}, {high:.5f}] s")
    return lines


# -- the traced run ------------------------------------------------------------

def traced_run(args, workload, workdir, src) -> Dict[str, Any]:
    from perfbench.measure import counter_deltas, median, prepare
    from repro.gateway.client import GatewayClient

    keys, submit_bytes = prepare(workload)
    order, due = workload.schedule(args.seed, args.seconds)
    store = golden.GoldenStore(workload.name)
    spans = drive.Spans(True)
    lad = Ladder(spans)
    ref_index = next((i for i in order if workload.pool[i].get("strategy") == "intelligent"),
                     order[0])
    ref = workload.pool[ref_index]
    want = store.get(keys[ref_index])
    if want is None:
        lad.fail(f"reference spec {keys[ref_index]} has no golden digest")
        want = ""
    distinct = [workload.pool[i] for i in dict.fromkeys(order[:64])][:8]

    def fetch_trace(client, record) -> None:
        # Every miss, and every tenth job, outside the latency clock.
        if record.job_id and (not record.cached or record.index % 10 == 0):
            try:
                record.trace = client.trace(job_id=record.job_id)
            except Exception as exc:  # a missing trace is reported, not fatal
                record.trace = {"error": f"{type(exc).__name__}: {exc}"}

    dep, setup_s = system.launch(workdir / "traced", src, workload.warmup, router=True)
    backend_ids = [f"{h}:{p}" for h, p in (b.address for b in dep.backends)]
    try:
        admin = GatewayClient(dep.gateway.address, timeout=60.0)
        primes = (drive.prime(admin, workload.pool, order, spans, submit_bytes, fetch_trace)
                  if workload.prime else [])
        before = system.scrape(admin)
        phase = drive.drive(lambda: GatewayClient(dep.gateway.address, timeout=120.0),
                            workload.pool, submit_bytes, order, due,
                            workload.clients, args.seconds, spans, fetch_trace)
        after = system.scrape(admin)
        transport_rounds(lad, dep, ref, want)
        cold_rounds(lad, dep, ref)
    finally:
        dep.stop()
    engine_rounds(lad, ref, want, distinct)
    overhead_rounds(lad, ref, want)
    kernel_rounds(lad, ref)

    mismatches = golden.check(primes + phase.records, keys, store)
    records = phase.records
    done = [r for r in records if r.completed]
    counters = counter_deltas(before, after)

    seen, repeats = {r.pool_index for r in primes}, 0
    for r in records:
        repeats += r.pool_index in seen
        seen.add(r.pool_index)
    routed = system.family_by_label(after, "cluster_routed_total", "node")
    routed_before = system.family_by_label(before, "cluster_routed_total", "node")
    per_node = [routed.get(b, 0.0) - routed_before.get(b, 0.0) for b in backend_ids]
    queue_wait = _weighted_p50(after, "service_stage_seconds", stage="queue_wait")

    scalar = {
        "engine.cache_hit_ratio": (counters["cache_hits"] / counters["cache_lookups"]
                                   if counters["cache_lookups"] else 0.0),
        "service.wire_bytes_per_job": (statistics.fmean(r.wire_bytes for r in done)
                                       if done else 0.0),
        "service.queue_wait_p50_s": queue_wait,
        "service.rejected": counters["refusals"],
        "cluster.affinity_hit_ratio": (counters["affinity_hits"] / repeats
                                       if repeats else 0.0),
        "cluster.placement_skew": (max(per_node) / statistics.fmean(per_node)
                                   if per_node and sum(per_node) else 0.0),
        "cluster.wal_appends_per_job": counters["wal_appends"] / len(records)
        if records else 0.0,
        "cluster.redispatches": counters["failovers"] + counters["retries"],
        "gateway.non_2xx": sum(v for k, v in counters.items()
                               if k.startswith("http_") and not k.startswith("http_2")),
    }
    for r in done:
        lad.add("gateway.ack_s", r.acked - r.sent)
        lad.add("gateway.sse_first_s", r.sse_first - r.acked)
    stage_samples: Dict[str, List[float]] = {}
    trace_errors = []
    for r in primes + records:
        if r.trace is None:
            continue
        if "error" in r.trace:
            trace_errors.append(r.trace["error"])
            continue
        for stage, seconds in stage_self_times(r.trace).items():
            stage_samples.setdefault(stage, []).append(seconds)
    for stage in STAGES:
        for value in stage_samples.get(stage, []):
            lad.add(f"obs.stage_self_s.{stage}", value)

    table = {name: spread(values) for name, values in lad.samples.items()}
    for name, value in scalar.items():
        table[name] = {"median": value, "q1": value, "q3": value, "n": 1}
    stages = {s: spread(v) for s, v in stage_samples.items()}
    disagreements = cross_check(stages, table)

    missing = [name for name in UNITS if name not in table]
    metrics = {name: table[name]["median"] if name in table else 0.0
               for name in UNITS}
    notes = {name: (f"IQR [{table[name]['q1']:.6g}, {table[name]['q3']:.6g}] "
                    f"n={table[name]['n']}" if name in table else "not measured")
             for name in UNITS}
    failed = [r for r in primes + records if not r.verified]
    for name in missing:
        lad.fail(f"{name} not measured")
    problems = lad.problems + mismatches
    return {
        "metrics": metrics, "notes": notes, "units": UNITS,
        "attempted": len(primes) + len(records) + lad.attempted,
        "failed": len(failed) + len(lad.problems),
        "correct": not failed and not problems and bool(records),
        "extra": {
            "setup_s": setup_s,
            "latency_p50_s": median([r.latency for r in done]),
            "counters": counters,
            "ladder": table,
            "stages": stages,
            "stage_disagreements": disagreements,
            "trace_errors": trace_errors[:10],
            "errors": sorted({r.error for r in failed if r.error})[:10],
            "mismatches": problems[:10],
            "reference_spec": keys[ref_index],
        },
        "spans": spans.records,
    }


def _weighted_p50(families: Dict[str, dict], name: str, **labels: str) -> float:
    total, weight = 0.0, 0.0
    for sample in families.get(name, {}).get("samples", []):
        got = sample.get("labels", {})
        if all(got.get(k) == v for k, v in labels.items()) and sample.get("count"):
            total += float(sample["p50_seconds"]) * sample["count"]
            weight += sample["count"]
    return total / weight if weight else 0.0
