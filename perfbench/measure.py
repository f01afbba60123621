"""Shared measurement helpers: percentiles, counter deltas, F1."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple


def median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile that leaves at least ten samples beyond
    it: ``(value, percentile)``; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else float("nan")), 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def prepare(workload) -> Tuple[List[str], List[int]]:
    from perfbench.workloads import spec_key
    from repro.service.protocol import encode_line

    keys = [spec_key(s) for s in workload.pool]
    sizes = [len(encode_line({"op": "submit", "job": s, "priority": 0}))
             for s in workload.pool]
    return keys, sizes


def score_f1(workload, records) -> List[float]:
    """F1 of the first ``f1_jobs`` send-order entries that verified."""
    from perfbench.golden import f1_score

    scores = []
    truth_cache: Dict[int, Any] = {}
    for record in records:
        if record.index >= workload.f1_jobs:
            break
        if not record.verified:
            continue
        if record.pool_index not in truth_cache:
            truth_cache[record.pool_index] = workload.truth(record.pool_index)
        record.f1 = f1_score(record.result["circles"], truth_cache[record.pool_index])
        scores.append(record.f1)
    return scores


def counter_deltas(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, float]:
    """Deltas of the counters the report names, scraped from the gateway."""
    from perfbench.system import family_by_label, family_sum

    def delta(name: str, **labels: str) -> float:
        return family_sum(after, name, **labels) - family_sum(before, name, **labels)

    out = {
        "cache_lookups": delta("service_cache_lookups_total"),
        "cache_hits": delta("service_cache_lookups_total", result="hit"),
        "affinity_hits": delta("cluster_affinity_hits_total"),
        "routed": delta("cluster_routed_total"),
        "retries": delta("retries_total"),
        "failovers": delta("cluster_failovers_total"),
        "refusals": delta("service_submissions_total", outcome="queue_full")
        + delta("service_quota_rejections_total")
        + delta("gateway_quota_rejections_total"),
        "wal_appends": delta("cluster_wal_appends"),
    }
    statuses_after = family_by_label(after, "gateway_http_responses_total", "status")
    statuses_before = family_by_label(before, "gateway_http_responses_total", "status")
    for status, value in sorted(statuses_after.items()):
        out[f"http_{status}"] = value - statuses_before.get(status, 0.0)
    return out
