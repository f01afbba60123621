"""The repository benchmark: one command, three workloads, every layer.

    python3 perfbench/run.py --workload cold-large --seed 1 --seconds 45 --trace 0

Launches two ``repro serve --cache`` backends and a
``repro gateway serve`` in front of them (fresh directories every run),
drives one workload through the gateway, checks every result against
its golden digest, and prints every metric by name with its unit and
sample count.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with the benchmark's spans
off.  ``--trace 1`` is the separate traced run: the same workload with
spans on, the stage cross-check against the program's assembled traces,
and the L0-L4 ladder; it reports the per-layer metrics.

A result document with host facts, counter deltas and (traced) the
spans is written to ``perfbench/results/``.  ``--prime-golden``
computes and writes the missing golden digests of a workload's whole
pool; a measured run never writes them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The seed claims are made on, and one kept back to re-check them.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Untraced runs set up this many times and report the median.
SETUPS = 5
#: Whole-run watchdog: a run, its clean-up included, must end well
#: inside three minutes.
WATCHDOG_S = 160

UNITS = {
    "latency_p50_s": "s", "latency_tail_s": "s", "first_event_p50_s": "s",
    "throughput_jobs_s": "1/s", "slo_attainment": "ratio", "ok_ratio": "ratio",
    "f1_mean": "ratio", "cpu_per_job_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def end_to_end(workload, phase, setups: List[float], cpu_s: float,
               rss_mb: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics and a sample-count note for each."""
    from perfbench.measure import median, score_f1, tail

    records = phase.records
    attempted = len(records)
    ok = [r for r in records if r.verified]
    latencies = [r.latency for r in ok]
    tail_value, tail_pct = tail(latencies)
    first = [r.first_event - r.due for r in ok if r.first_event]
    f1 = score_f1(workload, records)
    met = sum(1 for r in ok if r.latency <= workload.slo_s)
    metrics = {
        "latency_p50_s": median(latencies),
        "latency_tail_s": tail_value,
        "first_event_p50_s": median(first),
        "throughput_jobs_s": len(ok) / phase.wall if phase.wall > 0 else 0.0,
        "slo_attainment": met / attempted if attempted else 0.0,
        "ok_ratio": len(ok) / attempted if attempted else 0.0,
        "f1_mean": statistics.fmean(f1) if f1 else 0.0,
        "cpu_per_job_s": cpu_s / len(ok) if ok else float("nan"),
        "peak_rss_mb": rss_mb,
        "setup_s": median(setups),
    }
    notes = {
        "latency_p50_s": f"n={len(latencies)}",
        "latency_tail_s": f"p{tail_pct:.1f}, n={len(latencies)}",
        "first_event_p50_s": f"n={len(first)}",
        "throughput_jobs_s": f"{len(ok)} jobs / {phase.wall:.2f} s",
        "slo_attainment": f"limit {workload.slo_s} s, {met}/{attempted}",
        "ok_ratio": f"{len(ok)}/{attempted}",
        "f1_mean": f"n={len(f1)}",
        "cpu_per_job_s": f"{cpu_s:.2f} cpu-s / {len(ok)} jobs",
        "peak_rss_mb": "2 backends + gateway",
        "setup_s": f"median of {len(setups)}: "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes


def untraced_run(args, workload, workdir: Path) -> Dict[str, Any]:
    from perfbench import drive, golden, system
    from perfbench.measure import counter_deltas, median, prepare
    from repro.gateway.client import GatewayClient

    keys, submit_bytes = prepare(workload)
    order, due = workload.schedule(args.seed, args.seconds)
    store = golden.GoldenStore(workload.name)
    setups: List[float] = []
    dep = None
    try:
        for i in range(SETUPS):
            dep, seconds = system.launch(workdir / f"setup{i}", SRC, workload.warmup)
            setups.append(seconds)
            if i < SETUPS - 1:
                dep.stop()
        address = dep.gateway.address
        admin = GatewayClient(address, timeout=60.0)
        primes = (drive.prime(admin, workload.pool, order, drive.Spans(False), submit_bytes)
                  if workload.prime else [])
        before = system.scrape(admin)
        cpu0 = system.cpu_seconds(dep.under_test)
        steal0 = system.steal_seconds()
        completed = itertools.count(1)
        rss_at: List[float] = []

        def sample_rss(client, record) -> None:
            if next(completed) == workload.rss_jobs:
                rss_at.append(system.peak_rss_mb(dep.under_test))

        phase = drive.drive(lambda: GatewayClient(address, timeout=120.0),
                            workload.pool, submit_bytes, order, due,
                            workload.clients, args.seconds, drive.Spans(False),
                            after_job=sample_rss)
        cpu_s = system.cpu_seconds(dep.under_test) - cpu0
        steal_s = system.steal_seconds() - steal0
        rss_jobs = workload.rss_jobs if rss_at else len(phase.records)
        rss_mb = rss_at[0] if rss_at else system.peak_rss_mb(dep.under_test)
        after = system.scrape(admin)
    finally:
        if dep is not None:
            dep.stop()
    mismatches = golden.check(primes + phase.records, keys, store)
    metrics, notes = end_to_end(workload, phase, setups, cpu_s, rss_mb)
    notes["peak_rss_mb"] += f", at job {rss_jobs}"
    failed = [r for r in primes + phase.records if not r.verified]
    attempted = len(primes) + len(phase.records)
    extra = {
        "failed_ratio": len(failed) / attempted if attempted else 0.0,
        "counters": counter_deltas(before, after),
        "late_p50_s": median(phase.late_s) if phase.late_s else None,
        "late_max_s": max(phase.late_s) if phase.late_s else None,
        "errors": sorted({r.error for r in failed if r.error})[:10],
        "mismatches": mismatches[:10],
        "host_steal_s": steal_s,
        "jobs": [[r.index, r.pool_index, round(r.latency, 6), r.cached, r.verified]
                 for r in phase.records],
    }
    return {"metrics": metrics, "notes": notes, "units": UNITS,
            "attempted": attempted, "failed": len(failed),
            "correct": not failed and bool(phase.records), "extra": extra}


def report(doc: Dict[str, Any]) -> None:
    for name, value in doc["metrics"].items():
        unit = doc["units"].get(name, "")
        note = doc["notes"].get(name, "")
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    extra = doc.get("extra", {})
    if "failed_ratio" in extra:
        print(f"{'failed_ratio':32s} {extra['failed_ratio']:14.6g} ratio  "
              f"{doc['failed']}/{doc['attempted']}")
    if extra.get("late_p50_s") is not None:
        print(f"open-loop sender lateness: p50 {extra['late_p50_s']:.4f} s, "
              f"max {extra['late_max_s']:.4f} s")
    for line in extra.get("mismatches", []) + extra.get("errors", []):
        print(f"FAILED: {line}")
    for line in extra.get("stage_disagreements", []):
        print(f"stage cross-check: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prime-golden", action="store_true",
                        help="compute and write missing golden digests of the whole pool")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import system, workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.get(args.workload)

    if args.prime_golden:
        from perfbench.golden import GoldenStore
        from perfbench.measure import prepare

        store = GoldenStore(workload.name)
        computed = store.prime(prepare(workload)[0], workload.pool)
        print(f"{workload.name}: {computed} digests computed, "
              f"{len(store.entries)} in store")
        return 0

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    facts = system.host_facts()
    scratch = BENCH_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        if args.trace:
            from perfbench import ladder

            doc = ladder.traced_run(args, workload, workdir, SRC)
        else:
            doc = untraced_run(args, workload, workdir)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    unmeasured = [name for name, value in doc["metrics"].items()
                  if not math.isfinite(value)]
    for name in unmeasured:
        doc["metrics"][name] = 0.0
    if unmeasured:
        doc["correct"] = False
        doc.setdefault("extra", {}).setdefault("mismatches", []).append(
            f"no finite value for {', '.join(unmeasured)}")
    doc["host"] = facts
    doc["workload"] = {"name": workload.name, "why": workload.why,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "loop": workload.loop,
                       "clients": workload.clients, "rate": workload.rate}
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1, default=str) + "\n")

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={facts['nproc']} "
          f"loadavg={facts['loadavg_at_start']} -> {out_path.relative_to(ROOT)}")
    report(doc)
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: {"value": float(value), "unit": doc["units"][name]}
                    for name, value in doc["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _interrupted(signum, frame):
    raise SystemExit(128 + signum)


def run_and_reap(argv=None) -> int:
    """``main``, then stop and reap every process it left behind, on
    every way out: a normal return, an exception, the watchdog, or a
    SIGTERM/SIGINT/SIGHUP sent to the benchmark."""
    from perfbench import system

    system.become_subreaper()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _interrupted)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(sig, signal.SIG_IGN)
        leftover = system.reap_descendants(grace=3.0)
        if leftover:
            print(f"perfbench: stopped {len(leftover)} leftover process(es): "
                  f"{leftover}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(run_and_reap())
