#!/usr/bin/env python
"""Emit the BENCH_core.json chain-kernel throughput artifact.

Measures the Metropolis–Hastings hot path on the standard synthetic
workload four ways — serial single-chain iterations/sec, per-move-class
rejection-cycle cost, the multiproposal width sweep, and end-to-end
engine runs of all four strategies.  CI uploads the file next to
BENCH_service.json so the perf trajectory has a chain-kernel series.

The multiproposal parity gates are hard: any divergence of a batched
round from the sequential reference, or of width 1 from the classic
chain, raises and the script exits non-zero (the chain law itself is
pinned by the golden digests in the test suite).  With ``--baseline``
the tracked throughput numbers are gated against a previous run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._version import __version__  # noqa: E402
from repro.bench.core import (  # noqa: E402
    move_class_throughput,
    multiproposal_throughput,
    serial_chain_throughput,
    strategy_throughput,
)
from repro.bench.reporting import BaselineMetric, run_baseline_gate  # noqa: E402
from repro.errors import BenchmarkError  # noqa: E402


def baseline_metrics(document: dict) -> list:
    """The chain-kernel numbers tracked run over run."""
    metrics = [
        BaselineMetric("serial trial it/s",
                       ("serial_chain", "trial_iters_per_second")),
    ]
    if document.get("multiproposal"):
        metrics.append(BaselineMetric(
            "multiproposal best speedup",
            ("multiproposal", "best_speedup_vs_single"),
        ))
    for name in ((document.get("strategies") or {}).get("strategies") or {}):
        metrics.append(BaselineMetric(
            f"{name} end-to-end seconds",
            ("strategies", "strategies", name, "trial_seconds"),
            higher_is_better=False,
        ))
    return metrics


def run_profile(args) -> None:
    """cProfile the chain hot path; print and save a top-N hotspot table."""
    import cProfile
    import io
    import pstats

    from repro.bench.workloads import synthetic_workload
    from repro.mcmc import (
        MarkovChain,
        MoveGenerator,
        MultiproposalChain,
        PosteriorState,
    )

    workload = synthetic_workload(size=args.size, n_circles=args.circles, seed=3)

    def profiled(label: str, make_chain) -> str:
        chain = make_chain()
        chain.run(args.warmup)
        prof = cProfile.Profile()
        prof.enable()
        chain.run(args.iterations)
        prof.disable()
        stream = io.StringIO()
        stats = pstats.Stats(prof, stream=stream).strip_dirs().sort_stats("tottime")
        stream.write(f"== {label}: top {args.profile_top} by total time ==\n")
        stats.print_stats(args.profile_top)
        return stream.getvalue()

    def classic():
        post = PosteriorState(workload.filtered, workload.model)
        return MarkovChain(post, MoveGenerator(workload.model, workload.moves), seed=99)

    def multiproposal():
        post = PosteriorState(workload.filtered, workload.model)
        return MultiproposalChain(
            post, MoveGenerator(workload.model, workload.moves), width=4, seed=99
        )

    text = profiled("classic chain (width 1)", classic)
    text += "\n" + profiled("multiproposal chain (width 4)", multiproposal)
    print(text)
    path = Path(args.out).with_suffix(".profile.txt")
    path.write_text(text)
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_core.json")
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--circles", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=30_000,
                        help="serial single-chain iterations")
    parser.add_argument("--warmup", type=int, default=2_000)
    parser.add_argument("--move-cycles", type=int, default=4_000,
                        help="per-move-class price/rollback cycles")
    parser.add_argument("--strategy-iterations", type=int, default=4_000,
                        help="iterations per end-to-end strategy run")
    parser.add_argument("--mp-widths", default="1,2,4,8",
                        help="comma-separated multiproposal round widths")
    parser.add_argument("--mp-iterations", type=int, default=20_000,
                        help="iterations per multiproposal width")
    parser.add_argument("--skip-strategies", action="store_true",
                        help="measure only the chain kernel (quick mode)")
    parser.add_argument("--skip-multiproposal", action="store_true",
                        help="skip the multiproposal width sweep")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the chain hot path and emit a "
                             "top-N hotspot table instead of benchmarking")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows in the --profile hotspot table")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="prior BENCH_core.json to gate against "
                             "(exit 3 past the regression threshold)")
    parser.add_argument("--regression-threshold", type=float, default=0.8,
                        help="tolerated fraction of the baseline "
                             "(0.8 = fail beyond a 20%% slowdown)")
    args = parser.parse_args()

    if args.profile:
        run_profile(args)
        return 0

    try:
        serial = serial_chain_throughput(
            size=args.size,
            n_circles=args.circles,
            iterations=args.iterations,
            warmup=args.warmup,
        )
        move_classes = move_class_throughput(
            size=args.size,
            n_circles=args.circles,
            cycles=args.move_cycles,
        )
        multiproposal = (
            None
            if args.skip_multiproposal
            else multiproposal_throughput(
                size=args.size,
                n_circles=args.circles,
                iterations=args.mp_iterations,
                warmup=args.warmup,
                widths=tuple(int(w) for w in args.mp_widths.split(",") if w),
            )
        )
        strategies = (
            None
            if args.skip_strategies
            else strategy_throughput(
                size=args.size,
                n_circles=args.circles,
                iterations=args.strategy_iterations,
            )
        )
    except BenchmarkError as exc:
        print(f"PARITY FAILURE: {exc}", file=sys.stderr)
        return 1

    document = {
        "benchmark": "core_hot_path",
        "version": __version__,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "serial_chain": serial,
        "move_classes": move_classes,
        "multiproposal": multiproposal,
        "strategies": strategies,
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")

    print(
        f"serial chain: {serial['trial_iters_per_second']:,.0f} it/s "
        f"(acceptance {serial['acceptance_rate']:.1%})"
    )
    for name, row in move_classes["classes"].items():
        print(f"  {name:<10s} {row['trial_cycles_per_second']:>9,.0f} reject-cycles/s")
    if multiproposal is not None:
        print(
            f"multiproposal sweep (single-chain "
            f"{multiproposal['single_chain_iters_per_second']:,.0f} it/s):"
        )
        for width, row in multiproposal["widths"].items():
            print(
                f"  K={width:<3s} {row['iters_per_second']:>9,.0f} it/s "
                f"({row['speedup_vs_single']:.2f}x, "
                f"{row['iterations_per_round']:.2f} it/round, bit-gated)"
            )
        print(
            f"  best: K={multiproposal['best_width']} at "
            f"{multiproposal['best_speedup_vs_single']:.2f}x"
        )
    if strategies is not None:
        for name, row in strategies["strategies"].items():
            print(
                f"  {name:<12s} end-to-end {row['trial_seconds']:.2f}s "
                f"({row['n_found']} circles)"
            )
    print(f"wrote {args.out}")
    if args.baseline is not None:
        return run_baseline_gate(document, args.baseline,
                                 baseline_metrics(document),
                                 args.regression_threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
