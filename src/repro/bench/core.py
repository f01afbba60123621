"""Chain-kernel hot-path benchmarks — the ``BENCH_core.json`` workload.

Four views of the Metropolis–Hastings inner loop, each measured on the
standard synthetic workload:

* :func:`serial_chain_throughput` — full serial single-chain
  iterations/sec, the number every executor, batch job and service
  worker ultimately multiplies.
* :func:`move_class_throughput` — per-move-class price→rollback cycle
  cost against an equilibrated state (the rejection path, dominant at
  20–40 % acceptance).
* :func:`multiproposal_throughput` — K-way multiproposal rounds across
  a width sweep, gated bit-for-bit against the sequential reference and
  (at width 1) against the classic chain.
* :func:`strategy_throughput` — end-to-end engine runs of all four
  strategies on the serial executor.

Every function returns plain dicts ready for the JSON artifact; parity
failures raise :class:`~repro.errors.BenchmarkError` so CI fails loudly
rather than uploading numbers from diverging chains.  The chain law
itself is pinned by the frozen digests of ``tests/mcmc/kernel_golden.json``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import BenchmarkError
from repro.bench.workloads import Workload, synthetic_workload
from repro.mcmc import MarkovChain, MoveGenerator, MultiproposalChain, PosteriorState
from repro.mcmc.spec import MoveType
from repro.utils.rng import RngStream

__all__ = [
    "serial_chain_throughput",
    "move_class_throughput",
    "multiproposal_throughput",
    "strategy_throughput",
    "STRATEGIES",
]

STRATEGIES = ("naive", "blind", "intelligent", "periodic")

def _fresh_chain(workload: Workload, seed: int, record_every: int = 100) -> MarkovChain:
    post = PosteriorState(workload.filtered, workload.model)
    gen = MoveGenerator(workload.model, workload.moves)
    return MarkovChain(post, gen, seed=seed, record_every=record_every)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise BenchmarkError(f"hot-path parity violated: {what}")


def serial_chain_throughput(
    size: int = 128,
    n_circles: int = 10,
    iterations: int = 30_000,
    warmup: int = 2_000,
    seed: int = 99,
    workload_seed: int = 3,
) -> Dict:
    """Serial single-chain iterations/sec after *warmup* iterations."""
    workload = synthetic_workload(size=size, n_circles=n_circles, seed=workload_seed)
    chain = _fresh_chain(workload, seed)
    chain.run(warmup)
    t0 = time.perf_counter()
    result = chain.run(iterations)
    elapsed = time.perf_counter() - t0
    return {
        "workload": workload.name,
        "iterations": iterations,
        "warmup": warmup,
        "acceptance_rate": result.stats.acceptance_rate(),
        "trial_iters_per_second": iterations / elapsed,
    }


def multiproposal_throughput(
    size: int = 128,
    n_circles: int = 10,
    iterations: int = 30_000,
    warmup: int = 2_000,
    seed: int = 99,
    workload_seed: int = 3,
    widths: Sequence[int] = (1, 2, 4, 8),
) -> Dict:
    """K-way multiproposal round throughput across a width sweep.

    For every width the batched kernel is gated bit-for-bit against the
    sequential reference implementation (``batch=False``, identical RNG
    consumption order); width 1 is additionally gated bit-for-bit
    against :class:`~repro.mcmc.chain.MarkovChain` — the proof that the
    batched engine is the classic chain, not an approximation of it.
    Only the batched runs are timed.
    """
    workload = synthetic_workload(size=size, n_circles=n_circles, seed=workload_seed)

    def fresh_mp(width: int, batch: bool) -> MultiproposalChain:
        post = PosteriorState(workload.filtered, workload.model)
        gen = MoveGenerator(workload.model, workload.moves)
        return MultiproposalChain(
            post, gen, width=width, seed=seed, record_every=100, batch=batch
        )

    base_chain = _fresh_chain(workload, seed)
    base_chain.run(warmup)
    t0 = time.perf_counter()
    base_result = base_chain.run(iterations)
    base_elapsed = time.perf_counter() - t0
    base_ips = iterations / base_elapsed

    per_width: Dict[str, Dict] = {}
    best_width, best_ips = 0, 0.0
    for width in widths:
        chain = fresh_mp(width, batch=True)
        chain.run(warmup)
        t0 = time.perf_counter()
        result = chain.run(iterations)
        elapsed = time.perf_counter() - t0
        ips = iterations / elapsed

        ref_chain = fresh_mp(width, batch=False)
        ref_chain.run(warmup)
        ref_result = ref_chain.run(iterations)
        _require(
            result.final_circles == ref_result.final_circles
            and result.posterior_trace.values == ref_result.posterior_trace.values
            and result.posterior_trace.iterations == ref_result.posterior_trace.iterations
            and result.count_trace.values == ref_result.count_trace.values
            and result.rounds == ref_result.rounds
            and result.stats.generated == ref_result.stats.generated
            and result.stats.proposed == ref_result.stats.proposed
            and result.stats.accepted == ref_result.stats.accepted
            and chain.post.log_posterior == ref_chain.post.log_posterior,
            f"width-{width} batched round diverges from sequential reference",
        )
        if width == 1:
            _require(
                result.final_circles == base_result.final_circles
                and result.posterior_trace.values == base_result.posterior_trace.values
                and result.posterior_trace.iterations
                == base_result.posterior_trace.iterations
                and result.count_trace.values == base_result.count_trace.values
                and result.stats.generated == base_result.stats.generated
                and result.stats.proposed == base_result.stats.proposed
                and result.stats.accepted == base_result.stats.accepted
                and chain.post.log_posterior == base_chain.post.log_posterior
                and bool(np.array_equal(chain.post.coverage.counts,
                                        base_chain.post.coverage.counts)),
                "width-1 multiproposal chain diverges from MarkovChain",
            )
        per_width[str(width)] = {
            "iters_per_second": ips,
            "rounds": result.rounds,
            "iterations_per_round": result.iterations_per_round,
            "speedup_vs_single": ips / base_ips,
            "parity": True,
        }
        if ips > best_ips:
            best_width, best_ips = width, ips

    return {
        "workload": workload.name,
        "iterations": iterations,
        "warmup": warmup,
        "single_chain_iters_per_second": base_ips,
        "widths": per_width,
        "best_width": best_width,
        "best_speedup_vs_single": best_ips / base_ips,
    }


def move_class_throughput(
    size: int = 128,
    n_circles: int = 10,
    cycles: int = 4_000,
    equilibrate: int = 3_000,
    seed: int = 7,
    workload_seed: int = 3,
    move_types: Optional[Sequence[MoveType]] = None,
) -> Dict:
    """Per-move-class price→rollback cycle throughput.

    For each move class, *cycles* proposals of exactly that class are
    drawn against an equilibrated state and priced-then-rejected — the
    dominant path at 20–40 % acceptance.  Asserts the cached posterior
    survives the loop unchanged.
    """
    workload = synthetic_workload(size=size, n_circles=n_circles, seed=workload_seed)
    move_types = list(move_types) if move_types is not None else list(MoveType)

    per_class: Dict[str, Dict] = {}
    for mt in move_types:
        chain = _fresh_chain(workload, seed)
        chain.run(equilibrate)
        # Single-class generators would skew reverse densities, so
        # class-specific proposals are drawn from a full-weight
        # generator via its public per-class hook.
        post, gen = chain.post, chain.gen
        stream = RngStream(seed=1000)
        lp0 = post.log_posterior
        n_priced = 0
        t0 = time.perf_counter()
        for _ in range(cycles):
            move = gen.generate_of_type(mt, post, stream)
            if not move.is_valid(post):
                continue
            move.price(post)
            move.rollback(post)
            n_priced += 1
        elapsed = time.perf_counter() - t0
        _require(post.log_posterior == lp0,
                 f"{mt.value} reject cycle left the posterior changed")
        per_class[mt.value] = {
            "priced_proposals": n_priced,
            "trial_cycles_per_second": n_priced / elapsed if elapsed else 0.0,
        }
    return {"workload": workload.name, "cycles": cycles, "classes": per_class}


def strategy_throughput(
    size: int = 128,
    n_circles: int = 10,
    iterations: int = 4_000,
    seed: int = 11,
    workload_seed: int = 3,
    strategies: Sequence[str] = STRATEGIES,
) -> Dict:
    """End-to-end engine runs per strategy (serial executor)."""
    from repro.engine import run as engine_run

    workload = synthetic_workload(size=size, n_circles=n_circles, seed=workload_seed)
    out: Dict[str, Dict] = {}
    for strategy in strategies:
        request = workload.request(strategy, iterations, executor="serial", seed=seed)
        t0 = time.perf_counter()
        result = engine_run(request)
        elapsed = time.perf_counter() - t0
        out[strategy] = {
            "n_found": result.n_found,
            "trial_seconds": elapsed,
            "trial_iters_per_second": iterations / elapsed,
        }
    return {
        "workload": workload.name,
        "iterations": iterations,
        "strategies": out,
    }
