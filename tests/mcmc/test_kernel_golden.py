"""Frozen golden digests of the MCMC kernel.

Each entry of ``tests/mcmc/kernel_golden.json`` is a sha256 over the
``float.hex`` encoding of everything a deterministic run produces —
circles, posterior and count traces, per-class acceptance statistics,
the final cached log-posterior and the coverage-count bytes — so any
change to the chain law, the RNG consumption order or a single produced
float changes a digest.  The matrix:

* ``engine/<strategy>/seed<s>/batch<k>`` — ``engine.run`` on the serial
  executor for all four strategies, seeds {42, 7} and
  ``proposal_batch`` {0, 1, 4} on the 96² / 8-circle synthetic workload
  (workload seed 5, 1,500 iterations).  Checked by
  ``tests/engine/test_kernel_parity.py``.
* ``chain/markov``, ``chain/speculative``, ``chain/mc3`` — the classic
  chain drivers on the ``small_filtered`` scene.  Checked by
  ``tests/mcmc/test_trial_kernel.py::TestChainParity``.
* ``chain/multiproposal`` and ``moves/<class>`` (the per-class
  reject-cycle priced deltas of the move-class benchmark) — checked
  here.

Pytest only reads the fixture; a missing entry is a failure.  The only
way to (re)write it is ``PYTHONPATH=src python tests/mcmc/test_kernel_golden.py
--write``, which is only legitimate when a change is *meant* to alter
the chain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.bench.workloads import synthetic_workload
from repro.engine import run as engine_run
from repro.imaging import SceneSpec, generate_scene, threshold_filter
from repro.imaging.density import estimate_count
from repro.mcmc import (
    MarkovChain,
    MetropolisCoupledChains,
    ModelSpec,
    MoveConfig,
    MoveGenerator,
    MultiproposalChain,
    PosteriorState,
    SpeculativeChain,
)
from repro.mcmc.spec import MoveType
from repro.utils.rng import RngStream

FIXTURE = Path(__file__).with_name("kernel_golden.json")

STRATEGIES = ("naive", "blind", "intelligent", "periodic")
ENGINE_SEEDS = (42, 7)
ENGINE_BATCHES = (0, 1, 4)
ENGINE_ITERATIONS = 1_500


# -- canonical encoding ------------------------------------------------------

def _encode(value, out: List[str]) -> None:
    """Append a canonical token stream for *value* (floats as
    ``float.hex``, so equal digests mean bit-identical floats)."""
    if isinstance(value, (float, np.floating)):
        out.append(float(value).hex())
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif value is None:
        out.append("None")
    elif isinstance(value, str):
        out.append(repr(value))
    elif isinstance(value, bytes):
        out.append(hashlib.sha256(value).hexdigest())
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot encode {type(value).__name__}")


def digest(value) -> str:
    tokens: List[str] = []
    _encode(value, tokens)
    return hashlib.sha256(" ".join(tokens).encode("ascii")).hexdigest()


def _circles(circles) -> list:
    return [[c.x, c.y, c.r] for c in circles]


def _trace(trace) -> list:
    return [list(trace.iterations), list(trace.values)]


def _stats(stats) -> list:
    return [
        [mt.value, stats.generated[mt], stats.proposed[mt], stats.accepted[mt]]
        for mt in MoveType
    ]


def _post_state(post: PosteriorState) -> list:
    counts = post.coverage.counts
    return [
        _circles(post.snapshot_circles()),
        post.log_posterior,
        list(counts.shape),
        np.ascontiguousarray(counts, dtype="<i4").tobytes(),
    ]


def _sub_result(sub) -> list:
    return [
        list(sub.rect),
        _circles(sub.circles),
        sub.iterations,
        _stats(sub.stats),
        _trace(sub.posterior_trace),
        _trace(sub.count_trace),
    ]


# -- engine matrix -----------------------------------------------------------

def engine_key(strategy: str, seed: int, batch: int) -> str:
    return f"engine/{strategy}/seed{seed}/batch{batch}"


def engine_digest(strategy: str, seed: int, batch: int) -> str:
    workload = synthetic_workload(size=96, n_circles=8, seed=5)
    request = workload.request(
        strategy, iterations=ENGINE_ITERATIONS, executor="serial", seed=seed
    )
    moves = dataclasses.replace(workload.moves, proposal_batch=batch)
    result = engine_run(dataclasses.replace(request, move_config=moves))
    raw = result.raw
    parts: list = [
        _circles(result.circles),
        [
            [[r.rect.x0, r.rect.y0, r.rect.x1, r.rect.y1], r.expected_count,
             r.n_found, r.iterations]
            for r in result.reports
        ],
        result.n_tasks,
    ]
    if strategy == "periodic":
        parts.append([
            raw.iterations, raw.cycles, raw.global_rounds, raw.local_rounds,
            _stats(raw.global_stats), _stats(raw.local_stats),
            _trace(raw.posterior_trace), _trace(raw.count_trace),
            _circles(raw.final_circles),
        ])
    else:
        subs = (
            [p.result for p in raw.partitions]
            if strategy == "intelligent"
            else raw.sub_results
        )
        parts.append([_sub_result(s) for s in subs])
    return digest(parts)


# -- chain drivers on the small scene ------------------------------------------

def small_scene_model():
    """The ``small_filtered`` / ``small_spec`` fixtures of
    ``tests/conftest.py``, rebuilt so the writer runs outside pytest."""
    scene = generate_scene(
        SceneSpec(
            width=96, height=96, n_circles=6, mean_radius=7.0,
            radius_std=1.0, min_radius=3.0, max_overlap_fraction=0.0,
        ),
        seed=42,
    )
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=96,
        height=96,
        expected_count=max(estimate_count(filtered, 0.5, 7.0), 1.0),
        radius_mean=7.0,
        radius_std=1.2,
        radius_min=2.0,
        radius_max=14.0,
    )
    return filtered, spec


def _chain_parts(chain, result) -> list:
    return [
        _circles(result.final_circles),
        _trace(result.posterior_trace),
        _trace(result.count_trace),
        _stats(result.stats),
        _post_state(chain.post),
    ]


def markov_digest(filtered, spec) -> str:
    chain = MarkovChain(
        PosteriorState(filtered, spec), MoveGenerator(spec, MoveConfig()),
        seed=17, record_every=50,
    )
    return digest(_chain_parts(chain, chain.run(2_000)))


def multiproposal_digest(filtered, spec) -> str:
    chain = MultiproposalChain(
        PosteriorState(filtered, spec), MoveGenerator(spec, MoveConfig()),
        width=4, seed=29, record_every=50,
    )
    result = chain.run(1_500)
    return digest([result.rounds] + _chain_parts(chain, result))


def speculative_digest(filtered, spec) -> str:
    chain = SpeculativeChain(
        PosteriorState(filtered, spec), MoveGenerator(spec, MoveConfig()),
        width=4, seed=23, record_every=50,
    )
    result = chain.run(1_500)
    return digest([
        result.rounds,
        _trace(result.posterior_trace),
        _stats(result.stats),
        _post_state(chain.post),
    ])


def mc3_digest(filtered, spec) -> str:
    chains = MetropolisCoupledChains(
        [PosteriorState(filtered, spec) for _ in range(3)],
        [MoveGenerator(spec, MoveConfig()) for _ in range(3)],
        temperatures=[1.0, 1.6, 2.4], swap_every=25, seed=31,
    )
    result = chains.run(600)
    return digest([
        result.swap_attempts,
        result.swap_accepts,
        _trace(result.cold_posterior_trace),
        _stats(result.cold_stats),
        [_post_state(post) for post in chains.posts],
    ])


CHAIN_DIGESTS: Dict[str, Callable] = {
    "chain/markov": markov_digest,
    "chain/speculative": speculative_digest,
    "chain/mc3": mc3_digest,
    "chain/multiproposal": multiproposal_digest,
}


# -- per-class reject cycles ----------------------------------------------------

def move_class_digests(cycles: int = 300, equilibrate: int = 1_000) -> Dict[str, str]:
    """The move-class benchmark's reject cycle at test scale: against an
    equilibrated state, draw *cycles* proposals of one class, price each
    and roll it back; digest every priced delta plus the state after."""
    workload = synthetic_workload(size=96, n_circles=8, seed=5)
    out = {}
    for mt in MoveType:
        post = PosteriorState(workload.filtered, workload.model)
        gen = MoveGenerator(workload.model, workload.moves)
        MarkovChain(post, gen, seed=7).run(equilibrate)
        stream = RngStream(seed=1000)
        deltas = []
        for _ in range(cycles):
            move = gen.generate_of_type(mt, post, stream)
            if not move.is_valid(post):
                continue
            deltas.append(move.price(post))
            move.rollback(post)
        out[f"moves/{mt.value}"] = digest([deltas, _post_state(post)])
    return out


# -- fixture I/O --------------------------------------------------------------------

def expected_keys() -> List[str]:
    keys = [
        engine_key(s, seed, b)
        for s in STRATEGIES for seed in ENGINE_SEEDS for b in ENGINE_BATCHES
    ]
    keys += list(CHAIN_DIGESTS)
    keys += [f"moves/{mt.value}" for mt in MoveType]
    return keys


def load_golden() -> Dict[str, str]:
    if not FIXTURE.exists():
        pytest.fail(f"golden fixture {FIXTURE.name} is missing")
    return json.loads(FIXTURE.read_text())["digests"]


def golden(key: str) -> str:
    table = load_golden()
    if key not in table:
        pytest.fail(f"golden fixture has no entry {key!r}")
    return table[key]


def compute_all() -> Dict[str, str]:
    out = {}
    for strategy in STRATEGIES:
        for seed in ENGINE_SEEDS:
            for batch in ENGINE_BATCHES:
                out[engine_key(strategy, seed, batch)] = engine_digest(strategy, seed, batch)
    filtered, spec = small_scene_model()
    for key, fn in CHAIN_DIGESTS.items():
        out[key] = fn(filtered, spec)
    out.update(move_class_digests())
    return out


# -- tests (entries not checked at their historical homes) ---------------------

def test_fixture_covers_the_matrix():
    assert sorted(load_golden()) == sorted(expected_keys())


def test_multiproposal_chain_matches_golden():
    filtered, spec = small_scene_model()
    assert multiproposal_digest(filtered, spec) == golden("chain/multiproposal")


def test_move_class_reject_cycles_match_golden():
    got = move_class_digests()
    for mt in MoveType:
        key = f"moves/{mt.value}"
        assert got[key] == golden(key), key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print(f"usage: PYTHONPATH=src python {sys.argv[0]} --write", file=sys.stderr)
        sys.exit(2)
    digests = compute_all()
    FIXTURE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
