"""The benchmark's three workloads: what each sends, in which order.

Every input comes from the workload seed.  Each workload draws its jobs
from a fixed pool of job specs, so the golden digests in
``perfbench/golden/`` cover every seed; the seed decides which pool
entries a run sends, in which order, and (for ``open-mix``) when.

* ``cold-large`` -- closed loop, 1 client: a seeded order over 108
  distinct server-generated 256x256 scenes (12 of each circle count
  from 12 to 20) under the ``intelligent`` strategy on the ``process``
  executor.  Every job is a cache miss.
* ``hot-repeat`` -- closed loop, 2 clients: inline-pixel jobs drawn
  zipfian from 8 fixed images of mixed sizes (128x128 to 400x400) with
  a short iteration budget.  Each image is sent once before the
  measured phase (the first touch, a miss), so every measured job is a
  cache hit.
* ``open-mix`` -- open loop, seeded Poisson arrivals at a fixed rate:
  24 server-generated scenes of four sizes under all four strategies
  on the ``serial`` executor.  Each block of 16 jobs holds every
  size x strategy pair once, with a scene of that size the pair has not
  used yet, so the first 96 jobs of a run (40 s at 2.4 jobs/s) have
  distinct keys.  ``BENCHMARK.json`` does not list it: on a shared
  2-vCPU host its latencies spread more than any allowed bound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

STRATEGIES = ("naive", "blind", "intelligent", "periodic")


def spec_key(spec: Dict[str, Any]) -> str:
    """Stable identity of one job spec (the golden-store key)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


@dataclass
class Workload:
    name: str
    why: str
    loop: str  # "closed" or "open"
    clients: int
    #: Per-job latency limit for slo_attainment, seconds.  The gated
    #: workloads set it near their measured tail, so attainment sits
    #: below 1 and moves when the tail does.
    slo_s: float
    #: f1_mean covers the first this-many list entries (fixed per seed).
    f1_jobs: int
    #: Every spec the workload can send, in a fixed order.
    pool: List[Dict[str, Any]]
    #: Ground truth circles per pool index, built on demand.
    truth: Callable[[int], List[Tuple[float, float, float]]]
    #: Builds the seeded send order: a list of pool indices.
    order: Callable[[np.random.Generator], List[int]]
    #: Open loop only: arrivals per second.
    rate: float = 0.0
    #: Small specs sent once to every backend before timing starts.
    warmup: List[Dict[str, Any]] = field(default_factory=list)
    #: Send every distinct job of the order once before the measured
    #: phase, so the phase sees only cache hits.
    prime: bool = False
    #: peak_rss_mb is read when this many measured jobs have completed,
    #: not at the end: where the servers' memory grows with every job
    #: served, a faster run would otherwise read as a larger footprint.
    #: Set below the job count of the slowest runs seen.
    rss_jobs: int = 0

    def schedule(self, seed: int, seconds: float) -> Tuple[List[int], Optional[List[float]]]:
        """The send order and, for the open loop, each job's due time
        (seconds after the phase starts)."""
        rng = np.random.default_rng([seed % 2**64, _name_salt(self.name)])
        order = self.order(rng)
        if self.loop != "open":
            return order, None
        # A Poisson process conditioned on its count: exactly rate x
        # seconds arrivals, uniform on the window, so the offered load
        # is the same on every seed and only the spacing varies.
        n = max(1, int(round(self.rate * seconds)))
        due = sorted(float(t) for t in rng.uniform(0.0, seconds, size=n))
        return [order[i % len(order)] for i in range(n)], due


def _name_salt(name: str) -> int:
    return int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)


# -- cold-large ----------------------------------------------------------------

COLD_COUNTS = tuple(range(12, 21))
COLD_PER_COUNT = 12
COLD_SIZE = 256
COLD_ITERATIONS = 800


def _scene_spec(size: int, circles: int, seed: int, strategy: str,
                iterations: int, executor: str) -> Dict[str, Any]:
    from repro.service.protocol import scene_job

    return scene_job(size, circles, strategy=strategy, iterations=iterations,
                     seed=seed, executor=executor)


def _scene_truth(spec: Dict[str, Any]) -> List[Tuple[float, float, float]]:
    from repro.bench.workloads import synthetic_workload

    scene = spec["scene"]
    workload = synthetic_workload(size=scene["size"], n_circles=scene["circles"],
                                  threshold=scene["threshold"], seed=scene["seed"])
    return [(c.x, c.y, c.r) for c in workload.scene.circles]


def _stratified_order(rng: np.random.Generator) -> List[int]:
    """Blocks of one scene per circle count, in a seeded order within
    each block, so every seed sends the same mix of scene sizes."""
    n_counts = len(COLD_COUNTS)
    scenes = [rng.permutation(COLD_PER_COUNT) for _ in COLD_COUNTS]
    order = []
    for block in range(COLD_PER_COUNT):
        for c in rng.permutation(n_counts):
            order.append(int(scenes[c][block]) * n_counts + int(c))
    return order


def cold_large() -> Workload:
    # Pool index i holds a scene with COLD_COUNTS[i % 9] circles.
    pool = [
        _scene_spec(COLD_SIZE, COLD_COUNTS[i % len(COLD_COUNTS)], 1000 + i,
                    "intelligent", COLD_ITERATIONS, "process")
        for i in range(COLD_PER_COUNT * len(COLD_COUNTS))
    ]
    return Workload(
        name="cold-large",
        why="the paper's question: time to detect one image with "
            "partitioned parallel chains; every job is a cache miss",
        loop="closed",
        clients=1,
        # p50 0.65 s, tail (about p78) 0.71-0.85 s over seeds 701-710 on a
        # 2-vCPU VM; 0.9 s keeps about 95 % of jobs inside.
        slo_s=0.9,
        f1_jobs=27,
        pool=pool,
        truth=lambda i: _scene_truth(pool[i]),
        order=_stratified_order,
        warmup=[_scene_spec(64, 4, 990_001, "intelligent", 150, "process")],
        rss_jobs=40,
    )


# -- hot-repeat ----------------------------------------------------------------

#: (height, width) of the fixed image set, most popular first.
HOT_SHAPES = [(239, 398), (128, 128), (200, 160), (256, 256),
              (144, 320), (300, 220), (400, 400), (180, 180)]
HOT_ITERATIONS = 300
HOT_DRAWS = 50_000
HOT_ZIPF_S = 1.1


def _image_scene(h: int, w: int, seed: int):
    from repro.imaging.synthetic import SceneSpec, generate_scene

    n = max(3, (h * w) // 4500)
    return generate_scene(SceneSpec(width=w, height=h, n_circles=n,
                                    mean_radius=8.0), seed=seed)


def hot_repeat() -> Workload:
    from repro.service.protocol import pixels_job

    scenes = [_image_scene(h, w, 2000 + i) for i, (h, w) in enumerate(HOT_SHAPES)]
    pool = [pixels_job(s.image, strategy="intelligent",
                       iterations=HOT_ITERATIONS, seed=3000 + i,
                       executor="serial")
            for i, s in enumerate(scenes)]
    ranks = np.arange(1, len(pool) + 1, dtype=float)
    weights = ranks ** -HOT_ZIPF_S
    weights /= weights.sum()
    tiny = _image_scene(48, 48, 990_002).image
    return Workload(
        name="hot-repeat",
        why="cache hits skip the kernel, leaving protocol decode, image "
            "digest, cache lookup, router hop, WAL append and HTTP/SSE",
        loop="closed",
        clients=2,
        # p50 0.06 s, tail (about p99) 0.13 s over seeds 701-710 on a
        # 2-vCPU VM; 0.1 s keeps about 92 % of jobs inside.
        slo_s=0.1,
        f1_jobs=200,
        pool=pool,
        truth=lambda i: [(c.x, c.y, c.r) for c in scenes[i].circles],
        order=lambda rng: [int(i) for i in
                           rng.choice(len(pool), size=HOT_DRAWS, p=weights)],
        warmup=[pixels_job(tiny, strategy="intelligent", iterations=50,
                           seed=990_002, executor="serial")],
        prime=True,
        rss_jobs=600,
    )


# -- open-mix ------------------------------------------------------------------

MIX_SIZES = (96, 128, 160, 192)
MIX_SCENES = 24
MIX_ITERATIONS = 400
MIX_RATE = 2.4


def _mix_order(rng: np.random.Generator) -> List[int]:
    """Blocks holding each size x strategy pair once, in a seeded
    order; each pair walks a seeded permutation of the scenes of its
    size, so no key repeats until the pool is used up."""
    cells = len(MIX_SIZES) * len(STRATEGIES)
    per_size = MIX_SCENES // len(MIX_SIZES)
    scenes = [rng.permutation(per_size) for _ in range(cells)]
    order = []
    for block in range(per_size):
        for cell in rng.permutation(cells):
            size_index, strategy_index = divmod(int(cell), len(STRATEGIES))
            scene = int(scenes[cell][block]) * len(MIX_SIZES) + size_index
            order.append(scene * len(STRATEGIES) + strategy_index)
    return order


def open_mix() -> Workload:
    # Pool index = scene * 4 + strategy; scene i has size MIX_SIZES[i % 4].
    pool = []
    for i in range(MIX_SCENES):
        size = MIX_SIZES[i % len(MIX_SIZES)]
        for strategy in STRATEGIES:
            pool.append(_scene_spec(size, size // 16, 4000 + i, strategy,
                                    MIX_ITERATIONS, "serial"))
    return Workload(
        name="open-mix",
        why="queue wait, placement across backends and inter-job "
            "parallelism under independent arrivals of all four strategies",
        loop="open",
        clients=2,
        slo_s=1.5,
        f1_jobs=48,
        pool=pool,
        truth=lambda i: _scene_truth(pool[i]),
        order=_mix_order,
        rate=MIX_RATE,
        warmup=[_scene_spec(64, 4, 990_003, s, 100, "serial") for s in STRATEGIES],
        rss_jobs=60,
    )


WORKLOADS = {"cold-large": cold_large, "hot-repeat": hot_repeat,
             "open-mix": open_mix}


def get(name: str) -> Workload:
    return WORKLOADS[name]()
