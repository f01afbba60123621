"""Blind partitioning pipeline (§VIII–IX, Fig. 4).

Stages:

1. split the image into an ``nx × ny`` grid of *core* cells, each
   expanded by an overlap margin sized so "the largest expected
   artifact will fit inside" (the paper uses 1.1 × the expected
   radius);
2. estimate each expanded region's artifact count with eq. (5);
3. run an independent full RJMCMC chain per expanded region;
4. reconcile the overlapping models with the §IX heuristics
   (:func:`repro.partitioning.merge.merge_blind_models`): core-filter,
   union, proximity-merge duplicates, apply the dispute policy.

Unlike periodic partitioning this is *not* statistically equivalent to
conventional MCMC — the result is a point estimate with possible
boundary anomalies, in exchange for fully independent (hence perfectly
parallel) partition processing.

The orchestration lives in the unified engine (:mod:`repro.engine`,
strategy ``"blind"``); this module keeps the strategy's result type —
``engine.run(request).raw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import PartitioningError
from repro.geometry.circle import Circle
from repro.core.subimage import SubImageResult
from repro.parallel.scheduler import makespan
from repro.partitioning.blind import BlindPartition
from repro.partitioning.merge import MergeReport

__all__ = ["BlindPipelineResult"]


@dataclass
class BlindPipelineResult:
    """Outcome of a blind-partitioning run."""

    partitions: List[BlindPartition]
    sub_results: List[SubImageResult]
    merge_report: MergeReport
    est_counts: List[float] = field(default_factory=list)

    @property
    def circles(self) -> List[Circle]:
        return self.merge_report.circles

    def partition_runtimes(self) -> List[float]:
        return [r.elapsed_seconds for r in self.sub_results]

    def longest_partition_seconds(self) -> float:
        """Runtime with one processor per partition — "the runtime of
        the whole procedure ... is ≈ the longest time taken to process
        a partition as the merging ... takes negligible time" (§IX)."""
        return max(self.partition_runtimes(), default=0.0)

    def runtime_with_processors(self, n_processors: int) -> float:
        """LPT makespan of partition runtimes on *n_processors*."""
        costs = self.partition_runtimes()
        return makespan(costs, n_processors) if costs else 0.0

    def relative_runtimes(self, sequential_seconds: float) -> List[float]:
        """Per-partition runtime as a fraction of a sequential baseline
        (the §IX quadrant numbers: 0.12 / 0.08 / 0.27 / 0.11)."""
        if sequential_seconds <= 0:
            raise PartitioningError("sequential baseline must be positive")
        return [t / sequential_seconds for t in self.partition_runtimes()]
