"""Intelligent partitioning pipeline (§VIII–IX, Fig. 3, Table I).

Stages, exactly as the paper runs them on the bead image:

1. threshold-filter the image (θ = 0.5 in the paper);
2. segment along empty rows/columns
   (:func:`repro.partitioning.intelligent.segment_image`);
3. estimate each partition's expected artifact count with eq. (5)
   (plus the naive area-scaled estimate, for Table I's comparison row);
4. run an independent full RJMCMC chain per partition (in parallel when
   an executor with parallelism is supplied);
5. concatenate the models — partitions are disjoint, so recombination
   is trivial.

The pipeline result carries everything Table I reports per partition:
area, the three count estimates, measured time/iteration, iterations to
convergence, runtime, and runtime relative to the unpartitioned chain.

The orchestration lives in the unified engine (:mod:`repro.engine`,
strategy ``"intelligent"``); this module keeps the strategy's result
types — ``engine.run(request).raw``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional

from repro.errors import PartitioningError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.core.subimage import SubImageResult
from repro.parallel.scheduler import makespan
from repro.partitioning.intelligent import SegmentationResult

__all__ = ["PartitionRunReport", "IntelligentPipelineResult"]


@dataclass
class PartitionRunReport:
    """Per-partition facts — one Table I column.

    The chain's :class:`SubImageResult` is attached (``report.result =
    ...``, or the ``result=`` constructor keyword) once the partition's
    run completes; accessing it (or any derived property) earlier
    raises :class:`~repro.errors.PartitioningError` rather than a bare
    ``AttributeError`` on ``None``.
    """

    rect: Rect
    area: float
    relative_area: float
    est_count_threshold: float  #: eq. (5) on the partition's own pixels
    est_count_density: float  #: naive area-scaled whole-image estimate
    result: InitVar[Optional[SubImageResult]] = None

    def __post_init__(self, result: Optional[SubImageResult]) -> None:
        self._result = result

    @property
    def completed(self) -> bool:
        return self._result is not None

    @property
    def n_found(self) -> int:
        return len(self.result.circles)

    @property
    def seconds_per_iteration(self) -> float:
        return self.result.seconds_per_iteration

    @property
    def runtime_seconds(self) -> float:
        return self.result.elapsed_seconds

    def convergence_iteration(self, **kwargs) -> Optional[int]:
        return self.result.convergence_iteration(**kwargs)


def _get_partition_result(self: PartitionRunReport) -> SubImageResult:
    if self._result is None:
        raise PartitioningError(
            f"partition {self.rect} has no chain result yet — the report "
            "was accessed before its run completed"
        )
    return self._result


def _set_partition_result(
    self: PartitionRunReport, value: SubImageResult
) -> None:
    self._result = value


# Installed after @dataclass has consumed the InitVar annotation, so
# `PartitionRunReport(..., result=sub)` still works while attribute
# access goes through the guard.
PartitionRunReport.result = property(_get_partition_result, _set_partition_result)


@dataclass
class IntelligentPipelineResult:
    """Everything §IX reports for intelligent partitioning."""

    segmentation: SegmentationResult
    partitions: List[PartitionRunReport]
    circles: List[Circle] = field(default_factory=list)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def longest_partition_seconds(self) -> float:
        """Runtime with one processor per partition: the slowest one
        ("the intelligent-partitioning program runtime is the longest
        time taken to process any of the partitions")."""
        return max((p.runtime_seconds for p in self.partitions), default=0.0)

    def runtime_with_processors(self, n_processors: int) -> float:
        """Runtime with load balancing onto *n_processors* (§IX's
        two-processor discussion): the LPT makespan of the partition
        runtimes."""
        costs = [p.runtime_seconds for p in self.partitions]
        return makespan(costs, n_processors) if costs else 0.0
