"""The paper's four partitioning schemes as registered strategies.

The tiled three (naive, blind, intelligent) supply only *plan* and
*merge* — the run shape lives in
:class:`~repro.engine.orchestrator.TiledStrategy`.  Periodic
partitioning wraps the §V sampler directly (its partitions are
re-randomised every cycle, so there is no up-front tile plan).

Each strategy's ``options`` keys default to the paper's settings (a
2×2 grid, 1.1·r̄ overlap, θ = 0.5, ...), so a bare request runs the
method as §VIII–IX describe it.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Tuple

from repro.core.blind_pipeline import BlindPipelineResult
from repro.core.intelligent_pipeline import (
    IntelligentPipelineResult,
    PartitionRunReport,
)
from repro.core.naive import NaiveResult
from repro.core.periodic import (
    PeriodicPartitioningSampler,
    grid_partitioner,
    single_point_partitioner,
)
from repro.core.phases import PhaseSchedule
from repro.core.subimage import SubImageResult
from repro.engine.executors import engine_executor
from repro.engine.orchestrator import TiledStrategy
from repro.engine.registry import Strategy, register_strategy
from repro.engine.schema import (
    DetectionRequest,
    PartitionReport,
    StrategyOutput,
    TilePlan,
)
from repro.errors import PartitioningError
from repro.geometry.rect import Rect
from repro.imaging.density import estimate_count_by_area, estimate_count_in_rect
from repro.imaging.filters import threshold_filter
from repro.partitioning.intelligent import segment_image
from repro.partitioning.merge import concat_models, merge_blind_models
from repro.partitioning.blind import blind_partitions

__all__ = [
    "NaiveStrategy",
    "BlindStrategy",
    "IntelligentStrategy",
    "PeriodicStrategy",
]


def _drain_plan(gen: Generator) -> Tuple[List[TilePlan], Any]:
    """Collect an incremental :meth:`plan_stream` into ``plan()`` form.

    Strategies whose estimation is naturally per-tile implement the
    generator as the single source of truth and express the blocking
    ``plan()`` through this, so the two paths cannot drift.
    """
    tiles: List[TilePlan] = []
    while True:
        try:
            tiles.append(next(gen))
        except StopIteration as stop:
            return tiles, stop.value


@register_strategy("naive")
class NaiveStrategy(TiledStrategy):
    """Plain no-overlap grid, area-scaled priors, no reconciliation —
    the broken baseline of §I/§V, kept to demonstrate its anomalies."""

    option_keys = frozenset({"nx", "ny"})

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        nx = int(request.option("nx", 2))
        ny = int(request.option("ny", 2))
        bounds = request.image.bounds
        xs = [bounds.x0 + bounds.width * i / nx for i in range(nx + 1)]
        ys = [bounds.y0 + bounds.height * j / ny for j in range(ny + 1)]
        tiles_rects = [
            Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
            for j in range(ny)
            for i in range(nx)
        ]
        spec = request.spec
        tiles = [
            # The naive prior allocation: whole-image count scaled by area.
            TilePlan(rect=t, expected_count=spec.expected_count * (t.area / bounds.area))
            for t in tiles_rects
        ]
        return tiles, tiles_rects

    def merge(
        self,
        request: DetectionRequest,
        context: List[Rect],
        sub_results: List[SubImageResult],
    ) -> NaiveResult:
        return NaiveResult(
            tiles=context,
            sub_results=sub_results,
            circles=concat_models([r.circles for r in sub_results]),
        )


@register_strategy("blind")
class BlindStrategy(TiledStrategy):
    """§VIII–IX blind partitioning: overlapping 2×2 grid, independent
    chains, §IX merge heuristics."""

    option_keys = frozenset(
        {"nx", "ny", "overlap_factor", "theta", "merge_distance", "dispute_policy"}
    )

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        return _drain_plan(self.plan_stream(request))

    def plan_stream(
        self, request: DetectionRequest
    ) -> Generator[TilePlan, None, Any]:
        """Incremental planning: each partition's count estimate is an
        integral over its expanded rect, so a tile is dispatchable (and,
        on the streaming path, dispatched) before the next partition's
        estimation has run."""
        nx = int(request.option("nx", 2))
        ny = int(request.option("ny", 2))
        overlap_factor = float(request.option("overlap_factor", 1.1))
        theta = float(request.option("theta", 0.5))
        spec = request.spec
        parts = blind_partitions(
            request.image.bounds, nx, ny, overlap_factor * spec.radius_mean
        )
        binary = threshold_filter(request.image, theta)
        est_counts = []
        for p in parts:
            est = estimate_count_in_rect(
                binary, p.expanded, theta=0.5, radius=spec.radius_mean
            )
            est_counts.append(est)
            yield TilePlan(rect=p.expanded, expected_count=est)
        return (parts, est_counts)

    def merge(
        self,
        request: DetectionRequest,
        context: Any,
        sub_results: List[SubImageResult],
    ) -> BlindPipelineResult:
        parts, est_counts = context
        merge_report = merge_blind_models(
            parts,
            [r.circles for r in sub_results],
            merge_distance=float(request.option("merge_distance", 5.0)),
            dispute_policy=request.option("dispute_policy", "accept"),
        )
        return BlindPipelineResult(
            partitions=parts,
            sub_results=sub_results,
            merge_report=merge_report,
            est_counts=est_counts,
        )


@register_strategy("intelligent")
class IntelligentStrategy(TiledStrategy):
    """§VIII–IX intelligent partitioning: segment along empty gutters,
    eq. (5) per-partition priors, trivial disjoint recombination."""

    option_keys = frozenset({"theta", "min_gap", "pad", "trim", "whole_image_count"})

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        return _drain_plan(self.plan_stream(request))

    def plan_stream(
        self, request: DetectionRequest
    ) -> Generator[TilePlan, None, Any]:
        """Incremental planning: segmentation is one up-front pass, but
        the per-partition estimation (eq. (5) threshold/density counts)
        runs tile by tile — each segment's chain starts while the
        remaining segments are still being estimated."""
        theta = float(request.option("theta", 0.5))
        min_gap = float(request.option("min_gap", 8.0))
        pad = float(request.option("pad", 3.0))
        trim = bool(request.option("trim", False))
        whole_image_count = request.option("whole_image_count")
        image, spec = request.image, request.spec

        binary = threshold_filter(image, theta)
        segmentation = segment_image(binary, min_gap=min_gap, pad=pad, trim=trim)
        if len(segmentation) == 0:
            raise PartitioningError(
                "segmentation produced no partitions (image empty at this "
                "threshold?)"
            )
        total_area = image.bounds.area
        if whole_image_count is None:
            whole_image_count = estimate_count_in_rect(
                binary, image.bounds, theta=0.5, radius=spec.radius_mean
            )

        reports: List[PartitionRunReport] = []
        for rect in segmentation.partitions:
            est_thresh = estimate_count_in_rect(
                binary, rect, theta=0.5, radius=spec.radius_mean
            )
            est_density = estimate_count_by_area(
                whole_image_count, rect, bounds=image.bounds
            )
            reports.append(
                PartitionRunReport(
                    rect=rect,
                    area=rect.area,
                    relative_area=rect.area / total_area,
                    est_count_threshold=est_thresh,
                    est_count_density=est_density,
                )
            )
            yield TilePlan(rect=rect, expected_count=est_thresh)
        return (segmentation, reports)

    def merge(
        self,
        request: DetectionRequest,
        context: Any,
        sub_results: List[SubImageResult],
    ) -> IntelligentPipelineResult:
        segmentation, reports = context
        for report, result in zip(reports, sub_results):
            report.result = result
        return IntelligentPipelineResult(
            segmentation=segmentation,
            partitions=reports,
            circles=concat_models([r.circles for r in sub_results]),
        )


@register_strategy("periodic")
class PeriodicStrategy(Strategy):
    """§V periodic partitioning — statistically valid data-parallel
    MCMC via alternating global/local phases.

    ``request.iterations`` is the *total* budget; ``options`` mirror the
    :class:`~repro.core.periodic.PeriodicPartitioningSampler` knobs:

    ``local_iters``
        Iterations per local phase (default: a quarter of the total,
        at least 1 — four-ish cycles).
    ``grid_spacing``
        ``(sx, sy)`` for the §V grid partitioner; default is the Fig. 2
        single-random-point scheme.
    ``partitioner``
        A fully custom partitioner callable (overrides ``grid_spacing``).
    ``speculative_width`` / ``local_speculative_width``
        Speculative-move widths (eqs. (3)/(4)).
    """

    option_keys = frozenset(
        {
            "local_iters",
            "grid_spacing",
            "partitioner",
            "speculative_width",
            "local_speculative_width",
        }
    )

    def execute(self, request: DetectionRequest) -> StrategyOutput:
        local_iters = int(
            request.option("local_iters", max(1, request.iterations // 4))
        )
        schedule = PhaseSchedule(local_iters=local_iters, qg=request.move_config.qg)
        partitioner = request.option("partitioner")
        spacing = request.option("grid_spacing")
        if partitioner is None:
            partitioner = (
                grid_partitioner(*spacing)
                if spacing is not None
                else single_point_partitioner()
            )
        # Executor sizing: the local phases dispatch one task per cell, so
        # the concurrent task count is the partitioner's cell count — 4
        # for the single-point scheme, the grid size for a grid.
        bounds = request.image.bounds
        if spacing is not None:
            est_cells = max(1, math.ceil(bounds.width / spacing[0])) * max(
                1, math.ceil(bounds.height / spacing[1])
            )
        else:
            est_cells = 4
        with engine_executor(request, request.image, est_cells) as (exec_, kind):
            sampler = PeriodicPartitioningSampler(
                request.image,
                request.spec,
                request.move_config,
                schedule,
                partitioner=partitioner,
                executor=exec_,
                seed=request.seed,
                record_every=request.record_every,
                speculative_width=int(request.option("speculative_width", 1)),
                local_speculative_width=int(
                    request.option("local_speculative_width", 1)
                ),
            )
            result = sampler.run(request.iterations)
        circles = list(result.final_circles)
        report = PartitionReport(
            rect=request.image.bounds,
            expected_count=request.spec.expected_count,
            n_found=len(circles),
            iterations=result.iterations,
            elapsed_seconds=result.elapsed_seconds,
        )
        return StrategyOutput(
            circles=circles,
            reports=[report],
            raw=result,
            n_tasks=1,
            executor_kind=kind,
        )
