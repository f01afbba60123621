"""The paper's contributions: periodic partitioning, the runtime model,
and the two aggressive partitioning pipelines.

* :mod:`repro.core.theory` — eqs. (2)–(4): predicted runtimes for
  periodic partitioning, optionally with speculative moves.
* :mod:`repro.core.phases` — the global/local phase schedule that keeps
  long-term move-proposal probabilities unchanged (§V).
* :mod:`repro.core.periodic` — the periodic-partitioning sampler
  (statistically equivalent to conventional MCMC).
* :mod:`repro.core.intelligent_pipeline` / :mod:`repro.core.blind_pipeline`
  — the §VIII methods that trade statistical purity for speed.
* :mod:`repro.core.naive` — the broken baseline the paper warns about,
  kept for demonstrating the boundary anomalies.
* :mod:`repro.core.evaluation` — result-quality metrics against ground
  truth.

All four partitioning schemes are registered strategies of the unified
detection engine (:mod:`repro.engine`): run them with
``repro.engine.run(DetectionRequest(..., strategy=...))``.  The result
classes here are what ``DetectionResult.raw`` carries per strategy.
"""

from repro.core.theory import (
    eq2_runtime,
    eq3_runtime,
    eq4_runtime,
    periodic_runtime_fraction,
    fig1_series,
)
from repro.core.phases import PhaseSchedule
from repro.core.subimage import (
    SubImageTask,
    SubImageResult,
    run_subimage_task,
    make_subimage_task,
)
from repro.core.partition_runner import (
    LocalPhaseTask,
    LocalPhaseResult,
    run_local_phase_task,
    build_local_phase_tasks,
    apply_local_phase_results,
)
from repro.core.periodic import (
    PeriodicPartitioningSampler,
    PeriodicResult,
    single_point_partitioner,
    grid_partitioner,
)
from repro.core.intelligent_pipeline import (
    IntelligentPipelineResult,
    PartitionRunReport,
)
from repro.core.blind_pipeline import BlindPipelineResult
from repro.core.naive import NaiveResult
from repro.core.evaluation import MatchReport, evaluate_model, anomalies_near_lines

__all__ = [
    "eq2_runtime",
    "eq3_runtime",
    "eq4_runtime",
    "periodic_runtime_fraction",
    "fig1_series",
    "PhaseSchedule",
    "SubImageTask",
    "SubImageResult",
    "run_subimage_task",
    "make_subimage_task",
    "LocalPhaseTask",
    "LocalPhaseResult",
    "run_local_phase_task",
    "build_local_phase_tasks",
    "apply_local_phase_results",
    "PeriodicPartitioningSampler",
    "PeriodicResult",
    "single_point_partitioner",
    "grid_partitioner",
    "IntelligentPipelineResult",
    "PartitionRunReport",
    "BlindPipelineResult",
    "NaiveResult",
    "MatchReport",
    "evaluate_model",
    "anomalies_near_lines",
]
