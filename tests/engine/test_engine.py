"""Engine behaviour: request validation, seed-fixed parity with the
periodic sampler driven directly, executor lifecycle ownership."""

import pytest

from repro.bench.workloads import small_nuclei_workload
from repro.core import PeriodicPartitioningSampler, PhaseSchedule
from repro.core.intelligent_pipeline import PartitionRunReport
from repro.engine import auto_executor_kind, run
from repro.errors import (
    ConfigurationError,
    EngineError,
    ExecutorError,
    PartitioningError,
    UnknownStrategyError,
)
from repro.geometry.rect import Rect
from repro.parallel.executor import ThreadExecutor

pytestmark = pytest.mark.fast

ITERS = 600
SEED = 11


@pytest.fixture(scope="module")
def workload():
    return small_nuclei_workload()


def key(circles):
    return sorted((c.x, c.y, c.r) for c in circles)


class TestRequestValidation:
    def test_iterations_must_be_positive(self, workload):
        with pytest.raises(ConfigurationError):
            workload.request("naive", iterations=0)

    def test_bad_executor_string_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            workload.request("naive", iterations=10, executor="gpu")

    def test_unknown_strategy_rejected(self, workload):
        with pytest.raises(UnknownStrategyError):
            run(workload.request("quantum", iterations=10))

    def test_unknown_option_key_rejected(self, workload):
        req = workload.request("naive", iterations=10, options={"nz": 3})
        with pytest.raises(EngineError) as err:
            run(req)
        assert "nz" in str(err.value)


class TestLegacyParity:
    """Seed-fixed: the engine's periodic strategy is bit-identical to
    driving :class:`PeriodicPartitioningSampler` directly."""

    def test_periodic(self, workload):
        sampler = PeriodicPartitioningSampler(
            workload.filtered, workload.model, workload.moves,
            PhaseSchedule(local_iters=400, qg=workload.moves.qg), seed=SEED,
        )
        legacy = sampler.run(1600)
        eng = run(workload.request(
            "periodic", iterations=1600, seed=SEED,
            options={"local_iters": 400},
        ))
        assert key(legacy.final_circles) == key(eng.circles)
        assert eng.raw.iterations == legacy.iterations


class TestResultSchema:
    def test_common_report_shape(self, workload):
        eng = run(workload.request("blind", iterations=ITERS, seed=SEED))
        assert eng.strategy == "blind"
        assert eng.n_tasks == 4
        assert len(eng.reports) == 4
        for report, sub in zip(eng.reports, eng.raw.sub_results):
            assert report.n_found == len(sub.circles)
            assert report.iterations == ITERS
            assert report.elapsed_seconds > 0
            assert report.seconds_per_iteration > 0
        assert eng.elapsed_seconds > 0

    def test_periodic_whole_image_report(self, workload):
        eng = run(workload.request(
            "periodic", iterations=800, seed=SEED, options={"local_iters": 200},
        ))
        assert len(eng.reports) == 1
        assert eng.reports[0].rect == workload.filtered.bounds
        assert eng.reports[0].n_found == eng.n_found

    def test_partition_run_report_guard(self):
        report = PartitionRunReport(
            rect=Rect(0, 0, 10, 10), area=100.0, relative_area=1.0,
            est_count_threshold=1.0, est_count_density=1.0,
        )
        assert not report.completed
        with pytest.raises(PartitioningError):
            report.result
        with pytest.raises(PartitioningError):
            report.n_found
        with pytest.raises(PartitioningError):
            report.runtime_seconds


class TestExecutorLifecycle:
    def test_auto_kind_by_task_count_and_budget(self):
        assert auto_executor_kind(1, 10_000_000) == "serial"
        assert auto_executor_kind(4, 1_000) == "serial"
        assert auto_executor_kind(4, 25_000) == "thread"
        assert auto_executor_kind(4, 1_000_000) == "process"

    def test_engine_owned_thread_pool_is_shut_down(self, workload, monkeypatch):
        created = []

        class Recording(ThreadExecutor):
            def __init__(self, n_workers):
                super().__init__(n_workers)
                created.append(self)

        monkeypatch.setattr("repro.engine.executors.ThreadExecutor", Recording)
        eng = run(workload.request(
            "naive", iterations=ITERS, executor="thread", seed=SEED,
        ))
        assert eng.executor_kind == "thread"
        assert len(created) == 1
        with pytest.raises(ExecutorError):  # pool closed by the engine
            created[0].map(lambda x: x, [1])

    def test_caller_owned_executor_survives(self, workload):
        with ThreadExecutor(2) as ex:
            eng = run(workload.request(
                "naive", iterations=ITERS, executor=ex, seed=SEED,
            ))
            assert eng.executor_kind == "caller"
            assert ex.map(lambda x: x + 1, [1, 2]) == [2, 3]  # still usable

    def test_executor_choice_does_not_change_results(self, workload):
        serial = run(workload.request("naive", iterations=ITERS, seed=SEED))
        threaded = run(workload.request(
            "naive", iterations=ITERS, executor="thread", seed=SEED,
        ))
        assert key(serial.circles) == key(threaded.circles)
