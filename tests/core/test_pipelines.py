"""Tests for the intelligent and blind pipelines (§VIII–IX)."""

import pytest

from repro.core.evaluation import evaluate_model
from repro.engine import DetectionRequest, run
from repro.imaging import SceneSpec, generate_bead_scene
from repro.mcmc.spec import ModelSpec, MoveConfig


@pytest.fixture(scope="module")
def bead_scene():
    return generate_bead_scene(
        SceneSpec(
            width=360, height=260, n_circles=18, mean_radius=7.0,
            radius_std=0.8, min_radius=4.0, blur_sigma=0.8, noise_sigma=0.015,
        ),
        n_clumps=3,
        clump_radius_factor=4.0,
        gutter=36.0,
        clump_weights=[3, 12, 3],
        seed=77,
    )


@pytest.fixture(scope="module")
def bead_model():
    return ModelSpec(
        width=360, height=260, expected_count=18.0,
        radius_mean=7.0, radius_std=1.0, radius_min=3.0, radius_max=14.0,
    )


def _intelligent(bead_scene, bead_model):
    return run(DetectionRequest(
        bead_scene.image, bead_model, MoveConfig(), 9000, strategy="intelligent",
        executor="serial", seed=3, options={"theta": 0.5, "min_gap": 12},
    )).raw


class TestIntelligentPipeline:
    @pytest.fixture(scope="class")
    def result(self, bead_scene, bead_model):
        return _intelligent(bead_scene, bead_model)

    def test_segments_into_clumps(self, result):
        assert 2 <= result.n_partitions <= 8

    def test_partitions_tile_image(self, result, bead_scene):
        total = sum(p.area for p in result.partitions)
        assert total == pytest.approx(bead_scene.image.bounds.area, rel=1e-9)
        assert sum(p.relative_area for p in result.partitions) == pytest.approx(1.0)

    def test_threshold_estimates_reflect_clump_weights(self, result):
        """The dominant clump gets the dominant eq. (5) estimate."""
        ests = sorted(p.est_count_threshold for p in result.partitions)
        assert ests[-1] > 2 * ests[0]

    def test_detection_quality(self, result, bead_scene):
        report = evaluate_model(result.circles, bead_scene.circles)
        assert report.recall >= 0.6
        assert report.precision >= 0.6

    def test_per_partition_reports_complete(self, result):
        for p in result.partitions:
            assert p.runtime_seconds > 0
            assert p.seconds_per_iteration > 0
            assert p.result.iterations == 9000
            assert p.est_count_density >= 0

    def test_longest_partition_runtime(self, result):
        longest = result.longest_partition_seconds()
        assert longest == max(p.runtime_seconds for p in result.partitions)
        # With 1 processor, runtime is the sum; with many, the max.
        assert result.runtime_with_processors(1) == pytest.approx(
            sum(p.runtime_seconds for p in result.partitions)
        )
        assert result.runtime_with_processors(len(result.partitions)) == pytest.approx(
            longest
        )

    def test_deterministic(self, bead_scene, bead_model, result):
        again = _intelligent(bead_scene, bead_model)
        a = sorted((c.x, c.y) for c in result.circles)
        b = sorted((c.x, c.y) for c in again.circles)
        assert a == pytest.approx(b)


class TestBlindPipeline:
    @pytest.fixture(scope="class")
    def result(self, bead_scene, bead_model):
        return run(DetectionRequest(
            bead_scene.image, bead_model, MoveConfig(), 9000, strategy="blind",
            executor="serial", seed=4, options={"nx": 2, "ny": 2},
        )).raw

    def test_four_partitions(self, result):
        assert len(result.partitions) == 4
        assert len(result.sub_results) == 4

    def test_overlap_geometry(self, result, bead_model):
        for p in result.partitions:
            assert p.expanded.contains_rect(p.core)

    def test_detection_quality(self, result, bead_scene):
        report = evaluate_model(result.circles, bead_scene.circles)
        assert report.recall >= 0.55
        assert report.precision >= 0.55

    def test_no_duplicates_in_final_model(self, result):
        """After merging, no two circles should be within merge distance."""
        circles = result.circles
        for i, a in enumerate(circles):
            for b in circles[i + 1 :]:
                assert a.distance_to(b) > 2.0

    def test_relative_runtimes(self, result):
        seq = 10.0
        rel = result.relative_runtimes(seq)
        assert len(rel) == 4
        assert all(r > 0 for r in rel)
        assert result.longest_partition_seconds() == pytest.approx(max(rel) * seq)

    def test_runtime_with_processors_monotone(self, result):
        times = [result.runtime_with_processors(k) for k in (1, 2, 4)]
        assert times[0] >= times[1] >= times[2]

    def test_merge_report_accounting(self, result):
        rep = result.merge_report
        assert rep.n_total == (
            rep.n_auto_accepted + rep.n_corroborated + rep.n_disputed_kept + rep.n_merged * 0
        ) or rep.n_total >= rep.n_auto_accepted


class TestNaivePartitioning:
    def test_runs_and_reports(self, bead_scene, bead_model):
        res = run(DetectionRequest(
            bead_scene.image, bead_model, MoveConfig(), 4000, strategy="naive",
            executor="serial", seed=5, options={"nx": 2, "ny": 2},
        )).raw
        assert len(res.tiles) == 4
        assert len(res.circles) >= 0
        lines = res.cut_lines()
        assert ("v", 180.0) in lines
        assert ("h", 130.0) in lines
