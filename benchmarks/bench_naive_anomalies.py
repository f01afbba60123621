"""Experiment ``naive`` — §I/§V motivation: naive partitioning anomalies.

"Artifacts that intersect with a partition boundary may be found twice
(once in each half of the image), be poorly identified ..., or not be
found at all."  We build a scene with artifacts deliberately straddling
the quartering lines, run (a) naive partitioning, (b) blind
partitioning with the §IX safeguards, and (c) the sequential chain, and
localise each method's errors to the boundary bands.

Shape to reproduce: naive partitioning's anomalies concentrate at the
cuts; blind partitioning's merge heuristics remove them.
"""


from conftest import emit
from repro.core.evaluation import anomalies_near_lines
from repro.engine import DetectionRequest, run
from repro.geometry.circle import Circle
from repro.imaging.density import estimate_count
from repro.imaging.filters import threshold_filter
from repro.imaging.synthetic import SceneSpec, Scene, render_scene
from repro.mcmc import MarkovChain, ModelSpec, MoveConfig, MoveGenerator, PosteriorState
from repro.parallel.sharedmem import set_worker_image
from repro.utils.rng import RngStream
from repro.utils.tables import Table

SIZE = 256
ITERS_TILE = 10_000


def straddling_scene():
    """12 circles, 5 of which sit exactly on the quartering lines."""
    spec = SceneSpec(width=SIZE, height=SIZE, n_circles=12, mean_radius=9.0,
                     radius_std=0.8, min_radius=5.0, blur_sigma=0.8,
                     noise_sigma=0.015)
    mid = SIZE / 2
    circles = [
        Circle(mid, 60, 9), Circle(mid, 150, 8.5), Circle(mid, 210, 9.5),
        Circle(70, mid, 9), Circle(190, mid, 8.5),
        Circle(50, 50, 9), Circle(200, 60, 8), Circle(60, 200, 9),
        Circle(200, 200, 8.5), Circle(120, 80, 9), Circle(80, 120, 8),
        Circle(180, 130, 9),
    ]
    image = render_scene(spec, circles, seed=RngStream(seed=5))
    return Scene(spec=spec, circles=circles, image=image)


def run_experiment():
    scene = straddling_scene()
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=SIZE, height=SIZE,
        expected_count=max(estimate_count(filtered, 0.5, 9.0), 1.0),
        radius_mean=9.0, radius_std=1.2, radius_min=4.0, radius_max=16.0,
    )
    mc = MoveConfig()
    set_worker_image(filtered.pixels)

    naive = run(DetectionRequest(
        scene.image, spec, mc, ITERS_TILE, strategy="naive", executor="serial",
        seed=1, options={"nx": 2, "ny": 2},
    )).raw
    blind = run(DetectionRequest(
        scene.image, spec, mc, ITERS_TILE, strategy="blind", executor="serial",
        seed=2, options={"nx": 2, "ny": 2, "theta": 0.4},
    )).raw
    post = PosteriorState(filtered, spec)
    chain = MarkovChain(post, MoveGenerator(spec, mc), seed=3)
    chain.run(4 * ITERS_TILE)

    lines = naive.cut_lines()
    band = 12.0
    return scene, lines, band, {
        "naive": naive.circles,
        "blind": blind.circles,
        "sequential": post.snapshot_circles(),
    }


def test_naive_anomalies(benchmark, capsys):
    scene, lines, band, models = benchmark.pedantic(
        run_experiment, iterations=1, rounds=1
    )

    t = Table(
        "Naive vs blind vs sequential on boundary-straddling artifacts",
        ["method", "found", "f1", "spurious@boundary", "missed@boundary",
         "spurious elsewhere", "missed elsewhere"],
        precision=3,
    )
    stats = {}
    for name, circles in models.items():
        out = anomalies_near_lines(circles, scene.circles, lines, band=band)
        stats[name] = out
        rep = out["report"]
        t.add_row([name, rep.n_found, rep.f1, out["spurious_near_boundary"],
                   out["missed_near_boundary"], out["spurious_elsewhere"],
                   out["missed_elsewhere"]])
    emit(capsys, t.render())

    naive_anoms = (stats["naive"]["spurious_near_boundary"]
                   + stats["naive"]["missed_near_boundary"])
    blind_anoms = (stats["blind"]["spurious_near_boundary"]
                   + stats["blind"]["missed_near_boundary"])
    seq_anoms = (stats["sequential"]["spurious_near_boundary"]
                 + stats["sequential"]["missed_near_boundary"])
    # Naive partitioning produces boundary anomalies; the safeguarded
    # methods produce (essentially) none.
    assert naive_anoms >= 2
    assert blind_anoms <= max(1, naive_anoms - 1)
    assert stats["blind"]["report"].f1 >= stats["naive"]["report"].f1
    assert seq_anoms <= 1
