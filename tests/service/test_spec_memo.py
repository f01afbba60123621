"""The spec-key memo: a repeat is keyed from a hash, never a wrong key.

:class:`~repro.service.protocol.SpecKeyMemo` lets the router and the
service skip the pixel decode for a spec they have parsed before.  It
is only sound if a memoised key always equals the full parse's
``request_key``, if specs whose image can change under the same spec
(``image_path``) are never memoised, if it stays bounded, and if a
memo hit whose result was evicted from the cache still runs the job
exactly as a first submit would.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import synthetic_workload
from repro.cluster.router import routing_key
from repro.engine import run
from repro.engine.cache import ResultCache
from repro.engine.schema import request_key
from repro.errors import ServiceError
from repro.imaging.image import Image
from repro.imaging.pgm import write_pgm
from repro.service import (
    ServiceClient,
    SpecKeyMemo,
    pgm_job,
    pixels_job,
    request_from_wire,
    scene_job,
    serve_background,
)
from repro.service import protocol

STRATEGIES = ("naive", "blind", "intelligent", "periodic")


def full_key(spec):
    return request_key(request_from_wire(spec))


def noise_image(seed, height, width):
    return Image(np.random.default_rng(seed).random((height, width)))


@st.composite
def pixel_specs(draw):
    image = noise_image(draw(st.integers(0, 2**16)),
                        draw(st.integers(4, 24)), draw(st.integers(4, 24)))
    return pixels_job(
        image,
        strategy=draw(st.sampled_from(STRATEGIES)),
        iterations=draw(st.integers(1, 3000)),
        seed=draw(st.one_of(st.none(), st.integers(0, 10**6))),
        threshold=draw(st.sampled_from([0.3, 0.4, 0.55])),
    )


@st.composite
def scene_specs(draw):
    spec = scene_job(
        size=draw(st.integers(40, 64)),
        circles=draw(st.integers(1, 3)),
        strategy=draw(st.sampled_from(STRATEGIES)),
        iterations=draw(st.integers(1, 3000)),
        seed=draw(st.one_of(st.none(), st.integers(0, 10**6))),
    )
    if draw(st.booleans()):
        spec["scene"]["seed"] = draw(st.one_of(st.none(), st.integers(0, 99)))
    return spec


def neighbour(spec, nudge):
    """*spec* with one pixel or one knob changed."""
    if "pixels" in spec:
        image = request_from_wire(spec).image
        pixels = np.array(image.pixels)
        index = nudge % pixels.size
        pixels.flat[index] = (pixels.flat[index] + 0.25) % 1.0
        return {**spec, "pixels": pixels_job(Image(pixels))["pixels"]}
    return {**spec, "iterations": spec["iterations"] + 1 + nudge}


class TestMemoKeys:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(pixel_specs(), scene_specs()),
                    min_size=1, max_size=5),
           st.integers(0, 10**6))
    def test_memo_key_equals_full_parse_key(self, specs, nudge):
        memo = SpecKeyMemo()
        parsed = []
        for spec in specs:
            try:
                routing_key(spec, memo)
            except ServiceError:  # e.g. a scene too crowded to generate
                assert memo.get(SpecKeyMemo.fingerprint(spec)) is None
                continue
            parsed.append(spec)
        for spec in parsed + [neighbour(s, nudge) for s in parsed]:
            fingerprint = SpecKeyMemo.fingerprint(spec)
            expected = full_key(spec)
            if expected is None or full_key(spec) != expected:
                # Uncacheable, or an unseeded scene (a fresh image per
                # parse): never memoised.
                routing_key(spec, memo)
                assert memo.get(fingerprint) is None
                continue
            assert memo.get(fingerprint) in (None, expected)
            assert routing_key(spec, memo) == expected
            assert memo.get(fingerprint) == expected
            assert routing_key(spec, memo) == expected  # from the memo

    def test_unseeded_scene_and_uncacheable_specs_are_not_memoised(self):
        memo = SpecKeyMemo()
        unseeded = scene_job(size=48, circles=1, seed=None)
        unseeded["seed"] = 3  # the job is seeded, its scene is random
        for spec in (unseeded, scene_job(size=48, circles=1, seed=None),
                     pixels_job(noise_image(0, 8, 8), seed=None)):
            routing_key(spec, memo)
        assert len(memo) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3 * SpecKeyMemo.CAPACITY), st.integers(0, 50))
    def test_memo_never_grows_past_capacity(self, n, touch):
        memo = SpecKeyMemo()
        for i in range(n):
            memo.put(f"fp{i}", f"key{i}")
            if touch and i % touch == 0:
                memo.get("fp0")  # a recently used entry survives longer
            assert len(memo) <= SpecKeyMemo.CAPACITY
        assert len(memo) == min(n, SpecKeyMemo.CAPACITY)
        if n:
            assert memo.get(f"fp{n - 1}") == f"key{n - 1}"


class TestImagePath:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**16), st.integers(1, 2**16))
    def test_rewritten_file_yields_the_new_key(self, tmp_path, seed, delta):
        path = tmp_path / "img.pgm"
        spec = pgm_job(str(path), iterations=50, seed=1)
        memo = SpecKeyMemo()
        write_pgm(noise_image(seed, 12, 10), path)
        old_pixels = request_from_wire(spec).image.pixels
        before = routing_key(spec, memo)
        write_pgm(noise_image(seed + delta, 12, 10), path)
        after = routing_key(spec, memo)
        assert after == full_key(spec)
        assert len(memo) == 0
        if not np.array_equal(request_from_wire(spec).image.pixels, old_pixels):
            assert after != before

    def test_rewritten_file_yields_the_new_result(self, tmp_path):
        path = tmp_path / "scene.pgm"
        spec = pgm_job(str(path), iterations=80, seed=2)
        handle = serve_background(workers=1, cache=ResultCache())
        try:
            with ServiceClient(*handle.address) as client:
                results = []
                for seed in (1, 2):
                    scene = synthetic_workload(size=40, n_circles=3, seed=seed)
                    write_pgm(scene.scene.image, path)
                    out = client.detect(spec)
                    assert out.cached is False
                    expected = run(request_from_wire(spec))
                    assert sorted(out.circles) == sorted(
                        (c.x, c.y, c.r) for c in expected.circles)
                    results.append(sorted(out.circles))
        finally:
            handle.stop()
        assert results[0] != results[1]


@pytest.fixture(scope="module")
def tiny_cache_service():
    """One worker and a one-entry result cache: the second image evicts
    the first, so resubmitting the first is a memo hit with no result."""
    handle = serve_background(workers=1, cache=ResultCache(max_entries=1))
    yield handle
    handle.stop()


class TestEvictedResult:
    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 199))
    def test_memo_hit_after_eviction_reruns_bit_identically(
        self, tiny_cache_service, seed
    ):
        first, other = (
            pixels_job(synthetic_workload(size=48, n_circles=2,
                                          seed=s).scene.image,
                       iterations=60, seed=seed)
            for s in (seed, seed + 1)
        )
        with ServiceClient(*tiny_cache_service.address) as client:
            cold = client.detect(first)
            client.detect(other)  # evicts first's result, not its key
            service = tiny_cache_service.service
            assert full_key(first) not in service.cache
            parses = []
            real = protocol.request_from_wire

            def counted(spec):
                parses.append(spec)
                return real(spec)

            holders = [m for m in list(sys.modules.values())
                       if getattr(m, "__name__", "").startswith("repro")
                       and getattr(m, "request_from_wire", None) is real]
            for module in holders:
                module.request_from_wire = counted
            try:
                again = client.detect(first)
            finally:
                for module in holders:
                    module.request_from_wire = real
        assert len(parses) == 1  # the memo hit fell back to a full parse
        assert again.cached is False
        assert again.circles == cold.circles
        direct = run(request_from_wire(first))
        assert sorted(again.circles) == sorted(
            (c.x, c.y, c.r) for c in direct.circles)
