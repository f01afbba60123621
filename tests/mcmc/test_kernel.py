"""Tests for repro.mcmc.kernel — MH acceptance semantics."""

import math

import numpy as np
import pytest

from repro.imaging.image import Image
from repro.mcmc.kernel import metropolis_hastings_step, price_move
from repro.mcmc.moves import BirthMove, MoveGenerator, TranslateMove
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.utils.rng import RngStream


@pytest.fixture
def spec():
    return ModelSpec(
        width=48, height=48, expected_count=4.0,
        radius_mean=5.0, radius_std=1.0, radius_min=2.0, radius_max=9.0,
    )


@pytest.fixture
def post(spec):
    rng = np.random.default_rng(21)
    return PosteriorState(Image(rng.random((48, 48))), spec)


@pytest.fixture
def gen(spec):
    return MoveGenerator(spec, MoveConfig())


class TestStep:
    def test_step_keeps_cache_consistent(self, post, gen):
        stream = RngStream(seed=1)
        for _ in range(500):
            metropolis_hastings_step(post, gen, stream)
        post.verify_consistency()

    def test_rejected_step_leaves_state_unchanged(self, post, gen):
        stream = RngStream(seed=2)
        for _ in range(300):
            before = post.log_posterior
            n_before = post.config.n
            result = metropolis_hastings_step(post, gen, stream)
            if not result.accepted:
                assert post.log_posterior == before
                assert post.config.n == n_before

    def test_accepted_step_applies_delta(self, post, gen):
        stream = RngStream(seed=3)
        for _ in range(300):
            before = post.log_posterior
            result = metropolis_hastings_step(post, gen, stream)
            if result.accepted:
                assert post.log_posterior == pytest.approx(before + result.delta)

    def test_null_proposals_count_as_rejections(self, post, gen):
        """On an empty state, selection moves auto-reject without error."""
        stream = RngStream(seed=4)
        results = [metropolis_hastings_step(post, gen, stream) for _ in range(100)]
        auto = [r for r in results if not r.proposed]
        assert auto  # death/split/... on empty state
        for r in auto:
            assert not r.accepted and r.log_alpha == -math.inf

    def test_improving_move_always_accepted(self, spec):
        """A birth onto a perfectly matching bright disc has log α > 0."""
        arr = np.full((48, 48), spec.background)
        yy, xx = np.mgrid[0:48, 0:48]
        arr[(xx + 0.5 - 24) ** 2 + (yy + 0.5 - 24) ** 2 <= 25] = spec.foreground
        post = PosteriorState(Image(arr), spec)
        gen = MoveGenerator(spec, MoveConfig())
        move = BirthMove(24, 24, 5, gen.ctx)
        stream = RngStream(seed=5)
        lf = move.log_forward_density(post)
        delta = move.price(post)
        lr = move.log_reverse_density(post)
        move.rollback(post)
        assert delta + lr - lf > 0  # would be accepted deterministically


class TestEvaluateMove:
    """price_move evaluates log α; a rollback then leaves no trace."""

    def test_evaluate_does_not_mutate(self, post, gen):
        post.insert_circle(24, 24, 5)
        lp = post.log_posterior
        snap = post.snapshot_circles()
        counts = post.coverage.counts.copy()
        move = TranslateMove(int(post.config.active_indices()[0]), 25, 24)
        log_alpha = price_move(post, move)
        assert log_alpha is not None
        assert np.array_equal(post.coverage.counts, counts)  # priced, not applied
        move.rollback(post)
        assert post.log_posterior == lp
        assert post.snapshot_circles() == snap
        assert post.coverage.pending_count == 0

    def test_evaluate_invalid_returns_none(self, post, gen):
        move = BirthMove(100, 100, 5, gen.ctx)  # out of bounds
        assert price_move(post, move) is None
        assert post.coverage.pending_count == 0

    def test_evaluate_matches_step_pricing(self, post, gen):
        """price_move returns the same log α the kernel would compute."""
        idx, _ = post.insert_circle(24, 24, 5)
        move = TranslateMove(idx, 26, 23)
        log_alpha = price_move(post, move)
        move.rollback(post)
        # Recompute manually.
        move2 = TranslateMove(idx, 26, 23)
        lf = move2.log_forward_density(post)
        delta = move2.price(post)
        lr = move2.log_reverse_density(post)
        move2.rollback(post)
        assert log_alpha == delta + lr - lf


class TestDetailedBalanceSmoke:
    def test_two_state_frequencies(self, spec):
        """On a tiny discrete projection (count n), long-run visit
        frequencies of n=0 vs n=1 approximate the posterior ratio.

        Uses birth/death only on a flat image, where the exact posterior
        over counts is available analytically up to the likelihood term.
        """
        import dataclasses

        flat_spec = dataclasses.replace(
            spec, expected_count=0.5, likelihood_beta=0.01, overlap_gamma=0.0
        )
        arr = np.full((48, 48), flat_spec.background)
        post = PosteriorState(Image(arr), flat_spec)
        weights = {mt: 0.0 for mt in MoveConfig().weights}
        from repro.mcmc.spec import MoveType

        weights[MoveType.BIRTH] = 0.5
        weights[MoveType.DEATH] = 0.5
        gen = MoveGenerator(flat_spec, MoveConfig(weights=weights), mode="full")
        stream = RngStream(seed=11)
        counts = {0: 0, 1: 0}
        for _ in range(30000):
            metropolis_hastings_step(post, gen, stream)
            n = post.config.n
            if n in counts:
                counts[n] += 1
        # π(1)/π(0) = λ · mean-likelihood-factor ≈ λ e^{E[Δlik]}; with
        # beta tiny the likelihood factor ≈ exp(-beta·A·(fg-bg)²·...) — we
        # only check the ratio is in a sane band around λ.
        ratio = counts[1] / max(counts[0], 1)
        assert 0.1 < ratio < 2.0
