"""Tests for repro.mcmc.likelihood — delta vs full evaluation."""

import numpy as np
import pytest

from repro.errors import ChainError
from repro.imaging.image import Image
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.likelihood import PixelLikelihood
from repro.mcmc.spec import ModelSpec


@pytest.fixture
def spec():
    return ModelSpec(
        width=24, height=24, expected_count=3.0,
        radius_mean=4.0, radius_std=1.0, radius_min=1.5, radius_max=8.0,
        likelihood_beta=2.0, foreground=0.9, background=0.1,
    )


@pytest.fixture
def image():
    rng = np.random.default_rng(7)
    return Image(rng.random((24, 24)))


def add(lik, cov, x, y, r):
    """Price one disc addition and commit it; returns the delta."""
    delta = lik.trial_add_disc_delta(cov, x, y, r)
    cov.commit_pending()
    return delta


def remove(lik, cov, x, y, r):
    """Price one disc removal and commit it; returns the delta."""
    delta = lik.trial_remove_disc_delta(cov, x, y, r)
    cov.commit_pending()
    return delta


def direct_loglik(image, spec, coverage):
    """Reference: render the model and compute -beta * SSE directly."""
    model = np.where(coverage.counts > 0, spec.foreground, spec.background)
    return -spec.likelihood_beta * float(((image.pixels - model) ** 2).sum())


class TestFullEvaluation:
    def test_empty_config(self, image, spec):
        lik = PixelLikelihood(image, spec)
        cov = CoverageRaster(24, 24)
        assert lik.full_loglik(cov) == pytest.approx(direct_loglik(image, spec, cov))

    def test_with_discs(self, image, spec):
        lik = PixelLikelihood(image, spec)
        cov = CoverageRaster(24, 24)
        add(lik, cov, 10, 10, 4)
        add(lik, cov, 15, 12, 3)
        assert lik.full_loglik(cov) == pytest.approx(direct_loglik(image, spec, cov))


class TestDeltas:
    def test_add_delta_matches_difference(self, image, spec):
        lik = PixelLikelihood(image, spec)
        cov = CoverageRaster(24, 24)
        before = lik.full_loglik(cov)
        delta = add(lik, cov, 8, 9, 5)
        after = lik.full_loglik(cov)
        assert delta == pytest.approx(after - before, rel=1e-12, abs=1e-12)

    def test_remove_delta_matches_difference(self, image, spec):
        lik = PixelLikelihood(image, spec)
        cov = CoverageRaster(24, 24)
        add(lik, cov, 8, 9, 5)
        add(lik, cov, 11, 9, 4)
        before = lik.full_loglik(cov)
        delta = remove(lik, cov, 8, 9, 5)
        after = lik.full_loglik(cov)
        assert delta == pytest.approx(after - before, rel=1e-12, abs=1e-12)

    def test_add_then_remove_cancels(self, image, spec):
        lik = PixelLikelihood(image, spec)
        cov = CoverageRaster(24, 24)
        add(lik, cov, 6, 6, 3)
        d_add = add(lik, cov, 7, 8, 4)
        d_rem = remove(lik, cov, 7, 8, 4)
        assert d_add == pytest.approx(-d_rem, rel=1e-12)

    def test_bright_pixels_reward_coverage(self, spec):
        """Covering a foreground-bright region increases log-likelihood."""
        arr = np.full((24, 24), spec.background)
        arr[8:16, 8:16] = spec.foreground
        lik = PixelLikelihood(Image(arr), spec)
        cov = CoverageRaster(24, 24)
        delta = add(lik, cov, 12, 12, 3)
        assert delta > 0

    def test_dark_pixels_penalise_coverage(self, spec):
        arr = np.full((24, 24), spec.background)
        lik = PixelLikelihood(Image(arr), spec)
        cov = CoverageRaster(24, 24)
        delta = add(lik, cov, 12, 12, 3)
        assert delta < 0


class TestWindows:
    def test_offset_window_consistency(self, spec):
        """Delta computed over a patch equals the full-image delta when
        the disc lies inside the patch."""
        rng = np.random.default_rng(9)
        full_arr = rng.random((40, 40))
        full = PixelLikelihood(Image(full_arr), spec)
        cov_full = CoverageRaster(40, 40)

        patch_img = Image(full_arr[10:30, 5:29])
        patch = PixelLikelihood(patch_img, spec, row_offset=10, col_offset=5)
        cov_patch = CoverageRaster(20, 24, row_offset=10, col_offset=5)

        d_full = add(full, cov_full, 15.0, 20.0, 4.0)
        d_patch = add(patch, cov_patch, 15.0, 20.0, 4.0)
        assert d_patch == pytest.approx(d_full, rel=1e-12)

    def test_misaligned_raster_raises(self, image, spec):
        lik = PixelLikelihood(image, spec)
        wrong = CoverageRaster(24, 24, row_offset=1)
        with pytest.raises(ChainError):
            add(lik, wrong, 5, 5, 2)
        wrong_shape = CoverageRaster(23, 24)
        with pytest.raises(ChainError):
            lik.full_loglik(wrong_shape)
