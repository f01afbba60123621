"""Gaussian pixel likelihood with O(disc) incremental deltas.

The model renders covered pixels at intensity ``fg`` and uncovered ones
at ``bg``; the log-likelihood against the filtered image *I* is

    log L(config) = -beta * Σ_p (I_p - M_p)²

Only the *difference* between posterior values ever matters to
Metropolis–Hastings (§II: "whilst the prior and likelihood probabilities
cannot be expressed exactly, the ratio ... can be calculated"), and
turning one pixel on changes log L by

    -beta * [(I_p - fg)² - (I_p - bg)²]  =  -beta * D_p

so we precompute the weight map ``D`` once and every move's likelihood
delta becomes a masked sum over the pixels whose coverage flipped —
exactly what :class:`~repro.mcmc.coverage.CoverageRaster` reports.
"""

from __future__ import annotations

from repro.errors import ChainError
from repro.imaging.image import Image
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.spec import ModelSpec

__all__ = ["PixelLikelihood"]


class PixelLikelihood:
    """Per-pixel Gaussian likelihood over an image window.

    Parameters
    ----------
    image:
        The filtered image (full frame or a partition patch).
    spec:
        Model spec providing ``foreground``, ``background`` and
        ``likelihood_beta``.
    row_offset, col_offset:
        Position of the window inside the full image (partition workers
        evaluate over their patch only).
    """

    __slots__ = ("beta", "turn_on_cost", "base_loglik", "row_offset", "col_offset")

    def __init__(
        self,
        image: Image,
        spec: ModelSpec,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        pixels = image.pixels
        fg, bg = spec.foreground, spec.background
        self.beta = spec.likelihood_beta
        # D_p: change in squared error when pixel p flips bg -> fg.
        self.turn_on_cost = (pixels - fg) ** 2 - (pixels - bg) ** 2
        # log-likelihood of the empty configuration.
        self.base_loglik = -self.beta * float(((pixels - bg) ** 2).sum())
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)

    # -- deltas (hot path) -----------------------------------------------------
    def trial_add_disc_delta(
        self, coverage: CoverageRaster, x: float, y: float, r: float
    ) -> float:
        """Price adding a disc without mutating *coverage*; return the
        log-likelihood delta.  The rasterised mask stays pending on the
        raster until committed or discarded."""
        self._check_aligned(coverage)
        return -self.beta * coverage.trial_add_disc(x, y, r, self.turn_on_cost)

    def trial_remove_disc_delta(
        self, coverage: CoverageRaster, x: float, y: float, r: float
    ) -> float:
        """Price removing a disc without mutating *coverage*; see
        :meth:`trial_add_disc_delta`."""
        self._check_aligned(coverage)
        return self.beta * coverage.trial_remove_disc(x, y, r, self.turn_on_cost)

    # -- full evaluation (tests / initialisation) -------------------------------
    def full_loglik(self, coverage: CoverageRaster) -> float:
        """Log-likelihood of the configuration represented by *coverage*."""
        self._check_aligned(coverage)
        return self.base_loglik - self.beta * coverage.covered_weight_sum(
            self.turn_on_cost
        )

    def _check_aligned(self, coverage: CoverageRaster) -> None:
        if (
            coverage.counts.shape != self.turn_on_cost.shape
            or coverage.row_offset != self.row_offset
            or coverage.col_offset != self.col_offset
        ):
            raise ChainError(
                "coverage raster misaligned with likelihood window: "
                f"{coverage.counts.shape}@({coverage.row_offset},{coverage.col_offset}) vs "
                f"{self.turn_on_cost.shape}@({self.row_offset},{self.col_offset})"
            )
