"""Incremental disc-coverage raster.

The pixel likelihood needs ``M(p)`` — foreground where at least one
circle covers pixel *p*, background elsewhere.  Recomputing that from
scratch per iteration would cost O(image); instead we maintain an
integer *coverage count* per pixel (how many discs cover it) and update
it per move in O(disc area).  The likelihood delta of a move is then a
sum of a precomputed per-pixel weight over exactly the pixels whose
coverage crossed the 0 ↔ >0 boundary.

This locality is the linchpin of the whole paper: because a local move's
delta only reads pixels inside the move's disc, moves in sufficiently
distant partitions are independent and may run concurrently (§V).

A pixel is *covered* by a disc iff its centre ``(col + 0.5, row + 0.5)``
lies within the disc (hard-edge model, matching the renderer up to
anti-aliasing noise absorbed by the likelihood's noise scale).

A move's delta is priced without touching ``counts``
(:meth:`trial_add_disc` / :meth:`trial_remove_disc`), then applied or
dropped (:meth:`commit_pending` / :meth:`discard_pending`).  The disc
mask is computed into per-raster scratch buffers (precomputed
pixel-centre grids, reused mask/square/count windows), so steady-state
stepping performs no window-sized temporary allocations beyond the
single weight gather, and a rejected proposal costs one rasterisation.
The weight sum is taken over the boolean-compressed value sequence
(numpy's pairwise summation order depends on the compressed length, so
the gather cannot be fused into a masked reduction without changing
last-ulp rounding — and therefore the chain).

:meth:`_disc_window` is an allocation-heavy from-scratch rasteriser
that shares no scratch with the hot path.  With ``debug_checks`` on,
every counts-only bulk load is cross-checked against it — so
:meth:`rebuild_from`, and with it
:meth:`~repro.mcmc.posterior.PosteriorState.verify_consistency`,
validates the scratch-buffer window itself.

A second path batches the trial protocol across proposals:
:meth:`trial_price_batch` rasterises every disc of K independent
candidate moves in one stacked numpy pass over persistent
``(N, H, W)`` scratch, then prices each candidate against the counts
overlaid with *its own* earlier ops only (candidates are alternative
futures of the same state).  The stacked window mirrors
:meth:`_trial_window` element-for-element — padded rows/columns are
forced to ``+inf`` so they can never pass the ``<= r²`` test — and the
per-op boundary gathers reuse the sequential scratch, so every batched
delta is bit-identical to the corresponding sequential trial call.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.errors import ChainError
from repro.geometry.rect import Rect

__all__ = ["CoverageRaster"]


class _PendingOp:
    """One uncommitted trial rasterisation: a disc mask over a window.

    ``mask`` is a view into one of the raster's pooled mask buffers — it
    stays valid until the op is committed or discarded (the kernel's
    trial protocol resolves every trial before starting the next one).
    """

    __slots__ = ("row0", "row1", "col0", "col1", "mask", "sign")

    def __init__(self, row0, row1, col0, col1, mask, sign) -> None:
        self.row0 = row0
        self.row1 = row1
        self.col0 = col0
        self.col1 = col1
        self.mask = mask
        self.sign = sign


class CoverageRaster:
    """Per-pixel disc-coverage counts over a rectangular pixel window.

    Parameters
    ----------
    height, width:
        Size of the raster in pixels.
    row_offset, col_offset:
        Position of the raster's (0, 0) pixel within the full image —
        partition workers hold a raster over just their patch.
    debug_checks:
        Enable the coverage-underflow guard in :meth:`trial_remove_disc`
        (an extra fancy-index pass per removal) and the
        :meth:`_disc_window` cross-check of bulk loads.  Defaults off in
        the hot path; tests and
        :meth:`~repro.mcmc.posterior.PosteriorState.verify_consistency`
        turn it on.
    """

    __slots__ = (
        "counts",
        "row_offset",
        "col_offset",
        "debug_checks",
        "_counts_flat",
        "_row_centres",
        "_col_centres",
        "_dx2",
        "_dy2",
        "_sq_flat",
        "_cnt_flat",
        "_newly_flat",
        "_mask_pool",
        "_pending",
        "_batch_groups",
        "_b_cap",
        "_b_r0f",
        "_b_c0f",
        "_b_hlen",
        "_b_wlen",
        "_b_lx",
        "_b_ly",
        "_b_r2",
        "_b_dy2",
        "_b_dx2",
        "_b_padh",
        "_b_padw",
        "_b_sq",
        "_b_mask",
        "_b_arange",
        "_b_arangef",
    )

    def __init__(
        self,
        height: int,
        width: int,
        row_offset: int = 0,
        col_offset: int = 0,
        debug_checks: bool = False,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ChainError(f"raster must be non-empty, got {height}x{width}")
        # The counts backing is flat so reset() can re-shape it for a
        # different window without reallocating (partition workers reuse
        # one raster across cycles).
        self._counts_flat = np.zeros(height * width, dtype=np.int32)
        self.counts = self._counts_flat.reshape(height, width)
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)
        self.debug_checks = bool(debug_checks)
        self._init_scratch()

    def _init_scratch(self) -> None:
        height, width = self.counts.shape
        # Pixel-centre coordinate grids, precomputed once: slicing these
        # replaces the two per-call ``np.arange`` allocations of
        # _disc_window (integers + 0.5 are exact, so a slice is
        # bit-identical to ``np.arange(c0, c1) + 0.5``).
        self._row_centres = np.arange(height, dtype=np.float64) + 0.5
        self._col_centres = np.arange(width, dtype=np.float64) + 0.5
        self._dx2 = np.empty(width, dtype=np.float64)
        self._dy2 = np.empty(height, dtype=np.float64)
        # Flat window scratch, grown to the largest window seen so far;
        # contiguous slices + reshape yield zero-copy 2-D views.
        self._sq_flat = np.empty(0, dtype=np.float64)
        self._cnt_flat = np.empty(0, dtype=np.int32)
        self._newly_flat = np.empty(0, dtype=bool)
        self._mask_pool: List[np.ndarray] = []
        self._pending: List[_PendingOp] = []
        # Stacked-batch state: staged candidate groups plus the lazily
        # grown (N, H, W) scratch of trial_price_batch.
        self._batch_groups: List[List[_PendingOp]] = []
        self._b_cap = (0, 0, 0)

    def reset(
        self,
        height: int,
        width: int,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """Reconfigure the raster for a (possibly different) window,
        reusing every backing buffer that is already large enough.

        Partition workers call this once per cycle instead of
        constructing a fresh raster: counts are zeroed, offsets move,
        and the centre grids / window scratch only ever grow.  A longer
        centre grid slices identically to a freshly built one, so a
        reused raster is bit-identical to a new ``CoverageRaster``.
        Pending trial ops and staged batches must be resolved first.
        """
        if height <= 0 or width <= 0:
            raise ChainError(f"raster must be non-empty, got {height}x{width}")
        self._check_no_pending("reset")
        n = height * width
        if self._counts_flat.size < n:
            self._counts_flat = np.zeros(max(n, 2 * self._counts_flat.size), dtype=np.int32)
        self.counts = self._counts_flat[:n].reshape(height, width)
        self.counts[:] = 0
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)
        if self._row_centres.size < height:
            self._row_centres = np.arange(height, dtype=np.float64) + 0.5
            self._dy2 = np.empty(height, dtype=np.float64)
        if self._col_centres.size < width:
            self._col_centres = np.arange(width, dtype=np.float64) + 0.5
            self._dx2 = np.empty(width, dtype=np.float64)

    # -- pickling (scratch is derived state; ship only the counts) ----------
    def __getstate__(self):
        return {
            "counts": self.counts,
            "row_offset": self.row_offset,
            "col_offset": self.col_offset,
            "debug_checks": self.debug_checks,
        }

    def __setstate__(self, state) -> None:
        counts = np.ascontiguousarray(state["counts"])
        self._counts_flat = counts.reshape(-1)
        self.counts = counts
        self.row_offset = state["row_offset"]
        self.col_offset = state["col_offset"]
        self.debug_checks = state["debug_checks"]
        self._init_scratch()

    @property
    def shape(self) -> Tuple[int, int]:
        return self.counts.shape  # type: ignore[return-value]

    @property
    def pending_count(self) -> int:
        """Number of uncommitted trial rasterisations."""
        return len(self._pending)

    @property
    def batch_pending_count(self) -> int:
        """Number of staged proposal-batch groups awaiting
        :meth:`commit_batch_group` / :meth:`discard_batch`."""
        return len(self._batch_groups)

    # -- from-scratch reference rasterisation -----------------------------------
    def _disc_window(self, x: float, y: float, r: float):
        """(row_slice, col_slice, boolean mask) of pixels covered by the disc.

        Returns ``None`` when the disc misses the raster entirely.
        Coordinates are in full-image space; offsets are applied here.

        Allocation-heavy on purpose: it shares no scratch with the hot
        path, so it is the independent reference the scratch-buffer
        windows are validated against.
        """
        # Pixel (i, j) of the raster has centre (col_offset + j + 0.5,
        # row_offset + i + 0.5) in image coordinates.
        lx = x - self.col_offset
        ly = y - self.row_offset
        h, w = self.counts.shape
        c0 = max(0, int(math.floor(lx - r - 0.5)))
        c1 = min(w, int(math.ceil(lx + r + 0.5)))
        r0 = max(0, int(math.floor(ly - r - 0.5)))
        r1 = min(h, int(math.ceil(ly + r + 0.5)))
        if c1 <= c0 or r1 <= r0:
            return None
        cols = np.arange(c0, c1, dtype=np.float64) + 0.5
        rows = np.arange(r0, r1, dtype=np.float64) + 0.5
        mask = (cols[None, :] - lx) ** 2 + (rows[:, None] - ly) ** 2 <= r * r
        if not mask.any():
            return None
        return slice(r0, r1), slice(c0, c1), mask

    # -- trial path (allocation-free pricing, deferred mutation) ---------------
    def _ensure_scratch(self, n: int, slot: int) -> None:
        """Grow the flat window scratch to hold *n* pixels and make sure
        mask-buffer *slot* exists (steady state: every call is a no-op)."""
        if self._sq_flat.size < n:
            size = max(n, 2 * self._sq_flat.size)
            self._sq_flat = np.empty(size, dtype=np.float64)
            self._cnt_flat = np.empty(size, dtype=np.int32)
            self._newly_flat = np.empty(size, dtype=bool)
            for i, buf in enumerate(self._mask_pool):
                if buf.size < size:
                    self._mask_pool[i] = np.empty(size, dtype=bool)
        while len(self._mask_pool) <= slot:
            self._mask_pool.append(np.empty(self._sq_flat.size or n, dtype=bool))
        if self._mask_pool[slot].size < n:
            self._mask_pool[slot] = np.empty(max(n, self._sq_flat.size), dtype=bool)

    def _trial_window(self, x: float, y: float, r: float, slot: int):
        """Allocation-free counterpart of :meth:`_disc_window`.

        Returns ``(r0, r1, c0, c1, mask)`` with *mask* a 2-D view into
        pooled scratch (valid until slot reuse), or ``None``.  Every
        arithmetic step mirrors the reference window element-for-element,
        so the mask is bit-identical.
        """
        lx = x - self.col_offset
        ly = y - self.row_offset
        h, w = self.counts.shape
        c0 = max(0, int(math.floor(lx - r - 0.5)))
        c1 = min(w, int(math.ceil(lx + r + 0.5)))
        r0 = max(0, int(math.floor(ly - r - 0.5)))
        r1 = min(h, int(math.ceil(ly + r + 0.5)))
        if c1 <= c0 or r1 <= r0:
            return None
        wlen = c1 - c0
        hlen = r1 - r0
        n = hlen * wlen
        self._ensure_scratch(n, slot)
        dx2 = self._dx2[:wlen]
        np.subtract(self._col_centres[c0:c1], lx, out=dx2)
        np.multiply(dx2, dx2, out=dx2)  # == (cols - lx) ** 2 (numpy squares x**2 as x*x)
        dy2 = self._dy2[:hlen]
        np.subtract(self._row_centres[r0:r1], ly, out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        sq = self._sq_flat[:n].reshape(hlen, wlen)
        # Two-step broadcast (row copy, then in-place column add): the
        # same single addition dx²[j] + dy²[i] bit-for-bit, but numpy's
        # iterator buffers one broadcast operand instead of two.
        np.copyto(sq, dx2[None, :])
        np.add(sq, dy2[:, None], out=sq)
        mask = self._mask_pool[slot][:n].reshape(hlen, wlen)
        np.less_equal(sq, r * r, out=mask)
        # No mask.any() bail-out here: an all-False mask yields an exact
        # 0.0 delta (empty gather) and a no-op commit, so the extra
        # reduction per disc would buy nothing.
        return r0, r1, c0, c1, mask

    def _effective_counts(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The window's counts as pending trial ops would leave them."""
        return self._overlaid_counts(r0, r1, c0, c1, self._pending)

    def _overlaid_counts(
        self, r0: int, r1: int, c0: int, c1: int, pending: List[_PendingOp]
    ) -> np.ndarray:
        """The window's counts as the given uncommitted ops would leave
        them (the sequential path passes ``self._pending``; the batch
        path passes one candidate group's earlier ops).

        With no ops this is a zero-copy view; otherwise the window is
        copied into scratch and each mask is applied over the
        intersection — exactly the counts committing the ops in
        sequence would produce.
        """
        patch = self.counts[r0:r1, c0:c1]
        if not pending:
            return patch
        hlen = r1 - r0
        wlen = c1 - c0
        buf = self._cnt_flat[: hlen * wlen].reshape(hlen, wlen)
        np.copyto(buf, patch)
        for op in pending:
            ir0 = max(r0, op.row0)
            ir1 = min(r1, op.row1)
            ic0 = max(c0, op.col0)
            ic1 = min(c1, op.col1)
            if ir0 >= ir1 or ic0 >= ic1:
                continue
            sub = buf[ir0 - r0 : ir1 - r0, ic0 - c0 : ic1 - c0]
            msk = op.mask[ir0 - op.row0 : ir1 - op.row0, ic0 - op.col0 : ic1 - op.col0]
            if op.sign > 0:
                np.add(sub, msk, out=sub)
            else:
                np.subtract(sub, msk, out=sub)
        return buf

    def trial_add_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Price adding the disc without mutating ``counts``.

        Returns Σ weights over the pixels that would become covered
        (count 0 → 1), records the rasterised mask as a pending op (so
        later trials in the same move see its effect), and leaves state
        mutation to :meth:`commit_pending`.

        *weights* is the full-raster weight map (same shape as counts);
        the caller owns its meaning (the likelihood passes its per-pixel
        turn-on costs).
        """
        win = self._trial_window(x, y, r, slot=len(self._pending))
        if win is None:
            return 0.0
        r0, r1, c0, c1, mask = win
        patch = self._effective_counts(r0, r1, c0, c1)
        hlen, wlen = mask.shape
        newly = self._newly_flat[: hlen * wlen].reshape(hlen, wlen)
        np.equal(patch, 0, out=newly)
        np.logical_and(mask, newly, out=newly)
        # An empty gather sums to exactly 0.0, so no any() pre-check is
        # needed.
        delta = float(weights[r0:r1, c0:c1][newly].sum())
        self._pending.append(_PendingOp(r0, r1, c0, c1, mask, +1))
        return delta

    def trial_remove_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Price removing the disc without mutating ``counts``: Σ weights
        over the pixels that would become uncovered (count 1 → 0); see
        :meth:`trial_add_disc`.  With ``debug_checks`` enabled, raises
        if any touched pixel has zero coverage (state corruption)."""
        win = self._trial_window(x, y, r, slot=len(self._pending))
        if win is None:
            return 0.0
        r0, r1, c0, c1, mask = win
        patch = self._effective_counts(r0, r1, c0, c1)
        if self.debug_checks and np.any(patch[mask] <= 0):
            raise ChainError(
                f"coverage underflow removing disc ({x:.2f}, {y:.2f}, r={r:.2f})"
            )
        hlen, wlen = mask.shape
        vacated = self._newly_flat[: hlen * wlen].reshape(hlen, wlen)
        np.equal(patch, 1, out=vacated)
        np.logical_and(mask, vacated, out=vacated)
        delta = float(weights[r0:r1, c0:c1][vacated].sum())
        self._pending.append(_PendingOp(r0, r1, c0, c1, mask, -1))
        return delta

    def commit_pending(self) -> None:
        """Apply every pending trial mask to ``counts`` (accepted move).

        ``np.add``/``np.subtract`` with an ``out=`` view increment the
        window in place without fancy-index temporaries.
        """
        for op in self._pending:
            patch = self.counts[op.row0 : op.row1, op.col0 : op.col1]
            if op.sign > 0:
                np.add(patch, op.mask, out=patch)
            else:
                np.subtract(patch, op.mask, out=patch)
        self._pending.clear()

    def discard_pending(self) -> None:
        """Drop every pending trial mask (rejected move) — counts were
        never touched, so this is O(pending)."""
        self._pending.clear()

    # -- stacked multiproposal pricing ----------------------------------------
    def _ensure_batch_scratch(self, n: int, hmax: int, wmax: int) -> None:
        """Grow the stacked batch scratch to hold *n* windows of up to
        ``hmax × wmax`` pixels; steady state is a no-op (caps only grow,
        doubling along whichever axis overflowed)."""
        cn, ch, cw = self._b_cap
        if n <= cn and hmax <= ch and wmax <= cw:
            return
        cn = cn if n <= cn else max(n, 2 * cn)
        ch = ch if hmax <= ch else max(hmax, 2 * ch)
        cw = cw if wmax <= cw else max(wmax, 2 * cw)
        self._b_cap = (cn, ch, cw)
        self._b_r0f = np.empty(cn, dtype=np.float64)
        self._b_c0f = np.empty(cn, dtype=np.float64)
        self._b_hlen = np.empty(cn, dtype=np.intp)
        self._b_wlen = np.empty(cn, dtype=np.intp)
        self._b_lx = np.empty(cn, dtype=np.float64)
        self._b_ly = np.empty(cn, dtype=np.float64)
        self._b_r2 = np.empty(cn, dtype=np.float64)
        self._b_dy2 = np.empty((cn, ch), dtype=np.float64)
        self._b_dx2 = np.empty((cn, cw), dtype=np.float64)
        self._b_padh = np.empty((cn, ch), dtype=bool)
        self._b_padw = np.empty((cn, cw), dtype=bool)
        self._b_sq = np.empty((cn, ch, cw), dtype=np.float64)
        self._b_mask = np.empty((cn, ch, cw), dtype=bool)
        self._b_arange = np.arange(max(ch, cw), dtype=np.intp)
        self._b_arangef = np.arange(max(ch, cw), dtype=np.float64)

    def trial_price_batch(self, groups, weights: np.ndarray):
        """Price several independent candidate groups of disc ops in one
        stacked rasterisation pass.

        *groups* is a sequence of per-candidate op lists, each op a
        ``(sign, x, y, r)`` tuple (+1 add, −1 remove) in the exact order
        the sequential trial path would issue them.  Returns one list of
        raw weighted sums per group — the same Σ weights over 0 ↔ >0
        boundary pixels the ``trial_*`` methods return, each computed
        against the counts overlaid with the *group's own* earlier ops
        only: groups are alternative futures of the same state, so they
        never see each other.

        The stacked window mirrors :meth:`_trial_window`
        element-for-element, so every delta is bit-identical to the
        corresponding sequential ``trial_add_disc`` /
        ``trial_remove_disc`` call.  Masks stay staged until
        :meth:`commit_batch_group` (apply one winning group) followed by
        :meth:`discard_batch`.
        """
        self._check_no_pending("trial_price_batch")
        h, w = self.counts.shape
        # Pass A: scalar window bounds per op (the same arithmetic as
        # the sequential window).  Degenerate windows price to exactly
        # 0.0 and stage no mask, like the sequential path.
        windows = []  # per-op: (r0, r1, c0, c1, lx, ly, r) or None
        hmax = wmax = 0
        n_live = 0
        for ops in groups:
            for _sign, x, y, r in ops:
                lx = x - self.col_offset
                ly = y - self.row_offset
                c0 = max(0, int(math.floor(lx - r - 0.5)))
                c1 = min(w, int(math.ceil(lx + r + 0.5)))
                r0 = max(0, int(math.floor(ly - r - 0.5)))
                r1 = min(h, int(math.ceil(ly + r + 0.5)))
                if c1 <= c0 or r1 <= r0:
                    windows.append(None)
                    continue
                windows.append((r0, r1, c0, c1, lx, ly, r))
                hmax = max(hmax, r1 - r0)
                wmax = max(wmax, c1 - c0)
                n_live += 1
        if n_live:
            self._rasterise_batch(windows, n_live, hmax, wmax)
            # The boundary/overlay gathers below reuse the sequential
            # window scratch — grow it once for the largest window.
            self._ensure_scratch(hmax * wmax, 0)
        # Pass C: per-candidate pricing against group-local overlays;
        # identical gather + pairwise sum as the sequential trial path.
        results = []
        staged: List[List[_PendingOp]] = []
        li = 0  # cursor over live (rasterised) windows
        wi = 0  # cursor over all windows
        for ops in groups:
            gmasks: List[_PendingOp] = []
            deltas = []
            for sign, x, y, r in ops:
                win = windows[wi]
                wi += 1
                if win is None:
                    deltas.append(0.0)
                    continue
                r0, r1, c0, c1 = win[:4]
                hlen = r1 - r0
                wlen = c1 - c0
                mask = self._b_mask[li, :hlen, :wlen]
                li += 1
                patch = self._overlaid_counts(r0, r1, c0, c1, gmasks)
                if sign < 0 and self.debug_checks and np.any(patch[mask] <= 0):
                    raise ChainError(
                        f"coverage underflow removing disc ({x:.2f}, {y:.2f}, r={r:.2f})"
                    )
                boundary = self._newly_flat[: hlen * wlen].reshape(hlen, wlen)
                np.equal(patch, 0 if sign > 0 else 1, out=boundary)
                np.logical_and(mask, boundary, out=boundary)
                deltas.append(float(weights[r0:r1, c0:c1][boundary].sum()))
                gmasks.append(_PendingOp(r0, r1, c0, c1, mask, 1 if sign > 0 else -1))
            staged.append(gmasks)
            results.append(deltas)
        self._batch_groups = staged
        return results

    def _rasterise_batch(self, windows, n: int, hmax: int, wmax: int) -> None:
        """One stacked :meth:`_trial_window` over the *n* live windows.

        The pixel-centre coordinate ``k + 0.5`` is exact in float64, so
        building it as ``(r0 + j) + 0.5`` is bit-identical to gathering
        from the precomputed centre grid; the subtract / square /
        broadcast-add / compare sequence then mirrors the sequential
        window op-for-op.  Rows and columns beyond a window's true
        extent are forced to ``+inf`` before the squared radii are
        summed, so padding can never satisfy the ``<= r²`` test.
        """
        self._ensure_batch_scratch(n, hmax, wmax)
        i = 0
        for win in windows:
            if win is None:
                continue
            r0, r1, c0, c1, lx, ly, r = win
            self._b_r0f[i] = r0
            self._b_c0f[i] = c0
            self._b_hlen[i] = r1 - r0
            self._b_wlen[i] = c1 - c0
            self._b_lx[i] = lx
            self._b_ly[i] = ly
            self._b_r2[i] = r * r
            i += 1
        ar_h = self._b_arange[:hmax]
        ar_w = self._b_arange[:wmax]
        dy2 = self._b_dy2[:n, :hmax]
        np.add(self._b_r0f[:n, None], self._b_arangef[None, :hmax], out=dy2)
        np.add(dy2, 0.5, out=dy2)  # == row_centres[r0 + j], exactly
        np.subtract(dy2, self._b_ly[:n, None], out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        padh = self._b_padh[:n, :hmax]
        np.greater_equal(ar_h[None, :], self._b_hlen[:n, None], out=padh)
        np.copyto(dy2, np.inf, where=padh)
        dx2 = self._b_dx2[:n, :wmax]
        np.add(self._b_c0f[:n, None], self._b_arangef[None, :wmax], out=dx2)
        np.add(dx2, 0.5, out=dx2)
        np.subtract(dx2, self._b_lx[:n, None], out=dx2)
        np.multiply(dx2, dx2, out=dx2)
        padw = self._b_padw[:n, :wmax]
        np.greater_equal(ar_w[None, :], self._b_wlen[:n, None], out=padw)
        np.copyto(dx2, np.inf, where=padw)
        sq = self._b_sq[:n, :hmax, :wmax]
        np.copyto(sq, dx2[:, None, :])
        np.add(sq, dy2[:, :, None], out=sq)
        mask3 = self._b_mask[:n, :hmax, :wmax]
        np.less_equal(sq, self._b_r2[:n, None, None], out=mask3)

    def commit_batch_group(self, group: int) -> None:
        """Apply one staged group's masks to ``counts`` (the winning
        candidate of a multiproposal round) — the same in-place
        add/subtract sequence as :meth:`commit_pending`.  The batch
        stays staged until :meth:`discard_batch`; committing twice
        without re-pricing corrupts the counts, so the kernel always
        pairs this with an immediate discard."""
        for op in self._batch_groups[group]:
            patch = self.counts[op.row0 : op.row1, op.col0 : op.col1]
            if op.sign > 0:
                np.add(patch, op.mask, out=patch)
            else:
                np.subtract(patch, op.mask, out=patch)

    def discard_batch(self) -> None:
        """Drop every staged batch group (the stacked mask scratch is
        reused by the next batch)."""
        self._batch_groups.clear()

    def _check_no_pending(self, op_name: str) -> None:
        if self._pending:
            raise ChainError(
                f"{op_name} called with {len(self._pending)} uncommitted trial "
                "op(s); commit_pending() or discard_pending() first"
            )
        if self._batch_groups:
            raise ChainError(
                f"{op_name} called with {len(self._batch_groups)} staged proposal-"
                "batch group(s); commit_batch_group() and/or discard_batch() first"
            )

    # -- queries -----------------------------------------------------------------
    def covered_mask(self) -> np.ndarray:
        """Boolean mask of covered pixels (count > 0)."""
        return self.counts > 0

    def covered_weight_sum(self, weights: np.ndarray) -> float:
        """Σ weights over currently covered pixels (full evaluation)."""
        return float(weights[self.counts > 0].sum())

    def add_disc_counts_only(self, x: float, y: float, r: float) -> None:
        """Increment coverage under the disc without computing a delta —
        the bulk-load path (:meth:`rebuild_from`, worker initialisation),
        which previously paid an O(image) dummy-weights allocation per
        rebuild just to discard the weighted sums.

        With ``debug_checks`` enabled the rasterised window is
        cross-validated against the from-scratch reference
        (:meth:`_disc_window`), so counts-only rebuilds — including the
        one :meth:`~repro.mcmc.posterior.PosteriorState.verify_consistency`
        performs — check the scratch-buffer rasteriser itself."""
        self._check_no_pending("add_disc_counts_only")
        win = self._trial_window(x, y, r, slot=0)
        if self.debug_checks:
            self._check_counts_only_window(x, y, r, win)
        if win is None:
            return
        r0, r1, c0, c1, mask = win
        patch = self.counts[r0:r1, c0:c1]
        np.add(patch, mask, out=patch)

    def _check_counts_only_window(self, x: float, y: float, r: float, win) -> None:
        """Cross-validate a bulk-load rasterisation against the
        from-scratch reference window (``debug_checks`` only)."""
        ref = self._disc_window(x, y, r)
        if ref is None:
            # The reference bails on an all-False mask; the scratch
            # window stages those as exact no-ops.
            if win is not None and bool(win[4].any()):
                raise ChainError(
                    f"counts-only window for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                    "covers pixels where the reference covers none"
                )
            return
        if win is None:
            raise ChainError(
                f"counts-only window for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                "is empty where the reference covers pixels"
            )
        rows, cols, mask = ref
        r0, r1, c0, c1, tmask = win
        if (rows.start, rows.stop, cols.start, cols.stop) != (r0, r1, c0, c1) or not np.array_equal(
            tmask, mask
        ):
            raise ChainError(
                f"counts-only rebuild mask for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                "deviates from the reference window"
            )

    def rebuild_from(self, xs, ys, rs) -> None:
        """Recompute counts from scratch for the given circles (tests,
        worker initialisation)."""
        self._check_no_pending("rebuild_from")
        self.counts[:] = 0
        for x, y, r in zip(xs, ys, rs):
            self.add_disc_counts_only(float(x), float(y), float(r))

    def equals(self, other: "CoverageRaster") -> bool:
        return (
            self.counts.shape == other.counts.shape
            and self.row_offset == other.row_offset
            and self.col_offset == other.col_offset
            and bool(np.array_equal(self.counts, other.counts))
        )

    def window_rect(self) -> Rect:
        """The raster's extent as an image-space rectangle."""
        h, w = self.counts.shape
        return Rect(
            float(self.col_offset),
            float(self.row_offset),
            float(self.col_offset + w),
            float(self.row_offset + h),
        )
