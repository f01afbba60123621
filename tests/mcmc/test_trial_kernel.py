"""The price/commit/rollback protocol, pinned to references.

Coverage-level trial deltas are checked against the from-scratch
reference rasteriser (``CoverageRaster._disc_window``); committed moves
against applying their posterior primitives one at a time; rolled-back
moves against the untouched state; whole chains against the frozen
golden digests of ``kernel_golden.json``.  Plus the allocation
discipline of the steady-state trial path.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError
from repro.geometry.circle import Circle
from repro.mcmc import (
    BirthMove,
    DeathMove,
    MergeMove,
    MoveGenerator,
    PosteriorState,
    ReplaceMove,
    ResizeMove,
    SplitMove,
    TranslateMove,
)
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.kernel import price_move
from test_kernel_golden import (
    golden,
    markov_digest,
    mc3_digest,
    small_scene_model,
    speculative_digest,
)


def reference_op(cov, counts, x, y, r, weights, sign):
    """Apply one disc op to the *counts* array through the from-scratch
    reference window; return Σ weights over the newly covered (sign +1)
    or vacated (sign −1) pixels."""
    win = cov._disc_window(x, y, r)
    if win is None:
        return 0.0
    rows, cols, mask = win
    patch = counts[rows, cols]
    boundary = mask & (patch == (0 if sign > 0 else 1))
    patch[mask] += sign
    return float(weights[rows, cols][boundary].sum()) if boundary.any() else 0.0


# -- coverage-level delta equality (property tests) -------------------------

disc_st = st.tuples(
    st.floats(min_value=-5.0, max_value=37.0),
    st.floats(min_value=-5.0, max_value=37.0),
    st.floats(min_value=0.5, max_value=9.0),
)


class TestTrialCoverageDeltas:
    @settings(max_examples=40, deadline=None)
    @given(discs=st.lists(disc_st, min_size=1, max_size=6))
    def test_trial_add_matches_legacy_add(self, discs):
        rng = np.random.default_rng(0)
        weights = rng.random((32, 32)) * 2.0 - 1.0
        trial = CoverageRaster(32, 32)
        ref = np.zeros((32, 32), dtype=np.int32)
        for x, y, r in discs:
            expected = reference_op(trial, ref, x, y, r, weights, +1)
            got = trial.trial_add_disc(x, y, r, weights)
            trial.commit_pending()
            assert got == expected  # bitwise, not approx
            assert np.array_equal(trial.counts, ref)

    @settings(max_examples=40, deadline=None)
    @given(discs=st.lists(disc_st, min_size=1, max_size=5))
    def test_trial_remove_matches_legacy_remove(self, discs):
        rng = np.random.default_rng(1)
        weights = rng.random((32, 32)) * 2.0 - 1.0
        trial = CoverageRaster(32, 32)
        ref = np.zeros((32, 32), dtype=np.int32)
        for x, y, r in discs:
            reference_op(trial, ref, x, y, r, weights, +1)
            trial.add_disc_counts_only(x, y, r)
        for x, y, r in discs:
            expected = reference_op(trial, ref, x, y, r, weights, -1)
            got = trial.trial_remove_disc(x, y, r, weights)
            trial.commit_pending()
            assert got == expected
            assert np.array_equal(trial.counts, ref)

    @settings(max_examples=40, deadline=None)
    @given(disc=disc_st, dx=st.floats(-3.0, 3.0), dy=st.floats(-3.0, 3.0))
    def test_overlapping_remove_then_add_sequence(self, disc, dx, dy):
        """A translate-shaped trial (remove old disc, add overlapping new
        disc) must price the add against the counts *as the removal left
        them* — matching mutate-then-evaluate on the reference exactly."""
        x, y, r = disc
        rng = np.random.default_rng(2)
        weights = rng.random((32, 32)) * 2.0 - 1.0
        trial = CoverageRaster(32, 32)
        ref = np.zeros((32, 32), dtype=np.int32)
        for cx, cy, cr in ((x, y, r), (x + dx, y + dy, max(r - 0.5, 0.4))):
            trial.add_disc_counts_only(cx, cy, cr)
            reference_op(trial, ref, cx, cy, cr, weights, +1)
        d_rm = reference_op(trial, ref, x, y, r, weights, -1)
        d_ad = reference_op(trial, ref, x + dx, y + dy, r, weights, +1)

        t_rm = trial.trial_remove_disc(x, y, r, weights)
        t_ad = trial.trial_add_disc(x + dx, y + dy, r, weights)
        assert (t_rm, t_ad) == (d_rm, d_ad)
        trial.commit_pending()
        assert np.array_equal(trial.counts, ref)

    def test_discard_leaves_counts_untouched(self):
        weights = np.ones((20, 20))
        cov = CoverageRaster(20, 20)
        cov.add_disc_counts_only(10, 10, 4)
        before = cov.counts.copy()
        cov.trial_remove_disc(10, 10, 4, weights)
        cov.trial_add_disc(12, 9, 4, weights)
        assert cov.pending_count == 2
        cov.discard_pending()
        assert cov.pending_count == 0
        assert np.array_equal(cov.counts, before)

    def test_legacy_ops_refuse_pending_trials(self):
        """Direct count mutations refuse to run over pending trials."""
        weights = np.ones((20, 20))
        cov = CoverageRaster(20, 20)
        cov.trial_add_disc(10, 10, 4, weights)
        with pytest.raises(ChainError):
            cov.add_disc_counts_only(10, 10, 4)
        with pytest.raises(ChainError):
            cov.rebuild_from([10], [10], [4])
        cov.discard_pending()
        cov.add_disc_counts_only(10, 10, 4)  # fine again

    def test_rebuild_from_counts_only_path(self):
        """rebuild_from reproduces the exact counts of the reference
        window, without allocating a weight map."""
        xs, ys, rs = [5.0, 12.0, 11.0], [6.0, 12.0, 7.0], [3.0, 4.0, 2.5]
        rebuilt = CoverageRaster(20, 20)
        ref = np.zeros((20, 20), dtype=np.int32)
        w = np.zeros((20, 20))
        for x, y, r in zip(xs, ys, rs):
            reference_op(rebuilt, ref, x, y, r, w, +1)
        rebuilt.rebuild_from(xs, ys, rs)
        assert np.array_equal(rebuilt.counts, ref)

    def test_pickle_roundtrip_drops_scratch(self):
        import pickle

        cov = CoverageRaster(16, 16, row_offset=3, col_offset=4)
        cov.add_disc_counts_only(8, 8, 3)
        clone = pickle.loads(pickle.dumps(cov))
        assert clone.equals(cov)
        # Scratch is rebuilt, trial ops still work after the round-trip.
        clone.trial_add_disc(8, 8, 3, np.ones((16, 16)))
        clone.commit_pending()


# -- move-level protocol equivalence ----------------------------------------

def _twin_posts(small_filtered, small_spec):
    """Two bit-identical posterior states with a few circles."""
    posts = []
    for _ in range(2):
        post = PosteriorState(small_filtered, small_spec)
        post.insert_circle(30.0, 30.0, 6.0)
        post.insert_circle(60.0, 40.0, 5.0)
        post.insert_circle(34.0, 35.0, 4.0)  # overlaps the first
        posts.append(post)
    return posts


def _signature(post):
    return (
        post.snapshot_circles(),
        post.log_posterior,
        post.config.n,
        post.coverage.counts.copy(),
    )


def _sig_equal(a, b):
    return a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and np.array_equal(a[3], b[3])


def _make_moves(ctx):
    return {
        "birth": lambda: BirthMove(45.0, 52.0, 5.5, ctx),
        "death": lambda: DeathMove(0, ctx),
        "replace": lambda: ReplaceMove(1, 20.0, 70.0, 4.5, ctx),
        "translate": lambda: TranslateMove(0, 31.5, 28.5),
        "resize": lambda: ResizeMove(2, 5.1),
        # RJMCMC pair: split circle 0; merge the overlapping pair (0, 2).
        "split": lambda: SplitMove(
            0, Circle(30.0, 30.0, 6.0), theta=0.3, d=3.0, a=0.4, ctx=ctx
        ),
        "merge": lambda: MergeMove(
            0, 2, Circle(30.0, 30.0, 6.0), Circle(34.0, 35.0, 4.0), ctx
        ),
    }


def _apply_primitives(ctx):
    """Each move of :func:`_make_moves` as its posterior primitives,
    each committed before the next one prices (no pending overlay)."""
    split = _make_moves(ctx)["split"]()
    merged = _make_moves(ctx)["merge"]().merged
    return {
        "birth": lambda p: p.insert_circle(45.0, 52.0, 5.5)[1],
        "death": lambda p: p.delete_circle(0)[1],
        "replace": lambda p: p.delete_circle(1)[1] + p.insert_circle(20.0, 70.0, 4.5)[1],
        "translate": lambda p: p.move_circle(0, 31.5, 28.5)[1],
        "resize": lambda p: p.resize_circle(2, 5.1)[1],
        "split": lambda p: (
            p.delete_circle(0)[1]
            + p.insert_circle(split.c1.x, split.c1.y, split.c1.r)[1]
            + p.insert_circle(split.c2.x, split.c2.y, split.c2.r)[1]
        ),
        "merge": lambda p: (
            p.delete_circle(0)[1]
            + p.delete_circle(2)[1]
            + p.insert_circle(merged.x, merged.y, merged.r)[1]
        ),
    }


@pytest.fixture
def ctx(small_spec, move_config):
    return MoveGenerator(small_spec, move_config).ctx


MOVE_NAMES = ["birth", "death", "replace", "translate", "resize", "split", "merge"]


class TestMoveTrialProtocol:
    @pytest.mark.fast
    @pytest.mark.parametrize("name", MOVE_NAMES)
    def test_price_commit_equals_apply(self, name, small_filtered, small_spec, ctx):
        """Committing a priced move (later primitives priced against the
        pending masks of earlier ones) equals applying its primitives
        one at a time — bit for bit."""
        post_a, post_b = _twin_posts(small_filtered, small_spec)
        move = _make_moves(ctx)[name]()

        delta_trial = move.price(post_a)
        delta_apply = _apply_primitives(ctx)[name](post_b)
        assert delta_trial == delta_apply  # bitwise
        move.commit(post_a)
        assert _sig_equal(_signature(post_a), _signature(post_b))
        post_a.verify_consistency()

    @pytest.mark.fast
    @pytest.mark.parametrize("name", MOVE_NAMES)
    def test_price_rollback_equals_apply_unapply(
        self, name, small_filtered, small_spec, ctx
    ):
        """A rolled-back move leaves no trace: the state is exactly the
        untouched twin's, free-list slots included."""
        post_a, post_b = _twin_posts(small_filtered, small_spec)
        move = _make_moves(ctx)[name]()

        move.price(post_a)
        move.rollback(post_a)
        assert _sig_equal(_signature(post_a), _signature(post_b))
        assert post_a.config._free == post_b.config._free
        post_a.verify_consistency()

    @pytest.mark.fast
    def test_price_move_leaves_move_priced(self, small_filtered, small_spec, ctx):
        (post,) = _twin_posts(small_filtered, small_spec)[:1]
        move = BirthMove(50.0, 20.0, 5.0, ctx)
        log_alpha = price_move(post, move)
        assert log_alpha is not None
        assert post.coverage.pending_count == 1
        move.commit(post)
        assert post.coverage.pending_count == 0
        post.verify_consistency()


# -- chain-level parity: frozen golden digests ---------------------------------

class TestChainParity:
    """The chain drivers reproduce the digests frozen while the
    pre-trial apply/unapply kernel still ran alongside (both kernels
    produced identical digests); see ``test_kernel_golden.py``."""

    def test_markov_chain_bitwise_parity(self):
        assert markov_digest(*small_scene_model()) == golden("chain/markov")

    def test_speculative_chain_bitwise_parity(self):
        assert speculative_digest(*small_scene_model()) == golden("chain/speculative")

    def test_mc3_bitwise_parity(self):
        assert mc3_digest(*small_scene_model()) == golden("chain/mc3")


# -- allocation discipline ----------------------------------------------------

class TestAllocationDiscipline:
    def _steady_raster(self):
        rng = np.random.default_rng(5)
        weights = rng.random((96, 96)) * 2.0 - 1.0
        cov = CoverageRaster(96, 96)
        cov.add_disc_counts_only(48.0, 48.0, 20.0)
        # Warm the scratch with the biggest window the loop will see.
        cov.trial_remove_disc(48.0, 48.0, 20.0, weights)
        cov.trial_add_disc(47.0, 49.0, 20.0, weights)
        cov.discard_pending()
        return cov, weights

    def test_steady_state_trial_path_calls_no_array_constructors(self, monkeypatch):
        """Once scratch is warm, a full trial cycle (remove + add +
        discard/commit) performs zero Python-level numpy allocations —
        the per-call ``np.arange`` pair and broadcast temporaries of the
        reference window are gone."""
        cov, weights = self._steady_raster()
        calls = []

        def counting(name, orig):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)

            return wrapper

        for name in ("arange", "empty", "zeros", "ones", "full", "array", "asarray"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))

        for i in range(25):
            cov.trial_remove_disc(48.0, 48.0, 20.0, weights)
            cov.trial_add_disc(47.0, 49.0, 20.0, weights)
            cov.discard_pending()
        # One accepted round-trip exercises commit too.
        cov.trial_remove_disc(48.0, 48.0, 20.0, weights)
        cov.trial_add_disc(47.0, 49.0, 20.0, weights)
        cov.commit_pending()
        cov.trial_remove_disc(47.0, 49.0, 20.0, weights)
        cov.trial_add_disc(48.0, 48.0, 20.0, weights)
        cov.commit_pending()
        assert calls == []

    def test_scratch_does_not_regrow_in_steady_state(self):
        cov, weights = self._steady_raster()
        sq = cov._sq_flat
        masks = list(cov._mask_pool)
        for _ in range(10):
            cov.trial_remove_disc(48.0, 48.0, 20.0, weights)
            cov.trial_add_disc(47.0, 49.0, 20.0, weights)
            cov.discard_pending()
        assert cov._sq_flat is sq
        assert all(a is b for a, b in zip(cov._mask_pool, masks))

    def test_trial_transient_memory_well_below_legacy(self):
        """tracemalloc peak over a trial cycle must be a small fraction
        of an allocating reference cycle's — the same remove + add done
        through ``_disc_window`` with fancy-index count updates (arange
        grids, broadcast temporaries and fancy-index patches per disc).
        The remaining trial transient is the single boolean-gather of
        weights — kept because fusing the reduction would change numpy's
        pairwise summation order and with it the chain."""
        cov, weights = self._steady_raster()
        ref_counts = cov.counts.copy()

        def trial_cycle():
            cov.trial_remove_disc(48.0, 48.0, 20.0, weights)
            cov.trial_add_disc(47.0, 49.0, 20.0, weights)
            cov.discard_pending()

        def reference_cycle():
            reference_op(cov, ref_counts, 48.0, 48.0, 20.0, weights, -1)
            reference_op(cov, ref_counts, 48.0, 48.0, 20.0, weights, +1)

        def peak(fn, rounds=20):
            fn()  # warm
            tracemalloc.start()
            baseline = tracemalloc.get_traced_memory()[0]
            worst = 0
            for _ in range(rounds):
                tracemalloc.reset_peak()
                fn()
                _, p = tracemalloc.get_traced_memory()
                worst = max(worst, p - baseline)
            tracemalloc.stop()
            return worst

        trial_peak = peak(trial_cycle)
        reference_peak = peak(reference_cycle)
        assert trial_peak < 0.5 * reference_peak, (trial_peak, reference_peak)
