"""From-scratch oracle for the move protocol.

Every move class changes a :class:`PosteriorState` only through
``price`` → ``commit`` / ``rollback``.  On generated configurations and
generated proposals of each class this pins the protocol to quantities
recomputed from nothing but the circle list:

* the priced delta equals ``full_log_posterior()`` after the commit
  minus before, within ``verify_consistency``'s tolerance;
* the coverage counts after the commit equal a from-scratch
  ``rebuild_from`` of the configuration, exactly;
* a rollback leaves the counts, the cached posterior and the
  configuration (arrays, free list) bit-identical.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.mcmc import MoveConfig, MoveGenerator, NullMove, PosteriorState
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.spec import MoveType
from repro.utils.rng import RngStream

#: verify_consistency's tolerance.
ATOL, RTOL = 1e-6, 1e-9

#: Proposals drawn per generated state.
PROPOSALS = 6

# Centres clustered in the middle of the 96² scene so merge partners
# (within 2·split_max_separation) exist; radii inside the small_spec
# truncation [2, 14].
circle_st = st.tuples(
    st.floats(20.0, 76.0), st.floats(20.0, 76.0), st.floats(2.5, 13.5)
)

CLUSTER = [(40.0, 40.0, 6.0), (47.0, 43.0, 5.0), (60.0, 30.0, 7.5), (30.0, 62.0, 4.0)]


def _config_signature(post):
    """Active slots with their exact values, plus the free list (slot
    reuse order is part of the state: it fixes future indices)."""
    cfg = post.config
    active = cfg.active_indices()
    return (
        active.tobytes(), cfg.xs[active].tobytes(), cfg.ys[active].tobytes(),
        cfg.rs[active].tobytes(), list(cfg._free),
    )


def _rebuilt_counts(post):
    cov = post.coverage
    h, w = cov.shape
    rebuilt = CoverageRaster(h, w, row_offset=cov.row_offset, col_offset=cov.col_offset)
    rebuilt.rebuild_from(*post.config.to_arrays())
    return rebuilt.counts


def _check_oracle(post, move_type, seed) -> int:
    """Price, roll back, re-price and commit up to PROPOSALS proposals
    of *move_type*; returns how many were valid (and so checked)."""
    gen = MoveGenerator(post.spec, MoveConfig())
    stream = RngStream(seed=seed)
    checked = 0
    for _ in range(PROPOSALS):
        move = gen.generate_of_type(move_type, post, stream)
        if isinstance(move, NullMove) or not move.is_valid(post):
            continue
        counts0 = post.coverage.counts.copy()
        lp0 = post.log_posterior
        config0 = _config_signature(post)
        full0 = post.full_log_posterior()

        delta = move.price(post)
        move.rollback(post)
        assert np.array_equal(post.coverage.counts, counts0)
        assert post.log_posterior == lp0  # bitwise
        assert _config_signature(post) == config0
        post.config.check_invariants()

        assert move.price(post) == delta  # re-pricing the same state is exact
        move.commit(post)
        assert np.isclose(delta, post.full_log_posterior() - full0, atol=ATOL, rtol=RTOL)
        assert np.array_equal(post.coverage.counts, _rebuilt_counts(post))
        post.verify_consistency()
        checked += 1
    return checked


@pytest.mark.parametrize("move_type", list(MoveType), ids=lambda mt: mt.value)
@settings(max_examples=25, deadline=None)
@given(circles=st.lists(circle_st, max_size=7), seed=st.integers(0, 2**32 - 1))
@example(circles=CLUSTER, seed=0)
# A split whose rollback reordered the spatial hash: its re-price once
# summed the same overlap terms in another order (1 ulp off).
@example(circles=[(20.0, 20.0, 3.0), (20.0, 29.0, 8.0)], seed=0)
def test_move_matches_from_scratch_oracle(
    move_type, circles, seed, small_filtered, small_spec
):
    post = PosteriorState(small_filtered, small_spec)
    post.load_circles([Circle(*c) for c in circles])
    _check_oracle(post, move_type, seed)


@pytest.mark.parametrize("move_type", list(MoveType), ids=lambda mt: mt.value)
def test_oracle_exercises_every_class(move_type, small_filtered, small_spec):
    """The fixed cluster state yields valid proposals of every class, so
    the property above never passes vacuously for a class."""
    post = PosteriorState(small_filtered, small_spec)
    post.load_circles([Circle(*c) for c in CLUSTER])
    assert _check_oracle(post, move_type, seed=0) > 0
