"""End-to-end bit-parity of the kernel across strategies.

Every strategy ultimately spins MarkovChain / SpeculativeChain /
MultiproposalChain, so engine runs per strategy — serial executor,
seeds {42, 7}, ``proposal_batch`` {0, 1, 4} — pin the whole stack:
detected circles, partition reports, per-partition traces and
acceptance statistics must reproduce the frozen golden digests of
``tests/mcmc/kernel_golden.json`` bit for bit.  Those digests were
generated while the pre-trial apply/unapply kernel still ran alongside
and produced the very same digests.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "mcmc"))
from test_kernel_golden import (  # noqa: E402
    ENGINE_BATCHES,
    ENGINE_SEEDS,
    STRATEGIES,
    engine_digest,
    engine_key,
    golden,
)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_bitwise_parity(strategy):
    for seed in ENGINE_SEEDS:
        for batch in ENGINE_BATCHES:
            key = engine_key(strategy, seed, batch)
            assert engine_digest(strategy, seed, batch) == golden(key), key
