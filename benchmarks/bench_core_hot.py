"""Experiment ``core-hot`` — chain-kernel throughput.

The paper's whole speedup argument (§II, §V) rests on O(disc)
incremental deltas; the price/commit/rollback kernel keeps the constant
down by pricing a proposal once and rolling a rejection back without
re-rasterising — the ~60-98 % of iterations that reject.  This
experiment measures the serial single-chain iterations/sec and the
per-move-class rejection-cycle cost; the wall-clock numbers land in
BENCH_core.json via ``scripts/bench_core.py``, this harness keeps them
in the benchmark suite alongside the paper experiments.
"""


from conftest import emit
from repro.bench.core import move_class_throughput, serial_chain_throughput
from repro.utils.tables import Table

SERIAL_ITERS = 20_000
MOVE_CYCLES = 3_000


def run_experiment():
    serial = serial_chain_throughput(iterations=SERIAL_ITERS, warmup=2_000)
    classes = move_class_throughput(cycles=MOVE_CYCLES)
    return serial, classes


def test_core_hot_path(benchmark, capsys):
    serial, classes = benchmark.pedantic(run_experiment, iterations=1, rounds=1)

    t = Table(
        "Chain kernel — price/commit/rollback throughput",
        ["path", "per second"],
        precision=0,
    )
    t.add_row(["serial chain iterations", serial["trial_iters_per_second"]])
    for name, row in classes["classes"].items():
        t.add_row([f"{name} reject cycles", row["trial_cycles_per_second"]])
    emit(capsys, t.render())

    # The rejected-cycle posterior invariant is asserted inside the bench
    # helper (BenchmarkError); here every class must actually be priced.
    assert serial["trial_iters_per_second"] > 0
    for name, row in classes["classes"].items():
        assert row["priced_proposals"] > 0, f"{name} priced no proposals"
