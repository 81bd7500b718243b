"""Fig 7: Bitcoin block-query latency — CoinGraph vs Blockchain.info.

Paper's claim: both systems' latency is proportional to the number of
transactions in the block; CoinGraph pays 0.6-0.8 ms per transaction vs
5-8 ms for Blockchain.info, making block 350,000 (1,795 transactions)
about 8x faster to render.

CoinGraph's latency is measured on the simulated twin (one gatekeeper,
one shard, every vertex read a demand page), rendering each full-size
block; Blockchain.info is its per-row cost model.
"""

from repro.bench import harness
from repro.bench.report import ratio_check

HEIGHTS = (1_000, 50_000, 100_000, 150_000, 200_000, 250_000, 300_000,
           350_000)

PAPER_SPEEDUP_AT_350K = 8.0


def run_experiment():
    return harness.experiment_fig7(heights=HEIGHTS)


def test_fig07_block_query_latency(benchmark, show):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    show(
        "Fig 7: Bitcoin block query latency (simulated seconds)",
        ["block", "txs", "CoinGraph (s)", "BC.info (s)", "speedup"],
        [
            (h, ntx, round(cg, 4), round(bc, 3), round(sp, 1))
            for h, ntx, cg, bc, sp in result.rows()
        ],
        lines=[
            ratio_check(
                "speedup at block 350k",
                result.speedup_at_max_height,
                PAPER_SPEEDUP_AT_350K,
            )
        ],
    )
    # Shape assertions: latency grows with block size; CoinGraph wins by
    # roughly the paper's factor at the calibration block.
    latencies = [cg for _, _, cg, _, _ in result.rows()]
    assert latencies == sorted(latencies)
    assert 4 <= result.speedup_at_max_height <= 16
    assert result.functional_blocks_checked == len(HEIGHTS)
