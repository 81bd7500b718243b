"""The CoinGraph cost model: block-query timing for Figs 7 and 8.

CoinGraph's block queries are dominated by demand paging of Bitcoin
transaction vertices, which the simulated twin does not model, so these
two figures keep an analytic model on ``costmodel.Resource`` queues.
Every other Weaver series is measured on the twin
(:mod:`repro.bench.harness`).
"""

from __future__ import annotations

from typing import Optional

from .costmodel import CostParams, Resource


class CoinGraphModel:
    """Timing for CoinGraph block queries (Figs 7, 8).

    A block query is one node program whose work is dominated by reading
    (and demand-paging) the block's transaction vertices: the paper
    measures 0.6-0.8 ms per transaction.  Latency is therefore linear in
    the block's transaction count; cluster-wide throughput is the
    aggregate vertex-read capacity divided by per-query work.
    """

    def __init__(
        self,
        num_shards: int = 8,
        costs: Optional[CostParams] = None,
    ):
        self.costs = costs or CostParams()
        self.num_shards = num_shards
        self.shards = [Resource(f"cg{i}") for i in range(num_shards)]

    def block_query_latency(self, n_tx: int) -> float:
        """Latency of rendering a block with ``n_tx`` transactions."""
        c = self.costs
        return 2 * c.net_latency + (1 + n_tx) * c.coingraph_tx_service

    def block_query(self, n_tx: int, start: float) -> float:
        """Closed-loop version: the paging work occupies one shard."""
        c = self.costs
        t = start + c.net_latency
        shard = min(self.shards, key=lambda s: s.free_at)
        t = shard.acquire(t, (1 + n_tx) * c.coingraph_tx_service)
        return t + c.net_latency
