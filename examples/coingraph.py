#!/usr/bin/env python3
"""CoinGraph: a Bitcoin blockchain explorer on Weaver (section 5.2).

Loads a synthetic blockchain segment (the real chain's per-block
transaction growth curve, scaled down), then:

* renders blocks with the node program behind Fig 7/8,
* runs taint tracking over ``spends`` edges — the flow analysis the
  paper lists among CoinGraph's algorithms,
* compares functional results against the Blockchain.info-like
  relational baseline, and prints both systems' latency at full scale
  as the simulated twin measures it (Fig 7),
* demonstrates why transactions matter: a block and its transactions
  appear atomically, never partially (section 5.4's fork-consistency
  argument).

Run:  python examples/coingraph.py
"""

from repro import Weaver, WeaverClient, WeaverConfig
from repro.baselines.blockchain_info import RelationalExplorer
from repro.bench import harness
from repro.programs import CollectReachable
from repro.workloads import bitcoin


def main():
    db = Weaver(WeaverConfig(num_gatekeepers=2, num_shards=4))
    client = WeaverClient(db)

    # A chain segment with the real growth curve at 2% scale.
    generator = bitcoin.BlockchainGenerator(seed=2009, scale=0.02)
    heights = [100_000, 150_000, 200_000, 250_000, 300_000, 350_000]
    blocks = generator.generate(heights)
    bitcoin.load_into_weaver(client, blocks, with_spend_edges=True)
    explorer = RelationalExplorer()
    bitcoin.load_into_explorer(explorer, blocks)
    print(f"loaded {len(blocks)} blocks, "
          f"{sum(len(b.transactions) for b in blocks)} transactions")

    # Render each block; cross-check against the relational baseline and
    # report the latency both systems pay at full scale in simulated
    # time: CoinGraph on the twin, Blockchain.info per row joined.
    fig7 = harness.experiment_fig7(heights)
    print(f"{'block':>10} {'txs':>6} {'CoinGraph(s)':>13} {'BC.info(s)':>11}")
    for block, (height, full_scale, cg, bc, _) in zip(blocks, fig7.rows()):
        rendered = client.render_block(block.block_id)
        reference, _ = explorer.render_block(block.block_id)
        assert rendered["n_tx"] == reference["n_tx"]
        print(f"{height:>10} {full_scale:>6} {cg:>13.3f} {bc:>11.3f}")

    # Taint tracking: which transactions are downstream of a tainted one?
    tainted_source = blocks[0].transactions[0].tx_id
    # Taint flows along the *incoming* spends edges of later txs, so
    # walk from a recent tx back through what it spends.
    recent = blocks[-1].transactions[-1].tx_id
    upstream = db.run_program(CollectReachable(), recent, None)
    touched = [v for v in upstream.results if v.startswith("tx")]
    print(f"{recent} draws from {len(touched)} upstream transactions; "
          f"tainted source reachable: {tainted_source in touched}")

    # Atomic block arrival: a new block's vertex, transactions, and
    # edges commit together, so a concurrent reader sees all or nothing.
    checkpoint = db.checkpoint()
    new_block = generator.generate_block(360_000)
    bitcoin.load_into_weaver(client, [new_block])
    now = client.render_block(new_block.block_id)
    print(f"new block {new_block.block_id}: {now['n_tx']} txs visible now")
    from repro.programs import GetNode

    at_checkpoint = db.run_program(
        GetNode(), new_block.block_id, at=checkpoint
    )
    print("visible at the pre-arrival checkpoint:",
          bool(at_checkpoint.results))


if __name__ == "__main__":
    main()
