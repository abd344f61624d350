#!/usr/bin/env python
"""Contention campaign: the same workload in isolation and under attack.

The paper's board is a 4-core LEON3 SoC with a round-robin shared bus,
but its measured campaigns run the TVCA alone on core 0.  This example
opens the multicore axis: the workload under analysis is co-scheduled
against *opponents* on the other three cores — resource-stressing
kernels that contend for the bus and DRAM controller — and the pWCET
estimate is compared against the isolation baseline.

Every scenario campaign reuses the same base seed, so per-run platform
seeds and workload inputs are identical across scenarios; the sample gap
*is* the contention.  Expect the ordering

    isolation <= opponent-cpu < full-rand < opponent-memory-hammer

with the memory hammer (a line-stride load loop that misses on every
access) as the worst realistic bus enemy.

Run:  python examples/contention_campaign.py [runs] [--backend auto]

``--backend batch`` forces the vectorized concurrent engine (the
default ``auto`` picks it on its own where it pays); with fixed inputs
every replication shares one trace set, so all runs of a scenario
advance in lockstep.  Backend choice never changes an observation —
the samples are bit-identical to ``--backend scalar``.
"""

import argparse

from repro.api import CampaignRequest
from repro.harness import compare_scenarios_request
from repro.viz import contention_panel

SCENARIOS = (
    "isolation",
    "opponent-cpu",
    "full-rand",
    "opponent-memory-hammer",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("runs", nargs="?", type=int, default=400)
    parser.add_argument(
        "--backend",
        choices=("auto", "scalar", "batch"),
        default="auto",
        help="execution backend for every scenario campaign",
    )
    args = parser.parse_args()
    runs = args.runs

    print(f"sweeping {len(SCENARIOS)} scenarios x {runs} runs "
          f"(table-walk on the 4-core RAND platform, "
          f"backend={args.backend}) ...")
    base_request = CampaignRequest(
        workload="table-walk",
        platform="rand",
        runs=runs,
        base_seed=2017,
        vary_inputs=False,
        shards=4,
        backend=args.backend,
        platform_kwargs={"num_cores": 4, "cache_kb": 4},
    )
    comparison = compare_scenarios_request(base_request, scenarios=SCENARIOS)

    summary = comparison.summary(cutoff=1e-9)

    print()
    print(contention_panel(summary))
    print("\n('pwcet' row = estimate at P(exceed) = 1e-9; slowdowns are "
          "mean ratios vs isolation)")

    hammer = summary["opponent-memory-hammer"]["pwcet"]
    isolation = summary["isolation"]["pwcet"]
    print(f"\ncontention margin the bound must absorb: "
          f"{hammer - isolation:,.0f} cycles "
          f"(x{hammer / isolation:.3f} vs isolation)")


if __name__ == "__main__":
    main()
