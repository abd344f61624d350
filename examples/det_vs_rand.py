#!/usr/bin/env python
"""Figure 3 of the paper: MBPTA vs industrial MBTA practice.

Runs the TVCA campaign on both the deterministic (DET) and the
time-randomized (RAND) platform with identical workload inputs, then
prints the Figure-3 comparison: average-performance bars, the DET
high-watermark + 50% engineering factor (industrial MBTA), and the
MBPTA pWCET estimates at cutoffs 1e-6 .. 1e-15.

Both campaigns are :class:`~repro.api.CampaignRequest` objects that
differ only in the platform; they can be sharded across processes — sharding never changes an observation
(deterministic by-run-index merge), only the wall-clock time.

Run:  python examples/det_vs_rand.py [runs] [shards]
"""

import sys
from dataclasses import replace

from repro.api import CampaignRequest
from repro.core import mbta_bound
from repro.harness import compare_requests
from repro.viz import figure3_panel


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 250
    shards = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    print(f"running {runs} TVCA executions on DET and on RAND "
          f"({shards} shard(s)) ...")
    det_request = CampaignRequest(
        workload="tvca",
        platform="det",
        runs=runs,
        base_seed=2017,
        shards=shards,
        workload_kwargs={"estimator_dim": 20, "aero_window": 32},
        platform_kwargs={"num_cores": 1, "cache_kb": 4},
    )
    comparison = compare_requests(
        det_request,
        replace(det_request, platform="rand"),
        progress=lambda name, done, total: (
            print(f"  {name}: {done}/{total}") if done % max(total // 4, 1) == 0 else None
        ),
    )

    det = comparison.det_sample
    rand = comparison.rand_sample
    mbta = mbta_bound(det.values, engineering_factor=0.50)

    analysis = comparison.analyse_rand()
    pwcet_rows = analysis.pwcet_table()

    print()
    print("Figure 3 — MBPTA vs DET (industrial MBTA practice):")
    print(
        figure3_panel(
            det_mean=det.mean,
            rand_mean=rand.mean,
            det_hwm=mbta.hwm,
            mbta_bound=mbta.bound,
            pwcet_by_cutoff=pwcet_rows,
        )
    )
    print()
    print(f"average performance: RAND/DET = {comparison.average_ratio():.4f} "
          "(paper: 'not noticeable difference')")
    print(f"MBTA:  {mbta.describe()}")
    print(
        "MBPTA: pWCET carries an explicit per-run exceedance probability; "
        "the MBTA margin carries none."
    )


if __name__ == "__main__":
    main()
