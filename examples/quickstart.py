#!/usr/bin/env python
"""Quickstart: MBPTA on a synthetic execution-time campaign.

The fastest way to see the pipeline end to end through the unified
:mod:`repro.api` request surface: run a campaign of the registered
``synthetic-cache`` workload (a known randomized-cache-like model — no
platform simulation involved), then run the i.i.d. gate, fit the EVT
tail and print the pWCET table.

Run:  python examples/quickstart.py
"""

from repro.api import CampaignRequest, CampaignRunner
from repro.core import AnalysisConfig, AnalysisPipeline, mbta_bound


def main() -> None:
    # 2,000 runs of a program whose misses follow a randomized cache:
    # each of 200 lines misses independently with p=0.05 at 25 cycles.
    request = CampaignRequest(
        workload="synthetic-cache",
        platform="rand",
        runs=2000,
        base_seed=42,
        shards=4,
        workload_kwargs=dict(
            base=10_000.0, num_lines=200,
            miss_probability=0.05, miss_penalty=25.0,
        ),
        platform_kwargs=dict(num_cores=1),
    )
    result = CampaignRunner.run_request(request)
    values = result.merged.values

    analysis = AnalysisPipeline(AnalysisConfig(check_convergence=True))
    mbpta = analysis.run(result.samples, label="quickstart")

    print(mbpta.report())

    # Compare with the industrial high-watermark practice.
    mbta = mbta_bound(values, engineering_factor=0.50)
    print()
    print(mbta.describe())
    print(
        f"MBPTA pWCET@1e-12 = {mbpta.quantile(1e-12):.0f} "
        f"vs MBTA bound = {mbta.bound:.0f} "
        f"({'MBPTA tighter' if mbpta.quantile(1e-12) < mbta.bound else 'MBTA tighter'})"
    )


if __name__ == "__main__":
    main()
