#!/usr/bin/env python
"""Estimator registry + bootstrap confidence bands.

A pWCET point estimate at 1e-15 exceedance probability carries large
estimator variance.  This example runs one campaign, then analyses the
same measurements three ways through the staged pipeline:

1. the classical default (`block-maxima-gumbel`),
2. `auto` — every candidate fitted, selected per path by fit-quality
   diagnostics, with the rationale recorded,
3. the POT/GPD alternative,

each with a 95% bootstrap confidence band (vectorized refits), and
prints where the bands agree — the cross-method check a point estimate
cannot give.

Run:  python examples/estimator_bands.py [runs]
"""

import sys

from repro.api import CampaignRequest, CampaignRunner
from repro.core import AnalysisConfig, AnalysisPipeline


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    result = CampaignRunner.run_request(
        CampaignRequest(
            workload="synthetic-cache", platform="rand", runs=runs,
            platform_kwargs={"num_cores": 1, "cache_kb": 4},
        )
    )

    cutoff = 1e-12
    print(f"campaign: {result.label}, n={result.num_runs}\n")
    for method in ("block-maxima-gumbel", "auto", "pot-gpd"):
        analysis = AnalysisPipeline(
            AnalysisConfig(
                method=method,
                min_path_samples=max(120, runs // 3),
                check_convergence=False,
                ci=0.95,
                bootstrap=500,
            )
        ).run(result.samples)
        point = analysis.quantile(cutoff)
        band = analysis.envelope.band(cutoff)
        line = f"{method:>20}: pWCET@{cutoff:g} = {point:.0f}"
        if band is not None:
            line += f"  95% CI [{band[0]:.0f}, {band[1]:.0f}]"
        print(line)
        for path, a in sorted(analysis.paths.items()):
            if a.selection_note:
                print(f"{'':>22}{path}: {a.selection_note}")
    print(
        "\nOverlapping bands across methods = the projection is robust "
        "to the tail-model choice; disjoint bands = inspect the fit-"
        "quality diagnostics before trusting either."
    )


if __name__ == "__main__":
    main()
