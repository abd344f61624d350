#!/usr/bin/env python
"""The paper's case study end to end, at reduced scale.

Runs the Thrust Vector Control Application on the MBPTA-compliant
(time-randomized) LEON3 model under the measurement protocol of the
paper — flush caches, reset the platform, new PRNG seed per run — then
applies the full MBPTA pipeline and prints the analysis report plus a
Figure-2-style pWCET panel.

The campaign goes through the unified :mod:`repro.api` runner: the TVCA
workload and the platform are registry entries, the campaign runs in
parallel shards (bit-identical to a serial run), and the complete
result — per-path samples, seeds, platform fingerprint — is persisted
as a JSON artifact that ``repro.cli analyse --sample`` can re-analyse.

Run:  python examples/tvca_campaign.py [runs] [shards]

The default (300 runs, scaled-pressure configuration) takes ~15 s
serial; the paper's setup is 3,000 runs on the full configuration (see
benchmarks/ with REPRO_BENCH_RUNS=3000 REPRO_BENCH_FULL=1).  See
examples/adaptive_campaign.py for the convergence-driven variant that
stops collecting as soon as the estimate is stable.
"""

import sys

from repro.api import (
    CampaignArtifact,
    CampaignConfig,
    CampaignRunner,
    create_platform,
    create_workload,
)
from repro.core import AnalysisConfig
from repro.viz import figure2_panel


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    shards = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    workload = create_workload("tvca", estimator_dim=20, aero_window=32)
    platform = create_platform(
        "rand", num_cores=1, cache_kb=4, check_prng_health=True
    )
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=2017), shards=shards
    )
    print(
        f"collecting {runs} measured executions of TVCA on {platform.name} "
        f"({shards} shard(s)) ..."
    )

    def progress(done: int, total: int) -> None:
        if done % max(total // 10, 1) == 0:
            print(f"  {done}/{total} runs")

    result = runner.run(workload, platform, progress=progress)

    sample = result.merged
    print(
        f"\nsample: n={len(sample)} min={sample.minimum:.0f} "
        f"mean={sample.mean:.0f} hwm={sample.hwm:.0f} (CoV {sample.cov:.4f})"
    )

    # Persist the complete campaign (per-path samples + seeds) and
    # analyse the artifact — what a saved run would go through later.
    artifact = CampaignArtifact.from_result(
        result, config=runner.config, platform=platform,
        workload=workload.name, shards=shards,
    )
    out = artifact.save("tvca_campaign.json")
    print(f"campaign artifact written to {out}")

    analysis = CampaignArtifact.load(out).analyse(
        AnalysisConfig(min_path_samples=max(120, runs // 3), check_convergence=runs >= 400)
    )
    print()
    print(analysis.report())

    dominant = analysis.dominant_path()
    if dominant in analysis.paths:
        curve = analysis.paths[dominant].curve
        print("\nFigure-2-style pWCET curve:")
        print(
            figure2_panel(
                curve.curve_points(min_probability=1e-15, points_per_decade=1),
                curve.observed_points(),
            )
        )


if __name__ == "__main__":
    main()
