"""Benchmark: the contention-vs-isolation scenario comparison figure.

Sweeps the table-walk kernel over the built-in contention scenarios on
the 4-core RAND platform and emits the comparison panel + CSV — the
multicore counterpart of the paper's single-core campaigns.  Expected
shape: isolation <= opponent-cpu < full-rand < opponent-memory-hammer,
with the store-dominant memory hammer as the worst enemy."""

import os

from conftest import BASE_SEED, SHARDS, emit

from repro.api import CampaignRequest
from repro.harness import compare_scenarios_request
from repro.viz import contention_csv, contention_panel

RUNS = int(os.environ.get("REPRO_BENCH_CONTENTION_RUNS", "300"))
SCENARIOS = (
    "isolation",
    "opponent-cpu",
    "full-rand",
    "opponent-memory-hammer",
)


def test_contention_scenario_sweep():
    base_request = CampaignRequest(
        workload="table-walk",
        platform="rand",
        runs=RUNS,
        base_seed=BASE_SEED,
        shards=SHARDS,
        platform_kwargs={"num_cores": 4, "cache_kb": 4},
    )
    comparison = compare_scenarios_request(base_request, scenarios=SCENARIOS)
    summary = comparison.summary(cutoff=1e-9)
    assert all("pwcet" in row for row in summary.values())

    emit(
        "fig_contention_panel",
        contention_panel(summary)
        + "\n\n('pwcet' = estimate at P(exceed) = 1e-9)",
    )
    emit("fig_contention_csv", contention_csv(summary))

    # Monotonicity: every opponent scenario dominates isolation, and the
    # memory hammer is the worst of the sweep.
    isolation = summary["isolation"]
    for name in SCENARIOS[1:]:
        assert summary[name]["mean"] >= isolation["mean"] * 0.999
        assert summary[name]["pwcet"] >= isolation["pwcet"] * 0.999
    hammer = summary["opponent-memory-hammer"]
    assert hammer["mean"] == max(row["mean"] for row in summary.values())
    assert hammer["slowdown"] > 1.5
