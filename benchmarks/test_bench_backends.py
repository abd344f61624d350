"""B1 — execution-backend throughput: scalar interpreter vs batch engine.

Measures campaign runs/sec under ``backend="scalar"`` and
``backend="batch"`` on the two paper-reproduction campaign shapes:

* ``fig2_pwcet_rand`` — TVCA on the RAND platform, the Figure-2 pWCET
  campaign.  The batch engine advances all replications of the trace
  simultaneously with numpy array state.
* ``fig3_det_baseline`` — TVCA on the DET baseline (the other half of
  the Figure-3 comparison).  A deterministic platform consumes no
  per-run randomness, so the engine's degenerate path measures one
  reference run and broadcasts it.
* ``contention_rand`` — a co-scheduled contention campaign
  (table-walk under a memory-hammer opponent on a 4-core RAND
  platform), the ``repro contend`` shape.  The concurrent batch engine
  advances every replication's min-``(now, core_id)`` interleave in
  lockstep.

All campaigns fix the workload inputs (``vary_inputs=False``): platform
randomization — the axis MBPTA analyses — is exactly the variation
batching accelerates, because all replications then share one trace
set (opponent traces derive from the input seed, so varied inputs
would split contention runs into singleton groups).  With per-run
varied inputs every run owns a distinct trace and the ``auto`` backend
falls back to the scalar interpreter (bit-identically), so the backend
comparison is made where batch applies.

Emits ``BENCH_backends.json`` — the machine-readable trajectory the CI
bench-gate compares against the committed baseline (see
``benchmarks/README.md``) — plus a human-readable table, and asserts
the floors: >= 5x runs/sec on the Fig. 2 campaign and >= 10x on the
contention campaign, with bit-identical samples.  Each batch leg is
timed ``BATCH_REPEATS`` times; the speedup uses the median, and the
min and max walls are reported beside it.
"""

import json
import os
import platform as host_platform
import statistics
import time

import pytest

from repro.api import (
    CampaignRunner,
    TvcaWorkload,
    create_platform,
    create_scenario,
    create_workload,
)
from repro.harness import CampaignConfig
from repro.platform.batch import numpy_available

from conftest import APP_CONFIG, BASE_SEED, CACHE_KB, RESULTS_DIR, emit

#: Campaign size for the backend comparison; scaled down in the CI
#: bench-gate job and up in the weekly baseline refresh.
BACKEND_RUNS = int(os.environ.get("REPRO_BENCH_BACKEND_RUNS", "300"))

#: The acceptance floor on the Fig. 2 campaign.
MIN_FIG2_SPEEDUP = 5.0

#: The acceptance floor on the co-scheduled contention campaign.
MIN_CONTENTION_SPEEDUP = 10.0

#: The contention row runs 2x the TVCA rows: the concurrent engine's
#: per-step dispatch amortizes over replications, so its speedup keeps
#: growing with R and the larger campaign keeps the row comfortably
#: clear of measurement noise around the floor.
CONTENTION_RUNS = 2 * BACKEND_RUNS

#: Timings per batch leg; the gate reads their median.
BATCH_REPEATS = 5


def _tvca(platform_name):
    platform = create_platform(platform_name, num_cores=1, cache_kb=CACHE_KB)
    return TvcaWorkload(config=APP_CONFIG), platform, "tvca", BACKEND_RUNS


def _contention(platform_name):
    platform = create_platform(platform_name, num_cores=4, cache_kb=4)
    scenario = create_scenario(
        "opponent-memory-hammer", create_workload("table-walk")
    )
    label = "table-walk+opponent-memory-hammer"
    return scenario, platform, label, CONTENTION_RUNS


CAMPAIGNS = (
    ("fig2_pwcet_rand", "rand", _tvca),
    ("fig3_det_baseline", "det", _tvca),
    ("contention_rand", "rand", _contention),
)


def _measure(platform_name: str, backend: str, build, repeats: int = 1):
    """The first run's result, every wall-clock timing, and the run count.

    The batch legs finish in fractions of a second, so a single timing
    is at the mercy of ambient host load; the caller gates the median
    of ``BATCH_REPEATS`` timings and reports their min and max beside
    it.  The scalar legs run once — tens of seconds average the noise
    out.
    """
    workload, platform, _, runs = build(platform_name)
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=BASE_SEED, vary_inputs=False),
        backend=backend,
    )
    result = None
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        attempt = runner.run(workload, platform)
        walls.append(time.perf_counter() - started)
        result = attempt if result is None else result
    return result, walls, runs


@pytest.mark.skipif(
    not numpy_available(), reason="batch backend requires numpy"
)
def test_bench_backend_throughput():
    entries = []
    lines = [
        "B1: campaign throughput by execution backend "
        f"({BACKEND_RUNS} fixed-input runs; contention {CONTENTION_RUNS}; "
        f"batch: median of {BATCH_REPEATS})",
        "",
        f"  {'campaign':22s} {'scalar r/s':>11s} {'batch r/s':>11s} "
        f"{'speedup':>8s} {'batch wall min..max s':>22s}",
    ]
    speedups = {}
    for name, platform_name, build in CAMPAIGNS:
        workload_label = build(platform_name)[2]
        scalar_result, (scalar_wall,), runs = _measure(
            platform_name, "scalar", build
        )
        batch_result, batch_walls, _ = _measure(
            platform_name, "batch", build, repeats=BATCH_REPEATS
        )
        batch_wall = statistics.median(batch_walls)
        # The optimization is only admissible because it changes nothing:
        assert scalar_result.run_details == batch_result.run_details, (
            f"{name}: batch backend diverged from the scalar interpreter"
        )
        assert batch_result.backend == "batch"
        scalar_rate = runs / scalar_wall
        batch_rate = runs / batch_wall
        speedup = batch_rate / scalar_rate
        speedups[name] = speedup
        entries.append(
            {
                "name": name,
                "workload": workload_label,
                "platform": platform_name,
                "runs": runs,
                "scalar_wall_s": round(scalar_wall, 4),
                "scalar_runs_per_s": round(scalar_rate, 3),
                "batch_wall_s": round(batch_wall, 4),
                "batch_wall_min_s": round(min(batch_walls), 4),
                "batch_wall_max_s": round(max(batch_walls), 4),
                "batch_repeats": BATCH_REPEATS,
                "batch_runs_per_s": round(batch_rate, 3),
                "speedup": round(speedup, 3),
            }
        )
        lines.append(
            f"  {name:22s} {scalar_rate:11.1f} {batch_rate:11.1f} "
            f"{speedup:7.1f}x {min(batch_walls):10.4f}..{max(batch_walls):.4f}"
        )
    payload = {
        "schema": "repro.bench.backends/1",
        "runs": BACKEND_RUNS,
        "host": host_platform.machine(),
        "entries": entries,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_backends.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lines += [
        "",
        "  (gated metric: speedup = batch / scalar runs-per-second, from the",
        "   median batch wall, normalized in-session so the gate is",
        "   host-independent)",
    ]
    emit("BENCH_backends", "\n".join(lines))

    assert speedups["fig2_pwcet_rand"] >= MIN_FIG2_SPEEDUP, (
        f"Fig. 2 campaign speedup {speedups['fig2_pwcet_rand']:.1f}x is "
        f"below the {MIN_FIG2_SPEEDUP:.0f}x floor"
    )
    assert speedups["contention_rand"] >= MIN_CONTENTION_SPEEDUP, (
        "contention campaign speedup "
        f"{speedups['contention_rand']:.1f}x is below the "
        f"{MIN_CONTENTION_SPEEDUP:.0f}x floor"
    )
