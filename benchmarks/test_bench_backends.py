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
``benchmarks/README.md``) — plus a human-readable table.  Each leg is
timed several times (``BATCH_REPEATS``, ``SCALAR_REPEATS``), every
repetition bracketed by host-speed probes, and its
rate is host-normalized: runs per second of the reference host at
nominal speed (``conftest.normalized_rate``).  The gate compares the
scalar and the batch trajectory separately; the batch/scalar ratio is
reported beside them, not gated, so a faster scalar interpreter no
longer reads as a batch regression.

The in-test floors keep the old ratio floors' demand on the batch
engine — >= 5x on the Fig. 2 campaign and >= 10x on the contention
campaign — against the normalized scalar rate measured when they were
ratios (:data:`RATIO_SCALAR_NORM_RUNS_PER_S`), with bit-identical samples.
"""

import json
import os
import platform as host_platform
import statistics

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

from conftest import (
    APP_CONFIG,
    BASE_SEED,
    CACHE_KB,
    RESULTS_DIR,
    emit,
    normalized_rate,
    normalized_timings,
)

#: Campaign size for the backend comparison; scaled down in the CI
#: bench-gate job and up in the weekly baseline refresh.
BACKEND_RUNS = int(os.environ.get("REPRO_BENCH_BACKEND_RUNS", "300"))

#: The acceptance floor on the Fig. 2 campaign, in multiples of its
#: ratio-era normalized scalar rate.
MIN_FIG2_SPEEDUP = 5.0

#: The acceptance floor on the co-scheduled contention campaign, in
#: multiples of its ratio-era normalized scalar rate.
MIN_CONTENTION_SPEEDUP = 10.0

#: Normalized scalar runs/s of the two floored campaigns on the
#: interpreter as it stood when the floors were batch/scalar ratios
#: (before the word-at-a-time PRNG and the one-call cache/TLB probes):
#: medians of five sessions on the reference host, each leg's index the
#: mean of two probes either side, the contention scalar leg timed once.
#: ``floor x rate`` is the batch rate those ratio floors demanded then.
RATIO_SCALAR_NORM_RUNS_PER_S = {
    "fig2_pwcet_rand": 161.1,
    "contention_rand": 42.0,
}

#: The contention row runs 2x the TVCA rows: the concurrent engine's
#: per-step dispatch amortizes over replications, so its speedup keeps
#: growing with R and the larger campaign keeps the row comfortably
#: clear of measurement noise around the floor.
CONTENTION_RUNS = 2 * BACKEND_RUNS

#: Timings per leg; the gate reads the median of their normalized rates.
BATCH_REPEATS = 7
SCALAR_REPEATS = 3


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


def _measure(platform_name: str, backend: str, build, repeats: int):
    """The first run's result, the walls and host indices of ``repeats``
    timings (see :func:`conftest.normalized_timings`), and the run count.
    """
    workload, platform, _, runs = build(platform_name)
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=BASE_SEED, vary_inputs=False),
        backend=backend,
    )
    result, walls, indices = normalized_timings(
        lambda: runner.run(workload, platform), repeats
    )
    return result, walls, indices, runs


@pytest.mark.skipif(
    not numpy_available(), reason="batch backend requires numpy"
)
def test_bench_backend_throughput():
    entries = []
    lines = [
        "B1: campaign throughput by execution backend "
        f"({BACKEND_RUNS} fixed-input runs; contention {CONTENTION_RUNS}; "
        f"median of {SCALAR_REPEATS} scalar, {BATCH_REPEATS} batch timings)",
        "",
        f"  {'campaign':22s} {'scalar r/s':>11s} {'norm':>8s} "
        f"{'batch r/s':>11s} {'norm':>8s} {'ratio':>7s}",
    ]
    norm = {}
    for name, platform_name, build in CAMPAIGNS:
        workload_label = build(platform_name)[2]
        scalar_result, scalar_walls, scalar_index, runs = _measure(
            platform_name, "scalar", build, SCALAR_REPEATS
        )
        batch_result, batch_walls, batch_index, _ = _measure(
            platform_name, "batch", build, BATCH_REPEATS
        )
        # The optimization is only admissible because it changes nothing:
        assert scalar_result.run_details == batch_result.run_details, (
            f"{name}: batch backend diverged from the scalar interpreter"
        )
        assert batch_result.backend == "batch"
        scalar_wall = statistics.median(scalar_walls)
        batch_wall = statistics.median(batch_walls)
        scalar_rate = runs / scalar_wall
        batch_rate = runs / batch_wall
        scalar_norm = normalized_rate(runs, scalar_walls, scalar_index)
        batch_norm = normalized_rate(runs, batch_walls, batch_index)
        norm[name] = (scalar_norm, batch_norm)
        entries.append(
            {
                "name": name,
                "workload": workload_label,
                "platform": platform_name,
                "runs": runs,
                "scalar_wall_s": round(scalar_wall, 4),
                "scalar_repeats": SCALAR_REPEATS,
                "scalar_host_index": round(statistics.median(scalar_index), 3),
                "scalar_runs_per_s": round(scalar_rate, 3),
                "scalar_norm_runs_per_s": round(scalar_norm, 3),
                "batch_wall_s": round(batch_wall, 4),
                "batch_wall_min_s": round(min(batch_walls), 4),
                "batch_wall_max_s": round(max(batch_walls), 4),
                "batch_repeats": BATCH_REPEATS,
                "batch_host_index": round(statistics.median(batch_index), 3),
                "batch_runs_per_s": round(batch_rate, 3),
                "batch_norm_runs_per_s": round(batch_norm, 3),
                "speedup": round(batch_rate / scalar_rate, 3),
            }
        )
        lines.append(
            f"  {name:22s} {scalar_rate:11.1f} {scalar_norm:8.1f} "
            f"{batch_rate:11.1f} {batch_norm:8.1f} "
            f"{batch_rate / scalar_rate:6.1f}x"
        )
    payload = {
        "schema": "repro.bench.backends/2",
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
        "  (gated metrics: the norm columns, runs/s of the reference host at",
        "   nominal speed, median over repetitions each bracketed by host",
        "   probes; scalar and batch are gated separately, the ratio is",
        "   reported only)",
    ]
    emit("BENCH_backends", "\n".join(lines))

    for name, floor in (
        ("fig2_pwcet_rand", MIN_FIG2_SPEEDUP),
        ("contention_rand", MIN_CONTENTION_SPEEDUP),
    ):
        required = floor * RATIO_SCALAR_NORM_RUNS_PER_S[name]
        assert norm[name][1] >= required, (
            f"{name}: normalized batch rate {norm[name][1]:.1f} runs/s is "
            f"below the floor {required:.1f} ({floor:.0f}x the ratio-era "
            f"normalized scalar rate {RATIO_SCALAR_NORM_RUNS_PER_S[name]:.1f})"
        )
