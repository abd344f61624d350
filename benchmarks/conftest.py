"""Shared fixtures for the paper-reproduction benchmarks.

The campaigns are expensive (tens of milliseconds per measured run), so
they are collected once per session and shared across benches.

Scaling: the default campaign sizes reproduce every *shape* of the
paper's evaluation in a few minutes.  Set ``REPRO_BENCH_RUNS`` to scale
the randomized-platform campaign (e.g. 3000 for the paper's exact run
count) and ``REPRO_BENCH_FULL=1`` to use the full 16 KB caches with the
full-size TVCA working set instead of the scaled-pressure configuration
(see EXPERIMENTS.md for the scaling argument).
"""

from __future__ import annotations

import gc
import importlib.util
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, List, Tuple

import pytest

from repro.api import CampaignRunner, TvcaWorkload, create_platform
from repro.core import AnalysisConfig, AnalysisPipeline
from repro.harness import CampaignConfig
from repro.workloads.tvca import TvcaApplication, TvcaConfig

#: Where benches drop their figure/table text output.
RESULTS_DIR = Path(__file__).parent / "results"

BASE_SEED = 20170327  # DATE 2017 submission-ish; any constant works

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
RAND_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "1000"))
DET_RUNS = max(200, RAND_RUNS // 2)
#: Parallel campaign shards; results are shard-invariant (deterministic
#: by-run-index merge), so this only changes wall-clock time.
SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", str(min(4, os.cpu_count() or 1))))

if FULL:
    APP_CONFIG = TvcaConfig()  # estimator 44x44, 16 KB caches
    CACHE_KB = 16
else:
    # Scaled-pressure configuration: same hot-footprint/cache ratio at
    # one quarter of the simulation cost.
    APP_CONFIG = TvcaConfig(estimator_dim=20, aero_window=32)
    CACHE_KB = 4


def _load_host_speed() -> Any:
    """``perfbench/common.py``'s ``HostSpeed``, loaded from its file
    (``perfbench/`` is not a package, and stays off ``sys.path``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("_perfbench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HostSpeed


#: The host-speed probe: a fixed reference workload (interpreted loop,
#: small-array numpy steps, JSON round trip) whose mean time on the
#: reference host is ``HostSpeed.NOMINAL_S``.
HostSpeed = _load_host_speed()

#: Probes taken just before and just after each timed repetition.
HOST_PROBES = 3


def normalized_timings(
    fn: Callable[[], Any], repeats: int
) -> Tuple[Any, List[float], List[float]]:
    """Time ``fn()`` ``repeats`` times, each bracketed by host probes.

    Returns the first result, the walls, and per repetition the host
    index: the median of the :data:`HOST_PROBES` probes just before and
    just after it, over the reference time (1.0 = the reference host at
    nominal speed, 1.3 = running 30% slow).  The median keeps one
    disturbed probe from moving the index, and one unrecorded probe runs
    first, because the first probes of a process run cold.  A rate times
    its index reads in reference-host units (see :func:`normalized_rate`).

    The heap that exists before the call is frozen out of the collector
    while timing, so a leg costs the same in a standalone session and at
    the end of a full test session with a large heap.
    """
    result = None
    walls: List[float] = []
    indices: List[float] = []
    HostSpeed().probe()
    gc.collect()
    gc.freeze()
    try:
        for _ in range(repeats):
            host = HostSpeed()
            for _ in range(HOST_PROBES):
                host.probe()
            started = time.perf_counter()
            attempt = fn()
            walls.append(time.perf_counter() - started)
            for _ in range(HOST_PROBES):
                host.probe()
            indices.append(statistics.median(host.samples) / host.NOMINAL_S)
            result = attempt if result is None else result
    finally:
        gc.unfreeze()
    return result, walls, indices


def normalized_rate(count: float, walls: List[float], indices: List[float]) -> float:
    """Median over repetitions of ``count / wall * index``: operations
    per second of the reference host at nominal speed, the unit the
    bench gate compares across sessions and hosts."""
    return statistics.median(
        count / wall * index for wall, index in zip(walls, indices)
    )


def pytest_collection_modifyitems(items):
    """Every benchmark is ``slow``: the session-scoped campaigns dominate
    the suite's wall-clock, so the fast CI lane (``-m "not slow"``)
    skips this directory wholesale.  (The hook sees the whole session's
    items, hence the directory filter.)"""
    here = str(Path(__file__).parent)
    for item in items:
        if str(item.fspath).startswith(here):
            item.add_marker(pytest.mark.slow)


#: Names emitted this session, replayed in the terminal summary (pytest
#: captures stdout at the fd level during tests, so direct writes from
#: inside a test would never reach a `| tee bench_output.txt` pipe).
_EMITTED: list = []


def emit(name: str, text: str) -> None:
    """Record bench output: a results file now, the terminal at summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _EMITTED.append(name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every emitted figure/table after capture has ended."""
    for name in _EMITTED:
        path = RESULTS_DIR / f"{name}.txt"
        if path.exists():
            terminalreporter.write_line(f"\n===== {name} =====")
            terminalreporter.write_line(path.read_text().rstrip())


@pytest.fixture(scope="session")
def app() -> TvcaApplication:
    return TvcaApplication(APP_CONFIG)


@pytest.fixture(scope="session")
def rand_campaign(app):
    """The paper's main campaign: TVCA on the randomized platform."""
    runner = CampaignRunner(
        CampaignConfig(runs=RAND_RUNS, base_seed=BASE_SEED), shards=SHARDS
    )
    platform = create_platform(
        "rand", num_cores=1, cache_kb=CACHE_KB, check_prng_health=True
    )
    return runner.run(TvcaWorkload(app=app), platform)


@pytest.fixture(scope="session")
def det_campaign(app):
    """The industrial-baseline campaign: TVCA on the DET platform."""
    runner = CampaignRunner(
        CampaignConfig(runs=DET_RUNS, base_seed=BASE_SEED), shards=SHARDS
    )
    platform = create_platform("det", num_cores=1, cache_kb=CACHE_KB)
    return runner.run(TvcaWorkload(app=app), platform)


@pytest.fixture(scope="session")
def mbpta_result(rand_campaign):
    """The MBPTA analysis of the randomized-platform campaign."""
    config = AnalysisConfig(
        min_path_samples=max(120, RAND_RUNS // 8),
        check_convergence=False,
    )
    return AnalysisPipeline(config).run(rand_campaign.samples)
