"""Scalar vs batch bit-identity for the co-scheduled (multicore) engine.

`repro.platform.batch_concurrent` promises that batching R replications
of one scenario — an analysis trace plus looping co-runner traces —
reproduces the scalar ``run_concurrent`` interleave exactly: per-core
cycle and instruction counts, every cache/TLB/FPU/pipeline counter, the
bus per-master contention/transaction splits and the DRAM breakdown.
These tests pin that contract:

* direct parity on the paper platforms against each opponent family,
* non-default analysis cores and non-looping co-runners,
* hypothesis-driven parity over the scenario x placement x replacement
  x write-allocate x bus arbitration x memory configuration space,
* lane independence (a run's result must not depend on its batch
  companions),
* the deterministic degenerate path and the unsupported/numpy-absent
  fallbacks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import batch as batch_mod
from repro.platform import batch_concurrent as concurrent_mod
from repro.platform.batch import BatchUnsupported, numpy_available
from repro.platform.batch_concurrent import (
    concurrent_batch_unsupported_reason,
    run_concurrent_batch,
)
from repro.platform.bus import BusConfig
from repro.platform.cache import CacheConfig
from repro.platform.core import CoreConfig
from repro.platform.fpu import FpuConfig, FpuMode
from repro.platform.memory import MemoryConfig
from repro.platform.soc import Platform, PlatformConfig, leon3_det, leon3_rand
from repro.platform.tlb import TlbConfig
from repro.workloads.opponents import (
    cpu_burn_trace,
    full_rand_trace,
    memory_hammer_trace,
)

from test_batch_backend import build_trace

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend requires numpy"
)


# ----------------------------------------------------------------------
# Scenario construction helpers
# ----------------------------------------------------------------------

_OPPONENTS = {
    "memory-hammer": memory_hammer_trace,
    "cpu-burn": cpu_burn_trace,
    "full-rand": full_rand_trace,
}


def build_scenario(num_cores, opponent, analysis_core=0, length=600,
                   opponent_length=200, trace_seed=11):
    """An analysis trace plus one opponent trace per remaining core."""
    traces = {analysis_core: build_trace(trace_seed, length, data_span=200)}
    if opponent is not None:
        builder = _OPPONENTS[opponent]
        for core_id in range(num_cores):
            if core_id != analysis_core:
                traces[core_id] = builder(opponent_length, 1000 + core_id,
                                          core_id)
    return traces


def assert_concurrent_identical(platform_factory, traces, seeds,
                                analysis_core=None, loop=True):
    """Scalar runs and one batched pass must agree on every field."""
    scalar_platform = platform_factory()
    expected = [
        scalar_platform.run_concurrent(
            traces, seed, analysis_core=analysis_core, loop_co_runners=loop
        )
        for seed in seeds
    ]
    batch_platform = platform_factory()
    reason = concurrent_batch_unsupported_reason(
        batch_platform, sorted(traces)
    )
    assert reason is None, reason
    actual = run_concurrent_batch(
        batch_platform, traces, seeds,
        analysis_core=analysis_core, loop_co_runners=loop,
    )
    assert actual == expected


SEEDS = [20170 + 7 * i for i in range(8)]


@pytest.mark.parametrize("opponent", sorted(_OPPONENTS))
def test_rand_platform_bit_identical(opponent):
    traces = build_scenario(4, opponent)
    assert_concurrent_identical(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS, analysis_core=0
    )


def test_isolation_scenario_bit_identical():
    traces = build_scenario(4, None)
    assert_concurrent_identical(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS, analysis_core=0
    )


def test_det_platform_uses_degenerate_path():
    traces = build_scenario(4, "memory-hammer")
    assert_concurrent_identical(
        lambda: leon3_det(cache_kb=1), traces, SEEDS, analysis_core=0
    )


def test_nonzero_analysis_core_bit_identical():
    traces = build_scenario(4, "memory-hammer", analysis_core=2)
    assert_concurrent_identical(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS[:5], analysis_core=2
    )


def test_non_looping_co_runners_bit_identical():
    traces = build_scenario(4, "full-rand", opponent_length=80)
    assert_concurrent_identical(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS[:5],
        analysis_core=0, loop=False,
    )


def test_sparse_core_subset_bit_identical():
    """Only a subset of the platform's cores is scheduled."""
    traces = {
        1: build_trace(21, 500, data_span=200),
        3: memory_hammer_trace(150, 77, 3),
    }
    assert_concurrent_identical(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS[:5], analysis_core=1
    )


def test_lane_independence():
    """A run's outcome must not depend on which runs share its batch."""
    traces = build_scenario(4, "memory-hammer")
    combined = run_concurrent_batch(
        leon3_rand(cache_kb=1), traces, SEEDS, analysis_core=0
    )
    solo = [
        run_concurrent_batch(
            leon3_rand(cache_kb=1), traces, [seed], analysis_core=0
        )[0]
        for seed in SEEDS
    ]
    assert combined == solo


# ----------------------------------------------------------------------
# Hypothesis sweep over the scenario x configuration space
# ----------------------------------------------------------------------


@st.composite
def concurrent_cases(draw):
    """A multicore platform + scenario the engine claims to support."""
    ways = draw(st.integers(min_value=1, max_value=4))
    sets = draw(st.sampled_from([4, 8]))
    line_bytes = draw(st.sampled_from([16, 32]))
    cache = CacheConfig(
        size_bytes=ways * sets * line_bytes,
        line_bytes=line_bytes,
        ways=ways,
        placement=draw(
            st.sampled_from(["modulo", "random_modulo", "hash_random"])
        ),
        replacement=draw(st.sampled_from(["random", "lru", "round_robin"])),
        write_through_no_allocate=draw(st.booleans()),
    )
    tlb = TlbConfig(
        entries=draw(st.integers(min_value=2, max_value=8)),
        replacement=draw(st.sampled_from(["random", "lru", "round_robin"])),
    )
    core = CoreConfig(
        icache=cache,
        dcache=cache,
        itlb=tlb,
        dtlb=tlb,
        fpu=FpuConfig(
            mode=draw(st.sampled_from([FpuMode.ANALYSIS, FpuMode.OPERATION]))
        ),
        store_buffer_depth=draw(st.integers(min_value=1, max_value=4)),
    )
    num_cores = draw(st.integers(min_value=2, max_value=4))
    memory = MemoryConfig(
        page_policy=draw(st.sampled_from(["closed", "open"])),
        refresh_interval_cycles=draw(st.sampled_from([0, 257])),
    )
    bus = BusConfig(
        num_masters=num_cores,
        strict_rr_arbitration=draw(st.booleans()),
    )
    config = PlatformConfig(
        num_cores=num_cores, core=core, memory=memory, bus=bus
    )
    analysis_core = draw(st.integers(min_value=0, max_value=num_cores - 1))
    opponent = draw(st.sampled_from(sorted(_OPPONENTS) + [None]))
    loop = draw(st.booleans())
    return config, analysis_core, opponent, loop


@settings(max_examples=25, deadline=None)
@given(
    case=concurrent_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
)
def test_parity_over_scenario_and_config_space(case, trace_seed, base_seed):
    config, analysis_core, opponent, loop = case
    traces = build_scenario(
        config.num_cores, opponent, analysis_core=analysis_core,
        length=300, opponent_length=120, trace_seed=trace_seed,
    )
    seeds = [base_seed + 11 * i for i in range(3)]
    assert_concurrent_identical(
        lambda: Platform(config), traces, seeds,
        analysis_core=analysis_core, loop=loop,
    )


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(
    case=concurrent_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
)
def test_parity_sweep_deep(case, trace_seed, base_seed):
    config, analysis_core, opponent, loop = case
    traces = build_scenario(
        config.num_cores, opponent, analysis_core=analysis_core,
        length=500, opponent_length=200, trace_seed=trace_seed,
    )
    seeds = [base_seed + 7 * i for i in range(4)]
    assert_concurrent_identical(
        lambda: Platform(config), traces, seeds,
        analysis_core=analysis_core, loop=loop,
    )


# ----------------------------------------------------------------------
# Fallbacks and input validation
# ----------------------------------------------------------------------


def _rand_platform_with(replacement: str) -> Platform:
    cache = CacheConfig(
        size_bytes=4 * 32 * 8, line_bytes=32, ways=4,
        placement="random_modulo", replacement=replacement,
    )
    tlb = TlbConfig(entries=8, replacement="random")
    return Platform(
        PlatformConfig(
            num_cores=2,
            core=CoreConfig(icache=cache, dcache=cache, itlb=tlb, dtlb=tlb),
            bus=BusConfig(num_masters=2),
        )
    )


def test_plru_on_randomized_platform_is_unsupported():
    platform = _rand_platform_with("plru")
    traces = build_scenario(2, "cpu-burn")
    assert concurrent_batch_unsupported_reason(platform, (0, 1)) is not None
    with pytest.raises(BatchUnsupported):
        run_concurrent_batch(platform, traces, [1, 2])


def test_grant_logging_is_unsupported():
    platform = Platform(
        PlatformConfig(
            num_cores=2, bus=BusConfig(num_masters=2, record_grants=True)
        )
    )
    reason = concurrent_batch_unsupported_reason(platform, (0, 1))
    assert reason is not None and "grant" in reason


def test_out_of_range_core_is_unsupported():
    platform = leon3_rand(num_cores=2, cache_kb=1)
    assert concurrent_batch_unsupported_reason(platform, (0, 2)) is not None


def test_numpy_absence_reports_unsupported(monkeypatch):
    monkeypatch.setattr(batch_mod, "_np", None)
    monkeypatch.setattr(concurrent_mod, "_np", None)
    rand = leon3_rand(cache_kb=1)
    assert concurrent_batch_unsupported_reason(rand, (0, 1)) is not None
    # Deterministic platforms keep their numpy-free degenerate path.
    det = leon3_det(cache_kb=1)
    assert concurrent_batch_unsupported_reason(det, (0, 1)) is None
    traces = build_scenario(2, "cpu-burn", length=60, opponent_length=30)
    results = run_concurrent_batch(det, traces, [1, 2, 3])
    assert len(results) == 3 and results[0] == results[1] == results[2]


def test_empty_inputs_rejected():
    platform = leon3_rand(cache_kb=1)
    traces = build_scenario(2, None, length=10)
    with pytest.raises(ValueError):
        run_concurrent_batch(platform, traces, [])
    with pytest.raises(ValueError):
        run_concurrent_batch(platform, {}, [1])
    with pytest.raises(ValueError):
        run_concurrent_batch(platform, traces, [1], analysis_core=1)
