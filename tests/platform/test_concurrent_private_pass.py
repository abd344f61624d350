"""The co-scheduled engine's premise and the edge cases of its merge.

`repro.platform.batch_concurrent` runs each core's caches and TLBs once,
in broadcast form, before the shared merge.  That is exact only if a
core's private state does not depend on the interleave: its cache and
TLB counters after ``n`` instructions must be those of the core running
alone for ``n`` instructions.  The property test below checks that
premise on the scalar platform itself; the remaining tests pin merge
edge cases against the scalar interleave, and the bus's request forms.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import CoreStepper
from repro.platform.batch import _VecBus, numpy_available
from repro.platform import batch_concurrent as concurrent_mod
from repro.platform.batch_concurrent import run_concurrent_batch
from repro.platform.bus import BusConfig
from repro.platform.cache import CacheConfig
from repro.platform.core import CoreConfig
from repro.platform.soc import Platform, PlatformConfig, leon3_rand
from repro.platform.tlb import TlbConfig
from repro.platform.trace import InstrKind, Trace
from repro.workloads.opponents import (
    cpu_burn_trace,
    full_rand_trace,
    memory_hammer_trace,
)

from test_batch_backend import build_trace
from test_concurrent_batch import build_scenario, concurrent_cases

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend requires numpy"
)

SEEDS = [4041 + 13 * i for i in range(6)]


def assert_matches_scalar(platform_factory, traces, seeds, analysis_core=None,
                          loop=True):
    scalar = platform_factory()
    expected = [
        scalar.run_concurrent(traces, seed, analysis_core, loop)
        for seed in seeds
    ]
    actual = run_concurrent_batch(
        platform_factory(), traces, seeds, analysis_core, loop
    )
    assert actual == expected


# ----------------------------------------------------------------------
# Premise: private state is a function of (trace, seed, count) only
# ----------------------------------------------------------------------


@st.composite
def private_configs(draw):
    ways = draw(st.integers(min_value=1, max_value=4))
    sets = draw(st.sampled_from([4, 8]))
    cache = CacheConfig(
        size_bytes=ways * sets * 16,
        line_bytes=16,
        ways=ways,
        placement=draw(
            st.sampled_from(["modulo", "random_modulo", "hash_random"])
        ),
        replacement=draw(st.sampled_from(["random", "lru", "round_robin"])),
        write_through_no_allocate=draw(st.booleans()),
    )
    tlb = TlbConfig(
        entries=draw(st.integers(min_value=2, max_value=6)),
        replacement=draw(st.sampled_from(["random", "lru", "round_robin"])),
    )
    num_cores = draw(st.integers(min_value=2, max_value=4))
    return PlatformConfig(
        num_cores=num_cores,
        core=CoreConfig(icache=cache, dcache=cache, itlb=tlb, dtlb=tlb),
        bus=BusConfig(num_masters=num_cores),
    )


@settings(max_examples=25, deadline=None)
@given(
    config=private_configs(),
    analysis_index=st.integers(min_value=0, max_value=3),
    loop=st.booleans(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_private_state_is_interleave_independent(
    config, analysis_index, loop, trace_seed, seed
):
    cores = range(config.num_cores)
    analysis_core = analysis_index % config.num_cores
    builders = (memory_hammer_trace, full_rand_trace, cpu_burn_trace)
    traces = {
        core_id: (
            build_trace(trace_seed, 200, data_span=300)
            if core_id == analysis_core
            else builders[core_id % 3](90, trace_seed + core_id, core_id)
        )
        for core_id in cores
    }
    result = Platform(config).run_concurrent(traces, seed, analysis_core, loop)
    for core_id in cores:
        shared = result.per_core[core_id]
        solo_platform = Platform(config)
        solo_platform.reset(seed)
        stepper = CoreStepper(
            solo_platform.cores[core_id],
            traces[core_id],
            loop=loop and core_id != analysis_core,
        )
        assert stepper.advance(shared.instructions) == shared.instructions
        solo = stepper.result()
        assert (solo.icache, solo.dcache, solo.itlb, solo.dtlb) == (
            shared.icache,
            shared.dcache,
            shared.itlb,
            shared.dtlb,
        )


# ----------------------------------------------------------------------
# Merge edge cases, against the scalar interleave
# ----------------------------------------------------------------------


def _hammers(num_cores, length=120):
    return {
        core_id: memory_hammer_trace(length, 300 + core_id, core_id)
        for core_id in range(1, num_cores)
    }


def test_empty_analysis_trace():
    traces = {0: Trace(), **_hammers(3)}
    assert_matches_scalar(
        lambda: leon3_rand(num_cores=3, cache_kb=1), traces, SEEDS[:3]
    )


@pytest.mark.parametrize("loop", [True, False])
def test_empty_co_runner(loop):
    traces = {0: build_trace(6, 300, data_span=200), 1: Trace(),
              2: memory_hammer_trace(80, 9, 2)}
    assert_matches_scalar(
        lambda: leon3_rand(num_cores=3, cache_kb=1), traces, SEEDS[:4],
        loop=loop,
    )


def test_single_entry_mapping_equals_run():
    trace = build_trace(7, 500, data_span=300)
    results = run_concurrent_batch(leon3_rand(cache_kb=1), {0: trace}, SEEDS)
    platform = leon3_rand(cache_kb=1)
    assert [r.per_core[0] for r in results] == [
        platform.run(trace, seed) for seed in SEEDS
    ]


def test_identical_co_runners_tie_to_core_id():
    opponent = memory_hammer_trace(100, 17, 1)
    traces = {0: build_trace(8, 300, data_span=200), 1: opponent,
              2: opponent, 3: opponent}
    assert_matches_scalar(lambda: leon3_rand(cache_kb=1), traces, SEEDS)


def test_analysis_core_is_highest_scheduled_id():
    traces = {3: build_trace(9, 300, data_span=200), **_hammers(3)}
    assert_matches_scalar(
        lambda: leon3_rand(cache_kb=1), traces, SEEDS, analysis_core=3
    )


def _stretchy_trace(length):
    """Sparse loads between long runs of ALU/IMUL work in an 8-instruction
    code loop, so co-runner halts land inside private stretches."""
    trace = Trace()
    pc = 0x5000_0000
    for i in range(length):
        if i % 40 == 0:
            trace.append(InstrKind.LOAD, pc, addr=0x9000_0000 + 64 * i)
        else:
            trace.append(InstrKind.IMUL if i % 3 else InstrKind.ALU, pc)
        pc += 4
        if i % 8 == 7:
            pc = 0x5000_0000
    return trace


@pytest.mark.parametrize("loop", [True, False])
def test_halt_inside_private_stretch(loop):
    traces = {0: build_trace(10, 350, data_span=250),
              1: _stretchy_trace(400), 2: cpu_burn_trace(150, 4, 2)}
    assert_matches_scalar(
        lambda: leon3_rand(num_cores=3, cache_kb=1), traces, SEEDS,
        loop=loop,
    )


# ----------------------------------------------------------------------
# Bus request forms
# ----------------------------------------------------------------------


@pytest.mark.parametrize("is_line", [True, False])
def test_bus_slice_and_index_forms_agree(is_line):
    np = pytest.importorskip("numpy")
    runs = 5
    now = np.array([3, 0, 9, 4, 7], dtype=np.int64)
    rows = np.array([0, 2, 1, 1, 0])
    buses = [_VecBus(BusConfig(num_masters=4), runs, [0, 1, 2]) for _ in range(2)]
    for _ in range(3):
        costs = [
            buses[0].request_idx(rows, slice(None), now, is_line),
            buses[1].request_idx(rows, np.arange(runs), now, is_line),
        ]
        assert (costs[0] == costs[1]).all()
        now = now + costs[0]
    sliced, indexed = buses
    assert [sliced.stats_for(run) for run in range(runs)] == [
        indexed.stats_for(run) for run in range(runs)
    ]
    # One transaction per run and request, by the issuing core only.
    for run in range(runs):
        stats = buses[0].stats_for(run)
        assert stats.transactions_by_master == {rows[run]: 3}


@pytest.mark.parametrize("opponent", [memory_hammer_trace, cpu_burn_trace,
                                      full_rand_trace])
def test_small_chunks_match_scalar(monkeypatch, opponent):
    """Minimal chunks: many generations per pass, ring growth, and
    snapshots taken after early chunks were released."""
    monkeypatch.setattr(concurrent_mod, "_CHUNK_CELLS", 1)
    traces = {0: build_trace(12, 500, data_span=400),
              **{core: opponent(70, 50 + core, core) for core in (1, 2, 3)}}
    assert_matches_scalar(lambda: leon3_rand(cache_kb=1), traces, SEEDS)


@pytest.mark.parametrize("opponent", [cpu_burn_trace, memory_hammer_trace])
def test_chunks_released_past_steady_co_runners(monkeypatch, opponent):
    """A co-runner whose runs stop issuing bus requests keeps no chunk
    history: kept chunks stay few however long the analysis runs."""
    monkeypatch.setattr(concurrent_mod, "_CHUNK_CELLS", 1)
    generate = concurrent_mod._CoreStream.generate
    kept = []

    def counting(stream, width):
        records = generate(stream, width)
        kept.append(len(stream.chunks))
        return records

    monkeypatch.setattr(concurrent_mod._CoreStream, "generate", counting)
    traces = {0: build_trace(13, 6000, data_span=300),
              **{core: opponent(60, 70 + core, core) for core in (1, 2, 3)}}
    assert_matches_scalar(lambda: leon3_rand(cache_kb=4), traces, SEEDS)
    assert len(kept) > 100
    assert max(kept) <= 8


def test_ring_widens_past_narrow_clocks(monkeypatch):
    """Records whose private clock outgrows the ring's narrow fields
    widen the ring instead of wrapping or refusing the run."""
    monkeypatch.setattr(concurrent_mod, "_NARROW_MAX", 500)
    run = concurrent_mod._ConcurrentEngine.run
    engines = []

    def recording(engine):
        engines.append(engine)
        return run(engine)

    monkeypatch.setattr(concurrent_mod._ConcurrentEngine, "run", recording)
    traces = {0: build_trace(14, 400, data_span=300), **_hammers(3)}
    assert_matches_scalar(lambda: leon3_rand(cache_kb=1), traces, SEEDS)
    assert engines[0].ring_clock.dtype.itemsize == 8


@settings(max_examples=25, deadline=None)
@given(
    case=concurrent_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
)
def test_small_chunks_over_config_space(case, trace_seed, base_seed):
    """Minimal chunks across the config space: chunk release and halt
    snapshots from kept chunks only, for every opponent and policy."""
    config, analysis_core, opponent, loop = case
    traces = build_scenario(
        config.num_cores, opponent, analysis_core=analysis_core,
        length=300, opponent_length=120, trace_seed=trace_seed,
    )
    seeds = [base_seed + 13 * i for i in range(5)]
    with mock.patch.object(concurrent_mod, "_CHUNK_CELLS", 1):
        assert_matches_scalar(
            lambda: Platform(config), traces, seeds, analysis_core, loop
        )
