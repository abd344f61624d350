"""Scalar vs batch bit-identity: the vectorized engine's core contract.

`repro.platform.batch` promises that, for every supported
configuration, batching R replications of one trace produces exactly
the per-run :class:`RunResult` sequence of the scalar interpreter —
cycles, hit/miss/eviction counters, PRNG draw effects and bus
contention included.  These tests pin that contract:

* direct parity on the two paper platforms (RAND / DET),
* hypothesis-driven parity over the program x placement x replacement
  x TLB x FPU x memory x bus configuration space,
* the segmented (multi-job, TVCA-style) run protocol,
* lane independence (a run's result does not depend on which other
  runs share its batch),
* the unsupported-configuration and numpy-absent fallbacks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import batch as batch_mod
from repro.platform.batch import (
    BatchUnsupported,
    batch_unsupported_reason,
    numpy_available,
    run_batch,
    run_batch_segments,
)
from repro.platform.bus import BusConfig
from repro.platform.cache import CacheConfig
from repro.platform.core import CoreConfig
from repro.platform.fpu import FpuConfig, FpuMode
from repro.platform.memory import MemoryConfig
from repro.platform.prng import SplitMix64
from repro.platform.soc import Platform, PlatformConfig, leon3_det, leon3_rand
from repro.platform.tlb import TlbConfig
from repro.platform.trace import InstrKind, Trace

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend requires numpy"
)


# ----------------------------------------------------------------------
# Trace/platform construction helpers
# ----------------------------------------------------------------------


def build_trace(seed: int, length: int, code_span: int = 400,
                data_span: int = 600) -> Trace:
    """A deterministic pseudo-random trace covering every kind class."""
    rng = SplitMix64(seed)
    trace = Trace()
    pc = 0x4000_0000
    for _ in range(length):
        roll = rng.randint(100)
        if roll < 28:
            trace.append(
                InstrKind.LOAD, pc,
                addr=0x1000 + rng.randint(data_span) * 4,
                dep_distance=rng.randint(4),
            )
        elif roll < 45:
            trace.append(
                InstrKind.STORE, pc, addr=0x1000 + rng.randint(data_span) * 4
            )
        elif roll < 55:
            trace.append(InstrKind.BRANCH, pc, taken=rng.randint(2) == 0)
            if rng.randint(3) == 0:
                pc = 0x4000_0000 + rng.randint(code_span) * 4
        elif roll < 63:
            kind = (InstrKind.FDIV, InstrKind.FSQRT, InstrKind.FADD,
                    InstrKind.FCMP)[rng.randint(4)]
            trace.append(kind, pc, operand_class=rng.random())
        elif roll < 70:
            trace.append(
                (InstrKind.IMUL, InstrKind.IDIV)[rng.randint(2)], pc
            )
        else:
            trace.append(InstrKind.ALU, pc)
        pc += 4
    return trace


def assert_runs_identical(platform_factory, trace, seeds, core_id=0):
    """Scalar runs and one batched pass must agree on every field."""
    scalar_platform = platform_factory()
    expected = [
        scalar_platform.run(trace, seed, core_id=core_id) for seed in seeds
    ]
    batch_platform = platform_factory()
    reason = batch_unsupported_reason(batch_platform, core_id)
    assert reason is None, reason
    actual = run_batch(batch_platform, trace, seeds, core_id=core_id)
    assert actual == expected


SEEDS = [20170 + 7 * i for i in range(9)]


def test_rand_platform_bit_identical():
    trace = build_trace(1, 3000)
    assert_runs_identical(lambda: leon3_rand(cache_kb=1), trace, SEEDS)


def test_det_platform_bit_identical():
    trace = build_trace(2, 3000)
    assert_runs_identical(lambda: leon3_det(cache_kb=1), trace, SEEDS)


def test_hash_random_placement_bit_identical():
    trace = build_trace(3, 2000)
    assert_runs_identical(
        lambda: leon3_rand(cache_kb=1, placement="hash_random"), trace, SEEDS
    )


def test_operation_mode_fpu_bit_identical():
    trace = build_trace(4, 2000)
    assert_runs_identical(
        lambda: leon3_rand(cache_kb=1, fpu_mode=FpuMode.OPERATION),
        trace,
        SEEDS,
    )


def test_nonzero_core_id_bit_identical():
    trace = build_trace(5, 1500)
    assert_runs_identical(
        lambda: leon3_rand(num_cores=4, cache_kb=1), trace, SEEDS[:5],
        core_id=2,
    )


# ----------------------------------------------------------------------
# Hypothesis sweep over the configuration x program space
# ----------------------------------------------------------------------


@st.composite
def platform_cases(draw):
    """A platform configuration the batch engine claims to support."""
    ways = draw(st.integers(min_value=1, max_value=5))
    sets = draw(st.sampled_from([4, 8, 16]))
    line_bytes = draw(st.sampled_from([16, 32]))
    placement = draw(
        st.sampled_from(["modulo", "random_modulo", "hash_random"])
    )
    replacement = draw(st.sampled_from(["random", "lru", "round_robin"]))
    tlb_replacement = draw(st.sampled_from(["random", "lru", "round_robin"]))
    cache = CacheConfig(
        size_bytes=ways * sets * line_bytes,
        line_bytes=line_bytes,
        ways=ways,
        placement=placement,
        replacement=replacement,
        write_through_no_allocate=draw(st.booleans()),
    )
    tlb = TlbConfig(
        entries=draw(st.integers(min_value=2, max_value=8)),
        replacement=tlb_replacement,
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
    num_cores = draw(st.integers(min_value=1, max_value=4))
    memory = MemoryConfig(
        page_policy=draw(st.sampled_from(["closed", "open"])),
        refresh_interval_cycles=draw(st.sampled_from([0, 257, 800])),
    )
    bus = BusConfig(
        num_masters=num_cores,
        strict_rr_arbitration=draw(st.booleans()),
    )
    config = PlatformConfig(
        num_cores=num_cores, core=core, memory=memory, bus=bus
    )
    core_id = draw(st.integers(min_value=0, max_value=num_cores - 1))
    return config, core_id


@settings(max_examples=25, deadline=None)
@given(
    case=platform_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
)
def test_parity_over_config_and_program_space(case, trace_seed, base_seed):
    config, core_id = case
    trace = build_trace(trace_seed, 400, code_span=120, data_span=200)
    seeds = [base_seed + 11 * i for i in range(4)]
    assert_runs_identical(
        lambda: Platform(config), trace, seeds, core_id=core_id
    )


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(
    case=platform_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
)
def test_parity_sweep_deep(case, trace_seed, base_seed):
    config, core_id = case
    trace = build_trace(trace_seed, 700, code_span=250, data_span=400)
    seeds = [base_seed + 7 * i for i in range(6)]
    assert_runs_identical(
        lambda: Platform(config), trace, seeds, core_id=core_id
    )


# ----------------------------------------------------------------------
# Segmented (multi-job) protocol
# ----------------------------------------------------------------------


def test_segments_match_scalar_job_protocol():
    """Per-segment clocks restart while hardware state carries over —
    exactly the TvcaApplication.run_once protocol."""
    segments = [build_trace(40 + i, 500, data_span=200) for i in range(4)]
    seeds = SEEDS[:6]
    scalar_platform = leon3_rand(cache_kb=1)
    expected = []
    for seed in seeds:
        scalar_platform.reset(seed)
        core = scalar_platform.cores[0]
        expected.append(
            tuple(core.execute(segment).cycles for segment in segments)
        )
    outcome = run_batch_segments(leon3_rand(cache_kb=1), segments, seeds)
    assert outcome.segment_cycles == expected
    assert [sum(cycles) for cycles in expected] == [
        result.cycles for result in outcome.results
    ]


def test_lane_independence():
    """A run's outcome must not depend on its batch companions."""
    trace = build_trace(50, 1200)
    combined = run_batch(leon3_rand(cache_kb=1), trace, SEEDS)
    solo = [
        run_batch(leon3_rand(cache_kb=1), trace, [seed])[0] for seed in SEEDS
    ]
    assert combined == solo


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------


def _platform_with(
    replacement: str,
    placement: str = "random_modulo",
    tlb_replacement: str = "random",
):
    cache = CacheConfig(
        size_bytes=4 * 32 * 8, line_bytes=32, ways=4,
        placement=placement, replacement=replacement,
    )
    tlb = TlbConfig(entries=8, replacement=tlb_replacement)
    return Platform(
        PlatformConfig(
            num_cores=1,
            core=CoreConfig(icache=cache, dcache=cache, itlb=tlb, dtlb=tlb),
        )
    )


def test_plru_on_randomized_platform_is_unsupported():
    platform = _platform_with("plru")
    assert batch_unsupported_reason(platform) is not None
    with pytest.raises(BatchUnsupported):
        run_batch(platform, build_trace(6, 50), [1, 2])


def test_plru_on_deterministic_platform_uses_degenerate_path():
    """PLRU consumes no randomness: a deterministic platform broadcasts
    one scalar reference run, bit-identically."""
    trace = build_trace(7, 800)

    def factory():
        return _platform_with(
            "plru", placement="modulo", tlb_replacement="lru"
        )

    assert batch_unsupported_reason(factory()) is None
    assert_runs_identical(factory, trace, SEEDS[:4])


def test_out_of_range_core_id_is_unsupported():
    platform = leon3_rand(num_cores=2, cache_kb=1)
    assert batch_unsupported_reason(platform, core_id=2) is not None


def test_numpy_absence_reports_unsupported(monkeypatch):
    monkeypatch.setattr(batch_mod, "_np", None)
    assert not batch_mod.numpy_available()
    randomized = leon3_rand(cache_kb=1)
    assert batch_unsupported_reason(randomized) is not None
    # Deterministic platforms keep their numpy-free degenerate path.
    assert batch_unsupported_reason(leon3_det(cache_kb=1)) is None


def test_empty_inputs_rejected():
    platform = leon3_rand(cache_kb=1)
    with pytest.raises(ValueError):
        run_batch_segments(platform, [build_trace(8, 10)], [])
    with pytest.raises(ValueError):
        run_batch_segments(platform, [], [1])
