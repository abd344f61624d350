"""Compiled ``Core.execute`` vs the per-instruction ``CoreStepper``.

``Core.execute`` compiles a trace into an event list (trace-pure costs
folded into gaps) and drains only the fetch-line changes and loads/
stores through the stateful models.  The single-core vector engine
consumes the same compile, so the batch parity suites, which compare
against ``Core.execute``, cannot catch a compile bug.  The oracle here
is therefore the stepper, which runs every instruction through every
model: random traces on random configurations must give equal
``RunResult``s and leave equal hardware state behind.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.batch import batch_unsupported_reason, numpy_available, run_batch
from repro.platform.bus import BusConfig
from repro.platform.cache import CacheConfig
from repro.platform.core import CoreConfig
from repro.platform.fpu import FpuConfig, FpuMode
from repro.platform.memory import MemoryConfig
from repro.platform.soc import Platform, PlatformConfig, leon3_det, leon3_rand
from repro.platform.tlb import TlbConfig
from repro.platform.trace import FP_KINDS, MEMORY_KINDS, InstrKind, Trace

CODE_BASE = 0x4000_0000
DATA_BASE = 0x0010_0000

#: FDIV/FSQRT operand classes: inside and outside [0, 1], and non-finite.
operand_classes = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.sampled_from([0.0, 1.0, float("nan"), float("inf"), -float("inf")]),
)

instructions = st.tuples(
    st.sampled_from(list(InstrKind)),
    st.integers(min_value=0, max_value=3),  # dep_distance
    st.booleans(),  # taken
    operand_classes,
    st.integers(min_value=0, max_value=7),  # jump when 0: page-crossing code
    st.integers(min_value=0, max_value=4095),  # code slot of a jump
    st.integers(min_value=0, max_value=4095),  # data slot
)


def make_trace(spec) -> Trace:
    """A trace from drawn instruction tuples: sequential code with
    occasional jumps across a 16 KB code span, data over 16 KB."""
    trace = Trace()
    pc = CODE_BASE
    for kind, dep, taken, op_class, jump, code_slot, data_slot in spec:
        addr = DATA_BASE + data_slot * 4 if kind in MEMORY_KINDS else -1
        trace.append(
            kind,
            pc,
            addr=addr,
            operand_class=op_class if kind in FP_KINDS else 0.0,
            dep_distance=dep,
            taken=taken,
        )
        pc = CODE_BASE + code_slot * 4 if jump == 0 else pc + 4
    return trace


@st.composite
def cache_configs(draw):
    line = draw(st.sampled_from([16, 32]))
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([2, 4, 8]))
    return CacheConfig(
        size_bytes=line * ways * sets,
        line_bytes=line,
        ways=ways,
        placement=draw(st.sampled_from(["modulo", "random_modulo", "hash_random"])),
        replacement=draw(st.sampled_from(["lru", "random", "round_robin", "plru"])),
        write_through_no_allocate=draw(st.booleans()),
    )


@st.composite
def tlb_configs(draw):
    return TlbConfig(
        entries=draw(st.integers(min_value=1, max_value=8)),
        page_bytes=draw(st.sampled_from([64, 256, 4096])),
        replacement=draw(st.sampled_from(["lru", "random", "round_robin"])),
        walk_penalty_cycles=draw(st.sampled_from([0, 30])),
    )


@st.composite
def platform_configs(draw):
    core = CoreConfig(
        icache=draw(cache_configs()),
        dcache=draw(cache_configs()),
        itlb=draw(tlb_configs()),
        dtlb=draw(tlb_configs()),
        fpu=FpuConfig(mode=draw(st.sampled_from(list(FpuMode)))),
        store_buffer_depth=draw(st.integers(min_value=1, max_value=8)),
    )
    masters = draw(st.integers(min_value=1, max_value=2))
    return PlatformConfig(
        num_cores=masters,
        core=core,
        bus=BusConfig(num_masters=masters),
        memory=MemoryConfig(
            page_policy=draw(st.sampled_from(["closed", "open"])),
            refresh_interval_cycles=draw(st.sampled_from([0, 97])),
        ),
    )


segments_strategy = st.lists(
    st.tuples(
        st.lists(instructions, min_size=0, max_size=80),
        st.sampled_from([0, 0, 17, 123_456]),  # start_cycle
    ),
    min_size=1,
    max_size=3,
)


def hardware_state(platform: Platform):
    """Everything a later segment or run could observe."""
    core = platform.cores[0]
    return (
        list(core._store_buffer_ready),
        [list(ways) for ways in core.icache._tags],
        [list(ways) for ways in core.dcache._tags],
        list(core.itlb._entries),
        list(core.dtlb._entries),
        platform.bus.stats.copy(),
        platform.bus._busy_until,
        platform.memory.stats.to_dict(),
    )


def check_against_stepper(config, segments, seed, chunk):
    compiled = Platform(config)
    stepped = Platform(config)
    compiled.reset(seed)
    stepped.reset(seed)
    for spec, start_cycle in segments:
        trace = make_trace(spec)
        expected_stepper = stepped.cores[0].stepper(trace, start_cycle=start_cycle)
        while not expected_stepper.done:
            expected_stepper.advance(chunk)
        expected = expected_stepper.result()
        actual = compiled.cores[0].execute(trace, start_cycle=start_cycle)
        assert actual == expected
        assert hardware_state(compiled) == hardware_state(stepped)


@given(
    config=platform_configs(),
    segments=segments_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
    chunk=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_execute_matches_stepper(config, segments, seed, chunk):
    check_against_stepper(config, segments, seed, chunk)


@pytest.mark.slow
@given(
    config=platform_configs(),
    segments=segments_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
    chunk=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=400, deadline=None)
def test_execute_matches_stepper_sweep(config, segments, seed, chunk):
    check_against_stepper(config, segments, seed, chunk)


def test_empty_trace():
    platform = leon3_rand(num_cores=1, cache_kb=1)
    platform.reset(5)
    result = platform.cores[0].execute(Trace(), start_cycle=40)
    assert result.cycles == 0
    assert result.instructions == 0
    assert result.pipeline.instructions == 0


def nan_class_spec():
    """FDIV/FSQRT with NaN and in-range classes between memory traffic."""
    kinds = (
        InstrKind.FDIV,
        InstrKind.LOAD,
        InstrKind.FSQRT,
        InstrKind.STORE,
        InstrKind.ALU,
    )
    return [
        (
            kinds[i % 5],
            i % 4,
            False,
            float("nan") if i % 3 == 0 else (i % 7) / 7,
            i % 9,
            (i * 37) % 4096,
            i % 512,
        )
        for i in range(400)
    ]


def test_nan_operand_class_execute_matches_stepper():
    spec = nan_class_spec()
    assert math.isnan(make_trace(spec).operand_classes[0])
    config = leon3_rand(num_cores=1, cache_kb=1, fpu_mode=FpuMode.OPERATION).config
    check_against_stepper(config, [(spec, 0), (spec, 9)], 11, 50)


@pytest.mark.skipif(not numpy_available(), reason="batch engine requires numpy")
def test_nan_operand_class_batch_parity():
    """The vector engine charges a NaN class exactly as the scalar path."""
    trace = make_trace(nan_class_spec())

    def platform():
        return leon3_rand(num_cores=1, cache_kb=1, fpu_mode=FpuMode.OPERATION)

    seeds = [3, 5, 8, 13]
    reference = platform()
    expected = [reference.run(trace, seed) for seed in seeds]
    assert run_batch(platform(), trace, seeds) == expected


@pytest.mark.skipif(numpy_available(), reason="checks the numpy-free fallback")
def test_without_numpy_campaigns_fall_back_to_scalar():
    """Without numpy the randomized platform reports itself unsupported
    (so ``backend="auto"`` runs it scalar) and a deterministic platform
    keeps its degenerate batch path, both on the pure-Python compile."""
    assert (
        batch_unsupported_reason(leon3_rand(num_cores=1))
        == "numpy is not available"
    )
    trace = make_trace(nan_class_spec())
    det = leon3_det(num_cores=1)
    assert batch_unsupported_reason(det) is None
    reference = leon3_det(num_cores=1)
    expected = [reference.run(trace, seed) for seed in (1, 2)]
    assert run_batch(det, trace, [1, 2]) == expected
