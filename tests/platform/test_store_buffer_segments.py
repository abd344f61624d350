"""Store-buffer parity across segments of the single-core batch engine.

Each segment of a multi-job run restarts the cycle clock at 0 while the
store buffer carries over, so ready times left by one job are compared
against the next job's clock.  The vectorized buffer keeps only the
ready times of each lane's last ``depth`` stores and must still pop
exactly what the scalar FIFO pops.
"""

import random

import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.batch import numpy_available, run_batch_segments
from repro.platform.memory import MemoryConfig
from repro.platform.soc import Platform, leon3_rand
from repro.platform.trace import InstrKind, Trace

from test_batch_backend import platform_cases

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vectorized backend requires numpy"
)


def scalar_segment_cycles(config, segments, seeds, core_id=0):
    platform = Platform(config)
    expected = []
    for seed in seeds:
        platform.reset(seed)
        core = platform.cores[core_id]
        expected.append(tuple(core.execute(trace).cycles for trace in segments))
    return expected


def store_segment(rng, length, store_share):
    trace = Trace()
    pc = 0x4000_0000
    for _ in range(length):
        draw = rng.random()
        addr = 0x8000_0000 + 32 * rng.randrange(300)
        if draw < store_share:
            trace.append(InstrKind.STORE, pc, addr=addr)
        elif draw < store_share + 0.1:
            trace.append(InstrKind.LOAD, pc, addr=addr)
        else:
            trace.append(InstrKind.IMUL, pc)
        pc += 4
    return trace


def _ops(text):
    trace = Trace()
    pc = 0x4000_0000
    for op in text:
        if op == "S":
            trace.append(InstrKind.STORE, pc, addr=0x8000_0000 + (pc & 0xFC0))
        else:
            trace.append(InstrKind.IMUL, pc)
        pc += 4
    return trace


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_popped_store_stays_popped_after_clock_restart(depth):
    """Job 1 ends with an older store already popped by the scalar FIFO
    but ready later than job 2's first store: job 2 must not stall."""
    config = leon3_rand(cache_kb=1).config
    config = replace(config, core=replace(config.core, store_buffer_depth=depth))
    segments = [_ops("S" + "I" * 200 + "S"), _ops("S" + "I" * 50)]
    seeds = [1, 2, 3]
    outcome = run_batch_segments(Platform(config), segments, seeds)
    assert outcome.segment_cycles == scalar_segment_cycles(
        config, segments, seeds
    )


@pytest.mark.parametrize("case", [0, 80])
def test_entries_behind_a_stall_stay_queued(case):
    """Open-page DRAM drains stores out of order: when a job's last store
    stalls, the entries behind the head stay queued even if ready."""
    rng = random.Random(case)
    config = leon3_rand(cache_kb=1).config
    config = replace(
        config,
        core=replace(config.core, store_buffer_depth=rng.choice([2, 3])),
        memory=MemoryConfig(
            page_policy="open", refresh_interval_cycles=rng.choice([0, 257])
        ),
    )
    segments = [
        store_segment(rng, rng.choice([7, 40, 150]), rng.choice([0.4, 0.8]))
        for _ in range(3)
    ]
    seeds = [case * 3 + i for i in range(4)]
    outcome = run_batch_segments(Platform(config), segments, seeds)
    assert outcome.segment_cycles == scalar_segment_cycles(
        config, segments, seeds
    )


@settings(max_examples=25, deadline=None)
@given(
    case=platform_cases(),
    trace_seed=st.integers(min_value=0, max_value=2**32),
    base_seed=st.integers(min_value=0, max_value=2**32),
    store_share=st.sampled_from([0.1, 0.4, 0.8]),
    count=st.integers(min_value=2, max_value=4),
)
def test_segments_match_scalar_over_configs(
    case, trace_seed, base_seed, store_share, count
):
    config, core_id = case
    rng = random.Random(trace_seed)
    segments = [
        store_segment(rng, rng.choice([1, 7, 40, 150]), store_share)
        for _ in range(count)
    ]
    seeds = [base_seed + 5 * i for i in range(4)]
    outcome = run_batch_segments(Platform(config), segments, seeds, core_id)
    assert outcome.segment_cycles == scalar_segment_cycles(
        config, segments, seeds, core_id
    )
