"""Vectorized batch execution of randomized replications.

A pWCET campaign executes the *same* instruction trace thousands of
times, varying only the per-run platform randomization (placement
seeds, replacement victims).  The scalar interpreter
(:meth:`~repro.platform.core.Core.execute`) pays the Python dispatch
cost of every event once per run; this module reshapes the
computation so it is paid once per *trace*: all ``R`` replications
advance through the trace together, with numpy arrays holding the
per-run divergent state —

* cache tag stores ``(R, sets, ways)`` and TLB entry stores ``(R, 1,
  entries)``,
* the per-run LFSR states of the platform PRNG (victim draws advance
  only the lanes that actually miss into a full set, so every run
  consumes exactly the draw sequence the scalar interpreter would),
* per-run cycle accumulators, the bus busy horizon and the ready times
  of the write-through store buffer.

Everything *trace-pure* — fetch/line/page locality, pipeline hazards,
FPU latencies — is precompiled once per trace into an event list with
static-cost gaps, so only instructions that touch per-run state (fetch
probes on new lines, loads, stores) cost vector work.  The single-core
engine drains the very compile the scalar ``Core.execute`` drains
(:func:`~repro.platform.core._compile_segment`); so does the
co-scheduled engine's private pass, so the cost model has one home.
Both memoize it through :func:`~repro.platform.core._memoized`:
``Core.execute`` in a small LRU per core, the vector engines here in
one process-wide LRU shared by the engines a campaign builds per
index block, group and shard.

One component set
-----------------

The hardware models in this module (caches, TLBs, replacement
policies, bus, DRAM controller, store buffer) serve both vectorized
engines.  The private components — caches and TLBs — have one access
form, *broadcast*: one address for every lane, since all lanes of a
core sit at the same compiled event (placement is memoized).
The co-scheduled engine (:mod:`repro.platform.batch_concurrent`) runs
each core's private components through its events this way too, and
only the shared bus, DRAM controller and store buffer, whose state
depends on the interleave, take arrays of unique lane or run indices.

Bit-identity contract
---------------------

For every supported configuration the engine reproduces the scalar
interpreter *exactly*: per-run cycle counts, hit/miss/eviction
counters and PRNG draw sequences are equal bit for bit to
``[platform.run(trace, seed, core_id) for seed in seeds]`` (verified
by ``tests/platform/test_batch_backend.py``; the shared compile itself
is checked against the per-instruction
:class:`~repro.platform.core.CoreStepper` by
``tests/platform/test_compiled_execute.py``).  Per-run randomization
streams are keyed, as in the scalar path, by the derivation chain
``derive_seed(run_seed, core_id + 101)`` → per-component sub-seeds, so
a run's results depend only on ``(run_seed, trace)`` — never on which
runs share its batch.

Deterministic platforms (``PlatformConfig.is_randomized`` false) are
handled by a degenerate fast path: one scalar reference execution is
measured and broadcast, which is exact because no component of such a
platform consumes the per-run seed.

Unsupported shapes — tree-PLRU replacement on a randomized platform,
or numpy missing — raise :class:`BatchUnsupported`; callers
(:mod:`repro.api.backend`) fall back to the scalar path.
"""

from __future__ import annotations

import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .bus import BusConfig, BusStats
from .cache import CacheConfig, CacheStats
from .core import (
    _COLD,
    _MK_LOAD,
    _MK_NONE,
    CoreConfig,
    RunResult,
    _accumulate_fpu,
    _accumulate_pipeline,
    _compile_segment,
    _CompiledSegment,
    _Locality,
    _memoized,
)
from .fpu import FpuStats
from .memory import MemoryConfig, MemoryStats
from .pipeline import PipelineStats
from .prng import CombinedLfsrPrng, Lfsr, SplitMix64, derive_seed
from .soc import Platform, PlatformConfig
from .tlb import TlbConfig, TlbStats
from .trace import Trace

# The batch engine is elementwise and campaigns parallelize across
# forked shard processes, so intra-op BLAS/OpenMP threading can only
# oversubscribe (shards x pool-size runnable threads).  Pool sizes are
# frozen when the BLAS library first loads, which is why the knobs must
# be set *before* our numpy import — forked shard workers then inherit
# both the loaded library and this single-threaded configuration.
# ``setdefault`` keeps any explicit user configuration authoritative,
# and an already-imported numpy is left untouched (pinning after load
# would be a silent no-op anyway; the worker-side re-pin in
# repro.api.backend covers children that import numpy lazily).
if "numpy" not in sys.modules:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, "1")  # repro-lint: disable=REP002,REP005 -- pins BLAS/OMP to one thread before numpy loads; a determinism fix (keeps batch results thread-count independent), honouring any explicit user override

try:  # numpy is optional: without it every campaign stays scalar.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None  # type: ignore[assignment]

__all__ = [
    "BatchUnsupported",
    "BatchRunOutcome",
    "batch_unsupported_reason",
    "numpy_available",
    "run_batch",
    "run_batch_segments",
]

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Replacement policies the vectorized state machines cover.  Tree-PLRU
#: is only reachable on deterministic platforms (it consumes no
#: randomness), which the degenerate path already handles.
_VEC_REPLACEMENTS = frozenset({"random", "lru", "round_robin"})
_VEC_PLACEMENTS = frozenset({"modulo", "random_modulo", "hash_random"})


class BatchUnsupported(RuntimeError):
    """The batch engine cannot reproduce this configuration; run scalar."""


def numpy_available() -> bool:
    """Whether the vectorized path can run at all."""
    return _np is not None


def _cores_unsupported_reason(
    cfg: PlatformConfig, core_ids: Sequence[int]
) -> Optional[str]:
    """Why one of ``core_ids`` cannot issue on ``cfg`` (None = all can)."""
    for core_id in core_ids:
        if not 0 <= core_id < cfg.num_cores:
            return f"core_id {core_id} out of range [0, {cfg.num_cores})"
        if core_id >= cfg.bus.num_masters:
            return f"core_id {core_id} is not a bus master"
    return None


def _policy_unsupported_reason(cfg: PlatformConfig) -> Optional[str]:
    """Why the vectorized components cannot model ``cfg``'s per-core
    policies (None = they can).  Shared by both engines."""
    if not cfg.is_randomized:
        # Deterministic platform: the degenerate path needs no numpy.
        return None
    if _np is None:
        return "numpy is not available"
    core = cfg.core
    for label, cache in (("icache", core.icache), ("dcache", core.dcache)):
        if cache.placement not in _VEC_PLACEMENTS:
            return f"{label} placement {cache.placement!r} is not vectorized"
        if cache.replacement not in _VEC_REPLACEMENTS:
            return f"{label} replacement {cache.replacement!r} is not vectorized"
    for label, tlb in (("itlb", core.itlb), ("dtlb", core.dtlb)):
        if tlb.replacement not in _VEC_REPLACEMENTS:
            return f"{label} replacement {tlb.replacement!r} is not vectorized"
    return None


def batch_unsupported_reason(
    platform: Platform, core_id: int = 0
) -> Optional[str]:
    """Why ``platform`` cannot be batch-executed (None = supported)."""
    cfg = platform.config
    reason = _cores_unsupported_reason(cfg, (core_id,))
    return reason or _policy_unsupported_reason(cfg)


# ----------------------------------------------------------------------
# Trace compilation (trace-pure preprocessing, shared by all runs)
# ----------------------------------------------------------------------

#: Memoized compiled segments (see :func:`~repro.platform.core._memoized`).
_SEGMENT_CACHE: "OrderedDict[Any, Any]" = OrderedDict()
_SEGMENT_CACHE_SIZE = 256


def _compiled_segment(
    trace: Trace, core_cfg: CoreConfig, locality: _Locality = _COLD
) -> _CompiledSegment:
    """Memoizing wrapper around :func:`~repro.platform.core._compile_segment`
    (the compile :meth:`~repro.platform.core.Core.execute` drains)."""
    return _memoized(
        _SEGMENT_CACHE,
        _SEGMENT_CACHE_SIZE,
        trace,
        core_cfg,
        lambda: _compile_segment(trace, core_cfg, locality),
        locality,
    )


# ----------------------------------------------------------------------
# Vectorized platform components
# ----------------------------------------------------------------------


class _StepTables:
    """Precomputed ``nbits``-step advance of the stacked LFSR slots.

    An ``nbits`` draw of :class:`CombinedLfsrPrng` is a GF(2)-linear map
    of the four slot states: both the post-draw state and the emitted
    output word are XORs of per-state-bit basis contributions.  Each
    slot's state is split into a high and a low half and the map is
    tabulated per half (``table[hi] ^ table[lo]``), so one draw costs a
    constant handful of stacked ops — two gathers per table family —
    instead of ``nbits`` feedback/shift rounds.  The four slots' tables
    are concatenated flat with per-slot offsets, which keeps the gather
    a plain 1-D take under a broadcast index.
    """

    __slots__ = (
        "lo_bits",
        "lo_mask",
        "hi_offsets",
        "lo_offsets",
        "state_hi",
        "state_lo",
        "out_hi",
        "out_lo",
    )

    def __init__(self, nbits: int, degrees: Tuple[int, ...]) -> None:
        np = _np
        lo_bits: List[int] = []
        hi_offsets: List[int] = []
        lo_offsets: List[int] = []
        state_hi_parts: List[Any] = []
        state_lo_parts: List[Any] = []
        out_hi_parts: List[Any] = []
        out_lo_parts: List[Any] = []
        hi_total = 0
        lo_total = 0
        for degree in degrees:
            lo = (degree + 1) // 2
            hi = degree - lo
            lo_bits.append(lo)
            hi_offsets.append(hi_total)
            lo_offsets.append(lo_total)
            sh, oh = _expand_basis(degree, nbits, lo, hi)
            sl, ol = _expand_basis(degree, nbits, 0, lo)
            state_hi_parts.append(sh)
            out_hi_parts.append(oh)
            state_lo_parts.append(sl)
            out_lo_parts.append(ol)
            hi_total += 1 << hi
            lo_total += 1 << lo
        self.lo_bits = np.array(lo_bits, dtype=np.uint32)[:, None]
        self.lo_mask = np.array(
            [(1 << lo) - 1 for lo in lo_bits], dtype=np.uint32
        )[:, None]
        self.hi_offsets = np.array(hi_offsets, dtype=np.uint32)[:, None]
        self.lo_offsets = np.array(lo_offsets, dtype=np.uint32)[:, None]
        self.state_hi = np.concatenate(state_hi_parts)
        self.state_lo = np.concatenate(state_lo_parts)
        self.out_hi = np.concatenate(out_hi_parts)
        self.out_lo = np.concatenate(out_lo_parts)


def _expand_basis(
    degree: int, nbits: int, shift_base: int, count: int
) -> Tuple[Any, Any]:
    """Tabulate the ``nbits``-step map over one state half.

    Advances each single-bit basis state ``1 << (shift_base + j)`` with
    :meth:`Lfsr.bits` — the word-at-a-time step the scalar
    :class:`CombinedLfsrPrng` draws through, so tap configuration and
    output convention cannot drift from the interpreter — then expands
    to all ``2**count`` subset XORs with the doubling trick.
    """
    np = _np
    states = np.zeros(1 << count, dtype=np.uint32)
    outs = np.zeros(1 << count, dtype=np.int64)
    for j in range(count):
        lfsr = Lfsr(degree, 1 << (shift_base + j))
        out = lfsr.bits(nbits)
        size = 1 << j
        states[size : 2 * size] = states[:size] ^ np.uint32(lfsr.state)
        outs[size : 2 * size] = outs[:size] ^ out
    return states, outs


#: Step tables memoized per draw width (degrees are fixed per process).
_STEP_TABLES: Dict[int, _StepTables] = {}


def _step_tables(nbits: int) -> _StepTables:
    tables = _STEP_TABLES.get(nbits)
    if tables is None:
        tables = _StepTables(nbits, CombinedLfsrPrng.DEGREES)
        _STEP_TABLES[nbits] = tables
    return tables


class _VecPrng:
    """Per-run :class:`CombinedLfsrPrng` lanes advanced under a mask.

    Seeding reproduces ``CombinedLfsrPrng.reseed`` per lane; a masked
    draw advances only the masked lanes, so every lane's bit stream is
    exactly the scalar one regardless of how misses interleave across
    runs.  Draws go through the per-``nbits`` :class:`_StepTables`: all
    four LFSR slots advance in one stacked table lookup, and rejection
    (non-power-of-two ``randint``) retries only the rejecting lanes in
    gather/scatter form.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        np = _np
        degrees = CombinedLfsrPrng.DEGREES
        columns: List[List[int]] = [[] for _ in degrees]
        for seed in seeds:
            expander = SplitMix64(seed)
            for slot, degree in enumerate(degrees):
                state = expander.next_u64() & ((1 << degree) - 1)
                columns[slot].append(state if state else 1)
        self._states = np.array(columns, dtype=np.uint32)

    def _draw(self, states: Any, nbits: int) -> Tuple[Any, Any]:
        """(value, new_states) of one ``nbits`` draw over stacked lanes."""
        np = _np
        tables = _step_tables(nbits)
        hi = (states >> tables.lo_bits) + tables.hi_offsets
        lo = (states & tables.lo_mask) + tables.lo_offsets
        value = np.bitwise_xor.reduce(
            tables.out_hi[hi] ^ tables.out_lo[lo], axis=0
        )
        return value, tables.state_hi[hi] ^ tables.state_lo[lo]

    def next_bits(self, nbits: int, mask: Any) -> Any:
        """``n``-bit draws for the masked lanes (others keep their
        state; their returned value is meaningless and must be ignored,
        as the callers' own masks guarantee)."""
        np = _np
        value, advanced = self._draw(self._states, nbits)
        np.copyto(self._states, advanced, where=mask)
        return value

    def randint(self, n: int, mask: Any) -> Any:
        """Masked uniform draw in ``[0, n)``; per-lane rejection exactly
        as the scalar ``CombinedLfsrPrng.randint``."""
        np = _np
        if n == 1:
            return np.zeros(self._states.shape[1], dtype=np.int64)
        bits = (n - 1).bit_length()
        out = self.next_bits(bits, mask)
        if n & (n - 1) == 0:
            return out
        bad = np.flatnonzero(mask & (out >= n))
        while bad.size:
            redraw = self.next_bits_idx(bits, bad)
            out[bad] = redraw
            bad = bad[redraw >= n]
        return out

    def next_bits_idx(self, nbits: int, lanes: Any) -> Any:
        """``n``-bit draws for the *indexed* lanes (gather/scatter form
        of :meth:`next_bits` — ``lanes`` must hold unique indices)."""
        value, advanced = self._draw(self._states[:, lanes], nbits)
        self._states[:, lanes] = advanced
        return value

    def randint_idx(self, n: int, lanes: Any) -> Any:
        """Uniform draw in ``[0, n)`` per indexed lane, with the scalar
        generator's per-lane rejection loop."""
        np = _np
        if n == 1:
            return np.zeros(lanes.shape[0], dtype=np.int64)
        bits = (n - 1).bit_length()
        out = self.next_bits_idx(bits, lanes)
        if n & (n - 1) == 0:
            return out
        bad = np.flatnonzero(out >= n)
        while bad.size:
            redraw = self.next_bits_idx(bits, lanes[bad])
            out[bad] = redraw
            bad = bad[redraw >= n]
        return out


class _VecRandomRepl:
    """Random replacement: victims drawn from the per-lane PRNG.

    ``needs_touch`` is False: the policy keeps no recency state, so the
    tag store skips the hit-way ``argmax``/touch entirely (the scalar
    ``RandomReplacement.touch`` is a no-op too).
    """

    needs_touch = False

    def __init__(self, prng: Any, num_ways: int) -> None:
        self._prng = prng
        self._ways = num_ways

    def victim_idx(self, sets: Any, lanes: Any) -> Any:
        """Victim ways for the indexed full-set lanes only — consumes one
        draw per listed lane, exactly the scalar consumption."""
        return self._prng.randint_idx(self._ways, lanes)

    def fill_idx(self, sets: Any, way: Any, lanes: Any) -> None:
        return None

    touch_idx = fill_idx


class _VecLruRepl:
    """True LRU via per-way last-touch sequence numbers.

    Initial timestamps equal the way index (the scalar policy's initial
    recency order) and every touch or fill installs a strictly
    increasing counter, so ``argmin`` over a set reproduces ``order[0]``
    exactly; only the *relative* stamp order within one (lane, set)
    ever matters, so sharing one counter across lanes is exact.
    """

    needs_touch = True

    def __init__(self, lanes: int, num_sets: int, num_ways: int) -> None:
        np = _np
        self._ts = np.tile(
            np.arange(num_ways, dtype=np.int64), (lanes, num_sets, 1)
        )
        self._counter = num_ways

    def victim_idx(self, sets: Any, lanes: Any) -> Any:
        return self._ts[lanes, sets].argmin(axis=1)

    def fill_idx(self, sets: Any, way: Any, lanes: Any) -> None:
        self._ts[lanes, sets, way] = self._counter
        self._counter += 1

    touch_idx = fill_idx


class _VecRoundRobinRepl:
    """FIFO-like rotation: per-lane per-set victim pointer."""

    needs_touch = False

    def __init__(self, lanes: int, num_sets: int, num_ways: int) -> None:
        np = _np
        self._ptr = np.zeros((lanes, num_sets), dtype=np.int64)
        self._ways = num_ways

    def victim_idx(self, sets: Any, lanes: Any) -> Any:
        way = self._ptr[lanes, sets]
        self._ptr[lanes, sets] = (way + 1) % self._ways
        return way

    def fill_idx(self, sets: Any, way: Any, lanes: Any) -> None:
        return None

    touch_idx = fill_idx


def _make_vec_replacement(
    name: str,
    lanes: int,
    num_sets: int,
    num_ways: int,
    prng: Optional[Any],
) -> Any:
    if name == "random":
        return _VecRandomRepl(prng, num_ways)
    if name == "lru":
        return _VecLruRepl(lanes, num_sets, num_ways)
    if name == "round_robin":
        return _VecRoundRobinRepl(lanes, num_sets, num_ways)
    raise BatchUnsupported(f"replacement {name!r} is not vectorized")


def _mix(value: int, seeds_u64: Any) -> Any:
    """Vectorized ``placement._mix`` of one shared int against the
    per-lane seeds (uint64 arithmetic wraps mod 2**64, as required)."""
    np = _np
    z = np.uint64((value * _GOLDEN) & _M64) + seeds_u64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _select(sets: Any, sel: Any) -> Any:
    """``sets[sel]`` for per-lane set indices; a shared int passes through."""
    return sets if isinstance(sets, int) else sets[sel]


class _VecTagStore:
    """Per-lane set-associative tag store with its replacement state.

    The common core of :class:`_VecCache` and :class:`_VecTlb`.  Ways
    fill lowest-first, so the first free way of a set is always its
    ``valid`` count — the same invariant the scalar ``Cache._allocate``
    scan relies on.  Set indices are either one int shared by all lanes
    or one per lane.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        replacement: str,
        seeds: Sequence[int],
        lanes: int,
    ) -> None:
        np = _np
        self.ways = ways
        self._rows = np.arange(lanes)
        self.tags = np.full((lanes, num_sets, ways), -1, dtype=np.int64)
        self.valid = np.zeros((lanes, num_sets), dtype=np.int64)
        prng = _VecPrng(seeds) if replacement == "random" else None
        self.repl = _make_vec_replacement(replacement, lanes, num_sets, ways, prng)
        self._needs_touch = self.repl.needs_touch
        self.evictions = np.zeros(lanes, dtype=np.int64)
        self.evicted: Any = None

    def _probe(self, set_index: Any, tag: int) -> Any:
        """Look ``tag`` up on every lane; returns the per-lane hit mask
        (replacement touched on the hit lanes)."""
        np = _np
        if isinstance(set_index, int):
            ways = self.tags[:, set_index]
        else:
            ways = self.tags[self._rows, set_index]
        matches = ways == tag
        hit = matches.any(axis=1)
        if self._needs_touch:
            lanes = np.flatnonzero(hit)
            self.repl.touch_idx(
                _select(set_index, lanes), matches[lanes].argmax(axis=1), lanes
            )
        return hit

    def _allocate_idx(self, sets: Any, tag: int, lanes: Any) -> None:
        """Fill ``tag`` on the indexed miss lanes (gather/scatter, no
        store-width temporaries).  Victim draws happen on the full lanes
        only, one per lane — the scalar consumption.  ``evicted`` keeps
        the lanes that evicted (valid until the next allocation)."""
        way = self.valid[lanes, sets]
        full_sel = way >= self.ways
        full_lanes = lanes[full_sel]
        self.evicted = full_lanes
        if full_lanes.size:
            way[full_sel] = self.repl.victim_idx(_select(sets, full_sel), full_lanes)
            self.evictions[full_lanes] += 1
            free_sel = ~full_sel
            free_lanes = lanes[free_sel]
            if free_lanes.size:
                self.valid[free_lanes, _select(sets, free_sel)] += 1
        else:
            self.valid[lanes, sets] += 1
        self.tags[lanes, sets, way] = tag
        self.repl.fill_idx(sets, way, lanes)


class _VecCache(_VecTagStore):
    """Set-associative cache with per-lane tag stores.

    Per-lane placement seeds rotate set indices lane-wise (random
    modulo / hash placement).  Every access reaches every lane, so
    access counts are shared ints; hits and evictions are per lane.
    """

    def __init__(
        self,
        cfg: CacheConfig,
        seeds: Sequence[int],
        lanes: int,
    ) -> None:
        np = _np
        super().__init__(cfg.num_sets, cfg.ways, cfg.replacement, seeds, lanes)
        self.num_sets = cfg.num_sets
        self.line_shift = cfg.line_shift
        self._placement = cfg.placement
        self._seeds = np.array([s & _M64 for s in seeds], dtype=np.uint64)
        self._set_memo: Dict[int, Any] = {}
        self._allocate_on_write = not cfg.write_through_no_allocate
        # Misses are derived at stats time (accesses - hits): the hot
        # loop keeps one vector accumulate per access, not two.
        self.read_hits = np.zeros(lanes, dtype=np.int64)
        self.write_hits = np.zeros(lanes, dtype=np.int64)
        self.reads = 0
        self.writes = 0

    # -- placement -----------------------------------------------------
    def _set_index(self, line: int) -> Any:
        """Set index of ``line`` — an int (modulo) or an array over every
        lane.

        Placement is a pure function of (line, lane seed) for the whole
        engine lifetime, and traces revisit a small working set of lines
        many times, so the per-lane part is memoized: per line for hash
        placement, per rotation key (``line // sets``, shared by ``sets``
        consecutive lines) for random modulo.
        """
        np = _np
        sets = self.num_sets
        if self._placement == "modulo":
            return line % sets
        if self._placement == "random_modulo":
            key = line // sets
            rotation = self._set_memo.get(key)
            if rotation is None:
                rotation = (_mix(key, self._seeds) % np.uint64(sets)).astype(np.int64)
                self._set_memo[key] = rotation
            return (rotation + line % sets) % sets
        cached = self._set_memo.get(line)
        if cached is None:
            cached = (_mix(line, self._seeds) % np.uint64(sets)).astype(np.int64)
            self._set_memo[line] = cached
        return cached

    def read(self, byte_address: int) -> Any:
        """Vectorized ``Cache.read`` on every lane; returns the miss-lane
        indices."""
        np = _np
        line = byte_address >> self.line_shift
        set_index = self._set_index(line)
        hit = self._probe(set_index, line)
        self.read_hits += hit
        self.reads += 1
        lanes = np.flatnonzero(~hit)
        if lanes.size:
            self._allocate_idx(_select(set_index, lanes), line, lanes)
        return lanes

    def write(self, byte_address: int) -> Any:
        """Vectorized ``Cache.write`` on every lane; returns the
        miss-lane indices."""
        np = _np
        line = byte_address >> self.line_shift
        set_index = self._set_index(line)
        hit = self._probe(set_index, line)
        self.write_hits += hit
        self.writes += 1
        lanes = np.flatnonzero(~hit)
        if self._allocate_on_write and lanes.size:
            self._allocate_idx(_select(set_index, lanes), line, lanes)
        return lanes

    def stats_for(self, lane: int) -> CacheStats:
        """Per-lane counters as a scalar-shaped :class:`CacheStats`."""
        read_hits = int(self.read_hits[lane])
        write_hits = int(self.write_hits[lane])
        return CacheStats(
            read_hits=read_hits,
            read_misses=self.reads - read_hits,
            write_hits=write_hits,
            write_misses=self.writes - write_hits,
            evictions=int(self.evictions[lane]),
            flushes=0,
        )


class _VecTlb(_VecTagStore):
    """Fully-associative TLB: a one-set tag store of virtual pages.

    A lookup adds the walk penalty to ``now`` in place on the missing
    lanes; lookups count in a shared int, as :class:`_VecCache` accesses.
    """

    def __init__(
        self,
        cfg: TlbConfig,
        seeds: Sequence[int],
        lanes: int,
    ) -> None:
        np = _np
        super().__init__(1, cfg.entries, cfg.replacement, seeds, lanes)
        self._penalty = cfg.walk_penalty_cycles
        self.hits = np.zeros(lanes, dtype=np.int64)
        self.lookups = 0

    def lookup(self, page: int, now: Any) -> Any:
        """Vectorized ``Tlb.lookup`` of ``page`` on every lane; returns
        the miss-lane indices."""
        np = _np
        hit = self._probe(0, page)
        self.hits += hit
        self.lookups += 1
        lanes = np.flatnonzero(~hit)
        if lanes.size:
            self._allocate_idx(0, page, lanes)
            now[lanes] += self._penalty
        return lanes

    def stats_for(self, lane: int) -> TlbStats:
        """Per-lane counters as a scalar-shaped :class:`TlbStats`."""
        hits = int(self.hits[lane])
        return TlbStats(hits=hits, misses=self.lookups - hits)


class _VecBus:
    """Shared round-robin bus with per-run arbitration state.

    Mirrors :class:`~repro.platform.bus.Bus` exactly: one busy horizon
    and round-robin grant pointer per run, and per-master transaction
    and contention counters kept flat, core-major, on the ``row * runs
    + run`` grid (:meth:`stats_for` sums them per run and rebuilds
    ``BusStats``'s dicts with keys exactly for masters that issued at
    least one transaction, as the scalar dict-growing updates do).
    Issuers are addressed by *row* — their position in ``core_ids`` —
    and the grant delay is tabulated per (row, grant pointer), so
    arbitration is one gather.

    Within one merge step the scheduler selects at most one core per
    run, so a request's run indices are unique and the scatters
    race-free.
    """

    def __init__(self, cfg: BusConfig, runs: int, core_ids: Sequence[int]) -> None:
        np = _np
        self.core_ids = list(core_ids)
        masters = cfg.num_masters
        self._runs = runs
        self._run_ids = np.arange(runs)
        self.busy_until = np.zeros(runs, dtype=np.int64)
        self.pointer = np.zeros(runs, dtype=np.int64)
        # Transactions are counted per kind: the transfer-cycle total
        # follows from the two counts at stats time.
        cells = len(self.core_ids) * runs
        self.lines = np.zeros(cells, dtype=np.int64)
        self.words = np.zeros(cells, dtype=np.int64)
        self.waits = np.zeros(cells, dtype=np.int64)
        arb = cfg.arbitration_cycles
        delay = np.zeros((len(self.core_ids), masters), dtype=np.int64)
        for row, core_id in enumerate(self.core_ids):
            for pointer in range(masters):
                distance = (core_id - pointer) % masters
                if distance:
                    delay[row, pointer] = (
                        distance * arb if cfg.strict_rr_arbitration else arb
                    )
        self._delay = delay
        self._next_pointer = np.array(
            [(core_id + 1) % masters for core_id in self.core_ids], dtype=np.int64
        )
        self._line_cost = cfg.line_transfer_cycles + arb
        self._word_cost = cfg.word_transfer_cycles + arb

    def request_idx(self, rows: Any, run_sel: Any, now: Any, is_line: Any) -> Any:
        """Vectorized ``Bus.request``: one transaction per indexed run.

        ``rows`` holds the issuing cores' row indices (one int when a
        single core issues), ``run_sel`` the unique run indices
        (``slice(None)`` for every run), ``now`` the issuers' local
        times and ``is_line`` the transaction kind (one bool, or one per
        run).  Returns the wait+transfer cost.
        """
        np = _np
        wait = self.busy_until[run_sel] - now
        np.maximum(wait, 0, out=wait)
        wait += self._delay[rows, self.pointer[run_sel]]
        # Flat counter cells: ``[rows, run_sel]`` on a 2-D grid would be
        # an (R, R) outer update for an index-array row and a slice.
        runs = self._runs
        if not isinstance(run_sel, slice):
            cells = rows * runs + run_sel
        elif isinstance(rows, int) and run_sel == slice(None):
            cells = slice(rows * runs, (rows + 1) * runs)
        else:
            cells = rows * runs + self._run_ids[run_sel]
        if is_line is True:
            total = wait + self._line_cost
            self.lines[cells] += 1
        elif is_line is False:
            total = wait + self._word_cost
            self.words[cells] += 1
        else:
            total = wait + np.where(is_line, self._line_cost, self._word_cost)
            self.lines[cells] += is_line
            self.words[cells] += ~is_line
        self.busy_until[run_sel] = now + total
        self.pointer[run_sel] = self._next_pointer[rows]
        self.waits[cells] += wait
        return total

    def kinds_for(self, run: int) -> Tuple[int, int]:
        """(line, word) transactions of one run — the DRAM reads and
        writes that followed them."""
        runs = self._runs
        return (
            int(self.lines[run::runs].sum()),
            int(self.words[run::runs].sum()),
        )

    def stats_for(self, run: int) -> BusStats:
        """Per-run counters as a scalar-shaped :class:`BusStats`."""
        runs = self._runs
        transactions: Dict[int, int] = {}
        contention: Dict[int, int] = {}
        for index, core_id in enumerate(self.core_ids):
            cell = index * runs + run
            count = int(self.lines[cell] + self.words[cell])
            if count > 0:
                transactions[core_id] = count
                contention[core_id] = int(self.waits[cell])
        lines, words = self.kinds_for(run)
        return BusStats(
            transactions=lines + words,
            contention_cycles=int(self.waits[run::runs].sum()),
            transfer_cycles=lines * self._line_cost + words * self._word_cost,
            contention_by_master=contention,
            transactions_by_master=transactions,
        )


class _VecMemory:
    """DRAM controller with per-run open-row/refresh state and the
    per-run row, refresh and cycle counters of :class:`MemoryStats`
    (access counts come from the bus: one access per transaction).

    The default configuration (closed-page, no refresh) makes every
    access a configuration constant: it is returned as a plain int, so
    the caller's ``now`` update is one scalar broadcast, and the
    device-cycle total is derived from the read/write counts at stats
    time.
    """

    def __init__(self, cfg: MemoryConfig, runs: int) -> None:
        np = _np
        self.cfg = cfg
        self._closed = cfg.page_policy == "closed"
        self._refresh = cfg.refresh_interval_cycles > 0
        self._constant = self._closed and not self._refresh
        if not self._closed:
            self.open_rows = np.full((runs, cfg.num_banks), -1, dtype=np.int64)
        self._read_cost = cfg.cas_cycles + cfg.activate_cycles
        self._write_cost = self._read_cost + cfg.write_cycles
        self.row_hits = np.zeros(runs, dtype=np.int64)
        self.row_conflicts = np.zeros(runs, dtype=np.int64)
        self.refresh_stalls = np.zeros(runs, dtype=np.int64)
        self.total_cycles = np.zeros(runs, dtype=np.int64)

    def access_idx(self, run_sel: Any, addrs: Any, is_write: Any, now: Any) -> Any:
        """Vectorized ``MemoryController.access`` on the indexed runs
        (``slice(None)`` for every run) at per-run times ``now``.

        ``addrs`` is one shared address or one per run, ``is_write`` one
        bool or one per run.  Returns the device latency — a plain int
        on the constant closed-page path with one kind, else a per-run
        array."""
        np = _np
        cfg = self.cfg
        cost: Any
        if self._closed:
            cost = self._read_cost + (self._write_cost - self._read_cost) * is_write
            if self._constant:
                return cost
        else:
            row_index = addrs // cfg.row_bytes
            bank = row_index % cfg.num_banks
            row = row_index // cfg.num_banks
            open_row = self.open_rows[run_sel, bank]
            empty = open_row < 0
            same = open_row == row
            conflict = ~same & ~empty
            cost = (
                cfg.cas_cycles
                + cfg.write_cycles * is_write
                + np.where(empty, cfg.activate_cycles, 0)
                + np.where(conflict, cfg.precharge_cycles + cfg.activate_cycles, 0)
            )
            self.row_hits[run_sel] += same
            self.row_conflicts[run_sel] += conflict
            self.open_rows[run_sel, bank] = row
        if self._refresh:
            # Refresh phase is 0 after every platform reset (the run
            # protocol never calls set_refresh_phase), so the per-run
            # ``now`` alone determines the collision.
            position = now % cfg.refresh_interval_cycles
            stalled = position < cfg.refresh_stall_cycles
            self.refresh_stalls[run_sel] += stalled
            cost = cost + np.where(stalled, cfg.refresh_stall_cycles - position, 0)
        self.total_cycles[run_sel] += cost
        return cost

    def stats_for(self, run: int, reads: int, writes: int) -> MemoryStats:
        """Per-run counters as a scalar-shaped :class:`MemoryStats`;
        ``reads``/``writes`` are the run's accesses, one per bus line or
        word transaction (:meth:`_VecBus.kinds_for`)."""
        total = int(self.total_cycles[run])
        if self._constant:
            total += reads * self._read_cost + writes * self._write_cost
        return MemoryStats(
            reads=reads,
            writes=writes,
            row_hits=int(self.row_hits[run]),
            row_conflicts=int(self.row_conflicts[run]),
            refresh_stalls=int(self.refresh_stalls[run]),
            total_cycles=total,
        )


class _VecStoreBuffer:
    """Per-lane write-through store buffer, index form.

    The scalar store path pops every ready entry from the head of the
    FIFO before each store, then stalls on a still-full buffer until the
    head drains.  Before store ``k`` the buffer holds at most the
    ``depth`` stores before it, so it is full iff store ``k - depth`` is
    still queued — and then that store is the head.  While a lane's
    clock does not go back, store ``k - depth`` has been popped iff its
    ready time is at most ``now``: popped at an earlier store, it was
    ready by that store's (smaller) time; still queued, it is the head,
    popped now iff ready.  So the ready times of the lane's last
    ``depth`` stores are the whole state, and a store stalls until the
    ready time of the store ``depth`` back when that is later than
    ``now``.  A new segment restarts the clock; :meth:`restart` then
    marks the entries already popped.
    """

    def __init__(self, lanes: int, depth: int) -> None:
        np = _np
        self.depth = depth
        self.ready = np.zeros(lanes * depth, dtype=np.int64)
        self.stores = np.zeros(lanes, dtype=np.int64)
        # Each lane's last store: its time before the stall, and whether
        # it stalled (for :meth:`restart`).
        self.last_now = np.zeros(lanes, dtype=np.int64)
        self.stalled = np.zeros(lanes, dtype=bool)

    def issue(self, lanes: Any, now: Any) -> Tuple[Any, Any]:
        """(issue times after the full-buffer stall, buffer slots) of one
        store per indexed lane at times ``now``."""
        np = _np
        stores = self.stores[lanes]
        self.stores[lanes] = stores + 1
        slots = lanes * self.depth + stores % self.depth
        ready = self.ready[slots]
        self.last_now[lanes] = now
        self.stalled[lanes] = ready > now
        return np.maximum(now, ready), slots

    def push(self, slots: Any, ready_at: Any) -> None:
        """Record the stores' drain times (slots from :meth:`issue`)."""
        self.ready[slots] = ready_at

    def restart(self) -> None:
        """Start a segment: every lane's clock restarts at 0, so mark the
        entries the scalar buffer has popped by now with ready time -1.
        Those are the stores behind each lane's last one that were ready,
        in FIFO order, at that store's pre-stall time — none if it
        stalled, since a stall pops the head only."""
        np = _np
        depth = self.depth
        lanes = len(self.stores)
        slots = (self.stores[:, None] + np.arange(depth - 1)) % depth + np.arange(
            0, lanes * depth, depth
        )[:, None]
        popped = np.logical_and.accumulate(
            self.ready[slots] <= self.last_now[:, None], axis=1
        )
        popped &= ~self.stalled[:, None]
        self.ready[slots[popped]] = -1


def _component_seeds(
    seeds: Sequence[int], core_id: int
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Per-lane IL1/DL1/ITLB/DTLB seeds of the scalar reset path — the
    per-core seed, then per-component sub-seeds, so every lane draws the
    scalar streams."""
    icache: List[int] = []
    dcache: List[int] = []
    itlb: List[int] = []
    dtlb: List[int] = []
    for seed in seeds:
        core_seed = derive_seed(seed, core_id + 101)
        icache.append(derive_seed(core_seed, core_id, 0))
        dcache.append(derive_seed(core_seed, core_id, 1))
        itlb.append(derive_seed(core_seed, core_id, 2))
        dtlb.append(derive_seed(core_seed, core_id, 3))
    return icache, dcache, itlb, dtlb


class _VecCore:
    """The private components of one core on every lane (one lane per
    run): IL1, DL1, ITLB and DTLB, seeded as :func:`_component_seeds`
    lays out."""

    def __init__(
        self,
        core_cfg: CoreConfig,
        seeds: Sequence[int],
        core_id: int,
    ) -> None:
        lanes = len(seeds)
        icache, dcache, itlb, dtlb = _component_seeds(seeds, core_id)
        self.icache = _VecCache(core_cfg.icache, icache, lanes)
        self.dcache = _VecCache(core_cfg.dcache, dcache, lanes)
        self.itlb = _VecTlb(core_cfg.itlb, itlb, lanes)
        self.dtlb = _VecTlb(core_cfg.dtlb, dtlb, lanes)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@dataclass
class BatchRunOutcome:
    """What one batched execution produced, per run.

    ``segment_cycles[r]`` holds run ``r``'s per-segment cycle counts
    (TVCA-style runs restart the cycle clock per job while hardware
    state carries over, so per-segment values are the primitive);
    ``results[r]`` aggregates the whole run — ``cycles`` is the sum of
    the run's segment cycles and the statistics span all segments, as
    the scalar per-run counters do.
    """

    seeds: Tuple[int, ...]
    segment_cycles: List[Tuple[int, ...]]
    instructions: int
    results: List[RunResult]


class _BatchEngine:
    """All per-run divergent state of one batched campaign stride."""

    def __init__(self, platform: Platform, seeds: Sequence[int], core_id: int) -> None:
        cfg = platform.config
        self.core_cfg = cfg.core
        self.core_id = core_id
        self.runs = len(seeds)
        self.core = _VecCore(cfg.core, seeds, core_id)
        self.store_buffer = _VecStoreBuffer(self.runs, cfg.core.store_buffer_depth)
        self.bus = _VecBus(cfg.bus, self.runs, (core_id,))
        self.memory = _VecMemory(cfg.memory, self.runs)

    def run_segments(self, segments: Sequence[Trace]) -> BatchRunOutcome:
        np = _np
        icache = self.core.icache
        dcache = self.core.dcache
        itlb = self.core.itlb
        dtlb = self.core.dtlb
        store_buffer = self.store_buffer
        bus = self.bus
        memory = self.memory
        # The store buffer scatters per lane; the bus and DRAM take every
        # run as a slice (whole-array updates, no index gathers).
        run_ids = np.arange(self.runs)
        every_run = slice(None)

        per_segment: List["object"] = []
        pipeline_total = PipelineStats()
        fpu_total = FpuStats()
        instructions = 0
        for trace in segments:
            compiled = _compiled_segment(trace, self.core_cfg)
            now = np.zeros(self.runs, dtype=np.int64)
            store_buffer.restart()
            for (
                gap,
                fetch_pc,
                itlb_page,
                mem_kind,
                addr,
                dtlb_page,
                pre_cost,
            ) in compiled.events:
                if gap:
                    now += gap
                if fetch_pc >= 0:
                    if itlb_page >= 0:
                        itlb.lookup(itlb_page, now)
                    lanes = icache.read(fetch_pc)
                    if lanes.size:
                        now_m = now[lanes]
                        now_m += bus.request_idx(0, lanes, now_m, True)
                        now_m += memory.access_idx(lanes, fetch_pc, False, now_m)
                        now[lanes] = now_m
                if mem_kind == _MK_NONE:
                    continue
                if pre_cost:
                    now += pre_cost
                if dtlb_page >= 0:
                    dtlb.lookup(dtlb_page, now)
                if mem_kind == _MK_LOAD:
                    lanes = dcache.read(addr)
                    if lanes.size:
                        now_m = now[lanes]
                        now_m += bus.request_idx(0, lanes, now_m, True)
                        now_m += memory.access_idx(lanes, addr, False, now_m)
                        now[lanes] = now_m
                else:
                    dcache.write(addr)
                    now[:], slots = store_buffer.issue(run_ids, now)
                    cost = bus.request_idx(0, every_run, now, False)
                    cost = cost + memory.access_idx(every_run, addr, True, now)
                    store_buffer.push(slots, now + cost)
            if compiled.tail:
                now += compiled.tail
            per_segment.append(now)
            instructions += compiled.length
            _accumulate_pipeline(pipeline_total, compiled.pipeline)
            _accumulate_fpu(fpu_total, compiled.fpu)

        segment_cycles = [
            tuple(int(seg[run]) for seg in per_segment)
            for run in range(self.runs)
        ]
        results = [
            RunResult(
                cycles=sum(segment_cycles[run]),
                instructions=instructions,
                icache=icache.stats_for(run),
                dcache=dcache.stats_for(run),
                itlb=itlb.stats_for(run),
                dtlb=dtlb.stats_for(run),
                fpu=replace(fpu_total),
                pipeline=replace(pipeline_total),
                core_id=self.core_id,
                bus_contention_cycles=int(bus.waits[run]),
            )
            for run in range(self.runs)
        ]
        return BatchRunOutcome(
            seeds=tuple(),
            segment_cycles=segment_cycles,
            instructions=instructions,
            results=results,
        )


def _run_degenerate(
    platform: Platform,
    segments: Sequence[Trace],
    seeds: Sequence[int],
    core_id: int,
) -> BatchRunOutcome:
    """Deterministic platform: measure once, broadcast to every run.

    Exact because no component of a non-randomized platform consumes
    the per-run seed (modulo placement and LRU/FIFO/PLRU replacement
    ignore it, the refresh phase resets to zero, the FPU is a pure
    function of the trace).
    """
    platform.reset(seeds[0])
    core = platform.cores[core_id]
    cycles: List[int] = []
    last = None
    for trace in segments:
        last = core.execute(trace)
        cycles.append(last.cycles)
    if last is None:
        raise ValueError("segments must not be empty")

    def clone_result() -> RunResult:
        # Fresh stats objects per run: the scalar path hands every run
        # independent (mutable) stats, so the broadcast must too.
        return RunResult(
            cycles=sum(cycles),
            instructions=sum(len(trace) for trace in segments),
            icache=replace(last.icache),
            dcache=replace(last.dcache),
            itlb=replace(last.itlb),
            dtlb=replace(last.dtlb),
            fpu=replace(last.fpu),
            pipeline=replace(last.pipeline),
            core_id=core_id,
            bus_contention_cycles=platform.bus.stats.contention_by_master.get(
                core_id, 0
            ),
        )

    segment_cycles = tuple(cycles)
    return BatchRunOutcome(
        seeds=tuple(seeds),
        segment_cycles=[segment_cycles for _ in seeds],
        instructions=sum(len(trace) for trace in segments),
        results=[clone_result() for _ in seeds],
    )


def run_batch_segments(
    platform: Platform,
    segments: Sequence[Trace],
    seeds: Sequence[int],
    core_id: int = 0,
) -> BatchRunOutcome:
    """Execute ``segments`` back to back for every seed, vectorized.

    Segment semantics match the scalar multi-job protocol
    (:meth:`TvcaApplication.run_once`): each segment starts a fresh
    stepper — the cycle clock and fetch/translation locality restart —
    while caches, TLBs, the store buffer and the bus horizon carry
    over; the platform is fully reset once per run before the first
    segment.  A single-segment call is exactly ``platform.run``.
    """
    if not seeds:
        raise ValueError("seeds must not be empty")
    if not segments:
        raise ValueError("segments must not be empty")
    reason = batch_unsupported_reason(platform, core_id)
    if reason is not None:
        raise BatchUnsupported(reason)
    if not platform.config.is_randomized:
        return _run_degenerate(platform, segments, seeds, core_id)
    engine = _BatchEngine(platform, seeds, core_id)
    outcome = engine.run_segments(segments)
    outcome.seeds = tuple(seeds)
    return outcome


def run_batch(
    platform: Platform,
    trace: Trace,
    seeds: Sequence[int],
    core_id: int = 0,
) -> List[RunResult]:
    """Batched equivalent of ``[platform.run(trace, s, core_id) for s in
    seeds]`` — bit-identical per-run results, one pass over the trace."""
    return run_batch_segments(platform, [trace], seeds, core_id).results
