"""Vectorized batch execution of co-scheduled (multicore) replications.

Contention campaigns execute the *same* scenario — one analysis trace
plus looping opponent traces on the other cores — once per replication,
varying only the per-run platform randomization.  The scalar path pays
the Python interpreter per interleave step per run; this module splits
the work into a per-core *private pass* and a *shared merge*.

Why the split is exact
----------------------

A core's private state — IL1/DL1/ITLB/DTLB contents, victim draws,
hit/miss sequence — depends only on its own access sequence (its trace
and the run seed), never on when the accesses happen: no private model
reads the clock.  Only the bus, the DRAM controller and the store
buffer are timed.  So each scheduled core's private components run
once, in the single-core engine's broadcast form
(:mod:`repro.platform.batch`), over the core's compiled events
(:func:`~repro.platform.batch._compiled_segment`), for all ``R`` runs
at once.  The pass records per event and run which components missed
(one byte of flags) and keeps each run's *private clock*: static
pipeline/FPU costs plus TLB walk penalties.

An instruction touches shared state only when it issues a bus request:
an IL1 miss, a DL1 load miss, or a write-through store.  These *bus
instructions* (plus the analysis core's last instruction, where the run
halts) become per-run *records* ``(event, private clock, instruction
count, flags)``, appended to a per-lane ring (lane ``ci·R + r`` is core
``ci`` on run ``r``).  Looping co-runners are compiled twice — a cold
pass and a wrapped pass whose fetch/translation locality is carried
over the wrap; the end-of-pass locality is a fixed point (it depends
only on the trace's last pc and last data access), so the wrapped
compile is exact for every pass after the first.  Events are generated
in chunks, on demand, while the merge needs records.

The merge replays the interleave on records only.  By
:mod:`repro.platform.schedule`, the scalar execution order is the merge
of the per-core streams sorted by each instruction's pre-execution
``(now, core_id)``; restricted to bus instructions it is the merge of
the per-core bus-instruction streams by the same key.  A record's start
time is the core's time after its previous record plus the private
cycles in between, so each global step picks, per run, the core with
the smallest ``(start of next record, core id)`` — one minimum over the
cores × runs matrix of keys encoded as ``start << bits | row`` — and
executes that record's bus, DRAM and store-buffer work.  A run halts
after its analysis core's last instruction.

Halt snapshots
--------------

A co-runner executes exactly the instructions whose key is below
``(T_last, analysis_core)``, ``T_last`` being the start of the analysis
core's last instruction.  Past the co-runner's last executed record,
its instructions start at ``now + (private clock - q)`` (``q`` = private
clock at that record's last bus access), so the executed count follows
from a search over the private clock.  Cache/TLB counters at that count
are the pass's final counters minus the flags of the later events;
pipeline/FPU counters come from per-trace prefix sums.

So a chunk is kept only while some run may still halt inside or before
it.  Every run's halt count is bounded below — by its last executed
record, and past it by the instructions that provably start before the
analysis core's current time (or ``T_last`` once the run halted) — and
chunks wholly below every run's bound are dropped.

Bit-identity contract
---------------------

For every supported configuration the engine reproduces the scalar
interleave *exactly*: per-core cycle counts and instruction counts,
cache/TLB/FPU/pipeline counters, the bus per-master contention and
transaction splits and the DRAM breakdown equal bit for bit
``[platform.run_concurrent(traces, seed, ...) for seed in seeds]``
(verified by ``tests/platform/test_concurrent_batch.py``).

Deterministic platforms reuse the degenerate broadcast argument of the
single-core engine: nothing consumes the per-run seed, so one scalar
reference execution is measured and cloned per run.

Unsupported shapes — non-vectorized placement/replacement policies,
bus grant logging, numpy missing — raise
:class:`~repro.platform.batch.BatchUnsupported`; callers
(:mod:`repro.api.backend`) fall back to the scalar path under
``backend="auto"``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from .batch import (
    BatchUnsupported,
    _compiled_segment,
    _cores_unsupported_reason,
    _policy_unsupported_reason,
    _VecBus,
    _VecCore,
    _VecMemory,
    _VecStoreBuffer,
)
from .core import (
    _MK_LOAD,
    _MK_NONE,
    _MK_STORE,
    _STAT_FIELDS,
    CoreConfig,
    RunResult,
    _CompiledSegment,
    _issue_keys,
    _issue_table,
    _memoized,
)
from .cache import CacheStats
from .fpu import FpuStats
from .pipeline import PipelineStats
from .soc import ConcurrentRunResult, Platform
from .tlb import TlbStats
from .trace import InstrKind, Trace

try:  # numpy is optional: without it co-scheduled campaigns stay scalar.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None  # type: ignore[assignment]

__all__ = [
    "concurrent_batch_unsupported_reason",
    "run_concurrent_batch",
]


def concurrent_batch_unsupported_reason(
    platform: Platform, core_ids: Sequence[int] = (0,)
) -> Optional[str]:
    """Why co-scheduling ``core_ids`` cannot be batch-executed on
    ``platform`` (None = supported)."""
    cfg = platform.config
    reason = _cores_unsupported_reason(cfg, core_ids)
    if reason is None and cfg.bus.record_grants:
        reason = "bus grant logging is not vectorized"
    return reason or _policy_unsupported_reason(cfg)


# ----------------------------------------------------------------------
# Per-trace tables
# ----------------------------------------------------------------------

#: Per-event, per-run flags of the private pass (one byte).
_ITLB_MISS, _IL1_MISS, _IL1_EVICT = 1, 2, 4
_DTLB_MISS, _DL1_MISS, _DL1_EVICT = 8, 16, 32
#: Record-only flag: the record is a store.
_STORE = 64
#: Static per-event kinds, for the counters of a halt snapshot.
_FETCH, _ITLB_LOOKUP, _LOAD, _STORE_EV, _DTLB_LOOKUP = 1, 2, 4, 8, 16

#: Runs × events per generated chunk (bounds the chunk's flag matrix),
#: and the most events a chunk spans: a chunk runs for every run, so
#: with few runs a wide chunk would generate passes no run reaches.
_CHUNK_CELLS = 1 << 15
_CHUNK_EVENTS = 256
#: Encoded key of a lane with no record to come.
_NEVER = (1 << 63) - 1
#: The ring's integer fields start as int32 and widen to int64 the first
#: time a record does not fit (a private clock past 2**31 cycles).
_NARROW_MAX = (1 << 31) - 1


@dataclass
class _Pass:
    """One compiled pass of a trace: the events the broadcast private
    pass drains, plus per-event static arrays (instruction index,
    static clock at the event's start, :data:`_FETCH`-style kinds)."""

    events: List[Tuple[int, int, int, int, int, int, int]]
    index: Any
    start: Any
    kinds: Any


@dataclass
class _TraceTables:
    """Everything trace-pure the engine needs for one trace.

    ``charged[n]`` is the static clock before instruction ``n`` of a
    pass and ``prefix[n]`` the nine pipeline/FPU counters after ``n``
    instructions; both are locality-independent.  ``wrapped`` is the
    wrapped-pass compile of a looping trace (None otherwise).
    """

    length: int
    charged: Any
    prefix: Any
    cold: _Pass
    wrapped: Optional[_Pass]


#: Memoized trace tables (see :func:`~repro.platform.core._memoized`).
_TABLE_CACHE: "OrderedDict[Any, Any]" = OrderedDict()
_TABLE_CACHE_SIZE = 128


def _trace_tables(trace: Trace, core_cfg: CoreConfig, looping: bool) -> _TraceTables:
    return _memoized(
        _TABLE_CACHE,
        _TABLE_CACHE_SIZE,
        trace,
        core_cfg,
        lambda: _build_tables(trace, core_cfg, looping),
        looping,
    )


def _build_tables(trace: Trace, core_cfg: CoreConfig, looping: bool) -> _TraceTables:
    np = _np
    length = len(trace)
    table = _issue_table(set(_issue_keys(trace)), core_cfg)
    key_ids = {key: index for index, key in enumerate(table)}
    ids = np.fromiter(
        map(key_ids.__getitem__, _issue_keys(trace)), dtype=np.int64, count=length
    )
    entries = list(table.values())
    costs = np.array([cost for cost, _ in entries], dtype=np.int64)
    increments = np.array(
        [counters for _, counters in entries], dtype=np.int64
    ).reshape(-1, _STAT_FIELDS)
    charged = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(costs[ids], out=charged[1:])
    prefix = np.zeros((length + 1, _STAT_FIELDS), dtype=np.int64)
    np.cumsum(increments[ids], axis=0, out=prefix[1:])
    cold = _compiled_segment(trace, core_cfg)
    wrapped = None
    if looping and length:
        again = _compiled_segment(trace, core_cfg, cold.locality)
        wrapped = _pass_arrays(trace, core_cfg, again, charged, cold.locality[0])
    return _TraceTables(
        length=length,
        charged=charged,
        prefix=prefix,
        cold=_pass_arrays(trace, core_cfg, cold, charged, -1),
        wrapped=wrapped,
    )


def _pass_arrays(
    trace: Trace,
    core_cfg: CoreConfig,
    compiled: _CompiledSegment,
    charged: Any,
    last_line: int,
) -> _Pass:
    """Attach the static per-event arrays to one compiled pass.  An
    instruction is an event when it changes fetch line (from
    ``last_line`` on) or accesses memory — the compile's own rule."""
    np = _np
    lines = np.array(trace.pcs, dtype=np.int64) >> core_cfg.icache.line_shift
    kinds = np.array(trace.kinds, dtype=np.int64)
    memory = (kinds == InstrKind.LOAD) | (kinds == InstrKind.STORE)
    previous = np.concatenate(([last_line], lines[:-1]))
    index = np.flatnonzero((lines != previous) | memory)
    events = np.array(compiled.events, dtype=np.int64).reshape(-1, 7)
    assert len(index) == len(events)
    fetch, itlb, mem_kind, dtlb = events[:, 1], events[:, 2], events[:, 3], events[:, 5]
    static_kinds = (
        (fetch >= 0) * _FETCH
        + (itlb >= 0) * _ITLB_LOOKUP
        + (mem_kind == _MK_LOAD) * _LOAD
        + (mem_kind == _MK_STORE) * _STORE_EV
        + (dtlb >= 0) * _DTLB_LOOKUP
    ).astype(np.uint8)
    return _Pass(
        events=compiled.events,
        index=index,
        start=charged[index],
        kinds=static_kinds,
    )


# ----------------------------------------------------------------------
# Private pass
# ----------------------------------------------------------------------


@dataclass
class _Chunk:
    """Static arrays and private-pass flags of one generated chunk:
    per event its absolute instruction index and static clock, its
    static kinds, and the ``(events, runs)`` flag matrix."""

    index: Any
    start: Any
    kinds: Any
    flags: Any


class _CoreStream:
    """One scheduled core's private pass over its event stream — the
    cold pass, then (looping cores) wrapped passes without end — driven
    chunk by chunk in broadcast form over all runs.

    ``pen`` holds each run's TLB walk cycles so far: a run's private
    clock at an event is the event's static clock plus ``pen`` before
    it.  ``steady`` marks looping runs that went a whole wrapped pass
    without a bus instruction: their caches then hit on every later
    pass and they never store, so they never touch the bus again.
    """

    def __init__(
        self,
        row: int,
        core_id: int,
        trace: Trace,
        platform: Platform,
        seeds: Sequence[int],
        looping: bool,
        forced_end: bool,
        gid_base: int,
    ) -> None:
        np = _np
        cfg = platform.config
        runs = len(seeds)
        tables = _trace_tables(trace, cfg.core, looping)
        self.row = row
        self.core_id = core_id
        self.tables = tables
        self.length = tables.length
        self.total = int(tables.charged[-1])
        self.core = _VecCore(cfg.core, seeds, core_id)
        self.ipen = cfg.core.itlb.walk_penalty_cycles
        self.dpen = cfg.core.dtlb.walk_penalty_cycles
        self.pen = np.zeros(runs, dtype=np.int64)
        self.position = 0
        self.chunks: List[_Chunk] = []
        # One past the last generated event's instruction, and the last
        # instruction of the dropped chunks.
        self.end = 0
        self.released = -1
        self.steady = np.zeros(runs, dtype=bool)
        self.last_record = np.full(runs, -1, dtype=np.int64)
        cold = tables.cold
        # The run halts after the analysis core's last instruction, so
        # that instruction is a record even when it is not an event (an
        # event that touches nothing then marks it).
        self.halts = forced_end and self.length > 0
        last = self.length - 1
        if self.halts and not (len(cold.index) and cold.index[-1] == last):
            cold = _Pass(
                events=cold.events + [(0, -1, -1, _MK_NONE, -1, -1, 0)],
                index=np.append(cold.index, last),
                start=np.append(cold.start, tables.charged[last]),
                kinds=np.append(cold.kinds, np.uint8(0)),
            )
        self.passes = [cold] if tables.wrapped is None else [cold, tables.wrapped]
        self.gid_bases = [gid_base, gid_base + len(cold.events)]
        self.cold_events = len(cold.events)
        self.wrap_events = len(tables.wrapped.events) if tables.wrapped else 0

    @property
    def exhausted(self) -> bool:
        """No event is left to generate."""
        return self.position >= self.cold_events and not self.wrap_events

    def _locate(self, position: int) -> Tuple[int, int]:
        """(pass number, event index in the pass) of a stream position."""
        if position < self.cold_events:
            return 0, position
        wrapped, local = divmod(position - self.cold_events, self.wrap_events)
        return wrapped + 1, local

    def generate(self, width: int) -> Tuple[Any, Any, Any, Any, Any, Any]:
        """Run the next ``width`` events of the stream through the
        private components; returns this chunk's records lane-major as
        ``(counts per run, run, gid, private clock, instruction count,
        flags)``."""
        np = _np
        core = self.core
        icache, dcache, itlb, dtlb = core.icache, core.dcache, core.itlb, core.dtlb
        dcache_allocates = dcache._allocate_on_write
        pen = self.pen
        first = self.position
        gids: List[Any] = []
        index: List[Any] = []
        start: List[Any] = []
        kinds: List[Any] = []
        events: List[Tuple[int, int, int, int, int, int, int]] = []
        position = first
        while position < first + width and (
            position < self.cold_events or self.wrap_events
        ):
            number, local = self._locate(position)
            kind = min(number, 1)
            part = self.passes[kind]
            end = min(len(part.events), local + first + width - position)
            events += part.events[local:end]
            gids.append(self.gid_bases[kind] + np.arange(local, end))
            index.append(part.index[local:end] + number * self.length)
            start.append(part.start[local:end] + number * self.total)
            kinds.append(part.kinds[local:end])
            position += end - local
        self.position = position
        count = len(events)
        flags = np.zeros((count, len(pen)), dtype=np.uint8)
        pen_before = np.empty((count, len(pen)), dtype=np.int64)
        for k, (_, fetch_pc, itlb_page, mem_kind, addr, dtlb_page, _) in enumerate(
            events
        ):
            pen_before[k] = pen
            row = flags[k]
            if fetch_pc >= 0:
                if itlb_page >= 0:
                    lanes = itlb.lookup(itlb_page, pen)
                    if lanes.size:
                        row[lanes] |= _ITLB_MISS
                lanes = icache.read(fetch_pc)
                if lanes.size:
                    row[lanes] |= _IL1_MISS
                    row[icache.evicted] |= _IL1_EVICT
            if mem_kind == _MK_NONE:
                continue
            if dtlb_page >= 0:
                lanes = dtlb.lookup(dtlb_page, pen)
                if lanes.size:
                    row[lanes] |= _DTLB_MISS
            if mem_kind == _MK_LOAD:
                lanes = dcache.read(addr)
            else:
                lanes = dcache.write(addr)
            if lanes.size:
                row[lanes] |= _DL1_MISS
                if mem_kind == _MK_LOAD or dcache_allocates:
                    row[dcache.evicted] |= _DL1_EVICT
        chunk = _Chunk(
            index=np.concatenate(index),
            start=np.concatenate(start),
            kinds=np.concatenate(kinds),
            flags=flags,
        )
        self.chunks.append(chunk)
        self.end = int(chunk.index[-1]) + 1
        return self._records(chunk, gids, pen_before, first)

    def _records(
        self, chunk: _Chunk, gids: List[Any], pen_before: Any, first: int
    ) -> Tuple[Any, Any, Any, Any, Any, Any]:
        """The chunk's bus instructions (and the forced halt event),
        compacted per run."""
        np = _np
        flags = chunk.flags
        count = len(flags)
        gid = np.concatenate(gids)
        loads = (chunk.kinds & _LOAD) != 0
        stores = (chunk.kinds & _STORE_EV) != 0
        bus_bits = np.where(loads, _IL1_MISS | _DL1_MISS, _IL1_MISS).astype(np.uint8)
        record = ((flags & bus_bits[:, None]) != 0) | stores[:, None]
        if self.halts and first < self.cold_events <= self.position:
            record[self.cold_events - 1 - first] = True
        run, event = np.nonzero(record.T)
        counts = record.sum(axis=0)
        clock = chunk.start[event] + pen_before[event, run]
        has = counts > 0
        if self.wrap_events:
            last = count - 1 - record[::-1].argmax(axis=0)
            self.last_record[has] = first + last[has]
            # A whole wrapped pass past a run's last record without one.
            past = np.maximum(self.last_record + 1 - self.cold_events, 0)
            wrap_start = self.cold_events + self.wrap_events * (
                (past + self.wrap_events - 1) // self.wrap_events
            )
            self.steady = wrap_start + self.wrap_events <= self.position
        return (
            counts,
            run,
            gid[event],
            clock,
            chunk.index[event] + 1,
            flags[event, run] | np.where(stores[event], _STORE, 0).astype(np.uint8),
        )

    # -- halt snapshots -------------------------------------------------
    def floor(self, threshold: Any, done: Any, pending: Any) -> Any:
        """Per run, a lower bound on the executed count, given that every
        instruction whose start maps to a private clock below
        ``threshold`` executes.  ``done`` is the count at the last
        executed record and ``pending`` the count after the next record;
        in between, the private clock is at most the static clock plus
        the walk cycles generated so far."""
        np = _np
        reached = self._first_static(threshold - self.pen, 0, self.end)
        return np.maximum(done, np.minimum(reached, pending))

    def release(self, floor: int) -> None:
        """Drop the chunks wholly before instruction ``floor`` — a lower
        bound on every run's halt count — keeping the newest: halt
        snapshots and :meth:`first_at` look only at later events."""
        while len(self.chunks) > 1 and self.chunks[0].index[-1] < floor:
            self.released = int(self.chunks[0].index[-1])
            del self.chunks[0]

    def _penalties(self, flags: Any) -> Any:
        return ((flags & _ITLB_MISS) != 0) * self.ipen + (
            (flags & _DTLB_MISS) != 0
        ) * self.dpen

    def static_clock(self, n: Any) -> Any:
        """Static clock before absolute instruction ``n`` (per run)."""
        if not self.length:
            return _np.zeros_like(n)
        passes, local = _np.divmod(n, self.length)
        return passes * self.total + self.tables.charged[local]

    def _first_static(self, x: Any, low: Any, high: Any) -> Any:
        """First instruction ``n`` in ``[low, high]`` whose static clock
        is at least ``x`` (``high`` if none)."""
        np = _np
        if self.total > 0:
            passes = np.maximum((x - 1) // self.total, 0)
            n = passes * self.length + np.searchsorted(
                self.tables.charged, x - passes * self.total, "left"
            )
        else:
            n = np.where(x <= 0, low, high)
        return np.minimum(np.maximum(n, low), high)

    def first_at(self, threshold: Any, done: Any, pending: Any, width: int) -> Any:
        """Per run, the executed count: the first instruction from
        ``done`` on whose private clock (static clock plus the TLB walks
        of the events before it) is at least ``threshold``.  ``pending``
        is as in :meth:`floor`."""
        np = _np
        runs = len(threshold)
        while not self.exhausted and self.chunks:
            last = self.chunks[-1]
            clock = last.start[-1] + self.pen - self._penalties(last.flags[-1])
            if (clock >= threshold).all():
                break
            self.release(int(self.floor(threshold, done, pending).min()))
            self.generate(width)
        end = self.length if not self.wrap_events else 1 << 62
        found_index = np.full(runs, end, dtype=np.int64)
        found_pen = self.pen.copy()
        previous = np.full(runs, self.released, dtype=np.int64)
        open_runs = np.ones(runs, dtype=bool)
        pen_after = self.pen.copy()
        for chunk in reversed(self.chunks):
            penalties = self._penalties(chunk.flags)
            suffix = penalties[::-1].cumsum(axis=0)[::-1]
            before = pen_after - suffix
            reached = chunk.start[:, None] + before >= threshold
            k = reached.argmax(axis=0)
            inside = open_runs & reached.any(axis=0)
            # Past this chunk's first event: e* lies here (or later).
            here = inside & (k > 0)
            rows = np.flatnonzero(here)
            found_index[here] = chunk.index[k[here]]
            found_pen[here] = before[k[here], rows]
            previous[here] = chunk.index[k[here] - 1]
            none = open_runs & ~inside
            previous[none] = chunk.index[-1]
            at_first = inside & (k == 0)
            found_index[at_first] = chunk.index[0]
            found_pen[at_first] = before[0, at_first]
            open_runs &= at_first
            pen_after = pen_after - suffix[0]
            if not open_runs.any():
                break
        found = self._first_static(threshold - found_pen, previous + 1, found_index)
        return np.maximum(done, found)

    def snapshot(self, count: Any) -> Tuple[Any, List[Tuple[Any, ...]]]:
        """Per run, the TLB walk cycles before instruction ``count`` and
        the IL1/DL1/ITLB/DTLB stats after it (the final counters minus
        those of later events)."""
        np = _np
        runs = len(count)
        later_pen = np.zeros(runs, dtype=np.int64)
        bits = np.zeros((runs, 8), dtype=np.int64)
        statics = np.zeros((runs, 5), dtype=np.int64)
        store_misses = np.zeros(runs, dtype=np.int64)
        static_bits = np.array([_FETCH, _ITLB_LOOKUP, _LOAD, _STORE_EV, _DTLB_LOOKUP])
        for chunk in reversed(self.chunks):
            if (chunk.index[-1] < count).all():
                break
            later = chunk.index[:, None] >= count
            flags = np.where(later, chunk.flags, 0).astype(np.uint8)
            later_pen += self._penalties(flags).sum(axis=0)
            bits += np.unpackbits(flags[:, :, None], axis=2, bitorder="little").sum(
                axis=0, dtype=np.int64
            )
            statics += later.T.astype(np.int64) @ (
                (chunk.kinds[:, None] & static_bits) != 0
            ).astype(np.int64)
            store_misses += ((flags & _DL1_MISS) != 0)[
                (chunk.kinds & _STORE_EV) != 0
            ].sum(axis=0)
        core = self.core
        # Events from ``count`` on: static kinds, then flagged outcomes.
        fetches, itlb_lookups, loads, stores, dtlb_lookups = statics.T
        itlb_misses, il1_misses, il1_evictions = bits[:, 0], bits[:, 1], bits[:, 2]
        dtlb_misses, dl1_evictions = bits[:, 3], bits[:, 5]
        load_misses = bits[:, 4] - store_misses
        il1_reads = core.icache.reads - fetches
        il1_hits = core.icache.read_hits - fetches + il1_misses
        dl1_reads = core.dcache.reads - loads
        dl1_hits = core.dcache.read_hits - loads + load_misses
        dl1_writes = core.dcache.writes - stores
        dl1_write_hits = core.dcache.write_hits - stores + store_misses
        itlb = core.itlb.lookups - itlb_lookups
        itlb_hits = core.itlb.hits - itlb_lookups + itlb_misses
        dtlb = core.dtlb.lookups - dtlb_lookups
        dtlb_hits = core.dtlb.hits - dtlb_lookups + dtlb_misses
        il1 = np.column_stack(
            (il1_hits, il1_reads - il1_hits, core.icache.evictions - il1_evictions)
        ).tolist()
        dl1 = np.column_stack(
            (
                dl1_hits,
                dl1_reads - dl1_hits,
                dl1_write_hits,
                dl1_writes - dl1_write_hits,
                core.dcache.evictions - dl1_evictions,
            )
        ).tolist()
        itlbs = np.column_stack((itlb_hits, itlb - itlb_hits)).tolist()
        dtlbs = np.column_stack((dtlb_hits, dtlb - dtlb_hits)).tolist()
        return self.pen - later_pen, [
            (CacheStats(h, m, 0, 0, e), CacheStats(*d), TlbStats(*i), TlbStats(*t))
            for (h, m, e), d, i, t in zip(il1, dl1, itlbs, dtlbs)
        ]


# ----------------------------------------------------------------------
# Shared merge
# ----------------------------------------------------------------------


class _ConcurrentEngine:
    """One batched co-scheduled campaign stride: a :class:`_CoreStream`
    per scheduled core, then the lockstep merge over their records.

    Lanes are core-major (lane ``ci·R + r`` is core ``ci`` on run
    ``r``).  Each lane's records sit in a ring of ``capacity`` slots;
    ``read``/``written`` count the records consumed and generated, and
    the slot of the last consumed record is kept for the halt snapshot.
    """

    def __init__(
        self,
        platform: Platform,
        traces_by_core: Mapping[int, Trace],
        seeds: Sequence[int],
        analysis_core: int,
        loop_co_runners: bool,
    ) -> None:
        np = _np
        cfg = platform.config
        runs = len(seeds)
        self.runs = runs
        self.analysis_core = analysis_core
        self.core_ids = sorted(traces_by_core)
        self.width = min(_CHUNK_EVENTS, max(16, _CHUNK_CELLS // runs))
        self.streams: List[_CoreStream] = []
        fetch: List[int] = []
        addr: List[int] = []
        pre: List[int] = []
        for row, core_id in enumerate(self.core_ids):
            stream = _CoreStream(
                row,
                core_id,
                traces_by_core[core_id],
                platform,
                seeds,
                looping=loop_co_runners and core_id != analysis_core,
                forced_end=core_id == analysis_core,
                gid_base=len(fetch),
            )
            self.streams.append(stream)
            for part in stream.passes:
                for event in part.events:
                    fetch.append(event[1])
                    addr.append(event[4])
                    pre.append(event[6])
        self.analysis = self.streams[self.core_ids.index(analysis_core)]
        self.final_gid = (
            self.analysis.gid_bases[0] + self.analysis.cold_events - 1
            if self.analysis.length
            else -1
        )
        self.fetch_of = np.array(fetch, dtype=np.int64)
        self.addr_of = np.array(addr, dtype=np.int64)
        self.pre_of = np.array(pre, dtype=np.int64)
        self.bus = _VecBus(cfg.bus, runs, self.core_ids)
        self.memory = _VecMemory(cfg.memory, runs)
        lanes = len(self.core_ids) * runs
        self.store_buffer = _VecStoreBuffer(lanes, cfg.core.store_buffer_depth)
        self.now = np.zeros(lanes, dtype=np.int64)
        self.q = np.zeros(lanes, dtype=np.int64)
        # Scheduling keys, encoded ``start << bits | row`` so that one
        # min over the cores axis gives the (start, core id) minimum.
        self.bits = max(1, (len(self.core_ids) - 1).bit_length())
        self.order = np.full(lanes, _NEVER, dtype=np.int64)
        self.rows = np.arange(lanes) // runs
        self.read = np.zeros(lanes, dtype=np.int64)
        self.written = np.zeros(lanes, dtype=np.int64)
        self.alive = np.full(runs, self.analysis.length > 0)
        self.t_last = np.zeros(runs, dtype=np.int64)
        self.analysis_lanes = self.analysis.row * runs + np.arange(runs)
        # Room for a chunk's records plus the runs' drift, so that the
        # ring seldom grows.  Narrow fields keep the ring small: it is the
        # engine's largest allocation.
        self.capacity = 3 * self.width
        self.base = np.arange(lanes, dtype=np.int64) * self.capacity
        self.ring_gid = np.zeros(lanes * self.capacity, dtype=np.int32)
        self.ring_clock = np.zeros(lanes * self.capacity, dtype=np.int32)
        self.ring_count = np.zeros(lanes * self.capacity, dtype=np.int32)
        self.ring_flags = np.zeros(lanes * self.capacity, dtype=np.uint8)
        # Per-record quantities as tables over the flag byte.
        flags = np.arange(128)
        itlb = cfg.core.itlb.walk_penalty_cycles
        dtlb = cfg.core.dtlb.walk_penalty_cycles
        self.ipen_of = ((flags & _ITLB_MISS) != 0) * itlb
        self.private_of = self.ipen_of + ((flags & _DTLB_MISS) != 0) * dtlb
        self.fetch_miss = (flags & _IL1_MISS) != 0
        # A data bus access: a store, or a load that missed the DL1.
        self.data_op = (flags & (_DL1_MISS | _STORE)) != 0
        self.is_store = (flags & _STORE) != 0

    # -- record ring ------------------------------------------------------
    def _grow(self, needed: int) -> None:
        """Re-lay every lane's live records into a larger ring, one field
        at a time (so only one field is ever held twice)."""
        np = _np
        old_capacity = self.capacity
        self.capacity = max(needed, old_capacity + old_capacity // 4)
        lanes = len(self.now)
        first = np.maximum(self.read - 1, 0)
        live = self.written - first
        lane, offset = np.nonzero(np.arange(int(live.max()))[None, :] < live[:, None])
        position = first[lane] + offset
        source = lane * old_capacity + position % old_capacity
        target = lane * self.capacity + position % self.capacity
        for name in ("ring_gid", "ring_clock", "ring_count", "ring_flags"):
            previous = getattr(self, name)
            grown = np.zeros(lanes * self.capacity, dtype=previous.dtype)
            grown[target] = previous[source]
            setattr(self, name, grown)
            del previous
        self.base = np.arange(lanes, dtype=np.int64) * self.capacity

    def _write(self, stream: _CoreStream, records: Tuple[Any, ...]) -> None:
        """Append a chunk's records to the rings of the runs still going
        (a halted run never reads another record)."""
        np = _np
        counts, run, gid, clock, count, flags = records
        if not self.alive.all():
            keep = self.alive[run]
            run, gid, clock, count, flags = (
                column[keep] for column in (run, gid, clock, count, flags)
            )
            counts = np.where(self.alive, counts, 0)
        lanes = stream.row * self.runs + np.arange(self.runs)
        written = self.written[lanes] + counts
        needed = int((written - self.read[lanes]).max()) + 1
        if needed > self.capacity:
            self._grow(needed)
        if (
            clock.size
            and self.ring_clock.dtype != np.int64
            and max(int(clock.max()), int(count.max())) > _NARROW_MAX
        ):
            for name in ("ring_gid", "ring_clock", "ring_count"):
                setattr(self, name, getattr(self, name).astype(np.int64))
        lane = stream.row * self.runs + run
        rank = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
        slot = self.base[lane] + ((self.written[lane] + rank) % self.capacity)
        self.ring_gid[slot] = gid
        self.ring_clock[slot] = clock
        self.ring_count[slot] = count
        self.ring_flags[slot] = flags
        self.written[lanes] = written

    def _refill(self, lanes: Any) -> None:
        """Generate events until every lane in ``lanes`` has an unread
        record, its core can provably issue no more, or its run halted."""
        runs = self.runs
        rows = self.rows[lanes]
        for row in sorted(set(rows.tolist())):
            stream = self.streams[row]
            mine = lanes[rows == row]
            waiting = self.alive[mine - row * runs]
            while not stream.exhausted:
                starving = self.read[mine] >= self.written[mine]
                if not (starving & waiting & ~stream.steady[mine - row * runs]).any():
                    break
                stream.release(int(self._floor(stream).min()))
                self._write(stream, stream.generate(self.width))

    def _executed(self, stream: _CoreStream) -> Any:
        """Per run, the instructions up to the core's last executed
        record (0 before its first)."""
        np = _np
        lanes = stream.row * self.runs + np.arange(self.runs)
        read = self.read[lanes]
        last = self.base[lanes] + (read - 1) % self.capacity
        return np.where(read > 0, self.ring_count[last], 0)

    def _pending(self, stream: _CoreStream) -> Any:
        """Per run, the instruction count after the core's next unread
        record (``_NEVER`` when none is generated yet)."""
        np = _np
        lanes = stream.row * self.runs + np.arange(self.runs)
        read = self.read[lanes]
        slot = self.base[lanes] + read % self.capacity
        pending = self.ring_count[slot]
        return np.where(read < self.written[lanes], pending, np.int64(_NEVER))

    def _floor(self, stream: _CoreStream) -> Any:
        """Per run, a lower bound on the instructions the core executes
        before its run halts (see :meth:`_CoreStream.floor`): every
        instruction that starts before the analysis core's current time
        — or before ``T_last`` once the run halted — executes."""
        np = _np
        if stream is self.analysis:
            return np.full(self.runs, stream.length)
        lanes = stream.row * self.runs + np.arange(self.runs)
        horizon = np.where(self.alive, self.now[self.analysis_lanes], self.t_last)
        threshold = self.q[lanes] + horizon - self.now[lanes]
        return stream.floor(threshold, self._executed(stream), self._pending(stream))

    def _next_order(self, lanes: Any, position: Any, now: Any, q: Any) -> Any:
        """Encoded start times of the lanes' next records, which sit at
        ring ``position`` (``_NEVER`` when none will come)."""
        np = _np
        has = position < self.written[lanes]
        every = has.all()
        if not every:
            self._refill(lanes[~has])
            has = position < self.written[lanes]
        clock = self.ring_clock[self.base[lanes] + position % self.capacity]
        order = ((now + clock - q) << self.bits) | self.rows[lanes]
        return order if every else np.where(has, order, _NEVER)

    # -- merge ------------------------------------------------------------
    def run(self) -> List[ConcurrentRunResult]:
        np = _np
        runs = self.runs
        bits = self.bits
        row_mask = (1 << bits) - 1
        now = self.now
        q = self.q
        order = self.order
        order2 = order.reshape(len(self.core_ids), runs)
        read = self.read
        bus = self.bus
        memory = self.memory
        store_buffer = self.store_buffer
        fetch_of, addr_of, pre_of = self.fetch_of, self.addr_of, self.pre_of
        ipen_of, private_of = self.ipen_of, self.private_of
        fetch_miss, data_op, is_store = self.fetch_miss, self.data_op, self.is_store
        final_gid = self.final_gid
        every = np.arange(len(now))
        order[:] = self._next_order(every, read[every], now, q)
        run_ids = np.arange(runs)
        t_last = self.t_last
        alive = self.alive
        all_alive = bool(alive.all())
        while True:
            # -- schedule: per run, the minimum (start, core id) key.
            if all_alive:
                run_sel = run_ids
                best = np.minimum.reduce(order2)
            else:
                run_sel = np.flatnonzero(alive)
                if not run_sel.size:
                    break
                best = np.minimum.reduce(order2[:, run_sel])
            rows = best & row_mask
            start = best >> bits
            lanes = rows * runs + run_sel
            position = read[lanes]
            slot = self.base[lanes] + position % self.capacity
            gid = self.ring_gid[slot]
            flags = self.ring_flags[slot].astype(np.intp)
            # Private cycles of the record: TLB walks plus the static
            # cost between its fetch and its data access.
            private = private_of[flags] + pre_of[gid]
            t = start + private
            # -- fetch: an IL1 miss raises a line transaction, then a
            # DRAM access at the post-bus time.
            sel = fetch_miss[flags]
            if sel.any():
                sub_runs = run_sel[sel]
                t_sel = start[sel] + ipen_of[flags[sel]]
                cost = bus.request_idx(rows[sel], sub_runs, t_sel, True)
                cost += memory.access_idx(
                    sub_runs, fetch_of[gid[sel]], False, t_sel + cost
                )
                t[sel] += cost
            # -- data: a DL1 load miss raises a line transaction then a
            # DRAM read at the post-bus time.  A write-through store
            # drains through the buffer: ``now`` only advances on a
            # full-buffer stall, and its bus word transaction and DRAM
            # write are timed at the post-stall issue time.
            sel = data_op[flags]
            if sel.any():
                sub_lanes = lanes[sel]
                sub_runs = run_sel[sel]
                t_sel = t[sel]
                stores = is_store[flags[sel]]
                if stores.any():
                    t_sel[stores], store_slots = store_buffer.issue(
                        sub_lanes[stores], t_sel[stores]
                    )
                loads = ~stores
                cost = bus.request_idx(rows[sel], sub_runs, t_sel, loads)
                done = t_sel + cost
                done += memory.access_idx(
                    sub_runs,
                    addr_of[gid[sel]],
                    stores,
                    np.where(stores, t_sel, done),
                )
                if stores.any():
                    store_buffer.push(store_slots, done[stores])
                t[sel] = np.where(stores, t_sel, done)
            now[lanes] = t
            q_new = self.ring_clock[slot] + private
            q[lanes] = q_new
            position += 1
            read[lanes] = position
            # Halt before refilling: chunk release bounds a halted run's
            # progress by ``T_last``.
            halted = gid == final_gid
            if halted.any():
                done_runs = run_sel[halted]
                t_last[done_runs] = start[halted]
                alive[done_runs] = False
                all_alive = False
            order[lanes] = self._next_order(lanes, position, t, q_new)
        return self._results()

    # -- results ----------------------------------------------------------
    def _results(self) -> List[ConcurrentRunResult]:
        np = _np
        runs = self.runs
        t_last = self.t_last
        per_core: List[List[RunResult]] = []
        for stream in self.streams:
            lanes = stream.row * runs + np.arange(runs)
            now = self.now[lanes]
            q = self.q[lanes]
            length = stream.length
            if stream is self.analysis:
                count = np.full(runs, length, dtype=np.int64)
            elif not self.analysis.length or not length:
                count = np.zeros(runs, dtype=np.int64)
            else:
                done = self._executed(stream)
                # Executed: every instruction whose (start, core id) key
                # is below the analysis core's last (T_last, core id).
                threshold = q + (t_last - now) + (stream.core_id < self.analysis_core)
                count = stream.first_at(
                    threshold, done, self._pending(stream), self.width
                )
            pen, private = stream.snapshot(count)
            cycles = now + stream.static_clock(count) + pen - q
            prefix = stream.tables.prefix
            if length:
                passes, local = np.divmod(count, length)
                counters = passes[:, None] * prefix[length] + prefix[local]
            else:
                counters = np.zeros((runs, _STAT_FIELDS), dtype=np.int64)
            contention = self.bus.waits[lanes]
            per_core.append(
                [
                    RunResult(
                        cycles=cyc,
                        instructions=n,
                        icache=icache,
                        dcache=dcache,
                        itlb=itlb,
                        dtlb=dtlb,
                        fpu=FpuStats(*row[5:]),
                        pipeline=PipelineStats(*row[:5]),
                        core_id=stream.core_id,
                        bus_contention_cycles=waited,
                    )
                    for cyc, n, row, (icache, dcache, itlb, dtlb), waited in zip(
                        cycles.tolist(),
                        count.tolist(),
                        counters.tolist(),
                        private,
                        contention.tolist(),
                    )
                ]
            )
        return [
            ConcurrentRunResult(
                analysis_core=self.analysis_core,
                per_core={
                    core_id: per_core[row][run]
                    for row, core_id in enumerate(self.core_ids)
                },
                bus=self.bus.stats_for(run),
                memory=self.memory.stats_for(run, *self.bus.kinds_for(run)),
            )
            for run in range(runs)
        ]


def _run_degenerate(
    platform: Platform,
    traces_by_core: Mapping[int, Trace],
    seeds: Sequence[int],
    analysis_core: Optional[int],
    loop_co_runners: bool,
) -> List[ConcurrentRunResult]:
    """Deterministic platform: measure once, broadcast to every run.

    Exact because no component of a non-randomized platform consumes
    the per-run seed (see ``batch._run_degenerate``); the interleave is
    then a pure function of the traces, so every run is the reference
    run.
    """
    reference = platform.run_concurrent(
        traces_by_core, seeds[0], analysis_core, loop_co_runners
    )

    def clone() -> ConcurrentRunResult:
        # Fresh stats objects per run: the scalar path hands every run
        # independent (mutable) stats, so the broadcast must too.
        per_core = {
            core_id: replace(
                result,
                icache=replace(result.icache),
                dcache=replace(result.dcache),
                itlb=replace(result.itlb),
                dtlb=replace(result.dtlb),
                fpu=replace(result.fpu),
                pipeline=replace(result.pipeline),
            )
            for core_id, result in sorted(reference.per_core.items())
        }
        return ConcurrentRunResult(
            analysis_core=reference.analysis_core,
            per_core=per_core,
            bus=reference.bus.copy(),
            memory=replace(reference.memory),
        )

    return [clone() for _ in seeds]


def run_concurrent_batch(
    platform: Platform,
    traces_by_core: Mapping[int, Trace],
    seeds: Sequence[int],
    analysis_core: Optional[int] = None,
    loop_co_runners: bool = True,
) -> List[ConcurrentRunResult]:
    """Batched equivalent of ``[platform.run_concurrent(traces_by_core,
    seed, analysis_core, loop_co_runners) for seed in seeds]`` —
    bit-identical per-run results, all lanes advanced in lockstep."""
    if not seeds:
        raise ValueError("seeds must not be empty")
    if not traces_by_core:
        raise ValueError("traces_by_core must not be empty")
    reason = concurrent_batch_unsupported_reason(platform, sorted(traces_by_core))
    if reason is not None:
        raise BatchUnsupported(reason)
    if analysis_core is None:
        analysis_core = min(traces_by_core)
    elif analysis_core not in traces_by_core:
        raise ValueError(f"analysis_core {analysis_core} has no scheduled trace")
    if not platform.config.is_randomized:
        return _run_degenerate(
            platform, traces_by_core, seeds, analysis_core, loop_co_runners
        )
    engine = _ConcurrentEngine(
        platform, traces_by_core, seeds, analysis_core, loop_co_runners
    )
    return engine.run()
