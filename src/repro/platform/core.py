"""Single-core execution engine.

A :class:`Core` bundles the per-core resources of the paper's platform —
7-stage pipeline, IL1, DL1, ITLB, DTLB and FPU — and executes an
instruction :class:`~repro.platform.trace.Trace`, charging cycles for

* pipeline base cost, hazards, branch bubbles and integer long ops,
* IL1/DL1 hits (folded into the base cost) and misses (bus + DRAM),
* ITLB/DTLB misses (fixed page-walk penalty),
* write-through stores (drained through a store buffer to the bus; the
  core stalls only when the buffer is full),
* FP operation latencies (mode-dependent for FDIV/FSQRT).

Two paths execute a trace, with bit-identical results:

* :meth:`Core.execute`, the single-core path, first compiles the trace
  into an *event list* (:func:`_compile_segment`).  Everything
  trace-pure — fetch-line and page locality, pipeline hazards, FPU
  latencies — is folded into static cycle gaps, so only the
  instructions that touch per-run state remain: one event per
  fetch-line change or load/store.  The events are then drained
  through the stateful cache, TLB, bus, DRAM and store-buffer models.
  The compile is a pure function of the trace and the core
  configuration, so each core keeps a small LRU of compiled segments
  keyed by trace identity (:func:`_memoized`): a trace object executed
  again — in a later run of the same campaign, say — is not
  recompiled.  The single-core vector engine
  (:mod:`repro.platform.batch`) consumes the same compile through the
  same helper.
* :class:`CoreStepper` executes one instruction at a time through every
  model.  It is the resumable path
  :meth:`repro.platform.soc.Platform.run_concurrent` interleaves in
  cycle order, so co-scheduled cores' bus transactions genuinely
  overlap, and the independent oracle the compiled path is tested
  against.

Micro-architectural shortcuts, all timing-neutral or conservative:

* sequential fetches within one cache line hit a line (stream) buffer
  and do not re-probe the IL1 — LEON3 fetches through a line buffer;
* the last instruction/data page translation is cached (a one-entry
  micro-TLB), so the TLBs are probed only on page changes;
* FP latency overlaps the pipeline base cycle (``latency - 1`` extra
  cycles are charged).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, compress, count, repeat
from operator import ne, or_, rshift
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple, TypeVar

from .bus import Bus
from .cache import Cache, CacheConfig, CacheStats
from .fpu import FpOp, Fpu, FpuConfig, FpuStats
from .memory import MemoryController
from .pipeline import PipelineConfig, PipelineModel, PipelineStats
from .prng import CombinedLfsrPrng, derive_seed
from .tlb import Tlb, TlbConfig, TlbStats
from .trace import InstrKind, Trace

__all__ = ["CoreConfig", "RunResult", "Core", "CoreStepper"]


#: InstrKind -> FpOp mapping for the FPU-executed kinds.
_FP_OPS: Dict[int, FpOp] = {
    int(InstrKind.FADD): FpOp.ADD,
    int(InstrKind.FSUB): FpOp.SUB,
    int(InstrKind.FMUL): FpOp.MUL,
    int(InstrKind.FDIV): FpOp.DIV,
    int(InstrKind.FSQRT): FpOp.SQRT,
    int(InstrKind.FCONV): FpOp.CONV,
    int(InstrKind.FCMP): FpOp.CMP,
}

#: Memory kinds of a compiled event (the LOAD/STORE split).
_MK_NONE, _MK_LOAD, _MK_STORE = 0, 1, 2
_MEMORY_KINDS: Dict[int, int] = {
    int(InstrKind.LOAD): _MK_LOAD,
    int(InstrKind.STORE): _MK_STORE,
}

#: ``(kind, dep_distance, taken, operand_class)``: every trace field the
#: pipeline and FPU cost of one instruction depends on.
_IssueKey = Tuple[int, int, bool, float]

#: Number of pipeline/FPU counters per instruction: the five
#: :class:`PipelineStats` fields, then the four :class:`FpuStats` ones.
_STAT_FIELDS = 9

#: One event of a compiled segment (see :class:`_CompiledSegment`).
_Event = Tuple[int, int, int, int, int, int, int]

#: Fetch/translation locality: the last ``(line, itlb page, dtlb page)``
#: a stepper probed (-1 = none yet, a fresh :class:`CoreStepper`).
_Locality = Tuple[int, int, int]
_COLD: _Locality = (-1, -1, -1)

#: Compiled segments each :class:`Core` keeps.  A TVCA run executes a
#: handful of job traces; equal jobs share one trace object across the
#: runs of a campaign, and the cap keeps them warm while the traces
#: that change from run to run cycle through.
_CORE_SEGMENT_CACHE_SIZE = 16

_T = TypeVar("_T")


def _issue_keys(trace: Trace) -> Iterator[_IssueKey]:
    """The cost key of every instruction of ``trace``, in order."""
    return zip(
        trace.kinds, trace.dep_distances, trace.takens, trace.operand_classes
    )


def _issue_table(
    keys: Iterable[_IssueKey], core_cfg: CoreConfig
) -> Dict[_IssueKey, Tuple[int, Tuple[int, ...]]]:
    """Static cycles and counter increments of one instruction per key.

    The cost is the pipeline cost plus, for FP kinds, the FPU latency
    minus the overlapped base cycle; the increments are the nine
    pipeline/FPU counters (:data:`_STAT_FIELDS`) one such instruction
    adds.  Both come from the real :class:`PipelineModel` and
    :class:`Fpu`, called once per distinct key on fresh instances, so
    they are the scalar ones by construction: both oracles are pure
    functions of the key and the core configuration.  This is the one
    home of the trace-pure cost model; every compile goes through it.
    """
    table: Dict[_IssueKey, Tuple[int, Tuple[int, ...]]] = {}
    for key in keys:
        kind, dep_distance, taken, operand_class = key
        pipeline = PipelineModel(core_cfg.pipeline)
        fpu = Fpu(core_cfg.fpu)
        cost = pipeline.issue(kind, dep_distance, taken)
        fp_op = _FP_OPS.get(kind)
        if fp_op is not None:
            cost += fpu.latency(fp_op, operand_class) - 1
        pl = pipeline.stats
        fp = fpu.stats
        table[key] = (
            cost,
            (
                pl.instructions,
                pl.base_cycles,
                pl.branch_bubbles,
                pl.load_use_stalls,
                pl.long_op_stalls,
                fp.ops,
                fp.div_ops,
                fp.sqrt_ops,
                fp.total_cycles,
            ),
        )
    return table


@dataclass
class _CompiledSegment:
    """One trace reduced to its per-run-divergent events.

    ``events`` tuples are ``(gap, fetch_pc, itlb_page, mem_kind, addr,
    dtlb_page, pre_cost)``, one per fetch-line change or load/store:

    * ``gap`` is the static cycle cost since the previous event — the
      pipeline and FPU cost of the instructions in between, including
      the post-fetch cost of a fetch-only previous event;
    * ``fetch_pc`` is the fetched byte address when the instruction
      probes the IL1, else -1, and ``itlb_page`` the ITLB page probed on
      an instruction-page change (else -1);
    * ``mem_kind`` is ``_MK_NONE``/``_MK_LOAD``/``_MK_STORE``, ``addr``
      the data address and ``dtlb_page`` the DTLB page probed on a
      data-page change (else -1);
    * ``pre_cost`` is a load/store's own pipeline cost, charged between
      its fetch and its data access exactly as the stepper does.

    ``tail`` holds the static cycles after the last event; ``pipeline``
    and ``fpu`` are the segment's pipeline/FPU counter totals;
    ``locality`` is the ``(line, itlb page, dtlb page)`` state at the
    end of the segment.
    """

    events: List[_Event]
    tail: int
    length: int
    pipeline: PipelineStats
    fpu: FpuStats
    locality: _Locality


def _compile_segment(
    trace: Trace, core_cfg: CoreConfig, locality: _Locality = _COLD
) -> _CompiledSegment:
    """Compile ``trace`` into its event list (see :class:`_CompiledSegment`).

    Locality starts at ``locality``: cold by default, matching a fresh
    :class:`CoreStepper`; a looping stepper's later passes start from
    the previous pass's end locality.  Pure
    Python: numpy is optional, and without it every campaign runs
    through this compile.  Per-instruction work is C-level iteration
    (key counts, cost lookups, prefix sums, line-change and memory
    flags); the one Python-level loop visits only the events.
    """
    kinds = trace.kinds
    pcs = trace.pcs
    addrs = trace.addrs
    # Each instruction's key as the index of the key's first occurrence:
    # the one pass that hashes keys; the later passes work on ints.
    key_ids: Dict[_IssueKey, int] = {}
    ids = list(map(key_ids.setdefault, _issue_keys(trace), count()))
    counts = Counter(ids)
    table = _issue_table(key_ids, core_cfg)
    totals = [0] * _STAT_FIELDS
    costs: Dict[int, int] = {}
    for key, key_id in key_ids.items():
        cost, increments = table[key]
        costs[key_id] = cost
        for index, increment in enumerate(increments):
            totals[index] += counts[key_id] * increment
    # charged[i]: static cycles of the instructions before index i.
    charged = list(accumulate(map(costs.__getitem__, ids), initial=0))

    ipage_shift = core_cfg.itlb.page_shift
    dpage_shift = core_cfg.dtlb.page_shift
    memory_kinds = _MEMORY_KINDS
    lines = list(map(rshift, pcs, repeat(core_cfg.icache.line_shift)))
    last_iline, last_ipage, last_dpage = locality
    fetches = map(ne, lines, chain((last_iline,), lines))
    touches = map(memory_kinds.__contains__, kinds)

    events: List[_Event] = []
    append = events.append
    done = 0  # charged[] position the emitted events account for
    for i in compress(count(), map(or_, fetches, touches)):
        fetch_pc = itlb_page = -1
        line = lines[i]
        if line != last_iline:
            last_iline = line
            fetch_pc = pcs[i]
            ipage = fetch_pc >> ipage_shift
            if ipage != last_ipage:
                last_ipage = itlb_page = ipage
        mem_kind = memory_kinds.get(kinds[i], _MK_NONE)
        start = charged[i]
        if mem_kind == _MK_NONE:
            # Fetch only: the instruction's own cost joins the next gap.
            append((start - done, fetch_pc, itlb_page, _MK_NONE, -1, -1, 0))
            done = start
            continue
        addr = addrs[i]
        dtlb_page = addr >> dpage_shift
        if dtlb_page != last_dpage:
            last_dpage = dtlb_page
        else:
            dtlb_page = -1
        end = charged[i + 1]
        append(
            (start - done, fetch_pc, itlb_page, mem_kind, addr, dtlb_page, end - start)
        )
        done = end
    return _CompiledSegment(
        events=events,
        tail=charged[-1] - done,
        length=len(kinds),
        pipeline=PipelineStats(*totals[:5]),
        fpu=FpuStats(*totals[5:]),
        locality=(last_iline, last_ipage, last_dpage),
    )


def _memoized(
    cache: "OrderedDict[Any, Any]",
    size: int,
    trace: Trace,
    core_cfg: CoreConfig,
    build: Callable[[], _T],
    *extra: Any,
) -> _T:
    """Identity-keyed LRU memo of ``build()`` for one (trace, core
    config) pair plus hashable ``extra`` key parts.

    The cached entry keeps strong references to the trace and config,
    so the ``is`` check on lookup makes id reuse after garbage
    collection impossible while an entry lives.  Compilation costs about
    one scalar pass over the trace; :meth:`Core.execute` and the vector
    engines all memoize through this helper, so each compiles a trace
    object once per cache rather than once per run, engine or shard.
    """
    key = (id(trace), id(core_cfg)) + extra
    entry = cache.get(key)
    if entry is not None and entry[0] is trace and entry[1] is core_cfg:
        cache.move_to_end(key)
        value: _T = entry[2]
        return value
    value = build()
    cache[key] = (trace, core_cfg, value)
    cache.move_to_end(key)
    while len(cache) > size:
        cache.popitem(last=False)
    return value


def _accumulate_pipeline(total: PipelineStats, part: PipelineStats) -> None:
    total.instructions += part.instructions
    total.base_cycles += part.base_cycles
    total.branch_bubbles += part.branch_bubbles
    total.load_use_stalls += part.load_use_stalls
    total.long_op_stalls += part.long_op_stalls


def _accumulate_fpu(total: FpuStats, part: FpuStats) -> None:
    total.ops += part.ops
    total.div_ops += part.div_ops
    total.sqrt_ops += part.sqrt_ops
    total.total_cycles += part.total_cycles


@dataclass(frozen=True)
class CoreConfig:
    """Per-core resource configuration.

    ``store_buffer_depth`` models the LEON3 write buffer: stores retire
    into the buffer at no cost and drain over the bus; the pipeline
    stalls only when a store finds the buffer full.
    """

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    itlb: TlbConfig = field(default_factory=TlbConfig)
    dtlb: TlbConfig = field(default_factory=TlbConfig)
    fpu: FpuConfig = field(default_factory=FpuConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    store_buffer_depth: int = 8


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one trace on one core.

    ``core_id`` records which core ran the trace and
    ``bus_contention_cycles`` how many cycles this core's transactions
    spent waiting for the shared bus (its slice of
    :attr:`~repro.platform.bus.BusStats.contention_by_master`) — zero in
    isolation, the per-core contention breakdown in co-scheduled runs.
    """

    cycles: int
    instructions: int
    icache: CacheStats
    dcache: CacheStats
    itlb: TlbStats
    dtlb: TlbStats
    fpu: FpuStats
    pipeline: PipelineStats
    core_id: int = 0
    bus_contention_cycles: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


class Core:
    """One LEON3-like core attached to the shared bus and DRAM."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        bus: Bus,
        memory: MemoryController,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.bus = bus
        self.memory = memory
        # Each randomized component gets its own PRNG instance so that
        # victim draws in one cache never perturb another; all are
        # reseeded from the single per-run seed in prepare_run().  The
        # placeholder seeds (1..4) never reach a measured run.
        self.icache = Cache(
            config.icache,
            prng=CombinedLfsrPrng(1),
            name=f"core{core_id}.il1",
        )
        self.dcache = Cache(
            config.dcache,
            prng=CombinedLfsrPrng(2),
            name=f"core{core_id}.dl1",
        )
        self.itlb = Tlb(
            config.itlb,
            prng=CombinedLfsrPrng(3),
            name=f"core{core_id}.itlb",
        )
        self.dtlb = Tlb(
            config.dtlb,
            prng=CombinedLfsrPrng(4),
            name=f"core{core_id}.dtlb",
        )
        self.fpu = Fpu(config.fpu)
        self.pipeline = PipelineModel(config.pipeline)
        self._store_buffer_ready: List[int] = []
        # Compiled segments by trace identity (see execute).  Not cleared
        # by prepare_run: the compile depends on the trace and the core
        # configuration only, never on per-run state.
        self._segments: "OrderedDict[Any, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    # Run protocol
    # ------------------------------------------------------------------
    def prepare_run(self, seed: int) -> None:
        """Flush all state and install per-run randomization seeds.

        Mirrors the paper's protocol: caches flushed, platform reset and
        a fresh seed installed before every measured execution.  Each
        component receives an independently derived sub-seed.
        """
        self.icache.flush()
        self.dcache.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self.icache.reseed(derive_seed(seed, self.core_id, 0))
        self.dcache.reseed(derive_seed(seed, self.core_id, 1))
        self.itlb.reseed(derive_seed(seed, self.core_id, 2))
        self.dtlb.reseed(derive_seed(seed, self.core_id, 3))
        self.icache.reset_stats()
        self.dcache.reset_stats()
        self.itlb.reset_stats()
        self.dtlb.reset_stats()
        self.fpu.reset_stats()
        self.pipeline.reset_stats()
        self._store_buffer_ready = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stepper(
        self, trace: Trace, start_cycle: int = 0, loop: bool = False
    ) -> "CoreStepper":
        """A resumable execution of ``trace`` on this core."""
        return CoreStepper(self, trace, start_cycle=start_cycle, loop=loop)

    def execute(self, trace: Trace, start_cycle: int = 0) -> RunResult:
        """Execute ``trace`` to completion; return cycles and statistics.

        Compiles ``trace`` into its event list and drains the events
        through this core's caches, TLBs and store buffer and the shared
        bus and DRAM, then adds the compiled pipeline/FPU totals to the
        core's counters.  Hardware state — caches, TLBs, store buffer,
        bus horizon — carries over from the previous call; fetch and
        translation locality restart, as for a fresh :class:`CoreStepper`.
        Bit-identical to draining a stepper.  The compile is memoized per
        core by trace identity (an LRU of
        :data:`_CORE_SEGMENT_CACHE_SIZE` segments that lives as long as
        the core), so traces must not be mutated once executed.
        """
        config = self.config
        compiled = _memoized(
            self._segments,
            _CORE_SEGMENT_CACHE_SIZE,
            trace,
            config,
            lambda: _compile_segment(trace, config),
        )
        icache_read = self.icache.read
        dcache_read = self.dcache.read
        dcache_write = self.dcache.write
        itlb_lookup = self.itlb.lookup
        dtlb_lookup = self.dtlb.lookup
        bus_request = self.bus.request
        memory_access = self.memory.access
        core_id = self.core_id
        buffer_depth = self.config.store_buffer_depth
        store_buffer = self._store_buffer_ready
        contention_base = self.bus.stats.contention_by_master.get(core_id, 0)

        now = start_cycle
        for (
            gap,
            fetch_pc,
            itlb_page,
            mem_kind,
            addr,
            dtlb_page,
            pre_cost,
        ) in compiled.events:
            now += gap
            if fetch_pc >= 0:
                if itlb_page >= 0:
                    now += itlb_lookup(fetch_pc)
                if not icache_read(fetch_pc):
                    now += bus_request(core_id, now, True)
                    now += memory_access(fetch_pc, False, now)
            if mem_kind == _MK_NONE:
                continue
            now += pre_cost
            if dtlb_page >= 0:
                now += dtlb_lookup(addr)
            if mem_kind == _MK_LOAD:
                if not dcache_read(addr):
                    now += bus_request(core_id, now, True)
                    now += memory_access(addr, False, now)
            else:
                dcache_write(addr)
                # Write-through: the store drains through the buffer.
                while store_buffer and store_buffer[0] <= now:
                    store_buffer.pop(0)
                if len(store_buffer) >= buffer_depth:
                    # Buffer full: stall until the oldest entry drains.
                    now = max(now, store_buffer.pop(0))
                cost = bus_request(core_id, now, False)
                cost += memory_access(addr, True, now)
                store_buffer.append(now + cost)
        now += compiled.tail

        _accumulate_pipeline(self.pipeline.stats, compiled.pipeline)
        _accumulate_fpu(self.fpu.stats, compiled.fpu)
        return self._result(now - start_cycle, compiled.length, contention_base)

    def _result(
        self, cycles: int, instructions: int, contention_base: int
    ) -> RunResult:
        """Snapshot the core's counters into a :class:`RunResult`."""
        waited = self.bus.stats.contention_by_master.get(self.core_id, 0)
        return RunResult(
            cycles=cycles,
            instructions=instructions,
            icache=replace(self.icache.stats),
            dcache=replace(self.dcache.stats),
            itlb=replace(self.itlb.stats),
            dtlb=replace(self.dtlb.stats),
            fpu=replace(self.fpu.stats),
            pipeline=replace(self.pipeline.stats),
            core_id=self.core_id,
            bus_contention_cycles=waited - contention_base,
        )


class CoreStepper:
    """Resumable per-instruction execution of one trace on one core.

    The stepper owns the per-trace cursor — instruction index, local
    cycle count and the fetch/translation locality state — while the
    parent :class:`Core` owns the hardware state (caches, TLBs, FPU,
    store buffer).  :meth:`advance` executes a bounded burst, every
    instruction through the pipeline and FPU oracles as well as the
    stateful models.  It is the path
    :meth:`repro.platform.soc.Platform.run_concurrent` needs — several
    steppers advanced one instruction at a time in cycle order — and
    the independent reference the compiled :meth:`Core.execute` is
    tested against.

    ``loop=True`` restarts the trace from the top when it runs off the
    end — used for co-runner opponents that must stay active for the
    whole co-scheduled run; a looping stepper never reports ``done``.
    """

    __slots__ = (
        "core",
        "trace",
        "start_cycle",
        "loop",
        "now",
        "index",
        "instructions",
        "_last_iline",
        "_last_ipage",
        "_last_dpage",
        "_contention_base",
    )

    def __init__(
        self,
        core: Core,
        trace: Trace,
        start_cycle: int = 0,
        loop: bool = False,
    ) -> None:
        self.core = core
        self.trace = trace
        self.start_cycle = start_cycle
        self.loop = loop and len(trace) > 0
        self.now = start_cycle
        self.index = 0
        self.instructions = 0
        self._last_iline = -1
        self._last_ipage = -1
        self._last_dpage = -1
        self._contention_base = core.bus.stats.contention_by_master.get(
            core.core_id, 0
        )

    @property
    def done(self) -> bool:
        """True once the trace is exhausted (never for looping steppers)."""
        return not self.loop and self.index >= len(self.trace.kinds)

    def step(self) -> bool:
        """Execute one instruction; return False when the trace is done."""
        return self.advance(1) == 1

    def advance(self, max_instructions: int) -> int:
        """Execute up to ``max_instructions``; return the number executed.

        Stops early only when the trace ends (non-looping steppers).
        State is written back to the stepper on exit, so execution can
        resume at any time — including after other cores have advanced
        and moved the shared bus / DRAM state.
        """
        if max_instructions <= 0 or self.done:
            return 0
        core = self.core
        cfg = core.config
        icache = core.icache
        dcache = core.dcache
        itlb = core.itlb
        dtlb = core.dtlb
        fpu = core.fpu
        pipeline = core.pipeline
        bus = core.bus
        memory = core.memory
        core_id = core.core_id
        buffer_depth = cfg.store_buffer_depth

        iline_shift = icache.config.line_shift
        ipage_shift = itlb.config.page_shift
        dpage_shift = dtlb.config.page_shift

        trace = self.trace
        kinds = trace.kinds
        pcs = trace.pcs
        addrs = trace.addrs
        op_classes = trace.operand_classes
        deps = trace.dep_distances
        takens = trace.takens
        length = len(kinds)
        if length == 0:
            return 0

        load_kind = int(InstrKind.LOAD)
        store_kind = int(InstrKind.STORE)
        fp_ops = _FP_OPS

        now = self.now
        index = self.index
        last_iline = self._last_iline
        last_ipage = self._last_ipage
        last_dpage = self._last_dpage
        looping = self.loop
        store_buffer = core._store_buffer_ready

        executed = 0
        while executed < max_instructions:
            if index >= length:
                if not looping:
                    break
                index = 0
            kind = kinds[index]
            pc = pcs[index]

            # ---------------- fetch ----------------
            iline = pc >> iline_shift
            if iline != last_iline:
                last_iline = iline
                ipage = pc >> ipage_shift
                if ipage != last_ipage:
                    last_ipage = ipage
                    now += itlb.lookup(pc)
                if not icache.read(pc):
                    now += bus.request(core_id, now, is_line=True)
                    now += memory.access(pc, False, now)

            # ---------------- pipeline base + hazards ----------------
            now += pipeline.issue(kind, deps[index], takens[index])

            # ---------------- execute / memory ----------------
            if kind == load_kind:
                addr = addrs[index]
                dpage = addr >> dpage_shift
                if dpage != last_dpage:
                    last_dpage = dpage
                    now += dtlb.lookup(addr)
                if not dcache.read(addr):
                    now += bus.request(core_id, now, is_line=True)
                    now += memory.access(addr, False, now)
            elif kind == store_kind:
                addr = addrs[index]
                dpage = addr >> dpage_shift
                if dpage != last_dpage:
                    last_dpage = dpage
                    now += dtlb.lookup(addr)
                dcache.write(addr)
                # Write-through: the store drains through the buffer.
                while store_buffer and store_buffer[0] <= now:
                    store_buffer.pop(0)
                if len(store_buffer) >= buffer_depth:
                    # Buffer full: stall until the oldest entry drains.
                    now = max(now, store_buffer.pop(0))
                cost = bus.request(core_id, now, is_line=False)
                cost += memory.access(addr, True, now)
                store_buffer.append(now + cost)
            else:
                fp_op = fp_ops.get(kind)
                if fp_op is not None:
                    # Overlap the pipeline base cycle with the FP start.
                    now += fpu.latency(fp_op, op_classes[index]) - 1

            index += 1
            executed += 1

        self.now = now
        self.index = index
        self._last_iline = last_iline
        self._last_ipage = last_ipage
        self._last_dpage = last_dpage
        self.instructions += executed
        core._store_buffer_ready = store_buffer
        return executed

    def result(self) -> RunResult:
        """Snapshot the execution outcome (valid mid-run for co-runners
        halted when the analysis core finished)."""
        return self.core._result(
            self.now - self.start_cycle, self.instructions, self._contention_base
        )
