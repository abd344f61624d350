"""Vectorized batch execution of co-scheduled (multicore) replications.

Contention campaigns execute the *same* scenario — one analysis trace
plus looping opponent traces on the other cores — once per replication,
varying only the per-run platform randomization.  The scalar path pays
the Python interpreter per interleave step per run; this module advances
all ``R`` replications of a scenario in lockstep: one global step
executes, for every run, one instruction on the run's
min-``(now, core_id)`` core (see :mod:`repro.platform.schedule` — the
per-run ``argmin`` over a cores × runs cycle matrix realizes exactly
the policy the scalar :func:`~repro.platform.schedule.run_min_time_interleave`
heap executes, because ties break toward the lowest row index and the
rows are ordered by core id).

The engine flattens the (scheduled core, replication) grid into one
*superlane* dimension of ``C·R`` lanes (core-major, so superlane
``ci·R + r`` is core ``ci``'s lane for run ``r``): IL1/DL1/ITLB/DTLB tag
stores, the store-buffer rings, cycle counters and trace cursors are all
superlane-wide.  The hardware models are the single-core engine's
(:mod:`repro.platform.batch`), driven in their *index* form: because
each run advances exactly one core per step, the step's work involves
at most ``R`` superlanes — and each sub-event (fetch probe, TLB walk,
load, store) far fewer — so callers pass arrays of unique lane indices
with per-lane addresses and the components gather, compute at the
event's width, and scatter back.  The scatters are race-free by the
same invariant (one selected lane per run, unique indices).  The shared
bus and DRAM controller keep per-run state (busy horizon, round-robin
grant pointer, per-master splits matching
:class:`~repro.platform.bus.BusStats`, open-row/refresh state) addressed
by the event's unique run indices.

Lanes' interleavings diverge (randomized caches make contention
lane-specific), so per-instruction facts — fetch probes, page changes,
pipeline and FPU costs, memory operations — are precompiled into
per-index tables (the single-core compiler's rows, stacked) and gathered
at each superlane's own cursor.  Looping co-runners use a two-region
table: region one compiles the trace with cold fetch/translation
locality (a fresh
:class:`~repro.platform.core.CoreStepper`), region two with the locality
carried over the wrap.  The end-of-pass locality state is a fixed point
— it is determined by the trace's last program counter and last data
access — so the wrapped region is exact for every pass after the first.
Pipeline and FPU statistics are locality-independent per index and are
reconstructed per lane from exclusive prefix sums at the lane's final
instruction count.

Bit-identity contract
---------------------

For every supported configuration the engine reproduces the scalar
interleave *exactly*: per-core cycle counts and instruction counts,
cache/TLB/FPU/pipeline counters, the bus per-master contention and
transaction splits and the DRAM breakdown equal bit for bit
``[platform.run_concurrent(traces, seed, ...) for seed in seeds]``
(verified by ``tests/platform/test_concurrent_batch.py``).  Runs halt
per lane the moment the lane's analysis core retires its last
instruction, freezing that lane's co-runner snapshots — the same
boundary the scalar scheduler realizes.

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

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence

from .batch import (
    _MK_LOAD,
    _MK_STORE,
    BatchUnsupported,
    _cores_unsupported_reason,
    _lane_table,
    _LaneTable,
    _policy_unsupported_reason,
    _VecBus,
    _VecCore,
    _VecMemory,
)
from .core import RunResult
from .fpu import FpuStats
from .pipeline import PipelineStats
from .schedule import UNSCHEDULABLE
from .soc import ConcurrentRunResult, Platform
from .trace import Trace

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
# Engine
# ----------------------------------------------------------------------


class _ConcurrentEngine:
    """All lane state of one batched co-scheduled campaign stride.

    The (scheduled core, run) grid is flattened core-major into one
    superlane axis: private components live on ``C·R`` superlanes, the
    shared bus/memory on ``R`` runs, and every global step gathers the
    per-run selected superlanes and drives the index-form components
    over them.
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
        core_cfg = cfg.core
        runs = len(seeds)
        self.runs = runs
        self.analysis_core = analysis_core
        core_ids = sorted(traces_by_core)
        self.core_ids = core_ids
        self.analysis_index = core_ids.index(analysis_core)
        num_cores = len(core_ids)
        lanes = num_cores * runs
        # Per-core tables concatenated into shared per-column arrays;
        # cursors are *absolute* row indices (core base + local index).
        self.tables: List[_LaneTable] = []
        bases: List[int] = []
        offset = 0
        for core_id in core_ids:
            table = _lane_table(
                traces_by_core[core_id],
                core_cfg,
                looping=loop_co_runners and core_id != analysis_core,
            )
            self.tables.append(table)
            bases.append(offset)
            offset += len(table.rows)
        rows_all = np.concatenate([table.rows for table in self.tables], axis=0)
        self._cols = tuple(
            np.ascontiguousarray(rows_all[:, column]) for column in range(6)
        )
        # Private components on the core-major superlane axis
        # (superlane = ci*runs + r); shared ones per run.
        self.core = _VecCore(core_cfg, seeds, core_ids, cfg.prng_mode)
        self.bus = _VecBus(cfg.bus, runs, core_ids)
        self.memory = _VecMemory(cfg.memory, runs)
        self.now = np.zeros(lanes, dtype=np.int64)
        self.n = np.zeros(lanes, dtype=np.int64)
        self.j = np.zeros(lanes, dtype=np.int64)
        # Scheduling length per core row: a looping co-runner never
        # exhausts, a finite trace unschedules at its instruction count.
        self._sched_len = np.empty((num_cores, 1), dtype=np.int64)
        wrap_needed = any(table.looping for table in self.tables)
        wrap_at = np.full(lanes, -1, dtype=np.int64) if wrap_needed else None
        wrap_to = np.zeros(lanes, dtype=np.int64) if wrap_needed else None
        j2 = self.j.reshape(num_cores, runs)
        for index, table in enumerate(self.tables):
            base = bases[index]
            j2[index] = base
            if table.looping:
                self._sched_len[index] = UNSCHEDULABLE
                assert wrap_at is not None and wrap_to is not None
                wrap_at.reshape(num_cores, runs)[index] = base + 2 * table.length
                wrap_to.reshape(num_cores, runs)[index] = base + table.length
            else:
                self._sched_len[index] = table.length
        self._wrap_at = wrap_at
        self._wrap_to = wrap_to

    def run(self) -> List[ConcurrentRunResult]:
        np = _np
        runs = self.runs
        num_cores = len(self.core_ids)
        now = self.now
        n = self.n
        j = self.j
        now2 = now.reshape(num_cores, runs)
        n2 = n.reshape(num_cores, runs)
        icache = self.core.icache
        dcache = self.core.dcache
        itlb = self.core.itlb
        dtlb = self.core.dtlb
        store_buffer = self.core.store_buffer
        bus = self.bus
        memory = self.memory
        col_fetch, col_ipage, col_pre, col_mkind, col_addr, col_dpage = self._cols
        sched_len = self._sched_len
        wrap_at = self._wrap_at
        wrap_to = self._wrap_to
        run_ids = np.arange(runs)
        analysis_len = self.tables[self.analysis_index].length
        n_analysis = n2[self.analysis_index]
        alive = n_analysis < analysis_len
        all_alive = bool(alive.all())
        while all_alive or alive.any():
            # -- schedule: per-run argmin over the (cores, runs) cycle
            # matrix; ties break to the lowest row = lowest core id.
            sched = np.where(n2 < sched_len, now2, UNSCHEDULABLE)
            selected = sched.argmin(axis=0)
            if all_alive:
                rows = selected
                run_sel = run_ids
            else:
                rows = selected[alive]
                run_sel = run_ids[alive]
            idx = rows * runs + run_sel
            j_i = j[idx]
            # -- fetch: line-crossing instructions probe ITLB/IL1; an
            # IL1 miss raises a line transaction then a DRAM access at
            # the post-bus time.
            fetch = col_fetch[j_i]
            f_sel = fetch >= 0
            if f_sel.any():
                fidx = idx[f_sel]
                ipage = col_ipage[j_i[f_sel]]
                i_sel = ipage >= 0
                if i_sel.any():
                    itlb.lookup_idx(fidx[i_sel], ipage[i_sel], now)
                faddr = fetch[f_sel]
                hit = icache.read_idx(fidx, faddr)
                if not hit.all():
                    miss = ~hit
                    miss_idx = fidx[miss]
                    now_m = now[miss_idx]
                    bus_cost = bus.request_idx(
                        rows[f_sel][miss], run_sel[f_sel][miss], now_m, True
                    )
                    mem_cost = memory.access_idx(
                        run_sel[f_sel][miss], faddr[miss], False, now_m + bus_cost
                    )
                    now[miss_idx] = now_m + bus_cost + mem_cost
            # -- pipeline (plus FPU extra cycles folded into the table).
            now[idx] += col_pre[j_i]
            # -- data access.
            mem_kind = col_mkind[j_i]
            l_sel = mem_kind == _MK_LOAD
            s_sel = mem_kind == _MK_STORE
            any_load = l_sel.any()
            any_store = s_sel.any()
            if any_load or any_store:
                d_sel = l_sel | s_sel
                dpage = col_dpage[j_i[d_sel]]
                t_sel = dpage >= 0
                if t_sel.any():
                    dtlb.lookup_idx(idx[d_sel][t_sel], dpage[t_sel], now)
                if any_load:
                    lidx = idx[l_sel]
                    laddr = col_addr[j_i[l_sel]]
                    hit = dcache.read_idx(lidx, laddr)
                    if not hit.all():
                        miss = ~hit
                        miss_idx = lidx[miss]
                        now_m = now[miss_idx]
                        bus_cost = bus.request_idx(
                            rows[l_sel][miss], run_sel[l_sel][miss], now_m, True
                        )
                        mem_cost = memory.access_idx(
                            run_sel[l_sel][miss],
                            laddr[miss],
                            False,
                            now_m + bus_cost,
                        )
                        now[miss_idx] = now_m + bus_cost + mem_cost
                if any_store:
                    # Write-through: the store drains through the
                    # buffer; ``now`` only advances on a full-buffer
                    # stall, while the bus word transaction and the DRAM
                    # write are timed at the post-stall issue time and
                    # do not advance ``now``.
                    sidx = idx[s_sel]
                    saddr = col_addr[j_i[s_sel]]
                    dcache.write_idx(sidx, saddr)
                    store_buffer.prepare_store(sidx, now)
                    now_s = now[sidx]
                    store_runs = run_sel[s_sel]
                    bus_cost = bus.request_idx(rows[s_sel], store_runs, now_s, False)
                    mem_cost = memory.access_idx(store_runs, saddr, True, now_s)
                    store_buffer.push(sidx, now_s + bus_cost + mem_cost)
            # -- cursors: advance the executed superlanes; looping
            # co-runners wrap from the end of the wrapped region back to
            # its start.
            n[idx] += 1
            j_next = j_i + 1
            if wrap_at is not None:
                j_next = np.where(j_next == wrap_at[idx], wrap_to[idx], j_next)
            j[idx] = j_next
            alive = n_analysis < analysis_len
            if all_alive:
                all_alive = bool(alive.all())
        return [self._result_for(run) for run in range(runs)]

    def _result_for(self, run: int) -> ConcurrentRunResult:
        """Scalar-shaped snapshot of one run (halt-point snapshots for
        co-runners, the full run for the analysis core)."""
        runs = self.runs
        per_core: Dict[int, RunResult] = {}
        for index, core_id in enumerate(self.core_ids):
            lane = index * runs + run
            table = self.tables[index]
            n = int(self.n[lane])
            length = table.length
            if length > 0:
                counters = table.totals * (n // length) + table.prefix[n % length]
            else:
                counters = table.prefix[0]
            pipeline = PipelineStats(
                instructions=int(counters[0]),
                base_cycles=int(counters[1]),
                branch_bubbles=int(counters[2]),
                load_use_stalls=int(counters[3]),
                long_op_stalls=int(counters[4]),
            )
            fpu = FpuStats(
                ops=int(counters[5]),
                div_ops=int(counters[6]),
                sqrt_ops=int(counters[7]),
                total_cycles=int(counters[8]),
            )
            per_core[core_id] = RunResult(
                cycles=int(self.now[lane]),
                instructions=n,
                icache=self.core.icache.stats_for(lane),
                dcache=self.core.dcache.stats_for(lane),
                itlb=self.core.itlb.stats_for(lane),
                dtlb=self.core.dtlb.stats_for(lane),
                fpu=fpu,
                pipeline=pipeline,
                core_id=core_id,
                bus_contention_cycles=int(self.bus.contention_by_core[index, run]),
            )
        return ConcurrentRunResult(
            analysis_core=self.analysis_core,
            per_core=per_core,
            bus=self.bus.stats_for(run),
            memory=self.memory.stats_for(run),
        )


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
