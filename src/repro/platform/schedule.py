"""The co-scheduling (lane-scheduler) policy shared by both engines.

Co-scheduled execution interleaves per-core instruction streams over the
shared bus and DRAM controller.  The *interleave policy* — which core
executes its next instruction first — is load-bearing: bus arbitration,
the DRAM open-row state and the refresh window all depend on the global
order of shared-resource accesses, so two engines only agree bit for bit
if they realize the same policy.  This module is the single home of that
policy; the scalar path (:meth:`repro.platform.soc.Platform.run_concurrent`)
executes it directly via :func:`run_min_time_interleave`, and the
vectorized engine (:mod:`repro.platform.batch_concurrent`) implements the
same contract lane-wise with a per-run minimum over the cores' next bus
instructions (verified bit-identical by the concurrent parity suite).

Min-time interleave policy
--------------------------

    Among the cores that still have work, always execute one instruction
    on the core with the smallest ``(now, core_id)`` key — local cycle
    count first, ties broken by the lower core id — until the analysis
    core's trace is exhausted.

Two consequences the engines rely on:

* The global execution order is the merge of the per-core instruction
  streams sorted by each instruction's *pre-execution* ``(now, core_id)``
  key.  Instructions whose keys are ordered execute in key order, so the
  sequence of shared-resource accesses (with their issue times) is a
  pure function of the traces and the seed.  Restricted to the
  instructions that touch the bus, it is the merge of the per-core
  bus-instruction streams by the same key: the vectorized engine's
  shared merge steps only those.
* The run halts immediately after the analysis core's last instruction;
  a co-runner therefore executes exactly the prefix of its stream whose
  keys are smaller than ``(T_last, analysis_core)``, where ``T_last`` is
  the pre-execution time of that last instruction.  (Any core with a
  smaller key would have been selected first.)  The vectorized engine
  uses this characterization to rebuild co-runner halt snapshots from
  its private pass.
"""

from __future__ import annotations

import heapq
from typing import List, Mapping, Protocol, Tuple

__all__ = ["ScheduledLane", "UNSCHEDULABLE", "run_min_time_interleave"]


#: Cycle value vectorized schedulers assign to finished (or otherwise
#: unschedulable) lanes so a plain argmin over ``now`` implements "among
#: the cores that still have work"; far above any reachable cycle count
#: while still safe to add small offsets to in int64.
UNSCHEDULABLE = 1 << 62


class ScheduledLane(Protocol):
    """What the scheduler needs from one core's execution lane."""

    now: int

    @property
    def done(self) -> bool: ...

    def advance(self, max_instructions: int) -> int: ...


def run_min_time_interleave(
    lanes_by_core: Mapping[int, ScheduledLane], analysis_core: int
) -> None:
    """Drive the min-``(now, core_id)`` interleave until the analysis
    lane is done (or nothing is left to schedule).

    The lane heap holds one ``(now, core_id)`` entry per unfinished
    lane; each iteration pops the minimum, advances that lane one
    instruction and re-keys it.  Because only the advanced lane's key
    changes, the heap is never stale, and the pop sequence is exactly
    the per-step minimum the historical O(active) scan selected — the
    replacement is bit-identical by construction (and regression-pinned
    by ``PINNED_CONCURRENT`` in tests/platform/test_single_core_pin.py).
    """
    analysis = lanes_by_core[analysis_core]
    heap: List[Tuple[int, int]] = [
        (lane.now, core_id)
        for core_id, lane in sorted(lanes_by_core.items())
        if not lane.done
    ]
    heapq.heapify(heap)
    while not analysis.done and heap:
        _, core_id = heapq.heappop(heap)
        lane = lanes_by_core[core_id]
        lane.advance(1)
        if not lane.done:
            heapq.heappush(heap, (lane.now, core_id))
