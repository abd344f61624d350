"""Instruction-trace representation.

The platform is *trace driven*: a workload is compiled (by
:mod:`repro.programs`) into a linear sequence of instruction records that
carry exactly the timing-relevant facts —

* the instruction **kind** (integer ALU, load, store, branch, FP ops,
  integer mul/div, nop),
* the **code address** (drives IL1/ITLB behaviour),
* the **data address** for memory operations (drives DL1/DTLB),
* the **operand class** for FDIV/FSQRT (drives value-dependent FPU
  latency in operation mode),
* the **dependency distance** to a producing load (drives load-use
  pipeline stalls),
* whether a branch is **taken** (drives the pipeline refetch bubble).

Records are stored column-wise in parallel Python lists: the simulator's
inner loop indexes plain lists, which is measurably faster than attribute
access on per-instruction objects and keeps memory compact for the
3,000-run campaigns.

The program compiler extends the columns directly, from templates it
has already checked (memory kinds carry a data address, all other
kinds carry -1).  :meth:`Trace.append` and :class:`TraceBuilder` stay
the validated entry for traces built by hand, such as the opponent
tasks of :mod:`repro.workloads.opponents`.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, NamedTuple

__all__ = ["InstrKind", "Instruction", "Trace", "TraceBuilder"]


class InstrKind(enum.IntEnum):
    """Timing-relevant instruction classes of the modelled ISA."""

    ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH = 3
    IMUL = 4
    IDIV = 5
    FADD = 6
    FSUB = 7
    FMUL = 8
    FDIV = 9
    FSQRT = 10
    FCONV = 11
    FCMP = 12
    NOP = 13


#: Kinds that access data memory.
MEMORY_KINDS = frozenset({InstrKind.LOAD, InstrKind.STORE})

#: Kinds executed by the FPU.
FP_KINDS = frozenset(
    {
        InstrKind.FADD,
        InstrKind.FSUB,
        InstrKind.FMUL,
        InstrKind.FDIV,
        InstrKind.FSQRT,
        InstrKind.FCONV,
        InstrKind.FCMP,
    }
)


class Instruction(NamedTuple):
    """One decoded trace record (used at the API boundary; the simulator
    reads the column arrays directly)."""

    kind: InstrKind
    pc: int
    addr: int
    operand_class: float
    dep_distance: int
    taken: bool


class Trace:
    """Column-wise instruction trace.

    Attributes are parallel lists of equal length; ``addr`` is -1 for
    non-memory instructions, ``operand_class`` is 0.0 except for
    FDIV/FSQRT, ``dep_distance`` is 0 when the instruction does not
    consume a recent load result, ``taken`` is only meaningful for
    branches.
    """

    __slots__ = ("kinds", "pcs", "addrs", "operand_classes", "dep_distances", "takens")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.pcs: List[int] = []
        self.addrs: List[int] = []
        self.operand_classes: List[float] = []
        self.dep_distances: List[int] = []
        self.takens: List[bool] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int) -> Instruction:
        return Instruction(
            kind=InstrKind(self.kinds[index]),
            pc=self.pcs[index],
            addr=self.addrs[index],
            operand_class=self.operand_classes[index],
            dep_distance=self.dep_distances[index],
            taken=self.takens[index],
        )

    def __iter__(self) -> Iterator[Instruction]:
        for index in range(len(self)):
            yield self[index]

    def append(
        self,
        kind: InstrKind,
        pc: int,
        addr: int = -1,
        operand_class: float = 0.0,
        dep_distance: int = 0,
        taken: bool = False,
    ) -> None:
        """Append one record (validated)."""
        if kind in MEMORY_KINDS and addr < 0:
            raise ValueError(f"{kind.name} requires a data address")
        if kind not in MEMORY_KINDS and addr >= 0:
            raise ValueError(f"{kind.name} must not carry a data address")
        self.kinds.append(int(kind))
        self.pcs.append(pc)
        self.addrs.append(addr)
        self.operand_classes.append(operand_class)
        self.dep_distances.append(dep_distance)
        self.takens.append(taken)

    def extend(self, other: "Trace") -> None:
        """Concatenate another trace onto this one."""
        self.kinds.extend(other.kinds)
        self.pcs.extend(other.pcs)
        self.addrs.extend(other.addrs)
        self.operand_classes.extend(other.operand_classes)
        self.dep_distances.extend(other.dep_distances)
        self.takens.extend(other.takens)

    def count_kind(self, kind: InstrKind) -> int:
        """Number of records of ``kind``."""
        target = int(kind)
        return sum(1 for k in self.kinds if k == target)

    def memory_footprint(self) -> int:
        """Number of distinct data addresses touched."""
        return len({a for a in self.addrs if a >= 0})

    def code_footprint(self) -> int:
        """Number of distinct code addresses fetched."""
        return len(set(self.pcs))


class TraceBuilder:
    """Convenience emitter for hand-built traces.

    Tracks the program counter automatically: each emitted instruction
    advances ``pc`` by the instruction size (4 bytes, SPARC-like), and
    branch targets reset it explicitly.
    """

    INSTRUCTION_BYTES = 4

    def __init__(self, start_pc: int = 0x4000_0000) -> None:
        self.trace = Trace()
        self.pc = start_pc

    def emit(
        self,
        kind: InstrKind,
        addr: int = -1,
        operand_class: float = 0.0,
        dep_distance: int = 0,
        taken: bool = False,
    ) -> None:
        """Emit one instruction at the current pc and advance."""
        self.trace.append(
            kind,
            self.pc,
            addr=addr,
            operand_class=operand_class,
            dep_distance=dep_distance,
            taken=taken,
        )
        self.pc += self.INSTRUCTION_BYTES

    def jump_to(self, pc: int) -> None:
        """Redirect the pc (branch target, call, return)."""
        self.pc = pc
