"""Linker: assigns code and data addresses to programs.

The memory layout of code and data "determines the cache sets where they
are placed with large impact on program's execution time" — on the DET
platform.  This module makes that layout explicit and controllable:

* every :class:`~repro.programs.dsl.Program` in the call graph receives a
  code base address (sequential link order, configurable alignment),
* every array receives a data base address (namespaced per program),
* a global ``layout_offset`` shifts the whole data segment, emulating the
  link-order / padding perturbations that change cache placement on the
  deterministic platform (the sensitivity MBTA must control by hand, and
  random placement makes irrelevant).

Code sizes are computed from the DSL statically: blocks expand to their
instruction counts; loops add an init instruction and a backward branch;
conditionals add compare + branch + join-jump; calls add one call
instruction at the site and one return instruction per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from .dsl import ArrayDecl, Block, Call, If, Loop, Node, Program

__all__ = ["LayoutConfig", "LinkedImage", "link", "code_size_instructions"]

_INSTRUCTION_BYTES = 4


def _align_up(value: int, alignment: int) -> int:
    if alignment & (alignment - 1):
        raise ValueError("alignment must be a power of two")
    return (value + alignment - 1) & ~(alignment - 1)


def code_size_instructions(nodes: Sequence[Node]) -> int:
    """Static instruction count of a node sequence (excluding callees)."""
    total = 0
    for node in nodes:
        if isinstance(node, Block):
            total += sum(op.instruction_count() for op in node.ops)
        elif isinstance(node, Loop):
            # loop init + body + backward branch
            total += 1 + code_size_instructions(node.body) + 1
        elif isinstance(node, If):
            # compare + branch + then + join jump + else
            total += 2 + code_size_instructions(node.then_body)
            total += 1 + code_size_instructions(node.else_body)
        elif isinstance(node, Call):
            total += 1  # the call instruction; callee code is linked separately
        else:
            raise TypeError(f"unknown DSL node {type(node).__name__}")
    return total


def program_code_bytes(program: Program) -> int:
    """Code footprint of one program: body + return instruction."""
    return (code_size_instructions(program.body) + 1) * _INSTRUCTION_BYTES


@dataclass(frozen=True)
class LayoutConfig:
    """Link-time layout parameters.

    Attributes
    ----------
    code_base / data_base:
        Segment start addresses (disjoint by construction: the linker
        checks the segments do not overlap).
    code_align / data_align:
        Per-symbol alignment.
    layout_offset:
        Extra bytes prepended to the data segment.  Varying this knob
        changes cache placement on modulo-indexed (DET) caches while
        being irrelevant under random placement — the layout-sensitivity
        experiments sweep it.
    """

    code_base: int = 0x4000_0000
    data_base: int = 0x5000_0000
    code_align: int = 32
    data_align: int = 32
    layout_offset: int = 0

    def __post_init__(self) -> None:
        if self.layout_offset < 0:
            raise ValueError("layout_offset must be >= 0")


@dataclass
class LinkedImage:
    """Resolved addresses for one linked program image."""

    config: LayoutConfig
    root: str
    code_bases: Dict[str, int] = field(default_factory=dict)
    array_bases: Dict[Tuple[str, str], int] = field(default_factory=dict)
    array_decls: Dict[Tuple[str, str], ArrayDecl] = field(default_factory=dict)
    code_end: int = 0
    data_end: int = 0
    #: Trace templates compiled against this image by
    #: :mod:`repro.programs.compiler`, keyed by (node id, entry pc);
    #: they live and die with the image and take no part in equality.
    trace_templates: Dict[Tuple[int, int], Tuple[Any, Any]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def code_base(self, program_name: str) -> int:
        """Code base address of ``program_name``."""
        try:
            return self.code_bases[program_name]
        except KeyError:
            raise KeyError(f"program {program_name!r} not in image") from None

    def array_base(self, program_name: str, array_name: str) -> int:
        """Data base address of ``array_name`` declared by ``program_name``."""
        try:
            return self.array_bases[(program_name, array_name)]
        except KeyError:
            raise KeyError(
                f"array {array_name!r} of program {program_name!r} not in image"
            ) from None

    def array_decl(self, program_name: str, array_name: str) -> ArrayDecl:
        """Declaration of an array in the image."""
        return self.array_decls[(program_name, array_name)]

    @property
    def total_code_bytes(self) -> int:
        """Bytes from code_base to the end of the last program."""
        return self.code_end - self.config.code_base

    @property
    def total_data_bytes(self) -> int:
        """Bytes from data_base to the end of the last array."""
        return self.data_end - self.config.data_base


def _collect_programs(root: Program) -> List[Program]:
    """Transitive closure of the call graph in deterministic link order."""
    ordered: List[Program] = []
    seen: Dict[str, Program] = {}

    def visit(program: Program) -> None:
        if program.name in seen:
            if seen[program.name] is not program:
                raise ValueError(
                    f"two distinct programs named {program.name!r} in call graph"
                )
            return
        seen[program.name] = program
        ordered.append(program)
        for callee in program.callees():
            visit(callee)

    visit(root)
    return ordered


def link(root: Program, config: LayoutConfig = LayoutConfig()) -> LinkedImage:
    """Link ``root`` and its transitive callees into an address image."""
    programs = _collect_programs(root)
    image = LinkedImage(config=config, root=root.name)

    cursor = _align_up(config.code_base, config.code_align)
    for program in programs:
        cursor = _align_up(cursor, config.code_align)
        image.code_bases[program.name] = cursor
        cursor += program_code_bytes(program)
    image.code_end = cursor

    data_cursor = _align_up(config.data_base + config.layout_offset, config.data_align)
    if image.code_end > config.data_base:
        raise ValueError(
            f"code segment (ends {image.code_end:#x}) overlaps data base "
            f"{config.data_base:#x}"
        )
    for program in programs:
        for decl in program.arrays:
            data_cursor = _align_up(data_cursor, config.data_align)
            key = (program.name, decl.name)
            image.array_bases[key] = data_cursor
            image.array_decls[key] = decl
            data_cursor += decl.size_bytes
    image.data_end = data_cursor
    return image
