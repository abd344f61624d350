"""DSL-to-trace compiler.

Expands a linked :class:`~repro.programs.dsl.Program` and one input
environment into the instruction :class:`~repro.platform.trace.Trace`
the platform executes, while recording the **executed path identifier**.

Code addresses follow the static layout computed by the linker: loop
iterations re-fetch the same body addresses (so the instruction cache
sees real temporal locality), taken branches redirect the pc, and calls
jump to the callee's own link address and back.

The path identifier collects, in execution order, the outcome of every
:class:`~repro.programs.dsl.If` and the trip count of every
input-dependent :class:`~repro.programs.dsl.Loop`.  Two runs with equal
identifiers executed the same instruction sequence shape — the grouping
key of the paper's per-path MBPTA.

**Templates.**  Straight-line code is compiled once per linked image
into a column template (:class:`_Template`): every
:class:`~repro.programs.dsl.Block`, and every loop whose body consists
of ``Block`` nodes only (the body plus its backward branch).  A template
fixes everything the environment cannot change — kinds, pcs, constant
data addresses and operand classes, the static load-use distances, the
loads' effect on the distance tracker — and leaves *holes* for
env-dependent indices and FDIV/FSQRT operand classes.  Emission extends
the trace columns with the template repeated ``count`` times, fills the
holes with one resolver call each per iteration (the loop variable set
in ``env`` as the tree walk sets it), and patches the at most two
leading dependency distances that depend on how far back the last load
was when the code was entered.  A lone ``Block`` is the one-iteration
case without a branch.  Loops whose body holds an ``If``, a ``Call`` or
a nested ``Loop`` take the tree walk: the body nodes are emitted once per
iteration, their own blocks and block-only loops through templates.

Templates are cached on the :class:`~repro.programs.layout.LinkedImage`
they were compiled against, keyed by node identity and entry pc (each
entry keeps its node alive, so the identity cannot be reused), which
treats programs as immutable once linked — as the linker's static code
sizes already do.  Traces are bit-identical to a per-instruction walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..platform.trace import MEMORY_KINDS, InstrKind, Trace
from .dsl import (
    AluOp,
    Block,
    Call,
    Env,
    FpuOp,
    If,
    IntLongOp,
    LoadOp,
    Loop,
    Node,
    Op,
    Program,
    StoreOp,
    resolve_cond,
    resolve_count,
)
from .layout import LayoutConfig, LinkedImage, code_size_instructions, link

__all__ = ["PathSignature", "CompiledProgram", "compile_program", "generate_trace"]

_INSTRUCTION_BYTES = 4
_ALU = int(InstrKind.ALU)
_LOAD = int(InstrKind.LOAD)
_BRANCH = int(InstrKind.BRANCH)
_VALUE_CLASS_KINDS = (InstrKind.FDIV, InstrKind.FSQRT)


@dataclass(frozen=True)
class PathSignature:
    """Canonical identifier of one executed path."""

    components: Tuple[Tuple[str, str], ...] = ()

    def as_key(self) -> str:
        """Stable string key (used to group samples per path)."""
        if not self.components:
            return "<straight>"
        return ";".join(f"{name}={value}" for name, value in self.components)

    def __str__(self) -> str:
        return self.as_key()


class _PathRecorder:
    """Accumulates path components during one expansion."""

    def __init__(self) -> None:
        self.components: List[Tuple[str, str]] = []

    def record(self, name: str, value: str) -> None:
        self.components.append((name, value))

    def signature(self) -> PathSignature:
        return PathSignature(components=tuple(self.components))


@dataclass
class CompiledProgram:
    """A program linked into an image, ready for trace generation."""

    program: Program
    image: LinkedImage

    def trace(self, env: Optional[Env] = None) -> Tuple[Trace, PathSignature]:
        """Expand one execution with inputs ``env``."""
        return generate_trace(self.program, self.image, env or {})

    def static_instruction_count(self) -> int:
        """Instruction count of the root body (loops counted once)."""
        return code_size_instructions(self.program.body) + 1


def compile_program(
    program: Program, layout: LayoutConfig = LayoutConfig()
) -> CompiledProgram:
    """Link ``program`` (and callees) and wrap it for trace generation."""
    return CompiledProgram(program=program, image=link(program, layout))


class _Hole(NamedTuple):
    """An env-dependent value at position ``pos`` of a template.

    ``width > 0`` marks a data address (``base + index * width`` for an
    index in ``[0, elements)``); ``width == 0`` an FDIV/FSQRT operand
    class.
    """

    pos: int
    expr: Callable[[Env], float]
    base: int
    elements: int
    width: int
    array: str


def _constant(value: int) -> Callable[[Env], float]:
    return lambda _env: value


class _Template:
    """Columns of one iteration of straight-line code at a fixed pc.

    ``deps`` is the dependency row with the ``entry_positions`` (the
    leading consumers not preceded by a load in the template) left at
    zero; :meth:`entry_deps` fills them from the load distance at entry.
    ``steady_deps`` is the row of iterations after the first, entered
    right after the previous iteration's backward branch.
    ``exit_since`` is the load distance after one iteration, or ``None``
    when the template holds no load (the distance then just grows by
    ``len(kinds)``).
    """

    __slots__ = (
        "kinds",
        "pcs",
        "addrs",
        "classes",
        "deps",
        "entry_positions",
        "steady_deps",
        "takens",
        "holes",
        "exit_since",
        "branch",
        "end_pc",
    )

    def __init__(
        self,
        ops: Sequence[Op],
        program: Program,
        image: LinkedImage,
        pc: int,
        branch: bool,
    ) -> None:
        kinds: List[int] = []
        addrs: List[int] = []
        classes: List[float] = []
        wants: List[bool] = []
        holes: List[_Hole] = []
        for op in ops:
            if isinstance(op, AluOp):
                for i in range(op.count):
                    kinds.append(_ALU)
                    addrs.append(-1)
                    classes.append(0.0)
                    wants.append(op.dep_on_load and i == 0)
                continue
            if isinstance(op, (LoadOp, StoreOp)):
                kind = InstrKind.LOAD if isinstance(op, LoadOp) else InstrKind.STORE
                decl = image.array_decl(program.name, op.array)
                base = image.array_base(program.name, op.array)
                resolver: Optional[Callable[[Env], float]] = None
                addr = -1
                if callable(op.index):
                    resolver = op.index
                else:
                    index = int(op.index)
                    if 0 <= index < decl.elements:
                        addr = base + index * decl.element_bytes
                    else:
                        # Raised only if the instruction is reached.
                        resolver = _constant(index)
                if resolver is not None:
                    holes.append(
                        _Hole(
                            len(kinds),
                            resolver,
                            base,
                            decl.elements,
                            decl.element_bytes,
                            f"{program.name}.{op.array}",
                        )
                    )
                addrs.append(addr)
                classes.append(0.0)
                wants.append(False)
            elif isinstance(op, (FpuOp, IntLongOp)):
                kind = op.kind
                if kind in MEMORY_KINDS:
                    raise ValueError(f"{kind.name} requires a data address")
                operand_class = 0.0
                if isinstance(op, FpuOp) and kind in _VALUE_CLASS_KINDS:
                    if callable(op.operand_class):
                        holes.append(_Hole(len(kinds), op.operand_class, 0, 0, 0, ""))
                    else:
                        operand_class = float(op.operand_class)
                addrs.append(-1)
                classes.append(operand_class)
                wants.append(isinstance(op, FpuOp) and op.dep_on_load)
            else:
                raise TypeError(f"unknown op {type(op).__name__}")
            kinds.append(int(kind))
        if branch:
            kinds.append(_BRANCH)
            addrs.append(-1)
            classes.append(0.0)
            wants.append(False)

        # Load-use distances: a consumer at p after a load at q waits
        # p - q instructions; before any load only p <= 1 can land
        # within the 2-instruction window, depending on the entry state.
        deps: List[int] = []
        entry_positions: List[int] = []
        last_load: Optional[int] = None
        for pos, kind_code in enumerate(kinds):
            dep = 0
            if wants[pos]:
                if last_load is not None:
                    distance = pos - last_load
                    dep = distance if distance <= 2 else 0
                elif pos <= 1:
                    entry_positions.append(pos)
            deps.append(dep)
            if kind_code == _LOAD:
                last_load = pos

        size = len(kinds)
        self.kinds = kinds
        self.pcs = [pc + i * _INSTRUCTION_BYTES for i in range(size)]
        self.addrs = addrs
        self.classes = classes
        self.deps = deps
        self.entry_positions = tuple(entry_positions)
        self.takens = [False] * size
        if branch:
            self.takens[-1] = True
        self.holes = tuple(holes)
        self.exit_since = None if last_load is None else size - 1 - last_load
        self.branch = branch
        self.end_pc = pc + size * _INSTRUCTION_BYTES
        # Any entry distance >= 2 leaves every entry position at zero.
        self.steady_deps = self.entry_deps(
            2 if self.exit_since is None else self.exit_since
        )

    def entry_deps(self, since_load: int) -> List[int]:
        """The dependency row when entered ``since_load`` after a load."""
        if not self.entry_positions:
            return self.deps
        row = list(self.deps)
        for pos in self.entry_positions:
            distance = since_load + pos + 1
            if distance <= 2:
                row[pos] = distance
        return row


class _Emitter:
    """Trace emitter: templates for straight-line code, a tree walk for
    the rest, with static pc tracking."""

    def __init__(self, image: LinkedImage, env: Env) -> None:
        self.image = image
        self.env = dict(env)
        self.trace = Trace()
        self.pc = image.code_base(image.root)
        self.path = _PathRecorder()
        # Distance (in emitted instructions) since the last load, used to
        # attach load-use dependency distances to consumers.
        self._since_load = 1 << 20
        self._size_cache: Dict[int, int] = {}

    # -- helpers --------------------------------------------------------
    def _size(self, nodes: Sequence[Node]) -> int:
        key = id(nodes)
        if key not in self._size_cache:
            self._size_cache[key] = code_size_instructions(nodes)
        return self._size_cache[key]

    def _emit_control(self, kind: int, taken: bool = False) -> None:
        """Emit one ALU or branch instruction at the current pc."""
        trace = self.trace
        trace.kinds.append(kind)
        trace.pcs.append(self.pc)
        trace.addrs.append(-1)
        trace.operand_classes.append(0.0)
        trace.dep_distances.append(0)
        trace.takens.append(taken)
        self.pc += _INSTRUCTION_BYTES
        self._since_load += 1

    def _template(self, node: Union[Block, Loop], program: Program) -> _Template:
        """The template of ``node`` entered at the current pc, compiled
        on first use (a loop's template is its body plus the backward
        branch)."""
        key = (id(node), self.pc)
        cached = self.image.trace_templates.get(key)
        if cached is not None:
            found: _Template = cached[1]
            return found
        if isinstance(node, Loop):
            blocks = [child for child in node.body if isinstance(child, Block)]
            ops = [op for block in blocks for op in block.ops]
            template = _Template(ops, program, self.image, self.pc, branch=True)
        else:
            template = _Template(node.ops, program, self.image, self.pc, branch=False)
        # The entry holds the node, so its id cannot be reused meanwhile.
        self.image.trace_templates[key] = (node, template)
        return template

    def _emit_template(
        self, template: _Template, count: int, var: Optional[str]
    ) -> None:
        """Emit ``count`` iterations of ``template`` (``count >= 1``)."""
        trace = self.trace
        offset = len(trace.kinds)
        trace.kinds.extend(template.kinds * count)
        trace.pcs.extend(template.pcs * count)
        addrs = trace.addrs
        addrs.extend(template.addrs * count)
        classes = trace.operand_classes
        classes.extend(template.classes * count)
        trace.dep_distances.extend(template.entry_deps(self._since_load))
        if count > 1:
            trace.dep_distances.extend(template.steady_deps * (count - 1))
        trace.takens.extend(template.takens * count)
        if template.branch:
            trace.takens[-1] = False
        size = len(template.kinds)
        if template.exit_since is None:
            self._since_load += size * count
        else:
            self._since_load = template.exit_since
        self.pc = template.end_pc
        if not template.holes:
            return
        env = self.env
        for iteration in range(count):
            if var:
                env[var] = iteration
            for pos, expr, base, elements, width, array in template.holes:
                if width:
                    index = int(expr(env))
                    if not 0 <= index < elements:
                        raise IndexError(
                            f"index {index} out of bounds for array "
                            f"{array}[{elements}]"
                        )
                    addrs[offset + pos] = base + index * width
                else:
                    classes[offset + pos] = float(expr(env))
            offset += size

    # -- node emission ----------------------------------------------------
    def emit_program(self, program: Program) -> None:
        """Emit the body of ``program`` at its link address, plus return."""
        self.pc = self.image.code_base(program.name)
        self.emit_nodes(program.body, program)
        # Return instruction (jump back handled by the caller).
        self._emit_control(_BRANCH, taken=True)

    def emit_nodes(self, nodes: Sequence[Node], program: Program) -> None:
        for node in nodes:
            if isinstance(node, Block):
                self._emit_template(self._template(node, program), 1, None)
            elif isinstance(node, Loop):
                self._emit_loop(node, program)
            elif isinstance(node, If):
                self._emit_if(node, program)
            elif isinstance(node, Call):
                self._emit_call(node)
            else:
                raise TypeError(f"unknown DSL node {type(node).__name__}")

    def _emit_loop(self, loop: Loop, program: Program) -> None:
        count = resolve_count(loop.count, self.env)
        if not loop.static_count:
            self.path.record(loop.name, str(count))
        # Loop init (counter setup).
        self._emit_control(_ALU)
        body_start = self.pc
        end_pc = body_start + (self._size(loop.body) + 1) * _INSTRUCTION_BYTES
        if count == 0:
            # Top-test fails immediately: jump over body + backward branch.
            self.pc = end_pc
            return
        saved = self.env.get(loop.var) if loop.var else None
        if all(isinstance(child, Block) for child in loop.body):
            self._emit_template(self._template(loop, program), count, loop.var)
        else:
            for iteration in range(count):
                if loop.var:
                    self.env[loop.var] = iteration
                self.pc = body_start
                self.emit_nodes(loop.body, program)
                self._emit_control(_BRANCH, taken=iteration != count - 1)
        if loop.var:
            if saved is None:
                self.env.pop(loop.var, None)
            else:
                self.env[loop.var] = saved
        self.pc = end_pc

    def _emit_if(self, node: If, program: Program) -> None:
        outcome = resolve_cond(node.cond, self.env)
        self.path.record(node.name, "T" if outcome else "F")
        # Compare + conditional branch (branch taken when going to else).
        self._emit_control(_ALU)
        self._emit_control(_BRANCH, taken=not outcome)
        then_start = self.pc
        then_size = self._size(node.then_body)
        else_start = then_start + (then_size + 1) * _INSTRUCTION_BYTES
        else_size = self._size(node.else_body)
        join_pc = else_start + else_size * _INSTRUCTION_BYTES
        if outcome:
            self.emit_nodes(node.then_body, program)
            # Jump over the else body to the join point.
            self._emit_control(_BRANCH, taken=True)
        else:
            self.pc = else_start
            self.emit_nodes(node.else_body, program)
        self.pc = join_pc

    def _emit_call(self, node: Call) -> None:
        # Call instruction at the site.
        self._emit_control(_BRANCH, taken=True)
        return_pc = self.pc
        self.emit_program(node.callee)
        self.pc = return_pc


def generate_trace(
    program: Program, image: LinkedImage, env: Env
) -> Tuple[Trace, PathSignature]:
    """Expand one execution of ``program`` under inputs ``env``.

    Returns the instruction trace and the executed path signature.
    """
    emitter = _Emitter(image, env)
    emitter.emit_program(program)
    return emitter.trace, emitter.path.signature()
