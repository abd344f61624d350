"""Tests for the DSL-to-trace compiler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.trace import FP_KINDS, MEMORY_KINDS, InstrKind, TraceBuilder
from repro.programs.compiler import PathSignature, compile_program, generate_trace
from repro.programs.dsl import (
    AluOp,
    ArrayDecl,
    Block,
    Call,
    FpuOp,
    If,
    IntLongOp,
    LoadOp,
    Loop,
    Program,
    StoreOp,
    alu,
    fadd,
    fdiv,
    fmul,
    fsqrt,
    load,
    resolve_cond,
    resolve_count,
    resolve_index,
    resolve_value,
    store,
)
from repro.programs.layout import code_size_instructions, link


def compiled(body, arrays=None, name="t"):
    return compile_program(Program(name=name, body=body, arrays=arrays or []))


class TestStraightLine:
    def test_alu_block(self):
        trace, path = compiled([Block([alu(5)])]).trace()
        # 5 ALU + return branch.
        assert trace.count_kind(InstrKind.ALU) == 5
        assert trace.count_kind(InstrKind.BRANCH) == 1
        assert path.as_key() == "<straight>"

    def test_load_address_resolution(self):
        prog = compiled(
            [Block([load("a", 3)])], arrays=[ArrayDecl("a", 8, element_bytes=8)]
        )
        trace, _ = prog.trace()
        base = prog.image.array_base("t", "a")
        loads = [
            trace.addrs[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.LOAD
        ]
        assert loads == [base + 24]

    def test_index_out_of_bounds(self):
        prog = compiled([Block([load("a", 9)])], arrays=[ArrayDecl("a", 8)])
        with pytest.raises(IndexError):
            prog.trace()

    def test_env_driven_index(self):
        prog = compiled(
            [Block([load("a", lambda env: env["i"])])],
            arrays=[ArrayDecl("a", 8, element_bytes=4)],
        )
        t1, _ = prog.trace({"i": 1})
        t2, _ = prog.trace({"i": 5})
        addr1 = [t1.addrs[k] for k in range(len(t1)) if t1.addrs[k] >= 0][0]
        addr2 = [t2.addrs[k] for k in range(len(t2)) if t2.addrs[k] >= 0][0]
        assert addr2 - addr1 == 16


class TestLoops:
    def test_static_loop_repeats_body(self):
        trace, path = compiled([Loop("l", 4, [Block([alu(2)])])]).trace()
        assert trace.count_kind(InstrKind.ALU) == 1 + 8  # init + 4x2
        assert path.as_key() == "<straight>"  # static count not recorded

    def test_loop_body_addresses_repeat(self):
        prog = compiled([Loop("l", 3, [Block([alu(1)])])])
        trace, _ = prog.trace()
        body_pcs = [
            trace.pcs[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.ALU
        ][1:]  # skip loop init
        assert len(set(body_pcs)) == 1  # same code address every iteration

    def test_dynamic_count_recorded_in_path(self):
        prog = compiled([Loop("l", lambda env: env["n"], [Block([alu(1)])])])
        _, path = prog.trace({"n": 5})
        assert path.as_key() == "l=5"

    def test_zero_count_skips_body(self):
        prog = compiled([Loop("l", lambda env: env["n"], [Block([alu(10)])])])
        trace, path = prog.trace({"n": 0})
        assert trace.count_kind(InstrKind.ALU) == 1  # init only
        assert path.as_key() == "l=0"

    def test_loop_var_visible_to_indices(self):
        prog = compiled(
            [Loop("l", 3, [Block([load("a", lambda env: env["k"])])], var="k")],
            arrays=[ArrayDecl("a", 4, element_bytes=4)],
        )
        trace, _ = prog.trace()
        addrs = [a for a in trace.addrs if a >= 0]
        assert addrs[1] - addrs[0] == 4
        assert addrs[2] - addrs[1] == 4

    def test_backward_branch_taken_except_last(self):
        prog = compiled([Loop("l", 3, [Block([alu(1)])])])
        trace, _ = prog.trace()
        branches = [
            trace.takens[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.BRANCH
        ]
        # 3 loop branches (T, T, F) + return (T).
        assert branches == [True, True, False, True]

    def test_nested_loop_vars_restored(self):
        prog = compiled(
            [
                Loop(
                    "outer", 2,
                    [
                        Loop("inner", 2, [Block([alu(1)])], var="i"),
                        Block([load("a", lambda env: env["i"])]),
                    ],
                    var="i",
                )
            ],
            arrays=[ArrayDecl("a", 4, element_bytes=4)],
        )
        # inner loop uses the same var name; outer value must be
        # restored after the inner loop completes.
        trace, _ = prog.trace()
        addrs = [a for a in trace.addrs if a >= 0]
        assert addrs[0] != addrs[1]  # outer i=0 then i=1


class TestConditionals:
    def test_then_vs_else_paths(self):
        node = If(
            "c",
            cond=lambda env: env["flag"],
            then_body=[Block([alu(5)])],
            else_body=[Block([alu(2)])],
        )
        prog = compiled([node])
        t_then, p_then = prog.trace({"flag": True})
        t_else, p_else = prog.trace({"flag": False})
        assert p_then.as_key() == "c=T"
        assert p_else.as_key() == "c=F"
        assert t_then.count_kind(InstrKind.ALU) > t_else.count_kind(InstrKind.ALU)

    def test_both_paths_converge_to_same_join(self):
        node = If("c", lambda env: env["f"], [Block([alu(3)])], [Block([alu(1)])])
        prog = compiled([node, Block([alu(1)])])
        t_then, _ = prog.trace({"f": True})
        t_else, _ = prog.trace({"f": False})
        # The final ALU (after the If) and the return are at identical
        # addresses on both paths.
        assert t_then.pcs[-1] == t_else.pcs[-1]
        assert t_then.pcs[-2] == t_else.pcs[-2]

    def test_empty_else(self):
        node = If("c", lambda env: env["f"], [Block([alu(2)])])
        prog = compiled([node])
        trace, path = prog.trace({"f": False})
        assert path.as_key() == "c=F"
        assert trace.count_kind(InstrKind.ALU) == 1  # the compare only


class TestCalls:
    def test_callee_executes_at_own_address(self):
        helper = Program(name="helper", body=[Block([fadd(), fmul()])])
        prog = compiled([Call(helper), Call(helper)], name="main")
        trace, _ = prog.trace()
        helper_base = prog.image.code_base("helper")
        fadds = [
            trace.pcs[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.FADD
        ]
        assert len(fadds) == 2
        assert fadds[0] == fadds[1] == helper_base

    def test_fdiv_operand_class_from_env(self):
        prog = compiled(
            [Block([fdiv(operand_class=lambda env: env["oc"])])]
        )
        trace, _ = prog.trace({"oc": 0.25})
        classes = [
            trace.operand_classes[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.FDIV
        ]
        assert classes == [0.25]


class TestDependencies:
    def test_dep_on_load_distance(self):
        prog = compiled(
            [Block([load("a", 0), alu(1, dep_on_load=True)])],
            arrays=[ArrayDecl("a", 4)],
        )
        trace, _ = prog.trace()
        alu_deps = [
            trace.dep_distances[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.ALU
        ]
        assert alu_deps == [1]

    def test_far_dep_is_zero(self):
        prog = compiled(
            [Block([load("a", 0), alu(3), alu(1, dep_on_load=True)])],
            arrays=[ArrayDecl("a", 4)],
        )
        trace, _ = prog.trace()
        deps = [
            trace.dep_distances[i]
            for i in range(len(trace))
            if trace.kinds[i] == InstrKind.ALU
        ]
        assert deps[-1] == 0  # 4 instructions after the load: no stall


class TestDeterminism:
    def test_same_env_same_trace(self):
        prog = compiled(
            [
                Loop("l", lambda env: env["n"], [Block([alu(1), load("a", 0)])]),
                If("c", lambda env: env["f"], [Block([alu(2)])]),
            ],
            arrays=[ArrayDecl("a", 4)],
        )
        env = {"n": 3, "f": True}
        t1, p1 = prog.trace(env)
        t2, p2 = prog.trace(env)
        assert t1.pcs == t2.pcs
        assert t1.kinds == t2.kinds
        assert p1.as_key() == p2.as_key()


# ----------------------------------------------------------------------
# Template emission vs. the per-instruction tree walk
# ----------------------------------------------------------------------
_BYTES = 4


class ReferenceEmitter:
    """The per-instruction tree walk: every op of every block is emitted
    through the validated ``TraceBuilder``/``Trace.append`` path.  The
    compiler's templates must reproduce it exactly."""

    def __init__(self, image, env):
        self.image = image
        self.env = dict(env)
        self.builder = TraceBuilder(start_pc=image.code_base(image.root))
        self.components = []
        self._since_load = 1 << 20

    def _data_address(self, program, array, index_expr):
        index = resolve_index(index_expr, self.env)
        decl = self.image.array_decl(program.name, array)
        if not 0 <= index < decl.elements:
            raise IndexError(
                f"index {index} out of bounds for array "
                f"{program.name}.{array}[{decl.elements}]"
            )
        return self.image.array_base(program.name, array) + index * decl.element_bytes

    def _emit(self, kind, **kwargs):
        self.builder.emit(kind, **kwargs)
        self._since_load = 0 if kind == InstrKind.LOAD else self._since_load + 1

    def _dep_distance(self, wants_dep):
        if not wants_dep:
            return 0
        distance = self._since_load + 1
        return distance if distance <= 2 else 0

    def emit_program(self, program):
        self.builder.jump_to(self.image.code_base(program.name))
        self.emit_nodes(program.body, program)
        self._emit(InstrKind.BRANCH, taken=True)

    def emit_nodes(self, nodes, program):
        for node in nodes:
            if isinstance(node, Block):
                self._emit_block(node, program)
            elif isinstance(node, Loop):
                self._emit_loop(node, program)
            elif isinstance(node, If):
                self._emit_if(node, program)
            else:
                self._emit(InstrKind.BRANCH, taken=True)
                return_pc = self.builder.pc
                self.emit_program(node.callee)
                self.builder.jump_to(return_pc)

    def _emit_block(self, block, program):
        for op in block.ops:
            if isinstance(op, AluOp):
                for i in range(op.count):
                    dep = self._dep_distance(op.dep_on_load and i == 0)
                    self._emit(InstrKind.ALU, dep_distance=dep)
            elif isinstance(op, LoadOp):
                addr = self._data_address(program, op.array, op.index)
                self._emit(InstrKind.LOAD, addr=addr)
            elif isinstance(op, StoreOp):
                addr = self._data_address(program, op.array, op.index)
                self._emit(InstrKind.STORE, addr=addr)
            elif isinstance(op, FpuOp):
                operand_class = 0.0
                if op.kind in (InstrKind.FDIV, InstrKind.FSQRT):
                    operand_class = resolve_value(op.operand_class, self.env)
                dep = self._dep_distance(op.dep_on_load)
                self._emit(op.kind, operand_class=operand_class, dep_distance=dep)
            else:
                self._emit(op.kind)

    def _emit_loop(self, loop, program):
        count = resolve_count(loop.count, self.env)
        if not loop.static_count:
            self.components.append((loop.name, str(count)))
        self._emit(InstrKind.ALU)
        body_start = self.builder.pc
        end_pc = body_start + (code_size_instructions(loop.body) + 1) * _BYTES
        if count == 0:
            self.builder.jump_to(end_pc)
            return
        saved = self.env.get(loop.var) if loop.var else None
        for iteration in range(count):
            if loop.var:
                self.env[loop.var] = iteration
            self.builder.jump_to(body_start)
            self.emit_nodes(loop.body, program)
            self._emit(InstrKind.BRANCH, taken=iteration != count - 1)
        if loop.var:
            if saved is None:
                self.env.pop(loop.var, None)
            else:
                self.env[loop.var] = saved
        self.builder.jump_to(end_pc)

    def _emit_if(self, node, program):
        outcome = resolve_cond(node.cond, self.env)
        self.components.append((node.name, "T" if outcome else "F"))
        self._emit(InstrKind.ALU)
        self._emit(InstrKind.BRANCH, taken=not outcome)
        then_start = self.builder.pc
        else_start = then_start + (code_size_instructions(node.then_body) + 1) * _BYTES
        join_pc = else_start + code_size_instructions(node.else_body) * _BYTES
        if outcome:
            self.emit_nodes(node.then_body, program)
            self._emit(InstrKind.BRANCH, taken=True)
        else:
            self.builder.jump_to(else_start)
            self.emit_nodes(node.else_body, program)
        self.builder.jump_to(join_pc)


def reference_trace(program, image, env):
    emitter = ReferenceEmitter(image, env)
    emitter.emit_program(program)
    return emitter.builder.trace, PathSignature(tuple(emitter.components))


COLUMNS = ("kinds", "pcs", "addrs", "operand_classes", "dep_distances", "takens")


def assert_same_trace(program, env, image=None):
    """Templates (cold, then cached) reproduce the reference walk."""
    image = image if image is not None else link(program)
    expected, expected_path = reference_trace(program, image, env)
    for _ in range(2):
        trace, path = generate_trace(program, image, env)
        assert path == expected_path
        for column in COLUMNS:
            got, want = getattr(trace, column), getattr(expected, column)
            assert got == want, column
            assert [type(v) for v in got] == [type(v) for v in want], column
        for kind, addr in zip(trace.kinds, trace.addrs):
            if kind in MEMORY_KINDS:
                assert addr >= 0
            else:
                assert addr == -1


ARRAYS = (ArrayDecl("a", 8, element_bytes=4), ArrayDecl("b", 5, element_bytes=8))
VARS = ("i", "j", "x")


def _env_index(var, scale, offset, elements):
    return lambda env: (int(env.get(var, 0)) * scale + offset) % elements


def _env_class(var, offset):
    return lambda env: ((int(env.get(var, 0)) + offset) % 3) / 2.0


def _env_count(offset):
    return lambda env: (int(env.get("x", 0)) + offset) % 4


def _env_cond(var):
    return lambda env: int(env.get(var, 0)) % 2 == 1


def index_exprs(elements):
    return st.one_of(
        st.integers(0, elements - 1),
        st.builds(
            _env_index,
            st.sampled_from(VARS),
            st.integers(1, 3),
            st.integers(0, 7),
            st.just(elements),
        ),
    )


def memory_ops(kinds=(LoadOp, StoreOp)):
    picks = st.tuples(st.sampled_from(kinds), st.sampled_from(ARRAYS))
    return picks.flatmap(
        lambda pick: st.builds(
            pick[0], st.just(pick[1].name), index_exprs(pick[1].elements)
        )
    )


OPS = st.one_of(
    st.builds(AluOp, st.integers(0, 3), st.booleans()),
    memory_ops(),
    st.builds(
        FpuOp,
        st.sampled_from(sorted(FP_KINDS)),
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]),
            st.builds(_env_class, st.sampled_from(VARS), st.integers(0, 2)),
        ),
        st.booleans(),
    ),
    st.builds(IntLongOp, st.sampled_from([InstrKind.IMUL, InstrKind.IDIV])),
)
CONSUMERS = st.one_of(
    st.builds(AluOp, st.integers(1, 2), st.just(True)),
    st.builds(FpuOp, st.sampled_from(sorted(FP_KINDS)), st.just(1.0), st.just(True)),
)


@st.composite
def blocks(draw):
    """A block that often opens with a load consumer (at position 0 or
    1) and often ends in a load: the dependency distances that depend
    on the state at block or iteration entry are the part of a template
    most easily got wrong."""
    ops = draw(st.lists(OPS, max_size=3))
    if draw(st.booleans()):
        ops.insert(0, draw(CONSUMERS))
        if draw(st.booleans()):
            ops.insert(0, AluOp(1))
    if draw(st.booleans()):
        ops.append(draw(memory_ops((LoadOp,))))
    return Block(ops)


BLOCKS = blocks()
COUNTS = st.one_of(
    st.sampled_from([0, 1, 2, 5]), st.builds(_env_count, st.integers(0, 3))
)
CONDS = st.one_of(st.booleans(), st.builds(_env_cond, st.sampled_from(VARS)))
LOOP_VARS = st.none() | st.sampled_from(VARS)


def nodes(depth, callees):
    """DSL nodes up to ``depth`` levels of nesting; block-only loops are
    drawn on their own so the template loop path is well covered."""
    options = [
        BLOCKS,
        st.builds(
            Loop,
            st.sampled_from(["l0", "l1"]),
            COUNTS,
            st.lists(BLOCKS, max_size=3),
            LOOP_VARS,
        ),
    ]
    if callees:
        options.append(st.sampled_from(callees).map(Call))
    if depth > 0:
        inner = st.lists(nodes(depth - 1, callees), max_size=3)
        options.append(
            st.builds(Loop, st.sampled_from(["n0", "n1"]), COUNTS, inner, LOOP_VARS)
        )
        options.append(
            st.builds(If, st.sampled_from(["c0", "c1"]), CONDS, inner, inner)
        )
    return st.one_of(options)


@st.composite
def programs_and_envs(draw):
    callees = []
    for k in range(draw(st.integers(0, 2))):
        body = draw(st.lists(nodes(1, []), max_size=3))
        callees.append(Program(name=f"callee{k}", body=body, arrays=list(ARRAYS)))
    body = draw(st.lists(nodes(2, callees), min_size=1, max_size=4))
    program = Program(name="main", body=body, arrays=list(ARRAYS))
    env = {"x": draw(st.integers(0, 6))}
    return program, env


class TestTemplatesMatchTreeWalk:
    @given(case=programs_and_envs())
    @settings(max_examples=150, deadline=None)
    def test_random_programs(self, case):
        program, env = case
        assert_same_trace(program, env)

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("consumer_pos", [0, 1, 2])
    @pytest.mark.parametrize("producer", ["loop", "block"])
    def test_dep_on_load_at_entry(self, count, consumer_pos, producer):
        if producer == "loop":
            ends_in_load = Loop("l", count, [Block([alu(1), load("a", 1)])])
        else:
            ends_in_load = Block([alu(1), load("a", 1)])
        program = Program(
            name="t",
            body=[
                ends_in_load,
                Block(
                    [
                        alu(consumer_pos),
                        fadd(dep_on_load=True),
                        alu(1, dep_on_load=True),
                    ]
                ),
                Loop("m", count, [Block([alu(1, dep_on_load=True), load("a", 2)])]),
            ],
            arrays=[ArrayDecl("a", 4)],
        )
        assert_same_trace(program, {})

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_loop_var_shadows_outer_env_key(self, count):
        program = Program(
            name="t",
            body=[
                Loop(
                    "l",
                    count,
                    [
                        Block(
                            [
                                load("a", lambda env: env["x"]),
                                fsqrt(lambda env: env["x"] / 4),
                            ]
                        )
                    ],
                    var="x",
                ),
                Block([store("a", lambda env: env["x"])]),
            ],
            arrays=[ArrayDecl("a", 8)],
        )
        assert_same_trace(program, {"x": 7})


def _raised(fn, *args):
    with pytest.raises(IndexError) as info:
        fn(*args)
    return str(info.value)


class TestTemplateErrors:
    def test_out_of_bounds_at_later_iteration(self):
        program = Program(
            name="t",
            body=[
                Loop("l", 5, [Block([load("a", lambda env: env["i"] * 3)])], var="i")
            ],
            arrays=[ArrayDecl("a", 8)],
        )
        image = link(program)
        message = _raised(generate_trace, program, image, {})
        assert message == _raised(reference_trace, program, image, {})
        assert message == "index 9 out of bounds for array t.a[8]"

    def test_first_out_of_bounds_in_execution_order(self):
        # The second op leaves bounds at iteration 2, the first only at
        # iteration 3: the error of iteration 2 must win.
        program = Program(
            name="t",
            body=[
                Loop(
                    "l",
                    4,
                    [
                        Block([load("a", lambda env: env["i"] * 2)]),
                        Block([store("b", lambda env: env["i"] * 3)]),
                    ],
                    var="i",
                )
            ],
            arrays=[ArrayDecl("a", 6), ArrayDecl("b", 5)],
        )
        image = link(program)
        message = _raised(generate_trace, program, image, {})
        assert message == _raised(reference_trace, program, image, {})
        assert message == "index 6 out of bounds for array t.b[5]"

    def test_unreached_constant_out_of_bounds_is_harmless(self):
        program = Program(
            name="t",
            body=[
                If("c", lambda env: env["f"], [Block([load("a", 99)])]),
                Loop("l", lambda env: env["n"], [Block([store("a", 99)])]),
            ],
            arrays=[ArrayDecl("a", 8)],
        )
        image = link(program)
        assert_same_trace(program, {"f": False, "n": 0}, image)
        message = _raised(generate_trace, program, image, {"f": True, "n": 0})
        assert message == "index 99 out of bounds for array t.a[8]"
        message = _raised(generate_trace, program, image, {"f": False, "n": 2})
        assert message == "index 99 out of bounds for array t.a[8]"
