"""Concolic IR interpreter.

Executes a lowered module from a driver entry point under a given input. A
`Check` that fails ends the run with an error outcome at that check, so the
arithmetic and memory operations it guards never see a zero divisor, an
out-of-range index or a null address.

Every temp and heap cell holds its concrete value together with a symbolic
expression over the input symbols, or None when the value does not depend on
them; a pointer holds its symbolic offset (a SymOffset), or None. As it
runs, the machine records the path condition as the trace's events: one
BranchConstraint per branch and check, each true under the input. Every
expression is built by the folding `mk_*` constructors of symexpr, so the
recorded constraints are already simplified.

The memory model follows the write-concrete/read-symbolic rule: a store
updates exactly the concretely addressed cell, and a load whose offset is
symbolic yields a guarded selection (Ite chain) over the cells that offset can
reach: the elements of the indexed array, at the selected field. Pointers and
pointer comparisons stay concrete.

Deterministic: equal (module, entry, input) triples produce equal traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import ir, semantics
from . import symexpr as sx
from .diagnostics import InternalError

if TYPE_CHECKING:
    from .harness import HarnessPlan

DEFAULT_STEP_BUDGET = 100_000


class InterpError(Exception):
    """Interpreter-level misuse (unbound symbol, uninitialized read, ...)."""


@dataclass(frozen=True)
class Addr:
    object_id: int
    offset: int

    @property
    def is_null(self) -> bool:
        return self.object_id == 0

    def __str__(self) -> str:
        return f"{self.object_id}:{self.offset}"


NULL = Addr(0, 0)


@dataclass(frozen=True)
class SymOffset:
    """A pointer's offset within its object as an expression over the input,
    with every offset it can take: a symbolic index reaches each element of
    its array (the index check before it bounds the index), and a field
    selection after it shifts them all."""

    expr: sx.SymExpr
    cells: tuple[int, ...]  # ascending


# A heap slot that was never written; loading one is an interpreter error.
UNINIT = object()


@dataclass
class TestInput:
    """Concrete values for one execution: symbol bindings plus queued values
    for fresh-symbol draws made by stubs (keyed by tag, in draw order)."""

    __test__ = False  # not a pytest test class

    bindings: dict[int, int] = field(default_factory=dict)
    fresh: dict[int, list[int]] = field(default_factory=dict)

    def copy(self) -> "TestInput":
        return TestInput(dict(self.bindings), {t: list(v) for t, v in self.fresh.items()})


# --- the trace ------------------------------------------------------------------


@dataclass(frozen=True)
class BranchConstraint:
    index: int
    site_id: int  # CondBr or Check instruction id
    taken_dir: str  # "then" | "else" | "pass" | "fail"
    expr: sx.SymExpr  # the constraint as taken (true under the run's input)
    flippable: bool


OUTCOME_COMPLETED = "completed"
OUTCOME_ERROR = "error"
OUTCOME_BUDGET = "budget"


@dataclass
class Trace:
    events: list[BranchConstraint]  # the path condition, one per branch and check
    outcome: str
    input: TestInput
    covered_points: set[int]
    error_check_id: int | None = None
    return_value: object = None
    steps: int = 0
    fresh_refs: list[tuple[int, int]] = field(default_factory=list)  # (tag, seq) drawn

    def branch_directions(self) -> list[tuple[int, str]]:
        """(instr id, direction) for every branch and check, in order."""
        return [(e.site_id, e.taken_dir) for e in self.events]


# --- the machine ------------------------------------------------------------------


def _expr(value, sym: sx.SymExpr | None) -> sx.SymExpr:
    """A scalar's symbolic expression, or its concrete value as a constant."""
    if sym is not None:
        return sym
    return sx.ConstBool(value) if isinstance(value, bool) else sx.ConstI32(value)


@dataclass
class _Frame:
    fn: ir.IrFunction
    block: int
    index: int
    temps: dict[int, tuple]  # iid -> (concrete value, symbolic expression or None)
    objects: list[int]  # slot index -> heap object id
    call_iid: int | None  # caller instruction awaiting our return value


class _Machine:
    def __init__(self, module: ir.IrModule, test_input: TestInput, step_budget: int):
        self.module = module
        self.input = test_input
        self.step_budget = step_budget
        self.heap: dict[int, list] = {}  # object id -> concrete cells
        self.sym_heap: dict[int, list] = {}  # object id -> symbolic cells (None: concrete)
        self.next_object = 1
        self.frames: list[_Frame] = []
        self.events: list[BranchConstraint] = []
        self.fresh_refs: list[tuple[int, int]] = []
        self.covered: set[int] = set()
        self.fresh_seq: dict[int, int] = {}
        self.steps = 0
        self.outcome = OUTCOME_COMPLETED
        self.error_check_id: int | None = None
        self.return_value: object = None

    # -- memory

    def alloc(self, size: int) -> int:
        oid = self.next_object
        self.next_object += 1
        self.heap[oid] = [UNINIT] * size
        self.sym_heap[oid] = [None] * size
        return oid

    def cells(self, addr: Addr, iid: int, access: str) -> list:
        if addr.is_null:
            raise InternalError(f"{access} through null at instruction {iid}")
        obj = self.heap.get(addr.object_id)
        if obj is None or not (0 <= addr.offset < len(obj)):
            raise InternalError(f"{access} outside object bounds at instruction {iid}")
        return obj

    def load(self, addr: Addr, sym_off: SymOffset | None, iid: int) -> tuple:
        value = self.cells(addr, iid, "load")[addr.offset]
        if value is UNINIT:
            raise InterpError(f"load of uninitialized memory at instruction {iid}")
        if sym_off is None or isinstance(value, Addr):
            # A pointer loaded through a symbolic offset is the loaded pointer.
            return value, self.sym_heap[addr.object_id][addr.offset]
        return value, self.select(addr.object_id, sym_off)

    def select(self, oid: int, sym_off: SymOffset) -> sx.SymExpr:
        """Guarded selection over the initialized cells the symbolic offset
        can reach, keyed by its expression."""
        heap, sym_heap = self.heap[oid], self.sym_heap[oid]
        cells = [(off, _expr(heap[off], sym_heap[off]))
                 for off in sym_off.cells if heap[off] is not UNINIT]
        selected = cells[-1][1]
        for off, expr in reversed(cells[:-1]):
            selected = sx.mk_ite(sx.mk_cmp("==", sym_off.expr, sx.ConstI32(off)), expr, selected)
        return selected

    def store(self, addr: Addr, value, sym: sx.SymExpr | None, iid: int) -> None:
        self.cells(addr, iid, "store")[addr.offset] = value
        self.sym_heap[addr.object_id][addr.offset] = sym

    # -- frames

    def push_frame(self, fn: ir.IrFunction, args: list[tuple], call_iid: int | None) -> None:
        objects = [self.alloc(slot.size) for slot in fn.slots]
        for k in range(len(fn.params)):
            self.heap[objects[k]][0], self.sym_heap[objects[k]][0] = args[k]
        self.frames.append(_Frame(fn, 0, 0, {}, objects, call_iid))

    # -- operand evaluation

    def operand(self, frame: _Frame, op: ir.Operand) -> tuple:
        """(concrete value, symbolic expression or None) of an operand."""
        if op.kind == "tmp":
            try:
                return frame.temps[op.value]
            except KeyError:
                raise InternalError(f"use of undefined temp %{op.value}") from None
        if op.kind == "int":
            return op.value, None
        if op.kind == "bool":
            return bool(op.value), None
        if op.kind == "null":
            return NULL, None
        if op.kind == "slot":
            return Addr(frame.objects[op.value], 0), None
        raise InternalError(f"unknown operand kind {op.kind}")

    # -- path condition

    def add_constraint(self, site_id: int, taken_dir: str, expr: sx.SymExpr) -> None:
        self.events.append(
            BranchConstraint(len(self.events), site_id, taken_dir, expr, not sx.is_const(expr))
        )

    # -- main loop

    def run(self, entry: str, args: list) -> None:
        fn = self.module.functions.get(entry)
        if fn is None:
            raise InterpError(f"no function named {entry!r}")
        if len(args) != len(fn.params):
            raise InterpError(f"{entry!r} expects {len(fn.params)} arguments")
        self.push_frame(fn, [(a, None) for a in args], None)
        while self.frames:
            if self.steps >= self.step_budget:
                self.outcome = OUTCOME_BUDGET
                return
            self.steps += 1
            frame = self.frames[-1]
            instr = frame.fn.blocks[frame.block].instrs[frame.index]
            if instr.stmt_point is not None:
                self.covered.add(instr.stmt_point)
            if not self.step(frame, instr):
                return

    def step(self, frame: _Frame, instr: ir.Instr) -> bool:
        """Execute one instruction; False stops the run (error outcome)."""
        if isinstance(instr, ir.Const):
            frame.temps[instr.iid] = self.operand(frame, instr.value)
        elif isinstance(instr, ir.BinOp):
            a, sa = self.operand(frame, instr.lhs)
            b, sb = self.operand(frame, instr.rhs)
            if instr.op in ("/", "%") and b == 0:
                raise InternalError("division by zero reached the arithmetic unit")
            sym = None
            if sa is not None or sb is not None:
                sym = sx.mk_bin(instr.op, _expr(a, sa), _expr(b, sb))
            frame.temps[instr.iid] = (semantics.binop(instr.op, a, b), sym)
        elif isinstance(instr, ir.Cmp):
            a, sa = self.operand(frame, instr.lhs)
            b, sb = self.operand(frame, instr.rhs)
            sym = None
            pointers = isinstance(a, Addr) or isinstance(b, Addr)
            if not pointers and (sa is not None or sb is not None):
                sym = sx.mk_cmp(instr.op, _expr(a, sa), _expr(b, sb))
            frame.temps[instr.iid] = (semantics.compare(instr.op, a, b), sym)
        elif isinstance(instr, ir.Load):
            addr, sym_off = self.operand(frame, instr.addr)
            frame.temps[instr.iid] = self.load(addr, sym_off, instr.iid)
        elif isinstance(instr, ir.Store):
            addr, _ = self.operand(frame, instr.addr)
            value, sym = self.operand(frame, instr.value)
            self.store(addr, value, sym, instr.iid)
        elif isinstance(instr, ir.FieldAddr):
            base, sym_off = self.operand(frame, instr.base)
            if sym_off is not None:
                sym_off = SymOffset(
                    sx.mk_bin("+", sym_off.expr, sx.ConstI32(instr.offset)),
                    tuple(off + instr.offset for off in sym_off.cells),
                )
            frame.temps[instr.iid] = (Addr(base.object_id, base.offset + instr.offset), sym_off)
        elif isinstance(instr, ir.IndexAddr):
            base, sym_off = self.operand(frame, instr.base)
            index, index_sym = self.operand(frame, instr.index)
            addr = Addr(base.object_id, base.offset + index * instr.elem_size)
            symbolic_index = index_sym is not None and not sx.is_const(index_sym)
            if sym_off is not None or symbolic_index:
                if sym_off is None:
                    sym_off = SymOffset(sx.ConstI32(base.offset), (base.offset,))
                scaled = sx.mk_bin("*", _expr(index, index_sym), sx.ConstI32(instr.elem_size))
                steps = range(instr.elem_count) if symbolic_index else (index,)
                cells = {off + k * instr.elem_size for off in sym_off.cells for k in steps}
                sym_off = SymOffset(sx.mk_bin("+", sym_off.expr, scaled), tuple(sorted(cells)))
            frame.temps[instr.iid] = (addr, sym_off)
        elif isinstance(instr, ir.SymBind):
            sid, _ = self.operand(frame, instr.symbol_id)
            dest, _ = self.operand(frame, instr.dest)
            if sid not in self.input.bindings:
                raise InterpError(f"unbound symbol {sid}")
            raw = self.input.bindings[sid]
            value = bool(raw) if instr.width == 1 else semantics.wrap32(int(raw))
            self.store(dest, value, sx.SymRef(sid, instr.width), instr.iid)
        elif isinstance(instr, ir.CallInstr):
            return self.do_call(frame, instr)
        elif isinstance(instr, ir.Ret):
            return self.do_ret(frame, instr)
        elif isinstance(instr, ir.Br):
            frame.block = instr.target
            frame.index = 0
            return True
        elif isinstance(instr, ir.CondBr):
            cond, sym = self.operand(frame, instr.cond)
            expr = _expr(cond, sym)
            if cond:
                self.add_constraint(instr.iid, "then", expr)
                if instr.then_point is not None:
                    self.covered.add(instr.then_point)
                frame.block = instr.then_blk
            else:
                self.add_constraint(instr.iid, "else", sx.mk_not(expr))
                if instr.else_point is not None:
                    self.covered.add(instr.else_point)
                frame.block = instr.else_blk
            frame.index = 0
            return True
        elif isinstance(instr, ir.Check):
            return self.do_check(frame, instr)
        else:
            raise InternalError(f"unknown instruction {type(instr).__name__}")
        frame.index += 1
        return True

    def do_call(self, frame: _Frame, instr: ir.CallInstr) -> bool:
        args = [self.operand(frame, a) for a in instr.args]
        if instr.fn == ir.INTRINSIC_FRESH_I32:
            tag = int(args[0][0])
            seq = self.fresh_seq.get(tag, 0)
            self.fresh_seq[tag] = seq + 1
            queue = self.input.fresh.get(tag, [])
            value = semantics.wrap32(int(queue[seq])) if seq < len(queue) else 0
            self.fresh_refs.append((tag, seq))
            frame.temps[instr.iid] = (value, sx.FreshRef(tag, seq))
            frame.index += 1
            return True
        callee = self.module.functions.get(instr.fn)
        if callee is None:
            raise InterpError(f"call to undefined function {instr.fn!r}")
        self.push_frame(callee, args, instr.iid)
        return True

    def do_ret(self, frame: _Frame, instr: ir.Ret) -> bool:
        value = None if instr.value is None else self.operand(frame, instr.value)
        self.frames.pop()
        if not self.frames:
            self.return_value = None if value is None else value[0]
            return False  # normal completion
        caller = self.frames[-1]
        call_instr = caller.fn.blocks[caller.block].instrs[caller.index]
        if isinstance(call_instr, ir.CallInstr) and call_instr.returns_value:
            caller.temps[frame.call_iid] = value
        caller.index += 1
        return True

    def do_check(self, frame: _Frame, instr: ir.Check) -> bool:
        predicate, ok = self.check_predicate(frame, instr)
        if ok:
            self.add_constraint(instr.iid, "pass", predicate)
            frame.block = instr.cont_blk
            frame.index = 0
            return True
        self.add_constraint(instr.iid, "fail", sx.mk_not(predicate))
        if instr.error_point is not None:
            self.covered.add(instr.error_point)
        self.outcome = OUTCOME_ERROR
        self.error_check_id = instr.iid
        return False

    def check_predicate(self, frame: _Frame, instr: ir.Check) -> tuple[sx.SymExpr, bool]:
        """The check's pass condition and whether it holds on this run."""
        kind = instr.kind
        value, sym = self.operand(frame, instr.operands[0])
        if kind in (ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO):
            return sx.mk_cmp("!=", _expr(value, sym), sx.ConstI32(0)), value != 0
        if kind == ir.CheckKind.INDEX_OUT_OF_BOUNDS:
            index = _expr(value, sym)
            expr = sx.mk_bin(
                "and",
                sx.mk_cmp(">=", index, sx.ConstI32(0)),
                sx.mk_cmp("<", index, sx.ConstI32(instr.bound)),
            )
            return expr, 0 <= value < instr.bound
        if kind == ir.CheckKind.NULL_DEREF:
            ok = not value.is_null
            return sx.ConstBool(ok), ok
        if kind == ir.CheckKind.USER_ASSERT:
            return _expr(value, sym), bool(value)
        raise InternalError(f"unknown check kind {kind}")


def run_function(
    module: ir.IrModule,
    name: str,
    args: list,
    test_input: TestInput | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Trace:
    """Run an arbitrary function with concrete scalar arguments."""
    machine = _Machine(module, test_input or TestInput(), step_budget)
    machine.run(name, args)
    return Trace(
        events=machine.events,
        outcome=machine.outcome,
        input=machine.input,
        covered_points=machine.covered,
        error_check_id=machine.error_check_id,
        return_value=machine.return_value,
        steps=machine.steps,
        fresh_refs=machine.fresh_refs,
    )


def execute(
    module: ir.IrModule,
    driver: str,
    test_input: TestInput,
    step_budget: int = DEFAULT_STEP_BUDGET,
    required_symbols: list[int] | None = None,
) -> Trace:
    """Execute a driver entry point, producing the trace of the run."""
    if driver not in module.functions:
        raise InterpError(f"no driver named {driver!r}")
    if required_symbols is not None:
        missing = [s for s in required_symbols if s not in test_input.bindings]
        if missing:
            raise InterpError(f"unbound symbols: {missing}")
    return run_function(module, driver, [], test_input, step_budget)


def zero_input(plan: "HarnessPlan") -> TestInput:
    """The all-zeros seed, clamped into each symbol's declared domain."""
    bindings: dict[int, int] = {}
    for entry in plan.symbol_map.entries:
        value = 0
        if entry.domain is not None:
            lo, hi = entry.domain
            if not (lo <= 0 <= hi):
                value = lo
        bindings[entry.symbol_id] = value
    return TestInput(bindings=bindings, fresh={})

