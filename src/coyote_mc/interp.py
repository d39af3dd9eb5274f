"""Concolic IR interpreter.

Executes a lowered module from an entry point (a unit's driver, or any
function given its scalar arguments) under a given input. A `Check` that
fails ends the run with an error outcome at that check, so the arithmetic and
memory operations it guards never see a zero divisor, an out-of-range index
or a null address.

Every temp and every heap cell holds the same pair: the concrete value and a
symbolic expression over the input symbols, or None when the value does not
depend on them; a pointer's expression is its symbolic offset (a SymOffset),
or None. Every operand is a temp, so an instruction reads its operands' pairs
as they are, a store writes the stored temp's pair and a load returns the
cell's. As it runs, the machine records the path condition as the trace's
events: one BranchConstraint per branch and check, each true under the
input. A branch or check on a value with no expression records the shared
`symexpr.TRUE` and builds nothing; the other expressions are built by the
folding `mk_*` constructors of symexpr, so the recorded constraints are
already simplified.

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


# --- the machine ------------------------------------------------------------------


def _expr(value, sym: sx.SymExpr | None) -> sx.SymExpr:
    """A scalar's symbolic expression, or its concrete value as a constant."""
    if sym is not None:
        return sym
    if isinstance(value, bool):
        return sx.TRUE if value else sx.FALSE
    return sx.ConstI32(value)


@dataclass
class _Frame:
    fn: ir.IrFunction
    block: int
    index: int
    temps: dict[int, tuple]  # iid -> (concrete value, symbolic expression or None)
    objects: list[int]  # slot index -> heap object id


class _Machine:
    def __init__(self, module: ir.IrModule, test_input: TestInput, step_budget: int):
        self.module = module
        self.input = test_input
        self.step_budget = step_budget
        self.heap: dict[int, list] = {}  # object id -> cells, each a temp's pair or UNINIT
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
        return oid

    def cells(self, addr: Addr, iid: int, access: str) -> list:
        if addr.is_null:
            raise InternalError(f"{access} through null at instruction {iid}")
        obj = self.heap.get(addr.object_id)
        if obj is None or not (0 <= addr.offset < len(obj)):
            raise InternalError(f"{access} outside object bounds at instruction {iid}")
        return obj

    def load(self, addr: Addr, sym_off: SymOffset | None, iid: int) -> tuple:
        cell = self.cells(addr, iid, "load")[addr.offset]
        if cell is UNINIT:
            raise InterpError(f"load of uninitialized memory at instruction {iid}")
        if sym_off is None or isinstance(cell[0], Addr):
            # A pointer loaded through a symbolic offset is the loaded pointer.
            return cell
        return cell[0], self.select(addr.object_id, sym_off)

    def select(self, oid: int, sym_off: SymOffset) -> sx.SymExpr:
        """Guarded selection over the initialized cells the symbolic offset
        can reach, keyed by its expression."""
        heap = self.heap[oid]
        cells = [(off, _expr(*heap[off])) for off in sym_off.cells if heap[off] is not UNINIT]
        selected = cells[-1][1]
        for off, expr in reversed(cells[:-1]):
            selected = sx.mk_ite(sx.mk_cmp("==", sym_off.expr, sx.ConstI32(off)), expr, selected)
        return selected

    def store(self, addr: Addr, cell: tuple, iid: int) -> None:
        self.cells(addr, iid, "store")[addr.offset] = cell

    # -- frames

    def push_frame(self, fn: ir.IrFunction, args: list[tuple]) -> None:
        objects = [self.alloc(slot.size) for slot in fn.slots]
        for oid, arg in zip(objects, args):
            self.heap[oid][0] = arg
        self.frames.append(_Frame(fn, 0, 0, {}, objects))

    # -- path condition

    def add_constraint(self, site_id: int, taken_dir: str, cond: sx.SymExpr | None,
                       holds: bool) -> None:
        """Record a branch or check as taken: its condition if it holds, its
        negation if not, and the shared TRUE if it does not depend on the
        input (`cond` is None)."""
        expr = sx.TRUE if cond is None else cond if holds else sx.mk_not(cond)
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
        self.push_frame(fn, [(a, None) for a in args])
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
        temps = frame.temps
        if isinstance(instr, ir.SlotAddr):
            temps[instr.iid] = (Addr(frame.objects[instr.slot], 0), None)
        elif isinstance(instr, ir.Load):
            addr, sym_off = temps[instr.addr]
            temps[instr.iid] = self.load(addr, sym_off, instr.iid)
        elif isinstance(instr, ir.Store):
            self.store(temps[instr.addr][0], temps[instr.value], instr.iid)
        elif isinstance(instr, ir.Const):
            temps[instr.iid] = (NULL if instr.value is None else instr.value, None)
        elif isinstance(instr, ir.BinOp):
            a, sa = temps[instr.lhs]
            b, sb = temps[instr.rhs]
            if instr.op in ("/", "%") and b == 0:
                raise InternalError("division by zero reached the arithmetic unit")
            sym = None
            if sa is not None or sb is not None:
                sym = sx.mk_bin(instr.op, _expr(a, sa), _expr(b, sb))
            temps[instr.iid] = (semantics.binop(instr.op, a, b), sym)
        elif isinstance(instr, ir.Cmp):
            a, sa = temps[instr.lhs]
            b, sb = temps[instr.rhs]
            sym = None
            pointers = isinstance(a, Addr) or isinstance(b, Addr)
            if not pointers and (sa is not None or sb is not None):
                sym = sx.mk_cmp(instr.op, _expr(a, sa), _expr(b, sb))
            temps[instr.iid] = (semantics.compare(instr.op, a, b), sym)
        elif isinstance(instr, ir.FieldAddr):
            base, sym_off = temps[instr.base]
            if sym_off is not None:
                sym_off = SymOffset(
                    sx.mk_bin("+", sym_off.expr, sx.ConstI32(instr.offset)),
                    tuple(off + instr.offset for off in sym_off.cells),
                )
            temps[instr.iid] = (Addr(base.object_id, base.offset + instr.offset), sym_off)
        elif isinstance(instr, ir.IndexAddr):
            base, sym_off = temps[instr.base]
            index, index_sym = temps[instr.index]
            addr = Addr(base.object_id, base.offset + index * instr.elem_size)
            symbolic_index = index_sym is not None and not sx.is_const(index_sym)
            if sym_off is not None or symbolic_index:
                if sym_off is None:
                    sym_off = SymOffset(sx.ConstI32(base.offset), (base.offset,))
                scaled = sx.mk_bin("*", _expr(index, index_sym), sx.ConstI32(instr.elem_size))
                steps = range(instr.elem_count) if symbolic_index else (index,)
                cells = {off + k * instr.elem_size for off in sym_off.cells for k in steps}
                sym_off = SymOffset(sx.mk_bin("+", sym_off.expr, scaled), tuple(sorted(cells)))
            temps[instr.iid] = (addr, sym_off)
        elif isinstance(instr, ir.SymBind):
            sid = temps[instr.symbol_id][0]
            if sid not in self.input.bindings:
                raise InterpError(f"unbound symbol {sid}")
            raw = self.input.bindings[sid]
            value = bool(raw) if instr.width == 1 else semantics.wrap32(int(raw))
            self.store(temps[instr.dest][0], (value, sx.SymRef(sid, instr.width)), instr.iid)
        elif isinstance(instr, ir.CallInstr):
            return self.do_call(frame, instr)
        elif isinstance(instr, ir.Ret):
            return self.do_ret(frame, instr)
        elif isinstance(instr, ir.Br):
            frame.block = instr.target
            frame.index = 0
            return True
        elif isinstance(instr, ir.CondBr):
            cond, sym = temps[instr.cond]
            if cond:
                self.add_constraint(instr.iid, "then", sym, True)
                if instr.then_point is not None:
                    self.covered.add(instr.then_point)
                frame.block = instr.then_blk
            else:
                self.add_constraint(instr.iid, "else", sym, False)
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
        args = [frame.temps[a] for a in instr.args]
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
        self.push_frame(callee, args)
        return True

    def do_ret(self, frame: _Frame, instr: ir.Ret) -> bool:
        value = None if instr.value is None else frame.temps[instr.value]
        self.frames.pop()
        if not self.frames:
            self.return_value = None if value is None else value[0]
            return False  # normal completion
        caller = self.frames[-1]
        call = caller.fn.blocks[caller.block].instrs[caller.index]
        if call.returns_value:
            caller.temps[call.iid] = value
        caller.index += 1
        return True

    def do_check(self, frame: _Frame, instr: ir.Check) -> bool:
        value, sym = frame.temps[instr.operands[0]]
        ok, predicate = self.check_predicate(instr, value, sym)
        if ok:
            self.add_constraint(instr.iid, "pass", predicate, True)
            frame.block = instr.cont_blk
            frame.index = 0
            return True
        self.add_constraint(instr.iid, "fail", predicate, False)
        if instr.error_point is not None:
            self.covered.add(instr.error_point)
        self.outcome = OUTCOME_ERROR
        self.error_check_id = instr.iid
        return False

    def check_predicate(self, instr: ir.Check, value,
                        sym: sx.SymExpr | None) -> tuple[bool, sx.SymExpr | None]:
        """Whether the check passes on this run, and its pass condition over
        the input, or None when the operand does not depend on the input."""
        kind = instr.kind
        if kind == ir.CheckKind.NULL_DEREF:
            return not value.is_null, None  # pointers stay concrete
        if kind == ir.CheckKind.USER_ASSERT:
            return bool(value), sym
        if kind == ir.CheckKind.INDEX_OUT_OF_BOUNDS:
            ok = 0 <= value < instr.bound
            if sym is not None:
                sym = sx.mk_bin("and", sx.mk_cmp(">=", sym, sx.ConstI32(0)),
                                sx.mk_cmp("<", sym, sx.ConstI32(instr.bound)))
            return ok, sym
        if kind in (ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO):
            return value != 0, None if sym is None else sx.mk_cmp("!=", sym, sx.ConstI32(0))
        raise InternalError(f"unknown check kind {kind}")


def execute(
    module: ir.IrModule,
    entry: str,
    test_input: TestInput,
    step_budget: int = DEFAULT_STEP_BUDGET,
    required_symbols: list[int] | None = None,
    args: list | tuple = (),
) -> Trace:
    """Execute an entry point, a unit's driver or any function given its
    concrete scalar `args`, producing the trace of the run."""
    if required_symbols is not None:
        missing = [s for s in required_symbols if s not in test_input.bindings]
        if missing:
            raise InterpError(f"unbound symbols: {missing}")
    machine = _Machine(module, test_input, step_budget)
    machine.run(entry, list(args))
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

