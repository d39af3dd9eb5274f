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
cell's.

A frame's temps also hold its local temps: the scalar locals and parameters
that `ir` keeps out of memory. A call puts each such argument in its temp, a
`Move` copies a pair into one, and only the remaining slots get a heap
object. A local temp has no entry until its first write, so reading it
earlier fails its dictionary lookup. The run loop turns that KeyError, and no
other, into an InterpError, just as a load of a never-written heap cell is
one, at no cost to the reads that succeed.

As it runs, the machine records the path condition as the trace's events:
one BranchConstraint per branch and check, each true under the input. A
branch or check on a value with no expression records the shared
`symexpr.TRUE` and builds nothing; the other expressions are built by the
folding `mk_*` constructors of symexpr, so the recorded constraints are
already simplified.

The memory model follows the write-concrete/read-symbolic rule: a store
updates exactly the concretely addressed cell, and a load whose offset is
symbolic yields a guarded selection (Ite chain) over the cells that offset can
reach: the elements of the indexed array, at the selected field. Pointers and
pointer comparisons stay concrete.

Each function runs as compiled code. On the function's first call, `_compile`
translates each block into a list of records, one per instruction, each
holding the instruction's statement point, whether it transfers control, its
handler and the operands the handler reads. The lists are stored on the
function itself (`IrFunction.code`), so the code belongs to the function:
every module that shares a function runs the same code, and the code is freed
with the function. It does not depend on the module it runs in: a call names
its callee, which is looked up in the running module, because a unit's stub
replaces the program's declaration of that name. The run loop makes one call
per instruction: it checks the step budget, counts the step, covers the
statement point, and calls the handler.

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


@dataclass(slots=True)
class _Frame:
    fn: ir.IrFunction
    code: list[list[tuple]]  # the function's compiled blocks
    block: int
    index: int
    # temp id (an instruction's, or a local's) -> (concrete value, symbolic
    # expression or None); a local is absent until its first write
    temps: dict[int, tuple]
    slots: list[tuple]  # slot index -> the (address, None) pair of its object
    result: int | None = None  # the temp a pending call's return value goes to


class _Machine:
    def __init__(self, module: ir.IrModule, test_input: TestInput, step_budget: int):
        self.functions = module.functions
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
        obj = self.heap.get(addr.object_id)  # no object has the null address's id 0
        if obj is None or not (0 <= addr.offset < len(obj)):
            if addr.is_null:
                raise InternalError(f"{access} through null at instruction {iid}")
            raise InternalError(f"{access} outside object bounds at instruction {iid}")
        return obj

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
        slots = [(Addr(self.alloc(slot.size), 0), None) for slot in fn.slots]
        temps = {}
        for home, arg in zip(fn.param_homes, args):
            if home < 0:
                temps[home] = arg
            else:
                self.heap[slots[home][0].object_id][0] = arg
        code = fn.code if fn.code is not None else _compile(fn)
        self.frames.append(_Frame(fn, code, 0, 0, temps, slots))

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
        fn = self.functions.get(entry)
        if fn is None:
            raise InterpError(f"no function named {entry!r}")
        if len(args) != len(fn.params):
            raise InterpError(f"{entry!r} expects {len(fn.params)} arguments")
        self.push_frame(fn, [(a, None) for a in args])
        frames, covered, budget = self.frames, self.covered, self.step_budget
        steps = 0
        try:
            while True:
                # Run the current frame's straight-line handlers up to the next
                # control instruction, which decides where execution goes on.
                frame = frames[-1]
                code, temps, slots = frame.code[frame.block], frame.temps, frame.slots
                index = frame.index
                while True:
                    if steps >= budget:
                        self.outcome = OUTCOME_BUDGET
                        return
                    steps += 1
                    record = code[index]
                    if record[0] is not None:
                        covered.add(record[0])
                    if record[1]:
                        break
                    record[2](self, temps, slots, record)
                    index += 1
                if not record[2](self, frame, record):
                    return
        except KeyError as exc:
            # Reading a local temp before its first write finds no key; any
            # other missing key is the interpreter's own fault.
            key = exc.args[0] if len(exc.args) == 1 else None
            if type(key) is int and -len(frame.fn.locals) <= key < 0 and key not in frame.temps:
                name = frame.fn.locals[-1 - key][0]
                raise InterpError(
                    f"read of uninitialized local {name!r} in {frame.fn.name}") from None
            raise
        finally:
            self.steps = steps


# --- compiling a function into handlers -----------------------------------------------
#
# Threaded code, after Bell (CACM 1973): each instruction becomes one record,
# a tuple (statement point, transfers control, handler, operands...). The
# handler is a module-level function chosen once per instruction, and the
# operands are what it reads: temp ids, the instruction id, the operator
# function. A straight-line handler is called as handler(machine, temps, slots,
# record) and writes its result; a control handler as handler(machine, frame,
# record): it sets the frame's block and index, or pushes or pops a frame, and
# returns whether the run goes on. The tuple is all an instruction costs: a
# closure per instruction would add a function object and its cells, about
# three times the memory on CPython 3.11.


def _compile(fn: ir.IrFunction) -> list[list[tuple]]:
    fn.code = [
        [_record(instr, pos) for pos, instr in enumerate(block.instrs)]
        for block in fn.blocks
    ]
    return fn.code


def _record(instr: ir.Instr, pos: int) -> tuple:
    if isinstance(instr, ir.CallInstr) and instr.fn == ir.INTRINSIC_FRESH_I32:
        return (instr.stmt_point, False, _fresh, instr.iid, instr.args[0])
    operands = _STRAIGHT.get(type(instr))
    if operands is not None:
        return (instr.stmt_point, False) + operands(instr)
    operands = _CONTROL.get(type(instr))
    if operands is None:
        raise InternalError(f"unknown instruction {type(instr).__name__}")
    return (instr.stmt_point, True) + operands(instr, pos)


# -- straight-line handlers


def _const(m, temps, slots, record):
    _, _, _, iid, pair = record
    temps[iid] = pair


def _slot_addr(m, temps, slots, record):
    _, _, _, iid, slot = record
    temps[iid] = slots[slot]


def _load(m, temps, slots, record):
    _, _, _, iid, addr = record
    address, sym_off = temps[addr]
    cell = m.cells(address, iid, "load")[address.offset]
    if cell is UNINIT:
        raise InterpError(f"load of uninitialized memory at instruction {iid}")
    if sym_off is None or isinstance(cell[0], Addr):
        # A pointer loaded through a symbolic offset is the loaded pointer.
        temps[iid] = cell
    else:
        temps[iid] = (cell[0], m.select(address.object_id, sym_off))


def _move(m, temps, slots, record):
    _, _, _, dest, src = record
    temps[dest] = temps[src]


def _store(m, temps, slots, record):
    _, _, _, iid, addr, value = record
    m.store(temps[addr][0], temps[value], iid)


def _binop(m, temps, slots, record):
    _, _, _, iid, lhs, rhs, op, arith, divides = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    if divides and b == 0:
        raise InternalError("division by zero reached the arithmetic unit")
    if sa is None and sb is None:
        temps[iid] = (arith(a, b), None)
    else:
        temps[iid] = (arith(a, b), sx.mk_bin(op, _expr(a, sa), _expr(b, sb)))


def _cmp(m, temps, slots, record):
    _, _, _, iid, lhs, rhs, op, compare = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    if (sa is None and sb is None) or isinstance(a, Addr) or isinstance(b, Addr):
        temps[iid] = (compare(a, b), None)  # pointer comparisons stay concrete
    else:
        temps[iid] = (compare(a, b), sx.mk_cmp(op, _expr(a, sa), _expr(b, sb)))


def _field_addr(m, temps, slots, record):
    _, _, _, iid, base, offset = record
    addr, sym_off = temps[base]
    if sym_off is not None:
        sym_off = SymOffset(sx.mk_bin("+", sym_off.expr, sx.ConstI32(offset)),
                            tuple(off + offset for off in sym_off.cells))
    temps[iid] = (Addr(addr.object_id, addr.offset + offset), sym_off)


def _index_addr(m, temps, slots, record):
    _, _, _, iid, base, index, elem_count, elem_size = record
    addr, sym_off = temps[base]
    value, index_sym = temps[index]
    symbolic_index = index_sym is not None and not sx.is_const(index_sym)
    if sym_off is not None or symbolic_index:
        if sym_off is None:
            sym_off = SymOffset(sx.ConstI32(addr.offset), (addr.offset,))
        scaled = sx.mk_bin("*", _expr(value, index_sym), sx.ConstI32(elem_size))
        steps = range(elem_count) if symbolic_index else (value,)
        cells = {off + k * elem_size for off in sym_off.cells for k in steps}
        sym_off = SymOffset(sx.mk_bin("+", sym_off.expr, scaled), tuple(sorted(cells)))
    temps[iid] = (Addr(addr.object_id, addr.offset + value * elem_size), sym_off)


def _sym_bind(m, temps, slots, record):
    _, _, _, iid, symbol_id, dest, width = record
    sid = temps[symbol_id][0]
    if sid not in m.input.bindings:
        raise InterpError(f"unbound symbol {sid}")
    raw = m.input.bindings[sid]
    value = bool(raw) if width == 1 else semantics.wrap32(int(raw))
    m.store(temps[dest][0], (value, sx.SymRef(sid, width)), iid)


def _fresh(m, temps, slots, record):
    _, _, _, iid, tag_temp = record
    tag = int(temps[tag_temp][0])
    seq = m.fresh_seq.get(tag, 0)
    m.fresh_seq[tag] = seq + 1
    queue = m.input.fresh.get(tag, [])
    value = semantics.wrap32(int(queue[seq])) if seq < len(queue) else 0
    m.fresh_refs.append((tag, seq))
    temps[iid] = (value, sx.FreshRef(tag, seq))


# Each straight-line instruction's handler and operands.
_STRAIGHT = {
    ir.Const: lambda i: (_const, i.iid, (NULL if i.value is None else i.value, None)),
    ir.SlotAddr: lambda i: (_slot_addr, i.iid, i.slot),
    ir.Load: lambda i: (_load, i.iid, i.addr),
    ir.Store: lambda i: (_store, i.iid, i.addr, i.value),
    ir.Move: lambda i: (_move, i.dest, i.src),
    ir.BinOp: lambda i: (_binop, i.iid, i.lhs, i.rhs, i.op, semantics.ARITH[i.op],
                         i.op in ("/", "%")),
    ir.Cmp: lambda i: (_cmp, i.iid, i.lhs, i.rhs, i.op, semantics.COMPARE[i.op]),
    ir.FieldAddr: lambda i: (_field_addr, i.iid, i.base, i.offset),
    ir.IndexAddr: lambda i: (_index_addr, i.iid, i.base, i.index, i.elem_count, i.elem_size),
    ir.SymBind: lambda i: (_sym_bind, i.iid, i.symbol_id, i.dest, i.width),
}


# -- control handlers


def _call(m, frame, record):
    _, _, _, name, args, result, resume = record
    # The callee is looked up in the running module: a unit's stub replaces
    # the program's external declaration of the same name.
    callee = m.functions.get(name)
    if callee is None:
        raise InterpError(f"call to undefined function {name!r}")
    temps = frame.temps
    frame.index, frame.result = resume, result
    m.push_frame(callee, [temps[a] for a in args])
    return True


def _ret(m, frame, record):
    value = record[3]
    pair = None if value is None else frame.temps[value]
    frames = m.frames
    frames.pop()
    if not frames:
        m.return_value = None if pair is None else pair[0]
        return False  # normal completion
    caller = frames[-1]
    if caller.result is not None:
        caller.temps[caller.result] = pair
    return True


def _br(m, frame, record):
    frame.block, frame.index = record[3], 0
    return True


def _cond_br(m, frame, record):
    _, _, _, iid, cond, then_blk, else_blk, then_point, else_point = record
    value, sym = frame.temps[cond]
    if value:
        m.add_constraint(iid, "then", sym, True)
        if then_point is not None:
            m.covered.add(then_point)
        frame.block = then_blk
    else:
        m.add_constraint(iid, "else", sym, False)
        if else_point is not None:
            m.covered.add(else_point)
        frame.block = else_blk
    frame.index = 0
    return True


def _check(m, frame, record):
    _, _, _, iid, operand, cont_blk, error_point, predicate, bound = record
    value, sym = frame.temps[operand]
    ok, condition = predicate(value, sym, bound)
    if ok:
        m.add_constraint(iid, "pass", condition, True)
        frame.block, frame.index = cont_blk, 0
        return True
    m.add_constraint(iid, "fail", condition, False)
    if error_point is not None:
        m.covered.add(error_point)
    m.outcome = OUTCOME_ERROR
    m.error_check_id = iid
    return False


# Each check kind's test on its operand's pair: whether the check passes on
# this run, and its pass condition over the input, or None when the operand
# does not depend on the input.


def _not_null(value, sym, bound):
    return not value.is_null, None  # pointers stay concrete


def _holds(value, sym, bound):
    return bool(value), sym


def _in_bounds(value, sym, bound):
    if sym is not None:
        sym = sx.mk_bin("and", sx.mk_cmp(">=", sym, sx.ConstI32(0)),
                        sx.mk_cmp("<", sym, sx.ConstI32(bound)))
    return 0 <= value < bound, sym


def _nonzero(value, sym, bound):
    return value != 0, None if sym is None else sx.mk_cmp("!=", sym, sx.ConstI32(0))


_PREDICATES = {
    ir.CheckKind.NULL_DEREF: _not_null, ir.CheckKind.USER_ASSERT: _holds,
    ir.CheckKind.INDEX_OUT_OF_BOUNDS: _in_bounds,
    ir.CheckKind.DIV_BY_ZERO: _nonzero, ir.CheckKind.MOD_BY_ZERO: _nonzero,
}

# Each control instruction's handler and operands, given its position.
_CONTROL = {
    ir.CallInstr: lambda i, pos: (_call, i.fn, i.args, i.iid if i.returns_value else None, pos + 1),
    ir.Ret: lambda i, pos: (_ret, i.value),
    ir.Br: lambda i, pos: (_br, i.target),
    ir.CondBr: lambda i, pos: (_cond_br, i.iid, i.cond, i.then_blk, i.else_blk,
                               i.then_point, i.else_point),
    ir.Check: lambda i, pos: (_check, i.iid, i.operand, i.cont_blk, i.error_point,
                              _PREDICATES[i.kind], i.bound),
}


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

