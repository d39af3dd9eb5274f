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
one BranchConstraint per branch and check, each true under the input, and
numbered by its position in the list. A branch or check on a value with no
expression appends one of its instruction's two fixed records (then or else,
pass or fail), whose expression is the shared `symexpr.TRUE`. Both are built
when the function is compiled and kept in the instruction's record, so every
run of the code appends the same objects and allocates nothing. Only a
condition over the input builds a new record; its expression is built by the
folding `mk_*` constructors of symexpr, so the recorded constraints are
already simplified. Alongside, it records the run's model: each symbol
binding and stub draw it reads, keyed by the leaf that stands for it, with
the value `read_input` gives.

The memory model follows the write-concrete/read-symbolic rule: a store
updates exactly the concretely addressed cell, and a load whose offset is
symbolic yields a guarded selection (Ite chain) over the cells that offset can
reach: the elements of the indexed array, at the selected field. Pointers and
pointer comparisons stay concrete.

Each function runs as compiled code. On the function's first call, `_compile`
cuts each block into stretches, each running from the block's start or a
call's resume point up to and including the next control instruction, and
translates each stretch into records, one per instruction or per fused pair of
instructions, each holding its handler and the operands the handler reads; a
branch's or check's record also holds its two fixed records. A `Const` or a
`SlotAddr` gets no record: a new frame's temps start with its value, a literal
or its slot's new object. The compiled form is stored on the function itself
(`IrFunction.code`), so the code belongs to the function: every module that
shares a function runs the same code, and the code and its fixed records are
freed with the function. It does not depend on the module it runs in: a call
names its callee, which is looked up in the running module, because a unit's
stub replaces the program's declaration of that name. The run loop dispatches
once per stretch: it checks the step budget, counts the stretch's IR
instructions as steps, covers its statement points and calls its handlers. A
run's steps, events and coverage are what one instruction at a time would
give: when the budget ends inside a stretch, the instructions before the cut
run one at a time from their unfused records.

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


@dataclass(frozen=True, slots=True)
class BranchConstraint:
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
    # The run's model (see symexpr): each input leaf it read, first read
    # first, to the value it read (see read_input).
    model: dict[sx.SymExpr, int | bool]
    error_check_id: int | None = None
    return_value: object = None
    steps: int = 0


def read_input(test_input: TestInput, ref: sx.SymExpr) -> int | bool:
    """The value a run under the input reads for an input leaf: a width-1
    symbol's binding as a bool, any other symbol's wrapped to int32, and a
    stub draw's queued value wrapped to int32, or 0 past the end of its
    queue. The only place an input's value is normalised."""
    if type(ref) is sx.SymRef:
        raw = test_input.bindings[ref.symbol_id]
        return bool(raw) if ref.width == 1 else semantics.wrap32(int(raw))
    queue = test_input.fresh.get(ref.tag, ())
    return semantics.wrap32(int(queue[ref.seq])) if ref.seq < len(queue) else 0


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
    code: list[list[tuple]]  # the function's compiled blocks, each a list of stretches
    block: int
    index: int  # the block's stretch to run next
    # temp id (an instruction's, or a local's) -> (concrete value, symbolic
    # expression or None); a local is absent until its first write
    temps: dict[int, tuple]
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
        self.model: dict[sx.SymExpr, int | bool] = {}
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
        blocks, consts, slot_addrs = fn.code if fn.code is not None else _compile(fn)
        objects = [self.alloc(slot.size) for slot in fn.slots]
        temps = dict(consts)
        for temp, slot in slot_addrs:
            temps[temp] = (Addr(objects[slot], 0), None)
        for home, arg in zip(fn.param_homes, args):
            if home < 0:
                temps[home] = arg
            else:
                self.heap[objects[home]][0] = arg
        self.frames.append(_Frame(fn, blocks, 0, 0, temps))

    # -- path condition

    def add_constraint(self, site_id: int, taken_dir: str, cond: sx.SymExpr,
                       holds: bool) -> None:
        """Record a branch or check on a value that depends on the input as
        taken: its condition if it holds, its negation if not."""
        expr = cond if holds else sx.mk_not(cond)
        self.events.append(BranchConstraint(site_id, taken_dir, expr, not sx.is_const(expr)))

    # -- main loop

    def run(self, entry: str, args: list) -> None:
        fn = self.functions.get(entry)
        if fn is None:
            raise InterpError(f"no function named {entry!r}")
        if len(args) != len(fn.params):
            raise InterpError(f"{entry!r} expects {len(fn.params)} arguments")
        self.push_frame(fn, [(a, None) for a in args])
        # A negative budget runs nothing, as a budget of 0 does.
        covered, budget = self.covered, max(self.step_budget, 0)
        frame = self.frames[-1]
        steps = 0
        try:
            while frame is not None:
                # Run the current frame's stretches, going straight on across
                # unconditional branches, up to a control record, which
                # decides where execution goes on.
                code, temps = frame.code, frame.temps
                stretch = code[frame.block][frame.index]
                while True:
                    points, count, records, control, instrs = stretch
                    if steps + count > budget:
                        self.cut(frame, instrs, budget - steps)
                        steps = budget
                        self.outcome = OUTCOME_BUDGET
                        return
                    steps += count
                    covered.update(points)
                    for record in records:
                        record[0](self, temps, record)
                    if control[0] is None:  # an unconditional branch
                        stretch = code[control[1]][0]
                    else:
                        break
                frame = control[0](self, frame, control)
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

    def cut(self, frame: _Frame, instrs: tuple, left: int) -> None:
        """Run the first `left` instructions of a stretch the step budget ends
        inside, one at a time from their unfused records, covering each. One
        with no record is a `Const` or a `SlotAddr`, bound with the frame, or
        the branch inside a chained stretch, as the stretch's last instruction
        is not among them; the run ends before the branch's target matters."""
        for instr in instrs[:left]:
            if instr.stmt_point is not None:
                self.covered.add(instr.stmt_point)
            record = _straight(instr)
            if record is not None:
                record[0](self, frame.temps, record)


# --- compiling a function into handlers -----------------------------------------------
#
# Threaded code, after Bell (CACM 1973), with superoperators, after Proebsting
# (POPL 1995): each instruction, or each fused pair of instructions, becomes one
# record, a tuple (handler, operands...). The handler is a module-level
# function chosen once per record, and the operands are what it reads: temp
# ids, instruction ids, the operator function, the fixed records. A
# straight-line handler is called as handler(machine, temps, record) and
# writes its results; a control handler as handler(machine, frame, record):
# it sets the frame's block and index, or pushes or pops a frame, and returns
# the frame the run goes on in, or None when the run ends. The tuple is all a
# record costs: a closure per record would add a function object and its
# cells, about three times the memory on CPython 3.11.
#
# The unit of dispatch is a stretch: the records of one block from its start,
# or from a call's resume point, up to and including the next control record.
# It is a tuple (statement points, IR instruction count, straight-line
# records, control record, instructions), so the run loop checks the budget,
# counts the steps and covers the statement points once per stretch. Within a
# stretch, three pairs fuse into one record, each still writing every temp its
# two instructions write, so no liveness analysis is needed: a `BinOp` and the
# `Move` of its temp, an `IndexAddr` and the `Load` through it, a `Cmp` and the
# `CondBr` on it. An unconditional branch calls no handler: its control record
# is (None, target block), and its stretch is chained with the target block's
# first stretch, so a loop body runs straight on into the loop test. A jump
# leaves the frame's block as it was, so a call's record names its own block
# and the stretch it resumes at. As in a register VM's constant table
# (Ierusalimschy et al., JUCS 2005), the compiled form is a tuple (blocks,
# constants, slot addresses): each `Const`'s temp, from any block, to its
# pair, and each `SlotAddr`'s (temp, slot).


def _compile(fn: ir.IrFunction) -> tuple:
    blocks = [_stretches(b, block.instrs) for b, block in enumerate(fn.blocks)]
    instrs = [instr for block in fn.blocks for instr in block.instrs]
    fn.code = ([[_chained(stretch, blocks) for stretch in stretches] for stretches in blocks],
               {i.iid: (NULL if i.value is None else i.value, None)
                for i in instrs if type(i) is ir.Const},
               tuple((i.iid, i.slot) for i in instrs if type(i) is ir.SlotAddr))
    return fn.code


def _stretches(b: int, instrs: list[ir.Instr]) -> list[tuple]:
    """Block b's stretches, each fusing the pairs it can, unchained."""
    stretches, records, start, pos = [], [], 0, 0
    while pos < len(instrs):
        instr = instrs[pos]
        after = instrs[pos + 1] if pos + 1 < len(instrs) else None
        control = None
        if type(instr) is ir.BinOp and type(after) is ir.Move and after.src == instr.iid:
            records.append((_ARITH[instr.op], instr.iid, instr.lhs, instr.rhs, after.dest))
            pos += 2
        elif type(instr) is ir.IndexAddr and type(after) is ir.Load and after.addr == instr.iid:
            records.append((_index_load, instr.iid, instr.base, instr.index, instr.elem_size,
                            after.iid, _straight(instr), _straight(after)))
            pos += 2
        elif type(instr) is ir.Cmp and type(after) is ir.CondBr and after.cond == instr.iid:
            control = (_cmp_br,) + _branch_operands(after) + (
                instr.iid, instr.lhs, instr.rhs, instr.op, semantics.COMPARE[instr.op])
            pos += 2
        else:
            record = _straight(instr)
            if record is not None:
                records.append(record)
            elif type(instr) not in (ir.Const, ir.SlotAddr):  # bound with the frame
                control = _control(instr, b, len(stretches) + 1)
            pos += 1
        if control is not None:
            run = tuple(instrs[start:pos])
            points = tuple(i.stmt_point for i in run if i.stmt_point is not None)
            stretches.append((points, len(run), tuple(records), control, run))
            records, start = [], pos
    return stretches


def _chained(stretch: tuple, blocks: list[list[tuple]]) -> tuple:
    """The stretch, run on into the first stretch of its unconditional
    branch's target block if it ends in such a branch."""
    points, count, records, control, instrs = stretch
    if control[0] is not None:
        return stretch
    target = blocks[control[1]][0]
    return (points + target[0], count + target[1], records + target[2], target[3],
            instrs + target[4])


def _straight(instr: ir.Instr) -> tuple | None:
    """A straight-line instruction's own record, or None for a control one."""
    if isinstance(instr, ir.CallInstr) and instr.fn == ir.INTRINSIC_FRESH_I32:
        return (_fresh, instr.iid, instr.args[0])
    operands = _STRAIGHT.get(type(instr))
    return None if operands is None else operands(instr)


def _control(instr: ir.Instr, b: int, resume: int) -> tuple:
    """A control instruction's record, given its block and the index of the
    stretch after it."""
    if type(instr) is ir.CallInstr:
        return (_call, instr.fn, instr.args, instr.iid if instr.returns_value else None,
                b, resume)
    if type(instr) is ir.Ret:
        return (_ret, instr.value)
    if type(instr) is ir.Br:
        return (None, instr.target)
    if type(instr) is ir.CondBr:
        return (_cond_br,) + _branch_operands(instr) + (instr.cond,)
    if type(instr) is ir.Check:
        return (_check, instr.iid, instr.operand, instr.cont_blk, instr.error_point,
                _CONDITIONS[instr.kind], instr.bound,
                _fixed(instr.iid, "pass"), _fixed(instr.iid, "fail"))
    raise InternalError(f"unknown instruction {type(instr).__name__}")


# -- straight-line handlers


def _load(m, temps, record):
    _, iid, addr = record
    address, sym_off = temps[addr]
    cell = m.cells(address, iid, "load")[address.offset]
    if cell is UNINIT:
        raise InterpError(f"load of uninitialized memory at instruction {iid}")
    if sym_off is None or isinstance(cell[0], Addr):
        # A pointer loaded through a symbolic offset is the loaded pointer.
        temps[iid] = cell
    else:
        temps[iid] = (cell[0], m.select(address.object_id, sym_off))


def _move(m, temps, record):
    _, dest, src = record
    temps[dest] = temps[src]


def _store(m, temps, record):
    _, iid, addr, value = record
    m.store(temps[addr][0], temps[value], iid)


# One handler per arithmetic operator. Each writes its result to the BinOp's
# temp and to `dest`, which is the temp a fused Move copies it to, or the
# BinOp's own temp again. The concrete value wraps inline, as
# `semantics.wrap32` does; only a remainder with a negative operand, and
# every quotient, call `semantics`.


def _sym_bin(op, a, sa, b, sb):
    return sx.mk_bin(op, _expr(a, sa), _expr(b, sb))


def _add(m, temps, record):
    _, iid, lhs, rhs, dest = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    temps[iid] = temps[dest] = ((a + b + 2**31) % 2**32 - 2**31,
                                None if sa is None and sb is None else _sym_bin("+", a, sa, b, sb))


def _sub(m, temps, record):
    _, iid, lhs, rhs, dest = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    temps[iid] = temps[dest] = ((a - b + 2**31) % 2**32 - 2**31,
                                None if sa is None and sb is None else _sym_bin("-", a, sa, b, sb))


def _mul(m, temps, record):
    _, iid, lhs, rhs, dest = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    temps[iid] = temps[dest] = ((a * b + 2**31) % 2**32 - 2**31,
                                None if sa is None and sb is None else _sym_bin("*", a, sa, b, sb))


def _div(m, temps, record):
    _, iid, lhs, rhs, dest = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    if b == 0:
        raise InternalError("division by zero reached the arithmetic unit")
    temps[iid] = temps[dest] = (semantics.div_trunc(a, b),
                                None if sa is None and sb is None else _sym_bin("/", a, sa, b, sb))


def _rem(m, temps, record):
    _, iid, lhs, rhs, dest = record
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    if b == 0:
        raise InternalError("division by zero reached the arithmetic unit")
    # With both operands positive, Python's floored remainder is C's, and in range.
    temps[iid] = temps[dest] = (a % b if a >= 0 and b > 0 else semantics.rem_trunc(a, b),
                                None if sa is None and sb is None else _sym_bin("%", a, sa, b, sb))


_ARITH = {"+": _add, "-": _sub, "*": _mul, "/": _div, "%": _rem}


def _compared(temps, lhs, rhs, op, compare) -> tuple:
    """A comparison's pair: its value, and its expression unless both
    operands are concrete. Pointer comparisons stay concrete."""
    a, sa = temps[lhs]
    b, sb = temps[rhs]
    if (sa is None and sb is None) or isinstance(a, Addr) or isinstance(b, Addr):
        return (compare(a, b), None)
    return (compare(a, b), sx.mk_cmp(op, _expr(a, sa), _expr(b, sb)))


def _cmp(m, temps, record):
    _, iid, lhs, rhs, op, compare = record
    temps[iid] = _compared(temps, lhs, rhs, op, compare)


def _field_addr(m, temps, record):
    _, iid, base, offset = record
    addr, sym_off = temps[base]
    if sym_off is not None:
        sym_off = SymOffset(sx.mk_bin("+", sym_off.expr, sx.ConstI32(offset)),
                            tuple(off + offset for off in sym_off.cells))
    temps[iid] = (Addr(addr.object_id, addr.offset + offset), sym_off)


def _index_addr(m, temps, record):
    _, iid, base, index, elem_count, elem_size = record
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


def _index_load(m, temps, record):
    """An IndexAddr and the Load through it. A symbolic index or base offset
    goes through their own handlers, with their own records."""
    _, iid, base, index, elem_size, load_iid, index_record, load_record = record
    addr, sym_off = temps[base]
    value, index_sym = temps[index]
    if sym_off is not None or (index_sym is not None and not sx.is_const(index_sym)):
        _index_addr(m, temps, index_record)
        _load(m, temps, load_record)
        return
    address = Addr(addr.object_id, addr.offset + value * elem_size)
    temps[iid] = (address, None)
    cell = m.cells(address, load_iid, "load")[address.offset]
    if cell is UNINIT:
        raise InterpError(f"load of uninitialized memory at instruction {load_iid}")
    temps[load_iid] = cell


def _sym_bind(m, temps, record):
    _, iid, symbol_id, dest, width = record
    sid = temps[symbol_id][0]
    if sid not in m.input.bindings:
        raise InterpError(f"unbound symbol {sid}")
    ref = sx.SymRef(sid, width)
    m.model[ref] = value = read_input(m.input, ref)
    m.store(temps[dest][0], (value, ref), iid)


def _fresh(m, temps, record):
    _, iid, tag_temp = record
    tag = int(temps[tag_temp][0])
    seq = m.fresh_seq.get(tag, 0)
    m.fresh_seq[tag] = seq + 1
    ref = sx.FreshRef(tag, seq)
    m.model[ref] = value = read_input(m.input, ref)
    temps[iid] = (value, ref)


# Each straight-line instruction's own record, unfused.
_STRAIGHT = {
    ir.Load: lambda i: (_load, i.iid, i.addr),
    ir.Store: lambda i: (_store, i.iid, i.addr, i.value),
    ir.Move: lambda i: (_move, i.dest, i.src),
    ir.BinOp: lambda i: (_ARITH[i.op], i.iid, i.lhs, i.rhs, i.iid),
    ir.Cmp: lambda i: (_cmp, i.iid, i.lhs, i.rhs, i.op, semantics.COMPARE[i.op]),
    ir.FieldAddr: lambda i: (_field_addr, i.iid, i.base, i.offset),
    ir.IndexAddr: lambda i: (_index_addr, i.iid, i.base, i.index, i.elem_count, i.elem_size),
    ir.SymBind: lambda i: (_sym_bind, i.iid, i.symbol_id, i.dest, i.width),
}


# -- control handlers


def _call(m, frame, record):
    _, name, args, result, block, resume = record
    # The callee is looked up in the running module: a unit's stub replaces
    # the program's external declaration of the same name.
    callee = m.functions.get(name)
    if callee is None:
        raise InterpError(f"call to undefined function {name!r}")
    temps = frame.temps
    frame.block, frame.index, frame.result = block, resume, result
    m.push_frame(callee, [temps[a] for a in args])
    return m.frames[-1]


def _ret(m, frame, record):
    value = record[1]
    pair = None if value is None else frame.temps[value]
    frames = m.frames
    frames.pop()
    if not frames:
        m.return_value = None if pair is None else pair[0]
        return None  # normal completion
    caller = frames[-1]
    if caller.result is not None:
        caller.temps[caller.result] = pair
    return caller


def _branch_operands(i: ir.CondBr) -> tuple:
    return (i.iid, i.then_blk, i.else_blk, i.then_point, i.else_point,
            _fixed(i.iid, "then"), _fixed(i.iid, "else"))


def _branch(m, frame, record, value, sym):
    """Take a CondBr's direction given its condition's pair, from the
    operands `_branch_operands` put first in the record."""
    _, iid, then_blk, else_blk, then_point, else_point, then_fixed, else_fixed = record[:8]
    if value:
        if sym is None:
            m.events.append(then_fixed)
        else:
            m.add_constraint(iid, "then", sym, True)
        if then_point is not None:
            m.covered.add(then_point)
        frame.block = then_blk
    else:
        if sym is None:
            m.events.append(else_fixed)
        else:
            m.add_constraint(iid, "else", sym, False)
        if else_point is not None:
            m.covered.add(else_point)
        frame.block = else_blk
    frame.index = 0
    return frame


def _cond_br(m, frame, record):
    value, sym = frame.temps[record[8]]
    return _branch(m, frame, record, value, sym)


def _cmp_br(m, frame, record):
    """A Cmp and the CondBr on its temp."""
    iid, lhs, rhs, op, compare = record[8:]
    temps = frame.temps
    value, sym = temps[iid] = _compared(temps, lhs, rhs, op, compare)
    return _branch(m, frame, record, value, sym)


def _check(m, frame, record):
    _, iid, operand, cont_blk, error_point, condition_of, bound, pass_fixed, fail_fixed = record
    value, sym = frame.temps[operand]
    if condition_of is _in_bounds:
        ok = 0 <= value < bound
    elif condition_of is None:  # a null check
        ok = not value.is_null
    else:  # an assertion or a divisor
        ok = value != 0
    condition = None if sym is None or condition_of is None else condition_of(sym, bound)
    if ok:
        if condition is None:
            m.events.append(pass_fixed)
        else:
            m.add_constraint(iid, "pass", condition, True)
        frame.block, frame.index = cont_blk, 0
        return frame
    if condition is None:
        m.events.append(fail_fixed)
    else:
        m.add_constraint(iid, "fail", condition, False)
    if error_point is not None:
        m.covered.add(error_point)
    m.outcome = OUTCOME_ERROR
    m.error_check_id = iid
    return None


# Each check kind's pass condition over the input, given its operand's
# expression; `_check` decides from the operand's value whether the check
# passes on this run. A null check has no condition: pointers stay concrete.


def _holds(sym, bound):
    return sym


def _in_bounds(sym, bound):
    return sx.mk_bin("and", sx.mk_cmp(">=", sym, sx.ConstI32(0)),
                     sx.mk_cmp("<", sym, sx.ConstI32(bound)))


def _nonzero(sym, bound):
    return sx.mk_cmp("!=", sym, sx.ConstI32(0))


_CONDITIONS = {
    ir.CheckKind.NULL_DEREF: None, ir.CheckKind.USER_ASSERT: _holds,
    ir.CheckKind.INDEX_OUT_OF_BOUNDS: _in_bounds,
    ir.CheckKind.DIV_BY_ZERO: _nonzero, ir.CheckKind.MOD_BY_ZERO: _nonzero,
}


def _fixed(iid: int, taken_dir: str) -> BranchConstraint:
    """The record of a branch or check taken on a value that does not depend
    on the input, shared by every run of the compiled code."""
    return BranchConstraint(iid, taken_dir, sx.TRUE, False)


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
        model=machine.model,
        error_check_id=machine.error_check_id,
        return_value=machine.return_value,
        steps=machine.steps,
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

