"""Basic-block IR: lowering from the typed AST, with runtime-error checks and
coverage points, in one pass.

The lowerer ends a block with a `Check` right before each instruction that can
fail at run time (division and modulo by zero, out-of-bounds index, null
dereference) and at each user assert; the guarded instruction starts the
check's pass block. A check that cannot fail is not emitted: none guards an
index that is an in-range literal, a division or modulo by a nonzero literal,
or an address rooted at a frame slot. `lower` returns the finished module,
which nothing changes afterwards. All instrumentation and concolic execution
operate on this IR, never on source text.

Every operand is a temp. Most temps are the id of an earlier instruction of
the same function, so a literal is a `Const` and a frame slot's address a
`SlotAddr`. Those two stay the same throughout an activation, so each distinct
one is computed once: its instruction stands at the start of the entry block,
which no branch targets. Both stay instructions, each one step, and the
interpreter binds their temps when it makes a frame, so it runs no code for
them. The other temps are local temps, with negative ids: a scalar local or
parameter whose address is never taken (the checker records each `&name`)
lives in one, in the spirit of LLVM's mem2reg without SSA. Reading it is using
its id as an operand, and assigning it is one `Move`. Records, arrays,
aggregate parameters and address-taken locals, which include every harness
symbol's destination, keep a frame slot and are reached through `SlotAddr`,
`Load` and `Store`.

Instruction ids, block numbers, and coverage-point ids are assigned
deterministically in one walk over the functions: the program's own functions
first, in source order, then the harness. So identical programs lower to
identical modules. The program is lowered once, and each unit's module shares
its functions and lowers only the unit's harness, with ids that continue
after the program's.
"""

from __future__ import annotations

import enum
import itertools
from collections import ChainMap
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .diagnostics import InternalError, SourceLoc
from .minic import ast
from .minic import types as ty
from .minic.linker import Program

# Runtime intrinsics understood by the interpreter.
INTRINSIC_SYM_I32 = "__sym_i32"
INTRINSIC_SYM_BOOL = "__sym_bool"
INTRINSIC_FRESH_I32 = "__sym_fresh_i32"


class CheckKind(enum.Enum):
    DIV_BY_ZERO = "DivByZero"
    MOD_BY_ZERO = "ModByZero"
    INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
    NULL_DEREF = "NullDeref"
    USER_ASSERT = "UserAssert"


@dataclass(frozen=True)
class CoveragePoint:
    point_id: int
    kind: str  # "stmt" | "branch"
    func_name: str
    loc: SourceLoc
    direction: str | None = None  # "then" | "else" for branch points
    is_error_edge: bool = False


# --- instructions: every operand field holds a temp's instruction id -------------


@dataclass
class Instr:
    iid: int
    loc: SourceLoc
    stmt_point: int | None = field(default=None, kw_only=True)


@dataclass
class Const(Instr):
    value: int | bool | None  # None is the null pointer


@dataclass
class SlotAddr(Instr):
    slot: int  # the address of this frame slot's object


@dataclass
class BinOp(Instr):
    op: str  # + - * / %
    lhs: int
    rhs: int


@dataclass
class Cmp(Instr):
    op: str  # == != < <= > >=
    lhs: int
    rhs: int


@dataclass
class Load(Instr):
    addr: int


@dataclass
class Store(Instr):
    addr: int
    value: int


@dataclass
class Move(Instr):
    dest: int  # a local temp
    src: int


@dataclass
class FieldAddr(Instr):
    base: int
    offset: int  # slot offset within the record, or cell of an aggregate copy


@dataclass
class IndexAddr(Instr):
    base: int
    index: int
    elem_count: int
    elem_size: int


@dataclass
class CallInstr(Instr):
    fn: str
    args: list[int]
    returns_value: bool


@dataclass
class SymBind(Instr):
    symbol_id: int
    dest: int
    width: int  # 32 or 1


# Terminators.


@dataclass
class Ret(Instr):
    value: int | None = None


@dataclass
class Br(Instr):
    target: int


@dataclass
class CondBr(Instr):
    cond: int
    then_blk: int
    else_blk: int
    then_point: int | None
    else_point: int | None


@dataclass
class Check(Instr):
    kind: CheckKind
    operand: int
    fail_blk: int
    cont_blk: int
    bound: int | None = None  # static element count for index checks
    error_point: int | None = None


TERMINATORS = (Ret, Br, CondBr, Check)


@dataclass
class Block:
    index: int
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]


@dataclass
class SlotInfo:
    name: str
    type: ty.TypeExpr
    size: int  # scalar slots allocated per activation


@dataclass
class IrFunction:
    name: str
    params: list[tuple[str, ty.TypeExpr]]
    return_type: ty.TypeExpr
    blocks: list[Block]  # execution starts at block 0
    slots: list[SlotInfo]
    # Scalar locals held in frame temps: local k is temp -1 - k.
    locals: list[tuple[str, ty.TypeExpr]]
    # Where each argument goes: a local temp (negative) or a slot index.
    param_homes: list[int]
    src_path: str
    loc: SourceLoc
    synthetic: bool = False
    # The interpreter's compiled form, built on the function's first call and
    # shared by every module that shares the function: its blocks' records,
    # and the temps a new frame starts with (see `interp`).
    code: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class IrModule:
    """A lowered program; nothing changes it after `lower` returns, except
    that the interpreter stores each function's compiled code on the function
    at its first call.

    A unit's module shares the program module's functions and points, so
    nothing may change those either.
    """

    functions: dict[str, IrFunction]
    points: list[CoveragePoint]  # indexed by point id
    # For a unit's module: the program's module, whose functions it shares.
    base: IrModule | None = field(default=None, repr=False)

    def instr_by_id(self, iid: int) -> Instr:
        return self._index[0][iid]

    def function_of_instr(self, iid: int) -> str:
        return self._index[1][iid]

    @cached_property
    def _index(self) -> tuple[dict[int, Instr], dict[int, str]]:
        # Built on first lookup; a lowered module never changes. Two flat maps
        # rather than one map of pairs: a pair per instruction is one more
        # object the garbage collector has to traverse for as long as the
        # module lives. A unit's module indexes only its own functions, and
        # looks the shared ones up in the program module's index.
        shared = self.base.functions if self.base is not None else {}
        instrs: dict[int, Instr] = {}
        fn_of: dict[int, str] = {}
        for fn in self.functions.values():
            if shared.get(fn.name) is fn:
                continue
            for b in fn.blocks:
                for i in b.instrs:
                    instrs[i.iid] = i
                    fn_of[i.iid] = fn.name
        if self.base is None:
            return instrs, fn_of
        base_instrs, base_fn_of = self.base._index
        return ChainMap(instrs, base_instrs), ChainMap(fn_of, base_fn_of)

    @cached_property
    def points_of(self) -> dict[str, list[CoveragePoint]]:
        """Each function's coverage points in id order, built on first use.
        A unit's module shares its base's points, so it reads its base's."""
        if self.base is not None:
            return self.base.points_of
        out: dict[str, list[CoveragePoint]] = {}
        for point in self.points:
            out.setdefault(point.func_name, []).append(point)
        return out

    @cached_property
    def coverage_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-function statement and branch totals, counted once per
        program; callers must not change them. Error edges of runtime checks
        are left out of the branch totals: they are reported as findings."""
        # A unit's module has the same non-synthetic functions as its base.
        if self.base is not None:
            return self.base.coverage_totals
        stmt_totals: dict[str, int] = {}
        branch_totals: dict[str, int] = {}
        for fn in self.functions.values():
            if fn.synthetic:
                continue
            counted = [p.kind for p in self.points_of.get(fn.name, ()) if not p.is_error_edge]
            stmt_totals[fn.name] = counted.count("stmt")
            branch_totals[fn.name] = len(counted) - stmt_totals[fn.name]
        return stmt_totals, branch_totals


# --- lowering ---------------------------------------------------------------------


class _FuncLowerer:
    def __init__(self, module: IrModule, program: Program, fn: ast.FuncDecl,
                 new_iid: Callable[[], int]):
        self.module = module
        self.program = program
        self.fn = fn
        self.new_iid = new_iid  # shared by every function of the module
        self.blocks: list[Block] = []
        self.slots: list[SlotInfo] = []
        self.slot_of: dict[str, int] = {}
        self.locals: list[tuple[str, ty.TypeExpr]] = []
        self.local_of: dict[str, int] = {}  # name -> local temp id
        self.entry: dict[tuple, Const | SlotAddr] = {}  # see entry_value
        self.aggregate_params = {name for name, t in fn.params if ty.is_aggregate(t)}
        self.cur: Block | None = None
        self.pending_stmt_point: int | None = None
        self.temp_counter = 0
        # Addresses that cannot be null: rooted at a frame slot or at an
        # aggregate parameter's caller-side copy.
        self.rooted: set[int] = set()

    # -- id/bookkeeping helpers

    def new_point(self, kind: str, loc: SourceLoc, direction: str | None = None,
                  is_error_edge: bool = False) -> int | None:
        if self.fn.synthetic:
            return None
        pid = len(self.module.points)
        self.module.points.append(
            CoveragePoint(pid, kind, self.fn.name, loc, direction, is_error_edge)
        )
        return pid

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def emit(self, instr: Instr) -> int:
        if self.pending_stmt_point is not None:
            instr.stmt_point = self.pending_stmt_point
            self.pending_stmt_point = None
        self.cur.instrs.append(instr)
        return instr.iid

    def entry_value(self, key: tuple, instr_type: type, loc: SourceLoc, **fields) -> int:
        """The temp of a value that stays the same throughout an activation, a
        literal or a slot's address: one instruction per distinct value, at the
        start of the entry block, so a loop does not recompute it."""
        instr = self.entry.get(key)
        if instr is None:
            instr = self.entry[key] = instr_type(self.new_iid(), loc, **fields)
        return instr.iid

    def const(self, value: int | bool | None, loc: SourceLoc) -> int:
        # Keyed by type too: True and 1 are different constants.
        return self.entry_value((type(value), value), Const, loc, value=value)

    def check(self, kind: CheckKind, loc: SourceLoc, operand: int,
              bound: int | None = None) -> None:
        """End the current block with a runtime check and continue in its pass
        block. A statement that starts with its check (`assert(b)`, `x = *p`
        with `b` and `p` in temps) puts its point on the check, so a failing
        check still covers it."""
        cont = self.new_block()
        fail = self.new_block()
        self.emit(
            Check(self.new_iid(), loc, kind=kind, operand=operand, fail_blk=fail.index,
                  cont_blk=cont.index, bound=bound,
                  error_point=self.new_point("branch", loc, "else", is_error_edge=True))
        )
        fail.instrs.append(Ret(self.new_iid(), loc, value=None))
        self.cur = cont

    def slot_addr(self, slot: int, loc: SourceLoc) -> int:
        addr = self.entry_value((SlotAddr, slot), SlotAddr, loc, slot=slot)
        self.rooted.add(addr)
        return addr

    def derived_addr(self, instr: FieldAddr | IndexAddr) -> int:
        addr = self.emit(instr)
        if instr.base in self.rooted:
            self.rooted.add(addr)
        return addr

    def load(self, addr: int, loc: SourceLoc) -> int:
        if addr not in self.rooted:
            self.check(CheckKind.NULL_DEREF, loc, addr)
        return self.emit(Load(self.new_iid(), loc, addr=addr))

    def store(self, addr: int, value: int, loc: SourceLoc) -> None:
        if addr not in self.rooted:
            self.check(CheckKind.NULL_DEREF, loc, addr)
        self.emit(Store(self.new_iid(), loc, addr=addr, value=value))

    def add_slot(self, name: str, t: ty.TypeExpr, size: int) -> int:
        index = len(self.slots)
        self.slots.append(SlotInfo(name, t, size))
        self.slot_of[name] = index
        return index

    def add_local(self, name: str, t: ty.TypeExpr) -> int:
        temp = -1 - len(self.locals)
        self.locals.append((name, t))
        self.local_of[name] = temp
        return temp

    def add_var(self, name: str, t: ty.TypeExpr) -> int:
        """A local temp for a scalar whose address is never taken, else a
        frame slot; its temp id or slot index."""
        if ty.is_scalar(t) and name not in self.fn.address_taken:
            return self.add_local(name, t)
        return self.add_slot(name, t, t.size_slots(self.program.records))

    def new_temp_name(self) -> str:
        self.temp_counter += 1
        return f"$t{self.temp_counter - 1}"

    def mark_stmt(self, loc: SourceLoc) -> None:
        self.pending_stmt_point = self.new_point("stmt", loc)

    # -- main entry

    def lower(self) -> IrFunction:
        homes = [
            # Aggregates are passed as the address of a caller-side copy.
            self.add_slot(pname, ptype, 1) if ty.is_aggregate(ptype) else self.add_var(pname, ptype)
            for pname, ptype in self.fn.params
        ]
        self._collect_locals(self.fn.body)
        self.cur = self.new_block()
        self.lower_block(self.fn.body)
        self.blocks[0].instrs[:0] = self.entry.values()  # no branch targets block 0
        if self.cur is not None and not self._terminated():
            # Void functions may fall off the end; the checker guarantees
            # non-void ones always return.
            self.emit(Ret(self.new_iid(), self.fn.loc, value=None))
        return IrFunction(
            name=self.fn.name,
            params=list(self.fn.params),
            return_type=self.fn.return_type,
            blocks=self.blocks,
            slots=self.slots,
            locals=self.locals,
            param_homes=homes,
            src_path=self.program.file_of.get(self.fn.name, "<generated>"),
            loc=self.fn.loc,
            synthetic=self.fn.synthetic,
        )

    def _terminated(self) -> bool:
        return bool(self.cur.instrs) and isinstance(self.cur.instrs[-1], TERMINATORS)

    def _collect_locals(self, stmt: ast.Stmt) -> None:
        # Every declared local gets one temp or one frame object per
        # activation, hoisted to function entry (addresses are stable across
        # loop iterations).
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._collect_locals(s)
        elif isinstance(stmt, ast.VarDecl):
            self.add_var(stmt.name, stmt.decl_type)
        elif isinstance(stmt, ast.If):
            self._collect_locals(stmt.then_body)
            if stmt.else_body is not None:
                self._collect_locals(stmt.else_body)
        elif isinstance(stmt, ast.While):
            self._collect_locals(stmt.body)

    # -- statements

    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            if self.cur is None:
                # Code after a return: lower into an unreachable block so the
                # structure is preserved.
                self.cur = self.new_block()
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self.mark_stmt(stmt.loc)
                self.assign_var(stmt.name, self.lower_expr(stmt.init), stmt.loc)
        elif isinstance(stmt, ast.Assign):
            self.mark_stmt(stmt.loc)
            value = self.lower_expr(stmt.value)
            if isinstance(stmt.target, ast.VarRef):
                self.assign_var(stmt.target.name, value, stmt.loc)
            else:
                self.store(self.lower_lvalue(stmt.target), value, stmt.loc)
        elif isinstance(stmt, ast.If):
            self.mark_stmt(stmt.loc)
            then_blk = self.new_block()
            else_blk = self.new_block() if stmt.else_body is not None else None
            end_blk = self.new_block()
            self.lower_cond(stmt.cond, then_blk.index, (else_blk or end_blk).index)
            self.cur = then_blk
            self.lower_stmt(stmt.then_body)
            if self.cur is not None and not self._terminated():
                self.emit(Br(self.new_iid(), stmt.loc, target=end_blk.index))
            if else_blk is not None:
                self.cur = else_blk
                self.lower_stmt(stmt.else_body)
                if self.cur is not None and not self._terminated():
                    self.emit(Br(self.new_iid(), stmt.loc, target=end_blk.index))
            self.cur = end_blk
        elif isinstance(stmt, ast.While):
            header = self.new_block()
            body = self.new_block()
            exit_blk = self.new_block()
            self.emit(Br(self.new_iid(), stmt.loc, target=header.index))
            self.cur = header
            self.mark_stmt(stmt.loc)
            self.lower_cond(stmt.cond, body.index, exit_blk.index)
            self.cur = body
            self.lower_stmt(stmt.body)
            if self.cur is not None and not self._terminated():
                self.emit(Br(self.new_iid(), stmt.loc, target=header.index))
            self.cur = exit_blk
        elif isinstance(stmt, ast.Return):
            self.mark_stmt(stmt.loc)
            if stmt.value is None:
                self.emit(Ret(self.new_iid(), stmt.loc, value=None))
            else:
                value = self.lower_expr(stmt.value)
                self.emit(Ret(self.new_iid(), stmt.loc, value=value))
            self.cur = None
        elif isinstance(stmt, ast.Assert):
            self.mark_stmt(stmt.loc)
            self.check(CheckKind.USER_ASSERT, stmt.loc, self.lower_expr(stmt.cond))
        elif isinstance(stmt, ast.ExprStmt):
            self.mark_stmt(stmt.loc)
            self.lower_expr(stmt.expr, want_value=False)
        else:
            raise InternalError(f"cannot lower statement {type(stmt).__name__} in {self.fn.name}")

    def assign_var(self, name: str, value: int, loc: SourceLoc) -> None:
        if name in self.local_of:
            self.emit(Move(self.new_iid(), loc, dest=self.local_of[name], src=value))
        else:
            self.store(self.slot_addr(self.slot_of[name], loc), value, loc)

    # -- conditions (branch context, short-circuit)

    def lower_cond(self, e: ast.Expr, then_blk: int, else_blk: int) -> None:
        if isinstance(e, ast.Binary) and e.op == "&&":
            mid = self.new_block()
            self.lower_cond(e.lhs, mid.index, else_blk)
            self.cur = mid
            self.lower_cond(e.rhs, then_blk, else_blk)
            return
        if isinstance(e, ast.Binary) and e.op == "||":
            mid = self.new_block()
            self.lower_cond(e.lhs, then_blk, mid.index)
            self.cur = mid
            self.lower_cond(e.rhs, then_blk, else_blk)
            return
        if isinstance(e, ast.Unary) and e.op == "!":
            self.lower_cond(e.operand, else_blk, then_blk)
            return
        cond = self.lower_expr(e)
        self.emit(
            CondBr(
                self.new_iid(),
                e.loc,
                cond=cond,
                then_blk=then_blk,
                else_blk=else_blk,
                then_point=self.new_point("branch", e.loc, "then"),
                else_point=self.new_point("branch", e.loc, "else"),
            )
        )

    # -- expressions

    def lower_expr(self, e: ast.Expr, want_value: bool = True) -> int:
        if isinstance(e, (ast.IntLit, ast.BoolLit)):
            return self.const(e.value, e.loc)
        if isinstance(e, ast.NullLit):
            return self.const(None, e.loc)
        if isinstance(e, ast.VarRef) and e.name in self.local_of:
            return self.local_of[e.name]
        if isinstance(e, (ast.VarRef, ast.FieldAccess, ast.IndexAccess)):
            addr = self.lower_lvalue(e)
            if ty.is_aggregate(e.type):
                return addr  # aggregate value contexts receive the address
            return self.load(addr, e.loc)
        if isinstance(e, ast.Unary):
            if e.op == "-":
                operand = self.lower_expr(e.operand)
                zero = self.const(0, e.loc)
                return self.emit(BinOp(self.new_iid(), e.loc, op="-", lhs=zero, rhs=operand))
            if e.op == "!":
                operand = self.lower_expr(e.operand)
                false = self.const(False, e.loc)
                return self.emit(Cmp(self.new_iid(), e.loc, op="==", lhs=operand, rhs=false))
            if e.op == "&":
                return self.lower_lvalue(e.operand)
            if e.op == "*":
                addr = self.lower_expr(e.operand)
                if ty.is_aggregate(e.type):
                    return addr
                return self.load(addr, e.loc)
        if isinstance(e, ast.Binary):
            if e.op in ("&&", "||"):
                return self.lower_bool_value(e)
            lhs = self.lower_expr(e.lhs)
            rhs = self.lower_expr(e.rhs)
            if e.op in ("/", "%") and not (isinstance(e.rhs, ast.IntLit) and e.rhs.value != 0):
                kind = CheckKind.DIV_BY_ZERO if e.op == "/" else CheckKind.MOD_BY_ZERO
                self.check(kind, e.loc, rhs)
            if e.op in ("+", "-", "*", "/", "%"):
                return self.emit(BinOp(self.new_iid(), e.loc, op=e.op, lhs=lhs, rhs=rhs))
            return self.emit(Cmp(self.new_iid(), e.loc, op=e.op, lhs=lhs, rhs=rhs))
        if isinstance(e, ast.Call):
            return self.lower_call(e, want_value)
        raise InternalError(f"cannot lower expression {type(e).__name__} in {self.fn.name}")

    def lower_bool_value(self, e: ast.Binary) -> int:
        # Value context for && / ||: short-circuit through a local temp.
        value = self.add_local(self.new_temp_name(), ty.BOOL)
        rhs_blk = self.new_block()
        short_blk = self.new_block()
        end_blk = self.new_block()
        if e.op == "&&":
            self.lower_cond(e.lhs, rhs_blk.index, short_blk.index)
        else:
            self.lower_cond(e.lhs, short_blk.index, rhs_blk.index)
        self.cur = rhs_blk
        self.emit(Move(self.new_iid(), e.loc, dest=value, src=self.lower_expr(e.rhs)))
        self.emit(Br(self.new_iid(), e.loc, target=end_blk.index))
        self.cur = short_blk
        short_value = self.const(e.op == "||", e.loc)
        self.emit(Move(self.new_iid(), e.loc, dest=value, src=short_value))
        self.emit(Br(self.new_iid(), e.loc, target=end_blk.index))
        self.cur = end_blk
        return value

    def lower_call(self, e: ast.Call, want_value: bool) -> int:
        callee = self.program.functions.get(e.name)
        arg_ops: list[int] = []
        if e.name == INTRINSIC_SYM_I32 or e.name == INTRINSIC_SYM_BOOL:
            sym_id = self.lower_expr(e.args[0])
            dest = self.lower_expr(e.args[1])
            width = 32 if e.name == INTRINSIC_SYM_I32 else 1
            return self.emit(
                SymBind(self.new_iid(), e.loc, symbol_id=sym_id, dest=dest, width=width)
            )
        for arg, (_, ptype) in zip(e.args, callee.params if callee else []):
            if ty.is_aggregate(ptype):
                src_addr = self.lower_lvalue(arg)
                size = ptype.size_slots(self.program.records)
                base = self.slot_addr(self.add_slot(self.new_temp_name(), ptype, size), e.loc)
                for off in range(size):
                    cell = self.derived_addr(FieldAddr(self.new_iid(), e.loc, base=src_addr,
                                                       offset=off))
                    val = self.load(cell, e.loc)
                    dst = self.derived_addr(FieldAddr(self.new_iid(), e.loc, base=base,
                                                      offset=off))
                    self.store(dst, val, e.loc)
                arg_ops.append(base)
            else:
                arg_ops.append(self.lower_expr(arg))
        returns_value = bool(
            e.name == INTRINSIC_FRESH_I32
            or (callee is not None and not isinstance(callee.return_type, ty.Void))
        )
        return self.emit(
            CallInstr(self.new_iid(), e.loc, fn=e.name, args=arg_ops, returns_value=returns_value)
        )

    # -- lvalues: compute an address

    def lower_lvalue(self, e: ast.Expr) -> int:
        if isinstance(e, ast.VarRef):
            base = self.slot_addr(self.slot_of[e.name], e.loc)
            if e.name in self.aggregate_params:
                # Aggregate params hold the address of the caller copy, which
                # is always a real object.
                addr = self.load(base, e.loc)
                self.rooted.add(addr)
                return addr
            return base
        if isinstance(e, ast.FieldAccess):
            if e.through_pointer:
                base = self.lower_expr(e.base)  # pointer value
                rec_t = e.base.type.elem
            else:
                base = self.lower_lvalue(e.base)
                rec_t = e.base.type
            # A field's slots follow those of the fields before it.
            records = self.program.records
            rec = records[rec_t.name]
            offset = sum(ftype.size_slots(records)
                         for _, ftype in rec.fields[:rec.field_index(e.field_name)])
            return self.derived_addr(FieldAddr(self.new_iid(), e.loc, base=base, offset=offset))
        if isinstance(e, ast.IndexAccess):
            base = self.lower_lvalue(e.base)
            index = self.lower_expr(e.index)
            arr_t = e.base.type
            if not (isinstance(e.index, ast.IntLit) and 0 <= e.index.value < arr_t.length):
                self.check(CheckKind.INDEX_OUT_OF_BOUNDS, e.loc, index, bound=arr_t.length)
            return self.derived_addr(
                IndexAddr(self.new_iid(), e.loc, base=base, index=index,
                          elem_count=arr_t.length,
                          elem_size=arr_t.elem.size_slots(self.program.records))
            )
        if isinstance(e, ast.Unary) and e.op == "*":
            return self.lower_expr(e.operand)
        if isinstance(e, ast.Unary) and e.op == "&":
            # &x used as an aggregate-argument lvalue path is impossible; '&'
            # produces a scalar address value.
            raise InternalError("'&' expression is not an lvalue")
        raise InternalError(f"not an lvalue: {type(e).__name__}")


def lower(program: Program) -> IrModule:
    """Lower a linked program to IR with coverage points and runtime checks.

    A unit linked on top of a program (`program.base`) shares the program's
    IR: the program is lowered once, for its first unit, and kept on it. The
    unit's module holds the program's `IrFunction` objects and points, and
    only the unit's own functions, which must be synthetic (they make no
    coverage points), are lowered, with instruction ids that continue after
    the program's. Nothing may mutate the shared IR.
    """
    if program.base is None:
        return _lower_program(program)[0]
    if program.base.lowered is None:
        program.base.lowered = _lower_program(program.base)
    base, next_iid = program.base.lowered
    own = [
        fn for name, fn in program.functions.items()
        if not fn.external and name not in base.functions
    ]
    if not all(fn.synthetic for fn in own):
        raise InternalError("only synthetic functions can be lowered on top of a program")
    module = IrModule(functions=dict(base.functions), points=base.points, base=base)
    _lower_functions(module, program, sorted(own, key=lambda f: f.name),
                     itertools.count(next_iid).__next__)
    return module


def _lower_program(program: Program) -> tuple[IrModule, int]:
    """All of a program's functions in a new module, and the next free
    instruction id."""
    module = IrModule(functions={}, points=[])
    originals = [
        fn for fn in program.functions.values() if not fn.external and not fn.synthetic
    ]
    originals.sort(key=lambda f: program.order.get(f.name, ("", 0, 0)))
    synthetic = [
        fn for fn in program.functions.values() if not fn.external and fn.synthetic
    ]
    synthetic.sort(key=lambda f: f.name)
    new_iid = itertools.count().__next__
    _lower_functions(module, program, originals + synthetic, new_iid)
    return module, new_iid()


def _lower_functions(module: IrModule, program: Program, fns: list[ast.FuncDecl],
                     new_iid: Callable[[], int]) -> None:
    lowered = [_FuncLowerer(module, program, fn, new_iid).lower() for fn in fns]
    _validate(lowered)
    for fn in lowered:
        module.functions[fn.name] = fn


def inject_checks(module: IrModule) -> IrModule:
    """Return `module` as it is: `lower` already emits every check. Kept for
    the benchmark in perfbench/, which still calls it."""
    return module


def _validate(functions: list[IrFunction]) -> None:
    for fn in functions:
        for block in fn.blocks:
            if not block.instrs or not isinstance(block.instrs[-1], TERMINATORS):
                raise InternalError(f"block {block.index} of {fn.name} lacks a terminator")
            for instr in block.instrs[:-1]:
                if isinstance(instr, TERMINATORS):
                    raise InternalError(
                        f"terminator mid-block in {fn.name} block {block.index}"
                    )


# --- textual dump ------------------------------------------------------------------------


def _const_text(value: int | bool | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _instr_text(instr: Instr) -> str:
    if isinstance(instr, Const):
        body = f"%{instr.iid} = const {_const_text(instr.value)}"
    elif isinstance(instr, SlotAddr):
        body = f"%{instr.iid} = const slot{instr.slot}"
    elif isinstance(instr, BinOp):
        body = f"%{instr.iid} = binop {instr.op} %{instr.lhs} %{instr.rhs}"
    elif isinstance(instr, Cmp):
        body = f"%{instr.iid} = cmp {instr.op} %{instr.lhs} %{instr.rhs}"
    elif isinstance(instr, Load):
        body = f"%{instr.iid} = load %{instr.addr}"
    elif isinstance(instr, Store):
        body = f"store %{instr.addr} %{instr.value}"
    elif isinstance(instr, Move):
        body = f"%{instr.dest} = move %{instr.src}"
    elif isinstance(instr, FieldAddr):
        body = f"%{instr.iid} = fieldaddr %{instr.base} +{instr.offset}"
    elif isinstance(instr, IndexAddr):
        body = (
            f"%{instr.iid} = indexaddr %{instr.base} [%{instr.index}] "
            f"n={instr.elem_count} w={instr.elem_size}"
        )
    elif isinstance(instr, CallInstr):
        args = ", ".join(f"%{a}" for a in instr.args)
        prefix = f"%{instr.iid} = " if instr.returns_value else ""
        body = f"{prefix}call {instr.fn}({args})"
    elif isinstance(instr, SymBind):
        body = f"symbind id=%{instr.symbol_id} dest=%{instr.dest} w{instr.width}"
    elif isinstance(instr, Ret):
        body = "ret" if instr.value is None else f"ret %{instr.value}"
    elif isinstance(instr, Br):
        body = f"br block{instr.target}"
    elif isinstance(instr, CondBr):
        body = (
            f"condbr %{instr.cond} block{instr.then_blk} block{instr.else_blk} "
            f"pts({instr.then_point},{instr.else_point})"
        )
    elif isinstance(instr, Check):
        bound = f" bound={instr.bound}" if instr.bound is not None else ""
        body = (
            f"check {instr.kind.value}(%{instr.operand}){bound} "
            f"fail=block{instr.fail_blk} cont=block{instr.cont_blk}"
        )
    else:
        raise InternalError(f"unknown instruction {type(instr).__name__}")
    if instr.stmt_point is not None:
        body += f"  ; stmt_point={instr.stmt_point}"
    return body


def dump_ir(module: IrModule) -> str:
    """Stable textual IR, one instruction per line, blockN: labels."""
    lines: list[str] = []
    for name, fn in module.functions.items():
        params = ", ".join(f"{n}: {t}" for n, t in fn.params)
        lines.append(f"func {name}({params}) -> {fn.return_type}")
        for slot in fn.slots:
            lines.append(f"  slot {slot.name}: {slot.type} x{slot.size}")
        for k, (name, t) in enumerate(fn.locals):
            lines.append(f"  local %{-1 - k} {name}: {t}")
        for block in fn.blocks:
            lines.append(f"block{block.index}:")
            for instr in block.instrs:
                lines.append(f"  {_instr_text(instr)}")
        lines.append("")
    return "\n".join(lines)
