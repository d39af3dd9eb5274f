"""Basic-block IR: lowering from the typed AST, runtime-error check injection,
and coverage-point enumeration.

All instrumentation and concolic execution operate on this IR, never on source
text. Instruction ids, block numbers, and coverage-point ids are assigned
deterministically so that identical programs lower to identical modules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import InternalError, SourceLoc
from .minic import ast
from .minic import types as ty
from .minic.linker import Program

# Runtime intrinsics understood by the interpreter.
INTRINSIC_SYM_I32 = "__sym_i32"
INTRINSIC_SYM_BOOL = "__sym_bool"
INTRINSIC_FRESH_I32 = "__sym_fresh_i32"
INTRINSIC_ASSERT = "__assert"


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


# --- operands ----------------------------------------------------------------


@dataclass(frozen=True)
class Operand:
    """Either a prior instruction result ("tmp") or an immediate constant.

    kinds: tmp (value=iid), int, bool, null, slot (value=frame slot index).
    """

    kind: str
    value: int | bool = 0

    def __str__(self) -> str:
        if self.kind == "tmp":
            return f"%{self.value}"
        if self.kind == "null":
            return "null"
        if self.kind == "slot":
            return f"slot{self.value}"
        if self.kind == "bool":
            return "true" if self.value else "false"
        return str(self.value)


def tmp(iid: int) -> Operand:
    return Operand("tmp", iid)


def imm_int(v: int) -> Operand:
    return Operand("int", v)


def imm_bool(v: bool) -> Operand:
    return Operand("bool", v)


IMM_NULL = Operand("null")


def imm_slot(k: int) -> Operand:
    return Operand("slot", k)


# --- instructions --------------------------------------------------------------


@dataclass
class Instr:
    iid: int
    loc: SourceLoc
    stmt_point: int | None = field(default=None, kw_only=True)


@dataclass
class Const(Instr):
    value: Operand = IMM_NULL  # int/bool/null/slot immediate


@dataclass
class BinOp(Instr):
    op: str = "+"  # + - * / %
    lhs: Operand = IMM_NULL
    rhs: Operand = IMM_NULL


@dataclass
class Cmp(Instr):
    op: str = "=="  # == != < <= > >=
    lhs: Operand = IMM_NULL
    rhs: Operand = IMM_NULL


@dataclass
class Load(Instr):
    addr: Operand = IMM_NULL


@dataclass
class Store(Instr):
    addr: Operand = IMM_NULL
    value: Operand = IMM_NULL


@dataclass
class FieldAddr(Instr):
    base: Operand = IMM_NULL
    field_index: int = 0
    offset: int = 0  # slot offset derived from the record layout


@dataclass
class IndexAddr(Instr):
    base: Operand = IMM_NULL
    index: Operand = IMM_NULL
    elem_count: int = 0
    elem_size: int = 1


@dataclass
class CallInstr(Instr):
    fn: str = ""
    args: list[Operand] = field(default_factory=list)
    returns_value: bool = False


@dataclass
class SymBind(Instr):
    symbol_id: Operand = IMM_NULL
    dest: Operand = IMM_NULL
    width: int = 32


# Terminators.


@dataclass
class Ret(Instr):
    value: Operand | None = None


@dataclass
class Br(Instr):
    target: int = 0


@dataclass
class CondBr(Instr):
    cond: Operand = IMM_NULL
    then_blk: int = 0
    else_blk: int = 0
    then_point: int | None = None
    else_point: int | None = None


@dataclass
class Check(Instr):
    kind: CheckKind = CheckKind.USER_ASSERT
    operands: list[Operand] = field(default_factory=list)
    fail_blk: int = 0
    cont_blk: int = 0
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
    blocks: list[Block]
    entry: int
    slots: list[SlotInfo]
    slot_of: dict[str, int]
    src_path: str
    loc: SourceLoc
    synthetic: bool = False
    external: bool = False
    domain: tuple[int, int] | None = None

    def successors(self, block_index: int) -> list[int]:
        term = self.blocks[block_index].terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            return [term.then_blk, term.else_blk]
        if isinstance(term, Check):
            return [term.fail_blk, term.cont_blk]
        return []


@dataclass
class RecordLayout:
    name: str
    size: int
    offsets: list[tuple[str, int, int]]  # (field name, slot offset, slot size)

    def offset_of(self, index: int) -> int:
        return self.offsets[index][1]


@dataclass
class IrModule:
    functions: dict[str, IrFunction]
    layouts: dict[str, RecordLayout]
    points: list[CoveragePoint]
    records: dict[str, ty.RecordDef]
    checks_injected: bool = False
    _instr_count: int = 0
    _point_count: int = 0
    _index: tuple[dict[int, Instr], dict[int, str]] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def cfg(self) -> dict[str, dict[int, list[int]]]:
        return {
            name: {b.index: fn.successors(b.index) for b in fn.blocks}
            for name, fn in self.functions.items()
        }

    def point_by_id(self, point_id: int) -> CoveragePoint:
        return self.points[point_id]

    def instr_by_id(self, iid: int) -> Instr:
        return self._lookup()[0][iid]

    def function_of_instr(self, iid: int) -> str:
        return self._lookup()[1][iid]

    def _lookup(self) -> tuple[dict[int, Instr], dict[int, str]]:
        # Built on first lookup; inject_checks resets it because it adds ids.
        # Two flat maps rather than one map of pairs: a unit module holds the
        # whole program, and a pair per instruction is one more object the
        # garbage collector has to traverse for as long as the module lives.
        if self._index is None:
            instrs: dict[int, Instr] = {}
            fn_of: dict[int, str] = {}
            for fn in self.functions.values():
                for b in fn.blocks:
                    for i in b.instrs:
                        instrs[i.iid] = i
                        fn_of[i.iid] = fn.name
            self._index = (instrs, fn_of)
        return self._index


def slot_size(t: ty.TypeExpr, records: dict[str, ty.RecordDef]) -> int:
    return t.size_slots(records)


def build_layouts(records: dict[str, ty.RecordDef]) -> dict[str, RecordLayout]:
    layouts: dict[str, RecordLayout] = {}
    for name, rec in records.items():
        offsets = []
        off = 0
        for fname, ftype in rec.fields:
            size = ftype.size_slots(records)
            offsets.append((fname, off, size))
            off += size
        layouts[name] = RecordLayout(name, off, offsets)
    return layouts


# --- lowering ---------------------------------------------------------------------


class _FuncLowerer:
    def __init__(self, module: IrModule, program: Program, fn: ast.FuncDecl):
        self.module = module
        self.program = program
        self.fn = fn
        self.blocks: list[Block] = []
        self.slots: list[SlotInfo] = []
        self.slot_of: dict[str, int] = {}
        self.cur: Block | None = None
        self.pending_stmt_point: int | None = None
        self.temp_counter = 0

    # -- id/bookkeeping helpers

    def new_iid(self) -> int:
        iid = self.module._instr_count
        self.module._instr_count += 1
        return iid

    def new_point(self, kind: str, loc: SourceLoc, direction: str | None = None,
                  is_error_edge: bool = False) -> int | None:
        if self.fn.synthetic:
            return None
        pid = self.module._point_count
        self.module._point_count += 1
        self.module.points.append(
            CoveragePoint(pid, kind, self.fn.name, loc, direction, is_error_edge)
        )
        return pid

    def new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def emit(self, instr: Instr) -> Operand:
        if self.pending_stmt_point is not None:
            instr.stmt_point = self.pending_stmt_point
            self.pending_stmt_point = None
        self.cur.instrs.append(instr)
        return tmp(instr.iid)

    def add_slot(self, name: str, t: ty.TypeExpr, size: int) -> int:
        index = len(self.slots)
        self.slots.append(SlotInfo(name, t, size))
        self.slot_of[name] = index
        return index

    def new_temp_slot(self, t: ty.TypeExpr, size: int) -> int:
        name = f"$t{self.temp_counter}"
        self.temp_counter += 1
        return self.add_slot(name, t, size)

    def mark_stmt(self, loc: SourceLoc) -> None:
        self.pending_stmt_point = self.new_point("stmt", loc)

    # -- main entry

    def lower(self) -> IrFunction:
        records = self.program.records
        for pname, ptype in self.fn.params:
            if ty.is_aggregate(ptype):
                # Aggregates are passed as the address of a caller-side copy.
                self.add_slot(pname, ptype, 1)
            else:
                self.add_slot(pname, ptype, slot_size(ptype, records))
        self._collect_locals(self.fn.body)
        self.cur = self.new_block()
        self.lower_block(self.fn.body)
        if self.cur is not None and not self._terminated():
            # Void functions may fall off the end; the checker guarantees
            # non-void ones always return.
            self.emit(Ret(self.new_iid(), self.fn.loc, value=None))
        return IrFunction(
            name=self.fn.name,
            params=list(self.fn.params),
            return_type=self.fn.return_type,
            blocks=self.blocks,
            entry=0,
            slots=self.slots,
            slot_of=self.slot_of,
            src_path=self.program.file_of.get(self.fn.name, "<generated>"),
            loc=self.fn.loc,
            synthetic=self.fn.synthetic,
            domain=self.fn.domain,
        )

    def _terminated(self) -> bool:
        return bool(self.cur.instrs) and isinstance(self.cur.instrs[-1], TERMINATORS)

    def _collect_locals(self, stmt: ast.Stmt) -> None:
        # Every declared local gets one frame object per activation, hoisted
        # to function entry (addresses are stable across loop iterations).
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._collect_locals(s)
        elif isinstance(stmt, ast.VarDecl):
            self.add_slot(stmt.name, stmt.decl_type, slot_size(stmt.decl_type, self.program.records))
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
                value = self.lower_expr(stmt.init)
                addr = self.emit(Const(self.new_iid(), stmt.loc, value=imm_slot(self.slot_of[stmt.name])))
                self.emit(Store(self.new_iid(), stmt.loc, addr=addr, value=value))
        elif isinstance(stmt, ast.Assign):
            self.mark_stmt(stmt.loc)
            value = self.lower_expr(stmt.value)
            addr = self.lower_lvalue(stmt.target)
            self.emit(Store(self.new_iid(), stmt.loc, addr=addr, value=value))
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
            cond = self.lower_expr(stmt.cond)
            # Placeholder call; inject_checks turns it into a Check terminator.
            self.emit(
                CallInstr(self.new_iid(), stmt.loc, fn=INTRINSIC_ASSERT, args=[cond])
            )
        elif isinstance(stmt, ast.ExprStmt):
            self.mark_stmt(stmt.loc)
            self.lower_expr(stmt.expr, want_value=False)
        else:
            raise InternalError(f"cannot lower statement {type(stmt).__name__} in {self.fn.name}")

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

    def lower_expr(self, e: ast.Expr, want_value: bool = True) -> Operand:
        if isinstance(e, ast.IntLit):
            return self.emit(Const(self.new_iid(), e.loc, value=imm_int(e.value)))
        if isinstance(e, ast.BoolLit):
            return self.emit(Const(self.new_iid(), e.loc, value=imm_bool(e.value)))
        if isinstance(e, ast.NullLit):
            return self.emit(Const(self.new_iid(), e.loc, value=IMM_NULL))
        if isinstance(e, (ast.VarRef, ast.FieldAccess, ast.IndexAccess)):
            addr = self.lower_lvalue(e)
            if ty.is_aggregate(e.type):
                return addr  # aggregate value contexts receive the address
            return self.emit(Load(self.new_iid(), e.loc, addr=addr))
        if isinstance(e, ast.Unary):
            if e.op == "-":
                operand = self.lower_expr(e.operand)
                return self.emit(
                    BinOp(self.new_iid(), e.loc, op="-", lhs=imm_int(0), rhs=operand)
                )
            if e.op == "!":
                operand = self.lower_expr(e.operand)
                return self.emit(
                    Cmp(self.new_iid(), e.loc, op="==", lhs=operand, rhs=imm_bool(False))
                )
            if e.op == "&":
                return self.lower_lvalue(e.operand)
            if e.op == "*":
                addr = self.lower_expr(e.operand)
                if ty.is_aggregate(e.type):
                    return addr
                return self.emit(Load(self.new_iid(), e.loc, addr=addr))
        if isinstance(e, ast.Binary):
            if e.op in ("&&", "||"):
                return self.lower_bool_value(e)
            lhs = self.lower_expr(e.lhs)
            rhs = self.lower_expr(e.rhs)
            if e.op in ("+", "-", "*", "/", "%"):
                return self.emit(BinOp(self.new_iid(), e.loc, op=e.op, lhs=lhs, rhs=rhs))
            return self.emit(Cmp(self.new_iid(), e.loc, op=e.op, lhs=lhs, rhs=rhs))
        if isinstance(e, ast.Call):
            return self.lower_call(e, want_value)
        raise InternalError(f"cannot lower expression {type(e).__name__} in {self.fn.name}")

    def lower_bool_value(self, e: ast.Binary) -> Operand:
        # Value context for && / ||: short-circuit through a temp slot.
        slot = self.new_temp_slot(ty.BOOL, 1)
        rhs_blk = self.new_block()
        short_blk = self.new_block()
        end_blk = self.new_block()
        if e.op == "&&":
            self.lower_cond(e.lhs, rhs_blk.index, short_blk.index)
            short_value = imm_bool(False)
        else:
            self.lower_cond(e.lhs, short_blk.index, rhs_blk.index)
            short_value = imm_bool(True)
        self.cur = rhs_blk
        rhs = self.lower_expr(e.rhs)
        addr = self.emit(Const(self.new_iid(), e.loc, value=imm_slot(slot)))
        self.emit(Store(self.new_iid(), e.loc, addr=addr, value=rhs))
        self.emit(Br(self.new_iid(), e.loc, target=end_blk.index))
        self.cur = short_blk
        addr = self.emit(Const(self.new_iid(), e.loc, value=imm_slot(slot)))
        self.emit(Store(self.new_iid(), e.loc, addr=addr, value=short_value))
        self.emit(Br(self.new_iid(), e.loc, target=end_blk.index))
        self.cur = end_blk
        addr = self.emit(Const(self.new_iid(), e.loc, value=imm_slot(slot)))
        return self.emit(Load(self.new_iid(), e.loc, addr=addr))

    def lower_call(self, e: ast.Call, want_value: bool) -> Operand:
        callee = self.program.functions.get(e.name)
        arg_ops: list[Operand] = []
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
                size = slot_size(ptype, self.program.records)
                temp = self.new_temp_slot(ptype, size)
                base = self.emit(Const(self.new_iid(), e.loc, value=imm_slot(temp)))
                for off in range(size):
                    cell = self.emit(
                        IndexAddr(self.new_iid(), e.loc, base=src_addr, index=imm_int(off),
                                  elem_count=size, elem_size=1)
                    )
                    val = self.emit(Load(self.new_iid(), e.loc, addr=cell))
                    dst = self.emit(
                        IndexAddr(self.new_iid(), e.loc, base=base, index=imm_int(off),
                                  elem_count=size, elem_size=1)
                    )
                    self.emit(Store(self.new_iid(), e.loc, addr=dst, value=val))
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

    # -- lvalues: compute an address operand

    def lower_lvalue(self, e: ast.Expr) -> Operand:
        if isinstance(e, ast.VarRef):
            slot = self.slot_of[e.name]
            base = self.emit(Const(self.new_iid(), e.loc, value=imm_slot(slot)))
            param_types = dict(self.fn.params)
            if e.name in param_types and ty.is_aggregate(param_types[e.name]):
                # Aggregate params hold the address of the caller copy.
                return self.emit(Load(self.new_iid(), e.loc, addr=base))
            return base
        if isinstance(e, ast.FieldAccess):
            if e.through_pointer:
                base = self.lower_expr(e.base)  # pointer value
                rec_t = e.base.type.elem
            else:
                base = self.lower_lvalue(e.base)
                rec_t = e.base.type
            layout = self.module.layouts[rec_t.name]
            rec = self.program.records[rec_t.name]
            index = rec.field_index(e.field_name)
            return self.emit(
                FieldAddr(self.new_iid(), e.loc, base=base, field_index=index,
                          offset=layout.offset_of(index))
            )
        if isinstance(e, ast.IndexAccess):
            base = self.lower_lvalue(e.base)
            index = self.lower_expr(e.index)
            arr_t = e.base.type
            elem_size = slot_size(arr_t.elem, self.program.records)
            return self.emit(
                IndexAddr(self.new_iid(), e.loc, base=base, index=index,
                          elem_count=arr_t.length, elem_size=elem_size)
            )
        if isinstance(e, ast.Unary) and e.op == "*":
            return self.lower_expr(e.operand)
        if isinstance(e, ast.Unary) and e.op == "&":
            # &x used as an aggregate-argument lvalue path is impossible; '&'
            # produces a scalar address value.
            raise InternalError("'&' expression is not an lvalue")
        raise InternalError(f"not an lvalue: {type(e).__name__}")


def lower(program: Program) -> IrModule:
    """Lower a linked program to IR with coverage points (checks not injected)."""
    module = IrModule(functions={}, layouts={}, points=[], records=dict(program.records))
    module.layouts = build_layouts(program.records)
    originals = [
        fn for fn in program.functions.values() if not fn.external and not fn.synthetic
    ]
    originals.sort(key=lambda f: program.order.get(f.name, ("", 0, 0)))
    synthetic = [
        fn for fn in program.functions.values() if not fn.external and fn.synthetic
    ]
    synthetic.sort(key=lambda f: f.name)
    for fn in originals + synthetic:
        module.functions[fn.name] = _FuncLowerer(module, program, fn).lower()
    _validate(module)
    return module


def _validate(module: IrModule) -> None:
    for fn in module.functions.values():
        for block in fn.blocks:
            if not block.instrs or not isinstance(block.instrs[-1], TERMINATORS):
                raise InternalError(f"block {block.index} of {fn.name} lacks a terminator")
            for instr in block.instrs[:-1]:
                if isinstance(instr, TERMINATORS):
                    raise InternalError(
                        f"terminator mid-block in {fn.name} block {block.index}"
                    )


# --- check injection -----------------------------------------------------------------


def inject_checks(module: IrModule) -> IrModule:
    """Insert runtime-error checks as explicit two-way branches. Idempotent."""
    if module.checks_injected:
        return module
    for fn in module.functions.values():
        _inject_into_function(module, fn)
    module.checks_injected = True
    module._index = None
    return module


def _needs_null_check(
    instr_defs: dict[int, Instr], agg_param_slots: set[int], addr: Operand
) -> bool:
    # Walk the address chain; a base rooted at a frame slot constant is a
    # provably fresh local allocation and cannot be null.
    seen = set()
    while True:
        if addr.kind == "slot":
            return False
        if addr.kind == "null":
            return True
        if addr.kind != "tmp" or addr.value in seen:
            return True
        seen.add(addr.value)
        instr = instr_defs.get(addr.value)
        if isinstance(instr, Const):
            return instr.value.kind != "slot"
        if isinstance(instr, (FieldAddr, IndexAddr)):
            addr = instr.base
            continue
        if isinstance(instr, Load):
            # Aggregate-parameter slots hold the address of a caller copy,
            # which is always a real object.
            src = instr.addr
            if src.kind == "tmp":
                src_def = instr_defs.get(src.value)
                if (
                    isinstance(src_def, Const)
                    and src_def.value.kind == "slot"
                    and src_def.value.value in agg_param_slots
                ):
                    return False
            return True
        # Calls and other symbolic sources: could be null.
        return True


def _inject_into_function(module: IrModule, fn: IrFunction) -> None:
    instr_defs: dict[int, Instr] = {i.iid: i for b in fn.blocks for i in b.instrs}
    agg_param_slots = {
        fn.slot_of[name]
        for name, t in fn.params
        if ty.is_aggregate(t) and name in fn.slot_of
    }
    guarded: set[int] = set()

    def new_iid() -> int:
        iid = module._instr_count
        module._instr_count += 1
        return iid

    def new_error_point(kind_loc: SourceLoc) -> int | None:
        if fn.synthetic:
            return None
        pid = module._point_count
        module._point_count += 1
        module.points.append(
            CoveragePoint(pid, "branch", fn.name, kind_loc, "else", is_error_edge=True)
        )
        return pid

    def check_for(instr: Instr) -> Check | None:
        if isinstance(instr, BinOp) and instr.op in ("/", "%"):
            kind = CheckKind.DIV_BY_ZERO if instr.op == "/" else CheckKind.MOD_BY_ZERO
            return Check(new_iid(), instr.loc, kind=kind, operands=[instr.rhs])
        if isinstance(instr, IndexAddr):
            static = None
            if instr.index.kind == "int":
                static = int(instr.index.value)
            elif instr.index.kind == "tmp":
                index_def = instr_defs.get(instr.index.value)
                if isinstance(index_def, Const) and index_def.value.kind == "int":
                    static = int(index_def.value.value)
            if static is not None and 0 <= static < instr.elem_count:
                return None  # statically in-range (literal indexes, aggregate copies)
            return Check(
                new_iid(), instr.loc, kind=CheckKind.INDEX_OUT_OF_BOUNDS,
                operands=[instr.index], bound=instr.elem_count,
            )
        if isinstance(instr, (Load, Store)) and _needs_null_check(
            instr_defs, agg_param_slots, instr.addr
        ):
            return Check(new_iid(), instr.loc, kind=CheckKind.NULL_DEREF, operands=[instr.addr])
        if isinstance(instr, CallInstr) and instr.fn == INTRINSIC_ASSERT:
            return Check(new_iid(), instr.loc, kind=CheckKind.USER_ASSERT, operands=[instr.args[0]])
        return None

    queue = list(fn.blocks)
    for block in queue:
        i = 0
        while i < len(block.instrs):
            instr = block.instrs[i]
            check = None if instr.iid in guarded else check_for(instr)
            if check is None:
                i += 1
                continue
            # Split the block: the check becomes its terminator and the guarded
            # instruction continues in a fresh block. Assert placeholder calls
            # are consumed by their check.
            is_assert = isinstance(instr, CallInstr) and instr.fn == INTRINSIC_ASSERT
            if not is_assert:
                guarded.add(instr.iid)
            rest = block.instrs[i + 1:] if is_assert else block.instrs[i:]
            if is_assert and instr.stmt_point is not None:
                check.stmt_point = instr.stmt_point
            if not rest:
                raise InternalError("check split produced an empty continuation")
            cont = Block(len(fn.blocks), rest)
            fn.blocks.append(cont)
            fail = Block(len(fn.blocks))
            fn.blocks.append(fail)
            fail.instrs.append(Ret(new_iid(), instr.loc, value=None))
            check.fail_blk = fail.index
            check.cont_blk = cont.index
            check.error_point = new_error_point(instr.loc)
            block.instrs = block.instrs[:i] + [check]
            queue.append(cont)
            break


# --- coverage-point enumeration ----------------------------------------------------------


def enumerate_coverage_points(module: IrModule) -> tuple[dict[str, int], dict[str, int]]:
    """Per-function statement and branch totals.

    Error edges injected by checks are excluded from branch denominators;
    they are reported separately as findings.
    """
    stmt_totals: dict[str, int] = {}
    branch_totals: dict[str, int] = {}
    for fn in module.functions.values():
        if fn.synthetic:
            continue
        stmt_totals[fn.name] = 0
        branch_totals[fn.name] = 0
    for point in module.points:
        if point.is_error_edge or point.func_name not in stmt_totals:
            continue
        if point.kind == "stmt":
            stmt_totals[point.func_name] += 1
        else:
            branch_totals[point.func_name] += 1
    return stmt_totals, branch_totals


# --- textual dump ------------------------------------------------------------------------


def _instr_text(instr: Instr) -> str:
    if isinstance(instr, Const):
        body = f"%{instr.iid} = const {instr.value}"
    elif isinstance(instr, BinOp):
        body = f"%{instr.iid} = binop {instr.op} {instr.lhs} {instr.rhs}"
    elif isinstance(instr, Cmp):
        body = f"%{instr.iid} = cmp {instr.op} {instr.lhs} {instr.rhs}"
    elif isinstance(instr, Load):
        body = f"%{instr.iid} = load {instr.addr}"
    elif isinstance(instr, Store):
        body = f"store {instr.addr} {instr.value}"
    elif isinstance(instr, FieldAddr):
        body = f"%{instr.iid} = fieldaddr {instr.base} +{instr.offset}"
    elif isinstance(instr, IndexAddr):
        body = (
            f"%{instr.iid} = indexaddr {instr.base} [{instr.index}] "
            f"n={instr.elem_count} w={instr.elem_size}"
        )
    elif isinstance(instr, CallInstr):
        args = ", ".join(str(a) for a in instr.args)
        prefix = f"%{instr.iid} = " if instr.returns_value else ""
        body = f"{prefix}call {instr.fn}({args})"
    elif isinstance(instr, SymBind):
        body = f"symbind id={instr.symbol_id} dest={instr.dest} w{instr.width}"
    elif isinstance(instr, Ret):
        body = "ret" if instr.value is None else f"ret {instr.value}"
    elif isinstance(instr, Br):
        body = f"br block{instr.target}"
    elif isinstance(instr, CondBr):
        body = (
            f"condbr {instr.cond} block{instr.then_blk} block{instr.else_blk} "
            f"pts({instr.then_point},{instr.else_point})"
        )
    elif isinstance(instr, Check):
        ops = ", ".join(str(o) for o in instr.operands)
        bound = f" bound={instr.bound}" if instr.bound is not None else ""
        body = (
            f"check {instr.kind.value}({ops}){bound} "
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
        for block in fn.blocks:
            lines.append(f"block{block.index}:")
            for instr in block.instrs:
                lines.append(f"  {_instr_text(instr)}")
        lines.append("")
    return "\n".join(lines)
