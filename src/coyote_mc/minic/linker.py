"""Cross-unit linking and type checking for MiniC programs."""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field

from ..diagnostics import Diagnostic, DiagnosticList, SourceLoc
from . import ast
from . import types as ty


@dataclass
class Program:
    """A linked, type-checked set of units.

    A program linked on top of another (`base`) shares the base's records and
    declarations, and lowers to a module that shares the base's IR, so nothing
    may mutate a linked program or anything it holds.
    """

    records: dict[str, ty.RecordDef]
    functions: dict[str, ast.FuncDecl]
    file_of: dict[str, str]
    # Definition order used for deterministic listings: (file, line, col).
    order: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    # The program this one was linked on top of, if any.
    base: Program | None = None
    # Set by `ir.lower` for the units linked on top of this program: its
    # module and the next free instruction id.
    lowered: object = field(default=None, repr=False, compare=False)


_INTRINSIC_PATH = "<intrinsic>"


def _intrinsic_decls() -> list[ast.FuncDecl]:
    """Runtime intrinsics used by generated harness code."""
    loc = SourceLoc(_INTRINSIC_PATH, 0, 0)
    return [
        ast.FuncDecl(loc, "__sym_i32", [("id", ty.INT32), ("dest", ty.Address(ty.INT32))],
                     ty.VOID, None, external=True),
        ast.FuncDecl(loc, "__sym_bool", [("id", ty.INT32), ("dest", ty.Address(ty.BOOL))],
                     ty.VOID, None, external=True),
        ast.FuncDecl(loc, "__sym_fresh_i32", [("tag", ty.INT32)], ty.INT32, None, external=True),
    ]


class _Checker:
    def __init__(self, base: Program | None) -> None:
        self.diags: list[Diagnostic] = []
        self.base = base
        self.record_decls: dict[str, ast.RecordDecl] = {}
        # A base's records are shared; its name tables are extended in copies.
        self.records: dict[str, ty.RecordDef] = base.records if base else {}
        self.functions: dict[str, ast.FuncDecl] = dict(base.functions) if base else {}
        self.file_of: dict[str, str] = dict(base.file_of) if base else {}
        self.order: dict[str, tuple[str, int, int]] = dict(base.order) if base else {}
        if base is None:
            for decl in _intrinsic_decls():
                self.functions[decl.name] = decl
                self.file_of[decl.name] = decl.loc.path

    def error(self, loc: SourceLoc, message: str) -> None:
        self.diags.append(Diagnostic(loc, "error", message))

    # -- collection ------------------------------------------------------------

    def collect(self, units: list[ast.Ast]) -> None:
        for unit in units:
            for rec in unit.records:
                if self.base is not None:
                    self.error(rec.loc, f"record {rec.name!r} must be declared in the program")
                    continue
                if rec.name in self.record_decls or rec.name in self.functions:
                    self.error(rec.loc, f"duplicate definition of {rec.name!r}")
                    continue
                self.record_decls[rec.name] = rec
                self.file_of[rec.name] = unit.path
            for fn in unit.functions:
                taken = (fn.name in self.functions or fn.name in self.record_decls
                         or fn.name in self.records)
                if taken and not self._replaces_external(fn):
                    self.error(fn.loc, f"duplicate definition of {fn.name!r}")
                    continue
                self.functions[fn.name] = fn
                self.file_of[fn.name] = unit.path
                self.order[fn.name] = (unit.path, fn.loc.line, fn.loc.col)

    def _replaces_external(self, fn: ast.FuncDecl) -> bool:
        """True when `fn` defines one of the base program's external
        declarations (a stub); a definition whose signature differs from the
        declaration's is reported as an error."""
        decl = self.functions.get(fn.name)
        if (self.base is None or decl is None or fn.external or not decl.external
                or decl.loc.path == _INTRINSIC_PATH):
            return False
        if ([t for _, t in fn.params] != [t for _, t in decl.params]
                or fn.return_type != decl.return_type):
            self.error(fn.loc, f"definition of {fn.name!r} does not match its external declaration")
        return True

    def resolve_type(self, t: ty.TypeExpr, loc: SourceLoc) -> bool:
        if isinstance(t, ty.Record):
            if t.name not in self.record_decls and t.name not in self.records:
                self.error(loc, f"unresolved record type {t.name!r}")
                return False
            return True
        if isinstance(t, ty.Array):
            return self.resolve_type(t.elem, loc)
        if isinstance(t, ty.Address):
            return self.resolve_type(t.elem, loc)
        return True

    def build_records(self) -> None:
        for name, rec in self.record_decls.items():
            ok = all(self.resolve_type(ftype, rec.loc) for _, ftype in rec.fields)
            if ok:
                self.records[name] = ty.RecordDef(name, tuple(rec.fields))
        # Occurs check over value edges only: a record may reach itself through
        # Address edges but not through fields/arrays held by value.
        for name in list(self.records):
            if self._value_cycle(name, set(), name):
                rec = self.record_decls[name]
                self.error(rec.loc, f"record {name!r} contains itself by value")
                del self.records[name]

    def _value_cycle(self, name: str, visiting: set[str], target: str) -> bool:
        if name in visiting:
            return name == target or target in visiting
        if name not in self.records:
            return False
        visiting = visiting | {name}
        for _, ftype in self.records[name].fields:
            for reached in _value_records(ftype):
                if reached == target or self._value_cycle(reached, visiting, target):
                    return True
        return False

    # -- function checking -------------------------------------------------------

    def check_function(self, fn: ast.FuncDecl) -> None:
        if isinstance(fn.return_type, (ty.Record, ty.Array)):
            self.error(fn.loc, f"function {fn.name!r}: record/array return types are not supported")
            return
        if not self.resolve_type(fn.return_type, fn.loc):
            return
        scope: dict[str, ty.TypeExpr] = {}
        for pname, ptype in fn.params:
            if not self.resolve_type(ptype, fn.loc):
                return
            scope[pname] = ptype
        if fn.external:
            return
        # Locals get one frame object each, hoisted to function entry, so a
        # name may be declared only once per function (no shadowing).
        self._declared_names = set(scope)
        self.check_block(fn, fn.body, dict(scope))
        if not isinstance(fn.return_type, ty.Void) and not _always_returns(fn.body):
            self.error(fn.loc, f"function {fn.name!r}: not all paths return a value")

    def check_block(self, fn: ast.FuncDecl, block: ast.Block, scope: dict[str, ty.TypeExpr]) -> None:
        local = dict(scope)
        for stmt in block.stmts:
            self.check_stmt(fn, stmt, local)

    def check_stmt(self, fn: ast.FuncDecl, stmt: ast.Stmt, scope: dict[str, ty.TypeExpr]) -> None:
        if isinstance(stmt, ast.Block):
            self.check_block(fn, stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            if not self.resolve_type(stmt.decl_type, stmt.loc):
                return
            if stmt.name in self._declared_names:
                self.error(stmt.loc, f"redeclaration of {stmt.name!r}")
            self._declared_names.add(stmt.name)
            scope[stmt.name] = stmt.decl_type
            if stmt.init is not None:
                t = self.check_expr(fn, stmt.init, scope)
                self._require_assignable(stmt.decl_type, t, stmt.init, stmt.loc)
        elif isinstance(stmt, ast.Assign):
            target_t = self.check_expr(fn, stmt.target, scope)
            if target_t is not None and not self._is_lvalue(stmt.target):
                self.error(stmt.loc, "assignment target is not an lvalue")
                target_t = None
            if target_t is not None and not ty.is_scalar(target_t):
                self.error(stmt.loc, "whole-record and whole-array assignment is not supported")
                target_t = None
            value_t = self.check_expr(fn, stmt.value, scope)
            if target_t is not None:
                self._require_assignable(target_t, value_t, stmt.value, stmt.loc)
        elif isinstance(stmt, ast.If):
            self._require_bool(self.check_expr(fn, stmt.cond, scope), stmt.cond)
            self.check_stmt(fn, stmt.then_body, dict(scope))
            if stmt.else_body is not None:
                self.check_stmt(fn, stmt.else_body, dict(scope))
        elif isinstance(stmt, ast.While):
            self._require_bool(self.check_expr(fn, stmt.cond, scope), stmt.cond)
            self.check_stmt(fn, stmt.body, dict(scope))
        elif isinstance(stmt, ast.Return):
            if isinstance(fn.return_type, ty.Void):
                if stmt.value is not None:
                    self.error(stmt.loc, f"void function {fn.name!r} returns a value")
            else:
                if stmt.value is None:
                    self.error(stmt.loc, f"function {fn.name!r} must return a value")
                else:
                    t = self.check_expr(fn, stmt.value, scope)
                    self._require_assignable(fn.return_type, t, stmt.value, stmt.loc)
        elif isinstance(stmt, ast.Assert):
            self._require_bool(self.check_expr(fn, stmt.cond, scope), stmt.cond)
        elif isinstance(stmt, ast.ExprStmt):
            if not isinstance(stmt.expr, ast.Call):
                self.error(stmt.loc, "expression statements must be calls")
            self.check_expr(fn, stmt.expr, scope)

    # -- expression checking -------------------------------------------------------

    def check_expr(self, fn: ast.FuncDecl, e: ast.Expr, scope: dict[str, ty.TypeExpr]) -> ty.TypeExpr | None:
        t = self._check_expr(fn, e, scope)
        e.type = t
        return t

    def _check_expr(self, fn, e, scope) -> ty.TypeExpr | None:
        if isinstance(e, ast.IntLit):
            return ty.INT32
        if isinstance(e, ast.BoolLit):
            return ty.BOOL
        if isinstance(e, ast.NullLit):
            return ty.NULL_ADDRESS
        if isinstance(e, ast.VarRef):
            if e.name not in scope:
                self.error(e.loc, f"unresolved name {e.name!r}")
                return None
            return scope[e.name]
        if isinstance(e, ast.Unary):
            t = self.check_expr(fn, e.operand, scope)
            if t is None:
                return None
            if e.op == "-":
                if not isinstance(t, ty.Int32):
                    self.error(e.loc, "unary '-' expects int")
                    return None
                return ty.INT32
            if e.op == "!":
                if not isinstance(t, ty.Bool):
                    self.error(e.loc, "'!' expects bool")
                    return None
                return ty.BOOL
            if e.op == "*":
                if not isinstance(t, ty.Address) or t == ty.NULL_ADDRESS:
                    self.error(e.loc, "'*' expects an address value")
                    return None
                return t.elem
            if e.op == "&":
                if not self._is_lvalue(e.operand):
                    self.error(e.loc, "'&' expects an lvalue")
                    return None
                if isinstance(e.operand, ast.VarRef):
                    fn.address_taken.add(e.operand.name)  # it must live in memory
                return ty.Address(t)
        if isinstance(e, ast.Binary):
            lt = self.check_expr(fn, e.lhs, scope)
            rt = self.check_expr(fn, e.rhs, scope)
            if lt is None or rt is None:
                return None
            if e.op in ("+", "-", "*", "/", "%"):
                if not (isinstance(lt, ty.Int32) and isinstance(rt, ty.Int32)):
                    self.error(e.loc, f"operator {e.op!r} expects int operands")
                    return None
                return ty.INT32
            if e.op in ("<", "<=", ">", ">="):
                if not (isinstance(lt, ty.Int32) and isinstance(rt, ty.Int32)):
                    self.error(e.loc, f"operator {e.op!r} expects int operands")
                    return None
                return ty.BOOL
            if e.op in ("==", "!="):
                ok = (
                    (isinstance(lt, ty.Int32) and isinstance(rt, ty.Int32))
                    or (isinstance(lt, ty.Bool) and isinstance(rt, ty.Bool))
                    or ty.addresses_compatible(lt, rt)
                )
                if not ok:
                    self.error(e.loc, f"operator {e.op!r}: incompatible operand types {lt} and {rt}")
                    return None
                return ty.BOOL
            if e.op in ("&&", "||"):
                if not (isinstance(lt, ty.Bool) and isinstance(rt, ty.Bool)):
                    self.error(e.loc, f"operator {e.op!r} expects bool operands")
                    return None
                return ty.BOOL
        if isinstance(e, ast.Call):
            fn.callees.add(e.name)
            if e.name not in self.functions:
                self.error(e.loc, f"unresolved function {e.name!r}")
                for a in e.args:
                    self.check_expr(fn, a, scope)
                return None
            callee = self.functions[e.name]
            if len(e.args) != len(callee.params):
                self.error(
                    e.loc,
                    f"call to {e.name!r}: expected {len(callee.params)} arguments, got {len(e.args)}",
                )
            for arg, (_, ptype) in zip(e.args, callee.params):
                at = self.check_expr(fn, arg, scope)
                self._require_assignable(ptype, at, arg, arg.loc, aggregate_ok=True)
                if ty.is_aggregate(ptype) and at is not None and not self._is_lvalue(arg):
                    self.error(arg.loc, "record/array arguments must be lvalues")
            return None if isinstance(callee.return_type, ty.Void) else callee.return_type
        if isinstance(e, ast.FieldAccess):
            bt = self.check_expr(fn, e.base, scope)
            if bt is None:
                return None
            if isinstance(bt, ty.Address) and isinstance(bt.elem, ty.Record):
                e.through_pointer = True
                bt = bt.elem
            if not isinstance(bt, ty.Record):
                self.error(e.loc, f"field access on non-record type {bt}")
                return None
            rec = self.records.get(bt.name)
            if rec is None:
                return None
            try:
                return rec.field_type(e.field_name)
            except KeyError:
                self.error(e.loc, f"record {bt.name!r} has no field {e.field_name!r}")
                return None
        if isinstance(e, ast.IndexAccess):
            bt = self.check_expr(fn, e.base, scope)
            it = self.check_expr(fn, e.index, scope)
            if it is not None and not isinstance(it, ty.Int32):
                self.error(e.loc, "array index must be int")
            if bt is None:
                return None
            if not isinstance(bt, ty.Array):
                self.error(e.loc, f"indexing non-array type {bt}")
                return None
            return bt.elem
        return None

    def _is_lvalue(self, e: ast.Expr) -> bool:
        if isinstance(e, ast.VarRef):
            return True
        if isinstance(e, ast.FieldAccess):
            return e.through_pointer or self._is_lvalue(e.base)
        if isinstance(e, ast.IndexAccess):
            return self._is_lvalue(e.base)
        if isinstance(e, ast.Unary) and e.op == "*":
            return True
        return False

    def _require_bool(self, t: ty.TypeExpr | None, e: ast.Expr) -> None:
        if t is not None and not isinstance(t, ty.Bool):
            self.error(e.loc, f"condition must be bool, got {t}")

    def _require_assignable(
        self,
        target: ty.TypeExpr,
        value: ty.TypeExpr | None,
        value_expr: ast.Expr,
        loc: SourceLoc,
        aggregate_ok: bool = False,
    ) -> None:
        if value is None:
            return
        if target == value:
            return
        if ty.addresses_compatible(target, value):
            return
        if not aggregate_ok and ty.is_aggregate(target):
            self.error(loc, "whole-record and whole-array assignment is not supported")
            return
        self.error(loc, f"type mismatch: expected {target}, got {value}")


def _value_records(t: ty.TypeExpr):
    """Record names reachable from t without crossing an Address edge."""
    if isinstance(t, ty.Record):
        yield t.name
    elif isinstance(t, ty.Array):
        yield from _value_records(t.elem)


def _always_returns(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, ast.Block):
        return any(_always_returns(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        if stmt.else_body is None:
            return False
        return _always_returns(stmt.then_body) and _always_returns(stmt.else_body)
    return False


def link_program(units: list[ast.Ast], base: Program | None = None) -> Program:
    """Link parsed units into a Program; raises DiagnosticList on any failure.

    All failures are collected before raising, not just the first. With
    `base`, only the new units' functions are checked, against the base's
    records and functions. A definition there may replace one of the base's
    external declarations if its parameter and return types are the same;
    any other name the base already has is a duplicate. The result shares the
    base's records and declarations (`program.base` is the base, which is
    left as it was), so nothing may mutate either.
    """
    checker = _Checker(base)
    checker.collect(units)
    if base is None:
        checker.build_records()
    for unit in units:
        for fn in unit.functions:
            if checker.functions.get(fn.name) is fn:
                checker.check_function(fn)
    if checker.diags:
        raise DiagnosticList(checker.diags)
    return Program(
        records=checker.records,
        functions=checker.functions,
        file_of=checker.file_of,
        order=checker.order,
        base=base,
    )


def list_functions(
    program: Program,
    include: list[str] | None = None,
    exclude: list[str] | None = None,
) -> tuple[list[str], list[str]]:
    """Testable function names in (file, position) order, plus pattern warnings.

    EXTERNAL and harness-synthetic functions are never listed. `include`
    defaults to everything; `exclude` is applied last.
    """
    names = [
        name
        for name, fn in program.functions.items()
        if not fn.external and not fn.synthetic
    ]
    names.sort(key=lambda n: program.order.get(n, ("", 0, 0)))
    warnings: list[str] = []
    if include:
        matched = [n for n in names if any(fnmatch.fnmatchcase(n, p) for p in include)]
        for pat in include:
            if not any(fnmatch.fnmatchcase(n, pat) for n in names):
                warnings.append(f"include pattern {pat!r} matches no function")
        names = matched
    if exclude:
        for pat in exclude:
            if not any(fnmatch.fnmatchcase(n, pat) for n in names):
                warnings.append(f"exclude pattern {pat!r} matches no function")
        names = [n for n in names if not any(fnmatch.fnmatchcase(n, p) for p in exclude)]
    return names, warnings
