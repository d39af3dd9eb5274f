"""MiniC abstract syntax tree plus a pretty printer.

Every node carries the SourceLoc where it begins. Equality leaves locations
out, so `==` compares structure, and the printer emits source that re-parses
to an equal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import SourceLoc
from . import types as ty


# --- expressions -----------------------------------------------------------


@dataclass
class Expr:
    loc: SourceLoc = field(compare=False)
    # Filled in during type checking.
    type: ty.TypeExpr | None = field(default=None, init=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class NullLit(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    # op in {"-", "!", "*", "&"}
    op: str = ""
    operand: Expr | None = None


@dataclass
class Binary(Expr):
    # op in {"+","-","*","/","%","<","<=",">",">=","==","!=","&&","||"}
    op: str = ""
    lhs: Expr | None = None
    rhs: Expr | None = None


@dataclass
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class FieldAccess(Expr):
    base: Expr | None = None
    field_name: str = ""
    # True when the base is a record pointer and one implicit deref applies.
    through_pointer: bool = field(default=False, compare=False)


@dataclass
class IndexAccess(Expr):
    base: Expr | None = None
    index: Expr | None = None


# --- statements ------------------------------------------------------------


@dataclass
class Stmt:
    loc: SourceLoc = field(compare=False)


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    name: str = ""
    decl_type: ty.TypeExpr = ty.INT32
    init: Expr | None = None


@dataclass
class Assign(Stmt):
    target: Expr | None = None
    value: Expr | None = None


@dataclass
class If(Stmt):
    cond: Expr | None = None
    then_body: Stmt | None = None
    else_body: Stmt | None = None


@dataclass
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Assert(Stmt):
    cond: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr | None = None


# --- top-level declarations --------------------------------------------------


@dataclass
class RecordDecl:
    loc: SourceLoc = field(compare=False)
    name: str
    fields: list[tuple[str, ty.TypeExpr]]


@dataclass
class FuncDecl:
    loc: SourceLoc = field(compare=False)
    name: str
    params: list[tuple[str, ty.TypeExpr]]
    return_type: ty.TypeExpr
    body: Block | None  # None for EXTERNAL declarations
    external: bool = False
    domain: tuple[int, int] | None = None  # from a @domain(lo,hi) annotation
    synthetic: bool = False  # True for harness-generated functions
    # Names whose address `&name` the body takes, and names of the functions
    # it calls; both filled by the checker.
    address_taken: set[str] = field(default_factory=set, compare=False, repr=False)
    callees: set[str] = field(default_factory=set, compare=False, repr=False)


@dataclass
class Ast:
    """Parse result of one source unit."""

    path: str
    records: list[RecordDecl]
    functions: list[FuncDecl]


# --- pretty printer ----------------------------------------------------------

# Binary operator precedence, shared with the parser; all associate to the left.
BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY_PREC = 7


def format_type(t: ty.TypeExpr) -> str:
    """Base type spelling without array suffix (arrays use declarator syntax)."""
    if isinstance(t, ty.Array):
        return format_type(t.elem)
    return str(t)


def _array_suffix(t: ty.TypeExpr) -> str:
    return f"[{t.length}]" if isinstance(t, ty.Array) else ""


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Unary):
        inner = format_expr(e.operand, _UNARY_PREC)
        text = f"{e.op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(e, Binary):
        prec = BINARY_PREC[e.op]
        lhs = format_expr(e.lhs, prec)
        rhs = format_expr(e.rhs, prec + 1)  # left-associative
        text = f"{lhs} {e.op} {rhs}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(e, Call):
        args = ", ".join(format_expr(a) for a in e.args)
        return f"{e.name}({args})"
    # A postfix base binds tighter than a unary operator: `(*p).x`, not `*p.x`.
    if isinstance(e, FieldAccess):
        return f"{format_expr(e.base, _UNARY_PREC + 1)}.{e.field_name}"
    if isinstance(e, IndexAccess):
        return f"{format_expr(e.base, _UNARY_PREC + 1)}[{format_expr(e.index)}]"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _format_stmt(s: Stmt, out: list[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(s, Block):
        out.append(pad + "{")
        for inner in s.stmts:
            _format_stmt(inner, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(s, VarDecl):
        decl = f"{format_type(s.decl_type)} {s.name}{_array_suffix(s.decl_type)}"
        if s.init is not None:
            decl += f" = {format_expr(s.init)}"
        out.append(pad + decl + ";")
    elif isinstance(s, Assign):
        out.append(pad + f"{format_expr(s.target)} = {format_expr(s.value)};")
    elif isinstance(s, If):
        out.append(pad + f"if ({format_expr(s.cond)})")
        _format_stmt(s.then_body, out, indent + 1)
        if s.else_body is not None:
            out.append(pad + "else")
            _format_stmt(s.else_body, out, indent + 1)
    elif isinstance(s, While):
        out.append(pad + f"while ({format_expr(s.cond)})")
        _format_stmt(s.body, out, indent + 1)
    elif isinstance(s, Return):
        if s.value is None:
            out.append(pad + "return;")
        else:
            out.append(pad + f"return {format_expr(s.value)};")
    elif isinstance(s, Assert):
        out.append(pad + f"assert({format_expr(s.cond)});")
    elif isinstance(s, ExprStmt):
        out.append(pad + f"{format_expr(s.expr)};")
    else:
        raise TypeError(f"unknown statement node {type(s).__name__}")


def format_ast(ast: Ast) -> str:
    """Render a unit back to MiniC source."""
    out: list[str] = []
    for rec in ast.records:
        out.append(f"record {rec.name} {{")
        for fname, ftype in rec.fields:
            out.append(f"    {format_type(ftype)} {fname}{_array_suffix(ftype)};")
        out.append("}")
        out.append("")
    for fn in ast.functions:
        if fn.domain is not None:
            out.append(f"// @domain({fn.domain[0]},{fn.domain[1]})")
        params = ", ".join(
            f"{format_type(t)} {n}{_array_suffix(t)}" for n, t in fn.params
        )
        head = f"{format_type(fn.return_type)} {fn.name}({params})"
        if fn.external:
            out.append(f"external {head};")
        else:
            out.append(head)
            _format_stmt(fn.body, out, 0)
        out.append("")
    return "\n".join(out).rstrip() + "\n"
