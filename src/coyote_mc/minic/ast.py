"""MiniC abstract syntax tree.

Every node carries the SourceLoc where it begins. Equality leaves locations
out, so `==` compares structure.
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


# --- operators and type spelling ---------------------------------------------

# Binary operator precedence, read by the parser; all associate to the left.
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


def format_type(t: ty.TypeExpr) -> str:
    """Base type spelling without array suffix (arrays use declarator syntax)."""
    if isinstance(t, ty.Array):
        return format_type(t.elem)
    return str(t)
