"""Symbolic expressions over 32-bit symbols and fresh stub values.

Expression nodes are immutable and interned (hash-consed): constructing a node
whose class, leaf values and children match a live node's returns that node.
So each structure exists once, equality is identity, and every walk and memo
table can key by the node and cost time linear in the DAG.

A model is a dict from input leaf (a SymRef or FreshRef node) to the value
the interpreter reads for it: a bool for a width-1 symbol, an int32
otherwise (see `interp.read_input`). Evaluation reads a leaf's value from
the model as it is and uses the same wrapping arithmetic as the concrete
interpreter, through one table of operator rules: `evaluate` computes one
value per node under a model, and `evaluate_over` a column of values per
node that depends on the refs being moved, each other node once.

`to_prefix` is the one printer: it writes an expression as an SMT-LIB 2.6
term, naming each shared node once with a `let`, so its text is linear in
the DAG. Path conditions (`engine.render_path_condition`) and exported
queries (`solver.export_smtlib`) are both printed with it.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Iterator

from . import semantics

ARITH_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or")

# Live nodes by (class, each field: a child's id or a leaf's (type, value)).
# An entry lives as long as its node, and the node keeps its children alive,
# so no child id in a live key can be reused. A leaf's type is in its key
# because evaluation returns a leaf's value as is: ConstI32(True) evaluates to
# True and ConstI32(1) to 1, though they are ==.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class SymExpr:
    """An interned node; each subclass names its fields in `__slots__`, and
    an inner node's `children` are its operands, left to right. `_variables`
    holds the node's variable set once `variables` has computed it."""

    __slots__ = ("__weakref__", "_variables")
    children: tuple = ()  # a leaf has no operands

    def __new__(cls, *fields):
        key = (cls, *[id(f) if isinstance(f, SymExpr) else (type(f), f) for f in fields])
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields, strict=True):
                object.__setattr__(node, name, value)
            _INTERNED[key] = node
        return node

    def _immutable(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __repr__(self) -> str:
        return to_prefix(self)


class SymRef(SymExpr):
    __slots__ = ("symbol_id", "width")  # width: 32 (int) or 1 (bool)

    def __new__(cls, symbol_id: int, width: int = 32):
        return super().__new__(cls, symbol_id, width)


class FreshRef(SymExpr):
    __slots__ = ("tag", "seq")


class ConstI32(SymExpr):
    __slots__ = ("value",)


class ConstBool(SymExpr):
    __slots__ = ("value",)


class BinExpr(SymExpr):
    __slots__ = ("op", "lhs", "rhs")  # arithmetic ops (int) or "and"/"or" (bool)
    children = property(attrgetter("lhs", "rhs"))


class CmpExpr(SymExpr):
    __slots__ = ("op", "lhs", "rhs")
    children = property(attrgetter("lhs", "rhs"))


class NotExpr(SymExpr):
    __slots__ = ("operand",)
    children = property(lambda e: (e.operand,))


class IteExpr(SymExpr):
    __slots__ = ("cond", "then_val", "else_val")
    children = property(attrgetter("cond", "then_val", "else_val"))


TRUE = ConstBool(True)
FALSE = ConstBool(False)


def is_const(e: SymExpr) -> bool:
    return isinstance(e, (ConstI32, ConstBool))


def nodes(roots) -> Iterator[SymExpr]:
    """Every node reachable from the roots, depth first, left to right. Each
    shared node is visited once."""
    seen: set[SymExpr] = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        stack += node.children[::-1]


def variables(e: SymExpr) -> frozenset:
    """All SymRef/FreshRef leaves in an expression, computed once per node."""
    try:
        return e._variables
    except AttributeError:
        found = frozenset(node for node in nodes([e]) if isinstance(node, (SymRef, FreshRef)))
        object.__setattr__(e, "_variables", found)
        return found


# Each binary operator's rule, read by every evaluation. `not` and `ite` are
# the other two: not x is `not x`, and ite(c, t, f) is t when c holds, else f.
_OPS = {**semantics.ARITH, **semantics.COMPARE,
        "and": lambda a, b: bool(a) and bool(b), "or": lambda a, b: bool(a) or bool(b)}


def evaluate(e: SymExpr, model: dict, memo: dict | None = None):
    """e's value under a model. Exact 32-bit wrapping semantics. Each shared
    node is evaluated once; pass one `memo` to share that work across
    expressions evaluated under the same model."""
    if type(e) is ConstBool:
        return e.value  # most path constraints are constants: no memo for them
    return _eval(e, model, {} if memo is None else memo, {})


def evaluate_over(e: SymExpr, refs, values: list, model: dict, memo: dict | None = None):
    """e's value at each of `values` at once, each ref in `refs` taking that
    value and every other leaf its value in the model, as in `evaluate`. The
    values are read as a model's are. The result is a list with one value
    per entry of `values`, or a single value when e's value does not depend
    on the refs. A node whose value does not is evaluated once; pass one
    `memo` to share those across expressions evaluated with the same refs
    under the same model. Both branches of an `ite` whose condition depends
    on the refs are evaluated, so every leaf outside `refs` must be in the
    model."""
    return _eval(e, model, {} if memo is None else memo, dict.fromkeys(refs, values))


def _eval(e, model, memo, columns):
    """The one walk: `columns` holds the list of values of every node that
    depends on a moving ref (none when evaluating under one model), `memo`
    the single value of every other inner node."""
    t = type(e)
    if t is ConstI32 or t is ConstBool:
        return e.value
    v = memo.get(e)
    if v is not None:
        return v
    v = columns.get(e)
    if v is not None:
        return v
    if t is SymRef or t is FreshRef:
        return model[e]
    if t is BinExpr or t is CmpExpr:
        a = _eval(e.lhs, model, memo, columns)
        b = _eval(e.rhs, model, memo, columns)
        f = _OPS[e.op]
        if type(a) is list:
            v = list(map(f, a, b if type(b) is list else [b] * len(a)))
        elif type(b) is list:
            v = list(map(f, [a] * len(b), b))
        else:
            v = f(a, b)
    elif t is NotExpr:
        a = _eval(e.operand, model, memo, columns)
        v = [not x for x in a] if type(a) is list else not a
    elif t is IteExpr:
        c = _eval(e.cond, model, memo, columns)
        if type(c) is not list:
            v = _eval(e.then_val if c else e.else_val, model, memo, columns)
        else:
            a = _eval(e.then_val, model, memo, columns)
            b = _eval(e.else_val, model, memo, columns)
            v = [x if k else y for k, x, y in zip(c, a if type(a) is list else [a] * len(c),
                                                  b if type(b) is list else [b] * len(c))]
    else:
        raise TypeError(f"cannot evaluate {type(e).__name__}")
    if type(v) is list:
        columns[e] = v
    else:
        memo[e] = v
    return v


# --- construction with on-the-fly simplification --------------------------------


def mk_bin(op: str, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    if op in BOOL_OPS:
        if isinstance(lhs, ConstBool):
            if op == "and":
                return rhs if lhs.value else FALSE
            return TRUE if lhs.value else rhs
        if isinstance(rhs, ConstBool):
            if op == "and":
                return lhs if rhs.value else FALSE
            return TRUE if rhs.value else lhs
        return BinExpr(op, lhs, rhs)
    if isinstance(lhs, ConstI32) and isinstance(rhs, ConstI32):
        return ConstI32(semantics.binop(op, lhs.value, rhs.value))
    if op == "+":
        if isinstance(lhs, ConstI32) and lhs.value == 0:
            return rhs
        if isinstance(rhs, ConstI32) and rhs.value == 0:
            return lhs
    if op == "-" and isinstance(rhs, ConstI32) and rhs.value == 0:
        return lhs
    if op == "*":
        if isinstance(lhs, ConstI32) and lhs.value == 1:
            return rhs
        if isinstance(rhs, ConstI32) and rhs.value == 1:
            return lhs
        if (isinstance(lhs, ConstI32) and lhs.value == 0) or (
            isinstance(rhs, ConstI32) and rhs.value == 0
        ):
            return ConstI32(0)
    return BinExpr(op, lhs, rhs)


def mk_cmp(op: str, lhs: SymExpr, rhs: SymExpr) -> SymExpr:
    if is_const(lhs) and is_const(rhs):
        return TRUE if semantics.compare(op, lhs.value, rhs.value) else FALSE
    # `!x` lowers as (x == false); read it back as a negation.
    if op == "==" and isinstance(rhs, ConstBool) and not rhs.value:
        return mk_not(lhs)
    if op == "==" and isinstance(rhs, ConstBool) and rhs.value:
        return lhs
    return CmpExpr(op, lhs, rhs)


def mk_not(e: SymExpr) -> SymExpr:
    if isinstance(e, ConstBool):
        return FALSE if e.value else TRUE
    if isinstance(e, NotExpr):
        return e.operand
    return NotExpr(e)


def mk_ite(cond: SymExpr, then_val: SymExpr, else_val: SymExpr) -> SymExpr:
    if isinstance(cond, ConstBool):
        return then_val if cond.value else else_val
    if then_val is else_val:
        return then_val
    return IteExpr(cond, then_val, else_val)


def simplify(e: SymExpr) -> SymExpr:
    """Bottom-up simplification: constant folding, double negation, neutral
    elements, constant-condition Ite. Semantics preserving."""
    if isinstance(e, BinExpr):
        return mk_bin(e.op, simplify(e.lhs), simplify(e.rhs))
    if isinstance(e, CmpExpr):
        return mk_cmp(e.op, simplify(e.lhs), simplify(e.rhs))
    if isinstance(e, NotExpr):
        return mk_not(simplify(e.operand))
    if isinstance(e, IteExpr):
        return mk_ite(simplify(e.cond), simplify(e.then_val), simplify(e.else_val))
    return e


# --- the one printer: SMT-LIB terms --------------------------------------------------

# Each operator's SMT-LIB 2.6 (QF_BV) name.
_SMT_OPS = {
    "+": "bvadd", "-": "bvsub", "*": "bvmul", "/": "bvsdiv", "%": "bvsrem",
    "==": "=", "!=": "distinct", "<": "bvslt", "<=": "bvsle", ">": "bvsgt", ">=": "bvsge",
    "and": "and", "or": "or",
}
_BV0 = "(_ bv0 32)"


def to_prefix(e: SymExpr) -> str:
    """e as an SMT-LIB 2.6 term, the one text form of an expression. A symbol
    prints as s<id>, a stub draw as f<tag>_<seq>, an int as a 32-bit vector.
    MiniC makes x / 0 and x % 0 zero, where bvsdiv and bvsrem do not, so a
    division prints as (ite (= d 0) 0 (bvsdiv n d)). An inner node that the
    term uses two or more times, a divisor counted twice, is written once,
    bound by a `let` around the term (t0, t1, ..., each after the nodes it
    uses), and read by name, so the text is linear in the size of the DAG."""
    uses: dict[SymExpr, int] = {}
    for node in nodes([e]):
        for operand in node.children:
            uses[operand] = uses.get(operand, 0) + 1
        if type(node) is BinExpr and node.op in ("/", "%"):
            uses[node.rhs] += 1
    names: dict[SymExpr, str] = {}
    bindings: list[str] = []

    def term(e: SymExpr) -> str:
        t = type(e)
        if t is ConstI32:
            return f"(_ bv{e.value & 0xFFFFFFFF} 32)"
        if t is ConstBool:
            return "true" if e.value else "false"
        if t is SymRef:
            return f"s{e.symbol_id}"
        if t is FreshRef:
            return f"f{e.tag}_{e.seq}"
        name = names.get(e)
        if name is not None:
            return name
        if t is BinExpr or t is CmpExpr:
            lhs, rhs = term(e.lhs), term(e.rhs)
            text = f"({_SMT_OPS[e.op]} {lhs} {rhs})"
            if e.op in ("/", "%"):
                text = f"(ite (= {rhs} {_BV0}) {_BV0} {text})"
        elif t is NotExpr:
            text = f"(not {term(e.operand)})"
        elif t is IteExpr:
            text = f"(ite {term(e.cond)} {term(e.then_val)} {term(e.else_val)})"
        else:
            raise TypeError(f"cannot render {t.__name__}")
        if uses.get(e, 0) < 2:
            return text
        names[e] = name = f"t{len(bindings)}"
        bindings.append(f"(let (({name} {text})) ")
        return name

    body = term(e)
    return "".join(bindings) + body + ")" * len(bindings)
