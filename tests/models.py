"""Shared test helpers: models built by hand, the reference tree printer, and
an SMT-LIB reader with an evaluator written from the SMT-LIB 2.6 standard."""

import coyote_mc.symexpr as sx


def syms(values: dict) -> dict:
    """The model of 32-bit symbols given as symbol id -> value."""
    return {sx.SymRef(sid): v for sid, v in values.items()}


# --- the reference tree printer ---------------------------------------------------

# Each operator's name in tree_text.
PREFIX_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
    "==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge",
    "and": "and", "or": "or",
}


def tree_text(e: sx.SymExpr) -> str:
    """e spelled out as a tree in prefix notation, each leaf value in its
    Python form, so ConstI32(True) reads apart from ConstI32(1). Its length
    grows with the tree, not the DAG. The trace fingerprints hash it."""
    if isinstance(e, sx.ConstI32):
        return f"(const {e.value})"
    if isinstance(e, sx.ConstBool):
        return "(true)" if e.value else "(false)"
    if isinstance(e, sx.SymRef):
        return f"(sym {e.symbol_id})"
    if isinstance(e, sx.FreshRef):
        return f"(fresh {e.tag} {e.seq})"
    if isinstance(e, (sx.BinExpr, sx.CmpExpr)):
        return f"({PREFIX_OPS[e.op]} {tree_text(e.lhs)} {tree_text(e.rhs)})"
    if isinstance(e, sx.NotExpr):
        return f"(not {tree_text(e.operand)})"
    if isinstance(e, sx.IteExpr):
        return f"(ite {tree_text(e.cond)} {tree_text(e.then_val)} {tree_text(e.else_val)})"
    raise TypeError(f"cannot render {type(e).__name__}")


# --- an SMT-LIB reader ------------------------------------------------------------


def parse_sexprs(text):
    """The S-expressions of an SMT-LIB script, as nested lists of tokens."""
    stack = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    return stack[0]


def assertions(script):
    """The asserted terms of an SMT-LIB script, parsed."""
    return [term[1] for term in parse_sexprs(script) if term[0] == "assert"]


def inline_lets(term, env):
    """The term with every let-bound name replaced by its bound term."""
    if isinstance(term, str):
        return env.get(term, term)
    if term[0] == "let":  # (let ((name term) ...) body), bound in parallel
        bound = {name: inline_lets(value, env) for name, value in term[1]}
        return inline_lets(term[2], {**env, **bound})
    return [inline_lets(t, env) for t in term]


def render_sexpr(term):
    return term if isinstance(term, str) else "(" + " ".join(map(render_sexpr, term)) + ")"


# A bit vector's value is its unsigned int; the signed operators read it in
# two's complement. The division rules are SMT-LIB 2.6's (FixedSizeBitVectors
# theory and QF_BV logic): bvudiv by zero is all ones, bvurem by zero is the
# dividend, and bvsdiv and bvsrem reduce to them by the operands' signs.
_MASK = 2**32 - 1


def _signed(v):
    return v - 2**32 if v >> 31 else v


def _neg(v):
    return -v & _MASK


def _udiv(s, t):
    return _MASK if t == 0 else s // t


def _urem(s, t):
    return s if t == 0 else s % t


def _sdiv(s, t):
    neg_s, neg_t = s >> 31, t >> 31
    if not neg_s and not neg_t:
        return _udiv(s, t)
    if neg_s and not neg_t:
        return _neg(_udiv(_neg(s), t))
    if not neg_s and neg_t:
        return _neg(_udiv(s, _neg(t)))
    return _udiv(_neg(s), _neg(t))


def _srem(s, t):
    neg_s, neg_t = s >> 31, t >> 31
    if not neg_s and not neg_t:
        return _urem(s, t)
    if neg_s and not neg_t:
        return _neg(_urem(_neg(s), t))
    if not neg_s and neg_t:
        return _urem(s, _neg(t))
    return _neg(_urem(_neg(s), _neg(t)))


_BV_OPS = {
    "bvadd": lambda a, b: (a + b) & _MASK,
    "bvsub": lambda a, b: (a - b) & _MASK,
    "bvmul": lambda a, b: (a * b) & _MASK,
    "bvsdiv": _sdiv,
    "bvsrem": _srem,
    "bvslt": lambda a, b: _signed(a) < _signed(b),
    "bvsle": lambda a, b: _signed(a) <= _signed(b),
    "bvsgt": lambda a, b: _signed(a) > _signed(b),
    "bvsge": lambda a, b: _signed(a) >= _signed(b),
}


def smt_eval(term, model):
    """The value of an SMT-LIB term, as text or parsed, under a model (see
    symexpr): a bool, or a bit vector as its unsigned int. A symbol is named
    s<id> and a stub draw f<tag>_<seq>. Ill-sorted terms fail an assertion."""
    env = {}
    for ref, value in model.items():
        if isinstance(ref, sx.SymRef):
            env[f"s{ref.symbol_id}"] = bool(value) if ref.width == 1 else value & _MASK
        else:
            env[f"f{ref.tag}_{ref.seq}"] = value & _MASK
    if isinstance(term, str):
        term = parse_sexprs(term)[0]
    return _value(term, env)


def _value(term, env):
    if isinstance(term, str):
        return term == "true" if term in ("true", "false") else env[term]
    head, *args = term
    if head == "_":  # (_ bvN 32)
        assert args[0].startswith("bv") and args[1] == "32", term
        return int(args[0][2:])
    if head == "let":  # (let ((name term) ...) body), bound in parallel
        bound = {name: _value(value, env) for name, value in args[0]}
        return _value(args[1], {**env, **bound})
    values = [_value(arg, env) for arg in args]
    if head == "ite":
        cond, then_val, else_val = values
        assert type(cond) is bool and type(then_val) is type(else_val), term
        return then_val if cond else else_val
    if head in ("=", "distinct"):
        a, b = values
        assert type(a) is type(b), term
        return (a == b) is (head == "=")
    if head in ("not", "and", "or"):
        assert all(type(v) is bool for v in values), term
        if head == "not":
            return not values[0]
        return all(values) if head == "and" else any(values)
    assert all(type(v) is int for v in values), term
    return _BV_OPS[head](*values)
