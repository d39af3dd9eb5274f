"""Exact 32-bit two's-complement arithmetic shared by the interpreter, the
symbolic evaluator, and the solver's model checker. One implementation so the
three can never disagree."""

from __future__ import annotations

import operator

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1
_MOD = 2**32


def wrap32(v: int) -> int:
    return (v + 2**31) % _MOD - 2**31


def div_trunc(a: int, b: int) -> int:
    """C-style truncating division, total: x/0 == 0, INT_MIN/-1 wraps."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return (q + 2**31) % _MOD - 2**31


def rem_trunc(a: int, b: int) -> int:
    """C-style remainder (sign of dividend), total: x%0 == 0. It is
    sign(a)·(|a| mod |b|), which is a − (a/b)·b for the truncated quotient,
    wrapped once."""
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return ((-r if a < 0 else r) + 2**31) % _MOD - 2**31


# The operators wrap inline, as wrap32 does, to save a call per operation.


def add(a: int, b: int) -> int:
    return (a + b + 2**31) % _MOD - 2**31


def sub(a: int, b: int) -> int:
    return (a - b + 2**31) % _MOD - 2**31


def mul(a: int, b: int) -> int:
    return (a * b + 2**31) % _MOD - 2**31


# Each operator's function; the symbolic evaluator binds these directly. The
# interpreter's handlers compute + - * inline, in the same way.
ARITH = {"+": add, "-": sub, "*": mul, "/": div_trunc, "%": rem_trunc}
COMPARE = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def binop(op: str, a: int, b: int) -> int:
    fn = ARITH.get(op)
    if fn is None:
        raise ValueError(f"unknown arithmetic operator {op!r}")
    return fn(a, b)


def compare(op: str, a, b) -> bool:
    fn = COMPARE.get(op)
    if fn is None:
        raise ValueError(f"unknown comparison operator {op!r}")
    return fn(a, b)
