"""Constraint solver for conjunctions of boolean expressions over bounded
32-bit symbols.

A query usually flips one branch of an executed run, so the run's model
(the query's hint; see symexpr) satisfies every conjunct but the last. The
solver works in four phases, all counted against one step budget:

1. Drop repeated conjuncts, keeping the first of each in order.
   A top-level conjunct `x == y` (or `not(x != y)`) over two variables joins
   them into one equality class: one interval (the meet of the members'
   domains), one search variable, and the hint of its first hinted member;
   two operands of one class compare as identical. Then narrow the box to a
   fixpoint with HC4-style forward/backward passes. The box holds an
   interval per class and one per `*`, `/` or `%` node that a requirement
   reached, keyed by the node's identity, so bounds on a shared nonlinear
   term meet across conjuncts even though its operands are not narrowed.
   Backward stops at a node whose range already lies within the
   requirement. Interval arithmetic is wrap-safe: an operation whose exact
   result range leaves int32 widens to the full range instead of narrowing
   unsoundly.
2. Read each top-level equality whose sides use only `+`, `-`, constants
   and `*` by a constant as a row c0 + sum(ci * k) == 0 (mod 2^32) over
   class keys; a class whose interval holds one value counts as a constant.
   Eliminate modulo 2^32, pivoting on the first class in key order that has
   an odd (so invertible) coefficient. A reduced row whose constant is not
   divisible by 2^k, the lowest power of two among its coefficients (2^32
   for a row with no class), has no solution: the query is unsat.
3. Start from the parent's model: clamp each hinted value into its interval
   (an unhinted class starts at its low end) and evaluate that point. If it
   fails, move one class at a time, in key order, to its start value
   +/- 2^k (k = 0..31), its interval's endpoints, and each integer constant
   c of the query and c +/- 1, and take the first point that satisfies
   every conjunct. If none does, try the point the rows of phase 2 give:
   each class at its start value, except that a one-class row a*x == b
   sets x to its solution nearest x's start value, and each pivot class is
   back-substituted. If that fails too, move two: for each pair (a, b) such
   that every failing conjunct mentions a or b, a goes to a constant value
   and b takes its single moves. The pair moves may spend at most the
   subtree quota before the search takes over. A move checks all of its
   candidate values together: each conjunct is evaluated once, over the
   values that passed the conjuncts before it, and a node that does not
   depend on the moving class once per move. It charges the steps of
   checking the values one at a time: per value, one per conjunct up to
   the first that fails, stopping at the first value that passes.
4. Otherwise backtrack: branch on the class with the smallest interval,
   re-propagating per branch. A small interval is enumerated value by value,
   a wide one split into ranges; either way the hint comes first when the
   interval holds it, then the values below it, then those above, and an
   unhinted interval goes low to high (wide ones bisected). The branches
   partition the interval, so the search stays complete on bounded domains
   given budget.

The gates: every Sat model is verified by evaluation against the query's full
constraint list before it is returned, so an unsound model is impossible;
Unsat is reported only on an inconsistent reduced row or after the search
space is exhausted; a search that ran out of budget or abandoned a subtree
answers Unknown with its reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import symexpr as sx
from .semantics import INT_MAX, INT_MIN, wrap32

DEFAULT_TIMEOUT_MS = 200
DEFAULT_STEP_LIMIT = 200_000

TOP = (INT_MIN, INT_MAX)
BOOL_RANGE = (0, 1)
_MOD = 2**32


class SolverError(Exception):
    pass


@dataclass
class Query:
    constraints: list[sx.SymExpr]
    domains: dict[int, tuple[int, int]] = field(default_factory=dict)
    # A model (see symexpr): each leaf's value in the parent run, where the
    # search starts. A leaf it leaves out starts at its interval's low end.
    hint: dict[sx.SymExpr, int | bool] = field(default_factory=dict)
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    step_limit: int = DEFAULT_STEP_LIMIT


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown"
    # For sat: a model of every leaf of the query (a bool for a width-1 symbol).
    model: dict[sx.SymExpr, int | bool] | None = None
    reason: str | None = None  # for unknown: "timeout" | "incomplete"


class _Budget(Exception):
    pass


class _SubtreeQuota(Exception):
    pass


class _Empty(Exception):
    """A node's range met the interval kept on it and left no value: the box
    has no solution."""


def _var_key(ref) -> tuple:
    """A leaf's key: the order of the search's variables and classes."""
    if isinstance(ref, sx.SymRef):
        return (0, ref.symbol_id)
    return (1, ref.tag, ref.seq)


_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_REFS = (sx.SymRef, sx.FreshRef)


def _sides(c: sx.SymExpr):
    """The two sides of a conjunct `x == y` or `not(x != y)`, or None."""
    if isinstance(c, sx.NotExpr) and isinstance(c.operand, sx.CmpExpr) and c.operand.op == "!=":
        c = c.operand
    elif not (isinstance(c, sx.CmpExpr) and c.op == "=="):
        return None
    return c.lhs, c.rhs


def _equated(c: sx.SymExpr):
    """The two variables a conjunct sets equal, or None."""
    sides = _sides(c)
    if sides is not None and all(isinstance(side, _REFS) for side in sides):
        return sides
    return None


# A linear form modulo 2^32: (constant, {class key: nonzero coefficient}).
_ZERO = (0, {})


def _axpy(a, f: int, b):
    """The linear form a + f * b, modulo 2^32."""
    coeffs = dict(a[1])
    for key, v in b[1].items():
        coeffs[key] = (coeffs.get(key, 0) + f * v) % _MOD
    return (a[0] + f * b[0]) % _MOD, {key: v for key, v in coeffs.items() if v}


class _Search:
    def __init__(self, query: Query):
        self.query = query
        # Equal conjuncts are solved once; eval_model still checks them all.
        self.constraints = list(dict.fromkeys(query.constraints))
        self.steps = 0
        self.deadline = time.monotonic() + query.timeout_ms / 1000.0
        refs_of = [sx.variables(c) for c in self.constraints]
        refs = sorted(set().union(*refs_of), key=_var_key)
        # Equality classes: each variable key -> the smallest key of its class.
        self.class_of = {_var_key(r): _var_key(r) for r in refs}
        for c in self.constraints:
            pair = _equated(c)
            if pair is not None:
                a, b = (self._find(_var_key(r)) for r in pair)
                self.class_of[max(a, b)] = min(a, b)
        self.class_of = {key: self._find(key) for key in self.class_of}
        # Class key -> its members, in key order; the class keys are sorted.
        self.members_of: dict[tuple, list] = {}
        for ref in refs:
            self.members_of.setdefault(self._key(ref), []).append(ref)
        self.keys = list(self.members_of)
        self.keys_of = [{self._key(r) for r in found} for found in refs_of]
        self.hint: dict[tuple, int] = {}
        for ref in refs:
            if ref in query.hint:
                self.hint.setdefault(self._key(ref), int(query.hint[ref]))
        # Per-top-level-value subtree quota: a pathological subtree is
        # abandoned (marking the result incomplete) instead of eating the
        # whole step budget. Deterministic, unlike wall-clock cutoffs.
        self.value_quota = max(2000, query.step_limit // 32)
        self.cap: int | None = None
        self.incomplete = False

    def _find(self, key: tuple) -> tuple:
        while self.class_of[key] != key:
            key = self.class_of[key]
        return key

    def _key(self, ref) -> tuple:
        return self.class_of[_var_key(ref)]

    def initial_intervals(self) -> dict | None:
        """Each class's interval, the meet of its members' domains; None when
        some class's is empty."""
        intervals: dict = {}
        for key, refs in self.members_of.items():
            lo, hi = TOP
            for ref in refs:
                if isinstance(ref, sx.SymRef):
                    dom = self.query.domains.get(ref.symbol_id, TOP)
                    if ref.width == 1:
                        dom = (max(dom[0], 0), min(dom[1], 1))
                    lo, hi = max(lo, dom[0]), min(hi, dom[1])
            if lo > hi:
                return None
            intervals[key] = (lo, hi)
        return intervals

    def tick(self) -> None:
        if self.steps >= self.query.step_limit:
            raise _Budget()
        self.steps += 1
        if self.cap is not None and self.steps > self.cap:
            raise _SubtreeQuota()
        if self.steps % 512 == 0 and time.monotonic() > self.deadline:
            raise _Budget()

    def charge(self, n: int) -> None:
        """n steps, charged as n calls of tick would charge them: it raises
        what the first tick to raise would, and leaves the steps that tick
        leaves. The deadline is read once, at the first multiple of 512 the
        steps reach."""
        if n <= 0:
            return
        steps = self.steps
        budget_at = max(1, self.query.step_limit - steps + 1)  # the tick that raises _Budget
        quota_at = n + 1 if self.cap is None else max(1, self.cap - steps + 1)
        deadline_at = 512 - steps % 512
        if deadline_at <= n and deadline_at < min(budget_at, quota_at):
            if time.monotonic() > self.deadline:
                self.steps = steps + deadline_at
                raise _Budget()
        if budget_at <= n and budget_at <= quota_at:
            self.steps = steps + budget_at - 1
            raise _Budget()
        if quota_at <= n:
            self.steps = steps + quota_at
            raise _SubtreeQuota()
        self.steps = steps + n

    # -- interval arithmetic

    @staticmethod
    def _fit(lo: int, hi: int) -> tuple[int, int]:
        if lo < INT_MIN or hi > INT_MAX:
            return TOP
        return (lo, hi)

    @classmethod
    def _quotients(cls, a, b) -> tuple[int, int]:
        """Range of x / y (truncating, x / 0 == 0) over x in a, y in b. On each
        side of 0 the extremes lie at the corners; INT_MIN / -1 leaves int32
        and widens."""
        values = [0] if b[0] <= 0 <= b[1] else []
        for lo, hi in ((b[0], min(b[1], -1)), (max(b[0], 1), b[1])):
            if lo <= hi:
                for x in a:
                    for y in (lo, hi):
                        q = abs(x) // abs(y)
                        values.append(-q if (x < 0) != (y < 0) else q)
        return cls._fit(min(values), max(values))

    @staticmethod
    def _remainders(a, b) -> tuple[int, int]:
        """Range of x % y (sign of x, x % 0 == 0) over x in a, y in b:
        |x % y| < |y| and |x % y| <= |x|."""
        bound = max(abs(b[0]), abs(b[1])) - 1
        return (min(0, max(a[0], -bound)), max(0, min(a[1], bound)))

    def forward(self, e: sx.SymExpr, intervals: dict, cache: dict) -> tuple[int, int]:
        hit = cache.get(e)
        if hit is not None:
            return hit
        result = self._forward(e, intervals, cache)
        cache[e] = result
        return result

    def _forward(self, e, intervals, cache):
        if isinstance(e, sx.ConstI32):
            return (e.value, e.value)
        if isinstance(e, sx.ConstBool):
            v = 1 if e.value else 0
            return (v, v)
        if isinstance(e, _REFS):
            return intervals[self._key(e)]
        if isinstance(e, sx.BinExpr):
            a = self.forward(e.lhs, intervals, cache)
            b = self.forward(e.rhs, intervals, cache)
            if e.op == "and":
                return (min(a[0], b[0]), min(a[1], b[1]))
            if e.op == "or":
                return (max(a[0], b[0]), max(a[1], b[1]))
            if e.op == "+":
                return self._fit(a[0] + b[0], a[1] + b[1])
            if e.op == "-":
                return self._fit(a[0] - b[1], a[1] - b[0])
            if e.op == "*":
                products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
                r = self._fit(min(products), max(products))
            elif e.op == "/":
                r = self._quotients(a, b)
            else:
                r = self._remainders(a, b)
            kept = intervals.get(("t", e))
            if kept is None:
                return r
            r = (max(r[0], kept[0]), min(r[1], kept[1]))
            if r[0] > r[1]:
                raise _Empty
            return r
        if isinstance(e, sx.CmpExpr):
            a = self.forward(e.lhs, intervals, cache)
            b = self.forward(e.rhs, intervals, cache)
            return self._cmp_range(e.op, a, b)
        if isinstance(e, sx.NotExpr):
            r = self.forward(e.operand, intervals, cache)
            return (1 - r[1], 1 - r[0])
        if isinstance(e, sx.IteExpr):
            c = self.forward(e.cond, intervals, cache)
            t = self.forward(e.then_val, intervals, cache)
            f = self.forward(e.else_val, intervals, cache)
            if c == (1, 1):
                return t
            if c == (0, 0):
                return f
            return (min(t[0], f[0]), max(t[1], f[1]))
        raise SolverError(f"malformed expression {type(e).__name__}")

    @staticmethod
    def _cmp_range(op, a, b):
        if op == "<":
            return (1, 1) if a[1] < b[0] else (0, 0) if a[0] >= b[1] else BOOL_RANGE
        if op == "<=":
            return (1, 1) if a[1] <= b[0] else (0, 0) if a[0] > b[1] else BOOL_RANGE
        if op == "==":
            if a[0] == a[1] == b[0] == b[1]:
                return (1, 1)
            if a[1] < b[0] or b[1] < a[0]:
                return (0, 0)
            return BOOL_RANGE
        if op in (">=", ">", "!="):  # the negation of <, <= or ==
            lo, hi = _Search._cmp_range(_NEGATED[op], a, b)
            return (1 - hi, 1 - lo)
        raise SolverError(f"unknown comparison {op}")

    # -- backward narrowing

    def backward(self, e, req, intervals, cache, changed) -> bool:
        """Narrow variable intervals so e's value can lie within req.
        Returns False when a variable interval becomes empty."""
        self.tick()
        fwd = self.forward(e, intervals, cache)
        lo, hi = max(fwd[0], req[0]), min(fwd[1], req[1])
        if lo > hi:
            return False
        if (lo, hi) == fwd:
            return True  # every value the node can take meets the requirement
        if isinstance(e, _REFS):
            intervals[self._key(e)] = (lo, hi)
            changed[0] = True
            return True
        if isinstance(e, (sx.ConstI32, sx.ConstBool)):
            return True
        if isinstance(e, sx.NotExpr):
            return self.backward(e.operand, (1 - hi, 1 - lo), intervals, cache, changed)
        if isinstance(e, sx.BinExpr):
            return self._backward_bin(e, (lo, hi), intervals, cache, changed)
        if isinstance(e, sx.CmpExpr):
            if (lo, hi) == (1, 1):
                return self._backward_cmp(e.op, e.lhs, e.rhs, intervals, cache, changed)
            if (lo, hi) == (0, 0):
                return self._backward_cmp(
                    _NEGATED[e.op], e.lhs, e.rhs, intervals, cache, changed
                )
            return True
        if isinstance(e, sx.IteExpr):
            c = self.forward(e.cond, intervals, cache)
            if c == (1, 1):
                return self.backward(e.then_val, (lo, hi), intervals, cache, changed)
            if c == (0, 0):
                return self.backward(e.else_val, (lo, hi), intervals, cache, changed)
            t = self.forward(e.then_val, intervals, cache)
            f = self.forward(e.else_val, intervals, cache)
            t_ok = max(t[0], lo) <= min(t[1], hi)
            f_ok = max(f[0], lo) <= min(f[1], hi)
            if t_ok and not f_ok:
                if not self.backward(e.cond, (1, 1), intervals, cache, changed):
                    return False
                return self.backward(e.then_val, (lo, hi), intervals, cache, changed)
            if f_ok and not t_ok:
                if not self.backward(e.cond, (0, 0), intervals, cache, changed):
                    return False
                return self.backward(e.else_val, (lo, hi), intervals, cache, changed)
            return t_ok or f_ok
        return True

    def _backward_bin(self, e, req, intervals, cache, changed) -> bool:
        a = self.forward(e.lhs, intervals, cache)
        b = self.forward(e.rhs, intervals, cache)
        if e.op == "and":
            if req == (1, 1):
                return self.backward(e.lhs, (1, 1), intervals, cache, changed) and \
                    self.backward(e.rhs, (1, 1), intervals, cache, changed)
            if req == (0, 0):
                if a == (1, 1):
                    return self.backward(e.rhs, (0, 0), intervals, cache, changed)
                if b == (1, 1):
                    return self.backward(e.lhs, (0, 0), intervals, cache, changed)
            return True
        if e.op == "or":
            if req == (0, 0):
                return self.backward(e.lhs, (0, 0), intervals, cache, changed) and \
                    self.backward(e.rhs, (0, 0), intervals, cache, changed)
            if req == (1, 1):
                if a == (0, 0):
                    return self.backward(e.rhs, (1, 1), intervals, cache, changed)
                if b == (0, 0):
                    return self.backward(e.lhs, (1, 1), intervals, cache, changed)
            return True
        if e.op == "+":
            ok = self.backward(e.lhs, self._wrap_hull(req[0] - b[1], req[1] - b[0]),
                               intervals, cache, changed)
            if not ok:
                return False
            a = self.forward(e.lhs, intervals, {})
            return self.backward(e.rhs, self._wrap_hull(req[0] - a[1], req[1] - a[0]),
                                 intervals, cache, changed)
        if e.op == "-":
            ok = self.backward(e.lhs, self._wrap_hull(req[0] + b[0], req[1] + b[1]),
                               intervals, cache, changed)
            if not ok:
                return False
            a = self.forward(e.lhs, intervals, {})
            return self.backward(e.rhs, self._wrap_hull(a[0] - req[1], a[1] - req[0]),
                                 intervals, cache, changed)
        # *, / and %: no operand rule. The box keeps the (narrower) requirement
        # on the node itself, and forward meets it wherever the node is shared.
        # Only a narrowing that halves the node's range counts as progress:
        # two such nodes can otherwise trade a few values per pass.
        fwd = self.forward(e, intervals, cache)
        if 2 * (req[1] - req[0]) <= fwd[1] - fwd[0]:
            changed[0] = True
        intervals[("t", e)] = req
        return True

    @staticmethod
    def _clip(lo: int, hi: int) -> tuple[int, int]:
        return (max(lo, INT_MIN), min(hi, INT_MAX))

    @staticmethod
    def _wrap_hull(lo: int, hi: int) -> tuple[int, int]:
        """Sound operand refinement under wrapping arithmetic: the exact
        mathematical solution interval may correspond to operands shifted by
        +/- 2^32, so hull every shift that intersects int32."""
        out_lo, out_hi = None, None
        for shift in (0, 2**32, -(2**32)):
            clo, chi = max(lo + shift, INT_MIN), min(hi + shift, INT_MAX)
            if clo <= chi:
                out_lo = clo if out_lo is None else min(out_lo, clo)
                out_hi = chi if out_hi is None else max(out_hi, chi)
        if out_lo is None:
            return (1, 0)  # empty: no operand value can produce the result
        return (out_lo, out_hi)

    def _backward_cmp(self, op, lhs, rhs, intervals, cache, changed) -> bool:
        if lhs is rhs or (isinstance(lhs, _REFS) and isinstance(rhs, _REFS)
                          and self._key(lhs) == self._key(rhs)):
            # Identical operands, or two variables of one equality class,
            # decide immediately; interval ping-pong would take one pass per
            # excluded value otherwise.
            return op in ("<=", ">=", "==")
        a = self.forward(lhs, intervals, cache)
        b = self.forward(rhs, intervals, cache)
        if op == "<":
            return self.backward(lhs, self._clip(INT_MIN, b[1] - 1), intervals, cache, changed) \
                and self.backward(rhs, self._clip(a[0] + 1, INT_MAX), intervals, cache, changed)
        if op == "<=":
            return self.backward(lhs, self._clip(INT_MIN, b[1]), intervals, cache, changed) \
                and self.backward(rhs, self._clip(a[0], INT_MAX), intervals, cache, changed)
        if op == ">":
            return self.backward(lhs, self._clip(b[0] + 1, INT_MAX), intervals, cache, changed) \
                and self.backward(rhs, self._clip(INT_MIN, a[1] - 1), intervals, cache, changed)
        if op == ">=":
            return self.backward(lhs, self._clip(b[0], INT_MAX), intervals, cache, changed) \
                and self.backward(rhs, self._clip(INT_MIN, a[1]), intervals, cache, changed)
        if op == "==":
            meet = (max(a[0], b[0]), min(a[1], b[1]))
            if meet[0] > meet[1]:
                return False
            return self.backward(lhs, meet, intervals, cache, changed) \
                and self.backward(rhs, meet, intervals, cache, changed)
        if op == "!=":
            if a[0] == a[1]:
                if b == (a[0], a[0]):
                    return False
                if b[0] == a[0]:
                    return self.backward(rhs, (b[0] + 1, b[1]), intervals, cache, changed)
                if b[1] == a[0]:
                    return self.backward(rhs, (b[0], b[1] - 1), intervals, cache, changed)
            if b[0] == b[1]:
                if a[0] == b[0] and a[1] > a[0]:
                    return self.backward(lhs, (a[0] + 1, a[1]), intervals, cache, changed)
                if a[1] == b[0] and a[1] > a[0]:
                    return self.backward(lhs, (a[0], a[1] - 1), intervals, cache, changed)
            return True
        raise SolverError(f"unknown comparison {op}")

    # -- fixpoint + search

    def propagate(self, intervals: dict) -> bool:
        try:
            for _ in range(64):
                changed = [False]
                for c in self.constraints:
                    self.tick()
                    if not self.backward(c, (1, 1), intervals, {}, changed):
                        return False
                if not changed[0]:
                    return True
        except _Empty:
            return False
        return True

    # -- linear equalities modulo 2^32

    def linear(self, e, intervals: dict, memo: dict):
        """e as a linear form over the classes, or None when it is not one.
        A class whose interval holds one value counts as that constant."""
        if e in memo:
            return memo[e]
        form = None
        t = type(e)
        if t is sx.ConstI32:
            form = (e.value % _MOD, {})
        elif t is sx.FreshRef or (t is sx.SymRef and e.width == 32):
            key = self._key(e)
            lo, hi = intervals[key]
            form = (lo % _MOD, {}) if lo == hi else (0, {key: 1})
        elif t is sx.BinExpr and e.op in ("+", "-", "*"):
            a = self.linear(e.lhs, intervals, memo)
            b = self.linear(e.rhs, intervals, memo)
            if a is None or b is None or (e.op == "*" and a[1] and b[1]):
                form = None
            elif e.op == "*":
                form = _axpy(_ZERO, b[0], a) if not b[1] else _axpy(_ZERO, a[0], b)
            else:
                form = _axpy(a, 1 if e.op == "+" else -1, b)
        memo[e] = form
        return form

    def eliminate(self, intervals: dict):
        """The top-level linear equalities, reduced modulo 2^32: (pivots,
        rest), where each pivot row has coefficient 1 on its class and no
        other row mentions that class, and each rest row's coefficients are
        all even. None when some reduced row has no solution."""
        memo: dict = {}
        pivots: list = []  # (class key, row)
        rest: list = []
        for c in self.constraints:
            sides = _sides(c)
            if sides is None:
                continue
            lhs, rhs = (self.linear(side, intervals, memo) for side in sides)
            if lhs is None or rhs is None:
                continue
            self.tick()
            row = _axpy(lhs, -1, rhs)
            for key, pivot in pivots:
                if key in row[1]:
                    row = _axpy(row, -row[1][key], pivot)
            odd = [key for key, v in row[1].items() if v & 1]
            if not odd:
                rest.append(row)
                continue
            key = min(odd)
            row = _axpy(_ZERO, pow(row[1][key], -1, _MOD), row)
            pivots = [(k, _axpy(r, -r[1][key], row) if key in r[1] else r) for k, r in pivots]
            rest = [_axpy(r, -r[1][key], row) if key in r[1] else r for r in rest]
            pivots.append((key, row))
        # sum(ci * k) == -c0 needs 2^k, the lowest power of two dividing
        # every ci, to divide c0.
        for const, coeffs in rest:
            if const % min((v & -v for v in coeffs.values()), default=_MOD):
                return None
        return pivots, rest

    def linear_point(self, rows, start: dict, intervals: dict) -> dict | None:
        """The point the reduced rows give from the start point, or None when
        it is the start point or leaves the box."""
        pivots, rest = rows
        point = dict(start)
        for const, coeffs in rest:
            if len(coeffs) == 1:
                # a * x == -const: x is fixed modulo 2^32 / low, where low is
                # the lowest power of two dividing a.
                [(key, a)] = coeffs.items()
                low = a & -a
                step = _MOD // low
                x = (-const % _MOD // low) * pow(a // low, -1, step) % step
                x += (point[key] - x + step // 2) // step * step
                point[key] = wrap32(x)
        for key, (const, coeffs) in pivots:
            point[key] = wrap32(-const - sum(v * point[k] for k, v in coeffs.items() if k != key))
        if point == start or any(not intervals[key][0] <= v <= intervals[key][1]
                                 for key, v in point.items()):
            return None
        return point

    def model_from(self, point: dict) -> dict:
        """The model of a point, which maps class key -> value."""
        model: dict = {}
        for key in self.keys:
            self.bind_class(key, point[key], model)
        return model

    def bind_class(self, key: tuple, value: int, model: dict) -> None:
        """Set each member of a class to the value, as a bool for a width-1
        symbol."""
        for ref in self.members_of[key]:
            model[ref] = bool(value) if type(ref) is sx.SymRef and ref.width == 1 else value

    def holds(self, c: sx.SymExpr, model: dict) -> bool:
        self.tick()
        return bool(sx.evaluate(c, model))

    def local(self, intervals: dict, rows) -> dict | None:
        """The parent's model clamped into the box, or the first point one or
        two classes away from it, or given by the reduced linear rows, that
        satisfies every conjunct; None if none."""
        point = {}
        for key in self.keys:
            lo, hi = intervals[key]
            point[key] = min(max(self.hint.get(key, lo), lo), hi)
        model = self.model_from(point)
        failing = [keys for c, keys in zip(self.constraints, self.keys_of)
                   if not self.holds(c, model)]
        if not failing:
            return point
        # The query's own integer constants c, with c + 1 and c - 1.
        constants = list(dict.fromkeys(
            v for node in sx.nodes(self.constraints) if isinstance(node, sx.ConstI32)
            for v in (node.value, node.value + 1, node.value - 1)))

        def within(key, values):
            lo, hi = intervals[key]
            return [v for v in dict.fromkeys(values) if lo <= v <= hi and v != point[key]]

        single: dict = {}

        def moves(key):
            """key's single moves and the conjuncts it touches, built on first use."""
            if key not in single:
                single[key] = (
                    within(key, [point[key] + sign * 2**k for k in range(32) for sign in (1, -1)]
                           + list(intervals[key]) + constants),
                    [c for c, keys in zip(self.constraints, self.keys_of) if key in keys])
            return single[key]

        # A conjunct changes value only when one of its variables moves, so a
        # single move can repair every failing conjunct only through a class
        # they all share; the others still hold after it.
        movable = set.intersection(*failing)
        for key in self.keys:
            if key in movable and self.move(key, *moves(key), point, model):
                return point
        solved = self.linear_point(rows, point, intervals)
        if solved is not None:
            solved_model = self.model_from(solved)
            if all(self.holds(c, solved_model) for c in self.constraints):
                return solved
        # Two moves repair the failing conjuncts only if each mentions a or b:
        # a goes to a constant, and a conjunct over a alone must hold then.
        self.cap = self.steps + self.value_quota
        try:
            for a in self.keys:
                for b in self.keys:
                    if a == b or not all(a in keys or b in keys for keys in failing):
                        continue
                    only_a = [c for c, keys in zip(self.constraints, self.keys_of)
                              if a in keys and b not in keys]
                    values = within(a, constants)
                    cost, passing = self.sweep(a, values, only_a, model)
                    charged = 0  # values whose checks of only_a are charged
                    for i in passing:
                        self.charge(sum(cost[charged:i + 1]))
                        charged = i + 1
                        self.bind_class(a, values[i], model)
                        if self.move(b, *moves(b), point, model):
                            point[a] = values[i]
                            return point
                    self.charge(sum(cost[charged:]))
                    self.bind_class(a, point[a], model)
        except _SubtreeQuota:
            pass  # the search takes over
        finally:
            self.cap = None
        return None

    def move(self, key, values, touched, point, model) -> bool:
        """Move one class to the first of `values` under which every conjunct
        it touches holds, charging the steps that trying the values one at a
        time charges; leave it where it is if none does."""
        cost, passing = self.sweep(key, values, touched, model)
        first = passing[0] if passing else len(values)
        self.charge(sum(cost[:first + 1]))
        if not passing:
            return False
        point[key] = values[first]
        self.bind_class(key, values[first], model)
        return True

    def sweep(self, key, values, conjuncts, model):
        """Try every value of one class at once, the other classes staying
        at their values in the model: (cost, passing). cost[i] counts the conjuncts
        that checking values[i] alone evaluates, up to and including the
        first that fails; passing lists, in order, the positions of the
        values under which every conjunct holds. Each conjunct is
        evaluated once, over the values that passed the ones before it,
        so values after the first that passes are evaluated too. The
        caller charges the steps after the sweep, so a deadline that passes
        during it is seen up to one sweep late. A width-1 class's values are
        0 and 1, which every operator reads as False and True."""
        members = self.members_of[key]
        memo: dict = {}  # nodes that do not depend on the class: once for all
        cost = [len(conjuncts)] * len(values)
        passing = list(range(len(values)))
        for i, c in enumerate(conjuncts):
            if not passing:
                break
            held = sx.evaluate_over(c, members, [values[j] for j in passing], model, memo)
            if type(held) is not list:
                held = [held] * len(passing)
            kept = []
            for j, ok in zip(passing, held):
                if ok:
                    kept.append(j)
                else:
                    cost[j] = i + 1
            passing = kept
        return cost, passing

    def search(self, intervals: dict, top: bool = False) -> dict | None:
        """A point of the box that satisfies every conjunct, or None."""
        if not self.propagate(intervals):
            return None
        pick = None
        pick_width = None
        for key in self.keys:
            lo, hi = intervals[key]
            if lo < hi and (pick_width is None or hi - lo < pick_width):
                pick = key
                pick_width = hi - lo
        if pick is None:
            point = {key: intervals[key][0] for key in self.keys}
            model = self.model_from(point)
            for c in self.constraints:
                if not sx.evaluate(c, model):
                    return None
            return point
        lo, hi = intervals[pick]
        hint = self.hint.get(pick)
        hinted = hint is not None and lo <= hint <= hi
        if hi - lo >= 64:
            # Too wide to enumerate: the hint, then the values below and above
            # it; unhinted, bisect, low half first. Re-propagating per range
            # lets pruning keep that preference.
            if hinted:
                ranges = ((hint, hint),) + tuple(
                    r for r in ((lo, hint - 1), (hint + 1, hi)) if r[0] <= r[1]
                )
            else:
                mid = lo + (hi - lo) // 2
                ranges = ((lo, mid), (mid + 1, hi))
        else:
            values = range(lo, hi + 1)
            if hinted:
                values = [hint] + [v for v in values if v != hint]
            ranges = tuple((v, v) for v in values)
        for rng in ranges:
            self.tick()
            child = dict(intervals)
            child[pick] = rng
            saved_cap = self.cap
            if top:
                quota_cap = self.steps + self.value_quota
                self.cap = quota_cap if saved_cap is None else min(saved_cap, quota_cap)
            try:
                result = self.search(child)
            except _SubtreeQuota:
                self.cap = saved_cap
                if saved_cap is not None and self.steps > saved_cap:
                    raise  # an ancestor's quota, not ours
                self.incomplete = True
                continue
            self.cap = saved_cap
            if result is not None:
                return result
        return None

    def solve(self) -> SolveResult:
        intervals = self.initial_intervals()
        try:
            if intervals is None or not self.propagate(intervals):
                return SolveResult(status="unsat")
            rows = self.eliminate(intervals)
            if rows is None:
                return SolveResult(status="unsat")
            point = self.local(intervals, rows)
            if point is None:
                point = self.search(intervals, top=True)
        except _Budget:
            return SolveResult(status="unknown", reason="timeout")
        except (RecursionError, _SubtreeQuota):
            return SolveResult(status="unknown", reason="incomplete")
        if point is None:
            if self.incomplete:
                # Some subtree was abandoned: exhaustion was not proven.
                return SolveResult(status="unknown", reason="incomplete")
            return SolveResult(status="unsat")
        model = self.model_from(point)
        if not eval_model(self.query.constraints, model):
            raise SolverError("unsound model escaped the search")  # soundness gate
        return SolveResult(status="sat", model=model)


def solve(query: Query) -> SolveResult:
    """Decide a conjunction; Sat models are verified before being returned."""
    return _Search(query).solve()


def eval_model(constraints: list[sx.SymExpr], model: dict) -> bool:
    """Whether every constraint holds under the model, with exact wrapping
    semantics."""
    try:
        return all(sx.evaluate(c, model) for c in constraints)
    except KeyError as exc:
        raise SolverError(str(exc)) from None


# --- SMT-LIB2 export -----------------------------------------------------------------


def export_smtlib(query: Query) -> str:
    """QF_BV script for offline cross-checking with an external solver. Each
    leaf's name, each domain bound and each conjunct is an sx.to_prefix term,
    so the script reads x / 0 and x % 0 as 0, as MiniC does."""
    lines = ["(set-logic QF_BV)"]
    refs = sorted({r for c in query.constraints for r in sx.variables(c)}, key=_var_key)
    for ref in refs:
        sort = "Bool" if isinstance(ref, sx.SymRef) and ref.width == 1 else "(_ BitVec 32)"
        lines.append(f"(declare-const {sx.to_prefix(ref)} {sort})")
    bounds = [
        sx.CmpExpr(op, ref, sx.ConstI32(end))
        for ref in refs if isinstance(ref, sx.SymRef) and ref.width == 32
        for op, end in zip((">=", "<="), query.domains.get(ref.symbol_id, ()))
    ]
    for c in bounds + query.constraints:
        lines.append(f"(assert {sx.to_prefix(c)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
