"""Direct AST interpreter used as an independent oracle for the IR pipeline,
a generator of random programs it can evaluate, and a generator of random
record graphs for harness synthesis.

Deliberately separate from the package's interpreter: it walks the typed AST
with its own arithmetic, so agreement with the lowered-IR interpreter is
meaningful. Scalar programs only (ints and bools, no memory objects).
"""

from __future__ import annotations

from coyote_mc.minic import ast


class DivByZero(Exception):
    pass


class _ReturnValue(Exception):
    def __init__(self, value):
        self.value = value


def _wrap(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


def _eval(e: ast.Expr, env: dict, program) -> object:
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.BoolLit):
        return e.value
    if isinstance(e, ast.VarRef):
        return env[e.name]
    if isinstance(e, ast.Unary):
        if e.op == "-":
            return _wrap(-_eval(e.operand, env, program))
        if e.op == "!":
            return not _eval(e.operand, env, program)
        raise NotImplementedError(f"oracle cannot evaluate unary {e.op!r}")
    if isinstance(e, ast.Binary):
        if e.op == "&&":
            return bool(_eval(e.lhs, env, program)) and bool(_eval(e.rhs, env, program))
        if e.op == "||":
            return bool(_eval(e.lhs, env, program)) or bool(_eval(e.rhs, env, program))
        a = _eval(e.lhs, env, program)
        b = _eval(e.rhs, env, program)
        if e.op == "+":
            return _wrap(a + b)
        if e.op == "-":
            return _wrap(a - b)
        if e.op == "*":
            return _wrap(a * b)
        if e.op in ("/", "%"):
            if b == 0:
                raise DivByZero()
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return _wrap(q) if e.op == "/" else _wrap(a - _wrap(q * b))
        if e.op == "==":
            return a == b
        if e.op == "!=":
            return a != b
        if e.op == "<":
            return a < b
        if e.op == "<=":
            return a <= b
        if e.op == ">":
            return a > b
        if e.op == ">=":
            return a >= b
    if isinstance(e, ast.Call):
        args = [_eval(a, env, program) for a in e.args]
        return call_function(program, e.name, args)
    raise NotImplementedError(f"oracle cannot evaluate {type(e).__name__}")


def _exec(s: ast.Stmt, env: dict, program) -> None:
    if isinstance(s, ast.Block):
        for inner in s.stmts:
            _exec(inner, env, program)
    elif isinstance(s, ast.VarDecl):
        env[s.name] = _eval(s.init, env, program) if s.init is not None else None
    elif isinstance(s, ast.Assign):
        assert isinstance(s.target, ast.VarRef), "oracle handles scalar variables only"
        env[s.target.name] = _eval(s.value, env, program)
    elif isinstance(s, ast.If):
        if _eval(s.cond, env, program):
            _exec(s.then_body, env, program)
        elif s.else_body is not None:
            _exec(s.else_body, env, program)
    elif isinstance(s, ast.While):
        while _eval(s.cond, env, program):
            _exec(s.body, env, program)
    elif isinstance(s, ast.Return):
        raise _ReturnValue(None if s.value is None else _eval(s.value, env, program))
    elif isinstance(s, ast.ExprStmt):
        _eval(s.expr, env, program)
    else:
        raise NotImplementedError(f"oracle cannot execute {type(s).__name__}")


def call_function(program, name: str, args: list):
    fn = program.functions[name]
    env = {pname: arg for (pname, _), arg in zip(fn.params, args)}
    try:
        _exec(fn.body, env, program)
    except _ReturnValue as ret:
        return ret.value
    return None


class ProgramGen:
    """Random scalar MiniC programs with guaranteed termination."""

    def __init__(self, rng):
        self.rng = rng

    def int_expr(self, names, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.3:
            if names and r.random() < 0.6:
                return r.choice(names)
            return str(r.randrange(-20, 100)).replace("-", "0 - ")
        op = r.choice(["+", "-", "*", "/", "%"])
        return (
            f"({self.int_expr(names, depth - 1)} {op} {self.int_expr(names, depth - 1)})"
        )

    def bool_expr(self, names, depth):
        r = self.rng
        if depth <= 0 or r.random() < 0.4:
            op = r.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"({self.int_expr(names, 1)} {op} {self.int_expr(names, 1)})"
        kind = r.choice(["&&", "||", "!"])
        if kind == "!":
            return f"(!{self.bool_expr(names, depth - 1)})"
        return f"({self.bool_expr(names, depth - 1)} {kind} {self.bool_expr(names, depth - 1)})"

    def stmts(self, names, depth, budget):
        r = self.rng
        out = []
        for _ in range(r.randrange(1, 4)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            kind = r.random()
            if kind < 0.5 or depth <= 0:
                out.append(f"{r.choice(names)} = {self.int_expr(names, 2)};")
            elif kind < 0.8:
                body = self.stmts(names, depth - 1, budget)
                block = " ".join(body)
                if r.random() < 0.5:
                    alt = " ".join(self.stmts(names, depth - 1, budget))
                    out.append(
                        f"if ({self.bool_expr(names, 1)}) {{ {block} }} else {{ {alt} }}"
                    )
                else:
                    out.append(f"if ({self.bool_expr(names, 1)}) {{ {block} }}")
            else:
                loop_var = f"k{r.randrange(1000)}"
                body = " ".join(self.stmts(names, 0, budget))
                out.append(
                    f"int {loop_var} = 0; while ({loop_var} < {r.randrange(1, 5)}) "
                    f"{{ {body} {loop_var} = {loop_var} + 1; }}"
                )
        return out or [f"{r.choice(names)} = 0;"]

    def program(self, index):
        r = self.rng
        params = [f"p{i}" for i in range(r.randrange(1, 4))]
        locals_ = [f"v{i}" for i in range(r.randrange(1, 3))]
        names = params + locals_
        decls = " ".join(f"int {v} = {r.randrange(-5, 10)};" for v in locals_)
        body = " ".join(self.stmts(names, 2, [12]))
        ret = self.int_expr(names, 2)
        src = (
            f"int f{index}({', '.join('int ' + p for p in params)}){{ "
            f"{decls} {body} return {ret}; }}"
        )
        return src, f"f{index}", len(params)


def record_graph_source(rng, round_no: int) -> str:
    """1-4 random records (scalars, nested records, pointers, arrays) and an
    `int target(...)` taking the last one by value or by pointer."""
    n_records = rng.randint(1, 4)
    names = [f"R{round_no}_{i}" for i in range(n_records)]
    decls = []
    for i, name in enumerate(names):
        fields = []
        for j in range(rng.randint(1, 8)):
            choice = rng.random()
            if choice < 0.5:
                fields.append(f"{rng.choice(['int', 'bool'])} f{j};")
            elif choice < 0.7 and i > 0:
                fields.append(f"{names[rng.randrange(i)]} f{j};")
            elif choice < 0.85:
                target = names[rng.randrange(n_records)]
                fields.append(f"{target}* f{j};")
            else:
                fields.append(f"int f{j}[{rng.randint(1, 4)}];")
        decls.append(f"record {name} {{ {' '.join(fields)} }}")
    param_t = names[-1]
    by_ptr = rng.random() < 0.5
    return "\n".join(decls) + (
        f"\nint target({param_t}{'*' if by_ptr else ''} p){{ return 0; }}"
    )
