"""Seeded generator for the `project_wide` workload.

`generate_project(seed)` returns MiniC source files as (path, text) pairs.
The benchmark hands only these texts to the program. The template mix is
fixed (every template appears the same number of times), so a seed changes
constants, names and order but not the amount of work, which keeps the
figures of different seeds comparable.

Templates and why each is in the mix:
- `guard`: nested comparisons; cheap sat queries and one dead branch.
- `infeasible`: a branch that contradicts its guard; the flip is unsat.
- `correlated`: two parameters tied by equalities; sat queries with two
  constrained variables, and a branch that contradicts `p == q`.
- `index`: a symbolic array index; an index check and its finding.
- `divide`: division by a symbolic difference; a division check, its
  finding and a dead branch.
- `record_ptr`: a record behind a pointer; null checks, field stores and a
  branch that contradicts its guard.
- `record_val`: a record passed by value; symbolic initializers.
- `external`: a call to an external function; a stub with fresh values.
- `domain`: a bounded loop on an `@domain`-annotated parameter, and a branch
  the loop count rules out.
- `caller`: calls another function of the project; cross-function paths
  and a dead branch on the returned value.
"""

from __future__ import annotations

import random

TEMPLATES = (
    "guard", "infeasible", "correlated", "index", "divide",
    "record_ptr", "record_val", "external", "domain", "caller",
)


def _guard(r: random.Random, name: str, ctx: dict) -> str:
    a, b = r.randint(-50, 50), r.randint(1, 30)
    return (
        f"int {name}(int a, int b) {{\n"
        f"    if (a > {a}) {{\n"
        f"        if (b < a - {b}) {{ return a - b; }}\n"
        f"        if (a < {a - b}) {{ return 99; }}\n"
        f"        return b;\n"
        f"    }}\n"
        f"    if (b == {a + b}) {{ return 1; }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _infeasible(r: random.Random, name: str, ctx: dict) -> str:
    c, d = r.randint(-40, 40), r.randint(2, 9)
    return (
        f"int {name}(int x, int y) {{\n"
        f"    int r = 0;\n"
        f"    if (x > {c}) {{\n"
        f"        r = 1;\n"
        f"        if (x < {c - d}) {{ r = 99; }}\n"
        f"    }}\n"
        f"    if (y > x && y < x + {d}) {{ r = r + 2; }}\n"
        f"    return r;\n"
        f"}}\n"
    )


def _correlated(r: random.Random, name: str, ctx: dict) -> str:
    c, d = r.randint(-100, 100), r.randint(1, 20)
    return (
        f"int {name}(int p, int q) {{\n"
        f"    if (p + q == {c}) {{\n"
        f"        if (p - q == {2 * d}) {{ return 2; }}\n"
        f"        return 1;\n"
        f"    }}\n"
        f"    if (p == q) {{\n"
        f"        if (p < q) {{ return 99; }}\n"
        f"        return 3;\n"
        f"    }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _index(r: random.Random, name: str, ctx: dict) -> str:
    n, c = r.randint(3, 6), r.randint(-20, 20)
    return (
        f"int {name}(int v[{n}], int i) {{\n"
        f"    if (v[0] > {c}) {{\n"
        f"        return v[i];\n"
        f"    }}\n"
        f"    return v[{n - 1}];\n"
        f"}}\n"
    )


def _divide(r: random.Random, name: str, ctx: dict) -> str:
    c, k = r.randint(-30, 30), r.randint(2, 9)
    return (
        f"int {name}(int a, int b) {{\n"
        f"    int q = 0;\n"
        f"    if (a > {c}) {{\n"
        f"        q = a / (b - {k});\n"
        f"        if (a < {c}) {{ q = 99; }}\n"
        f"    }}\n"
        f"    if (q > {k}) {{ return q; }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _record_ptr(r: random.Random, name: str, ctx: dict) -> str:
    rec, c = ctx["record"], r.randint(-10, 40)
    return (
        f"int {name}({rec}* p, int k) {{\n"
        f"    if (p != null) {{\n"
        f"        if (p.x > {c}) {{\n"
        f"            p.y = p.x + k;\n"
        f"            if (p.y == {c + 7}) {{ return 2; }}\n"
        f"            if (p.x < {c}) {{ return 99; }}\n"
        f"            return 1;\n"
        f"        }}\n"
        f"        return 0;\n"
        f"    }}\n"
        f"    return 0 - 1;\n"
        f"}}\n"
    )


def _record_val(r: random.Random, name: str, ctx: dict) -> str:
    rec, c = ctx["record"], r.randint(0, 50)
    return (
        f"int {name}({rec} s) {{\n"
        f"    int w = s.y - s.x;\n"
        f"    if (w > {c}) {{\n"
        f"        if (s.flag) {{ return w; }}\n"
        f"        return 1;\n"
        f"    }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _external(r: random.Random, name: str, ctx: dict) -> str:
    ext, c = ctx["external"], r.randint(1, 60)
    return (
        f"int {name}(int a) {{\n"
        f"    int v = {ext}(a);\n"
        f"    if (v == a + {c}) {{ return 1; }}\n"
        f"    if (v < 0) {{ return 2; }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _domain(r: random.Random, name: str, ctx: dict) -> str:
    hi, c = r.randint(6, 10), r.randint(5, 30)
    return (
        f"// @domain(0,{hi})\n"
        f"int {name}(int n, int k) {{\n"
        f"    int s = 0;\n"
        f"    int i = 0;\n"
        f"    while (i < n) {{\n"
        f"        s = s + k;\n"
        f"        i = i + 1;\n"
        f"    }}\n"
        f"    if (s > {c}) {{\n"
        f"        if (n == 0) {{ return 99; }}\n"
        f"        return 1;\n"
        f"    }}\n"
        f"    return 0;\n"
        f"}}\n"
    )


def _caller(r: random.Random, name: str, ctx: dict) -> str:
    callee, c = ctx["callee"], r.randint(-5, 5)
    return (
        f"int {name}(int a, int b) {{\n"
        f"    int t = {callee}(a, b);\n"
        f"    if (t > {c}) {{\n"
        f"        if (t < {c - 1}) {{ return 99; }}\n"
        f"        return t;\n"
        f"    }}\n"
        f"    return {c};\n"
        f"}}\n"
    )


_EMIT = {
    "guard": _guard, "infeasible": _infeasible, "correlated": _correlated,
    "index": _index, "divide": _divide, "record_ptr": _record_ptr,
    "record_val": _record_val, "external": _external, "domain": _domain,
    "caller": _caller,
}
# Templates with signature (int, int) -> int, which `caller` may call.
_CALLABLE = ("guard", "infeasible", "correlated", "divide")


def generate_project(seed: int, n_files: int = 10, per_file: int = 8) -> list[tuple[str, str]]:
    """MiniC sources of a seeded project: n_files files of per_file functions."""
    r = random.Random(seed)
    total = n_files * per_file
    kinds = [TEMPLATES[i % len(TEMPLATES)] for i in range(total)]
    r.shuffle(kinds)
    names = [f"{kind}_{i // per_file}_{i % per_file}" for i, kind in enumerate(kinds)]
    callees = [n for n, kind in zip(names, kinds) if kind in _CALLABLE]
    files: list[tuple[str, str]] = []
    for f in range(n_files):
        ctx = {"record": f"Rec{f}", "external": f"ext{f}"}
        parts = [
            f"record {ctx['record']} {{ int x; int y; bool flag; }}\n",
            f"external int {ctx['external']}(int a);\n",
        ]
        for i in range(f * per_file, (f + 1) * per_file):
            ctx["callee"] = r.choice(callees)
            parts.append(_EMIT[kinds[i]](r, names[i], ctx))
        files.append((f"proj/m{f:02d}.mc", "\n".join(parts)))
    return files
