"""Frontend tests: parsing, linking, diagnostics, function listing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coyote_mc import ir
from coyote_mc.diagnostics import DiagnosticList
from coyote_mc.minic import ast as mc_ast
from coyote_mc.minic import types as ty
from coyote_mc.minic.linker import link_program, list_functions
from coyote_mc.minic.parser import parse_text


def link_sources(*sources):
    units = [parse_text(f"u{i}.mc", text) for i, text in enumerate(sources)]
    return link_program(units)


class TestParse:
    def test_minimal_function(self):
        unit = parse_text("a.mc", "int id(int x){ return x; }")
        assert len(unit.functions) == 1
        fn = unit.functions[0]
        assert fn.name == "id"
        assert fn.params == [("x", ty.INT32)]
        assert fn.return_type == ty.INT32

    def test_record_two_fields(self):
        unit = parse_text("a.mc", "record Point { int x; int y; }")
        assert len(unit.records) == 1
        rec = unit.records[0]
        assert rec.name == "Point"
        assert rec.fields == [("x", ty.INT32), ("y", ty.INT32)]

    def test_syntax_error_has_location(self):
        with pytest.raises(DiagnosticList) as exc:
            parse_text("a.mc", "int f(){ return }")
        diags = list(exc.value)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].loc.path == "a.mc"
        assert diags[0].loc.line == 1
        assert "expected" in diags[0].message

    def test_diagnostic_render_format(self):
        with pytest.raises(DiagnosticList) as exc:
            parse_text("dir/a.mc", "int f(){ return }")
        line = exc.value.render()
        assert line.startswith("dir/a.mc:1:")
        assert ": error: " in line

    def test_every_node_has_location(self):
        unit = parse_text(
            "a.mc",
            "int f(int a, int b){ if (a < b) { return a * 2; } return b + 1; }",
        )
        fn = unit.functions[0]

        def walk(node):
            if isinstance(node, (mc_ast.Stmt, mc_ast.Expr)):
                assert node.loc.path == "a.mc"
                assert node.loc.line >= 1 and node.loc.col >= 1
            for attr in ("stmts", "args"):
                for child in getattr(node, attr, []) or []:
                    walk(child)
            for attr in ("cond", "then_body", "else_body", "body", "value",
                         "target", "init", "expr", "lhs", "rhs", "operand",
                         "base", "index"):
                child = getattr(node, attr, None)
                if child is not None and not isinstance(child, (str, int, bool)):
                    walk(child)

        walk(fn.body)

    def test_domain_annotation_attaches(self):
        unit = parse_text(
            "a.mc",
            "// @domain(-8,7)\nint f(int x){ return x; }\nint g(int y){ return y; }",
        )
        assert unit.functions[0].domain == (-8, 7)
        assert unit.functions[1].domain is None

    def test_pointer_and_array_declarators(self):
        unit = parse_text("a.mc", "void f(int** pp, int v[4], Point* p){ return; }")
        assert unit.functions[0].params[0][1] == ty.Address(ty.Address(ty.INT32))
        assert unit.functions[0].params[1][1] == ty.Array(ty.INT32, 4)
        assert unit.functions[0].params[2][1] == ty.Address(ty.Record("Point"))


def _nested(kind, n):
    """A function whose body nests `n` levels of one kind."""
    return {
        "parentheses": "int f(int x){ return " + "(" * n + "x" + ")" * n + "; }",
        "minus": "int f(int x){ return " + "- " * n + "x; }",
        "not": "bool f(bool b){ return " + "!" * n + "b; }",
        "blocks": "int f(int x){ " + "{ " * n + "x = x + 1; " + "} " * n + "return x; }",
        "ifs": "int f(int x){ " + "if (x > 0) " * n + "x = 1; return x; }",
        "whiles": "int f(int x){ " + "while (x > 0) " * n + "x = 0; return x; }",
        "indexes": "int f(int x){ int a[2]; a[0] = 0; return " + "a[" * n + "0" + "]" * n + "; }",
        "calls": "int g(int y){ return y; } int f(int x){ return " + "g(" * n + "x" + ")" * n + "; }",
    }[kind]


class TestNesting:
    @pytest.mark.parametrize("kind", ["parentheses", "minus", "not", "blocks", "ifs", "whiles",
                                      "indexes", "calls"])
    def test_deep_nesting_is_a_diagnostic(self, kind):
        with pytest.raises(DiagnosticList) as exc:
            parse_text("a.mc", _nested(kind, 1000))
        assert "nested more than 127 levels deep" in exc.value.render()

    @pytest.mark.parametrize("kind", ["parentheses", "blocks"])
    def test_127_levels_parse_link_and_lower(self, kind):
        module = ir.inject_checks(ir.lower(link_sources(_nested(kind, 127))))
        assert "f" in module.functions
        with pytest.raises(DiagnosticList):
            parse_text("a.mc", _nested(kind, 128))


# The MiniC printer: source that re-parses to an equal tree. Nothing in the
# package prints MiniC (the harness writes its source as text), so it lives
# beside the round-trip test and `_shape`, which use it.
_UNARY_PREC = 7


def _array_suffix(t: ty.TypeExpr) -> str:
    return f"[{t.length}]" if isinstance(t, ty.Array) else ""


def format_expr(e: mc_ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(e, mc_ast.IntLit):
        return str(e.value)
    if isinstance(e, mc_ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, mc_ast.NullLit):
        return "null"
    if isinstance(e, mc_ast.VarRef):
        return e.name
    if isinstance(e, mc_ast.Unary):
        inner = format_expr(e.operand, _UNARY_PREC)
        text = f"{e.op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    if isinstance(e, mc_ast.Binary):
        prec = mc_ast.BINARY_PREC[e.op]
        lhs = format_expr(e.lhs, prec)
        rhs = format_expr(e.rhs, prec + 1)  # left-associative
        text = f"{lhs} {e.op} {rhs}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(e, mc_ast.Call):
        args = ", ".join(format_expr(a) for a in e.args)
        return f"{e.name}({args})"
    # A postfix base binds tighter than a unary operator: `(*p).x`, not `*p.x`.
    if isinstance(e, mc_ast.FieldAccess):
        return f"{format_expr(e.base, _UNARY_PREC + 1)}.{e.field_name}"
    if isinstance(e, mc_ast.IndexAccess):
        return f"{format_expr(e.base, _UNARY_PREC + 1)}[{format_expr(e.index)}]"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def _format_stmt(s: mc_ast.Stmt, out: list[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(s, mc_ast.Block):
        out.append(pad + "{")
        for inner in s.stmts:
            _format_stmt(inner, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(s, mc_ast.VarDecl):
        decl = f"{mc_ast.format_type(s.decl_type)} {s.name}{_array_suffix(s.decl_type)}"
        if s.init is not None:
            decl += f" = {format_expr(s.init)}"
        out.append(pad + decl + ";")
    elif isinstance(s, mc_ast.Assign):
        out.append(pad + f"{format_expr(s.target)} = {format_expr(s.value)};")
    elif isinstance(s, mc_ast.If):
        out.append(pad + f"if ({format_expr(s.cond)})")
        _format_stmt(s.then_body, out, indent + 1)
        if s.else_body is not None:
            out.append(pad + "else")
            _format_stmt(s.else_body, out, indent + 1)
    elif isinstance(s, mc_ast.While):
        out.append(pad + f"while ({format_expr(s.cond)})")
        _format_stmt(s.body, out, indent + 1)
    elif isinstance(s, mc_ast.Return):
        if s.value is None:
            out.append(pad + "return;")
        else:
            out.append(pad + f"return {format_expr(s.value)};")
    elif isinstance(s, mc_ast.Assert):
        out.append(pad + f"assert({format_expr(s.cond)});")
    elif isinstance(s, mc_ast.ExprStmt):
        out.append(pad + f"{format_expr(s.expr)};")
    else:
        raise TypeError(f"unknown statement node {type(s).__name__}")


def format_ast(unit: mc_ast.Ast) -> str:
    """Render a unit back to MiniC source."""
    out: list[str] = []
    for rec in unit.records:
        out.append(f"record {rec.name} {{")
        for fname, ftype in rec.fields:
            out.append(f"    {mc_ast.format_type(ftype)} {fname}{_array_suffix(ftype)};")
        out.append("}")
        out.append("")
    for fn in unit.functions:
        if fn.domain is not None:
            out.append(f"// @domain({fn.domain[0]},{fn.domain[1]})")
        params = ", ".join(
            f"{mc_ast.format_type(t)} {n}{_array_suffix(t)}" for n, t in fn.params
        )
        head = f"{mc_ast.format_type(fn.return_type)} {fn.name}({params})"
        if fn.external:
            out.append(f"external {head};")
        else:
            out.append(head)
            _format_stmt(fn.body, out, 0)
        out.append("")
    return "\n".join(out).rstrip() + "\n"


class TestRoundTrip:
    SOURCES = [
        "int id(int x){ return x; }",
        "record Point { int x; int y; }\n"
        "int get(Point* p){ return p.x + p.y; }",
        "int clamp(int v, int lo, int hi){\n"
        "  if (v < lo) { return lo; }\n"
        "  if (v > hi) { return hi; }\n"
        "  return v;\n"
        "}",
        "int sum(int v[4]){ int s = 0; int i = 0;\n"
        "  while (i < 4) { s = s + v[i]; i = i + 1; }\n"
        "  return s; }",
        "external int rng();\n"
        "bool both(bool a, bool b){ return a && (b || !a); }",
        "// @domain(0,15)\nint neg(int x){ return -x; }",
        "record L { int v; L* next; }\n"
        "int first(L* n){ if (n != null) { return n.v; } return 0 - 1; }",
        "record P { int x; int a[2]; }\n"
        "int f(P* p){ return (*p).x + (*p).a[1]; }",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_pretty_print_reparses_identically(self, src):
        unit = parse_text("a.mc", src)
        printed = format_ast(unit)
        reparsed = parse_text("a.mc", printed)
        assert unit == reparsed


# MiniC's binary operators, loosest first; the test's own copy of the grammar.
_LEVELS = [("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*", "/", "%")]
_PREC = {op: level for level, ops in enumerate(_LEVELS, 1) for op in ops}


def _spell(tree, parent_prec=0):
    """A generated expression as (fully parenthesised, minimally
    parenthesised) texts of equal length: the minimal text has a blank where
    a parenthesis is not needed, so every other token keeps its column."""
    if isinstance(tree, str):
        return tree, tree
    op, lhs, rhs = tree
    prec = _PREC[op]
    lhs_full, lhs_min = _spell(lhs, prec)
    rhs_full, rhs_min = _spell(rhs, prec + 1)  # left-associative
    open_, close = "()" if parent_prec > prec else "  "
    return f"({lhs_full} {op} {rhs_full})", f"{open_}{lhs_min} {op} {rhs_min}{close}"


def _shape(e, line):
    """Binary nodes as (op, lhs, rhs, col) after checking that each one's
    location is its operator's; other nodes as their printed text."""
    if not isinstance(e, mc_ast.Binary):
        return format_expr(e)
    assert line[e.loc.col - 1:].startswith(e.op) and e.loc.line == 1
    return (e.op, _shape(e.lhs, line), _shape(e.rhs, line), e.loc.col)


def _strip_cols(shape):
    if isinstance(shape, str):
        return shape
    op, lhs, rhs, _ = shape
    return (op, _strip_cols(lhs), _strip_cols(rhs))


@st.composite
def _expressions(draw):
    """A tree of 1-12 binary operators, of any shape, over simple operands."""

    def tree(n_ops):
        if n_ops == 0:
            return draw(st.sampled_from(["a", "7", "-c", "!d", "f(x)", "p.y", "v[2]"]))
        n_left = draw(st.integers(0, n_ops - 1))
        return (draw(st.sampled_from(sorted(_PREC))), tree(n_left), tree(n_ops - 1 - n_left))

    return tree(draw(st.integers(1, 12)))


@settings(max_examples=300)  # enough trees to meet most ordered operator pairs
@given(_expressions())
def test_binary_operators_parse_by_precedence(tree):
    assert len(_PREC) == 13
    shapes = []
    for text in _spell(tree):
        line = f"int f(){{ return {text}; }}"
        [ret] = parse_text("p.mc", line).functions[0].body.stmts
        shapes.append(_shape(ret.value, line))
    full, minimal = shapes
    assert full == minimal  # same tree, same operator locations
    assert _strip_cols(full) == tree


class TestLink:
    def test_cross_unit_call(self):
        program = link_sources(
            "int helper(int x){ return x + 1; }",
            "int top(int y){ return helper(y); }",
        )
        user_fns = {n for n, f in program.functions.items() if not n.startswith("__sym")}
        assert user_fns == {"helper", "top"}
        assert program.file_of["helper"] == "u0.mc"

    def test_unresolved_function(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources("int f(int x){ return g(x); }")
        assert any("unresolved function 'g'" in d.message for d in exc.value)

    def test_value_recursion_rejected_pointer_ok(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources("record L { int v; L next; }")
        assert any("contains itself by value" in d.message for d in exc.value)
        program = link_sources("record L { int v; L* next; }")
        assert "L" in program.records

    def test_value_recursion_oracle(self):
        # Oracle: occurs-check over the field graph excluding Address edges.
        # Randomized record graphs; compare linker acceptance to a direct
        # reachability computation.
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            names = [f"R{i}" for i in range(n)]
            fields = {}
            for i in range(n):
                fields[i] = []
                for j in range(rng.randint(1, 3)):
                    target = rng.randrange(n)
                    via_ptr = rng.random() < 0.5
                    fields[i].append((f"f{j}", target, via_ptr))
            src_parts = []
            for i in range(n):
                body = "".join(
                    f"{names[t]}{'*' if p else ''} {fname};"
                    for fname, t, p in fields[i]
                )
                src_parts.append(f"record {names[i]} {{ {body} }}")
            src = "\n".join(src_parts)

            value_edges = {
                i: {t for _, t, p in fields[i] if not p} for i in range(n)
            }

            def reaches(start, goal, seen=None):
                seen = seen or set()
                for nxt in value_edges[start]:
                    if nxt == goal:
                        return True
                    if nxt not in seen:
                        seen.add(nxt)
                        if reaches(nxt, goal, seen):
                            return True
                return False

            has_cycle = any(reaches(i, i) for i in range(n))
            try:
                link_sources(src)
                linked_ok = True
            except DiagnosticList:
                linked_ok = False
            assert linked_ok == (not has_cycle), src

    def test_all_failures_listed(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources("int f(int x){ return g(x); }\nint h(bool b){ return q(b); }")
        messages = [d.message for d in exc.value]
        assert any("'g'" in m for m in messages)
        assert any("'q'" in m for m in messages)

    def test_arity_and_type_mismatch(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources(
                "int f(int x){ return x; }\n"
                "int a(){ return f(1, 2); }\n"
                "int b(bool c){ return f(c); }"
            )
        messages = " | ".join(d.message for d in exc.value)
        assert "expected 1 arguments" in messages
        assert "type mismatch" in messages

    def test_missing_return_path(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources("int f(int x){ if (x > 0) { return 1; } }")
        assert any("not all paths return" in d.message for d in exc.value)

    def test_record_return_rejected(self):
        with pytest.raises(DiagnosticList) as exc:
            link_sources("record P { int x; }\nP make(){ return; }")
        assert any("return types are not supported" in d.message for d in exc.value)

    @pytest.mark.parametrize("stmt", ["R s; s = r;", "R s = r;", "int u[2] = t;"])
    def test_aggregate_assignment_rejected(self, stmt):
        # Lowering would store the source's address into the destination's
        # first cell, so a declaration's initializer is rejected like an
        # assignment, even when both sides have the same type.
        with pytest.raises(DiagnosticList) as exc:
            link_sources("record R { int x; }\n"
                         f"int f(R r){{ int t[2]; t[0] = 1; {stmt} return 0; }}")
        assert [d.message for d in exc.value] == [
            "whole-record and whole-array assignment is not supported"]

    def test_external_stays_bodiless(self):
        program = link_sources("external int rng();\nint f(){ return rng(); }")
        assert program.functions["rng"].external
        assert program.functions["rng"].body is None


class TestLinkOnBase:
    BASE = "record P { int x; }\nexternal int rng();\nint f(P* p){ return p.x + rng(); }"

    def test_unit_shares_the_base_and_leaves_it_as_it_was(self):
        base = link_sources(self.BASE)
        tables = (dict(base.functions), dict(base.file_of), dict(base.order))
        unit = link_program(
            [parse_text("h.mc", "int rng(){ return 4; }\nint g(P* p){ return f(p) + p.x; }")],
            base=base,
        )
        assert unit.base is base and unit.records is base.records
        assert unit.functions["f"] is base.functions["f"]
        assert not unit.functions["rng"].external and unit.file_of["rng"] == "h.mc"
        assert "g" in unit.functions and "g" not in base.functions
        assert (base.functions, base.file_of, base.order) == tables
        assert base.functions["rng"].external

    @pytest.mark.parametrize("source, message", [
        ("record Q { int y; }", "must be declared in the program"),
        ("int P(){ return 0; }", "duplicate definition of 'P'"),
        ("external int rng();", "duplicate definition of 'rng'"),
        ("int rng(){ return 1; }\nint rng(){ return 2; }", "duplicate definition of 'rng'"),
        ("int rng(int seed){ return seed; }", "does not match its external declaration"),
        ("int g(Q q){ return 0; }", "unresolved record type 'Q'"),
    ])
    def test_rejected_units(self, source, message):
        base = link_sources(self.BASE)
        with pytest.raises(DiagnosticList) as exc:
            link_program([parse_text("h.mc", source)], base=base)
        assert any(message in d.message for d in exc.value)


class TestListFunctions:
    def test_default_all_non_external(self):
        program = link_sources(
            "external int rng();\nint b(){ return 1; }\nint a(){ return 2; }",
            "int z(){ return 3; }",
        )
        names, warnings = list_functions(program)
        assert names == ["b", "a", "z"]  # file order, then position
        assert warnings == []

    def test_exclude_pattern(self):
        program = link_sources(
            "int helper_one(){ return 1; }\nint main_fn(){ return 2; }"
        )
        names, _ = list_functions(program, exclude=["helper*"])
        assert names == ["main_fn"]

    def test_only_externals_gives_empty(self):
        program = link_sources("external int rng();")
        names, _ = list_functions(program)
        assert names == []

    def test_unmatched_pattern_warns(self):
        program = link_sources("int a(){ return 1; }")
        names, warnings = list_functions(program, include=["nope*"])
        assert names == []
        assert warnings

    def test_stable_under_repetition(self):
        program = link_sources(
            "int c(){ return 1; }\nint a(){ return 2; }\nint b(){ return 3; }"
        )
        first, _ = list_functions(program, include=["*"], exclude=["b"])
        for _ in range(5):
            again, _ = list_functions(program, include=["*"], exclude=["b"])
            assert again == first
