"""Harness planning and generation tests, including the Point/bound golden."""

import dataclasses
import random
import re

import pytest

from coyote_mc.diagnostics import InternalError
from coyote_mc.harness import HarnessError, assemble_unit, gen_stub, plan_harness
from coyote_mc.minic import types as ty
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

from ast_oracle import record_graph_source

POINT_SRC = """\
record Point { int x; int y; }

void Point_init(Point* p, int x, int y) {
    p.x = x;
    p.y = y;
    return;
}

void bound(Point* this, Point min, Point max) {
    if (this.x < min.x) { this.x = min.x; }
    if (this.x > max.x) { this.x = max.x; }
    if (this.y < min.y) { this.y = min.y; }
    if (this.y > max.y) { this.y = max.y; }
    return;
}
"""


def link(src, path="a.mc"):
    return link_program([parse_text(path, src)])


def function_text(source, name):
    """The generated function `name`, read out of a harness source."""
    for chunk in source.split("\n\n"):
        if re.match(rf"\S+ {re.escape(name)}\(", chunk):
            return chunk if chunk.endswith("\n") else chunk + "\n"
    raise AssertionError(f"no function {name} in the harness source")


class TestPlan:
    def test_bound_six_symbols(self):
        program = link(POINT_SRC)
        plan = plan_harness(program, "bound")
        assert [e.path for e in plan.symbol_map.entries] == [
            "this.x", "this.y", "min.x", "min.y", "max.x", "max.y",
        ]
        assert [e.symbol_id for e in plan.symbol_map.entries] == list(range(6))
        assert [i.record_name for i in plan.initializers] == ["Point"]
        assert plan.stubs == []
        assert plan.driver_name == "__DRIVER_bound"

    def test_scalar_target(self):
        program = link("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        plan = plan_harness(program, "abs")
        assert len(plan.symbol_map.entries) == 1
        assert plan.initializers == []
        assert plan.stubs == []

    def test_external_reachability_forces_stub(self):
        program = link(
            "external int rng();\n"
            "int helper(){ return rng(); }\n"
            "int top(int x){ return x + helper(); }\n"
            "int unrelated(int y){ return y; }"
        )
        plan = plan_harness(program, "top")
        assert [s.external_name for s in plan.stubs] == ["rng"]
        assert plan_harness(program, "unrelated").stubs == []

    def test_errors(self):
        program = link("int f(int x){ return x; }\nexternal int g();")
        with pytest.raises(HarnessError):
            plan_harness(program, "missing")
        with pytest.raises(HarnessError):
            plan_harness(program, "f", depth_limit=0)
        with pytest.raises(HarnessError):
            plan_harness(program, "g")

    def test_symbol_ids_dense_preorder(self):
        program = link(
            "record Inner { int a; bool b; }\n"
            "record Outer { Inner first; int tail[3]; }\n"
            "int f(Outer o, int extra){ return o.first.a + extra; }"
        )
        plan = plan_harness(program, "f")
        entries = plan.symbol_map.entries
        assert [e.symbol_id for e in entries] == list(range(len(entries)))
        assert [e.path for e in entries] == [
            "o.first.a", "o.first.b", "o.tail[0]", "o.tail[1]", "o.tail[2]", "extra",
        ]
        assert entries[1].width == 1

    def test_recursive_list_depth_rule(self):
        program = link(
            "record List { int v; List* next; }\n"
            "int head(List* n){ if (n != null) { return n.v; } return 0; }"
        )
        plan = plan_harness(program, "head", depth_limit=2)
        assert [e.path for e in plan.symbol_map.entries] == ["n.v", "n.next.v"]
        assert plan.source.count("= null;") == 1  # chain of 2 then null

    def test_every_planned_initializer_is_called(self):
        # The driver initializes parameters only; a record reachable from the
        # return type alone gets no initializer.
        sources = {
            "mk": "record P { int x; P* next; }\nP* mk(int a){ return null; }",
            "walk": "record P { int x; P* next; }\nrecord Q { int y; }\n"
                    "Q* walk(P* p){ return null; }",
            "pair": "record A { int a; }\nrecord B { A inner; B* up; }\n"
                    "B* pair(A a, B b){ return null; }",
        }
        for target, src in sources.items():
            program = link(src)
            plan = plan_harness(program, target)
            text = plan.source
            defined = set(re.findall(r"^void (__SYM_\w+)\(", text, re.M))
            called = set(re.findall(r"^ +(__SYM_\w+)\(", text, re.M))
            assert defined == {spec.fn_name for spec in plan.initializers}
            assert defined == called, target
        assert plan_harness(link(sources["mk"]), "mk").initializers == []

    def test_domain_annotation_propagates(self):
        program = link("// @domain(-8,7)\nint f(int x, int y){ return x + y; }")
        plan = plan_harness(program, "f")
        assert all(e.domain == (-8, 7) for e in plan.symbol_map.entries)


class TestGeneration:
    def test_point_initializer_binds_both_fields(self):
        program = link(POINT_SRC)
        plan = plan_harness(program, "bound")
        text = function_text(plan.source, plan.initializers[0].fn_name)
        assert "__sym_i32(baseId, &obj.x);" in text
        assert "__sym_i32(baseId + 1, &obj.y);" in text

    def test_nested_record_calls_not_inlines(self):
        program = link(
            "record Point { int x; int y; }\n"
            "record Rect { Point min; Point max; }\n"
            "int area(Rect r){ return (r.max.x - r.min.x) * (r.max.y - r.min.y); }"
        )
        plan = plan_harness(program, "area")
        rect_spec = next(s for s in plan.initializers if s.record_name == "Rect")
        text = function_text(plan.source, rect_spec.fn_name)
        assert text.count("__SYM_Point(") == 2
        assert "__sym_i32" not in text  # no direct binds across the record boundary

    def test_driver_shapes(self):
        program = link(POINT_SRC)
        plan = plan_harness(program, "bound")
        text = function_text(plan.source, plan.driver_name)
        assert text.count("Point ") == 3  # three locals, raw allocation
        assert text.count("__SYM_Point(") == 3
        assert text.count("    bound(") == 1  # the target is called exactly once
        assert "Point_init" not in text  # no constructor-like calls

        program2 = link("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        plan2 = plan_harness(program2, "abs")
        text2 = function_text(plan2.source, plan2.driver_name)
        assert "__sym_i32(0, &x);" in text2
        assert "abs(x);" in text2

        program3 = link("void tick(){ return; }")
        plan3 = plan_harness(program3, "tick")
        text3 = function_text(plan3.source, plan3.driver_name)
        assert "tick();" in text3
        assert "__sym" not in text3

    def test_stub_shapes(self):
        program = link(
            "external int rng();\n"
            "external void fill(int* out);\n"
            "int f(int* p){ fill(p); return rng(); }"
        )
        plan = plan_harness(program, "f")
        by_name = {s.external_name: s for s in plan.stubs}
        rng_text = gen_stub(program, by_name["rng"])
        assert "return __sym_fresh_i32(" in rng_text
        assert rng_text == function_text(plan.source, "rng")
        fill_text = gen_stub(program, by_name["fill"])
        assert "*out = __sym_fresh_i32(" in fill_text
        assert fill_text == function_text(plan.source, "fill")

    def test_unsupported_stub_return_diagnosed(self):
        from coyote_mc.harness import StubSpec
        from coyote_mc.minic import ast as mc_ast
        from coyote_mc.diagnostics import SourceLoc

        program = link("record P { int x; }\nint f(int x){ return x; }")
        # Record-by-value returns cannot come from the parser (the checker
        # rejects them), so a stub for one is a generator bug.
        program.functions["oracle"] = mc_ast.FuncDecl(
            SourceLoc("x.mc", 1, 1), "oracle", [], ty.Record("P"), None, external=True
        )
        with pytest.raises(InternalError, match="cannot return"):
            gen_stub(program, StubSpec("oracle", 0))


class TestAssemble:
    def test_point_assembly_links(self):
        program = link(POINT_SRC)
        plan = plan_harness(program, "bound")
        assembled = assemble_unit(program, plan)
        assert "__DRIVER_bound" in assembled.functions
        assert assembled.functions["__DRIVER_bound"].synthetic
        assert "bound" in assembled.functions

    def test_assembly_adds_exactly_driver_for_scalar_target(self):
        program = link("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        plan = plan_harness(program, "abs")
        assembled = assemble_unit(program, plan)
        before = {n for n, f in program.functions.items()}
        after = {n for n, f in assembled.functions.items()}
        assert after - before == {"__DRIVER_abs"}

    def test_external_gains_body(self):
        program = link("external int rng();\nint f(){ return rng(); }")
        plan = plan_harness(program, "f")
        assembled = assemble_unit(program, plan)
        assert assembled.functions["rng"].body is not None
        assert not assembled.functions["rng"].external

    def test_two_fresh_draws_distinct(self):
        from coyote_mc import ir
        from coyote_mc import symexpr as sx
        from coyote_mc.interp import TestInput, execute

        program = link(
            "external int rng();\n"
            "int roll(){ int a = rng(); int b = rng(); return a - b; }"
        )
        plan = plan_harness(program, "roll")
        module = ir.lower(assemble_unit(program, plan))
        trace = execute(module, plan.driver_name, TestInput({}, {0: [5, 9]}))
        assert list(trace.model) == [sx.FreshRef(0, 0), sx.FreshRef(0, 1)]
        roll = execute(module, "roll", TestInput({}, {0: [5, 9]}))
        assert roll.return_value == -4


GOLDEN_SRC = """\
record Inner { int a; bool flag; }
record Node { int v; Node* next; }
record Box { Inner inner; int data[2]; Node* head; }
external void sense(int* out);
// @domain(-100,100)
int target(Box b, Node* n) {
    int t = 0;
    sense(&t);
    if (b.inner.flag) { return b.data[1] + t; }
    return n.v;
}
"""

GOLDEN_HARNESS = """\
void __SYM_Box__r2(int baseId, Box* obj) {
    __SYM_Inner(baseId, &obj.inner);
    __sym_i32(baseId + 2, &obj.data[0]);
    __sym_i32(baseId + 3, &obj.data[1]);
    Node obj_head__1;
    __SYM_Node__r1(baseId + 4, &obj_head__1);
    obj.head = &obj_head__1;
    return;
}

void __SYM_Inner(int baseId, Inner* obj) {
    __sym_i32(baseId, &obj.a);
    __sym_bool(baseId + 1, &obj.flag);
    return;
}

void __SYM_Node__r1(int baseId, Node* obj) {
    __sym_i32(baseId, &obj.v);
    Node obj_next__1;
    __SYM_Node__r0(baseId + 1, &obj_next__1);
    obj.next = &obj_next__1;
    return;
}

void __SYM_Node__r0(int baseId, Node* obj) {
    __sym_i32(baseId, &obj.v);
    obj.next = null;
    return;
}

void __SYM_Node__r2(int baseId, Node* obj) {
    __sym_i32(baseId, &obj.v);
    Node obj_next__1;
    __SYM_Node__r1(baseId + 1, &obj_next__1);
    obj.next = &obj_next__1;
    return;
}

void sense(int* out) {
    *out = __sym_fresh_i32(0);
    return;
}

void __DRIVER_target() {
    Box b;
    __SYM_Box__r2(0, &b);
    Node n;
    __SYM_Node__r2(6, &n);
    target(b, &n);
    return;
}
"""


class TestLinkFailures:
    """A harness that does not fit the program must fail to link."""

    PROGRAM = (
        "external int get(int* out);\n"
        "int f(int x){ int v = 0; int g = get(&v); return x + g + v; }\n"
    )
    DRIVER = "void __DRIVER_f() {\n    int x;\n    __sym_i32(0, &x);\n    f(x);\n    return;\n}\n"
    STUB = "int get(int* out) {\n    return __sym_fresh_i32(0);\n}\n"

    @pytest.mark.parametrize("source", [
        # Redefines a function the program defines.
        STUB + "int f(int x) {\n    return x;\n}\n" + DRIVER,
        # Redefines an intrinsic.
        STUB + "void __sym_i32(int id, int* dest) {\n    return;\n}\n" + DRIVER,
        # Stubs the external with another return type, parameter type or arity.
        "bool get(int* out) {\n    return true;\n}\n" + DRIVER,
        "int get(bool* out) {\n    return 0;\n}\n" + DRIVER,
        "int get(int* out, int extra) {\n    return 0;\n}\n" + DRIVER,
        # A type error of its own.
        STUB + "void __DRIVER_f() {\n    int x = true;\n    f(x);\n    return;\n}\n",
    ])
    def test_misfit_harness_fails_to_link(self, source):
        program = link(self.PROGRAM)
        plan = dataclasses.replace(plan_harness(program, "f"), source=source)
        with pytest.raises(InternalError, match="fails to link"):
            assemble_unit(program, plan)
        assert program.functions["get"].external

    def test_hand_built_stub_links(self):
        program = link(self.PROGRAM)
        plan = dataclasses.replace(plan_harness(program, "f"), source=self.STUB + self.DRIVER)
        assert not assemble_unit(program, plan).functions["get"].external


class TestGolden:
    def test_golden_unit(self):
        # A bool field, an int array, a nested record, a chain of record
        # pointers with depth variants, and an external with a pointer
        # parameter: the exact text and the exact symbol map.
        program = link(GOLDEN_SRC, "golden.mc")
        plan = plan_harness(program, "target")
        assert plan.source == GOLDEN_HARNESS
        assert [(e.symbol_id, e.path, e.width, e.domain) for e in plan.symbol_map.entries] == [
            (0, "b.inner.a", 32, (-100, 100)),
            (1, "b.inner.flag", 1, (-100, 100)),
            (2, "b.data[0]", 32, (-100, 100)),
            (3, "b.data[1]", 32, (-100, 100)),
            (4, "b.head.v", 32, (-100, 100)),
            (5, "b.head.next.v", 32, (-100, 100)),
            (6, "n.v", 32, (-100, 100)),
            (7, "n.next.v", 32, (-100, 100)),
            (8, "n.next.next.v", 32, (-100, 100)),
        ]
        assert [(s.record_name, s.fn_name, s.credit) for s in plan.initializers] == [
            ("Box", "__SYM_Box__r2", 2),
            ("Inner", "__SYM_Inner", None),
            ("Node", "__SYM_Node__r1", 1),
            ("Node", "__SYM_Node__r0", 0),
            ("Node", "__SYM_Node__r2", 2),
        ]
        assert [(s.external_name, s.tag) for s in plan.stubs] == [("sense", 0)]
        assembled = assemble_unit(program, plan)
        assert assembled.functions["sense"].body is not None


class TestProperties:
    def test_determinism_byte_identical(self):
        for _ in range(3):
            program = link(POINT_SRC)
            plan = plan_harness(program, "bound")
            text = plan.source
            program2 = link(POINT_SRC)
            plan2 = plan_harness(program2, "bound")
            assert plan2.source == text

    def test_fuzzed_record_graphs_generate_valid_harnesses(self):
        rng = random.Random(99)
        for round_no in range(40):
            program = link(record_graph_source(rng, round_no))
            plan = plan_harness(program, "target", depth_limit=rng.randint(1, 4))
            assembled = assemble_unit(program, plan)  # parses + type checks
            entries = plan.symbol_map.entries
            assert [e.symbol_id for e in entries] == list(range(len(entries)))
            assert len({e.path for e in entries}) == len(entries)

    def test_initializer_split_property(self):
        # No __SYM_A body may bind fields of a nested record B directly.
        rng = random.Random(123)
        program = link(
            "record A { int x; }\n"
            "record B { A left; A right; int own; }\n"
            "record C { B mid; A solo; bool flag; }\n"
            "int f(C c){ return c.mid.own; }"
        )
        plan = plan_harness(program, "f")
        for spec in plan.initializers:
            text = function_text(plan.source, spec.fn_name)
            rec = program.records[spec.record_name]
            scalar_own = sum(
                1 for _, t in rec.fields if isinstance(t, (ty.Int32, ty.Bool))
            )
            assert text.count("__sym_i32") + text.count("__sym_bool") == scalar_own
