"""Harness planning and generation tests, including the Point/bound golden."""

import random
import re

import pytest

from coyote_mc.harness import (
    HarnessError,
    assemble_unit,
    gen_driver,
    gen_stub,
    gen_type_initializer,
    harness_source,
    plan_harness,
)
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
        text = harness_source(program, plan)
        assert text.count("= null;") == 1  # chain of 2 then null

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
            text = harness_source(program, plan)
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
        text = gen_type_initializer(program, plan.initializers[0], plan)
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
        text = gen_type_initializer(program, rect_spec, plan)
        assert text.count("__SYM_Point(") == 2
        assert "__sym_i32" not in text  # no direct binds across the record boundary

    def test_driver_shapes(self):
        program = link(POINT_SRC)
        plan = plan_harness(program, "bound")
        text = gen_driver(program, plan)
        assert text.count("Point ") == 3  # three locals, raw allocation
        assert text.count("__SYM_Point(") == 3
        assert text.count("    bound(") == 1  # the target is called exactly once
        assert "Point_init" not in text  # no constructor-like calls

        program2 = link("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        plan2 = plan_harness(program2, "abs")
        text2 = gen_driver(program2, plan2)
        assert "__sym_i32(0, &x);" in text2
        assert "abs(x);" in text2

        program3 = link("void tick(){ return; }")
        plan3 = plan_harness(program3, "tick")
        text3 = gen_driver(program3, plan3)
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
        rng_text, rng_warn = gen_stub(program, by_name["rng"], plan)
        assert "return __sym_fresh_i32(" in rng_text
        assert rng_warn == []
        fill_text, _ = gen_stub(program, by_name["fill"], plan)
        assert "*out = __sym_fresh_i32(" in fill_text

    def test_unsupported_stub_return_diagnosed(self):
        from coyote_mc.harness import StubSpec
        from coyote_mc.minic import ast as mc_ast
        from coyote_mc.diagnostics import SourceLoc

        program = link("record P { int x; }\nint f(int x){ return x; }")
        # Record-by-value returns cannot come from the parser (the checker
        # rejects them), so drive the defensive path directly.
        program.functions["oracle"] = mc_ast.FuncDecl(
            SourceLoc("x.mc", 1, 1), "oracle", [], ty.Record("P"), None, external=True
        )
        plan = plan_harness(program, "f")
        text, warnings = gen_stub(program, StubSpec("oracle", "oracle", 0), plan)
        assert warnings and "unsupported return type" in warnings[0]
        assert "return 0;" in text


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
        from coyote_mc.interp import TestInput, execute, run_function

        program = link(
            "external int rng();\n"
            "int roll(){ int a = rng(); int b = rng(); return a - b; }"
        )
        plan = plan_harness(program, "roll")
        module = ir.lower(assemble_unit(program, plan))
        trace = execute(module, plan.driver_name, TestInput({}, {0: [5, 9]}))
        assert trace.fresh_refs == [(0, 0), (0, 1)]
        roll = run_function(module, "roll", [], TestInput({}, {0: [5, 9]}))
        assert roll.return_value == -4


class TestProperties:
    def test_determinism_byte_identical(self):
        for _ in range(3):
            program = link(POINT_SRC)
            plan = plan_harness(program, "bound")
            text = harness_source(program, plan)
            program2 = link(POINT_SRC)
            plan2 = plan_harness(program2, "bound")
            assert harness_source(program2, plan2) == text

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
            text = gen_type_initializer(program, spec, plan)
            rec = program.records[spec.record_name]
            scalar_own = sum(
                1 for _, t in rec.fields if isinstance(t, (ty.Int32, ty.Bool))
            )
            assert text.count("__sym_i32") + text.count("__sym_bool") == scalar_own
