"""Concrete interpreter tests, including the AST-oracle differential suite."""

import random

import pytest

from coyote_mc import interp, ir
from coyote_mc import symexpr as sx
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.interp import TestInput, execute
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

from ast_oracle import DivByZero, ProgramGen, call_function


def build(src):
    program = link_program([parse_text("a.mc", src)])
    return program, ir.lower(program)


class TestExecute:
    def test_abs_negative(self):
        _, module = build("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        trace = execute(module, "abs", TestInput(), args=[-3])
        assert trace.outcome == interp.OUTCOME_COMPLETED
        assert trace.return_value == 3
        branches = [e for e in trace.events if e.taken_dir in ("then", "else")]
        assert len(branches) <= 2

    def test_div_by_zero_stops_at_check(self):
        _, module = build("int f(int a, int b){ return a / b; }")
        trace = execute(module, "f", TestInput(), args=[4, 0])
        assert trace.outcome == interp.OUTCOME_ERROR
        check = module.instr_by_id(trace.error_check_id)
        assert check.kind == ir.CheckKind.DIV_BY_ZERO
        last = trace.events[-1]
        assert (last.site_id, last.taken_dir) == (trace.error_check_id, "fail")

    def test_step_budget_stops_infinite_loop(self):
        _, module = build("void f(){ while (true) { } return; }")
        trace = execute(module, "f", TestInput(), step_budget=1000)
        assert trace.outcome == interp.OUTCOME_BUDGET

    def test_deterministic_traces(self):
        src = (
            "int f(int a, int b){ int r = 0; while (a > 0) { r = r + b; a = a - 1; }"
            " return r; }"
        )
        _, module = build(src)
        t1 = execute(module, "f", TestInput(), args=[3, 7])
        t2 = execute(module, "f", TestInput(), args=[3, 7])
        assert t1.events == t2.events
        assert t1.return_value == 21

    def test_covered_points_match_events(self):
        _, module = build("int f(int x){ if (x > 0) { return 1; } return 0; }")
        trace = execute(module, "f", TestInput(), args=[5])
        derived = set()
        for ev in trace.events:
            instr = module.instr_by_id(ev.site_id)
            if ev.taken_dir == "then":
                derived.add(instr.then_point)
            elif ev.taken_dir == "else":
                derived.add(instr.else_point)
            elif ev.taken_dir == "fail":
                derived.add(instr.error_point)
        derived.discard(None)
        edges = {p for p in trace.covered_points if module.points[p].kind != "stmt"}
        assert derived
        assert derived == edges

    def test_uninitialized_read_is_interp_error(self):
        _, module = build("int f(){ int a; int b = 0; if (b == 0) { a = 1; } return a; }")
        # b == 0 holds so 'a' is written; force the uncovered path via direct IR
        # execution with a different input is impossible here, so use a program
        # where the read is genuinely uninitialized.
        _, module = build("int g(int c){ int a; if (c > 0) { a = 1; } return a; }")
        with pytest.raises(interp.InterpError):
            execute(module, "g", TestInput(), args=[0])

    def test_wrapping_arithmetic(self):
        _, module = build("int f(int x){ return x + 1; }")
        trace = execute(module, "f", TestInput(), args=[2**31 - 1])
        assert trace.return_value == -(2**31)

    def test_unbound_symbol_rejected_before_run(self):
        _, module = build("int f(){ return 1; }")
        with pytest.raises(interp.InterpError, match="unbound"):
            interp.execute(module, "f", TestInput(), required_symbols=[0, 1])


class TestZeroInput:
    def _plan(self, entries):
        from coyote_mc.harness import HarnessPlan, SymbolEntry, SymbolMap

        return HarnessPlan(
            target="f",
            driver_name="__DRIVER_f",
            initializers=[],
            stubs=[],
            symbol_map=SymbolMap(entries=entries),
            source="",
        )

    def test_all_zeros(self):
        from coyote_mc.harness import SymbolEntry

        plan = self._plan([SymbolEntry(i, f"p{i}", 32, None) for i in range(6)])
        seed = interp.zero_input(plan)
        assert seed.bindings == {i: 0 for i in range(6)}

    def test_clamped_to_domain(self):
        from coyote_mc.harness import SymbolEntry

        plan = self._plan([SymbolEntry(0, "x", 32, (5, 9))])
        assert interp.zero_input(plan).bindings == {0: 5}

    def test_empty_plan(self):
        plan = self._plan([])
        assert interp.zero_input(plan).bindings == {}


# --- differential testing against the AST oracle ------------------------------


def test_differential_ast_vs_ir():
    # 1,000 randomized (program, input) pairs: the lowered-IR interpreter must
    # agree with a direct AST interpretation, including division-error cases.
    rng = random.Random(20240817)
    gen = ProgramGen(rng)
    cases = 0
    while cases < 1000:
        src, name, arity = gen.program(cases)
        program = link_program([parse_text("d.mc", src)])
        module = ir.lower(program)
        for _ in range(4):
            args = [rng.randrange(-100, 100) for _ in range(arity)]
            try:
                expected = ("ok", call_function(program, name, args))
            except DivByZero:
                expected = ("div-error",)
            trace = execute(module, name, TestInput(), args=args)
            if trace.outcome == interp.OUTCOME_ERROR:
                kind = module.instr_by_id(trace.error_check_id).kind
                assert kind in (ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO), src
                actual = ("div-error",)
            else:
                assert trace.outcome == interp.OUTCOME_COMPLETED, src
                actual = ("ok", trace.return_value)
            assert actual == expected, f"{src} args={args}"
            cases += 1


def test_concrete_branches_record_shared_true():
    # A concrete loop, a literal-index array access, a division by a non-zero
    # constant and a null check on a pointer that is not null: none of them
    # depends on the input, so each records the shared TRUE and builds no
    # expression. Only the comparison with the symbolic x can be flipped.
    src = (
        "record P { int x; }\n"
        "int f(int v[3], P* p, int x){\n"
        "  int s = 0; int i = 0;\n"
        "  while (i < 3) { s = s + v[1]; i = i + 1; }\n"
        "  s = s / 2;\n"
        "  if (p != null) { s = s + p.x; }\n"
        "  if (x > s) { return 1; }\n"
        "  return 0;\n"
        "}"
    )
    program = link_program([parse_text("u.mc", src)])
    plan = plan_harness(program, "f")
    module = ir.lower(assemble_unit(program, plan))
    ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
    bindings = {sid: 0 for sid in ids.values()} | {ids["v[1]"]: 4, ids["x"]: 9}
    trace = interp.execute(module, plan.driver_name, TestInput(bindings),
                           required_symbols=plan.symbol_map.ids())
    assert trace.outcome == interp.OUTCOME_COMPLETED
    kinds = {type(module.instr_by_id(e.site_id)) for e in trace.events if not e.flippable}
    assert kinds == {ir.CondBr, ir.Check}
    fixed = [e for e in trace.events if not e.flippable]
    assert len(fixed) > 5
    assert all(e.expr is sx.TRUE for e in fixed)
    assert [e.site_id for e in trace.events if e.flippable]
