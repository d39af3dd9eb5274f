"""Concrete interpreter tests, including the AST-oracle differential suite."""

import random

import pytest

from coyote_mc import interp, ir
from coyote_mc.interp import (
    BranchTaken,
    CheckFailed,
    CheckPassed,
    TestInput,
    Trace,
    deserialize_trace,
    run_function,
    serialize_trace,
)
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

from ast_oracle import DivByZero, ProgramGen, call_function


def build(src):
    program = link_program([parse_text("a.mc", src)])
    return program, ir.inject_checks(ir.lower(program))


class TestExecute:
    def test_abs_negative(self):
        _, module = build("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        trace = run_function(module, "abs", [-3])
        assert trace.outcome == interp.OUTCOME_COMPLETED
        assert trace.return_value == 3
        branches = [e for e in trace.events if isinstance(e, BranchTaken)]
        assert len(branches) <= 2

    def test_div_by_zero_stops_at_check(self):
        _, module = build("int f(int a, int b){ return a / b; }")
        trace = run_function(module, "f", [4, 0])
        assert trace.outcome == interp.OUTCOME_ERROR
        check = module.instr_by_id(trace.error_check_id)
        assert check.kind == ir.CheckKind.DIV_BY_ZERO
        assert isinstance(trace.events[-1], CheckFailed)

    def test_step_budget_stops_infinite_loop(self):
        _, module = build("void f(){ while (true) { } return; }")
        trace = run_function(module, "f", [], step_budget=1000)
        assert trace.outcome == interp.OUTCOME_BUDGET

    def test_deterministic_traces(self):
        src = (
            "int f(int a, int b){ int r = 0; while (a > 0) { r = r + b; a = a - 1; }"
            " return r; }"
        )
        _, module = build(src)
        t1 = run_function(module, "f", [3, 7])
        t2 = run_function(module, "f", [3, 7])
        assert serialize_trace(t1) == serialize_trace(t2)
        assert t1.constraints == t2.constraints
        assert t1.return_value == 21

    def test_covered_points_match_events(self):
        _, module = build("int f(int x){ if (x > 0) { return 1; } return 0; }")
        trace = run_function(module, "f", [5])
        derived = set()
        for ev in trace.events:
            if isinstance(ev, BranchTaken):
                instr = module.instr_by_id(ev.cond_br_id)
                point = instr.then_point if ev.direction == "then" else instr.else_point
                if point is not None:
                    derived.add(point)
            elif isinstance(ev, CheckFailed):
                instr = module.instr_by_id(ev.check_id)
                if instr.error_point is not None:
                    derived.add(instr.error_point)
        edges = {p for p in trace.covered_points if module.point_by_id(p).kind != "stmt"}
        assert derived
        assert derived == edges

    def test_uninitialized_read_is_interp_error(self):
        _, module = build("int f(){ int a; int b = 0; if (b == 0) { a = 1; } return a; }")
        # b == 0 holds so 'a' is written; force the uncovered path via direct IR
        # execution with a different input is impossible here, so use a program
        # where the read is genuinely uninitialized.
        _, module = build("int g(int c){ int a; if (c > 0) { a = 1; } return a; }")
        with pytest.raises(interp.InterpError):
            run_function(module, "g", [0])

    def test_wrapping_arithmetic(self):
        _, module = build("int f(int x){ return x + 1; }")
        trace = run_function(module, "f", [2**31 - 1])
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
            depth_limit=3,
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


class TestTraceFormat:
    def test_empty_trace_header_only(self):
        trace = Trace([], interp.OUTCOME_COMPLETED, TestInput(), set())
        assert serialize_trace(trace) == "# trace v1 outcome=completed\n"

    def test_branch_line_format(self):
        trace = Trace(
            [BranchTaken(7, "then")], interp.OUTCOME_COMPLETED, TestInput(), set()
        )
        assert serialize_trace(trace).splitlines()[1] == "BR 7 T"

    def test_round_trip_fuzzed(self):
        rng = random.Random(42)
        makers = [
            lambda: BranchTaken(rng.randrange(100), rng.choice(["then", "else"])),
            lambda: CheckPassed(rng.randrange(100)),
            lambda: CheckFailed(rng.randrange(100)),
        ]
        for _ in range(200):
            events = [rng.choice(makers)() for _ in range(rng.randrange(0, 12))]
            outcome = rng.choice(
                [interp.OUTCOME_COMPLETED, interp.OUTCOME_BUDGET, interp.OUTCOME_ERROR]
            )
            check_id = rng.randrange(100) if outcome == interp.OUTCOME_ERROR else None
            trace = Trace(events, outcome, TestInput(), set(), error_check_id=check_id)
            text = serialize_trace(trace)
            back = deserialize_trace(text)
            assert back.events == events
            assert back.outcome == outcome
            assert back.error_check_id == check_id
            assert serialize_trace(back) == text


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
        module = ir.inject_checks(ir.lower(program))
        for _ in range(4):
            args = [rng.randrange(-100, 100) for _ in range(arity)]
            try:
                expected = ("ok", call_function(program, name, args))
            except DivByZero:
                expected = ("div-error",)
            trace = run_function(module, name, args)
            if trace.outcome == interp.OUTCOME_ERROR:
                kind = module.instr_by_id(trace.error_check_id).kind
                assert kind in (ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO), src
                actual = ("div-error",)
            else:
                assert trace.outcome == interp.OUTCOME_COMPLETED, src
                actual = ("ok", trace.return_value)
            assert actual == expected, f"{src} args={args}"
            cases += 1
