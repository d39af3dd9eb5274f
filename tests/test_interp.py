"""Concrete interpreter tests, including the AST-oracle differential suite."""

import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

from coyote_mc import interp, ir
from coyote_mc import symexpr as sx
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.interp import TestInput, execute
from coyote_mc.minic.linker import link_program, list_functions
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


# --- trace equivalence ------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The fingerprint below was recorded before the interpreter compiled its
# functions into handlers; any change to what a run records moves it.
TRACE_FINGERPRINT = "75326fdddcc802f4dece27c8021c3a6b8c3fa4b95d62a8e46db73ee811445bd0"


def _fingerprint_units(monkeypatch):
    """Every unit of the hand-written benchmark programs (seed 1) and of 40
    generated programs, each as (plan, module)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    programs = [
        link_program([parse_text(path, text) for path, text in workloads.WORKLOADS[w].sources(1)])
        for w in ("exec_long", "solver_hard")
    ]
    gen = ProgramGen(random.Random(77))
    programs += [link_program([parse_text("g.mc", gen.program(k)[0])]) for k in range(40)]
    for program in programs:
        names, _ = list_functions(program)
        for name in names:
            plan = plan_harness(program, name)
            yield plan, ir.lower(assemble_unit(program, plan))


def _seeded_input(plan, rng, fresh_tags):
    bindings = {}
    for entry in plan.symbol_map.entries:
        if entry.width == 1:
            value = rng.randint(0, 1)
        elif rng.random() < 0.8:
            value = rng.randint(-8, 8)
        else:
            value = rng.randint(-(2**31), 2**31 - 1)
        if entry.domain is not None:
            value = min(max(value, entry.domain[0]), entry.domain[1])
        bindings[entry.symbol_id] = value
    fresh = {tag: [rng.randint(-8, 8) for _ in range(4)] for tag in sorted(fresh_tags)}
    return TestInput(bindings, fresh)


def _trace_record(trace) -> str:
    events = [(e.site_id, e.taken_dir, e.flippable, sx.to_prefix(e.expr)) for e in trace.events]
    return repr((trace.outcome, trace.steps, trace.error_check_id, trace.return_value,
                 sorted(trace.covered_points), trace.fresh_refs, events))


def test_trace_fingerprint_golden(monkeypatch):
    # Runs every unit under the zero input and three seeded inputs, and hashes
    # everything a run records; an interpreter change must not move it.
    digest = hashlib.sha256()
    rng = random.Random(1)
    runs = 0
    for plan, module in _fingerprint_units(monkeypatch):
        inputs = [interp.zero_input(plan)]
        tags = set()
        for k in range(4):
            try:
                trace = execute(module, plan.driver_name, inputs[k],
                                required_symbols=plan.symbol_map.ids())
                record = _trace_record(trace)
                tags |= {tag for tag, _ in trace.fresh_refs}
            except interp.InterpError as exc:
                record = f"rejected: {exc}"
            digest.update(record.encode())
            runs += 1
            if k < 3:
                inputs.append(_seeded_input(plan, rng, tags))
    assert runs == 192
    assert digest.hexdigest() == TRACE_FINGERPRINT


def test_step_budget_cuts_a_prefix():
    # A budget of k steps runs exactly the first k instructions of the
    # unbounded run: the same events up to the cut, and a covered set that
    # only grows with k.
    src = (
        "int add(int a, int b){ return a + b; }\n"
        "int f(int n, int x){\n"
        "  int s = 0; int i = 0;\n"
        "  while (i < 6) {\n"
        "    if (x > i) { s = add(s, i); } else { s = s - 1; }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  if (s == n) { return 1; }\n"
        "  return s / (n + 1);\n"
        "}"
    )
    program = link_program([parse_text("b.mc", src)])
    plan = plan_harness(program, "f")
    module = ir.lower(assemble_unit(program, plan))
    ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
    test_input = TestInput({ids["n"]: 5, ids["x"]: 3})

    def run(budget):
        return execute(module, plan.driver_name, test_input, step_budget=budget,
                       required_symbols=plan.symbol_map.ids())

    full = run(interp.DEFAULT_STEP_BUDGET)
    assert full.outcome == interp.OUTCOME_COMPLETED
    assert any(e.flippable for e in full.events)
    budgets = list(range(1, full.steps, 3)) + [full.steps - 1]
    previous = set()
    for k in budgets:
        trace = run(k)
        assert (trace.steps, trace.outcome) == (k, interp.OUTCOME_BUDGET)
        assert trace.events == full.events[:len(trace.events)]
        assert previous <= trace.covered_points <= full.covered_points
        previous = trace.covered_points
    last = run(full.steps)
    assert last.outcome == interp.OUTCOME_COMPLETED
    assert (last.steps, last.events, last.covered_points) == (
        full.steps, full.events, full.covered_points)


def test_compiled_code_is_shared_and_dies_with_its_program():
    # Each function is compiled once, on its first call, and the code lives on
    # the function: two units of one program run the same compiled code, and
    # nothing keeps a function alive once its program and modules are gone.
    src = (
        "int sq(int x){ return x * x; }\n"
        "int f(int a){ return sq(a) + 1; }\n"
        "int g(int b){ if (sq(b) > 4) { return 1; } return 0; }"
    )
    program = link_program([parse_text("w.mc", src)])
    units = []
    for target in ("f", "g"):
        plan = plan_harness(program, target)
        units.append((plan, ir.lower(assemble_unit(program, plan))))
    shared = units[0][1].functions["sq"]
    assert units[1][1].functions["sq"] is shared
    assert shared.code is None
    traces, codes = [], []
    for plan, module in units:
        traces.append(execute(module, plan.driver_name, interp.zero_input(plan),
                              required_symbols=plan.symbol_map.ids()))
        codes.append(shared.code)
    assert all(t.outcome == interp.OUTCOME_COMPLETED for t in traces)
    assert codes[0] is not None and codes[1] is codes[0]
    alive = weakref.ref(shared)
    compiled = [list(block) for block in codes[0]]  # an equal copy, to look for the original
    del program, units, plan, module, shared, traces, codes
    gc.collect()
    assert alive() is None
    assert not any(type(o) is list and o is not compiled and o == compiled
                   for o in gc.get_objects())
