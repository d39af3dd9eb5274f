"""Concrete interpreter tests, including the AST-oracle differential suite."""

import functools
import gc
import hashlib
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coyote_mc import interp, ir
from coyote_mc import symexpr as sx
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.interp import TestInput, execute
from coyote_mc.minic.linker import link_program, list_functions
from coyote_mc.minic.parser import parse_text
from coyote_mc.semantics import INT_MAX, INT_MIN

from ast_oracle import DivByZero, ProgramGen, call_function, record_graph_source
from models import tree_text


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

    @pytest.mark.parametrize("k, failed", [
        (-1, ir.CheckKind.INDEX_OUT_OF_BOUNDS), (0, None), (2, None),
        (3, ir.CheckKind.INDEX_OUT_OF_BOUNDS), (4, ir.CheckKind.NULL_DEREF), (5, None),
    ])
    def test_fixed_checks_fail_exactly_on_bad_values(self, k, failed):
        # Every operand is concrete, so each check takes its fixed path.
        _, module = build(
            "record R { int v; }\n"
            "int f(int k){ int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; R r; r.v = 9;\n"
            "  R* p = &r; if (k == 4) { p = null; }\n"
            "  if (k > 3) { return p.v; } return a[k]; }"
        )
        trace = execute(module, "f", TestInput(), args=[k])
        if failed is None:
            assert trace.outcome == interp.OUTCOME_COMPLETED
            assert trace.return_value == (9 if k > 3 else k + 1)
        else:
            assert trace.outcome == interp.OUTCOME_ERROR
            assert module.instr_by_id(trace.error_check_id).kind == failed
        assert all(e.expr is sx.TRUE for e in trace.events)

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

    @pytest.mark.parametrize("body", [
        "return a;",
        "if (a > 0) { return 1; } return 0;",
        "return id(a);",
    ])
    def test_uninitialized_local_temp_read_is_interp_error(self, body):
        # `a` lives in a frame temp, which the run reads before its first
        # write: as the returned value, in a branch condition, as an argument.
        _, module = build(
            "int id(int v){ return v; }\n"
            f"int g(int c){{ int a; if (c > 0) {{ a = 1; }} {body} }}"
        )
        assert "a" in [name for name, _ in module.functions["g"].locals]
        assert execute(module, "g", TestInput(), args=[1]).outcome == interp.OUTCOME_COMPLETED
        with pytest.raises(interp.InterpError, match="uninitialized local 'a'"):
            execute(module, "g", TestInput(), args=[0])

    @pytest.mark.parametrize("key", [-1, 10**6])
    def test_other_key_errors_are_not_uninitialized_reads(self, monkeypatch, key):
        # Only a missing local temp is an uninitialized read. A KeyError from
        # anywhere else, even for a local temp's id that is bound, is a fault
        # of the interpreter and propagates as it is.
        def broken(m, temps, record):
            raise KeyError(key)

        monkeypatch.setitem(interp._ARITH, "+", broken)  # the handler `+` compiles to
        _, module = build("int f(int x){ return x + 1; }")
        with pytest.raises(KeyError) as info:
            execute(module, "f", TestInput(), args=[2])
        assert info.type is KeyError and info.value.args == (key,)

    def test_wrapping_arithmetic(self):
        _, module = build("int f(int x){ return x + 1; }")
        trace = execute(module, "f", TestInput(), args=[2**31 - 1])
        assert trace.return_value == -(2**31)

    def test_each_activation_has_its_own_slots_and_temps(self):
        # Each call reads back its own array cell and record field after the
        # calls it makes return: 11 * (4 + 3 + 2 + 1 + 0).
        _, module = build(
            "record P { int v; }\n"
            "int sum(int n){ int t[2]; P p; t[0] = n; p.v = n * 10;\n"
            "  if (n > 0) { int r = sum(n - 1); return t[0] + p.v + r; }\n"
            "  return t[0] + p.v; }")
        trace = execute(module, "sum", TestInput(), args=[4])
        assert trace.outcome == interp.OUTCOME_COMPLETED
        assert (trace.return_value, trace.steps) == (110, 81)

    def test_aggregate_parameters_are_addressed_and_passed_on(self):
        # `&r` of an aggregate parameter, and the parameter passed on by value
        # into a recursive call: g reads 5, h adds 5 three times and ends on 7.
        _, module = build(
            "record R { int x; int y; }\n"
            "int g(R* p){ return p.x; }\n"
            "int h(R r, int n){ if (n > 0) { return r.x + h(r, n - 1); } return r.y; }\n"
            "int f(R r){ return g(&r) + h(r, 3); }\n"
            "int main(){ R r; r.x = 5; r.y = 7; return f(r); }")
        trace = execute(module, "main", TestInput())
        assert (trace.outcome, trace.return_value) == (interp.OUTCOME_COMPLETED, 27)

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


def _force_slots(src: str) -> tuple[str, list[tuple[int, int]]]:
    """The generated program with `int* __pK = &v;` after each scalar local's
    declaration and at the start of the body for each parameter, which keeps
    every one of them in a frame slot; and the (position, length) of each
    insertion, in the new text."""
    params = re.match(r"int \w+\(([^)]*)\)\{", src)
    names = [p.split()[1] for p in params.group(1).split(", ")]
    pieces, inserted, pos, k = [], [], 0, 0

    def insert(at: int, name: str) -> None:
        nonlocal pos, k
        pieces.append(src[pos:at])
        text = f" int* __p{k} = &{name};"
        inserted.append((sum(map(len, pieces)), len(text)))
        pieces.append(text)
        pos, k = at, k + 1

    for name in names:
        insert(params.end(), name)
    for decl in re.finditer(r"int (\w+) = [^;]*;", src):
        insert(decl.end(), decl.group(1))
    pieces.append(src[pos:])
    return "".join(pieces), inserted


def _run_summary(plan, module, test_input, col_of):
    """Outcome, return value, flippable constraints and the covered
    statements as (function, line, column), with columns mapped by `col_of`;
    a statement it maps to None is left out."""
    trace = execute(module, plan.driver_name, test_input.copy(),
                    required_symbols=plan.symbol_map.ids())
    stmts = {
        (p.func_name, p.loc.line, col_of(p.loc.col))
        for p in map(module.points.__getitem__, trace.covered_points) if p.kind == "stmt"
    }
    return (trace.outcome, trace.return_value,
            [sx.to_prefix(e.expr) for e in trace.events if e.flippable],
            sorted(s for s in stmts if s[2] is not None))


def test_local_temps_match_frame_slots():
    # The same programs with every scalar local in a temp and with every one
    # forced into a slot by taking its address: both give the same outcome,
    # return value, flippable constraints and covered statements.
    rng = random.Random(42)
    gen = ProgramGen(rng)
    for k in range(60):
        src, name, _ = gen.program(k)
        slotted, inserted = _force_slots(src)

        def original_col(col: int) -> int | None:
            # Generated programs are one line, so only columns move.
            for at, length in reversed(inserted):
                if col - 1 >= at + length:
                    col -= length
                elif col - 1 >= at:
                    return None  # an inserted declaration
            return col

        units = []
        for text in (src, slotted):
            program = link_program([parse_text("t.mc", text)])
            plan = plan_harness(program, name)
            units.append((plan, ir.lower(assemble_unit(program, plan))))
        (plan, module), (slot_plan, slot_module) = units
        assert slot_plan.symbol_map == plan.symbol_map
        fn = slot_module.functions[name]
        assert {p for p, _ in fn.params} <= {s.name for s in fn.slots}
        assert not any(n.startswith(("p", "v", "k")) for n, _ in fn.locals)
        for _ in range(4):
            test_input = _seeded_input(plan, rng, ())
            assert _run_summary(plan, module, test_input, lambda c: c) == _run_summary(
                slot_plan, slot_module, test_input, original_col), slotted


# --- trace equivalence ------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The fingerprint below was re-recorded when scalar locals moved into frame
# temps, which renumbers instruction ids and changes step counts, and again
# when literals and slot addresses moved into each function's constant table
# and aggregate parameters into local temps, which takes steps out; any change
# to what a run records moves it.
TRACE_FINGERPRINT = "892081409aecaed1db1278071f1e18c5ab4da699c015dcf7b04a5272e3150130"


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


def _fingerprint_runs(monkeypatch):
    """Every unit under the zero input and three seeded inputs: each run as
    (module, trace), or (module, InterpError) for a rejected one."""
    rng = random.Random(1)
    for plan, module in _fingerprint_units(monkeypatch):
        inputs = [interp.zero_input(plan)]
        tags = set()
        for k in range(4):
            try:
                result = execute(module, plan.driver_name, inputs[k],
                                 required_symbols=plan.symbol_map.ids())
                tags |= {tag for tag, _ in _draws(result)}
            except interp.InterpError as exc:
                result = exc
            yield module, result
            if k < 3:
                inputs.append(_seeded_input(plan, rng, tags))


def _draws(trace) -> list[tuple[int, int]]:
    """The run's stub draws as (tag, seq), in draw order: its model's fresh
    leaves."""
    return [(ref.tag, ref.seq) for ref in trace.model if isinstance(ref, sx.FreshRef)]


def _trace_record(trace) -> str:
    events = [(e.site_id, e.taken_dir, e.flippable, tree_text(e.expr)) for e in trace.events]
    return repr((trace.outcome, trace.steps, trace.error_check_id, trace.return_value,
                 sorted(trace.covered_points), _draws(trace), events))


def test_trace_fingerprint_golden(monkeypatch):
    # Hashes everything a run records, ids and steps included; an interpreter
    # change must not move it.
    digest = hashlib.sha256()
    runs = 0
    for _, result in _fingerprint_runs(monkeypatch):
        if isinstance(result, interp.InterpError):
            record = f"rejected: {result}"
        else:
            record = _trace_record(result)
        digest.update(record.encode())
        runs += 1
    assert runs == 192
    assert digest.hexdigest() == TRACE_FINGERPRINT


def _literal_divisor_check(module, instr) -> bool:
    """A division or modulo check on a nonzero literal, which cannot fail."""
    if not isinstance(instr, ir.Check) or instr.kind not in (
            ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO):
        return False
    consts = module.functions[module.function_of_instr(instr.iid)].consts
    return consts.get(instr.operand, 0) != 0


def _site(module, iid):
    instr = module.instr_by_id(iid)
    kind = instr.kind.value if isinstance(instr, ir.Check) else type(instr).__name__
    return module.function_of_instr(iid), instr.loc, kind


def _semantic_record(module, trace) -> str:
    points = sorted(
        (p.func_name, p.kind, p.loc.path, p.loc.line, p.loc.col, p.direction or "",
         p.is_error_edge)
        for p in map(module.points.__getitem__, trace.covered_points)
    )
    events = [
        _site(module, e.site_id) + (e.taken_dir, e.flippable, tree_text(e.expr))
        for e in trace.events
        if not _literal_divisor_check(module, module.instr_by_id(e.site_id))
    ]
    failed = None if trace.error_check_id is None else _site(module, trace.error_check_id)
    return repr((trace.outcome, trace.return_value, failed, points, _draws(trace), events))


# Recorded before scalar locals moved into frame temps; it leaves out steps and
# every id, so only a change in what a run computes, covers or constrains
# moves it.
SEMANTIC_FINGERPRINT = "0927473f9fd1108627b604e94a06a5d4c9589528f54f91e427d6c46c0b4b90e5"


def test_trace_fingerprint_semantic(monkeypatch):
    # The same 192 runs as the golden fingerprint, hashed without steps, ids,
    # or the events of division checks on nonzero literals, which cannot fail.
    digest = hashlib.sha256()
    runs = 0
    for module, result in _fingerprint_runs(monkeypatch):
        if isinstance(result, interp.InterpError):
            record = f"rejected: {type(result).__name__}: " + re.sub(
                r"instruction \d+", "instruction", str(result))
        else:
            record = _semantic_record(module, result)
        digest.update(record.encode())
        runs += 1
    assert runs == 192
    assert digest.hexdigest() == SEMANTIC_FINGERPRINT


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


# Recorded before the run loop dispatched whole straight-line stretches, and
# re-recorded when literals and slot addresses stopped being instructions; a
# change in how a run is dispatched must not move it.
BUDGET_CUTS_FINGERPRINT = "530e24f5084590f85800f741f67318b05a4aa9d9e7028d4ec9676c1d17cd3b08"


def test_every_budget_cut_is_golden():
    # Under each of two inputs, one run per budget from 1 to the full run's
    # steps, each hashed as (budget, outcome, steps, failed check, return
    # value, covered points, events). A budget may end a run anywhere: inside
    # a loop body, between an operation and the move of its result, between
    # a comparison and its branch, between an element's address and its load.
    src = (
        "external int draw();\n"
        "int bump(int v){ return v + 3; }\n"
        "int f(int n, int d){\n"
        "  int t[8]; int i = 0;\n"
        "  while (i < 8) { t[i] = i * n - 3; i = i + 1; }\n"
        "  int s = 0; int j = 0;\n"
        "  while (j < 12) {\n"
        "    s = s + t[j % 8];\n"
        "    s = bump(s) % 1000;\n"
        "    j = j + 1;\n"
        "  }\n"
        "  int r = draw();\n"
        "  s = s + t[d % 8];\n"
        "  if (s > r) { s = s - r; }\n"
        "  return s / d;\n"
        "}"
    )
    program = link_program([parse_text("c.mc", src)])
    plan = plan_harness(program, "f")
    module = ir.inject_checks(ir.lower(assemble_unit(program, plan)))
    ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
    tag = plan.stubs[0].tag
    digest = hashlib.sha256()
    outcomes = []
    for n, d, drawn in ((3, 0, 40), (-2, 7, -50)):
        test_input = TestInput({ids["n"]: n, ids["d"]: d}, {tag: [drawn]})

        def run(budget):
            return execute(module, plan.driver_name, test_input, step_budget=budget,
                           required_symbols=plan.symbol_map.ids())

        full = run(interp.DEFAULT_STEP_BUDGET)
        outcomes.append((full.outcome, full.steps))
        for k in range(1, full.steps + 1):
            trace = run(k)
            events = [(e.site_id, e.taken_dir, tree_text(e.expr), e.flippable)
                      for e in trace.events]
            digest.update(repr((k, trace.outcome, trace.steps, trace.error_check_id,
                                trace.return_value, sorted(trace.covered_points),
                                events)).encode())
    assert outcomes == [(interp.OUTCOME_ERROR, 302), (interp.OUTCOME_COMPLETED, 302)]
    assert digest.hexdigest() == BUDGET_CUTS_FINGERPRINT


# The ids name the direction the `if` takes, so re-recording steps keeps them.
@pytest.mark.parametrize("x, returned, steps, uncovered", [(1, 5, 30, {4}), (0, 3, 28, {3, 5})],
                         ids=["then", "else"])
def test_a_jump_runs_on_into_a_call(x, returned, steps, uncovered):
    # The then-block's branch to the join runs on into `g(s)`, and the loop
    # body starts with a call: each call must resume in its own block.
    _, module = build(
        "int g(int v){ return v + 1; }\n"
        "int f(int x){ int s = 0; if (x > 0) { s = 1; } s = g(s) + s;\n"
        "  int i = 0; while (i < 2) { i = g(i); } return s + i; }"
    )
    full = execute(module, "f", TestInput(), args=[x])
    assert (full.outcome, full.return_value, full.steps) == (
        interp.OUTCOME_COMPLETED, returned, steps)
    assert set(range(13)) - full.covered_points == uncovered
    previous = set()
    for k in range(1, steps):
        trace = execute(module, "f", TestInput(), args=[x], step_budget=k)
        assert (trace.outcome, trace.steps) == (interp.OUTCOME_BUDGET, k)
        assert previous <= trace.covered_points <= full.covered_points
        previous = trace.covered_points


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_one_runs_nothing(budget):
    _, module = build("int f(int x){ int s = 0; s = s + x; return s; }")
    trace = execute(module, "f", TestInput(), step_budget=budget, args=[4])
    assert (trace.outcome, trace.steps, trace.covered_points) == (interp.OUTCOME_BUDGET, 0, set())


def _constraints_at(site_ids):
    return [o for o in gc.get_objects()
            if type(o) is interp.BranchConstraint and o.site_id in site_ids]


def test_compiled_code_is_shared_and_dies_with_its_program():
    # Each function is compiled once, on its first call, and the code lives on
    # the function: two units of one program run the same compiled code, and
    # nothing keeps a function, or a constraint recorded at one of its
    # branches and checks, alive once its program, modules and traces are gone.
    src = (
        "int sq(int x){ return x * x; }\n"
        "int f(int a){ if (2 > 1) { return sq(a) + 1; } return 0; }\n"
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
    site_ids = {i.iid for _, module in units for fn in module.functions.values()
                for block in fn.blocks for i in block.instrs
                if isinstance(i, (ir.CondBr, ir.Check))}
    before = _constraints_at(site_ids)  # other tests' records that reuse these ids
    traces, codes = [], []
    for plan, module in units:
        traces.append(execute(module, plan.driver_name, interp.zero_input(plan),
                              required_symbols=plan.symbol_map.ids()))
        codes.append(shared.code)
    assert all(t.outcome == interp.OUTCOME_COMPLETED for t in traces)
    assert codes[0] is not None and codes[1] is codes[0]
    assert {e.flippable for t in traces for e in t.events} == {True, False}
    assert len(_constraints_at(site_ids)) > len(before)
    alive = weakref.ref(shared)
    blocks = codes[0][0]  # the compiled form is (blocks, constants, slot addresses)
    compiled = [list(block) for block in blocks]  # an equal copy, to look for the original
    del program, units, plan, module, shared, traces, codes, blocks
    gc.collect()
    assert alive() is None
    assert not any(type(o) is list and o is not compiled and o == compiled
                   for o in gc.get_objects())
    del compiled  # it shares sq's record tuples and any fixed records in them
    gc.collect()
    assert all(any(o is b for b in before) for o in _constraints_at(site_ids))


def test_fixed_events_share_one_record_per_site_and_direction():
    # A branch or check on a value that does not depend on the input appends
    # the fixed record its instruction got when compiled, so every run appends
    # the same object at its fixed events; only a condition over the input
    # builds a new record.
    src = (
        "int f(int n){ int k = 0; int s = 0;\n"
        "  while (k < 3) { if (n > k) { s = s + 1; } k = k + 1; }\n"
        "  return 10 / (s + 1); }"
    )
    program = link_program([parse_text("s.mc", src)])
    plan = plan_harness(program, "f")
    module = ir.lower(assemble_unit(program, plan))
    first, second = (
        execute(module, plan.driver_name, TestInput({plan.symbol_map.ids()[0]: 2}),
                required_symbols=plan.symbol_map.ids()).events
        for _ in range(2)
    )
    assert len(first) == len(second)
    fixed = [e for e in first if e.expr is sx.TRUE]
    assert fixed and any(e.flippable for e in first)
    for a, b in zip(first, second):
        assert a == b
        assert (a is b) == (a.expr is sx.TRUE)
    by_direction = {(e.site_id, e.taken_dir): e for e in fixed}
    assert len(by_direction) < len(fixed)  # the loop test repeats its record
    assert all(by_direction[e.site_id, e.taken_dir] is e for e in fixed)


@functools.cache
def _reading_unit():
    """A unit that reads int and bool symbols and draws twice from one stub,
    so a queue of one value or none runs out: (plan, module)."""
    program = link_program([parse_text("a.mc", (
        "external int rng();\n"
        "int f(int a, bool b, int c){\n"
        "  int r = rng(); int s = rng();\n"
        "  if (b) { if (a + r > c) { return 1; } return 2; }\n"
        "  return s - c;\n"
        "}"
    ))])
    plan = plan_harness(program, "f")
    return plan, ir.lower(assemble_unit(program, plan))


@given(st.data())
def test_model_values_are_read_normalised(data):
    # Evaluation reads a model's values as they are, so each must already be
    # what the run read: a bool for a width-1 symbol, an int32 otherwise,
    # and 0 for a draw past the end of its queue.
    plan, module = _reading_unit()
    wide = st.integers(-(2**40), 2**40)
    bindings = {e.symbol_id: data.draw(st.integers(-3, 3) | st.booleans() if e.width == 1
                                       else wide)
                for e in plan.symbol_map.entries}
    fresh = {spec.tag: data.draw(st.lists(wide, max_size=3)) for spec in plan.stubs}
    test_input = TestInput(bindings, fresh)
    trace = execute(module, plan.driver_name, test_input, required_symbols=plan.symbol_map.ids())
    assert len(trace.model) == len(bindings) + 2
    for event in trace.events:
        assert sx.variables(event.expr) <= trace.model.keys()
    for ref, value in trace.model.items():
        assert value == interp.read_input(test_input, ref)
        if isinstance(ref, sx.SymRef):
            raw = bindings[ref.symbol_id]
        else:
            queue = fresh[ref.tag]
            raw = queue[ref.seq] if ref.seq < len(queue) else 0
        if isinstance(ref, sx.SymRef) and ref.width == 1:
            assert type(value) is bool and value == bool(raw)
        else:
            assert type(value) is int and INT_MIN <= value <= INT_MAX
            assert value == (raw + 2**31) % 2**32 - 2**31


# --- resuming at a flip point ------------------------------------------------------


# Each function keeps a value that depends on the input in a temp across a
# concrete loop, and only a later branch reads it.
KEPT_ACROSS_A_LOOP = """
int loop(){ int s = 0; int i = 0; while (i < 9) { s = s + i; i = i + 1; } return s; }
int compared(int x){ bool b = x > 2; int s = loop(); if (b) { return s; } return 0; }
int summed(int x){ int y = x * 3; int s = loop(); if (y > s) { return 1; } return 0; }
int indexed(int k){ int t[4]; t[0] = 1; t[1] = 2; t[2] = 3; t[3] = 4;
  int v = t[k]; int s = loop(); if (v == s) { return 1; } return 0; }
"""


def _prefix_units(monkeypatch):
    """Every unit of the three benchmark workloads (seed 1), of the program
    above, and of the 60 generated programs and 40 record graphs that
    `test_ir` lowers, each as (plan, module)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    programs = [
        (link_program([parse_text(path, text) for path, text in workloads.WORKLOADS[w].sources(1)]),
         None, 3)
        for w in ("exec_long", "solver_hard", "project_wide")
    ]
    programs.append((link_program([parse_text("k.mc", KEPT_ACROSS_A_LOOP)]), None, 3))
    rng = random.Random(5)
    gen = ProgramGen(rng)
    sources = [(src, name, 3) for src, name, _ in (gen.program(k) for k in range(60))]
    sources += [(record_graph_source(rng, round_no), "target", rng.randint(1, 4))
                for round_no in range(40)]
    programs += [(link_program([parse_text("u.mc", src)]), name, depth)
                 for src, name, depth in sources]
    for program, name, depth in programs:
        for target in list_functions(program)[0] if name is None else [name]:
            plan = plan_harness(program, target, depth)
            yield plan, ir.lower(assemble_unit(program, plan))


def _fixed_records(module) -> set[int]:
    """The ids of the fixed records in the module's compiled code."""
    return {id(o) for fn in module.functions.values() if fn.code is not None
            for stretches in fn.code[0] for stretch in stretches
            for record in stretch[2] + (stretch[3],) for o in record
            if type(o) is interp.BranchConstraint}


def _resumable(trace, fixed: set[int]) -> tuple:
    """Everything a run records, its events by identity (a fixed record's
    own, another's expression's) and its model in read order, or the message
    of a rejected run."""
    if isinstance(trace, interp.InterpError):
        return ("rejected", str(trace))
    events = [id(e) if id(e) in fixed else (e.site_id, e.taken_dir, id(e.expr), e.flippable)
              for e in trace.events]
    return (trace.outcome, trace.error_check_id, trace.return_value, trace.steps,
            sorted(trace.covered_points), list(trace.model.items()), events)


@pytest.fixture
def copy_everywhere(monkeypatch):
    """Copy an exact run's machine at every flippable constraint, not only
    where a copy is due, so every place a run can resume at is tried."""
    monkeypatch.setattr(interp._Machine, "copy_due", lambda machine: True)


def _agreement(events, other) -> int:
    """How many leading events two runs take in the same direction at the
    same site."""
    k = 0
    for a, b in zip(events, other):
        if (a.site_id, a.taken_dir) != (b.site_id, b.taken_dir):
            break
        k += 1
    return k


def test_a_resumed_run_equals_a_fresh_one(monkeypatch, copy_everywhere):
    # Each unit's run under the zero input copies its machine at its
    # flippable constraints. Under five seeded inputs, and three budgets (the
    # default, one that ends before the copy and one just past the start of
    # its stretch), a run resumed at each copy whose path the input takes
    # records what a fresh run does.
    rng = random.Random(11)
    copies = resumed_runs = 0
    for plan, module in _prefix_units(monkeypatch):
        def run(test_input, budget, resume=None):
            try:
                return execute(module, plan.driver_name, test_input, step_budget=budget,
                               required_symbols=plan.symbol_map.ids(), resume=resume)
            except interp.InterpError as exc:
                return exc

        parent = run(interp.zero_input(plan), interp.DEFAULT_STEP_BUDGET)
        if isinstance(parent, interp.InterpError):
            continue
        copies += len(parent.copies)
        tags = {t for t, _ in _draws(parent)}
        for test_input in [_seeded_input(plan, rng, tags) for _ in range(5)]:
            fresh = run(test_input, interp.DEFAULT_STEP_BUDGET)
            if isinstance(fresh, interp.InterpError):
                continue
            agree = _agreement(parent.events, fresh.events)
            for snap in parent.copies:
                if snap.index > agree:
                    break
                for budget in (interp.DEFAULT_STEP_BUDGET, snap.start // 2, snap.start + 7):
                    given = run(test_input, budget, (parent.copies, snap.index))
                    fixed = _fixed_records(module)
                    assert _resumable(given, fixed) == _resumable(run(test_input, budget), fixed)
                    if not isinstance(given, interp.InterpError) and given.restored_steps:
                        assert given.restored_steps <= min(budget, snap.start + snap.stretch[1])
                        resumed_runs += 1
    assert (copies, resumed_runs) == (267, 1926)


def test_every_budget_cut_resumed_is_golden(copy_everywhere):
    # The runs of `test_every_budget_cut_is_golden`, each resumed at a copy
    # that the full run under the other input took: the two inputs take the
    # same path up to constraint 43, where the first takes the `if` and the
    # second does not. The first resumes at the copy before the check that
    # precedes the `if`, in the middle of its stretch, and the second at the
    # copy before the `if`. Every budget that runs the copy's stretch whole
    # starts from it, and the hash is the same. A run that its budget cuts
    # takes no copy in the stretch it cuts: the full run resumed at its last
    # copy is the full run.
    src = (
        "external int draw();\n"
        "int bump(int v){ return v + 3; }\n"
        "int f(int n, int d){\n"
        "  int t[8]; int i = 0;\n"
        "  while (i < 8) { t[i] = i * n - 3; i = i + 1; }\n"
        "  int s = 0; int j = 0;\n"
        "  while (j < 12) {\n"
        "    s = s + t[j % 8];\n"
        "    s = bump(s) % 1000;\n"
        "    j = j + 1;\n"
        "  }\n"
        "  int r = draw();\n"
        "  s = s + t[d % 8];\n"
        "  if (s > r) { s = s - r; }\n"
        "  return s / d;\n"
        "}"
    )
    program = link_program([parse_text("c.mc", src)])
    plan = plan_harness(program, "f")
    module = ir.lower(assemble_unit(program, plan))
    ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
    tag = plan.stubs[0].tag
    inputs = [TestInput({ids["n"]: n, ids["d"]: d}, {tag: [drawn]})
              for n, d, drawn in ((3, 0, 40), (-2, 7, -50))]

    def run(test_input, budget, resume=None):
        return execute(module, plan.driver_name, test_input, step_budget=budget,
                       required_symbols=plan.symbol_map.ids(), resume=resume)

    def summary(trace):
        return (trace.outcome, trace.steps, trace.error_check_id, trace.return_value,
                trace.covered_points, [(e.site_id, e.taken_dir, e.expr) for e in trace.events])

    full = [run(test_input, interp.DEFAULT_STEP_BUDGET) for test_input in inputs]
    assert _agreement(full[0].events, full[1].events) == 43
    digest = hashlib.sha256()
    resumed = 0
    for test_input, other, index, own in ((inputs[0], full[1], 42, full[0]),
                                          (inputs[1], full[0], 43, full[1])):
        for k in range(1, 303):
            trace = run(test_input, k, (other.copies, index))
            resumed += trace.restored_steps > 0
            again = run(test_input, interp.DEFAULT_STEP_BUDGET, (trace.copies, len(trace.events)))
            assert summary(again) == summary(own)
            events = [(e.site_id, e.taken_dir, tree_text(e.expr), e.flippable)
                      for e in trace.events]
            digest.update(repr((k, trace.outcome, trace.steps, trace.error_check_id,
                                trace.return_value, sorted(trace.covered_points),
                                events)).encode())
    assert resumed == 2 * (303 - 298)
    assert digest.hexdigest() == BUDGET_CUTS_FINGERPRINT


# Each unit writes or reads memory through a symbolic offset in a way that
# the path condition does not record, before the branch on x: the run is no
# longer exact there, so it takes no copy at the branch, and a run made by
# flipping the branch with another `i` starts from an earlier copy.
NOT_EXACT = {
    # A store through a symbolic offset writes only the cell `i` picks.
    "store": """int f(int i, int x){ int t[4]; t[0] = 0; t[1] = 0; t[2] = 0; t[3] = 0;
      if (i > 0) { t[i % 4] = 5; }
      int r = 0; if (t[2] == 5) { r = 1; } if (x > 3) { r = r + 2; } return r; }""",
    # A pointer loaded through a symbolic offset is a concrete pointer.
    "pointer load": """record N { int v; }
      int f(int i, int x){ N a; N b; a.v = 1; b.v = 2; N* p[2]; p[0] = &a; p[1] = &b;
      int r = 0; if (i >= 0 && i < 2) { N* q = p[i]; if (q.v == 2) { r = 1; } }
      if (x > 3) { r = r + 2; } return r; }""",
    # A pointer with a symbolic offset compares concretely.
    "pointer comparison": """int f(int i, int x){ int t[4]; t[0] = 0; t[1] = 0; t[2] = 0;
      t[3] = 0; int r = 0;
      if (i >= 0 && i < 4) { int* p = &t[i]; int* q = &t[2]; if (p == q) { r = 1; } }
      if (x > 3) { r = r + 2; } return r; }""",
}


@pytest.mark.parametrize("name, parent_i, child_i", [
    ("store", 2, 1), ("pointer load", 1, 0), ("pointer comparison", 2, 1)])
def test_a_flip_after_an_inexact_step_resumes_before_it(name, parent_i, child_i,
                                                         copy_everywhere):
    program = link_program([parse_text("e.mc", NOT_EXACT[name])])
    plan = plan_harness(program, "f")
    module = ir.lower(assemble_unit(program, plan))
    ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}

    def run(i, x, resume=None):
        return execute(module, plan.driver_name, TestInput({ids["i"]: i, ids["x"]: x}),
                       required_symbols=plan.symbol_map.ids(), resume=resume)

    parent = run(parent_i, 0)
    flip = len(parent.events) - 1  # the branch on x
    assert parent.events[flip].flippable and parent.copies
    assert all(snap.index < flip - 1 for snap in parent.copies)
    resumed, fresh = run(child_i, 5, (parent.copies, flip)), run(child_i, 5)
    assert resumed.restored_steps > 0
    # The unrecorded step takes the other direction under the child's `i`.
    assert [e.taken_dir for e in fresh.events] != [e.taken_dir for e in parent.events][:flip] + [
        "then"]
    fixed = _fixed_records(module)
    assert _resumable(resumed, fixed) == _resumable(fresh, fixed)


@pytest.mark.parametrize("everywhere, counts", [
    (False, {"runs": 1218, "resumed": 204}), (True, {"runs": 1218, "resumed": 938})],
    ids=["copies-when-due", "copies-everywhere"])
def test_every_run_of_a_search_equals_a_fresh_one(monkeypatch, everywhere, counts):
    # Every run that `run_unit` makes, many of them resumed at a copy that
    # the run whose flip gave their input took, records what a fresh run of
    # its input does: over every unit of the three workloads (seed 1, at
    # their budgets) and of the generated programs of `_prefix_units`, with
    # copies where they are due and at every flippable constraint.
    if everywhere:
        monkeypatch.setattr(interp._Machine, "copy_due", lambda machine: True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    from coyote_mc import engine

    fresh_execute = interp.execute
    seen = {"runs": 0, "resumed": 0}

    def run(module, entry, test_input, **kwargs):
        try:
            return fresh_execute(module, entry, test_input, **kwargs)
        except interp.InterpError as exc:
            return exc

    def checked(module, entry, test_input, resume=None, **kwargs):
        given = run(module, entry, test_input, resume=resume, **kwargs)
        fixed = _fixed_records(module)
        assert _resumable(given, fixed) == _resumable(run(module, entry, test_input, **kwargs),
                                                      fixed)
        seen["runs"] += 1
        if isinstance(given, interp.InterpError):
            raise given
        seen["resumed"] += given.restored_steps > 0
        return given

    monkeypatch.setattr(interp, "execute", checked)
    for name in ("exec_long", "solver_hard", "project_wide"):
        workload = workloads.WORKLOADS[name]
        pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    config = pipeline.engine_config(workloads.WORKLOADS["project_wide"].budgets)
    for plan, module in _prefix_units(monkeypatch):
        engine.run_unit(module, plan, config)
    assert seen == counts


def test_every_constant_constraint_of_a_seed_1_pass_is_the_shared_true(monkeypatch):
    # `BranchConstraint.flippable` is `expr is not sx.TRUE`: a constraint taken
    # on a condition over the input that folds to a constant must fold to
    # the shared TRUE. Checked on every run of a seed-1 pass of each workload.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    fresh_execute = interp.execute
    seen = {"runs": 0}
    other = []

    def checked(*args, **kwargs):
        trace = fresh_execute(*args, **kwargs)
        seen["runs"] += 1
        other.extend(e for e in trace.events if sx.is_const(e.expr) and e.expr is not sx.TRUE)
        return trace

    monkeypatch.setattr(interp, "execute", checked)
    for name in ("exec_long", "solver_hard", "project_wide"):
        workload = workloads.WORKLOADS[name]
        pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert seen["runs"] > 0 and other == []
