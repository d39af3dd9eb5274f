"""Path-condition tests: constraints recorded by the concolic interpreter, the
memory model rules, simplification, and replay consistency."""

import random
import signal
import time

import coyote_mc.symexpr as sx
from coyote_mc import interp, ir
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.interp import TestInput, execute
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text
from coyote_mc.symex import check_consistency, render_path_condition, replay_symbolic

from ast_oracle import DivByZero, ProgramGen, call_function


def build_unit(src, target, depth_limit=3):
    program = link_program([parse_text("u.mc", src)])
    plan = plan_harness(program, target, depth_limit)
    module = ir.lower(assemble_unit(program, plan))
    return module, plan


def run_and_replay(module, plan, bindings, fresh=None):
    trace = execute(
        module, plan.driver_name, TestInput(dict(bindings), fresh or {}),
        required_symbols=plan.symbol_map.ids(),
    )
    pc = replay_symbolic(trace)
    return trace, pc


class TestReplay:
    def test_abs_negative_single_constraint(self):
        module, plan = build_unit(
            "int abs(int x){ if (x < 0) { return 0 - x; } return x; }", "abs"
        )
        _, pc = run_and_replay(module, plan, {0: -3})
        assert len(pc.constraints) == 1
        c = pc.constraints[0]
        assert c.taken_dir == "then"
        assert c.flippable
        assert sx.to_prefix(c.expr) == "(slt (sym 0) (const 0))"

    def test_constant_branch_not_flippable(self):
        module, plan = build_unit(
            "int f(int x){ if (1 < 2) { return 1; } return x; }", "f"
        )
        _, pc = run_and_replay(module, plan, {0: 0})
        assert len(pc.constraints) == 1
        assert not pc.constraints[0].flippable
        assert pc.constraints[0].expr == sx.TRUE

    def test_div_by_zero_ends_with_fail_constraint(self):
        module, plan = build_unit("int f(int a, int b){ return a / b; }", "f")
        trace, pc = run_and_replay(module, plan, {0: 4, 1: 0})
        assert trace.outcome == interp.OUTCOME_ERROR
        last = pc.constraints[-1]
        assert last.taken_dir == "fail"
        assert sx.to_prefix(last.expr) == "(not (ne (sym 1) (const 0)))"

    def test_every_constraint_true_under_its_input(self):
        module, plan = build_unit(
            "int f(int a, int b){\n"
            "  int r = 0;\n"
            "  while (a > 0) { if (a % 2 == 0) { r = r + b; } a = a - 1; }\n"
            "  return r;\n"
            "}",
            "f",
        )
        rng = random.Random(5)
        for _ in range(25):
            bindings = {0: rng.randrange(-4, 9), 1: rng.randrange(-50, 50)}
            trace, pc = run_and_replay(module, plan, bindings)
            assert check_consistency(pc, trace.input)
        # Random scalar programs run as harness units: each path condition
        # holds under its input, any other input satisfying it takes the same
        # path, and outcomes and return values match the AST oracle.
        gen = ProgramGen(rng)
        for k in range(40):
            src, name, arity = gen.program(k)
            module, plan = build_unit(src, name)
            program = link_program([parse_text("u.mc", src)])
            runs = []
            for _ in range(4):
                args = [rng.randrange(-100, 100) for _ in range(arity)]
                trace, pc = run_and_replay(module, plan, dict(enumerate(args)))
                assert check_consistency(pc, trace.input), src
                runs.append((trace, pc))
                try:
                    expected = call_function(program, name, args)
                except DivByZero:
                    assert trace.outcome == interp.OUTCOME_ERROR, src
                    kind = module.instr_by_id(trace.error_check_id).kind
                    assert kind in (ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO), src
                    continue
                assert trace.outcome == interp.OUTCOME_COMPLETED, src
                assert execute(module, name, TestInput(), args=args).return_value == expected, src
            for _, pc in runs:
                for other, _ in runs:
                    if check_consistency(pc, other.input):
                        dirs = [(c.site_id, c.taken_dir) for c in pc.constraints]
                        assert [(e.site_id, e.taken_dir) for e in other.events] == dirs, src

    def test_dump_pc_format(self):
        module, plan = build_unit(
            "int abs(int x){ if (x < 0) { return 0 - x; } return x; }", "abs"
        )
        _, pc = run_and_replay(module, plan, {0: -3})
        text = render_path_condition(pc)
        assert text == "[0] site=2 dir=then flippable (slt (sym 0) (const 0))\n"


class TestMemoryModel:
    LOOKUP = (
        "int lookup(int v[3], int i){ if (v[i] == 5) { return 1; } return 0; }"
    )

    def test_symbolic_load_ite_chain_matches_cells(self):
        # Oracle: evaluating the Ite under i in {0,1,2} must equal reading the
        # corresponding cell symbol directly.
        module, plan = build_unit(self.LOOKUP, "lookup")
        bindings = {0: 10, 1: 20, 2: 30, 3: 1}  # v[0..2], i
        _, pc = run_and_replay(module, plan, bindings)
        cmp_constraint = pc.constraints[-1]
        for i in (0, 1, 2):
            model = {0: 10, 1: 20, 2: 30, 3: i}
            expect_eq5 = model[i] == 5
            got = sx.evaluate(cmp_constraint.expr, model)
            # constraint is the comparison as taken (else direction: not ==).
            assert got == (not expect_eq5)
        model_hit = {0: 10, 1: 5, 2: 30, 3: 1}
        assert sx.evaluate(cmp_constraint.expr, model_hit) is False

    def test_concrete_index_load_is_plain_symbol(self):
        module, plan = build_unit(
            "int second(int v[3]){ if (v[1] == 5) { return 1; } return 0; }", "second"
        )
        _, pc = run_and_replay(module, plan, {0: 0, 1: 0, 2: 0})
        refs = sx.variables(pc.constraints[-1].expr)
        assert refs == {sx.SymRef(1, 32)}

    def test_store_concrete_address_rule(self):
        # Writing through a symbolic index updates exactly the concretely
        # addressed cell: afterwards reading another (concrete) cell stays
        # bound to its original symbol.
        src = (
            "int f(int v[3], int i, int x){\n"
            "  v[i] = x;\n"
            "  if (v[0] == 7) { return 1; }\n"
            "  return 0;\n"
            "}"
        )
        module, plan = build_unit(src, "f")
        # i = 2 concretely: cell 0 untouched.
        _, pc = run_and_replay(module, plan, {0: 1, 1: 2, 2: 3, 3: 2, 4: 9})
        final_cmp = pc.constraints[-1]
        assert sx.variables(final_cmp.expr) == {sx.SymRef(0, 32)}
        # i = 0 concretely: cell 0 now carries x's symbol.
        _, pc2 = run_and_replay(module, plan, {0: 1, 1: 2, 2: 3, 3: 0, 4: 9})
        assert sx.variables(pc2.constraints[-1].expr) == {sx.SymRef(4, 32)}

    def test_last_writer_wins(self):
        src = (
            "int f(int a, int b){\n"
            "  int t = 0;\n"
            "  t = a;\n"
            "  t = b;\n"
            "  if (t == 3) { return 1; }\n"
            "  return 0;\n"
            "}"
        )
        module, plan = build_unit(src, "f")
        _, pc = run_and_replay(module, plan, {0: 1, 1: 2})
        assert sx.variables(pc.constraints[-1].expr) == {sx.SymRef(1, 32)}

    def test_final_symbolic_memory_matches_concrete(self):
        # Concretization soundness: evaluating every symbolic cell under the
        # originating input reproduces the interpreter's final concrete memory.
        src = (
            "record P { int x; int y; }\n"
            "void mix(P* p, int k){\n"
            "  p.x = p.x + k;\n"
            "  if (p.x > 10) { p.y = p.x * 2; } else { p.y = 0 - p.x; }\n"
            "  return;\n"
            "}"
        )
        module, plan = build_unit(src, "mix")
        rng = random.Random(11)
        checked = 0
        for _ in range(20):
            bindings = {i: rng.randrange(-20, 20) for i in plan.symbol_map.ids()}
            machine = interp._Machine(
                module, TestInput(dict(bindings)), interp.DEFAULT_STEP_BUDGET
            )
            machine.run(plan.driver_name, [])
            for cells in machine.heap.values():
                for cell in cells:
                    if cell is interp.UNINIT:
                        continue
                    concrete, expr = cell
                    if expr is not None and not isinstance(concrete, interp.Addr):
                        assert sx.evaluate(expr, bindings, {}) == concrete
                        checked += 1
        assert checked


    def test_symbolic_index_selects_only_the_indexed_array(self):
        # The index check bounds i to 0..2, so the selection for r.v[i] ranges
        # over r.v's cells only, and p[i].y's over the y fields only.
        module, plan = build_unit(
            "record R { int a; int v[3]; int b; }\n"
            "int f(R r, int i){ if (r.v[i] == 5) { return 1; } return 0; }",
            "f",
        )
        ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
        _, pc = run_and_replay(module, plan, {sid: 0 for sid in ids.values()} | {ids["i"]: 1})
        refs = {r.symbol_id for r in sx.variables(pc.constraints[-1].expr)}
        assert refs == {ids["r.v[0]"], ids["r.v[1]"], ids["r.v[2]"], ids["i"]}
        module, plan = build_unit(
            "record P { int x; int y; }\n"
            "int g(P p[3], int i){ if (p[i].y == 5) { return 1; } return 0; }",
            "g",
        )
        ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
        _, pc = run_and_replay(module, plan, {sid: 0 for sid in ids.values()} | {ids["i"]: 2})
        refs = {r.symbol_id for r in sx.variables(pc.constraints[-1].expr)}
        assert refs == {ids["p[0].y"], ids["p[1].y"], ids["p[2].y"], ids["i"]}
        for i in range(3):
            for hit in range(3):
                bindings = {sid: 0 for sid in ids.values()} | {ids["i"]: i}
                bindings[ids[f"p[{hit}].y"]] = 5
                assert sx.evaluate(pc.constraints[-1].expr, bindings) == (i != hit)


class TestEvaluate:
    def test_linear_in_dag_size(self):
        # y = x; then y = y + y; y = y - x, 64 times: 129 distinct nodes whose
        # tree form has about 2^65. y stays x, so y == 7 holds exactly at 7.
        x = sx.SymRef(0)
        y = x
        for _ in range(64):
            y = sx.mk_bin("-", sx.mk_bin("+", y, y), x)
        expr = sx.mk_cmp("==", y, sx.ConstI32(7))

        def overrun(signum, frame):
            raise TimeoutError("evaluate walks the tree, not the DAG")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            start = time.perf_counter()
            hit = sx.evaluate(expr, {0: 7})
            miss = sx.evaluate(expr, {0: 3})
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert hit is True and miss is False
        assert elapsed < 0.1


class TestVariables:
    def test_linear_in_dag_size(self):
        # The chain of TestEvaluate: each shared node is visited once.
        x = sx.SymRef(0)
        y = x
        for _ in range(64):
            y = sx.mk_bin("-", sx.mk_bin("+", y, y), x)

        def overrun(signum, frame):
            raise TimeoutError("variables walks the tree, not the DAG")

        previous = signal.signal(signal.SIGALRM, overrun)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            start = time.perf_counter()
            found = sx.variables(sx.mk_cmp("==", y, sx.ConstI32(7)))
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert found == {x}
        assert elapsed < 0.1


class TestSimplify:
    def test_double_negation(self):
        a = sx.SymRef(0, 1)
        assert sx.simplify(sx.NotExpr(sx.NotExpr(a))) == a

    def test_constant_fold(self):
        e = sx.BinExpr("+", sx.ConstI32(3), sx.ConstI32(4))
        assert sx.simplify(e) == sx.ConstI32(7)

    def test_ite_constant_cond(self):
        a, b = sx.ConstI32(1), sx.ConstI32(2)
        assert sx.simplify(sx.IteExpr(sx.TRUE, a, b)) == a

    def test_neutral_elements(self):
        x = sx.SymRef(0)
        assert sx.simplify(sx.BinExpr("+", x, sx.ConstI32(0))) == x
        assert sx.simplify(sx.BinExpr("*", x, sx.ConstI32(1))) == x
        assert sx.simplify(sx.BinExpr("*", x, sx.ConstI32(0))) == sx.ConstI32(0)

    def test_simplify_preserves_evaluation(self):
        # 20 fuzzed expressions x 10,000 random assignments each.
        rng = random.Random(77)
        n_vars = 3

        def gen(depth, want_bool):
            if depth == 0:
                if want_bool:
                    return rng.choice([sx.TRUE, sx.FALSE, sx.SymRef(3, 1)])
                return rng.choice(
                    [sx.ConstI32(rng.randrange(-8, 8)), sx.SymRef(rng.randrange(n_vars))]
                )
            if want_bool:
                kind = rng.randrange(4)
                if kind == 0:
                    return sx.CmpExpr(
                        rng.choice(sx.CMP_OPS), gen(depth - 1, False), gen(depth - 1, False)
                    )
                if kind == 1:
                    return sx.NotExpr(gen(depth - 1, True))
                if kind == 2:
                    return sx.BinExpr(
                        rng.choice(["and", "or"]), gen(depth - 1, True), gen(depth - 1, True)
                    )
                return sx.IteExpr(gen(depth - 1, True), gen(depth - 1, True), gen(depth - 1, True))
            kind = rng.randrange(2)
            if kind == 0:
                return sx.BinExpr(
                    rng.choice(sx.ARITH_OPS), gen(depth - 1, False), gen(depth - 1, False)
                )
            return sx.IteExpr(gen(depth - 1, True), gen(depth - 1, False), gen(depth - 1, False))

        for _ in range(20):
            expr = gen(3, rng.random() < 0.5)
            simplified = sx.simplify(expr)
            for _ in range(10_000):
                model = {i: rng.randrange(-2**31, 2**31) for i in range(n_vars)}
                model[3] = rng.random() < 0.5
                assert sx.evaluate(expr, model) == sx.evaluate(simplified, model)
