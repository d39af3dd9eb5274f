"""IR lowering, runtime checks, and coverage-point tests."""

import random

from coyote_mc import ir
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

from ast_oracle import ProgramGen, record_graph_source


def build(src):
    return ir.lower(link_program([parse_text("a.mc", src)]))


class TestLower:
    def test_identity_single_block(self):
        module = build("int id(int x){ return x; }")
        fn = module.functions["id"]
        assert len(fn.blocks) == 1
        assert isinstance(fn.blocks[0].terminator, ir.Ret)
        assert not any(isinstance(i, ir.SymBind) for b in fn.blocks for i in b.instrs)

    def test_short_circuit_and_two_decisions(self):
        # Two short-circuit decisions, each 2 directions -> 2 CondBr, 4 points.
        module = build("int f(bool a, bool b){ if (a && b) { return 1; } return 2; }")
        fn = module.functions["f"]
        cond_brs = [i for b in fn.blocks for i in b.instrs if isinstance(i, ir.CondBr)]
        assert len(cond_brs) == 2
        branch_points = [p for p in module.points if p.kind == "branch"]
        assert len(branch_points) == 4

    def test_while_has_back_edge(self):
        module = build(
            "int f(int n){ int i = 0; while (i < n) { i = i + 1; } return i; }",
        )
        fn = module.functions["f"]
        cfg = module.cfg["f"]
        headers = [
            b.index for b in fn.blocks if isinstance(b.terminator, ir.CondBr)
        ]
        assert len(headers) == 1
        header = headers[0]
        # Some block reachable from the header branches back to it.
        assert any(header in succs and idx > header for idx, succs in cfg.items())

    def test_condbr_points_distinct_ids_same_loc(self):
        module = build("int f(int x){ if (x > 0) { return 1; } return 0; }")
        for fn in module.functions.values():
            for block in fn.blocks:
                term = block.terminator
                if isinstance(term, ir.CondBr):
                    then_p = module.point_by_id(term.then_point)
                    else_p = module.point_by_id(term.else_point)
                    assert then_p.point_id != else_p.point_id
                    assert then_p.loc == else_p.loc

    def test_every_block_single_terminator(self):
        module = build(
            "int f(int a, int b){\n"
            "  int r = 0;\n"
            "  while (a > 0) { if (b > 1 && a % b == 0) { r = r + 1; } a = a - 1; }\n"
            "  return r;\n"
            "}"
        )
        for fn in module.functions.values():
            for block in fn.blocks:
                assert isinstance(block.terminator, ir.TERMINATORS)
                for instr in block.instrs[:-1]:
                    assert not isinstance(instr, ir.TERMINATORS)


class TestInjectChecks:
    def test_div_gets_check(self):
        module = build("int f(int a, int b){ return a / b; }")
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check)
        ]
        assert len(checks) == 1
        assert checks[0].kind == ir.CheckKind.DIV_BY_ZERO

    def test_index_gets_bound_check(self):
        module = build("int f(int v[4], int i){ return v[i]; }")
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check) and i.kind == ir.CheckKind.INDEX_OUT_OF_BOUNDS
        ]
        assert len(checks) == 1
        assert checks[0].bound == 4

    def test_constant_index_unchecked(self):
        module = build("int f(int v[4]){ v[0] = 1; return v[3]; }")
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check)
        ]
        assert checks == []

    def test_assert_becomes_user_check(self):
        module = build("void f(int x){ assert(x > 0); return; }")
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check)
        ]
        assert len(checks) == 1
        assert checks[0].kind == ir.CheckKind.USER_ASSERT
        # The placeholder call is consumed.
        calls = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.CallInstr)
        ]
        assert calls == []

    def test_local_access_needs_no_null_check(self):
        module = build(
            "record P { int x; int y; }\n"
            "int f(){ P p; p.x = 1; p.y = 2; return p.x + p.y; }"
        )
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check)
        ]
        assert checks == []

    def test_pointer_access_gets_null_check(self):
        module = build("record P { int x; }\nint f(P* p){ return p.x; }")
        checks = [
            i for fn in module.functions.values() for b in fn.blocks for i in b.instrs
            if isinstance(i, ir.Check)
        ]
        assert [c.kind for c in checks] == [ir.CheckKind.NULL_DEREF]

    def test_fail_edge_excluded_from_denominators(self):
        module = build("int f(int a, int b){ if (a > b) { return a / b; } return 0; }")
        _, branches = ir.enumerate_coverage_points(module)
        assert branches["f"] == 2  # the two directions of the if
        edge_points = [p for p in module.points if p.kind == "branch"]
        error_edges = [p for p in edge_points if p.is_error_edge]
        check_count = sum(
            isinstance(i, ir.Check)
            for fn in module.functions.values() for b in fn.blocks for i in b.instrs
        )
        assert len(edge_points) == 3
        assert len(error_edges) == check_count == 1

    def test_every_check_guards_the_first_instruction_of_its_pass_block(self):
        def units():
            rng = random.Random(5)
            gen = ProgramGen(rng)
            for k in range(60):
                src, name, _ = gen.program(k)
                yield src, name, 3
            for round_no in range(40):
                yield record_graph_source(rng, round_no), "target", rng.randint(1, 4)

        kinds = set()
        for src, target, depth in units():
            program = link_program([parse_text("u.mc", src)])
            module = ir.lower(assemble_unit(program, plan_harness(program, target, depth)))
            for fn in module.functions.values():
                for block in fn.blocks:
                    check = block.terminator
                    if not isinstance(check, ir.Check) or check.kind == ir.CheckKind.USER_ASSERT:
                        continue
                    kinds.add(check.kind)
                    guarded = fn.blocks[check.cont_blk].instrs[0]
                    operand = check.operands[0]
                    assert guarded.loc == check.loc, src
                    if check.kind == ir.CheckKind.NULL_DEREF:
                        assert isinstance(guarded, (ir.Load, ir.Store)), src
                        assert guarded.addr == operand, src
                    elif check.kind == ir.CheckKind.INDEX_OUT_OF_BOUNDS:
                        assert isinstance(guarded, ir.IndexAddr), src
                        assert (guarded.index, guarded.elem_count) == (operand, check.bound), src
                    else:
                        op = "/" if check.kind == ir.CheckKind.DIV_BY_ZERO else "%"
                        assert isinstance(guarded, ir.BinOp) and guarded.op == op, src
                        assert guarded.rhs == operand, src
                    fail = fn.blocks[check.fail_blk].instrs
                    assert len(fail) == 1 and isinstance(fail[0], ir.Ret), src
        assert {ir.CheckKind.NULL_DEREF, ir.CheckKind.DIV_BY_ZERO, ir.CheckKind.MOD_BY_ZERO} <= kinds

    def test_function_ir_independent_of_harness(self):
        # The program's own functions are lowered first, checks included, so
        # each has the same instructions and points in every unit.
        src = (
            "record P { int x; P* next; }\n"
            "int first(P* p, int v[3], int i){ assert(i != 2); return v[i] / p.x; }\n"
            "int second(int a, int b){ if (a > 0) { return a % b; } return a; }"
        )
        program = link_program([parse_text("u.mc", src)])
        seen = []
        for target in ("first", "second"):
            module = ir.lower(assemble_unit(program, plan_harness(program, target)))
            own = [fn for fn in module.functions.values() if not fn.synthetic]
            seen.append((
                repr([b.instrs for fn in own for b in fn.blocks]),
                [p for p in module.points if p.func_name in ("first", "second")],
            ))
        assert seen[0] == seen[1]


class TestEnumerate:
    def test_straight_line(self):
        module = build("int f(){ int a = 1; int b = 2; return a + b; }")
        stmts, branches = ir.enumerate_coverage_points(module)
        assert stmts["f"] == 3
        assert branches["f"] == 0

    def test_if_else_two_branches(self):
        module = build("int f(int x){ if (x > 0) { return 1; } else { return 2; } }")
        _, branches = ir.enumerate_coverage_points(module)
        assert branches["f"] == 2

    def test_decl_without_init_not_executable(self):
        module = build("int f(){ int a; a = 1; return a; }")
        stmts, _ = ir.enumerate_coverage_points(module)
        assert stmts["f"] == 2


class TestDump:
    GOLDEN = """\
func abs(x: int) -> int
  slot x: int x1
block0:
  %0 = const slot0  ; stmt_point=0
  %1 = load %0
  %2 = const 0
  %3 = cmp < %1 %2
  condbr %3 block1 block2 pts(1,2)
block1:
  %5 = const 0  ; stmt_point=3
  %6 = const slot0
  %7 = load %6
  %8 = binop - %5 %7
  ret %8
block2:
  %10 = const slot0  ; stmt_point=4
  %11 = load %10
  ret %11
"""

    def test_golden_text(self):
        module = build("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        assert ir.dump_ir(module).strip() == self.GOLDEN.strip()

    # Each check ends its block right before the instruction it guards, which
    # starts the pass block. The literal index v[2], frame-slot addresses and
    # the array parameter's copy need no check.
    CHECKED_GOLDEN = """\
func f(p: Node*, v: int[4], i: int, d: int) -> int
  slot p: Node* x1
  slot v: int[4] x1
  slot i: int x1
  slot d: int x1
  slot q: int x1
block0:
  %0 = const slot3  ; stmt_point=0
  %1 = load %0
  %2 = const 0
  %3 = cmp != %1 %2
  check UserAssert(%3) fail=block2 cont=block1
block1:
  %6 = const slot1  ; stmt_point=2
  %7 = load %6
  %8 = const slot2
  %9 = load %8
  check IndexOutOfBounds(%9) bound=4 fail=block4 cont=block3
block2:
  ret
block3:
  %12 = indexaddr %7 [%9] n=4 w=1
  %13 = load %12
  %14 = const slot1
  %15 = load %14
  %16 = const 2
  %17 = indexaddr %15 [%16] n=4 w=1
  %18 = load %17
  %19 = binop + %13 %18
  %20 = const slot3
  %21 = load %20
  check DivByZero(%21) fail=block6 cont=block5
block4:
  ret
block5:
  %24 = binop / %19 %21
  %25 = const slot4
  store %25 %24
  %27 = const slot4  ; stmt_point=5
  %28 = load %27
  %29 = const slot0
  %30 = load %29
  %31 = fieldaddr %30 +0
  check NullDeref(%31) fail=block8 cont=block7
block6:
  ret
block7:
  %34 = load %31
  %35 = binop + %28 %34
  ret %35
block8:
  ret
"""

    def test_golden_text_with_checks(self):
        module = build(
            "record Node { int val; Node* next; }\n"
            "int f(Node* p, int v[4], int i, int d) {\n"
            "    assert(d != 0);\n"
            "    int q = (v[i] + v[2]) / d;\n"
            "    return q + p.val;\n"
            "}"
        )
        assert ir.dump_ir(module).strip() == self.CHECKED_GOLDEN.strip()

    def test_dump_stable_across_builds(self):
        src = "int f(int a, int b){ if (a > b) { return a / b; } return b % 2; }"
        assert ir.dump_ir(build(src)) == ir.dump_ir(build(src))
