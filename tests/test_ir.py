"""IR lowering, check injection, and coverage-point tests."""

import copy
import random

from coyote_mc import ir
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text


def build(src, inject=True):
    program = link_program([parse_text("a.mc", src)])
    module = ir.lower(program)
    if inject:
        ir.inject_checks(module)
    return module


class TestLower:
    def test_identity_single_block(self):
        module = build("int id(int x){ return x; }", inject=False)
        fn = module.functions["id"]
        assert len(fn.blocks) == 1
        assert isinstance(fn.blocks[0].terminator, ir.Ret)
        assert not any(isinstance(i, ir.SymBind) for b in fn.blocks for i in b.instrs)

    def test_short_circuit_and_two_decisions(self):
        # Two short-circuit decisions, each 2 directions -> 2 CondBr, 4 points.
        module = build("int f(bool a, bool b){ if (a && b) { return 1; } return 2; }",
                       inject=False)
        fn = module.functions["f"]
        cond_brs = [i for b in fn.blocks for i in b.instrs if isinstance(i, ir.CondBr)]
        assert len(cond_brs) == 2
        branch_points = [p for p in module.points if p.kind == "branch"]
        assert len(branch_points) == 4

    def test_while_has_back_edge(self):
        module = build(
            "int f(int n){ int i = 0; while (i < n) { i = i + 1; } return i; }",
            inject=False,
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
        module = build("int f(int x){ if (x > 0) { return 1; } return 0; }", inject=False)
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

    def test_lookup_before_injection_sees_injected_checks(self):
        # An instruction index built before injection must not hide the
        # checks that injection adds.
        module = build("int f(int a, int b){ return a / b; }", inject=False)
        first = module.functions["f"].blocks[0].instrs[0]
        assert module.function_of_instr(first.iid) == "f"
        assert module.instr_by_id(first.iid) is first
        ir.inject_checks(module)
        check = next(
            i for b in module.functions["f"].blocks for i in b.instrs
            if isinstance(i, ir.Check)
        )
        assert module.function_of_instr(check.iid) == "f"
        assert module.instr_by_id(check.iid) is check

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

    def test_idempotent(self):
        src = "int f(int a, int b, int v[4]){ assert(b != 0); return v[a] / b; }"
        once = build(src)
        twice = ir.inject_checks(once)
        assert twice is once
        snapshot = ir.dump_ir(once)
        ir.inject_checks(once)
        assert ir.dump_ir(once) == snapshot

    def test_fail_edge_excluded_from_denominators(self):
        plain = build("int f(int a, int b){ if (a > b) { return a / b; } return 0; }",
                      inject=False)
        _, branch_before = ir.enumerate_coverage_points(plain)
        checked = build("int f(int a, int b){ if (a > b) { return a / b; } return 0; }")
        _, branch_after = ir.enumerate_coverage_points(checked)
        assert branch_before["f"] == branch_after["f"] == 2
        error_edges = [p for p in checked.points if p.is_error_edge]
        check_count = sum(
            isinstance(i, ir.Check)
            for fn in checked.functions.values() for b in fn.blocks for i in b.instrs
        )
        assert len(error_edges) == check_count == 1


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

    def test_dump_stable_across_builds(self):
        src = "int f(int a, int b){ if (a > b) { return a / b; } return b % 2; }"
        assert ir.dump_ir(build(src)) == ir.dump_ir(build(src))
