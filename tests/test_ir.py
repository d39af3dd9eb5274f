"""IR lowering, runtime checks, and coverage-point tests."""

import random
from pathlib import Path

from coyote_mc import ir
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.minic import ast
from coyote_mc.minic.linker import link_program, list_functions
from coyote_mc.minic.parser import parse_text

from ast_oracle import ProgramGen, record_graph_source

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def build(src):
    return ir.lower(link_program([parse_text("a.mc", src)]))


def generated_units():
    """60 random scalar programs and 40 random record graphs, each lowered as
    a unit with its harness: (source, module)."""
    rng = random.Random(5)
    gen = ProgramGen(rng)
    units = [(src, name, 3) for src, name, _ in (gen.program(k) for k in range(60))]
    units += [(record_graph_source(rng, round_no), "target", rng.randint(1, 4))
              for round_no in range(40)]
    for src, target, depth in units:
        program = link_program([parse_text("u.mc", src)])
        yield src, ir.lower(assemble_unit(program, plan_harness(program, target, depth)))


# The temps each kind of instruction reads.
OPERANDS = {
    ir.Br: lambda i: [], ir.BinOp: lambda i: [i.lhs, i.rhs], ir.Cmp: lambda i: [i.lhs, i.rhs],
    ir.Load: lambda i: [i.addr], ir.Store: lambda i: [i.addr, i.value],
    ir.Move: lambda i: [i.src],
    ir.FieldAddr: lambda i: [i.base], ir.IndexAddr: lambda i: [i.base, i.index],
    ir.SymBind: lambda i: [i.symbol_id, i.dest], ir.CondBr: lambda i: [i.cond],
    ir.CallInstr: lambda i: i.args, ir.Check: lambda i: [i.operand],
    ir.Ret: lambda i: [] if i.value is None else [i.value],
}
VALUE_INSTRS = (ir.BinOp, ir.Cmp, ir.Load, ir.FieldAddr, ir.IndexAddr)


class TestLower:
    def test_operands_lists_every_instruction_kind(self):
        # The operand invariant below reads OPERANDS, so a new or deleted
        # instruction kind must show up here first.
        def subclasses(cls):
            return {s for direct in cls.__subclasses__() for s in {direct} | subclasses(direct)}

        assert set(OPERANDS) == subclasses(ir.Instr)

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
        headers = [
            b.index for b in fn.blocks if isinstance(b.terminator, ir.CondBr)
        ]
        assert len(headers) == 1
        header = headers[0]
        # Some block reachable from the header branches back to it.
        targets = ("target", "then_blk", "else_blk", "fail_blk", "cont_blk")
        succs = {b.index: [getattr(b.terminator, t) for t in targets if hasattr(b.terminator, t)]
                 for b in fn.blocks}
        assert any(header in succ and idx > header for idx, succ in succs.items())

    def test_condbr_points_distinct_ids_same_loc(self):
        module = build("int f(int x){ if (x > 0) { return 1; } return 0; }")
        for fn in module.functions.values():
            for block in fn.blocks:
                term = block.terminator
                if isinstance(term, ir.CondBr):
                    then_p = module.points[term.then_point]
                    else_p = module.points[term.else_point]
                    assert then_p.point_id != else_p.point_id
                    assert then_p.loc == else_p.loc

    def test_every_operand_is_a_temp_of_its_function(self):
        # An operand is the id of a value-producing instruction of the same
        # function, a temp of the function's constant table, or one of its
        # local temps, which only a move writes; there are no inline
        # immediates.
        read = set()
        for src, module in generated_units():
            for fn in module.functions.values():
                instrs = [i for b in fn.blocks for i in b.instrs]
                values = {
                    i.iid for i in instrs
                    if isinstance(i, VALUE_INSTRS)
                    or (isinstance(i, ir.CallInstr) and i.returns_value)
                }
                local_temps = set(range(-len(fn.locals), 0))
                temps = values | local_temps | fn.consts.keys() | fn.slot_addrs.keys()
                for instr in instrs:
                    for op in OPERANDS[type(instr)](instr):
                        assert type(op) is int and op in temps, (src, fn.name, instr)
                        if op < 0:
                            read.add("local")
                        elif op in fn.consts:
                            read.add("const")
                        elif op in fn.slot_addrs:
                            read.add("slot")
                        else:
                            read.add(type(module.instr_by_id(op)))
                    if isinstance(instr, ir.Move):
                        assert instr.dest in local_temps, (src, fn.name, instr)
        assert set(VALUE_INSTRS) | {"local", "const", "slot"} <= read

    def test_every_table_temp_is_its_own_and_read(self):
        # A constant-table temp takes its id from the instructions' counter, so
        # it is no instruction's id, and it exists only because an
        # instruction of its function reads it.
        for src, module in generated_units():
            iids = {i.iid for fn in module.functions.values() for b in fn.blocks for i in b.instrs}
            for fn in module.functions.values():
                table = fn.consts.keys() | fn.slot_addrs.keys()
                assert not fn.consts.keys() & fn.slot_addrs.keys(), (src, fn.name)
                assert not table & iids, (src, fn.name)
                read = {op for b in fn.blocks for i in b.instrs for op in OPERANDS[type(i)](i)}
                assert table <= read, (src, fn.name)

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


class TestLocalTemps:
    """A scalar local or parameter whose address is never taken lives in a
    frame temp; everything else keeps a frame slot."""

    @staticmethod
    def instrs(fn):
        return [i for b in fn.blocks for i in b.instrs]

    def test_scalar_locals_need_no_memory(self):
        fn = build("int f(int x){ int y = x; y = y + y; return y - x; }").functions["f"]
        assert not any(isinstance(i, (ir.Load, ir.Store)) for i in self.instrs(fn))
        assert fn.slots == [] and fn.slot_addrs == {}
        assert [name for name, _ in fn.locals] == ["x", "y"]
        assert sum(isinstance(i, ir.Move) for i in self.instrs(fn)) == 2

    def test_address_taken_and_aggregates_keep_slots(self):
        # An aggregate parameter is its caller copy's address, in a local temp.
        module = build(
            "record R { int a; int b; }\n"
            "int f(R r, int a){ int* p = &a; int t[4]; t[0] = *p; int s = r.b; return t[0] + s; }"
        )
        fn = module.functions["f"]
        assert [slot.name for slot in fn.slots] == ["a", "t"]
        assert [name for name, _ in fn.locals] == ["r", "p", "s"]
        assert fn.param_homes == [-1, 0]

    def test_aggregate_parameter_is_read_from_its_local_temp(self):
        # Each field read loads its own cell and nothing else: the caller
        # copy's address is not reloaded from a slot at every use.
        fn = build("record R { int x; int y; }\nint f(R r){ return r.x + r.y; }").functions["f"]
        assert fn.slots == [] and fn.slot_addrs == {}
        assert fn.locals[0][0] == "r" and fn.param_homes == [-1]
        fields = [i for i in self.instrs(fn) if isinstance(i, ir.FieldAddr)]
        assert [(i.base, i.offset) for i in fields] == [(-1, 0), (-1, 1)]
        loads = [i for i in self.instrs(fn) if isinstance(i, ir.Load)]
        assert [i.addr for i in loads] == [i.iid for i in fields]

    def test_literals_and_slot_addresses_are_computed_once_at_entry(self):
        fn = build(
            "int f(int n){ int t[2]; bool b = true; int i = 1;"
            " while (i < n) { t[1] = t[1] + 1; i = i + 1; }"
            " if (b) { return t[1]; } return 1; }"
        ).functions["f"]
        # Each is a temp of the constant table, which a new frame starts with,
        # so no instruction computes it.
        assert not (fn.consts.keys() | fn.slot_addrs.keys()) & {i.iid for i in self.instrs(fn)}
        # One temp per distinct value: `1` serves both the literal index and
        # the increments, and `true` is not the same constant as `1`.
        values = sorted([repr(v) for v in fn.consts.values()]
                        + [f"slot{slot}" for slot in fn.slot_addrs.values()])
        assert values == ["1", "True", "slot0"]

    def test_literal_divisor_needs_no_check(self):
        def checks(expr):
            fn = build(f"int f(int x, int y){{ return {expr}; }}").functions["f"]
            return [i.kind for i in self.instrs(fn) if isinstance(i, ir.Check)]

        assert checks("x % 16") == checks("x / 3") == []
        assert checks("x / y") == [ir.CheckKind.DIV_BY_ZERO]
        assert checks("x % 0") == [ir.CheckKind.MOD_BY_ZERO]
        assert checks("x / (0 - 3)") == [ir.CheckKind.DIV_BY_ZERO]

    def test_statement_starting_with_a_check_covers_its_point(self):
        # `assert(b)` and `x = *p` emit no instruction before their check, so
        # the check carries the statement point: a failing check still
        # covers the statement it ends.
        fn = build("int f(bool b, int* p){ assert(b); int x = *p; return x; }").functions["f"]
        checks = [i for i in self.instrs(fn) if isinstance(i, ir.Check)]
        assert [c.kind for c in checks] == [ir.CheckKind.USER_ASSERT, ir.CheckKind.NULL_DEREF]
        assert all(c.stmt_point is not None for c in checks)


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
        _, branches = module.coverage_totals
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
        kinds = set()
        for src, module in generated_units():
            for fn in module.functions.values():
                for block in fn.blocks:
                    check = block.terminator
                    if not isinstance(check, ir.Check) or check.kind == ir.CheckKind.USER_ASSERT:
                        continue
                    kinds.add(check.kind)
                    guarded = fn.blocks[check.cont_blk].instrs[0]
                    operand = check.operand
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


class TestUnitLowering:
    """A unit adds only its harness to the program's IR, which it shares."""

    SRC = (
        "external int sense(int* out);\n"
        "record P { int x; P* next; }\n"
        "int a(P* p, int k){\n"
        "  int v = 0; int s = sense(&v); if (s > k) { return p.x / s; } return v;\n"
        "}\n"
        "int b(int x, int y){ if (x > y) { return x % y; } return c(y); }\n"
        "int c(int z){ assert(z != 4); return z + 1; }\n"
    )

    @staticmethod
    def build(program, target):
        plan = plan_harness(program, target)
        unit = assemble_unit(program, plan)
        return unit, ir.lower(unit)

    def test_units_share_the_program_ir(self):
        dumps = []
        for order in (("a", "b"), ("b", "a")):
            program = link_program([parse_text("u.mc", self.SRC)])
            external = program.functions["sense"]
            built = {target: self.build(program, target) for target in order}
            (unit_a, mod_a), (unit_b, mod_b) = built["a"], built["b"]
            for name in ("a", "b", "c"):
                assert mod_a.functions[name] is mod_b.functions[name]
            harness = {}
            for target, (unit, module) in built.items():
                harness[target] = {n for n, f in unit.functions.items() if f.synthetic}
                assert {n for n, f in module.functions.items() if f.synthetic} == harness[target]
            assert "sense" in harness["a"] and "sense" not in harness["b"]
            assert not (harness["a"] - {"sense"}) & harness["b"]
            assert not mod_b.functions.keys() & (harness["a"] - harness["b"])
            assert not mod_a.functions.keys() & (harness["b"] - harness["a"])
            assert program.functions["sense"] is external
            assert external.external and external.body is None and not external.synthetic
            for module in (mod_a, mod_b):
                own = [i.iid for f in module.functions.values() if not f.synthetic
                       for blk in f.blocks for i in blk.instrs]
                for f in module.functions.values():
                    for blk in f.blocks:
                        for i in blk.instrs:
                            assert module.instr_by_id(i.iid) is i
                            assert module.function_of_instr(i.iid) == f.name
                            if f.synthetic:
                                assert i.iid > max(own)
            dumps.append((ir.dump_ir(mod_a), ir.dump_ir(mod_b)))
        assert dumps[0] == dumps[1]

    @staticmethod
    def relinked(sources, target):
        """The unit built by re-linking every parsed unit, stubbed externals
        removed, with the harness, then lowering all of it."""
        parsed = [parse_text(path, text) for path, text in sources]
        plan = plan_harness(link_program(parsed), target)
        harness_unit = parse_text(f"<harness:{target}>", plan.source)
        for fn in harness_unit.functions:
            fn.synthetic = True
        stubbed = {spec.external_name for spec in plan.stubs}
        kept = [
            ast.Ast(u.path, u.records,
                    [fn for fn in u.functions if not (fn.external and fn.name in stubbed)])
            for u in parsed
        ]
        return plan, ir.lower(link_program(kept + [harness_unit]))

    def assert_equivalent(self, sources, targets):
        program = link_program([parse_text(path, text) for path, text in sources])
        stubs = 0
        for target in targets:
            plan, reference = self.relinked(sources, target)
            stubs += len(plan.stubs)
            module = ir.lower(assemble_unit(program, plan_harness(program, target)))
            assert ir.dump_ir(module) == ir.dump_ir(reference), target
            assert module.points == reference.points, target
            assert [
                (f.name, f.src_path, i.error_point)
                for f in module.functions.values() for b in f.blocks for i in b.instrs
                if isinstance(i, ir.Check)
            ] == [
                (f.name, f.src_path, i.error_point)
                for f in reference.functions.values() for b in f.blocks for i in b.instrs
                if isinstance(i, ir.Check)
            ], target
        return stubs

    def test_matches_relinking_generated_programs(self):
        rng = random.Random(11)
        gen = ProgramGen(rng)
        for k in range(30):
            src, name, _ = gen.program(k)
            self.assert_equivalent([("u.mc", src)], [name])

    def test_matches_relinking_record_graphs(self):
        rng = random.Random(12)
        for round_no in range(20):
            self.assert_equivalent([("u.mc", record_graph_source(rng, round_no))], ["target"])

    def test_matches_relinking_project_units(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        sources = workloads.WORKLOADS["project_wide"].sources(2)
        names, _ = list_functions(link_program([parse_text(p, t) for p, t in sources]))
        assert self.assert_equivalent(sources, names[::4]) > 0


class TestEnumerate:
    def test_straight_line(self):
        module = build("int f(){ int a = 1; int b = 2; return a + b; }")
        stmts, branches = module.coverage_totals
        assert stmts["f"] == 3
        assert branches["f"] == 0

    def test_if_else_two_branches(self):
        module = build("int f(int x){ if (x > 0) { return 1; } else { return 2; } }")
        _, branches = module.coverage_totals
        assert branches["f"] == 2

    def test_decl_without_init_not_executable(self):
        module = build("int f(){ int a; a = 1; return a; }")
        stmts, _ = module.coverage_totals
        assert stmts["f"] == 2


class TestDump:
    GOLDEN = """\
func abs(x: int) -> int
  local %-1 x: int
  %0 = const 0
block0:
  %1 = cmp < %-1 %0  ; stmt_point=0
  condbr %1 block1 block2 pts(1,2)
block1:
  %3 = binop - %0 %-1  ; stmt_point=3
  ret %3
block2:
  ret %-1  ; stmt_point=4
"""

    def test_golden_text(self):
        module = build("int abs(int x){ if (x < 0) { return 0 - x; } return x; }")
        assert ir.dump_ir(module).strip() == self.GOLDEN.strip()

    # Each check ends its block right before the instruction it guards, which
    # starts the pass block. The literal index v[2] and the array parameter's
    # copy need no check. The parameters and `q` live in local temps; the
    # array parameter's holds the address of its caller's copy. Literals are
    # the function's constant table, after the locals.
    CHECKED_GOLDEN = """\
func f(p: Node*, v: int[4], i: int, d: int) -> int
  local %-1 p: Node*
  local %-2 v: int[4]
  local %-3 i: int
  local %-4 d: int
  local %-5 q: int
  %0 = const 0
  %8 = const 2
block0:
  %1 = cmp != %-4 %0  ; stmt_point=0
  check UserAssert(%1) fail=block2 cont=block1
block1:
  check IndexOutOfBounds(%-3) bound=4 fail=block4 cont=block3  ; stmt_point=2
block2:
  ret
block3:
  %6 = indexaddr %-2 [%-3] n=4 w=1
  %7 = load %6
  %9 = indexaddr %-2 [%8] n=4 w=1
  %10 = load %9
  %11 = binop + %7 %10
  check DivByZero(%-4) fail=block6 cont=block5
block4:
  ret
block5:
  %14 = binop / %11 %-4
  %-5 = move %14
  %16 = fieldaddr %-1 +0  ; stmt_point=5
  check NullDeref(%16) fail=block8 cont=block7
block6:
  ret
block7:
  %19 = load %16
  %20 = binop + %-5 %19
  ret %20
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
