"""Concolic-engine tests: flips, strategies, budgets, divergence, manual tests."""

import functools
import itertools
import random
import signal
import time
from pathlib import Path

import pytest

import coyote_mc.symexpr as sx
from coyote_mc import interp, ir, solver
from coyote_mc.diagnostics import InternalError
from coyote_mc.engine import (
    Candidate,
    EngineConfig,
    UnitSearch,
    _flip_reach,
    _flip_targets,
    _targets_uncovered,
    diverged,
    flip,
    next_candidate_ccs,
    next_candidate_dfs,
    run_unit,
)
from coyote_mc.harness import assemble_unit, plan_harness
from coyote_mc.interp import BranchConstraint, TestInput, execute
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

from ast_oracle import ProgramGen

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def build_unit(src, target, depth_limit=3):
    program = link_program([parse_text("u.mc", src)])
    plan = plan_harness(program, target, depth_limit)
    module = ir.lower(assemble_unit(program, plan))
    return module, plan


def unit_points(module, target, include_error_edges=False):
    return {
        p.point_id
        for p in module.points
        if p.func_name == target and (include_error_edges or not p.is_error_edge)
    }


class TestFlip:
    def pc(self, *constraints):
        return [
            BranchConstraint(100 + i, dir_, expr)
            for i, (dir_, expr) in enumerate(constraints)
        ]

    def test_single_negation(self):
        x = sx.SymRef(0)
        pc = self.pc(("then", sx.mk_cmp("<", x, sx.ConstI32(0))))
        q = flip(pc, 0)
        assert [sx.to_prefix(c) for c in q.constraints] == ["(not (bvslt s0 (_ bv0 32)))"]

    def test_prefix_plus_negation_solves(self):
        x, y = sx.SymRef(0), sx.SymRef(1)
        pc = self.pc(
            ("then", sx.mk_cmp(">", x, sx.ConstI32(5))),
            ("else", sx.mk_not(sx.mk_cmp("==", y, x))),
        )
        q = flip(pc, 1)
        result = solver.solve(q)
        assert result.status == "sat"
        assert solver.eval_model(q.constraints, result.model)
        assert result.model[x] > 5 and result.model[y] == result.model[x]

    def test_flip_constant_is_error(self):
        pc = self.pc(("then", sx.TRUE))
        with pytest.raises(InternalError):
            flip(pc, 0)


class TestRunUnit:
    def test_abs_full_coverage_within_three_tests(self):
        module, plan = build_unit(
            "int abs(int x){ if (x < 0) { return 0 - x; } return x; }", "abs"
        )
        result = run_unit(module, plan)
        assert unit_points(module, "abs") <= result.covered
        assert result.stats.tests <= 3

    def test_straight_line_single_test(self):
        module, plan = build_unit("int f(int a, int b){ return a + b * 2; }", "f")
        result = run_unit(module, plan)
        assert unit_points(module, "f") <= result.covered
        assert result.stats.tests == 1

    def test_magic_equality_found_by_flip(self):
        module, plan = build_unit(
            "int f(int x){ if (x == 1234567) { return 1; } return 0; }", "f"
        )
        result = run_unit(module, plan)
        assert unit_points(module, "f") <= result.covered
        record = next(r for r in result.testcases if 1234567 in r.input.bindings.values())
        assert record.origin == "ccs"

    def test_budget_respected(self):
        module, plan = build_unit(
            "int f(int a, int b, int c){\n"
            "  int n = 0;\n"
            "  while (a > 0) { if (a % 3 == 0) { n = n + b; } else { n = n - c; } a = a - 1; }\n"
            "  return n;\n"
            "}",
            "f",
        )
        config = EngineConfig(max_tests=5, max_solver_calls=7)
        result = run_unit(module, plan, config)
        assert result.stats.tests <= 5
        solver_calls = (
            result.stats.solver_sat + result.stats.solver_unsat + result.stats.solver_unknown
        )
        assert solver_calls <= 7

    def test_unknown_reasons_sum_to_total(self):
        module, plan = build_unit(
            "int f(int a, int b, int c){\n"
            "  if (a * a + b * c == 1000) { if (a > 10) { return 2; } return 1; }\n"
            "  if (a * b > 50 && b < 0) { return 3; }\n"
            "  return 0;\n"
            "}",
            "f",
        )
        result = run_unit(module, plan, EngineConfig(solver_step_limit=40))
        stats = result.stats
        assert stats.solver_unknown > 0
        assert sum(stats.solver_unknown_reasons.values()) == stats.solver_unknown
        assert set(stats.solver_unknown_reasons) <= {"timeout", "incomplete"}

    def test_queries_hinted_with_parent_input(self, monkeypatch):
        # Every query carries its parent run's model, fresh draws included;
        # the draw the seed never queued counts as 0.
        module, plan = build_unit(
            "external int rng();\n"
            "int f(int a){ int r = rng(); if (a > 3) { if (r == 9) { return 2; } return 1; } return 0; }",
            "f",
        )
        seen = []
        real_solve = solver.solve

        def spy(query):
            result = real_solve(query)
            seen.append((query.hint, result))
            return result

        monkeypatch.setattr(solver, "solve", spy)
        result = run_unit(module, plan)
        assert unit_points(module, "f") <= result.covered
        (draw,) = {ref for _, r in seen for ref in (r.model or {}) if isinstance(ref, sx.FreshRef)}
        a = sx.SymRef(0)
        assert seen[0][0] == {a: 0, draw: 0}
        parents = [{a: t.input.bindings[0], draw: t.input.fresh.get(draw.tag, [0])[0]}
                   for t in result.testcases]
        assert all(hint in parents for hint, _ in seen)

    def test_reproducibility_of_stored_testcases(self):
        module, plan = build_unit(
            "int f(int a, int b){\n"
            "  if (a > 10) { if (b == a) { return 2; } return 1; }\n"
            "  return 0;\n"
            "}",
            "f",
        )
        result = run_unit(module, plan)
        for record in result.testcases:
            trace = execute(module, plan.driver_name, record.input.copy())
            assert trace.outcome == record.outcome
            assert trace.error_check_id == record.error_check_id

    def test_error_finding_reproduces(self):
        module, plan = build_unit(
            "int f(int a, int b){ if (a > 3) { return a / b; } return 0; }", "f"
        )
        result = run_unit(module, plan)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.kind == "DivByZero"
        trace = execute(module, plan.driver_name, finding.reproducing_input.copy())
        assert trace.outcome == interp.OUTCOME_ERROR
        assert trace.error_check_id == finding.check_id

    def test_deterministic_across_runs(self):
        src = (
            "int f(int a, int b){\n"
            "  if (a > 0 && b > a) { return b - a; }\n"
            "  if (a == 0 - b) { return 7; }\n"
            "  return 0;\n"
            "}"
        )
        module1, plan1 = build_unit(src, "f")
        r1 = run_unit(module1, plan1)
        module2, plan2 = build_unit(src, "f")
        r2 = run_unit(module2, plan2)
        assert r1.covered == r2.covered
        assert [t.input.bindings for t in r1.testcases] == [t.input.bindings for t in r2.testcases]
        assert r1.stats == r2.stats

    def test_oracle_equivalence_on_domain(self):
        # Brute force over the declared domain computes the reachable covered
        # set; the engine must match it exactly.
        src = (
            "// @domain(-8,7)\n"
            "int f(int a, int b){\n"
            "  if (a > b) { if (a == 0 - b) { return 2; } return 1; }\n"
            "  if (a * b == 6) { return 3; }\n"
            "  return 0;\n"
            "}"
        )
        module, plan = build_unit(src, "f")
        reachable = set()
        for a, b in itertools.product(range(-8, 8), repeat=2):
            trace = execute(module, plan.driver_name, TestInput({0: a, 1: b}))
            reachable |= trace.covered_points
        result = run_unit(module, plan)
        target = unit_points(module, "f", include_error_edges=True)
        assert result.covered & target == reachable & target

    def test_shared_dag_costs_time_linear_in_its_size(self):
        # Each round doubles y and subtracts x, so y stays x but the branch
        # constraint is a DAG of 128 shared nodes whose tree has 2^64 leaves.
        rounds = "  y = y + y; y = y - x;\n" * 64
        module, plan = build_unit(
            "int f(int x){\n  int y = x;\n" + rounds
            + "  if (y == 7) { return 1; }\n  return 0;\n}",
            "f",
        )

        def overran(signum, frame):
            raise TimeoutError("run_unit overran its 10 s deadline")

        previous = signal.signal(signal.SIGALRM, overran)
        signal.alarm(10)
        try:
            start = time.perf_counter()
            result = run_unit(module, plan)
            elapsed = time.perf_counter() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert unit_points(module, "f") <= result.covered
        assert elapsed < 1.0


_DOMAIN = (-3, 3)
_BUDGET_STOPS = {"max-tests", "max-solver-calls", "wall-clock"}


@functools.cache
def _domain_units():
    """150 generated units under a small domain, each with the union of the
    points that every input of the domain covers and the set of checks that
    one of them fails. Built once and shared by both strategies."""
    units = []
    gen = ProgramGen(random.Random(2))
    for k in range(150):
        src, name, arity = gen.program(k)
        module, plan = build_unit(f"// @domain({_DOMAIN[0]},{_DOMAIN[1]})\n{src}", name)
        ids = plan.symbol_map.ids()
        covered, failed = set(), set()
        for values in itertools.product(range(_DOMAIN[0], _DOMAIN[1] + 1), repeat=arity):
            trace = execute(module, plan.driver_name, TestInput(dict(zip(ids, values))),
                            required_symbols=ids)
            covered |= trace.covered_points
            if trace.outcome == interp.OUTCOME_ERROR:
                failed.add(trace.error_check_id)
        units.append((src, module, plan, covered, failed))
    return units


@pytest.mark.parametrize("strategy", ["dfs", "auto"])
def test_the_search_reaches_what_the_domain_enumeration_reaches(strategy):
    # Completeness: with budgets that do not bind and no unknown answer, the
    # search covers exactly what some input of the domain covers, and finds
    # exactly the checks that some input fails. It never covers more.
    config = EngineConfig(max_tests=2000, max_solver_calls=4000, strategy=strategy)
    misses = []
    for src, module, plan, covered, failed in _domain_units():
        result = run_unit(module, plan, config)
        assert result.covered <= covered, src
        if result.stats.stop_reason in _BUDGET_STOPS or result.stats.solver_unknown:
            continue
        if (result.covered, {f.check_id for f in result.findings}) != (covered, failed):
            misses.append(src)
    assert misses == []


class TestFlipReach:
    def search_with(self, src, runs):
        module, plan = build_unit(src, "f")
        search = UnitSearch(module, plan, EngineConfig(strategy="dfs"))
        ids = {e.path: e.symbol_id for e in plan.symbol_map.entries}
        for values in runs:
            search.run_test(TestInput({ids[k]: v for k, v in values.items()}), "manual")
        return search

    def flips_in(self, search, run_ref, func):
        module = search.module
        return [c for c in search.runs[run_ref].constraints
                if c.flippable and module.function_of_instr(c.site_id) == func]

    def test_an_infeasible_point_leaves_flips_to_prune(self):
        # `r = 99` needs x > 7 and x < -2: once everything else is covered,
        # DFS still has flips left whose reach holds nothing new.
        src = ("// @domain(-10,10)\n"
               "int f(int x, int y){ int r = 0; if (x > 7) { r = 1; if (x < 0 - 2) { r = 99; } }"
               " if (y > x) { r = r + 2; } return r; }")
        module, plan = build_unit(src, "f")
        covered, failed = set(), set()
        for x, y in itertools.product(range(-10, 11), repeat=2):
            trace = execute(module, plan.driver_name, TestInput({0: x, 1: y}))
            covered |= trace.covered_points
            failed |= {trace.error_check_id} - {None}
        result = run_unit(module, plan, EngineConfig(strategy="dfs"))
        assert result.stats.pruned > 0
        assert result.stats.stop_reason == "dfs-exhausted"
        assert (result.covered, {f.check_id for f in result.findings}) == (covered, failed)

    def test_a_flip_into_a_callee_with_an_uncovered_point_is_kept(self):
        src = ("int g(int a){ if (a == 3) { return 1; } return 0; }\n"
               "int f(int x, int y){ int r = 0; if (x > 0) { r = g(y); } return r; }")
        search = self.search_with(src, [{"x": 1, "y": 0}, {"x": 0, "y": 0}])
        [entry] = self.flips_in(search, 1, "f")  # x > 0, taken else
        # Both edges of `x > 0` and every statement of f are covered, but
        # g's `return 1` is not.
        assert not search.reach_covered(entry)
        search.run_test(TestInput({0: 1, 1: 3}), "manual")
        assert search.reach_covered(entry)

    def test_a_flip_in_a_callee_reaches_past_its_second_call_site(self):
        # g has two call sites, and the third run enters it through the
        # second. g returns a constant, so `s == 1` is fixed: only a flip
        # inside g can make the else arm's `s = 9` run.
        src = ("int g(int a){ if (a > 0) { return 1; } return 0; }\n"
               "int f(int x, int y){ int s = 0;"
               " if (y > 0) { s = g(x); if (s == 1) { s = 5; } }"
               " else { s = g(0 - x); if (s == 1) { s = 9; } } return s; }")
        search = self.search_with(src, [{"x": 1, "y": 1}, {"x": 0, "y": 1}, {"x": 0, "y": 0}])
        [entry] = self.flips_in(search, 2, "g")  # a > 0 in the second call, taken else
        assert not search.reach_covered(entry)
        result = run_unit(search.module, search.plan, EngineConfig(strategy="dfs"))
        assert unit_points(search.module, "f") <= result.covered

    def test_ccs_targets_lie_inside_the_flip_reach(self, monkeypatch):
        # The search tests no CCS candidate against its reach, because the
        # points a flip aims at are part of what it may newly cover. Checked
        # for both directions of every branch and check of each unit of the
        # three workloads (seed 1) and of the generated units.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import pipeline
        import workloads

        units = [(module, plan) for _, module, plan, _, _ in _domain_units()]
        for name in ("exec_long", "solver_hard", "project_wide"):
            workload = workloads.WORKLOADS[name]
            result = pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
            units += [(unit.module, unit.plan) for unit in result.units]
        dirs = {ir.CondBr: ("then", "else"), ir.Check: ("pass", "fail")}
        pairs, outside = 0, []
        for module, plan in units:
            callers = UnitSearch(module, plan, EngineConfig()).callers
            for fn in module.functions.values():
                for block in fn.blocks:
                    site = block.terminator
                    for taken_dir in dirs.get(type(site), ()):
                        pairs += 1
                        targets = _flip_targets(module, site.iid, taken_dir)
                        if not targets <= set(_flip_reach(module, callers, site.iid, taken_dir)):
                            outside.append((fn.name, site.iid, taken_dir))
        assert pairs > 46_000 and outside == []


def _successor_uncovered(search, cand):
    """Reference for CCS's target check, read off the IR on every call:
    whether the other direction's edge point, or a point met on the way from
    it to the first statements, is still uncovered. The way passes blocks
    with no statement point, through their branches' edge points and their
    checks' error points, and ends at each block that has one, taking its
    statement points."""
    entry = search.runs[cand.run_ref].constraints[cand.flip_index]
    instr = search.module.instr_by_id(entry.site_id)
    if isinstance(instr, ir.CondBr):
        flipped_then = entry.taken_dir == "else"
        block = instr.then_blk if flipped_then else instr.else_blk
        edge = instr.then_point if flipped_then else instr.else_point
    else:
        failing = entry.taken_dir == "pass"
        block = instr.fail_blk if failing else instr.cont_blk
        edge = instr.error_point if failing else None
    fn = search.module.functions[search.module.function_of_instr(entry.site_id)]
    points, seen = [edge], set()

    def visit(b):
        if b in seen:
            return
        seen.add(b)
        instrs = fn.blocks[b].instrs
        last = instrs[-1]
        if any(i.stmt_point is not None for i in instrs):
            points.extend(i.stmt_point for i in instrs)
        elif isinstance(last, ir.CondBr):
            points.extend((last.then_point, last.else_point))
            visit(last.then_blk)
            visit(last.else_blk)
        elif isinstance(last, ir.Check):
            points.append(last.error_point)
            visit(last.cont_blk)
        elif isinstance(last, ir.Br):
            visit(last.target)

    visit(block)
    return any(p is not None and p not in search.covered for p in points)


class TestCandidates:
    def make_search(self, src, target, inputs):
        module, plan = build_unit(src, target)
        search = UnitSearch(module, plan, EngineConfig())
        for binding in inputs:
            search.run_test(TestInput(dict(binding)), "seed")
        return search

    SRC = (
        "int f(int a, int b){\n"
        "  if (a > 0) { if (b > 0) { return 2; } return 1; }\n"
        "  return 0;\n"
        "}"
    )

    def test_ccs_prefers_uncovered_then_shallow(self):
        search = self.make_search(self.SRC, "f", [{0: 0, 1: 0}])
        cand = next_candidate_ccs(search)
        assert cand is not None
        assert cand.flip_index == 0  # only one constraint exists yet
        search.run_test(TestInput({0: 1, 1: 1}), "manual")
        cand = next_candidate_ccs(search)
        # Deepest uncovered now is (b > 0) else, at depth 1 of run 1; the
        # shallower a>0 flip of run 1 targets covered code, so depth wins
        # only among uncovered targets.
        assert cand.flip_index == 1

    def test_ccs_none_when_all_covered(self):
        search = self.make_search(
            self.SRC, "f", [{0: 0, 1: 0}, {0: 1, 1: 0}, {0: 1, 1: 1}]
        )
        assert next_candidate_ccs(search) is None

    def test_dfs_deepest_of_most_recent(self):
        search = self.make_search(self.SRC, "f", [{0: 0, 1: 0}, {0: 1, 1: 1}])
        cand = next_candidate_dfs(search)
        assert cand == Candidate(run_ref=1, flip_index=1)
        search.attempted.add(search.runs[1].flip_keys[1])
        cand2 = next_candidate_dfs(search)
        assert cand2 == Candidate(run_ref=1, flip_index=0)

    def test_dfs_none_when_saturated(self):
        search = self.make_search(self.SRC, "f", [{0: 0, 1: 0}])
        for run in search.runs:
            search.attempted |= set(run.flip_keys.values())
        assert next_candidate_dfs(search) is None

    def test_candidate_attempted_once_globally(self):
        # Identical path prefixes from different runs dedupe by key.
        search = self.make_search(self.SRC, "f", [{0: 0, 1: 0}, {0: 0, 1: 5}])
        # Both seeds took the same path (a<=0), so their flip keys coincide.
        runs = search.runs
        assert runs[0].flip_keys == runs[1].flip_keys

    def test_ccs_matches_brute_force_minimum(self):
        # Reference: over every unattempted candidate whose target is still
        # uncovered, the shallowest flip index wins, then the latest run.
        rng = random.Random(1312)
        gen = ProgramGen(rng)
        checked = 0
        for k in range(60):
            src, name, arity = gen.program(k)
            module, plan = build_unit(src, name)
            search = UnitSearch(module, plan, EngineConfig())
            for _ in range(rng.randrange(2, 6)):
                bindings = {i: rng.randrange(-100, 100) for i in range(arity)}
                search.run_test(TestInput(bindings), "manual")
            for run in search.runs:
                for flip_key in run.flip_keys.values():
                    if rng.random() < 0.3:
                        search.attempted.add(flip_key)
            for run_ref, run in enumerate(search.runs):
                for flip_index in run.flip_keys:
                    cand = Candidate(run_ref, flip_index)
                    assert _targets_uncovered(search, cand) == _successor_uncovered(search, cand)
            eligible = [
                Candidate(run_ref, flip_index)
                for run_ref, run in enumerate(search.runs)
                for flip_index, flip_key in run.flip_keys.items()
                if flip_key not in search.attempted
                and _targets_uncovered(search, Candidate(run_ref, flip_index))
            ]
            expected = min(
                eligible, key=lambda c: (c.flip_index, -c.run_ref), default=None
            )
            assert next_candidate_ccs(search) == expected, src
            checked += expected is not None
        assert checked >= 15


class TestDivergence:
    # Path condition taken by the parent run: site 10 then, site 11 else.
    PC = [
        BranchConstraint(10, "then", sx.SymRef(0, 1)),
        BranchConstraint(11, "else", sx.mk_not(sx.SymRef(1, 1))),
    ]

    def trace(self, *dirs):
        events = [
            BranchConstraint(site_id, taken_dir, sx.TRUE)
            for site_id, taken_dir in dirs
        ]
        return interp.Trace(
            events=events,
            outcome=interp.OUTCOME_COMPLETED,
            input=TestInput(),
            covered_points=set(),
            model={},
        )

    def test_consistent_prefix(self):
        trace = self.trace((10, "then"), (11, "then"))
        assert not diverged(self.PC, 1, trace)

    def test_mismatch_reports_index(self):
        # A mismatch at any position up to the flipped one is a divergence,
        # as is a run that ends before reaching it.
        assert diverged(self.PC, 1, self.trace((10, "else"), (11, "then")))
        assert diverged(self.PC, 1, self.trace((10, "then"), (11, "else")))
        assert diverged(self.PC, 1, self.trace((10, "then"), (12, "then")))
        assert diverged(self.PC, 1, self.trace((10, "then")))

    def test_index_zero_only_first_compared(self):
        trace = self.trace((10, "else"), (99, "then"))
        assert not diverged(self.PC, 0, trace)

    def test_real_divergence_from_concretized_store(self):
        # v[i] = 5 is concretized at the seed's cell; a later flip moves i, so
        # the branch reading v[0] goes the other way earlier than the flip.
        src = (
            "int f(int v[2], int i, int k){\n"
            "  v[i] = 5;\n"
            "  int cell0 = v[0];\n"
            "  if (cell0 == 5) { k = k + 1; }\n"
            "  if (i == 1) { return k; }\n"
            "  return 0 - k;\n"
            "}"
        )
        module, plan = build_unit(src, "f")
        result = run_unit(module, plan)
        assert result.stats.divergences >= 1
        # Divergent traces are kept: coverage still improves past the seed.
        assert len(result.covered) > len(result.testcases[0].newly_covered)


    def test_a_run_that_leaves_the_path_before_its_copy_runs_again(self, monkeypatch):
        # Resumed at the copy before `b > 0`, an input with a <= 0 would
        # keep the parent's `a > 0`, which does not hold under it: the run is
        # made again from the start, and records what a fresh run does.
        monkeypatch.setattr(interp._Machine, "copy_due", lambda machine: True)
        src = "int f(int a, int b){ if (a > 0) { if (b > 0) { return 2; } return 1; } return 0; }"
        module, plan = build_unit(src, "f")
        search = UnitSearch(module, plan, EngineConfig())
        parent = search.run_test(TestInput({0: 1, 1: 1}), "seed")
        assert [snap.index for snap in parent.copies] == [0, 1]
        trace = search.run_test(TestInput({0: -1, 1: -1}), "dfs", (parent.copies, 1))
        fresh = execute(module, plan.driver_name, TestInput({0: -1, 1: -1}))
        assert trace.restored_steps == 0
        assert [(e.site_id, e.taken_dir) for e in trace.events] == [
            (e.site_id, e.taken_dir) for e in fresh.events]
        assert trace.covered_points == fresh.covered_points and len(search.runs) == 2


class TestStrategySwitch:
    SRC = (
        "int maze(int a, int b){\n"
        "  int s = 0;\n"
        "  if (a > 0) { s = s + 1; } else { s = s - 1; }\n"
        "  if (b > 0) { s = s + 2; } else { s = s - 2; }\n"
        "  if (a + b == 12345) { s = 99; }\n"
        "  return s;\n"
        "}"
    )

    def test_forced_dfs_runs(self):
        module, plan = build_unit(self.SRC, "maze")
        result = run_unit(module, plan, EngineConfig(strategy="dfs"))
        assert unit_points(module, "maze") <= result.covered

    def test_pure_ccs_never_switches(self):
        module, plan = build_unit(self.SRC, "maze")
        result = run_unit(module, plan, EngineConfig(strategy="ccs"))
        assert not result.stats.strategy_switched

    def test_pure_ccs_stagnation_keeps_searching(self):
        # Stagnation cannot switch a forced CCS search, so it must go on
        # attempting candidates instead of looping until the wall clock.
        module, plan = build_unit(
            "int f(int a, int b){ if (a > 0) { if (b == 7) { return 2; } return 1; } return 0; }",
            "f",
        )
        for strategy in ("ccs", "auto"):
            config = EngineConfig(strategy=strategy, stagnation_window=0, wall_clock_ms=2000)
            result = run_unit(module, plan, config)
            assert result.stats.stop_reason == "full-coverage", strategy
            assert result.stats.tests == 3, strategy

    def test_stagnation_triggers_switch(self):
        # Unreachable statement keeps coverage below 100%; once CCS runs out
        # of uncovered-target candidates it must hand over to DFS.
        src = (
            "int f(int a){\n"
            "  if (a != a) { return 99; }\n"
            "  if (a > 5) { return 1; }\n"
            "  return 0;\n"
            "}"
        )
        module, plan = build_unit(src, "f")
        result = run_unit(module, plan)
        assert result.stats.strategy_switched
        assert result.stats.stop_reason == "dfs-exhausted"

    @pytest.mark.xfail(strict=True, raises=RecursionError, reason=(
        "symexpr evaluates an expression by recursing once per DAG level, so the "
        "1,000-deep sum the loop builds exceeds the recursion limit"))
    def test_a_long_accumulator_loop_does_not_exhaust_the_stack(self):
        module, plan = build_unit(
            "int f(int a){ int r = 0; int i = 0;"
            " while (i < 1000) { r = r + a; i = i + 1; }"
            " if (r == 7) { return 1; } return 0; }", "f")
        result = run_unit(module, plan, EngineConfig(max_tests=5, max_solver_calls=5))
        assert result.stats.tests >= 1

    def test_a_check_at_the_start_of_its_statement_is_flipped(self):
        # The seed (b = 0) fails the division check, which starts the statement,
        # so its statement point lies before the check; DFS finds both errors.
        module, plan = build_unit("int f(int a, int b){ return (a / b) % (b - 1); }", "f")
        result = run_unit(module, plan)
        assert {f.kind for f in result.findings} == {"DivByZero", "ModByZero"}


class TestManualTests:
    SRC = (
        "int f(int a, int b){\n"
        "  if (a == 77) { if (b == 3) { return 2; } return 1; }\n"
        "  return 0;\n"
        "}"
    )

    def test_manual_input_covers_new_branch(self):
        module, plan = build_unit(self.SRC, "f")
        result = run_unit(
            module, plan, EngineConfig(max_tests=2),
            manual_inputs=[TestInput({0: 77, 1: 3})],
        )
        manual = [t for t in result.testcases if t.origin == "manual"]
        assert len(manual) == 1
        assert manual[0].newly_covered

    def test_duplicate_of_seed_dropped(self):
        module, plan = build_unit(self.SRC, "f")
        result = run_unit(
            module, plan, EngineConfig(max_tests=2),
            manual_inputs=[TestInput({0: 0, 1: 0})],
        )
        assert [t.origin for t in result.testcases] == ["seed"]

    def test_unknown_symbol_skipped_with_warning(self):
        module, plan = build_unit(self.SRC, "f")
        result = run_unit(
            module, plan, EngineConfig(max_tests=2),
            manual_inputs=[TestInput({0: 1, 99: 5})],
        )
        assert any("unknown symbol" in w for w in result.warnings)
        assert not any(t.origin == "manual" for t in result.testcases)

    def test_missing_ids_default_zero(self):
        module, plan = build_unit(self.SRC, "f")
        result = run_unit(
            module, plan, EngineConfig(max_tests=3),
            manual_inputs=[TestInput({0: 77})],
        )
        manual = [t for t in result.testcases if t.origin == "manual"]
        assert len(manual) == 1
        assert manual[0].input.bindings[1] == 0

    def test_missing_ids_take_the_seed_value_in_their_domain(self):
        # With a domain that excludes 0, a symbol the manual input leaves out
        # takes the seed's value, the domain's low end, not 0.
        module, plan = build_unit(
            "// @domain(5,9)\nint f(int a, int b){ if (a == 7) { return 1; } return 0; }",
            "f",
        )
        result = run_unit(
            module, plan, EngineConfig(max_tests=2),
            manual_inputs=[TestInput({0: 7})],
        )
        manual = [t for t in result.testcases if t.origin == "manual"]
        assert len(manual) == 1
        assert manual[0].input.bindings == {0: 7, 1: 5}

    def test_flip_starts_from_the_value_the_run_read(self, monkeypatch):
        # The manual binding 2**32 + 5 reads as 5. The flip of x < 10 must
        # start from 5, so the solver answers 10, the nearest value past the
        # flipped bound. Started from the raw binding, clamped to INT_MAX, it
        # would answer INT_MAX: a point the parent run never reached.
        module, plan = build_unit(
            "int f(int x){ if (x > 3) { if (x < 10) { return 2; } return 1; } return 0; }", "f"
        )
        hints = []
        real_solve = solver.solve

        def spy(query):
            hints.append(query.hint)
            return real_solve(query)

        monkeypatch.setattr(solver, "solve", spy)
        manual = TestInput({0: 2**32 + 5})
        result = run_unit(module, plan, manual_inputs=[manual])
        x = sx.SymRef(0)
        assert interp.read_input(manual, x) == 5
        assert hints == [{x: 5}]
        assert [t.input.bindings[0] for t in result.testcases] == [0, 2**32 + 5, 10]
