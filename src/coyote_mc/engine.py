"""The concolic loop for one function under test.

Seed with all-zero inputs and execute concolically, which yields the run's
coverage and path condition at once. Check that the path condition holds
under its own input, pick a branch to flip (coverage-guided search first,
depth-first fallback), solve for an input that takes the other direction,
starting from the flipped run's own input, which satisfies the whole prefix,
and repeat until the target is covered, no candidate is left, or a budget runs
out. Each executed test leaves one Run behind: its input, its path condition,
its model (each input leaf it read, with the value it read; see symexpr),
the flip key of each flippable constraint, which names the chain of
interned constraints up to it, and the copies of its machine that the
interpreter took at its flippable constraints. A flip's query starts from
the run's model, a solved model becomes the next input (`input_from_model`),
and the run of that input resumes from the latest copy at or before the
flipped constraint (see interp). A candidate is a (run, constraint index)
pair; the runs are the whole search frontier.

A depth-first candidate is skipped unsolved when everything its flip can
newly cover is covered already. A run made from the flip follows its parent
up to the flipped constraint, so what it, or any run flipped from it, can
add lies in the flip's reach (`_flip_reach`): the flipped edge's point and
what the IR lets a run reach from that edge, through calls and returns. The
error point of a new finding is in it too. Coverage only grows, so a skipped
flip stays dead, and it costs neither a query nor a run. A run that diverges
from the predicted path may leave the reach, but the search never aims at
that. Coverage-guided candidates need no such test: their flip targets are
part of their reach. Each function's share of a reach is built once and kept
on the function (`ir.IrFunction.reach_from`), which every unit of a program
shares.

The path condition is the trace's events: the interpreter records one
BranchConstraint per branch and check while it executes (see interp). A
constraint is numbered by its position in the list: a fixed one is a record
shared by every run through its site, so it cannot carry a position of its
own. Replay consistency is a hard gate: every constraint as taken must hold
under the run's own input, or the search stops with an InternalError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from . import interp, ir, solver
from . import symexpr as sx
from .diagnostics import InternalError
from .harness import HarnessPlan
from .interp import BranchConstraint, TestInput, Trace

STRATEGY_CCS = "ccs"
STRATEGY_DFS = "dfs"
STRATEGY_AUTO = "auto"


@dataclass
class EngineConfig:
    max_tests: int = 500
    max_solver_calls: int = 2000
    wall_clock_ms: int = 30_000
    step_budget: int = interp.DEFAULT_STEP_BUDGET
    strategy: str = STRATEGY_AUTO
    stagnation_window: int = 25
    solver_timeout_ms: int = solver.DEFAULT_TIMEOUT_MS
    solver_step_limit: int = solver.DEFAULT_STEP_LIMIT


@dataclass
class Candidate:
    run_ref: int  # index into UnitSearch.runs
    flip_index: int


@dataclass
class Run:
    """One executed test: its input, the path condition it took, the model
    it read (Trace.model), the flip key of each flippable constraint (its
    chain's key in UnitSearch.prefixes) and the copies of its machine that a
    flip of it resumes from (Trace.copies)."""

    input: TestInput
    constraints: list[BranchConstraint]  # the path condition
    model: dict[sx.SymExpr, int | bool]  # each input leaf read -> its value
    flip_keys: dict[int, int]  # flippable constraint index -> flip key
    copies: list = field(default_factory=list)

    # Only the benchmark's tracer reads this: it counts each run's flippable constraints.
    def flippable_indexes(self) -> list[int]:
        return [i for i, c in enumerate(self.constraints) if c.flippable]


@dataclass
class TestCaseRecord:
    test_id: int
    input: TestInput
    outcome: str
    error_check_id: int | None
    newly_covered: set[int]
    origin: str  # "seed" | "ccs" | "dfs" | "manual"


@dataclass
class ErrorFinding:
    check_id: int
    kind: str
    func_name: str
    loc: str
    reproducing_input: TestInput


@dataclass
class EngineStats:
    tests: int = 0
    solver_sat: int = 0
    solver_unsat: int = 0
    solver_unknown: int = 0  # the total of solver_unknown_reasons
    solver_unknown_reasons: dict[str, int] = field(default_factory=dict)
    divergences: int = 0
    # DFS candidates skipped unsolved because everything their flip could
    # newly cover is covered already (see UnitSearch.attempt).
    pruned: int = 0
    strategy_switched: bool = False
    stop_reason: str = ""


@dataclass
class UnitResult:
    target: str
    covered: set[int]
    testcases: list[TestCaseRecord]
    findings: list[ErrorFinding]
    stats: EngineStats
    warnings: list[str]


# --- runs -----------------------------------------------------------------------------


# The benchmark's tracer wraps this by name and counts the constraints of its result.
def replay_symbolic(trace: Trace, prefixes: dict[tuple, int]) -> Run:
    """The Run of an executed trace, its flip keys interned in `prefixes`."""
    return Run(trace.input, trace.events, trace.model, _flip_keys(trace.events, prefixes),
               trace.copies)


# The benchmark's tracer wraps this by name to time the replay-consistency gate.
def check_consistency(run: Run, test_input: TestInput) -> bool:
    """Every constraint of the run as taken holds under the model that the
    input gives the leaves the run read."""
    model = {ref: interp.read_input(test_input, ref) for ref in run.model}
    memo: dict = {}  # one model for the whole run: shared nodes evaluate once
    for c in run.constraints:
        # A fixed constraint is the shared TRUE: nothing to evaluate.
        if c.expr is not sx.TRUE and not sx.evaluate(c.expr, model, memo):
            return False
    return True


def input_from_model(parent: TestInput, model: dict[sx.SymExpr, int | bool]) -> TestInput:
    """The parent input with each leaf of the model set to its value: a
    symbol's binding, or a stub draw's place in its queue, which grows with
    zeros up to it."""
    new_input = parent.copy()
    for ref, value in model.items():
        if type(ref) is sx.SymRef:
            new_input.bindings[ref.symbol_id] = value
        else:
            queue = new_input.fresh.setdefault(ref.tag, [])
            queue += [0] * (ref.seq + 1 - len(queue))
            queue[ref.seq] = value
    return new_input


def render_path_condition(constraints: list[BranchConstraint]) -> str:
    """Stable text form, one constraint per line: its index, site, direction,
    whether it is flippable, and its expression as an SMT-LIB term
    (sx.to_prefix), whose length is linear in the expression's DAG."""
    lines = []
    for i, c in enumerate(constraints):
        flip = "flippable" if c.flippable else "fixed"
        lines.append(f"[{i}] site={c.site_id} dir={c.taken_dir} {flip} {sx.to_prefix(c.expr)}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- branch flipping ------------------------------------------------------------


def flip(constraints: list[BranchConstraint], index: int) -> solver.Query:
    """Prefix of the path condition conjoined with the negation of entry i."""
    entry = constraints[index]
    if not entry.flippable:
        raise InternalError(f"constraint {index} is not flippable")
    exprs = [c.expr for c in constraints[:index] if c.expr is not sx.TRUE]
    exprs.append(sx.mk_not(entry.expr))
    return solver.Query(constraints=exprs)


def _flip_keys(constraints: list[BranchConstraint],
               prefixes: dict[tuple, int]) -> dict[int, int]:
    """Flip key per flippable index (a constraint's position in the path
    condition). `prefixes` interns constraint chains: it maps (the key of
    the chain up to the previous flippable constraint, or -1, the number of
    fixed constraints since it, the expression) to the chain's key. Nodes
    are interned, so two flips share a key exactly when their chains of
    expressions up to them are equal, fixed constraints included. The table
    holds the expressions it names, so a key stays exact while it lives."""
    keys: dict[int, int] = {}
    key = last = -1
    true = sx.TRUE
    for index, c in enumerate(constraints):
        if c.expr is not true:
            key = keys[index] = prefixes.setdefault((key, index - last - 1, c.expr),
                                                    len(prefixes))
            last = index
    return keys


_NEGATED_DIR = {"then": "else", "else": "then", "pass": "fail", "fail": "pass"}


def diverged(constraints: list[BranchConstraint], index: int, trace: Trace) -> bool:
    """Whether a run solved from flipping constraint `index` left the predicted
    path: the same directions before `index`, the negated one at it."""
    events = trace.events
    if len(events) <= index:
        return True
    for k in range(index):
        c, e = constraints[k], events[k]
        if c is not e and (c.site_id != e.site_id or c.taken_dir != e.taken_dir):
            return True
    c, e = constraints[index], events[index]
    return c.site_id != e.site_id or _NEGATED_DIR[c.taken_dir] != e.taken_dir


# --- the search for one unit --------------------------------------------------------


class UnitSearch:
    """Everything one unit's search keeps: the unit and its budgets, every run
    so far, the coverage they reached and the flips already attempted."""

    def __init__(self, module: ir.IrModule, plan: HarnessPlan, config: EngineConfig):
        self.module = module
        self.plan = plan
        self.config = config
        self.runs: list[Run] = []
        self.covered: set[int] = set()
        self.prefixes: dict[tuple, int] = {}  # interned constraint chains (_flip_keys)
        self.attempted: set[int] = set()  # flip keys
        # (site id, taken direction) -> the points a flip of it aims at
        self.flip_targets: dict[tuple[int, str], frozenset[int]] = {}
        # (site id, taken direction) -> everything a flip of it may newly cover
        self.flip_reaches: dict[tuple[int, str], tuple[int | None, ...]] = {}
        self.strategy = STRATEGY_DFS if config.strategy == STRATEGY_DFS else STRATEGY_CCS
        self.stagnation = 0  # runs in a row that covered nothing new
        self.stats = EngineStats()
        self.testcases: list[TestCaseRecord] = []
        self.findings: list[ErrorFinding] = []
        self.warnings: list[str] = []
        points = module.points_of.get(plan.target, ())
        self.target_points = {p.point_id for p in points}
        self.target_stmt_points = {p.point_id for p in points if p.kind == "stmt"}
        self.deadline = time.monotonic() + config.wall_clock_ms / 1000.0
        self.seen_findings: set[int] = set()
        self.domains = plan.symbol_map.domains()  # shared by every query

    # -- single test execution

    def run_test(self, test_input: TestInput, origin: str,
                 resume: tuple[list, int] | None = None) -> Trace | None:
        """Execute one test and record its run. The input becomes the run's:
        its test case and any finding share it, so no caller may change it.
        Given `resume` (a run's copies and the flipped index, see
        interp.execute), a run whose path condition does not hold under its
        input left the flipped run's path before the copy it resumed from,
        and runs again from the start."""
        self.stats.tests += 1
        try:
            trace = self.execute(test_input, resume)
            run = replay_symbolic(trace, self.prefixes)
            consistent = check_consistency(run, test_input)
            if not consistent and trace.restored_steps:
                trace = self.execute(test_input, None)
                run = replay_symbolic(trace, self.prefixes)
                consistent = check_consistency(run, test_input)
        except interp.InterpError as exc:
            self.warnings.append(f"test rejected: {exc}")
            return None
        if not consistent:
            raise InternalError(
                f"replay inconsistency for {self.plan.target}: path condition "
                "does not hold under its own input"
            )
        self.runs.append(run)
        delta = trace.covered_points - self.covered
        self.covered |= delta
        self.stagnation = 0 if delta else self.stagnation + 1
        if trace.outcome == interp.OUTCOME_ERROR:
            self.record_finding(trace)
        if delta or trace.outcome == interp.OUTCOME_ERROR or origin == "seed":
            self.testcases.append(
                TestCaseRecord(
                    test_id=len(self.testcases),
                    input=test_input,
                    outcome=trace.outcome,
                    error_check_id=trace.error_check_id,
                    newly_covered=delta,
                    origin=origin,
                )
            )
        return trace

    def execute(self, test_input: TestInput, resume: tuple[list, int] | None) -> Trace:
        """The unit's driver run under the input, resumed as interp.execute says."""
        return interp.execute(
            self.module,
            self.plan.driver_name,
            test_input,
            step_budget=self.config.step_budget,
            required_symbols=self.plan.symbol_map.ids(),
            resume=resume,
        )

    def record_finding(self, trace: Trace) -> None:
        check_id = trace.error_check_id
        if check_id in self.seen_findings:
            return
        self.seen_findings.add(check_id)
        instr = self.module.instr_by_id(check_id)
        self.findings.append(
            ErrorFinding(
                check_id=check_id,
                kind=instr.kind.value,
                func_name=self.module.function_of_instr(check_id),
                loc=str(instr.loc),
                reproducing_input=trace.input,
            )
        )

    # -- budgets / termination

    def budget_exceeded(self) -> str | None:
        stats = self.stats
        if stats.tests >= self.config.max_tests:
            return "max-tests"
        if stats.solver_sat + stats.solver_unsat + stats.solver_unknown >= self.config.max_solver_calls:
            return "max-solver-calls"
        if time.monotonic() > self.deadline:
            return "wall-clock"
        return None

    # -- main loop

    def run(self, manual_inputs: list[TestInput] | None = None) -> UnitResult:
        self.run_test(interp.zero_input(self.plan), "seed")
        for test_input in manual_inputs or []:
            self.import_manual_test(test_input)
        while True:
            reason = self.budget_exceeded()
            if reason:
                self.stats.stop_reason = reason
                break
            if self.target_points <= self.covered:
                self.stats.stop_reason = "full-coverage"
                break
            if self.strategy == STRATEGY_CCS:
                cand = next_candidate_ccs(self)
            else:
                cand = next_candidate_dfs(self)
            if switch_strategy(self, cand is None):
                continue
            if cand is None:
                self.stats.stop_reason = f"{self.strategy}-exhausted"
                break
            self.attempt(cand)
        return UnitResult(
            target=self.plan.target,
            covered=set(self.covered),
            testcases=self.testcases,
            findings=self.findings,
            stats=self.stats,
            warnings=self.warnings,
        )

    def attempt(self, cand: Candidate) -> None:
        run = self.runs[cand.run_ref]
        self.attempted.add(run.flip_keys[cand.flip_index])
        if self.strategy == STRATEGY_DFS and self.reach_covered(run.constraints[cand.flip_index]):
            self.stats.pruned += 1
            return
        query = flip(run.constraints, cand.flip_index)
        query.domains = self.domains
        query.hint = run.model
        query.timeout_ms = self.config.solver_timeout_ms
        query.step_limit = self.config.solver_step_limit
        result = solver.solve(query)
        if result.status == "unsat":
            self.stats.solver_unsat += 1
            return
        if result.status == "unknown":
            reasons = self.stats.solver_unknown_reasons
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
            self.stats.solver_unknown += 1
            return
        self.stats.solver_sat += 1
        trace = self.run_test(input_from_model(run.input, result.model), self.strategy,
                              (run.copies, cand.flip_index))
        if trace is not None and diverged(run.constraints, cand.flip_index, trace):
            self.stats.divergences += 1

    def reach_covered(self, entry: BranchConstraint) -> bool:
        """Whether every point that flipping the constraint may newly cover
        is covered already (_flip_reach). A CCS candidate never is: its flip
        targets lie in its reach."""
        key = (entry.site_id, entry.taken_dir)
        reach = self.flip_reaches.get(key)
        if reach is None:
            reach = self.flip_reaches[key] = _flip_reach(self.module, self.callers, *key)
        return self.covered.issuperset(reach)

    @cached_property
    def callers(self) -> dict[str, list[ir.IrFunction]]:
        """Each function's callers among the functions that the driver reaches."""
        callers: dict[str, list[ir.IrFunction]] = {}
        todo, seen = [self.plan.driver_name], {self.plan.driver_name}
        while todo:
            fn = self.module.functions[todo.pop()]
            for callee in fn.reach_from(0).calls:
                callers.setdefault(callee, []).append(fn)
                if callee in self.module.functions and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return callers

    def import_manual_test(self, test_input: TestInput) -> None:
        """Run a user's input; a symbol it leaves out takes the seed's value."""
        unknown = set(test_input.bindings) - set(self.plan.symbol_map.ids())
        if unknown:
            self.warnings.append(
                f"manual test skipped: unknown symbol ids {sorted(unknown)}"
            )
            return
        filled = test_input.copy()
        for sid, value in interp.zero_input(self.plan).bindings.items():
            filled.bindings.setdefault(sid, value)
        self.run_test(filled, "manual")


# --- candidate selection -----------------------------------------------------------


def _targets_uncovered(search: UnitSearch, cand: Candidate) -> bool:
    """Whether a point the flip aims at (_flip_targets) is still uncovered."""
    entry = search.runs[cand.run_ref].constraints[cand.flip_index]
    key = (entry.site_id, entry.taken_dir)
    targets = search.flip_targets.get(key)
    if targets is None:
        targets = search.flip_targets[key] = _flip_targets(search.module, *key)
    return not targets <= search.covered


def _flipped_edge(instr: ir.Instr, taken_dir: str) -> tuple[int, int | None]:
    """The block that the other direction of a branch or check taken in
    `taken_dir` leads to, and that direction's edge point."""
    if isinstance(instr, ir.CondBr):
        if taken_dir == "then":
            return instr.else_blk, instr.else_point
        return instr.then_blk, instr.then_point
    if isinstance(instr, ir.Check):
        if taken_dir == "pass":
            return instr.fail_blk, instr.error_point
        return instr.cont_blk, None
    raise InternalError(f"constraint site {instr.iid} is not a branch")


def _flip_targets(module: ir.IrModule, site_id: int, taken_dir: str) -> frozenset[int]:
    """The points a flip of the branch or check taken in `taken_dir` aims at:
    the other direction's edge point and the first statements it leads to.
    From the block that direction enters, each path passes the blocks that
    hold no statement point, taking their branches' edge points and their
    checks' error points, until it meets a block that holds one, and takes
    that block's statement points. A failed check ends its run, so its fail
    block is not followed."""
    block, edge_point = _flipped_edge(module.instr_by_id(site_id), taken_dir)
    blocks = module.functions[module.function_of_instr(site_id)].blocks
    points = {edge_point}
    todo, seen = [block], {block}
    while todo:
        instrs = blocks[todo.pop()].instrs
        stmts = [i.stmt_point for i in instrs if i.stmt_point is not None]
        if stmts:
            points.update(stmts)
            continue
        last = instrs[-1]
        kind = type(last)
        if kind is ir.CondBr:
            points.update((last.then_point, last.else_point))
            successors = (last.then_blk, last.else_blk)
        elif kind is ir.Check:
            points.add(last.error_point)
            successors = (last.cont_blk,)
        elif kind is ir.Br:
            successors = (last.target,)
        else:  # a return
            continue
        for b in successors:
            if b not in seen:
                seen.add(b)
                todo.append(b)
    points.discard(None)
    return frozenset(points)


def _flip_reach(module: ir.IrModule, callers: dict[str, list[ir.IrFunction]],
                site_id: int, taken_dir: str) -> tuple[int | None, ...]:
    """Every point that a run made from flipping the branch or check taken
    in `taken_dir`, or a run flipped from that one, may newly cover: the
    flipped edge's point, the points of the blocks reachable from the block
    it leads to, the points of every function they call, transitively, and,
    where they may return, the points after each call site of their function
    in `callers` (UnitSearch.callers), followed the same way. A failed check
    ends its run, so flipping a check to fail reaches its error point alone."""
    instr = module.instr_by_id(site_id)
    block, edge_point = _flipped_edge(instr, taken_dir)
    if isinstance(instr, ir.Check) and taken_dir == "pass":
        return (edge_point,)
    fn = module.functions[module.function_of_instr(site_id)]
    reach = fn.reach_from(block)
    points = set(reach.points)
    if edge_point is not None:
        points.add(edge_point)
    calls = set(reach.calls)
    returning = [fn.name] if reach.returns else []
    returned = set(returning)
    while returning:
        callee = returning.pop()
        for caller in callers.get(callee, ()):
            after = caller.reach_after(callee)
            points.update(after.points)
            calls.update(after.calls)
            if after.returns and caller.name not in returned:
                returned.add(caller.name)
                returning.append(caller.name)
    todo = list(calls)
    while todo:
        callee = module.functions.get(todo.pop())
        if callee is None:  # an intrinsic
            continue
        entry = callee.reach_from(0)
        points.update(entry.points)
        todo += [name for name in entry.calls if name not in calls]
        calls.update(entry.calls)
    return tuple(points)


def next_candidate_ccs(search: UnitSearch) -> Candidate | None:
    """The unattempted candidate with the shallowest flip index, the most
    recent run among equals, whose flip still aims at an uncovered point."""
    best = None
    for run_ref in range(len(search.runs) - 1, -1, -1):
        for flip_index, flip_key in search.runs[run_ref].flip_keys.items():
            if best is not None and flip_index >= best.flip_index:
                break  # a later run already has a flip at most this deep
            cand = Candidate(run_ref, flip_index)
            if flip_key not in search.attempted and _targets_uncovered(search, cand):
                best = cand
                break
    return best


def next_candidate_dfs(search: UnitSearch) -> Candidate | None:
    """Deepest unattempted flippable index of the most recent run, walking
    back through earlier runs when exhausted."""
    for run_ref in range(len(search.runs) - 1, -1, -1):
        for flip_index, flip_key in reversed(search.runs[run_ref].flip_keys.items()):
            if flip_key not in search.attempted:
                return Candidate(run_ref, flip_index)
    return None


def switch_strategy(search: UnitSearch, exhausted: bool) -> bool:
    """One-way CCS -> DFS switch when CCS ran dry (`exhausted`) or stagnated
    while some of the target's statements are still uncovered. A forced
    strategy never switches. Returns whether the switch happened."""
    config = search.config
    if search.strategy != STRATEGY_CCS or config.strategy == STRATEGY_CCS:
        return False
    if not exhausted and search.stagnation < config.stagnation_window:
        return False
    if search.target_stmt_points <= search.covered:
        return False
    search.strategy = STRATEGY_DFS
    search.stats.strategy_switched = True
    return True


def run_unit(
    module: ir.IrModule,
    plan: HarnessPlan,
    config: EngineConfig | None = None,
    manual_inputs: list[TestInput] | None = None,
) -> UnitResult:
    """Run the concolic loop for one assembled unit."""
    return UnitSearch(module, plan, config or EngineConfig()).run(manual_inputs)
