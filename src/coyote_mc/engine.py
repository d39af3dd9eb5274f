"""The concolic loop for one function under test.

Seed with all-zero inputs and execute concolically, which yields the run's
coverage and path condition at once. Check that the path condition holds
under its own input, pick a branch to flip (coverage-guided search first,
depth-first fallback), solve for an input that takes the other direction,
starting from the flipped run's own input, which satisfies the whole prefix,
and repeat until the target is covered, no candidate is left, or a budget runs
out. Each executed test leaves one Run behind: its input, its path condition
and the flip hash of each flippable constraint, a hash of the interned
constraints up to it. A candidate is a (run, constraint index) pair; the runs
are the whole search frontier.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from . import interp, ir, solver
from . import symexpr as sx
from .diagnostics import InternalError
from .harness import HarnessPlan
from .interp import TestInput, Trace
from .symex import PathCondition, check_consistency, fresh_values, replay_symbolic

STRATEGY_CCS = "ccs"
STRATEGY_DFS = "dfs"
STRATEGY_AUTO = "auto"

# The target's statement coverage (a fraction) at which CCS no longer hands
# over to DFS.
SUFFICIENT_COVERAGE = 1.0


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
    run_ref: int  # index into UnitState.runs
    flip_index: int


@dataclass
class Run:
    input: TestInput
    pc: PathCondition
    flip_hashes: dict[int, str]  # flippable constraint index -> flip hash


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
    consistent_flips: int = 0
    interp_errors: int = 0
    strategy_switched: bool = False
    stop_reason: str = ""


@dataclass
class UnitState:
    module: ir.IrModule
    plan: HarnessPlan
    config: EngineConfig
    runs: list[Run] = field(default_factory=list)
    covered: set[int] = field(default_factory=set)
    attempted: set[str] = field(default_factory=set)
    strategy: str = STRATEGY_CCS
    stagnation: int = 0
    stats: EngineStats = field(default_factory=EngineStats)
    testcases: list[TestCaseRecord] = field(default_factory=list)
    findings: list[ErrorFinding] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass
class UnitResult:
    target: str
    covered: set[int]
    testcases: list[TestCaseRecord]
    findings: list[ErrorFinding]
    stats: EngineStats
    warnings: list[str]


# --- branch flipping ------------------------------------------------------------


def flip(pc: PathCondition, index: int) -> solver.Query:
    """Prefix of the path condition conjoined with the negation of entry i."""
    entry = pc.constraints[index]
    if not entry.flippable:
        raise InternalError(f"constraint {index} is not flippable")
    constraints = [c.expr for c in pc.constraints[:index] if c.flippable]
    constraints.append(sx.mk_not(entry.expr))
    return solver.Query(constraints=constraints)


def _all_flip_hashes(pc: PathCondition) -> dict[int, str]:
    """Flip hash per flippable index (a constraint's position in the path
    condition): the SHA-256 of the 8-byte ids of the constraints' expressions
    up to it, in order. Nodes are interned and a fixed constraint is the
    shared sx.TRUE, so two flips hash equal exactly when their constraint
    chains are equal. The k fixed constraints before an expression go into
    the same update as k copies of TRUE's id: the same bytes as one update
    per constraint."""
    hashes: dict[int, str] = {}
    running = hashlib.sha256()
    constraints, true = pc.constraints, sx.TRUE
    true_id = id(true).to_bytes(8, "little")
    last = -1
    for index in [i for i, c in enumerate(constraints) if c.expr is not true]:
        c = constraints[index]
        # id() is exact: every hash kept in UnitState.attempted comes from a
        # Run in UnitState.runs, whose path condition keeps its nodes alive.
        running.update(true_id * (index - last - 1) + id(c.expr).to_bytes(8, "little"))
        last = index
        if c.flippable:
            hashes[index] = running.hexdigest()
    return hashes


_NEGATED_DIR = {"then": "else", "else": "then", "pass": "fail", "fail": "pass"}


def diverged(pc: PathCondition, index: int, trace: Trace) -> bool:
    """Whether a run solved from flipping constraint `index` of `pc` left the
    predicted path: the same directions before `index`, the negated one at it."""
    predicted = [(c.site_id, c.taken_dir) for c in pc.constraints[: index + 1]]
    site_id, taken_dir = predicted[index]
    predicted[index] = (site_id, _NEGATED_DIR[taken_dir])
    return [(e.site_id, e.taken_dir) for e in trace.events[: index + 1]] != predicted


# --- candidate selection -----------------------------------------------------------


def _flip_target(module: ir.IrModule, pc: PathCondition, index: int):
    """(function name, successor block, edge point id) of the flipped direction."""
    entry = pc.constraints[index]
    instr = module.instr_by_id(entry.site_id)
    fn_name = module.function_of_instr(entry.site_id)
    if isinstance(instr, ir.CondBr):
        if entry.taken_dir == "then":
            return fn_name, instr.else_blk, instr.else_point
        return fn_name, instr.then_blk, instr.then_point
    if isinstance(instr, ir.Check):
        if entry.taken_dir == "pass":
            return fn_name, instr.fail_blk, instr.error_point
        return fn_name, instr.cont_blk, None
    raise InternalError(f"constraint site {entry.site_id} is not a branch")


def _block_points(module: ir.IrModule, fn_name: str, block_index: int) -> set[int]:
    fn = module.functions[fn_name]
    return {
        i.stmt_point
        for i in fn.blocks[block_index].instrs
        if i.stmt_point is not None
    }


def _targets_uncovered(state: UnitState, cand: Candidate) -> bool:
    pc = state.runs[cand.run_ref].pc
    fn_name, block, edge_point = _flip_target(state.module, pc, cand.flip_index)
    if edge_point is not None and edge_point not in state.covered:
        return True
    points = _block_points(state.module, fn_name, block)
    return bool(points - state.covered)


def next_candidate_ccs(state: UnitState) -> Candidate | None:
    """The unattempted candidate with the shallowest flip index, the most
    recent run among equals, whose flipped successor still contains an
    uncovered point."""
    best = None
    for run_ref in range(len(state.runs) - 1, -1, -1):
        for flip_index, flip_hash in state.runs[run_ref].flip_hashes.items():
            if best is not None and flip_index >= best.flip_index:
                break  # a later run already has a flip at most this deep
            cand = Candidate(run_ref, flip_index)
            if flip_hash not in state.attempted and _targets_uncovered(state, cand):
                best = cand
                break
    return best


def next_candidate_dfs(state: UnitState) -> Candidate | None:
    """Deepest unattempted flippable index of the most recent run, walking
    back through earlier runs when exhausted."""
    for run_ref in range(len(state.runs) - 1, -1, -1):
        for flip_index, flip_hash in reversed(state.runs[run_ref].flip_hashes.items()):
            if flip_hash not in state.attempted:
                return Candidate(run_ref, flip_index)
    return None


def switch_strategy(state: UnitState, stmt_fraction: float, exhausted: bool) -> bool:
    """One-way CCS -> DFS switch when CCS ran dry (`exhausted`) or stagnated
    while the target's statement coverage is still below the sufficiency bar.
    A forced strategy never switches. Returns whether the switch happened."""
    config = state.config
    if state.strategy != STRATEGY_CCS or config.strategy == STRATEGY_CCS:
        return False
    if not exhausted and state.stagnation < config.stagnation_window:
        return False
    if stmt_fraction >= SUFFICIENT_COVERAGE:
        return False
    state.strategy = STRATEGY_DFS
    state.stats.strategy_switched = True
    return True


# --- the unit loop --------------------------------------------------------------------


def update_coverage(state: UnitState, trace: Trace) -> set[int]:
    delta = trace.covered_points - state.covered
    state.covered |= trace.covered_points
    return delta


class _UnitRunner:
    def __init__(self, module: ir.IrModule, plan: HarnessPlan, config: EngineConfig):
        self.module = module
        self.plan = plan
        self.config = config
        self.state = UnitState(module=module, plan=plan, config=config)
        if config.strategy == STRATEGY_DFS:
            self.state.strategy = STRATEGY_DFS
        points = module.points_of.get(plan.target, ())
        self.target_points = {p.point_id for p in points}
        self.target_stmt_points = {p.point_id for p in points if p.kind == "stmt"}
        self.deadline = time.monotonic() + config.wall_clock_ms / 1000.0
        self.seen_findings: set[int] = set()
        self.domains = plan.symbol_map.domains()  # shared by every query

    # -- single test execution

    def run_test(self, test_input: TestInput, origin: str) -> Trace | None:
        state = self.state
        state.stats.tests += 1
        try:
            trace = interp.execute(
                self.module,
                self.plan.driver_name,
                test_input.copy(),
                step_budget=self.config.step_budget,
                required_symbols=self.plan.symbol_map.ids(),
            )
        except interp.InterpError as exc:
            state.stats.interp_errors += 1
            state.warnings.append(f"test rejected: {exc}")
            return None
        pc = replay_symbolic(trace)
        if not check_consistency(pc, trace.input):
            raise InternalError(
                f"replay inconsistency for {self.plan.target}: path condition "
                "does not hold under its own input"
            )
        delta = update_coverage(state, trace)
        if delta:
            state.stagnation = 0
        else:
            state.stagnation += 1
        state.runs.append(Run(trace.input, pc, _all_flip_hashes(pc)))
        if trace.outcome == interp.OUTCOME_ERROR:
            self.record_finding(trace)
        if delta or trace.outcome == interp.OUTCOME_ERROR or origin == "seed":
            state.testcases.append(
                TestCaseRecord(
                    test_id=len(state.testcases),
                    input=test_input.copy(),
                    outcome=trace.outcome,
                    error_check_id=trace.error_check_id,
                    newly_covered=delta,
                    origin=origin,
                )
            )
        return trace

    def record_finding(self, trace: Trace) -> None:
        check_id = trace.error_check_id
        if check_id in self.seen_findings:
            return
        self.seen_findings.add(check_id)
        instr = self.module.instr_by_id(check_id)
        self.state.findings.append(
            ErrorFinding(
                check_id=check_id,
                kind=instr.kind.value,
                func_name=self.module.function_of_instr(check_id),
                loc=str(instr.loc),
                reproducing_input=trace.input.copy(),
            )
        )

    # -- model -> input

    def input_from_model(self, parent: TestInput, result: solver.SolveResult) -> TestInput:
        new_input = parent.copy()
        for sid, value in (result.model or {}).items():
            new_input.bindings[sid] = value
        for (tag, seq), value in (result.fresh_model or {}).items():
            queue = new_input.fresh.setdefault(tag, [])
            while len(queue) <= seq:
                queue.append(0)
            queue[seq] = value
        return new_input

    # -- budgets / termination

    def budget_exceeded(self) -> str | None:
        stats = self.state.stats
        if stats.tests >= self.config.max_tests:
            return "max-tests"
        if stats.solver_sat + stats.solver_unsat + stats.solver_unknown >= self.config.max_solver_calls:
            return "max-solver-calls"
        if time.monotonic() > self.deadline:
            return "wall-clock"
        return None

    def stmt_fraction(self) -> float:
        if not self.target_stmt_points:
            return 1.0
        hit = len(self.target_stmt_points & self.state.covered)
        return hit / len(self.target_stmt_points)

    def target_fully_covered(self) -> bool:
        return self.target_points <= self.state.covered

    # -- main loop

    def run(self, manual_inputs: list[TestInput] | None = None) -> UnitResult:
        state = self.state
        self.run_test(interp.zero_input(self.plan), "seed")
        for test_input in manual_inputs or []:
            self.import_manual_test(test_input)
        while True:
            reason = self.budget_exceeded()
            if reason:
                state.stats.stop_reason = reason
                break
            if self.target_fully_covered():
                state.stats.stop_reason = "full-coverage"
                break
            if state.strategy == STRATEGY_CCS:
                cand = next_candidate_ccs(state)
            else:
                cand = next_candidate_dfs(state)
            if switch_strategy(state, self.stmt_fraction(), cand is None):
                continue
            if cand is None:
                state.stats.stop_reason = f"{state.strategy}-exhausted"
                break
            self.attempt(cand)
        return UnitResult(
            target=self.plan.target,
            covered=set(state.covered),
            testcases=state.testcases,
            findings=state.findings,
            stats=state.stats,
            warnings=state.warnings,
        )

    def attempt(self, cand: Candidate) -> None:
        state = self.state
        run = state.runs[cand.run_ref]
        state.attempted.add(run.flip_hashes[cand.flip_index])
        query = flip(run.pc, cand.flip_index)
        query.domains = self.domains
        query.hint = solver.model_hint(run.input.bindings, fresh_values(run.pc, run.input))
        query.timeout_ms = self.config.solver_timeout_ms
        query.step_limit = self.config.solver_step_limit
        result = solver.solve(query)
        if result.status == "unsat":
            state.stats.solver_unsat += 1
            return
        if result.status == "unknown":
            reasons = state.stats.solver_unknown_reasons
            reasons[result.reason] = reasons.get(result.reason, 0) + 1
            state.stats.solver_unknown += 1
            return
        state.stats.solver_sat += 1
        new_input = self.input_from_model(run.input, result)
        trace = self.run_test(new_input, state.strategy)
        if trace is None:
            return
        if diverged(run.pc, cand.flip_index, trace):
            state.stats.divergences += 1
        else:
            state.stats.consistent_flips += 1

    def import_manual_test(self, test_input: TestInput) -> None:
        known = set(self.plan.symbol_map.ids())
        unknown = set(test_input.bindings) - known
        if unknown:
            self.state.warnings.append(
                f"manual test skipped: unknown symbol ids {sorted(unknown)}"
            )
            return
        filled = test_input.copy()
        for sid in known:
            filled.bindings.setdefault(sid, 0)
        self.run_test(filled, "manual")


def run_unit(
    module: ir.IrModule,
    plan: HarnessPlan,
    config: EngineConfig | None = None,
    manual_inputs: list[TestInput] | None = None,
) -> UnitResult:
    """Run the concolic loop for one assembled unit."""
    runner = _UnitRunner(module, plan, config or EngineConfig())
    return runner.run(manual_inputs)
