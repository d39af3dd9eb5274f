"""The concolic loop for one function under test.

Seed with all-zero inputs and execute concolically, which yields the run's
coverage and path condition at once. Check that the path condition holds
under its own input, pick a branch to flip (coverage-guided search first,
depth-first fallback), solve for an input that takes the other direction,
starting from the flipped run's own input, which satisfies the whole prefix,
and repeat until the target is covered, no candidate is left, or a budget runs
out. Each executed test leaves one Run behind: its input, its path condition,
its model (each input leaf it read, with the value it read; see symexpr) and
the flip hash of each flippable constraint, a hash of the interned
constraints up to it. A flip's query starts from the run's model, and a
solved model becomes the next input (`input_from_model`). A candidate is a
(run, constraint index) pair; the runs are the whole search frontier.

The path condition is the trace's events: the interpreter records one
BranchConstraint per branch and check while it executes (see interp). A
constraint is numbered by its position in the list: a fixed one is a record
shared by every run through its site, so it cannot carry a position of its
own. Replay consistency is a hard gate: every constraint as taken must hold
under the run's own input, or the search stops with an InternalError.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

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
    it read (Trace.model) and the flip hash of each flippable constraint."""

    input: TestInput
    constraints: list[BranchConstraint]  # the path condition
    model: dict[sx.SymExpr, int | bool]  # each input leaf read -> its value
    flip_hashes: dict[int, str]  # flippable constraint index -> flip hash

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
def replay_symbolic(trace: Trace) -> Run:
    """The Run of an executed trace."""
    return Run(trace.input, trace.events, trace.model, _all_flip_hashes(trace.events))


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
    exprs = [c.expr for c in constraints[:index] if c.flippable]
    exprs.append(sx.mk_not(entry.expr))
    return solver.Query(constraints=exprs)


def _all_flip_hashes(constraints: list[BranchConstraint]) -> dict[int, str]:
    """Flip hash per flippable index (a constraint's position in the path
    condition): the SHA-256 of the 8-byte ids of the constraints' expressions
    up to it, in order. Nodes are interned and a fixed constraint is the
    shared sx.TRUE, so two flips hash equal exactly when their constraint
    chains are equal. The k fixed constraints before an expression go into
    the same update as k copies of TRUE's id: the same bytes as one update
    per constraint."""
    hashes: dict[int, str] = {}
    running = hashlib.sha256()
    true = sx.TRUE
    true_id = id(true).to_bytes(8, "little")
    last = -1
    for index in [i for i, c in enumerate(constraints) if c.expr is not true]:
        c = constraints[index]
        # id() is exact: every hash kept in UnitSearch.attempted comes from a
        # Run in UnitSearch.runs, whose path condition keeps its nodes alive.
        running.update(true_id * (index - last - 1) + id(c.expr).to_bytes(8, "little"))
        last = index
        if c.flippable:
            hashes[index] = running.hexdigest()
    return hashes


_NEGATED_DIR = {"then": "else", "else": "then", "pass": "fail", "fail": "pass"}


def diverged(constraints: list[BranchConstraint], index: int, trace: Trace) -> bool:
    """Whether a run solved from flipping constraint `index` left the predicted
    path: the same directions before `index`, the negated one at it."""
    predicted = [(c.site_id, c.taken_dir) for c in constraints[: index + 1]]
    site_id, taken_dir = predicted[index]
    predicted[index] = (site_id, _NEGATED_DIR[taken_dir])
    return [(e.site_id, e.taken_dir) for e in trace.events[: index + 1]] != predicted


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
        self.attempted: set[str] = set()  # flip hashes
        # (site id, taken direction) -> the points a flip of it aims at
        self.flip_targets: dict[tuple[int, str], frozenset[int]] = {}
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

    def run_test(self, test_input: TestInput, origin: str) -> Trace | None:
        """Execute one test and record its run. The input becomes the run's:
        its test case and any finding share it, so no caller may change it."""
        self.stats.tests += 1
        try:
            trace = interp.execute(
                self.module,
                self.plan.driver_name,
                test_input,
                step_budget=self.config.step_budget,
                required_symbols=self.plan.symbol_map.ids(),
            )
        except interp.InterpError as exc:
            self.warnings.append(f"test rejected: {exc}")
            return None
        run = replay_symbolic(trace)
        if not check_consistency(run, test_input):
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
        self.attempted.add(run.flip_hashes[cand.flip_index])
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
        trace = self.run_test(input_from_model(run.input, result.model), self.strategy)
        if trace is not None and diverged(run.constraints, cand.flip_index, trace):
            self.stats.divergences += 1

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
    """Whether the flipped direction's edge point, or a statement of the block
    it leads to, is still uncovered."""
    entry = search.runs[cand.run_ref].constraints[cand.flip_index]
    key = (entry.site_id, entry.taken_dir)
    targets = search.flip_targets.get(key)
    if targets is None:
        targets = search.flip_targets[key] = _flip_targets(search.module, *key)
    return not targets <= search.covered


def _flip_targets(module: ir.IrModule, site_id: int, taken_dir: str) -> frozenset[int]:
    """The points a flip of the branch or check taken in `taken_dir` aims at:
    the other direction's edge point and the statements of its block."""
    instr = module.instr_by_id(site_id)
    if isinstance(instr, ir.CondBr):
        if taken_dir == "then":
            block, edge_point = instr.else_blk, instr.else_point
        else:
            block, edge_point = instr.then_blk, instr.then_point
    elif isinstance(instr, ir.Check):
        if taken_dir == "pass":
            block, edge_point = instr.fail_blk, instr.error_point
        else:
            block, edge_point = instr.cont_blk, None
    else:
        raise InternalError(f"constraint site {site_id} is not a branch")
    fn = module.functions[module.function_of_instr(site_id)]
    points = {i.stmt_point for i in fn.blocks[block].instrs if i.stmt_point is not None}
    if edge_point is not None:
        points.add(edge_point)
    return frozenset(points)


def next_candidate_ccs(search: UnitSearch) -> Candidate | None:
    """The unattempted candidate with the shallowest flip index, the most
    recent run among equals, whose flipped successor still contains an
    uncovered point."""
    best = None
    for run_ref in range(len(search.runs) - 1, -1, -1):
        for flip_index, flip_hash in search.runs[run_ref].flip_hashes.items():
            if best is not None and flip_index >= best.flip_index:
                break  # a later run already has a flip at most this deep
            cand = Candidate(run_ref, flip_index)
            if flip_hash not in search.attempted and _targets_uncovered(search, cand):
                best = cand
                break
    return best


def next_candidate_dfs(search: UnitSearch) -> Candidate | None:
    """Deepest unattempted flippable index of the most recent run, walking
    back through earlier runs when exhausted."""
    for run_ref in range(len(search.runs) - 1, -1, -1):
        for flip_index, flip_hash in reversed(search.runs[run_ref].flip_hashes.items()):
            if flip_hash not in search.attempted:
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
