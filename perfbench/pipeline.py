"""The generator pipeline, composed from the program's public functions.

One pass: parse and link the sources, list the functions, build one unit per
function (plan, assemble, lower, inject), run the concolic search on each
unit, then roll coverage up into project totals. Every call goes through its
module attribute, so a `tracing.Tracer` can wrap it.

`verify` re-executes what a pass produced, and `digest` condenses it; both
run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass

from coyote_mc import coverage, engine, harness, interp, ir
from coyote_mc.minic import linker, parser

# Far beyond any run of this benchmark, so only the deterministic budgets
# (tests, solver calls, solver steps, interpreter steps) stop a search.
NEVER_MS = 10**9


@dataclass
class Unit:
    name: str
    plan: harness.HarnessPlan
    module: ir.IrModule


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    units: list[Unit]
    results: dict[str, engine.UnitResult]
    rows: list[coverage.ReportRow]
    attempted: int
    failed: list[str]


def engine_config(budgets: dict) -> engine.EngineConfig:
    return engine.EngineConfig(wall_clock_ms=NEVER_MS, solver_timeout_ms=NEVER_MS, **budgets)


def _report_failure(stage: str, name: str) -> None:
    print(f"unit {name}: {stage} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_pass(sources: list[tuple[str, str]], config: engine.EngineConfig, tracer=None) -> PassResult:
    """Build every unit, search each, roll coverage up; timed end to end."""
    start = time.perf_counter()
    program = linker.link_program([parser.parse_text(path, text) for path, text in sources])
    names, _warnings = linker.list_functions(program)
    units: list[Unit] = []
    failed: list[str] = []
    for name in names:
        if tracer is not None:
            tracer.unit = name
        try:
            plan = harness.plan_harness(program, name)
            module = ir.inject_checks(ir.lower(harness.assemble_unit(program, plan)))
        except Exception:  # one broken unit must not stop the project
            _report_failure("build", name)
            failed.append(name)
            continue
        units.append(Unit(name, plan, module))
    setup_done = time.perf_counter()

    results: dict[str, engine.UnitResult] = {}
    for unit in units:
        if tracer is not None:
            tracer.unit = unit.name
        try:
            results[unit.name] = engine.run_unit(unit.module, unit.plan, config)
        except Exception:  # one broken unit must not stop the project
            _report_failure("run_unit", unit.name)
            failed.append(unit.name)

    if tracer is not None:
        tracer.unit = ""
    # A unit's tests also run the functions its target calls, so each unit's
    # coverage counts for every listed function, not only for its target.
    total = coverage.CoverageMap()
    for unit in units:
        if unit.name in results:
            cmap = coverage.from_module(unit.module, names)
            coverage.add_covered(cmap, unit.module, results[unit.name].covered)
            total = coverage.merge(total, cmap)
    rows = coverage.report_rows(total)
    end = time.perf_counter()
    return PassResult(
        setup_s=setup_done - start,
        wall_s=end - start,
        units=units,
        results=results,
        rows=rows,
        attempted=len(names),
        failed=failed,
    )


def figures(result: PassResult) -> dict[str, float]:
    """End-to-end figures of one pass. Findings are distinct runtime-error
    checks, as (function, location, kind): units share callees."""
    total = result.rows[-1]
    findings = {(f.func_name, f.loc, f.kind) for r in result.results.values() for f in r.findings}
    return {
        "setup_s": result.setup_s,
        "wall_s": result.wall_s,
        "stmt_cov_pct": 100.0 * total.stmt_covered / total.stmt_total,
        "branch_cov_pct": 100.0 * total.branch_covered / total.branch_total,
        "covered_stmts_per_s": total.stmt_covered / result.wall_s,
        "findings": len(findings),
    }


def verify(result: PassResult, config: engine.EngineConfig) -> tuple[int, list[str]]:
    """Re-execute every kept test and every finding's input.

    A kept test must reproduce its outcome, its error check and the points it
    newly covered; together the kept tests must cover exactly what the unit
    reports. A finding's input must fail the same check again. Returns the
    number of cases checked and a description of each mismatch.
    """
    checked = 0
    bad: list[str] = []
    for unit in result.units:
        res = result.results.get(unit.name)
        if res is None:
            continue

        def rerun(test_input, what: str):
            try:
                return interp.execute(
                    unit.module, unit.plan.driver_name, test_input.copy(),
                    step_budget=config.step_budget,
                    required_symbols=unit.plan.symbol_map.ids(),
                )
            except interp.InterpError as exc:
                bad.append(f"{unit.name} {what}: rejected on re-execution: {exc}")
                return None

        union: set[int] = set()
        for tc in res.testcases:
            checked += 1
            trace = rerun(tc.input, f"test {tc.test_id}")
            if trace is None:
                continue
            union |= trace.covered_points
            if (trace.outcome, trace.error_check_id) != (tc.outcome, tc.error_check_id):
                bad.append(f"{unit.name} test {tc.test_id}: outcome differs on re-execution")
            elif not tc.newly_covered <= trace.covered_points:
                bad.append(f"{unit.name} test {tc.test_id}: covered points differ")
        if union != res.covered:
            bad.append(f"{unit.name}: kept tests do not cover what the unit reports")
        for finding in res.findings:
            checked += 1
            trace = rerun(finding.reproducing_input, f"finding {finding.check_id}")
            if trace is None:
                continue
            if trace.outcome != interp.OUTCOME_ERROR or trace.error_check_id != finding.check_id:
                bad.append(f"{unit.name} finding {finding.check_id}: does not reproduce")
    return checked, bad


def _hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _input(test_input: interp.TestInput) -> list:
    return [sorted(test_input.bindings.items()), sorted(test_input.fresh.items())]


def digest(sources: list[tuple[str, str]], result: PassResult) -> dict[str, str]:
    """Short hashes of the inputs, the tests, the coverage and the findings."""
    tests, search, covered, findings = [], [], [], []
    for unit in result.units:
        res = result.results.get(unit.name)
        if res is None:
            continue
        tests.append([unit.name, [
            [_input(tc.input), tc.outcome, tc.error_check_id, sorted(tc.newly_covered), tc.origin]
            for tc in res.testcases
        ]])
        s = res.stats
        search.append([unit.name, s.tests, s.solver_sat, s.solver_unsat, s.solver_unknown,
                       s.divergences, s.strategy_switched, s.stop_reason])
        covered.append([unit.name, sorted(res.covered)])
        findings.append([unit.name, [
            [f.check_id, f.kind, f.func_name, f.loc, _input(f.reproducing_input)]
            for f in res.findings
        ]])
    rows = [[r.name, r.stmt_covered, r.stmt_total, r.branch_covered, r.branch_total]
            for r in result.rows]
    return {
        "sources": _hash(sources),
        "tests": _hash(tests),
        "search": _hash(search),
        "coverage": _hash([covered, rows]),
        "findings": _hash(findings),
        "failed": _hash(result.failed),
    }
