"""The benchmark's tracer wraps the program's entry points by name and reads
the records they return, so each of those names must still exist and the
per-layer counts of a traced pass must still be read off real work."""

import hashlib
from pathlib import Path

from coyote_mc import harness, interp, solver
from coyote_mc import symexpr as sx

from models import assertions, smt_eval

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import tracing

    plan_harness = harness.plan_harness
    sources = [("a.mc", "int f(int x){ if (x > 3) { return 1; } return 0; }")]
    config = pipeline.engine_config(
        {"max_tests": 10, "max_solver_calls": 10, "solver_step_limit": 5000, "step_budget": 10_000}
    )
    with tracing.Tracer().installed() as tracer:
        assert harness.plan_harness is not plan_harness
        result = pipeline.run_pass(sources, config, tracer)
    assert harness.plan_harness is plan_harness
    assert result.failed == []
    assert "harness.plan" in {span[tracing.NAME] for span in tracer.spans}
    assert tracer.counts["harness.symbols"] == 1
    metrics = tracing.pass_metrics(tracer, result.wall_s)
    for name in ("interp.events", "symex.constraints", "symex.flippable", "ir.instrs"):
        assert metrics[name] > 0, name
    # The engine must call these through its module's globals, or a traced
    # pass records none of their spans and their layers read 0.
    names = {span[tracing.NAME] for span in tracer.spans}
    for name in ("symex.replay", "symex.consistency", "engine.select", "engine.flip",
                 "solver.solve"):
        assert name in names, name


def test_solver_hard_pass_answers_every_query(monkeypatch):
    # One seed-1 pass of the solver-heavy workload: no solver answer is
    # unknown, and coverage and findings hold at their measured levels.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    workload = workloads.WORKLOADS["solver_hard"]
    result = pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert result.failed == []
    unknown = {name: r.stats.solver_unknown_reasons
               for name, r in result.results.items() if r.stats.solver_unknown}
    assert unknown == {}
    figures = pipeline.figures(result)
    assert figures["stmt_cov_pct"] >= 97.7
    assert figures["branch_cov_pct"] >= 91.3
    assert figures["findings"] >= 3


def test_solver_hard_pass_pins_the_search(monkeypatch):
    # Every query of a seed-1 pass of the solver-heavy workload, as (status,
    # reason, steps, model, fresh model), hashed. The model is split as it
    # was when the hash was recorded: symbol id -> value, then (tag, seq) ->
    # value. A change that makes the search cheaper must not change what it
    # answers or the steps it charges, or budgets and subtree quotas would
    # shift silently.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    answers = []
    solve = solver._Search.solve

    def logged(search):
        r = solve(search)
        model = (r.model or {}).items()
        answers.append(repr((r.status, r.reason, search.steps,
                             sorted((ref.symbol_id, v) for ref, v in model
                                    if isinstance(ref, sx.SymRef)),
                             sorted(((ref.tag, ref.seq), v) for ref, v in model
                                    if isinstance(ref, sx.FreshRef)))))
        return r

    monkeypatch.setattr(solver._Search, "solve", logged)
    workload = workloads.WORKLOADS["solver_hard"]
    pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert len(answers) == 24
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16]
    assert digest == "d978ef5b3b96ec68"


def test_solver_hard_exports_hold_under_their_models(monkeypatch):
    # Every sat answer of a seed-1 pass of the solver-heavy workload: each
    # assertion of the query's SMT-LIB export, read by the test-side
    # evaluator, holds under the returned model. No external solver needed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    answered = []
    solve = solver._Search.solve

    def logged(search):
        r = solve(search)
        if r.status == "sat":
            answered.append((search.query, r.model))
        return r

    monkeypatch.setattr(solver._Search, "solve", logged)
    workload = workloads.WORKLOADS["solver_hard"]
    pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert answered
    for query, model in answered:
        script = solver.export_smtlib(query)
        for term in assertions(script):
            assert smt_eval(term, model) is True, script


def test_seed_1_passes_keep_their_steps(monkeypatch):
    # One seed-1 pass of each workload: the interpreter steps, events and runs
    # it adds up. The digests below hash no steps, so this is what notices a
    # run loop whose step count drifts from the IR's instruction count.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    totals = {}
    execute = interp.execute

    def counted(*args, **kwargs):
        trace = execute(*args, **kwargs)
        steps, events, runs = totals.get(name, (0, 0, 0))
        totals[name] = (steps + trace.steps, events + len(trace.events), runs + 1)
        return trace

    monkeypatch.setattr(interp, "execute", counted)
    for name in ("exec_long", "solver_hard", "project_wide"):
        workload = workloads.WORKLOADS[name]
        pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert totals == {
        "exec_long": (65_449, 9_756, 15),
        "solver_hard": (4_250, 914, 23),
        "project_wide": (12_413, 1_889, 460),
    }


def test_seed_1_passes_resume_at_their_flip_points(monkeypatch):
    # One seed-1 pass of each workload: the steps it interprets, and the runs
    # that resume at a copy taken by the run whose flip gave their input.
    # The totals above count the steps before the copy too, so they would
    # not notice runs that silently stopped resuming.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    totals = {}
    execute = interp.execute

    def counted(*args, **kwargs):
        trace = execute(*args, **kwargs)
        steps, resumed = totals.get(name, (0, 0))
        totals[name] = (steps + trace.steps - trace.restored_steps,
                        resumed + (trace.restored_steps > 0))
        return trace

    monkeypatch.setattr(interp, "execute", counted)
    for name in ("exec_long", "solver_hard", "project_wide"):
        workload = workloads.WORKLOADS[name]
        pipeline.run_pass(workload.sources(1), pipeline.engine_config(workload.budgets))
    assert totals == {
        "exec_long": (29_332, 8),
        "solver_hard": (1_926, 8),
        "project_wide": (9_349, 81),
    }


# The digests `perfbench/run.py --seed 1` prints for each workload. A change
# that moves one on purpose re-records it here and says why.
SEED_1_DIGESTS = {
    "solver_hard": {
        "sources": "e226936f5e4e4a14", "tests": "bf3b1c357906e5b0",
        "search": "1a3e5092a7fe9997", "coverage": "f11ead0d67626b92",
        "findings": "7fe482f4b04c39f5", "failed": "4f53cda18c2baa0c",
    },
    "exec_long": {
        "sources": "06b63f4e4cf036d7", "tests": "68e02f0a52121286",
        "search": "f88c0f3fd5a6e7cf", "coverage": "7135fe71db800352",
        "findings": "d02b962b93f1c397", "failed": "4f53cda18c2baa0c",
    },
    "project_wide": {
        "sources": "7fda1d32559dc96e", "tests": "c5460f5bd0f1138e",
        "search": "81ebfad07dc2459e", "coverage": "4f3de4e60ade642d",
        "findings": "2243d7a6aa07b01b", "failed": "4f53cda18c2baa0c",
    },
}


def test_seed_1_digests_unchanged(monkeypatch):
    # One seed-1 pass of each workload: its sources, tests, search, coverage,
    # findings and failed units, each hashed, as the benchmark reports them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import workloads

    got = {}
    for name in SEED_1_DIGESTS:
        sources = workloads.WORKLOADS[name].sources(1)
        config = pipeline.engine_config(workloads.WORKLOADS[name].budgets)
        got[name] = pipeline.digest(sources, pipeline.run_pass(sources, config))
    assert got == SEED_1_DIGESTS
