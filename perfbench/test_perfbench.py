"""The benchmark's own tests, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import pipeline
import run
import tracing
import workloads
from coyote_mc import engine, solver
from coyote_mc import symexpr as sx

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_BUDGETS = dict(max_tests=8, max_solver_calls=10, solver_step_limit=2_000, step_budget=20_000)


def tiny_sources(seed):
    return gen.generate_project(seed, n_files=2, per_file=3)


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(
        workloads.WORKLOADS, "tiny", workloads.Workload("tiny", TINY_BUDGETS, tiny_sources)
    )
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def run_cli(capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny_workload, capsys, trace, section):
    out = run_cli(capsys, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_end_to_end_metrics_are_never_zero(tiny_workload, capsys):
    out = run_cli(capsys, 0)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_writes_spans(tiny_workload, capsys):
    run_cli(capsys, 1)
    lines = (tiny_workload / "spans-tiny-3.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert {"minic.parse", "ir.lower", "engine.unit", "coverage.merge"} <= {s["name"] for s in spans}
    assert all(s["parent"] < i for i, s in enumerate(spans))


def test_same_seed_same_project():
    assert gen.generate_project(11) == gen.generate_project(11)
    assert gen.generate_project(11) != gen.generate_project(12)


def test_project_has_fixed_template_mix():
    for seed in (1, 2):
        text = "\n".join(t for _, t in gen.generate_project(seed))
        counts = {kind: text.count(f"int {kind}_") for kind in gen.TEMPLATES}
        assert set(counts.values()) == {8}, counts


@pytest.mark.parametrize("name", ["solver_hard", "exec_long"])
def test_hand_written_programs_are_seeded_and_explained(name):
    files = workloads.program_files(name)
    assert files
    for path in files:
        assert path.read_text().startswith("// why: ")
        assert workloads.instantiate(path, 5) == workloads.instantiate(path, 5)
        assert "$" not in workloads.instantiate(path, 5)[1]
    make = workloads.WORKLOADS[name].sources
    assert make(5) == make(5)


def test_budgets_recorded_in_benchmark_json():
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(whys) == set(workloads.WORKLOADS)
    for name, w in workloads.WORKLOADS.items():
        for key, value in w.budgets.items():
            assert f"{key}={value}" in whys[name]


def test_two_passes_give_the_same_digest():
    sources = tiny_sources(4)
    config = pipeline.engine_config(TINY_BUDGETS)
    first = pipeline.digest(sources, pipeline.run_pass(sources, config))
    second = pipeline.digest(sources, pipeline.run_pass(sources, config))
    assert first == second


def test_traced_pass_matches_untraced_digest_and_restores_modules():
    sources = tiny_sources(4)
    config = pipeline.engine_config(TINY_BUDGETS)
    plain = pipeline.digest(sources, pipeline.run_pass(sources, config))
    before = (engine.run_unit, solver.solve, sx.evaluate)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = pipeline.digest(sources, pipeline.run_pass(sources, config, tracer))
    assert traced == plain
    assert (engine.run_unit, solver.solve, sx.evaluate) == before


def test_traced_self_times_fit_in_wall_time():
    sources = tiny_sources(6)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = pipeline.run_pass(sources, pipeline.engine_config(TINY_BUDGETS), tracer)
    m = tracing.pass_metrics(tracer, result.wall_s)
    layers = tracing.layer_times(tracing.self_times(tracer.spans))
    assert all(seconds >= 0 for seconds in layers.values())
    assert m["trace.self_sum_s"] <= result.wall_s
    assert sum(m[layer + ".share"] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_self_time_subtracts_children():
    spans = [["a.x", 0.0, 10.0, -1, ""], ["b.y", 1.0, 4.0, 0, ""], ["c.z", 2.0, 3.0, 1, ""]]
    assert tracing.self_times(spans) == {"a.x": 7.0, "b.y": 2.0, "c.z": 1.0}


def test_verify_accepts_real_results_and_catches_a_wrong_one():
    sources = tiny_sources(8)
    config = pipeline.engine_config(TINY_BUDGETS)
    result = pipeline.run_pass(sources, config)
    checked, bad = pipeline.verify(result, config)
    assert checked > 0 and bad == []
    unit = next(u for u in result.units if result.results[u.name].testcases)
    testcase = result.results[unit.name].testcases[0]
    testcase.outcome = "budget" if testcase.outcome != "budget" else "completed"
    _, bad = pipeline.verify(result, config)
    assert len(bad) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exec_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
