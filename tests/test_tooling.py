"""The benchmark's tracer wraps the program's entry points by name, so each of
those names must still exist."""

from pathlib import Path

from coyote_mc import harness
from coyote_mc.minic.linker import link_program
from coyote_mc.minic.parser import parse_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    plan_harness = harness.plan_harness
    program = link_program([parse_text("a.mc", "int f(int x){ return x; }")])
    with tracing.Tracer().installed() as tracer:
        assert harness.plan_harness is not plan_harness
        harness.plan_harness(program, "f")
    assert tracer.spans[0][tracing.NAME] == "harness.plan"
    assert tracer.counts["harness.symbols"] == 1
    assert harness.plan_harness is plan_harness
