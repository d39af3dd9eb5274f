"""Per-function setup work does not grow with the project: a benchmark pass
over a generated project three times larger walks three times as many
function bodies to build the call graph, and scans three times as many
coverage points, not nine. Counts, not times, so the test is deterministic."""

from pathlib import Path

from coyote_mc import ir
from coyote_mc.minic import linker

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Small deterministic budgets: only setup and the per-unit bookkeeping matter.
BUDGETS = {"max_tests": 2, "max_solver_calls": 2, "solver_step_limit": 500, "step_budget": 10_000}


class _CountingPoints(list):
    """A module's point list that counts the entries its scans read."""

    read = 0

    def __iter__(self):
        for point in list.__iter__(self):
            self.read += 1
            yield point


def test_setup_work_per_function_is_independent_of_project_size(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import pipeline

    point_lists: list[_CountingPoints] = []
    lower_program = ir._lower_program

    def counting_lower(program):
        module, next_iid = lower_program(program)
        points = _CountingPoints(module.points)
        object.__setattr__(module, "points", points)  # before any unit shares it
        point_lists.append(points)
        return module, next_iid

    walks = 0
    check_function = linker._Checker.check_function

    def counting_check(self, fn):
        nonlocal walks
        walks += fn.body is not None
        check_function(self, fn)

    monkeypatch.setattr(ir, "_lower_program", counting_lower)
    monkeypatch.setattr(linker._Checker, "check_function", counting_check)

    def per_function(n_files: int) -> tuple[int, float, float]:
        """Functions, body walks by the checker per function, and point
        entries scanned per function, in one pass."""
        nonlocal walks
        walks = 0
        point_lists.clear()
        sources = gen.generate_project(1, n_files=n_files, per_file=len(gen.TEMPLATES))
        result = pipeline.run_pass(sources, pipeline.engine_config(BUDGETS))
        assert result.failed == []
        [points] = point_lists  # the program is lowered once
        n = result.attempted
        return n, walks / n, points.read / n

    small_fns, small_walks, small_points = per_function(2)
    big_fns, big_walks, big_points = per_function(6)
    assert (small_fns, big_fns) == (20, 60)
    # Every template appears equally often at both sizes, so the work per
    # function is the same up to the seeded constants.
    assert big_walks <= 1.1 * small_walks
    assert big_points <= 1.1 * small_points
