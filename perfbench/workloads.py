"""Workload definitions: sources made from a seed, and fixed engine budgets.

Hand-written programs live in `programs/<workload>/*.mc`. Each file starts
with a `// why:` line saying why it is in the corpus, then one
`// $name: lo..hi` line per constant the seed picks. A seed changes those
constants only, never the shape of a program, so seeds vary the inputs
without changing the kind of work.

Budgets are deterministic: the wall clock and the solver timeout are set so
high that they never bind, so only test count, solver calls, solver steps and
interpreter steps stop the search, and coverage repeats exactly while time is
measured.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

PROGRAMS = Path(__file__).resolve().parent / "programs"

_PARAM = re.compile(r"^// \$(\w+): (-?\d+)\.\.(-?\d+)$", re.M)
_PLACEHOLDER = re.compile(r"\$(\w+)")


@dataclass(frozen=True)
class Workload:
    name: str
    # EngineConfig fields; pipeline.engine_config sets the clocks to never bind.
    budgets: dict
    # seed -> (path, text) pairs, the only input the program receives.
    sources: Callable[[int], list[tuple[str, str]]]


def program_files(workload: str) -> list[Path]:
    return sorted((PROGRAMS / workload).glob("*.mc"))


def instantiate(path: Path, seed: int) -> tuple[str, str]:
    """Fill a program's `$name` constants from the seed and the file name."""
    text = path.read_text()
    rng = random.Random(f"{seed}:{path.name}")
    values = {name: rng.randint(int(lo), int(hi)) for name, lo, hi in _PARAM.findall(text)}
    body = "\n".join(line for line in text.splitlines() if not _PARAM.match(line)) + "\n"
    filled = _PLACEHOLDER.sub(lambda m: str(values[m.group(1)]), body)
    return f"{path.parent.name}/{path.name}", filled


def hand_written(workload: str) -> Callable[[int], list[tuple[str, str]]]:
    return lambda seed: [instantiate(path, seed) for path in program_files(workload)]


# Why each workload was chosen is recorded in BENCHMARK.json, with these budgets.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solver_hard",
            dict(max_tests=60, max_solver_calls=80, solver_step_limit=20_000, step_budget=100_000),
            hand_written("solver_hard"),
        ),
        Workload(
            "exec_long",
            dict(max_tests=60, max_solver_calls=80, solver_step_limit=20_000, step_budget=100_000),
            hand_written("exec_long"),
        ),
        Workload(
            "project_wide",
            dict(max_tests=30, max_solver_calls=40, solver_step_limit=5_000, step_budget=100_000),
            gen.generate_project,
        ),
    )
}
