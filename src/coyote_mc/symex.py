"""Path conditions of concolic runs.

The interpreter records one BranchConstraint per branch and check while it
executes; that list is the trace's events (see interp). A constraint is
numbered by its position in the list: a fixed one is a record shared by every
run through its site, so it cannot carry a position of its own. This module
packs the events with the run's fresh draws into the PathCondition that branch
flipping consumes, renders it as text, and checks replay consistency: every
constraint as taken holds under the run's own input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import symexpr as sx
from .interp import BranchConstraint, TestInput, Trace


@dataclass
class PathCondition:
    constraints: list[BranchConstraint]
    fresh_refs: list[tuple[int, int]] = field(default_factory=list)

    def flippable_indexes(self) -> list[int]:
        return [i for i, c in enumerate(self.constraints) if c.flippable]


def render_path_condition(pc: PathCondition) -> str:
    """Stable text form, one constraint per line in sx.to_prefix notation."""
    lines = []
    for i, c in enumerate(pc.constraints):
        flip = "flippable" if c.flippable else "fixed"
        lines.append(f"[{i}] site={c.site_id} dir={c.taken_dir} {flip} {sx.to_prefix(c.expr)}")
    return "\n".join(lines) + ("\n" if lines else "")


def replay_symbolic(trace: Trace) -> PathCondition:
    """The path condition of an executed run."""
    return PathCondition(constraints=trace.events, fresh_refs=trace.fresh_refs)


def fresh_values(pc: PathCondition, test_input: TestInput) -> dict[tuple[int, int], int]:
    """The value of each fresh draw of the run, keyed (tag, seq); a draw the
    input did not queue was 0."""
    fresh = {}
    for tag, seq in pc.fresh_refs:
        queue = test_input.fresh.get(tag, [])
        fresh[(tag, seq)] = queue[seq] if seq < len(queue) else 0
    return fresh


def check_consistency(pc: PathCondition, test_input: TestInput) -> bool:
    """Replay-consistency: every constraint as taken holds under the input."""
    fresh = fresh_values(pc, test_input)
    memo: dict = {}  # one model for the whole run: shared nodes evaluate once
    for c in pc.constraints:
        # A fixed constraint is the shared TRUE: nothing to evaluate.
        if c.expr is not sx.TRUE and not sx.evaluate(c.expr, test_input.bindings, fresh, memo):
            return False
    return True
