"""Spans around the program's public entry points, for the traced run.

`Tracer.installed()` replaces module attributes with timing wrappers and
restores them on exit. Each call records a span: name, start, end, parent
span and the unit being built or searched. A span's layer is the part of its
name before the first dot. Self time is a span's duration minus the time its
child spans cover.

Where the wrappers go, and why:
- `minic`, `harness`, `ir`, `coverage`: the functions the benchmark calls.
  `harness.assemble_unit` re-parses and re-links the program through names it
  imported, so `harness.parse_text` and `harness.link_program` are wrapped
  too; that work counts as `minic`.
- `interp.execute` and `solver.solve`: the engine calls them through their
  modules.
- `engine.replay_symbolic`, `engine.check_consistency`, `engine.flip`,
  `engine.next_candidate_*`: the engine binds these by name, so they are
  wrapped in the engine module.
- `symexpr.simplify`, `to_prefix`, `evaluate`: they recurse through module
  globals, so only the outermost call is timed; while it runs, the module
  global is the unwrapped function.

Counting work (module sizes, expression DAG nodes) runs inside a
`trace.count` span, so it shows as tracing cost, not as the caller's time.

Metrics ending in `_s` are self times, except `interp.s`, `solver.s`,
`solver.{sat,unsat,unknown}_s` and `engine.unit_s`, which include the calls
nested in them. `<layer>.share` is the layer's self time over the traced
wall time; `bench.share` is what no span covers, the benchmark's own loop.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

from coyote_mc import coverage, engine, harness, interp, ir, solver
from coyote_mc import symexpr as sx
from coyote_mc.minic import linker, parser

LAYERS = (
    "bench", "minic", "harness", "ir", "interp", "symex", "symexpr",
    "solver", "engine", "coverage", "trace",
)
STOP_REASONS = (
    "full-coverage", "max-tests", "max-solver-calls", "wall-clock",
    "ccs-exhausted", "dfs-exhausted",
)

# Indexes into a span record [name, start, end, parent, unit].
NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = ""
        self.counts: Counter = Counter()
        self.query_ms: list[float] = []

    # -- spans

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.unit])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self.stack.pop()
        return span[END] - span[START]

    def _wrap(self, module, attr: str, name: str, after=None, outermost=False):
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if outermost:
                setattr(module, attr, orig)
            try:
                result = orig(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                if outermost:
                    setattr(module, attr, wrapper)
                seconds = self._close(idx)
            if after is not None:
                idx = self._open("trace.count")
                try:
                    after(result, args, seconds)
                finally:
                    self._close(idx)
            return result

        return orig, wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the entry points for the duration of the block."""
        targets = [
            (parser, "parse_text", "minic.parse", self._count_parse),
            (harness, "parse_text", "minic.parse", self._count_parse),
            (linker, "link_program", "minic.link", None),
            (harness, "link_program", "minic.link", None),
            (linker, "list_functions", "minic.list", self._count_list),
            (harness, "plan_harness", "harness.plan", self._count_plan),
            (harness, "assemble_unit", "harness.assemble", None),
            (ir, "lower", "ir.lower", self._count_lower),
            (ir, "inject_checks", "ir.inject", self._count_inject),
            (engine, "run_unit", "engine.unit", self._count_unit),
            (engine, "next_candidate_ccs", "engine.select", None),
            (engine, "next_candidate_dfs", "engine.select", None),
            (engine, "flip", "engine.flip", None),
            (interp, "execute", "interp.execute", self._count_execute),
            (engine, "replay_symbolic", "symex.replay", self._count_replay),
            (engine, "check_consistency", "symex.consistency", None),
            (solver, "solve", "solver.solve", self._count_solve),
            (coverage, "from_module", "coverage.from_module", None),
            (coverage, "add_covered", "coverage.add_covered", None),
            (coverage, "merge", "coverage.merge", None),
            (coverage, "report_rows", "coverage.report_rows", None),
            (sx, "simplify", "symexpr.simplify", None),
            (sx, "to_prefix", "symexpr.to_prefix", None),
            (sx, "evaluate", "symexpr.evaluate", None),
        ]
        saved = []
        for module, attr, name, after in targets:
            orig, wrapper = self._wrap(module, attr, name, after, outermost=module is sx)
            saved.append((module, attr, orig))
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    # -- counters, each run after its span closed

    def _count_parse(self, result, args, seconds):
        self.counts["minic.src_bytes"] += len(args[1].encode())

    def _count_list(self, result, args, seconds):
        self.counts["minic.functions"] += len(result[0])

    def _count_plan(self, result, args, seconds):
        self.counts["harness.symbols"] += len(result.symbol_map.entries)
        self.counts["harness.stubs"] += len(result.stubs)

    def _count_lower(self, result, args, seconds):
        self.counts["ir.functions_lowered"] += len(result.functions)

    def _count_inject(self, result, args, seconds):
        for fn in result.functions.values():
            for block in fn.blocks:
                self.counts["ir.instrs"] += len(block.instrs)
                self.counts["ir.checks"] += sum(isinstance(i, ir.Check) for i in block.instrs)

    def _count_unit(self, result, args, seconds):
        stats = result.stats
        c = self.counts
        c["engine.tests"] += stats.tests
        c["engine.tests_kept"] += len(result.testcases)
        c["engine.divergences"] += stats.divergences
        c["engine.switches"] += int(stats.strategy_switched)
        c["engine.stop." + stats.stop_reason] += 1
        c["engine.useful_flips"] += sum(
            1 for t in result.testcases if t.newly_covered and t.origin in ("ccs", "dfs")
        )

    def _count_execute(self, result, args, seconds):
        self.counts["interp.steps"] += result.steps
        self.counts["interp.events"] += len(result.events)

    def _count_replay(self, result, args, seconds):
        self.counts["symex.constraints"] += len(result.constraints)
        self.counts["symex.flippable"] += len(result.flippable_indexes())
        self.counts["symex.pc_dag_nodes"] += dag_nodes([c.expr for c in result.constraints])

    def _count_solve(self, result, args, seconds):
        status = result.status if result.status != "unknown" else "unknown_" + result.reason
        self.counts["solver." + status] += 1
        self.counts["solver.query_constraints"] += len(args[0].constraints)
        key = "solver.unknown_s" if result.status == "unknown" else f"solver.{result.status}_s"
        self.counts[key] += seconds
        self.query_ms.append(seconds * 1000.0)


def dag_nodes(roots) -> int:
    """Distinct expression nodes (by identity) reachable from the roots."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (sx.BinExpr, sx.CmpExpr)):
            stack += (node.lhs, node.rhs)
        elif isinstance(node, sx.NotExpr):
            stack.append(node.operand)
        elif isinstance(node, sx.IteExpr):
            stack += (node.cond, node.then_val, node.else_val)
    return len(seen)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus the time of child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = Counter()
    for i, span in enumerate(spans):
        out[span[NAME]] += span[END] - span[START] - child[i]
    return out


def layer_times(by_name: dict[str, float]) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        out[name.split(".")[0]] += seconds
    return out


def pass_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in s, counts as counted)."""
    own = self_times(tracer.spans)
    total: dict[str, float] = Counter()
    calls: Counter = Counter()
    for span in tracer.spans:
        total[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
    layers = layer_times(own)
    # Spans cover calls into the program; what remains is the benchmark's own loop.
    layers["bench"] = wall_s - sum(layers.values())
    c = tracer.counts
    m: dict[str, float] = {
        "minic.parse_s": own["minic.parse"],
        "minic.link_s": own["minic.link"],
        "minic.functions": c["minic.functions"],
        "minic.src_bytes": c["minic.src_bytes"],
        "harness.plan_s": own["harness.plan"],
        "harness.assemble_s": own["harness.assemble"],
        "harness.symbols": c["harness.symbols"],
        "harness.stubs": c["harness.stubs"],
        "ir.lower_s": own["ir.lower"],
        "ir.inject_s": own["ir.inject"],
        "ir.instrs": c["ir.instrs"],
        "ir.checks": c["ir.checks"],
        "ir.functions_lowered": c["ir.functions_lowered"],
        "interp.calls": calls["interp.execute"],
        "interp.s": total["interp.execute"],
        "interp.steps": c["interp.steps"],
        "interp.events": c["interp.events"],
        "interp.rejected": c["interp.execute.raised"],
        "symex.replay_s": own["symex.replay"],
        "symex.consistency_s": own["symex.consistency"],
        "symex.constraints": c["symex.constraints"],
        "symex.flippable": c["symex.flippable"],
        "symex.pc_dag_nodes": c["symex.pc_dag_nodes"],
        "symexpr.simplify_s": own["symexpr.simplify"],
        "symexpr.to_prefix_s": own["symexpr.to_prefix"],
        "symexpr.evaluate_s": own["symexpr.evaluate"],
        "solver.calls": calls["solver.solve"],
        "solver.s": total["solver.solve"],
        "solver.sat": c["solver.sat"],
        "solver.unsat": c["solver.unsat"],
        "solver.unknown_timeout": c["solver.unknown_timeout"],
        "solver.unknown_incomplete": c["solver.unknown_incomplete"],
        "solver.sat_s": c["solver.sat_s"],
        "solver.unsat_s": c["solver.unsat_s"],
        "solver.unknown_s": c["solver.unknown_s"],
        "solver.sat_ratio": c["solver.sat"] / max(1, calls["solver.solve"]),
        "solver.query_constraints": c["solver.query_constraints"],
        "solver.query_ms_p50": _percentile(tracer.query_ms, 50),
        "solver.query_ms_p90": _percentile(tracer.query_ms, 90),
        "engine.unit_s": total["engine.unit"],
        "engine.self_s": own["engine.unit"],
        "engine.select_s": own["engine.select"],
        "engine.flip_s": own["engine.flip"],
        "engine.tests": c["engine.tests"],
        "engine.tests_kept": c["engine.tests_kept"],
        "engine.divergences": c["engine.divergences"],
        "engine.yield": c["engine.useful_flips"] / max(1, c["solver.sat"]),
        "engine.switches": c["engine.switches"],
    }
    for reason in STOP_REASONS:
        m["engine.stop." + reason] = c["engine.stop." + reason]
    m["coverage.s"] = layers["coverage"]
    for layer in LAYERS:
        m[layer + ".share"] = layers[layer] / wall_s
    m["trace.wall_s"] = wall_s
    m["trace.self_sum_s"] = wall_s - layers["bench"]
    m["trace.spans"] = len(tracer.spans)
    return m


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
