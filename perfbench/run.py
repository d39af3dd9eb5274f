"""Benchmark of the MiniC unit-test generator, run from the repository root:

    python3 perfbench/run.py --workload solver_hard --seed 1 --seconds 30 --trace 0

Makes the workload's sources from the seed, then repeats whole passes
(build every unit, search each, roll coverage up) until --seconds have gone
by, at least MIN_PASSES times. Figures are medians over the passes. The first
pass is re-executed to check that tests and findings reproduce, and every
pass must produce the same digest.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, prints the per-layer metrics with each layer's share of the
traced wall time and the tracing overhead, and writes the last traced pass's
spans to perfbench/out/. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3


def _load_program():
    """Import the program from this checkout's src/, and nothing else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import coyote_mc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import coyote_mc from {ROOT / 'src'}: {exc}")
    origin = Path(coyote_mc.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: coyote_mc was imported from {origin}, not from this checkout")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    import pipeline
    import tracing

    sources = workload.sources(seed)
    config = pipeline.engine_config(workload.budgets)
    untraced: list[dict] = []
    traced: list[dict] = []
    digests: set[str] = set()
    problems: list[str] = []
    checked = repro_bad = attempted = failed = wall_clock_stops = 0
    last_tracer = None
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        for tracer in (None, tracing.Tracer()) if trace else (None,):
            gc.collect()
            if tracer is None:
                result = pipeline.run_pass(sources, config)
            else:
                with tracer.installed():
                    result = pipeline.run_pass(sources, config, tracer)
            print(f"pass {len(untraced) + len(traced)}{'' if tracer is None else ' traced'}: "
                  f"setup_s={result.setup_s:.4f} wall_s={result.wall_s:.4f}")
            digest = pipeline.digest(sources, result)
            digests.add(json.dumps(digest, sort_keys=True))
            attempted += result.attempted
            failed += len(result.failed)
            wall_clock_stops += sum(
                r.stats.stop_reason == "wall-clock" for r in result.results.values()
            )
            if not untraced and tracer is None:
                checked, bad = pipeline.verify(result, config)
                repro_bad = len(bad)
                problems += bad
                print("digest " + " ".join(f"{k}={v}" for k, v in digest.items()))
                print(f"repro checked={checked} mismatches={repro_bad}")
            if tracer is None:
                untraced.append(pipeline.figures(result))
            else:
                traced.append(tracing.pass_metrics(tracer, result.wall_s))
                last_tracer = tracer
            del result
    if wall_clock_stops:
        problems.append(f"{wall_clock_stops} unit runs stopped on the wall clock; "
                        "the budgets are not deterministic")
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} different digests")

    metrics: dict[str, float] = {}
    if not trace:
        for key in ("setup_s", "wall_s", "stmt_cov_pct", "branch_cov_pct", "covered_stmts_per_s"):
            metrics[key] = statistics.median(p[key] for p in untraced)
        metrics["findings"] = untraced[0]["findings"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["unit_ok_frac"] = 1.0 - failed / attempted
        metrics["repro_ok_frac"] = 1.0 - repro_bad / max(1, checked)
    else:
        for key in traced[0]:
            metrics[key] = statistics.median(p[key] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1.0
        if any(p["trace.self_sum_s"] > p["trace.wall_s"] for p in traced):
            problems.append("traced self times add up to more than the traced wall time")
        write_spans(last_tracer, workload.name, seed)
        print("share of traced wall time by layer (self time):")
        for layer in tracing.LAYERS:
            print(f"  {layer:9s} {metrics[layer + '.share']:7.1%}")
        print(f"tracing overhead {metrics['trace.overhead_frac']:+.1%} "
              f"over untraced wall {untraced_wall:.3f} s")
    for problem in problems:
        print("problem: " + problem)
    print(f"passes untraced={len(untraced)} traced={len(traced)} budgets={workload.budgets}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    """One JSON line per span of the last traced pass, times relative to its first span."""
    OUT.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as fh:
        for name, start, end, parent, unit in tracer.spans:
            fh.write(json.dumps({
                "name": name, "start": round(start - t0, 9), "end": round(end - t0, 9),
                "parent": parent, "unit": unit,
            }) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _load_program()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = measure(workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(out["metrics"]):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(out['metrics']))}")
    out["metrics"] = {
        name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
