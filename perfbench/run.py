"""Benchmark of the bistable_waves package: one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {wave_solve,pde_stability,cli_session}
        --seed N --seconds S --trace {0,1} [--quartic-seed N]

A run imports the package from ./src, sets the workload up SETUP_REPEATS
times, then runs whole rounds of the workload's operations, in an order
drawn from --seed, until S seconds have passed.  Each round ends with the
workload's output checks.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every call into the
package is recorded as a span, the spans go to
.perfbench-out/trace-<workload>-seed<N>.json and the metrics are the
per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import inputs
import spans
from clock import cpu_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

WORKLOADS = {
    "wave_solve": ("wave_solve", "WaveSolve"),
    "pde_stability": ("pde_stability", "PdeStability"),
    "cli_session": ("cli_session", "CliSession"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="draws the order of operations in each round")
    parser.add_argument("--seconds", type=int, required=True, help="start rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quartic-seed", type=int, default=inputs.QUARTIC_SEED,
        help=f"seed of the wave_solve quartic set (default {inputs.QUARTIC_SEED}, the tests' set)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def make_workload(args, work: Path, tracer):
    module, cls = WORKLOADS[args.workload]
    mod = importlib.import_module(module)  # imports the package layers the workload calls
    import_s = cpu_seconds()  # since the process started: interpreter, numpy, the package
    package = sys.modules.get("bistable_waves")
    if package is not None and not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bistable_waves imported from {package.__file__}, not from {SRC}")
    if args.workload == "wave_solve":
        return getattr(mod, cls)(args.quartic_seed), import_s
    if args.workload == "cli_session":
        return getattr(mod, cls)(SRC, work, tracer), import_s
    return getattr(mod, cls)(), import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bistable_waves" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'bistable_waves'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = spans.Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{args.seed}"
    try:
        workload, import_s = make_workload(args, work, tracer)
        if tracer is not None:
            tracer.instrument(
                m for m in (sys.modules.get(f"bistable_waves.{layer}") for layer in spans.LAYERS) if m is not None
            )

        def span(name: str):
            return tracer.span(name) if tracer is not None else contextlib.nullcontext()

        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = cpu_seconds()
            with span("bench.setup"):
                workload.setup()
            setup_times.append(cpu_seconds() - t0)

        rng = random.Random(args.seed)
        cpu: dict[str, list[float]] = {}
        wall: dict[str, list[float]] = {}
        attempted = failed = rounds = 0
        wrong = False
        phase_start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - phase_start < args.seconds:
            ops = workload.operations()
            rng.shuffle(ops)
            results = {}
            with span(spans.ROUND_SPAN):
                for name, op in ops:
                    attempted += 1
                    try:
                        with span(f"bench.op[{name}]"):
                            t0, c0 = time.perf_counter(), cpu_seconds()
                            results[name] = op()
                            c1, t1 = cpu_seconds(), time.perf_counter()
                    except Exception:  # the run goes on; the operation counts as failed
                        failed += 1
                        print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                        continue
                    cpu.setdefault(name, []).append(c1 - c0)
                    wall.setdefault(name, []).append(t1 - t0)
            for name, problems in workload.check_round(results).items():
                if problems:
                    failed += 1
                    wrong = True
                    print(f"operation {name} failed its checks: {'; '.join(problems)}", file=sys.stderr)
            rounds += 1
        phase_s = time.perf_counter() - phase_start

        op_cpu = [t for ts in cpu.values() for t in ts]
        for name in sorted(cpu):
            print(
                f"op {name}: median {statistics.median(cpu[name]):.4f} s CPU, "
                f"{statistics.median(wall[name]):.4f} s wall, over {len(cpu[name])}"
            )
        print(f"timed phase {phase_s:.3f} s wall, {rounds} round(s), {attempted} operations")
        for line in getattr(workload, "report_lines", list)():
            print(line)

        if tracer is None:
            who = resource.RUSAGE_CHILDREN if getattr(workload, "measures_children", False) else resource.RUSAGE_SELF
            values = {
                "setup_s": (import_s + statistics.median(setup_times), "s"),
                "ops_per_s": (len(op_cpu) / sum(op_cpu), "1/s"),
                "op_p50_s": (statistics.median(op_cpu), "s"),
                "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
            }
            units = {"speed_p50_s": "s", "front_speed_rel_err": "1", "shift_distance_floor": "1"}
            values.update({k: (v, units[k]) for k, v in workload.metrics().items()})
        else:
            values = spans.layer_metrics(tracer.spans, rounds, getattr(workload, "artifact_bytes", []))
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(
                json.dumps({
                    "workload": args.workload, "seed": args.seed, "rounds": rounds,
                    "timed_phase_s": phase_s, "metrics": values,
                    "spans": [dict(zip(("id", "name", "start", "end", "parent", "count"), s)) for s in tracer.spans],
                }),
                encoding="utf-8",
            )
            print(f"spans written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
