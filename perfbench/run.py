"""Benchmark harness for synchrolab.

    python3 perfbench/run.py --workload sync-large --seed 1 --seconds 38 --trace 0

Builds the workload's inputs from the seed, runs one untimed warm-up
operation, then repeats the workload's fixed batch in whole rounds, at least
MIN_ROUNDS and more while another, checks included, fits in --seconds,
checking every round's outputs outside the timed region.  Before each step
it times the reference kernels of pace.py.  wall_s sums each step's median
time over rounds and setup_s is the median of SETUP_SAMPLES fresh set-up
processes, both scaled to the reference pace (pace.py).  Metric names
and units come from BENCHMARK.json.  The last line of standard output is one
JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).  A traced
run also writes its spans to perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
MIN_ROUNDS = 4

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def import_program():
    """Put the checkout's src/ first on the path and import synchrolab from it."""
    src = ROOT / "src"
    if not (src / "synchrolab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import synchrolab

    if not Path(synchrolab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"run.py: synchrolab was imported from {synchrolab.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def time_setup(args, index: int) -> float:
    """Wall time of one fresh process that starts the interpreter, imports
    the program and builds this workload's inputs."""
    workdir = OUT / f"setup-{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    t0 = time.perf_counter()
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fits_another_round(round_costs, seconds: float) -> bool:
    """Whether a round of median cost (the program's calls, their checks and
    a set-up sample) still ends within `seconds` of the first round's start."""
    return sum(round_costs) + statistics.median(round_costs) <= seconds


def run_round(steps, tracer, first_op, pace):
    """Run one batch, timing the reference kernels before each step;
    returns (results, seconds per step, operations failed)."""
    results, times, failed_ops = [], [], set()
    for i, step in enumerate(steps):
        pace.sample()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results.append(step.run())
            else:
                results.append(tracer.run_op(first_op + i, step.run))
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append(None)
            failed_ops.add(step.op)
        times.append(time.perf_counter() - t0)
    return results, times, sum(s.weight for s in steps if s.op in failed_ops)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from pace import Pace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    os.environ["SYNCHROLAB_THREADS"] = "1"

    if args.setup_only:
        workdir = Path(args.setup_only)
        workdir.mkdir(parents=True, exist_ok=True)
        workload.setup(args.seed, workdir)
        return 0

    OUT.mkdir(exist_ok=True)
    # Set-up is timed in fresh processes spread over the run (one before the
    # warm-up, one after each round, the rest at the end), so the median sees
    # the host at the same mix of speeds as the rounds do.  A traced run
    # reports no set-up time and takes none.
    setup_target = 0 if args.trace else SETUP_SAMPLES
    setup_samples = []

    def take_setup_sample():
        if len(setup_samples) < setup_target:
            setup_samples.append(time_setup(args, len(setup_samples)))

    take_setup_sample()

    pace = Pace()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tracer = None
    try:
        workload.setup(args.seed, workdir)
        workload.warmup()
        steps = workload.steps()
        per_round = sum(s.weight for s in steps)
        if args.trace:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        step_times, round_costs, problems, letters, layers = [], [], [], set(), []
        attempted = failed = 0
        peak_rss_mib = None
        while len(step_times) < MIN_ROUNDS or fits_another_round(round_costs, args.seconds):
            round_start = time.perf_counter()
            first_op = len(step_times) * len(steps)
            results, times, round_failed = run_round(steps, tracer, first_op, pace)
            step_times.append(times)
            attempted += per_round
            failed += round_failed
            if peak_rss_mib is None:
                # Every round repeats the same calls, so the program's peak is
                # reached by now; read it before the checks allocate their own.
                peak_rss_mib = max_rss_mib()
            if tracer is not None:
                layers.append(tracer.layer_metrics(range(first_op, first_op + len(steps))))
            round_problems, round_letters = workload.check(results)
            problems += round_problems
            letters.add(round_letters)
            take_setup_sample()
            round_costs.append(time.perf_counter() - round_start)
        while len(setup_samples) < setup_target:
            take_setup_sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if len(letters) != 1 and failed == 0:
        problems.append(f"word lengths differ between rounds: {sorted(letters)}")
    if tracer is not None:
        problems += [f"trace: {p}" for p in tracer.problems(workload.LAYERS)]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"peak RSS {peak_rss_mib:.1f} MiB before the first check, {max_rss_mib():.1f} MiB at the end",
          file=sys.stderr)
    # Each step's median round, at the pace of the step's reference kernel.
    raw = [statistics.median(column) for column in zip(*step_times)]
    wall_s = sum(t * pace.factor(step.pace) for t, step in zip(raw, steps))
    print(f"raw wall {sum(raw):.4f} s; pace numpy {pace.factor('numpy'):.4f}, python {pace.factor('python'):.4f}",
          file=sys.stderr)
    if tracer is None:
        print(f"raw setup {statistics.median(setup_samples):.4f} s", file=sys.stderr)
        values = {
            "setup_s": statistics.median(setup_samples) * pace.factor("mixed"),
            "wall_s": wall_s,
            "ops_per_s": per_round / wall_s,
            "word_letters": float(max(letters)),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median([r.get(name, 0.0) for r in layers]) for name in PER_LAYER}
        units = PER_LAYER
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "step_times_s": step_times,
            "wall_s": wall_s, "raw_wall_s": sum(raw), "per_layer": values, **tracer.to_json(),
        }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
