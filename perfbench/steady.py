"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py                      # 2 sets x 10 seeds x every workload
    python3 perfbench/steady.py --sets 1 --runs 1    # every workload once

Each set runs run.py once per seed on every workload (set 1 on seeds
1..runs, set 2 on seeds 101..100+runs); set 2 starts when set 1 ends.
For every end-to-end metric of every workload it prints each set's median
and quartiles, the spread (q3 - q1) / median, and, with two sets, whether
the second median is no worse than the first by more than BENCHMARK.json's
bound.  The sets agree when every spread, setup_s's included, and every such
shift is within the metric's bound and the share of failed operations is the
same in both.  The runs are also written to perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for s in range(args.sets):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in range(100 * s + 1, 100 * s + 1 + args.runs):
                r = run_once(workload, seed, bench["run_seconds"])
                r["seed"] = seed
                runs[workload].append(r)
                print(f"set {s + 1} {workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} elapsed={r['elapsed_s']:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in r["metrics"].items()),
                      flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{'workload':<11} {'metric':<13} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        shares = {round(sum(r["failed"] for r in rs[workload]) / sum(r["attempted"] for r in rs[workload]), 12)
                  for rs in sets}
        if len(shares) != 1 or any(not r["correct"] for rs in sets for r in rs[workload]):
            ok = False
            print(f"{workload}: incorrect output or failed shares differ between sets: {shares}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, rs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in rs[workload]]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med
                verdict = "ok" if spread <= bound else "SPREAD"
                if i == 1:
                    worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
                    verdict += f" shift {worse:+.3f} " + ("ok" if worse <= bound else "WORSE")
                    ok &= worse <= bound
                ok &= spread <= bound
                print(f"{workload:<11} {name:<13} {i + 1:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {bound:>6}  {verdict}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    report = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    report.write_text(json.dumps({"sets": sets}, indent=1))
    print(f"\n{'agree' if ok else 'DISAGREE'}; runs written to {report.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
