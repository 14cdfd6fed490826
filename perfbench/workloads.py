"""The benchmark's three workloads.

A workload builds its inputs from the workload seed (set-up), runs one small
untimed warm-up operation, then exposes its fixed batch as a list of steps.
LAYERS names the traced layers (layertrace.LAYERS) that every batch calls.
A step is one call into the program and belongs to operation `op`; the
steps of an operation stand for the sum of their weights (an experiment
command stands for its trials), and `pace` names the reference kernel of
like make-up that scales its time (pace.py).  check() compares the step
results of one batch (None for a step that failed) with the reference
computations in checks.py and returns the problems found and the total word
length produced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import synchrolab
from synchrolab import cli


class OpFailed(Exception):
    """A program call that did not produce a result."""


@dataclass
class Step:
    op: int
    weight: int
    run: Callable[[], Any]
    pace: str


def derive_seeds(seed: int, tag: int, count: int) -> list[int]:
    """`count` 32-bit seeds drawn from the workload seed."""
    return [int(x) for x in np.random.SeedSequence([tag, seed]).generate_state(count, np.uint32)]


def run_cli(*argv: str) -> str:
    """synchrolab.cli.main in-process; its standard output, or OpFailed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise OpFailed(f"synchrolab {' '.join(argv)} exited {code}")
    return buf.getvalue()


class SyncLarge:
    """`synchrolab sync --n 50000 --seed c` over a batch of seeds c.

    The batch is a stratified sample: POOL candidate automata are drawn from
    the workload seed, ranked by the size of their phase-1 image (computed by
    the benchmark's own kernel), and BATCH are taken at evenly spaced ranks,
    so every workload seed gets the same spread of easy and hard instances.
    """

    name = "sync-large"
    N, POOL, BATCH = 50_000, 16, 4
    LAYERS = ("cli.main", "randmodel.sample_uniform_automaton", "sync.two_phase_synchronize",
              "sync.greedy_synchronize", "core.image", "core.is_reset_word")

    def setup(self, seed: int, workdir: Path) -> None:
        word = checks.phase1_letters(self.N)
        ranked = []
        for c in derive_seeds(seed, 1, self.POOL):
            table = synchrolab.sample_uniform_automaton(self.N, 2, synchrolab.Seed(c)).table
            ranked.append((checks.set_image(table, word).size, c, table))
        ranked.sort(key=lambda r: r[:2])
        self.batch = [ranked[(2 * i + 1) * self.POOL // (2 * self.BATCH)][1:] for i in range(self.BATCH)]
        self.warm_seed = derive_seeds(seed, 2, 1)[0]

    def warmup(self) -> None:
        run_cli("sync", "--n", "2000", "--seed", str(self.warm_seed))

    def steps(self) -> list[Step]:
        return [Step(i, 1, lambda c=c: json.loads(run_cli("sync", "--n", str(self.N), "--seed", str(c))), "numpy")
                for i, (c, _table) in enumerate(self.batch)]

    def check(self, results) -> tuple[list[str], int]:
        problems, letters = [], 0
        for (c, table), report in zip(self.batch, results):
            if report is None:
                continue
            problems += [f"seed {c}: {p}" for p in checks.check_sync_report(table, report)]
            letters += report["length"]
        return problems, letters


class ImageScan:
    """Uniform binary automata at n = 300000: dfa write and read back, the
    interleaved phase-1 image, the unary image and the cyclic states of
    letter a.  No pair search runs."""

    name = "image-scan"
    N, BATCH = 300_000, 1
    LAYERS = ("randmodel.sample_uniform_automaton", "core.write_dfa", "core.read_dfa", "core.image",
              "core.iterate_unary_image", "randmodel.cyclic_states")

    def setup(self, seed: int, workdir: Path) -> None:
        self.seeds = derive_seeds(seed, 3, self.BATCH + 1)
        self.workdir = workdir

    def _scan_parts(self, n: int, c: int, index: int) -> list[Callable[[], dict]]:
        """The five timed parts of scanning one automaton; each returns the
        shared result dict."""
        r = {"path": self.workdir / f"scan{index}.dfa", "full": synchrolab.StateSet.full(n)}

        def write():
            aut = synchrolab.sample_uniform_automaton(n, 2, synchrolab.Seed(c))
            synchrolab.write_dfa(aut, r["path"])
            r["table"] = aut.table
            return r

        def read():
            r["back"] = synchrolab.read_dfa(r["path"])
            return r

        def phase1():
            r["w1"] = synchrolab.phase1_word_interleaved(n)
            r["image"] = synchrolab.image(r["back"], r["w1"], r["full"]).members
            return r

        def unary():
            r["reps"] = len(synchrolab.phase1_word_unary(n))
            r["unary"] = synchrolab.iterate_unary_image(r["back"], 0, r["reps"], r["full"]).members
            return r

        def cyclic():
            r["cyclic"] = synchrolab.cyclic_states(synchrolab.FunctionalGraph(r["back"].letter(0))).members
            return r

        return [write, read, phase1, unary, cyclic]

    def warmup(self) -> None:
        for part in self._scan_parts(20_000, self.seeds[-1], -1):
            r = part()
        r["path"].unlink()

    def steps(self) -> list[Step]:
        # Writing and reading the dfa text is Python work; the rest is numpy.
        kinds = ("python", "python", "numpy", "numpy", "numpy")
        return [Step(i, int(j == 0), part, kind)
                for i, c in enumerate(self.seeds[:-1])
                for j, (part, kind) in enumerate(zip(self._scan_parts(self.N, c, i), kinds))]

    def check(self, results) -> tuple[list[str], int]:
        problems, letters = [], 0
        for first in range(0, len(results), 5):
            parts = results[first:first + 5]
            if any(p is None for p in parts):
                continue
            r = parts[0]
            table, n = r["table"], r["table"].shape[0]
            problems += checks.check_round_trip(table, r["path"].read_text(), r["back"].table)
            r["path"].unlink()
            w1 = list(r["w1"].letters)
            if w1 != checks.phase1_letters(n) or len(w1) != checks.phase1_length(n):
                problems.append("phase-1 word differs from a^b (b a^b)^r")
            if r["reps"] != checks.unary_length(n):
                problems.append(f"unary word length {r['reps']}, expected {checks.unary_length(n)}")
            problems += checks.check_members("phase-1 image", r["image"], checks.set_image(table, checks.phase1_letters(n)))
            problems += checks.check_members("unary image", r["unary"], checks.set_image(table, [0] * checks.unary_length(n)))
            problems += checks.check_members("cyclic states", r["cyclic"], checks.eventual_image(table[:, 0]))
            letters += len(w1) + r["reps"]
        return problems, letters


class MonteCarlo:
    """`synchrolab experiment` with one worker on five configs, and
    `synchrolab exact` on the Cerny automata C_19 and C_20.

    Three of the configs (two-phase, pair-radius, reset-length) share one
    (seed, n_list, trials), so their trials see the same automata and can be
    checked against each other.
    """

    name = "montecarlo"
    SHARED = {"n_list": [12, 16, 20, 24], "trials": 6}
    CONFIGS = (
        ("two-phase", {"n_list": [1000, 3000, 10000], "trials": [8, 4, 4]}),
        ("pair-radius", {"n_list": [512, 1024, 2048], "trials": [4, 2, 1]}),
        ("two-phase", SHARED),
        ("pair-radius", SHARED),
        ("reset-length", SHARED),
    )
    CERNY = (19, 20)
    LAYERS = ("cli.main", "experiments.run_experiment", "randmodel.sample_uniform_automaton",
              "sync.two_phase_synchronize", "sync.greedy_synchronize", "core.image", "core.is_reset_word",
              "sync.all_pairs_merge_radius", "sync.exact_shortest_reset", "core.read_dfa")

    def setup(self, seed: int, workdir: Path) -> None:
        config_seed = derive_seeds(seed, 4, 1)[0]
        self.jobs = []
        for i, (experiment, grid) in enumerate(self.CONFIGS):
            trials = grid["trials"] if isinstance(grid["trials"], list) else [grid["trials"]] * len(grid["n_list"])
            out = workdir / f"exp{i}"
            cfg = {"experiment": experiment, "n_list": grid["n_list"], "trials": trials,
                   "seed": config_seed, "out": str(out)}
            path = workdir / f"exp{i}.json"
            path.write_text(json.dumps(cfg))
            self.jobs.append((experiment, path, out, sum(trials)))
        self.cerny = {}
        for n in (*self.CERNY, 6):
            self.cerny[n] = workdir / f"cerny{n}.dfa"
            self.cerny[n].write_text(checks.dfa_text(checks.cerny_table(n)))

    def warmup(self) -> None:
        run_cli("exact", "--in", str(self.cerny[6]))

    def _experiment(self, path: Path, out: Path, experiment: str) -> dict:
        run_cli("experiment", "--config", str(path))
        rows = {}
        lines = (out / f"{experiment}.csv").read_text().splitlines()
        for line in lines[1:]:
            _exp, n, trial, _stream, quantity, value, _wall = line.split(",")
            rows.setdefault((int(n), int(trial)), {})[quantity] = float(value)
        return rows

    def steps(self) -> list[Step]:
        steps = [Step(i, weight, lambda p=path, o=out, e=experiment: self._experiment(p, o, e), "mixed")
                 for i, (experiment, path, out, weight) in enumerate(self.jobs)]
        steps += [Step(len(steps) + i, 1, lambda n=n: json.loads(run_cli("exact", "--in", str(self.cerny[n]))),
                       "python")
                  for i, n in enumerate(self.CERNY)]
        return steps

    def check(self, results) -> tuple[list[str], int]:
        problems, letters = [], 0
        exp_results = results[: len(self.jobs)]
        for (experiment, _path, _out, weight), rows in zip(self.jobs, exp_results):
            if rows is None:
                continue
            if len(rows) != weight:
                problems.append(f"{experiment}: {len(rows)} trials recorded, expected {weight}")
            if experiment == "two-phase":
                problems += checks.check_two_phase_rows(rows)
                letters += int(sum(q.get("total_length", 0) for q in rows.values()))
            if experiment == "reset-length":
                letters += int(sum(q.get("length", 0) for q in rows.values()))
            if experiment == "pair-radius":
                for (n, trial), q in rows.items():
                    within = q.get("radius", math.inf) <= 3.0 * math.log2(n)
                    if q["within_bound"] != float(within):
                        problems.append(f"pair-radius n={n} trial {trial}: within_bound flag disagrees with radius")
        shared = exp_results[2:5]
        if all(r is not None for r in shared):
            problems += checks.check_shared_trials(*shared)
        for n, result in zip(self.CERNY, results[len(self.jobs):]):
            if result is not None:
                problems += checks.check_cerny(n, result)
                letters += len(result.get("word") or "")
        return problems, letters


WORKLOADS = {w.name: w for w in (SyncLarge, ImageScan, MonteCarlo)}
