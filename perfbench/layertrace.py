"""Per-layer spans and counts, recorded from outside the program.

Tracer.install() replaces each layer function with a timing wrapper under
every name it is looked up by: the defining module, the modules that import
it (synchrolab.sync.image, synchrolab.cli.two_phase_synchronize,
synchrolab.experiments.all_pairs_merge_radius, ...) and the package itself.
uninstall() puts the originals back.  Spans (name, start, end, parent,
operation id) and counts stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("synchrolab", "synchrolab.core", "synchrolab.randmodel", "synchrolab.sync",
           "synchrolab.experiments", "synchrolab.cli")

# (defining module, function): the layers a span is recorded for.
LAYERS = (
    ("randmodel", "sample_uniform_automaton"),
    ("core", "image"),
    ("core", "iterate_unary_image"),
    ("randmodel", "cyclic_states"),
    ("core", "write_dfa"),
    ("core", "read_dfa"),
    ("sync", "greedy_synchronize"),
    ("core", "is_reset_word"),
    ("sync", "two_phase_synchronize"),
    ("sync", "all_pairs_merge_radius"),
    ("sync", "exact_shortest_reset"),
    ("cli", "main"),
    ("experiments", "run_experiment"),
)


def _dfa_bytes(a, result):
    dest = a["dest"]
    return {"core.dfa.bytes": os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0}


def _greedy(a, result):
    m = len(a["A"])
    return {"sync.greedy_synchronize.source_pairs": m * (m - 1) // 2,
            "sync.greedy_synchronize.letters": len(result)}


# Counts taken at a layer boundary from the bound arguments and the result.
COUNTS = {
    "core.image": lambda a, r: {"core.image.letters": len(a["w"]), "core.image.states_out": len(r)},
    "core.iterate_unary_image": lambda a, r: {"core.iterate_unary_image.states_out": len(r)},
    "randmodel.cyclic_states": lambda a, r: {"randmodel.cyclic_states.count": len(r)},
    "core.write_dfa": _dfa_bytes,
    "sync.greedy_synchronize": _greedy,
    "sync.exact_shortest_reset": lambda a, r: {"sync.exact_shortest_reset.letters": 0 if r is None else len(r)},
}

# Layers reported by their self time (the wrapped calls inside subtracted).
SELF_TIMED = {"cli.main": "cli.self.s", "experiments.run_experiment": "experiments.self.s"}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        index = self.begin(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def _wrap(self, name, fn):
        counter = COUNTS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    self.counts[self._op][key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for mod_name, fn_name in LAYERS:
            orig = getattr(importlib.import_module(f"synchrolab.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    self._patched.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._patched):
            setattr(mod, fn_name, orig)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, op_ids) -> dict[str, float]:
        """Per-layer times (inclusive, except SELF_TIMED) and counts summed
        over the given operations."""
        ops = set(op_ids)
        self_t = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            if op not in ops or name == OP_SPAN:
                continue
            if name in SELF_TIMED:
                totals[SELF_TIMED[name]] += self_t[i]
            else:
                totals[f"{name}.s"] += end - start
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                totals[key] += value
        return dict(totals)

    def problems(self, expected_layers) -> list[str]:
        """Faults in the recorded spans: a span never closed, a span that
        does not lie inside its parent, or an expected layer with no span.
        (Self times need no check: they sum to the root span by definition.)"""
        out = []
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            if end is None:
                out.append(f"span {i} ({name}) was never closed")
            elif parent >= 0:
                p_name, p_start, p_end = self.spans[parent][:3]
                if p_end is None or not p_start <= start <= end <= p_end:
                    out.append(f"span {i} ({name}) does not lie inside its parent {p_name}")
        seen = {s[0] for s in self.spans}
        return out + [f"layer {name} recorded no span" for name in expected_layers if name not in seen]

    def to_json(self) -> dict:
        self_t = self.self_times()
        return {
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4], "self": self_t[i]}
                for i, s in enumerate(self.spans)
            ],
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
