"""Host pace: fixed reference kernels timed between the program's calls.

The host's speed drifts, by up to 1.5-2x over minutes, and every raw time
in a run drifts with it.  So before each call into the program the harness
times two reference kernels of fixed work:

- NUMPY: a four-key lexsort of 10^5 int64 codes, a dedupe, a sort of the
  survivors merged with the codes, and a chain of gathers through a
  3*10^5-state table (the make-up of the pair search and the set image);
- PYTHON: a dict-and-int breadth-first search and the formatting and
  parsing of an integer table as text (the make-up of the power-set oracle
  and the dfa reader and writer).

A run's pace for a kernel is NOMINAL_S[kernel] over the median of the
kernel's times in the run.  A step names the kernel of its make-up
("numpy", "python" or "mixed", the sum of both), and its reported time is
its median raw time multiplied by that pace: seconds at the speed the host
had when NOMINAL_S was measured.  The kernels use nothing from synchrolab,
and their inputs do not depend on the workload seed, so a change to the
program moves the step times and not the pace.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median kernel times measured once on the reference machine (perfbench/README.md);
# they set the scale of the reported seconds and nothing else.
NOMINAL_S = {"numpy": 0.085, "python": 0.052}


class Pace:
    def __init__(self):
        rng = np.random.default_rng(20230615)
        self.codes = rng.integers(0, 1 << 40, size=100_000)
        self.keys = [rng.integers(0, 1 << 16, size=100_000, dtype=np.int32) for _ in range(3)]
        self.table = rng.integers(0, 300_000, size=(300_000, 2), dtype=np.int32)
        self.rows = rng.integers(0, 100_000, size=(12_000, 2))
        self.samples: dict[str, list[float]] = {"numpy": [], "python": []}

    def _numpy(self) -> int:
        order = np.lexsort((*self.keys, self.codes))
        s = self.codes[order]
        keep = np.empty(s.size, dtype=bool)
        keep[0] = True
        np.not_equal(s[1:], s[:-1], out=keep[1:])
        merged = np.sort(np.concatenate([s[keep], self.codes]))
        cur = np.arange(self.table.shape[0])
        for c in (0, 1, 0, 1):
            cur = self.table[cur, c]
        return int(merged[-1]) + int(cur[0])

    def _python(self) -> int:
        seen = {1: 0}
        queue = [1]
        i = 0
        while len(seen) < 40_000:
            m = queue[i]
            i += 1
            for c in (3, 5):
                x = (m * c + 7) % 1_000_003
                if x not in seen:
                    seen[x] = 2 * m + (c == 5)
                    queue.append(x)
        text = "\n".join(" ".join(str(x) for x in row) for row in self.rows.tolist())
        return len(seen) + sum(int(t) for t in text.split())

    def sample(self) -> None:
        """Time both kernels once, with the cyclic garbage collector off: it
        would otherwise walk whatever the harness holds at the time."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for name, kernel in (("numpy", self._numpy), ("python", self._python)):
                t0 = time.perf_counter()
                kernel()
                self.samples[name].append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def factor(self, kind: str) -> float:
        """Nominal over measured time of the kernel `kind` ("numpy",
        "python" or "mixed") over the samples taken so far."""
        names = ("numpy", "python") if kind == "mixed" else (kind,)
        measured = sum(statistics.median(self.samples[n]) for n in names)
        return sum(NOMINAL_S[n] for n in names) / measured
