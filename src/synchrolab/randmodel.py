"""Random automata, 1-out digraphs, and their functional-graph structure.

Every sampler is a pure function of (parameters, seed stream).  Streams are
PCG64 generators keyed by a master seed and a stream index through numpy's
SeedSequence spawn keys, so trial results never depend on execution order.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import Automaton, StateSet, _as_index, _as_int_array, _offsets, _power, _preimage_runs, _sorted_unique
from .errors import CapacityError, InvalidInputError

PROB_SUM_TOL = 1e-12

# Subset-sum cap for the exact cyclic-vertex expectation.
EXACT_EXPECTATION_LIMIT = 25

# The automaton sampler draws this many states' targets at a time.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class Seed:
    """Master seed plus the stream derivation rule.

    stream(i) builds PCG64 over SeedSequence(master, spawn_key=(i,)); the
    pair (master, i) fully determines every draw of that stream.
    """

    master: int

    def __post_init__(self):
        if not 0 <= _as_index(self.master, "master seed") < 2**64:
            raise InvalidInputError("master seed must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.master)))

    def stream(self, index: int) -> np.random.Generator:
        index = _as_index(index, "stream index")
        if index < 0:
            raise InvalidInputError("stream index must be non-negative")
        seq = np.random.SeedSequence(self.master, spawn_key=(index,))
        return np.random.Generator(np.random.PCG64(seq))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, Seed):
        return seed.generator()
    return Seed(_as_index(seed, "seed")).generator()


class ProbVector:
    """Probability vector (p_v): non-negative entries summing to 1."""

    def __init__(self, p):
        try:
            arr = np.asarray(p)
        except ValueError as exc:  # ragged nesting, which numpy cannot shape
            raise InvalidInputError(f"probability vector must be a flat sequence of reals: {exc}") from exc
        if arr.dtype.kind not in "iuf":
            raise InvalidInputError(f"probabilities must be real numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.float64)  # a copy, so the caller's array may change
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("probability vector must be 1-D and nonempty")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise InvalidInputError("probabilities must be finite and non-negative")
        if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
            raise InvalidInputError(
                f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {float(arr.sum())!r}"
            )
        arr.setflags(write=False)
        self._p = arr

    @classmethod
    def uniform(cls, n: int) -> "ProbVector":
        n = _as_index(n, "vertex count")
        if n < 1:
            raise InvalidInputError("need at least one vertex")
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_json(cls, text: str) -> "ProbVector":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"invalid JSON probability vector: {exc}") from exc
        if not isinstance(data, list) or not all(type(x) in (int, float) for x in data):
            raise InvalidInputError("probability vector JSON must be an array of reals")
        return cls(data)

    @property
    def p(self) -> np.ndarray:
        return self._p

    def __len__(self) -> int:
        return int(self._p.size)

    def __repr__(self) -> str:
        return f"ProbVector({self._p.tolist()!r})"


class FunctionalGraph:
    """Digraph with exactly one out-edge per vertex (a unary automaton)."""

    def __init__(self, succ):
        arr = _as_int_array(succ, "successors")
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("successor array must be 1-D and nonempty")
        n = arr.size
        if arr.min() < 0 or arr.max() >= n:
            raise InvalidInputError(f"successors must be vertices in [0, {n})")
        arr = arr.copy()
        arr.setflags(write=False)
        self._succ = arr

    @classmethod
    def from_automaton(cls, aut: Automaton) -> "FunctionalGraph":
        if aut.k != 1:
            raise InvalidInputError(f"expected a unary automaton, got k={aut.k}")
        return cls(aut.letter(0))

    def to_automaton(self) -> Automaton:
        return Automaton(self._succ.reshape(-1, 1))

    @property
    def n(self) -> int:
        return int(self._succ.size)

    @property
    def succ(self) -> np.ndarray:
        return self._succ

    def __eq__(self, other) -> bool:
        return isinstance(other, FunctionalGraph) and bool(
            np.array_equal(self._succ, other._succ)
        )

    def __repr__(self) -> str:
        return f"FunctionalGraph(n={self.n})"


class ExtinctionSequence:
    """Die-out probabilities q_0 < q_1 < ... of the critical mean-1 Poisson
    branching process; q_{k+1} = exp(-(1 - q_k)) with q_0 = 0."""

    def __init__(self, q):
        arr = np.asarray(q, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInputError("extinction sequence must be 1-D and nonempty")
        if arr[0] != 0.0:
            raise InvalidInputError("extinction sequence must start at 0")
        if np.any(arr < 0) or np.any(arr >= 1.0):
            raise InvalidInputError("extinction values must lie in [0, 1)")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise InvalidInputError("extinction sequence must be strictly increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        self._q = arr

    @property
    def q(self) -> np.ndarray:
        return self._q

    @property
    def k_max(self) -> int:
        return int(self._q.size - 1)

    def __len__(self) -> int:
        return int(self._q.size)

    def __getitem__(self, k: int) -> float:
        """q_k; negative k counts from the end, as for a list."""
        k = _as_index(k, "extinction index")
        if not -self._q.size <= k < self._q.size:
            raise InvalidInputError(f"extinction index must lie in [{-self._q.size}, {self._q.size}), got {k}")
        return float(self._q[k])

    def __repr__(self) -> str:
        return f"ExtinctionSequence(k_max={self.k_max})"


def extinction_sequence(k_max: int) -> ExtinctionSequence:
    """q_0..q_{k_max} by the recurrence q_{k+1} = exp(-(1 - q_k)), q_0 = 0."""
    k_max = _as_index(k_max, "k_max")
    if k_max < 0:
        raise InvalidInputError("k_max must be non-negative")
    q = np.empty(k_max + 1)
    q[0] = 0.0
    for k in range(k_max):
        q[k + 1] = math.exp(-(1.0 - q[k]))
    return ExtinctionSequence(q)


def sample_uniform_automaton(n: int, k: int = 2, seed=0) -> Automaton:
    """Automaton with all n*k targets drawn independently uniform on [0, n)."""
    n, k = _as_index(n, "state count"), _as_index(k, "letter count")
    if n < 1:
        raise InvalidInputError("need at least one state")
    if k < 1:
        raise InvalidInputError("need at least one letter")
    rng = _as_generator(seed)
    # The draws fill the (k, n) rows of the automaton a chunk of states at
    # a time, in the order of one (n, k) draw, so no second table is held.
    rows = np.empty((k, n), dtype=np.int64)
    for lo in range(0, n, _SAMPLE_CHUNK):
        hi = min(n, lo + _SAMPLE_CHUNK)
        rows[:, lo:hi] = rng.integers(0, n, size=(hi - lo, k), dtype=np.int64).T
    return Automaton._from_rows(rows)


def sample_one_out_digraph(p, seed=0) -> FunctionalGraph:
    """1-out digraph whose edge endpoints are i.i.d. with distribution p.

    A uniform p takes the same integer-sampling path as the automaton
    sampler, so the two agree draw for draw on a shared stream.
    """
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    rng = _as_generator(seed)
    n = len(p)
    vals = p.p
    if np.all(vals == vals[0]):
        succ = rng.integers(0, n, size=n, dtype=np.int64)
    else:
        succ = rng.choice(n, size=n, p=vals / vals.sum())
    return FunctionalGraph(succ)


def cyclic_states(g: FunctionalGraph) -> StateSet:
    """Vertices lying on a directed cycle, as the image of f^(2^j), 2^j >= n.

    A walk is on its cycle after at most n - 1 steps, and each cycle vertex
    is the m-th successor of some vertex of its own cycle, so for m >= n - 1
    the image of f^m is exactly the set of cyclic vertices.  f^(2^j) takes
    j = ceil(log2 n) squarings of the successor array (core._power).
    """
    f = _power(g.succ, 1 << (g.n - 1).bit_length())
    return StateSet._from_sorted_unique(g.n, _sorted_unique(f))


def survival_probability(n: int, t: int) -> float:
    """Probability prod_{i=1}^{t-1} (1 - i/n) that a uniform successor walk
    has not yet closed a cycle after t steps; 1 for t <= 1, 0 for t > n."""
    n, t = _as_index(n, "vertex count"), _as_index(t, "step count")
    if n < 1:
        raise InvalidInputError("need at least one vertex")
    if t < 0:
        raise InvalidInputError("step count must be non-negative")
    if t > n:
        return 0.0
    if t <= 1:
        return 1.0
    return float(np.prod(1.0 - np.arange(1, t) / n))


def expected_cyclic_exact(p) -> float:
    """Exact expected number of cyclic vertices of a 1-out digraph on p.

    The expectation equals sum over nonempty subsets C of |C|! * prod_{y in C}
    p_y, i.e. sum_m m! e_m(p) with e_m the elementary symmetric polynomials,
    which this computes by the standard O(|V|^2) recurrence.
    """
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    nv = len(p)
    if nv > EXACT_EXPECTATION_LIMIT:
        raise CapacityError(
            f"exact expectation is capped at {EXACT_EXPECTATION_LIMIT} vertices, got {nv}"
        )
    e = np.zeros(nv + 1)
    e[0] = 1.0
    for x in p.p:
        e[1:] = e[1:] + x * e[:-1]
    total = 0.0
    fact = 1.0
    for m in range(1, nv + 1):
        fact *= m
        total += fact * float(e[m])
    return total


def check_bernoulli_inequality(a: int, b: int, x: float) -> bool:
    """Whether (1 - (a/b) x)^(b-a) >= exp(-a x) holds for the given triple.

    Requires integers 0 <= a <= b and a real 0 < x <= 1; with b = 0 both
    sides are 1.
    """
    a, b = _as_index(a, "a"), _as_index(b, "b")
    x = float(x)
    if a < 0 or b < 0 or a > b:
        raise InvalidInputError("need integers 0 <= a <= b")
    if not 0.0 < x <= 1.0:
        raise InvalidInputError("need 0 < x <= 1")
    if b == 0:
        return True
    lhs = (1.0 - (a / b) * x) ** (b - a)
    rhs = math.exp(-a * x)
    return lhs >= rhs


def distance_to_set(g: FunctionalGraph, targets) -> dict[int, int]:
    """Shortest directed-path length from every vertex to the target set.

    Returns {vertex: distance} containing only vertices that can reach the
    set (members have distance 0); unreachable vertices are simply absent,
    never encoded by a sentinel value.  Computed by one backward BFS over
    the reversed edges.
    """
    if isinstance(targets, StateSet):
        if targets.n != g.n:
            raise InvalidInputError(
                f"target set is over [0, {targets.n}) but the graph has {g.n} vertices"
            )
        members = targets.members
    else:
        members = _sorted_unique(_as_int_array(list(targets), "targets"))
        if members.size and (members[0] < 0 or members[-1] >= g.n):
            raise InvalidInputError(f"targets must lie in [0, {g.n})")
    if members.size == 0:
        raise InvalidInputError("target set must be nonempty")

    # Level d + 1 is the preimages of level d not reached before; a vertex
    # has one successor, so a level holds each vertex once.
    order, start, count = _preimage_runs(g.succ, g.n)
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[members] = 0
    level, d = members, 0
    while level.size:
        c = count[level]
        pos = _offsets(c)
        pos += start[level].repeat(c)
        level = order[pos]
        level = level[dist[level] < 0]
        d += 1
        dist[level] = d
    reached = np.flatnonzero(dist >= 0)
    return dict(zip(reached.tolist(), dist[reached].tolist()))
