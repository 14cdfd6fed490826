"""Reset-word construction: image-shrinking phase words, pair merging by
product-space BFS, greedy full synchronization, and the exact shortest-reset
oracle over the power set.

A pair of states (u, v) is encoded as u * n + v everywhere.  The wide
searches keep unordered pairs canonical with u < v, as int64 codes; the
all-pairs radius runs over all n^2 ordered pairs, as int32 codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Automaton, StateSet, Word, _image_members, image, is_reset_word
from .errors import CapacityError, InvalidInputError, NotSynchronizableError

# Product space guards: the all-pairs radius holds k int32 successor codes
# and four boolean masks per ordered pair, about (4k + 4) n^2 bytes, and its
# limit keeps those codes below 2^31; the wide BFS keeps every visited pair
# code in memory.
RADIUS_STATE_LIMIT = 20_000
PAIR_VISIT_LIMIT = 20_000_000

# Power-set search guard.
SUBSET_STATE_LIMIT = 24


def phase1_word_unary(n: int) -> Word:
    """One letter repeated ceil(2 sqrt(n ln n)) times."""
    n = int(n)
    if n < 2:
        raise InvalidInputError("need at least two states")
    reps = math.ceil(2.0 * math.sqrt(n * math.log(n)))
    return Word([0] * reps)


def phase1_word_interleaved(n: int) -> Word:
    """A block of ceil(sqrt(n)) a's, then ceil(sqrt(log2 n)) repetitions of
    a single b followed by another such a-block."""
    n = int(n)
    if n < 2:
        raise InvalidInputError("need at least two states")
    block = math.isqrt(n)
    if block * block < n:
        block += 1
    rounds = math.ceil(math.sqrt(math.log2(n)))
    letters = [0] * block
    for _ in range(rounds):
        letters.append(1)
        letters.extend([0] * block)
    return Word(letters)


def default_pair_search_limit(n: int) -> int:
    """Depth budget ceil(6 log2 n) + 8 for the forward pair search; generous
    slack over the typical 3 log2 n merge radius avoids false negatives."""
    n = int(n)
    if n < 1:
        raise InvalidInputError("need at least one state")
    return math.ceil(6.0 * math.log2(n)) + 8 if n > 1 else 8


@dataclass(frozen=True)
class PairDistanceResult:
    """Shortest merge length of one state pair; distance is math.inf and the
    witness is None when no merging word was found."""

    distance: int | float
    witness: Word | None


@dataclass(frozen=True)
class SyncReport:
    """Outcome of the two-phase construction on one automaton."""

    word: Word
    phase1_length: int
    phase2_length: int
    intermediate_image_size: int
    verified: bool

    def as_dict(self) -> dict:
        return {
            "word": self.word.text,
            "length": len(self.word),
            "phase1_length": self.phase1_length,
            "phase2_length": self.phase2_length,
            "intermediate_image_size": self.intermediate_image_size,
            "verified": self.verified,
        }


def _in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(haystack, needles)
    pos = np.minimum(pos, haystack.size - 1)
    return haystack[pos] == needles


def _reconstruct_word(steps, pos: int, final_letter: int) -> Word:
    letters_rev = [final_letter]
    for index, width in reversed(steps):
        letter, pos = divmod(int(index[pos]), width)
        letters_rev.append(letter)
    return Word(reversed(letters_rev))


def _merge_search(aut, src_x, src_y, max_len=None, visit_limit=PAIR_VISIT_LIMIT):
    """Level-synchronous BFS over unordered pairs from many sources at once.

    src_x/src_y are canonical (x < y) pairs in lexicographic order; each BFS
    node carries the smallest source index that reaches it in the minimal
    number of steps, so the first diagonal hit identifies a closest source
    deterministically (ties broken by source index, then letter, then
    frontier position).  Returns (source_index, word) or None when no source
    can merge within max_len letters (None = search to exhaustion).
    """
    n = aut.n
    k = aut.k
    letter_maps = [aut.letter(c) for c in range(k)]
    codes = src_x.astype(np.int64) * n + src_y.astype(np.int64)
    labels = np.arange(codes.size, dtype=np.int64)
    # Per level below the sources: each node's candidate index
    # letter * width + parent, and the width of the level it came from.
    steps = []
    visited = codes
    while codes.size:
        if max_len is not None and len(steps) + 1 > max_len:
            return None
        width = codes.size
        u, v = np.divmod(codes, n)
        best = None  # (source label, letter, frontier position)
        cand_codes = np.empty(k * width, dtype=np.int64)
        for c, tc in enumerate(letter_maps):
            a = tc[u]
            b = tc[v]
            merged = a == b
            if merged.any():
                pos = np.flatnonzero(merged)
                lab = labels[pos]
                i = int(np.argmin(lab))  # first minimum = smallest position
                cand = (int(lab[i]), c, int(pos[i]))
                if best is None or cand < best:
                    best = cand
            out = cand_codes[c * width:(c + 1) * width]
            np.minimum(a, b, out=out)
            out *= n
            out += np.maximum(a, b)
        if best is not None:
            label, letter, pos = best
            return label, _reconstruct_word(steps, pos, letter)

        # One entry per code, keeping the smallest (label, candidate index);
        # the index letter * width + parent orders ties by (letter, parent),
        # so the group minimum does not depend on the sort being stable.
        # Labels stay below the source count and indices below k times the
        # visit guard, so the key label << shift | index fits in int64.
        order = np.argsort(cand_codes)
        cand_codes = cand_codes[order]
        first = np.empty(cand_codes.size, dtype=bool)
        first[0] = True
        np.not_equal(cand_codes[1:], cand_codes[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        shift = cand_codes.size.bit_length()
        keys = np.tile(labels, k)[order]
        keys <<= shift
        keys |= order
        keys = np.minimum.reduceat(keys, starts)
        codes = cand_codes[starts]
        fresh = ~_in_sorted(visited, codes)
        codes = codes[fresh]
        if codes.size == 0:
            return None
        if visited.size + codes.size > visit_limit:
            raise CapacityError(
                f"pair search visited more than {visit_limit} pairs"
            )
        keys = keys[fresh]
        labels = keys >> shift
        steps.append((keys & ((1 << shift) - 1), width))
        # codes is sorted and disjoint from visited: the stable sort merges
        # the two runs in linear time.
        visited = np.sort(np.concatenate([visited, codes]), kind="stable")
    return None


def pair_shortest_merge(aut: Automaton, x: int, y: int, max_len=None) -> PairDistanceResult:
    """Length of a shortest word sending x and y to a common state, with a
    witness; math.inf when no merge exists within max_len letters (default
    budget default_pair_search_limit(n), math.inf searches to exhaustion)."""
    x, y = int(x), int(y)
    n = aut.n
    if not (0 <= x < n and 0 <= y < n):
        raise InvalidInputError(f"states must lie in [0, {n})")
    if max_len is None:
        max_len = default_pair_search_limit(n)
    elif max_len == math.inf:
        max_len = None
    elif not max_len >= 1:  # also -inf and nan, which int() cannot take
        raise InvalidInputError("max_len must be positive")
    else:
        max_len = int(max_len)
    if x == y:
        return PairDistanceResult(0, Word())
    lo, hi = (x, y) if x < y else (y, x)
    res = _merge_search(
        aut,
        np.array([lo], dtype=np.int64),
        np.array([hi], dtype=np.int64),
        max_len=max_len,
    )
    if res is None:
        return PairDistanceResult(math.inf, None)
    _label, word = res
    return PairDistanceResult(len(word), word)


def all_pairs_merge_radius(aut: Automaton) -> int | float:
    """Maximum over pairs of the shortest merge length, or math.inf when
    some pair can never merge.

    Level BFS outward from the diagonal over the ordered pairs u * n + v:
    an unseen pair joins level d + 1 when some letter sends it into level d.
    """
    n = aut.n
    if n < 2:
        raise InvalidInputError("need at least two states")
    if n > RADIUS_STATE_LIMIT:
        raise CapacityError(
            f"all-pairs table is capped at {RADIUS_STATE_LIMIT} states, got {n}"
        )
    succ = []
    for c in range(aut.k):
        t = aut.letter(c).astype(np.int32)
        succ.append((t[:, None] * n + t).ravel())
    frontier = np.eye(n, dtype=bool).ravel()
    seen = frontier.copy()
    unseen = n * n - n
    radius = 0
    while unseen:
        hit = frontier[succ[0]]
        for sc in succ[1:]:
            hit |= frontier[sc]
        hit &= ~seen
        found = int(np.count_nonzero(hit))
        if not found:
            return math.inf
        seen |= hit
        unseen -= found
        frontier = hit
        radius += 1
    return radius


def greedy_synchronize(aut: Automaton, A: StateSet) -> Word:
    """Collapse A to a single state by repeatedly merging a closest pair.

    Each round runs one multi-source pair BFS with every pair of the current
    image as a source, appends the winning merge word, and applies it to the
    whole set.  Raises NotSynchronizableError naming a stuck pair when no
    pair of the surviving image can merge.
    """
    if A.n != aut.n:
        raise InvalidInputError(
            f"state set is over [0, {A.n}) but the automaton has {aut.n} states"
        )
    if len(A) == 0:
        raise InvalidInputError("cannot synchronize an empty state set")
    cur = A.members
    out: list[int] = []
    while cur.size > 1:
        npairs = cur.size * (cur.size - 1) // 2
        if npairs > PAIR_VISIT_LIMIT:
            # Under permutation letters no pair ever merges: that is the
            # answer, not a search too large to run.
            if all(np.bincount(aut.letter(c), minlength=aut.n).max() == 1 for c in range(aut.k)):
                raise NotSynchronizableError((int(cur[0]), int(cur[1])))
            raise CapacityError(f"{npairs} candidate pairs exceed the search budget")
        i, j = np.triu_indices(cur.size, k=1)
        res = _merge_search(aut, cur[i], cur[j])
        if res is None:
            raise NotSynchronizableError((int(cur[0]), int(cur[1])))
        _label, word = res
        cur = _image_members(aut, word, cur)
        out.extend(word)
    return Word(out)


def two_phase_synchronize(aut: Automaton) -> SyncReport:
    """Interleaved phase-1 word to shrink the image, then greedy pairwise
    merging; the result is re-verified before reporting."""
    if aut.k != 2:
        raise InvalidInputError(
            f"two-phase construction requires a two-letter alphabet, got k={aut.k}"
        )
    if aut.n < 2:
        raise InvalidInputError("need at least two states")
    w1 = phase1_word_interleaved(aut.n)
    mid = image(aut, w1, StateSet.full(aut.n))
    w2 = greedy_synchronize(aut, mid)
    word = w1 + w2
    return SyncReport(
        word=word,
        phase1_length=len(w1),
        phase2_length=len(w2),
        intermediate_image_size=len(mid),
        verified=is_reset_word(aut, word),
    )


def _subset_image_tables(aut: Automaton, chunks: int) -> np.ndarray:
    # tables[c, j, byte] = image mask under letter c of the byte placed at
    # bit offset 8*j.
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # bits[byte, i]
    tables = np.empty((aut.k, chunks, 256), dtype=np.int64)
    for c in range(aut.k):
        state_bit = np.zeros(8 * chunks, dtype=np.int64)  # padding maps to no state
        state_bit[: aut.n] = np.int64(1) << aut.letter(c)
        tables[c] = np.bitwise_or.reduce(bits * state_bit.reshape(chunks, 1, 8), axis=2)
    return tables


def exact_shortest_reset(aut: Automaton) -> Word | None:
    """A minimum-length reset word by BFS over subsets of the state set,
    or None when no word collapses the automaton.  Guarded at 24 states.

    Level-synchronous: each level is an array of subset masks in discovery
    order, i.e. ordered by (parent position, letter).  A mask reached
    several times keeps its first discovery, and the answer is the first
    singleton discovered at the shallowest level, so the word is the one a
    queue-driven BFS trying letters in order returns.
    """
    n = aut.n
    if n > SUBSET_STATE_LIMIT:
        raise CapacityError(
            f"power-set search is capped at {SUBSET_STATE_LIMIT} states, got {n}"
        )
    if n == 1:
        return Word()
    k = aut.k
    chunks = (n + 7) // 8
    tables = _subset_image_tables(aut, chunks)
    visited = np.zeros(1 << n, dtype=bool)
    level = np.array([(1 << n) - 1], dtype=np.int64)
    visited[level] = True
    # Per level below the full set: each mask's candidate index
    # position * k + letter into the level before.
    parents = []
    while level.size:
        byte_ix = [(level >> (8 * j)) & 0xFF for j in range(chunks)]
        cand = np.empty((level.size, k), dtype=np.int64)
        for c in range(k):
            img = tables[c, 0][byte_ix[0]]
            for j in range(1, chunks):
                img |= tables[c, j][byte_ix[j]]
            cand[:, c] = img
        cand = cand.reshape(-1)
        index = np.flatnonzero(~visited[cand])
        cand = cand[index]
        single = np.flatnonzero((cand & (cand - 1)) == 0)
        if single.size:
            pos, letter = divmod(int(index[single[0]]), k)
            letters_rev = [letter]
            for step in reversed(parents):
                pos, letter = divmod(int(step[pos]), k)
                letters_rev.append(letter)
            return Word(reversed(letters_rev))
        # Keep each mask's first discovery: a stable sort puts it first
        # among its equals, and sorting the kept positions restores
        # discovery order.
        order = np.argsort(cand, kind="stable")
        ordered = cand[order]
        first = np.empty(ordered.size, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        keep = np.sort(order[first])
        level = cand[keep]
        visited[level] = True
        parents.append(index[keep])
    return None
