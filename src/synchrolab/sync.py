"""Reset-word construction: image-shrinking phase words, pair merging by
product-space BFS, greedy full synchronization, and the exact shortest-reset
oracle over the power set.

A pair of states {u, v}, u < v, has one encoding everywhere but in the
all-pairs radius: the canonical int64 code u * n + v.

The forward pair search is a plain multi-source BFS from every pair of an
image, with one level step (_next_level): a level's children, each kept
once with its least (source label, letter, parent).  It checks its own
budget, the source pairs before it builds them and the visited pairs at
each level.  Greedy finds each round's closest pair and its merge length
from the images x(I) of the image under the words x of each length: the
first length at which some x(I) holds one state twice
(_closest_source).  Each level is one gather of the level before from the
automaton's (k, n) successor rows, every letter at once (_word_images); a
sort of its plain states within rows tells whether it holds a meeting at
all, and the few meeting cells of the first level that does are read as
Python scalars (_least_meeting).  The search's word is read off the
winning pair's two columns of those levels, walked back from the diagonal
over the few rows that hold the pair reached, as Python ints
(_pair_word), and every round applies its word to the image by one gather
per letter.  Greedy's rounds come one at a time, each with
its image size, its word and whether the finder or the fallback search
found it (_greedy_rounds).  The power-set oracle steps a level of subset
masks by one gather per 12-bit chunk from tables of each chunk value's
image under every letter (_subset_image_tables), one gather of a seen map
that flags the singletons apart, and one dedupe sort.  The search and the
oracle store each node's parent as position * k + letter, the pair search
converting its own letter * width + position, and rebuild words with
_reconstruct_word.  The all-pairs radius is a reverse level BFS from the
diagonal on N x N bit matrices, N = n rounded up to a multiple of 64,
where pair (u, v) is bit u * N + v.  It pulls every level, each pair
looking up its images in the bit matrix of the pairs seen: an unseen pair
has no image below the last level.  The matrix is symmetric, so a level
is two row gathers and an 8 x 8-block bit transpose per letter
(_transpose_bits), not a gather inside every row, and one bit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Automaton, StateSet, Word, image, is_reset_word
from .core import _as_index, _check_state_set, _first_of_runs, _sorted_unique, _state_dtype
from .errors import CapacityError, InvalidInputError, NotSynchronizableError

# Product space guards: the all-pairs radius holds five N x N bit
# matrices (_radius_bytes); the wide BFS keeps every visited pair code in
# memory, and greedy runs it only when the finder below gives up, from at
# most PAIR_VISIT_LIMIT source pairs.
# Greedy's finder (_closest_source) builds and keeps levels that hold at
# most _FINDER_STATES * n states in all, int32 while n < 2^31: 128n bytes.
# With two letters 32n reaches two letters deeper than 8n, at which the
# finder gave up on 4 images over Seed(1..40).stream(0) at n = 5 * 10^4
# and on 1 of 30 random pairs at n = 2 * 10^5; each give-up costs a wide
# BFS.
RADIUS_STATE_LIMIT = 20_000
PAIR_VISIT_LIMIT = 20_000_000
_FINDER_STATES = 32

# Greedy's finder gathers about this many states at a time and looks for
# meeting states in blocks of about this many: small temporaries.
_LEVEL_SLICE = 1 << 14

# The finder compares the columns of images of fewer states than this
# pairwise, over index pairs built once here (a np.triu_indices call costs
# about as much as comparing a small level); on larger images it sorts the
# states within rows (_least_meeting).  The cut is measured on levels with
# no meeting: the sort wins on every level of 256 rows or fewer; on larger
# ones pairwise wins up to 7 states, ties at 8 and loses from 9 on.  The
# pair search labels the pairs of a small image by the same index pairs.
_PAIRWISE_STATES = 9
_COLUMN_PAIRS = [np.triu_indices(m, 1) for m in range(_PAIRWISE_STATES)]

# On larger images a block of a level with at most this many meeting cells
# (equal neighbours within its rows sorted) is read for its least pair cell
# by cell, with Python scalars; more, as on a constant letter, by one key
# sort of the rows that meet.
_FEW_MEETINGS = 8

# The radius's bit matrices: the bit of each position in a byte, little
# bit order, and the (mask, shift) delta swaps that transpose the 8 x 8 bit
# block of a little-endian word, byte i bit j to byte j bit i (Warren,
# Hacker's Delight, 7-3).
_BIT = (1 << np.arange(8)).astype(np.uint8)
_BLOCK_SWAPS = tuple((np.uint64(mask), np.uint64(shift)) for mask, shift in
                     ((0x00AA00AA00AA00AA, 7), (0x0000CCCC0000CCCC, 14), (0x00000000F0F0F0F0, 28)))

# Power-set search guard, and the bits of a mask per image table: one
# table of 2^12 rows per letter and chunk, two chunks at the guard.
SUBSET_STATE_LIMIT = 24
_SUBSET_CHUNK = 12


def phase1_word_unary(n: int) -> Word:
    """One letter repeated ceil(2 sqrt(n ln n)) times."""
    n = _as_index(n, "state count")
    if n < 2:
        raise InvalidInputError("need at least two states")
    reps = math.ceil(2.0 * math.sqrt(n * math.log(n)))
    return Word._trusted((0,) * reps)


def phase1_word_interleaved(n: int) -> Word:
    """A block of ceil(sqrt(n)) a's, then ceil(sqrt(log2 n)) repetitions of
    a single b followed by another such a-block."""
    n = _as_index(n, "state count")
    if n < 2:
        raise InvalidInputError("need at least two states")
    block = math.isqrt(n)
    if block * block < n:
        block += 1
    rounds = math.ceil(math.sqrt(math.log2(n)))
    return Word._trusted((0,) * block + ((1,) + (0,) * block) * rounds)


def default_pair_search_limit(n: int) -> int:
    """Depth budget ceil(6 log2 n) + 8 for the forward pair search; generous
    slack over the typical 3 log2 n merge radius avoids false negatives."""
    n = _as_index(n, "state count")
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


def _reconstruct_word(steps, k: int, index: int) -> Word:
    """The word that reaches candidate `index` of the level after the last
    in steps.  A candidate index is position * k + letter: the parent's
    position in the level before and the letter from it; steps holds, per
    level, each node's candidate index."""
    pos, letter = divmod(index, k)
    letters_rev = [letter]
    for parent in reversed(steps):
        pos, letter = divmod(int(parent[pos]), k)
        letters_rev.append(letter)
    return Word._trusted(tuple(reversed(letters_rev)))


def _canonical_children(letter_maps, codes: np.ndarray, n: int):
    """Canonical codes of every pair's image, letter by letter, and whether
    that image is on the diagonal: entry c * codes.size + i is for the
    image of codes[i] under letter c."""
    u, v = np.divmod(codes, n)
    out = np.empty(len(letter_maps) * codes.size, dtype=np.int64)
    diagonal = np.empty(out.size, dtype=bool)
    for c, tc in enumerate(letter_maps):
        a = tc[u]
        b = tc[v]
        part = slice(c * codes.size, (c + 1) * codes.size)
        np.equal(a, b, out=diagonal[part])
        np.minimum(a, b, out=out[part])
        out[part] *= n
        out[part] += np.maximum(a, b)
    return out, diagonal


def _next_level(cand_codes: np.ndarray, labels: np.ndarray):
    """The distinct children of a level, sorted: cand_codes[c * width + i]
    is node i's child under letter c, and a child keeps its least
    (labels[i], c * width + i), so ties go by letter, then parent, whether
    or not the sort is stable.  Returns the codes, labels and indices
    c * width + i.  Labels stay below the source count and indices below k
    times the visit guard, so label << shift | index fits in int64."""
    order = np.argsort(cand_codes)
    cand_codes = cand_codes[order]
    starts = np.flatnonzero(_first_of_runs(cand_codes))
    shift = cand_codes.size.bit_length()
    keys = np.tile(labels, cand_codes.size // labels.size)[order]
    keys <<= shift
    keys |= order
    keys = np.minimum.reduceat(keys, starts)
    return cand_codes[starts], keys >> shift, keys & ((1 << shift) - 1)


def _merge_search(aut, cur, max_len=None):
    """Level-synchronous BFS over unordered pairs from many sources at once.

    The sources are every pair of cur, sorted distinct int64 states,
    labelled in np.triu_indices order, which is lexicographic; each BFS
    node carries the smallest source label that reaches it in the minimal
    number of steps, so a closest source is found deterministically (ties
    broken by source label, then letter, then frontier position).  Returns (label,
    word) or None when no source can merge within max_len letters (None =
    search to exhaustion).  Raises CapacityError before it builds the
    sources when cur has more than PAIR_VISIT_LIMIT pairs, and once the
    search has visited more than PAIR_VISIT_LIMIT pairs.

    The search stops at the first level with a child on the diagonal: the
    least label there wins, and its word ends in the least letter * width +
    position of the diagonal children of that label's nodes.
    """
    n, m = aut.n, cur.size
    npairs = m * (m - 1) // 2
    if npairs > PAIR_VISIT_LIMIT:
        raise CapacityError(
            f"{npairs} candidate pairs exceed the search budget of {PAIR_VISIT_LIMIT} pairs "
            "(PAIR_VISIT_LIMIT); no stuck pair is named, since only a search over those pairs could find one"
        )
    i, j = _COLUMN_PAIRS[m] if m < _PAIRWISE_STATES else np.triu_indices(m, 1)
    codes = cur[i] * n + cur[j]
    letter_maps = [aut.letter(c) for c in range(aut.k)]
    labels = np.arange(codes.size, dtype=np.int64)
    # Per level below the sources: each node's candidate index
    # position * k + letter into the level it came from.
    k = aut.k
    steps = []
    visited = codes
    while codes.size:
        if max_len is not None and len(steps) + 1 > max_len:
            return None
        width = codes.size
        cand_codes, diagonal = _canonical_children(letter_maps, codes, n)
        if diagonal.any():
            hit = np.flatnonzero(diagonal)
            hit_labels = labels[hit % width]
            label = hit_labels.min()
            letter, pos = divmod(int(hit[hit_labels == label][0]), width)
            return int(label), _reconstruct_word(steps, k, pos * k + letter)
        codes, labels, index = _next_level(cand_codes, labels)
        fresh = ~_in_sorted(visited, codes)
        codes = codes[fresh]
        if visited.size + codes.size > PAIR_VISIT_LIMIT:
            raise CapacityError(f"pair search visited more than {PAIR_VISIT_LIMIT} pairs")
        letter, pos = np.divmod(index[fresh], width)
        pos *= k
        pos += letter
        steps.append(pos)
        labels = labels[fresh]
        # codes is sorted and disjoint from visited: the stable sort merges
        # the two runs in linear time.
        visited = np.sort(np.concatenate([visited, codes]), kind="stable")
    return None


def _word_images(rows, level: np.ndarray) -> np.ndarray:
    """The rows of level under each letter c in turn, t_c(level), in one
    array of the level's dtype: one gather over every letter from the
    automaton's (k, n) successor rows, so row c * height + r is letter c
    applied to row r.  Levels of more than _LEVEL_SLICE states gather
    _LEVEL_SLICE states' rows at a time, since numpy copies the indices of
    a gather as int64, and its int64 result too before the cast."""
    height, m = level.shape
    out = np.empty((rows.shape[0], height, m), dtype=level.dtype)
    step = max(1, _LEVEL_SLICE // m)
    for r in range(0, height, step):
        rows.take(level[r:r + step], axis=1, out=out[:, r:r + step], mode="clip")
    return out.reshape(-1, m)


def _least_meeting(level: np.ndarray):
    """The least pair of columns a < b, as a * m + b, that hold one state
    in some row of `level`, an int array of shape (rows, m); None when the
    states of every row are distinct.  Reads the level in blocks of rows.

    Under _PAIRWISE_STATES columns every pair of columns is compared, about
    _LEVEL_SLICE compares a block, and the pairs come in np.triu_indices
    order, which is a * m + b order.  Otherwise a block of about
    _LEVEL_SLICE states is sorted within its rows, plain states, and a row
    whose sorted neighbours are all distinct holds no pair; a block with
    no such neighbours costs that sort and one compare.  Each equal pair of
    sorted neighbours, a meeting cell, names a state that its row holds
    twice or more, and the least pair of that state is the first two
    columns of the row that hold it.  A block of at most _FEW_MEETINGS
    cells, as most first meetings are, is read so, cell by cell, each
    cell's row as a Python list.  In a block of more cells only the rows
    that meet get the keys state << bits | column, sorted each row on its
    own: the columns that hold one state of a row come in a run, ascending,
    of row neighbours equal above their low bits.  The first two columns of
    a run are its least pair, so the least such neighbours are the
    block's."""
    height, m = level.shape
    if m < _PAIRWISE_STATES:
        i, j = _COLUMN_PAIRS[m]
        step = max(1, _LEVEL_SLICE // i.size)
        meets = np.zeros(i.size, dtype=bool)
        for r in range(0, height, step):
            meets |= (level[r:r + step, i] == level[r:r + step, j]).any(axis=0)
        p = int(meets.argmax())
        return int(i[p] * m + j[p]) if meets[p] else None
    step = max(1, _LEVEL_SLICE // m)
    bits = m.bit_length()
    low = (1 << bits) - 1
    least = m * m
    for r in range(0, height, step):
        block = level[r:r + step]
        states = block.copy()
        states.sort(axis=1)
        meets = states[:, 1:] == states[:, :-1]
        cells = np.count_nonzero(meets)
        if not cells:
            continue
        if cells <= _FEW_MEETINGS:
            for cell in meets.ravel().nonzero()[0].tolist():
                row, at = divmod(cell, m - 1)
                columns = block[row].tolist()
                a = columns.index(states.item(row, at))
                least = min(least, a * m + columns.index(columns[a], a + 1))
            continue
        keys = block[meets.any(axis=1)].astype(np.int64)
        keys <<= bits
        keys |= np.arange(m)
        keys.sort(axis=1)
        row, at = ((keys[:, 1:] ^ keys[:, :-1]) <= low).nonzero()
        pairs = keys[row, at] & low
        pairs *= m
        pairs += keys[row, at + 1] & low
        least = min(least, int(pairs.min()))
    return least if least < m * m else None


def _closest_source(rows, cur: np.ndarray):
    """The positions a < b in cur of the pair that greedy's multi-source
    search picks, the first in np.triu_indices order of the pairs that
    merge in the fewest letters D, and the levels 0 to D it found them in,
    as (a, b, levels); None when those levels would hold more than
    _FINDER_STATES * n states in all.

    rows is the automaton's (k, n) array of successor rows.  Level L is
    x(cur) for every word x of L letters, one row per word, column i
    holding the image of cur[i], as core._state_dtype(n) states; it is
    gathered from level L - 1 for every letter at once (_word_images), so
    row c * k^(L-1) + r is letter c applied to row r.  A word x merges cur[a] and cur[b] exactly
    when row x of level |x| holds one state in columns a and b.  So the
    first level L where some row holds a state twice is the fewest letters
    D of any pair, the pairs that meet there are exactly the pairs that
    need D, and the multi-source search, which stops at its first level
    with a child on the diagonal, stops at D too and picks the least of
    their source labels.  _least_meeting reads each level.

    Every level is kept, for the walk back to the word (_pair_word), so
    the cap counts the states of all levels, not of one; that also ends
    the search when the levels do not grow, as with one letter.
    """
    (k, n), m = rows.shape, cur.size
    levels = [cur.astype(_state_dtype(n)).reshape(1, m)]
    built = m
    while True:
        built += k * levels[-1].size
        if built > _FINDER_STATES * n:
            return None
        levels.append(_word_images(rows, levels[-1]))
        pair = _least_meeting(levels[-1])
        if pair is not None:
            a, b = divmod(pair, m)
            return a, b, levels


def _pair_word(levels, a: int, b: int) -> Word:
    """The word that _merge_search returns from the one source held in
    columns a and b of level 0, read off those two columns of the finder's
    levels 0 to D, where D is that pair's merge length.

    Column a of level j holds the images of the pair's first state under
    the k^j words of j letters, with no dedupe, and row c * height + r is
    letter c's image of row r of the level before.  The word is read from
    its end: the step into level j + 1 takes the least (letter, parent
    pair in (min, max) order) over the rows of level j + 1 that hold the
    pair reached so far, any row on the diagonal at level D.  That is the
    search's tie-break: its parent codes min * n + max sort the same way.
    A parent of a pair on a shortest merging path lies on one too, first
    reached at its own level, so the search's dedupe and its visited pairs
    keep every such parent; and its level positions are in code order.
    Those rows are few, mostly one, so the walk reads them as Python
    scalars; the rows that hold the step's pair come from one scan of
    column a, for its two states, every such row being needed for the
    tie-break of the step before.
    """
    last = levels[-1]
    rows = (last[:, a] == last[:, b]).nonzero()[0].tolist()
    letters_rev = []
    for level in reversed(levels[:-1]):
        height = level.shape[0]
        steps = []
        for row in rows:
            letter, parent = divmod(row, height)
            x, y = level.item(parent, a), level.item(parent, b)
            steps.append((letter, min(x, y), max(x, y)))
        letter, lo, hi = min(steps)
        letters_rev.append(letter)
        column = level[:, a]
        held = column == lo
        held |= column == hi
        rows = [r for r in held.nonzero()[0].tolist() if level.item(r, a) + level.item(r, b) == lo + hi]
    return Word._trusted(tuple(reversed(letters_rev)))


def _finder_word(rows, cur: np.ndarray):
    """The word of greedy's round from cur, read off the finder's levels,
    or None when the finder gives up.  The levels go when it returns,
    before the next round's finder builds its own."""
    found = _closest_source(rows, cur)
    return None if found is None else _pair_word(found[2], *found[:2])


def pair_shortest_merge(aut: Automaton, x: int, y: int, max_len=None) -> PairDistanceResult:
    """Length of a shortest word sending x and y to a common state, with a
    witness; math.inf when no merge exists within max_len letters (default
    budget default_pair_search_limit(n), math.inf searches to exhaustion)."""
    x, y = _as_index(x, "state"), _as_index(y, "state")
    n = aut.n
    if not (0 <= x < n and 0 <= y < n):
        raise InvalidInputError(f"states must lie in [0, {n})")
    if max_len is None:
        max_len = default_pair_search_limit(n)
    elif max_len == math.inf:
        max_len = None
    elif not max_len >= 1:  # also -inf and nan
        raise InvalidInputError("max_len must be positive")
    else:
        max_len = _as_index(max_len, "max_len")
    if x == y:
        return PairDistanceResult(0, Word())
    res = _merge_search(aut, np.array([min(x, y), max(x, y)]), max_len)
    if res is None:
        return PairDistanceResult(math.inf, None)
    _label, word = res
    return PairDistanceResult(len(word), word)


def _transpose_bits(bits, words, spare):
    """Transpose the N x N bit matrix `bits` in place, through two
    (N / 8, N / 8) little-endian uint64 arrays.  Word (I, J) takes the
    8 x 8 block of rows 8I to 8I + 7 and columns 8J to 8J + 7, byte i of
    it row 8I + i; three delta swaps transpose every block at once
    (Warren, Hacker's Delight, 7-3), and block (I, J) goes back as block
    (J, I).  Each step copies whole axes, none gathers."""
    B = bits.shape[1]
    blocks = bits.reshape(B, 8, B)
    words.view(np.uint8).reshape(B, B, 8)[...] = blocks.transpose(0, 2, 1)
    for mask, shift in _BLOCK_SWAPS:
        np.right_shift(words, shift, out=spare)
        spare ^= words
        spare &= mask
        words ^= spare
        spare <<= shift
        words ^= spare
    spare[...] = words.T
    blocks[...] = spare.view(np.uint8).reshape(B, B, 8).transpose(0, 2, 1)


def _radius_bytes(n: int) -> int:
    """Bound on all_pairs_merge_radius's peak memory, 3.5 n^2 bytes.  The
    BFS holds five N x N bit matrices of N^2 / 8 bytes each, N = n rounded
    up to a multiple of 64: the pairs seen, the next level, the row gather
    it transposes and two arrays of words, 5 N^2 / 8 in all, plus the
    O(k n) bytes of the letters.  So the peak is near 0.7 n^2, and the
    bound covers the five matrices, N rounded up, from n = 28 on; below
    that they take at most 2.5 KiB."""
    return 7 * n * n // 2


def all_pairs_merge_radius(aut: Automaton) -> int | float:
    """Maximum over pairs of the shortest merge length, or math.inf when
    some pair can never merge.

    Level BFS outward from the diagonal: an unseen pair joins level d + 1
    when some letter sends it onto level d.  An N x N bit matrix marks the
    pairs seen, both ways round: N is n rounded up to a multiple of 64,
    row x holds N / 8 bytes and pair (x, y) is bit y % 8 of byte y // 8,
    and the bits past n stay 0.  Each level is pulled: an unseen pair has
    no image below the last level, or it would be seen, so the next level
    is the pairs not seen that some letter sends onto a pair seen.  Per
    letter t, since seen is symmetric: X = the rows t(u) of seen, padded
    with zero rows to N, and Y = X transposed (_transpose_bits), so that
    Y[y, u] = seen[t(u), y]; then the rows t(v) of Y are seen[t(v), t(u)]
    for every u.  Two row gathers and a transpose per letter, with
    mode="clip" so that numpy gathers into the given rows directly, into a
    second bit matrix that holds the next level; it is marked seen only
    after the last letter, so that a pair of it never counts as seen
    within the level, and counted by the bit counts of its words.  The
    five matrices are made once per call, and a level costs a few dozen
    passes over k N^2 / 8 bytes whatever its size.
    """
    n = aut.n
    if n < 2:
        raise InvalidInputError("need at least two states")
    if n > RADIUS_STATE_LIMIT:
        raise CapacityError(
            f"all-pairs radius needs about {_radius_bytes(n)} bytes at {n} states; it is capped at "
            f"{RADIUS_STATE_LIMIT} states, about {_radius_bytes(RADIUS_STATE_LIMIT)} bytes"
        )
    maps = [aut.letter(c) for c in range(aut.k)]
    N = -(-n // 64) * 64
    seen = np.zeros((N, N // 8), dtype=np.uint8)
    diagonal = np.arange(n)
    seen[diagonal, diagonal >> 3] = _BIT[diagonal & 7]
    new = np.zeros_like(seen)  # rows n to N stay 0: each level overwrites rows 0 to n
    rows = np.zeros_like(seen)  # rows n to N stay 0: so do the columns n to N of its transpose
    words = np.empty((N // 8, N // 8), dtype="<u8")
    spare = np.empty_like(words)
    hit = words.view(np.uint8).reshape(seen.shape)
    counts = hit.reshape(-1)[:words.size]  # the bit count of each word of new
    gathered, level, got, new_words = rows[:n], new[:n], hit[:n], new.view("<u8").reshape(-1)
    unseen, radius = n * (n - 1) // 2, 0
    while unseen:
        for c, t in enumerate(maps):
            seen.take(t, axis=0, out=gathered, mode="clip")
            _transpose_bits(rows, words, spare)
            rows.take(t, axis=0, out=got if c else level, mode="clip")
            if c:
                level |= got
        np.bitwise_and(new, seen, out=hit)
        new ^= hit
        size = int(np.bitwise_count(new_words, out=counts).sum()) // 2
        if not size:
            return math.inf
        seen |= new
        unseen -= size
        radius += 1
    return radius


def _is_permutation(succ: np.ndarray) -> bool:
    """Whether succ hits each of its n states, by an n-entry bool mask."""
    hit = np.zeros(succ.size, dtype=bool)
    hit[succ] = True
    return bool(hit.all())


def _greedy_rounds(aut: Automaton, cur: np.ndarray):
    """Greedy's rounds from the image cur, its states sorted and distinct,
    until one state is left: per round (image size, word, whether the
    finder found the word rather than the fallback search).

    Each round merges the pair of the current image that the multi-source
    pair BFS, with every pair of the image as a source, picks: it names
    that search's word and applies it to the whole set, one gather per
    letter and one dedupe at the end.  A round finds the winning source
    and its merge length from the images of the image (_closest_source)
    and reads the word off the winning pair's two columns of those levels
    (_pair_word): every node on a shortest merging path of the winning
    source carries its label in the multi-source search, so the word is
    the same.  When the finder gives up at its cap on the states of its
    levels, as on a stuck image, the round runs the multi-source search
    from every pair of the image, which checks its own budget, for its
    word.
    Raises NotSynchronizableError naming a stuck pair when no pair of the
    surviving image can merge: under permutation letters, checked once
    before the first round, that needs no search.
    """
    rows = aut.table.T
    if cur.size > 1 and all(_is_permutation(t) for t in rows):
        # Under permutation letters no pair ever merges: that is the answer,
        # not a search, however large the image.
        raise NotSynchronizableError((int(cur[0]), int(cur[1])))
    while cur.size > 1:
        word = _finder_word(rows, cur)
        by_finder = word is not None
        if not by_finder:
            res = _merge_search(aut, cur)
            if res is None:
                raise NotSynchronizableError((int(cur[0]), int(cur[1])))
            word = res[1]
        yield cur.size, word, by_finder
        for c in word:
            cur = rows[c][cur]
        cur = _sorted_unique(cur)


def greedy_synchronize(aut: Automaton, A: StateSet) -> Word:
    """Collapse A to a single state by repeatedly merging a closest pair:
    the words of greedy's rounds (_greedy_rounds), joined."""
    _check_state_set(aut, A)
    if len(A) == 0:
        raise InvalidInputError("cannot synchronize an empty state set")
    out: list[int] = []
    for _size, word, _by_finder in _greedy_rounds(aut, A.members):
        out.extend(word)
    return Word._trusted(tuple(out))


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


def _subset_image_tables(aut: Automaton) -> np.ndarray:
    """tables[j, v, c] is the image mask under letter c of the
    _SUBSET_CHUNK-bit value v placed at bit _SUBSET_CHUNK * j, as int64,
    for chunks j < ceil(n / _SUBSET_CHUNK).
    Built by doubling: rows [2^b, 2^(b+1)) of chunk j are rows [0, 2^b)
    with the images of state _SUBSET_CHUNK * j + b set, up to state n; the
    rows of values with a bit at or past state n stay zero, never read."""
    n = aut.n
    images = np.int64(1) << aut.table  # images[s, c]: the bit of state s's image
    tables = np.zeros((-(-n // _SUBSET_CHUNK), 1 << min(n, _SUBSET_CHUNK), aut.k), dtype=np.int64)
    for s in range(n):
        j, b = divmod(s, _SUBSET_CHUNK)
        np.bitwise_or(tables[j, :1 << b], images[s], out=tables[j, 1 << b:2 << b])
    return tables


def exact_shortest_reset(aut: Automaton) -> Word | None:
    """A minimum-length reset word by BFS over subsets of the state set,
    or None when no word collapses the automaton.  Guarded at 24 states.

    Level-synchronous: each level is an array of subset masks in discovery
    order, i.e. ordered by (parent position, letter).  A mask reached
    several times keeps its first discovery, and the answer is the first
    singleton discovered at the shallowest level, so the word is the one a
    queue-driven BFS trying letters in order returns: the least in
    lexicographic order of the shortest reset words.

    A level's images are one table gather per 12-bit chunk of its masks
    for every letter at once, candidate position * k + letter in discovery
    order.  The seen map holds 0 for an unseen mask, 1 for a seen one and 2
    for the n singletons, so one gather of it tells both whether a
    candidate ends the search and whether it is new.
    """
    n = aut.n
    if n > SUBSET_STATE_LIMIT:
        raise CapacityError(
            f"power-set search is capped at {SUBSET_STATE_LIMIT} states, got {n}"
        )
    if n == 1:
        return Word()
    k = aut.k
    tables = _subset_image_tables(aut)
    low = (1 << _SUBSET_CHUNK) - 1
    seen = np.zeros(1 << n, dtype=np.uint8)
    seen[np.int64(1) << np.arange(n)] = 2
    level = np.array([(1 << n) - 1], dtype=np.int64)
    seen[level] = 1
    # Per level below the full set: each mask's candidate index
    # position * k + letter into the level before.
    parents = []
    while level.size:
        if n > _SUBSET_CHUNK:
            cand = tables[0].take(level & low, axis=0)
            cand |= tables[1].take(level >> _SUBSET_CHUNK, axis=0)
        else:
            cand = tables[0].take(level, axis=0)
        cand = cand.reshape(-1)
        flag = seen.take(cand)
        if flag.max() == 2:
            return _reconstruct_word(parents, k, int(np.argmax(flag == 2)))
        # Keep each mask's first discovery: sorting the keys
        # mask << bits | index puts it first among its equals, and marking
        # the kept indices restores discovery order.  Masks have n <= 24
        # bits, so the keys fit in int64.
        fresh = np.flatnonzero(flag == 0)
        bits = cand.size.bit_length()
        keys = cand[fresh]
        keys <<= bits
        keys |= fresh
        keys.sort()
        first = keys[_first_of_runs(keys >> bits)]
        first &= (1 << bits) - 1
        kept = np.zeros(cand.size, dtype=bool)
        kept[first] = True
        keep = np.flatnonzero(kept)
        parents.append(keep)
        level = cand[keep]
        seen[level] = 1
    return None
