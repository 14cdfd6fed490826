import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    constant_automaton,
    permutation_automaton,
    reference_exact_reset,
    reference_greedy,
    reference_greedy_rounds,
    reference_merge_search,
    reference_radius,
    sparse_frontier,
)
from synchrolab import (
    Automaton,
    CapacityError,
    InvalidInputError,
    NotSynchronizableError,
    Seed,
    StateSet,
    Word,
    all_pairs_merge_radius,
    apply_word,
    cerny_automaton,
    exact_shortest_reset,
    greedy_synchronize,
    image,
    is_reset_word,
    pair_shortest_merge,
    phase1_word_interleaved,
    phase1_word_unary,
    sample_uniform_automaton,
    two_phase_synchronize,
)
from synchrolab.core import _image_members, _runs
from synchrolab.sync import _reconstruct_word, _subset_image_tables, default_pair_search_limit


# ---------------------------------------------------------------------
# phase-1 words
# ---------------------------------------------------------------------
def test_phase1_unary_lengths():
    assert phase1_word_unary(2) == Word.from_text("aaa")
    assert len(phase1_word_unary(100)) == 43
    for n in (2, 3, 10, 1000):
        w = phase1_word_unary(n)
        assert len(w) >= 2 and set(w.letters) == {0}


def test_phase1_unary_rejects_small_n():
    with pytest.raises(InvalidInputError):
        phase1_word_unary(1)
    # non-integral state counts are rejected, not truncated
    for build in (phase1_word_unary, phase1_word_interleaved, default_pair_search_limit):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            build(5.5)


def test_default_pair_search_limit():
    assert default_pair_search_limit(1) == 8
    assert default_pair_search_limit(1024) == 68
    with pytest.raises(InvalidInputError, match="need at least one state"):
        default_pair_search_limit(0)


def test_phase1_interleaved_examples():
    assert phase1_word_interleaved(16) == Word.from_text("aaaa" + "baaaa" + "baaaa")
    assert phase1_word_interleaved(2) == Word.from_text("aabaa")


def test_phase1_interleaved_shape():
    for n in (2, 3, 16, 17, 100, 1024, 99_991):
        w = phase1_word_interleaved(n)
        block = math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
        rounds = math.ceil(math.sqrt(math.log2(n)))
        assert len(w) == block + rounds * (block + 1)
        assert sum(1 for c in w if c == 1) == rounds
    with pytest.raises(InvalidInputError):
        phase1_word_interleaved(0)


# ---------------------------------------------------------------------
# pair merge search
# ---------------------------------------------------------------------
def test_pair_merge_same_state():
    res = pair_shortest_merge(constant_automaton(4), 2, 2)
    assert res.distance == 0 and res.witness == Word()


def test_pair_merge_constant_letter():
    res = pair_shortest_merge(constant_automaton(4), 0, 3)
    assert res.distance == 1 and res.witness == Word.from_text("a")


def test_pair_merge_permutations_never_merge():
    res = pair_shortest_merge(permutation_automaton(6), 0, 3, max_len=math.inf)
    assert res.distance == math.inf and res.witness is None


def test_pair_merge_respects_max_len():
    aut = cerny_automaton(6)
    unbounded = pair_shortest_merge(aut, 1, 2, max_len=math.inf)
    assert unbounded.distance > 1
    assert pair_shortest_merge(aut, 1, 2, max_len=1).distance == math.inf


@pytest.mark.parametrize("unbounded", [float("inf"), np.inf])
def test_pair_merge_any_infinity_searches_to_exhaustion(unbounded):
    # a walks 0 -> 1 -> ... -> 63 -> 63, b is the identity: 0 and 1 merge
    # after 63 letters, past the default budget of 44
    table = np.tile(np.arange(64, dtype=np.int64).reshape(-1, 1), (1, 2))
    table[:, 0] = np.minimum(np.arange(64) + 1, 63)
    aut = Automaton(table)
    assert pair_shortest_merge(aut, 0, 1).distance == math.inf
    res = pair_shortest_merge(aut, 0, 1, max_len=unbounded)
    assert res.distance == 63 and res.witness == Word([0] * 63)
    assert res == pair_shortest_merge(aut, 0, 1, max_len=math.inf)
    res = pair_shortest_merge(permutation_automaton(6), 0, 3, max_len=unbounded)
    assert res.distance == math.inf and res.witness is None


def test_pair_merge_rejects_bad_states():
    with pytest.raises(InvalidInputError):
        pair_shortest_merge(constant_automaton(3), 0, 3)
    for bad in (0, -math.inf, float("nan")):
        with pytest.raises(InvalidInputError, match="max_len must be positive"):
            pair_shortest_merge(constant_automaton(3), 1, 1, max_len=bad)
    # non-integral states and budgets are rejected, not truncated
    for x, y, max_len in ((0.5, 1, None), (0, True, None), (0, 1, 2.5)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            pair_shortest_merge(constant_automaton(3), x, y, max_len=max_len)


def merge_distance_by_enumeration(aut, x, y, limit):
    """Smallest word length merging x and y, by trying every word."""
    for length in range(limit + 1):
        for letters in itertools.product(range(aut.k), repeat=length):
            w = Word(letters)
            if apply_word(aut, w, x) == apply_word(aut, w, y):
                return length
    return math.inf


def test_pair_merge_minimal_versus_enumeration(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        aut = sample_uniform_automaton(n, 2, rng)
        x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
        res = pair_shortest_merge(aut, x, y, max_len=math.inf)
        if res.distance is not math.inf and res.distance <= 6:
            assert res.distance == merge_distance_by_enumeration(aut, x, y, 6)
        if res.witness is not None:
            assert apply_word(aut, res.witness, x) == apply_word(aut, res.witness, y)
            assert len(res.witness) == res.distance


def test_merge_search_selects_minimal_distance_source(rng):
    # the multi-source search must return the lexicographically first pair
    # among those with minimal merge distance, with a witness of that length
    from synchrolab.sync import _merge_search

    for _ in range(25):
        n = int(rng.integers(3, 30))
        aut = sample_uniform_automaton(n, 2, rng)
        members = np.unique(rng.integers(0, n, size=int(rng.integers(2, 8))))
        if members.size < 2:
            continue
        i, j = np.triu_indices(members.size, k=1)
        res = _merge_search(aut, members)
        dists = [
            pair_shortest_merge(aut, int(x), int(y), max_len=math.inf).distance
            for x, y in zip(members[i], members[j])
        ]
        if res is None:
            assert all(d == math.inf for d in dists)
            continue
        label, word = res
        best = min(dists)
        assert len(word) == best
        assert label == dists.index(best)
        x, y = int(members[i][label]), int(members[j][label])
        assert apply_word(aut, word, x) == apply_word(aut, word, y)


def two_component_automaton(rng, n1, n2, k):
    """Two random automata side by side: a pair with one state in each part
    never merges."""
    left = sample_uniform_automaton(n1, k, rng).table
    right = sample_uniform_automaton(n2, k, rng).table + n1
    return Automaton(np.vstack([left, right]))


def tie_heavy_automaton(rng, n):
    """Three letters: a random map, a map into a third of the states, and a
    copy of the first letter, so equal-length merges are common."""
    a = rng.integers(0, n, n)
    b = rng.integers(0, max(1, n // 3), n)
    return Automaton(np.stack([a, b, a], axis=1))


def test_merge_search_word_matches_reference(rng):
    # the exact (label, word), not just its length, for every tie-break:
    # depth, then source label, then letter, then frontier position
    from synchrolab.sync import _merge_search

    for trial in range(120):
        k = 2 + trial % 2
        if trial % 3 == 0:
            aut = two_component_automaton(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), k)
        elif trial % 4 == 1:
            aut = tie_heavy_automaton(rng, int(rng.integers(3, 40)))
        else:
            aut = sample_uniform_automaton(int(rng.integers(3, 40)), k, rng)
        cur = np.sort(rng.choice(aut.n, size=int(rng.integers(2, min(aut.n, 6) + 1)), replace=False))
        sources = list(itertools.combinations(cur.tolist(), 2))
        for max_len in (None, 1, 2, 3, 5):
            expected = reference_merge_search(aut, sources, max_len)
            res = _merge_search(aut, cur, max_len=max_len)
            if expected is None:
                assert res is None
            else:
                assert res == (expected[0], Word(expected[1]))


def test_merge_search_source_budget_comes_before_the_sources(monkeypatch):
    # 16 states are 120 source pairs: past a budget of 119, the search
    # refuses before it builds any source, with greedy's message
    from synchrolab import sync

    monkeypatch.setattr(sync, "PAIR_VISIT_LIMIT", 119)
    monkeypatch.setattr(sync.np, "triu_indices", None)  # building the sources would fail
    with pytest.raises(CapacityError) as exc:
        sync._merge_search(cerny_automaton(20), np.arange(16))
    assert str(exc.value) == (
        "120 candidate pairs exceed the search budget of 119 pairs (PAIR_VISIT_LIMIT); "
        "no stuck pair is named, since only a search over those pairs could find one"
    )


def test_merge_search_visit_guard_boundary(monkeypatch):
    # from (0, 3) the cyclic shift visits (1, 4) and (2, 5): three pairs in all
    from synchrolab import sync

    aut = permutation_automaton(6)
    cur = np.array([0, 3])
    monkeypatch.setattr(sync, "PAIR_VISIT_LIMIT", 3)
    assert sync._merge_search(aut, cur) is None
    monkeypatch.setattr(sync, "PAIR_VISIT_LIMIT", 2)
    with pytest.raises(CapacityError, match="pair search visited more than 2 pairs"):
        sync._merge_search(aut, cur)


def test_greedy_word_matches_reference(rng):
    for trial in range(20):
        aut = sample_uniform_automaton(int(rng.integers(2, 30)), 2 + trial % 2, rng)
        expected = reference_greedy(aut, range(aut.n))
        if expected is None:
            with pytest.raises(NotSynchronizableError):
                greedy_synchronize(aut, StateSet.full(aut.n))
        else:
            assert greedy_synchronize(aut, StateSet.full(aut.n)) == expected


def test_greedy_word_from_subsets_matches_reference(rng):
    # two_phase_synchronize starts greedy from the phase-1 image, not from
    # the full set; random subsets cover images of any shape
    for trial in range(30):
        n = int(rng.integers(2, 30))
        aut = sample_uniform_automaton(n, 2 + trial % 2, rng)
        starts = [StateSet(n, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))]
        if aut.k == 2:
            starts.append(image(aut, phase1_word_interleaved(n), StateSet.full(n)))
        for A in starts:
            expected = reference_greedy(aut, A.members.tolist())
            if expected is None:
                with pytest.raises(NotSynchronizableError):
                    greedy_synchronize(aut, A)
            else:
                assert greedy_synchronize(aut, A) == expected


def test_greedy_rounds_match_the_reference_rounds(rng):
    # round by round: the image size, the word, and whether the finder
    # found it, which it does exactly when its levels 0 to D of an image of
    # m states, m (1 + k + ... + k^D) states in all, fit its cap; a stuck
    # image ends the rounds with NotSynchronizableError
    from synchrolab import sync

    auts = []
    for trial in range(60):
        n = int(rng.integers(3, 60))
        if trial % 4 == 0:
            auts.append(tie_heavy_automaton(rng, n))
        elif trial % 4 == 1:
            auts.append(cycle_with_trees(rng, 1 + trial % 3, n + 1))
        else:
            auts.append(sample_uniform_automaton(n, 2 + trial % 2, rng))
    auts += [two_component_automaton(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), 2) for _ in range(20)]
    auts += [cerny_automaton(n) for n in range(4, 13)]
    kinds = []
    for aut in auts:
        n = aut.n
        A = StateSet(n, rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        expected = list(reference_greedy_rounds(aut, A.members.tolist()))
        stuck = expected[-1][1] is None
        rounds = []
        if stuck:
            with pytest.raises(NotSynchronizableError):
                rounds += sync._greedy_rounds(aut, A.members)
        else:
            rounds += sync._greedy_rounds(aut, A.members)
        assert len(rounds) == len(expected) - stuck
        for (size, word, by_finder), (m, letters) in zip(rounds, expected):
            assert (size, word) == (m, Word(letters))
            levels = m * sum(aut.k ** j for j in range(len(letters) + 1))
            assert by_finder == (levels <= sync._FINDER_STATES * n)
            kinds.append((aut.k, by_finder))
    assert {k for k, by_finder in kinds} == {1, 2, 3}
    assert {by_finder for k, by_finder in kinds} == {True, False}


def test_greedy_permutation_on_a_subset_reports_its_first_pair(monkeypatch):
    # no letter merges any pair: greedy names the first pair of its image
    # with neither the finder nor the search
    found = spy_on(monkeypatch, "_closest_source")
    searches = spy_on(monkeypatch, "_merge_search")
    with pytest.raises(NotSynchronizableError) as exc:
        greedy_synchronize(permutation_automaton(12, 3), StateSet(12, [3, 5, 9]))
    assert exc.value.pair == (3, 5)
    assert not found and not searches


def test_greedy_reads_every_round_off_the_finders_pair(monkeypatch):
    # every round's finder call names a pair, and the round's word is then
    # one _pair_word call on its levels; no round runs the pair search; the
    # word must not change
    from synchrolab import sync

    events = []

    def record(name):
        fn = getattr(sync, name)

        def spy(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(sync, name, spy)

    for name in ("_closest_source", "_pair_word", "_merge_search"):
        record(name)
    for i in range(3):
        aut = sample_uniform_automaton(4000, 2, Seed(7).stream(i))
        A = image(aut, phase1_word_interleaved(4000), StateSet.full(4000))
        events.clear()
        assert greedy_synchronize(aut, A) == reference_greedy(aut, A.members.tolist())
        assert len(events) > 2
        assert events == ["_closest_source", "_pair_word"] * (len(events) // 2)


def test_greedy_with_a_constant_letter_finds_every_round_and_keeps_the_reference_word(rng):
    # a constant letter merges every pair in one letter: the finder names
    # the round's pair at its first level, and no search runs
    from synchrolab import sync

    rounds = []
    for n in (30, 40, 50):
        aut = Automaton(np.stack([np.full(n, n // 2), rng.integers(0, n, n)], axis=1))
        for A in (StateSet.full(n), StateSet(n, rng.choice(n, size=n // 2, replace=False))):
            assert greedy_synchronize(aut, A) == reference_greedy(aut, A.members.tolist())
            rounds += sync._greedy_rounds(aut, A.members)
    assert [len(word) for size, word, by_finder in rounds] == [1] * 6
    assert all(by_finder for size, word, by_finder in rounds)


# ---------------------------------------------------------------------
# greedy's closest-pair finder over the images of the image
# ---------------------------------------------------------------------
def spy_on(monkeypatch, name):
    """Replace sync.<name> by a wrapper that records each call's result."""
    from synchrolab import sync

    fn, seen = getattr(sync, name), []

    def spy(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sync, name, spy)
    return seen


def permutation_beside_random(rng, p, n):
    """States 0..p-1 under a cyclic shift and the identity, which never
    merge, beside a random automaton on the other n - p states."""
    left = np.stack([(np.arange(p) + 1) % p, np.arange(p)], axis=1)
    return Automaton(np.vstack([left, sample_uniform_automaton(n - p, 2, rng).table + p]))


def cycle_with_trees(rng, p, n):
    """One letter: states 0..p-1 on a cycle, which never merge, and every
    other state sent to a state of lower index, so trees feed the cycle."""
    trees = rng.integers(0, np.arange(p, n))
    return Automaton(np.concatenate([(np.arange(p) + 1) % p, trees])[:, None])


def test_greedy_with_the_finder_matches_reference(rng, monkeypatch):
    # the finder on every image of two or more states: random subsets and
    # phase-1 images as starts
    found = spy_on(monkeypatch, "_closest_source")
    outcomes = []
    for trial in range(200):
        k = 2 + trial % 2
        if trial % 3 == 0:
            aut = tie_heavy_automaton(rng, int(rng.integers(3, 41)))
        elif trial % 3 == 1:
            aut = two_component_automaton(rng, int(rng.integers(2, 20)), int(rng.integers(2, 20)), k)
        else:
            aut = sample_uniform_automaton(int(rng.integers(2, 41)), k, rng)
        n = aut.n
        starts = [StateSet(n, rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)),
                  image(aut, phase1_word_interleaved(n), StateSet.full(n))]
        for A in starts:
            expected = reference_greedy(aut, A.members.tolist())
            outcomes.append(expected is None)
            if expected is None:
                with pytest.raises(NotSynchronizableError):
                    greedy_synchronize(aut, A)
            else:
                assert greedy_synchronize(aut, A) == expected
    assert 50 < sum(outcomes) < 350
    assert sum(pair is not None for pair in found) > 1000


def test_greedy_with_the_finder_matches_reference_on_one_letter(rng, monkeypatch):
    # one letter: the finder's levels hold |I| states each; trees into a
    # cycle of one state synchronize, into a cycle of two or three do not
    found = spy_on(monkeypatch, "_closest_source")
    outcomes = []
    for trial in range(60):
        n = int(rng.integers(4, 41))
        aut = cycle_with_trees(rng, 1 + trial % 3, n)
        A = StateSet(n, rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        expected = reference_greedy(aut, A.members.tolist())
        outcomes.append(expected is None)
        if expected is None:
            with pytest.raises(NotSynchronizableError):
                greedy_synchronize(aut, A)
        else:
            assert greedy_synchronize(aut, A) == expected
    assert 10 < sum(outcomes) < 50
    assert sum(pair is not None for pair in found) > 100


@pytest.mark.parametrize("slice_size", [None, 5])
def test_closest_source_is_the_multi_source_winner(rng, monkeypatch, slice_size):
    # the finder's pair is the label of the multi-source search, and its
    # length that search's, also when rows are read a few states at a time;
    # the pair's two columns of its levels give the word
    from synchrolab import sync

    if slice_size is not None:
        monkeypatch.setattr(sync, "_LEVEL_SLICE", slice_size)
    for trial in range(12):
        n = int(rng.integers(200, 2000))
        aut = tie_heavy_automaton(rng, n) if trial % 3 == 0 else sample_uniform_automaton(n, 2 + trial % 2, rng)
        rows = aut.table.T
        for _ in range(4):
            cur = np.sort(rng.choice(n, size=int(rng.integers(2, 120)), replace=False))
            a, b, levels = sync._closest_source(rows, cur)
            i, j = np.triu_indices(cur.size, k=1)
            label, word = sync._merge_search(aut, cur)
            assert (a, b, len(levels) - 1) == (i[label], j[label], len(word))
            assert sync._pair_word(levels, a, b) == word


def least_meeting_by_pairs(level):
    """The least a * m + b over every pair of columns a < b of every row
    of level that hold one state, or None."""
    m = level.shape[1]
    meets = [a * m + b for row in level.tolist() for a, b in itertools.combinations(range(m), 2) if row[a] == row[b]]
    return min(meets, default=None)


def test_least_meeting_is_the_first_pair_that_meets_in_a_row(rng, monkeypatch):
    # against every pair of every row, in np.triu_indices order, on both
    # sides of the cut between the pairwise test and the key sort, also
    # when rows are read a few states at a time; then levels of three
    # blocks and a row, their rows of distinct states but for planted
    # meetings: none, one pair in the last row of the last block, or rows
    # with one or several meeting pairs in any block
    from synchrolab import sync

    for slice_size in (sync._LEVEL_SLICE, 5):
        monkeypatch.setattr(sync, "_LEVEL_SLICE", slice_size)
        found = 0
        for _ in range(300):
            n = int(rng.integers(2, 2000))
            m = int(rng.integers(2, 40))
            block = rng.integers(0, n, size=(int(rng.integers(1, 40)), m)).astype(np.int32)
            meets = least_meeting_by_pairs(block)
            assert sync._least_meeting(block) == meets
            found += meets is not None
        assert 50 < found < 250
        for m in (2, 8, 9, 10, 15, 16, 17, 64):
            cells = m * (m - 1) // 2 if m < sync._PAIRWISE_STATES else m
            height = 3 * max(1, slice_size // cells) + 1
            for trial in range(12):
                level = rng.random((height, 4 * m)).argsort(axis=1)[:, :m].astype(np.int32)
                assert sync._least_meeting(level) is None
                if trial % 3 == 0:
                    rows = [height - 1]
                else:
                    rows = rng.choice(height, size=int(rng.integers(1, min(height, 5) + 1)), replace=False)
                for r in rows:
                    for _ in range(1 if trial % 3 == 0 else int(rng.integers(1, 4))):
                        a, b = rng.choice(m, size=2, replace=False)
                        level[r, b] = level[r, a]
                assert sync._least_meeting(level) == least_meeting_by_pairs(level[np.sort(rows)])


def distinct_rows(rng, height, m):
    """A level of `height` rows of m distinct states each."""
    return rng.random((height, 4 * m)).argsort(axis=1)[:, :m].astype(np.int32)


def meeting_cells(level):
    """The number of equal neighbours in the rows of level, each sorted."""
    states = np.sort(level, axis=1)
    return int(np.count_nonzero(states[:, 1:] == states[:, :-1]))


def test_least_meeting_reads_one_few_or_many_meeting_cells(rng, monkeypatch):
    # on images past the pairwise cut: levels whose rows are distinct but
    # for exactly 1, a few, the bound of cells read one by one, one more
    # and many meeting cells, planted in one row or spread over rows and
    # blocks; each cell is one state copied to a column of its row that no
    # other cell of that row touches
    from synchrolab import sync

    bound = sync._FEW_MEETINGS
    for slice_size in (sync._LEVEL_SLICE, 5):
        monkeypatch.setattr(sync, "_LEVEL_SLICE", slice_size)
        for m in (sync._PAIRWISE_STATES, 12, 16, 40):
            for cells in (1, 2, 3, bound, bound + 1, 3 * bound):
                for trial in range(6):
                    height = int(rng.integers(1, 3 * max(1, slice_size // m) + 2))
                    level = distinct_rows(rng, height, m)
                    if trial % 2:  # one row, as many cells as it has room for
                        rows = [int(rng.integers(height))] * min(cells, m // 2)
                    else:
                        rows = rng.integers(height, size=cells).tolist()
                    free = {r: rng.permutation(m).tolist() for r in set(rows)}
                    planted = 0
                    for r in rows:
                        if len(free[r]) >= 2:
                            a, b = free[r].pop(), free[r].pop()
                            level[r, b] = level[r, a]
                            planted += 1
                    assert meeting_cells(level) == planted
                    assert sync._least_meeting(level) == least_meeting_by_pairs(level)


def test_least_meeting_on_constant_and_tied_letters(rng):
    # the finder's own levels where meetings crowd a row: a constant letter
    # meets every pair of its rows, and tied letters several, so blocks hold
    # more cells than are read one by one; against every pair of every row
    from synchrolab import sync

    crowded = 0
    for trial in range(24):
        n = int(rng.integers(20, 400))
        if trial % 2:
            aut = tie_heavy_automaton(rng, n)
        else:
            aut = Automaton(np.stack([rng.integers(0, n, n), np.full(n, n // 2)], axis=1))
        rows = aut.table.T
        m = int(rng.integers(2, min(n, 48)))
        level = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int32).reshape(1, m)
        for _ in range(3):
            level = sync._word_images(rows, level)
            assert sync._least_meeting(level) == least_meeting_by_pairs(level)
            crowded += m >= sync._PAIRWISE_STATES and meeting_cells(level) > sync._FEW_MEETINGS
    assert crowded > 10


@pytest.mark.parametrize("slice_size", [None, 5])
def test_word_images_is_each_letters_gather_of_its_level(rng, monkeypatch, slice_size):
    # one gather over every letter: row c * height + r of the result is
    # letter c applied to row r, in the level's dtype, whether the level is
    # gathered at once or a few states' rows at a time
    from synchrolab import sync

    if slice_size is not None:
        monkeypatch.setattr(sync, "_LEVEL_SLICE", slice_size)
    for trial in range(24):
        n = int(rng.integers(2, 3000))
        k = 1 + trial % 3
        aut = sample_uniform_automaton(n, k, rng)
        height, m = int(rng.integers(1, 1500)), int(rng.integers(1, 30))
        for dtype in (np.int32, np.int64):
            level = rng.integers(0, n, size=(height, m)).astype(dtype)
            out = sync._word_images(aut.table.T, level)
            assert out.dtype == dtype and out.shape == (k * height, m)
            for c in range(k):
                assert np.array_equal(out[c * height:(c + 1) * height], aut.letter(c)[level])


def test_closest_source_holds_its_levels_in_the_state_dtype(rng, monkeypatch):
    # the finder's levels take core._state_dtype(n): int32 here, and int64,
    # as past 2^31 states, when that is patched in; the pair, the merge
    # length and the word stay the same
    from synchrolab import sync

    found = []
    for trial in range(24):
        n = int(rng.integers(20, 2000))
        aut = tie_heavy_automaton(rng, n) if trial % 3 == 0 else sample_uniform_automaton(n, 1 + trial % 3, rng)
        cur = np.sort(rng.choice(n, size=int(rng.integers(2, 40)), replace=False))
        pair = sync._closest_source(aut.table.T, cur)
        if pair is not None:
            found.append((aut, cur, pair))
    assert len(found) > 15
    monkeypatch.setattr(sync, "_state_dtype", lambda n: np.int64)
    for aut, cur, (a, b, levels) in found:
        wide = sync._closest_source(aut.table.T, cur)
        assert {level.dtype for level in levels} == {np.dtype(np.int32)}
        assert {level.dtype for level in wide[2]} == {np.dtype(np.int64)}
        assert wide[:2] == (a, b) and len(wide[2]) == len(levels)
        assert sync._pair_word(wide[2], a, b) == sync._pair_word(levels, a, b)


def test_greedy_finder_falls_back_on_a_stuck_image_within_its_cap(rng, monkeypatch):
    # the finder's words double with each level, or with one letter stay as
    # many; on a stuck image it stops before its levels pass its cap, and
    # the multi-source search names the stuck pair that it names when every
    # round runs it
    from synchrolab import sync

    auts = [two_component_automaton(rng, int(rng.integers(2, 13)), int(rng.integers(2, 13)), 2) for _ in range(30)]
    # stuck images of 21 and 31 states
    auts += [permutation_beside_random(rng, 20, 40), permutation_beside_random(rng, 30, 60)]
    # one letter: the trees merge round by round, then a cycle of 20 or 24
    auts += [cycle_with_trees(rng, 20, 150), cycle_with_trees(rng, 24, 400)]

    def stuck_pairs():
        pairs = []
        for aut in auts:
            with pytest.raises(NotSynchronizableError) as exc:
                greedy_synchronize(aut, StateSet.full(aut.n))
            pairs.append(exc.value.pair)
        return pairs

    finder, build, calls = sync._closest_source, sync._word_images, []
    monkeypatch.setattr(sync, "_closest_source", lambda *args: None)
    expected = stuck_pairs()

    def closest_source(rows, cur):
        calls.append((rows.shape[1], rows.shape[0], [cur.size]))
        pair = finder(rows, cur)
        calls[-1] += (pair,)
        return pair

    def word_images(rows, level):
        out = build(rows, level)
        calls[-1][2].append(out.size)
        return out

    monkeypatch.setattr(sync, "_closest_source", closest_source)
    monkeypatch.setattr(sync, "_word_images", word_images)
    assert stuck_pairs() == expected
    gave_up = [(n, k, sizes) for n, k, sizes, pair in calls if pair is None]
    assert len(gave_up) >= len(auts)
    assert {k for n, k, sizes in gave_up} == {1, 2}
    # within the cap in all, and stopped only by it
    assert all(sum(sizes) <= sync._FINDER_STATES * n for n, k, sizes, pair in calls)
    assert all(sum(sizes) + k * sizes[-1] > sync._FINDER_STATES * n for n, k, sizes in gave_up)


def test_closest_source_memory_at_its_cap(rng):
    # a stuck image of 20 states: the finder builds and keeps levels up to
    # its cap of 32n states in all and stays within the 128n bytes of 32n
    # int32 states
    from synchrolab import sync

    n = 200_000
    aut = permutation_beside_random(rng, 19, n)
    rows = aut.table.T
    cur = np.arange(20, dtype=np.int64)
    tracemalloc.start()
    try:
        assert sync._closest_source(rows, cur) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sync._FINDER_STATES * n * 4


def pair_levels(rows, x, y, length):
    """Levels 0 to length of the pair (x, y) alone, as the finder builds
    them for an image of two states, without its cap."""
    from synchrolab import sync

    levels = [np.array([[x, y]], dtype=np.int32)]
    for _ in range(length):
        levels.append(sync._word_images(rows, levels[-1]))
    return levels


@pytest.mark.parametrize("slice_size", [None, 5])
def test_pair_word_is_the_search_word_of_its_pair(rng, monkeypatch, slice_size):
    # the word read off a pair's own images, given its merge length, is the
    # search's word from that pair alone, for one to three letters, tied
    # letters, and gathers a few rows at a time
    from synchrolab import sync

    if slice_size is not None:
        monkeypatch.setattr(sync, "_LEVEL_SLICE", slice_size)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(3, 40))
        aut = tie_heavy_automaton(rng, n) if trial % 4 == 3 else sample_uniform_automaton(n, 1 + trial % 4, rng)
        rows = aut.table.T
        pairs = list(itertools.combinations(range(n), 2))
        for x, y in pairs[::len(pairs) // 36 + 1]:
            res = sync._merge_search(aut, np.array([x, y]))
            if res is not None:
                assert sync._pair_word(pair_levels(rows, x, y, len(res[1])), 0, 1) == res[1]
                checked += 1
    assert checked > 600


def test_pair_word_walks_back_through_levels_where_several_rows_hold_its_pair(rng):
    # tied letters: the pair the word reaches after j letters sits in
    # several rows of level j, and the walk must take the least step over
    # all of them to give the search's word
    from synchrolab import sync

    several = 0
    for trial in range(30):
        n = int(rng.integers(3, 30))
        aut = tie_heavy_automaton(rng, n)
        rows = aut.table.T
        pairs = list(itertools.combinations(range(n), 2))
        for x, y in pairs[::len(pairs) // 12 + 1]:
            res = sync._merge_search(aut, np.array([x, y]))
            if res is None:
                continue
            word = res[1]
            levels = pair_levels(rows, x, y, len(word))
            assert sync._pair_word(levels, 0, 1) == word
            pair = {x, y}
            for j, level in enumerate(levels[:-1]):
                several += sum(set(row) == pair for row in level.tolist()) > 1
                pair = {int(rows[word[j]][s]) for s in pair}
    assert several > 50


def test_pair_word_memory_on_a_deep_pair(rng):
    # the deepest of some random pairs at n = 200000, whose levels hold
    # about 2n states or more: the finder's levels and the walk back over
    # them stay within the finder's cap, the 128n bytes of 32n int32 states
    from synchrolab import sync

    n = 200_000
    aut = sample_uniform_automaton(n, 2, rng)
    rows = aut.table.T
    pairs = [np.sort(rng.choice(n, size=2, replace=False)) for _ in range(10)]
    length, x, y = max((len(sync._closest_source(rows, p)[2]) - 1, int(p[0]), int(p[1])) for p in pairs)
    assert 2 ** (length + 1) > n
    tracemalloc.start()
    try:
        a, b, levels = sync._closest_source(rows, np.array([x, y]))
        word = sync._pair_word(levels, a, b)
        del levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (0, word) == sync._merge_search(aut, np.array([x, y]))
    assert peak < sync._FINDER_STATES * n * 4


def test_every_round_applies_its_word_to_the_image(rng, monkeypatch):
    # each image greedy hands the finder is the word of the round before
    # applied to that round's image, for finder rounds and fallback rounds
    # alike, over one to three letters, tied letters, two components and
    # Cerny automata, whose deep pairs send rounds to the fallback; the
    # words come from greedy's rounds, the images from the finder's calls
    from synchrolab import sync

    finder, images = sync._closest_source, []

    def closest_source(rows, cur):
        images.append(cur.copy())
        return finder(rows, cur)

    monkeypatch.setattr(sync, "_closest_source", closest_source)
    auts = []
    for trial in range(60):
        n = int(rng.integers(3, 300))
        auts.append(tie_heavy_automaton(rng, n) if trial % 4 == 3 else sample_uniform_automaton(n, 1 + trial % 4, rng))
    auts += [two_component_automaton(rng, int(rng.integers(2, 13)), int(rng.integers(2, 13)), 2) for _ in range(20)]
    auts += [cerny_automaton(n) for n in range(4, 17)]
    kinds = []
    for aut in auts:
        n = aut.n
        images.clear()
        rounds = []
        cur = StateSet(n, rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)).members
        try:
            rounds += sync._greedy_rounds(aut, cur)
            synchronized = True
        except NotSynchronizableError:
            synchronized = False
        # a stuck image is handed to the finder but yields no round; under
        # permutation letters no image is
        assert len(rounds) <= len(images) <= len(rounds) + (not synchronized)
        for (size, word, by_finder), before in zip(rounds, images):
            assert before.dtype == np.int64
            assert np.array_equal(before, cur) and size == cur.size
            cur = _image_members(aut, _runs(word), cur)
            kinds.append((aut.k, by_finder))
        if len(images) > len(rounds):
            assert np.array_equal(images[-1], cur)
        assert synchronized == (cur.size == 1)
    assert {k for k, by_finder in kinds} == {1, 2, 3}
    finder_rounds = [by_finder for k, by_finder in kinds]
    assert finder_rounds.count(True) > 500 and finder_rounds.count(False) > 20


def three_chains(n, d):
    """Letter a walks three chains from states 0, d + 1 and 2d + 2; b fixes
    every state.  The first two chains meet after d + 1 letters, and the
    third, twice as long, meets their end d + 1 letters later: greedy from
    the three starts runs two rounds of d + 1 letters.  The other states
    are fixed points."""
    a = np.arange(n)
    first, second = np.arange(d + 1), np.arange(d + 1, 2 * d + 2)
    third, tail = np.arange(2 * d + 2, 4 * d + 4), np.arange(4 * d + 4, 5 * d + 5)
    for chain, end in ((first, tail[0]), (second, tail[0]), (third, 5 * d + 5), (tail, 5 * d + 5)):
        a[chain[:-1]] = chain[1:]
        a[chain[-1]] = end
    return Automaton(np.stack([a, np.arange(n)], axis=1)), [0, d + 1, 2 * d + 2]


def test_greedy_frees_each_rounds_levels_before_the_next_finder(monkeypatch):
    # two finder rounds that each build more than half of the cap of
    # 32n states: had greedy kept the first round's levels while the second
    # builds its own, the two together would pass the 128n bytes of 32n
    # int32 states; the first round's levels, about 3/4 of the cap, leave
    # the rest for the walk-back
    from synchrolab import sync

    n = 16_000
    aut, starts = three_chains(n, 15)
    finder, build, built = sync._closest_source, sync._word_images, []

    def closest_source(rows, cur):
        built.append(cur.size)
        return finder(rows, cur)

    def word_images(rows, level):
        out = build(rows, level)
        built[-1] += out.size
        return out

    monkeypatch.setattr(sync, "_closest_source", closest_source)
    monkeypatch.setattr(sync, "_word_images", word_images)
    tracemalloc.start()
    try:
        word = greedy_synchronize(aut, StateSet(n, starts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == Word([0] * 32)
    assert len(built) == 2 and min(built) > sync._FINDER_STATES * n / 2
    assert peak < sync._FINDER_STATES * n * 4


# ---------------------------------------------------------------------
# all-pairs radius
# ---------------------------------------------------------------------
def test_radius_constant_and_permutation():
    assert all_pairs_merge_radius(constant_automaton(5)) == 1
    assert all_pairs_merge_radius(permutation_automaton(5)) == math.inf


def test_radius_needs_two_states():
    with pytest.raises(InvalidInputError):
        all_pairs_merge_radius(constant_automaton(1))


def test_radius_capacity_guard():
    aut = permutation_automaton(20_001)
    with pytest.raises(CapacityError):
        all_pairs_merge_radius(aut)


def test_radius_capacity_error_names_its_bytes():
    # 3.5 n^2 bytes, README "Capacity guards"
    with pytest.raises(CapacityError, match="needs about 1400140003 bytes at 20001 states; "
                                            "it is capped at 20000 states, about 1400000000 bytes"):
        all_pairs_merge_radius(permutation_automaton(20_001))


def test_radius_equals_forward_search_maximum(rng):
    cases = []
    for k in (1, 2, 3):
        for _ in range(5):
            cases.append((sample_uniform_automaton(int(rng.integers(2, 65)), k, rng), False))
        for _ in range(2):
            # Two components: no pair across them ever merges.
            a, b = (sample_uniform_automaton(int(rng.integers(1, 25)), k, rng) for _ in range(2))
            cases.append((Automaton(np.vstack([a.table, b.table + a.n])), True))
    for aut, disjoint in cases:
        radius = all_pairs_merge_radius(aut)
        worst = 0
        for x in range(aut.n):
            for y in range(x + 1, aut.n):
                worst = max(worst, pair_shortest_merge(aut, x, y, max_len=math.inf).distance)
        assert radius == worst
        if disjoint:
            assert radius == math.inf


def test_radius_of_cerny_automaton_is_n_choose_2():
    # deep radii: up to 780 levels of one or two pairs each
    for n in range(2, 41):
        assert all_pairs_merge_radius(cerny_automaton(n)) == n * (n - 1) // 2


def test_bit_transpose_is_the_packed_transpose(rng):
    from synchrolab.sync import _transpose_bits

    for n in (*range(1, 10), 63, 64, 65, 127, 128, 129, 200):
        N = -(-n // 64) * 64
        m = np.zeros((N, N), dtype=bool)
        m[:n, :n] = rng.random((n, n)) < 0.5
        bits = np.packbits(m, axis=1, bitorder="little")
        words = np.empty((N // 8, N // 8), dtype="<u8")
        _transpose_bits(bits, words, np.empty_like(words))
        assert np.array_equal(bits, np.packbits(m.T, axis=1, bitorder="little"))


def _padding_edge_automata(rng):
    """Random automata with k = 1 to 3 letters at n just under, at and just
    over multiples of 64 (and of 8), two-component automata, and the half
    and constant letters, whose first level holds about n^2/4 pairs or all
    of them."""
    auts = [sample_uniform_automaton(n, k, rng) for n in (7, 8, 9, 63, 64, 65, 127, 128, 129) for k in (1, 2, 3)]
    auts += [two_component_automaton(rng, n, 70 - n, k) for n, k in ((5, 1), (30, 2), (64, 3))]
    for n in (63, 65, 128):
        second = rng.integers(0, n, n)
        auts += [Automaton(np.stack([np.arange(n) % 2, second], axis=1)),
                 Automaton(np.stack([np.zeros(n, dtype=np.int64), second], axis=1))]
    return auts


@pytest.mark.parametrize("push", [sparse_frontier, lambda level, frontier, unseen: False,
                                  lambda level, frontier, unseen: True, lambda level, frontier, unseen: level % 2 == 1],
                         ids=["default", "pull-throughout", "push-throughout", "switch-every-level"])
def test_radius_equals_the_reference_at_the_padding_edges(rng, push):
    # the radius pulls every level; the reference finds its levels in each
    # order, pushing from the frontier's preimages or pulling into the seen
    auts = _padding_edge_automata(rng)
    expected = [reference_radius(aut, push) for aut in auts]
    assert math.inf in expected and 1 in expected
    assert [all_pairs_merge_radius(aut) for aut in auts] == expected


@pytest.mark.parametrize("letter", ["half", "constant"])
def test_radius_memory_on_degenerate_letters(letter):
    # a letter sending half the states to 0 and half to 1, or all to 0:
    # a first level of about n^2/4 pairs or all of them
    from synchrolab.sync import _radius_bytes

    n = 1024
    first = np.arange(n) % 2 if letter == "half" else np.zeros(n, dtype=np.int64)
    aut = Automaton(np.stack([first, sample_uniform_automaton(n, 1, Seed(7).stream(1)).letter(0)], axis=1))
    tracemalloc.start()
    try:
        all_pairs_merge_radius(aut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _radius_bytes(n) <= 5 * n * n
    # five N x N bit matrices, 0.625 n^2 bytes at N = n, and the letters
    # hold O(n): 0.70 n^2 measured, as on a random automaton
    assert peak < 0.8 * n * n


def test_radius_memory_is_under_the_documented_bound():
    # README "Capacity guards": 0.70 n^2 bytes on a random automaton with
    # two letters, five N x N bit matrices and the letters; a margin of
    # 0.1 n^2
    n = 1024
    aut = sample_uniform_automaton(n, 2, Seed(7).stream(1))
    tracemalloc.start()
    try:
        assert all_pairs_merge_radius(aut) == 13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * n * n


# ---------------------------------------------------------------------
# greedy synchronization
# ---------------------------------------------------------------------
def test_greedy_singleton_is_empty_word():
    assert greedy_synchronize(constant_automaton(4), StateSet(4, [2])) == Word()


def test_greedy_constant_automaton_single_letter():
    assert greedy_synchronize(constant_automaton(6), StateSet.full(6)) == Word.from_text("a")


def test_greedy_cerny_is_verified_and_not_shorter_than_optimum(cerny4):
    w = greedy_synchronize(cerny4, StateSet.full(4))
    assert is_reset_word(cerny4, w)
    assert len(w) >= 9


def test_greedy_on_cerny_automata_matches_reference():
    # Cerny pairs merge in up to n (n - 1) / 2 letters, so the finder gives
    # up at its cap in some rounds: the multi-source search then runs
    from synchrolab import sync

    for n in range(4, 17):
        aut = cerny_automaton(n)
        assert greedy_synchronize(aut, StateSet.full(n)) == reference_greedy(aut, range(n))
        assert not all(by_finder for size, word, by_finder in sync._greedy_rounds(aut, np.arange(n)))


def test_greedy_permutation_reports_stuck_pair():
    with pytest.raises(NotSynchronizableError) as exc:
        greedy_synchronize(permutation_automaton(4), StateSet.full(4))
    assert exc.value.pair == (0, 1)


def test_greedy_permutation_beyond_pair_budget_reports_stuck_pair():
    # 10^4 states give 49995000 source pairs, over the search budget, but
    # permutation letters settle the answer without a search
    with pytest.raises(NotSynchronizableError) as exc:
        greedy_synchronize(permutation_automaton(10_000), StateSet.full(10_000))
    assert exc.value.pair == (0, 1)


def test_greedy_pair_budget_guard():
    table = np.tile(np.arange(7000, dtype=np.int64).reshape(-1, 1), (1, 2))
    table[0, 0] = 1  # not a permutation: 0 and 1 merge under a
    with pytest.raises(CapacityError, match="candidate pairs exceed the search budget") as exc:
        greedy_synchronize(Automaton(table), StateSet.full(7000))
    assert str(exc.value) == (
        "24489501 candidate pairs exceed the search budget of 20000000 pairs (PAIR_VISIT_LIMIT); "
        "no stuck pair is named, since only a search over those pairs could find one"
    )


def test_greedy_from_the_whole_state_set_past_the_pair_budget():
    # 10^4 states are 49995000 source pairs, past the multi-source search's
    # budget; the finder names each round's pair without it
    aut = sample_uniform_automaton(10_000, 2, Seed(7).stream(0))
    assert is_reset_word(aut, greedy_synchronize(aut, StateSet.full(10_000)))


def test_greedy_rejects_empty_set():
    with pytest.raises(InvalidInputError):
        greedy_synchronize(constant_automaton(4), StateSet(4, []))


def test_greedy_rejects_a_set_over_other_states():
    with pytest.raises(InvalidInputError, match=r"^state set is over \[0, 5\) but the automaton has 4 states$"):
        greedy_synchronize(constant_automaton(4), StateSet(5, [1, 3]))


def test_greedy_random_instances_verify(rng):
    for _ in range(15):
        n = int(rng.integers(2, 60))
        aut = sample_uniform_automaton(n, 2, rng)
        try:
            w = greedy_synchronize(aut, StateSet.full(n))
        except NotSynchronizableError:
            assert all_pairs_merge_radius(aut) == math.inf
            continue
        assert is_reset_word(aut, w)


# ---------------------------------------------------------------------
# two-phase pipeline
# ---------------------------------------------------------------------
def test_two_phase_constant_automaton():
    report = two_phase_synchronize(constant_automaton(8))
    assert report.verified
    assert report.intermediate_image_size == 1
    assert report.phase2_length == 0
    assert len(report.word) == report.phase1_length + report.phase2_length


def test_two_phase_permutation_raises():
    with pytest.raises(NotSynchronizableError):
        two_phase_synchronize(permutation_automaton(8))


def test_two_phase_requires_binary_alphabet():
    with pytest.raises(InvalidInputError):
        two_phase_synchronize(sample_uniform_automaton(10, 3, 0))
    with pytest.raises(InvalidInputError):
        two_phase_synchronize(sample_uniform_automaton(10, 1, 0))
    with pytest.raises(InvalidInputError):
        two_phase_synchronize(constant_automaton(1))


def test_two_phase_random_reports_verify(rng):
    for _ in range(10):
        n = int(rng.integers(2, 200))
        aut = sample_uniform_automaton(n, 2, rng)
        try:
            report = two_phase_synchronize(aut)
        except NotSynchronizableError:
            continue
        assert report.verified
        assert is_reset_word(aut, report.word)
        assert len(report.word) == report.phase1_length + report.phase2_length
        assert report.phase1_length == len(phase1_word_interleaved(n))


# ---------------------------------------------------------------------
# exact shortest reset
# ---------------------------------------------------------------------
def test_exact_constant_automaton():
    w = exact_shortest_reset(constant_automaton(6))
    assert len(w) == 1


def test_exact_single_state():
    assert exact_shortest_reset(constant_automaton(1)) == Word()


@pytest.mark.parametrize("n,expected", [(3, 4), (4, 9), (5, 16), *((n, (n - 1) ** 2) for n in range(15, 21))])
def test_exact_cerny_lengths(n, expected):
    aut = cerny_automaton(n)
    w = exact_shortest_reset(aut)
    assert len(w) == expected
    assert is_reset_word(aut, w)


def test_exact_permutation_absent():
    assert exact_shortest_reset(permutation_automaton(5)) is None


def test_exact_capacity_guard():
    with pytest.raises(CapacityError):
        exact_shortest_reset(permutation_automaton(25))


def test_exact_word_matches_reference(rng):
    # the exact word, not just its length: the level-synchronous search must
    # break ties the way the queue-driven BFS does
    absent = 0
    for _ in range(300):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 15))
        aut = sample_uniform_automaton(n, k, rng)
        w = exact_shortest_reset(aut)
        assert w == reference_exact_reset(aut)
        absent += w is None
    assert absent > 0  # non-synchronizable automata were covered too
    for n in range(2, 15):
        aut = cerny_automaton(n)
        assert exact_shortest_reset(aut) == reference_exact_reset(aut)
    for n in (20, 24):
        for i in range(5):
            aut = sample_uniform_automaton(n, 2, Seed(7).stream(i))
            assert exact_shortest_reset(aut) == reference_exact_reset(aut)


def test_exact_word_is_minimal_by_enumeration(rng):
    # no reset word is shorter, and none of the same length comes before it
    # in lexicographic order: each mask keeps its first discovery only
    # because of the latter
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 4))
        aut = sample_uniform_automaton(n, k, rng)
        w = exact_shortest_reset(aut)
        if w is None or k ** len(w) > 800:
            continue
        assert is_reset_word(aut, w)
        for length in range(len(w) + 1):
            for letters in itertools.product(range(k), repeat=length):
                if letters == w.letters:
                    break
                assert not is_reset_word(aut, Word(letters))
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("n", [11, 12, 13, 23, 24])
def test_exact_word_matches_reference_at_chunk_edges(n):
    # masks of 11 to 24 bits: one 12-bit image table chunk, a full one, and
    # a second chunk holding one bit, eleven bits or a full twelve
    auts = [Automaton(np.maximum(np.arange(n) - 1, 0)[:, None])]  # a^(n-1)
    auts += [sample_uniform_automaton(n, k, Seed(27).stream(i)) for k in (1, 2, 3, 4) for i in range(3)]
    for aut in auts:
        assert exact_shortest_reset(aut) == reference_exact_reset(aut)
    assert len(exact_shortest_reset(auts[0])) == n - 1


def test_exact_subset_image_tables_by_state():
    for n in (1, 5, 12, 13, 24):
        aut = sample_uniform_automaton(n, 3, Seed(27).stream(n))
        tables = _subset_image_tables(aut)
        for mask in (0, 1, (1 << n) - 1, 0b101101 & ((1 << n) - 1), (1 << n) - 1 >> n // 2 << n // 2):
            image_of = tables[0, mask & 0xFFF] | (tables[1, mask >> 12] if n > 12 else 0)
            for c in range(aut.k):
                expected = sum({1 << int(aut.letter(c)[s]) for s in range(n) if mask >> s & 1})
                assert image_of[c] == expected


def test_exact_word_many_letters_matches_reference():
    # letters at and past the text alphabet: compared as letter tuples
    for n in range(2, 9):
        aut = sample_uniform_automaton(n, 30, Seed(27).stream(n))
        w = exact_shortest_reset(aut)
        assert w.letters == reference_exact_reset(aut).letters
        assert is_reset_word(aut, w)


def test_reconstruct_word_reads_position_times_k_plus_letter():
    # three letters; level 1 has 3 nodes, level 2 has 3 nodes, and the word
    # ends at candidate index 7 = position 2 * 3 + letter 1 of level 3
    steps = [np.array([2, 0, 1]), np.array([4, 8, 0])]
    assert _reconstruct_word(steps, 3, 7) == Word([2, 0, 1])
    assert _reconstruct_word(steps, 3, 3) == Word([1, 2, 0])
    assert _reconstruct_word([], 3, 2) == Word([2])


def test_oracle_consistency_chain(rng):
    # radius <= exact length <= greedy length whenever a reset word exists:
    # small automata, then up to the power-set cap
    for low, high, draws in ((2, 13, 25), (13, 25, 8)):
        for _ in range(draws):
            n = int(rng.integers(low, high))
            aut = sample_uniform_automaton(n, 2, rng)
            exact = exact_shortest_reset(aut)
            if exact is None:
                assert all_pairs_merge_radius(aut) == math.inf
                with pytest.raises(NotSynchronizableError):
                    greedy_synchronize(aut, StateSet.full(n))
                continue
            radius = all_pairs_merge_radius(aut)
            greedy = greedy_synchronize(aut, StateSet.full(n))
            assert radius <= len(exact) <= len(greedy)
