import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chain_automaton,
    constant_automaton,
    permutation_automaton,
    reference_dfa_text,
)
from synchrolab import (
    Automaton,
    InvalidInputError,
    StateSet,
    Word,
    apply_word,
    image,
    is_reset_word,
    iterate_unary_image,
    read_dfa,
    sample_uniform_automaton,
    write_dfa,
)


# ---------------------------------------------------------------------
# Word
# ---------------------------------------------------------------------
def test_word_text_round_trip():
    w = Word.from_text("abba")
    assert w.letters == (0, 1, 1, 0)
    assert w.text == "abba"
    assert len(w) == 4


def test_word_concat_and_equality():
    assert Word.from_text("ab") + Word.from_text("ba") == Word.from_text("abba")
    assert Word() + Word() == Word()
    assert Word([0]) != Word([1])


def test_word_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        Word.from_text("a!b")
    with pytest.raises(InvalidInputError):
        Word([-1])
    with pytest.raises(InvalidInputError):
        Word([26]).text  # no textual form past 'z'


@pytest.mark.parametrize(
    "build",
    [
        lambda: Automaton([[0.7, 1.2], [1.9, 0.1]]),
        lambda: StateSet(5, [1.5, 3.9]),
        lambda: StateSet(5, np.array([1.5, 3.9])),
        lambda: StateSet(5, np.array([True, False])),
        lambda: StateSet(5.9, [4]),
        lambda: iterate_unary_image(constant_automaton(3), 0, 1.9, StateSet.full(3)),
        lambda: iterate_unary_image(constant_automaton(3), 0.0, 1, StateSet.full(3)),
        lambda: Word([1.5]),
        lambda: apply_word(constant_automaton(3), Word([0]), 1.7),
        lambda: 1.5 in StateSet(5, [1]),
        lambda: StateSet.full(5.5),
        lambda: Word([True, False]),
        lambda: True in StateSet(5, [1]),
        lambda: StateSet(True),
    ],
    ids=["automaton", "stateset-list", "stateset-array", "stateset-mask", "stateset-n",
         "iterate-count", "iterate-letter", "word", "apply-word-state",
         "stateset-contains", "stateset-full-n", "word-bool", "stateset-contains-bool",
         "stateset-bool-n"],
)
def test_non_integral_input_is_rejected_not_truncated(build):
    with pytest.raises(InvalidInputError):
        build()


@pytest.mark.parametrize("n", [0, -1])
def test_full_set_needs_a_positive_state_count(n):
    with pytest.raises(InvalidInputError):
        StateSet.full(n)


def test_integer_dtypes_and_empty_members_accepted():
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        assert Automaton(np.array([[1, 0], [1, 1]], dtype=dtype)) == Automaton([[1, 0], [1, 1]])
        assert StateSet(5, np.array([3, 1], dtype=dtype)) == StateSet(5, [1, 3])
        assert Word(np.array([1, 0], dtype=dtype)) == Word.from_text("ba")
        assert iterate_unary_image(chain_automaton(), 0, dtype(1), StateSet.full(3)) == StateSet(3, [1, 2])
        assert StateSet.full(dtype(3)) == StateSet(3, [0, 1, 2])
        assert dtype(1) in StateSet(5, [1])
    assert len(StateSet(5, [])) == 0
    assert len(StateSet(5, np.array([]))) == 0


# ---------------------------------------------------------------------
# StateSet
# ---------------------------------------------------------------------
def test_stateset_dedup_and_order():
    s = StateSet(10, [5, 1, 5, 3, 1])
    assert list(s) == [1, 3, 5]
    assert len(s) == 3
    assert 3 in s and 4 not in s and -1 not in s
    edges = StateSet(10, [0, 9])
    assert 0 in edges and 9 in edges
    assert 1 not in edges and 8 not in edges and 10 not in edges
    empty = StateSet(10)
    assert 0 not in empty and 9 not in empty and 5 not in empty


def test_stateset_bounds_checked():
    with pytest.raises(InvalidInputError):
        StateSet(4, [4])
    with pytest.raises(InvalidInputError):
        StateSet(4, [-1])
    with pytest.raises(InvalidInputError):
        StateSet(0, [])


def test_stateset_full_and_equality():
    assert StateSet.full(5) == StateSet(5, range(5))
    assert StateSet(5, [1]) != StateSet(6, [1])


# ---------------------------------------------------------------------
# Automaton construction
# ---------------------------------------------------------------------
def test_automaton_validation():
    with pytest.raises(InvalidInputError):
        Automaton([[2, 0], [0, 0]])  # entry out of range
    with pytest.raises(InvalidInputError):
        Automaton([[0, -1], [0, 0]])
    with pytest.raises(InvalidInputError):
        Automaton(np.zeros((0, 2), dtype=int))
    with pytest.raises(InvalidInputError):
        Automaton([0, 1])  # not 2-D


def test_automaton_immutable():
    aut = constant_automaton(3)
    with pytest.raises(ValueError):
        aut.table[0, 0] = 1
    with pytest.raises(ValueError):
        aut.letter(0)[0] = 1


def test_automaton_letter_out_of_range():
    with pytest.raises(InvalidInputError):
        constant_automaton(3).letter(2)


# ---------------------------------------------------------------------
# apply_word
# ---------------------------------------------------------------------
def test_apply_empty_word_is_identity():
    aut = constant_automaton(4)
    for x in range(4):
        assert apply_word(aut, Word(), x) == x


def test_apply_word_hand_trace():
    # letter a swaps the two states, letter b sends both to 0
    aut = Automaton([[1, 0], [0, 0]])
    assert apply_word(aut, Word.from_text("ab"), 0) == 0


def test_apply_word_cerny_shift(cerny4):
    assert apply_word(cerny4, Word.from_text("a"), 3) == 0
    assert apply_word(cerny4, Word.from_text("b"), 0) == 1
    assert apply_word(cerny4, Word.from_text("b"), 2) == 2


def test_apply_word_rejects_bad_state_and_letter(cerny4):
    with pytest.raises(InvalidInputError):
        apply_word(cerny4, Word(), 4)
    with pytest.raises(InvalidInputError):
        apply_word(cerny4, Word([2]), 0)


def test_apply_word_composes(rng):
    for _ in range(20):
        n = int(rng.integers(2, 60))
        aut = sample_uniform_automaton(n, 2, rng)
        u = Word(rng.integers(0, 2, size=rng.integers(0, 8)))
        v = Word(rng.integers(0, 2, size=rng.integers(0, 8)))
        x = int(rng.integers(0, n))
        assert apply_word(aut, u + v, x) == apply_word(aut, v, apply_word(aut, u, x))


# ---------------------------------------------------------------------
# image
# ---------------------------------------------------------------------
def test_image_identity_and_constant():
    aut = constant_automaton(6)
    full = StateSet.full(6)
    assert image(aut, Word(), full) == full
    assert image(aut, Word.from_text("a"), full) == StateSet(6, [0])


def test_image_unary_chain_two_steps():
    aut = chain_automaton()
    assert image(aut, Word([0, 0]), StateSet.full(3)) == StateSet(3, [2])


def test_image_matches_per_state_application(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        aut = sample_uniform_automaton(n, 2, rng)
        w = Word(rng.integers(0, 2, size=rng.integers(0, 10)))
        members = [int(x) for x in rng.integers(0, n, size=rng.integers(1, n + 1))]
        A = StateSet(n, members)
        expected = StateSet(n, {apply_word(aut, w, x) for x in A})
        assert image(aut, w, A) == expected
        assert len(image(aut, w, A)) <= len(A)


def test_image_monotone_under_extension(rng):
    full = None
    for _ in range(10):
        n = int(rng.integers(2, 40))
        aut = sample_uniform_automaton(n, 2, rng)
        full = StateSet.full(n)
        u = Word(rng.integers(0, 2, size=rng.integers(0, 10)))
        v = Word(rng.integers(0, 2, size=rng.integers(1, 10)))
        assert len(image(aut, u + v, full)) <= len(image(aut, u, full))


@st.composite
def automata(draw):
    """Random automata with k = 1-3 letters on n = 1-60 states; each letter
    is a random map, a constant map or a permutation."""
    n = draw(st.integers(1, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "constant", "permutation"]))
        if kind == "constant":
            columns.append([draw(st.integers(0, n - 1))] * n)
        elif kind == "permutation":
            columns.append(draw(st.permutations(range(n))))
        else:
            columns.append(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return Automaton(np.array(columns, dtype=np.int64).T)


_hypothesis = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_hypothesis
@given(st.data())
def test_image_matches_apply_word_on_random_inputs(data):
    aut = data.draw(automata())
    n, k = aut.n, aut.k
    # up to 3n letters, long enough for a unary map to reach its cycles
    w = Word(data.draw(st.lists(st.integers(0, k - 1), max_size=3 * n)))
    A = StateSet(n, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    assert image(aut, w, A) == StateSet(n, {apply_word(aut, w, x) for x in A})
    assert image(aut, Word(), A) == A
    assert image(aut, w, StateSet(n)) == StateSet(n)
    # after n letters c the full image is the cyclic states of c: a fixed point
    c = data.draw(st.integers(0, k - 1))
    settled = image(aut, Word([c] * n), StateSet.full(n))
    assert image(aut, Word([c]), settled) == settled


@_hypothesis
@given(st.data())
def test_iterate_matches_repeated_letter_image_on_any_set(data):
    aut = data.draw(automata())
    n = aut.n
    c = data.draw(st.integers(0, aut.k - 1))
    t = data.draw(st.integers(0, 2 * n))
    A = StateSet(n, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    assert iterate_unary_image(aut, c, t, A) == image(aut, Word([c] * t), A)


def test_image_result_is_sorted_unique_read_only(rng):
    for n, k in ((1, 1), (7, 2), (2000, 2), (2000, 3)):
        aut = sample_uniform_automaton(n, k, rng)
        A = StateSet(n, rng.integers(0, n, size=n))
        for w in (Word(rng.integers(0, k, size=5)), Word([0] * 40)):
            for got in (image(aut, w, A), iterate_unary_image(aut, 0, len(w), A)):
                m = got.members
                assert m.dtype == np.int64 and not m.flags.writeable
                assert np.all(m[1:] > m[:-1])
        for same in (image(aut, Word(), A), iterate_unary_image(aut, 0, 0, A)):
            assert np.array_equal(same.members, A.members) and not same.members.flags.writeable


def test_image_rejects_mismatched_state_space():
    with pytest.raises(InvalidInputError):
        image(constant_automaton(3), Word(), StateSet.full(4))


# ---------------------------------------------------------------------
# is_reset_word
# ---------------------------------------------------------------------
def test_reset_word_basics(cerny4):
    assert is_reset_word(constant_automaton(5), Word.from_text("a"))
    assert not is_reset_word(permutation_automaton(5), Word.from_text("abab"))
    assert is_reset_word(cerny4, Word.from_text("baaabaaab"))
    assert not is_reset_word(cerny4, Word.from_text("baaabaaa"))


def test_reset_word_suffix_stays_merged(rng):
    checked = 0
    while checked < 5:
        n = int(rng.integers(2, 10))
        aut = sample_uniform_automaton(n, 2, rng)
        w = Word(rng.integers(0, 2, size=40))
        if not is_reset_word(aut, w):
            continue
        suffix = Word(rng.integers(0, 2, size=rng.integers(1, 6)))
        assert is_reset_word(aut, w + suffix)
        checked += 1


# ---------------------------------------------------------------------
# iterate_unary_image
# ---------------------------------------------------------------------
def test_iterate_identity_letter():
    aut = Automaton([[0], [1], [2]])
    full = StateSet.full(3)
    assert iterate_unary_image(aut, 0, 17, full) == full


def test_iterate_constant_letter():
    aut = constant_automaton(5)
    assert iterate_unary_image(aut, 0, 1, StateSet.full(5)) == StateSet(5, [0])


def test_iterate_chain_one_step():
    assert iterate_unary_image(chain_automaton(), 0, 1, StateSet.full(3)) == StateSet(3, [1, 2])


def test_iterate_agrees_with_repeated_letter_word(rng):
    for _ in range(15):
        n = int(rng.integers(2, 100))
        aut = sample_uniform_automaton(n, 2, rng)
        t = int(rng.integers(0, 51))
        c = int(rng.integers(0, 2))
        full = StateSet.full(n)
        assert iterate_unary_image(aut, c, t, full) == image(aut, Word([c] * t), full)


def test_iterate_rejects_negative_count():
    with pytest.raises(InvalidInputError):
        iterate_unary_image(constant_automaton(3), 0, -1, StateSet.full(3))


# ---------------------------------------------------------------------
# dfa v1 format
# ---------------------------------------------------------------------
def test_dfa_round_trip(tmp_path, cerny4):
    path = tmp_path / "cerny4.dfa"
    write_dfa(cerny4, path)
    assert read_dfa(path) == cerny4
    assert path.read_text().splitlines()[0] == "dfa v1 4 2"


def test_dfa_round_trip_via_streams():
    for aut in (chain_automaton(), Automaton([[0]])):
        buf = io.StringIO()
        write_dfa(aut, buf)
        assert read_dfa(io.StringIO(buf.getvalue())) == aut
    assert buf.getvalue() == "dfa v1 1 1\n0\n"


@_hypothesis
@given(st.data())
def test_dfa_text_matches_per_row_writer_and_round_trips(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    aut = Automaton(np.array(entries, dtype=np.int64).reshape(n, k))
    buf = io.StringIO()
    write_dfa(aut, buf)
    text = buf.getvalue()
    assert text == reference_dfa_text(aut)
    assert read_dfa(io.StringIO(text)) == aut
    # the same file with tabs between entries and blank or whitespace-only
    # lines anywhere parses to the same automaton
    padded = []
    for line in text.splitlines():
        padded += data.draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2))
        padded.append(line.replace(" ", data.draw(st.sampled_from([" ", "\t", " \t", "  "]))))
    padded += data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    assert read_dfa(io.StringIO("\n".join(padded))) == aut


_default_warnings = pytest.mark.filterwarnings("default")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nfa v1 2 2\n0 0\n0 0\n",
        "dfa v2 2 2\n0 0\n0 0\n",
        "dfa v1 2 2\n0 0\n",  # missing row
        "dfa v1 2 2\n0 0 0\n0 0\n",  # extra entry
        "dfa v1 2 2\n0 2\n0 0\n",  # target out of range
        "dfa v1 2 2\n0 x\n0 0\n",  # non-integer
        "dfa v1 2 2\n1 99999999999999999999\n0 0\n",  # past int64
        "dfa v1 2 2\n0 1 # to 0 and 1\n0 0\n",  # no comments
        "dfa v1 11 1\n1_0\n" + "0\n" * 10,  # no digit separators
        "dfa v1 2 2\n\u0661 0\n0 0\n",  # no non-ASCII digits
        "dfa v1 3 2\n0 0\n0\n0 0\n",  # ragged middle row
        "dfa v1 2 2\n0 0 0\n0 0 0\n",  # every row has k + 1 entries
        "dfa v1 2 2\n0\n0\n",  # every row has k - 1 entries
        "dfa v1 2 2 x\n0 0\n0 0\n",  # extra header token
        "dfa v1 1000000000000 2\n0 0\n0 0\n",  # huge n: raises before allocating
        "dfa v1 2 2\n0 -1\n0 0\n",  # negative target
        "dfa v1 2 2\n",  # no body
        "dfa v1 1_0 1\n" + "0\n" * 10,  # no digit separators in the header
        "dfa v1 \u0662 1\n0\n0\n",  # no non-ASCII digits in the header
        # not integers; run under the default warning filters, as outside
        # the tests, where older numpy only warns and truncates
        pytest.param("dfa v1 2 2\n1.5 0\n0 0\n", marks=_default_warnings),
        pytest.param("dfa v1 3 1\n2.0\n0\n0\n", marks=_default_warnings),
        pytest.param("dfa v1 2 1\n1e0\n0\n", marks=_default_warnings),
    ],
)
def test_dfa_parse_errors(text):
    with pytest.raises(InvalidInputError):
        read_dfa(io.StringIO(text))
