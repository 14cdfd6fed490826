"""Deterministic finite automata over dense integer transition tables.

States are the integers [0, n); letters are the integers [0, k) and map to
the characters 'a', 'b', ... in textual form.  Words act leftmost letter
first: a word w = w1 w2 ... wm sends x to the m-fold composition applied in
reading order.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import warnings
from collections.abc import Iterable
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import InvalidInputError

_MAX_TEXT_ALPHABET = 26
# Letter byte -> its character, for bytes.translate.
_LETTER_CHARS = bytes.maketrans(
    bytes(range(_MAX_TEXT_ALPHABET)), bytes(range(ord("a"), ord("a") + _MAX_TEXT_ALPHABET))
)


def letter_to_char(letter: int) -> str:
    if not 0 <= letter < _MAX_TEXT_ALPHABET:
        raise InvalidInputError(
            f"letter {letter} has no textual form (only a..z are mapped)"
        )
    return chr(ord("a") + letter)


def char_to_letter(ch: str) -> int:
    code = ord(ch) - ord("a")
    if len(ch) != 1 or not 0 <= code < _MAX_TEXT_ALPHABET:
        raise InvalidInputError(f"invalid word character {ch!r}")
    return code


def _as_index(value, what: str) -> int:
    """value as a Python int; floats, bools and other non-integral values
    raise instead of being truncated."""
    if not isinstance(value, bool):  # numpy's bool already has no __index__
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def _as_int_array(values, what: str) -> np.ndarray:
    """values as an int64 array; an empty input is accepted, anything not of
    an integer dtype raises instead of being truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _first_of_runs(arr: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values of a sorted
    array."""
    first = np.empty(arr.size, dtype=bool)
    first[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=first[1:])
    return first


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values sorted, as a new flat array.  One sort and an
    adjacent compare; numpy's own unique is far slower on integer arrays."""
    arr = np.sort(values, axis=None)
    return arr[_first_of_runs(arr)]


def _preimage_runs(succ: np.ndarray, n: int):
    """The preimages of every state under a successor array of n entries,
    as runs of one array: those of state v are order[start[v]:start[v] +
    count[v]], in index order.  Returns (order, start, count).

    order is np.argsort(succ, kind="stable"), made by one np.sort of the
    packed keys succ << b | index, b = n.bit_length(), with the high bits
    masked off; numpy's argsort is several times slower.  The keys fit in
    int64 while n < 2^31."""
    count = np.bincount(succ, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(count[:-1], out=start[1:])
    bits = n.bit_length()
    if bits > 31:
        return np.argsort(succ, kind="stable"), start, count
    order = succ.astype(np.int64) << bits
    order |= np.arange(n)
    order.sort()
    order &= (1 << bits) - 1
    return order, start, count


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c in turn, as one array: the
    positions within their runs of the members of runs of these lengths."""
    ends = counts.cumsum()
    out = np.arange(ends[-1], dtype=np.int64)
    ends -= counts
    out -= ends.repeat(counts)
    return out


class Word:
    """Immutable letter sequence; may be empty.

    Word(letters) checks every letter; the words the program builds itself
    (phase words, search words, concatenations) come from letters already
    checked and skip that (_trusted).  .text maps letters to characters by
    one bytes.translate."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(_as_index(c, "letter") for c in letters)
        for c in letters:
            if c < 0:
                raise InvalidInputError(f"negative letter {c}")
        self._letters = letters

    @classmethod
    def _trusted(cls, letters: tuple[int, ...]) -> "Word":
        # Trusted constructor: letters must be a tuple of non-negative
        # Python ints; it is kept, not copied.
        obj = cls.__new__(cls)
        obj._letters = letters
        return obj

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(char_to_letter(ch) for ch in text)

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    @property
    def text(self) -> str:
        if max(self._letters, default=0) >= _MAX_TEXT_ALPHABET:
            # Some letter has no textual form: name the first.
            for c in self._letters:
                letter_to_char(c)
        return bytes(self._letters).translate(_LETTER_CHARS).decode("ascii")

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(self._letters + other._letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        try:
            return f"Word({self.text!r})"
        except InvalidInputError:
            return f"Word({list(self._letters)!r})"


def _state_count(n) -> int:
    n = _as_index(n, "state count")
    if n < 1:
        raise InvalidInputError("state count must be positive")
    return n


class StateSet:
    """Subset of [0, n), stored as a sorted unique index array.

    Cardinality is O(1); membership is one binary search over the members.
    """

    __slots__ = ("_n", "_members")

    def __init__(self, n: int, members: Iterable[int] = ()):
        n = _state_count(n)
        if not isinstance(members, np.ndarray):
            members = list(members)
        arr = _sorted_unique(_as_int_array(members, "members"))
        if arr.size and (arr[0] < 0 or arr[-1] >= n):
            raise InvalidInputError(f"members must lie in [0, {n})")
        arr.setflags(write=False)
        self._n = n
        self._members = arr

    @classmethod
    def full(cls, n: int) -> "StateSet":
        n = _state_count(n)
        return cls._from_sorted_unique(n, np.arange(n, dtype=np.int64))

    @classmethod
    def _from_sorted_unique(cls, n: int, arr: np.ndarray) -> "StateSet":
        # Trusted constructor: arr must already be sorted, unique, in range.
        obj = cls.__new__(cls)
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        obj._n = int(n)
        obj._members = arr
        return obj

    @property
    def n(self) -> int:
        return self._n

    @property
    def members(self) -> np.ndarray:
        return self._members

    def __len__(self) -> int:
        return int(self._members.size)

    def __contains__(self, x) -> bool:
        x = _as_index(x, "state")
        if not 0 <= x < self._n:
            return False
        pos = int(np.searchsorted(self._members, x))
        return pos < self._members.size and int(self._members[pos]) == x

    def __iter__(self):
        return (int(v) for v in self._members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSet)
            and self._n == other._n
            and self._members.size == other._members.size
            and bool(np.all(self._members == other._members))
        )

    def __repr__(self) -> str:
        if len(self) > 8:
            head = ", ".join(str(int(v)) for v in self._members[:8])
            return f"StateSet(n={self._n}, {{{head}, ...}} size={len(self)})"
        return f"StateSet(n={self._n}, {{{', '.join(str(int(v)) for v in self._members)}}})"


class Automaton:
    """n states, k letters, and one total successor map per letter.

    The transitions are stored once, as k rows of n targets: row c is the
    successor array of letter c.  The table is its transposed view, of
    shape (n, k): row x lists the targets of x under letters 0..k-1.
    Instances are immutable after construction and safe to share across
    workers.
    """

    def __init__(self, table):
        tab = _as_int_array(table, "transition table entries")
        if tab.ndim != 2:
            raise InvalidInputError("transition table must be 2-D (n rows, k columns)")
        n, k = tab.shape
        if n < 1 or k < 1:
            raise InvalidInputError("need at least one state and one letter")
        if tab.min() < 0 or tab.max() >= n:
            raise InvalidInputError(f"table entries must be states in [0, {n})")
        rows = np.array(tab.T, order="C")
        rows.setflags(write=False)
        self._rows = rows

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "Automaton":
        # Trusted constructor: rows must be a C-ordered (k, n) int64 array
        # of states in [0, n), with k, n >= 1; it is kept, not copied.
        obj = cls.__new__(cls)
        rows.setflags(write=False)
        obj._rows = rows
        return obj

    @property
    def n(self) -> int:
        return int(self._rows.shape[1])

    @property
    def k(self) -> int:
        return int(self._rows.shape[0])

    @property
    def table(self) -> np.ndarray:
        return self._rows.T

    def letter(self, c: int) -> np.ndarray:
        """Successor array of letter c (length n, read-only)."""
        c = _as_index(c, "letter")
        if not 0 <= c < self.k:
            raise InvalidInputError(f"letter {c} out of range [0, {self.k})")
        return self._rows[c]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automaton)
            and self._rows.shape == other._rows.shape
            and bool(np.array_equal(self._rows, other._rows))
        )

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, k={self.k})"


def _check_word(aut: Automaton, w: Word) -> None:
    top = max(w.letters, default=-1)
    if top >= aut.k:
        raise InvalidInputError(f"letter {top} out of range [0, {aut.k})")


def _check_state_set(aut: Automaton, A: StateSet) -> None:
    if A.n != aut.n:
        raise InvalidInputError(f"state set is over [0, {A.n}) but the automaton has {aut.n} states")


def apply_word(aut: Automaton, w: Word, x: int) -> int:
    """Follow w from state x, leftmost letter first."""
    x = _as_index(x, "state")
    if not 0 <= x < aut.n:
        raise InvalidInputError(f"state {x} out of range [0, {aut.n})")
    _check_word(aut, w)
    tab = aut.table
    for c in w:
        x = int(tab[x, c])
    return x


def _state_dtype(n: int) -> type:
    """int32 while the states [0, n) fit in it, else int64."""
    return np.int32 if n < 2**31 else np.int64


def _power(succ: np.ndarray, t: int) -> np.ndarray:
    """The successor array of t >= 1 applications of succ, by binary
    powering: t.bit_length() - 1 squarings and popcount(t) - 1 compositions,
    each one gather of n entries (mode="clip" skips the bounds check; every
    entry is a state).  States are held as int32 while they fit, and at
    most three such arrays are live at once."""
    base = succ.astype(_state_dtype(succ.size))
    out = None
    while True:
        if t & 1:
            out = base if out is None else base.take(out, mode="clip")
        t >>= 1
        if not t:
            return out
        base = base.take(base, mode="clip")


def _runs(letters: Iterable[int]) -> list[tuple[int, int]]:
    """The word as its runs of one letter, (letter, count) in order."""
    return [(c, len(list(run))) for c, run in itertools.groupby(letters)]


# A set image stops dropping duplicates once its set holds at most
# max(isqrt(n), _SMALL_SET) entries (_image_members).  A gather of 2048
# states takes 2.5-4.4 us at n = 5 * 10^4 and 10^6, a dedupe step 19-25 us
# on 2048 states and 3-7 us on 64 to 512: the entries kept cost less than
# the dedupe would even if the set shrank tenfold.  The phase-1 images that
# verification's phase-2 letters run on hold fewer than isqrt(n) states
# (291 at n = 10^6, 816 at 10^7).
_SMALL_SET = 1 << 11


def _image_members(aut: Automaton, runs: Iterable[tuple[int, int]], members: np.ndarray) -> np.ndarray:
    """Sorted unique image of members under a word given as its runs
    (letter c, count t), with letters in range and counts non-negative.

    A run steps letter by letter: each letter gathers img = succ[cur] and,
    while img holds more than max(isqrt(n), _SMALL_SET) entries, drops
    duplicates without a sort: slot[img] = positions leaves in slot[v]
    exactly one of the positions written to it, whichever numpy keeps, so
    img[slot[img] == positions] holds each value once, in O(|img|).  A set
    that small takes one gather a letter from then on and keeps its
    duplicates, at most that many entries, until the end.  A run whose
    steps could touch more entries than powering,
    t·|cur| > n·t.bit_length(), is instead one such gather of c's t-th
    power (_power).  The last power built is kept for the rest of the
    call, keyed by (c, t), so repeated blocks of a letter share it whatever
    the size of the set.  Slots and positions are int32 while the states
    fit.  One sort and an adjacent compare (_sorted_unique) come at the
    end; an empty word or set returns members itself.
    """
    n = aut.n
    small = max(math.isqrt(n), _SMALL_SET)
    slot = np.empty(n, dtype=_state_dtype(n))
    positions = np.arange(members.size, dtype=slot.dtype)
    cur = members
    key = power = None
    for c, t in runs:
        if not cur.size:
            break
        if (c, t) != key and t * cur.size > n * t.bit_length():
            power = None  # at most one power is held
            key, power = (c, t), _power(aut.letter(c), t)
        steps = [power] if (c, t) == key else itertools.repeat(aut.letter(c), t)
        for succ in steps:
            cur = succ[cur]
            if cur.size > small:
                pos = positions[:cur.size]
                slot[cur] = pos
                cur = cur[slot[cur] == pos]
    return members if cur is members else _sorted_unique(cur).astype(np.int64, copy=False)


def image(aut: Automaton, w: Word, A: StateSet) -> StateSet:
    """Set image of A under w, i.e. {apply_word(aut, w, x) : x in A}."""
    _check_state_set(aut, A)
    _check_word(aut, w)
    return StateSet._from_sorted_unique(aut.n, _image_members(aut, _runs(w), A.members))


def is_reset_word(aut: Automaton, w: Word) -> bool:
    """True iff w maps the full state set onto a single state."""
    return len(image(aut, w, StateSet.full(aut.n))) == 1


def iterate_unary_image(aut: Automaton, letter: int, t: int, A: StateSet) -> StateSet:
    """Image of A under t repetitions of one letter, image(aut, letter^t, A),
    as one run: a long run costs O(n log t), never t set steps."""
    letter = _as_index(letter, "letter")
    t = _as_index(t, "repetition count")
    if t < 0:
        raise InvalidInputError("repetition count must be non-negative")
    _check_state_set(aut, A)
    aut.letter(letter)  # range check
    members = _image_members(aut, [(letter, t)], A.members)
    return StateSet._from_sorted_unique(aut.n, members)


def cerny_automaton(n: int) -> Automaton:
    """The classic slowly synchronizing cyclic automaton C_n.

    Letter 'a' is the cyclic shift x -> x+1 (mod n); letter 'b' moves 0 to 1
    and fixes everything else.  Its shortest reset word has length (n-1)^2.
    """
    n = _as_index(n, "state count")
    if n < 2:
        raise InvalidInputError("C_n needs at least two states")
    table = np.empty((n, 2), dtype=np.int64)
    table[:, 0] = (np.arange(n) + 1) % n
    table[:, 1] = np.arange(n)
    table[0, 1] = 1
    return Automaton(table)


# --- "dfa v1" text format -------------------------------------------------
#
# line 1:  dfa v1 <n> <k>
# lines 2..n+1: row x holds k whitespace-separated targets, letters 0..k-1.
# Numbers are ASCII decimal; blank lines are ignored; there are no comments.

# write_dfa builds and writes the text of this many table rows at a time.
_DFA_BLOCK_ROWS = 1 << 14


def _dfa_lines(rows: np.ndarray, width: int) -> str:
    """The dfa v1 lines of a block of table rows, all entries below 10**width.

    Each entry gets width digit cells, leading zeros included, and one cell
    for the space after it, or for the newline after a row's last entry;
    one mask then drops the leading zeros.
    """
    k = rows.shape[1]
    v = rows.astype(_state_dtype(10**width)).ravel()
    cells = np.empty((v.size, width + 1), dtype=np.uint8)
    keep = np.ones(cells.shape, dtype=bool)
    for col in range(width - 1, -1, -1):
        q = v // 10
        cells[:, col] = v - 10 * q + ord("0")
        if col < width - 1:
            np.not_equal(v, 0, out=keep[:, col])  # v == 0: a leading zero
        v = q
    cells[:, width] = ord(" ")
    cells[k - 1 :: k, width] = ord("\n")
    return cells[keep].tobytes().decode("ascii")


def write_dfa(aut: Automaton, dest: str | Path | TextIO) -> None:
    """Serialize an automaton in the dfa v1 text format, writing the text of
    each block of _DFA_BLOCK_ROWS rows as soon as it is built."""
    n, k = aut.table.shape
    width = len(str(n - 1))
    with open(dest, "w") if isinstance(dest, (str, Path)) else contextlib.nullcontext(dest) as out:
        out.write(f"dfa v1 {n} {k}\n")
        for lo in range(0, n, _DFA_BLOCK_ROWS):
            out.write(_dfa_lines(aut.table[lo : lo + _DFA_BLOCK_ROWS], width))


def _dfa_header(stream: TextIO) -> tuple[str, int]:
    """The first non-blank line of stream, and how many lines it has read."""
    try:
        for count, line in enumerate(stream, 1):
            if line.strip():
                return line, count
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"undecodable dfa text: {exc}") from exc
    raise InvalidInputError("empty dfa file")


def read_dfa(source: str | Path | TextIO) -> Automaton:
    """Parse the dfa v1 text format into one table; malformed input raises
    InvalidInputError.

    numpy's C reader parses the rows.  Given a path, it opens the file
    itself and reads it in chunks, skipping the lines up to the header;
    given a text stream, it takes the lines after the header one at a time.
    """
    if isinstance(source, (str, Path)):
        with open(source) as stream:
            header, skip = _dfa_header(stream)
    else:
        header, _ = _dfa_header(source)
        skip = 0  # the stream is past its header
    head = header.split()
    nk = "".join(head[2:])
    if len(head) != 4 or head[:2] != ["dfa", "v1"] or not (nk.isascii() and nk.isdigit()):
        raise InvalidInputError(f"bad header {header.strip()!r}, expected 'dfa v1 <n> <k>'")
    n, k = int(head[2]), int(head[3])
    if n < 1 or k < 1:
        raise InvalidInputError("header must declare positive n and k")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy only warns, then truncates 1.5
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # no rows
        try:
            table = np.loadtxt(source, dtype=np.int64, ndmin=2, comments=None, skiprows=skip)
        except (ValueError, DeprecationWarning) as exc:  # a UnicodeDecodeError is a ValueError
            raise InvalidInputError(f"bad transition rows: {exc}") from exc
    if table.shape[0] != n:
        raise InvalidInputError(f"expected {n} transition rows, found {table.shape[0]}")
    if table.shape[1] != k:
        raise InvalidInputError(f"rows have {table.shape[1]} entries, expected {k}")
    return Automaton(table)
