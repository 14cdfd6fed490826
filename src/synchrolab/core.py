"""Deterministic finite automata over dense integer transition tables.

States are the integers [0, n); letters are the integers [0, k) and map to
the characters 'a', 'b', ... in textual form.  Words act leftmost letter
first: a word w = w1 w2 ... wm sends x to the m-fold composition applied in
reading order.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from collections.abc import Iterable
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import InvalidInputError

_MAX_TEXT_ALPHABET = 26


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


def _sorted_unique(values: np.ndarray, low_bits: int = 0) -> np.ndarray:
    """The values sorted, as a new flat array, keeping the first of each run
    of values that agree above their `low_bits` lowest bits: the distinct
    values when low_bits is 0.  One sort and an adjacent compare; numpy's
    own unique is far slower on integer arrays."""
    arr = np.sort(values, axis=None)
    if arr.size > 1:
        keep = np.empty(arr.size, dtype=bool)
        keep[0] = True
        if low_bits:
            differ = arr[1:] ^ arr[:-1]
            differ >>= low_bits
            np.not_equal(differ, 0, out=keep[1:])
            del differ
        else:
            np.not_equal(arr[1:], arr[:-1], out=keep[1:])
        arr = arr[keep]
    return arr


class Word:
    """Immutable letter sequence; may be empty."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(_as_index(c, "letter") for c in letters)
        for c in letters:
            if c < 0:
                raise InvalidInputError(f"negative letter {c}")
        self._letters = letters

    @classmethod
    def from_text(cls, text: str) -> "Word":
        return cls(char_to_letter(ch) for ch in text)

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    @property
    def text(self) -> str:
        return "".join(letter_to_char(c) for c in self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __getitem__(self, i):
        return self._letters[i]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._letters + other._letters)

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

    The table has shape (n, k): row x lists the targets of x under letters
    0..k-1.  Instances are immutable after construction and safe to share
    across workers.
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
        tab = tab.copy()
        tab.setflags(write=False)
        self._table = tab
        self._letters = []
        for c in range(k):
            col = np.ascontiguousarray(tab[:, c])
            col.setflags(write=False)
            self._letters.append(col)

    @property
    def n(self) -> int:
        return int(self._table.shape[0])

    @property
    def k(self) -> int:
        return int(self._table.shape[1])

    @property
    def table(self) -> np.ndarray:
        return self._table

    def letter(self, c: int) -> np.ndarray:
        """Successor array of letter c (length n, read-only)."""
        if not 0 <= c < self.k:
            raise InvalidInputError(f"letter {c} out of range [0, {self.k})")
        return self._letters[c]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automaton)
            and self._table.shape == other._table.shape
            and bool(np.array_equal(self._table, other._table))
        )

    def __repr__(self) -> str:
        return f"Automaton(n={self.n}, k={self.k})"


def _check_word(aut: Automaton, w: Word) -> None:
    for c in w:
        if c >= aut.k:
            raise InvalidInputError(f"letter {c} out of range [0, {aut.k})")


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


def _image_members(aut: Automaton, letters: Iterable[int], members: np.ndarray) -> np.ndarray:
    """Sorted unique image of members under letters, which must be in range.

    Each letter gathers t = succ[members] and drops duplicates without a
    sort: slot[t] = positions leaves in slot[v] exactly one of the positions
    written to it, whichever numpy keeps, so t[slot[t] == positions] holds
    each value once, in O(|t|).  The one sort comes at the end; an empty
    word returns members itself.
    """
    slot = np.empty(aut.n, dtype=np.int64)
    positions = np.arange(members.size, dtype=np.int64)
    cur = members
    for c in letters:
        t = aut.letter(c)[cur]
        pos = positions[:t.size]
        slot[t] = pos
        cur = t[slot[t] == pos]
    return members if cur is members else np.sort(cur)


def image(aut: Automaton, w: Word, A: StateSet) -> StateSet:
    """Set image of A under w, i.e. {apply_word(aut, w, x) : x in A}."""
    if A.n != aut.n:
        raise InvalidInputError(
            f"state set is over [0, {A.n}) but the automaton has {aut.n} states"
        )
    _check_word(aut, w)
    return StateSet._from_sorted_unique(aut.n, _image_members(aut, w, A.members))


def is_reset_word(aut: Automaton, w: Word) -> bool:
    """True iff w maps the full state set onto a single state."""
    return len(image(aut, w, StateSet.full(aut.n))) == 1


def iterate_unary_image(aut: Automaton, letter: int, t: int, A: StateSet) -> StateSet:
    """Image of A under t repetitions of one letter, image(aut, letter^t, A)."""
    letter = _as_index(letter, "letter")
    t = _as_index(t, "repetition count")
    if t < 0:
        raise InvalidInputError("repetition count must be non-negative")
    if A.n != aut.n:
        raise InvalidInputError(
            f"state set is over [0, {A.n}) but the automaton has {aut.n} states"
        )
    aut.letter(letter)  # range check
    members = _image_members(aut, itertools.repeat(letter, t), A.members)
    return StateSet._from_sorted_unique(aut.n, members)


def cerny_automaton(n: int) -> Automaton:
    """The classic slowly synchronizing cyclic automaton C_n.

    Letter 'a' is the cyclic shift x -> x+1 (mod n); letter 'b' moves 0 to 1
    and fixes everything else.  Its shortest reset word has length (n-1)^2.
    """
    n = int(n)
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


def write_dfa(aut: Automaton, dest: str | Path | TextIO) -> None:
    """Serialize an automaton in the dfa v1 text format."""
    n, k = aut.table.shape
    row = " ".join(["%d"] * k) + "\n"
    text = f"dfa v1 {n} {k}\n" + row * n % tuple(aut.table.ravel().tolist())
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text)
    else:
        dest.write(text)


def read_dfa(source: str | Path | TextIO) -> Automaton:
    """Parse the dfa v1 text format; malformed input raises InvalidInputError."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty dfa file")
    head = lines[0].split()
    nk = "".join(head[2:])
    if len(head) != 4 or head[:2] != ["dfa", "v1"] or not (nk.isascii() and nk.isdigit()):
        raise InvalidInputError(f"bad header {lines[0]!r}, expected 'dfa v1 <n> <k>'")
    n, k = int(head[2]), int(head[3])
    if n < 1 or k < 1:
        raise InvalidInputError("header must declare positive n and k")
    body = lines[1:]
    if len(body) != n:
        raise InvalidInputError(f"expected {n} transition rows, found {len(body)}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy only warns, then truncates 1.5
        try:
            table = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)
        except (ValueError, DeprecationWarning) as exc:
            raise InvalidInputError(f"bad transition rows: {exc}") from exc
    if table.shape[1] != k:
        raise InvalidInputError(f"rows have {table.shape[1]} entries, expected {k}")
    return Automaton(table)
