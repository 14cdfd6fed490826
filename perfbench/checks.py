"""Reference computations and output checkers for the benchmark.

Nothing here imports synchrolab.  Every expected value is recomputed from
the raw transition table (an (n, k) integer array) with plain numpy, by
methods that differ from the program's own: a scatter-dedupe set image
instead of sorting, pointer doubling instead of a successor walk, a direct
text parse instead of read_dfa.  Each checker returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def phase1_length(n: int) -> int:
    """Length of the interleaved phase-1 word: ceil(sqrt n) + ceil(sqrt(log2 n)) * (1 + ceil(sqrt n))."""
    return ceil_sqrt(n) + math.ceil(math.sqrt(math.log2(n))) * (1 + ceil_sqrt(n))


def phase1_letters(n: int) -> list[int]:
    """The interleaved phase-1 word a^b (b a^b)^r with b = ceil(sqrt n), r = ceil(sqrt(log2 n))."""
    block = [0] * ceil_sqrt(n)
    return block + ([1] + block) * math.ceil(math.sqrt(math.log2(n)))


def unary_length(n: int) -> int:
    """Length ceil(2 sqrt(n ln n)) of the repeated-letter phase-1 word."""
    return math.ceil(2.0 * math.sqrt(n * math.log(n)))


def letters_of(text: str) -> list[int]:
    return [ord(ch) - ord("a") for ch in text]


def set_image(table: np.ndarray, letters, members=None) -> np.ndarray:
    """Sorted image of `members` (default: every state) under `letters`.

    Duplicates are dropped by scattering positions into an n-slot array and
    keeping the position that survived, which costs O(|set|) per letter.
    """
    n, k = table.shape
    cols = [np.ascontiguousarray(table[:, c]) for c in range(k)]
    cur = np.arange(n, dtype=np.int64) if members is None else np.asarray(members, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    for c in letters:
        nxt = cols[c][cur]
        pos = np.arange(nxt.size, dtype=np.int64)
        slot[nxt] = pos
        cur = nxt[slot[nxt] == pos]
    return np.sort(cur)


def eventual_image(succ: np.ndarray) -> np.ndarray:
    """States on a cycle of the map succ: the image of succ^(2^j) with
    2^j >= n, computed by pointer doubling."""
    g = np.asarray(succ, dtype=np.int64)
    for _ in range(max(1, (g.size - 1).bit_length())):
        g = g[g]
    return np.unique(g)


def cerny_table(n: int) -> np.ndarray:
    """C_n: a is x -> x+1 mod n, b sends 0 to 1 and fixes the rest."""
    table = np.empty((n, 2), dtype=np.int64)
    table[:, 0] = (np.arange(n) + 1) % n
    table[:, 1] = np.arange(n)
    table[0, 1] = 1
    return table


def dfa_text(table: np.ndarray) -> str:
    n, k = table.shape
    rows = "\n".join(" ".join(str(int(x)) for x in row) for row in table)
    return f"dfa v1 {n} {k}\n{rows}\n"


def parse_dfa(text: str) -> np.ndarray:
    """The transition table of a dfa v1 text, parsed by numpy's text
    reader in one pass, so the parse needs far less memory than the file
    has tokens."""
    header, _, body = text.partition("\n")
    fields = header.split()
    if len(fields) != 4 or fields[:2] != ["dfa", "v1"]:
        raise ValueError("not a dfa v1 file")
    n, k = int(fields[2]), int(fields[3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy warns, then stops, at a bad token
        try:
            entries = np.fromstring(body, dtype=np.int64, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(f"unparsable entry: {exc}") from None
    if entries.size != n * k:
        raise ValueError(f"expected {n * k} entries, found {entries.size}")
    return entries.reshape(n, k)


# --- checkers ---------------------------------------------------------------


def check_reset_word(table: np.ndarray, letters) -> list[str]:
    if any(not 0 <= c < table.shape[1] for c in letters):
        return ["word uses a letter outside the alphabet"]
    size = set_image(table, letters).size
    return [] if size == 1 else [f"word leaves {size} states, not 1"]


def check_sync_report(table: np.ndarray, report: dict) -> list[str]:
    """A `synchrolab sync` JSON report against the automaton it was run on."""
    n = table.shape[0]
    word = letters_of(report["word"])
    p1 = phase1_length(n)
    problems = []
    if report["length"] != len(word):
        problems.append(f"length {report['length']} but the word has {len(word)} letters")
    if report["phase1_length"] != p1:
        problems.append(f"phase1_length {report['phase1_length']}, expected {p1}")
    if report["phase1_length"] + report["phase2_length"] != len(word):
        problems.append("phase lengths do not add up to the word length")
    if word[:p1] != phase1_letters(n):
        problems.append("the word does not start with the interleaved phase-1 word")
    mid = set_image(table, phase1_letters(n)).size
    if report["intermediate_image_size"] != mid:
        problems.append(f"intermediate_image_size {report['intermediate_image_size']}, expected {mid}")
    if report["verified"] is not True:
        problems.append("report is not marked verified")
    return problems + check_reset_word(table, word)


def check_members(label: str, got, expected: np.ndarray) -> list[str]:
    got = np.asarray(got)
    if got.size != expected.size:
        return [f"{label}: {got.size} states, expected {expected.size}"]
    if not np.array_equal(got, expected):
        return [f"{label}: same size, different states"]
    return []


def check_round_trip(table: np.ndarray, file_text: str, read_back: np.ndarray) -> list[str]:
    problems = []
    try:
        written = parse_dfa(file_text)
    except ValueError as exc:
        return [f"dfa file does not parse: {exc}"]
    if not np.array_equal(written, table):
        problems.append("dfa file differs from the automaton written")
    if not np.array_equal(read_back, table):
        problems.append("automaton read back differs from the automaton written")
    return problems


def check_cerny(n: int, result: dict) -> list[str]:
    want = (n - 1) ** 2
    if result.get("word") is None:
        return [f"C_{n}: no reset word"]
    word = letters_of(result["word"])
    problems = [] if len(word) == want else [f"C_{n}: length {len(word)}, expected {want}"]
    if result.get("length") != len(word):
        problems.append(f"C_{n}: reported length {result.get('length')} but the word has {len(word)} letters")
    return problems + [f"C_{n}: {p}" for p in check_reset_word(cerny_table(n), word)]


def check_two_phase_rows(rows: dict) -> list[str]:
    """Rows of a two-phase experiment: {(n, trial): {quantity: value}}."""
    problems = []
    for (n, trial), q in sorted(rows.items()):
        if q.get("synchronizable") != 1.0:
            continue
        if q.get("phase1_length") != phase1_length(n):
            problems.append(f"n={n} trial {trial}: phase1_length {q.get('phase1_length')}, expected {phase1_length(n)}")
        if q.get("total_length") != q.get("phase1_length", 0) + q.get("phase2_length", 0):
            problems.append(f"n={n} trial {trial}: phase lengths do not add up")
        if q.get("verified") != 1.0:
            problems.append(f"n={n} trial {trial}: word not verified")
    return problems


def check_shared_trials(two_phase: dict, radius: dict, exact: dict) -> list[str]:
    """Trials of two-phase, pair-radius and reset-length run on the same
    (seed, n_list, trials) see the same automaton, so the merge radius is at
    most the shortest reset length, which is at most the two-phase length,
    and all three agree on whether the automaton synchronizes."""
    problems = []
    if not set(two_phase) == set(radius) == set(exact):
        return ["the three experiments did not run the same trials"]
    for key in sorted(two_phase):
        tp, rd, ex = two_phase[key], radius[key], exact[key]
        flags = (tp.get("synchronizable"), rd.get("synchronizable_pairs"), ex.get("synchronizable"))
        if len(set(flags)) != 1:
            problems.append(f"n={key[0]} trial {key[1]}: synchronizable flags disagree {flags}")
        elif flags[0] == 1.0 and not rd["radius"] <= ex["length"] <= tp["total_length"]:
            problems.append(
                f"n={key[0]} trial {key[1]}: radius {rd['radius']} <= exact {ex['length']}"
                f" <= two-phase {tp['total_length']} fails"
            )
    return problems
