"""Small fixture automata and plain-Python reference searches shared across
test modules."""

from collections import deque

import numpy as np

from synchrolab import Automaton, Word


def constant_automaton(n: int, k: int = 2) -> Automaton:
    """Every letter maps every state to 0."""
    return Automaton(np.zeros((n, k), dtype=np.int64))


def permutation_automaton(n: int, k: int = 2) -> Automaton:
    """Letter 0 is the cyclic shift, all other letters the identity; no pair
    of distinct states can ever merge."""
    table = np.tile(np.arange(n, dtype=np.int64).reshape(-1, 1), (1, k))
    table[:, 0] = (np.arange(n) + 1) % n
    return Automaton(table)


def chain_automaton() -> Automaton:
    """Unary 3-state chain 0 -> 1 -> 2 -> 2."""
    return Automaton([[1], [2], [2]])


def reference_dfa_text(aut: Automaton) -> str:
    """Plain-Python twin of synchrolab.write_dfa: the header line, then one
    line per row with its entries joined by single spaces."""
    lines = [f"dfa v1 {aut.n} {aut.k}"]
    for row in aut.table:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def reference_merge_search(aut: Automaton, sources, max_len=None):
    """Plain-Python twin of synchrolab.sync._merge_search.

    sources are canonical pairs (x < y) in lexicographic order; a pair's
    label is its index there.  A level-by-level BFS over unordered pairs:
    each level is listed in code order (u * n + v, i.e. lexicographic), and
    a node reached from several nodes of the level before keeps the smallest
    (label, letter, parent position).  At the first level where some pair
    merges, the smallest (label, letter, position) merge wins.  Returns
    (label, letters) or None when nothing merges within max_len letters
    (None = search to exhaustion).
    """
    maps = [aut.letter(c).tolist() for c in range(aut.k)]
    level = [tuple(p) for p in sources]
    node = {pair: (label, ()) for label, pair in enumerate(level)}
    visited = set(level)
    depth = 0
    while level:
        if max_len is not None and depth + 1 > max_len:
            return None
        merges, reached = [], {}
        for pos, (u, v) in enumerate(level):
            label, word = node[(u, v)]
            for c, f in enumerate(maps):
                a, b = f[u], f[v]
                if a == b:
                    merges.append((label, c, pos, word + (c,)))
                    continue
                pair = (min(a, b), max(a, b))
                key = (label, c, pos)
                if pair not in visited and (pair not in reached or key < reached[pair][0]):
                    reached[pair] = (key, word + (c,))
        if merges:
            label, _c, _pos, word = min(merges)
            return label, word
        level = sorted(reached)
        node = {pair: (key[0], word) for pair, (key, word) in reached.items()}
        visited.update(level)
        depth += 1
    return None


def _reference_subset_image_tables(aut: Automaton, chunks: int) -> list[list[list[int]]]:
    # tables[c][j][byte] = image mask of the byte placed at bit offset 8*j.
    n = aut.n
    tables = []
    for c in range(aut.k):
        tc = aut.letter(c)
        per_chunk = []
        for j in range(chunks):
            tbl = [0] * 256
            for b in range(1, 256):
                low = b & (-b)
                state = 8 * j + low.bit_length() - 1
                bit = 1 << int(tc[state]) if state < n else 0
                tbl[b] = tbl[b ^ low] | bit
            per_chunk.append(tbl)
        tables.append(per_chunk)
    return tables


def reference_exact_reset(aut: Automaton) -> Word | None:
    """Plain-Python twin of synchrolab.sync.exact_shortest_reset, without its
    capacity guard: a queue-driven BFS over int subset masks with a parent
    dict, trying letters in order and returning at the first new singleton.
    """
    n = aut.n
    if n == 1:
        return Word()
    full = (1 << n) - 1
    chunks = (n + 7) // 8
    tables = _reference_subset_image_tables(aut, chunks)
    parent: dict[int, tuple[int, int] | None] = {full: None}
    queue = deque([full])
    while queue:
        mask = queue.popleft()
        for c in range(aut.k):
            tabs = tables[c]
            img = 0
            rest = mask
            for j in range(chunks):
                img |= tabs[j][rest & 0xFF]
                rest >>= 8
            if img in parent:
                continue
            parent[img] = (mask, c)
            if img.bit_count() == 1:
                letters_rev = []
                at = img
                while parent[at] is not None:
                    prev, letter = parent[at]
                    letters_rev.append(letter)
                    at = prev
                return Word(reversed(letters_rev))
            queue.append(img)
    return None
