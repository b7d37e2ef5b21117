"""Transition monoids of complete DFAs, syntactic orders, stable sequences.

Applied to a *minimal* DFA, the transition monoid is the syntactic monoid of
its language and the morphism below is the syntactic morphism: each element
is a transformation of the state set, named by a shortest witness word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DEFAULT_ELEMENT_BUDGET, budget_from_env, positive_budget
from .lang.dfa import Dfa, explore


@dataclass(frozen=True, eq=False)
class SyntacticMorphism:
    """A*→M for the transition monoid M of a complete DFA.

    `table[x, y]` is the product x·y (apply x first, then y). Element 0 is
    the identity (image of the empty word). `witness[x]` is a shortest word
    mapping to x, ties broken in alphabet order. `nonempty_image` is
    S = α(A⁺); `idempotents_s` lists E(S) in index order.
    """

    alphabet: tuple[str, ...]
    element_count: int
    table: np.ndarray
    identity: int
    letter_image: dict[str, int]
    accepting: frozenset[int]
    witness: tuple[str, ...]
    nonempty_image: frozenset[int]
    idempotents_s: tuple[int, ...]

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def evaluate(self, word: str) -> int:
        """Image of a word; raises KeyError on a symbol outside the alphabet."""
        x = self.identity
        for ch in word:
            x = int(self.table[x, self.letter_image[ch]])
        return x

    def omega(self, x: int) -> int:
        """The unique idempotent power of x."""
        y = x
        for _ in range(self.element_count + 1):
            if self.table[y, y] == y:
                return y
            y = int(self.table[y, x])
        raise AssertionError("no idempotent power found; table is not a monoid")


_INT32_MAX = np.iinfo(np.int32).max


def pair_index(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·n + y, x and y broadcast: where entry (x, y) of an n-column table
    lies once flattened, and a key equal exactly when both sides are. x is
    widened to intp when n² passes int32, and keeps its type otherwise."""
    return (x if n * n <= _INT32_MAX else np.asarray(x).astype(np.intp)) * n + y


def products(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """table[x, y], x and y broadcast, as one gather from the flattened
    table: the one way arrays of elements are multiplied."""
    return table.take(pair_index(table.shape[1], x, y))


# Entries of one block of the table fill's gathers, bounding its temporaries.
_FILL_ENTRIES = 1 << 16


def transition_monoid(d: Dfa, element_budget: Optional[int] = None) -> SyntacticMorphism:
    """Generate the transition monoid of `d` by BFS over transformations.

    Elements are state maps x: Q → Q, each kept as the bytes of its image
    row x(0) … x(n−1), one byte per state when a state index fits in a byte
    (n ≤ 256), two little-endian bytes otherwise. They are numbered in the
    order one `explore` BFS discovers them from the identity. The image of
    x under letter a, q ↦ a(x(q)), is one `bytes.translate` against a's
    256-byte table; at the two-byte width one `np.take` maps x through
    every letter at once.
    The BFS keeps its right Cayley graph `right[x, a]` = x·a, and the first
    edge reaching an element gives its parent and last letter (its witness
    is the parent's plus that letter: shortest, ties in alphabet order).
    x·y = (x·parent(y))·letter(y) fills the |M|² × 4-byte table one BFS
    level at a time, since every parent lies one level up: one gather per
    level, in column blocks of at most _FILL_ENTRIES = 2^16 entries (Froidure
    & Pin, "Algorithms for computing finite semigroups", 1997).

    Raises BudgetError past the element budget (default 20000, overridable
    via HIERARCHY_ONE_BUDGET), UsageError if it is not a positive int.
    """
    budget = positive_budget(element_budget, "element_budget") or budget_from_env(DEFAULT_ELEMENT_BUDGET)
    n = d.states
    letters = d.alphabet
    k = len(letters)
    if n <= 256:
        width = 1
        tables = [bytes(row[a] for row in d.delta).ljust(256, b"\0") for a in range(k)]

        def successors(vec: bytes) -> list[bytes]:
            return [vec.translate(t) for t in tables]
    else:
        width = 2
        maps = np.array(d.delta, dtype="<u2").reshape(n, k).T  # maps[a, q] = a(q)

        def successors(vec: bytes) -> list[bytes]:
            return [row.tobytes() for row in np.take(maps, np.frombuffer(vec, "<u2"), axis=1)]

    identity = b"".join(q.to_bytes(width, "little") for q in range(n))
    vectors, right = explore(identity, successors, budget,
                             stage=f"monoid BFS: DFA with {n} states", unit="element")
    count = len(vectors)
    # The BFS numbers elements as it scans its edges row by row, so the edge
    # that discovers y is the first with y == len(witnesses). When x starts
    # a BFS level, the level before is expanded and x's level is known:
    # `ends` marks where each level, cut into blocks of `step` columns, ends.
    step = max(1, _FILL_ENTRIES // count)
    witnesses, parent, last_letter, ends = [""], [0], [0], [1]
    for x, edges in enumerate(right):
        if x == ends[-1]:
            ends.extend(range(x + step, len(witnesses), step))
            ends.append(len(witnesses))
        for a, y in enumerate(edges):
            if y == len(witnesses):
                witnesses.append(witnesses[x] + letters[a])
                parent.append(x)
                last_letter.append(a)

    # x·y = (x·parent(y))·letter(y), and each parent lies one level up
    right_table = np.array(right, dtype=np.int32).reshape(count, k)
    parent = np.array(parent)
    last_letter = np.array(last_letter)
    table = np.empty((count, count), dtype=np.int32)
    table[:, 0] = np.arange(count, dtype=np.int32)
    for lo, hi in zip(ends, ends[1:]):
        table[:, lo:hi] = right_table[table[:, parent[lo:hi]], last_letter[lo:hi]]

    at = d.initial * width
    accepting = frozenset(x for x, vec in enumerate(vectors)
                          if int.from_bytes(vec[at:at + width], "little") in d.finals)
    nonempty = frozenset(right_table.ravel().tolist())
    idempotents = np.flatnonzero(table.diagonal() == np.arange(count)).tolist()
    idem_s = tuple(x for x in idempotents if x in nonempty)

    return SyntacticMorphism(
        alphabet=letters,
        element_count=count,
        table=table,
        identity=0,
        letter_image={letters[a]: int(right_table[0, a]) for a in range(k)},
        accepting=accepting,
        witness=tuple(witnesses),
        nonempty_image=nonempty,
        idempotents_s=idem_s,
    )


@dataclass(frozen=True, eq=False)
class OrderRelation:
    """The syntactic preorder: leq[s, t] iff xsy accepted implies xty accepted
    for all contexts x, y."""

    matrix: np.ndarray

    def leq(self, s: int, t: int) -> bool:
        return bool(self.matrix[s, t])

    def row_bits(self) -> list[str]:
        n = self.matrix.shape[1]
        text = (self.matrix.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
        return [text[i:i + n] for i in range(0, len(text), n)]


def syntactic_preorder(m: SyntacticMorphism) -> OrderRelation:
    """Greatest relation with s∈F ⇒ t∈F that is closed under translation
    by the letter generators on either side; equals the context definition.

    Each round ANDs into leq, in place, its translates leq[g·s, g·t] and
    leq[s·g, t·g] for every generator g, each gathered rows first and then
    columns, `leq[side][:, side]`: two passes over |M|² bytes that read
    whole rows, where one 2-D fancy gather reads entry by entry. Each
    relation on the way holds the greatest fixed point, reached by the first
    round that removes no pair; at most 3|M|² bytes are live."""
    n = m.element_count
    acc = np.zeros(n, dtype=bool)
    acc[sorted(m.accepting)] = True
    leq = ~acc[:, None] | acc[None, :]
    gens = sorted(set(m.letter_image.values()))
    while True:
        related = np.count_nonzero(leq)
        for g in gens:
            for side in (m.table[g, :], m.table[:, g]):
                leq &= leq[side][:, side]
        if np.count_nonzero(leq) == related:
            return OrderRelation(matrix=leq)


@dataclass(frozen=True)
class StableInfo:
    """Image sets by word length: sets[l] = α(Aˡ) for l < n0 + p, with
    sets[l + p] = sets[l] for all l ≥ n0; (n0, p) minimal. words[l] maps
    each element of sets[l] to a word of length l: elements in index order,
    letters in alphabet order, first word found wins."""

    sets: tuple[frozenset[int], ...]
    threshold: int
    period: int
    words: tuple[dict[int, str], ...]

    def at_length(self, length: int) -> frozenset[int]:
        if length < len(self.sets):
            return self.sets[length]
        return self.sets[self.threshold + (length - self.threshold) % self.period]


def stable_sequence(m: SyntacticMorphism) -> StableInfo:
    """Walk the layers α(Aˡ) until one repeats, naming each new element by
    the first product found: layer elements in index order, letters in
    alphabet order."""
    letters = sorted(m.letter_image)
    right = m.table[:, [m.letter_image[a] for a in letters]].tolist()
    layer = {m.identity: ""}
    seen: dict[frozenset[int], int] = {}
    words: list[dict[int, str]] = []
    while (current := frozenset(layer)) not in seen:
        seen[current] = len(words)
        words.append(layer)
        nxt: dict[int, str] = {}
        for e in sorted(layer):
            for a, z in zip(letters, right[e]):
                if z not in nxt:
                    nxt[z] = layer[e] + a
        layer = nxt
    n0 = seen[current]
    return StableInfo(sets=tuple(map(frozenset, words)), threshold=n0,
                      period=len(words) - n0, words=tuple(words))


def first_without_inverse(table: np.ndarray, identity: int) -> Optional[int]:
    """The least x of a multiplication table with no y such that
    x·y = y·x = identity, or None when every element has one. For each x
    it tests the least y with x·y = identity, over the whole table at once."""
    hits = table == identity
    right = hits.argmax(axis=1)
    ok = hits.any(axis=1) & (table[right, np.arange(len(table))] == identity)
    missing = np.flatnonzero(~ok)
    return int(missing[0]) if len(missing) else None


def is_group(m: SyntacticMorphism) -> bool:
    """True iff every element has a two-sided inverse."""
    return first_without_inverse(m.table, m.identity) is None


def monoid_to_dict(m: SyntacticMorphism, order: Optional[OrderRelation] = None) -> dict:
    data = {
        "alphabet": list(m.alphabet),
        "elements": [
            {"index": i, "witness": m.witness[i]} for i in range(m.element_count)
        ],
        "identity": m.identity,
        "letter_image": dict(sorted(m.letter_image.items())),
        "table": m.table.tolist(),
        "accepting": sorted(m.accepting),
        "nonempty_image": sorted(m.nonempty_image),
        "idempotents": list(m.idempotents_s),
    }
    if order is not None:
        data["order"] = order.row_bits()
    return data
