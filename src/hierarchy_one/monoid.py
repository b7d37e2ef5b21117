"""Transition monoids of complete DFAs, syntactic orders, stable sequences.

Applied to a *minimal* DFA, the transition monoid is the syntactic monoid of
its language and the morphism below is the syntactic morphism: each element
is a transformation of the state set, named by a shortest witness word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DEFAULT_ELEMENT_BUDGET, budget_from_env
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

    def omega_plus_one(self, x: int) -> int:
        return int(self.table[self.omega(x), x])


def transition_monoid(d: Dfa, element_budget: Optional[int] = None) -> SyntacticMorphism:
    """Generate the transition monoid of `d` by BFS over transformations.

    The BFS keeps its right Cayley graph `right[x, a]` = x·a and each
    element's parent and last letter; the table is then filled column by
    column in BFS order, x·y = (x·parent(y))·letter(y): |M| gathers of
    length |M|, |M|² × 4 bytes (Froidure & Pin, "Algorithms for computing
    finite semigroups", 1997).

    Raises BudgetError when the monoid would exceed the element budget
    (default 20000, overridable via HIERARCHY_ONE_BUDGET).
    """
    budget = element_budget if element_budget is not None else budget_from_env(DEFAULT_ELEMENT_BUDGET)
    n = d.states
    letters = d.alphabet
    letter_vec = [tuple(d.delta[q][a] for q in range(n)) for a in range(len(letters))]

    vectors, right = explore(
        tuple(range(n)),
        lambda vec: [tuple(lv[q] for q in vec) for lv in letter_vec],
        budget, stage=f"monoid BFS: DFA with {n} states", unit="element")
    # The first edge of the Cayley graph reaching an element discovered it.
    witnesses = [""] * len(vectors)
    parent = [0] * len(vectors)
    last_letter = [0] * len(vectors)
    for x, edges in enumerate(right):
        for a, y in enumerate(edges):
            if y > x and not witnesses[y]:
                witnesses[y] = witnesses[x] + letters[a]
                parent[y], last_letter[y] = x, a

    count = len(vectors)
    right_table = np.array(right, dtype=np.int32)
    table = np.empty((count, count), dtype=np.int32)
    table[:, 0] = np.arange(count, dtype=np.int32)
    for y in range(1, count):
        table[:, y] = right_table[table[:, parent[y]], last_letter[y]]

    accepting = frozenset(x for x, vec in enumerate(vectors) if vec[d.initial] in d.finals)
    nonempty = frozenset(x for edges in right for x in edges)
    diag = table[np.arange(count), np.arange(count)]
    idem_s = tuple(int(x) for x in np.nonzero(diag == np.arange(count))[0] if int(x) in nonempty)

    return SyntacticMorphism(
        alphabet=letters,
        element_count=count,
        table=table,
        identity=0,
        letter_image={letters[a]: int(right_table[0, a]) for a in range(len(letters))},
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
        return ["".join("1" if v else "0" for v in row) for row in self.matrix]


def syntactic_preorder(m: SyntacticMorphism) -> OrderRelation:
    """Greatest relation with s∈F ⇒ t∈F that is closed under translation
    by the letter generators on either side; equals the context definition."""
    n = m.element_count
    acc = np.zeros(n, dtype=bool)
    acc[sorted(m.accepting)] = True
    leq = ~acc[:, None] | acc[None, :]
    gens = sorted(set(m.letter_image.values()))
    while True:
        prev = leq
        for g in gens:
            left = np.asarray(m.table[g, :])
            right = np.asarray(m.table[:, g])
            leq = leq & leq[np.ix_(left, left)] & leq[np.ix_(right, right)]
        if np.array_equal(prev, leq):
            return OrderRelation(matrix=leq)


def preorder_context_scan(m: SyntacticMorphism, context_order: Optional[list[tuple[int, int]]] = None) -> OrderRelation:
    """Reference preorder by scanning all (x, y) contexts; |M|⁴ work, so only
    sensible for small monoids (≤ ~200 elements)."""
    n = m.element_count
    acc = np.zeros(n, dtype=bool)
    acc[sorted(m.accepting)] = True
    contexts = context_order
    if contexts is None:
        contexts = [(x, y) for x in range(n) for y in range(n)]
    leq = np.ones((n, n), dtype=bool)
    table = m.table
    for x, y in contexts:
        # row s of ctx: x·s·y accepted?
        ctx_acc = acc[table[table[x, :], y]]
        leq &= ~ctx_acc[:, None] | ctx_acc[None, :]
    return OrderRelation(matrix=leq)


@dataclass(frozen=True)
class StableInfo:
    """Image sets by word length: sets[l] = α(Aˡ) for l < n0 + p, with
    sets[l + p] = sets[l] for all l ≥ n0; (n0, p) minimal."""

    sets: tuple[frozenset[int], ...]
    threshold: int
    period: int

    def at_length(self, length: int) -> frozenset[int]:
        if length < len(self.sets):
            return self.sets[length]
        return self.sets[self.threshold + (length - self.threshold) % self.period]


def stable_sequence(m: SyntacticMorphism) -> StableInfo:
    gens = sorted(set(m.letter_image.values()))
    current = frozenset({m.identity})
    seen = {current: 0}
    seq = [current]
    while True:
        current = frozenset(int(m.table[t, g]) for t in current for g in gens)
        if current in seen:
            n0 = seen[current]
            period = len(seq) - n0
            return StableInfo(sets=tuple(seq), threshold=n0, period=period)
        seen[current] = len(seq)
        seq.append(current)


def is_group(m: SyntacticMorphism) -> bool:
    """True iff every element has a two-sided inverse."""
    n = m.element_count
    for x in range(n):
        inv = np.nonzero(np.asarray(m.table[x, :]) == m.identity)[0]
        if len(inv) == 0 or m.table[int(inv[0]), x] != m.identity:
            return False
    return True


def words_by_length(m: SyntacticMorphism, max_length: int) -> list[dict[int, str]]:
    """For each length l ≤ max_length, a word of length l per reachable element
    (deterministic: elements in index order, letters in alphabet order)."""
    letters = sorted(m.letter_image)
    layers = [{m.identity: ""}]
    for _ in range(max_length):
        cur = layers[-1]
        nxt: dict[int, str] = {}
        for e in sorted(cur):
            for a in letters:
                z = int(m.table[e, m.letter_image[a]])
                if z not in nxt:
                    nxt[z] = cur[e] + a
        layers.append(nxt)
    return layers


def monoid_to_dict(m: SyntacticMorphism, order: Optional[OrderRelation] = None) -> dict:
    data = {
        "alphabet": list(m.alphabet),
        "elements": [
            {"index": i, "witness": m.witness[i]} for i in range(m.element_count)
        ],
        "identity": m.identity,
        "letter_image": dict(sorted(m.letter_image.items())),
        "table": [[int(v) for v in row] for row in m.table],
        "accepting": sorted(m.accepting),
        "nonempty_image": sorted(m.nonempty_image),
        "idempotents": list(m.idempotents_s),
    }
    if order is not None:
        data["order"] = order.row_bits()
    return data
