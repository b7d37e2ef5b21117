"""Covering constructions for group-language polynomial closures.

`up_arrow(L, w)` builds L a₁ L a₂ ⋯ aₙ L — the words obtained by stuffing
words of L between the letters of w. When L is a group language containing
the empty word, finitely many such languages cover any regular H:
`pgcov_cover` picks base words greedily (shortest first) and certifies the
result by automaton inclusion. `guarded_decomposition` cuts a long word into
blocks linked by idempotents that absorb the neighbouring block images.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_STATE_BUDGET, BudgetError, UsageError, budget_from_env
from .lang.dfa import (
    Dfa,
    combine,
    includes,
    is_permutation_automaton,
    minimize,
)
from .monoid import SyntacticMorphism, transition_monoid

DEFAULT_COVER_BUDGET = 256


def up_arrow(l_dfa: Dfa, word: str, state_budget: Optional[int] = None) -> Dfa:
    """The language L w₁ L w₂ ⋯ wₙ L, minimized.

    Built as an NFA of n+1 copies of L's automaton with a bridge per letter
    of `word` (final state of copy i → initial of copy i+1), then
    determinized."""
    budget = budget_from_env(DEFAULT_STATE_BUDGET) if state_budget is None else state_budget
    n_states = l_dfa.states
    n_letters = len(l_dfa.alphabet)
    bridge = [l_dfa.symbol_index(ch) for ch in word]
    copies = len(word) + 1

    def moves(subset: frozenset[int], a: int) -> frozenset[int]:
        out = set()
        for g in subset:
            copy, q = divmod(g, n_states)
            out.add(copy * n_states + l_dfa.delta[q][a])
            if copy < copies - 1 and q in l_dfa.finals and bridge[copy] == a:
                out.add((copy + 1) * n_states + l_dfa.initial)
        return frozenset(out)

    last = copies - 1
    initial = frozenset({l_dfa.initial})
    index = {initial: 0}
    order = [initial]
    rows = []
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        row = []
        for a in range(n_letters):
            nxt = moves(subset, a)
            if nxt not in index:
                if len(order) >= budget:
                    raise BudgetError(
                        f"determinization exceeded the state budget ({budget}) at stage "
                        f"up_arrow determinization: DFA with {n_states} states, word of "
                        f"length {len(word)}, {len(order)} states found, {len(rows)} expanded")
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    finals = frozenset(
        i for i, subset in enumerate(order)
        if any(g // n_states == last and g % n_states in l_dfa.finals for g in subset)
    )
    raw = Dfa(
        alphabet=l_dfa.alphabet,
        states=len(order),
        initial=0,
        finals=finals,
        delta=tuple(tuple(r) for r in rows),
    )
    return minimize(raw)


def kernel_dfa(l_dfa: Dfa) -> Dfa:
    """The words acting as the identity on `l_dfa`'s states (for a
    permutation automaton: the kernel of its transition group)."""
    m = transition_monoid(l_dfa)
    delta = tuple(
        tuple(int(m.table[x, m.letter_image[sym]]) for sym in l_dfa.alphabet)
        for x in range(m.element_count)
    )
    return minimize(Dfa(
        alphabet=l_dfa.alphabet,
        states=m.element_count,
        initial=m.identity,
        finals=frozenset({m.identity}),
        delta=delta,
    ))


@dataclass(frozen=True)
class CoverResult:
    """A finite cover of H by up-arrow languages of L: entries pair each base
    word with its automaton. `certified` means the union was re-verified to
    include H (False when the base budget ran out first)."""

    entries: tuple[tuple[str, Dfa], ...]
    certified: bool

    def base_words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.entries)


def pgcov_cover(
    h_dfa: Dfa,
    l_dfa: Dfa,
    max_bases: Optional[int] = None,
) -> CoverResult:
    """Cover H with up-arrow languages ↑w of L, choosing base words greedily.

    Preconditions: minimize(L) is a permutation automaton and accepts the
    empty word. Each round adds the shortest word of H not yet covered
    (alphabet-order tie-break), so the chosen bases form an antichain: no
    base sits inside ↑ of another, even with gaps restricted to the kernel
    of L's transition group."""
    budget = max_bases if max_bases is not None else DEFAULT_COVER_BUDGET
    h_min = minimize(h_dfa)
    l_min = minimize(l_dfa)
    if not is_permutation_automaton(l_min):
        raise UsageError("the gap language must be a group language "
                         "(its minimal automaton must be a permutation automaton)")
    if l_min.initial not in l_min.finals:
        raise UsageError("the gap language must contain the empty word")

    covered = Dfa(alphabet=h_min.alphabet, states=1, initial=0,
                  finals=frozenset(), delta=((0,) * len(h_min.alphabet),))
    entries: list[tuple[str, Dfa]] = []
    certified = False
    while True:
        ok, gap = includes(covered, h_min)
        if ok:
            certified = True
            break
        if len(entries) >= budget:
            break
        arrow = up_arrow(l_min, gap)
        entries.append((gap, arrow))
        covered = minimize(combine(covered, arrow, "union"))

    if certified:
        certified = includes(covered, h_min)[0] and all(
            h_min.accepts(w) and arrow.accepts(w) for w, arrow in entries
        )
    return CoverResult(entries=tuple(entries), certified=certified)


@dataclass(frozen=True)
class GuardedDecomposition:
    """Blocks w₁ ⋯ w_{n+1} of a word plus idempotent links e₁ ⋯ eₙ with
    α(wᵢ)eᵢ = α(wᵢ) and eᵢα(wᵢ₊₁) = α(wᵢ₊₁)."""

    blocks: tuple[str, ...]
    links: tuple[int, ...]

    def word(self) -> str:
        return "".join(self.blocks)

    def verify(self, m: SyntacticMorphism, word: Optional[str] = None) -> bool:
        if len(self.blocks) == 0 or any(not b for b in self.blocks):
            return False
        if len(self.links) != len(self.blocks) - 1:
            return False
        if word is not None and self.word() != word:
            return False
        idem = set(m.idempotents_s)
        for i, e in enumerate(self.links):
            if e not in idem:
                return False
            left = m.evaluate(self.blocks[i])
            right = m.evaluate(self.blocks[i + 1])
            if m.mul(left, e) != left or m.mul(e, right) != right:
                return False
        return True


def guarded_decomposition(m: SyntacticMorphism, word: str) -> GuardedDecomposition:
    """Split `word` into blocks glued by idempotent links.

    Words of length ≤ |M|² stay in one block. Longer words are cut by
    scanning the last |M|²+1 letters for two positions with equal prefix and
    suffix images (a pigeonhole over M×M pairs, smallest (i, j) first); the
    loop between them yields the idempotent link, and the head recurses."""
    if word == "":
        raise UsageError("the empty word has no block decomposition")
    for ch in word:
        if ch not in m.letter_image:
            raise UsageError(f"symbol {ch!r} is outside the morphism's alphabet")
    k = m.element_count**2

    blocks_rev: list[str] = []
    links_rev: list[int] = []
    # Suffix carried from the level below: it extends the *right* end of the
    # next block emitted, which keeps every link to its right valid (a link
    # absorbing α(b) on the left also absorbs α(b·u)).
    carry = ""
    rest = word
    while len(rest) > k:
        head, tail = rest[: -(k + 1)], rest[-(k + 1):]
        prefixes = [0] * (k + 1)
        acc = m.identity
        for i, ch in enumerate(tail):
            acc = m.mul(acc, m.letter_image[ch])
            prefixes[i] = acc
        suffixes = [0] * (k + 1)
        suffixes[k] = m.identity
        for i in range(k - 1, -1, -1):
            suffixes[i] = m.mul(m.letter_image[tail[i + 1]], suffixes[i + 1])
        found = None
        for i in range(k):
            for j in range(i + 1, k + 1):
                if prefixes[i] == prefixes[j] and suffixes[i] == suffixes[j]:
                    found = (i, j)
                    break
            if found is not None:
                break
        # Pigeonhole: k+1 (prefix, suffix) image pairs over at most |M|² = k
        # values, so a collision always exists.
        assert found is not None
        i, j = found
        loop = m.evaluate(tail[i + 1: j + 1])
        blocks_rev.append(tail[i + 1:] + carry)
        links_rev.append(m.omega(loop))
        carry = tail[: i + 1]
        rest = head
    blocks_rev.append(rest + carry)
    return GuardedDecomposition(
        blocks=tuple(reversed(blocks_rev)),
        links=tuple(reversed(links_rev)),
    )
