"""Covering constructions for group-language polynomial closures.

`up_arrow(L, w)` builds L a₁ L a₂ ⋯ aₙ L — the words obtained by stuffing
words of L between the letters of w. When L is a group language containing
the empty word, finitely many such languages cover any regular H:
`pgcov_cover` picks base words greedily (shortest first) and certifies the
result by automaton inclusion. `guarded_decomposition` cuts a long word into
blocks linked by idempotents that absorb the neighbouring block images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DEFAULT_STATE_BUDGET, UsageError, budget_from_env
from .lang.dfa import (
    Dfa,
    combine,
    explore,
    includes,
    is_permutation_automaton,
    minimize,
    words_of_length,
)
from .monoid import SyntacticMorphism, transition_monoid

DEFAULT_COVER_BUDGET = 256
# Up-arrows per balanced union tree; each tree's union then joins the covered
# language. A tree over a whole layer of the 119-base benchmark cover ended
# in a 3 792-state product of two unrelated halves (2.7 MB traced peak); with
# 8 arrows per tree no product passes 1 185 states (1.2 MB).
_MERGE_WIDTH = 8


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

    order, rows = explore(
        frozenset({l_dfa.initial}),
        lambda subset: [moves(subset, a) for a in range(n_letters)],
        budget,
        stage=f"up_arrow determinization: DFA with {n_states} states, word of length {len(word)}")
    finals = frozenset(
        i for i, subset in enumerate(order)
        if any(g // n_states == copies - 1 and g % n_states in l_dfa.finals for g in subset)
    )
    raw = Dfa(
        alphabet=l_dfa.alphabet,
        states=len(order),
        initial=0,
        finals=finals,
        delta=rows,
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


def _union(dfas: list[Dfa]) -> Dfa:
    """The minimized union of a non-empty list, merged as a balanced tree."""
    while len(dfas) > 1:
        merged = [minimize(combine(x, y, "union")) for x, y in zip(dfas[::2], dfas[1::2])]
        dfas = merged + dfas[len(merged) * 2:]
    return dfas[0]


def pgcov_cover(
    h_dfa: Dfa,
    l_dfa: Dfa,
    max_bases: Optional[int] = None,
) -> CoverResult:
    """Cover H with up-arrow languages ↑w of L, choosing base words greedily.

    Preconditions: minimize(L) is a permutation automaton and accepts the
    empty word. Each base is the shortest word of H not yet covered
    (alphabet-order tie-break), so the chosen bases form an antichain: no
    base sits inside ↑ of another, even with gaps restricted to the kernel
    of L's transition group.

    As ε ∈ L, the words of ↑w are at least |w| long and ↑w holds no other
    word of length |w|. So the greedy choice takes every uncovered word of
    the shortest uncovered length, in alphabet order, before any longer
    one: the loop runs once per length layer, listing the layer's words in
    one search and merging their up-arrows into the covered language in
    balanced trees of `_MERGE_WIDTH`."""
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
        room = budget - len(entries)
        if room <= 0:
            break
        # One word past the room tells a cut inside the layer from one at its end.
        layer = words_of_length(combine(h_min, covered, "difference"), len(gap), room + 1)
        arrows = [up_arrow(l_min, w) for w in layer[:room]]
        entries.extend(zip(layer, arrows))
        if len(layer) > room:
            break
        for first in range(0, len(arrows), _MERGE_WIDTH):
            group = _union(arrows[first: first + _MERGE_WIDTH])
            covered = minimize(combine(covered, group, "union"))

    # The loop stops certified only once `includes(covered, h_min)` held;
    # what is left to check is that each base word lies in H and its ↑.
    if certified:
        certified = all(h_min.accepts(w) and arrow.accepts(w) for w, arrow in entries)
    return CoverResult(entries=tuple(entries), certified=certified)


# Letters per batch of decomposition levels: bounds the scan arrays, whose
# size would otherwise grow with the word.
_CHUNK_LETTERS = 1 << 14
_INT32_MAX = np.iinfo(np.int32).max


def _letter_images(m: SyntacticMorphism, text: str) -> np.ndarray:
    """α of each letter of `text`, as int32; KeyError on a symbol outside
    the alphabet, as `m.evaluate` raises."""
    size = max(map(ord, m.letter_image), default=0) + 2  # the last code maps no letter
    lut = np.full(size, -1, dtype=np.int32)
    for ch, x in m.letter_image.items():
        lut[ord(ch)] = x
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    images = lut[np.minimum(codes, size - 1)]
    unknown = np.flatnonzero(images < 0)
    if unknown.size:
        raise KeyError(text[unknown[0]])
    return images


def _pair_index(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·|M| + y elementwise: the position of the product x·y in the
    flattened table, and a key that is equal exactly when both sides are."""
    n = len(table)
    return (x if n * n <= _INT32_MAX else x.astype(np.int64)) * n + y


def _mul(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·y elementwise, one gather from the flattened table."""
    return np.take(table, _pair_index(table, x, y))


def _reduce(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The product of each row, multiplying adjacent columns pairwise."""
    while rows.shape[1] > 1:
        half = _mul(table, rows[:, 0:-1:2], rows[:, 1::2])
        if rows.shape[1] % 2:
            half = np.column_stack((half, rows[:, -1]))
        rows = half
    return rows[:, 0]


def _scan(table: np.ndarray, rows: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Inclusive products along each row, x₀⋯xᵢ at column i (xᵢ⋯x_last when
    `reverse`): a Hillis–Steele scan of table gathers (Hillis & Steele,
    "Data parallel algorithms", 1986)."""
    rows = rows.copy()
    shift = 1
    while shift < rows.shape[1]:
        if reverse:
            rows[:, :-shift] = _mul(table, rows[:, :-shift], rows[:, shift:])
        else:
            rows[:, shift:] = _mul(table, rows[:, :-shift], rows[:, shift:])
        shift *= 2
    return rows


def block_images(m: SyntacticMorphism, words: Sequence[str]) -> np.ndarray:
    """α of each word, as an int32 array: one padded batch reduction, each
    word's letter images in a row filled up with the identity."""
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    rows = np.full((len(words), int(lengths.max(initial=1))), m.identity, dtype=np.int32)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = _letter_images(m, "".join(words))
    return _reduce(m.table, rows)


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
        if not set(self.links) <= set(m.idempotents_s):
            return False
        images = block_images(m, self.blocks)
        left, right = images[:-1], images[1:]
        links = np.array(self.links, dtype=np.int32)
        return bool((_mul(m.table, left, links) == left).all()
                    and (_mul(m.table, links, right) == right).all())


def guarded_decomposition(m: SyntacticMorphism, word: str) -> GuardedDecomposition:
    """Split `word` into blocks glued by idempotent links.

    Words of length ≤ |M|² stay in one block. Longer words are cut by
    scanning the last |M|²+1 letters for two positions with equal prefix and
    suffix images (a pigeonhole over M×M pairs, smallest (i, j) first); the
    loop between them yields the idempotent link, and the head recurses.

    The head always shrinks by |M|²+1 letters, so level ℓ scans the fixed
    window word[N−(ℓ+1)(|M|²+1) : N−ℓ(|M|²+1)]. Levels are stacked into
    arrays in chunks of about `_CHUNK_LETTERS` letters: prefix and suffix
    images by scans, the first collision by a stable sort of each row."""
    if word == "":
        raise UsageError("the empty word has no block decomposition")
    unknown = set(word).difference(m.letter_image)
    if unknown:
        ch = next(ch for ch in word if ch in unknown)
        raise UsageError(f"symbol {ch!r} is outside the morphism's alphabet")
    n = len(word)
    width = m.element_count**2 + 1
    levels = n // width
    per_chunk = max(1, _CHUNK_LETTERS // width)
    columns = np.arange(width)

    blocks_rev: list[str] = []
    links_rev: list[int] = []
    # Suffix carried from the level below: it extends the *right* end of the
    # next block emitted, which keeps every link to its right valid (a link
    # absorbing α(b) on the left also absorbs α(b·u)).
    carry = ""
    for first in range(0, levels, per_chunk):
        last = min(levels, first + per_chunk)
        tails = [word[n - (level + 1) * width: n - level * width] for level in range(first, last)]
        letters = _letter_images(m, "".join(tails)).reshape(last - first, width)
        prefixes = _scan(m.table, letters)
        suffixes = np.full_like(letters, m.identity)
        suffixes[:, :-1] = _scan(m.table, letters, reverse=True)[:, 1:]
        keys = _pair_index(m.table, prefixes, suffixes)
        # A stable sort keeps equal keys in position order, so the key after
        # position i, when equal, marks the smallest j > i colliding with i.
        order = np.argsort(keys, axis=1, kind="stable")
        ordered = np.take_along_axis(keys, order, axis=1)
        starts = np.where(ordered[:, 1:] == ordered[:, :-1], order[:, :-1], width)
        at = starts.argmin(axis=1)
        rows = np.arange(len(tails))
        i_s, j_s = starts[rows, at], order[rows, at + 1]
        # Pigeonhole: width = |M|²+1 (prefix, suffix) image pairs over at
        # most |M|² values, so every row has a collision.
        assert (i_s < width).all()
        inside = (columns > i_s[:, None]) & (columns <= j_s[:, None])
        loops = _reduce(m.table, np.where(inside, letters, m.identity))
        links_rev.extend(m.omega(int(x)) for x in loops)
        for tail, i in zip(tails, i_s.tolist()):
            blocks_rev.append(tail[i + 1:] + carry)
            carry = tail[: i + 1]
    blocks_rev.append(word[: n - levels * width] + carry)
    return GuardedDecomposition(
        blocks=tuple(reversed(blocks_rev)),
        links=tuple(reversed(links_rev)),
    )
