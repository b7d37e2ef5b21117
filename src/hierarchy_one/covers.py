"""Covering constructions for group-language polynomial closures.

`up_arrow(L, w)` builds L a₁ L a₂ ⋯ aₙ L — the words obtained by stuffing
words of L between the letters of w. When L is a group language containing
the empty word, finitely many such languages cover any regular H:
`pgcov_cover` picks base words greedily (shortest first), takes each
layer's up-arrows out of what is left of H, and certifies the result once
nothing is left. `guarded_decomposition` cuts a long word into
blocks linked by idempotents that absorb the neighbouring block images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DEFAULT_STATE_BUDGET, AlphabetError, UsageError, budget_from_env, positive_budget
from .lang.dfa import (
    Dfa,
    combine,
    determinize,
    is_empty,
    is_permutation_automaton,
    minimize,
    node_mask,
    words_of_length,
)
# includes and transition_monoid have no caller here; the benchmark tracer
# (perfbench/spans.py) wraps them in this namespace too.
from .lang.dfa import includes  # noqa: F401
from .monoid import SyntacticMorphism, pair_index, products, transition_monoid  # noqa: F401

DEFAULT_COVER_BUDGET = 256
# Up-arrows per balanced union tree; each tree's union is then taken out of
# the uncovered language. A tree over a whole layer of the 119-base
# benchmark cover ended in a 3 792-state product of two unrelated halves
# (2.7 MB traced peak); with 8 arrows per tree no product passes 1 335
# states (1.0 MB).
_MERGE_WIDTH = 8


def up_arrow(l_dfa: Dfa, word: str, state_budget: Optional[int] = None) -> Dfa:
    """The language L w₁ L w₂ ⋯ wₙ L, minimized.

    Built as an NFA of n+1 copies of L's automaton with a bridge per letter
    of `word` (final state of copy i → initial of copy i+1), then
    determinized. Node c·|Q| + q is state q of copy c."""
    budget = positive_budget(state_budget, "state_budget") or budget_from_env(DEFAULT_STATE_BUDGET)
    n_states = l_dfa.states
    last = len(word) * n_states  # the first node of the last copy
    steps = [[1 << (c + t) for c in range(0, last + n_states, n_states) for t in column]
             for column in zip(*l_dfa.delta)]
    for c, ch in zip(range(0, last, n_states), word):
        step = steps[l_dfa.symbol_index(ch)]
        for q in l_dfa.finals:
            step[c + q] |= 1 << (c + n_states + l_dfa.initial)
    return minimize(determinize(
        l_dfa.alphabet, steps, 1 << l_dfa.initial,
        node_mask(last + q for q in l_dfa.finals), budget,
        stage=f"up_arrow determinization: DFA with {n_states} states, word of length {len(word)}"))


@dataclass(frozen=True)
class CoverResult:
    """A finite cover of H by up-arrow languages of L: entries pair each base
    word with its automaton. `certified` means no word of H was left outside
    the arrows and each base lies in H and its own arrow (False when the
    base budget ran out first)."""

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
    one: the loop runs once per length layer. It keeps one automaton, the
    words of H that no chosen arrow holds yet; its shortest word gives the
    layer's length, one search lists the layer, and the layer's up-arrows,
    merged in balanced trees of `_MERGE_WIDTH`, are taken out of it."""
    if max_bases is not None and (type(max_bases) is not int or max_bases < 0):
        raise UsageError(f"max_bases must be a non-negative integer, got {max_bases!r}")
    budget = DEFAULT_COVER_BUDGET if max_bases is None else max_bases
    h_min = minimize(h_dfa)
    l_min = minimize(l_dfa)
    if h_min.alphabet != l_min.alphabet:
        raise AlphabetError(f"alphabet mismatch: {h_min.alphabet!r} vs {l_min.alphabet!r}")
    if not is_permutation_automaton(l_min):
        raise UsageError("the gap language must be a group language "
                         "(its minimal automaton must be a permutation automaton)")
    if l_min.initial not in l_min.finals:
        raise UsageError("the gap language must contain the empty word")

    left = h_min  # the words of H that no chosen up-arrow holds yet
    entries: list[tuple[str, Dfa]] = []
    while (gap := is_empty(left)) is not None:
        room = budget - len(entries)
        if room <= 0:
            break
        # One word past the room tells a cut inside the layer from one at its end.
        layer = words_of_length(left, len(gap), room + 1)
        arrows = [up_arrow(l_min, w) for w in layer[:room]]
        entries.extend(zip(layer, arrows))
        if len(layer) > room:
            break
        for first in range(0, len(arrows), _MERGE_WIDTH):
            group = _union(arrows[first: first + _MERGE_WIDTH])
            left = minimize(combine(left, group, "difference"))

    # Nothing of H is left uncovered only when the loop ran out of gaps;
    # what is left to check is that each base word lies in H and its ↑.
    certified = gap is None and all(
        h_min.accepts(w) and arrow.accepts(w) for w, arrow in entries)
    return CoverResult(entries=tuple(entries), certified=certified)


# Letters per batch of decomposition levels: bounds the scan arrays, whose
# size would otherwise grow with the word.
_CHUNK_LETTERS = 1 << 14


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


def _reduce(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The product of each row, multiplying adjacent columns pairwise."""
    while rows.shape[1] > 1:
        half = products(table, rows[:, 0:-1:2], rows[:, 1::2])
        if rows.shape[1] % 2:
            half = np.column_stack((half, rows[:, -1]))
        rows = half
    return rows[:, 0]


def _fold(table: np.ndarray, view: np.ndarray, start: int, step: int, reverse: bool) -> None:
    """view[:, c] ← view[:, c − step]·view[:, c] for c = start, start + 2·step, …
    in place; the factors are swapped when `reverse`."""
    right = view[:, start::2 * step]
    left = view[:, start - step::2 * step][:, :right.shape[1]]
    right[...] = products(table, right, left) if reverse else products(table, left, right)


def _scan(table: np.ndarray, rows: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Inclusive products along each row, x₀⋯xᵢ at column i (xᵢ⋯x_last when
    `reverse`): a work-efficient scan of about two table gathers per entry
    (Blelloch, "Prefix sums and their applications", 1990). The up-sweep
    leaves at column i the product of the aligned run of 2^k columns that
    ends there, 2^k the largest power of two dividing i + 1; the down-sweep
    then puts in front of each run the complete prefix to its left. A
    reverse scan runs on the mirrored columns with the factors swapped."""
    rows = rows.copy()
    view = rows[:, ::-1] if reverse else rows
    step = 1
    while 2 * step <= rows.shape[1]:
        _fold(table, view, 2 * step - 1, step, reverse)
        step *= 2
    while step > 1:
        step //= 2
        _fold(table, view, 3 * step - 1, step, reverse)
    return rows


def block_images(m: SyntacticMorphism, words: Sequence[str]) -> np.ndarray:
    """α of each word, as an int32 array: padded batch reductions, each
    word's letter images in a row filled up with the identity. A batch takes
    consecutive words up to `_CHUNK_LETTERS` padded letters (or one longer
    word), so memory follows the longest word, not their number."""
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    images = np.empty(len(words), dtype=np.int32)
    lo = 0
    while lo < len(words):
        # padded size of the batch words[lo:lo + i + 1]; it grows with i
        widths = np.maximum.accumulate(np.maximum(lengths[lo:lo + _CHUNK_LETTERS], 1))
        count = max(1, int((widths * np.arange(1, len(widths) + 1) <= _CHUNK_LETTERS).sum()))
        hi = lo + count
        rows = np.full((count, int(widths[count - 1])), m.identity, dtype=np.int32)
        rows[np.arange(rows.shape[1]) < lengths[lo:hi, None]] = _letter_images(
            m, "".join(words[lo:hi]))
        images[lo:hi] = _reduce(m.table, rows)
        lo = hi
    return images


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
        try:
            images = block_images(m, self.blocks)
        except KeyError:
            return False  # a symbol outside the alphabet has no image
        left, right = images[:-1], images[1:]
        links = np.array(self.links, dtype=np.int32)
        return bool((products(m.table, left, links) == left).all()
                    and (products(m.table, links, right) == right).all())


def _word_images(m: SyntacticMorphism, text: str) -> np.ndarray:
    """`_letter_images` of a slice of a word being decomposed: UsageError
    naming the first symbol outside the alphabet."""
    try:
        return _letter_images(m, text)
    except KeyError as exc:
        raise UsageError(f"symbol {exc.args[0]!r} is outside the morphism's alphabet") from None


def guarded_decomposition(m: SyntacticMorphism, word: str) -> GuardedDecomposition:
    """Split `word` into blocks glued by idempotent links.

    Words of length ≤ |M|² stay in one block. Longer words are cut by
    scanning the last |M|²+1 letters for two positions with equal prefix and
    suffix images (a pigeonhole over M×M pairs, smallest (i, j) first); the
    loop between them yields the idempotent link, and the head recurses.

    The head always shrinks by |M|²+1 letters, so level ℓ scans the fixed
    window word[N−(ℓ+1)(|M|²+1) : N−ℓ(|M|²+1)]: the windows tile the word
    after its first N mod (|M|²+1) letters. They are stacked into arrays in
    chunks of about `_CHUNK_LETTERS` letters, front to back, each chunk's
    letter images read in one pass over one slice of the word (which also
    names the first symbol outside the alphabet, after the chunks in front
    of it have been decomposed: the price of reading the word once). Prefix and suffix images
    come from work-efficient scans, so a word costs O(N) table lookups; the
    first collision from a stable sort of each row (a radix sort while the
    keys fit 16 bits, |M| ≤ 255); each loop from a reduction over the
    widest loop of its chunk."""
    if word == "":
        raise UsageError("the empty word has no block decomposition")
    n = len(word)
    width = m.element_count**2 + 1
    head = n % width  # the letters before the first window
    _word_images(m, word[:head])  # checked first: their symbols come first
    per_chunk = max(1, _CHUNK_LETTERS // width) * width
    # Keys lie below |M|² < width, so they fit the smallest unsigned type
    # holding width − 1. numpy's stable sort is a radix sort on 8- and
    # 16-bit integers (width ≤ 2^16) and a merge sort on wider ones.
    key_type = np.min_scalar_type(width - 1)

    # The block starting at a window's cut runs on to the next window's cut,
    # which keeps the link before it valid: e·α(b) = α(b) gives e·α(bu) = α(bu).
    cuts: list[int] = [0]
    links: list[int] = []
    for lo in range(head, n, per_chunk):
        letters = _word_images(m, word[lo: lo + per_chunk]).reshape(-1, width)
        rows = np.arange(len(letters))
        prefixes = _scan(m.table, letters)
        suffixes = np.full_like(letters, m.identity)
        suffixes[:, :-1] = _scan(m.table, letters[:, 1:], reverse=True)
        keys = pair_index(m.element_count, prefixes, suffixes).astype(key_type, copy=False)
        # A stable sort keeps equal keys in position order, so the key after
        # position i, when equal, marks the smallest j > i colliding with i.
        order = np.argsort(keys, axis=1, kind="stable")
        ordered = np.take_along_axis(keys, order, axis=1)
        starts = np.where(ordered[:, 1:] == ordered[:, :-1], order[:, :-1], width)
        at = starts.argmin(axis=1)
        i_s, j_s = starts[rows, at], order[rows, at + 1]
        # Pigeonhole: width = |M|²+1 (prefix, suffix) image pairs over at
        # most |M|² values, so every row has a collision.
        assert (i_s < width).all()
        # Each row's cut lies before x_{i+1}, at `after` within the chunk; its
        # loop x_{i+1}⋯x_j is filled up with the identity to the widest loop
        # of the chunk.
        after = rows * width + i_s + 1
        lengths = j_s - i_s
        spans = np.arange(lengths.max())
        loops = letters.take(after[:, None] + spans, mode="clip")
        loops = _reduce(m.table, np.where(spans < lengths[:, None], loops, m.identity))
        values, which = np.unique(loops, return_inverse=True)
        links.extend(np.array([m.omega(int(x)) for x in values])[which].tolist())
        cuts.extend((lo + after).tolist())
    cuts.append(n)
    return GuardedDecomposition(
        blocks=tuple(word[a:b] for a, b in zip(cuts, cuts[1:])),
        links=tuple(links),
    )
