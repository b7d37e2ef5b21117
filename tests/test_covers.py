"""Cover and decomposition tests, with a brute-force splitter and the former
per-base and per-level loops as oracles."""

import random
import tracemalloc
from typing import Optional

import numpy as np
import pytest

from hierarchy_one import covers
from hierarchy_one.covers import (
    DEFAULT_COVER_BUDGET,
    CoverResult,
    GuardedDecomposition,
    block_images,
    guarded_decomposition,
    kernel_dfa,
    pgcov_cover,
    up_arrow,
)
from hierarchy_one.errors import BudgetError, UsageError
from hierarchy_one.lang import (
    Dfa,
    combine,
    compile_dfa,
    equivalent,
    includes,
    is_permutation_automaton,
    minimize,
)
from hierarchy_one.monoid import SyntacticMorphism, transition_monoid
from tests.conftest import (
    random_minimal_dfa,
    random_permutation_dfa,
    words_up_to,
)


def brute_in_up_arrow(l_dfa, word, x):
    """Can x be split as u0 w1 u1 w2 ... wn un with every ui in L?"""
    n = len(x)

    def l_member(i, j):
        state = l_dfa.initial
        for k in range(i, j):
            state = l_dfa.delta[state][l_dfa.symbol_index(x[k])]
        return state in l_dfa.finals

    positions = {j for j in range(n + 1) if l_member(0, j)}
    for bridge in word:
        crossed = {j + 1 for j in positions if j < n and x[j] == bridge}
        positions = {j2 for i in crossed for j2 in range(i, n + 1) if l_member(i, j2)}
    return n in positions


# --- oracles: the loops the layered cover and the array decomposition replaced ---


def loop_pgcov_cover(
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

    # The loop stops certified only once `includes(covered, h_min)` held;
    # what is left to check is that each base word lies in H and its ↑.
    if certified:
        certified = all(h_min.accepts(w) and arrow.accepts(w) for w, arrow in entries)
    return CoverResult(entries=tuple(entries), certified=certified)


def loop_guarded_decomposition(m: SyntacticMorphism, word: str) -> GuardedDecomposition:
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


# --- up arrow ------------------------------------------------------------------


def test_up_arrow_with_no_letters_is_the_language_itself():
    even = compile_dfa("(aa)*", "a")
    assert equivalent(up_arrow(even, ""), minimize(even))


def test_up_arrow_shifts_parity():
    even = compile_dfa("(aa)*", "a")
    assert equivalent(up_arrow(even, "a"), minimize(compile_dfa("a(aa)*", "a")))
    # both bridge letters are mandatory, so the empty word drops out
    assert equivalent(up_arrow(even, "aa"), minimize(compile_dfa("aa(aa)*", "a")))


def test_up_arrow_over_the_full_language_is_a_scattered_subword():
    full = compile_dfa("(a|b)*", "ab")
    assert equivalent(up_arrow(full, "ab"),
                      minimize(compile_dfa("(a|b)*a(a|b)*b(a|b)*", "ab")))


def test_up_arrow_agrees_with_brute_splitting():
    rng = random.Random(321)
    words6 = list(words_up_to(("a", "b"), 6))
    for _ in range(20):
        l_dfa = minimize(random_permutation_dfa(rng))
        gaps = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        arrow = up_arrow(l_dfa, gaps)
        for x in words6:
            assert arrow.accepts(x) == brute_in_up_arrow(l_dfa, gaps, x), (gaps, x)


def test_up_arrow_respects_the_state_budget():
    full = compile_dfa("(a|b)*", "ab")
    with pytest.raises(BudgetError):
        up_arrow(minimize(full), "ab" * 40, state_budget=16)


def test_up_arrow_budget_error_names_stage_and_size():
    even_a = minimize(compile_dfa("(b|ab*a)*", "ab"))
    with pytest.raises(BudgetError, match=r"budget \(16\) at stage up_arrow determinization: "
                       r"DFA with 2 states, word of length 80, 16 states found, 15 expanded$"):
        up_arrow(even_a, "ab" * 40, state_budget=16)


# --- kernel --------------------------------------------------------------------


def test_kernel_words_act_as_the_identity():
    l_dfa = minimize(compile_dfa("(b|ab*a)*", "ab"))
    ker = kernel_dfa(l_dfa)
    for w in words_up_to(("a", "b"), 5):
        if ker.accepts(w):
            for q in range(l_dfa.states):
                state = q
                for ch in w:
                    state = l_dfa.delta[state][l_dfa.symbol_index(ch)]
                assert state == q


def test_kernel_is_inside_any_epsilon_containing_group_language():
    rng = random.Random(654)
    for _ in range(10):
        l_dfa = minimize(random_permutation_dfa(rng))
        ker = kernel_dfa(l_dfa)
        assert includes(l_dfa, ker)[0]
        assert ker.initial in ker.finals


def test_parity_language_is_its_own_kernel():
    even = minimize(compile_dfa("(aa)*", "a"))
    assert equivalent(kernel_dfa(even), even)


# --- covers ----------------------------------------------------------------------


def test_unary_cover_splits_into_parities():
    res = pgcov_cover(compile_dfa("a*", "a"), compile_dfa("(aa)*", "a"))
    assert res.certified
    assert res.base_words() == ("", "a")
    assert equivalent(res.entries[0][1], minimize(compile_dfa("(aa)*", "a")))
    assert equivalent(res.entries[1][1], minimize(compile_dfa("a(aa)*", "a")))


def test_cover_bases_are_chosen_shortest_first():
    res = pgcov_cover(compile_dfa("(aaa)*", "a"), compile_dfa("(aa)*", "a"))
    assert res.certified
    assert res.base_words() == ("", "aaa")


def test_random_covers_are_certified_and_antichain():
    rng = random.Random(555)
    for _ in range(10):
        h = random_minimal_dfa(rng, max_states=4)
        l_dfa = random_permutation_dfa(rng, max_states=3)
        res = pgcov_cover(h, l_dfa)
        assert res.certified
        union = minimize(compile_dfa("%", "ab"))
        for _, arrow in res.entries:
            union = minimize(combine(union, arrow, "union"))
        assert includes(union, minimize(h))[0]
        ker = kernel_dfa(minimize(l_dfa))
        bases = res.base_words()
        for i, u in enumerate(bases):
            for j, v in enumerate(bases):
                if i != j:
                    assert not up_arrow(ker, u).accepts(v)


def test_largest_cover_is_certified_with_119_bases():
    # `(a|b)*aba(a|b)*` with length-mod-4 gaps: 119 bases in 7 length
    # layers, each one inclusion check, one word listing and one union of
    # its up-arrows, over products of up to ~1200 states.
    res = pgcov_cover(compile_dfa("(a|b)*aba(a|b)*", "ab"),
                      compile_dfa("((a|b)(a|b)(a|b)(a|b))*", "ab"))
    assert res.certified
    bases = res.base_words()
    assert len(bases) == 119
    assert (bases[0], bases[-1]) == ("aba", "bbbababbb")


# The cover cases of the benchmark's `constructions` workload, 4 to 119 bases.
BENCHMARK_COVERS = [
    (target, gaps)
    for gaps in ("(b|ab*a)*", "((a|b)(a|b))*", "((a|b)(a|b)(a|b))*", "((a|b)(a|b)(a|b)(a|b))*")
    for target in ("(a|b)*ab(a|b)*", "(a|b)*aba(a|b)*")
]


def _cut(full: CoverResult, max_bases: int) -> CoverResult:
    """The per-base loop's result under `max_bases`, read off its unbounded
    run: its first `max_bases` bases, certified only when none is cut."""
    return CoverResult(entries=full.entries[:max_bases],
                       certified=full.certified and max_bases >= len(full.entries))


def test_layered_cover_matches_the_per_base_loop_on_the_benchmark_covers():
    for target, gaps in BENCHMARK_COVERS:
        h, l_dfa = compile_dfa(target, "ab"), compile_dfa(gaps, "ab")
        assert pgcov_cover(h, l_dfa) == loop_pgcov_cover(h, l_dfa), (target, gaps)


def test_layered_cover_matches_the_per_base_loop_on_random_languages():
    rng = random.Random(2468)
    for _ in range(40):
        h = random_minimal_dfa(rng, max_states=4)
        l_dfa = random_permutation_dfa(rng, max_states=3)
        full = loop_pgcov_cover(h, l_dfa)
        assert pgcov_cover(h, l_dfa) == full
        cut = rng.randint(0, len(full.entries) + 1)
        assert pgcov_cover(h, l_dfa, max_bases=cut) == loop_pgcov_cover(h, l_dfa, max_bases=cut)


def test_cover_cuts_match_the_per_base_loop_at_every_budget():
    # every cut of the 32- and 37-base covers: at the start, inside and at
    # the end of each length layer; the loop's cuts are prefixes of its run
    for target in ("(a|b)*ab(a|b)*", "(a|b)*aba(a|b)*"):
        h, l_dfa = compile_dfa(target, "ab"), compile_dfa("((a|b)(a|b)(a|b))*", "ab")
        full = loop_pgcov_cover(h, l_dfa)
        assert len(full.entries) in (32, 37)
        for cut in range(len(full.entries) + 2):
            expected = loop_pgcov_cover(h, l_dfa, max_bases=cut)
            assert expected == _cut(full, cut)
            assert pgcov_cover(h, l_dfa, max_bases=cut) == expected, (target, cut)


def test_large_cover_cuts_match_the_per_base_loop():
    # every cut of the 95-base cover and the layer edges ±1 of the 119-base
    # one, against the prefixes of the loop's unbounded run (the previous
    # test checks that its cuts are those prefixes)
    gaps = compile_dfa("((a|b)(a|b)(a|b)(a|b))*", "ab")
    for target, size in (("(a|b)*ab(a|b)*", 95), ("(a|b)*aba(a|b)*", 119)):
        h = compile_dfa(target, "ab")
        full = loop_pgcov_cover(h, gaps)
        lengths = [len(w) for w in full.base_words()]
        assert len(lengths) == size
        if size == 95:
            cuts = range(size + 2)
        else:
            edges = [0] + [i for i in range(1, size) if lengths[i] != lengths[i - 1]] + [size]
            cuts = sorted({c for e in edges for c in (e - 1, e, e + 1) if c >= 0})
            assert len(edges) == 8  # 7 layers, lengths 3 to 9
        for cut in cuts:
            assert pgcov_cover(h, gaps, max_bases=cut) == _cut(full, cut), (target, cut)


def test_largest_cover_stays_within_its_memory_budget():
    # Balanced union trees of at most 8 up-arrows keep every product near
    # the size of the covered language (1.2 MB traced); one tree over a
    # whole 19-word layer built a 3 792-state product (2.7 MB).
    h = compile_dfa("(a|b)*aba(a|b)*", "ab")
    gaps = compile_dfa("((a|b)(a|b)(a|b)(a|b))*", "ab")
    tracemalloc.start()
    try:
        pgcov_cover(h, gaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000

def test_cover_budget_returns_partial_uncertified():
    res = pgcov_cover(compile_dfa("a*", "a"), compile_dfa("(aa)*", "a"),
                      max_bases=1)
    assert not res.certified
    assert len(res.entries) == 1


def test_cover_preconditions():
    target = compile_dfa("a*", "a")
    with pytest.raises(UsageError):
        pgcov_cover(target, compile_dfa("a(aa)*", "a"))  # no empty word
    with pytest.raises(UsageError):
        pgcov_cover(compile_dfa("a*b", "ab"), compile_dfa("a*b", "ab"))


# --- guarded decompositions -------------------------------------------------------


def test_short_words_stay_in_one_block():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    k = m.element_count**2
    word = "ab" * (k // 2)
    d = guarded_decomposition(m, word)
    assert d.blocks == (word,)
    assert d.links == ()
    assert d.verify(m, word)


def test_long_words_split_with_absorbing_links():
    rng = random.Random(11)
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    k = m.element_count**2
    for _ in range(30):
        n = rng.randint(1, 300)
        word = "".join(rng.choice("ab") for _ in range(n))
        d = guarded_decomposition(m, word)
        assert d.verify(m, word)
        assert (len(d.blocks) == 1) == (n <= k)
        assert all(d.blocks)
        assert "".join(d.blocks) == word
        idem = set(m.idempotents_s)
        for i, e in enumerate(d.links):
            assert e in idem
            assert m.mul(m.evaluate(d.blocks[i]), e) == m.evaluate(d.blocks[i])
            assert m.mul(e, m.evaluate(d.blocks[i + 1])) == m.evaluate(d.blocks[i + 1])


def test_decomposition_is_deterministic():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    word = "ab" * 120
    assert guarded_decomposition(m, word) == guarded_decomposition(m, word)


def test_decomposition_rejects_bad_input():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    with pytest.raises(UsageError):
        guarded_decomposition(m, "")
    with pytest.raises(UsageError):
        guarded_decomposition(m, "abc")


def test_verify_rejects_forged_decompositions():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    word = "ab" * 40
    d = guarded_decomposition(m, word)
    forged = type(d)(blocks=d.blocks, links=tuple(0 for _ in d.links))
    if d.links and d.links != forged.links:
        assert not forged.verify(m, word)
    assert not type(d)(blocks=("ab", ""), links=(0,)).verify(m, "ab")
    assert not d.verify(m, word + "ab")


def _ladder(k):
    """The monoid of `(a|b)*a(a|b)^(k-1)`, |M| = 2^(k+1) - 1."""
    return transition_monoid(minimize(compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab")))


def test_array_decomposition_matches_the_level_loop(morphism_corpus):
    # lengths around the level edges: a word of length N has N // (b+1)
    # levels for the block bound b = |M|², so b, b+1 and 2(b+1) ± 1 sit on
    # both sides of the first and second level
    rng = random.Random(1357)
    monoids = [_ladder(k) for k in range(1, 6)]
    monoids.append(transition_monoid(minimize(compile_dfa("(ab)*", "ab"))))
    monoids.extend(m for _, m in morphism_corpus[:30])
    assert max(m.element_count for m in monoids) >= 63
    for m in monoids:
        letters = sorted(m.letter_image)
        b = m.element_count**2
        lengths = [1, b, b + 1, b + 2, 2 * (b + 1) - 1, 2 * (b + 1) + 1]
        lengths += [rng.randint(1, 5 * b) for _ in range(3)]
        for n in lengths:
            word = "".join(rng.choices(letters, k=n))
            got = guarded_decomposition(m, word)
            assert got == loop_guarded_decomposition(m, word), (m.element_count, n)
            assert got.verify(m, word)


def test_block_images_match_evaluate_word_by_word(morphism_corpus):
    rng = random.Random(97531)
    for _, m in morphism_corpus[:40]:
        letters = sorted(m.letter_image)
        words = ["", *("".join(rng.choices(letters, k=rng.randint(0, 40))) for _ in range(12))]
        got = block_images(m, words)
        assert got.dtype == np.int32
        assert got.tolist() == [m.evaluate(w) for w in words]
        assert block_images(m, [""]).tolist() == [m.identity]
        assert block_images(m, []).tolist() == []
    with pytest.raises(KeyError):
        block_images(m, ["ab", "ac"])


def test_long_decomposition_stays_within_its_memory_budget():
    # The levels are scanned in chunks of at most _CHUNK_LETTERS letters;
    # the arrays of one chunk take about 60 bytes per letter, so a
    # 40 000-letter word held in one chunk would pass this budget.
    m = _ladder(4)
    assert m.element_count == 31
    word = "".join(random.Random(8642).choices("ab", k=40_000))
    tracemalloc.start()
    try:
        decomposition = guarded_decomposition(m, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(decomposition.blocks) == 42  # 40 000 // (31² + 1) levels and the head
    assert peak < 96 * covers._CHUNK_LETTERS
