"""Cover and decomposition tests, with a brute-force splitter as the oracle."""

import random

import pytest

from hierarchy_one.covers import (
    guarded_decomposition,
    kernel_dfa,
    pgcov_cover,
    up_arrow,
)
from hierarchy_one.errors import BudgetError, UsageError
from hierarchy_one.lang import combine, compile_dfa, equivalent, includes, minimize
from hierarchy_one.monoid import transition_monoid
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
    # `(a|b)*aba(a|b)*` with length-mod-4 gaps: 119 rounds of union,
    # minimization and inclusion over products of up to ~1100 states.
    res = pgcov_cover(compile_dfa("(a|b)*aba(a|b)*", "ab"),
                      compile_dfa("((a|b)(a|b)(a|b)(a|b))*", "ab"))
    assert res.certified
    bases = res.base_words()
    assert len(bases) == 119
    assert (bases[0], bases[-1]) == ("aba", "bbbababbb")


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
