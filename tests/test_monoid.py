"""Syntactic monoid tests against hand-composed transformation tables."""

import itertools
import random

import numpy as np
import pytest

from hierarchy_one.errors import BudgetError
from hierarchy_one.lang import compile_dfa, minimize
from hierarchy_one.monoid import (
    is_group,
    preorder_context_scan,
    stable_sequence,
    syntactic_preorder,
    transition_monoid,
    words_by_length,
)
from tests.conftest import random_minimal_dfa


def hand_transition_monoid(d):
    """Independent reference: compose state maps tuple-by-tuple, BFS order."""
    ident = tuple(range(d.states))
    letters = {sym: tuple(d.delta[q][i] for q in range(d.states))
               for i, sym in enumerate(d.alphabet)}
    index = {ident: 0}
    words = [""]
    maps = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for tr in frontier:
            for sym in d.alphabet:
                out = tuple(letters[sym][tr[q]] for q in range(d.states))
                if out not in index:
                    index[out] = len(maps)
                    words.append(words[maps.index(tr)] + sym)
                    maps.append(out)
                    nxt.append(out)
        frontier = nxt
    table = [[index[tuple(maps[y][maps[x][q]] for q in range(d.states))]
              for y in range(len(maps))] for x in range(len(maps))]
    return index, words, table


def test_table_matches_hand_composition_for_ab_star():
    d = minimize(compile_dfa("(ab)*", "ab"))
    index, words, table = hand_transition_monoid(d)
    m = transition_monoid(d)
    assert m.element_count == len(index) == 6
    assert list(m.witness) == words
    assert [[int(v) for v in row] for row in m.table] == table
    assert m.identity == 0


def ladder_dfa(k):
    """The k-th-letter-from-end language: 2^k states, |M| = 2^(k+1) - 1."""
    return minimize(compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab"))


def test_table_matches_hand_composition_on_random_dfas():
    rng = random.Random(515)
    for _ in range(25):
        d = random_minimal_dfa(rng, max_states=4)
        index, words, table = hand_transition_monoid(d)
        m = transition_monoid(d)
        assert m.element_count == len(index)
        assert [[int(v) for v in row] for row in m.table] == table
    # more than 15 states, and a cyclic monoid with 17 elements
    larger = [(ladder_dfa(4), 16, 31), (ladder_dfa(5), 32, 63),
              (minimize(compile_dfa("(" + "a" * 17 + ")*", "a")), 17, 17)]
    for d, states, size in larger:
        index, words, table = hand_transition_monoid(d)
        m = transition_monoid(d)
        assert (d.states, m.element_count, len(index)) == (states, size, size)
        assert list(m.witness) == words
        assert [[int(v) for v in row] for row in m.table] == table
    for k in (6, 7):
        m = transition_monoid(ladder_dfa(k))
        t = np.asarray(m.table)
        ids = np.arange(m.element_count)
        assert (t[m.identity, :] == ids).all() and (t[:, m.identity] == ids).all()
        assert np.array_equal(t[t, :], t[:, t])  # (xy)z == x(yz)


def test_monoid_sizes_for_named_languages():
    sizes = {
        "(ab)*": ("ab", 6),
        "(a|b)*a(a|b)*b(a|b)*": ("ab", 5),
        "(a|b)*a(a|b)*": ("ab", 2),
        "(aa)*": ("a", 2),
        "a": ("ab", 3),
    }
    for pattern, (alphabet, size) in sizes.items():
        m = transition_monoid(minimize(compile_dfa(pattern, alphabet)))
        assert m.element_count == size, pattern


def test_evaluate_is_a_morphism():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    rng = random.Random(32)
    for _ in range(50):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        assert m.evaluate(u + v) == m.mul(m.evaluate(u), m.evaluate(v))


def test_accepting_set_is_language_image():
    d = minimize(compile_dfa("(ab)*", "ab"))
    m = transition_monoid(d)
    for w in ["", "ab", "abab", "a", "b", "ba", "aab"]:
        assert (m.evaluate(w) in m.accepting) == d.accepts(w)


def test_witnesses_are_shortest_lex_first():
    rng = random.Random(616)
    for _ in range(10):
        d = random_minimal_dfa(rng, max_states=4)
        m = transition_monoid(d)
        first_hit = {}
        queue = [""]
        while len(first_hit) < m.element_count:
            nxt = []
            for w in queue:
                e = m.evaluate(w)
                if e not in first_hit:
                    first_hit[e] = w
                nxt.extend(w + c for c in d.alphabet)
            queue = nxt
        for e in range(m.element_count):
            assert m.witness[e] == first_hit[e]


# --- omega powers ------------------------------------------------------------


def brute_omega(m, x):
    seen = []
    cur = x
    while cur not in seen:
        seen.append(cur)
        cur = m.mul(cur, x)
    power = x
    while m.mul(power, power) != power:
        power = m.mul(power, x)
    return power


def test_omega_is_the_unique_idempotent_power(morphism_corpus):
    for _, m in morphism_corpus[:40]:
        for x in range(m.element_count):
            w = m.omega(x)
            assert m.mul(w, w) == w
            assert w == brute_omega(m, x)
            assert m.omega_plus_one(x) == m.mul(w, x) == m.mul(x, w)


# --- syntactic preorder ------------------------------------------------------


def test_preorder_agrees_with_full_context_scan(morphism_corpus):
    rng = random.Random(717)
    for _, m in morphism_corpus[:25]:
        fast = syntactic_preorder(m)
        contexts = list(itertools.product(range(m.element_count), repeat=2))
        rng.shuffle(contexts)
        slow = preorder_context_scan(m, context_order=contexts)
        assert np.array_equal(fast.matrix, slow.matrix)


def test_preorder_axioms(morphism_corpus):
    rng = random.Random(718)
    for _, m in morphism_corpus[:30]:
        order = syntactic_preorder(m)
        leq = order.matrix
        n = m.element_count
        assert leq.diagonal().all()  # reflexive
        # transitive: leq ∘ leq ⊆ leq
        closure = np.zeros_like(leq)
        for s in range(n):
            closure[s] = leq[leq[s]].any(axis=0)
        assert not (closure & ~leq).any()
        # compatible with product and upper-closed on the accepting set
        acc = np.zeros(n, dtype=bool)
        acc[sorted(m.accepting)] = True
        for _ in range(60):
            s, t, x, y = (rng.randrange(n) for _ in range(4))
            if leq[s, t]:
                assert leq[m.mul(m.mul(x, s), y), m.mul(m.mul(x, t), y)]
                if acc[s]:
                    assert acc[t]


def test_order_on_singleton_a_language():
    # the order distinguishes {a}: 1 ≤ a fails because inserting a second a
    # leaves the language
    m = transition_monoid(minimize(compile_dfa("a", "ab")))
    order = syntactic_preorder(m)
    a = m.evaluate("a")
    assert not order.leq(m.identity, a)
    assert order.leq(m.evaluate("aa"), a)


# --- length stabilization ----------------------------------------------------


def test_stable_sequence_on_parity_language():
    m = transition_monoid(minimize(compile_dfa("(aa)*", "a")))
    info = stable_sequence(m)
    assert (info.threshold, info.period) == (0, 2)
    assert info.at_length(7) == frozenset({m.evaluate("a")})
    assert info.at_length(10) == frozenset({m.identity})


def test_stable_sequence_absorbs_after_threshold():
    m = transition_monoid(minimize(compile_dfa("(a|b)*a(a|b)*", "ab")))
    info = stable_sequence(m)
    assert (info.threshold, info.period) == (1, 1)


def test_at_length_matches_direct_enumeration(morphism_corpus):
    for _, m in morphism_corpus[:15]:
        info = stable_sequence(m)
        letters = sorted(m.letter_image)
        layer = {m.identity}
        for length in range(9):
            assert info.at_length(length) == frozenset(layer), length
            layer = {m.mul(e, m.letter_image[a]) for e in layer for a in letters}


def test_words_by_length_yields_correct_lengths_and_images():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    layers = words_by_length(m, 5)
    info = stable_sequence(m)
    for length, layer in enumerate(layers):
        assert set(layer) == set(info.at_length(length))
        for e, w in layer.items():
            assert len(w) == length and m.evaluate(w) == e


# --- group detection and budget ----------------------------------------------


def test_group_detection():
    assert is_group(transition_monoid(minimize(compile_dfa("(aa)*", "a"))))
    assert is_group(transition_monoid(minimize(compile_dfa("(b|ab*a)*", "ab"))))
    assert not is_group(transition_monoid(minimize(compile_dfa("(ab)*", "ab"))))


def test_element_budget_is_enforced():
    d = minimize(compile_dfa("(a|b)*a(a|b)(a|b)(a|b)", "ab"))
    with pytest.raises(BudgetError):
        transition_monoid(d, element_budget=5)


def test_element_budget_error_names_stage_and_size():
    d = minimize(compile_dfa("(a|b)*a(a|b)(a|b)(a|b)", "ab"))
    with pytest.raises(BudgetError, match=r"budget \(5\) at stage monoid BFS: "
                       r"DFA with 16 states, 5 elements found, 2 expanded$"):
        transition_monoid(d, element_budget=5)
