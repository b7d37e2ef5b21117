"""Automaton pipeline tests: compile, minimize, combine, serialize."""

import random
from collections import deque

import pytest

from hierarchy_one.errors import AlphabetError, BudgetError, PatternError
from hierarchy_one.lang import (
    Dfa,
    combine,
    compile_dfa,
    dfa_from_dict,
    dfa_to_dict,
    equivalent,
    includes,
    is_empty,
    is_permutation_automaton,
    minimize,
)
from tests.conftest import random_minimal_dfa, words_up_to
from tests.test_patterns import brute_match, random_ast


def lang_of(d, max_len=6):
    return {w for w in words_up_to(d.alphabet, max_len) if d.accepts(w)}


def random_redundant_dfa(rng, max_states=300, letters="ab"):
    """A uniform complete DFA padded with duplicate states (copies of a row
    that take over some of its incoming edges) and with states that no
    earlier state enters, unreachable unless the random initial state is
    among them; so minimization must both prune and merge."""
    n = rng.randint(1, max_states)
    delta = [[rng.randrange(n) for _ in letters] for _ in range(n)]
    finals = {q for q in range(n) if rng.random() < 0.5}
    for _ in range(rng.randint(0, n)):
        q = rng.randrange(len(delta))
        copy = len(delta)
        delta.append(list(delta[q]))
        if q in finals:
            finals.add(copy)
        for row in delta:
            for a, t in enumerate(row):
                if t == q and rng.random() < 0.5:
                    row[a] = copy
    for _ in range(rng.randint(0, 5)):
        delta.append([rng.randrange(len(delta) + 1) for _ in letters])
    return Dfa(alphabet=tuple(letters), states=len(delta), initial=rng.randrange(len(delta)),
               finals=frozenset(finals), delta=tuple(map(tuple, delta)))


def reachable_states(d):
    """States reachable from the initial one, in BFS order."""
    reach = [d.initial]
    seen = {d.initial}
    queue = deque([d.initial])
    while queue:
        for t in d.delta[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
                queue.append(t)
    return reach


def frozenset_minimize(d):
    """Minimization by refining a set of frozensets, intersecting each
    splitter's preimage with every block (Θ(n²) per splitter). Returns the
    same canonical BFS numbering as `minimize`."""
    reach = reachable_states(d)
    remap = {q: i for i, q in enumerate(reach)}
    n = len(reach)
    n_letters = len(d.alphabet)
    delta = [[remap[d.delta[q][a]] for a in range(n_letters)] for q in reach]
    finals = {remap[q] for q in d.finals if q in remap}
    preimage = [[[] for _ in range(n)] for _ in range(n_letters)]
    for q in range(n):
        for a in range(n_letters):
            preimage[a][delta[q][a]].append(q)

    f_block = frozenset(finals)
    nf_block = frozenset(range(n)) - f_block
    partition = {b for b in (f_block, nf_block) if b}
    worklist = set(partition)
    while worklist:
        splitter = worklist.pop()
        for a in range(n_letters):
            x = {q for t in splitter for q in preimage[a][t]}
            if not x:
                continue
            for block in list(partition):
                inside = block & x
                outside = block - x
                if inside and outside:
                    partition.remove(block)
                    partition.update((frozenset(inside), frozenset(outside)))
                    if block in worklist:
                        worklist.remove(block)
                        worklist.update((frozenset(inside), frozenset(outside)))
                    else:
                        worklist.add(min((frozenset(inside), frozenset(outside)), key=len))

    block_of = {q: block for block in partition for q in block}
    start_block = block_of[remap[d.initial]]
    numbering = {start_block: 0}
    order = [start_block]
    queue = deque([start_block])
    while queue:
        rep = min(queue.popleft())
        for a in range(n_letters):
            nxt = block_of[delta[rep][a]]
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return Dfa(
        alphabet=d.alphabet,
        states=len(order),
        initial=0,
        finals=frozenset(numbering[b] for b in order if min(b) in finals),
        delta=tuple(
            tuple(numbering[block_of[delta[min(b)][a]]] for a in range(n_letters))
            for b in order
        ),
    )


# --- golden automata ---------------------------------------------------------


def test_ab_star_minimal_form_is_canonical():
    d = minimize(compile_dfa("(ab)*", "ab"))
    assert d.states == 3
    assert d.initial == 0
    assert d.finals == frozenset({0})
    # state 1 = expecting b, state 2 = dead
    assert d.delta == ((1, 2), (2, 0), (2, 2))


def test_one_a_then_one_b_language():
    d = minimize(compile_dfa("(a|b)*a(a|b)*b(a|b)*", "ab"))
    assert d.states == 3
    assert d.finals == frozenset({2})
    assert d.delta == ((1, 0), (1, 2), (2, 2))


def test_accepts_by_hand():
    d = compile_dfa("(ab)*", "ab")
    for w, want in [("", True), ("ab", True), ("abab", True),
                    ("a", False), ("ba", False), ("aab", False)]:
        assert d.accepts(w) == want, w


# --- minimization ------------------------------------------------------------


def test_minimize_is_idempotent_and_language_preserving():
    rng = random.Random(77)
    for _ in range(40):
        d = random_minimal_dfa(rng)
        m = minimize(d)
        assert m == minimize(m)
        assert lang_of(d, 5) == lang_of(m, 5)
    for _ in range(40):
        d = random_redundant_dfa(rng, max_states=8)
        m = minimize(d)
        assert m == minimize(m)
        assert lang_of(d, 5) == lang_of(m, 5)


def test_minimize_matches_the_frozenset_refinement():
    rng = random.Random(2718)
    split = merged = 0
    for i in range(300):
        letters = "abc"[: 1 + i % 3]
        d = random_redundant_dfa(rng, max_states=rng.choice((5, 30, 300)), letters=letters)
        m = minimize(d)
        assert m == frozenset_minimize(d)
        split += m.states > 2
        merged += m.states < len(reachable_states(d))
    assert split > 150 and merged > 150
    for _ in range(60):
        x = random_minimal_dfa(rng, max_states=30)
        y = random_minimal_dfa(rng, max_states=30)
        union = combine(x, y, "union")
        assert minimize(union) == frozenset_minimize(union)
    for k in range(1, 10):
        ladder = compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab")
        m = minimize(ladder)
        assert m == frozenset_minimize(ladder)
        assert m.states == 2**k


def test_minimize_collapses_indistinguishable_states():
    # two states accept exactly the same suffixes -> merged
    d = Dfa(alphabet=("a",), states=3, initial=0, finals=frozenset({1, 2}),
            delta=((1,), (2,), (1,)))
    assert minimize(d).states == 2


def test_equivalent_sees_through_padding():
    assert equivalent(compile_dfa("(ab)*", "ab"), compile_dfa("(ab)*|%", "ab"))
    assert equivalent(compile_dfa("a+", "ab"), compile_dfa("aa*", "ab"))
    assert not equivalent(compile_dfa("a+", "ab"), compile_dfa("a*", "ab"))


# --- boolean combinations ----------------------------------------------------


def test_combine_matches_set_algebra():
    rng = random.Random(88)
    for _ in range(20):
        x, y = random_minimal_dfa(rng), random_minimal_dfa(rng)
        lx, ly = lang_of(x, 5), lang_of(y, 5)
        assert lang_of(combine(x, y, "union"), 5) == lx | ly
        assert lang_of(combine(x, y, "intersection"), 5) == lx & ly
        assert lang_of(combine(x, y, "difference"), 5) == lx - ly


def test_double_complement_via_difference():
    full = compile_dfa("(a|b)*", "ab")
    x = compile_dfa("(ab)*", "ab")
    assert equivalent(combine(full, combine(full, x, "difference"), "difference"), x)


def test_combine_rejects_mismatched_alphabets():
    with pytest.raises(AlphabetError):
        combine(compile_dfa("a", "a"), compile_dfa("b", "b"), "union")


# --- emptiness, inclusion ----------------------------------------------------


def test_shortest_word_is_lexicographically_first():
    assert is_empty(compile_dfa("bb|ab", "ab")) == "ab"
    assert is_empty(compile_dfa("%", "ab")) is None
    assert is_empty(compile_dfa("_", "ab")) == ""
    assert is_empty(compile_dfa("b+a", "ab")) == "ba"


def test_includes_reports_shortest_counterexample():
    outer = compile_dfa("(a|b)*a(a|b)*", "ab")
    inner = compile_dfa("(ab)*", "ab")
    ok, cex = includes(outer, inner)
    assert not ok and cex == ""  # the empty word has no a
    assert includes(compile_dfa("(a|b)*", "ab"), inner) == (True, None)


def test_includes_matches_the_difference_product():
    rng = random.Random(1618)
    outcomes = {True: 0, False: 0}
    for i in range(2400):
        letters = "abc"[: 1 + i % 3]
        inner = random_minimal_dfa(rng, max_states=8, letters=letters)
        outer = random_minimal_dfa(rng, max_states=8, letters=letters)
        if i % 2:
            outer = combine(outer, inner, "union")
        gap = is_empty(combine(inner, outer, "difference"))
        assert includes(outer, inner) == (gap is None, gap)
        outcomes[gap is None] += 1
    assert min(outcomes.values()) > 500
    with pytest.raises(AlphabetError, match="alphabet mismatch"):
        includes(compile_dfa("a", "ab"), compile_dfa("a", "a"))


# --- permutation automata ----------------------------------------------------


def test_permutation_automaton_detection():
    assert is_permutation_automaton(minimize(compile_dfa("(aa)*", "a")))
    assert is_permutation_automaton(minimize(compile_dfa("(b|ab*a)*", "ab")))
    assert not is_permutation_automaton(minimize(compile_dfa("(ab)*", "ab")))
    assert not is_permutation_automaton(minimize(compile_dfa("a", "ab")))


# --- serialization -----------------------------------------------------------


def test_json_round_trip_on_random_corpus():
    rng = random.Random(99)
    for _ in range(25):
        d = random_minimal_dfa(rng)
        assert dfa_from_dict(dfa_to_dict(d)) == d


def test_loader_rejects_partial_transition_tables():
    doc = dfa_to_dict(compile_dfa("a", "ab"))
    del doc["delta"]["a"]
    with pytest.raises(ValueError):
        dfa_from_dict(doc)


def test_loader_rejects_out_of_range_targets():
    doc = dfa_to_dict(minimize(compile_dfa("a", "ab")))
    doc["delta"]["a"][0] = 99
    with pytest.raises(ValueError):
        dfa_from_dict(doc)


# --- compilation vs the brute matcher ----------------------------------------


def test_compiled_automata_agree_with_brute_matcher():
    rng = random.Random(4040)
    words = list(words_up_to(("a", "b"), 6))
    for _ in range(60):
        ast = random_ast(rng)
        d = compile_dfa(ast, "ab")
        for w in words:
            assert d.accepts(w) == brute_match(ast, w), (ast, w)


def test_pattern_text_input_is_parsed():
    assert compile_dfa("(ab)*", "ab").accepts("abab")
    with pytest.raises(PatternError):
        compile_dfa("((", "ab")


def test_state_budget_is_enforced():
    with pytest.raises(BudgetError):
        compile_dfa("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "ab",
                    state_budget=10)


def test_state_budget_error_names_stage_and_size():
    with pytest.raises(BudgetError, match=r"budget \(10\) at stage subset construction: "
                       r"NFA with 54 nodes, 10 states found, 5 expanded$"):
        compile_dfa("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "ab",
                    state_budget=10)
