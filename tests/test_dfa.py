"""Automaton pipeline tests: compile, minimize, combine, serialize."""

import json
import random
import re
from collections import deque

import numpy as np
import pytest

from hierarchy_one.errors import AlphabetError, BudgetError, PatternError, UsageError
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
    minimal_dfa,
    minimize,
    words_of_length,
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


def test_combine_is_bounded_by_the_state_budget(monkeypatch):
    # lengths mod 2 and mod 3: the product numbers all 6 pairs, one per
    # expanded state, so budget 5 stops it at the sixth
    x = minimize(compile_dfa("(aa)*", "a"))
    y = minimize(compile_dfa("(aaa)*", "a"))
    assert (x.states, y.states) == (2, 3)
    monkeypatch.setenv("HIERARCHY_ONE_BUDGET", "5")
    for op in ("union", "difference"):
        with pytest.raises(BudgetError, match=rf"budget \(5\) at stage {op} product: "
                           r"DFAs with 2 and 3 states, 5 states found, 4 expanded$"):
            combine(x, y, op)
    monkeypatch.setenv("HIERARCHY_ONE_BUDGET", "6")
    assert combine(x, y, "intersection").states == 6


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


def bfs_shortest_word(d):
    """Reference emptiness check: BFS from the initial state, letters in
    alphabet order, stopping at the first final state."""
    if d.initial in d.finals:
        return ""
    parent = {}
    seen = {d.initial}
    queue = [d.initial]
    for q in queue:
        for a in range(len(d.alphabet)):
            t = d.delta[q][a]
            if t in seen:
                continue
            seen.add(t)
            parent[t] = (q, a)
            if t in d.finals:
                letters = []
                while t in parent:
                    t, la = parent[t]
                    letters.append(d.alphabet[la])
                return "".join(reversed(letters))
            queue.append(t)
    return None


def test_includes_matches_the_difference_product():
    rng = random.Random(1618)
    outcomes = {True: 0, False: 0}
    for i in range(2400):
        letters = "abc"[: 1 + i % 3]
        inner = random_minimal_dfa(rng, max_states=8, letters=letters)
        outer = random_minimal_dfa(rng, max_states=8, letters=letters)
        if i % 2:
            outer = combine(outer, inner, "union")
        difference = combine(inner, outer, "difference")
        gap = bfs_shortest_word(difference)
        assert is_empty(difference) == gap
        assert includes(outer, inner) == (gap is None, gap)
        outcomes[gap is None] += 1
    assert min(outcomes.values()) > 500
    with pytest.raises(AlphabetError, match="alphabet mismatch"):
        includes(compile_dfa("a", "ab"), compile_dfa("a", "a"))


def test_words_of_length_matches_brute_force():
    rng = random.Random(2718)
    for i in range(300):
        letters = "abc"[: 1 + i % 3]
        d = random_minimal_dfa(rng, max_states=8, letters=letters)
        for length in range(6):
            # words_up_to lists each length in alphabet order
            brute = [w for w in words_up_to(letters, length) if len(w) == length and d.accepts(w)]
            for limit in {0, 1, max(0, len(brute) - 1), len(brute), len(brute) + 1}:
                assert words_of_length(d, length, limit) == brute[:limit], (d, length, limit)


def test_words_of_length_starts_at_the_inclusion_counterexample():
    rng = random.Random(3141)
    found = 0
    for i in range(400):
        letters = "abc"[: 1 + i % 3]
        inner = random_minimal_dfa(rng, max_states=8, letters=letters)
        outer = random_minimal_dfa(rng, max_states=8, letters=letters)
        ok, gap = includes(outer, inner)
        if not ok:
            difference = combine(inner, outer, "difference")
            assert words_of_length(difference, len(gap), 1) == [gap]
            assert words_of_length(difference, len(gap), 1000)[0] == gap
            found += 1
    assert found > 100

# --- permutation automata ----------------------------------------------------


def test_permutation_automaton_detection():
    assert is_permutation_automaton(minimize(compile_dfa("(aa)*", "a")))
    assert is_permutation_automaton(minimize(compile_dfa("(b|ab*a)*", "ab")))
    assert not is_permutation_automaton(minimize(compile_dfa("(ab)*", "ab")))
    assert not is_permutation_automaton(minimize(compile_dfa("a", "ab")))


# --- construction ------------------------------------------------------------


@pytest.mark.parametrize("delta, message", [
    (((0, 1), (1,)), "state 1: transition row is not total"),
    (((0, 1), (-1, 0)), "state 1: transition target out of range"),
    (((0, 2), (1, 0)), "state 0: transition target out of range"),
    (((0, 1), (1, "0")), "state 1: transition target out of range"),
    (((0, 1.0), (1, 0)), "state 0: transition target out of range"),
    (((0, 5), (1,)), "state 0: transition target out of range"),
], ids=["ragged", "negative", "past-states", "str", "float", "first-row-named"])
def test_constructor_names_the_first_bad_state(delta, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(alphabet=("a", "b"), states=2, initial=0, delta=delta)


@pytest.mark.parametrize("fields, message", [
    ({"states": 2.0}, "states must be an integer, got 2.0"),
    ({"states": True, "delta": ((0,),)}, "states must be an integer, got True"),
    ({"initial": 0.0}, "initial state must be an integer, got 0.0"),
    ({"initial": True}, "initial state must be an integer, got True"),
    ({"finals": frozenset({1.0})}, "final state must be an integer, got 1.0"),
    ({"finals": frozenset({False})}, "final state must be an integer, got False"),
    ({"delta": ((True,), (0,))}, "state 0: transition target out of range"),
], ids=["float-states", "bool-states", "float-initial", "bool-initial", "float-final",
        "bool-final", "bool-target"])
def test_constructor_takes_only_ints_that_are_not_bools(fields, message):
    # each used to build, equal to a DFA of ints, whose document the loader rejects
    two_states = {"alphabet": ("a",), "states": 2, "initial": 0, "finals": frozenset({1}),
                  "delta": ((1,), (0,))}
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dfa(**dict(two_states, **fields))


# --- serialization -----------------------------------------------------------


def test_json_round_trip_on_random_corpus():
    rng = random.Random(99)
    for _ in range(25):
        d = random_minimal_dfa(rng)
        assert dfa_from_dict(dfa_to_dict(d)) == d


def test_every_automaton_the_constructor_takes_round_trips_through_json():
    # fields are ints or values equal to them that are not plain ints: the
    # constructor takes exactly the automata of plain ints, and each one's
    # JSON document loads back to it
    rng = random.Random(2027)

    def field(x):
        if rng.random() < 0.9:
            return x
        return rng.choice([float(x), bool(x) if x in (0, 1) else x, np.int64(x)])

    taken = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        fields = [field(n), field(rng.randrange(n))]
        fields.append(frozenset(field(q) for q in range(n) if rng.random() < 0.5))
        fields.append(tuple(tuple(field(rng.randrange(n)) for _ in "ab") for _ in range(n)))
        plain = all(type(v) is int for v in (*fields[:2], *fields[2], *sum(fields[3], ())))
        try:
            d = Dfa(("a", "b"), *fields)
        except ValueError:
            assert not plain
            continue
        assert plain
        assert dfa_from_dict(json.loads(json.dumps(dfa_to_dict(d)))) == d
        taken += 1
    assert 100 < taken < 300


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


_TWO_STATES = {"alphabet": ["a"], "states": 2, "initial": 0, "finals": [1], "delta": {"a": [1, 0]}}


@pytest.mark.parametrize("change, message", [
    ({"delta": {"a": [1.5, 0]}}, "delta['a'][0] must be an integer, got 1.5"),
    ({"initial": 0.9}, "initial must be an integer, got 0.9"),
    ({"finals": [1.2]}, "finals[0] must be an integer, got 1.2"),
    ({"states": "2", "finals": [True]}, "states must be an integer, got '2'"),
    ({"finals": [True]}, "finals[0] must be an integer, got True"),
    ({"delta": {"a": [1, "0"]}}, "delta['a'][1] must be an integer, got '0'"),
], ids=["float-target", "float-initial", "float-final", "str-states", "bool-final", "str-target"])
def test_loader_reads_only_json_integers(change, message):
    # int() used to truncate or parse these, each into the same 2-state DFA
    assert dfa_from_dict(_TWO_STATES) == Dfa(("a",), 2, 0, frozenset({1}), ((1,), (0,)))
    with pytest.raises(ValueError, match=f"^malformed DFA document: {re.escape(message)}$"):
        dfa_from_dict(dict(_TWO_STATES, **change))


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
                       r"NFA with 18 nodes, 10 states found, 5 expanded$"):
        compile_dfa("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "ab",
                    state_budget=10)


def test_minimal_dfa_reads_patterns_and_dfas_alike():
    rng = random.Random(1357)
    for _ in range(40):
        ast = random_ast(rng, depth=3)
        want = minimize(compile_dfa(ast, "ab"))
        assert minimal_dfa(ast, "ba") == want
        assert minimal_dfa(compile_dfa(ast, "ab")) == want
        assert minimal_dfa(compile_dfa(ast, "ab"), ["b", "a"]) == want
    assert minimal_dfa("(a|b)*a(a|b)*b(a|b)*", "ab").states == 3   # compile_dfa gives 7
    with pytest.raises(BudgetError):
        minimal_dfa("(a|b)*a(a|b)(a|b)(a|b)", "ab", state_budget=4)


def test_minimal_dfa_has_one_error_per_input_rule():
    with pytest.raises(UsageError, match="^a pattern needs an explicit alphabet$"):
        minimal_dfa("(ab)*")
    dfa = compile_dfa("(ab)*", "ab")
    for alphabet, given in (("abc", "abc"), ("a", "a"), ("", ""), ("cba", "abc")):
        with pytest.raises(AlphabetError) as exc:
            minimal_dfa(dfa, alphabet)
        assert str(exc.value) == (f"alphabet mismatch: {given!r} does not match the "
                                  f"DFA's alphabet 'ab'")
