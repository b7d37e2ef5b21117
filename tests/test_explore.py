"""Differential tests for `explore`, the one breadth-first construction loop,
for `determinize`, the one subset construction, and for `compile_dfa`'s
position automaton.

Before `explore`, each construction ran its own queue-and-index loop. Those
loops are kept below as oracles: the subset construction, the product, the
`up_arrow` determinization, the two searches inside `minimize` (the
reachable part and the canonical block numbering) and the monoid BFS. Every
automaton, monoid and budget error built through `explore` must equal theirs,
numbering included.

Before `determinize`, `compile_dfa` and `up_arrow` each passed `explore` a
successor function of their own, recomputing ε-closures or copy/state
splits per subset and letter. Those successor functions are kept below as
oracles too.

Before the position automaton, `compile_dfa` determinized a Thompson ε-NFA.
That NFA is kept below as the compile oracles' automaton. A letter edge's
target is entered by no other edge, so each subset it reaches is the
ε-closure of the letters just read: the same subsets as the position
automaton's, numbered alike. The oracles name the same node count, the
pattern's letters plus a start node.
"""

import json
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from hierarchy_one import covers
from hierarchy_one.errors import BudgetError
from hierarchy_one.lang import Dfa, combine, compile_dfa, minimal_dfa, minimize, normalize_alphabet
from hierarchy_one.lang import dfa as lang_dfa
from hierarchy_one.lang.dfa import _OPS, empty_dfa, explore
from hierarchy_one.lang.patterns import (
    Concat, Empty, Epsilon, Letter, Plus, Star, Union, parse_pattern, pattern_to_text)
from hierarchy_one.covers import pgcov_cover, up_arrow
from hierarchy_one.monoid import transition_monoid
from tests.conftest import random_minimal_dfa, random_permutation_dfa
from tests.test_covers import BENCHMARK_COVERS
from tests.test_dfa import random_redundant_dfa, reachable_states
from tests.test_patterns import random_ast


def ladder(k):
    """(a|b)*a(a|b)^k: the (k+1)-th letter from the end is a."""
    return "(a|b)*a" + "(a|b)" * k


# --- the Thompson NFA `compile_dfa` determinized before, kept as an oracle ----


class _Nfa:
    """Thompson-style NFA under construction: epsilon edges + letter edges."""

    def __init__(self):
        self.eps = []
        self.edges = []  # (letter, target)

    def node(self):
        self.eps.append([])
        self.edges.append([])
        return len(self.eps) - 1

    def fragment(self, p, letter_index):
        start, out = self.node(), self.node()
        if isinstance(p, Empty):
            pass  # no path from start to out
        elif isinstance(p, Epsilon):
            self.eps[start].append(out)
        elif isinstance(p, Letter):
            self.edges[start].append((letter_index[p.symbol], out))
        elif isinstance(p, Concat):
            prev = start
            for part in p.parts:
                s, o = self.fragment(part, letter_index)
                self.eps[prev].append(s)
                prev = o
            self.eps[prev].append(out)
        elif isinstance(p, Union):
            for part in p.parts:
                s, o = self.fragment(part, letter_index)
                self.eps[start].append(s)
                self.eps[o].append(out)
        elif isinstance(p, Star):
            s, o = self.fragment(p.child, letter_index)
            self.eps[start].extend((s, out))
            self.eps[o].extend((s, out))
        elif isinstance(p, Plus):
            s, o = self.fragment(p.child, letter_index)
            self.eps[start].append(s)
            self.eps[o].extend((s, out))
        else:
            raise TypeError(f"not a pattern node: {p!r}")
        return start, out

    def closure(self, states):
        seen = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for t in self.eps[q]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def stage(self):
        """The subset construction's stage name, counting one node per
        letter edge and a start node, as the position automaton does."""
        return f"subset construction: NFA with {sum(map(len, self.edges)) + 1} nodes"


# --- the loops `explore` replaced, kept as oracles -----------------------------


def loop_compile_dfa(pattern, alphabet, budget):
    alpha = normalize_alphabet(alphabet)
    if isinstance(pattern, str):
        pattern = parse_pattern(pattern, alpha)
    nfa = _Nfa()
    start, out = nfa.fragment(pattern, {sym: i for i, sym in enumerate(alpha)})
    initial = nfa.closure([start])
    index = {initial: 0}
    order = [initial]
    delta_rows = []
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        row = []
        for i in range(len(alpha)):
            move = {t for q in current for (a, t) in nfa.edges[q] if a == i}
            nxt = nfa.closure(move) if move else frozenset()
            if nxt not in index:
                if len(index) >= budget:
                    raise BudgetError(
                        f"subset construction exceeded the state budget ({budget}) at stage "
                        f"{nfa.stage()}, {len(order)} states found, {len(delta_rows)} expanded")
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        delta_rows.append(row)
    finals = frozenset(i for i, subset in enumerate(order) if out in subset)
    return Dfa(alphabet=alpha, states=len(order), initial=0, finals=finals, delta=delta_rows)


def loop_minimize(d):
    seen = [False] * d.states
    seen[d.initial] = True
    reach = [d.initial]
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for t in d.delta[q]:
            if not seen[t]:
                seen[t] = True
                reach.append(t)
                queue.append(t)
    remap = [-1] * d.states
    for i, q in enumerate(reach):
        remap[q] = i
    n = len(reach)
    delta = [[remap[t] for t in d.delta[q]] for q in reach]
    finals = {remap[q] for q in d.finals if remap[q] >= 0}

    preimage = [[[] for _ in range(n)] for _ in d.alphabet]
    for q in range(n):
        for a, t in enumerate(delta[q]):
            preimage[a][t].append(q)
    blocks = [b for b in (set(finals), set(range(n)) - finals) if b]
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    waiting = {min(range(len(blocks)), key=lambda i: len(blocks[i]))}
    while waiting:
        splitter = list(blocks[waiting.pop()])
        for pre in preimage:
            touched = {}
            for t in splitter:
                for q in pre[t]:
                    touched.setdefault(block_of[q], []).append(q)
            for b, inside in touched.items():
                block = blocks[b]
                if len(inside) == len(block):
                    continue
                new = len(blocks)
                block.difference_update(inside)
                blocks.append(set(inside))
                for q in inside:
                    block_of[q] = new
                waiting.add(new if b in waiting or len(inside) <= len(block) else b)

    rep = [min(block) for block in blocks]
    numbering = [-1] * len(blocks)
    start_block = block_of[remap[d.initial]]
    numbering[start_block] = 0
    order = [start_block]
    queue = deque([start_block])
    while queue:
        b = queue.popleft()
        for t in delta[rep[b]]:
            nxt = block_of[t]
            if numbering[nxt] < 0:
                numbering[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return Dfa(
        alphabet=d.alphabet, states=len(order), initial=0,
        finals=frozenset(numbering[b] for b in order if rep[b] in finals),
        delta=[[numbering[block_of[t]] for t in delta[rep[b]]] for b in order])


def loop_combine(x, y, op):
    start = (x.initial, y.initial)
    index = {start: 0}
    order = [start]
    rows = []
    queue = deque([start])
    while queue:
        qx, qy = queue.popleft()
        row = []
        for a in range(len(x.alphabet)):
            nxt = (x.delta[qx][a], y.delta[qy][a])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    keep = _OPS[op]
    finals = frozenset(
        i for i, (qx, qy) in enumerate(order) if keep(qx in x.finals, qy in y.finals))
    return Dfa(alphabet=x.alphabet, states=len(order), initial=0, finals=finals, delta=rows)


def loop_up_arrow(l_dfa, word, budget):
    n_states = l_dfa.states
    bridge = [l_dfa.symbol_index(ch) for ch in word]
    copies = len(word) + 1

    def moves(subset, a):
        out = set()
        for g in subset:
            copy, q = divmod(g, n_states)
            out.add(copy * n_states + l_dfa.delta[q][a])
            if copy < copies - 1 and q in l_dfa.finals and bridge[copy] == a:
                out.add((copy + 1) * n_states + l_dfa.initial)
        return frozenset(out)

    initial = frozenset({l_dfa.initial})
    index = {initial: 0}
    order = [initial]
    rows = []
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        row = []
        for a in range(len(l_dfa.alphabet)):
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
        if any(g // n_states == copies - 1 and g % n_states in l_dfa.finals for g in subset))
    return loop_minimize(Dfa(alphabet=l_dfa.alphabet, states=len(order), initial=0,
                             finals=finals, delta=rows))


# --- the successor functions `determinize` replaced, kept as oracles ----------


def explore_compile_dfa(pattern, alphabet, budget):
    alpha = normalize_alphabet(alphabet)
    if isinstance(pattern, str):
        pattern = parse_pattern(pattern, alpha)
    nfa = _Nfa()
    start, out = nfa.fragment(pattern, {sym: i for i, sym in enumerate(alpha)})

    def successors(subset):
        row = []
        for i in range(len(alpha)):
            move = {t for q in subset for (a, t) in nfa.edges[q] if a == i}
            row.append(nfa.closure(move) if move else frozenset())
        return row

    order, rows = explore(nfa.closure([start]), successors, budget, stage=nfa.stage())
    finals = frozenset(i for i, subset in enumerate(order) if out in subset)
    return Dfa(alphabet=alpha, states=len(order), initial=0, finals=finals, delta=rows)


def explore_up_arrow(l_dfa, word, budget):
    n_states = l_dfa.states
    bridge = [l_dfa.symbol_index(ch) for ch in word]
    copies = len(word) + 1

    def moves(subset, a):
        out = set()
        for g in subset:
            copy, q = divmod(g, n_states)
            out.add(copy * n_states + l_dfa.delta[q][a])
            if copy < copies - 1 and q in l_dfa.finals and bridge[copy] == a:
                out.add((copy + 1) * n_states + l_dfa.initial)
        return frozenset(out)

    order, rows = explore(
        frozenset({l_dfa.initial}),
        lambda subset: [moves(subset, a) for a in range(len(l_dfa.alphabet))],
        budget,
        stage=f"up_arrow determinization: DFA with {n_states} states, word of length {len(word)}")
    finals = frozenset(
        i for i, subset in enumerate(order)
        if any(g // n_states == copies - 1 and g % n_states in l_dfa.finals for g in subset))
    return minimize(Dfa(alphabet=l_dfa.alphabet, states=len(order), initial=0,
                        finals=finals, delta=rows))


def loop_transition_monoid(d, budget):
    """(table, witness, S, E(S), letter images, accepting) from the BFS that
    records parents, last letters and witnesses as it discovers elements."""
    n = d.states
    letter_vec = [tuple(d.delta[q][a] for q in range(n)) for a in range(len(d.alphabet))]
    ident = tuple(range(n))
    index = {ident: 0}
    vectors = [ident]
    witnesses = [""]
    parent = [0]
    last_letter = [0]
    right = []
    head = 0
    while head < len(vectors):
        vec = vectors[head]
        edges = []
        for a, lv in enumerate(letter_vec):
            composed = tuple(lv[q] for q in vec)
            got = index.get(composed)
            if got is None:
                if len(vectors) >= budget:
                    raise BudgetError(
                        f"transition monoid exceeded the element budget ({budget}) at stage "
                        f"monoid BFS: DFA with {n} states, {len(vectors)} elements found, "
                        f"{head} expanded")
                got = index[composed] = len(vectors)
                vectors.append(composed)
                witnesses.append(witnesses[head] + d.alphabet[a])
                parent.append(head)
                last_letter.append(a)
            edges.append(got)
        right.append(edges)
        head += 1
    count = len(vectors)
    right_table = np.array(right, dtype=np.int32)
    table = np.empty((count, count), dtype=np.int32)
    table[:, 0] = np.arange(count, dtype=np.int32)
    for y in range(1, count):
        table[:, y] = right_table[table[:, parent[y]], last_letter[y]]
    nonempty = frozenset(x for edges in right for x in edges)
    idem = tuple(x for x in range(count) if table[x, x] == x and x in nonempty)
    accepting = frozenset(x for x, vec in enumerate(vectors) if vec[d.initial] in d.finals)
    letters = {d.alphabet[a]: int(right_table[0, a]) for a in range(len(d.alphabet))}
    return table, tuple(witnesses), nonempty, idem, letters, accepting


# --- helpers -------------------------------------------------------------------


def outcome(build, *args):
    """What a construction gives: its result, or the tail of its budget error
    after "at stage", which names the stage and the sizes reached."""
    try:
        return build(*args)
    except BudgetError as exc:
        return ("BudgetError", str(exc).split(" at stage ", 1)[1])


def trim(d):
    """`d` restricted to the states reachable from its initial one."""
    reach = reachable_states(d)
    index = {q: i for i, q in enumerate(reach)}
    return Dfa(alphabet=d.alphabet, states=len(reach), initial=0,
               finals=frozenset(index[q] for q in reach if q in d.finals),
               delta=[[index[t] for t in d.delta[q]] for q in reach])


def benchmark_patterns():
    """(pattern, alphabet) of every pattern case in the benchmark's
    expected results: the ladder, the golden groups and the covers."""
    expected = json.loads((Path(__file__).resolve().parent.parent
                           / "perfbench" / "data" / "expected.json").read_text())
    found = set()

    def walk(node):
        if isinstance(node, list):
            for child in node:
                walk(child)
        elif isinstance(node, dict):
            for key in ("pattern", "target", "gaps"):
                if isinstance(node.get(key), str):
                    found.add((node[key], node["alphabet"]))
            for child in node.values():
                walk(child)

    walk(expected)
    return sorted(found)


def monoid_fields(m):
    return (m.table, m.witness, m.nonempty_image, m.idempotents_s, m.letter_image, m.accepting)


def assert_same_monoid(d, budget):
    got = outcome(lambda: monoid_fields(transition_monoid(d, element_budget=budget)))
    want = outcome(loop_transition_monoid, d, budget)
    if isinstance(want[0], str):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


# --- tests ---------------------------------------------------------------------


def test_explore_numbers_in_discovery_order_and_names_the_budget_stage():
    def step(q):
        return (q + 3) % 5, (2 * q) % 5

    order, rows = explore(0, step)
    assert order == [0, 3, 1, 4, 2]
    assert rows == [[1, 0], [2, 2], [3, 4], [4, 1], [0, 3]]
    with pytest.raises(BudgetError, match=r"^construction exceeded the element budget \(3\) "
                       r"at stage toy, 3 elements found, 2 expanded$"):
        explore(0, step, budget=3, stage="toy", unit="element")


def test_constructions_equal_the_loops_they_replaced():
    rng = random.Random(5150)
    for k in range(9):
        raw = compile_dfa(ladder(k), "ab")
        assert raw == loop_compile_dfa(ladder(k), "ab", 1 << 16)
        assert minimize(raw) == loop_minimize(raw)
    for _ in range(60):
        pattern = pattern_to_text(random_ast(rng))
        budget = rng.randint(1, 12)
        assert outcome(compile_dfa, pattern, "ab", budget) == \
            outcome(loop_compile_dfa, pattern, "ab", budget)
    for _ in range(120):
        d = random_redundant_dfa(rng, max_states=rng.choice((5, 40, 300)),
                                 letters=rng.choice(("a", "ab", "abc")))
        assert minimize(d) == loop_minimize(d)
    for _ in range(60):
        letters = rng.choice(("a", "ab", "abc"))
        x = random_minimal_dfa(rng, max_states=6, letters=letters)
        y = random_minimal_dfa(rng, max_states=6, letters=letters)
        for op in sorted(_OPS):
            assert combine(x, y, op) == loop_combine(x, y, op)


def test_up_arrow_equals_the_loop_it_replaced():
    rng = random.Random(8)
    for _ in range(40):
        l_dfa = minimize(random_permutation_dfa(rng, max_states=4))
        word = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        budget = rng.choice((3, 10, 1 << 16))
        assert outcome(up_arrow, l_dfa, word, budget) == outcome(loop_up_arrow, l_dfa, word, budget)


def test_monoid_equals_the_bfs_it_replaced():
    rng = random.Random(31)
    for k in range(9):
        assert_same_monoid(minimize(compile_dfa(ladder(k), "ab")), 20000)
    for _ in range(80):
        d = random_minimal_dfa(rng, max_states=6, letters=rng.choice(("a", "ab", "abc")))
        assert_same_monoid(d, rng.choice((2, 5, 20000)))


def test_subset_construction_equals_the_successor_it_replaced():
    rng = random.Random(1602)
    for _ in range(300):
        pattern = random_ast(rng)
        alphabet = rng.choice(("ab", "abc"))
        budget = rng.choice((1, 4, 12, 1 << 16))
        assert outcome(compile_dfa, pattern, alphabet, budget) == \
            outcome(explore_compile_dfa, pattern, alphabet, budget)
    patterns = benchmark_patterns()
    assert ("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "ab") in patterns
    assert ("((a|b)(a|b)(a|b)(a|b))*", "ab") in patterns
    for pattern, alphabet in patterns:
        assert compile_dfa(pattern, alphabet) == explore_compile_dfa(pattern, alphabet, 1 << 16)
    edges = [("_", ""), ("%", ""), ("%*", "ab"), ("(%)+", "ab"), ("a%|_", "ab"), ("((_)*)+", "a")]
    for pattern, alphabet in edges:
        for budget in (1, 1 << 16):
            want = outcome(explore_compile_dfa, pattern, alphabet, budget)
            assert outcome(compile_dfa, pattern, alphabet, budget) == want, (pattern, budget)
            assert outcome(loop_compile_dfa, pattern, alphabet, budget) == want, (pattern, budget)


def test_up_arrow_equals_the_successor_it_replaced():
    # every base word of the benchmark covers over its own gap language
    calls = 0
    for target, gaps in BENCHMARK_COVERS:
        l_min = minimize(compile_dfa(gaps, "ab"))
        for word, arrow in pgcov_cover(compile_dfa(target, "ab"), l_min).entries:
            assert arrow == explore_up_arrow(l_min, word, 1 << 16), (gaps, word)
            calls += 1
    assert calls == 308
    rng = random.Random(77)
    for _ in range(60):
        l_dfa = minimize(random_permutation_dfa(rng, max_states=4, letters=rng.choice(("ab", "abc"))))
        word = "".join(rng.choice(l_dfa.alphabet) for _ in range(rng.randint(0, 7)))
        budget = rng.choice((2, 9, 1 << 16))
        assert outcome(up_arrow, l_dfa, word, budget) == outcome(explore_up_arrow, l_dfa, word, budget)


def test_minimize_ignores_unreachable_states():
    rng = random.Random(4711)
    unreachable = 0
    for _ in range(300):
        d = random_redundant_dfa(rng, max_states=rng.choice((5, 40, 300)),
                                 letters=rng.choice(("a", "ab", "abc")))
        trimmed = trim(d)
        unreachable += trimmed.states < d.states
        assert minimize(d) == minimize(trimmed)
    assert unreachable > 100


def rotate_and_reset(n):
    """n states on a cycle: a steps to the next state, b resets to state 0.
    Its monoid is the n rotations and the n constant maps, 2n elements."""
    return Dfa(alphabet=("a", "b"), states=n, initial=0, finals=frozenset({0}),
               delta=[[(q + 1) % n, 0] for q in range(n)])


def test_monoid_equals_the_bfs_it_replaced_at_the_byte_width_boundary():
    # 256 states is the last count whose state maps take one byte per
    # state, 257 the first that takes two
    for n in (255, 256, 257):
        d = rotate_and_reset(n)
        assert transition_monoid(d).element_count == 2 * n
        assert_same_monoid(d, 20000)
        for budget in (1, n, 2 * n - 1):
            assert outcome(transition_monoid, d, budget)[0] == "BudgetError"
            assert_same_monoid(d, budget)


def test_monoid_table_filled_in_blocks_equals_the_bfs_it_replaced(monkeypatch):
    # with a 64-entry cap, a level of the table fill spans several blocks
    monkeypatch.setattr("hierarchy_one.monoid._FILL_ENTRIES", 64)
    rng = random.Random(64)
    for k in range(6):
        assert_same_monoid(minimize(compile_dfa(ladder(k), "ab")), 20000)
    for _ in range(40):
        d = random_minimal_dfa(rng, max_states=6, letters=rng.choice(("a", "ab", "abc")))
        assert_same_monoid(d, rng.choice((2, 5, 20000)))
    assert_same_monoid(rotate_and_reset(257), 20000)


def test_built_automata_pass_the_constructor_checks(dfa_corpus, monkeypatch):
    # determinize, minimize and combine make their automata with Dfa._built,
    # which skips the constructor's checks: what they return, inside every
    # stage as well as to the caller, must be what the checked constructor
    # makes of the same fields, with a tuple alphabet, tuple rows and
    # frozenset finals
    built = []

    def recording(name, build):
        def record(*args, **kwargs):
            built.append((name, build(*args, **kwargs)))
            return built[-1][1]
        return record

    for module in (lang_dfa, covers):
        for name in ("determinize", "minimize", "combine"):
            monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    out = []
    for i, (d, other) in enumerate(zip(dfa_corpus, dfa_corpus[1:] + dfa_corpus[:1])):
        out += [minimal_dfa(d), minimize(d), up_arrow(d, "ab"[:i % 3]), empty_dfa(d.alphabet)]
        out += [combine(d, other, op) for op in _OPS]
    for k in range(7):
        h, shorter = compile_dfa(ladder(k), "ab"), compile_dfa(ladder(max(k - 1, 0)), "ab")
        out += [h, minimal_dfa(ladder(k), "ab"), minimize(h), up_arrow(minimize(h), "ab")]
        out += [combine(h, shorter, op) for op in _OPS]
    for target, gaps in BENCHMARK_COVERS:
        h, l_dfa = compile_dfa(target, "ab"), compile_dfa(gaps, "ab")
        out += [h, l_dfa]
        out += [arrow for _, arrow in pgcov_cover(h, l_dfa).entries]
    assert {name for name, _ in built} == {"determinize", "minimize", "combine"}
    for d in out + [d for _, d in built]:
        assert type(d.alphabet) is tuple and type(d.finals) is frozenset
        assert type(d.delta) is tuple and all(type(row) is tuple for row in d.delta)
        assert d == Dfa(d.alphabet, d.states, d.initial, d.finals, d.delta)
