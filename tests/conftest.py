"""Shared fixtures: the seeded random DFA corpus and the golden verdicts."""

import os
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hierarchy_one.lang import Dfa, minimize
from hierarchy_one.monoid import OrderRelation, transition_monoid

# pyproject's `pythonpath` puts src/ on this process's path only; export it so
# that tests starting `python -m hierarchy_one.cli` find the package without
# an install too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

CORPUS_SEED = 1202
CORPUS_SIZE = 200


def random_minimal_dfa(rng, max_states=5, letters="ab"):
    """A uniform complete DFA (transitions and finals i.i.d.), minimized."""
    n = rng.randint(1, max_states)
    delta = tuple(tuple(rng.randrange(n) for _ in letters) for _ in range(n))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return minimize(Dfa(alphabet=tuple(letters), states=n, initial=0,
                        finals=finals, delta=delta))


def random_permutation_dfa(rng, max_states=3, letters="ab", force_epsilon=True):
    """Each letter acts as a permutation of the states; initial state 0."""
    n = rng.randint(2, max_states)
    cols = []
    for _ in letters:
        perm = list(range(n))
        rng.shuffle(perm)
        cols.append(perm)
    finals = {q for q in range(n) if rng.random() < 0.5}
    if force_epsilon:
        finals.add(0)
    if len(finals) == n and n > 1:
        finals.discard(rng.choice([q for q in range(n) if q != 0]))
    delta = tuple(tuple(col[q] for col in cols) for q in range(n))
    return Dfa(alphabet=tuple(letters), states=n, initial=0,
               finals=frozenset(finals), delta=delta)


def kernel_dfa(l_dfa):
    """The words acting as the identity on `l_dfa`'s states (for a
    permutation automaton: the kernel of its transition group); the cover
    tests check with it that the chosen bases form an antichain."""
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


def preorder_context_scan(m, context_order=None):
    """Reference syntactic preorder by scanning all (x, y) contexts: s ≤ t
    when x·t·y is accepted wherever x·s·y is. |M|⁴ work, so only sensible
    for small monoids (≤ ~200 elements)."""
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


def polc_holds(m, order, rel):
    """POLC, the generic polynomial-closure inequation x^{ω+1} ≤ x^ω y x^ω
    for every pair (x, y), one x at a time: over a group base it answers
    what POLG does, so it is POLG's oracle."""
    table = np.asarray(m.table)
    for x in range(m.element_count):
        ys = np.nonzero(rel.matrix[x])[0]
        e = m.omega(x)
        if len(ys) and not order.matrix[table[e, x], table[table[e, ys], e]].all():
            return False
    return True


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        value = fn(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def words_up_to(alphabet, max_len):
    """Every word over `alphabet` of length ≤ max_len, shortest first."""
    layer = [""]
    yield ""
    for _ in range(max_len):
        layer = [w + ch for w in layer for ch in alphabet]
        yield from layer


@pytest.fixture(scope="session")
def dfa_corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_minimal_dfa(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def morphism_corpus(dfa_corpus):
    return [(d, transition_monoid(d)) for d in dfa_corpus]


# The golden verdict table: (pattern, alphabet, basis, level, plus, member).
GOLDEN_VERDICTS = [
    ("(a|b)*a(a|b)*b(a|b)*", "ab", "st", "bpol", False, True),
    ("(a|b)*a(a|b)*b(a|b)*", "ab", "st", "pol", False, True),
    ("(ab)*", "ab", "st", "bpol", False, False),
    ("(ab)*", "ab", "st", "bpol", True, True),
    ("(aa)*", "a", "st", "bpol", False, False),
    ("(aa)*", "a", "mod", "bpol", False, True),
    ("(aa)*", "a", "amt", "bpol", False, True),
    ("(aa)*", "a", "gr", "bpol", False, True),
    ("a", "ab", "st", "pol", True, True),
    ("a", "ab", "st", "pol", False, False),
    ("a(aa)*", "a", "st", "pol", False, False),
    ("a(aa)*", "a", "mod", "pol", False, True),
]
