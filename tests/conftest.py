"""Shared fixtures: the seeded random DFA corpus and the golden verdicts."""

import os
import random
from pathlib import Path

import pytest

from hierarchy_one.lang import Dfa, minimize
from hierarchy_one.monoid import transition_monoid

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
