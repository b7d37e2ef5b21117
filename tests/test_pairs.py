"""Pair relation tests: trivial, modular, alphabet-modular, custom groups.

The modular and alphabet-modular relations are checked against intersections
of explicit group-morphism relations — a slower but definitionally direct
computation.
"""

import itertools
import json
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hierarchy_one.errors import DEFAULT_GROUP_NODE_BUDGET, BudgetError, budget_from_env
from hierarchy_one.lang import Dfa, compile_dfa, minimize
from hierarchy_one.monoid import stable_sequence, transition_monoid, words_by_length
from hierarchy_one.pairs import (
    BASIS_AMT,
    _coset_join,
    _feasible_lcm,
    _group_join,
    _group_reach,
    _hnf,
    _parikh_cosets,
    _reduce,
    amt_pairs,
    cyclic_length_group,
    explicit_pairs,
    group_from_dict,
    group_morphism_pairs,
    mod_pairs,
    pairs_to_dict,
    parikh_group,
    st_pairs,
    trivial_group,
)
from tests.conftest import random_minimal_dfa


def monoid_of(pattern, alphabet):
    return transition_monoid(minimize(compile_dfa(pattern, alphabet)))


# --- trivial base ------------------------------------------------------------


def test_trivial_base_gives_the_full_square():
    for pattern, alphabet, count in [("a*", "a", 1), ("(aa)*", "a", 4),
                                     ("(ab)*", "ab", 36)]:
        m = monoid_of(pattern, alphabet)
        rel = st_pairs(m)
        assert rel.count == count
        for s, t in rel.pairs_iter():
            u, v = rel.witness_for(s, t)
            assert m.evaluate(u) == s and m.evaluate(v) == t


def test_pairs_iter_is_row_major_and_matches_contains():
    m = monoid_of("(ab)*", "ab")
    rel = st_pairs(m)
    listed = list(rel.pairs_iter())
    assert listed == sorted(listed)
    assert all(rel.contains(s, t) for s, t in listed)


def test_witness_for_rejects_non_pairs():
    m = monoid_of("(aa)*", "a")
    rel = explicit_pairs(m, [(0, 0)])
    with pytest.raises(KeyError):
        rel.witness_for(0, 1)


def test_pairs_to_dict_lists_pairs_with_witnesses():
    m = monoid_of("(aa)*", "a")
    doc = pairs_to_dict(mod_pairs(m))
    assert doc["basis"] == "MOD" and doc["certified"] is True
    assert [[s, t] for s, t, _, _ in doc["pairs"]] == [[0, 0], [1, 1]]
    for s, t, u, v in doc["pairs"]:
        assert m.evaluate(u) == s and m.evaluate(v) == t


# --- modular pairs -----------------------------------------------------------


def test_parity_language_has_diagonal_mod_pairs():
    m = monoid_of("(aa)*", "a")
    rel = mod_pairs(m)
    assert rel.pairs_set() == {(0, 0), (1, 1)}


def test_length_blind_language_has_all_mod_pairs():
    # A*aA*: the length morphisms cannot tell its two elements apart
    m = monoid_of("(a|b)*a(a|b)*", "ab")
    rel = mod_pairs(m)
    assert rel.count == 4
    u, v = rel.witness_for(m.identity, m.evaluate("a"))
    assert m.evaluate(u) == m.identity and m.evaluate(v) == m.evaluate("a")


def test_mod_witnesses_have_congruent_lengths():
    rng = random.Random(909)
    for _ in range(10):
        m = transition_monoid(random_minimal_dfa(rng, max_states=4))
        rel = mod_pairs(m)
        p = stable_sequence(m).period
        for s, t in rel.pairs_iter():
            wit = rel.witness_for(s, t)
            if wit is None:
                continue
            u, v = wit
            assert m.evaluate(u) == s and m.evaluate(v) == t
            assert len(u) % p == len(v) % p


def test_mod_pairs_match_cyclic_group_intersection():
    # definitionally: a pair survives iff no length-mod-m morphism separates it
    rng = random.Random(910)
    for _ in range(15):
        m = transition_monoid(random_minimal_dfa(rng, max_states=4))
        oracle = np.ones((m.element_count,) * 2, dtype=bool)
        for modulus in range(1, 13):
            g = cyclic_length_group(modulus, m.alphabet)
            oracle &= group_morphism_pairs(m, g).matrix
        assert np.array_equal(mod_pairs(m).matrix, oracle)


# --- alphabet-modular pairs --------------------------------------------------


def test_parity_language_amt_pairs_are_diagonal_and_certified():
    rel = amt_pairs(monoid_of("(aa)*", "a"))
    assert rel.pairs_set() == {(0, 0), (1, 1)}
    assert rel.certified


def test_amt_equals_mod_on_a_one_letter_alphabet():
    rng = random.Random(7)
    for _ in range(20):
        d = random_minimal_dfa(rng, max_states=4, letters="a")
        m = transition_monoid(d)
        assert np.array_equal(amt_pairs(m).matrix, mod_pairs(m).matrix)


def test_amt_matches_letter_count_group_intersection():
    # oracle: intersect the relations of (Z/q)^A for q = 1..10; on monoids
    # small enough to certify, the relation must agree exactly
    rng = random.Random(2024)
    kept = 0
    while kept < 30:
        d = random_minimal_dfa(rng, max_states=3)
        m = transition_monoid(d)
        if m.element_count > 6:
            continue
        kept += 1
        rel = amt_pairs(m)
        assert rel.certified
        oracle = np.ones((m.element_count,) * 2, dtype=bool)
        for q in range(1, 11):
            oracle &= group_morphism_pairs(m, parikh_group(q, m.alphabet)).matrix
        assert np.array_equal(rel.matrix, oracle)


def test_amt_pairs_are_exact_at_small_budgets():
    # (aa)* has two cosets, so budgets 3 and 5 hold the exact relation; the
    # witness search then runs at the largest lcm(1..k) the budget admits
    m = monoid_of("(aa)*", "a")
    for budget in (3, 5):
        rel = amt_pairs(m, node_budget=budget)
        assert rel.certified
        assert rel.pairs_set() == {(0, 0), (1, 1)}
        for s, t in rel.pairs_iter():
            u, v = rel.witness_for(s, t)
            assert m.evaluate(u) == s and m.evaluate(v) == t


def test_amt_coset_count_past_the_budget_raises_with_stage_and_count():
    m = monoid_of("(a|b)*a(a|b)(a|b)(a|b)(a|b)", "ab")   # |M| = 63
    total = sum(len(found) for found in _parikh_cosets(m, UNITS_AB, 10**9))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            amt_pairs(m, node_budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    match = re.fullmatch(r"construction exceeded the node budget \(10\) at stage AMT cosets: "
                         r"monoid with 63 elements, (\d+) cosets found", str(info.value))
    assert match, str(info.value)
    assert 10 < int(match.group(1)) < total   # stopped at the first component past it
    assert peak < 1 << 20


# --- custom groups -----------------------------------------------------------


Z3_DOC = {
    "name": "z3",
    "elements": 3,
    "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "letter_image": {"a": 1},
}


def test_group_loader_accepts_cyclic_group():
    g = group_from_dict(Z3_DOC)
    assert g.element_count == 3 and g.identity == 0
    assert g.alphabet == ("a",)


def test_group_loader_rejects_non_associative_tables():
    doc = dict(Z3_DOC, table=[[0, 1, 2], [1, 2, 0], [2, 0, 0]])
    with pytest.raises(ValueError):
        group_from_dict(doc)


def test_group_loader_rejects_monoids_without_inverses():
    # an absorbing element has no inverse
    doc = {"elements": 2, "table": [[0, 1], [1, 1]], "letter_image": {"a": 1}}
    with pytest.raises(ValueError):
        group_from_dict(doc)


def test_group_loader_rejects_out_of_range_letter_images():
    doc = dict(Z3_DOC, letter_image={"a": 5})
    with pytest.raises(ValueError):
        group_from_dict(doc)


def test_group_loader_rejects_shape_mismatch():
    doc = dict(Z3_DOC, elements=4)
    with pytest.raises(ValueError):
        group_from_dict(doc)


def test_trivial_group_pairs_equal_the_full_square():
    m = monoid_of("(ab)*", "ab")
    rel = group_morphism_pairs(m, trivial_group("ab"))
    assert rel.count == m.element_count**2


def test_parity_group_separates_the_parity_language():
    m = monoid_of("(aa)*", "a")
    rel = group_morphism_pairs(m, cyclic_length_group(2, "a"))
    assert rel.pairs_set() == {(0, 0), (1, 1)}


def test_z3_group_cannot_see_parity():
    m = monoid_of("(aa)*", "a")
    rel = group_morphism_pairs(m, group_from_dict(Z3_DOC))
    assert rel.count == 4  # words of equal residue mod 3 reach both elements


def test_group_pair_relations_are_reflexive_and_symmetric(morphism_corpus):
    for _, m in morphism_corpus[:20]:
        for g in (cyclic_length_group(3, m.alphabet),
                  parikh_group(2, m.alphabet)):
            rel = group_morphism_pairs(m, g)
            assert rel.matrix.diagonal().all()
            assert np.array_equal(rel.matrix, rel.matrix.T)


def test_group_pair_witnesses_evaluate_to_their_pair(morphism_corpus):
    for _, m in morphism_corpus[:10]:
        rel = group_morphism_pairs(m, cyclic_length_group(4, m.alphabet))
        for s, t in rel.pairs_iter():
            wit = rel.witness_for(s, t)
            if wit is not None:
                u, v = wit
                assert m.evaluate(u) == s and m.evaluate(v) == t


def test_group_pair_witnesses_share_a_group_image():
    # the two witness words must be indistinguishable to the group itself
    m = monoid_of("(ab)*", "ab")
    g = group_from_dict({
        "elements": 2,
        "table": [[0, 1], [1, 0]],
        "letter_image": {"a": 1, "b": 1},
    }, name="length-parity")
    rel = group_morphism_pairs(m, g)
    for s, t in rel.pairs_iter():
        wit = rel.witness_for(s, t)
        if wit is not None:
            u, v = wit
            assert len(u) % 2 == len(v) % 2


def test_explicit_pairs_round_trip():
    m = monoid_of("(aa)*", "a")
    rel = explicit_pairs(m, [(0, 0), (0, 1)], witnesses={(0, 1): ("", "a")})
    assert rel.pairs_set() == {(0, 0), (0, 1)}
    assert rel.witness_for(0, 1) == ("", "a")
    assert rel.witness_for(0, 0) == ("", "")  # element-word fallback


# --- the join and the witness hook against the per-basis oracles -------------

S3_DOC = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "data" / "s3.json").read_text())


def bucket_group_pairs(visited, n, words):
    """The bucket join the reach-mask product replaced, kept as the oracle:
    one np.ix_ block per group value γ in increasing order, and a dict in
    which the first bucket holding a pair fixes its witness words."""
    matrix = np.zeros((n, n), dtype=bool)
    witnesses = {}
    nodes = np.nonzero(visited)[0]
    cuts = np.nonzero(np.diff(nodes // n))[0] + 1
    for chunk in np.split(nodes, cuts):
        bucket = chunk % n
        matrix[np.ix_(bucket, bucket)] = True
        chunk_list, bucket_list = chunk.tolist(), bucket.tolist()
        for i, s in enumerate(bucket_list):
            for j, t in enumerate(bucket_list):
                if (s, t) not in witnesses:
                    u, v = words.get(chunk_list[i]), words.get(chunk_list[j])
                    witnesses[(s, t)] = (u, v) if u is not None and v is not None else None
    return matrix, witnesses


def test_group_join_equals_the_bucket_oracle(morphism_corpus):
    rng = random.Random(611)
    one_letter = [transition_monoid(random_minimal_dfa(rng, letters="a")) for _ in range(30)]
    for m in [m for _, m in morphism_corpus] + one_letter:
        groups = [trivial_group(m.alphabet), group_from_dict(Z3_DOC), group_from_dict(S3_DOC),
                  parikh_group(2, m.alphabet), cyclic_length_group(6, m.alphabet)]
        info = stable_sequence(m)
        cap = info.threshold + 2 * info.period + m.element_count
        for g in groups:
            if g.alphabet != m.alphabet:
                continue
            rel = group_morphism_pairs(m, g)
            visited, words = _group_reach(m, g, witness_cap=cap)
            matrix, witnesses = bucket_group_pairs(visited, m.element_count, words)
            assert np.array_equal(rel.matrix, matrix)
            for s, t in rel.pairs_iter():
                assert rel.witness_for(s, t) == witnesses[(s, t)]


def bfs_amt_pairs(
    m,
    node_budget=None,
):
    """The AMT relation before it was computed exactly, kept as the oracle:
    a BFS over (Z/q)^A × M at q = lcm(1..|M|), certified by one more BFS
    at q·r for every prime r ≤ |M|. Only the basis tag moved, from an
    argument of group_morphism_pairs into the final replace."""
    budget = node_budget if node_budget is not None else budget_from_env(DEFAULT_GROUP_NODE_BUDGET)
    n = m.element_count
    n_letters = len(m.alphabet)
    k, q = _feasible_lcm(n, n_letters, n, budget)
    base = group_morphism_pairs(m, parikh_group(q, m.alphabet))
    certified = k == n
    if certified:
        primes = [r for r in range(2, n + 1) if all(r % d for d in range(2, r))]
        for r in primes:
            if ((q * r) ** n_letters) * n > budget:
                certified = False
                break
            visited, _ = _group_reach(m, parikh_group(q * r, m.alphabet), witness_cap=0)
            if not np.array_equal(_group_join(visited, n), base.matrix):
                certified = False
                break
    return replace(base, basis=BASIS_AMT, certified=certified)


def test_amt_pairs_equal_the_certified_bfs_oracle(morphism_corpus):
    seen = set()
    compared = 0
    for _, m in morphism_corpus:
        key = (m.table.tobytes(), tuple(sorted(m.letter_image.items())))
        n = m.element_count
        # the oracle certifies only where lcm(1..|M|) fits its node budget
        if key in seen or _feasible_lcm(n, len(m.alphabet), n, DEFAULT_GROUP_NODE_BUDGET)[0] < n:
            continue
        seen.add(key)
        oracle = bfs_amt_pairs(m)
        if not oracle.certified:
            continue
        rel = amt_pairs(m)
        assert np.array_equal(rel.matrix, oracle.matrix)
        assert pairs_to_dict(rel) == pairs_to_dict(oracle)
        compared += 1
    assert compared >= 20


# --- lattices and cosets -----------------------------------------------------

UNITS_AB = [(1, 0), (0, 1)]


def test_hnf_membership_equals_brute_force_on_small_boxes():
    rng = random.Random(4242)
    for _ in range(60):
        dim = rng.choice((1, 2, 3))
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, 3 if dim < 3 else 2))]
        lattice = _hnf(gens)
        assert lattice == _hnf(gens[::-1] + [tuple(map(sum, zip(*gens))) if gens else (0,) * dim])
        for row in lattice:
            assert _reduce(row, lattice) == (0,) * dim
        # the lattice points that ± generator steps reach from 0 inside a box
        # well beyond the one tested
        radius = (60, 30, 10)[dim - 1]
        spanned, queue = {(0,) * dim}, [(0,) * dim]
        for v in queue:
            for g in gens:
                for w in (tuple(x + y for x, y in zip(v, g)), tuple(x - y for x, y in zip(v, g))):
                    if w not in spanned and max(map(abs, w)) <= radius:
                        spanned.add(w)
                        queue.append(w)
        for v in itertools.product(range(-3, 4), repeat=dim):
            assert (_reduce(v, lattice) == (0,) * dim) == (v in spanned), (gens, v)


def test_length_projected_cosets_equal_mod_pairs(morphism_corpus):
    for _, m in morphism_corpus:
        cosets = _parikh_cosets(m, [(1,)] * len(m.alphabet), 10**9)
        assert np.array_equal(_coset_join(cosets), mod_pairs(m).matrix)


def test_amt_pairs_on_an_empty_alphabet_and_a_one_element_monoid():
    empty = transition_monoid(Dfa(alphabet=(), states=1, initial=0,
                                  finals=frozenset({0}), delta=((),)))
    everything = monoid_of("(a|b)*", "ab")
    for m in (empty, everything):
        assert m.element_count == 1
        rel = amt_pairs(m)
        assert rel.pairs_set() == {(0, 0)}
        assert rel.witness_for(0, 0) == ("", "")


def test_amt_pairs_when_the_identity_is_its_own_component():
    # over {a}, "a" has M = {1, a, 0} with a·a = 0: no nonempty word returns
    # to 1, whose only coset is the point 0; 0 has the coset Z, and a the
    # point 1, so 1 and a are separated and both pair with 0
    m = monoid_of("a", "a")
    one, a = m.identity, m.evaluate("a")
    zero = m.evaluate("aa")
    assert m.identity not in m.nonempty_image and m.element_count == 3
    rel = amt_pairs(m)
    assert rel.pairs_set() == {(one, one), (a, a), (zero, zero), (one, zero),
                               (zero, one), (a, zero), (zero, a)}
    assert np.array_equal(rel.matrix, bfs_amt_pairs(m).matrix)
    # a⁺ over {a}: 1 is again its own component, but a counts to 0 mod q too
    m = monoid_of("aa*", "a")
    assert m.identity not in m.nonempty_image
    assert amt_pairs(m).count == 4


def _listing(rel, witness):
    return {"basis": rel.basis, "certified": rel.certified,
            "pairs": [[s, t, *(witness(s, t) or (None, None))] for s, t in rel.pairs_iter()]}


def test_st_mod_and_explicit_listings_keep_their_witnesses(morphism_corpus):
    for _, m in morphism_corpus[:100]:
        words = m.witness
        rel = st_pairs(m)
        assert pairs_to_dict(rel) == _listing(rel, lambda s, t: (words[s], words[t]))

        info = stable_sequence(m)
        n0, p = info.threshold, info.period
        window = n0 + 2 * p
        layers = words_by_length(m, window - 1)
        lengths = [(i, j) for i in range(window) for j in range(window)
                   if (i - j) % p == 0 and (i == j or max(i, j) >= n0)]

        def first_lengths(s, t):
            i, j = next((i, j) for i, j in lengths
                        if s in info.at_length(i) and t in info.at_length(j))
            return (layers[i][s], layers[j][t])

        rel = mod_pairs(m)
        assert pairs_to_dict(rel) == _listing(rel, first_lengths)

        n = m.element_count
        chosen = [(s, t) for s in range(n) for t in range(n) if (s * 7 + t) % 3 == 0]
        given = {pair: ("u", "v") for pair in chosen[::2]}
        rel = explicit_pairs(m, chosen, witnesses=given)
        assert pairs_to_dict(rel) == _listing(
            rel, lambda s, t: given.get((s, t), (words[s], words[t])))
