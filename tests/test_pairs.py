"""Pair relation tests: trivial, modular, alphabet-modular, custom groups.

The modular and alphabet-modular relations are checked against intersections
of explicit group-morphism relations — a slower but definitionally direct
computation.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from hierarchy_one import pairs
from hierarchy_one.lang import compile_dfa, minimize
from hierarchy_one.monoid import stable_sequence, transition_monoid, words_by_length
from hierarchy_one.pairs import (
    _group_reach,
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


def test_amt_budget_exhaustion_degrades_to_uncertified():
    m = monoid_of("(aa)*", "a")
    rel = amt_pairs(m, node_budget=5)
    assert not rel.certified
    # the budget-limited relation is still a sound over-approximation
    assert not (amt_pairs(m).matrix & ~rel.matrix).any()


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


def test_amt_certification_joins_equal_the_bucket_oracle(morphism_corpus, monkeypatch):
    joins = []
    join = pairs._group_join

    def recording_join(visited, n):
        matrix = join(visited, n)
        joins.append((visited, n, matrix))
        return matrix

    monkeypatch.setattr(pairs, "_group_join", recording_join)
    seen = set()
    for _, m in morphism_corpus:
        key = (m.table.tobytes(), tuple(sorted(m.letter_image.items())))
        if m.element_count > 6 or key in seen:
            continue
        seen.add(key)
        joins.clear()
        amt_pairs(m)
        assert len(joins) > 1 or m.element_count == 1
        for visited, n, matrix in joins:
            assert np.array_equal(matrix, bucket_group_pairs(visited, n, {})[0])


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
