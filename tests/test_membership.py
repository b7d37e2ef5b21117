"""Membership checks against brute-force equation evaluation.

The brute oracles multiply in a hand-composed transition table (see
test_monoid.hand_transition_monoid) and loop over every assignment, so they
share no code with the vectorized checkers.
"""

import random
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from hierarchy_one import membership
from hierarchy_one.covers import pgcov_cover, up_arrow
from hierarchy_one.errors import AlphabetError, UsageError
from hierarchy_one.lang import Dfa, combine, compile_dfa, minimal_dfa, minimize
from hierarchy_one.lang.dfa import dfa_from_dict
from hierarchy_one.lang.patterns import Concat, Letter
from hierarchy_one.membership import (
    BASES,
    EQ_GONE,
    EQ_GRBPOL,
    EQ_KNAST,
    EQ_POLG,
    EQ_POLGP,
    EQ_SIMON,
    EQ_WGONE,
    Report,
    Verdict,
    ViolationWitness,
    base_of,
    check_bpol_group,
    check_bpol_group_plus,
    check_pol_group,
    check_pol_group_plus,
    check_specialized,
    class_name,
    decide,
    pair_relation,
    verify_witness,
)
from hierarchy_one.monoid import products, syntactic_preorder, transition_monoid
from hierarchy_one.pairs import (
    amt_pairs,
    cyclic_length_group,
    explicit_pairs,
    group_from_dict,
    mod_pairs,
    st_pairs,
)
from tests.conftest import GOLDEN_VERDICTS, polc_holds, traced_peak
from tests.test_monoid import hand_transition_monoid


# --- brute-force oracles ------------------------------------------------------


def b_omega(table, x):
    p = x
    while table[p][p] != p:
        p = table[p][x]
    return p


def brute_simon_holds(table, s_elems):
    for s in s_elems:
        for t in s_elems:
            w = b_omega(table, table[s][t])
            if table[w][s] != w or table[t][w] != w:
                return False
    return True


def brute_knast_holds(table, s_elems, idems):
    def mul(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = table[acc][x]
        return acc

    for e in idems:
        for f in idems:
            for q in s_elems:
                for r in s_elems:
                    x = b_omega(table, mul(e, q, f, r, e))
                    for s in s_elems:
                        for t in s_elems:
                            y = b_omega(table, mul(e, s, f, t, e))
                            if mul(x, y) != mul(x, q, f, t, y):
                                return False
    return True


def brute_grbpol_holds(table, idems_m):
    for e in idems_m:
        for f in idems_m:
            if b_omega(table, table[e][f]) != b_omega(table, table[f][e]):
                return False
    return True


def brute_parts(d):
    index, words, table = hand_transition_monoid(d)
    # the nonempty-word image: close the letter images under right products
    letter_idx = [index[tuple(d.delta[q][i] for q in range(d.states))]
                  for i in range(len(d.alphabet))]
    s_set = set(letter_idx)
    frontier = list(s_set)
    while frontier:
        nxt = []
        for x in frontier:
            for g in letter_idx:
                y = table[x][g]
                if y not in s_set:
                    s_set.add(y)
                    nxt.append(y)
        frontier = nxt
    s_elems = sorted(s_set)
    idems_s = [x for x in s_elems if table[x][x] == x]
    idems_m = [x for x in range(len(table)) if table[x][x] == x]
    return table, s_elems, idems_s, idems_m


def test_brute_oracles_on_named_languages():
    alternating = minimize(compile_dfa("(ab)*", "ab"))
    table, s_elems, idems_s, idems_m = brute_parts(alternating)
    assert not brute_simon_holds(table, s_elems)
    assert brute_knast_holds(table, s_elems, idems_s)
    assert brute_grbpol_holds(table, idems_m)

    one_each = minimize(compile_dfa("(a|b)*a(a|b)*b(a|b)*", "ab"))
    table, s_elems, idems_s, _ = brute_parts(one_each)
    assert brute_simon_holds(table, s_elems)

    ends_in_a = minimize(compile_dfa("(a|b)*a", "ab"))
    table, _, _, idems_m = brute_parts(ends_in_a)
    assert not brute_grbpol_holds(table, idems_m)


def test_specialized_checkers_match_brute_force(dfa_corpus):
    checked = 0
    for d in dfa_corpus:
        if len(hand_transition_monoid(d)[2]) > 7:
            continue
        checked += 1
        if checked > 25:
            break
        table, s_elems, idems_s, idems_m = brute_parts(d)
        m = transition_monoid(d)
        assert check_specialized(m, EQ_SIMON).member == brute_simon_holds(table, s_elems)
        assert check_specialized(m, EQ_KNAST).member == brute_knast_holds(table, s_elems, idems_s)
        assert check_specialized(m, EQ_GRBPOL).member == brute_grbpol_holds(table, idems_m)
    assert checked > 10


def loop_knast(m):
    """KNAST swept one |S|×|S| (r, t) block per (q, s, e, f), in that
    nesting order over S and E(S). Returns the first violation's Verdict."""
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = np.array([m.omega(x) for x in range(m.element_count)], dtype=np.int32)
    sub = np.fromiter(sorted(m.nonempty_image), dtype=np.int32,
                      count=len(m.nonempty_image))
    idem = list(m.idempotents_s)
    k = len(sub)
    for q in (int(x) for x in sub):
        for s in (int(x) for x in sub):
            for e in idem:
                for f in idem:
                    eq_f = int(table[table[e, q], f])
                    es_f = int(table[table[e, s], f])
                    x_r = table[table[eq_f, sub], e]      # e q f r e, r over S
                    y_t = table[table[es_f, sub], e]
                    x_om = omega[x_r]
                    y_om = omega[y_t]
                    lhs = table[x_om][:, y_om]
                    head = table[table[x_om, q], f]
                    mid = table[head][:, sub]             # (eqfre)^ω q f t
                    rhs = table[mid, np.broadcast_to(y_om, (k, k))]
                    bad = np.argwhere(lhs != rhs)
                    if len(bad):
                        ri, ti = (int(v) for v in bad[0])
                        r, t = int(sub[ri]), int(sub[ti])
                        return Verdict(False, EQ_KNAST, ViolationWitness(
                            elements={"q": q, "r": r, "s": s, "t": t, "e": e, "f": f},
                            words={k2: m.witness[v2] for k2, v2 in
                                   (("q", q), ("r", r), ("s", s), ("t", t), ("e", e), ("f", f))},
                            lhs=int(lhs[ri, ti]),
                            rhs=int(rhs[ri, ti]),
                        ))
    return Verdict(True, EQ_KNAST)


def test_knast_first_violation_matches_the_block_loop(morphism_corpus):
    refuted = 0
    for _, m in morphism_corpus:
        verdict = check_specialized(m, EQ_KNAST)
        assert verdict == loop_knast(m)
        if not verdict.member:
            assert verify_witness(m, verdict)
            refuted += 1
    assert refuted > 50


# --- golden verdicts ----------------------------------------------------------


@pytest.mark.parametrize("pattern,alphabet,basis,level,plus,member", GOLDEN_VERDICTS)
def test_golden_verdicts(pattern, alphabet, basis, level, plus, member):
    report = decide(pattern, alphabet, basis=basis, level=level, plus=plus)
    assert report.member == member
    assert report.certified


def test_alternating_words_refutation_is_stable():
    report = decide("(ab)*", "ab", basis="st", level="bpol")
    w = report.witness
    assert report.equation == EQ_GONE
    assert w.elements == {"q": 0, "r": 0, "s": 1, "t": 2}
    assert w.words == {"q": "", "r": "", "s": "a", "t": "b"}
    assert (w.lhs, w.rhs) == (4, 2)


def test_simon_violation_witness_for_alternating_words():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    v = check_specialized(m, EQ_SIMON)
    assert not v.member
    assert v.witness.elements == {"s": 1, "t": 2}
    assert v.witness.words == {"s": "a", "t": "b"}


def test_suffix_language_fails_the_group_base():
    report = decide("(a|b)*a", "ab", basis="gr", level="bpol")
    assert not report.member
    assert report.equation == EQ_GRBPOL
    assert report.witness.words == {"e": "a", "f": "b"}
    assert decide("(ab)*", "ab", basis="gr", level="bpol").member


# --- generic/specialized equivalences ------------------------------------------


def test_trivial_base_equations_reduce_to_specialized_forms(morphism_corpus):
    for _, m in morphism_corpus[:60]:
        rel = st_pairs(m)
        assert check_bpol_group(m, rel).member == check_specialized(m, EQ_SIMON).member
        assert (check_bpol_group_plus(m, rel).member
                == check_specialized(m, EQ_KNAST).member)


def test_ordered_equation_forms_agree_on_the_trivial_base(morphism_corpus):
    # the one-sided inequality over (1, s) pairs and the two-sided product
    # inequality over all pairs answer the same question here
    for _, m in morphism_corpus[:40]:
        order = syntactic_preorder(m)
        rel = st_pairs(m)
        assert polc_holds(m, order, rel) == check_pol_group(m, order, rel).member


def test_pol_results_carry_equation_tags(morphism_corpus):
    _, m = morphism_corpus[0]
    order = syntactic_preorder(m)
    rel = st_pairs(m)
    assert check_pol_group(m, order, rel).equation == EQ_POLG
    assert check_pol_group_plus(m, order, rel).equation == EQ_POLGP
    assert check_bpol_group_plus(m, rel).equation == EQ_WGONE


def loop_pol_group_plus(m, order, rel):
    """POLGP swept one (e, s) at a time: e in E(S) order, then s ascending.
    Returns the first violation as (e, s, e s e), or None."""
    table = m.table
    for e in m.idempotents_s:
        for s in range(m.element_count):
            if rel.matrix[m.identity, s]:
                rhs = int(table[table[e, s], e])
                if not order.matrix[e, rhs]:
                    return (e, s, rhs)
    return None


def test_pol_group_plus_first_violation_matches_the_pair_loop(morphism_corpus):
    rng = random.Random(919)
    refuted = 0
    for _, m in morphism_corpus:
        order = syntactic_preorder(m)
        n = m.element_count
        # random (1, s) subsets reach non-members the full relations miss
        sub = explicit_pairs(m, [(m.identity, s) for s in range(n) if rng.random() < 0.5])
        for rel in (st_pairs(m), mod_pairs(m), sub):
            expected = loop_pol_group_plus(m, order, rel)
            verdict = check_pol_group_plus(m, order, rel)
            assert verdict.member == (expected is None)
            if expected is not None:
                e, s, rhs = expected
                assert verdict.witness.elements == {"e": e, "s": s}
                assert (verdict.witness.lhs, verdict.witness.rhs) == (e, rhs)
                assert verify_witness(m, verdict, order=order)
                refuted += 1
    assert refuted > 100


def per_e_pol_group_plus(m, order, rel):
    """POLGP swept one idempotent e at a time, all candidates s in one gather
    each: the form the [e, s] block replaced, kept as its oracle."""
    table = np.asarray(m.table)
    one = m.identity
    candidates = np.nonzero(rel.matrix[one])[0]
    for e in m.idempotents_s:
        rhs = table[table[e, candidates], e]     # e s e for every candidate s
        bad = np.nonzero(~order.matrix[e, rhs])[0]
        if len(bad):
            s = int(candidates[bad[0]])
            _, v = membership._pair_words(m, rel, one, s)
            return Verdict(False, EQ_POLGP, ViolationWitness(
                elements={"e": e, "s": s},
                words={"e": m.witness[e], "s": v},
                lhs=e,
                rhs=int(rhs[bad[0]]),
            ))
    return Verdict(True, EQ_POLGP)


def test_pol_group_plus_verdict_matches_the_per_e_loop(morphism_corpus, monkeypatch):
    # whole Verdicts, witness words included, over ST, MOD and AMT pairs,
    # AMT on a slice since an AMT witness runs a group BFS of ~0.1 s; the
    # [e, s] blocks are sized by _WHOLE_SWEEP, so an entry cap of 2|M| leaves
    # them as they are (the test below splits them)
    refuted = 0
    for i, (_, m) in enumerate(morphism_corpus):
        order = syntactic_preorder(m)
        for rel in (st_pairs(m), mod_pairs(m), *([amt_pairs(m)] if i < 40 else [])):
            expected = per_e_pol_group_plus(m, order, rel)
            assert check_pol_group_plus(m, order, rel) == expected
            with monkeypatch.context() as patch:
                patch.setattr(membership, "_ENTRY_CAP", 2 * m.element_count)
                assert check_pol_group_plus(m, order, rel) == expected
            refuted += not expected.member
    assert refuted > 100


def test_pol_group_plus_verdict_matches_the_per_e_loop_in_slabs_of_2m(morphism_corpus,
                                                                       monkeypatch):
    # a slab of 2|M| entries splits each [e, s] block into rows of two or
    # more e, since a row holds at most |M| candidates s
    refuted = split = 0
    for i, (_, m) in enumerate(morphism_corpus):
        order = syntactic_preorder(m)
        monkeypatch.setattr(membership, "_WHOLE_SWEEP", 2 * m.element_count)
        for rel in (st_pairs(m), mod_pairs(m), *([amt_pairs(m)] if i < 40 else [])):
            expected = per_e_pol_group_plus(m, order, rel)
            assert check_pol_group_plus(m, order, rel) == expected
            refuted += not expected.member
            split += len(membership._slabs(len(m.idempotents_s), rel.matrix[m.identity].sum())) > 1
    assert refuted > 100 and split > 100


def test_pol_group_plus_verdict_matches_the_per_e_loop_on_ladders():
    # e s e = e on the ladders (the last k letters decide the image), so
    # every relation is a full sweep of |E(S)| = (|M| + 1) / 2 rows
    rng = random.Random(1123)
    for k in range(2, 9):
        m = nth_letter_from_end(k)
        order = syntactic_preorder(m)
        n = m.element_count
        for rel in (st_pairs(m), mod_pairs(m),
                    explicit_pairs(m, [(m.identity, s) for s in range(n) if rng.random() < 0.5])):
            verdict = check_pol_group_plus(m, order, rel)
            assert verdict == per_e_pol_group_plus(m, order, rel) == Verdict(True, EQ_POLGP)


def loop_pol_group(m, order, rel):
    """POLG: 1 ≤ s whenever (1, s) is a pair."""
    one = m.identity
    for s in (int(x) for x in np.nonzero(rel.matrix[one])[0]):
        if not order.matrix[one, s]:
            _, v = membership._pair_words(m, rel, one, s)
            return Verdict(False, EQ_POLG, ViolationWitness(
                elements={"s": s}, words={"s": v}, lhs=one, rhs=s,
            ))
    return Verdict(True, EQ_POLG)


def test_pol_group_verdict_matches_the_pair_loop(morphism_corpus):
    # POLG is the Pol sweep at e = 1: whole Verdicts, witness words
    # included, against the per-s loop it replaced, over ST, MOD, random
    # explicit relations and, on a slice, AMT
    rng = random.Random(3301)
    refuted = 0
    for i, (_, m) in enumerate(morphism_corpus):
        order = syntactic_preorder(m)
        n = m.element_count
        relations = [st_pairs(m), mod_pairs(m), *([amt_pairs(m)] if i < 40 else [])]
        for density in (0.05, 0.3, 0.8):
            relations.append(explicit_pairs(
                m, [(q, s) for q in range(n) for s in range(n) if rng.random() < density]))
        for rel in relations:
            expected = loop_pol_group(m, order, rel)
            assert check_pol_group(m, order, rel) == expected
            refuted += not expected.member
    assert refuted > 100


def test_pol_group_verdict_matches_the_pair_loop_on_ladders():
    for k in range(2, 9):
        m = nth_letter_from_end(k)
        order = syntactic_preorder(m)
        rel = st_pairs(m)
        assert check_pol_group(m, order, rel) == loop_pol_group(m, order, rel)


def test_pol_group_and_pol_group_plus_do_not_call_each_other(monkeypatch, morphism_corpus):
    # perfbench wraps both checkers by name and times each call, so a call
    # of one inside the other would show up as a span of the other
    cases = [(m, syntactic_preorder(m), st_pairs(m)) for _, m in morphism_corpus[:40]]
    expected = [(check_pol_group(*case), check_pol_group_plus(*case)) for case in cases]

    def forbidden(*args):
        raise AssertionError("the checkers must not call each other")

    monkeypatch.setattr(membership, "check_pol_group", forbidden)
    assert [check_pol_group_plus(*case) for case in cases] == [p for _, p in expected]
    monkeypatch.undo()
    monkeypatch.setattr(membership, "check_pol_group_plus", forbidden)
    assert [check_pol_group(*case) for case in cases] == [g for g, _ in expected]


def test_pair_without_recorded_words_is_shown_by_element_words():
    # (1, b) is an AMT pair past the witness cap of the group BFS, so the
    # refutation names s by its shortest word: the words evaluate to the
    # elements but do not witness the pair. Pinned in the benchmark too
    # (groups.draw26.amt.pol); a change to the cap must fail here first.
    d = dfa_from_dict({"alphabet": ["a", "b"], "states": 3, "initial": 0, "finals": [2],
                       "delta": {"a": [2, 2, 1], "b": [2, 1, 2]}})
    m = transition_monoid(minimize(d))
    assert amt_pairs(m).witness_for(m.identity, 2) is None
    report = decide(d, basis="amt", level="pol")
    assert (report.member, report.equation) == (False, EQ_POLG)
    assert report.witness.elements == {"s": 2}
    assert report.witness.words == {"s": "b"}


def loop_wgone(m, rel):
    """WGONE swept one |M|×|M| (r, t) block per (q, s, e, f): pairs (q, s)
    row-major with s = q skipped, then e, f in E(S) order. Returns the
    first violation's Verdict."""
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = np.array([m.omega(x) for x in range(n)], dtype=np.int32)
    every = np.arange(n)
    for q in range(n):
        for s in range(n):
            if s == q or not rel.matrix[q, s]:
                continue
            for e in m.idempotents_s:
                for f in m.idempotents_s:
                    x_r = table[table[table[table[e, q], f], every], e]   # e q f r e
                    y_t = table[table[table[table[e, s], f], every], e]   # e s f t e
                    x_om, y_om = omega[x_r], omega[y_t]
                    lhs = table[x_om][:, table[y_om, y_t]]
                    head = table[table[x_om, q], f]                      # (eqfre)^ω q f
                    rhs = table[table[head], np.broadcast_to(y_om, (n, n))]
                    bad = np.argwhere(lhs != rhs)
                    if len(bad):
                        r, t = (int(v) for v in bad[0])
                        wit = rel.witness_for(q, s)
                        u, v = wit if wit is not None else (m.witness[q], m.witness[s])
                        return Verdict(False, EQ_WGONE, ViolationWitness(
                            elements={"q": q, "r": r, "s": s, "t": t, "e": e, "f": f},
                            words={"q": u, "r": m.witness[r], "s": v, "t": m.witness[t],
                                   "e": m.witness[e], "f": m.witness[f]},
                            lhs=int(lhs[r, t]),
                            rhs=int(rhs[r, t]),
                        ))
    return Verdict(True, EQ_WGONE)


def test_wgone_first_violation_matches_the_block_loop(morphism_corpus):
    rng = random.Random(4211)
    refuted = 0
    for _, m in morphism_corpus:
        n = m.element_count
        relations = [st_pairs(m), mod_pairs(m)]
        for density in (0.05, 0.3, 0.8):
            relations.append(explicit_pairs(
                m, [(q, s) for q in range(n) for s in range(n) if rng.random() < density]))
        for rel in relations:
            expected = loop_wgone(m, rel)
            verdict = check_bpol_group_plus(m, rel)
            assert verdict == expected
            if not verdict.member:
                assert verify_witness(m, verdict)
                refuted += 1
    assert refuted > 100


def test_wgone_first_violation_matches_the_block_loop_on_ladders():
    # the n-th-letter monoids k = 2, 3 (|M| = 7, 15; |E(S)| = 4, 8) are
    # dot-depth one, so every relation here is a full sweep: ST and MOD
    # pairs and random explicit relations
    rng = random.Random(2718)
    for k in (2, 3):
        m = nth_letter_from_end(k)
        n = m.element_count
        relations = [st_pairs(m), mod_pairs(m)]
        for density in (0.05, 0.3, 0.8):
            relations.append(explicit_pairs(
                m, [(q, s) for q in range(n) for s in range(n) if rng.random() < density]))
        for rel in relations:
            verdict = check_bpol_group_plus(m, rel)
            assert verdict == loop_wgone(m, rel)
            if not verdict.member:
                assert verify_witness(m, verdict)


def test_wgone_first_violation_matches_the_block_loop_on_sparse_relations(morphism_corpus):
    # sparse relations leave an (e, X) with failing row classes unsettled
    # across many units, until a later q pairs it with a failing Y
    for seed in range(8):
        rng = random.Random(seed)
        for _, m in morphism_corpus:
            n = m.element_count
            rel = explicit_pairs(m, [(q, s) for q in range(n) for s in range(n)
                                     if rng.random() < 0.02])
            assert check_bpol_group_plus(m, rel) == loop_wgone(m, rel)


def loop_gone(m, rel):
    """GONE swept one |M|×|M| (r, t) block per pair (q, s): q ascending,
    then s ascending with s = q skipped. Returns the first violation's
    Verdict."""
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = np.array([m.omega(x) for x in range(n)], dtype=np.int32)
    prod_omega = omega[table]                      # [x, y] -> (xy)^ω
    prod_omega_plus = table[prod_omega, table]     # [x, y] -> (xy)^{ω+1}
    col = np.broadcast_to(np.arange(n, dtype=np.int32)[:, None], (n, n))
    after_q = table[prod_omega, col]               # [q, r] -> (qr)^ω q
    last_q = -1
    lhs_rows = rhs_base = None
    for q in range(n):
        ss = np.nonzero(rel.matrix[q])[0]
        if len(ss) == 0:
            continue
        if q != last_q:
            lhs_rows = table[prod_omega[q]]        # [r, y] -> (qr)^ω y
            rhs_base = table[after_q[q]]           # [r, y] -> (qr)^ω q y
            last_q = q
        for s in (int(x) for x in ss):
            if s == q:
                # (q, q) cannot violate: (qt)^{ω+1} = q·t·(qt)^ω makes the
                # sides literally equal.
                continue
            lhs = lhs_rows[:, prod_omega_plus[s]]
            rhs = table[rhs_base, np.broadcast_to(prod_omega[s], (n, n))]
            neq = lhs != rhs
            if neq.any():
                flat = int(np.argmax(neq))
                r, t = flat // n, flat % n
                wit = rel.witness_for(q, s)
                u, v = wit if wit is not None else (m.witness[q], m.witness[s])
                return Verdict(False, EQ_GONE, ViolationWitness(
                    elements={"q": q, "r": r, "s": s, "t": t},
                    words={"q": u, "r": m.witness[r], "s": v, "t": m.witness[t]},
                    lhs=int(lhs[r, t]),
                    rhs=int(rhs[r, t]),
                ))
    return Verdict(True, EQ_GONE)


def nth_letter_from_end(k):
    """(a|b)*a(a|b)^(k-1): |M| = 2^(k+1) - 1."""
    return transition_monoid(minimize(compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab")))


def test_gone_first_violation_matches_the_block_loop(morphism_corpus):
    rng = random.Random(5309)
    cases = []
    for _, m in morphism_corpus:
        n = m.element_count
        cases += [(m, st_pairs(m)), (m, mod_pairs(m))]
        for density in (0.05, 0.3, 0.8):
            cases.append((m, explicit_pairs(
                m, [(q, s) for q in range(n) for s in range(n) if rng.random() < density])))
    for k in range(2, 9):
        m = nth_letter_from_end(k)
        cases.append((m, st_pairs(m)))
        if k <= 6:
            cases.append((m, mod_pairs(m)))
    refuted = 0
    for m, rel in cases:
        verdict = check_bpol_group(m, rel)
        assert verdict == loop_gone(m, rel)
        if not verdict.member:
            assert verify_witness(m, verdict)
            refuted += 1
    assert refuted >= 300


def subword_dfa(word, alphabet="abc"):
    """A*w₁A*…A*w_kA*: the words that contain `word` as a subword."""
    any_ = "(" + "|".join(alphabet) + ")*"
    return compile_dfa(any_ + any_.join(word) + any_, alphabet)


def pt_member():
    """A piecewise-testable language with |M| = 143: GONE sweeps every block."""
    m = transition_monoid(minimize(combine(
        combine(subword_dfa("aba"), subword_dfa("bcca"), "union"),
        combine(subword_dfa("abbb"), subword_dfa("cbab"), "intersection"),
        "difference")))
    assert m.element_count == 143
    return m


@pytest.mark.parametrize("case", ["pt_member", "mod_ladder_7"])
def test_gone_decides_large_monoids_in_seconds(case):
    if case == "pt_member":
        m = pt_member()
        rel = st_pairs(m)
    else:
        # |M| = 255, whose first violation comes only at q = 127
        m = nth_letter_from_end(7)
        assert m.element_count == 255
        rel = mod_pairs(m)
    t0 = time.perf_counter()
    verdict = check_bpol_group(m, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    if case == "pt_member":
        assert verdict.member
        assert check_specialized(m, EQ_SIMON).member
    else:
        # pinned from loop_gone, which takes about 14 s here
        assert verdict == Verdict(False, EQ_GONE, ViolationWitness(
            elements={"q": 127, "r": 2, "s": 0, "t": 0},
            words={"q": "aaaaaaa", "r": "b", "s": "", "t": ""},
            lhs=128, rhs=127))
        assert verify_witness(m, verdict)


@pytest.fixture(scope="module")
def corpus_sweeps(morphism_corpus):
    """(m, rel, GONE verdict, WGONE verdict) of the block loops, for every
    corpus monoid over ST, MOD and explicit relations of four densities, and
    over ST and MOD for 40 seeded random 4-state DFAs with 8 ≤ |M| ≤ 16,
    whose WGONE sweeps often hold thousands of positions of up to 16² (r, t)
    entries each but at most a few hundred distinct blocks."""
    rng = random.Random(6007)
    cases = []
    for _, m in morphism_corpus:
        n = m.element_count
        relations = [st_pairs(m), mod_pairs(m)]
        for density in (0.02, 0.05, 0.3, 0.8):
            relations.append(explicit_pairs(
                m, [(q, s) for q in range(n) for s in range(n) if rng.random() < density]))
        cases += [(m, rel, loop_gone(m, rel), loop_wgone(m, rel)) for rel in relations]
    for _ in range(40):
        m = None
        while m is None or not 8 <= m.element_count <= 16:
            delta = tuple(tuple(rng.randrange(4) for _ in "ab") for _ in range(4))
            finals = frozenset(q for q in range(4) if rng.random() < 0.5)
            m = transition_monoid(minimize(Dfa(("a", "b"), 4, 0, finals, delta)))
        cases += [(m, rel, loop_gone(m, rel), loop_wgone(m, rel))
                  for rel in (st_pairs(m), mod_pairs(m))]
    return cases


@pytest.mark.parametrize("cap", ["default", "one q and one e"])
def test_filtered_sweep_matches_the_block_loops_on_the_corpus(corpus_sweeps, monkeypatch, cap):
    # with _WHOLE_SWEEP = 0 every sweep takes the filtered path, which the
    # corpus monoids (|M| ≤ 26) never reach on their own; _ENTRY_CAP = 1 makes
    # each unit one q and one e, and each fail-relation chunk one column class
    monkeypatch.setattr(membership, "_WHOLE_SWEEP", 0)
    if cap != "default":
        monkeypatch.setattr(membership, "_ENTRY_CAP", 1)
    first_q = refuted = 0
    for m, rel, gone, wgone in corpus_sweeps:
        for check, expected in ((check_bpol_group, gone), (check_bpol_group_plus, wgone)):
            verdict = check(m, rel)
            assert verdict == expected
            if not verdict.member:
                refuted += 1
                q0 = next(q for q in range(m.element_count)
                          if rel.matrix[q].sum() > rel.matrix[q, q])
                first_q += verdict.witness.elements["q"] == q0
    assert refuted > 800
    assert first_q > 600        # violations in the first q, where the walk exits early


def sweep_positions(rel, idem):
    """The positions (q, s, e, f) of the class sweep of `rel` over `idem`."""
    return (int(rel.matrix.sum()) - int(np.trace(rel.matrix))) * len(idem) ** 2


def takes_whole_sweep(m, rel, idem):
    """Whether the class sweep of `rel` over `idem` is read off whole: it has
    a pair (q, s) with q ≠ s, and its distinct blocks (e, eqf, esf) hold at
    most _WHOLE_SWEEP (r, t) entries. They are counted only for a sweep of at
    most _WHOLE_SWEEP positions (q, s, e, f); with one idempotent they are
    taken to be the positions."""
    pairs = np.array(rel.matrix, dtype=bool)
    np.fill_diagonal(pairs, False)
    n, k = m.element_count, len(idem)
    blocks = positions = sweep_positions(rel, idem)
    if k > 1 and positions <= membership._WHOLE_SWEEP:
        q, s = pairs.nonzero()
        e = np.array(idem)[:, None, None]
        f = np.array(idem)[None, None, :]
        i = np.broadcast_to(np.arange(k)[:, None, None], (k, len(q), k))
        x = m.table[m.table[e, q[None, :, None]], f]          # [i, pair, j] -> e q f
        y = m.table[m.table[e, s[None, :, None]], f]
        blocks = len(np.unique(np.stack([i, x, y]).reshape(3, -1), axis=1)[0])
    return 0 < blocks * n * n <= membership._WHOLE_SWEEP


@pytest.mark.parametrize("cap", ["default", "one q and one e"])
def test_whole_sweep_evaluates_its_blocks_in_one_call(corpus_sweeps, monkeypatch, cap):
    # a sweep read off whole evaluates every distinct block in one
    # _block_sides call, whatever the class walk's unit sizes: sparse
    # relations on the ladders span up to |M| q, one walk unit each
    rng = random.Random(7741)
    cases = []
    for k, counts in ((5, (3, 16)), (6, (2, 4))):         # |M| = 63 and 127
        m = nth_letter_from_end(k)
        n = m.element_count
        for count in counts:
            rel = explicit_pairs(m, [divmod(x, n) for x in rng.sample(range(n * n), count)
                                     if x % (n + 1)])     # no (q, q)
            cases.append((m, rel, (m.identity,), check_bpol_group, loop_gone(m, rel)))
    for m, rel, gone, wgone in corpus_sweeps:
        cases.append((m, rel, (m.identity,), check_bpol_group, gone))
        cases.append((m, rel, m.idempotents_s, check_bpol_group_plus, wgone))
    if cap != "default":
        monkeypatch.setattr(membership, "_ENTRY_CAP", 1)
    calls = []
    block_sides = membership._block_sides

    def counted(*args):
        calls.append(args)
        return block_sides(*args)

    monkeypatch.setattr(membership, "_block_sides", counted)
    whole = by_blocks = 0
    for m, rel, idem, check, expected in cases:
        calls.clear()
        assert check(m, rel) == expected
        if takes_whole_sweep(m, rel, idem):
            assert len(calls) == 1
            whole += 1
            # more than _WHOLE_SWEEP entries by its positions, read off by its blocks
            by_blocks += sweep_positions(rel, idem) * m.element_count ** 2 > membership._WHOLE_SWEEP
        else:
            assert not calls
    assert whole > 600
    assert by_blocks >= 20
    assert all(takes_whole_sweep(m, rel, idem) for m, rel, idem, *_ in cases[:4])


def test_sweep_read_off_by_its_blocks_peaks_within_three_slabs(corpus_sweeps):
    # the sweep of most positions that is read off whole by its blocks and not
    # by its positions: no array of it outgrows a slab of int64 entries much,
    # where its two int32 sides gathered per position would take
    # positions · |M|² · 8 bytes
    slab = membership._WHOLE_SWEEP
    positions, m, rel = max(
        ((sweep_positions(rel, m.idempotents_s), m, rel) for m, rel, *_ in corpus_sweeps
         if sweep_positions(rel, m.idempotents_s) * m.element_count ** 2 > slab
         and takes_whole_sweep(m, rel, m.idempotents_s)),
        key=lambda c: c[0])
    assert positions * m.element_count ** 2 > 40 * slab
    check_bpol_group_plus(m, rel)
    _, peak = traced_peak(check_bpol_group_plus, m, rel)
    assert peak < 3 * 8 * slab


def test_filtered_sweep_evaluates_no_block(monkeypatch):
    # members decided from the class fail relation alone, and a non-member's
    # first violation read off its classes: no block's sides are computed
    def forbidden(*args):
        raise AssertionError("a filtered sweep evaluated a block")

    m4, m143, m5 = nth_letter_from_end(4), pt_member(), nth_letter_from_end(5)
    expected = loop_gone(m5, st_pairs(m5))
    monkeypatch.setattr(membership, "_block_sides", forbidden)
    assert check_bpol_group_plus(m4, st_pairs(m4)).member
    assert check_bpol_group(m143, st_pairs(m143)).member
    verdict = check_bpol_group(m5, st_pairs(m5))
    assert not verdict.member
    assert verdict == expected


def test_filtered_sweep_marks_more_than_64_x_per_unit(monkeypatch):
    # a larger cap puts 65 q of |M| = 127 in one GONE unit, so the X of one e
    # take two 64-bit words
    m = nth_letter_from_end(6)
    expected = [loop_gone(m, rel) for rel in (st_pairs(m), mod_pairs(m))]
    widths = []
    bit_words = membership._bit_words

    def counted(bits):
        widths.append(len(bits))
        return bit_words(bits)

    monkeypatch.setattr(membership, "_bit_words", counted)
    monkeypatch.setattr(membership, "_ENTRY_CAP", 1 << 27)
    assert [check_bpol_group(m, rel) for rel in (st_pairs(m), mod_pairs(m))] == expected
    assert max(widths) > 64


@pytest.mark.parametrize("k", [4, 5, 6])
def test_nth_letter_from_end_is_dot_depth_one_in_seconds(k):
    # |M| = 2^(k+1) - 1: 31, 63 and 127 elements, up to 66 M (q, s, e, f) blocks
    m = transition_monoid(minimize(compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab")))
    assert m.element_count == 2 ** (k + 1) - 1
    rel = st_pairs(m)
    t0 = time.perf_counter()
    verdict = check_bpol_group_plus(m, rel)
    elapsed = time.perf_counter() - t0
    assert verdict.member
    assert elapsed < 5.0
    # the sweep's arrays and temporaries stay within 16 cap-sized byte
    # buffers; one unit spanning the whole sweep would take hundreds of MB
    _, peak = traced_peak(check_bpol_group_plus, m, rel)
    assert peak < 16 * membership._ENTRY_CAP
    if k == 4:
        assert check_specialized(m, EQ_KNAST).member
    else:
        # Pol(ST+) ⊆ BPol(ST+)
        assert check_pol_group_plus(m, syntactic_preorder(m), rel).member


def test_gone_peak_stays_within_five_tables():
    # the column classes of the one e are built in slabs of Z rows into one
    # int32 [Z, t] array; built whole, their index temporaries took 6.8 MB
    m = nth_letter_from_end(8)
    n = m.element_count
    assert n == 511
    verdict, peak = traced_peak(check_bpol_group, m, st_pairs(m))
    assert not verdict.member
    assert peak < 5 * n * n * 4


def test_wgone_peak_does_not_grow_with_the_idempotents():
    # |E(S)| = 128 e blocks, of which the sweep keeps one; keeping every
    # block's column classes and row classes took 60.7 MB
    m = nth_letter_from_end(7)
    n = m.element_count
    assert (n, len(m.idempotents_s)) == (255, 128)
    verdict, peak = traced_peak(check_bpol_group_plus, m, st_pairs(m))
    assert verdict.member
    assert peak < 16 * n * n * 4


def test_gone_peak_stays_within_three_and_a_half_tables():
    # the key -> index map of the column classes is int16 and summed in place,
    # and the class bits of the Y are gathered in slabs of Z rows; gathered
    # whole, through an intp copy of the [Z, t] class indices, they took 3.86
    # tables; the first call is untraced, so one-time imports stay out
    m = nth_letter_from_end(8)
    n = m.element_count
    rel = st_pairs(m)
    check_bpol_group(m, rel)
    verdict, peak = traced_peak(check_bpol_group, m, rel)
    assert not verdict.member
    assert peak < 3.5 * n * n * 4


def test_pol_sweep_peak_does_not_grow_with_the_sweep():
    # |E(S)| · |M| = 512 · 1023 entries, swept in [e, s] blocks of at most
    # _WHOLE_SWEEP entries; blocks of 2^20 entries took 10 MB
    m = nth_letter_from_end(9)
    order, rel = syntactic_preorder(m), st_pairs(m)
    assert (m.element_count, len(m.idempotents_s)) == (1023, 512)
    check_pol_group_plus(m, order, rel)
    verdict, peak = traced_peak(check_pol_group_plus, m, order, rel)
    assert verdict.member
    assert peak < 32 * membership._WHOLE_SWEEP


@pytest.mark.parametrize("k, plus", [(7, False), (4, True)], ids=["GONE", "WGONE"])
def test_class_walk_does_not_import_numpy_ma(k, plus):
    # a plain np.unique imports numpy.ma (about 2 MB of resident memory); the
    # class walk takes its inverse from np.unique(return_inverse=True), which
    # does not, so a fresh process that decides by a class walk never loads it
    script = (
        "import sys\n"
        "from hierarchy_one import membership\n"
        "walk, walks = membership._class_walk, []\n"
        "membership._class_walk = lambda *args: walks.append(1) or walk(*args)\n"
        f"membership.decide('(a|b)*a' + '(a|b)' * {k}, 'ab', 'st', 'bpol', {plus})\n"
        "print(len(walks), 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == ["1", "False"]


def test_class_vectors_are_the_omega_powers_of_x_e(morphism_corpus):
    # W[i, x] = (x·e)^ω and C[i, x] = (x·e)^{ω+1} for e = idem[i], against the
    # scalar omega, over E(S) ∪ {1} on the corpus and the ladders up to |M| = 511
    monoids = [m for _, m in morphism_corpus] + [nth_letter_from_end(k) for k in range(1, 9)]
    for m in monoids:
        table = np.ascontiguousarray(m.table, dtype=np.int32)
        idem = np.array(sorted({m.identity, *m.idempotents_s}), dtype=np.int32)
        w, c = membership._class_vectors(table, membership._omega_all(m), idem)
        assert w.shape == c.shape == (len(idem), m.element_count)
        for i, e in enumerate(idem.tolist()):
            y = [m.mul(x, e) for x in range(m.element_count)]
            omega = [m.omega(v) for v in y]
            assert w[i].tolist() == omega
            assert c[i].tolist() == [m.mul(z, v) for z, v in zip(omega, y)]


@pytest.mark.parametrize("order", [5, 181, 182])
def test_column_classes_index_every_class_on_both_sides_of_int16(order):
    # in the cyclic group of `order`, e = 1 and (Zt)^ω = 1, so the column class
    # of (1, Z, t) is (Zt, t): order² classes, 32 761 at 181 and 33 124 at
    # 182, the first count that an int16 key -> index map cannot hold
    m = transition_monoid(minimize(compile_dfa("(" + "a" * order + ")*", "a")))
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    e = np.array([m.identity], dtype=np.int32)
    local = np.zeros((1, 1, 1), dtype=np.int32)
    vectors = membership._class_vectors(table, membership._omega_all(m), e)
    ezf = products(table, table[e][:, :, None], e)         # [i, s, f] -> e s f = s
    col, v_e, v_c, v_d = membership._column_classes(table, vectors, e, local, ezf)
    assert len(v_e) == order * order and not v_e.any()
    t = np.broadcast_to(np.arange(order), (order, order))
    assert np.array_equal(v_c[col[0]], table) and np.array_equal(v_d[col[0]], t)


def counted_column_classes(monkeypatch):
    """Patch membership._column_classes to record the e of each block built."""
    built = []
    column_classes = membership._column_classes

    def counted(table, omega, e, *args):
        built.append(tuple(e.tolist()))
        return column_classes(table, omega, e, *args)

    monkeypatch.setattr(membership, "_column_classes", counted)
    return built


def test_wgone_builds_each_e_block_once_on_a_ladder(monkeypatch):
    # |M| = 127: one e per block, and every q group after the first finds its
    # blocks settled or the block it needs still built
    m = nth_letter_from_end(6)
    built = counted_column_classes(monkeypatch)
    for rel in (st_pairs(m), mod_pairs(m)):
        built.clear()
        assert check_bpol_group_plus(m, rel).member
        assert built == [(e,) for e in m.idempotents_s]


def test_revisited_e_blocks_are_rebuilt(morphism_corpus, monkeypatch):
    # one q and one e per unit: a later q whose X are not yet settled needs
    # e blocks again, and a rebuilt block starts with no row class known to
    # hold; the first violation stays the block loop's
    cases = [(m, rel, loop_wgone(m, rel)) for _, m in morphism_corpus[:40]
             for rel in (st_pairs(m), mod_pairs(m))]
    monkeypatch.setattr(membership, "_WHOLE_SWEEP", 0)
    monkeypatch.setattr(membership, "_ENTRY_CAP", 1)
    built = counted_column_classes(monkeypatch)
    rebuilt = 0
    for m, rel, expected in cases:
        built.clear()
        assert check_bpol_group_plus(m, rel) == expected
        rebuilt += len(built) > len(m.idempotents_s)
    assert rebuilt >= 5


def test_bpol_checks_hold_over_an_empty_alphabet():
    # M = {1} and S is empty, so there is no pair and no idempotent of S
    m = transition_monoid(minimize(Dfa(alphabet=(), states=1, initial=0,
                                       finals=frozenset({0}), delta=((),))))
    assert m.idempotents_s == ()
    assert check_bpol_group(m, st_pairs(m)) == Verdict(True, EQ_GONE)
    assert check_bpol_group_plus(m, st_pairs(m)) == Verdict(True, EQ_WGONE)


def test_gone_and_wgone_do_not_call_each_other(monkeypatch, morphism_corpus):
    # perfbench wraps both checkers by name and counts sweep blocks per call,
    # so a call of one inside the other would count its blocks twice
    cases = [(m, st_pairs(m)) for _, m in morphism_corpus[:40]]
    expected = [(check_bpol_group(m, rel), check_bpol_group_plus(m, rel)) for m, rel in cases]

    def forbidden(*args):
        raise AssertionError("the checkers must not call each other")

    monkeypatch.setattr(membership, "check_bpol_group", forbidden)
    assert [check_bpol_group_plus(m, rel) for m, rel in cases] == [w for _, w in expected]
    monkeypatch.undo()
    monkeypatch.setattr(membership, "check_bpol_group_plus", forbidden)
    assert [check_bpol_group(m, rel) for m, rel in cases] == [g for g, _ in expected]


# --- witness verification -------------------------------------------------------


def test_all_refutations_replay(morphism_corpus):
    replayed = 0
    for _, m in morphism_corpus[:60]:
        order = syntactic_preorder(m)
        rel = st_pairs(m)
        for verdict in (check_pol_group(m, order, rel),
                        check_pol_group_plus(m, order, rel),
                        check_bpol_group(m, rel), check_bpol_group_plus(m, rel),
                        check_specialized(m, EQ_SIMON),
                        check_specialized(m, EQ_KNAST),
                        check_specialized(m, EQ_GRBPOL)):
            if verdict.witness is not None:
                assert verify_witness(m, verdict, order=order)
                replayed += 1
    assert replayed > 50


def test_tampered_witness_is_rejected():
    m = transition_monoid(minimize(compile_dfa("(ab)*", "ab")))
    verdict = check_bpol_group(m, st_pairs(m))
    assert verify_witness(m, verdict)
    broken = Verdict(
        member=False,
        equation=verdict.equation,
        witness=type(verdict.witness)(
            elements={**verdict.witness.elements, "t": verdict.witness.elements["q"]},
            words=verdict.witness.words,
            lhs=verdict.witness.lhs,
            rhs=verdict.witness.rhs,
        ),
    )
    assert not verify_witness(m, broken)


# --- reports -------------------------------------------------------------------


def test_report_round_trips_through_dict():
    for pattern, alphabet, basis, level, plus, _ in GOLDEN_VERDICTS[:6]:
        report = decide(pattern, alphabet, basis=basis, level=level, plus=plus)
        assert Report.from_dict(report.to_dict()) == report


@pytest.mark.parametrize("key", ["plus", "member", "certified"])
def test_report_flags_must_be_json_booleans(key):
    data = decide("(ab)*", "ab").to_dict()
    for value in ("false", 0, 1, None):
        with pytest.raises(ValueError, match=f"^report field '{key}' must be true or false, "
                           f"got {re.escape(repr(value))}$"):
            Report.from_dict(dict(data, **{key: value}))


@pytest.mark.parametrize("key", ["input", "alphabet", "basis", "level", "plus", "dfa_states",
                                 "monoid_size", "member", "equation", "certified"])
def test_report_without_a_required_field_is_a_value_error(key):
    data = decide("(ab)*", "ab").to_dict()
    del data[key]
    with pytest.raises(ValueError, match=f"^report field '{key}' is missing$"):
        Report.from_dict(data)


def test_report_without_its_optional_fields_still_loads():
    report = decide("(ab)*", "ab")
    data = report.to_dict()
    for key in ("witness", "pair_count", "elapsed_s"):
        del data[key]
    assert Report.from_dict(data) == replace(report, witness=None, pair_count=None, elapsed_s=0.0)


def test_class_names():
    assert class_name("st", "bpol", False) == "piecewise testable (BPol(ST))"
    assert class_name("st", "bpol", True) == "dot-depth one (BPol(ST+))"
    assert class_name("mod", "bpol", False) == "BSigma1(<, MOD) (BPol(MOD))"
    assert class_name("mod", "bpol", True) == "BSigma1(<, +1, MOD) (BPol(MOD+))"
    assert class_name("amt", "pol", True) == "Pol(AMT+)"
    assert class_name("CUSTOM:z3", "bpol", False) == "BPol(CUSTOM:z3)"
    # a GroupPresentation is named as the report of the same decide call names it
    group = cyclic_length_group(3, "ab")
    report = decide("(a|b)*a", "ab", basis=group, level="bpol")
    assert class_name(group, "bpol", False) == "BPol(CUSTOM:length-mod-3)"
    assert class_name(group, "bpol", False) == class_name(report.basis, "bpol", False)


def test_class_names_of_every_base_tag():
    # [Pol, Pol+, BPol, BPol+] of each tag a report carries, at either case of level
    expected = {
        "ST": ["Pol(ST)", "Pol(ST+)", "piecewise testable (BPol(ST))",
               "dot-depth one (BPol(ST+))"],
        "MOD": ["Pol(MOD)", "Pol(MOD+)", "BSigma1(<, MOD) (BPol(MOD))",
                "BSigma1(<, +1, MOD) (BPol(MOD+))"],
        "AMT": ["Pol(AMT)", "Pol(AMT+)", "BPol(AMT)", "BPol(AMT+)"],
        "GR": ["Pol(GR)", "Pol(GR+)", "BPol(GR)", "BPol(GR+)"],
        "CUSTOM:z3": ["Pol(CUSTOM:z3)", "Pol(CUSTOM:z3+)", "BPol(CUSTOM:z3)", "BPol(CUSTOM:z3+)"],
    }
    assert [base.tag for base in BASES.values()] == list(expected)[:4]
    group_names = [name.replace("z3", "length-mod-3") for name in expected["CUSTOM:z3"]]
    cases = [*expected.items(), *((key, expected[base.tag]) for key, base in BASES.items()),
             (cyclic_length_group(3, "ab"), group_names)]
    for basis, names in cases:
        for case in (str.lower, str.upper):
            assert [class_name(basis, case(level), plus) for level in ("pol", "bpol")
                    for plus in (False, True)] == names
    for basis in ("xyz", "group:z3", "custom:z3", ""):
        with pytest.raises(UsageError, match="unknown basis"):
            class_name(basis, "bpol", False)


def test_only_gr_beyond_bpol_is_unsupported():
    bases = [*BASES.values(), base_of(cyclic_length_group(3, "ab"))]
    assert len(bases) == 5
    for base in bases:
        for level in ("pol", "bpol"):
            for plus in (False, True):
                gr_beyond_bpol = base.tag == "GR" and (level == "pol" or plus)
                assert base.supports(level, plus) is not gr_beyond_bpol
                assert base.supports(level.upper(), plus) is not gr_beyond_bpol


# --- decide() contract ------------------------------------------------------------


def test_custom_group_basis():
    z3 = group_from_dict({
        "elements": 3,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "letter_image": {"a": 1},
    }, name="z3")
    assert decide("(aaa)*", "a", basis=z3).member
    assert not decide("(aa)*", "a", basis=z3).member


def test_group_base_is_bpol_only():
    with pytest.raises(UsageError):
        decide("(aa)*", "a", basis="gr", level="pol")
    with pytest.raises(UsageError):
        decide("(aa)*", "a", basis="gr", plus=True)


def test_usage_validation():
    with pytest.raises(UsageError):
        decide("(aa)*", "a", level="middle")
    with pytest.raises(UsageError):
        decide("(aa)*", "a", basis="frob")
    with pytest.raises(UsageError):
        decide("(aa)*")  # pattern without an alphabet


def test_ast_letters_outside_the_alphabet_are_alphabet_errors():
    for ast, alphabet, symbol in ((Concat((Letter("a"), Letter("c"))), "ab", "c"),
                                  (Letter("c"), "ab", "c"), (Letter("A"), "ab", "A"),
                                  (Letter("a"), "", "a")):
        for call in (compile_dfa, decide):
            with pytest.raises(AlphabetError, match=f"symbol '{symbol}' not in alphabet"):
                call(ast, alphabet)


@pytest.mark.parametrize("request_fields, message", [
    ({"plus": "false"}, "plus must be True or False, got 'false'"),
    ({"plus": 1}, "plus must be True or False, got 1"),
    ({"level": None}, "level must be pol or bpol, got None"),
    ({"budget": True}, "budget must be an integer, got True"),
    ({"budget": 2.5}, "budget must be an integer, got 2.5"),
], ids=["plus-text", "plus-int", "level-none", "budget-bool", "budget-float"])
def test_mistyped_requests_are_usage_errors(request_fields, message):
    # "false" is truthy: the request must not run WGONE in its name
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        decide("(ab)*", "ab", **request_fields)
    m = transition_monoid(minimize(compile_dfa("(aa)*", "a")))
    with pytest.raises(UsageError, match="^node_budget must be an integer, got True$"):
        pair_relation(m, "amt", node_budget=True)


def test_a_group_over_another_alphabet_fails_before_any_work():
    # at budget 2 compiling (aa)* (3 states) would exceed the budget first
    group = cyclic_length_group(3, "ab")
    for source, alphabet in (("(aa)*", "a"), (compile_dfa("(aa)*", "a"), None),
                             (compile_dfa("(aa)*", "a"), "a")):
        with pytest.raises(AlphabetError, match="^group alphabet 'ab' does not match the "
                           "language's alphabet 'a'$"):
            decide(source, alphabet, basis=group, budget=2)


def test_a_base_made_from_a_group_keeps_its_alphabet():
    # decide checks the Base's alphabet, so both basis forms fail alike
    group = cyclic_length_group(3, "ab")
    assert base_of(group).alphabet == ("a", "b")
    assert all(base.alphabet is None for base in BASES.values())
    for basis in (group, base_of(group)):
        with pytest.raises(AlphabetError, match="^group alphabet 'ab' does not match the "
                           "language's alphabet 'a'$"):
            decide("(aa)*", "a", basis=basis, budget=2)
    assert decide("(aa)*", "ab", basis=base_of(group)).basis == "CUSTOM:length-mod-3"


@pytest.mark.parametrize("level", [None, 3, "middle"])
def test_class_names_and_supports_read_level_as_decide_does(level):
    message = f"^level must be pol or bpol, got {re.escape(repr(level))}$"
    with pytest.raises(UsageError, match=message):
        class_name("st", level, False)
    for base in BASES.values():
        with pytest.raises(UsageError, match=message):
            base.supports(level, False)
    with pytest.raises(UsageError, match=message):
        decide("(ab)*", "ab", level=level)


def test_decide_reads_a_pattern_and_its_automata_alike():
    # the unminimized compile_dfa output gives a larger monoid than the
    # syntactic one; decide minimizes every input the same way
    for pattern, alphabet, basis, level, plus, _ in GOLDEN_VERDICTS:
        reports = [replace(decide(source, alphabet, basis=basis, level=level, plus=plus),
                           input_text="", elapsed_s=0)
                   for source in (pattern, compile_dfa(pattern, alphabet),
                                  minimize(compile_dfa(pattern, alphabet)))]
        assert reports == reports[:1] * 3


def test_decide_rejects_an_alphabet_other_than_the_dfas():
    dfa = minimize(compile_dfa("(ab)*", "ab"))
    for alphabet in ("abc", "a", ""):
        with pytest.raises(AlphabetError, match="alphabet mismatch"):
            decide(dfa, alphabet)
    assert replace(decide(dfa, "ba"), elapsed_s=0) == replace(decide(dfa), elapsed_s=0)


def test_pair_relation_reads_string_bases_in_any_case():
    m = transition_monoid(minimize(compile_dfa("(aa)*", "a")))
    for basis in ("st", "mod", "amt"):
        lower, upper = pair_relation(m, basis), pair_relation(m, basis.upper())
        assert (upper.basis, upper.matrix.tolist()) == (lower.basis, lower.matrix.tolist())
    for basis in ("xyz", "", "GR"):
        with pytest.raises(UsageError):
            pair_relation(m, basis)


def test_string_bases_are_read_in_any_case_with_blanks_around():
    for basis in (" MOD ", "Mod", "mod\t"):
        assert base_of(basis) is BASES["mod"]
        assert replace(decide("(aa)*b", "ab", basis=basis), elapsed_s=0) == \
            replace(decide("(aa)*b", "ab", basis="mod"), elapsed_s=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_non_positive_budgets_are_usage_errors(budget):
    with pytest.raises(UsageError, match=f"^budget must be positive, got {budget}$"):
        decide("(aa)*", "a", budget=budget)
    m = transition_monoid(minimize(compile_dfa("(aa)*", "a")))
    for basis in ("st", "amt"):
        with pytest.raises(UsageError, match=f"^node_budget must be positive, got {budget}$"):
            pair_relation(m, basis, node_budget=budget)


@pytest.mark.parametrize("budget", [0, -2, True, 2.5])
def test_stage_budgets_are_usage_errors(budget):
    # every stage that takes a budget checks it as decide does, where it
    # would have given an empty or one-base cover, a bare TypeError or a
    # BudgetError such as "exceeded the state budget (True)"; a cover's cap
    # of 0 bases stays valid: it cuts the cover before its first base
    d = minimize(compile_dfa("(aa)*", "a"))
    m = transition_monoid(d)
    if budget != 0:
        with pytest.raises(UsageError, match="^max_bases must be a non-negative integer, "
                           f"got {budget!r}$"):
            pgcov_cover(d, d, max_bases=budget)
    wrong = "positive" if type(budget) is int else "an integer"
    for name, stage in (("state_budget", lambda b: up_arrow(d, "a", state_budget=b)),
                        ("state_budget", lambda b: compile_dfa("(aa)*", "a", state_budget=b)),
                        ("state_budget", lambda b: minimal_dfa("(aa)*", "a", state_budget=b)),
                        ("state_budget", lambda b: minimal_dfa(d, state_budget=b)),
                        ("element_budget", lambda b: transition_monoid(d, element_budget=b)),
                        ("node_budget", lambda b: amt_pairs(m, node_budget=b))):
        with pytest.raises(UsageError, match=f"^{name} must be {wrong}, got {budget!r}$"):
            stage(budget)


def test_small_budget_letter_count_verdicts_are_exact():
    # (aa)* compiles to 3 states and a 2-element monoid with two AMT cosets:
    # budgets 3 and 5 cap every stage and still give the exact relation,
    # and with it the certified member verdict
    for budget in (None, 5, 3):
        report = decide("(aa)*", "a", basis="amt", budget=budget)
        assert (report.member, report.certified) == (True, True)
