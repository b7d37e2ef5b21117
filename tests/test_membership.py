"""Membership checks against brute-force equation evaluation.

The brute oracles multiply in a hand-composed transition table (see
test_monoid.hand_transition_monoid) and loop over every assignment, so they
share no code with the vectorized checkers.
"""

import random
import time

import numpy as np
import pytest

from hierarchy_one.errors import UsageError
from hierarchy_one.lang import compile_dfa, minimize
from hierarchy_one.membership import (
    EQ_GONE,
    EQ_GRBPOL,
    EQ_KNAST,
    EQ_POLC,
    EQ_SIMON,
    EQ_WGONE,
    Report,
    Verdict,
    ViolationWitness,
    check_bpol_group,
    check_bpol_group_plus,
    check_pol,
    check_pol_group,
    check_pol_group_plus,
    check_specialized,
    class_name,
    decide,
    verify_witness,
)
from hierarchy_one.monoid import syntactic_preorder, transition_monoid
from hierarchy_one.pairs import explicit_pairs, group_from_dict, mod_pairs, st_pairs
from tests.conftest import GOLDEN_VERDICTS
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
        assert check_pol(m, order, rel).member == check_pol_group(m, order, rel).member


def test_pol_results_carry_equation_tags(morphism_corpus):
    _, m = morphism_corpus[0]
    order = syntactic_preorder(m)
    rel = st_pairs(m)
    assert check_pol(m, order, rel).equation == EQ_POLC
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


@pytest.mark.parametrize("k", [4, 5])
def test_nth_letter_from_end_is_dot_depth_one_in_seconds(k):
    # |M| = 2^(k+1) - 1: 31 and 63 elements, millions of (q, s, e, f) blocks
    m = transition_monoid(minimize(compile_dfa("(a|b)*a" + "(a|b)" * (k - 1), "ab")))
    assert m.element_count == 2 ** (k + 1) - 1
    rel = st_pairs(m)
    t0 = time.perf_counter()
    verdict = check_bpol_group_plus(m, rel)
    elapsed = time.perf_counter() - t0
    assert verdict.member
    assert elapsed < 5.0
    if k == 4:
        assert check_specialized(m, EQ_KNAST).member
    else:
        # Pol(ST+) ⊆ BPol(ST+)
        assert check_pol_group_plus(m, syntactic_preorder(m), rel).member


# --- witness verification -------------------------------------------------------


def test_all_refutations_replay(morphism_corpus):
    replayed = 0
    for _, m in morphism_corpus[:60]:
        order = syntactic_preorder(m)
        rel = st_pairs(m)
        for verdict in (check_pol(m, order, rel), check_pol_group(m, order, rel),
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


def test_class_names():
    assert class_name("st", "bpol", False) == "piecewise testable (BPol(ST))"
    assert class_name("st", "bpol", True) == "dot-depth one (BPol(ST+))"
    assert class_name("mod", "bpol", False) == "BSigma1(<, MOD) (BPol(MOD))"
    assert class_name("mod", "bpol", True) == "BSigma1(<, +1, MOD) (BPol(MOD+))"
    assert class_name("amt", "pol", True) == "Pol(AMT+)"
    assert class_name("CUSTOM:z3", "bpol", False) == "BPol(CUSTOM:z3)"


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


def test_budget_starved_letter_count_verdicts_are_flagged():
    # plenty of budget: exact relation, certified member
    assert decide("(aa)*", "a", basis="amt").certified
    # enough for the right modulus but not its confirmation sweep
    r5 = decide("(aa)*", "a", basis="amt", node_budget=5)
    assert (r5.member, r5.certified) == (True, False)
    # so little that the modulus degrades and the verdict flips
    r3 = decide("(aa)*", "a", basis="amt", node_budget=3)
    assert (r3.member, r3.certified) == (False, False)
