"""Acceptance gate: the seven release criteria, one test and one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each test times itself against the criterion's budget and fails loudly rather
than silently shrinking the workload.
"""

import random
import time

import numpy as np

from hierarchy_one.cli import main as cli_main
from hierarchy_one.covers import (
    guarded_decomposition,
    pgcov_cover,
    up_arrow,
)
from hierarchy_one.lang import combine, compile_dfa, includes, minimize
from hierarchy_one.membership import (
    EQ_KNAST,
    EQ_SIMON,
    check_bpol_group,
    check_bpol_group_plus,
    check_pol_group,
    check_pol_group_plus,
    check_specialized,
    decide,
    verify_witness,
)
from hierarchy_one.monoid import syntactic_preorder, transition_monoid
from hierarchy_one.pairs import (
    amt_pairs,
    cyclic_length_group,
    explicit_pairs,
    group_morphism_pairs,
    mod_pairs,
    st_pairs,
)
from tests.conftest import (
    GOLDEN_VERDICTS,
    kernel_dfa,
    random_minimal_dfa,
    random_permutation_dfa,
)


def report(number, label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_1_golden_corpus(capsys):
    t0 = time.perf_counter()
    bad = []
    for pattern, alphabet, basis, level, plus, member in GOLDEN_VERDICTS:
        rep = decide(pattern, alphabet, basis=basis, level=level, plus=plus)
        argv = ["decide", pattern, "--alphabet", alphabet, "--basis", basis,
                "--level", level] + (["--plus"] if plus else [])
        code = cli_main(argv)
        if rep.member != member or not rep.certified or code != (0 if member else 1):
            bad.append((pattern, basis, level, plus, rep.member, code))
    elapsed = time.perf_counter() - t0
    capsys.readouterr()  # swallow the CLI chatter, keep the criterion line
    ok = not bad and elapsed < 10.0
    report(1, "golden corpus",
           ok, f"{len(GOLDEN_VERDICTS) - len(bad)}/{len(GOLDEN_VERDICTS)} "
               f"verdicts and exit codes in {elapsed:.2f}s (< 10s)"
               + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_2_generic_equals_specialized(morphism_corpus):
    t0 = time.perf_counter()
    disagreements = 0
    for _, m in morphism_corpus:
        rel = st_pairs(m)
        if check_bpol_group(m, rel).member != check_specialized(m, EQ_SIMON).member:
            disagreements += 1
        if (check_bpol_group_plus(m, rel).member
                != check_specialized(m, EQ_KNAST).member):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 60.0
    report(2, "generic/specialized equivalence", ok,
           f"{len(morphism_corpus)} automata x 2 equation pairs, "
           f"{disagreements} disagreements in {elapsed:.2f}s (< 60s)")


def test_criterion_3_mod_pair_oracle():
    t0 = time.perf_counter()
    rng = random.Random(3103)
    mismatches = 0
    for _ in range(50):
        letters = rng.choice(["a", "ab"])
        d = random_minimal_dfa(rng, max_states=4, letters=letters)
        m = transition_monoid(d)
        oracle = np.ones((m.element_count,) * 2, dtype=bool)
        for modulus in range(1, 13):
            oracle &= group_morphism_pairs(
                m, cyclic_length_group(modulus, m.alphabet)).matrix
        if not np.array_equal(mod_pairs(m).matrix, oracle):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(3, "modular pair oracle", ok,
           f"50 automata vs 12-fold group intersection, {mismatches} mismatches "
           f"in {elapsed:.2f}s (< 30s)")


def test_criterion_4_invariant_suites(morphism_corpus):
    t0 = time.perf_counter()
    failures = 0
    rng = random.Random(4104)
    for _, m in morphism_corpus:
        n = m.element_count
        order = syntactic_preorder(m)
        leq = order.matrix
        acc = np.zeros(n, dtype=bool)
        acc[sorted(m.accepting)] = True
        # order axioms
        if not leq.diagonal().all():
            failures += 1
        closure = np.zeros_like(leq)
        for s in range(n):
            closure[s] = leq[leq[s]].any(axis=0)
        if (closure & ~leq).any():
            failures += 1
        if (acc[:, None] & leq & ~acc[None, :]).any():
            failures += 1
        for _ in range(20):
            s, t, x, y = (rng.randrange(n) for _ in range(4))
            if leq[s, t] and not leq[m.mul(m.mul(x, s), y), m.mul(m.mul(x, t), y)]:
                failures += 1
        # omega powers
        for x in range(n):
            w = m.omega(x)
            if m.mul(w, w) != w or m.mul(w, x) != m.mul(x, w):
                failures += 1
        # pair relations
        for rel in (st_pairs(m), mod_pairs(m)):
            if not rel.matrix.diagonal().all():
                failures += 1
            if not np.array_equal(rel.matrix, rel.matrix.T):
                failures += 1
            for s, t in rel.pairs_iter():
                wit = rel.witness_for(s, t)
                if wit is not None:
                    u, v = wit
                    if m.evaluate(u) != s or m.evaluate(v) != t:
                        failures += 1
        # every refutation replays
        rel = st_pairs(m)
        for verdict in (check_pol_group(m, order, rel),
                        check_pol_group_plus(m, order, rel),
                        check_bpol_group(m, rel),
                        check_bpol_group_plus(m, rel)):
            if verdict.witness is not None and not verify_witness(m, verdict, order=order):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0
    report(4, "invariant suites", ok,
           f"order/omega/pair/witness invariants over {len(morphism_corpus)} "
           f"automata, {failures} failures in {elapsed:.2f}s")


def test_criterion_5_cover_certification():
    t0 = time.perf_counter()
    problems = []
    fixed = pgcov_cover(compile_dfa("a*", "a"), compile_dfa("(aa)*", "a"))
    if not (fixed.certified and len(fixed.entries) == 2):
        problems.append("parity split")
    rng = random.Random(555)
    for trial in range(20):
        h = random_minimal_dfa(rng, max_states=4)
        gaps = random_permutation_dfa(rng, max_states=3)
        res = pgcov_cover(h, gaps)
        if not res.certified:
            problems.append(f"trial {trial} uncertified")
            continue
        union = minimize(compile_dfa("%", "ab"))
        for _, arrow in res.entries:
            union = minimize(combine(union, arrow, "union"))
        if not includes(union, minimize(h))[0]:
            problems.append(f"trial {trial} union gap")
        ker = kernel_dfa(minimize(gaps))
        bases = res.base_words()
        for i, u in enumerate(bases):
            for j, v in enumerate(bases):
                if i != j and up_arrow(ker, u).accepts(v):
                    problems.append(f"trial {trial} comparable bases {u!r},{v!r}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    report(5, "cover certification", ok,
           f"fixed split + 20 random covers, all certified with antichain bases "
           f"in {elapsed:.2f}s (< 60s)"
           + (f"; problems: {problems}" if problems else ""))


def test_criterion_6_guarded_decompositions():
    t0 = time.perf_counter()
    rng = random.Random(6106)
    morphisms = []
    while len(morphisms) < 20:
        m = transition_monoid(random_minimal_dfa(rng, max_states=3))
        if m.element_count <= 6:
            morphisms.append(m)
    failures = 0
    single_block_mismatches = 0
    for i in range(100):
        m = morphisms[i % len(morphisms)]
        length = rng.randint(1, 200)
        word = "".join(rng.choice(m.alphabet) for _ in range(length))
        dec = guarded_decomposition(m, word)
        if not dec.verify(m, word):
            failures += 1
        if (len(dec.blocks) == 1) != (length <= m.element_count**2):
            single_block_mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and single_block_mismatches == 0
    report(6, "guarded decompositions", ok,
           f"100 words vs 20 morphisms: {failures} invariant failures, "
           f"{single_block_mismatches} wrong single-block branches "
           f"in {elapsed:.2f}s")


def test_criterion_7_hierarchy_sanity(morphism_corpus):
    t0 = time.perf_counter()
    violations = []
    rng = random.Random(7107)
    for idx, (_, m) in enumerate(morphism_corpus):
        order = syntactic_preorder(m)
        st = st_pairs(m)
        mod = mod_pairs(m)
        amt = amt_pairs(m)
        relations = [("st", st), ("mod", mod), ("amt", amt)]
        if (amt.matrix & ~mod.matrix).any():
            violations.append(f"[{idx}] amt pairs escape mod pairs")
        if (mod.matrix & ~st.matrix).any():
            violations.append(f"[{idx}] mod pairs escape the full square")
        members = {}
        for name, rel in relations:
            for plus in (False, True):
                pol = (check_pol_group_plus if plus else check_pol_group)(m, order, rel)
                bpol = (check_bpol_group_plus if plus else check_bpol_group)(m, rel)
                members[(name, "pol", plus)] = pol.member
                members[(name, "bpol", plus)] = bpol.member
                if pol.member and not bpol.member:
                    violations.append(f"[{idx}] {name} pol>{'+' if plus else ''} "
                                      f"member but bpol refused")
            for level in ("pol", "bpol"):
                if members[(name, level, False)] and not members[(name, level, True)]:
                    violations.append(f"[{idx}] {name} {level} member but {level}+ refused")
        for level in ("pol", "bpol"):
            for plus in (False, True):
                if members[("st", level, plus)] and not members[("mod", level, plus)]:
                    violations.append(f"[{idx}] st {level} member but mod refused")
                if members[("mod", level, plus)] and not members[("amt", level, plus)]:
                    violations.append(f"[{idx}] mod {level} member but amt refused")
        # shrinking the pair set can only help membership
        if m.element_count > 1:
            keep = [(s, t) for s, t in st.pairs_iter()
                    if s == t or rng.random() < 0.5]
            sub = explicit_pairs(m, keep)
            if check_bpol_group(m, st).member and not check_bpol_group(m, sub).member:
                violations.append(f"[{idx}] full-square member but subset refused")
    elapsed = time.perf_counter() - t0
    ok = not violations
    report(7, "hierarchy sanity", ok,
           f"level/base/pair-subset monotonicity over {len(morphism_corpus)} "
           f"automata, {len(violations)} violations in {elapsed:.2f}s"
           + (f"; first: {violations[:3]}" if violations else ""))
