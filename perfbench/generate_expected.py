"""Write the expected-outcome file `data/expected.json` and the custom group
files `data/z3.json` and `data/s3.json`.

Run once, from the repository root:

    python3 perfbench/generate_expected.py

The benchmark only reads the file; it never recomputes it. Every expected
verdict names its source:

  oracle:SIMON / oracle:KNAST  the closed-form piecewise-testable and
                               dot-depth-one scans (`check_specialized`)
  oracle:MOD                   the equation checked over the intersection of
                               `cyclic_length_group` relations, moduli 1..24
  oracle:AMT                   the same over `parikh_group` relations, moduli
                               1..10 (only where the AMT relation certifies)
  hand                         the hand-verified table below, with its reason
  seed-derived                 the library's own answer when this file was
                               written: non-member witnesses (the first
                               violation in sweep order), cover base words,
                               and verdicts over uncertified AMT relations

The script stops if the library disagrees with an oracle or the hand table.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hierarchy_one import membership  # noqa: E402
from hierarchy_one.covers import pgcov_cover  # noqa: E402
from hierarchy_one.lang import Dfa, compile_dfa, dfa_to_dict, minimize  # noqa: E402
from hierarchy_one.monoid import syntactic_preorder, transition_monoid  # noqa: E402
from hierarchy_one.pairs import (  # noqa: E402
    amt_pairs, cyclic_length_group, explicit_pairs, group_from_dict,
    group_morphism_pairs, mod_pairs, parikh_group, st_pairs,
)
from spans import sweep_blocks  # noqa: E402

DATA = HERE / "data"
GENERATOR_SEED = 2201
LEVELS = (("pol", False), ("bpol", False), ("bpol", True))

# dotdepth pool: complete DFAs with exactly this many states before
# minimization, kept when |M| lies in the band.
DOTDEPTH_STATES = 4
DOTDEPTH_DRAWS = 30000
DOTDEPTH_BAND = (1, 16)
SMALL_M = 7             # |M| at or below: cheap strata, drawn in natural proportion
SMALL_QUOTA = 60        # cases per pass from the cheap strata
LARGE_NON_QUOTA = 16    # non-members with |M| > SMALL_M per pass
LARGE_MEMBER_MIN_POOL = 3   # a large-member stratum gets one case per pass if this full
POOL_CAP = 12           # pool entries kept per stratum, or twice its quota if more
DRAW_CAP = 60           # entries collected per stratum while drawing

# groups pool: 3-state DFAs over {a, b} with 2 <= |M| <= 7.
GROUPS_STATES = 3
GROUPS_DRAWS = 600
GROUPS_POOL_CAP = {"cheap": 30, "costly": 6}   # costly: AMT at |M| >= 5
GROUPS_QUOTA = {
    "amt-M2-cert": 1, "amt-M3-cert": 2, "amt-M4-cert": 2,
    "amt-M5-cert": 1, "amt-M7-uncert": 1,
    "mod-M2": 1, "mod-M3": 1, "mod-M4": 1, "mod-M5": 1, "mod-M6": 1, "mod-M7": 1,
}

Z3 = {"name": "z3", "elements": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
      "letter_image": {"a": 1}}


def s3_document() -> dict:
    perms = sorted(itertools.permutations(range(3)))   # identity first
    index = {p: i for i, p in enumerate(perms)}
    # x·y: apply x, then y
    table = [[index[tuple(y[x[i]] for i in range(3))] for y in perms] for x in perms]
    return {"name": "s3", "elements": 6, "table": table,
            "letter_image": {"a": index[(1, 0, 2)], "b": index[(1, 2, 0)]}}


def nth_letter(k: int) -> str:
    """(a|b)*a(a|b)^{k-1}: the k-th letter from the end is a; |M| = 2^{k+1} - 1."""
    return "(a|b)*a" + "(a|b)" * (k - 1)


# (pattern, alphabet, basis, level, plus, member, reason)
HAND = [
    ("(aa)*", "a", "amt", "pol", False, True, "counts a mod 2: an AMT language, so in Pol"),
    ("(aa)*", "a", "amt", "bpol", False, True, "counts a mod 2: an AMT language"),
    ("(aa)*", "a", "amt", "bpol", True, True, "counts a mod 2: an AMT language"),
    ("a(aa)*", "a", "amt", "pol", False, True, "counts a mod 2: an AMT language, so in Pol"),
    ("a(aa)*", "a", "amt", "bpol", False, True, "counts a mod 2: an AMT language"),
    ("a(aa)*", "a", "amt", "bpol", True, True, "counts a mod 2: an AMT language"),
    ("(ab)*", "ab", "amt", "bpol", True, True, "dot-depth one, and BPol(ST+) is inside BPol(AMT+)"),
    ("(aaa)*", "a", "group:z3.json", "pol", False, True, "preimage of the identity of Z3"),
    ("(aaa)*", "a", "group:z3.json", "bpol", False, True, "preimage of the identity of Z3"),
    ("(aaa)*", "a", "group:z3.json", "bpol", True, True, "preimage of the identity of Z3"),
    ("(aa)*", "a", "group:z3.json", "pol", False, False,
     "unary BPol(Z3+) languages are ultimately periodic with period dividing 3"),
    ("(aa)*", "a", "group:z3.json", "bpol", False, False,
     "unary BPol(Z3+) languages are ultimately periodic with period dividing 3"),
    ("(aa)*", "a", "group:z3.json", "bpol", True, False,
     "unary BPol(Z3+) languages are ultimately periodic with period dividing 3"),
    ("a", "a", "group:z3.json", "pol", False, False,
     "pair (1, 0) via aaa, and 1 <= 0 fails in context (a, 1)"),
    ("a", "a", "group:z3.json", "bpol", False, True, "finite, so piecewise testable"),
    ("a", "a", "group:z3.json", "bpol", True, True, "finite, so piecewise testable"),
    ("(b|ab*a)*", "ab", "group:s3.json", "pol", False, True,
     "even number of a: preimage of A3, the sign of the S3 image"),
    ("(b|ab*a)*", "ab", "group:s3.json", "bpol", False, True,
     "even number of a: preimage of A3, the sign of the S3 image"),
    ("(b|ab*a)*", "ab", "group:s3.json", "bpol", True, True,
     "even number of a: preimage of A3, the sign of the S3 image"),
    ("(a|b)*a(a|b)*b(a|b)*", "ab", "group:s3.json", "pol", False, True,
     "the marked product A*aA*bA* is in Pol(ST)"),
    ("(a|b)*a(a|b)*b(a|b)*", "ab", "group:s3.json", "bpol", False, True,
     "the marked product A*aA*bA* is in Pol(ST)"),
    ("(a|b)*a(a|b)*b(a|b)*", "ab", "group:s3.json", "bpol", True, True,
     "the marked product A*aA*bA* is in Pol(ST)"),
    ("(a|b)*a", "ab", "group:s3.json", "pol", False, False,
     "pair (1, [b]) via bbb, and 1 <= [b] fails in context (a, 1)"),
    ("(a|b)*a", "ab", "group:s3.json", "bpol", False, False,
     "idempotents [a], [b] give ([a][b])^w = [b] != [a] = ([b][a])^w: not even BPol(GR)"),
    ("(a|b)*a", "ab", "group:s3.json", "bpol", True, True, "A*a{e} is a marked product over ST+"),
]

GROUP_FILES = {"group:z3.json": Z3, "group:s3.json": s3_document()}


def check_fn(level: str, plus: bool):
    if level == "pol":
        return membership.check_pol_group_plus if plus else membership.check_pol_group
    return membership.check_bpol_group_plus if plus else membership.check_bpol_group


def verdict_over(m, rel, level: str, plus: bool):
    check = check_fn(level, plus)
    if level == "pol":
        return check(m, syntactic_preorder(m), rel)
    return check(m, rel)


def monoid_stats(m, pair_count: int) -> dict:
    return {"monoid": m.element_count, "idempotents": len(m.idempotents_s), "pairs": pair_count}


def expectation(verdict, member: bool, source: str) -> dict:
    if verdict.member != member:
        raise SystemExit(f"library verdict {verdict.member} disagrees with {source}")
    return {
        "member": member,
        "equation": verdict.equation,
        "witness": verdict.witness.to_dict() if verdict.witness else None,
        "source": source + ("" if member else "; witness seed-derived"),
    }


def random_dfa(rng: random.Random, states: int) -> Dfa:
    delta = tuple(tuple(rng.randrange(states) for _ in "ab") for _ in range(states))
    finals = frozenset(q for q in range(states) if rng.random() < 0.5)
    return Dfa(alphabet=("a", "b"), states=states, initial=0, finals=finals, delta=delta)


def level_name(level: str, plus: bool) -> str:
    return level + ("+" if plus else "")


# --- ladder -------------------------------------------------------------------

def ladder() -> dict:
    cases = []
    for k in range(2, 9):
        m = transition_monoid(minimize(compile_dfa(nth_letter(k), "ab")))
        rel = st_pairs(m)
        simon = membership.check_specialized(m, membership.EQ_SIMON).member
        gone = membership.check_bpol_group(m, rel)
        polgp = membership.check_pol_group_plus(m, syntactic_preorder(m), rel)
        cases.append({
            "id": f"ladder.k{k}", "kind": "decide",
            "why": f"n-th letter from the end, k={k}: |M| = {m.element_count} grows as 2^(k+1) - 1",
            "input": {"pattern": nth_letter(k), "alphabet": "ab"},
            "classes": [{"level": "bpol", "plus": False}, {"level": "pol", "plus": True}],
            "expect": [
                expectation(gone, simon, "oracle:SIMON"),
                expectation(polgp, True, "hand: a finite union of A*·a·w, w in A^(k-1), "
                                         "each a marked product over ST+"),
            ],
            "stats": monoid_stats(m, rel.count) | {"verdicts": [gone.member, polgp.member]},
        })
    return {"fixed": cases}


# --- dotdepth -----------------------------------------------------------------

def dotdepth_case(case_id: str, why: str, source: dict, m) -> dict:
    rel = st_pairs(m)
    knast = membership.check_specialized(m, membership.EQ_KNAST).member
    wgone = membership.check_bpol_group_plus(m, rel)
    return {
        "id": case_id, "kind": "decide", "why": why, "input": source,
        "classes": [{"level": "bpol", "plus": True}],
        "expect": [expectation(wgone, knast, "oracle:KNAST")],
        "stats": monoid_stats(m, rel.count) | {
            "verdicts": [wgone.member], "blocks": sweep_blocks(m, rel, wgone, guarded=True)},
    }


def dotdepth() -> dict:
    fixed = []
    for k in (2, 3):
        m = transition_monoid(minimize(compile_dfa(nth_letter(k), "ab")))
        fixed.append(dotdepth_case(
            f"dotdepth.nth.k{k}",
            f"n-th letter from the end, k={k}: a member, so WGONE scans all "
            f"|M|^2 |E|^2 blocks (|M| = {m.element_count})",
            {"pattern": nth_letter(k), "alphabet": "ab"}, m))

    rng = random.Random(GENERATOR_SEED)
    strata: dict[str, list] = defaultdict(list)
    natural: dict[str, int] = defaultdict(int)
    low, high = DOTDEPTH_BAND
    for draw in range(DOTDEPTH_DRAWS):
        d = random_dfa(rng, DOTDEPTH_STATES)
        m = transition_monoid(minimize(d))
        if not low <= m.element_count <= high:
            continue
        member = membership.check_specialized(m, membership.EQ_KNAST).member
        key = f"{'member' if member else 'non'}-M{m.element_count:02d}-E{len(m.idempotents_s)}"
        natural[key] += 1
        if len(strata[key]) >= DRAW_CAP:
            continue
        mode = "full scan" if member else "early exit at the first violation"
        strata[key].append(dotdepth_case(
            f"dotdepth.draw{draw}",
            f"random {DOTDEPTH_STATES}-state DFA, |M| = {m.element_count}, "
            f"|E(S)| = {len(m.idempotents_s)}, {'member' if member else 'non-member'} ({mode})",
            {"dfa": dfa_to_dict(d)}, m))

    def size(key: str) -> int:
        return int(key.split("-M")[1].split("-")[0])

    small = {k: n for k, n in natural.items() if size(k) <= SMALL_M}
    large_non = {k: n for k, n in natural.items() if size(k) > SMALL_M and k.startswith("non")}
    quota = {}
    for group, total in ((small, SMALL_QUOTA), (large_non, LARGE_NON_QUOTA)):
        weight = sum(group.values())
        for key, n in group.items():
            q = round(total * n / weight)
            if q:
                quota[key] = q
    for key in strata:
        if size(key) > SMALL_M and key.startswith("member") and len(strata[key]) >= LARGE_MEMBER_MIN_POOL:
            quota[key] = 1
    # A member sweeps all (|M|^2 - |M|)|E|^2 blocks; a non-member stops at
    # its first violation, so its stratum keeps only the most common block
    # count up to the verdict, and every seed draws the same sweep length.
    pool = {}
    for key in sorted(quota):
        entries = strata[key]
        if key.startswith("non"):
            counts = Counter(c["stats"]["blocks"] for c in entries)
            modal = max(sorted(counts), key=counts.__getitem__)
            entries = [c for c in entries if c["stats"]["blocks"] == modal]
            if len(entries) < 2 * quota[key]:
                raise SystemExit(f"stratum {key} holds too few draws with {modal} blocks")
        pool[key] = entries[:max(POOL_CAP, 2 * quota[key])]
    return {"fixed": fixed, "pool": pool, "quota": dict(sorted(quota.items()))}


# --- groups -------------------------------------------------------------------

def groups_case(case_id, why, source, basis, level, plus, expect, stats) -> dict:
    return {"id": case_id, "kind": "cli", "why": why, "input": source, "basis": basis,
            "level": level, "plus": plus, "expect": expect, "stats": stats}


def mod_oracle(m) -> np.ndarray:
    oracle = np.ones((m.element_count,) * 2, dtype=bool)
    for modulus in range(1, 25):
        oracle &= group_morphism_pairs(m, cyclic_length_group(modulus, m.alphabet)).matrix
    if not np.array_equal(oracle, mod_pairs(m).matrix):
        raise SystemExit("mod_pairs disagrees with the cyclic-group intersection")
    return oracle


def amt_oracle(m) -> np.ndarray:
    oracle = np.ones((m.element_count,) * 2, dtype=bool)
    for q in range(1, 11):
        oracle &= group_morphism_pairs(m, parikh_group(q, m.alphabet)).matrix
    return oracle


def group_expect(report, member: bool, source: str) -> dict:
    if report.member != member:
        raise SystemExit(f"library verdict {report.member} disagrees with {source}")
    return {
        "member": member, "certified": report.certified, "equation": report.equation,
        "witness": report.witness.to_dict() if report.witness else None,
        "source": source + ("" if member else "; witness seed-derived"),
    }


def oracle_member(m, matrix, level, plus) -> bool:
    rel = explicit_pairs(m, [(int(s), int(t)) for s, t in np.argwhere(matrix)])
    return verdict_over(m, rel, level, plus).member


def groups() -> dict:
    fixed = []
    for pattern, alphabet in (("(aa)*", "a"), ("a(aa)*", "a")):
        m = transition_monoid(minimize(compile_dfa(pattern, alphabet)))
        oracle = mod_oracle(m)
        for level, plus in LEVELS:
            report = membership.decide(pattern, alphabet, basis="mod", level=level, plus=plus)
            fixed.append(groups_case(
                f"groups.golden.mod.{pattern}.{level_name(level, plus)}",
                "golden MOD case", {"pattern": pattern, "alphabet": alphabet}, "mod", level, plus,
                group_expect(report, oracle_member(m, oracle, level, plus), "oracle:MOD"),
                monoid_stats(m, report.pair_count)))
    for pattern, alphabet, basis, level, plus, member, reason in HAND:
        m = transition_monoid(minimize(compile_dfa(pattern, alphabet)))
        base = basis if basis == "amt" else group_from_dict(GROUP_FILES[basis])
        report = membership.decide(pattern, alphabet, basis=base, level=level, plus=plus)
        fixed.append(groups_case(
            f"groups.golden.{basis.removeprefix('group:').removesuffix('.json')}.{pattern}."
            f"{level_name(level, plus)}",
            f"golden {basis} case ({'AMT certification' if basis == 'amt' else 'custom group BFS'})",
            {"pattern": pattern, "alphabet": alphabet}, basis, level, plus,
            group_expect(report, member, f"hand: {reason}"), monoid_stats(m, report.pair_count)))

    rng = random.Random(GENERATOR_SEED + 1)
    strata: dict[str, list] = defaultdict(list)
    for draw in range(GROUPS_DRAWS):
        d = random_dfa(rng, GROUPS_STATES)
        m = transition_monoid(minimize(d))
        n = m.element_count
        if not 2 <= n <= 7:
            continue
        for basis in ("mod", "amt"):
            if basis == "mod":
                key = f"mod-M{n}"
            else:
                cap = GROUPS_POOL_CAP["cheap" if n < 5 else "costly"]
                if not any(k.startswith(f"amt-M{n}-") for k in GROUPS_QUOTA) or (
                        len(strata[f"amt-M{n}-cert"]) + len(strata[f"amt-M{n}-uncert"]) >= cap):
                    continue
                rel = amt_pairs(m)
                key = f"amt-M{n}-{'cert' if rel.certified else 'uncert'}"
            if key not in GROUPS_QUOTA or len(strata[key]) >= GROUPS_POOL_CAP["cheap"]:
                continue
            # one level per stratum, so a stratum's cases cost alike
            level, plus = LEVELS[sorted(GROUPS_QUOTA).index(key) % len(LEVELS)]
            report = membership.decide(d, basis=basis, level=level, plus=plus)
            if basis == "mod":
                expect = group_expect(report, oracle_member(m, mod_oracle(m), level, plus), "oracle:MOD")
            elif report.certified:
                oracle = amt_oracle(m)
                if not np.array_equal(oracle, rel.matrix):
                    raise SystemExit("amt_pairs disagrees with the parikh-group intersection")
                expect = group_expect(report, oracle_member(m, oracle, level, plus), "oracle:AMT")
            else:
                expect = group_expect(report, report.member,
                                      "seed-derived: uncertified AMT relation (a superset of the "
                                      "AMT pairs, so member verdicts are final)")
            strata[key].append(groups_case(
                f"groups.draw{draw}.{basis}.{level_name(level, plus)}",
                f"random {GROUPS_STATES}-state DFA, |M| = {n}, {basis.upper()} base"
                + ("" if basis == "mod" else f", relation {key.rsplit('-', 1)[1]}ified"),
                {"dfa": dfa_to_dict(d)}, basis, level, plus, expect,
                monoid_stats(m, report.pair_count)))
    missing = [k for k, q in GROUPS_QUOTA.items() if len(strata[k]) < q]
    if missing:
        raise SystemExit(f"groups pool too small for strata {missing}")
    return {"fixed": fixed, "pool": {k: strata[k] for k in sorted(GROUPS_QUOTA)},
            "quota": dict(sorted(GROUPS_QUOTA.items()))}


# --- constructions ------------------------------------------------------------

EVEN_A = "(b|ab*a)*"


def length_mod(p: int) -> str:
    return "(" + "(a|b)" * p + ")*"


COVERS = [
    ("(a|b)*ab(a|b)*", EVEN_A),
    ("(a|b)*aba(a|b)*", EVEN_A),
    ("(a|b)*ab(a|b)*", length_mod(2)),
    ("(a|b)*aba(a|b)*", length_mod(2)),
    ("(a|b)*ab(a|b)*", length_mod(3)),
    ("(a|b)*aba(a|b)*", length_mod(3)),
    ("(a|b)*ab(a|b)*", length_mod(4)),
    ("(a|b)*aba(a|b)*", length_mod(4)),
]


def constructions() -> dict:
    fixed = []
    for i, (target, gaps) in enumerate(COVERS):
        h, g = compile_dfa(target, "ab"), compile_dfa(gaps, "ab")
        result = pgcov_cover(h, g)
        if not result.certified:
            raise SystemExit(f"cover of {target} by {gaps} is not certified")
        fixed.append({
            "id": f"constructions.cover{i}", "kind": "cover",
            "why": f"greedy cover with {len(result.entries)} bases: up_arrow determinization, "
                   "combine, minimize and includes per base",
            "target": target, "gaps": gaps, "alphabet": "ab",
            "expect": {"certified": True, "bases": list(result.base_words()),
                       "source": "seed-derived (greedy, shortest uncovered word first)"},
            "stats": {"target_states": minimize(h).states, "gap_states": minimize(g).states,
                      "bases": len(result.entries)},
        })
    decompose = []
    for k in (2, 3, 4):
        m = transition_monoid(minimize(compile_dfa(nth_letter(k), "ab")))
        decompose.append({
            "id": f"constructions.decompose.k{k}", "kind": "decompose",
            "why": f"guarded decomposition of a seeded random word over the ladder monoid "
                   f"|M| = {m.element_count}",
            "input": {"pattern": nth_letter(k), "alphabet": "ab"}, "alphabet": "ab",
            "words": 4, "min_length": 20000, "max_length": 40000,
            "stats": monoid_stats(m, 0),
        })
    return {"fixed": fixed, "decompose": decompose}


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for basis, doc in GROUP_FILES.items():
        group_from_dict(doc)   # validates the table
        (DATA / basis.removeprefix("group:")).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    expected = {
        "generator": "perfbench/generate_expected.py",
        "generator_seed": GENERATOR_SEED,
        "ladder": ladder(),
        "dotdepth": dotdepth(),
        "groups": groups(),
        "constructions": constructions(),
    }
    with open(DATA / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in ("ladder", "dotdepth", "groups", "constructions"):
        section = expected[name]
        print(f"{name}: {len(section.get('fixed', []))} fixed, quota {section.get('quota', {})}")


if __name__ == "__main__":
    main()
