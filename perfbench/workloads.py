"""The four workloads: their case lists, how each case runs, and how its
result is checked against the expected-outcome file.

A workload's case list is the fixed cases of `data/expected.json` plus, for
each stratum of its pool, `quota` cases drawn with the seed. Strata group
cases of equal load (same verdict, |M| and |E(S)| or basis), so a new seed
changes the languages but not the work. `constructions` also draws its
decomposition words from the seed.

Case kinds and what their time covers:
  decide     library pipeline, input to verdict (one monoid, one or more classes)
  cli        `cli.main(["decide", ..., "--json", out])`, the whole call
  cover      compile both languages and `pgcov_cover`, call to certified result
  decompose  monoid, `guarded_decomposition` and `.verify`, call to verified result
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from hierarchy_one import cli, covers, membership, monoid, pairs
from hierarchy_one.errors import BudgetError
from hierarchy_one.lang import dfa as lang_dfa

WORKLOADS = ("ladder", "dotdepth", "groups", "constructions")
DATA_DIR = Path(__file__).resolve().parent / "data"
EXPECTED_FILE = DATA_DIR / "expected.json"

# Untraced references for the checks' own monoid rebuilds: the tracer swaps
# module attributes, not these names, so harness work stays out of the spans.
_compile_dfa = lang_dfa.compile_dfa
_minimize = lang_dfa.minimize
_transition_monoid = monoid.transition_monoid
_syntactic_preorder = monoid.syntactic_preorder


@dataclass
class Case:
    id: str
    kind: str
    why: str
    data: dict
    dfa: Any = None                 # parsed DFA input, if the case has one
    argv: list = field(default_factory=list)
    word: str = ""


def load_expected(path: Path = EXPECTED_FILE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_cases(workload: str, seed: int, expected: dict, scratch: Path) -> list[Case]:
    """The workload's case list for `seed`. `scratch` receives the DFA files
    that `cli` cases read."""
    section = expected[workload]
    rng = random.Random(f"{workload}:{seed}")
    chosen = list(section.get("fixed", []))
    for stratum in sorted(section.get("quota", {})):
        pool = section["pool"][stratum]
        chosen.extend(rng.sample(pool, section["quota"][stratum]))
    cases = [_prepare(raw, scratch) for raw in chosen]
    for spec in section.get("decompose", []):
        for i in range(spec["words"]):
            length = rng.randint(spec["min_length"], spec["max_length"])
            word = "".join(rng.choices(spec["alphabet"], k=length))
            data = dict(spec, word_length=length)
            cases.append(Case(id=f"{spec['id']}.w{i}", kind="decompose", why=spec["why"],
                              data=data, word=word))
    return cases


def _prepare(raw: dict, scratch: Path) -> Case:
    case = Case(id=raw["id"], kind=raw["kind"], why=raw["why"], data=raw)
    source = raw.get("input", {})
    if "dfa" in source:
        case.dfa = lang_dfa.dfa_from_dict(source["dfa"])
    if case.kind == "cli":
        if "dfa" in source:
            path = scratch / f"{case.id}.json"
            path.write_text(json.dumps(source["dfa"]), encoding="utf-8")
            argv = ["decide", str(path)]
        else:
            argv = ["decide", source["pattern"], "--alphabet", source["alphabet"]]
        basis = raw["basis"]
        if basis.startswith("group:"):
            basis = "group:" + str(DATA_DIR / basis[len("group:"):])
        argv += ["--basis", basis, "--level", raw["level"]]
        if raw["plus"]:
            argv.append("--plus")
        case.argv = argv + ["--json", str(scratch / "report.json")]
    return case


# --- running ------------------------------------------------------------------

def _language(case: Case, compile_dfa, minimize):
    """The case's minimal DFA, built with the given library functions."""
    if case.dfa is not None:
        return minimize(case.dfa)
    source = case.data["input"]
    return minimize(compile_dfa(source["pattern"], source["alphabet"]))


def run_decide(case: Case):
    m = monoid.transition_monoid(_language(case, lang_dfa.compile_dfa, lang_dfa.minimize))
    rel = pairs.st_pairs(m)
    order = None
    verdicts = []
    for cls in case.data["classes"]:
        if cls["level"] == "pol":
            if order is None:
                order = monoid.syntactic_preorder(m)
            check = membership.check_pol_group_plus if cls["plus"] else membership.check_pol_group
            verdicts.append(check(m, order, rel))
        else:
            check = membership.check_bpol_group_plus if cls["plus"] else membership.check_bpol_group
            verdicts.append(check(m, rel))
    return m, rel, order, verdicts


class CliError(Exception):
    """`cli.main` exited 2; the message is what it printed to stderr."""


def run_cli(case: Case):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(case.argv)
    if code == 2:
        message = err.getvalue().strip()
        raise (BudgetError if message.startswith("budget exceeded") else CliError)(message)
    return code


def run_cover(case: Case):
    alphabet = case.data["alphabet"]
    return covers.pgcov_cover(lang_dfa.compile_dfa(case.data["target"], alphabet),
                              lang_dfa.compile_dfa(case.data["gaps"], alphabet))


def run_decompose(case: Case):
    m = monoid.transition_monoid(_language(case, lang_dfa.compile_dfa, lang_dfa.minimize))
    dec = covers.guarded_decomposition(m, case.word)
    return m, dec, dec.verify(m, case.word)


RUNNERS = {"decide": run_decide, "cli": run_cli, "cover": run_cover, "decompose": run_decompose}


# --- checking -----------------------------------------------------------------

def _check_verdict(m, order, verdict, expect: dict, pin_witness: bool = True) -> Optional[str]:
    if verdict.member != expect["member"]:
        return f"verdict {verdict.member}, expected {expect['member']}"
    if not membership.verify_witness(m, verdict, order=order):
        return "witness does not replay"
    if pin_witness and not verdict.member:
        got = verdict.witness.to_dict() | {"equation": verdict.equation}
        if got != expect["witness"] | {"equation": expect["equation"]}:
            return f"witness {got} differs from the expected first violation"
    return None


def check_decide(case: Case, payload) -> Optional[str]:
    m, rel, order, verdicts = payload
    for cls, verdict, expect in zip(case.data["classes"], verdicts, case.data["expect"]):
        problem = _check_verdict(m, order, verdict, expect)
        if problem:
            return f"{cls['level']}{'+' if cls['plus'] else ''}: {problem}"
    return None


def check_cli(case: Case, code: int, report: dict) -> Optional[str]:
    expect = case.data["expect"]
    # Exit 3 (conditional) is not pinned: which verdicts count as
    # conditional is expected to change. The verdict itself is pinned, and
    # the witness too where the expectation rests on a certified relation.
    if report["certified"] and code != (0 if report["member"] else 1):
        return f"exit code {code} for a certified verdict"
    m = _transition_monoid(_language(case, _compile_dfa, _minimize))
    order = _syntactic_preorder(m) if case.data["level"] == "pol" else None
    witness = report["witness"]
    verdict = membership.Verdict(
        report["member"], report["equation"],
        membership.ViolationWitness.from_dict(witness) if witness else None)
    return _check_verdict(m, order, verdict, expect, pin_witness=expect["certified"])


def check_cover(case: Case, result) -> Optional[str]:
    if not result.certified:
        return "cover not certified"
    if list(result.base_words()) != case.data["expect"]["bases"]:
        return f"base words {list(result.base_words())} differ from the expected cover"
    return None


def check_decompose(case: Case, payload) -> Optional[str]:
    m, dec, verified = payload
    if not verified:
        return "decomposition fails .verify"
    if (len(dec.blocks) == 1) != (len(case.word) <= m.element_count ** 2):
        return f"{len(dec.blocks)} blocks for a word of length {len(case.word)}"
    return None


def check(case: Case, payload, scratch: Path) -> tuple[Optional[str], bool]:
    """(problem or None, whether the result's certificate holds): the pair
    relation's `certified` flag for decide cases, the cover's for covers,
    `.verify` for decompositions."""
    if case.kind == "decide":
        return check_decide(case, payload), payload[1].certified
    if case.kind == "cover":
        return check_cover(case, payload), payload.certified
    if case.kind == "decompose":
        return check_decompose(case, payload), payload[2]
    report_path = scratch / "report.json"
    if payload not in (0, 1, 3) or not report_path.exists():
        return f"cli exit code {payload} without a report", False
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    return check_cli(case, payload, report), report["certified"]
