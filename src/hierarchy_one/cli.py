"""Command-line front end.

Subcommands: analyze (automaton/monoid summary), decide (membership in a
Pol/BPol class), pairs (dump a pair relation), cover (greedy group-language
cover), decompose (guarded block decomposition), batch (manifest of decide
cases with expected verdicts, run in a worker pool).

Exit codes: decide uses 0 member / 1 non-member / 2 error. cover exits 0
only for certified covers. Everything else: 0 ok, 2 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence, Union

from .covers import guarded_decomposition, pgcov_cover
from .errors import BUDGET_ENV_VAR, BudgetError, UsageError, positive_budget
from .lang.dfa import Dfa, dfa_from_dict, dfa_to_dict, is_permutation_automaton, minimal_dfa
from .membership import BASES, LEVELS, Base, Report, base_of, class_name, decide, pair_relation
from .monoid import (SyntacticMorphism, monoid_to_dict, stable_sequence, syntactic_preorder,
                     transition_monoid)
from .pairs import GroupPresentation, group_from_dict, pairs_to_dict
# Unused here: perfbench/spans.py traces these names in this module too.
from .lang.dfa import compile_dfa, minimize  # noqa: F401
from .pairs import amt_pairs, group_morphism_pairs, mod_pairs, st_pairs  # noqa: F401

EXIT_MEMBER = 0
EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# input plumbing


def _source(text: str, base_dir: str = ".") -> Union[Dfa, str]:
    """The DFA a JSON file path (ending in .json or holding a path separator)
    names, relative to `base_dir`; any other text is a pattern, kept as is."""
    if not (text.endswith(".json") or os.path.sep in text):
        return text
    with open(os.path.join(base_dir, text), "r", encoding="utf-8") as fh:
        return dfa_from_dict(json.load(fh))


def _resolve_basis(text: str, base_dir: str = ".") -> Union[Base, GroupPresentation]:
    """The group a group:<file.json> loads, relative to `base_dir`, or the Base of `text`."""
    text = text.strip()
    if not text.lower().startswith("group:"):
        return base_of(text)
    path = os.path.join(base_dir, text[len("group:"):])   # an absolute path stays itself
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_dict(json.load(fh), name=os.path.splitext(os.path.basename(path))[0])


def _morphism(args: argparse.Namespace) -> tuple[Dfa, SyntacticMorphism]:
    """The minimal DFA of `args.input` and its syntactic morphism."""
    dfa = minimal_dfa(_source(args.input), args.alphabet, state_budget=args.budget)
    return dfa, transition_monoid(dfa, element_budget=args.budget)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _show_word(w: str) -> str:
    return f"'{w}'" if w else "''"


# ---------------------------------------------------------------------------
# decide


def _print_report(report: Report, show_witness: bool) -> None:
    name = class_name(report.basis, report.level, report.plus)
    verdict = "MEMBER of" if report.member else "NOT a member of"
    print(f"{report.input_text}: {verdict} {name}")
    print(f"  alphabet {{{','.join(report.alphabet)}}}, minimal DFA "
          f"{report.dfa_states} states, syntactic monoid {report.monoid_size} "
          f"elements", end="")
    if report.pair_count is not None:
        print(f", {report.pair_count} pairs", end="")
    print(f" [{report.elapsed_s:.3f}s]")
    w = report.witness
    if w is not None:
        roles = sorted(w.elements)
        compact = ", ".join(f"{r}={_show_word(w.words[r])}" for r in roles)
        print(f"  violation of {report.equation}: {compact}")
        if show_witness:
            for r in roles:
                print(f"    {r} = element {w.elements[r]}  {_show_word(w.words[r])}")
            print(f"    sides evaluate to {w.lhs} vs {w.rhs}")


def _decide(text: str, alphabet: Optional[str], basis: str, level: str,
            plus: bool, budget: Optional[int], base_dir: str = ".") -> Report:
    """One decide call as the CLI and batch workers make it."""
    resolved = _resolve_basis(basis, base_dir=base_dir)
    return decide(_source(text, base_dir=base_dir), alphabet, basis=resolved, level=level,
                  plus=plus, label=text, budget=budget)


def cmd_decide(args: argparse.Namespace) -> int:
    report = _decide(args.input, args.alphabet, args.basis, args.level,
                     args.plus, args.budget)
    _print_report(report, args.witness)
    if args.json:
        _write_json(args.json, report.to_dict())
    return EXIT_MEMBER if report.member else EXIT_NONMEMBER


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    dfa, m = _morphism(args)
    info = stable_sequence(m)
    perm = is_permutation_automaton(dfa)
    print(f"{args.input}")
    print(f"  alphabet            {{{','.join(dfa.alphabet)}}}")
    print(f"  minimal DFA         {dfa.states} states, "
          f"{len(dfa.finals)} accepting")
    print(f"  syntactic monoid    {m.element_count} elements "
          f"({len(m.nonempty_image)} in the nonempty-word image, "
          f"{len(m.idempotents_s)} idempotents)")
    print(f"  group language      {'yes (monoid is a group)' if perm else 'no'}")
    print(f"  length stabilizes   threshold {info.threshold}, period {info.period}")
    if args.json:
        _write_json(args.json, {
            "input": args.input,
            "dfa": dfa_to_dict(dfa),
            "monoid": monoid_to_dict(m, syntactic_preorder(m)),  # only the report reads it
            "group_language": perm,
            "stable": {"threshold": info.threshold, "period": info.period},
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# pairs


def cmd_pairs(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise UsageError(f"--limit must be zero or more, got {args.limit}")
    basis = _resolve_basis(args.basis)
    _, m = _morphism(args)
    rel = pair_relation(m, basis, node_budget=args.budget)
    n = rel.element_count
    print(f"{args.input}: {rel.count} {rel.basis}-pairs over "
          f"{n}x{n} elements")
    shown = 0
    for s, t in rel.pairs_iter():
        if shown >= args.limit:
            remaining = rel.count - shown
            if remaining > 0:
                print(f"  ... {remaining} more")
            break
        wit = rel.witness_for(s, t)
        tail = f"  via ({_show_word(wit[0])}, {_show_word(wit[1])})" if wit else ""
        print(f"  ({s}, {t}){tail}")
        shown += 1
    if args.json:
        _write_json(args.json, pairs_to_dict(rel))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cover


def cmd_cover(args: argparse.Namespace) -> int:
    # here --budget caps the number of base words; automaton sizes keep
    # their own defaults (or the environment override)
    target = minimal_dfa(_source(args.target), args.alphabet)
    gaps = minimal_dfa(_source(args.gaps), args.alphabet)
    result = pgcov_cover(target, gaps, max_bases=args.budget)
    status = "certified" if result.certified else "PARTIAL (budget hit, not certified)"
    print(f"cover of {args.target} with {args.gaps} gaps: "
          f"{len(result.entries)} base words, {status}")
    emitted = []
    for i, (w, arrow) in enumerate(result.entries):
        line = f"  {_show_word(w)}  ({arrow.states}-state automaton)"
        entry = {"base_word": w, "states": arrow.states,
                 "automaton_file": None}
        if args.emit_dir:
            os.makedirs(args.emit_dir, exist_ok=True)
            path = os.path.join(args.emit_dir, f"base_{i}.json")
            _write_json(path, dfa_to_dict(arrow))
            entry["automaton_file"] = path
            line += f" -> {path}"
        else:
            entry["automaton"] = dfa_to_dict(arrow)
        emitted.append(entry)
        print(line)
    if args.json:
        _write_json(args.json, {
            "target": args.target,
            "gaps": args.gaps,
            "certified": result.certified,
            "bases": emitted,
        })
    return EXIT_OK if result.certified else EXIT_ERROR


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args: argparse.Namespace) -> int:
    _, m = _morphism(args)
    decomposition = guarded_decomposition(m, args.word)
    if not decomposition.verify(m, args.word):
        print("internal error: decomposition failed verification", file=sys.stderr)
        return EXIT_ERROR
    k = m.element_count**2
    print(f"word of length {len(args.word)}, block bound {k} "
          f"(|M| = {m.element_count}): {len(decomposition.blocks)} blocks")
    for i, block in enumerate(decomposition.blocks):
        print(f"  block {i + 1}: {_show_word(block)}")
        if i < len(decomposition.links):
            e = decomposition.links[i]
            print(f"  link    : idempotent {e} ({_show_word(m.witness[e])})")
    if args.json:
        _write_json(args.json, {
            "input": args.input,
            "word": args.word,
            "blocks": list(decomposition.blocks),
            "links": list(decomposition.links),
            "link_words": [m.witness[e] for e in decomposition.links],
            "verified": True,
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch


def _batch_case(case: dict, base_dir: str, budget: Optional[int]) -> dict:
    """Worker: run one manifest case; never raises."""
    out = {"error": None, "member": None}
    try:
        report = _decide(case["input"], case.get("alphabet"), case.get("basis", "st"),
                         case.get("level", "bpol"), case.get("plus", False),
                         budget, base_dir=base_dir)
        out["member"] = report.member
        out["class"] = class_name(report.basis, report.level, report.plus)
    except Exception as exc:  # noqa: BLE001 - workers report, never crash the pool
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


# The JSON type each optional case field must have when present.
_CASE_FIELDS = {"plus": bool, "expect": bool, "basis": str, "level": str, "alphabet": str}


def cmd_batch(args: argparse.Namespace) -> int:
    positive_budget(args.workers, "--workers")
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    cases = manifest.get("cases")
    if not isinstance(cases, list):
        raise UsageError('manifest must be an object with a "cases" list')
    for i, case in enumerate(cases):
        if not isinstance(case, dict) or "input" not in case:
            raise UsageError('every case needs at least an "input" field')
        for key, kind in _CASE_FIELDS.items():
            if key in case and not isinstance(case[key], kind):
                want = "true or false" if kind is bool else "a string"
                raise UsageError(f"case {i}: {key!r} must be {want}, got {case[key]!r}")
    run = functools.partial(_batch_case, budget=args.budget,
                            base_dir=os.path.dirname(os.path.abspath(args.manifest)))

    workers = args.workers or os.cpu_count() or 1
    if workers > 1 and len(cases) > 1:
        # imported here: the pool machinery costs more to import than the rest of cli
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, cases))
    else:
        results = [run(case) for case in cases]

    rows = []
    for case, result in zip(cases, results):
        expect = case.get("expect")
        got = "member" if result["member"] else "non-member"
        if result["error"] is not None:
            status, detail = "ERROR", result["error"]
        elif expect is None:
            status, detail = "DONE", got
        elif expect == result["member"]:
            status, detail = "PASS", got
        else:
            status, detail = "FAIL", f"expected {'member' if expect else 'non-member'}, got {got}"
        rows.append((status, case, result, detail))

    width = max((len(str(c.get("input", ""))) for c in cases), default=5)
    for status, case, result, detail in rows:
        name = result.get("class") or f"{case.get('level', 'bpol')}/{case.get('basis', 'st')}"
        print(f"{status:5}  {str(case['input']):{width}}  {name}  {detail}")
    passed = sum(1 for r in rows if r[0] in ("PASS", "DONE"))
    print(f"{passed}/{len(rows)} cases ok")
    all_ok = passed == len(rows)

    if args.json:
        _write_json(args.json, {
            "manifest": os.path.abspath(args.manifest),
            "results": [
                {"status": status, "case": {k: v for k, v in case.items()},
                 "member": result["member"], "error": result["error"]}
                for status, case, result, _ in rows
            ],
            "ok": all_ok,
        })
    return EXIT_OK if all_ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, *, basis: bool = False,
                level: bool = False) -> None:
    sub.add_argument("--alphabet", help="alphabet letters, e.g. --alphabet ab "
                     "(required for pattern input)")
    if basis:
        sub.add_argument("--basis", default="st",
                         help=f"{' | '.join(BASES)} | group:<file.json> "
                         "(default: st)")
    if level:
        sub.add_argument("--level", choices=LEVELS, default="bpol",
                         help="half level Pol or full level BPol (default: bpol)")
        sub.add_argument("--plus", action="store_true",
                         help="use the well-suited extension (adds {empty} "
                         "to the base)")
    sub.add_argument("--json", metavar="OUT",
                     help="also write a JSON report to this path")
    sub.add_argument("--budget", type=int,
                     help=f"override computation budgets (also: "
                     f"{BUDGET_ENV_VAR} environment variable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each `parse_args` call
    still returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hierarchy-one",
        description="Decide membership of regular languages in the level-one "
        "concatenation hierarchies over group-language bases.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="summarize automaton and syntactic monoid")
    p.add_argument("input", help="pattern or DFA .json path")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("decide", help="decide Pol/BPol membership")
    p.add_argument("input", help="pattern or DFA .json path")
    _add_common(p, basis=True, level=True)
    p.add_argument("--witness", action="store_true",
                   help="print the violating assignment in full")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("pairs", help="dump a pair relation")
    p.add_argument("input", help="pattern or DFA .json path")
    _add_common(p, basis=True)
    p.add_argument("--limit", type=int, default=20,
                   help="print at most this many pairs (default: 20)")
    p.set_defaults(func=cmd_pairs)

    p = subs.add_parser("cover", help="cover a language with group-gapped "
                        "base words")
    p.add_argument("target", help="language to cover (pattern or .json)")
    p.add_argument("gaps", help="group language with the empty word "
                   "(pattern or .json)")
    _add_common(p)
    p.add_argument("--emit-dir", help="write each base automaton to this "
                   "directory as base_<i>.json")
    p.set_defaults(func=cmd_cover)

    p = subs.add_parser("decompose", help="guarded block decomposition of a word")
    p.add_argument("input", help="language fixing the morphism (pattern or .json)")
    p.add_argument("word", help="word to decompose")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("batch", help="run a manifest of decide cases")
    p.add_argument("manifest", help="JSON manifest with a \"cases\" list")
    p.add_argument("--workers", type=int,
                   help="worker processes (default: available parallelism)")
    p.add_argument("--json", metavar="OUT",
                   help="also write an aggregate JSON report to this path")
    p.add_argument("--budget", type=int,
                   help="override computation budgets for every case")
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        positive_budget(args.budget, "--budget")
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:     # usage, pattern, alphabet and JSON errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
