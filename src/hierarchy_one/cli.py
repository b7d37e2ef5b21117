"""Command-line front end.

Subcommands: analyze (automaton/monoid summary), decide (membership in a
Pol/BPol class), pairs (dump a pair relation), cover (greedy group-language
cover), decompose (guarded block decomposition), batch (manifest of decide
cases with expected verdicts, run in a worker pool).

Exit codes: decide uses 0 member / 1 non-member / 2 error / 3 conditional
(a non-member verdict over an uncertified pair relation). cover exits 0 only
for certified covers.
pairs exits 3 when the relation is uncertified. Everything else: 0 ok,
2 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Union

from .covers import guarded_decomposition, pgcov_cover
from .errors import (
    AlphabetError,
    BUDGET_ENV_VAR,
    BudgetError,
    PatternError,
    UsageError,
)
from .lang.dfa import (
    Dfa,
    compile_dfa,
    dfa_from_dict,
    dfa_to_dict,
    is_permutation_automaton,
    minimize,
)
from .lang.patterns import normalize_alphabet
from .membership import Report, class_name, decide
from .monoid import (
    is_group,
    monoid_to_dict,
    stable_sequence,
    syntactic_preorder,
    transition_monoid,
)
from .pairs import (
    GroupPresentation,
    amt_pairs,
    group_from_dict,
    group_morphism_pairs,
    mod_pairs,
    pairs_to_dict,
    st_pairs,
)

EXIT_MEMBER = 0
EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_ERROR = 2
EXIT_CONDITIONAL = 3

_GR_MESSAGE = "unsupported: GR-pairs not computable in this tool"


# ---------------------------------------------------------------------------
# input plumbing


def _looks_like_file(text: str) -> bool:
    return text.endswith(".json") or os.path.sep in text


def _load_language(text: str, alphabet: Optional[str], base_dir: str = ".",
                   state_budget: Optional[int] = None) -> Dfa:
    """A pattern string (needs --alphabet) or a path to a DFA JSON file."""
    if _looks_like_file(text):
        path = text if os.path.isabs(text) else os.path.join(base_dir, text)
        with open(path, "r", encoding="utf-8") as fh:
            d = dfa_from_dict(json.load(fh))
        if alphabet is not None and normalize_alphabet(alphabet) != d.alphabet:
            raise UsageError(
                f"--alphabet {alphabet!r} does not match the automaton file's "
                f"alphabet {''.join(d.alphabet)!r}")
        return d
    if alphabet is None:
        raise UsageError("pattern input needs an explicit --alphabet")
    return compile_dfa(text, alphabet, state_budget=state_budget)


def _resolve_basis(text: str, base_dir: str = ".") -> Union[str, GroupPresentation]:
    text = text.strip()
    low = text.lower()
    if low in ("st", "mod", "amt", "gr"):
        return low
    if low.startswith("group:"):
        path = text[len("group:"):]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        name = data.get("name") or os.path.splitext(os.path.basename(path))[0]
        return group_from_dict(data, name=name)
    raise UsageError(
        f"unknown basis {text!r}: use st, mod, amt, gr, or group:<file.json>")


def _basis_display(basis: Union[str, GroupPresentation]) -> str:
    return basis.upper() if isinstance(basis, str) else f"CUSTOM:{basis.name}"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _show_word(w: str) -> str:
    return f"'{w}'" if w else "''"


# ---------------------------------------------------------------------------
# decide


def _decide_exit(report: Report) -> int:
    # An uncertified relation holds every true pair and maybe more, and the
    # equations hold for every pair: a member verdict is final, only a
    # non-member verdict may rest on a pair the exact relation lacks.
    if report.member:
        return EXIT_MEMBER
    return EXIT_NONMEMBER if report.certified else EXIT_CONDITIONAL


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
    if _decide_exit(report) == EXIT_CONDITIONAL:
        print("  CONDITIONAL: the pair relation was not certified within "
              "budget; the violation may use a pair the exact relation lacks")
    w = report.witness
    if w is not None:
        roles = sorted(w.elements)
        compact = ", ".join(
            f"{r}={_show_word(w.words[r])}" for r in roles if w.words.get(r) is not None
        )
        print(f"  violation of {report.equation}: {compact}")
        if show_witness:
            for r in roles:
                word = w.words.get(r)
                shown = _show_word(word) if word is not None else "(no word witness)"
                print(f"    {r} = element {w.elements[r]}  {shown}")
            print(f"    sides evaluate to {w.lhs} vs {w.rhs}")


def cmd_decide(args: argparse.Namespace) -> int:
    basis = _resolve_basis(args.basis)
    if basis == "gr" and (args.level == "pol" or args.plus):
        raise UsageError(_GR_MESSAGE)
    source = _load_language(args.input, args.alphabet,
                            state_budget=args.budget)
    report = decide(
        source,
        basis=basis,
        level=args.level,
        plus=args.plus,
        label=args.input,
        state_budget=args.budget,
        element_budget=args.budget,
        node_budget=args.budget,
    )
    _print_report(report, args.witness)
    if args.json:
        _write_json(args.json, report.to_dict())
    return _decide_exit(report)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    dfa = minimize(_load_language(args.input, args.alphabet,
                                  state_budget=args.budget))
    m = transition_monoid(dfa, element_budget=args.budget)
    order = syntactic_preorder(m)
    info = stable_sequence(m)
    perm = is_permutation_automaton(dfa)
    print(f"{args.input}")
    print(f"  alphabet            {{{','.join(dfa.alphabet)}}}")
    print(f"  minimal DFA         {dfa.states} states, "
          f"{len(dfa.finals)} accepting")
    print(f"  syntactic monoid    {m.element_count} elements "
          f"({len(m.nonempty_image)} in the nonempty-word image, "
          f"{len(m.idempotents_s)} idempotents)")
    print(f"  group language      {'yes' if perm else 'no'}"
          f"{' (monoid is a group)' if is_group(m) else ''}")
    print(f"  length stabilizes   threshold {info.threshold}, period {info.period}")
    if args.json:
        _write_json(args.json, {
            "input": args.input,
            "dfa": dfa_to_dict(dfa),
            "monoid": monoid_to_dict(m, order),
            "group_language": perm,
            "stable": {"threshold": info.threshold, "period": info.period},
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# pairs


def _compute_pairs(m, basis, node_budget=None):
    if basis == "st":
        return st_pairs(m)
    if basis == "mod":
        return mod_pairs(m)
    if basis == "amt":
        return amt_pairs(m, node_budget=node_budget)
    if basis == "gr":
        raise UsageError(_GR_MESSAGE)
    return group_morphism_pairs(m, basis)


def cmd_pairs(args: argparse.Namespace) -> int:
    basis = _resolve_basis(args.basis)
    dfa = minimize(_load_language(args.input, args.alphabet,
                                  state_budget=args.budget))
    m = transition_monoid(dfa, element_budget=args.budget)
    rel = _compute_pairs(m, basis, node_budget=args.budget)
    n = rel.element_count
    print(f"{args.input}: {rel.count} {_basis_display(basis)}-pairs over "
          f"{n}x{n} elements"
          + ("" if rel.certified else " (UNCERTIFIED: budget hit)"))
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
    return EXIT_OK if rel.certified else EXIT_CONDITIONAL


# ---------------------------------------------------------------------------
# cover


def cmd_cover(args: argparse.Namespace) -> int:
    # here --budget caps the number of base words; automaton sizes keep
    # their own defaults (or the environment override)
    target = minimize(_load_language(args.target, args.alphabet))
    gaps = minimize(_load_language(args.gaps, args.alphabet))
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
    dfa = minimize(_load_language(args.input, args.alphabet,
                                  state_budget=args.budget))
    m = transition_monoid(dfa, element_budget=args.budget)
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


def _batch_case(payload: dict) -> dict:
    """Worker: run one manifest case; never raises."""
    out = {"input": payload.get("input"), "error": None, "member": None}
    try:
        basis = _resolve_basis(payload.get("basis", "st"),
                               base_dir=payload.get("_dir", "."))
        level = payload.get("level", "bpol")
        plus = bool(payload.get("plus", False))
        if basis == "gr" and (level == "pol" or plus):
            raise UsageError(_GR_MESSAGE)
        text = payload["input"]
        source = _load_language(text, payload.get("alphabet"),
                                base_dir=payload.get("_dir", "."),
                                state_budget=payload.get("_budget"))
        report = decide(source, basis=basis, level=level, plus=plus,
                        label=text, state_budget=payload.get("_budget"),
                        element_budget=payload.get("_budget"),
                        node_budget=payload.get("_budget"))
        out["member"] = report.member
        out["certified"] = report.certified
        out["class"] = class_name(report.basis, report.level, report.plus)
        out["report"] = report.to_dict()
    except Exception as exc:  # noqa: BLE001 - workers report, never crash the pool
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_batch(args: argparse.Namespace) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    cases = manifest.get("cases")
    if not isinstance(cases, list):
        raise UsageError('manifest must be an object with a "cases" list')
    base_dir = os.path.dirname(os.path.abspath(args.manifest))
    payloads = []
    for case in cases:
        if not isinstance(case, dict) or "input" not in case:
            raise UsageError('every case needs at least an "input" field')
        payload = dict(case)
        payload["_dir"] = base_dir
        payload["_budget"] = args.budget
        payloads.append(payload)

    workers = args.workers if args.workers else (os.cpu_count() or 1)
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_case, payloads))
    else:
        results = [_batch_case(p) for p in payloads]

    all_ok = True
    rows = []
    for case, result in zip(cases, results):
        expect = case.get("expect")
        if result["error"] is not None:
            status = "ERROR"
            detail = result["error"]
            all_ok = False
        elif expect is None:
            status = "DONE"
            detail = "member" if result["member"] else "non-member"
        elif bool(expect) == result["member"]:
            status = "PASS"
            detail = "member" if result["member"] else "non-member"
        else:
            status = "FAIL"
            detail = (f"expected {'member' if expect else 'non-member'}, "
                      f"got {'member' if result['member'] else 'non-member'}")
            all_ok = False
        rows.append((status, case, result, detail))

    width = max((len(str(c.get("input", ""))) for c in cases), default=5)
    for status, case, result, detail in rows:
        name = result.get("class") or f"{case.get('level', 'bpol')}/{case.get('basis', 'st')}"
        print(f"{status:5}  {str(case['input']):{width}}  {name}  {detail}")
    passed = sum(1 for r in rows if r[0] in ("PASS", "DONE"))
    print(f"{passed}/{len(rows)} cases ok")

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
                         help="st | mod | amt | gr | group:<file.json> "
                         "(default: st)")
    if level:
        sub.add_argument("--level", choices=("pol", "bpol"), default="bpol",
                         help="half level Pol or full level BPol (default: bpol)")
        sub.add_argument("--plus", action="store_true",
                         help="use the well-suited extension (adds {empty} "
                         "to the base)")
    sub.add_argument("--json", metavar="OUT",
                     help="also write a JSON report to this path")
    sub.add_argument("--budget", type=int,
                     help=f"override computation budgets (also: "
                     f"{BUDGET_ENV_VAR} environment variable)")


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, PatternError, AlphabetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
