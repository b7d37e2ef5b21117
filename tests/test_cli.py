"""Command-line behavior: exit codes, JSON reports, batch manifests."""

import json
import subprocess
import sys

import pytest

from hierarchy_one import cli
from hierarchy_one.cli import main
from hierarchy_one.errors import AlphabetError, UsageError
from hierarchy_one.lang import compile_dfa, dfa_to_dict, minimal_dfa, minimize
from hierarchy_one.membership import BASES, decide
from hierarchy_one.pairs import group_from_dict
from tests.conftest import GOLDEN_VERDICTS, random_minimal_dfa

Z3_DOC = {
    "name": "z3",
    "elements": 3,
    "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "letter_image": {"a": 1},
}


# --- decide -------------------------------------------------------------------


def test_decide_exit_codes_follow_the_verdict(capsys):
    assert main(["decide", "--alphabet", "ab", "--basis", "st",
                 "--level", "bpol", "(ab)*"]) == 1
    assert "NOT a member" in capsys.readouterr().out
    assert main(["decide", "--alphabet", "ab", "--basis", "st",
                 "--level", "bpol", "--plus", "(ab)*"]) == 0
    assert "dot-depth one" in capsys.readouterr().out
    assert main(["decide", "--alphabet", "a", "--basis", "mod",
                 "--level", "bpol", "(aa)*"]) == 0


def test_decide_prints_witness_detail_on_request(capsys):
    assert main(["decide", "--alphabet", "ab", "(ab)*", "--witness"]) == 1
    out = capsys.readouterr().out
    assert "violation of GONE" in out
    assert "sides evaluate to 4 vs 2" in out


def test_decide_json_report_matches_library(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["decide", "--alphabet", "ab", "(ab)*", "--json", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    lib = decide("(ab)*", "ab", basis="st", level="bpol", label="(ab)*")
    want = lib.to_dict()
    doc.pop("elapsed_s"), want.pop("elapsed_s")
    assert doc == want
    assert code == (0 if doc["member"] else 1)


def test_gr_outside_bpol_is_rejected_with_the_stated_message(capsys):
    for extra in (["--level", "pol"], ["--plus"]):
        code = main(["decide", "--alphabet", "a", "--basis", "gr",
                     "(aa)*", *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported: GR-pairs not computable in this tool" in err


@pytest.mark.parametrize("budget", ["3", "5"])
def test_small_budget_amt_decide_is_the_exact_member(budget, tmp_path, capsys):
    # (aa)* has two AMT cosets: budgets this small still give the exact
    # relation, so the member verdict is certified
    out = tmp_path / "report.json"
    code = main(["decide", "--alphabet", "a", "--basis", "amt",
                 "(aa)*", "--budget", budget, "--json", str(out)])
    assert code == 0
    assert "MEMBER of" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["member"] is True and doc["certified"] is True


def test_decide_agrees_with_library_on_random_inputs(tmp_path, capsys):
    import random
    rng = random.Random(2468)
    for i in range(6):
        d = random_minimal_dfa(rng)
        path = tmp_path / f"dfa{i}.json"
        path.write_text(json.dumps(dfa_to_dict(d)))
        code = main(["decide", str(path), "--basis", "st"])
        capsys.readouterr()
        want = decide(d, basis="st", level="bpol")
        assert code == (0 if want.member else 1)


# --- inputs -------------------------------------------------------------------


def test_pattern_requires_alphabet(capsys):
    assert main(["decide", "(ab)*"]) == 2
    assert "alphabet" in capsys.readouterr().err


def test_file_input_with_clashing_alphabet_is_an_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dfa_to_dict(compile_dfa("(ab)*", "ab"))))
    assert main(["decide", str(path), "--alphabet", "abc"]) == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("delta", [[[1, 2, 2], [2, 2, 0]], {"a": 1, "b": [2, 2, 0]}],
                         ids=["delta-list", "column-number"])
def test_malformed_dfa_file_is_an_error(tmp_path, capsys, delta):
    doc = dict(dfa_to_dict(compile_dfa("(ab)*", "ab")), delta=delta)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", str(path)]) == 2
    assert "error: malformed DFA document" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ([Z3_DOC], ""),
    (dict(Z3_DOC, letter_image={"a": [1]}), "letter_image['a']"),
    ({"elements": 2.7, "table": [[0, 1], [1, 0]], "letter_image": {"a": "1", "b": True}}, "elements"),
    ({"elements": 2, "table": [[0, 1.9], [1, 0]], "letter_image": {"a": 1}}, "table[0][1]"),
], ids=["top-level-list", "list-letter-image", "float-elements", "float-table-entry"])
def test_malformed_group_file_is_an_error(tmp_path, capsys, doc, field):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "(aa)*", "--alphabet", "a", "--basis", f"group:{path}"]) == 2
    assert f"error: malformed group document: {field}" in capsys.readouterr().err


def test_bad_pattern_reports_position(capsys):
    assert main(["decide", "--alphabet", "ab", "((a"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_basis_fails_before_the_pattern_compiles(capsys):
    # at --budget 2 compiling this pattern would exceed the budget first; the
    # message is the library's, and names every built-in and group files
    pattern = "(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)"
    assert main(["decide", pattern, "--alphabet", "ab", "--basis", "frob", "--budget", "2"]) == 2
    out, err = capsys.readouterr()
    with pytest.raises(UsageError) as lib:
        decide(pattern, "ab", basis="frob")
    assert (out, err) == ("", f"error: {lib.value}\n")
    assert "unknown basis 'frob'" in err and "budget exceeded" not in err
    assert all(key in err for key in BASES) and "group:<file.json>" in err


def test_group_over_another_alphabet_fails_before_the_pattern_compiles(tmp_path, capsys):
    # at --budget 2 compiling (aa)* (3 states) would exceed the budget first
    doc = dict(Z3_DOC, letter_image={"a": 1, "b": 2})
    path = tmp_path / "z3ab.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "(aa)*", "--alphabet", "a", "--basis", f"group:{path}",
                 "--budget", "2"]) == 2
    out, err = capsys.readouterr()
    with pytest.raises(AlphabetError) as lib:
        decide("(aa)*", "a", basis=group_from_dict(doc), budget=2)
    assert (out, err) == ("", f"error: {lib.value}\n")


def input_error(source, alphabet=None) -> ValueError:
    """What minimal_dfa raises for one input rule broken."""
    with pytest.raises((AlphabetError, UsageError)) as exc:
        minimal_dfa(source, alphabet)
    return exc.value


@pytest.mark.parametrize("command", ["decide", "analyze", "pairs", "cover", "decompose", "batch"])
def test_every_command_gives_the_input_errors_of_minimal_dfa(tmp_path, capsys, command):
    dfa = compile_dfa("(ab)*", "ab")
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dfa_to_dict(dfa)))
    for language, alphabet, exc in ((str(path), "abc", input_error(dfa, "abc")),
                                    ("(ab)*", None, input_error("(ab)*"))):
        if command == "batch":
            case = {"input": language} if alphabet is None else {"input": language,
                                                                 "alphabet": alphabet}
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"cases": [case]}))
            assert main(["batch", str(manifest), "--workers", "1"]) == 2
            row = capsys.readouterr().out.splitlines()[0]
            assert row.startswith("ERROR") and row.endswith(f"  {type(exc).__name__}: {exc}")
            continue
        operands = {"cover": [language, language], "decompose": [language, "ab"]}
        flags = [] if alphabet is None else ["--alphabet", alphabet]
        assert main([command, *operands.get(command, [language]), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_basis_help_lists_every_built_in(capsys):
    assert main(["decide", "--help"]) == 0
    assert " | ".join(BASES) + " | group:<file.json>" in " ".join(capsys.readouterr().out.split())


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# --- analyze / pairs -----------------------------------------------------------


def test_analyze_summarizes_monoid(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["analyze", "--alphabet", "ab", "(ab)*", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "6 elements" in text
    doc = json.loads(out.read_text())
    assert doc["monoid"]["identity"] == 0
    assert len(doc["monoid"]["table"]) == 6
    assert doc["group_language"] is False


@pytest.mark.parametrize("pattern, alphabet, answer", [
    ("(aa)*", "a", "yes (monoid is a group)"),
    ("(ab)*", "ab", "no"),
    ("a(aa)*", "ab", "no"),       # a permutation on a, not on b
])
def test_analyze_says_whether_the_language_is_a_group_language(capsys, pattern, alphabet,
                                                                answer):
    assert main(["analyze", pattern, "--alphabet", alphabet]) == 0
    assert f"\n  group language      {answer}\n" in capsys.readouterr().out


def test_analyze_builds_the_preorder_only_for_the_json_report(tmp_path, capsys, monkeypatch):
    from hierarchy_one import cli

    calls = []
    real = cli.syntactic_preorder
    monkeypatch.setattr(cli, "syntactic_preorder", lambda m: calls.append(m) or real(m))
    assert main(["analyze", "--alphabet", "ab", "(ab)*"]) == 0
    assert calls == []
    assert main(["analyze", "--alphabet", "ab", "(ab)*", "--json", str(tmp_path / "a.json")]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_pairs_lists_relation(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["pairs", "--alphabet", "a", "--basis", "mod", "(aa)*",
                 "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "2 MOD-pairs" in text
    doc = json.loads(out.read_text())
    assert [[s, t] for s, t, _, _ in doc["pairs"]] == [[0, 0], [1, 1]]


def test_pairs_amt_is_exact_at_small_budgets(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    for budget in ("3", "5"):
        assert main(["pairs", "--alphabet", "a", "--basis", "amt", "(aa)*",
                     "--budget", budget, "--json", str(out)]) == 0
        assert "(aa)*: 2 AMT-pairs over 2x2 elements\n" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["certified"] is True
        assert [[s, t] for s, t, _, _ in doc["pairs"]] == [[0, 0], [1, 1]]


def test_pairs_rejects_a_negative_limit_before_any_work(capsys):
    # at --budget 2 compiling (aa)* (3 states) would exceed the budget first
    argv = ["pairs", "(aa)*", "--alphabet", "a", "--basis", "mod"]
    assert main([*argv, "--limit", "-3", "--budget", "2"]) == 2
    assert capsys.readouterr() == ("", "error: --limit must be zero or more, got -3\n")
    assert main([*argv, "--limit", "0"]) == 0
    assert capsys.readouterr().out == "(aa)*: 2 MOD-pairs over 2x2 elements\n  ... 2 more\n"


def test_pairs_gr_is_rejected(capsys):
    assert main(["pairs", "--alphabet", "a", "--basis", "gr", "(aa)*"]) == 2
    assert "GR-pairs" in capsys.readouterr().err


# --- cover / decompose -----------------------------------------------------------


def test_cover_writes_base_automata(tmp_path, capsys):
    out = tmp_path / "cover.json"
    emit = tmp_path / "bases"
    code = main(["cover", "a*", "(aa)*", "--alphabet", "a",
                 "--json", str(out), "--emit-dir", str(emit)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert [b["base_word"] for b in doc["bases"]] == ["", "a"]
    emitted = json.loads((emit / "base_1.json").read_text())
    assert emitted["alphabet"] == ["a"]


def test_cover_budget_exhaustion_exits_nonzero(capsys):
    assert main(["cover", "a*", "(aa)*", "--alphabet", "a", "--budget", "1"]) == 2
    assert "PARTIAL" in capsys.readouterr().out


def test_cover_rejects_non_group_gaps(capsys):
    assert main(["cover", "a*", "a*b", "--alphabet", "ab"]) == 2
    assert "group language" in capsys.readouterr().err


def test_decompose_prints_blocks_and_links(tmp_path, capsys):
    out = tmp_path / "dec.json"
    word = "ab" * 40
    assert main(["decompose", "(ab)*", word, "--alphabet", "ab",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert "".join(doc["blocks"]) == word
    assert doc["verified"] is True
    assert len(doc["links"]) == len(doc["blocks"]) - 1


def test_decompose_empty_word_is_an_error(capsys):
    assert main(["decompose", "(ab)*", "", "--alphabet", "ab"]) == 2
    capsys.readouterr()


# --- batch ----------------------------------------------------------------------


def golden_manifest():
    return {"cases": [
        {"input": pattern, "alphabet": alphabet, "basis": basis,
         "level": level, "plus": plus, "expect": member}
        for pattern, alphabet, basis, level, plus, member in GOLDEN_VERDICTS
    ]}


def test_batch_golden_manifest_passes(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden_manifest()))
    agg = tmp_path / "agg.json"
    assert main(["batch", str(path), "--workers", "2", "--json", str(agg)]) == 0
    out = capsys.readouterr().out
    assert f"{len(GOLDEN_VERDICTS)}/{len(GOLDEN_VERDICTS)} cases ok" in out
    doc = json.loads(agg.read_text())
    assert doc["ok"] is True


def test_batch_pool_is_imported_only_when_batch_runs_one(tmp_path, monkeypatch):
    # importing the cli loads no pool machinery; batch --workers 2 still
    # runs its cases in a process pool
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hierarchy_one.cli; "
         "print(any(name.startswith('concurrent') for name in sys.modules))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"

    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden_manifest()))
    assert main(["batch", str(path), "--workers", "2"]) == 0
    assert pools == [2]
    assert main(["batch", str(path), "--workers", "1"]) == 0
    assert pools == [2]


def test_batch_flags_wrong_expectations(tmp_path, capsys):
    doc = golden_manifest()
    doc["cases"][0]["expect"] = not doc["cases"][0]["expect"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["batch", str(path), "--workers", "1"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_batch_records_case_errors_and_continues(tmp_path, capsys):
    doc = {"cases": [
        {"input": "(((", "alphabet": "ab"},
        {"input": "(aa)*", "alphabet": "a", "basis": "mod", "expect": True},
    ]}
    path = tmp_path / "err.json"
    path.write_text(json.dumps(doc))
    assert main(["batch", str(path), "--workers", "1"]) == 2
    out = capsys.readouterr().out
    assert "ERROR" in out and "PASS" in out


@pytest.mark.parametrize("field, value", [
    ("plus", "false"), ("plus", 1), ("plus", None), ("expect", "false"), ("expect", None),
    ("basis", 5), ("level", ["pol"]), ("alphabet", None),
])
def test_batch_rejects_mistyped_fields_before_any_case_runs(tmp_path, capsys, monkeypatch,
                                                             field, value):
    ran = []
    monkeypatch.setattr(cli, "_batch_case", lambda case, **kwargs: ran.append(case))
    good = {"input": "(aa)*", "alphabet": "a", "basis": "mod", "plus": False, "expect": True}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"cases": [good, dict(good, **{field: value})]}))
    assert main(["batch", str(path), "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == []
    assert err.startswith(f"error: case 1: '{field}' must be ")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_non_positive_workers_are_usage_errors(tmp_path, capsys, monkeypatch, workers):
    # rejected before the manifest is read or any case runs, as --budget is
    ran = []
    monkeypatch.setattr(cli, "_batch_case", lambda case, **kwargs: ran.append(case))
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden_manifest()))
    assert main(["batch", str(path), "--workers", workers]) == 2
    out, err = capsys.readouterr()
    assert (out, err, ran) == ("", f"error: --workers must be positive, got {workers}\n", [])


def test_batch_empty_manifest_is_ok(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cases": []}))
    assert main(["batch", str(path)]) == 0
    assert "0/0 cases ok" in capsys.readouterr().out


def test_batch_resolves_files_relative_to_manifest(tmp_path, capsys):
    (tmp_path / "lang.json").write_text(
        json.dumps(dfa_to_dict(minimize(compile_dfa("(aa)*", "a")))))
    (tmp_path / "z3.json").write_text(json.dumps(Z3_DOC))
    manifest = {"cases": [
        {"input": "lang.json", "basis": "mod", "expect": True},
        {"input": "(aaa)*", "alphabet": "a", "basis": "group:z3.json",
         "expect": True},
    ]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["batch", str(path), "--workers", "1"]) == 0
    capsys.readouterr()


# --- environment budget -----------------------------------------------------------


def test_env_budget_applies_and_flag_overrides(monkeypatch, capsys):
    monkeypatch.setenv("HIERARCHY_ONE_BUDGET", "2")
    assert main(["decide", "--alphabet", "ab", "(ab)*"]) == 2
    assert "budget" in capsys.readouterr().err.lower()
    assert main(["decide", "--alphabet", "ab", "(ab)*",
                 "--budget", "100000"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("argv", [["decide", "(ab)*"], ["cover", "a*", "(aa)*"]],
                         ids=["decide", "cover"])
def test_non_positive_budgets_are_usage_errors(monkeypatch, capsys, argv, budget):
    # the flag and the environment variable share one check and one message
    assert main([*argv, "--alphabet", "ab", "--budget", budget]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: --budget must be positive, got {budget}\n")
    monkeypatch.setenv("HIERARCHY_ONE_BUDGET", budget)
    assert main([*argv, "--alphabet", "ab"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: HIERARCHY_ONE_BUDGET must be positive, got {budget}\n")


# --- installed entry point ----------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hierarchy_one.cli", "decide",
         "--alphabet", "a", "--basis", "mod", "(aa)*"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "MEMBER" in proc.stdout
