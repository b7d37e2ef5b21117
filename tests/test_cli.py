"""Command-line behavior: exit codes, JSON reports, batch manifests."""

import json
import subprocess
import sys

import pytest

from hierarchy_one.cli import main
from hierarchy_one.lang import compile_dfa, dfa_to_dict, minimize
from hierarchy_one.membership import decide
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


@pytest.mark.parametrize("doc", [[Z3_DOC], dict(Z3_DOC, letter_image={"a": [1]})],
                         ids=["top-level-list", "list-letter-image"])
def test_malformed_group_file_is_an_error(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "(aa)*", "--alphabet", "a", "--basis", f"group:{path}"]) == 2
    assert "error: malformed group document" in capsys.readouterr().err


def test_bad_pattern_reports_position(capsys):
    assert main(["decide", "--alphabet", "ab", "((a"]) == 2
    assert "error" in capsys.readouterr().err


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


# --- installed entry point ----------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hierarchy_one.cli", "decide",
         "--alphabet", "a", "--basis", "mod", "(aa)*"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "MEMBER" in proc.stdout
