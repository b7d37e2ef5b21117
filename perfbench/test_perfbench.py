"""The benchmark's own test: a wrong expected outcome must show.

    python3 -m pytest perfbench/test_perfbench.py

Copies the library and the benchmark into a temporary checkout, flips one
expected verdict there, and runs the benchmark command on it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(checkout: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dotdepth", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_flipped_expectation_lowers_decided_share_and_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))

    code, clean = run_benchmark(tmp_path)
    assert code == 0 and clean["correct"]
    assert clean["metrics"]["decided_share"]["value"] == 1.0

    expected_file = tmp_path / "perfbench" / "data" / "expected.json"
    expected = json.loads(expected_file.read_text())
    flipped = expected["dotdepth"]["fixed"][0]["expect"][0]
    flipped["member"] = not flipped["member"]
    expected_file.write_text(json.dumps(expected))

    code, result = run_benchmark(tmp_path)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["decided_share"]["value"] < 1.0
