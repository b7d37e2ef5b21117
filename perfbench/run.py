"""Benchmark for hierarchy-one: time to verdict on four workloads.

    python3 perfbench/run.py [--workload ladder|dotdepth|groups|constructions|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child process (`worker.py`), one case after
another, and every result is checked against `data/expected.json`. With
`--trace 0` the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics from wrapper spans. The last line of standard output is
one JSON object; the full record goes to `perfbench/out/`. The exit code is
0 when every checked result is right, 1 when one is wrong or a case raised,
2 on a missing prerequisite, 3 when a workload process fails or overruns.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("ladder", "dotdepth", "groups", "constructions")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "decided_share": "ratio",
    "certified_share": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HIERARCHY_ONE_BUDGET", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker; return its JSON line and the monotonic spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(), text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} passed the {RUN_LIMIT_S:.0f} s run limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1]), spawned


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            child, spawned = spawn(base + ["--setup-only"], deadline)
            setups.append([child["ready"] - spawned, child["ready_probe_s"]])
    result, spawned = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append([result["ready"] - spawned, result["ready_probe_s"]])
        result["setup_samples"] = setups
        # spawn to first case, rescaled by the probe taken right after it
        result["metrics"]["setup_s"] = median(
            raw * result["ref_probe_s"] / speed for raw, speed in setups)
        result["notes"]["setup_s"] = (f"median of {len(setups)} process starts to first case; "
                                      f"raw median {median(raw for raw, _ in setups):.3f} s")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def report(result: dict, trace: int) -> dict:
    names = result["units"] if trace else END_TO_END
    passes = result["pass_walls"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {trace}  "
          f"passes {len(passes)}  cases {len(result['cases'])}")
    notes = result.get("notes", {})
    for name, unit in names.items():
        value = result["metrics"][name]
        print(f"  {name:38} {value:14.6g} {unit:8} {notes.get(name, '')}")
    if trace:
        detail = result["trace_detail"]
        print(f"  largest self times (last of {detail['traced_passes']} traced passes):")
        for name, seconds, share in detail["leaders"]:
            print(f"    {name:36} {seconds:10.4f} s  {100 * share:5.1f}%")
        print(f"  spans cover {100 * (1 - result['metrics']['trace.unaccounted_share']):.1f}% "
              "of the traced pass; the rest is the benchmark's own checks and dispatch")
    for case in result["cases"]:
        for problem in case["problems"]:
            print(f"  FAILED {case['id']}: {problem}")
    return {name: {"value": result["metrics"][name], "unit": unit} for name, unit in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "hierarchy_one" / "__init__.py", HERE / "data" / "expected.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        metrics = report(result, args.trace)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{workload}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
