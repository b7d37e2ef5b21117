"""One workload in one process: set up, run passes over the case list for
the given time, print one JSON line with the results.

`run.py` starts this with the environment pinned (numpy threads 1,
HIERARCHY_ONE_BUDGET removed) and measures set-up time from the spawn to
the `ready` stamp below. With `--setup-only` the worker stops at that stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hierarchy_one  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
CASE_LIMIT_S = 60.0
MIN_PASSES = 4
# No pass starts that would end past this point of the run, so a run stays
# well inside its 180 s limit even when the code under test slows down.
PASS_DEADLINE_S = 60.0
# An untraced case run shorter than REPEAT_UNDER_S is repeated until it has
# run REPEAT_MIN_RUNS times and for REPEAT_MIN_S in all (at most MAX_RUNS
# times), and the pass keeps the median: a single run of a few milliseconds
# is mostly timer, cache and interrupt noise.
REPEAT_UNDER_S = 0.1
REPEAT_MIN_RUNS = 3
REPEAT_MIN_S = 0.03
MAX_RUNS = 25
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_VAR = "HIERARCHY_ONE_BUDGET"
# Host-speed probe: a fixed mix of dict/tuple work and small numpy gathers
# that uses no library code. Timings are rescaled to a host on which the
# probe takes REF_PROBE_S (about its median on the 2-core x86_64 host this
# benchmark was built on).
REF_PROBE_S = 6e-4
_PROBE_TABLE = np.random.default_rng(0).integers(0, 32, size=(32, 32)).astype(np.int32)
_PROBE_INDEX = np.arange(32, dtype=np.int32)


def _probe_kernel() -> None:
    seen: dict = {}
    for i in range(1500):
        key = (i & 127, i >> 7)
        seen[key] = seen.get(key, 0) + 1
    x = _PROBE_INDEX
    for _ in range(40):
        x = _PROBE_TABLE[x][:, _PROBE_INDEX].diagonal().copy()


def probe() -> float:
    """Current host speed: the fastest of three probe-kernel runs, seconds.

    The host is shared: its speed drifts by up to 2x over minutes and by
    +-25% from one second to the next, for all code alike. Each case run
    is rescaled by the probes taken just before and after it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class CaseTimeout(BaseException):
    """Raised by SIGALRM when a case passes CASE_LIMIT_S; a BaseException so
    that no `except Exception` in the code under test swallows it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def run_case(case: workloads.Case, scratch: Path, tracer) -> dict:
    """Run, time and check one case. `seconds` is the run time (the median
    of the repeats when repeated), `elapsed` adds the check."""
    problem = seconds = None
    certified = False
    check_s = 0.0
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        try:
            with tracer.case(case.id) if tracer else nullcontext():
                runs = []
                while True:
                    start = time.perf_counter()
                    payload = workloads.RUNNERS[case.kind](case)
                    runs.append(time.perf_counter() - start)
                    if (tracer or runs[0] >= REPEAT_UNDER_S or len(runs) >= MAX_RUNS
                            or (len(runs) >= REPEAT_MIN_RUNS and sum(runs) >= REPEAT_MIN_S)):
                        break
                seconds = median(runs)
                start = time.perf_counter()
                problem, certified = workloads.check(case, payload, scratch)
                check_s = time.perf_counter() - start
            status = "wrong" if problem else "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        status, problem, seconds = "timeout", f"over the {CASE_LIMIT_S:.0f} s case limit", CASE_LIMIT_S
    except Exception as exc:  # noqa: BLE001 - a failing case is recorded, the pass goes on
        status, problem = f"error:{type(exc).__name__}", str(exc)[:500]
        if seconds is None:
            seconds = time.perf_counter() - start
    return {"status": status, "seconds": seconds, "elapsed": seconds + check_s,
            "certified": certified, "problem": problem}


def run_pass(cases, scratch: Path, tracer=None) -> dict:
    """One pass over the cases with a speed probe before, between and after
    them; each case run is rescaled by the two probes around it. The pass
    wall is the sum of the cases' elapsed times: one run each plus the
    checks, without probes and repeats."""
    if tracer:
        tracer.install()
    try:
        probes = [probe()]
        records = []
        for case in cases:
            records.append(run_case(case, scratch, tracer))
            probes.append(probe())
    finally:
        if tracer:
            tracer.uninstall()
    for i, record in enumerate(records):
        record["probe_s"] = (probes[i] + probes[i + 1]) / 2
        record["scaled_s"] = record["seconds"] * REF_PROBE_S / record["probe_s"]
    return {"wall_s": sum(r["elapsed"] for r in records), "traced": tracer is not None,
            "probe_s": median(probes), "records": records}


def run_passes(cases, scratch: Path, seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced passes, or alternating untraced and traced ones when tracing,
    until `seconds` have gone and enough passes are done."""
    passes, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(cases, scratch, tracer))
        if tracer:
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        enough = 2 if trace else MIN_PASSES
        floor = 2 if trace else 1       # a traced run needs an untraced and a traced pass
        late = elapsed + passes[-1]["wall_s"] > PASS_DEADLINE_S
        if (len(passes) >= enough and elapsed >= seconds) or (late and len(passes) >= floor):
            return passes, tracers


def tail(values: list[float]) -> tuple[float, str]:
    """The value at the highest percentile with at least 10 samples beyond
    it, and that percentile; the maximum when there are 10 or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def end_to_end(cases, passes) -> tuple[dict, dict]:
    """Each case's time is the median over the untraced passes of its
    probe-rescaled run time; wall_s is one pass at those times."""
    untraced = [p for p in passes if not p["traced"]]
    records = [r for p in untraced for r in p["records"]]
    decided = [r for r in records if r["status"] == "ok"]
    per_case = [median(p["records"][i]["scaled_s"] for p in untraced) for i in range(len(cases))]
    tail_value, tail_label = tail(per_case)
    metrics = {
        "wall_s": sum(per_case),
        "case_p50_s": median(per_case),
        "case_tail_s": tail_value,
        "decided_share": len(decided) / len(records),
        "certified_share": (sum(r["certified"] for r in decided) / len(decided)) if decided else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_wall = median(p["wall_s"] for p in untraced)
    notes = {
        "wall_s": f"{len(cases)} cases x median of {len(untraced)} passes; raw median pass "
                  f"{raw_wall:.3f} s with checks, probe {1e3 * median(p['probe_s'] for p in untraced):.3f} ms",
        "case_p50_s": f"median of {len(per_case)} cases",
        "case_tail_s": tail_label,
        "decided_share": f"{len(decided)}/{len(records)} case runs",
        "certified_share": f"of {len(decided)} decided case runs",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def per_layer(passes, tracers) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [spans.layer_metrics(t, p["wall_s"]) for t, p in zip(tracers, traced)]
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                   - median(p["wall_s"] for p in untraced))
    last, wall = tracers[-1], traced[-1]["wall_s"]
    detail = {
        "traced_passes": len(traced),
        "leaders": [[name, round(t, 6), round(share, 4)]
                    for name, t, share in spans.leaders(last, wall)],
    }
    return metrics, detail


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hierarchy_one": hierarchy_one.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "numpy_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "budget_env_cleared": BUDGET_VAR not in os.environ,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    expected = workloads.load_expected()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="scratch-") as tmp:
        scratch = Path(tmp)
        cases = workloads.build_cases(args.workload, args.seed, expected, scratch)
        ready = time.monotonic()
        ready_probe = probe()
        if args.setup_only:
            print(json.dumps({"ready": ready, "ready_probe_s": ready_probe}))
            return 0
        signal.signal(signal.SIGALRM, _alarm)
        passes, tracers = run_passes(cases, scratch, args.seconds, bool(args.trace))

    records = [r for p in passes for r in p["records"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready": ready,
        "ready_probe_s": ready_probe,
        "ref_probe_s": REF_PROBE_S,
        "correct": not any(r["status"] == "wrong" or r["status"].startswith("error") for r in records),
        "attempted": len(records),
        "failed": sum(r["status"] != "ok" for r in records),
        "pass_walls": [[p["wall_s"], p["traced"], p["probe_s"]] for p in passes],
        "environment": environment(),
        "cases": [
            {"id": c.id, "kind": c.kind, "why": c.why, "stats": c.data.get("stats", {}),
             "word_length": len(c.word) or None,
             "runs": [[p["records"][i][k] for k in ("status", "seconds", "scaled_s")] for p in passes],
             "problems": sorted({p["records"][i]["problem"] for p in passes} - {None})}
            for i, c in enumerate(cases)
        ],
    }
    if args.trace:
        result["metrics"], result["trace_detail"] = per_layer(passes, tracers)
        result["units"] = spans.LAYER_METRICS
        spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "passes": [t.spans for t in tracers]}, fh)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        result["metrics"], result["notes"] = end_to_end(cases, passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
