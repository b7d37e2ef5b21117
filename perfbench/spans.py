"""Span tracing from outside the library.

Each traced public function is replaced, for the length of one traced pass,
by a wrapper in every module namespace its callers look it up from (for
example `membership.transition_monoid`, the name `decide` calls). A span
records name, start, end, parent span and case id; a layer's self time is
its spans' durations minus the part their child spans cover. Counters are
read off arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Callable, Optional

import numpy as np

from hierarchy_one import cli, covers, membership, monoid, pairs
from hierarchy_one.lang import dfa as lang_dfa

CASE_SPAN = "bench.case"

_MODULES = {
    "lang.dfa": lang_dfa,
    "monoid": monoid,
    "pairs": pairs,
    "membership": membership,
    "covers": covers,
    "cli": cli,
}

# span name -> (attribute, module namespaces that resolve the attribute)
TRACED = {
    "lang.compile_dfa": ("compile_dfa", ("lang.dfa", "membership", "cli")),
    "lang.minimize": ("minimize", ("lang.dfa", "membership", "covers", "cli")),
    "lang.combine": ("combine", ("lang.dfa", "covers")),
    "lang.includes": ("includes", ("lang.dfa", "covers")),
    "monoid.transition_monoid": ("transition_monoid", ("monoid", "membership", "covers", "cli")),
    "monoid.syntactic_preorder": ("syntactic_preorder", ("monoid", "membership", "cli")),
    "pairs.st_pairs": ("st_pairs", ("pairs", "membership", "cli")),
    "pairs.mod_pairs": ("mod_pairs", ("pairs", "membership", "cli")),
    "pairs.amt_pairs": ("amt_pairs", ("pairs", "membership", "cli")),
    "pairs.group_morphism_pairs": ("group_morphism_pairs", ("pairs", "membership", "cli")),
    "membership.decide": ("decide", ("membership", "cli")),
    "membership.check_pol_group": ("check_pol_group", ("membership",)),
    "membership.check_pol_group_plus": ("check_pol_group_plus", ("membership",)),
    "membership.check_bpol_group": ("check_bpol_group", ("membership",)),
    "membership.check_bpol_group_plus": ("check_bpol_group_plus", ("membership",)),
    "membership.verify_witness": ("verify_witness", ("membership",)),
    "covers.up_arrow": ("up_arrow", ("covers",)),
    "covers.pgcov_cover": ("pgcov_cover", ("covers", "cli")),
    "covers.guarded_decomposition": ("guarded_decomposition", ("covers", "cli")),
    "cli.main": ("main", ("cli",)),
}
# Methods are wrapped on their class, which every caller resolves them from.
TRACED_METHODS = {
    "covers.GuardedDecomposition.verify": (covers.GuardedDecomposition, "verify"),
}


def sweep_blocks(m, rel, verdict, guarded: bool) -> int:
    """Blocks the documented GONE/WGONE sweep visits up to its verdict.

    The sweep runs over pairs (q, s) in row-major order, skipping s = q,
    which cannot violate; WGONE nests idempotents (e, f) of E(S) inside
    each pair. A member visits every block, a non-member stops at the
    block holding its witness. This depends on the input only."""
    pairs_mat = np.array(rel.matrix, dtype=bool)
    np.fill_diagonal(pairs_mat, False)
    idem = list(m.idempotents_s)
    per_pair = len(idem) ** 2 if guarded else 1
    if verdict.member:
        return int(pairs_mat.sum()) * per_pair
    el = verdict.witness.elements
    q, s = el["q"], el["s"]
    before = int(pairs_mat[:q].sum()) + int(pairs_mat[q, :s].sum())
    inner = idem.index(el["e"]) * len(idem) + idem.index(el["f"]) if guarded else 0
    return before * per_pair + inner + 1


def _count_monoid(args, kwargs, result, parent):
    n = result.element_count
    return {"monoid.elements": n, "monoid.entries": n * n}


def _count_pairs(args, kwargs, result, parent):
    # amt_pairs calls group_morphism_pairs: count only the relation the
    # caller outside the pairs layer receives.
    if parent is not None and parent.startswith("pairs."):
        return {}
    return {"pairs.count": result.count, "pairs.certified": int(result.certified)}


def _count_gone(args, kwargs, result, parent):
    m, rel = args[0], args[1]
    return {"membership.sweep_blocks": sweep_blocks(m, rel, result, guarded=False)}


def _count_wgone(args, kwargs, result, parent):
    m, rel = args[0], args[1]
    return {"membership.sweep_blocks": sweep_blocks(m, rel, result, guarded=True)}


COUNTERS: dict[str, Callable] = {
    "monoid.transition_monoid": _count_monoid,
    "pairs.st_pairs": _count_pairs,
    "pairs.mod_pairs": _count_pairs,
    "pairs.amt_pairs": _count_pairs,
    "pairs.group_morphism_pairs": _count_pairs,
    "membership.check_bpol_group": _count_gone,
    "membership.check_bpol_group_plus": _count_wgone,
    "covers.up_arrow": lambda a, k, r, p: {"covers.up_arrow.states_out": r.states},
    "covers.pgcov_cover": lambda a, k, r, p: {"covers.pgcov_cover.bases": len(r.entries)},
    "covers.guarded_decomposition": lambda a, k, r, p: {"covers.blocks": len(r.blocks)},
}


class Tracer:
    """In-memory span store for one traced pass; spans are written out
    when the benchmark ends."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, case id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._case: Optional[str] = None
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._case])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            parent = tracer.spans[idx][3]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, time.perf_counter())
            if counter is not None:
                parent_name = tracer.spans[parent][0] if parent >= 0 else None
                for key, value in counter(args, kwargs, result, parent_name).items():
                    tracer.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        for name, (attr, namespaces) in TRACED.items():
            for key in namespaces:
                module = _MODULES[key]
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
        for name, (cls, attr) in TRACED_METHODS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def case(self, case_id: str):
        self._case = case_id
        idx = self._open(CASE_SPAN)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())
            self._case = None

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, call count)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += (end - start) - covered[i]
            totals[name][1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}


# Per-layer metrics: name -> unit. Self times are in seconds per traced pass.
LAYER_METRICS = {
    "lang.compile_dfa.self_s": "s",
    "lang.minimize.self_s": "s",
    "lang.minimize.calls": "count",
    "lang.combine.self_s": "s",
    "lang.includes.self_s": "s",
    "covers.up_arrow.self_s": "s",
    "covers.up_arrow.calls": "count",
    "covers.up_arrow.states_out": "count",
    "covers.pgcov_cover.bases": "count",
    "covers.guarded_decomposition.self_s": "s",
    "covers.blocks": "count",
    "monoid.transition_monoid.self_s": "s",
    "monoid.elements": "count",
    "monoid.s_per_entry": "s/entry",
    "monoid.syntactic_preorder.self_s": "s",
    "pairs.amt_pairs.self_s": "s",
    "pairs.group_morphism_pairs.self_s": "s",
    "pairs.mod_pairs.self_s": "s",
    "pairs.count": "count",
    "pairs.certified": "count",
    "membership.check_bpol_group.self_s": "s",
    "membership.check_bpol_group_plus.self_s": "s",
    "membership.check_pol_group.self_s": "s",
    "membership.check_pol_group_plus.self_s": "s",
    "membership.verify_witness.self_s": "s",
    "membership.sweep_blocks": "count",
    "membership.s_per_block": "s/block",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_share": "ratio",
}


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. trace.overhead_s needs the
    untraced passes too, so the caller fills it in."""
    selfs = tracer.self_times()
    counts = tracer.counts

    def self_s(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return selfs.get(name, (0.0, 0))[1]

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = self_s(metric[: -len(".self_s")])
        elif metric.endswith(".calls"):
            out[metric] = calls(metric[: -len(".calls")])
        else:
            out[metric] = counts.get(metric, 0)
    entries = counts.get("monoid.entries", 0)
    out["monoid.s_per_entry"] = self_s("monoid.transition_monoid") / entries if entries else 0.0
    blocks = counts.get("membership.sweep_blocks", 0)
    sweep = self_s("membership.check_bpol_group") + self_s("membership.check_bpol_group_plus")
    out["membership.s_per_block"] = sweep / blocks if blocks else 0.0
    library = sum(t for name, (t, _) in selfs.items() if name != CASE_SPAN)
    out["trace.unaccounted_share"] = (traced_wall - library) / traced_wall if traced_wall else 0.0
    return out


def leaders(tracer: Tracer, traced_wall: float, top: int = 6) -> list[tuple[str, float, float]]:
    """The spans with the largest self time: (name, self seconds, share of
    the traced pass). The case span's self time is the harness's own work."""
    ranked = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][0])
    return [(name, t, t / traced_wall if traced_wall else 0.0) for name, (t, _) in ranked[:top]]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
