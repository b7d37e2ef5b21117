"""Complete DFAs and the constructions on them.

Every automaton here is deterministic and complete over an explicit, sorted
alphabet. Canonical state numbering (after `minimize`) is breadth-first from
the initial state, taking letters in alphabet order, so two automata accept
the same language iff their minimized forms are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union as TyUnion

from ..errors import AlphabetError, BudgetError, DEFAULT_STATE_BUDGET, budget_from_env
from .patterns import (
    Concat,
    Empty,
    Epsilon,
    Letter,
    Pattern,
    Plus,
    Star,
    Union,
    normalize_alphabet,
    parse_pattern,
)


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton.

    `delta[q][i]` is the successor of state `q` on `alphabet[i]`. The table
    must be total; the alphabet must be sorted (use `normalize_alphabet`).
    """

    alphabet: tuple[str, ...]
    states: int
    initial: int
    finals: frozenset[int] = field(default_factory=frozenset)
    delta: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if tuple(sorted(self.alphabet)) != self.alphabet:
            raise AlphabetError(f"alphabet must be sorted, got {self.alphabet!r}")
        if self.states < 1:
            raise ValueError("a complete DFA needs at least one state")
        if not 0 <= self.initial < self.states:
            raise ValueError(f"initial state {self.initial} out of range")
        if not all(0 <= q < self.states for q in self.finals):
            raise ValueError("final state out of range")
        if len(self.delta) != self.states:
            raise ValueError("transition table must have one row per state")
        for q, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {q}: transition row is not total")
            if not all(isinstance(t, int) and 0 <= t < self.states for t in row):
                raise ValueError(f"state {q}: transition target out of range")

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.alphabet!r}")

    def step(self, state: int, symbol: str) -> int:
        return self.delta[state][self.symbol_index(symbol)]

    def accepts(self, word: str) -> bool:
        q = self.initial
        for ch in word:
            q = self.delta[q][self.symbol_index(ch)]
        return q in self.finals


def dfa_to_dict(d: Dfa) -> dict:
    return {
        "alphabet": list(d.alphabet),
        "states": d.states,
        "initial": d.initial,
        "finals": sorted(d.finals),
        "delta": {
            sym: [d.delta[q][i] for q in range(d.states)]
            for i, sym in enumerate(d.alphabet)
        },
    }


def dfa_from_dict(data: Mapping) -> Dfa:
    """Build a Dfa from the JSON shape; rejects partial transition tables."""
    try:
        alphabet = normalize_alphabet(data["alphabet"])
        states = int(data["states"])
        initial = int(data["initial"])
        finals = frozenset(int(q) for q in data["finals"])
        raw_delta = data["delta"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed DFA document: {exc}") from exc
    if set(raw_delta) != set(alphabet):
        missing = set(alphabet) - set(raw_delta)
        extra = set(raw_delta) - set(alphabet)
        raise ValueError(
            f"delta keys must match the alphabet exactly "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    columns = {}
    for sym in alphabet:
        col = raw_delta[sym]
        if len(col) != states:
            raise ValueError(f"delta[{sym!r}] must list all {states} states")
        columns[sym] = [int(t) for t in col]
    delta = tuple(
        tuple(columns[sym][q] for sym in alphabet) for q in range(states)
    )
    return Dfa(alphabet=alphabet, states=states, initial=initial, finals=finals, delta=delta)


# --- compilation -----------------------------------------------------------

class _Nfa:
    """Thompson-style NFA under construction: epsilon edges + letter edges."""

    def __init__(self, n_letters: int):
        self.n_letters = n_letters
        self.eps: list[list[int]] = []
        self.edges: list[list[tuple[int, int]]] = []  # (letter, target)

    def node(self) -> int:
        self.eps.append([])
        self.edges.append([])
        return len(self.eps) - 1

    def fragment(self, p: Pattern, letter_index: Mapping[str, int]) -> tuple[int, int]:
        start, out = self.node(), self.node()
        if isinstance(p, Empty):
            pass  # no path from start to out
        elif isinstance(p, Epsilon):
            self.eps[start].append(out)
        elif isinstance(p, Letter):
            self.edges[start].append((letter_index[p.symbol], out))
        elif isinstance(p, Concat):
            prev = start
            for part in p.parts:
                s, o = self.fragment(part, letter_index)
                self.eps[prev].append(s)
                prev = o
            self.eps[prev].append(out)
        elif isinstance(p, Union):
            for part in p.parts:
                s, o = self.fragment(part, letter_index)
                self.eps[start].append(s)
                self.eps[o].append(out)
        elif isinstance(p, Star):
            s, o = self.fragment(p.child, letter_index)
            self.eps[start].extend((s, out))
            self.eps[o].extend((s, out))
        elif isinstance(p, Plus):
            s, o = self.fragment(p.child, letter_index)
            self.eps[start].append(s)
            self.eps[o].extend((s, out))
        else:
            raise TypeError(f"not a pattern node: {p!r}")
        return start, out

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for t in self.eps[q]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


def compile_dfa(
    pattern: TyUnion[Pattern, str],
    alphabet: TyUnion[str, Iterable[str]],
    state_budget: Optional[int] = None,
) -> Dfa:
    """Compile a pattern to a complete DFA via subset construction.

    Raises BudgetError if the subset construction would exceed the state
    budget (default 2**16, overridable via HIERARCHY_ONE_BUDGET).
    """
    alpha = normalize_alphabet(alphabet)
    if isinstance(pattern, str):
        pattern = parse_pattern(pattern, alpha)
    budget = state_budget if state_budget is not None else budget_from_env(DEFAULT_STATE_BUDGET)
    letter_index = {sym: i for i, sym in enumerate(alpha)}

    nfa = _Nfa(len(alpha))
    start, out = nfa.fragment(pattern, letter_index)
    accept = {out}

    initial = nfa.closure([start])
    index: dict[frozenset[int], int] = {initial: 0}
    order = [initial]
    delta_rows: list[list[int]] = []
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        row = []
        for i in range(len(alpha)):
            move = {t for q in current for (a, t) in nfa.edges[q] if a == i}
            nxt = nfa.closure(move) if move else frozenset()
            if nxt not in index:
                if len(index) >= budget:
                    raise BudgetError(
                        f"subset construction exceeded the state budget ({budget}) at stage "
                        f"subset construction: NFA with {len(nfa.eps)} nodes, "
                        f"{len(order)} states found, {len(delta_rows)} expanded"
                    )
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        delta_rows.append(row)

    finals = frozenset(i for i, subset in enumerate(order) if subset & accept)
    return Dfa(
        alphabet=alpha,
        states=len(order),
        initial=0,
        finals=finals,
        delta=tuple(tuple(r) for r in delta_rows),
    )


# --- minimization ----------------------------------------------------------

def _reachable(d: Dfa) -> list[int]:
    seen = [False] * d.states
    seen[d.initial] = True
    order = [d.initial]
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for t in d.delta[q]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
                queue.append(t)
    return order

def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA with canonical BFS state numbering. Idempotent."""
    reach = _reachable(d)
    remap = [-1] * d.states
    for i, q in enumerate(reach):
        remap[q] = i
    n = len(reach)
    n_letters = len(d.alphabet)
    delta = [[remap[t] for t in d.delta[q]] for q in reach]
    finals = {remap[q] for q in d.finals if remap[q] >= 0}

    # Hopcroft partition refinement. Blocks are sets indexed by number; a
    # splitter's preimage is grouped by block, and only the blocks it
    # touches without covering are split. The new half of a split block
    # waits if the old one does, else the smaller half waits: O(k·n log n).
    preimage = [[[] for _ in range(n)] for _ in range(n_letters)]
    for q in range(n):
        for a, t in enumerate(delta[q]):
            preimage[a][t].append(q)

    blocks = [b for b in (set(finals), set(range(n)) - finals) if b]
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    waiting = {min(range(len(blocks)), key=lambda i: len(blocks[i]))}
    while waiting:
        s = waiting.pop()
        splitter = list(blocks[s])  # block s may split while it is used
        for pre in preimage:
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for q in pre[t]:
                    b = block_of[q]
                    if b in touched:
                        touched[b].append(q)
                    else:
                        touched[b] = [q]
            for b, inside in touched.items():
                block = blocks[b]
                if len(inside) == len(block):
                    continue
                new = len(blocks)
                block.difference_update(inside)
                blocks.append(set(inside))
                for q in inside:
                    block_of[q] = new
                waiting.add(new if b in waiting or len(inside) <= len(block) else b)

    # Canonical numbering: BFS over blocks from the initial block.
    rep = [min(block) for block in blocks]
    numbering = [-1] * len(blocks)
    start_block = block_of[remap[d.initial]]
    numbering[start_block] = 0
    order = [start_block]
    queue = deque([start_block])
    while queue:
        b = queue.popleft()
        for t in delta[rep[b]]:
            nxt = block_of[t]
            if numbering[nxt] < 0:
                numbering[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)

    out_delta = tuple(
        tuple(numbering[block_of[t]] for t in delta[rep[b]]) for b in order
    )
    out_finals = frozenset(numbering[b] for b in order if rep[b] in finals)
    return Dfa(
        alphabet=d.alphabet,
        states=len(order),
        initial=0,
        finals=out_finals,
        delta=out_delta,
    )


# --- boolean combinations --------------------------------------------------

_OPS = {
    "union": lambda fx, fy: fx or fy,
    "intersection": lambda fx, fy: fx and fy,
    "difference": lambda fx, fy: fx and not fy,
}

def combine(x: Dfa, y: Dfa, op: str) -> Dfa:
    """Product automaton for union / intersection / difference."""
    if op not in _OPS:
        raise ValueError(f"op must be one of {sorted(_OPS)}, got {op!r}")
    if x.alphabet != y.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {x.alphabet!r} vs {y.alphabet!r}"
        )
    keep = _OPS[op]
    n_letters = len(x.alphabet)
    start = (x.initial, y.initial)
    index = {start: 0}
    order = [start]
    rows = []
    queue = deque([start])
    while queue:
        qx, qy = queue.popleft()
        row = []
        for a in range(n_letters):
            nxt = (x.delta[qx][a], y.delta[qy][a])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    finals = frozenset(
        i for i, (qx, qy) in enumerate(order) if keep(qx in x.finals, qy in y.finals)
    )
    return Dfa(
        alphabet=x.alphabet,
        states=len(order),
        initial=0,
        finals=finals,
        delta=tuple(tuple(r) for r in rows),
    )


# --- decision helpers ------------------------------------------------------

def is_empty(d: Dfa) -> Optional[str]:
    """Shortest accepted word (alphabet-order tie-break), or None if L = ∅."""
    if d.initial in d.finals:
        return ""
    parent: dict[int, tuple[int, int]] = {}
    seen = {d.initial}
    queue = deque([d.initial])
    while queue:
        q = queue.popleft()
        for a in range(len(d.alphabet)):
            t = d.delta[q][a]
            if t in seen:
                continue
            seen.add(t)
            parent[t] = (q, a)
            if t in d.finals:
                letters = []
                cur = t
                while cur in parent:
                    prev, la = parent[cur]
                    letters.append(d.alphabet[la])
                    cur = prev
                return "".join(reversed(letters))
            queue.append(t)
    return None

def includes(outer: Dfa, inner: Dfa) -> tuple[bool, Optional[str]]:
    """Does L(outer) ⊇ L(inner)? On failure, the shortest counterexample
    (alphabet-order tie-break).

    A breadth-first search over pairs (inner state, outer state), letters in
    alphabet order, that stops at the first pair final in inner only: the
    same word `is_empty(combine(inner, outer, "difference"))` returns,
    without building the product."""
    if inner.alphabet != outer.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {inner.alphabet!r} vs {outer.alphabet!r}"
        )
    in_delta, out_delta = inner.delta, outer.delta
    in_finals, out_finals = inner.finals, outer.finals
    start = (inner.initial, outer.initial)
    if start[0] in in_finals and start[1] not in out_finals:
        return (False, "")
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {start: (start, -1)}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for a, (qi, qo) in enumerate(zip(in_delta[pair[0]], out_delta[pair[1]])):
            nxt = (qi, qo)
            if nxt in parent:
                continue
            parent[nxt] = (pair, a)
            if qi in in_finals and qo not in out_finals:
                letters = []
                while nxt != start:
                    nxt, la = parent[nxt]
                    letters.append(inner.alphabet[la])
                return (False, "".join(reversed(letters)))
            queue.append(nxt)
    return (True, None)

def equivalent(x: Dfa, y: Dfa) -> bool:
    """Language equality, via canonical minimization."""
    return minimize(x) == minimize(y)

def is_permutation_automaton(d: Dfa) -> bool:
    """True iff every letter acts as a bijection on the state set."""
    for a in range(len(d.alphabet)):
        if len({d.delta[q][a] for q in range(d.states)}) != d.states:
            return False
    return True
