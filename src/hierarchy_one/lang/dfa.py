"""Complete DFAs and the constructions on them.

Every automaton here is deterministic and complete over an explicit, sorted
alphabet. Canonical state numbering (after `minimize`) is breadth-first from
the initial state, taking letters in alphabet order, so two automata accept
the same language iff their minimized forms are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union as TyUnion

from ..errors import (AlphabetError, BudgetError, DEFAULT_STATE_BUDGET, UsageError, budget_from_env,
                      positive_budget)
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


def _is_int(value) -> bool:
    """Whether `value` is an int and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton.

    `delta[q][i]` is the successor of state `q` on `alphabet[i]`. The table
    must be total; the alphabet must be sorted (use `normalize_alphabet`).

    Automata are checked where they enter: this constructor checks every
    field, `states`, `initial`, each final and each transition target being
    an int and not a bool, and `dfa_from_dict` also checks that each JSON
    value is an integer, naming it by its place in the document. The
    automata that `determinize`, `minimize` and `combine` build are made by
    `_built` and not checked again: `explore` numbers their rows, so they
    are valid by construction.
    `tests/test_explore.py::test_built_automata_pass_the_constructor_checks`
    holds that invariant.
    """

    alphabet: tuple[str, ...]
    states: int
    initial: int
    finals: frozenset[int] = field(default_factory=frozenset)
    delta: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", tuple(map(tuple, self.delta)))
        if tuple(sorted(self.alphabet)) != self.alphabet:
            raise AlphabetError(f"alphabet must be sorted, got {self.alphabet!r}")
        for name, value in (("states", self.states), ("initial state", self.initial),
                            *(("final state", q) for q in self.finals)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
            if not all(_is_int(t) and 0 <= t < self.states for t in row):
                raise ValueError(f"state {q}: transition target out of range")

    @classmethod
    def _built(cls, alphabet: tuple[str, ...], initial: int, finals: Iterable[int],
               rows: Sequence[Sequence[int]]) -> Dfa:
        """The automaton of `rows` as `explore` numbers them, one row per
        state, over an alphabet already checked: normalised as the
        constructor does, but not checked again."""
        d = object.__new__(cls)
        object.__setattr__(d, "alphabet", tuple(alphabet))
        object.__setattr__(d, "states", len(rows))
        object.__setattr__(d, "initial", initial)
        object.__setattr__(d, "finals", frozenset(finals))
        object.__setattr__(d, "delta", tuple(map(tuple, rows)))
        return d

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise AlphabetError(f"symbol {symbol!r} not in alphabet {self.alphabet!r}")

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


def _json_int(value, name: str) -> int:
    """`value` when it is a JSON integer (an int, not a bool); ValueError
    naming the field `name` otherwise."""
    if not _is_int(value):
        raise ValueError(f"malformed DFA document: {name} must be an integer, got {value!r}")
    return value


def dfa_from_dict(data: Mapping) -> Dfa:
    """Build a Dfa from the JSON shape; rejects partial transition tables
    and values that are not JSON integers where integers belong."""
    try:
        alphabet = normalize_alphabet(data["alphabet"])
        states = _json_int(data["states"], "states")
        initial = _json_int(data["initial"], "initial")
        finals = frozenset(_json_int(q, f"finals[{i}]") for i, q in enumerate(data["finals"]))
        raw_delta = data["delta"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed DFA document: {exc}") from exc
    if not isinstance(raw_delta, Mapping):
        raise ValueError("malformed DFA document: delta must map each letter to a column")
    if set(raw_delta) != set(alphabet):
        missing = set(alphabet) - set(raw_delta)
        extra = set(raw_delta) - set(alphabet)
        raise ValueError(
            f"delta keys must match the alphabet exactly "
            f"(missing {sorted(missing)}, extra {sorted(extra)})"
        )
    columns = {}
    for sym in alphabet:
        try:
            column = list(raw_delta[sym])
        except TypeError as exc:
            raise ValueError(f"malformed DFA document: delta[{sym!r}]: {exc}") from exc
        columns[sym] = [_json_int(t, f"delta[{sym!r}][{q}]") for q, t in enumerate(column)]
        if len(columns[sym]) != states:
            raise ValueError(f"delta[{sym!r}] must list all {states} states")
    delta = tuple(
        tuple(columns[sym][q] for sym in alphabet) for q in range(states)
    )
    return Dfa(alphabet=alphabet, states=states, initial=initial, finals=finals, delta=delta)


# --- breadth-first construction --------------------------------------------

def explore(
    initial: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    budget: Optional[int] = None,
    stage: str = "",
    unit: str = "state",
) -> tuple[list, list[list[int]]]:
    """Number the nodes reachable from `initial` breadth-first.

    `successors(node)` lists one successor per letter, in alphabet order.
    Returns `(order, rows)`: `order[i]` is the node numbered i (discovery
    order, so `initial` is 0) and `rows[i][a]` the number of its successor
    on letter a, so `rows` is the transition table of the numbered nodes.
    Numbering a node past `budget` raises BudgetError naming `stage` and
    the sizes reached."""
    index = {initial: 0}
    order = [initial]
    rows: list[list[int]] = []
    for node in order:  # the queue is `order` itself, read as it grows
        row = []
        for nxt in successors(node):
            got = index.get(nxt)
            if got is None:
                if budget is not None and len(order) >= budget:
                    raise BudgetError(
                        f"construction exceeded the {unit} budget ({budget}) at stage {stage}, "
                        f"{len(order)} {unit}s found, {len(rows)} expanded")
                got = index[nxt] = len(order)
                order.append(nxt)
            row.append(got)
        rows.append(row)
    return order, rows


# --- compilation -----------------------------------------------------------

def _position_automaton(
    pattern: Pattern, alphabet: tuple[str, ...]
) -> tuple[list[int], list[int], int]:
    """The position automaton (Glushkov 1961) of `pattern`, as node masks.

    Node 0 is the start and node i ≥ 1 the i-th letter of the pattern, left
    to right. Returns `(follow, of_letter, accepting)`: `follow[i]` is the
    set of positions that may come right after node i (for the start, those
    a word may begin with), `of_letter[a]` the positions labelled
    `alphabet[a]`, and `accepting` the nodes a word may end at. There are no
    ε-moves: node i steps on letter a to `follow[i] & of_letter[a]`."""
    letter_index = {sym: a for a, sym in enumerate(alphabet)}
    of_letter = [0] * len(alphabet)
    follow = [0]

    def link(last: int, first: int) -> None:
        while first and last:
            low = last & -last
            last ^= low
            follow[low.bit_length() - 1] |= first

    def walk(p: Pattern) -> tuple[bool, int, int]:
        """(nullable, first, last) of `p`: whether it matches the empty word,
        and the positions its words may begin and end with."""
        if isinstance(p, Empty):
            return False, 0, 0
        if isinstance(p, Epsilon):
            return True, 0, 0
        if isinstance(p, Letter):
            if p.symbol not in letter_index:
                raise AlphabetError(f"symbol {p.symbol!r} not in alphabet {alphabet!r}")
            bit = 1 << len(follow)
            follow.append(0)
            of_letter[letter_index[p.symbol]] |= bit
            return False, bit, bit
        if isinstance(p, Concat):
            nullable, first, last = True, 0, 0
            for part in p.parts:
                n, f, l = walk(part)
                link(last, f)
                first |= f if nullable else 0
                last = last | l if n else l
                nullable = nullable and n
            return nullable, first, last
        if isinstance(p, Union):
            nullable, first, last = False, 0, 0
            for part in p.parts:
                n, f, l = walk(part)
                nullable, first, last = nullable or n, first | f, last | l
            return nullable, first, last
        if isinstance(p, (Star, Plus)):
            nullable, first, last = walk(p.child)
            link(last, first)
            return nullable or isinstance(p, Star), first, last
        raise TypeError(f"not a pattern node: {p!r}")

    nullable, follow[0], last = walk(pattern)
    return follow, of_letter, last | nullable


def node_mask(nodes: Iterable[int]) -> int:
    """The set of `nodes` as an integer with bit q set for each node q."""
    mask = 0
    for q in nodes:
        mask |= 1 << q
    return mask


def determinize(
    alphabet: tuple[str, ...],
    steps: Sequence[Sequence[int]],
    initial: int,
    accepting: int,
    budget: Optional[int],
    stage: str,
) -> Dfa:
    """The subset construction (Rabin & Scott 1959) over per-letter node
    steps. Node sets are masks (`node_mask`): `steps[a][q]` is the set of
    nodes q steps to on letter a, and the successor of a subset on a is the
    union of its nodes' steps. Subsets are numbered by `explore` from
    `initial`; a subset is final when it meets `accepting`."""
    # moves[q]: q's nonempty steps as (letter, targets). `compress` skips
    # the empty ones in C, so a sparse automaton costs one Python step per
    # nonempty step here, not one per node and letter.
    moves: list[list[tuple[int, int]]] = [[] for _ in steps[0]] if steps else []
    for a, step in enumerate(steps):
        for q in compress(range(len(step)), step):
            moves[q].append((a, step[q]))
    movers = node_mask(compress(range(len(moves)), moves))

    def successors(subset: int) -> list[int]:
        row = [0] * len(steps)
        rest = subset & movers
        while rest:
            low = rest & -rest
            rest ^= low
            for a, targets in moves[low.bit_length() - 1]:
                row[a] |= targets
        return row

    order, rows = explore(initial, successors, budget, stage=stage)
    return Dfa._built(alphabet, 0, (i for i, subset in enumerate(order) if subset & accepting),
                      rows)


def compile_dfa(
    pattern: TyUnion[Pattern, str],
    alphabet: TyUnion[str, Iterable[str]],
    state_budget: Optional[int] = None,
) -> Dfa:
    """Compile a pattern to a complete DFA: the subset construction over
    its position automaton.

    Raises AlphabetError if an AST letter is not in the alphabet, and
    BudgetError if the subset construction would exceed the state
    budget (default 2**16, overridable via HIERARCHY_ONE_BUDGET).
    """
    alpha = normalize_alphabet(alphabet)
    if isinstance(pattern, str):
        pattern = parse_pattern(pattern, alpha)
    budget = positive_budget(state_budget, "state_budget") or budget_from_env(DEFAULT_STATE_BUDGET)
    follow, of_letter, accepting = _position_automaton(pattern, alpha)
    return determinize(alpha, [[f & mask for f in follow] for mask in of_letter], 1, accepting,
                       budget, stage=f"subset construction: NFA with {len(follow)} nodes")


# --- minimization ----------------------------------------------------------

def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA with canonical BFS state numbering. Idempotent."""
    n = d.states
    finals = d.finals

    # Hopcroft partition refinement over all states: equivalence does not
    # depend on reachability, and the numbering below keeps only the blocks
    # reachable from the initial one. Blocks are sets indexed by number; a
    # splitter's preimage is grouped by block, and only the blocks it
    # touches without covering are split. The new half of a split block
    # waits if the old one does, else the smaller half waits: O(k·n log n).
    preimage = []
    for column in zip(*d.delta):
        pre: list[list[int]] = [[] for _ in range(n)]
        for q, t in enumerate(column):
            pre[t].append(q)
        preimage.append(pre)

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

    # Canonical numbering: BFS over blocks from the initial state's block.
    rep = [min(block) for block in blocks]
    order, out_delta = explore(
        block_of[d.initial], lambda b: [block_of[t] for t in d.delta[rep[b]]])
    return Dfa._built(d.alphabet, 0, (i for i, b in enumerate(order) if rep[b] in finals),
                      out_delta)


def input_alphabet(
    source: TyUnion[Pattern, str, Dfa],
    alphabet: Optional[TyUnion[str, Iterable[str]]] = None,
) -> tuple[str, ...]:
    """The alphabet `minimal_dfa(source, alphabet)` reads its language over.
    A pattern (text or AST) needs `alphabet`: UsageError without one. A DFA
    is over its own alphabet, which `alphabet` must be when given, in any
    order: AlphabetError otherwise."""
    if isinstance(source, Dfa):
        if alphabet is not None and (given := normalize_alphabet(alphabet)) != source.alphabet:
            raise AlphabetError(f"alphabet mismatch: {''.join(given)!r} does not match the "
                                f"DFA's alphabet {''.join(source.alphabet)!r}")
        return source.alphabet
    if alphabet is None:
        raise UsageError("a pattern needs an explicit alphabet")
    return normalize_alphabet(alphabet)


def minimal_dfa(
    source: TyUnion[Pattern, str, Dfa],
    alphabet: Optional[TyUnion[str, Iterable[str]]] = None,
    state_budget: Optional[int] = None,
) -> Dfa:
    """The minimal DFA of a pattern (text or AST) or of a complete DFA, over
    `input_alphabet(source, alphabet)`, which raises the two input errors:
    its transition monoid is the syntactic monoid. `state_budget` caps the
    pattern's subset construction, as in `compile_dfa`."""
    positive_budget(state_budget, "state_budget")
    over = input_alphabet(source, alphabet)
    if not isinstance(source, Dfa):
        source = compile_dfa(source, over, state_budget=state_budget)
    return minimize(source)


# --- boolean combinations --------------------------------------------------

_OPS = {
    "union": lambda fx, fy: fx or fy,
    "intersection": lambda fx, fy: fx and fy,
    "difference": lambda fx, fy: fx and not fy,
}

def combine(x: Dfa, y: Dfa, op: str) -> Dfa:
    """Product automaton for union / intersection / difference.

    Raises BudgetError past the state budget (default 2**16, overridable
    via HIERARCHY_ONE_BUDGET), naming the operation and both operand
    sizes."""
    if op not in _OPS:
        raise ValueError(f"op must be one of {sorted(_OPS)}, got {op!r}")
    if x.alphabet != y.alphabet:
        raise AlphabetError(
            f"alphabet mismatch: {x.alphabet!r} vs {y.alphabet!r}"
        )
    keep = _OPS[op]
    order, rows = explore(
        (x.initial, y.initial),
        lambda pair: zip(x.delta[pair[0]], y.delta[pair[1]]),
        budget_from_env(DEFAULT_STATE_BUDGET),
        stage=f"{op} product: DFAs with {x.states} and {y.states} states")
    return Dfa._built(
        x.alphabet, 0,
        (i for i, (qx, qy) in enumerate(order) if keep(qx in x.finals, qy in y.finals)),
        rows)


# --- decision helpers ------------------------------------------------------

def empty_dfa(alphabet: tuple[str, ...]) -> Dfa:
    """The one-state automaton of the empty language over `alphabet`."""
    return Dfa(alphabet=alphabet, states=1, initial=0, delta=((0,) * len(alphabet),))


def is_empty(d: Dfa) -> Optional[str]:
    """Shortest accepted word (alphabet-order tie-break), or None if L = ∅."""
    return includes(empty_dfa(d.alphabet), d)[1]

def includes(outer: Dfa, inner: Dfa) -> tuple[bool, Optional[str]]:
    """Does L(outer) ⊇ L(inner)? On failure, the shortest counterexample
    (alphabet-order tie-break).

    A breadth-first search over pairs (inner state, outer state), letters in
    alphabet order, that stops at the first pair final in inner only: the
    shortest word of the difference, without building the product."""
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

def words_of_length(d: Dfa, length: int, limit: int) -> list[str]:
    """The first `limit` accepted words of exactly `length` letters in
    alphabet order (all of them when there are fewer).

    A forward pass collects the states reachable in exactly r letters, a
    backward pass keeps those from which a final state lies exactly
    `length` − r letters ahead, and a depth-first walk through the kept
    states spells the words without dead ends."""
    ahead = [{d.initial}]
    for _ in range(length):
        ahead.append({t for q in ahead[-1] for t in d.delta[q]})
    ahead[length] &= d.finals
    for r in range(length - 1, -1, -1):
        live = ahead[r + 1]
        ahead[r] = {q for q in ahead[r] if any(t in live for t in d.delta[q])}
    words: list[str] = []
    stack = [(d.initial, "")] if d.initial in ahead[0] else []
    while stack and len(words) < limit:
        q, prefix = stack.pop()
        r = len(prefix)
        if r == length:
            words.append(prefix)
            continue
        live = ahead[r + 1]
        for a in range(len(d.alphabet) - 1, -1, -1):  # pushed last, popped first
            t = d.delta[q][a]
            if t in live:
                stack.append((t, prefix + d.alphabet[a]))
    return words

def equivalent(x: Dfa, y: Dfa) -> bool:
    """Language equality, via canonical minimization."""
    return minimize(x) == minimize(y)

def is_permutation_automaton(d: Dfa) -> bool:
    """True iff every letter acts as a bijection on the state set."""
    for a in range(len(d.alphabet)):
        if len({d.delta[q][a] for q in range(d.states)}) != d.states:
            return False
    return True
