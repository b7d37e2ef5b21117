"""Pair relations over a syntactic monoid.

A pair (s, t) belongs to the relation for a base class when no language of
that class separates the words mapping to s from the words mapping to t.
Bases: ST (trivial), MOD (word length modulo a period), AMT (per-letter
counts modulo a period), or any custom finite group acting through a
morphism. Each relation is reflexive and symmetric, never transitive in
general, and carries witness word pairs where the search found them.

The pair set is stored as a dense boolean matrix (desk-scale monoids reach a
few thousand elements, where tuple sets would thrash); witnesses are served
through a per-basis strategy rather than one dict per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import AlphabetError, DEFAULT_GROUP_NODE_BUDGET, budget_from_env
from .monoid import StableInfo, SyntacticMorphism, stable_sequence, words_by_length

BASIS_ST = "ST"
BASIS_MOD = "MOD"
BASIS_AMT = "AMT"
BASIS_EXPLICIT = "EXPLICIT"


@dataclass(frozen=True, eq=False)
class PairRelation:
    """Pairs as a boolean matrix plus a witness source.

    `witness_for(s, t)` returns a word pair (u, v) with u evaluating to s and
    v to t, or None when the pair is present but the search passed its depth
    cap before naming it.
    """

    basis: str
    matrix: np.ndarray
    certified: bool = True
    _sparse: dict = field(default_factory=dict, repr=False)
    _element_words: Optional[tuple[str, ...]] = field(default=None, repr=False)
    _length_pick: Optional[np.ndarray] = field(default=None, repr=False)
    _length_words: Optional[tuple[dict[int, str], ...]] = field(default=None, repr=False)

    @property
    def element_count(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def count(self) -> int:
        return int(self.matrix.sum())

    def contains(self, s: int, t: int) -> bool:
        return bool(self.matrix[s, t])

    def pairs_iter(self) -> Iterator[tuple[int, int]]:
        """All pairs in row-major (sorted) order."""
        for s in range(self.element_count):
            for t in np.nonzero(self.matrix[s])[0]:
                yield (s, int(t))

    def pairs_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pairs_iter())

    def witness_for(self, s: int, t: int) -> Optional[tuple[str, str]]:
        if not self.matrix[s, t]:
            raise KeyError(f"({s}, {t}) is not in the relation")
        if (s, t) in self._sparse:
            return self._sparse[(s, t)]
        if self._length_pick is not None:
            i = int(self._length_pick[s, t, 0])
            j = int(self._length_pick[s, t, 1])
            return (self._length_words[i][s], self._length_words[j][t])
        if self._element_words is not None:
            return (self._element_words[s], self._element_words[t])
        return None


def pairs_to_dict(rel: PairRelation) -> dict:
    rows = []
    for s, t in rel.pairs_iter():
        wit = rel.witness_for(s, t)
        u, v = wit if wit is not None else (None, None)
        rows.append([s, t, u, v])
    return {"basis": rel.basis, "certified": rel.certified, "pairs": rows}


def st_pairs(m: SyntacticMorphism) -> PairRelation:
    """Every pair: the trivial base separates nothing."""
    n = m.element_count
    return PairRelation(
        basis=BASIS_ST,
        matrix=np.ones((n, n), dtype=bool),
        _element_words=m.witness,
    )


def explicit_pairs(
    m: SyntacticMorphism,
    pairs: Iterable[tuple[int, int]],
    witnesses: Optional[Mapping[tuple[int, int], tuple[str, str]]] = None,
) -> PairRelation:
    """Wrap an explicitly given pair set (falls back to element witnesses)."""
    n = m.element_count
    matrix = np.zeros((n, n), dtype=bool)
    for s, t in pairs:
        matrix[s, t] = True
    return PairRelation(
        basis=BASIS_EXPLICIT,
        matrix=matrix,
        _sparse=dict(witnesses) if witnesses else {},
        _element_words=m.witness,
    )


# --- finite groups ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GroupPresentation:
    """A finite group acting on words: each letter multiplies by a fixed
    element. `letter_action[a][g]` is g·(image of alphabet[a])."""

    name: str
    alphabet: tuple[str, ...]
    element_count: int
    identity: int
    letter_action: np.ndarray
    table: Optional[np.ndarray] = None


def _validate_group_table(table: np.ndarray) -> int:
    """Check a finite multiplication table is a group; return the identity."""
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValueError("group table must be square")
    if table.min() < 0 or table.max() >= n:
        raise ValueError("group table entries out of range")
    identity = None
    for e in range(n):
        if all(table[e, x] == x == table[x, e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("group table has no identity element")
    # associativity: (x·y)·z == x·(y·z); full check is n³, fine at file scale
    if n <= 256:
        left = table[table, :]   # left[x,y,z] = (x·y)·z
        right = table[:, table]  # right[x,y,z] = x·(y·z)
        if not np.array_equal(left, right):
            raise ValueError("group table is not associative")
    else:
        rng = np.random.default_rng(0)
        xs, ys, zs = rng.integers(0, n, size=(3, 20000))
        if not np.array_equal(table[table[xs, ys], zs], table[xs, table[ys, zs]]):
            raise ValueError("group table is not associative")
    for x in range(n):
        inverses = np.nonzero(table[x, :] == identity)[0]
        if len(inverses) == 0 or table[int(inverses[0]), x] != identity:
            raise ValueError(f"group table element {x} has no two-sided inverse")
    return identity


def group_from_dict(data: Mapping, name: str = "custom") -> GroupPresentation:
    """Load {"elements": n, "table": [[...]], "letter_image": {...}} and
    validate that it really is a group."""
    try:
        n = int(data["elements"])
        table = np.array(data["table"], dtype=np.int32)
        raw_image = dict(data["letter_image"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed group document: {exc}") from exc
    if table.shape != (n, n):
        raise ValueError(f"group table must be {n}x{n}")
    identity = _validate_group_table(table)
    alphabet = tuple(sorted(raw_image))
    image = {}
    for sym in alphabet:
        g = int(raw_image[sym])
        if not 0 <= g < n:
            raise ValueError(f"letter_image[{sym!r}] out of range")
        image[sym] = g
    action = np.stack([table[:, image[sym]] for sym in alphabet]) if alphabet else np.zeros((0, n), np.int32)
    return GroupPresentation(
        name=str(data.get("name", name)),
        alphabet=alphabet,
        element_count=n,
        identity=identity,
        letter_action=action,
        table=table,
    )


def trivial_group(alphabet: Iterable[str]) -> GroupPresentation:
    alpha = tuple(sorted(alphabet))
    return GroupPresentation(
        name="trivial",
        alphabet=alpha,
        element_count=1,
        identity=0,
        letter_action=np.zeros((len(alpha), 1), dtype=np.int32),
        table=np.zeros((1, 1), dtype=np.int32),
    )


def cyclic_length_group(modulus: int, alphabet: Iterable[str]) -> GroupPresentation:
    """Z/modulus counting word length: every letter advances the counter."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    alpha = tuple(sorted(alphabet))
    step = (np.arange(modulus, dtype=np.int32) + 1) % modulus
    action = np.stack([step] * len(alpha)) if alpha else np.zeros((0, modulus), np.int32)
    return GroupPresentation(
        name=f"length-mod-{modulus}",
        alphabet=alpha,
        element_count=modulus,
        identity=0,
        letter_action=action,
    )


def parikh_group(modulus: int, alphabet: Iterable[str]) -> GroupPresentation:
    """(Z/modulus)^alphabet counting each letter separately, indexed in mixed
    radix (letter k is digit k). No table is materialized."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    alpha = tuple(sorted(alphabet))
    size = modulus ** len(alpha)
    idx = np.arange(size, dtype=np.int64)
    actions = []
    for k in range(len(alpha)):
        base = modulus**k
        digit = (idx // base) % modulus
        actions.append((idx + np.where(digit < modulus - 1, base, base - base * modulus)).astype(np.int64))
    action = np.stack(actions) if alpha else np.zeros((0, size), np.int64)
    return GroupPresentation(
        name=f"parikh-mod-{modulus}",
        alphabet=alpha,
        element_count=size,
        identity=0,
        letter_action=action,
    )


# --- pair computations ------------------------------------------------------

def _group_reach(
    m: SyntacticMorphism,
    g: GroupPresentation,
    witness_cap: int,
) -> tuple[np.ndarray, dict[int, str]]:
    """BFS over (group, monoid) pairs from (1, 1) extending by letters.

    Returns the visited mask over nodes γ·|M|+s and shortest witness words
    for nodes first reached at depth ≤ witness_cap (lexicographic order
    within a layer, since letters are scanned in alphabet order)."""
    if g.alphabet != m.alphabet:
        raise AlphabetError(
            f"group alphabet {g.alphabet!r} does not match monoid alphabet {m.alphabet!r}"
        )
    n_m = m.element_count
    total = g.element_count * n_m
    m_cols = [np.asarray(m.table[:, m.letter_image[sym]]) for sym in m.alphabet]
    g_rows = [np.asarray(g.letter_action[a]) for a in range(len(m.alphabet))]

    root = g.identity * n_m + m.identity
    visited = np.zeros(total, dtype=bool)
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    words: dict[int, str] = {root: ""}
    frontier_words: Optional[list[str]] = [""]
    depth = 0
    n_letters = len(m.alphabet)
    while len(frontier):
        if n_letters == 0:
            break
        gamma, s = frontier // n_m, frontier % n_m
        moves = np.empty((len(frontier), n_letters), dtype=np.int64)
        for a in range(n_letters):
            moves[:, a] = g_rows[a][gamma] * n_m + m_cols[a][s]
        flat = moves.reshape(-1)
        uniq, first = np.unique(flat, return_index=True)
        fresh = ~visited[uniq]
        new_nodes = uniq[fresh]
        order = np.argsort(first[fresh], kind="stable")
        new_nodes = new_nodes[order]
        first_pos = first[fresh][order]
        visited[new_nodes] = True
        depth += 1
        if frontier_words is not None and depth <= witness_cap:
            new_words = [
                frontier_words[pos // n_letters] + m.alphabet[pos % n_letters]
                for pos in first_pos
            ]
            for node, word in zip(new_nodes.tolist(), new_words):
                words[node] = word
            frontier_words = new_words
        else:
            frontier_words = None
        frontier = new_nodes
    return visited, words


def _buckets(visited: np.ndarray, n_m: int) -> Iterator[np.ndarray]:
    """The visited nodes γ·|M|+s, one array per group value γ."""
    nodes = np.nonzero(visited)[0]
    if len(nodes) == 0:
        return
    cuts = np.nonzero(np.diff(nodes // n_m))[0] + 1
    yield from np.split(nodes, cuts)


def _group_pair_matrix(m: SyntacticMorphism, g: GroupPresentation) -> np.ndarray:
    """Pair matrix only (no witnesses); used for certification sweeps."""
    visited, _ = _group_reach(m, g, witness_cap=0)
    n = m.element_count
    matrix = np.zeros((n, n), dtype=bool)
    for chunk in _buckets(visited, n):
        bucket = chunk % n
        matrix[np.ix_(bucket, bucket)] = True
    return matrix


def group_morphism_pairs(
    m: SyntacticMorphism,
    g: GroupPresentation,
    basis: Optional[str] = None,
) -> PairRelation:
    """Pairs (s, t) reachable with a common group value: saturate (γ, s)
    states from the identities, then join buckets sharing γ.

    Witness recording is capped at depth n0 + 2p + |M| (stability threshold
    plus period data); deeper pairs stay in the relation without words."""
    info = stable_sequence(m)
    cap = info.threshold + 2 * info.period + m.element_count
    visited, words = _group_reach(m, g, witness_cap=cap)
    n = m.element_count
    matrix = np.zeros((n, n), dtype=bool)
    sparse: dict[tuple[int, int], Optional[tuple[str, str]]] = {}
    for chunk in _buckets(visited, n):
        bucket = chunk % n
        matrix[np.ix_(bucket, bucket)] = True
        chunk_list = chunk.tolist()
        bucket_list = bucket.tolist()
        for i, s in enumerate(bucket_list):
            for j, t in enumerate(bucket_list):
                key = (s, t)
                if key not in sparse:
                    u = words.get(chunk_list[i])
                    v = words.get(chunk_list[j])
                    sparse[key] = (u, v) if u is not None and v is not None else None
    sparse = {k: v for k, v in sparse.items() if v is not None}
    return PairRelation(
        basis=basis if basis is not None else f"CUSTOM:{g.name}",
        matrix=matrix,
        _sparse=sparse,
    )


def mod_pairs(m: SyntacticMorphism) -> PairRelation:
    """Pairs not separable by word length modulo any fixed number.

    (s, t) qualifies iff s ∈ T_i and t ∈ T_j for lengths i, j below
    n0 + 2p with i ≡ j (mod p) and (i = j or max(i, j) ≥ n0), where T is the
    stable sequence with threshold n0 and period p."""
    info = stable_sequence(m)
    n0, p = info.threshold, info.period
    window = n0 + 2 * p
    n = m.element_count
    matrix = np.zeros((n, n), dtype=bool)
    pick = np.full((n, n, 2), -1, dtype=np.int32)
    sets = [sorted(info.at_length(i)) for i in range(window)]
    for i in range(window):
        for j in range(window):
            if (i - j) % p != 0:
                continue
            if i != j and max(i, j) < n0:
                continue
            block = np.ix_(sets[i], sets[j])
            matrix[block] = True
            sub = pick[block]
            unset = sub[:, :, 0] < 0
            sub[unset] = (i, j)
            pick[block] = sub
    layers = words_by_length(m, window - 1)
    return PairRelation(
        basis=BASIS_MOD,
        matrix=matrix,
        _length_pick=pick,
        _length_words=tuple(layers),
    )


def _feasible_lcm(count: int, n_letters: int, n_m: int, budget: int) -> tuple[int, int]:
    """Largest k ≤ count with (lcm(1..k) ** n_letters) · n_m ≤ budget."""
    best_k, best_q = 1, 1
    for k in range(1, count + 1):
        q = math.lcm(*range(1, k + 1))
        if (q**n_letters) * n_m > budget:
            break
        best_k, best_q = k, q
    return best_k, best_q


def amt_pairs(
    m: SyntacticMorphism,
    node_budget: Optional[int] = None,
) -> PairRelation:
    """Pairs not separable by per-letter counts modulo q = lcm(1..|M|).

    Works in (Z/q)^A. When the exact q (or a certification step) exceeds the
    node budget, the largest feasible lcm(1..k) is used instead and the
    relation is returned with certified=False. Certification recomputes the
    matrix over (Z/(q·r))^A for every prime r ≤ |M| and demands equality."""
    budget = node_budget if node_budget is not None else budget_from_env(DEFAULT_GROUP_NODE_BUDGET)
    n = m.element_count
    n_letters = len(m.alphabet)
    k, q = _feasible_lcm(n, n_letters, n, budget)
    base = group_morphism_pairs(m, parikh_group(q, m.alphabet), basis=BASIS_AMT)
    certified = k == n
    if certified:
        primes = [r for r in range(2, n + 1) if all(r % d for d in range(2, r))]
        for r in primes:
            if ((q * r) ** n_letters) * n > budget:
                certified = False
                break
            bigger = _group_pair_matrix(m, parikh_group(q * r, m.alphabet))
            if not np.array_equal(bigger, base.matrix):
                certified = False
                break
    return PairRelation(
        basis=BASIS_AMT,
        matrix=base.matrix,
        certified=certified,
        _sparse=base._sparse,
    )
