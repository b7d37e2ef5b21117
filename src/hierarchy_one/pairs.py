"""Pair relations over a syntactic monoid.

A pair (s, t) belongs to the relation for a base class when no language of
that class separates the words mapping to s from the words mapping to t.
Bases: ST (trivial), MOD (word length modulo a period), AMT (per-letter
counts modulo any number), or any custom finite group acting through a
morphism. Each relation is reflexive and symmetric, never transitive in
general, and carries witness word pairs where the search found them.

The AMT relation is exact. By Parikh's theorem (1966) the letter counts of
the words mapping to s form a semilinear set, whose closure in Ẑ^A is a
finite union of cosets v + L of subgroups of Z^A; every subgroup of Z^A is
closed, so (s, t) is a pair iff a coset of s and one of t meet in Z^A.

The pair set is stored as a dense boolean matrix (desk-scale monoids reach a
few thousand elements, where tuple sets would thrash). Witnesses are read
on demand through one hook that each constructor sets: element words for ST
and explicit pairs, words of congruent lengths for MOD, and for group bases
and AMT the words recorded at the lowest group value that reaches both
elements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import AlphabetError, BudgetError, DEFAULT_GROUP_NODE_BUDGET, budget_from_env
from .monoid import SyntacticMorphism, stable_sequence, words_by_length

BASIS_ST = "ST"
BASIS_MOD = "MOD"
BASIS_AMT = "AMT"
BASIS_EXPLICIT = "EXPLICIT"


@dataclass(frozen=True, eq=False)
class PairRelation:
    """Pairs as a boolean matrix plus a witness hook.

    `witness_for(s, t)` returns a word pair (u, v) with u evaluating to s and
    v to t, or None when the pair is present but the search passed its depth
    cap before naming it. The words come from `_witness(s, t)`, which the
    constructor of each basis sets and which is only asked about pairs.
    """

    basis: str
    matrix: np.ndarray
    _witness: Callable[[int, int], Optional[tuple[str, str]]] = field(repr=False)
    certified: bool = True

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
        return self._witness(s, t)


def pairs_to_dict(rel: PairRelation) -> dict:
    rows = []
    for s, t in rel.pairs_iter():
        wit = rel._witness(s, t)
        u, v = wit if wit is not None else (None, None)
        rows.append([s, t, u, v])
    return {"basis": rel.basis, "certified": rel.certified, "pairs": rows}


def st_pairs(m: SyntacticMorphism) -> PairRelation:
    """Every pair: the trivial base separates nothing."""
    n = m.element_count
    words = m.witness
    return PairRelation(
        basis=BASIS_ST,
        matrix=np.ones((n, n), dtype=bool),
        _witness=lambda s, t: (words[s], words[t]),
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
    given = dict(witnesses) if witnesses else {}
    words = m.witness
    return PairRelation(
        basis=BASIS_EXPLICIT,
        matrix=matrix,
        _witness=lambda s, t: given.get((s, t), (words[s], words[t])),
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
        try:
            g = int(raw_image[sym])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed group document: letter_image[{sym!r}]: {exc}") from exc
        if not 0 <= g < n:
            raise ValueError(f"letter_image[{sym!r}] out of range")
        image[sym] = g
    action = np.stack([table[:, image[sym]] for sym in alphabet]) if alphabet else np.zeros((0, n), np.int32)
    return GroupPresentation(
        name=str(data.get("name") or name),
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


def _group_join(visited: np.ndarray, n_m: int) -> np.ndarray:
    """Pair matrix of a reach mask over nodes γ·|M|+s: (s, t) is a pair iff
    some group value γ reaches both. With V the rows [γ, s] of the mask that
    reach some element, that is (V.T @ V) > 0."""
    reach = visited.reshape(-1, n_m)
    v = reach[reach.any(axis=1)].astype(np.float32)
    return (v.T @ v) > 0


def _group_witness(
    visited: np.ndarray,
    n_m: int,
    words: dict[int, str],
) -> Callable[[int, int], Optional[tuple[str, str]]]:
    """Witness hook of a group join: the words recorded for (γ, s) and
    (γ, t) at the lowest γ that reaches both, or None when either node lies
    past the witness cap. The lowest γ is found for a whole row s at once,
    the first time the row is asked about, and kept."""
    reach = visited.reshape(-1, n_m)
    lowest: dict[int, list[int]] = {}  # s -> γ·|M| of the lowest γ reaching s and t, per t

    def witness(s: int, t: int) -> Optional[tuple[str, str]]:
        if s not in lowest:
            hit = np.flatnonzero(reach[:, s])
            lowest[s] = (hit[reach[hit].argmax(axis=0)] * n_m).tolist()
        node = lowest[s][t]
        u = words.get(node + s)
        v = words.get(node + t)
        return (u, v) if u is not None and v is not None else None

    return witness


def _capped_reach(m: SyntacticMorphism, g: GroupPresentation) -> tuple[np.ndarray, dict[int, str]]:
    """`_group_reach` recording words to depth n0 + 2p + |M| (stability
    threshold plus period data); deeper nodes are reached without words."""
    info = stable_sequence(m)
    return _group_reach(m, g, witness_cap=info.threshold + 2 * info.period + m.element_count)


def group_morphism_pairs(
    m: SyntacticMorphism,
    g: GroupPresentation,
) -> PairRelation:
    """Pairs (s, t) reachable with a common group value: saturate (γ, s)
    states from the identities, then join the reach mask with itself over γ.
    Pairs deeper than the witness cap of `_capped_reach` have no words."""
    visited, words = _capped_reach(m, g)
    n = m.element_count
    return PairRelation(
        basis=f"CUSTOM:{g.name}",
        matrix=_group_join(visited, n),
        _witness=_group_witness(visited, n, words),
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
    sets = [sorted(info.at_length(i)) for i in range(window)]
    congruent = [(i, j) for i in range(window) for j in range(window)
                 if (i - j) % p == 0 and (i == j or max(i, j) >= n0)]
    pick = np.full((n, n, 2), -1, dtype=np.int32)
    # walked backwards, so the first congruent pair in window order writes last
    for i, j in reversed(congruent):
        pick[np.ix_(sets[i], sets[j])] = (i, j)
    matrix = pick[..., 0] >= 0
    layers = words_by_length(m, window - 1)
    return PairRelation(
        basis=BASIS_MOD,
        matrix=matrix,
        _witness=lambda s, t: (layers[pick[s, t, 0]][s], layers[pick[s, t, 1]][t]),
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


# --- alphabet-modular pairs: Parikh cosets ---------------------------------

Vector = tuple[int, ...]
Lattice = tuple[Vector, ...]  # Hermite normal form rows, pivots increasing


def _reduce(v: Vector, lattice: Lattice) -> Vector:
    """The representative of v + lattice with each pivot coordinate in
    [0, pivot): unique, since the rows are in echelon form."""
    for row in lattice:
        p = next(i for i, x in enumerate(row) if x)
        k = v[p] // row[p]
        v = tuple(x - k * y for x, y in zip(v, row))
    return v


def _hnf(vectors: Iterable[Vector]) -> Lattice:
    """Hermite normal form of the Z-span of `vectors` (Python ints): each
    vector enters by Euclid against the row holding its leading column."""
    rows: dict[int, Vector] = {}
    for v in vectors:
        for p in range(len(v)):
            row = rows.get(p, (0,) * len(v))
            while v[p]:
                k = row[p] // v[p]
                row, v = v, tuple(x - k * y for x, y in zip(row, v))
            if row[p]:
                rows[p] = row if row[p] > 0 else tuple(-x for x in row)
    ordered = [rows[p] for p in sorted(rows)]
    return tuple(_reduce(row, tuple(ordered[i + 1:])) for i, row in enumerate(ordered))


def _parikh_cosets(m: SyntacticMorphism, letter_vectors: list[Vector],
                   budget: int) -> list[list[tuple[Vector, Lattice]]]:
    """Per element s, the cosets v + L of Z^d (v reduced modulo L) whose
    union has the same closure in Ẑ^d as {ψ(w) : α(w) = s}, ψ the morphism
    that sends letter a to letter_vectors[a].

    The components of the right Cayley graph are the R-classes, and a path
    only enters classes of smaller right ideals. In a component C, BFS
    potentials make a walk x → y weigh pot(y) − pot(x) plus its defects
    pot(x) + ψ(a) − pot(x·a), and its cycles reach the span L_C of the
    defects densely. So each edge into C turns each coset of its source
    into one over L + L_C. More than `budget` cosets raise BudgetError."""
    n = m.element_count
    zero = (0,) * (len(letter_vectors[0]) if letter_vectors else 0)
    right = m.table[:, [m.letter_image[a] for a in m.alphabet]].tolist()
    reach = np.zeros((n, n), dtype=bool)
    reach[np.arange(n)[:, None], m.table] = True  # reach[x, y]: y ∈ xM
    label: dict[bytes, int] = {}
    comp = [label.setdefault(row.tobytes(), len(label)) for row in np.packbits(reach, axis=1)]
    members: dict[int, list[int]] = {}
    for x in np.lexsort((np.arange(n) != m.identity, -reach.sum(axis=1))).tolist():
        members.setdefault(comp[x], []).append(x)
    lattice_sum = functools.cache(lambda a, b: _hnf(a + b))
    pot: list[Optional[Vector]] = [None] * n
    entering: dict[int, list[tuple[int, Vector, int]]] = {}
    cosets: list[list[tuple[Vector, Lattice]]] = [[] for _ in range(n)]
    total = 0
    for c, xs in members.items():
        pot[xs[0]], queue, defects = zero, [xs[0]], []
        for x in queue:  # BFS inside C: the queue grows as it goes
            for a, y in enumerate(right[x]):
                step = tuple(p + e for p, e in zip(pot[x], letter_vectors[a]))
                if comp[y] != c:
                    entering.setdefault(comp[y], []).append((x, letter_vectors[a], y))
                elif pot[y] is not None:
                    defects.append(tuple(p - q for p, q in zip(step, pot[y])))
                else:
                    pot[y] = step
                    queue.append(y)
        lattice = _hnf(defects)
        found = {(zero, lattice)} if xs[0] == m.identity else set()
        for x, e, y in entering.pop(c, ()):
            for v, inner in cosets[x]:
                both = lattice_sum(inner, lattice)
                found.add((_reduce(tuple(p + d - q for p, d, q in zip(v, e, pot[y])), both), both))
        total += len(found) * len(xs)
        if total > budget:
            raise BudgetError(f"construction exceeded the node budget ({budget}) at stage "
                              f"AMT cosets: monoid with {n} elements, {total} cosets found")
        for y in xs:
            cosets[y] = [(_reduce(tuple(map(sum, zip(v, pot[y]))), lat), lat) for v, lat in found]
    return cosets


def _coset_join(cosets: list[list[tuple[Vector, Lattice]]]) -> np.ndarray:
    """(s, t) is a pair iff a coset v + L of s meets a coset v′ + L′ of t,
    that is v − v′ ∈ L + L′. For each two lattices, every coset over either
    is reduced once modulo their sum, and equal representatives match."""
    groups: dict[Lattice, list[tuple[int, Vector]]] = {}
    for s, found in enumerate(cosets):
        for v, lat in found:
            groups.setdefault(lat, []).append((s, v))
    matrix = np.zeros((len(cosets),) * 2, dtype=bool)
    for lat, other in itertools.combinations_with_replacement(groups, 2):
        both = _hnf(lat + other)
        rows: dict[Vector, list[int]] = {}
        for s, v in groups[lat]:
            rows.setdefault(_reduce(v, both), []).append(s)
        for t, v in groups[other]:
            matrix[rows.get(_reduce(v, both), []), t] = True
    return matrix | matrix.T


def amt_pairs(
    m: SyntacticMorphism,
    node_budget: Optional[int] = None,
) -> PairRelation:
    """Pairs not separable by per-letter counts modulo any number, exactly.

    (s, t) is a pair iff the closures in Ẑ^A of the Parikh images of
    α⁻¹(s) and α⁻¹(t) meet. By Parikh's theorem (1966) those images are
    semilinear, and each closure is a finite union of cosets v + L of
    subgroups of Z^A (`_parikh_cosets`). Every subgroup of Z^A is closed,
    so two cosets meet in Ẑ^A iff they meet in Z^A (`_coset_join`). The
    node budget bounds the coset count.

    Witness words come from a BFS over (Z/q)^A × M, q = lcm(1..|M|) or the
    largest lcm(1..k) within the node budget, run when a witness is first
    asked for: each AMT pair is a pair of that group too."""
    budget = node_budget if node_budget is not None else budget_from_env(DEFAULT_GROUP_NODE_BUDGET)
    n, k = m.element_count, len(m.alphabet)

    @functools.cache
    def bfs_witness() -> Callable[[int, int], Optional[tuple[str, str]]]:
        _, q = _feasible_lcm(n, k, n, budget)
        visited, words = _capped_reach(m, parikh_group(q, m.alphabet))
        return _group_witness(visited, n, words)

    units = [tuple(int(a == b) for b in range(k)) for a in range(k)]
    return PairRelation(
        basis=BASIS_AMT,
        matrix=_coset_join(_parikh_cosets(m, units, budget)),
        _witness=lambda s, t: bfs_witness()(s, t),
    )
