"""Membership checks: characteristic equations on the syntactic monoid.

Each checker sweeps its equation over the monoid and reports the first
violation in lexicographic sweep order — (q, s) pairs outermost (sorted),
then idempotents (e, f), then the inner (r, t) plane. GONE is WGONE with
e = f = 1, and both run one class sweep: their sides factor into a row
class of (e, X = eqf, r) and a column class of (e, Y = esf, t), both read
off the class vectors W_e[x] = (x·e)^ω and C_e[x] = (x·e)^{ω+1} of e: the
row class is (W_e[X·r], W_e[X·r]·X), the column class (C_e[Y·t],
t·W_e[Y·t]). The sweeps multiply arrays of elements by one gather,
`monoid.products`. A sweep whose distinct blocks (e, X, Y) hold at most
_WHOLE_SWEEP (r, t) entries is read off whole by `_whole_sweep`: each block
is evaluated once, and the first position (q, s, e, f) in sweep order whose
block fails gives the violation, at that block's first failing (r, t). The
blocks are counted only for a sweep of at most _WHOLE_SWEEP positions; with
one idempotent they are taken to be the positions, as they are for GONE.
Any other sweep is decided by `_class_walk` from its classes: a row class
that meets every column class of its e holds for good, and each block is
decided from which row classes fail against which column classes, without
evaluating it. Below a slab of block entries the walk took 1.0-3.4x as
long as the whole read-off, 0.07-0.53 ms, on the benchmark's dot-depth
WGONE sweeps (|M| ≤ 16; see _WHOLE_SWEEP). Likewise POLG is POLGP with
e = 1, and both run one Pol sweep. Every refutation is built in one place,
`_violation`. A verdict's witness can be re-derived: its words evaluate to
its elements, and the equation sides recompute from the elements alone.

Equation tags:
  POLG   1 ≤ s                           (polynomial closure, group base)
  POLGP  e ≤ e s e                       (group base, with empty-word split)
  GONE   (qr)^ω (st)^{ω+1} = (qr)^ω q t (st)^ω
  WGONE  the same guarded by idempotents e, f on both sides
  SIMON  (st)^ω s = (st)^ω = t (st)^ω    (piecewise-testable check)
  KNAST  (eqfre)^ω (esfte)^ω = (eqfre)^ω q f t (esfte)^ω over S
  GRBPOL (ef)^ω = (fe)^ω over all idempotents
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union as TyUnion

import numpy as np

from .errors import AlphabetError, UsageError, positive_budget
from .lang.dfa import Dfa, input_alphabet, minimal_dfa
# Unused here: perfbench/spans.py traces these names in this module too.
from .lang.dfa import compile_dfa, minimize  # noqa: F401
from .lang.patterns import Pattern, pattern_to_text
from .monoid import (OrderRelation, SyntacticMorphism, products, syntactic_preorder,
                     transition_monoid)
from .pairs import (
    BASIS_AMT,
    BASIS_MOD,
    BASIS_ST,
    GroupPresentation,
    PairRelation,
    amt_pairs,
    group_morphism_pairs,
    mod_pairs,
    st_pairs,
)

EQ_POLG = "POLG"
EQ_POLGP = "POLGP"
EQ_GONE = "GONE"
EQ_WGONE = "WGONE"
EQ_SIMON = "SIMON"
EQ_KNAST = "KNAST"
EQ_GRBPOL = "GRBPOL"

_ORDERED = {EQ_POLG, EQ_POLGP}  # these compare by ≤, the rest by =


@dataclass(frozen=True)
class ViolationWitness:
    """First equation violation: variable assignment, the words naming each
    element, and the two evaluated sides."""

    elements: dict[str, int]
    words: dict[str, str]
    lhs: int
    rhs: int

    def to_dict(self) -> dict:
        data = dict(self.elements)
        data["words"] = dict(self.words)
        data["lhs"] = self.lhs
        data["rhs"] = self.rhs
        return data

    @staticmethod
    def from_dict(data: dict) -> "ViolationWitness":
        elements = {k: int(v) for k, v in data.items() if k in ("q", "r", "s", "t", "e", "f")}
        return ViolationWitness(
            elements=elements,
            words={k: str(v) for k, v in data["words"].items()},
            lhs=int(data["lhs"]),
            rhs=int(data["rhs"]),
        )


@dataclass(frozen=True)
class Verdict:
    member: bool
    equation: str
    witness: Optional[ViolationWitness] = None


def _omega_all(m: SyntacticMorphism) -> np.ndarray:
    return np.fromiter((m.omega(x) for x in range(m.element_count)), dtype=np.int32,
                       count=m.element_count)


def _bit_words(bits: np.ndarray) -> np.ndarray:
    """[bit, column] booleans as [word, column] unsigned words of 1, 2, 4 or 8
    bytes, the smallest that hold them: bit b is bit b % w of word b // w, for
    words of w bits."""
    nbytes = -(-len(bits) // 8)
    size = min(8, 1 << (nbytes - 1).bit_length())
    packed = np.zeros((bits.shape[1], -(-nbytes // size) * size), dtype=np.uint8)
    packed[:, :nbytes] = np.packbits(bits, axis=0, bitorder="little").T
    return packed.view(f"<u{size}").T


def _pair_words(m: SyntacticMorphism, rel: PairRelation, s: int, t: int) -> tuple[str, str]:
    wit = rel.witness_for(s, t)
    if wit is None:
        return (m.witness[s], m.witness[t])
    return wit


def _violation(m: SyntacticMorphism, equation: str, elements: dict[str, int], lhs: int,
               rhs: int, pair_words: Optional[dict[str, str]] = None) -> Verdict:
    """The refutation of `equation` at `elements`, whose sides are lhs and
    rhs: every element is named by its word in m.witness, then the roles in
    `pair_words` by the words the pair relation gave (see _pair_words)."""
    words = {var: m.witness[x] for var, x in elements.items()}
    words.update(pair_words or {})
    return Verdict(False, equation, ViolationWitness(elements, words, int(lhs), int(rhs)))


def _pol_sweep(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation,
               idem: tuple[int, ...], equation: str) -> Verdict:
    """e ≤ e s e for every e in `idem` and pair (1, s), as [e, s] blocks of
    at most _WHOLE_SWEEP entries (one e at least): a block's first entry in
    C order is the first violation of the e, then s, sweep."""
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    one = m.identity
    candidates = np.flatnonzero(rel.matrix[one]).astype(np.int32)
    idem = np.asarray(idem, dtype=np.int32)
    for rows in _slabs(len(idem), len(candidates)):
        block = idem[rows, None]
        rhs = products(table, products(table, block, candidates), block)   # [e, s] -> e s e
        bad = ~products(order.matrix, block, rhs)
        if bad.any():
            i, j = divmod(int(bad.argmax()), bad.shape[1])
            e, s = int(block[i, 0]), int(candidates[j])
            elements = {"e": e, "s": s} if equation == EQ_POLGP else {"s": s}
            return _violation(m, equation, elements, e, rhs[i, j],
                              {"s": _pair_words(m, rel, one, s)[1]})
    return Verdict(True, equation)


def check_pol_group(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation) -> Verdict:
    """POLG: 1 ≤ s whenever (1, s) is a pair: the Pol sweep with e = 1."""
    return _pol_sweep(m, order, rel, (m.identity,), EQ_POLG)


def check_pol_group_plus(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation) -> Verdict:
    """POLGP: e ≤ e s e for every idempotent e of S and pair (1, s): the Pol
    sweep over E(S)."""
    return _pol_sweep(m, order, rel, m.idempotents_s, EQ_POLGP)


# Entries of a KNAST sweep block, and the (r, t) entries that one unit of the
# class walk stands for (see _class_walk): temporaries of a few tens of MB.
_ENTRY_CAP = 1 << 20

# A sweep whose distinct blocks hold at most this many (r, t) entries is read
# off whole, its blocks counted when its positions (q, s, e, f) are at most
# this many. On the benchmark's dot-depth WGONE sweeps (|M| ≤ 16, a 2-vCPU
# x86_64 host) one read off whole took 0.07-0.53 ms and the class walk
# 1.9-2.9x as long, or 1.0-3.4x where the positions hold more than this many
# entries. Walked sweeps build their column classes, fail relations, class
# bits and witness, and the Pol sweep its [e, s] blocks, in slabs of about
# this many entries (_slabs).
_WHOLE_SWEEP = 1 << 16


def _slabs(count: int, width: int) -> list[slice]:
    """range(count) cut into slices of about _WHOLE_SWEEP entries, an index
    standing for `width` entries: one index a slice at least."""
    step = max(1, _WHOLE_SWEEP // max(1, width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _class_vectors(table: np.ndarray, omega: np.ndarray, idem: np.ndarray) -> tuple:
    """[i, x] -> W = (x·e)^ω and C = (x·e)^{ω+1} for e = idem[i]: the row
    class (W[i, X·r], W[i, X·r]·X) of (e, X, r) is ((Xre)^ω, (Xre)^ω X) and
    the column class (C[i, Y·t], t·W[i, Y·t]) of (e, Y, t) is
    ((Yte)^{ω+1}, t (Yte)^ω)."""
    xe = table.T[idem]                       # [i, x] -> x·e
    w = omega[xe]
    return w, products(table, w, xe)


def _block_sides(table: np.ndarray, w_vec: np.ndarray, c_vec: np.ndarray, i: np.ndarray,
                 x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[block, r, t] -> lhs = a·c and rhs = b·d of the blocks (e, X, Y), e
    the idempotent of row i of the class vectors: (a, b) is the row class of
    (e, X, r) and (c, d) the column class of (e, Y, t). The vectors are read
    by plain indexing: a whole sweep's arrays are small, and there one numpy
    call costs less than the three of a flat gather."""
    i = i[:, None]
    yt = table[y]                                            # [block, t] -> Y t
    a = w_vec[i, table[x]]                                   # (Xre)^ω
    d = products(table, np.arange(len(table)), w_vec[i, yt])
    lhs = products(table, a[:, :, None], c_vec[i, yt][:, None, :])
    rhs = products(table, products(table, a, x[:, None])[:, :, None], d[:, None, :])
    return lhs, rhs


def _column_classes(table: np.ndarray, vectors: tuple[np.ndarray, np.ndarray], e: np.ndarray,
                    local: np.ndarray, ezf: np.ndarray) -> tuple[np.ndarray, ...]:
    """The column classes of one e block: its i-th e is e[i], with class
    vectors w_vec[i] and c_vec[i] for (w_vec, c_vec) = `vectors`,
    local[i, 0, 0] is i and ezf[i, s, f] is e s f. The class (c, d) of
    (e, Z, t) is keyed i·n² + c·n + d, and the classes kept are those of
    each Y = esf. Returns [i, Z, t] -> the index of the class of (e, Z, t),
    read for Z a Y only, and each class's i, c and d by index. Keys, then
    indices, are written in slabs of Z rows of about _WHOLE_SWEEP entries
    into the one array returned, and the key -> index map is int16 while
    fewer than 2^15 classes fit it: no temporary outgrows half that array."""
    n = len(table)
    nn = n * n
    w_vec, c_vec = vectors
    is_y = np.zeros((len(e), n), dtype=bool)
    is_y[local, ezf] = True
    t = np.arange(n, dtype=np.int32)
    slabs = _slabs(n, len(e) * n)
    col = np.empty((len(e), n, n), dtype=np.int32)
    marks = np.zeros(len(e) * nn, dtype=bool)
    for z in slabs:
        zt = table[z]                                        # Z t
        d = products(table, t, products(w_vec, local, zt))   # t (Zte)^ω
        keys = np.add((products(c_vec, local, zt) + local * n) * n, d, out=col[:, z])
        marks[keys[is_y[:, z]]] = True
    v = marks.nonzero()[0]
    del marks
    # key of a class -> its index: the count of class keys up to it, less one (so
    # -1 below the first), summed in place, where a cast would copy every entry
    cls = np.zeros(len(e) * nn, dtype=np.int16 if len(v) < 1 << 15 else np.int32)
    cls[v] = 1
    cls[0] -= 1
    np.cumsum(cls, out=cls)
    for z in slabs:
        keys = col[:, z]
        keys[...] = cls[keys]
    del cls
    v_e, v_cd = np.divmod(v, nn)
    return (col, v_e, *np.divmod(v_cd, n))


def _sweep_blocks(table: np.ndarray, idem: np.ndarray, pairs: np.ndarray) -> tuple:
    """The positions (q, s, e, f) of a sweep and its distinct blocks
    (e, X = eqf, Y = esf): (q, s, at, (e_b, x_b, y_b)), (q[p], s[p]) the
    p-th pair in sweep order, at[p, i, j] the index of the block of position
    (q[p], s[p], idem[i], idem[j]), and block b (idem[e_b[b]], x_b[b],
    y_b[b]), in the order of its key e_b·n² + X·n + Y. The keys are
    scattered into a k·n² range, which the sweeps enumerated keep within a
    slab. They are intp, as gathers and scatters would copy keys of another
    type to intp on every call."""
    n, k = len(table), len(idem)
    zf = products(table, table[idem].T[:, :, None], idem)              # [z, i, j] -> e z f
    q, s = pairs.nonzero()
    key = (np.arange(0, k * n * n, n * n)[:, None] + n * zf).take(q, axis=0) + zf.take(s, axis=0)
    seen = np.zeros(k * n * n, dtype=bool)
    seen[key] = True
    # key -> block index: the count of block keys up to it, less one
    return q, s, (np.cumsum(seen) - 1).take(key), seen.reshape(k, n, n).nonzero()


def _whole_sweep(table: np.ndarray, w_vec: np.ndarray, c_vec: np.ndarray, q: np.ndarray,
                 s: np.ndarray, at: np.ndarray, blocks: tuple) -> Optional[tuple[int, ...]]:
    """The first violation of a sweep whose distinct blocks (_sweep_blocks)
    hold at most _WHOLE_SWEEP (r, t) entries, read off whole: every block is
    evaluated once, in one _block_sides call, and the first position in
    sweep order whose block fails gives the violation, at that block's
    first failing (r, t)."""
    n = len(table)
    lhs, rhs = _block_sides(table, w_vec, c_vec, *blocks)
    neq = (lhs != rhs).reshape(len(lhs), -1)
    hit = neq.any(axis=1).take(at)
    u = int(hit.argmax())
    if not hit.flat[u]:
        return None
    p, i, j = np.unravel_index(u, at.shape)
    b = at.flat[u]
    h = int(neq[b].argmax())
    return (int(q[p]), int(s[p]), int(i), int(j), *divmod(h, n),
            int(lhs[b].flat[h]), int(rhs[b].flat[h]))


def _class_walk(table: np.ndarray, w_vec: np.ndarray, c_vec: np.ndarray, idem: np.ndarray,
                pairs: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first violation of a sweep longer than _WHOLE_SWEEP, decided from
    its classes: a row class of (e, X, r) meets every column class of its e
    (those of every Y = esf) or fails, once and for all.

    The sweep is walked in units, a group of q times a block of e, sized so
    that the (r, t) entries of a unit's positions (q, s, e, f), which the
    walk never builds, stay within _ENTRY_CAP: e_block · |E| · |M|³ and
    group · e_block · |E| · |M|³ are at most _ENTRY_CAP, or the group and
    block are one q and one e. What the walk does build per unit is the
    [i, q, s, f] grid of its positions, |M|² times smaller, and the arrays
    of one e block, e_block · |M|² entries; the fail relation and the class
    bits of the Y are built in slabs of about _WHOLE_SWEEP entries.

    Each unit evaluates its row classes not yet known to hold against the
    column classes of their e, and folds that fail relation into bits: a
    column class carries the bit of each unsettled X of the unit that has a
    row class failing against it. A block (e, X, Y) fails exactly when a
    column class of Y carries X's bit, and the first violation's (r, t) and
    sides are read off the failing row classes of X and the column classes
    of Y, so no block is evaluated.

    Only one e block's arrays are kept: its ezf, its column classes and the
    row classes of its e known to hold, O(|M|²) whatever |E(S)| is; the
    class vectors of every e take 2 · |E| · |M| entries. A later
    q group that needs another block rebuilds it; which X hold for good is
    kept for the whole sweep, one bool per (e, X), so a block whose X all
    hold is skipped."""
    n, k = len(table), len(idem)
    nn = n * n
    qs = pairs.any(axis=1).nonzero()[0]
    e_block = min(k, max(1, _ENTRY_CAP // (k * n ** 3)))
    group = max(1, _ENTRY_CAP // (e_block * k * n ** 3))
    starts = np.arange(0, k, e_block)        # the first e of each block
    built = None                             # the first e of the one block kept
    settled = np.zeros((k, n), dtype=bool)   # [e, X]: every row class of (e, X, r) holds

    def class_first(gq, b, block, x, unset):
        """The first failing position of the unit (q in gq, e block b), in
        sweep order, as (q index in gq, s, e index, f index, r, t, lhs, rhs);
        x[i, q, f] is X = eqf and unset[i, q, f] that X is not settled."""
        e, local, ezf, (cls, v_e, v_c, v_d), held = block
        live = np.zeros((len(e), n), dtype=bool)   # [i, X]: an unsettled X of the unit
        live[local, x] = unset
        li, lx = live.nonzero()
        # [live (e, X), r] -> the row class of (e, X, r)
        a = products(w_vec, b + li[:, None], table[lx])                  # (Xre)^ω
        rows = (a + li[:, None] * n) * np.intp(n) + products(table, a, lx[:, None])
        new = ~held[rows]
        if not new.any():                    # every row class of these X holds
            settled[b + li, lx] = True
            return None
        keys = rows[new]
        fresh, slot = np.unique(keys, return_inverse=True)   # keys == fresh[slot]
        held[fresh] = True
        # the fail relation of the fresh row classes against the column classes of
        # their e, folded into bits: each live X has a bit of its e, and x_fails[bit,
        # column class] says that a row class of that X fails against the class
        bit = live.cumsum(axis=1)[li, lx] - 1
        x_rows = np.zeros((int(bit.max()) + 1, len(fresh)), dtype=bool)   # [bit, fresh]
        x_rows[np.repeat(bit, new.sum(axis=1)), slot] = True
        f_e, f_ab = np.divmod(fresh[:, None], nn)
        f_a, f_b = np.divmod(f_ab, n)
        x_fails = np.zeros((len(x_rows), len(v_e) + 1), dtype=bool)   # index -1 reads 0
        for w in _slabs(len(v_e), len(fresh)):
            neq = (products(table, f_a, v_c[w]) != products(table, f_b, v_d[w])) & (f_e == v_e[w])
            held[fresh[neq.any(axis=1)]] = False
            x_fails[:, w] = x_rows @ neq
        open_x = (~held[rows]).any(axis=1)     # a row class of X fails
        settled[b + li, lx] = ~open_x
        if not open_x.any():
            return None
        # [word, i, Y]: the bits of the X that fail against a column class of Y,
        # and [word, i, X]: the bit of X (none for a settled X); block (e, X, Y)
        # fails exactly when Y carries X's bit
        words = _bit_words(x_fails)
        size = 8 * words.itemsize
        y_bits = np.empty(words.shape[:1] + live.shape, dtype=words.dtype)
        for z in _slabs(n, len(e) * n):
            np.bitwise_or.reduce(np.take(words, cls[:, z], axis=1), axis=3, out=y_bits[:, :, z])
        x_bit = np.zeros((len(words),) + live.shape, dtype=words.dtype)
        x_bit[bit // size, li, lx] = words.dtype.type(1) << (bit % size).astype(words.dtype)
        hit = (y_bits[:, local, ezf][:, :, None] & x_bit[:, local, x][:, :, :, None]).any(axis=0)
        cand = hit.transpose(1, 2, 0, 3) & pairs[gq][:, :, None, None]   # [q, s, i, f]
        u = int(cand.argmax())
        if not cand.flat[u]:
            return None
        qi, s, i, j = np.unravel_index(u, cand.shape)
        # the sides a·c and b·d over the row classes (a, b) of X, r in M, and the
        # column classes (c, d) of Y, t in M, in slabs of r; a row class that
        # holds meets them all
        p = np.flatnonzero((li == i) & (lx == x[i, qi, j]))[0]
        at = cls[i, ezf[i, s, j]]
        c, d = v_c[at], v_d[at]
        for rs in _slabs(n, n):
            lhs = products(table, a[p, rs, None], c)
            rhs = products(table, rows[p, rs, None] % n, d)
            h = int((lhs != rhs).argmax())
            if lhs.flat[h] != rhs.flat[h]:
                r, t = divmod(h, n)
                return (int(qi), int(s), b + int(i), int(j), rs.start + r, t,
                        int(lhs.flat[h]), int(rhs.flat[h]))
        return None

    for lo in range(0, len(qs), group):
        gq = qs[lo:lo + group]
        first = None                         # the group's first failing position
        # [e, q, f] -> X = eqf and whether it may still fail; a block of e
        # whose X all hold is skipped
        x_all = products(table, products(table, idem[:, None], gq)[..., None], idem)
        unset = ~products(settled, np.arange(k)[:, None, None], x_all)
        todo = np.logical_or.reduceat(unset.reshape(k, -1).any(axis=1), starts)
        for b in starts[todo].tolist():
            if b != built:
                # the block's e, the local indices i of its e, [i, z, f] -> ezf,
                # its column classes and held[i·n² + a·n + b]: the row class
                # (a, b) of its i-th e meets all of that e's column classes;
                # the last block's arrays are dropped first
                block = None
                e = idem[b:b + e_block]
                local = np.arange(len(e), dtype=np.int32)[:, None, None]
                ezf = products(table, table[e][:, :, None], idem)
                vectors = (w_vec[b:b + e_block], c_vec[b:b + e_block])
                block = (e, local, ezf, _column_classes(table, vectors, e, local, ezf),
                         np.zeros(len(e) * nn, dtype=bool))
                built = b
            found = class_first(gq, b, block, x_all[b:b + e_block], unset[b:b + e_block])
            # blocks of one group come in e order, so a tie keeps the earlier
            if found is not None and (first is None or found[:2] < first[:2]):
                first = found
            if first is not None and first[:2] == (0, int(pairs[gq[0]].argmax())):
                break                        # no later block comes first
        if first is not None:
            return (int(gq[first[0]]), *first[1:])
    return None


def _class_sweep(m: SyntacticMorphism, rel: PairRelation, idem: tuple[int, ...],
                 equation: str) -> Verdict:
    """(Xre)^ω (Yte)^{ω+1} = (Xre)^ω X t (Yte)^ω with X = eqf and Y = esf,
    for every pair (q, s) with q ≠ s, e, f in `idem` and r, t in M, swept
    in the order q, s, e, f, r, t; the Verdict holds its first violation.
    A sweep whose distinct blocks hold at most _WHOLE_SWEEP entries is read
    off whole (_whole_sweep), any other decided from its classes
    (_class_walk)."""
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    idem = np.asarray(idem, dtype=np.int32)
    pairs = np.array(rel.matrix, dtype=bool)
    # (q, q) cannot violate: eqfre ends and eqfte starts with the idempotent
    # e, which the ω-powers absorb, so both sides equal (eqfre)^ω q f t (eqfte)^ω.
    np.fill_diagonal(pairs, False)
    if not pairs.any():                      # also when S, and with it idem, is empty
        return Verdict(True, equation)
    k = len(idem)
    positions = int(pairs.sum()) * k * k
    vectors = _class_vectors(table, _omega_all(m), idem)
    blocks = None
    # the blocks are counted only where they may fit a slab: every e has one,
    # so blocks · n² ≥ k · n²; with one idempotent they are not counted but
    # taken to be the positions, as they are for GONE (X = q and Y = s)
    if positions * n * n <= _WHOLE_SWEEP or (
            k > 1 and positions <= _WHOLE_SWEEP and k * n * n <= _WHOLE_SWEEP):
        blocks = _sweep_blocks(table, idem, pairs)
    if blocks is not None and len(blocks[-1][0]) * n * n <= _WHOLE_SWEEP:
        first = _whole_sweep(table, *vectors, *blocks)
    else:
        first = _class_walk(table, *vectors, idem, pairs)
    if first is None:
        return Verdict(True, equation)
    q, s, i, j, r, t, lhs, rhs = first
    e, f = int(idem[i]), int(idem[j])
    elements = dict(zip("qrst" + "ef" * (equation == EQ_WGONE), (q, r, s, t, e, f)))
    return _violation(m, equation, elements, lhs, rhs,
                      dict(zip("qs", _pair_words(m, rel, q, s))))


def check_bpol_group(m: SyntacticMorphism, rel: PairRelation) -> Verdict:
    """GONE: (qr)^ω (st)^{ω+1} = (qr)^ω q t (st)^ω for every pair (q, s):
    the class sweep with e = f = 1."""
    return _class_sweep(m, rel, (m.identity,), EQ_GONE)


def check_bpol_group_plus(m: SyntacticMorphism, rel: PairRelation) -> Verdict:
    """WGONE: (eqfre)^ω (esfte)^{ω+1} = (eqfre)^ω q f t (esfte)^ω for every
    pair (q, s) and idempotents e, f of S: the class sweep over E(S), since
    x = eqfre ends in e, so that x^ω q f = x^ω (eqf)."""
    return _class_sweep(m, rel, m.idempotents_s, EQ_WGONE)


def _check_simon(m: SyntacticMorphism) -> Verdict:
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    z = omega[table]                                  # (st)^ω
    rows = np.broadcast_to(np.arange(n, dtype=np.int32)[:, None], (n, n))
    cols = np.broadcast_to(np.arange(n, dtype=np.int32)[None, :], (n, n))
    zs = table[z, rows]                               # (st)^ω s
    tz = table[cols, z]                               # t (st)^ω
    bad = np.argwhere((zs != z) | (tz != z))
    if len(bad):
        s, t = (int(v) for v in bad[0])
        if zs[s, t] != z[s, t]:
            lhs, rhs = int(zs[s, t]), int(z[s, t])
        else:
            lhs, rhs = int(z[s, t]), int(tz[s, t])
        return _violation(m, EQ_SIMON, {"s": s, "t": t}, lhs, rhs)
    return Verdict(True, EQ_SIMON)


def _check_knast(m: SyntacticMorphism) -> Verdict:
    """KNAST swept one (q, s) of S at a time, all (e, f) in one [(e, f), r, t]
    block, split along (e, f) past _ENTRY_CAP entries: a block's first
    entry in C order is the first violation of the q, s, e, f, r, t sweep."""
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    sub = np.fromiter(sorted(m.nonempty_image), dtype=np.int32,
                      count=len(m.nonempty_image))
    idem = np.asarray(m.idempotents_s, dtype=np.int32)
    e_of = np.repeat(idem, len(idem))[:, None]    # [(e, f), 1] -> e
    f_of = np.tile(idem, len(idem))[:, None]      # [(e, f), 1] -> f
    step = max(1, _ENTRY_CAP // max(1, len(sub) ** 2))

    def guarded_omega(x: int) -> np.ndarray:
        exf = table[table[e_of, x], f_of]
        return omega[table[table[exf, sub], e_of]]       # [(e, f), r] -> (exfre)^ω

    for q in (int(x) for x in sub):
        x_om = guarded_omega(q)[:, :, None]
        head = table[table[x_om, q], f_of[:, :, None]]  # (eqfre)^ω q f
        for s in (int(x) for x in sub):
            y_om = guarded_omega(s)[:, None, :]
            for lo in range(0, len(e_of), step):
                y = y_om[lo:lo + step]
                lhs = table[x_om[lo:lo + step], y]
                rhs = table[table[head[lo:lo + step], sub], y]
                neq = lhs != rhs
                if neq.any():
                    at = np.unravel_index(int(np.argmax(neq)), neq.shape)
                    e, f = int(e_of[lo + at[0], 0]), int(f_of[lo + at[0], 0])
                    r, t = int(sub[at[1]]), int(sub[at[2]])
                    return _violation(m, EQ_KNAST, dict(zip("qrstef", (q, r, s, t, e, f))),
                                      lhs[at], rhs[at])
    return Verdict(True, EQ_KNAST)


def _check_grbpol(m: SyntacticMorphism) -> Verdict:
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    # E(M) = E(S) ∪ {1}: an idempotent other than 1 is the image of a nonempty word
    idem = np.union1d(m.identity, np.asarray(m.idempotents_s, dtype=np.intp))
    prod = table[idem][:, idem]
    lhs = omega[prod]
    rhs = lhs.T
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        i, j = (int(v) for v in bad[0])
        e, f = int(idem[i]), int(idem[j])
        return _violation(m, EQ_GRBPOL, {"e": e, "f": f}, lhs[i, j], rhs[i, j])
    return Verdict(True, EQ_GRBPOL)


_SPECIALIZED = {
    EQ_SIMON: _check_simon,
    EQ_KNAST: _check_knast,
    EQ_GRBPOL: _check_grbpol,
}


def check_specialized(m: SyntacticMorphism, equation: str) -> Verdict:
    """Run one of the closed-form checks: SIMON, KNAST, or GRBPOL."""
    try:
        fn = _SPECIALIZED[equation]
    except KeyError:
        raise UsageError(f"no specialized check named {equation!r}") from None
    return fn(m)


def recompute_sides(m: SyntacticMorphism, equation: str,
                    elements: dict[str, int]) -> tuple[int, int]:
    """Re-derive both equation sides from a witness's element assignment."""
    t_ = m.mul
    om = m.omega
    if equation == EQ_POLG:
        return m.identity, elements["s"]
    if equation == EQ_POLGP:
        e, s = elements["e"], elements["s"]
        return e, t_(t_(e, s), e)
    if equation in (EQ_GONE, EQ_WGONE, EQ_KNAST):
        q, r, s, t = (elements[k] for k in "qrst")
        # GONE is WGONE with e = f = 1
        e, f = elements.get("e", m.identity), elements.get("f", m.identity)
        x = t_(t_(t_(t_(e, q), f), r), e)
        y = t_(t_(t_(t_(e, s), f), t), e)
        x_om, y_om = om(x), om(y)
        left_tail = y_om if equation == EQ_KNAST else t_(y_om, y)
        return t_(x_om, left_tail), t_(t_(t_(t_(x_om, q), f), t), y_om)
    if equation == EQ_SIMON:
        s, t = elements["s"], elements["t"]
        z = om(t_(s, t))
        zs, tz = t_(z, s), t_(t, z)
        if zs != z:
            return zs, z
        return z, tz
    if equation == EQ_GRBPOL:
        e, f = elements["e"], elements["f"]
        return om(t_(e, f)), om(t_(f, e))
    raise UsageError(f"unknown equation {equation!r}")


def verify_witness(m: SyntacticMorphism, verdict: Verdict,
                   order: Optional[OrderRelation] = None) -> bool:
    """Check a violation witness against the monoid: words evaluate to the
    claimed elements, the sides recompute, and the violation is real."""
    w = verdict.witness
    if verdict.member or w is None:
        return verdict.member and w is None
    for var, word in w.words.items():
        if m.evaluate(word) != w.elements[var]:
            return False
    lhs, rhs = recompute_sides(m, verdict.equation, w.elements)
    if (lhs, rhs) != (w.lhs, w.rhs):
        return False
    if verdict.equation in _ORDERED:
        if order is None:
            raise UsageError("ordered equations need the syntactic order to verify")
        return not order.matrix[w.lhs, w.rhs]
    return w.lhs != w.rhs


# --- the decision pipeline --------------------------------------------------

LEVELS = ("pol", "bpol")


def _level(level: str) -> str:
    """`level`, a string of LEVELS in any case, in lower case; UsageError otherwise."""
    if not (isinstance(level, str) and level.lower() in LEVELS):
        raise UsageError(f"level must be pol or bpol, got {level!r}")
    return level.lower()


@dataclass(frozen=True)
class Base:
    """A class G of group languages: the `tag` that `Report.basis` carries,
    `pairs(m, budget)`, the relation of the pairs of m that G cannot
    separate (None for GR: not computable), the literature `names` of
    its classes by (level, plus), and the `alphabet` its languages are
    over (None for the stock bases, which fit any alphabet)."""

    tag: str
    pairs: Optional[Callable[[SyntacticMorphism, Optional[int]], PairRelation]]
    names: dict[tuple[str, bool], str] = field(default_factory=dict)
    alphabet: Optional[tuple[str, ...]] = None

    def supports(self, level: str, plus: bool) -> bool:
        """Whether the class is decidable here: all but BPol(G) need pairs."""
        level = _level(level)
        return self.pairs is not None or (level == "bpol" and not plus)


# Each `pairs` calls its pair function by the name it has in this module when
# it runs, so the wrapper perfbench/spans.py puts there traces the call.
BASES = {
    "st": Base(BASIS_ST, lambda m, budget: st_pairs(m),
               {("bpol", False): "piecewise testable (BPol(ST))",
                ("bpol", True): "dot-depth one (BPol(ST+))"}),
    "mod": Base(BASIS_MOD, lambda m, budget: mod_pairs(m),
                {("bpol", False): "BSigma1(<, MOD) (BPol(MOD))",
                 ("bpol", True): "BSigma1(<, +1, MOD) (BPol(MOD+))"}),
    "amt": Base(BASIS_AMT, lambda m, budget: amt_pairs(m, node_budget=budget)),
    "gr": Base("GR", None),
}


def base_of(basis: TyUnion[str, GroupPresentation, Base]) -> Base:
    """The Base of a key of BASES, in any case and blanks around it ignored,
    of a GroupPresentation (tagged CUSTOM:<name>), or a Base itself."""
    if isinstance(basis, Base):
        return basis
    if isinstance(basis, GroupPresentation):
        return Base(f"CUSTOM:{basis.name}", lambda m, budget: group_morphism_pairs(m, basis),
                    alphabet=basis.alphabet)
    key = basis.strip().lower() if isinstance(basis, str) else None
    if key not in BASES:
        raise UsageError(f"unknown basis {basis!r}: use {', '.join(BASES)}, "
                         f"group:<file.json> or a GroupPresentation")
    return BASES[key]


def class_name(basis: TyUnion[str, GroupPresentation, Base], level: str, plus: bool) -> str:
    """Human-readable name of the decided class; `basis` is what `base_of`
    reads or a `Report.basis` tag, CUSTOM:<name> included, and `level` is
    read as `decide` reads it."""
    custom = isinstance(basis, str) and basis.startswith("CUSTOM:")   # a tag, no group
    base = Base(basis, None) if custom else base_of(basis)
    level = _level(level)
    default = f"{'Pol' if level == 'pol' else 'BPol'}({base.tag}{'+' if plus else ''})"
    return base.names.get((level, plus), default)


@dataclass(frozen=True)
class Report:
    """Everything the pipeline decided, JSON-round-trippable."""

    input_text: str
    alphabet: tuple[str, ...]
    basis: str
    level: str
    plus: bool
    dfa_states: int
    monoid_size: int
    member: bool
    equation: str
    certified: bool
    witness: Optional[ViolationWitness]
    pair_count: Optional[int]
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "input": self.input_text,
            "alphabet": "".join(self.alphabet),
            "basis": self.basis,
            "level": self.level,
            "plus": self.plus,
            "dfa_states": self.dfa_states,
            "monoid_size": self.monoid_size,
            "member": self.member,
            "equation": self.equation,
            "certified": self.certified,
            "witness": self.witness.to_dict() if self.witness else None,
            "pair_count": self.pair_count,
            "elapsed_s": self.elapsed_s,
        }

    @staticmethod
    def from_dict(data: dict) -> "Report":
        """The Report `to_dict` wrote; ValueError naming a required field that
        is missing or a flag that is not a JSON boolean."""
        for key in ("input", "alphabet", "basis", "level", "plus", "dfa_states", "monoid_size",
                    "member", "equation", "certified"):
            if key not in data:
                raise ValueError(f"report field {key!r} is missing")
            if key in ("plus", "member", "certified") and not isinstance(data[key], bool):
                raise ValueError(f"report field {key!r} must be true or false, got {data[key]!r}")
        return Report(
            input_text=data["input"],
            alphabet=tuple(data["alphabet"]),
            basis=data["basis"],
            level=data["level"],
            plus=data["plus"],
            dfa_states=int(data["dfa_states"]),
            monoid_size=int(data["monoid_size"]),
            member=data["member"],
            equation=data["equation"],
            certified=data["certified"],
            witness=ViolationWitness.from_dict(data["witness"]) if data.get("witness") else None,
            pair_count=data.get("pair_count"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


GR_UNSUPPORTED = ("unsupported: GR-pairs not computable in this tool; the GR base "
                  "is only decidable here as BPol(GR): use level=bpol without plus")


def pair_relation(m: SyntacticMorphism, basis: TyUnion[str, GroupPresentation, Base],
                  node_budget: Optional[int] = None) -> PairRelation:
    """The pair relation on `m` of `basis`, anything `base_of` reads; a
    positive `node_budget` caps AMT cosets. GR has none: it raises."""
    positive_budget(node_budget, "node_budget")
    base = base_of(basis)
    if base.pairs is None:
        raise UsageError(GR_UNSUPPORTED)
    return base.pairs(m, node_budget)


def decide(
    source: TyUnion[Pattern, Dfa, str],
    alphabet: Optional[TyUnion[str, tuple[str, ...]]] = None,
    basis: TyUnion[str, GroupPresentation, Base] = "st",
    level: str = "bpol",
    plus: bool = False,
    *,
    label: Optional[str] = None,
    budget: Optional[int] = None,
) -> Report:
    """Decide membership of a language in Pol/BPol over a group base.

    `source` and `alphabet` are what `minimal_dfa` reads: a pattern (text
    or AST) and its alphabet, or a complete DFA and, optionally, its
    alphabet in any order. `basis` is anything `base_of` reads, `level`
    a string of LEVELS in any case and `plus` a bool. `budget`, when given,
    must be a positive int and caps every stage: DFA states, monoid elements
    and AMT cosets; each keeps its default otherwise. A malformed request, a
    class its Base does not support (all over GR but BPol(GR)) and a
    GroupPresentation, or a Base made from one, over another alphabet than
    the language's raise before any work.
    """
    t0 = time.perf_counter()
    positive_budget(budget, "budget")
    if not isinstance(plus, bool):
        raise UsageError(f"plus must be True or False, got {plus!r}")
    level = _level(level)
    base = base_of(basis)
    if not base.supports(level, plus):
        raise UsageError(GR_UNSUPPORTED)  # before any work: these need GR pairs
    over = input_alphabet(source, alphabet)
    if base.alphabet is not None and base.alphabet != over:
        raise AlphabetError(f"group alphabet {''.join(base.alphabet)!r} does not match the "
                            f"language's alphabet {''.join(over)!r}")

    dfa = minimal_dfa(source, alphabet, state_budget=budget)
    m = transition_monoid(dfa, element_budget=budget)

    if base.pairs is None:
        verdict, rel = _check_grbpol(m), None
    else:
        rel = pair_relation(m, base, node_budget=budget)
        if level == "pol":
            order = syntactic_preorder(m)
            check = check_pol_group_plus if plus else check_pol_group
            verdict = check(m, order, rel)
        else:
            check = check_bpol_group_plus if plus else check_bpol_group
            verdict = check(m, rel)

    if label is None:
        label = "<dfa>" if isinstance(source, Dfa) else (
            source if isinstance(source, str) else pattern_to_text(source))
    return Report(
        input_text=label,
        alphabet=dfa.alphabet,
        basis=base.tag,
        level=level.upper(),
        plus=plus,
        dfa_states=dfa.states,
        monoid_size=m.element_count,
        member=verdict.member,
        equation=verdict.equation,
        certified=rel is None or rel.certified,
        witness=verdict.witness,
        pair_count=None if rel is None else rel.count,
        elapsed_s=round(time.perf_counter() - t0, 6),
    )
