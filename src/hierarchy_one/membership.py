"""Membership checks: characteristic equations on the syntactic monoid.

Each checker sweeps its equation over the monoid and reports the first
violation in lexicographic sweep order — (q, s) pairs outermost (sorted),
then idempotents (e, f), then the inner (r, t) plane, which is evaluated as
one vectorized block so early exits stay cheap. GONE is WGONE with
e = f = 1, and both run one class sweep: their sides factor into a row
class of (e, X = eqf, r) and a column class of (e, Y = esf, t); a row class
that meets every column class of its e holds for good, so a long sweep
looks only at blocks (e, X, Y) whose X has a failing row class. A verdict's
witness can be re-derived: its words evaluate to its elements, and the
equation sides recompute from the elements alone.

Equation tags:
  POLC   x^{ω+1} ≤ x^ω y x^ω            (generic polynomial closure)
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
from typing import Optional, Union as TyUnion

import numpy as np

from .errors import UsageError
from .lang.dfa import Dfa, compile_dfa, minimize
from .lang.patterns import Pattern, pattern_to_text
from .monoid import OrderRelation, SyntacticMorphism, syntactic_preorder, transition_monoid
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

EQ_POLC = "POLC"
EQ_POLG = "POLG"
EQ_POLGP = "POLGP"
EQ_GONE = "GONE"
EQ_WGONE = "WGONE"
EQ_SIMON = "SIMON"
EQ_KNAST = "KNAST"
EQ_GRBPOL = "GRBPOL"

_ORDERED = {EQ_POLC, EQ_POLG, EQ_POLGP}  # these compare by ≤, the rest by =


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


def _distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x) at under half the cost of a call, for tiny monoids."""
    x = x.flatten()
    x.sort()
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _pair_words(m: SyntacticMorphism, rel: PairRelation, s: int, t: int) -> tuple[str, str]:
    wit = rel.witness_for(s, t)
    if wit is None:
        return (m.witness[s], m.witness[t])
    return wit


def check_pol(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation) -> Verdict:
    """POLC: x^{ω+1} ≤ x^ω y x^ω for every pair (x, y) — reported as (s, t)."""
    table = np.asarray(m.table)
    omega = _omega_all(m)
    leq = order.matrix
    for s in range(m.element_count):
        ts = np.nonzero(rel.matrix[s])[0]
        if len(ts) == 0:
            continue
        e = int(omega[s])
        lhs = int(table[e, s])
        rhs = table[table[e, ts], e]
        bad = np.nonzero(~leq[lhs, rhs])[0]
        if len(bad):
            t = int(ts[bad[0]])
            u, v = _pair_words(m, rel, s, t)
            return Verdict(False, EQ_POLC, ViolationWitness(
                elements={"s": s, "t": t},
                words={"s": u, "t": v},
                lhs=lhs,
                rhs=int(table[table[e, t], e]),
            ))
    return Verdict(True, EQ_POLC)


def check_pol_group(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation) -> Verdict:
    """POLG: 1 ≤ s whenever (1, s) is a pair."""
    one = m.identity
    for s in (int(x) for x in np.nonzero(rel.matrix[one])[0]):
        if not order.matrix[one, s]:
            _, v = _pair_words(m, rel, one, s)
            return Verdict(False, EQ_POLG, ViolationWitness(
                elements={"s": s}, words={"s": v}, lhs=one, rhs=s,
            ))
    return Verdict(True, EQ_POLG)


def check_pol_group_plus(m: SyntacticMorphism, order: OrderRelation, rel: PairRelation) -> Verdict:
    """POLGP: e ≤ e s e for every idempotent e of S and pair (1, s)."""
    table = np.asarray(m.table)
    one = m.identity
    candidates = np.nonzero(rel.matrix[one])[0]
    for e in m.idempotents_s:
        rhs = table[table[e, candidates], e]     # e s e for every candidate s
        bad = np.nonzero(~order.matrix[e, rhs])[0]
        if len(bad):
            s = int(candidates[bad[0]])
            _, v = _pair_words(m, rel, one, s)
            return Verdict(False, EQ_POLGP, ViolationWitness(
                elements={"e": e, "s": s},
                words={"e": m.witness[e], "s": v},
                lhs=e,
                rhs=int(rhs[bad[0]]),
            ))
    return Verdict(True, EQ_POLGP)


# Entries of a class sweep unit or a KNAST block: temporaries of a few tens of MB.
_ENTRY_CAP = 1 << 20

# Sweeps of at most this many entries are read off whole: filtering one by
# row classes first would take some fifty numpy calls more than that.
_WHOLE_SWEEP = 1 << 16


def _block_sides(table: np.ndarray, omega: np.ndarray, e: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[block, r, t] -> lhs = a·c and rhs = b·d of the blocks (e, X, Y): the
    row class of (e, X, r) is (a, b) = ((Xre)^ω, (Xre)^ω X) and the column
    class of (e, Y, t) is (c, d) = ((Yte)^{ω+1}, t (Yte)^ω)."""
    a = omega[table[table[x], e[:, None]]]
    yte = table[table[y], e[:, None]]
    y_om = omega[yte]
    lhs = table[a[:, :, None], table[y_om, yte][:, None, :]]
    rhs = table[table[a, x[:, None]][:, :, None], table[np.arange(len(table)), y_om][:, None, :]]
    return lhs, rhs


def _class_sweep(m: SyntacticMorphism, rel: PairRelation, idem: tuple[int, ...],
                 equation: str) -> Verdict:
    """(Xre)^ω (Yte)^{ω+1} = (Xre)^ω X t (Yte)^ω with X = eqf and Y = esf,
    for every pair (q, s) with q ≠ s, e, f in `idem` and r, t in M, swept
    in the order q, s, e, f, r, t; the Verdict holds its first violation.

    The sweep is walked in units, a group of q times a block of e with at
    most _ENTRY_CAP entries, each distinct block (e, X, Y) of a unit once.
    A sweep of more than _WHOLE_SWEEP entries is filtered first: a row class
    of (e, X, r) meets every column class of its e (those of every Y = esf)
    or fails, once and for all, and a position can fail only if its X has a
    failing row class and its Y a column class that one fails against."""
    n = m.element_count
    nn = n * n
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    flat = table.ravel()                     # x·y is flat[x·n + y]
    omega = _omega_all(m)
    idem = np.asarray(idem, dtype=np.int32)
    k = len(idem)
    pairs = np.array(rel.matrix, dtype=bool)
    # (q, q) cannot violate: eqfre ends and eqfte starts with the idempotent
    # e, which the ω-powers absorb, so both sides equal (eqfre)^ω q f t (eqfte)^ω.
    np.fill_diagonal(pairs, False)
    qs = pairs.any(axis=1).nonzero()[0]
    if len(qs) == 0:                         # also when S, and with it idem, is empty
        return Verdict(True, equation)
    filtered = int(pairs.sum()) * k * k * nn > _WHOLE_SWEEP

    def first_failing(qi, s, i, j, x, ezf, b):
        """The first position (q index, s, e index - b, f index), in sweep order,
        whose block fails, as (q index, s, e index, f index, r, t, lhs, rhs)."""
        step = max(1, _WHOLE_SWEEP // nn)
        for lo in range(0, len(qi), step):
            w = slice(lo, lo + step)
            blk = (i[w], x[i[w], qi[w], j[w]], ezf[i[w], s[w], j[w]])   # (e, X, Y)
            seen = np.zeros(ezf.shape[:1] + (n, n), dtype=bool)
            seen[blk] = True
            i_b, x_b, y_b = seen.nonzero()
            at = np.empty(seen.shape, dtype=np.int32)
            at[i_b, x_b, y_b] = np.arange(len(i_b))
            at = at[blk]
            lhs, rhs = _block_sides(table, omega, idem[b + i_b], x_b, y_b)
            neq = (lhs != rhs).reshape(len(i_b), -1)
            hit = neq.any(axis=1)[at]
            if hit.any():
                u = at[hit.argmax()]
                h = lo + int(hit.argmax())
                r, t = divmod(int(neq[u].argmax()), n)
                return (int(qi[h]), int(s[h]), b + int(i[h]), int(j[h]), r, t,
                        int(lhs[u, r, t]), int(rhs[u, r, t]))
        return None

    e_block = min(k, max(1, _ENTRY_CAP // (k * n ** 3)))
    group = max(1, _ENTRY_CAP // (e_block * k * n ** 3))
    blocks = {}                              # first e of a block -> its arrays, see below
    held = np.zeros(k * nn, dtype=bool)      # row classes e·n² + a·n + b meeting all of e's
    for lo in range(0, len(qs), group):
        gq = qs[lo:lo + group]
        first = None                         # the group's first failing position
        for b in range(0, k, e_block):
            if b not in blocks:              # [i, z, f] -> ezf for the i-th e of the block
                e = idem[b:b + e_block]
                blocks[b] = [e, np.arange(len(e), dtype=np.int32)[:, None, None],
                             table[table[e][:, :, None], idem], None]
            e, local, ezf, classes = blocks[b]
            x = ezf[:, gq]                   # [e, q, f] -> X; ezf[e, s, f] is Y
            cand = pairs[gq][:, :, None, None]
            if filtered:
                if classes is None:
                    # column classes of (e, Z) keyed i·n² + c·n + d; those of each Y = esf
                    # as (e, c, d), [i, Y, t] -> index; settled[i, X]: its row classes hold
                    zte = flat[table * n + e[:, None, None]]      # Z t e
                    z_om = omega[zte]
                    col = (flat[z_om * n + zte] + local * n) * n + flat[np.arange(n) * n + z_om]
                    is_y = np.zeros((len(e), n), dtype=bool)
                    is_y[local, ezf] = True
                    marks = np.zeros(len(e) * nn, dtype=bool)
                    marks[col[is_y]] = True
                    v = marks.nonzero()[0]
                    cls = marks.cumsum(dtype=np.int32) - 1   # key of a class -> its index
                    v_e, v_cd = np.divmod(v, nn)
                    classes = blocks[b][3] = (cls[col], v_e + b, *np.divmod(v_cd, n),
                                              np.zeros((len(e), n), dtype=bool))
                cls, v_e, v_c, v_d, settled = classes
                if settled[local, x].all():
                    continue
                # [e, q, f, r] -> the row class of (e, X, r)
                a = omega[flat[table[x] * n + e[:, None, None, None]]]        # (Xre)^ω
                rows = (a + (b + local[..., None]) * n) * np.intp(n) + flat[a * n + x[..., None]]
                fresh = _distinct(rows[~held[rows]])
                held[fresh] = True
                f_e, f_ab = np.divmod(fresh[:, None], nn)
                f_a, f_b = np.divmod(f_ab, n)
                hot = np.zeros(len(v_e) + 1, dtype=bool)  # column classes a row class fails
                step = max(1, _ENTRY_CAP // max(1, len(fresh)))
                for c in range(0, len(v_e), step):
                    w = slice(c, c + step)
                    neq = (table[f_a, v_c[w]] != table[f_b, v_d[w]]) & (f_e == v_e[w])
                    held[fresh[neq.any(axis=1)]] = False
                    hot[c:c + neq.shape[1]] = neq.any(axis=0)
                open_ = (~held[rows]).any(axis=3)      # [e, q, f]: X has a failing row class
                settled[local, x] = ~open_
                if not open_.any():
                    continue
                cand = (cand & open_.transpose(1, 0, 2)[:, None]
                        & hot[cls].any(axis=2)[local, ezf].transpose(1, 0, 2)[None])
            found = first_failing(*(cand | np.zeros((len(e), k), dtype=bool)).nonzero(), x, ezf, b)
            # blocks of one group come in e order, so a tie keeps the earlier
            if found is not None and (first is None or found[:2] < first[:2]):
                first = found
            if first is not None and first[:2] == (0, int(pairs[gq[0]].argmax())):
                break                        # no later block comes first
        if first is not None:
            qi, s, i, j, r, t, lhs, rhs = first
            q, e, f = int(gq[qi]), int(idem[i]), int(idem[j])
            elements = dict(zip("qrst" + "ef" * (equation == EQ_WGONE), (q, r, s, t, e, f)))
            words = {var: m.witness[x] for var, x in elements.items()}
            words["q"], words["s"] = _pair_words(m, rel, q, s)
            return Verdict(False, equation, ViolationWitness(elements, words, lhs, rhs))
    return Verdict(True, equation)


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
        return Verdict(False, EQ_SIMON, ViolationWitness(
            elements={"s": s, "t": t},
            words={"s": m.witness[s], "t": m.witness[t]},
            lhs=lhs, rhs=rhs,
        ))
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
                    return Verdict(False, EQ_KNAST, ViolationWitness(
                        elements={"q": q, "r": r, "s": s, "t": t, "e": e, "f": f},
                        words={k: m.witness[v] for k, v in
                               (("q", q), ("r", r), ("s", s), ("t", t), ("e", e), ("f", f))},
                        lhs=int(lhs[at]),
                        rhs=int(rhs[at]),
                    ))
    return Verdict(True, EQ_KNAST)


def _check_grbpol(m: SyntacticMorphism) -> Verdict:
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    diag = table[np.arange(m.element_count), np.arange(m.element_count)]
    idem = np.nonzero(diag == np.arange(m.element_count))[0]
    prod = table[np.ix_(idem, idem)]
    lhs = omega[prod]
    rhs = lhs.T
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        i, j = (int(v) for v in bad[0])
        e, f = int(idem[i]), int(idem[j])
        return Verdict(False, EQ_GRBPOL, ViolationWitness(
            elements={"e": e, "f": f},
            words={"e": m.witness[e], "f": m.witness[f]},
            lhs=int(lhs[i, j]),
            rhs=int(rhs[i, j]),
        ))
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
    if equation == EQ_POLC:
        s, t = elements["s"], elements["t"]
        e = om(s)
        return t_(e, s), t_(t_(e, t), e)
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

_LEVELS = ("pol", "bpol")
BASES = ("st", "mod", "amt", "gr")

_CLASS_NAMES = {
    ("st", "bpol", False): "piecewise testable (BPol(ST))",
    ("st", "bpol", True): "dot-depth one (BPol(ST+))",
    ("mod", "bpol", False): "BSigma1(<, MOD) (BPol(MOD))",
    ("mod", "bpol", True): "BSigma1(<, +1, MOD) (BPol(MOD+))",
}


def class_name(basis: str, level: str, plus: bool) -> str:
    """Human-readable name of the decided class."""
    key = (basis.lower() if isinstance(basis, str) else "custom", level.lower(), plus)
    if key in _CLASS_NAMES:
        return _CLASS_NAMES[key]
    if isinstance(basis, str):
        # keep user-chosen group names as given; uppercase only the built-ins
        tag = basis if basis.startswith("CUSTOM:") else basis.upper()
    else:
        tag = f"CUSTOM:{basis}"
    return f"{'Pol' if level.lower() == 'pol' else 'BPol'}({tag}{'+' if plus else ''})"


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
        return Report(
            input_text=data["input"],
            alphabet=tuple(data["alphabet"]),
            basis=data["basis"],
            level=data["level"],
            plus=bool(data["plus"]),
            dfa_states=int(data["dfa_states"]),
            monoid_size=int(data["monoid_size"]),
            member=bool(data["member"]),
            equation=data["equation"],
            certified=bool(data["certified"]),
            witness=ViolationWitness.from_dict(data["witness"]) if data.get("witness") else None,
            pair_count=data.get("pair_count"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


GR_UNSUPPORTED = ("unsupported: GR-pairs not computable in this tool; the GR base "
                  "is only decidable here as BPol(GR): use level=bpol without plus")


def pair_relation(m: SyntacticMorphism, basis: TyUnion[str, GroupPresentation],
                  node_budget: Optional[int] = None) -> PairRelation:
    """The pair relation of `basis` ("st" | "mod" | "amt" or a
    GroupPresentation) on `m`. GR pairs are not computable: "gr" raises."""
    if basis == "st":
        return st_pairs(m)
    if basis == "mod":
        return mod_pairs(m)
    if basis == "amt":
        return amt_pairs(m, node_budget=node_budget)
    if basis == "gr":
        raise UsageError(GR_UNSUPPORTED)
    return group_morphism_pairs(m, basis)


def decide(
    source: TyUnion[Pattern, Dfa, str],
    alphabet: Optional[TyUnion[str, tuple[str, ...]]] = None,
    basis: TyUnion[str, GroupPresentation] = "st",
    level: str = "bpol",
    plus: bool = False,
    *,
    label: Optional[str] = None,
    state_budget: Optional[int] = None,
    element_budget: Optional[int] = None,
    node_budget: Optional[int] = None,
) -> Report:
    """Decide membership of a language in Pol/BPol over a group base.

    `source` is a pattern (text or AST; requires `alphabet`) or a complete
    DFA. `basis` is "st" | "mod" | "amt" | "gr" or a GroupPresentation.
    GR only supports level="bpol" without plus: every other class needs
    GR pairs, which `pair_relation` cannot compute.
    """
    t0 = time.perf_counter()
    level = level.lower()
    if level not in _LEVELS:
        raise UsageError(f"level must be pol or bpol, got {level!r}")
    basis_key = basis.lower() if isinstance(basis, str) else None
    if basis_key is not None and basis_key not in BASES:
        raise UsageError(f"basis must be one of {BASES} or a GroupPresentation")
    if basis_key == "gr" and (level != "bpol" or plus):
        raise UsageError(GR_UNSUPPORTED)  # before any work: these need GR pairs

    if isinstance(source, Dfa):
        dfa = minimize(source)
        text = label if label is not None else "<dfa>"
    else:
        if alphabet is None:
            raise UsageError("patterns need an explicit alphabet")
        dfa = minimize(compile_dfa(source, alphabet, state_budget=state_budget))
        text = label if label is not None else (
            source if isinstance(source, str) else pattern_to_text(source)
        )

    m = transition_monoid(dfa, element_budget=element_budget)

    certified = True
    pair_count: Optional[int] = None
    if basis_key == "gr":
        verdict = _check_grbpol(m)
        basis_tag = "GR"
    else:
        rel = pair_relation(m, basis_key or basis, node_budget=node_budget)
        certified = rel.certified
        pair_count = rel.count
        basis_tag = rel.basis
        if level == "pol":
            order = syntactic_preorder(m)
            check = check_pol_group_plus if plus else check_pol_group
            verdict = check(m, order, rel)
        else:
            check = check_bpol_group_plus if plus else check_bpol_group
            verdict = check(m, rel)

    return Report(
        input_text=text,
        alphabet=dfa.alphabet,
        basis=basis_tag,
        level=level.upper(),
        plus=plus,
        dfa_states=dfa.states,
        monoid_size=m.element_count,
        member=verdict.member,
        equation=verdict.equation,
        certified=certified,
        witness=verdict.witness,
        pair_count=pair_count,
        elapsed_s=round(time.perf_counter() - t0, 6),
    )
