"""Membership checks: characteristic equations on the syntactic monoid.

Each checker sweeps its equation over the monoid and reports the first
violation in lexicographic sweep order — (q, s) pairs outermost (sorted),
then idempotents (e, f), then the inner (r, t) plane, which is evaluated as
one vectorized block so early exits stay cheap. GONE reaches the same
first violation by classes: its sides factor into a row class of (q, r)
and a column class of (s, t), so it walks q in order, evaluates each row
class of q not yet known to hold against every column class at once, and
evaluates in full only the first violating (q, s) block, for its first
(r, t). WGONE keeps the block order but walks it in chunks that double in
size: its blocks depend only on the class (e, eqf, esf), so each chunk
evaluates just the classes it has not met before, all at once. A verdict's
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


def check_bpol_group(m: SyntacticMorphism, rel: PairRelation) -> Verdict:
    """GONE: (qr)^ω (st)^{ω+1} = (qr)^ω q t (st)^ω for every pair (q, s).

    Both sides factor through a row class (a, b) = ((qr)^ω, (qr)^ω q) and
    a column class (c, d) = ((st)^{ω+1}, t (st)^ω): lhs = a·c, rhs = b·d.
    The column classes of all (s, t) are named once. q is walked in sweep
    order, and each of its row classes not yet known to hold is evaluated
    against every column class; one that meets them all holds for good.
    (q, s) violates exactly when a failing row class of q meets a column
    class of s, so the first such s of the first such q is the first
    violating block of the block-by-block sweep. Only that block is
    evaluated in full, to read its first (r, t)."""
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    flat = table.ravel()
    omega = _omega_all(m)
    prod_omega = omega[table]                      # [x, y] -> (xy)^ω
    # column keys c·n + d, built in one flat-index buffer so that the
    # temporaries stay within a few |M|² entries
    col_key = prod_omega * np.intp(n)
    col_key += table
    c = flat.take(col_key)                         # [s, t] -> (st)^{ω+1}
    np.add(prod_omega, np.arange(0, n * n, n), out=col_key)
    d = flat.take(col_key)                         # [s, t] -> t (st)^ω
    np.multiply(c, np.intp(n), out=col_key)
    col_key += d
    del c, d
    marks = np.zeros(n * n, dtype=bool)            # a set of column keys
    marks[col_key] = True
    v_key = np.flatnonzero(marks)                  # V: the distinct column classes
    v_c, v_d = np.divmod(v_key, n)
    held = np.zeros(n * n, dtype=bool)             # row keys met by every column class
    pairs = np.array(rel.matrix, dtype=bool)
    # (q, q) cannot violate: (qt)^{ω+1} = q·t·(qt)^ω makes the sides
    # literally equal.
    np.fill_diagonal(pairs, False)
    for q in (int(x) for x in np.flatnonzero(pairs.any(axis=1))):
        after_q = table[prod_omega[q], q]          # [r] -> (qr)^ω q
        keys = prod_omega[q] * np.intp(n) + after_q   # [r] -> a·n + b
        keys = np.unique(keys[~held[keys]])
        if len(keys) == 0:
            continue
        a, b = np.divmod(keys[:, None], n)
        fails = np.zeros(len(v_c), dtype=bool)     # column classes a row class of q fails
        held[keys] = True
        step = max(1, n * n // len(keys))          # temporaries stay within |M|² entries
        for lo in range(0, len(v_c), step):
            neq = table[a, v_c[lo:lo + step]] != table[b, v_d[lo:lo + step]]
            fails[lo:lo + step] = neq.any(axis=0)
            held[keys[neq.any(axis=1)]] = False
        if not fails.any():
            continue
        marks[:] = False
        marks[v_key[fails]] = True
        ss = np.flatnonzero(pairs[q])
        hit = marks[col_key[ss]].any(axis=1)
        if not hit.any():
            continue
        s = int(ss[np.argmax(hit)])
        # the block-by-block sweep's (q, s) block, for its first (r, t)
        lhs = table[prod_omega[q]][:, table[prod_omega[s], table[s]]]
        rhs = table[table[after_q], np.broadcast_to(prod_omega[s], (n, n))]
        r, t = divmod(int(np.argmax(lhs != rhs)), n)
        u, v = _pair_words(m, rel, q, s)
        return Verdict(False, EQ_GONE, ViolationWitness(
            elements={"q": q, "r": r, "s": s, "t": t},
            words={"q": u, "r": m.witness[r], "s": v, "t": m.witness[t]},
            lhs=int(lhs[r, t]),
            rhs=int(rhs[r, t]),
        ))
    return Verdict(True, EQ_GONE)


# WGONE chunk sizes, in (r, t) entries of the documented sweep: the first
# chunk holds the whole sweep of a monoid with |M| ≤ 3, later ones double
# up to the cap, which bounds a chunk's temporaries to a few tens of MB.
# KNAST splits its blocks at the same cap.
_FIRST_CHUNK = 1 << 8
_CHUNK_CAP = 1 << 20


def check_bpol_group_plus(m: SyntacticMorphism, rel: PairRelation) -> Verdict:
    """WGONE: (eqfre)^ω (esfte)^{ω+1} = (eqfre)^ω q f t (esfte)^ω for every
    pair (q, s) and idempotents e, f of S.

    x = eqfre ends in e, so x^ω q f = x^ω (eqf): a block depends on its
    position (q, s, e, f) only through the class (e, X = eqf, Y = esf),
    with lhs (Xre)^ω (Yte)^{ω+1} and rhs (Xre)^ω X t (Yte)^ω. The sweep
    walks the positions in the documented order, chunk by chunk, and
    evaluates each class once, at its first position; every class seen
    before that position held, so the first violating position is the
    first occurrence of a violating class and carries the same witness as
    a block-by-block sweep."""
    n = m.element_count
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    idem = np.asarray(m.idempotents_s, dtype=np.int64)
    k = len(idem)
    # (q, q) cannot violate: eqfre ends and eqfte starts with the idempotent
    # e, which the ω-powers absorb, so both sides equal (eqfre)^ω q f t (eqfte)^ω.
    qs, ss = np.nonzero(rel.matrix)
    off = qs != ss
    qs, ss = qs[off], ss[off]
    held = np.zeros(k * n * n, dtype=bool)        # classes known to hold
    owner = np.empty(k * n * n, dtype=np.int32)   # scratch: class -> first chunk position
    total = len(qs) * k * k
    entries = _FIRST_CHUNK
    start = 0
    while start < total:
        pos = np.arange(start, min(total, start + max(1, entries // (n * n))))
        start += len(pos)
        entries = min(2 * entries, _CHUNK_CAP)
        pair, ef = np.divmod(pos, k * k)
        i, j = np.divmod(ef, k)
        e, f = idem[i], idem[j]
        big_x = table[table[e, qs[pair]], f]
        big_y = table[table[e, ss[pair]], f]
        cls = (i * n + big_x) * n + big_y          # class id of each position
        new = np.nonzero(~held[cls])[0]
        if len(new) == 0:
            continue
        cls_new = cls[new]
        owner[cls_new] = len(pos)
        np.minimum.at(owner, cls_new, new)
        first = new[owner[cls_new] == new]         # each new class's first position
        e_c = e[first][:, None]
        x_c = big_x[first]
        x = table[table[x_c], e_c]                 # [c, r] -> X r e
        y = table[table[big_y[first]], e_c]        # [c, t] -> Y t e
        x_om, y_om = omega[x], omega[y]
        lhs = table[x_om[:, :, None], table[y_om, y][:, None, :]]
        head = table[x_om, x_c[:, None]]           # (Xre)^ω X
        rhs = table[table[head], y_om[:, None, :]]
        neq = lhs != rhs
        bad = neq.reshape(len(first), -1).any(axis=1)
        if not bad.any():
            held[cls[first]] = True
            continue
        # classes met before held, so the first failing class's first
        # position is the first violation
        b = int(np.argmax(bad))
        p = int(first[b])
        q, s = int(qs[pair[p]]), int(ss[pair[p]])
        e_p, f_p = int(e[p]), int(f[p])
        r, t = divmod(int(np.argmax(neq[b])), n)
        u, v = _pair_words(m, rel, q, s)
        return Verdict(False, EQ_WGONE, ViolationWitness(
            elements={"q": q, "r": r, "s": s, "t": t, "e": e_p, "f": f_p},
            words={"q": u, "r": m.witness[r], "s": v,
                   "t": m.witness[t], "e": m.witness[e_p], "f": m.witness[f_p]},
            lhs=int(lhs[b, r, t]),
            rhs=int(rhs[b, r, t]),
        ))
    return Verdict(True, EQ_WGONE)


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
    block, split along (e, f) past _CHUNK_CAP entries: a block's first
    entry in C order is the first violation of the q, s, e, f, r, t sweep."""
    table = np.ascontiguousarray(m.table, dtype=np.int32)
    omega = _omega_all(m)
    sub = np.fromiter(sorted(m.nonempty_image), dtype=np.int32,
                      count=len(m.nonempty_image))
    idem = np.asarray(m.idempotents_s, dtype=np.int32)
    e_of = np.repeat(idem, len(idem))[:, None]    # [(e, f), 1] -> e
    f_of = np.tile(idem, len(idem))[:, None]      # [(e, f), 1] -> f
    step = max(1, _CHUNK_CAP // max(1, len(sub) ** 2))

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
    if equation == EQ_GONE:
        q, r, s, t = (elements[k] for k in "qrst")
        qr_om = om(t_(q, r))
        st, st_om = t_(s, t), om(t_(s, t))
        return t_(qr_om, t_(st_om, st)), t_(t_(t_(qr_om, q), t), st_om)
    if equation == EQ_WGONE or equation == EQ_KNAST:
        q, r, s, t = (elements[k] for k in "qrst")
        e, f = elements["e"], elements["f"]
        x = t_(t_(t_(t_(e, q), f), r), e)
        y = t_(t_(t_(t_(e, s), f), t), e)
        x_om, y_om = om(x), om(y)
        left_tail = t_(y_om, y) if equation == EQ_WGONE else y_om
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
