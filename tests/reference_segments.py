"""Reference nice decomposition: the elimination-based emptiness test
and the decide-based pruning, merging and closing checks that
`oagkit.segments.nice_decompose` replaced.

`holds_somewhere` closes a quantifier-free form existentially and
eliminates it, so `same_points`, `fibre_changes` and `eventual_period`
here (the references for `cells.same_points`, `Cells.changes` and
`Cells.period`) compare fibres by elimination; `nice_decompose` scans
with them, then prunes and merges its pieces with `equivalent` and
checks them with `satisfiable` and `equivalent`.  Tests compare the
library against all of it.  Nothing here is fast; it is the old code kept as a
specification.
"""

from fractions import Fraction
from math import ceil, floor, lcm

from oagkit import formulas as fm
from oagkit.qe import eliminate_scalar
from oagkit.scalars import (TRUE, SVar, mk_and, mk_exists, mk_not, mk_or,
                            operation, roots_and_modulus)
from oagkit.segments import (END, GE, GT, INITIAL, CongrLiteral,
                             DivSegment, NiceSet, _piece_key,
                             canonical_restriction,
                             full_end_segment, full_initial_segment, pad,
                             the_var)
from reference_qe import equivalent, s_subst_all, satisfiable


def holds_somewhere(g, f) -> bool:
    """Whether a quantifier-free scalar formula holds at some point:
    its existential closure, eliminated."""
    for w in sorted(f.fv, key=lambda w: (w.base, w.coord), reverse=True):
        f = mk_exists(w, f)
    return eliminate_scalar(g, f) is TRUE


def same_points(g, a, b) -> bool:
    if a is b:
        return True
    return not holds_somewhere(
        g, mk_or([mk_and([a, mk_not(b)]), mk_and([mk_not(a), b])]))


def fibre_changes(g, psi, x, m, r) -> list:
    roots, modulus = roots_and_modulus(psi, x)
    span = lcm(modulus, m) + m
    ends = {e for c in roots for e in (floor(c), ceil(c))} or {0}
    cands = set()
    for e in ends:
        cands.update(range(e - span + (r - e + span) % m, e + span + 1, m))
    fibre = {t: s_subst_all(g, psi, {x: t})
             for t in cands | {s + m for s in cands}}
    return [s for s in sorted(cands)
            if not same_points(g, fibre[s], fibre[s + m])]


def eventual_period(g, psi, x) -> int:
    roots, modulus = roots_and_modulus(psi, x)

    def between_roots(s, m):
        return bool(roots) and roots[0] <= s + m and s <= roots[-1]

    for m in range(1, modulus + 1):
        if modulus % m == 0 and all(
                between_roots(s, m)
                for r in range(m) for s in fibre_changes(g, psi, x, m, r)):
            return m
    raise AssertionError("the lcm of the moduli must be an eventual period")


class _RawPiece:
    """Partial piece during decomposition: missing sides are inherited
    from the enclosing pins when the recursion unwinds."""

    __slots__ = ("upper", "lower", "lits")

    def __init__(self, upper, lower, lits):
        self.upper = upper
        self.lower = lower
        self.lits = lits


@operation
def nice_decompose(g, phi, var=None) -> tuple:
    """The fibre scan with elimination-based comparisons, then pruning,
    merging and the two closing checks, each an `equivalent` or
    `satisfiable` decide."""
    v = the_var(g, phi, var)
    qf = eliminate_scalar(g, fm.lower(g, phi))
    xs = [SVar(v, i) for i in range(1, g.n + 1)]
    memo: dict = {}

    def rec(pin) -> list:
        hit = memo.get(pin)
        if hit is not None:
            return hit
        j = len(pin) + 1
        psi = s_subst_all(g, qf, dict(zip(xs, pin)))
        if not holds_somewhere(g, psi):
            out = []
        elif j > g.n:
            out = [_RawPiece(None, None, ())]
        elif g.kinds[j - 1] == "Z":
            out = rec_discrete(pin, psi)
        else:
            out = rec_dense(pin, psi)
        memo[pin] = out
        return out

    def check_ray_lits(fps, m: int) -> None:
        for fp in fps:
            if fp.upper is not None or fp.lower is not None:
                raise AssertionError("limiting fibres carry no bounds")
            if any(m % lit.modulus for lit in fp.lits):
                raise AssertionError(
                    "fibre moduli must divide the class modulus")

    def rec_discrete(pin, psi) -> list:
        j = len(pin) + 1
        x = xs[j - 1]
        m_star = eventual_period(g, psi, x)
        moduli = m_star
        for r in range(m_star):
            changes = fibre_changes(g, psi, x, m_star, r)
            reps = (changes[-1] + m_star, changes[0]) if changes else (r,)
            for t in reps:
                for fp in rec(pin + (t,)):
                    for lit in fp.lits:
                        moduli = lcm(moduli, lit.modulus)
        m_d = moduli
        out: list = []
        for r in range(m_d):
            cls_lit: tuple = ()
            if m_d > 1:
                cls_lit = (CongrLiteral(1, 1, j, m_d, pad(g, pin + (r,)), 0),)
            changes = fibre_changes(g, psi, x, m_d, r)
            if not changes:
                fps = rec(pin + (r,))
                check_ray_lits(fps, m_d)
                for fp in fps:
                    out.append(_RawPiece(None, None, cls_lit + fp.lits))
                continue
            a_hat, b_hat = changes[-1] + m_d, changes[0]
            fps = rec(pin + (a_hat,))
            check_ray_lits(fps, m_d)
            for fp in fps:
                out.append(_RawPiece((j, pad(g, pin + (a_hat,)), GE),
                                     None, cls_lit + fp.lits))
            fps = rec(pin + (b_hat,))
            check_ray_lits(fps, m_d)
            for fp in fps:
                out.append(_RawPiece(None, (j, pad(g, pin + (b_hat,)), GE),
                                     cls_lit + fp.lits))
            a = b_hat + m_d
            while a < a_hat:
                for fp in rec(pin + (a,)):
                    up = fp.upper or (j, pad(g, pin + (a,)), GE)
                    low = fp.lower or (j, pad(g, pin + (a,)), GE)
                    out.append(_RawPiece(up, low, fp.lits))
                a += m_d
        return out

    def rec_dense(pin, psi) -> list:
        j = len(pin) + 1
        x = xs[j - 1]
        roots, _ = roots_and_modulus(psi, x)

        def fibre(t):
            return s_subst_all(g, psi, {x: t})

        def interval_rep(lo, hi):
            if lo is None and hi is None:
                return Fraction(0)
            if lo is None:
                return hi - 1
            if hi is None:
                return lo + 1
            return (lo + hi) / 2

        survivors = []
        for i, c in enumerate(roots):
            left = roots[i - 1] if i > 0 else None
            right = roots[i + 1] if i + 1 < len(roots) else None
            here = fibre(c)
            if not (same_points(g, fibre(interval_rep(left, c)), here)
                    and same_points(g, here, fibre(interval_rep(c, right)))):
                survivors.append(c)

        out: list = []
        cuts = [None] + survivors + [None]
        for lo, hi in zip(cuts, cuts[1:]):
            w = interval_rep(lo, hi)
            for fp in rec(pin + (w,)):
                if fp.upper is not None or fp.lower is not None:
                    raise AssertionError("interval fibres carry no bounds")
                up = None if lo is None else (j, pad(g, pin + (lo,)), GT)
                low = None if hi is None else (j, pad(g, pin + (hi,)), GT)
                out.append(_RawPiece(up, low, fp.lits))
        for c in survivors:
            for fp in rec(pin + (c,)):
                up = fp.upper or (j, pad(g, pin + (c,)), GE)
                low = fp.lower or (j, pad(g, pin + (c,)), GE)
                out.append(_RawPiece(up, low, fp.lits))
        return out

    pieces = []
    for rp in rec(()):
        upper = DivSegment(END, 1, *rp.upper) if rp.upper \
            else full_end_segment()
        lower = DivSegment(INITIAL, 1, *rp.lower) if rp.lower \
            else full_initial_segment()
        pieces.append(NiceSet(upper, lower, canonical_restriction(g, rp.lits)))

    def prune(ns: NiceSet) -> NiceSet:
        lits = list(ns.congr)
        i = 0
        while i < len(lits):
            trimmed = NiceSet(ns.upper, ns.lower,
                              tuple(lits[:i] + lits[i + 1:]))
            if equivalent(g, trimmed.denote(g, v),
                          NiceSet(ns.upper, ns.lower,
                                  tuple(lits)).denote(g, v)):
                del lits[i]
            else:
                i += 1
        return NiceSet(ns.upper, ns.lower, tuple(lits))

    def try_merge(a: NiceSet, b: NiceSet):
        if a.congr != b.congr:
            return None
        union = fm.Or((a.denote(g, v), b.denote(g, v)))
        for up, low in ((a.upper, b.lower), (b.upper, a.lower)):
            cand = NiceSet(up, low, a.congr)
            if equivalent(g, union, cand.denote(g, v)):
                return cand
        return None

    while True:
        pieces = [prune(p) for p in pieces]
        pieces.sort(key=_piece_key)
        merged_any = False
        i = 0
        while i < len(pieces) - 1:
            cand = try_merge(pieces[i], pieces[i + 1])
            if cand is not None:
                pieces[i:i + 2] = [cand]
                merged_any = True
                i = max(i - 1, 0)
            else:
                i += 1
        if not merged_any:
            break

    for p in pieces:
        if not satisfiable(g, p.denote(g, v)):
            raise AssertionError("nice pieces must be nonempty")
    if pieces:
        union = fm.Or(tuple(p.denote(g, v) for p in pieces)) \
            if len(pieces) > 1 else pieces[0].denote(g, v)
        if not equivalent(g, union, phi):
            raise AssertionError("decomposition must cover the set")
    return tuple(pieces)
