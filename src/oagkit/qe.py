"""Quantifier elimination and the decision procedures built on it.

A group formula is lowered to per-coordinate scalar form, then
quantifiers are eliminated innermost first: Cooper's method on discrete
coordinates (coefficient normalization by the lcm, divisibility
literals, the minus-infinity rows, and the smaller of the two bound
sides), and virtual-substitution over test points (minus infinity, each
root, each root plus epsilon) on dense coordinates, which carry no
congruences.

Sentences are projected: `decide` and `eliminate` run the eliminations
above, except that a closed block over the coordinates of one group
variable is walked.  A formula whose only free variable is one group
variable is eliminated once (`qf_form`), and satisfiable, equivalent,
entails (which close any other formula into a sentence and decide it)
and witness ask that form's cell model (`cells`).

While a high-level operation runs (those four, `code_set`,
`reconstruct`, `nice_decompose`, `end_hull`, `to_div_segment`,
`generic_type`, `generic_type_trace`, `check_descriptor`; see
`scalars.operation_scope`), `_eliminate_block` remembers its answers in
the operation's memo, keyed on the group, the variable block and the
body node.  Group specs, formulas and scalar nodes are all interned
(`errors.Record`, `scalars`), so every memo key hashes and compares by
identity, in C.  The answer is a pure function of the key, so the memo
changes no answer.  The memo is thread-local, has no option or size
limit, and is dropped when the outermost operation returns or raises.
Outside an operation nothing is memoized.  (`formulas.lower` keeps the
scalar form of each atom in the same memo, under a key tagged "lower",
and `cells` its cell models and walks.)

A quantifier-free form is rewritten two ways: `scalars.map_atoms` maps
each atom in one variable (Cooper's normalization and infinity rows,
the dense minus-infinity and root-plus-epsilon rows, `cells.pin`), and
`scalars.s_subst` substitutes a term for the variable (Cooper's shifted
and bound rows, the window rows, the dense root rows); its atoms, and
the root-plus-epsilon rows', are built once, by their cores from the
parts `scalars.subst_parts` computes.  Negation normal form, the atom
map, miniscoping, the window ranges and elimination itself run on
`scalars.walk`, with one memo per call keyed on the node (for `nnf`, on
the node and its polarity), and stop at a first FALSE conjunct or TRUE
disjunct.  Cooper's method and the dense projection yield their
disjuncts lazily, so `mk_or` stops substituting at the first true one.
Cooper's method substitutes its infinity rows first, building each
shift constant when its row needs it, and a true row answers the whole
disjunction before any bound row is built; otherwise the disjuncts come
in the interleaved order (each row, then its bound rows), so the answer
is the same node either way, and a repeated bound row, a disjunct
`mk_or` drops, is not substituted again.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Optional

from . import formulas as fm
from . import scalars as sc
from .cells import cells_of, holds_somewhere, near_zero, same_points
from .errors import FormulaError, Record
from .groups import Element, GroupSpec, element
from .scalars import (
    FALSE, TRUE, Join, SAnd, SBool, SCongr, SEq, SExists, SForall, SFormula,
    SLt, SNot, SOr, SVar, atoms, budget_scope, kind_of, lin_const, lin_neg,
    lin_var, map_atoms, mk_and, mk_congr, mk_le, mk_lt, mk_not, mk_or,
    operation, operation_memo, s_is_qf, s_subst, walk,
)


class QfFormula(Record):
    """Elimination result: a quantifier-free scalar formula together
    with the group and the surviving free group variables."""

    group: GroupSpec
    free: tuple
    body: SFormula


# --- negation normal form ---------------------------------------------------


_sole = itemgetter(0)


def nnf(g: GroupSpec, f: SFormula, positive: bool = True) -> SFormula:
    """Push negations to literals.  Positive output contains SLt, SEq,
    SCongr and negated SCongr only; discrete sorts absorb the
    trichotomy rewrites exactly, dense sorts split into disjunctions.
    Walked on (node, polarity) keys."""
    def step(key):
        f, positive = key
        cls = f.__class__
        if cls is SBool:
            return SBool(f.value == positive)
        if positive and (cls is SLt or cls is SEq or cls is SCongr):
            return f
        if cls is SLt:
            e = f.expr
            if sc.is_discrete(g, e):  # not (e < 0) iff -e - 1 < 0: one build
                return sc.lt_core(True, tuple((v, -c) for v, c in e.coeffs),
                                  -e.const - 1, sc._content(e))
            return mk_le(g, lin_neg(e))
        if cls is SEq:
            return mk_or([mk_lt(g, f.expr), mk_lt(g, lin_neg(f.expr))])
        if cls is SCongr:
            return SNot(f)
        if cls is SNot:
            return Join(_sole, ((f.body, not positive),))
        if cls is SAnd or cls is SOr:
            keys = [(it, positive) for it in f.items]
            if (cls is SAnd) == positive:
                return Join(mk_and, keys, FALSE)
            return Join(mk_or, keys, TRUE)
        raise FormulaError("negation normal form expects a quantifier-free "
                           f"formula, got {cls.__name__}")

    return walk((f, positive), step)


def _root(e: sc.LinExpr, v: SVar) -> tuple:
    """(repl, den) with den > 0 and e = 0 at v = repl/den."""
    a = e.coeff(v)
    rest = sc.LinExpr(tuple(p for p in e.coeffs if p[0] is not v), e.const)
    return (rest, -a) if a < 0 else (lin_neg(rest), a)


def _window_rows(g: GroupSpec, f: SFormula, v: SVar, lo, hi) -> SFormula:
    """The disjunction of f at v = lo..hi; `mk_or` stops substituting at
    a first TRUE row."""
    return mk_or(s_subst(g, f, v, lin_const(t)) for t in range(lo, hi + 1))


# --- Cooper elimination on a discrete coordinate ----------------------------


def _cooper(g: GroupSpec, v: SVar, f: SFormula) -> SFormula:
    # equations on v become conjunctions of bounds so that only strict
    # inequalities and congruence literals mention v
    def split_eq(lit):
        if isinstance(lit, SEq):
            return mk_and([mk_le(g, lit.expr), mk_le(g, lin_neg(lit.expr))])
        return lit

    f = map_atoms(f, split_eq, v)

    delta = math.lcm(*[abs(a) for lit in atoms(f) if (a := lit.expr.coeff(v))])

    # substitute y = delta * v: every coefficient of y becomes +-1
    def rescale(lit):
        a = lit.expr.coeff(v)
        lam = delta // abs(a)
        coeffs = tuple((w, lam * c) if w != v else (w, 1 if a > 0 else -1)
                       for w, c in lit.expr.coeffs)
        expr = sc.LinExpr(coeffs, lam * lit.expr.const)
        if isinstance(lit, SLt):
            return SLt(expr)
        return mk_congr(g, lam * lit.modulus, expr)

    f = map_atoms(f, rescale, v)
    f = mk_and([f, mk_congr(g, delta, lin_var(v))])

    lowers, uppers = [], []
    period = 1
    for lit in atoms(f):
        a = lit.expr.coeff(v)
        if a == 0:
            continue
        if isinstance(lit, SCongr):
            period = math.lcm(period, lit.modulus)
        else:  # y + r < 0 means y < -r, -y + r < 0 means r < y: the root
            (uppers if a == 1 else lowers).append(_root(lit.expr, v)[0])

    use_lowers = len(lowers) <= len(uppers)

    def at_infinity(lit):
        if isinstance(lit, SLt):
            # at -inf every upper bound holds and every lower fails;
            # dually at +inf
            return SBool((lit.expr.coeff(v) == 1) == use_lowers)
        return lit

    row = map_atoms(f, at_infinity, v)
    if row is sc.TRUE:
        return row
    bounds = lowers if use_lowers else uppers
    sign = 1 if use_lowers else -1

    # the infinity rows first: any true one decides the disjunction
    # before a bound row is built; a FALSE row adds no disjunct
    shifts = range(sign, sign * (period + 1), sign)
    if row is sc.FALSE:
        rows = ((row, shift) for shift in shifts) if bounds else ()
    else:
        rows = []
        for shift in shifts:
            r = s_subst(g, row, v, lin_const(shift))
            if r is sc.TRUE:
                return r
            rows.append((r, shift))

    # the same disjuncts in the same order as an interleaved walk, the
    # rows reused; yielded lazily: mk_or stops at the first true one, and
    # drops a bound row that repeats (bounds a shift apart), so it is not
    # substituted again
    def pieces():
        seen = set()
        for r, shift in rows:
            yield r
            for b in bounds:
                repl = sc.LinExpr(b.coeffs, b.const + shift)
                if repl not in seen:
                    seen.add(repl)
                    yield s_subst(g, f, v, repl)

    return mk_or(pieces())


# --- dense elimination on a divisible coordinate ----------------------------


def _dense(g: GroupSpec, v: SVar, f: SFormula) -> SFormula:
    # each distinct root of an atom a*v + rest, as the substitution
    # v = repl/den with den > 0
    roots = {}
    for lit in atoms(f):
        a = lit.expr.coeff(v)
        if a == 0:
            continue
        if isinstance(lit, SCongr):
            raise AssertionError("dense coordinates carry no congruences")
        repl, den = _root(lit.expr, v)
        k = math.gcd(den, repl.const, *(c for _, c in repl.coeffs))
        key = (den // k, tuple((w, c // k) for w, c in repl.coeffs),
               repl.const // k)
        roots.setdefault(key, (repl, den))

    def at_minus_inf(lit):
        if isinstance(lit, SEq):
            return FALSE
        return SBool(lit.expr.coeff(v) > 0)

    def past_root(repl, den, lit):
        # the atom at the root nudged right by an infinitesimal: an
        # equation fails, and a decreasing atom is < or = at the root
        if isinstance(lit, SEq):
            return FALSE
        parts = sc.subst_parts(g, lit.expr, v, repl, den)
        if lit.expr.coeff(v) < 0:
            return mk_or([sc.lt_core(*parts), sc.eq_core(*parts)])
        return sc.lt_core(*parts)

    def pieces():
        yield map_atoms(f, at_minus_inf, v)
        for repl, den in roots.values():
            yield s_subst(g, f, v, repl, den)
            yield map_atoms(f, partial(past_root, repl, den), v)

    return mk_or(pieces())


# --- the driver -------------------------------------------------------------


def _eliminate_block(g: GroupSpec, block: list, body: SFormula) -> SFormula:
    """Existentially project a run of variables.  Projection order is free
    inside one block, so variables pinned to a small window go first:
    substituting them folds guard atoms to constants, which usually
    uncovers windows for the remaining coordinates.  When none is left
    and the block is closed and over one group variable, each atom of
    the body mentions one coordinate, and the walk answers it
    (`cells.holds_somewhere`); other blocks go to Cooper's method and the
    dense projection.  Memoized in the open operation's memo."""
    memo = operation_memo()
    key = (g, tuple(block), body)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    body = nnf(g, body)
    # fv only shrinks, so a variable the body lacks is never projected:
    # leaving it out skips a scan per variable of a long vacuous block
    remaining = [v for v in block if v in body.fv]
    while remaining:
        best = None
        for v in remaining:
            if kind_of(g, v) != "Z" or v not in body.fv:
                continue
            w = _constant_window(v, body)
            if w is not None and (best is None or w[1] - w[0] < best[2]):
                best = (v, w, w[1] - w[0])
        if best is not None:
            v, (lo, hi), _ = best
            remaining.remove(v)
            body = _window_rows(g, body, v, lo, hi)
        elif body.fv <= set(block) and len({w.base for w in block}) == 1:
            body = SBool(holds_somewhere(g, body))
            break
        else:
            v = remaining.pop()
            body = _miniscope(g, v, body)
    if memo is not None:
        memo[key] = body
    return body


def _miniscope(g: GroupSpec, v: SVar, body: SFormula) -> SFormula:
    # shrink the scope before projecting: the existential distributes
    # over disjunction, and conjuncts without v move outside untouched;
    # each slice then rescales by its own, usually much smaller, lcm
    def step(node):
        if v not in node.fv:
            return node
        cls = node.__class__
        if cls is SOr:
            return Join(mk_or, node.items, TRUE)
        if cls is SAnd:
            outside = [it for it in node.items if v not in it.fv]
            if outside:
                inside = mk_and([it for it in node.items if v in it.fv])
                return Join(lambda rs: mk_and(outside + rs), (inside,))
        if kind_of(g, v) == "Z":
            window = _constant_window(v, node)
            if window is not None:
                return _window_rows(g, node, v, *window)
            return _cooper(g, v, node)
        return _dense(g, v, node)

    return walk(body, step)


_WINDOW_CAP = 64

_UNBOUNDED = (None, None)
_VOID = (0, -1)


def _meet(ranges):
    lo = hi = None
    for r in ranges:
        if r is _VOID:
            return _VOID
        if r[0] is not None:
            lo = r[0] if lo is None else max(lo, r[0])
        if r[1] is not None:
            hi = r[1] if hi is None else min(hi, r[1])
    if lo is not None and hi is not None and lo > hi:
        return _VOID
    return (lo, hi)


def _hull(ranges):
    parts = [r for r in ranges if r is not _VOID]
    if not parts:
        return _VOID
    los, his = zip(*parts)
    return (None if None in los else min(los),
            None if None in his else max(his))


def _constant_window(v: SVar, body: SFormula):
    """Closed integer interval that constant-side bounds pin v into,
    when it has at most _WINDOW_CAP points (_VOID when none); None
    otherwise.  The walk over-approximates the values of v satisfying
    each subformula by an interval, None on a side meaning unbounded, so
    the window is sound."""
    def step(node):
        cls = node.__class__
        if cls is SBool:
            return _UNBOUNDED if node.value else _VOID
        if cls is SLt or cls is SEq:
            a, c = node.expr.coeff(v), node.expr.const
            if a == 0 or any(w != v for w, _ in node.expr.coeffs):
                return _UNBOUNDED
            # a*v + c = 0, a*v + c < 0 with a > 0, and with a < 0
            if cls is SEq:
                return (-c // a, -c // a) if c % a == 0 else _VOID
            if a > 0:
                return (None, -(c // a) - 1)
            return (c // -a + 1, None)
        if cls is SAnd:
            return Join(_meet, node.items, _VOID)
        if cls is SOr:
            return Join(_hull, node.items)
        return _UNBOUNDED

    lo, hi = walk(body, step)
    if lo is None or hi is None or hi - lo + 1 > _WINDOW_CAP:
        return None
    return (lo, hi)


def eliminate_scalar(g: GroupSpec, f: SFormula) -> SFormula:
    """Quantifier-free equivalent of an arbitrary scalar formula."""
    def step(node):
        cls = node.__class__
        if cls is SBool or cls is SLt or cls is SEq or cls is SCongr:
            return node
        if cls is SNot:
            return Join(lambda rs: mk_not(rs[0]), (node.body,))
        if cls is SAnd:
            return Join(mk_and, node.items, FALSE)
        if cls is SOr:
            return Join(mk_or, node.items, TRUE)
        if cls is SExists or cls is SForall:
            block, inner = [node.var], node.body
            while inner.__class__ is cls:
                block.append(inner.var)
                inner = inner.body
            if cls is SExists:
                return Join(lambda rs: _eliminate_block(g, block, rs[0]),
                            (inner,))
            return Join(lambda rs: mk_not(
                _eliminate_block(g, block, mk_not(rs[0]))), (inner,))
        raise FormulaError(f"unknown scalar node {node!r}")

    return walk(f, step)


def eliminate(g: GroupSpec, f: fm.Formula,
              budget: Optional[int] = None) -> QfFormula:
    """Lower a group formula and eliminate all its quantifiers."""
    free = tuple(sorted(fm.free_vars(f)))
    with budget_scope(budget):
        body = eliminate_scalar(g, fm.lower(g, f))
    if not s_is_qf(body):
        raise AssertionError("elimination left a quantifier")
    return QfFormula(g, free, body)


def decide(g: GroupSpec, f: fm.Formula, budget: Optional[int] = None) -> bool:
    """Truth value of a sentence."""
    free = fm.free_vars(f)
    if free:
        raise FormulaError(
            f"decide needs a sentence; free variables: {sorted(free)}")
    out = eliminate(g, f, budget).body
    if not isinstance(out, SBool):
        raise AssertionError("closed elimination must ground out")
    return out.value


def _close(f: fm.Formula, ctor) -> fm.Formula:
    for v in sorted(fm.free_vars(f), reverse=True):
        f = ctor(v, f)
    return f


def qf_form(g: GroupSpec, f: fm.Formula) -> SFormula:
    """f lowered, with every quantifier eliminated."""
    return eliminate_scalar(g, fm.lower(g, f))


@operation
def satisfiable(g: GroupSpec, f: fm.Formula,
                budget: Optional[int] = None) -> bool:
    """Whether f holds somewhere: by the walk when f has one free
    variable, else by deciding its existential closure."""
    if len(fm.free_vars(f)) != 1:
        return decide(g, _close(f, fm.Exists), budget)
    with budget_scope(budget):
        return holds_somewhere(g, qf_form(g, f))


@operation
def equivalent(g: GroupSpec, a: fm.Formula, b: fm.Formula,
               budget: Optional[int] = None) -> bool:
    """Whether a and b hold at the same points: by the walk when they
    have one free variable, else by deciding the closed biconditional."""
    if len(fm.free_vars(a) | fm.free_vars(b)) != 1:
        return decide(g, _close(fm.Iff(a, b), fm.Forall), budget)
    with budget_scope(budget):
        return same_points(g, qf_form(g, a), qf_form(g, b))


@operation
def entails(g: GroupSpec, a: fm.Formula, b: fm.Formula,
            budget: Optional[int] = None) -> bool:
    """Whether b holds wherever a does: by the walk when they have one
    free variable, else by deciding the closed implication."""
    if len(fm.free_vars(a) | fm.free_vars(b)) != 1:
        return decide(g, _close(fm.Implies(a, b), fm.Forall), budget)
    with budget_scope(budget):
        return not holds_somewhere(
            g, mk_and([qf_form(g, a), mk_not(qf_form(g, b))]))


# --- witness extraction -----------------------------------------------------


@operation
def witness(g: GroupSpec, f: fm.Formula,
            budget: Optional[int] = None) -> Optional[Element]:
    """A satisfying element of an existential with one named variable:
    input Exists(x, phi) where phi has no free variable but x.

    phi is eliminated once.  Coordinates are then fixed most significant
    first: among the cells of x.j (`cells.Cells`) whose fibre holds
    somewhere, with x.1..x.(j-1) pinned, x.j takes the point of least
    (|t|, t < 0) (`Cells.least_point`), and the next coordinate is
    read off that point's fibre.  None when the set is empty."""
    if not isinstance(f, fm.Exists):
        raise FormulaError("witness expects an existential formula")
    var, phi = f.var, f.body
    if fm.free_vars(phi) - {var}:
        raise FormulaError(
            f"witness body must have exactly the free variable '{var}'")
    with budget_scope(budget):
        psi = qf_form(g, phi)
        picked = []
        for j in range(1, g.n + 1):
            cells = cells_of(g, psi, SVar(var, j))
            points = [cells.least_point(t, lo, hi)
                      for t, lo, hi in cells.pieces()
                      if holds_somewhere(g, cells.fibre(t))]
            if not points:
                return None
            picked.append(min(points, key=near_zero))
            psi = cells.fibre(picked[-1])
    return element(g, picked) if psi is sc.TRUE else None

