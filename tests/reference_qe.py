"""Reference witness extraction and one-variable questions: the nested
eliminations and candidate windows that `oagkit.qe.witness` replaced,
the closed sentences that `satisfiable`, `equivalent` and `entails`
decided before they walked the cells of one free variable, the
one-form cell walk and exclusive or that `cells._walk` replaced, and
the projection of every block by Cooper's method and the dense
projection that `qe.decide` ran before it walked a closed block over
one group variable, and `cooper`, Cooper's method as `qe._cooper` ran it
before it substituted each distinct bound row once.

`witness` fixes the coordinates most significant first.  For each one it
eliminates the deeper coordinates of the formula with the earlier ones
pinned, and scans a finite window of candidates derived from the roots
and moduli of that one-variable form: on Z every integer within the
period of 0 and of each root, on Q the roots, the midpoints between
them, one past each extreme root and 0.  Tests compare the library
against it.  `project_decide` lowers a sentence and projects every
quantifier block, innermost first, by windows and `qe._miniscope`
(Cooper's method on Z, the dense projection on Q), with no memo, as
`qe._eliminate_block` did for every block; tests compare `qe.decide`
against it, and the segment tests decide their own sentences with it.
The three questions close their formula and decide it with
`project_decide`, for any number of free variables; tests that check
the walking layers (`segments`, `codes`, `typegen`) use them as their
independent oracle.  `holds_somewhere` walks the cells of one form,
substituting each representative (`s_subst_all`) and evaluating a form
in one variable pointwise, and `same_points` asks it whether the
exclusive or of two forms holds somewhere; tests compare `cells.pin`,
`cells.holds_somewhere` and `cells.same_points` against them; the
substitution is `reference_scalars.s_subst`, which folds no atom by
arithmetic, so `pin`'s fold is checked against the atom constructors.
`cooper` builds each bound row's term with `reference_scalars.lin_add`
and substitutes every (bound, shift) pair, a repeated term too, through
`reference_scalars.s_subst`; tests compare `qe._cooper`'s node and
budget charge against it.  Nothing here is fast; it is the old code kept
as a specification.  `count_decides` counts the sentences the library
decides.
"""

import math
from fractions import Fraction

from oagkit import formulas as fm
from oagkit import qe
from oagkit import segments as sg
from oagkit import typegen as tg
from oagkit.errors import FormulaError
from oagkit.cells import line_cells
from oagkit.groups import element
from oagkit.qe import _constant_window, _miniscope, eliminate_scalar, nnf
from oagkit.scalars import (TRUE, FALSE, LinExpr, SAnd, SBool, SCongr, SEq,
                            SExists, SForall, SLt, SNot, SOr, SVar, atoms,
                            budget_scope, kind_of, lin_const, lin_neg,
                            lin_var, map_atoms, mk_and, mk_congr, mk_exists,
                            mk_le, mk_not, mk_or, roots_and_modulus, s_eval)
from reference_scalars import lin_add, s_subst


def s_subst_all(g, f, env):
    """Substitute integer or rational values for variables, one at a
    time in the order of env."""
    out = f
    for v, q in env.items():
        out = s_subst(g, out, v, lin_const(q.numerator), q.denominator)
    return out


def holds_somewhere(g, f) -> bool:
    """Whether a quantifier-free form, each of whose atoms mentions one
    variable, holds at some point: at the representative of some cell of
    its first variable, its substituted fibre holds somewhere, and a
    form in one variable is evaluated there."""
    if isinstance(f, SBool):
        return f.value
    x = min(f.fv, key=lambda w: (w.base, w.coord))
    discrete = g.kinds[x.coord - 1] == "Z"
    roots, modulus = roots_and_modulus(f, x, discrete)
    for t, _, _ in line_cells(discrete, roots, modulus):
        if len(f.fv) == 1:
            if s_eval(g, f, {x: t}):
                return True
        elif holds_somewhere(g, s_subst_all(g, f, {x: t})):
            return True
    return False


def same_points(g, a, b) -> bool:
    """Whether two such forms hold at the same points: their exclusive
    or holds nowhere."""
    if a is b:
        return True
    return not holds_somewhere(
        g, mk_or([mk_and([a, mk_not(b)]), mk_and([mk_not(a), b])]))


def _candidates_z(f, v) -> list:
    roots, period = roots_and_modulus(f, v)
    bases = {0}
    for root in roots:
        bases.add(math.floor(root))
        bases.add(math.ceil(root))
    out = set()
    for b in bases:
        for t in range(-period, period + 1):
            out.add(b + t)
    return sorted(out, key=lambda q: (abs(q), q < 0))


def _candidates_q(f, v) -> list:
    rs, _ = roots_and_modulus(f, v)
    if not rs:
        return [Fraction(0)]
    cands = set(rs)
    cands.add(rs[0] - 1)
    cands.add(rs[-1] + 1)
    for x, y in zip(rs, rs[1:]):
        cands.add(Fraction(x + y, 2))
    cands.add(Fraction(0))
    return sorted(cands, key=lambda q: (abs(q), q < 0))


def witness(g, f, budget=None):
    """A satisfying element of Exists(x, phi), phi with the free
    variable x alone, or None: each coordinate is the first candidate of
    its window at which the eliminated tail holds."""
    if not isinstance(f, fm.Exists):
        raise FormulaError("witness expects an existential formula")
    var, phi = f.var, f.body
    if fm.free_vars(phi) - {var}:
        raise FormulaError(
            f"witness body must have exactly the free variable '{var}'")
    with budget_scope(budget):
        low = fm.lower(g, phi)
        svars = [SVar(var, j) for j in range(1, g.n + 1)]
        picked: dict = {}
        current = low
        for j, v in enumerate(svars):
            tail = current
            for w in reversed(svars[j + 1:]):
                tail = mk_exists(w, tail)
            psi = eliminate_scalar(g, tail)
            if isinstance(psi, SBool):
                if not psi.value:
                    return None
                cands = [0]
            elif kind_of(g, v) == "Z":
                cands = _candidates_z(psi, v)
            else:
                cands = _candidates_q(psi, v)
            chosen = None
            for cand in cands:
                if s_eval(g, psi, {v: cand}):
                    chosen = cand
                    break
            if chosen is None:
                if j == 0:
                    return None
                raise AssertionError(
                    "candidate window missed a witness coordinate")
            picked[v] = chosen
            current = s_subst_all(g, current, {v: chosen})
        check = eliminate_scalar(g, current)
        if not isinstance(check, SBool):
            raise AssertionError("a pinned witness must ground out")
        if g.n == 0:
            return () if check.value else None
        if not check.value:
            raise AssertionError("the picked coordinates must satisfy the "
                                 "formula")
        return element(g, [picked[v] for v in svars])


def _close(f, ctor):
    for v in sorted(fm.free_vars(f), reverse=True):
        f = ctor(v, f)
    return f


def _project_block(g, block, body):
    """Existentially project a run of variables: a variable pinned to a
    small window first, by substituting each of its values, else the
    last one left, by `qe._miniscope`."""
    body = nnf(g, body)
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
            body = mk_or(s_subst(g, body, v, lin_const(t))
                         for t in range(lo, hi + 1))
        else:
            body = _miniscope(g, remaining.pop(), body)
    return body


def _project(g, f):
    """Quantifier-free equivalent of a scalar formula, projecting its
    maximal blocks of like quantifiers innermost first."""
    cls = f.__class__
    if cls is SExists or cls is SForall:
        block, inner = [f.var], f.body
        while inner.__class__ is cls:
            block.append(inner.var)
            inner = inner.body
        inner = _project(g, inner)
        if cls is SExists:
            return _project_block(g, block, inner)
        return mk_not(_project_block(g, block, mk_not(inner)))
    if cls is SNot:
        return mk_not(_project(g, f.body))
    if cls is SAnd:
        return mk_and([_project(g, it) for it in f.items])
    if cls is SOr:
        return mk_or([_project(g, it) for it in f.items])
    return f


def project_decide(g, f, budget=None):
    """Truth value of a sentence, every block projected (`_project`)."""
    if fm.free_vars(f):
        raise FormulaError("project_decide needs a sentence")
    with budget_scope(budget):
        out = _project(g, fm.lower(g, f))
    if not isinstance(out, SBool):
        raise AssertionError("closed elimination must ground out")
    return out.value


def satisfiable(g, f, budget=None):
    """Whether the existential closure of f is true."""
    return project_decide(g, _close(f, fm.Exists), budget)


def equivalent(g, a, b, budget=None):
    """Whether the universal closure of a <-> b is true."""
    return project_decide(g, _close(fm.Iff(a, b), fm.Forall), budget)


def entails(g, a, b, budget=None):
    """Whether the universal closure of a -> b is true."""
    return project_decide(g, _close(fm.Implies(a, b), fm.Forall), budget)


def count_decides(monkeypatch):
    """The list every `qe.decide` call is appended to, through any
    module that binds it."""
    calls = []
    real = qe.decide

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (qe, sg, tg):
        monkeypatch.setattr(mod, "decide", counting, raising=False)
    return calls


def cooper(g, v, f):
    """Cooper's method on a discrete v of a formula in negation normal
    form, as `qe._cooper` ran it: the infinity rows first, then each row
    followed by its bound rows, every bound plus every shift substituted."""
    def split_eq(lit):
        if isinstance(lit, SEq):
            return mk_and([mk_le(g, lit.expr), mk_le(g, lin_neg(lit.expr))])
        return lit

    f = map_atoms(f, split_eq, v)
    delta = 1
    for lit in atoms(f):
        a = lit.expr.coeff(v)
        if a:
            delta = math.lcm(delta, abs(a))

    def rescale(lit):
        a = lit.expr.coeff(v)
        lam = delta // abs(a)
        coeffs = tuple((w, lam * c) if w != v else (w, 1 if a > 0 else -1)
                       for w, c in lit.expr.coeffs)
        expr = LinExpr(coeffs, lam * lit.expr.const)
        if isinstance(lit, SLt):
            return SLt(expr)
        return mk_congr(g, lam * lit.modulus, expr)

    f = map_atoms(f, rescale, v)
    f = mk_and([f, mk_congr(g, delta, lin_var(v))])

    def without_v(e):
        return LinExpr(tuple(p for p in e.coeffs if p[0] is not v), e.const)

    lowers, uppers = [], []
    period = 1
    for lit in atoms(f):
        a = lit.expr.coeff(v)
        if a == 0:
            continue
        if isinstance(lit, SCongr):
            period = math.lcm(period, lit.modulus)
        elif a == 1:
            uppers.append(lin_neg(without_v(lit.expr)))
        else:
            lowers.append(without_v(lit.expr))
    use_lowers = len(lowers) <= len(uppers)

    def at_infinity(lit):
        if isinstance(lit, SLt):
            return SBool((lit.expr.coeff(v) == 1) == use_lowers)
        return lit

    row = map_atoms(f, at_infinity, v)
    if row is TRUE:
        return row
    bounds = lowers if use_lowers else uppers
    sign = 1 if use_lowers else -1
    shifts = (lin_const(sign * j) for j in range(1, period + 1))
    if row is FALSE:
        rows = ((row, shift) for shift in shifts) if bounds else ()
    else:
        rows = []
        for shift in shifts:
            r = s_subst(g, row, v, shift)
            if r is TRUE:
                return r
            rows.append((r, shift))

    def pieces():
        for r, shift in rows:
            yield r
            for b in bounds:
                yield s_subst(g, f, v, lin_add(b, shift))

    return mk_or(pieces())
