"""Reference scalar constructors and substitution, as they were before
atom normalization moved into the `scalars` cores, before `s_subst`
folded an atom in the substituted variable alone, under a ground value,
to its truth value by arithmetic (`scalars.fold_atom`), and before it
handed the cores the parts of each substituted atom
(`scalars.subst_parts`).

The atom constructors here normalize an expression that is already
built: `lin_subst` builds the substituted expression with `lin`, a
negated literal is negated through `lin_neg` and `mk_le`, and every atom
that `s_subst` touches goes through `lin_subst` and these constructors,
which build the ground expression, charge the budget once and evaluate
it.  `lin_add` and `lin_scale` are the expression arithmetic the
library no longer has; `reference_qe.cooper` adds its shifts with
`lin_add`.  Tests compare the library against them: the same interned
node and the same budget charge.  Nothing here is fast; it is the old
code kept as a specification.
"""

import math

from oagkit.errors import FormulaError
from oagkit.scalars import (FALSE, TRUE, LinExpr, SAnd, SBool, SCongr, SEq,
                            SExists, SLt, SNot, SOr, _charge, atom_kind, lin,
                            lin_const, lin_neg, mk_and, mk_exists, mk_forall,
                            mk_not, mk_or)


def lin_add(a, b):
    return lin(a.coeffs + b.coeffs, a.const + b.const)


def lin_scale(k, a):
    if k == 0:
        return lin_const(0)
    return LinExpr(tuple((v, k * c) for v, c in a.coeffs), k * a.const)


def lin_subst(e, v, repl, den=1):
    """den * e with v replaced by repl/den (den > 0); e itself when v
    does not occur."""
    c = e.coeff(v)
    if c == 0:
        return e
    rest = [(w, den * k) for w, k in e.coeffs if w != v]
    return lin(rest + [(w, c * k) for w, k in repl.coeffs],
               den * e.const + c * repl.const)


def _content(e):
    return math.gcd(*(abs(c) for _, c in e.coeffs)) if e.coeffs else 0


def mk_lt(g, e):
    _charge()
    if e.is_ground():
        return SBool(e.const < 0)
    d = _content(e)
    if atom_kind(g, e) != "Z":
        d = math.gcd(d, e.const)
    coeffs = tuple((v, c // d) for v, c in e.coeffs)
    return SLt(LinExpr(coeffs, e.const // d))


def mk_le(g, e):
    if e.is_ground():
        return SBool(e.const <= 0)
    if atom_kind(g, e) == "Z":
        return mk_lt(g, lin_add(e, lin_const(-1)))
    return mk_or([mk_lt(g, e), mk_eq(g, e)])


def mk_eq(g, e):
    _charge()
    if e.is_ground():
        return SBool(e.const == 0)
    kind = atom_kind(g, e)
    d = _content(e)
    if e.const % d:
        if kind == "Z":
            return FALSE
        d = math.gcd(d, e.const)
    coeffs = tuple((v, c // d) for v, c in e.coeffs)
    const = e.const // d
    if coeffs[0][1] < 0:
        coeffs = tuple((v, -c) for v, c in coeffs)
        const = -const
    return SEq(LinExpr(coeffs, const))


def mk_congr(g, m, e):
    _charge()
    if m < 1:
        raise FormulaError(f"congruence modulus {m} must be >= 1")
    if e.is_ground():
        return SBool(e.const % m == 0)
    if atom_kind(g, e) == "Q":
        return TRUE
    d = math.gcd(_content(e), m)
    if e.const % d:
        return FALSE
    m //= d
    if m == 1:
        return TRUE
    reduced = lin(((v, k // d % m) for v, k in e.coeffs), e.const // d % m)
    if reduced.is_ground():
        return SBool(reduced.const == 0)
    return SCongr(m, reduced)


def negate(g, atom):
    """The negation normal form of not atom, for an SLt or SEq, as
    `qe.nnf` built it."""
    if isinstance(atom, SLt):
        return mk_le(g, lin_neg(atom.expr))
    return mk_or([mk_lt(g, atom.expr), mk_lt(g, lin_neg(atom.expr))])


def s_subst(g, f, v, repl, den=1, _memo=None):
    """Substitute repl/den (den > 0) for v, renormalizing every atom that
    mentions v through its constructor."""
    if v not in f.fv:
        return f
    if _memo is None:
        _memo = {}
    hit = _memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, SLt):
        out = mk_lt(g, lin_subst(f.expr, v, repl, den))
    elif isinstance(f, SEq):
        out = mk_eq(g, lin_subst(f.expr, v, repl, den))
    elif isinstance(f, SCongr):
        out = mk_congr(g, f.modulus, lin_subst(f.expr, v, repl, den))
    elif isinstance(f, SNot):
        out = mk_not(s_subst(g, f.body, v, repl, den, _memo))
    elif isinstance(f, SAnd):
        out = mk_and(s_subst(g, it, v, repl, den, _memo) for it in f.items)
    elif isinstance(f, SOr):
        out = mk_or(s_subst(g, it, v, repl, den, _memo) for it in f.items)
    else:
        if f.var == v or f.var in repl.vars_set:
            raise FormulaError("substitution under a capturing quantifier")
        body = s_subst(g, f.body, v, repl, den, _memo)
        ctor = mk_exists if isinstance(f, SExists) else mk_forall
        out = ctor(f.var, body)
    _memo[f] = out
    return out
