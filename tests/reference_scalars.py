"""Reference scalar substitution: `s_subst` as it was before an atom in
the substituted variable alone, under a ground value, folded to its
truth value by arithmetic (`scalars.fold_atom`).  Every atom that
mentions the variable goes through `lin_subst` and the atom
constructors, which build the ground expression, charge the budget once
and evaluate it.  Tests compare `scalars.s_subst` and `qe._pin` against
it: the same node and the same budget charge.  Nothing here is fast; it
is the old code kept as a specification.
"""

from oagkit.errors import FormulaError
from oagkit.scalars import (SAnd, SCongr, SEq, SExists, SLt, SNot, SOr,
                            lin_subst, mk_and, mk_congr, mk_eq, mk_exists,
                            mk_forall, mk_lt, mk_not, mk_or)


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
