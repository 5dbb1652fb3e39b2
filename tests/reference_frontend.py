"""Reference front end: the per-character tokenizer, the token-object
s-expression reader and parser, and the term-level lowering that the
regex front end of `oagkit.formulas` replaced; and the recursive
printer, name sets, quantifier-free test, substitution, freshening and
lowering that its loops and `scalars.walk` steps replaced.

Tests compare the two on handwritten, mutated and generated inputs: the
same AST (`==` and `repr`), the same `ParseError` message, line and
column, the same text, and the same interned scalar node for every
lowered atom and formula.  `lower_atom_charged` is the atom lowering
that built each coordinate's difference before normalizing it, kept as
the reference for the node and the budget charge of each lowered atom.
Nothing here is fast, and the recursions stop at the interpreter's depth
limit; it is the old code kept as a specification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import reference_scalars as rs
from oagkit import formulas as fm
from oagkit import scalars as sc
from oagkit.errors import FormulaError, GroupError, ParseError
from oagkit.groups import GroupSpec, element, zero

MAX_DEPTH = fm.MAX_DEPTH


# --- tokenizer and reader ----------------------------------------------------


@dataclass(frozen=True)
class Tok:
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(Tok(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _err(msg: str, tok: Tok | None = None) -> ParseError:
    if tok is None:
        return ParseError(msg)
    return ParseError(msg, line=tok.line, column=tok.col)


def read_sexp(toks: list[Tok], pos: int):
    stack: list = []
    while True:
        if pos >= len(toks):
            if stack:
                raise _err("unclosed parenthesis", stack[-1][0])
            raise ParseError("unexpected end of input")
        t = toks[pos]
        pos += 1
        if t.text == "(":
            if len(stack) == MAX_DEPTH:
                raise _err(f"parentheses nest deeper than {MAX_DEPTH}", t)
            stack.append((t, []))
            continue
        if t.text == ")":
            if not stack:
                raise _err("unexpected ')'", t)
            node = stack.pop()
        else:
            node = t
        if not stack:
            return node, pos
        stack[-1][1].append(node)


# --- parser ------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"-?\d+\Z")
_RAT = re.compile(r"-?\d+(/\d+)?\Z")

_RESERVED = {
    "not", "and", "or", "implies", "iff", "exists", "forall", "true",
    "false", "c", "congr", "insub", "lt@", "le@", "eq@", "congr@",
}


def t_sub(g: GroupSpec, a: fm.Term, b: fm.Term) -> fm.Term:
    return fm.t_add(g, a, fm.t_scale(g, -1, b))


class _Parser:
    def __init__(self, g: GroupSpec, names: frozenset) -> None:
        self.g = g
        self.names = names  # every token of the input
        self.used: set[str] = set()
        self.scopes: list[dict[str, str]] = []

    def fresh(self, name: str) -> str:
        if name not in self.used:
            self.used.add(name)
            return name
        k = 2
        while f"{name}_{k}" in self.used or f"{name}_{k}" in self.names:
            k += 1
        fresh = f"{name}_{k}"
        self.used.add(fresh)
        return fresh

    def resolve(self, tok: Tok) -> str:
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        self.used.add(tok.text)
        return tok.text

    def term(self, node) -> fm.Term:
        if isinstance(node, Tok):
            if not _IDENT.match(node.text) or node.text in _RESERVED:
                raise _err(f"expected a term, got '{node.text}'", node)
            return fm.t_var(self.g, self.resolve(node))
        head_tok, items = node
        if not items or not isinstance(items[0], Tok):
            raise _err("expected a term", head_tok)
        op = items[0]
        if op.text == "c":
            vals = items[1:]
            if len(vals) != self.g.n:
                raise _err(
                    f"constant has {len(vals)} entries, group has rank "
                    f"{self.g.n}", op)
            coords = []
            for v in vals:
                if not isinstance(v, Tok) or not _RAT.match(v.text):
                    where = v if isinstance(v, Tok) else op
                    raise _err("constant entries must be rationals", where)
                coords.append(Fraction(v.text))
            try:
                return fm.t_const(element(self.g, coords))
            except GroupError as e:
                raise _err(str(e), op) from None
        if op.text == "+":
            if len(items) < 3:
                raise _err("'+' needs at least two arguments", op)
            out = self.term(items[1])
            for it in items[2:]:
                out = fm.t_add(self.g, out, self.term(it))
            return out
        if op.text == "-":
            if len(items) != 3:
                raise _err("'-' takes exactly two arguments", op)
            return t_sub(self.g, self.term(items[1]), self.term(items[2]))
        if op.text == "*":
            if len(items) != 3:
                raise _err("'*' takes an integer and a term", op)
            k = items[1]
            if not isinstance(k, Tok) or not _INT.match(k.text):
                where = k if isinstance(k, Tok) else op
                raise _err("scalar multiplier must be an integer", where)
            return fm.t_scale(self.g, int(k.text), self.term(items[2]))
        raise _err(f"unknown term operator '{op.text}'", op)

    def _int_arg(self, node, what: str) -> tuple[int, Tok]:
        if not isinstance(node, Tok) or not _INT.match(node.text):
            tok = node if isinstance(node, Tok) else node[0]
            raise _err(f"{what} must be an integer", tok)
        return int(node.text), node

    def level(self, node) -> int:
        k, tok = self._int_arg(node, "level")
        if not 0 <= k <= self.g.n:
            raise _err(f"level {k} outside 0..{self.g.n}", tok)
        return k

    def modulus(self, node) -> int:
        m, tok = self._int_arg(node, "modulus")
        if m < 2:
            raise _err(f"modulus {m} must be >= 2", tok)
        return m

    def formula(self, node) -> fm.Formula:
        if isinstance(node, Tok):
            if node.text == "true":
                return fm.BoolConst(True)
            if node.text == "false":
                return fm.BoolConst(False)
            raise _err(f"expected a formula, got '{node.text}'", node)
        head_tok, items = node
        if not items:
            raise _err("empty form", head_tok)
        if not isinstance(items[0], Tok):
            raise _err("expected an operator symbol", head_tok)
        op = items[0]
        name = op.text

        if name in (fm.LT, fm.LE, fm.EQ):
            self._arity(op, items, 2)
            return fm.Cmp(name, self.term(items[1]), self.term(items[2]))
        if name == "congr":
            self._arity(op, items, 3)
            m = self.modulus(items[1])
            return fm.Congr(m, self.term(items[2]), self.term(items[3]))
        if name in ("lt@", "le@", "eq@"):
            self._arity(op, items, 3)
            k = self.level(items[1])
            t1, t2 = self.term(items[2]), self.term(items[3])
            if name == "eq@":
                return fm.RelEq(k, t1, t2)
            return fm.RelCmp(k, fm.LT if name == "lt@" else fm.LE, t1, t2)
        if name == "congr@":
            self._arity(op, items, 4)
            k = self.level(items[1])
            m = self.modulus(items[2])
            return fm.RelCongr(k, m, self.term(items[3]),
                               self.term(items[4]))
        if name == "insub":
            self._arity(op, items, 2)
            k = self.level(items[1])
            return fm.RelEq(k, self.term(items[2]), fm.t_const(zero(self.g)))
        if name == "not":
            self._arity(op, items, 1)
            return fm.Not(self.formula(items[1]))
        if name in ("and", "or"):
            if len(items) < 3:
                raise _err(f"'{name}' needs at least two arguments", op)
            parts = []
            cls = fm.And if name == "and" else fm.Or
            for it in items[1:]:
                f = self.formula(it)
                parts.extend(f.items if isinstance(f, cls) else (f,))
            return cls(tuple(parts))
        if name == "implies":
            self._arity(op, items, 2)
            return fm.Implies(self.formula(items[1]), self.formula(items[2]))
        if name == "iff":
            self._arity(op, items, 2)
            return fm.Iff(self.formula(items[1]), self.formula(items[2]))
        if name in ("exists", "forall"):
            self._arity(op, items, 2)
            binder = items[1]
            if (isinstance(binder, Tok) or len(binder[1]) != 1
                    or not isinstance(binder[1][0], Tok)):
                raise _err(f"'{name}' binder must be a single (v)", op)
            vtok = binder[1][0]
            if not _IDENT.match(vtok.text) or vtok.text in _RESERVED:
                raise _err(f"bad variable name '{vtok.text}'", vtok)
            internal = self.fresh(vtok.text)
            self.scopes.append({vtok.text: internal})
            body = self.formula(items[2])
            self.scopes.pop()
            cls = fm.Exists if name == "exists" else fm.Forall
            return cls(internal, body)
        raise _err(f"unknown operator '{name}'", op)

    def _arity(self, op: Tok, items, n: int) -> None:
        if len(items) != n + 1:
            raise _err(f"'{op.text}' takes {n} arguments, got "
                       f"{len(items) - 1}", op)


# --- structural utilities: the recursions oagkit.formulas replaced ----------


_print_term = fm._print_term  # terms are flat; their printer is unchanged


def print_formula(f: fm.Formula) -> str:
    if isinstance(f, fm.BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, fm.Cmp):
        return f"({f.rel} {_print_term(f.left)} {_print_term(f.right)})"
    if isinstance(f, fm.Congr):
        return (f"(congr {f.modulus} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, fm.RelCmp):
        op = "lt@" if f.rel == fm.LT else "le@"
        return (f"({op} {f.level} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, fm.RelCongr):
        return (f"(congr@ {f.level} {f.modulus} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, fm.RelEq):
        if not f.right.coeffs and not any(f.right.const):
            return f"(insub {f.level} {_print_term(f.left)})"
        return (f"(eq@ {f.level} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, fm.Not):
        return f"(not {print_formula(f.body)})"
    if isinstance(f, (fm.And, fm.Or)):
        op = "and" if isinstance(f, fm.And) else "or"
        return f"({op} " + " ".join(print_formula(x) for x in f.items) + ")"
    if isinstance(f, fm.Implies):
        return f"(implies {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, fm.Iff):
        return f"(iff {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, fm.Exists):
        return f"(exists ({f.var}) {print_formula(f.body)})"
    if isinstance(f, fm.Forall):
        return f"(forall ({f.var}) {print_formula(f.body)})"
    raise FormulaError(f"unknown formula node {f!r}")


def names(f: fm.Formula, bound: bool) -> frozenset:
    """The free names of f, or with bound true every name."""
    if isinstance(f, fm.ATOMS):
        return frozenset(f.left.vars()) | frozenset(f.right.vars())
    if isinstance(f, (fm.And, fm.Or)):
        return frozenset().union(*(names(it, bound) for it in f.items))
    if isinstance(f, (fm.Exists, fm.Forall)):
        inner = names(f.body, bound)
        return inner | {f.var} if bound else inner - {f.var}
    if isinstance(f, fm.Not):
        return names(f.body, bound)
    if isinstance(f, (fm.Implies, fm.Iff)):
        return names(f.left, bound) | names(f.right, bound)
    if isinstance(f, fm.BoolConst):
        return frozenset()
    raise FormulaError(f"unknown formula node {f!r}")


def t_subst(g: GroupSpec, t: fm.Term, name: str, repl: fm.Term) -> fm.Term:
    c = t.coeff(name)
    if c == 0:
        return t
    rest = fm.Term(tuple((v, k) for v, k in t.coeffs if v != name), t.const)
    return fm.t_add(g, rest, fm.t_scale(g, c, repl))


def substitute(g: GroupSpec, f: fm.Formula, name: str,
               repl: fm.Term) -> fm.Formula:
    """Capture-avoiding substitution, one name per pass: a capturing
    binder is renamed by a pass of its own over its body."""
    if isinstance(f, fm.BoolConst):
        return f
    if isinstance(f, fm.ATOMS):
        kwargs = {k: getattr(f, k) for k in f._fields
                  if k not in ("left", "right")}
        return type(f)(left=t_subst(g, f.left, name, repl),
                       right=t_subst(g, f.right, name, repl), **kwargs)
    if isinstance(f, fm.Not):
        return fm.Not(substitute(g, f.body, name, repl))
    if isinstance(f, (fm.And, fm.Or)):
        return type(f)(tuple(substitute(g, it, name, repl) for it in f.items))
    if isinstance(f, (fm.Implies, fm.Iff)):
        return type(f)(substitute(g, f.left, name, repl),
                       substitute(g, f.right, name, repl))
    if isinstance(f, (fm.Exists, fm.Forall)):
        if f.var == name:
            return f
        if f.var in repl.vars():
            used = names(f.body, True) | frozenset(repl.vars()) | {name}
            fresh = fm._fresh_name(f.var, used)
            body = substitute(g, f.body, f.var, fm.t_var(g, fresh))
            return type(f)(fresh, substitute(g, body, name, repl))
        return type(f)(f.var, substitute(g, f.body, name, repl))
    raise FormulaError(f"unknown formula node {f!r}")


def is_quantifier_free(f: fm.Formula) -> bool:
    if isinstance(f, (fm.BoolConst,) + fm.ATOMS):
        return True
    if isinstance(f, fm.Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (fm.And, fm.Or)):
        return all(is_quantifier_free(it) for it in f.items)
    if isinstance(f, (fm.Implies, fm.Iff)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


def shadows(f: fm.Formula) -> bool:
    """Whether some binder of f reuses a free name of f or the name of
    an enclosing binder."""
    free: set[str] = set()
    binders: set[str] = set()

    def walk(node, bound: frozenset) -> bool:
        if isinstance(node, fm.ATOMS):
            for v, _ in node.left.coeffs + node.right.coeffs:
                if v not in bound:
                    free.add(v)
            return False
        if isinstance(node, (fm.And, fm.Or)):
            return any(walk(it, bound) for it in node.items)
        if isinstance(node, (fm.Exists, fm.Forall)):
            if node.var in bound:
                return True
            binders.add(node.var)
            return walk(node.body, bound | {node.var})
        if isinstance(node, fm.Not):
            return walk(node.body, bound)
        if isinstance(node, (fm.Implies, fm.Iff)):
            return walk(node.left, bound) or walk(node.right, bound)
        if isinstance(node, fm.BoolConst):
            return False
        raise FormulaError(f"unknown formula node {node!r}")

    return walk(f, frozenset()) or not binders.isdisjoint(free)


def freshen(g: GroupSpec, f: fm.Formula, used: frozenset) -> fm.Formula:
    """Rename bound variables so no binder shadows another name; rebuilds
    every node, and renames a binder by a substitution over its body."""

    def walk(node, bound: frozenset):
        nonlocal used
        if isinstance(node, (fm.BoolConst,) + fm.ATOMS):
            return node
        if isinstance(node, fm.Not):
            return fm.Not(walk(node.body, bound))
        if isinstance(node, (fm.And, fm.Or)):
            return type(node)(tuple(walk(it, bound) for it in node.items))
        if isinstance(node, (fm.Implies, fm.Iff)):
            return type(node)(walk(node.left, bound), walk(node.right, bound))
        v, body = node.var, node.body
        if v in bound:
            fresh = fm._fresh_name(v, used)
            used |= {fresh}
            body = substitute(g, body, v, fm.t_var(g, fresh))
            v = fresh
        return type(node)(v, walk(body, bound | {v}))

    return walk(f, names(f, False))


def freshen_if_shadowed(g: GroupSpec, f: fm.Formula) -> fm.Formula:
    """`oagkit.formulas._freshen`: f itself when no binder shadows."""
    return freshen(g, f, names(f, True)) if shadows(f) else f


def parse(g: GroupSpec, text: str) -> fm.Formula:
    toks = tokenize(text)
    if not toks:
        raise ParseError("empty input")
    node, pos = read_sexp(toks, 0)
    if pos != len(toks):
        raise _err("trailing input after formula", toks[pos])
    f = _Parser(g, frozenset(t.text for t in toks)).formula(node)
    return freshen(g, f, names(f, True))


# --- lowering ----------------------------------------------------------------


def coord_exprs(g: GroupSpec, t: fm.Term) -> list[sc.LinExpr]:
    out = []
    for j in range(1, g.n + 1):
        q = t.const[j - 1]
        coeffs = tuple((sc.SVar(v, j), q.denominator * c)
                       for v, c in t.coeffs)
        out.append(sc.LinExpr(coeffs, q.numerator))
    return out


def lex_eq(g: GroupSpec, diffs, k: int) -> sc.SFormula:
    return sc.mk_and(sc.mk_eq(g, diffs[j]) for j in range(k))


def lex_lt(g: GroupSpec, diffs, k: int) -> sc.SFormula:
    cases = []
    for j in range(k):
        prefix = [sc.mk_eq(g, diffs[i]) for i in range(j)]
        cases.append(sc.mk_and(prefix + [sc.mk_lt(g, diffs[j])]))
    return sc.mk_or(cases)


def congr_exprs(g: GroupSpec, m: int, diffs, k: int) -> sc.SFormula:
    parts = []
    for j in range(k):
        if g.kinds[j] == "Z":
            parts.append(sc.mk_congr(g, m, diffs[j]))
    return sc.mk_and(parts)


def lower_atom(g: GroupSpec, f) -> sc.SFormula:
    k = getattr(f, "level", g.n)
    diffs = coord_exprs(g, t_sub(g, f.left, f.right))
    if isinstance(f, (fm.Congr, fm.RelCongr)):
        return congr_exprs(g, f.modulus, diffs, k)
    rel = fm.EQ if isinstance(f, fm.RelEq) else f.rel
    if rel == fm.EQ:
        return lex_eq(g, diffs, k)
    if rel == fm.LT:
        return lex_lt(g, diffs, k)
    return sc.mk_or([lex_lt(g, diffs, k), lex_eq(g, diffs, k)])


def lower_atom_charged(g: GroupSpec, f) -> sc.SFormula:
    """An atom lowered as `formulas._lower_atom` did before it called the
    `scalars` cores: each coordinate's difference built as an expression
    from the coefficient table, then normalized through the constructors
    of `reference_scalars`.  It charges the budget as the library does,
    unlike `lower_atom`, which builds each case's equations anew and so
    charges more."""
    k = getattr(f, "level", g.n)
    table = dict(f.left.coeffs)
    for v, c in f.right.coeffs:
        table[v] = table.get(v, 0) - c
    coeffs = sorted((v, c) for v, c in table.items() if c)
    diffs = []
    for j in range(k):
        q = f.left.const[j] - f.right.const[j]
        diffs.append(sc.LinExpr(tuple((sc.SVar(v, j + 1), q.denominator * c)
                                      for v, c in coeffs), q.numerator))
    if isinstance(f, (fm.Congr, fm.RelCongr)):
        return sc.mk_and([rs.mk_congr(g, f.modulus, d)
                          for d, kind in zip(diffs, g.kinds) if kind == "Z"])
    rel = fm.EQ if isinstance(f, fm.RelEq) else f.rel
    eqs = [rs.mk_eq(g, d) for d in (diffs[:-1] if rel == fm.LT else diffs)]
    if rel == fm.EQ:
        return sc.mk_and(eqs)
    cases = [sc.mk_and(eqs[:j] + [rs.mk_lt(g, d)])
             for j, d in enumerate(diffs)]
    if rel == fm.LE:
        cases.append(sc.mk_and(eqs))
    return sc.mk_or(cases)


def lower_formula(g: GroupSpec, f: fm.Formula) -> sc.SFormula:
    """The walk of `oagkit.formulas.lower` as a recursion, without the
    operation memo (an atom's lowering is an interned node either way)."""
    if isinstance(f, fm.BoolConst):
        return sc.SBool(f.value)
    if isinstance(f, fm.ATOMS):
        return fm._lower_atom(g, f)
    if isinstance(f, fm.Not):
        return sc.mk_not(lower_formula(g, f.body))
    if isinstance(f, fm.And):
        return sc.mk_and(lower_formula(g, it) for it in f.items)
    if isinstance(f, fm.Or):
        return sc.mk_or(lower_formula(g, it) for it in f.items)
    if isinstance(f, fm.Implies):
        return sc.mk_or([sc.mk_not(lower_formula(g, f.left)),
                         lower_formula(g, f.right)])
    if isinstance(f, fm.Iff):
        a, b = lower_formula(g, f.left), lower_formula(g, f.right)
        return sc.mk_and([sc.mk_or([sc.mk_not(a), b]),
                          sc.mk_or([sc.mk_not(b), a])])
    if isinstance(f, (fm.Exists, fm.Forall)):
        body = lower_formula(g, f.body)
        ctor = sc.mk_exists if isinstance(f, fm.Exists) else sc.mk_forall
        for j in range(g.n, 0, -1):
            body = ctor(sc.SVar(f.var, j), body)
        return body
    raise FormulaError(f"unknown formula node {f!r}")


def lower(g: GroupSpec, f: fm.Formula) -> sc.SFormula:
    return lower_formula(g, freshen_if_shadowed(g, f))
