"""Group-level formulas: terms, atoms, quantifiers, parser, printer.

Terms are integer linear combinations of group variables plus one group
constant.  Atoms compare two terms, either outright or relative to a
level: a level-k atom talks about the images of both sides in the
quotient by the convex subgroup that kills all but the first k
coordinates.  Congruence atoms assert membership of the difference in
m times the (quotient) group.

The concrete syntax is s-expressions; see GRAMMAR below.  The parser
alpha-renames so no bound variable shadows another, flattens nested
and/or, and reports syntax and sort errors with line and column.
`lower` translates a group formula into the scalar language of
`scalars`, one variable per coordinate, with every atom confined to a
single coordinate.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from . import scalars as sc
from .errors import FormulaError, GroupError, ParseError
from .groups import Element, GroupSpec, add as g_add, element, scale as g_scale, zero

GRAMMAR = """\
f    := atom | (not f) | (and f f+) | (or f f+) | (implies f f)
      | (iff f f) | (exists (v) f) | (forall (v) f) | true | false
t    := v | (c q1 ... qn) | (+ t t+) | (- t t) | (* int t)
atom := (< t t) | (<= t t) | (= t t) | (congr m t t)
      | (lt@ k t t) | (le@ k t t) | (eq@ k t t) | (congr@ k m t t)
      | (insub k t)
"""

# Parentheses may nest at most this deep; a deeper input is a ParseError.
# Parsing, lowering and elimination recurse per level (a nested iff costs
# about eight interpreter frames a level), and at this depth qe, code,
# nice and typegen still answer on Z*Z*Z within the default recursion
# limit, with a hundred frames of caller on the stack.
MAX_DEPTH = 100

LT = "<"
LE = "<="
EQ = "="
RELS = (LT, LE, EQ)


# --- terms ------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Sum of integer multiples of variables plus a group constant."""

    coeffs: tuple  # tuple[(varname, int), ...] sorted by name, nonzero
    const: Element

    def coeff(self, name: str) -> int:
        for v, c in self.coeffs:
            if v == name:
                return c
        return 0

    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)


def term(coeffs: Mapping[str, int] | Iterable, const: Element) -> Term:
    items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
    merged: dict[str, int] = {}
    for v, c in items:
        merged[v] = merged.get(v, 0) + c
    cleaned = tuple(sorted((v, c) for v, c in merged.items() if c != 0))
    return Term(cleaned, tuple(const))


def t_var(g: GroupSpec, name: str) -> Term:
    return Term(((name, 1),), zero(g))


def t_const(a: Element) -> Term:
    return Term((), tuple(a))


def t_add(g: GroupSpec, a: Term, b: Term) -> Term:
    m = dict(a.coeffs)
    for v, c in b.coeffs:
        m[v] = m.get(v, 0) + c
    return term(m, g_add(g, a.const, b.const))


def t_scale(g: GroupSpec, k: int, a: Term) -> Term:
    return term(((v, k * c) for v, c in a.coeffs), g_scale(g, k, a.const))


def t_sub(g: GroupSpec, a: Term, b: Term) -> Term:
    return t_add(g, a, t_scale(g, -1, b))


def t_subst(g: GroupSpec, t: Term, name: str, repl: Term) -> Term:
    c = t.coeff(name)
    if c == 0:
        return t
    rest = Term(tuple((v, k) for v, k in t.coeffs if v != name), t.const)
    return t_add(g, rest, t_scale(g, c, repl))


def term_value(g: GroupSpec, t: Term, env: Mapping[str, Element]) -> Element:
    total = t.const
    for v, c in t.coeffs:
        if v not in env:
            raise FormulaError(f"no value bound for variable {v}")
        total = g_add(g, total, g_scale(g, c, env[v]))
    return total


# --- formula nodes ----------------------------------------------------------


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Cmp:
    rel: str  # one of RELS
    left: Term
    right: Term


@dataclass(frozen=True)
class Congr:
    modulus: int  # >= 2
    left: Term
    right: Term


@dataclass(frozen=True)
class RelCmp:
    level: int
    rel: str
    left: Term
    right: Term


@dataclass(frozen=True)
class RelCongr:
    level: int
    modulus: int
    left: Term
    right: Term


@dataclass(frozen=True)
class RelEq:
    level: int
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[BoolConst, Cmp, Congr, RelCmp, RelCongr, RelEq,
                Not, And, Or, Implies, Iff, Exists, Forall]

ATOMS = (Cmp, Congr, RelCmp, RelCongr, RelEq)


# --- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"-?\d+\Z")
_RAT = re.compile(r"-?\d+(/\d+)?\Z")

_RESERVED = {
    "not", "and", "or", "implies", "iff", "exists", "forall", "true",
    "false", "c", "congr", "insub", "lt@", "le@", "eq@", "congr@",
}


def _tokenize(text: str) -> list[_Tok]:
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
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _err(msg: str, tok: _Tok | None = None) -> ParseError:
    if tok is None:
        return ParseError(msg)
    return ParseError(msg, line=tok.line, column=tok.col)


def _read_sexp(toks: list[_Tok], pos: int):
    """The s-expression starting at toks[pos] and the position after it.
    A list is an (open paren, items) pair, an atom its token."""
    stack: list = []  # the lists still open, innermost last
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


# --- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, g: GroupSpec) -> None:
        self.g = g
        self.used: set[str] = set()
        self.scopes: list[dict[str, str]] = []

    def fresh(self, name: str) -> str:
        if name not in self.used:
            self.used.add(name)
            return name
        k = 2
        while f"{name}_{k}" in self.used:
            k += 1
        fresh = f"{name}_{k}"
        self.used.add(fresh)
        return fresh

    def resolve(self, tok: _Tok) -> str:
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        self.used.add(tok.text)
        return tok.text

    # -- terms --

    def term(self, node) -> Term:
        if isinstance(node, _Tok):
            if not _IDENT.match(node.text) or node.text in _RESERVED:
                raise _err(f"expected a term, got '{node.text}'", node)
            return t_var(self.g, self.resolve(node))
        head_tok, items = node
        if not items or not isinstance(items[0], _Tok):
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
                if not isinstance(v, _Tok) or not _RAT.match(v.text):
                    where = v if isinstance(v, _Tok) else op
                    raise _err("constant entries must be rationals", where)
                coords.append(Fraction(v.text))
            try:
                return t_const(element(self.g, coords))
            except GroupError as e:
                raise _err(str(e), op) from None
        if op.text == "+":
            if len(items) < 3:
                raise _err("'+' needs at least two arguments", op)
            out = self.term(items[1])
            for it in items[2:]:
                out = t_add(self.g, out, self.term(it))
            return out
        if op.text == "-":
            if len(items) != 3:
                raise _err("'-' takes exactly two arguments", op)
            return t_sub(self.g, self.term(items[1]), self.term(items[2]))
        if op.text == "*":
            if len(items) != 3:
                raise _err("'*' takes an integer and a term", op)
            k = items[1]
            if not isinstance(k, _Tok) or not _INT.match(k.text):
                where = k if isinstance(k, _Tok) else op
                raise _err("scalar multiplier must be an integer", where)
            return t_scale(self.g, int(k.text), self.term(items[2]))
        raise _err(f"unknown term operator '{op.text}'", op)

    def _int_arg(self, node, what: str) -> tuple[int, _Tok]:
        if not isinstance(node, _Tok) or not _INT.match(node.text):
            tok = node if isinstance(node, _Tok) else node[0]
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

    # -- formulas --

    def formula(self, node) -> Formula:
        if isinstance(node, _Tok):
            if node.text == "true":
                return BoolConst(True)
            if node.text == "false":
                return BoolConst(False)
            raise _err(f"expected a formula, got '{node.text}'", node)
        head_tok, items = node
        if not items:
            raise _err("empty form", head_tok)
        if not isinstance(items[0], _Tok):
            raise _err("expected an operator symbol", head_tok)
        op = items[0]
        name = op.text

        if name in (LT, LE, EQ):
            self._arity(op, items, 2)
            return Cmp(name, self.term(items[1]), self.term(items[2]))
        if name == "congr":
            self._arity(op, items, 3)
            m = self.modulus(items[1])
            return Congr(m, self.term(items[2]), self.term(items[3]))
        if name in ("lt@", "le@", "eq@"):
            self._arity(op, items, 3)
            k = self.level(items[1])
            t1, t2 = self.term(items[2]), self.term(items[3])
            if name == "eq@":
                return RelEq(k, t1, t2)
            return RelCmp(k, LT if name == "lt@" else LE, t1, t2)
        if name == "congr@":
            self._arity(op, items, 4)
            k = self.level(items[1])
            m = self.modulus(items[2])
            return RelCongr(k, m, self.term(items[3]), self.term(items[4]))
        if name == "insub":
            self._arity(op, items, 2)
            k = self.level(items[1])
            return RelEq(k, self.term(items[2]), t_const(zero(self.g)))
        if name == "not":
            self._arity(op, items, 1)
            return Not(self.formula(items[1]))
        if name in ("and", "or"):
            if len(items) < 3:
                raise _err(f"'{name}' needs at least two arguments", op)
            parts = []
            cls = And if name == "and" else Or
            for it in items[1:]:
                f = self.formula(it)
                parts.extend(f.items if isinstance(f, cls) else (f,))
            return cls(tuple(parts))
        if name == "implies":
            self._arity(op, items, 2)
            return Implies(self.formula(items[1]), self.formula(items[2]))
        if name == "iff":
            self._arity(op, items, 2)
            return Iff(self.formula(items[1]), self.formula(items[2]))
        if name in ("exists", "forall"):
            self._arity(op, items, 2)
            binder = items[1]
            if (isinstance(binder, _Tok) or len(binder[1]) != 1
                    or not isinstance(binder[1][0], _Tok)):
                raise _err(f"'{name}' binder must be a single (v)", op)
            vtok = binder[1][0]
            if not _IDENT.match(vtok.text) or vtok.text in _RESERVED:
                raise _err(f"bad variable name '{vtok.text}'", vtok)
            internal = self.fresh(vtok.text)
            self.scopes.append({vtok.text: internal})
            body = self.formula(items[2])
            self.scopes.pop()
            cls = Exists if name == "exists" else Forall
            return cls(internal, body)
        raise _err(f"unknown operator '{name}'", op)

    def _arity(self, op: _Tok, items, n: int) -> None:
        if len(items) != n + 1:
            raise _err(f"'{op.text}' takes {n} arguments, got "
                       f"{len(items) - 1}", op)


def parse(g: GroupSpec, text: str) -> Formula:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input")
    node, pos = _read_sexp(toks, 0)
    if pos != len(toks):
        raise _err("trailing input after formula", toks[pos])
    f = _Parser(g).formula(node)
    # a binder textually before a free use of the same name slips past the
    # scope stack; a final freshening pass restores the no-shadowing invariant
    return _freshen(g, f, all_names(f))


# --- printer ----------------------------------------------------------------


def _print_term(t: Term) -> str:
    parts = []
    for v, c in t.coeffs:
        parts.append(v if c == 1 else f"(* {c} {v})")
    if any(t.const) or not parts:
        parts.append("(c " + " ".join(str(Fraction(q)) for q in t.const) + ")")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def print_formula(f: Formula) -> str:
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, Cmp):
        return f"({f.rel} {_print_term(f.left)} {_print_term(f.right)})"
    if isinstance(f, Congr):
        return (f"(congr {f.modulus} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, RelCmp):
        op = "lt@" if f.rel == LT else "le@"
        return (f"({op} {f.level} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, RelCongr):
        return (f"(congr@ {f.level} {f.modulus} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, RelEq):
        if not f.right.coeffs and not any(f.right.const):
            return f"(insub {f.level} {_print_term(f.left)})"
        return (f"(eq@ {f.level} {_print_term(f.left)} "
                f"{_print_term(f.right)})")
    if isinstance(f, Not):
        return f"(not {print_formula(f.body)})"
    if isinstance(f, (And, Or)):
        op = "and" if isinstance(f, And) else "or"
        return f"({op} " + " ".join(print_formula(x) for x in f.items) + ")"
    if isinstance(f, Implies):
        return f"(implies {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, Iff):
        return f"(iff {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, Exists):
        return f"(exists ({f.var}) {print_formula(f.body)})"
    if isinstance(f, Forall):
        return f"(forall ({f.var}) {print_formula(f.body)})"
    raise FormulaError(f"unknown formula node {f!r}")


# --- structural utilities ---------------------------------------------------


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, BoolConst):
        return frozenset()
    if isinstance(f, ATOMS):
        return frozenset(f.left.vars()) | frozenset(f.right.vars())
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for it in f.items:
            out |= free_vars(it)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_vars(f.body) - {f.var}
    raise FormulaError(f"unknown formula node {f!r}")


def all_names(f: Formula) -> frozenset:
    """Every variable name occurring in f, bound or free."""
    if isinstance(f, BoolConst):
        return frozenset()
    if isinstance(f, ATOMS):
        return frozenset(f.left.vars()) | frozenset(f.right.vars())
    if isinstance(f, Not):
        return all_names(f.body)
    if isinstance(f, (And, Or)):
        out = frozenset()
        for it in f.items:
            out |= all_names(it)
        return out
    if isinstance(f, (Implies, Iff)):
        return all_names(f.left) | all_names(f.right)
    if isinstance(f, (Exists, Forall)):
        return all_names(f.body) | {f.var}
    raise FormulaError(f"unknown formula node {f!r}")


def _fresh_name(base: str, used: frozenset) -> str:
    if base not in used:
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


def substitute(g: GroupSpec, f: Formula, name: str, repl: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable."""
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, ATOMS):
        kwargs = {k: v for k, v in f.__dict__.items()
                  if k not in ("left", "right")}
        return type(f)(left=t_subst(g, f.left, name, repl),
                       right=t_subst(g, f.right, name, repl), **kwargs)
    if isinstance(f, Not):
        return Not(substitute(g, f.body, name, repl))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(substitute(g, it, name, repl) for it in f.items))
    if isinstance(f, (Implies, Iff)):
        return type(f)(substitute(g, f.left, name, repl),
                       substitute(g, f.right, name, repl))
    if isinstance(f, (Exists, Forall)):
        if f.var == name:
            return f
        if f.var in repl.vars():
            used = all_names(f.body) | frozenset(repl.vars()) | {name}
            fresh = _fresh_name(f.var, used)
            body = substitute(g, f.body, f.var, t_var(g, fresh))
            return type(f)(fresh, substitute(g, body, name, repl))
        return type(f)(f.var, substitute(g, f.body, name, repl))
    raise FormulaError(f"unknown formula node {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (BoolConst,) + ATOMS):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.body)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(it) for it in f.items)
    if isinstance(f, (Implies, Iff)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


# --- lowering to scalar coordinates ----------------------------------------


def scalarize(g: GroupSpec, env: Mapping[str, Element]) -> dict:
    """Split a group-variable environment into scalar coordinates."""
    out = {}
    for name, a in env.items():
        for j, q in enumerate(a, start=1):
            out[sc.SVar(name, j)] = q
    return out


def _coord_exprs(g: GroupSpec, t: Term) -> list[sc.LinExpr]:
    # each coordinate times the denominator of its constant (1 on discrete
    # ones): a positive factor keeps a dense atom's truth value
    out = []
    for j in range(1, g.n + 1):
        q = t.const[j - 1]
        coeffs = tuple((sc.SVar(v, j), q.denominator * c)
                       for v, c in t.coeffs)
        out.append(sc.LinExpr(coeffs, q.numerator))
    return out


def _lex_eq(g: GroupSpec, diffs, k: int) -> sc.SFormula:
    return sc.mk_and(sc.mk_eq(g, diffs[j]) for j in range(k))


def _lex_lt(g: GroupSpec, diffs, k: int) -> sc.SFormula:
    # (d_1, ..., d_k) <lex 0
    cases = []
    for j in range(k):
        prefix = [sc.mk_eq(g, diffs[i]) for i in range(j)]
        cases.append(sc.mk_and(prefix + [sc.mk_lt(g, diffs[j])]))
    return sc.mk_or(cases)


def _congr_exprs(g: GroupSpec, m: int, diffs, k: int) -> sc.SFormula:
    # m*(quotient by level k) is coordinatewise: only discrete coordinates
    # impose a condition
    parts = []
    for j in range(k):
        if g.kinds[j] == "Z":
            parts.append(sc.mk_congr(g, m, diffs[j]))
    return sc.mk_and(parts)


def lower(g: GroupSpec, f: Formula) -> sc.SFormula:
    """Translate into the per-coordinate scalar language.

    Each group variable x becomes scalar variables x.1 ... x.n, most
    significant first.  Comparisons expand lexicographically, level-k
    atoms look only at the first k coordinates, congruences become
    per-discrete-coordinate congruences, and quantifiers become blocks
    of scalar quantifiers."""
    return _lower(g, _freshen(g, f, all_names(f)))


def _freshen(g: GroupSpec, f: Formula, used: frozenset) -> Formula:
    """Rename bound variables so no binder shadows another name."""

    def walk(node: Formula, bound: frozenset):
        nonlocal used
        if isinstance(node, (BoolConst,) + ATOMS):
            return node
        if isinstance(node, Not):
            return Not(walk(node.body, bound))
        if isinstance(node, (And, Or)):
            return type(node)(tuple(walk(it, bound) for it in node.items))
        if isinstance(node, (Implies, Iff)):
            return type(node)(walk(node.left, bound), walk(node.right, bound))
        if isinstance(node, (Exists, Forall)):
            v = node.var
            body = node.body
            if v in bound:
                fresh = _fresh_name(v, used)
                used |= {fresh}
                body = substitute(g, body, v, t_var(g, fresh))
                v = fresh
            return type(node)(v, walk(body, bound | {v}))
        raise FormulaError(f"unknown formula node {node!r}")

    return walk(f, frozenset(free_vars(f)))


def _lower_atom(g: GroupSpec, f: Formula) -> sc.SFormula:
    k = getattr(f, "level", g.n)
    diffs = _coord_exprs(g, t_sub(g, f.left, f.right))
    if isinstance(f, (Congr, RelCongr)):
        return _congr_exprs(g, f.modulus, diffs, k)
    rel = EQ if isinstance(f, RelEq) else f.rel
    if rel == EQ:
        return _lex_eq(g, diffs, k)
    if rel == LT:
        return _lex_lt(g, diffs, k)
    return sc.mk_or([_lex_lt(g, diffs, k), _lex_eq(g, diffs, k)])


def _lower(g: GroupSpec, f: Formula) -> sc.SFormula:
    if isinstance(f, BoolConst):
        return sc.SBool(f.value)
    if isinstance(f, ATOMS):
        # an atom lowers once per operation; the "lower" tag keeps the
        # key apart from decide's (group, sentence) keys
        memo = sc.operation_memo()
        if memo is None:
            return _lower_atom(g, f)
        key = ("lower", g, f)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _lower_atom(g, f)
        return out
    if isinstance(f, Not):
        return sc.mk_not(_lower(g, f.body))
    if isinstance(f, And):
        return sc.mk_and(_lower(g, it) for it in f.items)
    if isinstance(f, Or):
        return sc.mk_or(_lower(g, it) for it in f.items)
    if isinstance(f, Implies):
        return sc.mk_or([sc.mk_not(_lower(g, f.left)), _lower(g, f.right)])
    if isinstance(f, Iff):
        a, b = _lower(g, f.left), _lower(g, f.right)
        return sc.mk_and([sc.mk_or([sc.mk_not(a), b]),
                          sc.mk_or([sc.mk_not(b), a])])
    if isinstance(f, (Exists, Forall)):
        body = _lower(g, f.body)
        ctor = sc.mk_exists if isinstance(f, Exists) else sc.mk_forall
        for j in range(g.n, 0, -1):
            body = ctor(sc.SVar(f.var, j), body)
        return body
    raise FormulaError(f"unknown formula node {f!r}")
