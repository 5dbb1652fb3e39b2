"""Group-level formulas: terms, atoms, quantifiers, parser, printer.

Terms are integer linear combinations of group variables plus one group
constant.  Atoms compare two terms, either outright or relative to a
level: a level-k atom talks about the images of both sides in the
quotient by the convex subgroup that kills all but the first k
coordinates.  Congruence atoms assert membership of the difference in
m times the (quotient) group.

The concrete syntax is s-expressions; see GRAMMAR below.  Space, tab,
CR and LF separate tokens, `;` starts a comment to the end of the line,
and parentheses nest at most MAX_DEPTH deep.  The parser splits tokens
with str methods (the regex `_TOKEN` only places an error), records the
names it resolves as the `_scan` of its result, sums each term into one
coefficient table and constant, alpha-renames so no bound variable
shadows another, flattens nested and/or, and reports syntax and sort
errors with 1-based line and column.  `lower` translates a group
formula into the scalar language of `scalars`, one variable per
coordinate: each atom becomes integer constraints on the coordinates of
its left - right, and bound variables are renamed only where one shadows
another name.  Past the parser, every traversal is a loop over `_parts`,
the one reader of a node's children, or a step on `scalars.walk`.
Terms and nodes are interned `Record`s, so a walk keys on the node
itself and steps equal subformulas once.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Union

from . import scalars as sc
from .errors import FormulaError, ParseError, Record
from .groups import Element, GroupSpec, add as g_add, scale as g_scale, zero
from .scalars import Join, walk

GRAMMAR = """\
f    := atom | (not f) | (and f f+) | (or f f+) | (implies f f)
      | (iff f f) | (exists (v) f) | (forall (v) f) | true | false
t    := v | (c q1 ... qn) | (+ t t+) | (- t t) | (* int t)
atom := (< t t) | (<= t t) | (= t t) | (congr m t t)
      | (lt@ k t t) | (le@ k t t) | (eq@ k t t) | (congr@ k m t t)
      | (insub k t)
"""

# Parentheses may nest at most this deep; a deeper input is a ParseError.
# Only the parser recurses per level (`_Parser.formula` and `_sum`); the
# traversals after it are loops or `scalars.walk` steps, and answer on a
# library-built formula of any depth.
MAX_DEPTH = 100

LT = "<"
LE = "<="
EQ = "="
RELS = (LT, LE, EQ)


# --- terms ------------------------------------------------------------------


class Term(Record):
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
    items = (coeffs.items() if type(coeffs) is dict
             or isinstance(coeffs, Mapping) else coeffs)
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


def term_value(g: GroupSpec, t: Term, env: Mapping[str, Element]) -> Element:
    total = t.const
    for v, c in t.coeffs:
        if v not in env:
            raise FormulaError(f"no value bound for variable {v}")
        total = g_add(g, total, g_scale(g, c, env[v]))
    return total


# --- formula nodes ----------------------------------------------------------


class BoolConst(Record):
    value: bool


class Cmp(Record):
    rel: str  # one of RELS
    left: Term
    right: Term


class Congr(Record):
    modulus: int  # >= 2
    left: Term
    right: Term


class RelCmp(Record):
    level: int
    rel: str
    left: Term
    right: Term


class RelCongr(Record):
    level: int
    modulus: int
    left: Term
    right: Term


class RelEq(Record):
    level: int
    left: Term
    right: Term


class Not(Record):
    body: "Formula"


class And(Record):
    items: tuple


class Or(Record):
    items: tuple


class Implies(Record):
    left: "Formula"
    right: "Formula"


class Iff(Record):
    left: "Formula"
    right: "Formula"


class Exists(Record):
    var: str
    body: "Formula"


class Forall(Record):
    var: str
    body: "Formula"


Formula = Union[BoolConst, Cmp, Congr, RelCmp, RelCongr, RelEq,
                Not, And, Or, Implies, Iff, Exists, Forall]

ATOMS = (Cmp, Congr, RelCmp, RelCongr, RelEq)


# --- tokenizer and parser ----------------------------------------------------

# A comment, a parenthesis, or a run of anything else: only space, tab, CR
# and LF separate tokens (a form feed or a no-break space is part of one).
# `_Parser` splits the same tokens out with str methods; this regex only
# finds where the token of a ParseError starts.
_TOKEN = re.compile(r";[^\n]*|[()]|[^ \t\r\n();]+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"-?\d+\Z")
_RAT = re.compile(r"-?\d+(/\d+)?\Z")

_RESERVED = {
    "not", "and", "or", "implies", "iff", "exists", "forall", "true",
    "false", "c", "congr", "insub", "lt@", "le@", "eq@", "congr@",
}


class _Parser:
    """One formula read from s-expression text.  Tokens are plain strings;
    the reader's tree has token indices for atoms and (index of the open
    parenthesis, items) pairs for lists, so an error can name its token,
    and line and column are worked out only for that one token."""

    def __init__(self, g: GroupSpec, text: str) -> None:
        self.g = g
        self.text = text
        text = re.sub(r";[^\n]*", "", text) if ";" in text else text
        self.toks = list(filter(None, text.replace("(", " ( ").replace(
            ")", " ) ").replace("\t", " ").replace("\r", " ").replace(
            "\n", " ").split(" ")))
        self.zero = zero(g)
        # the formula's scan, as in `_scan`, unless a coefficient cancelled
        self.free: set[str] = set()
        self.binders: set[str] = set()
        self.cancelled = False
        self.scopes: list[dict[str, str]] = []

    def err(self, msg: str, i: int) -> ParseError:
        """A ParseError at token i, with its 1-based line and column."""
        text = self.text
        starts = (m.start() for m in _TOKEN.finditer(text)
                  if text[m.start()] != ";")
        off = next(itertools.islice(starts, i, None))
        return ParseError(msg, line=text.count("\n", 0, off) + 1,
                          column=off - text.rfind("\n", 0, off))

    def read(self):
        """The tree of the whole input, which must be one s-expression."""
        toks = self.toks
        if not toks:
            raise ParseError("empty input")
        stack: list = []  # the lists still open, innermost last
        for i, t in enumerate(toks):
            if t == "(":
                if len(stack) == MAX_DEPTH:
                    raise self.err(
                        f"parentheses nest deeper than {MAX_DEPTH}", i)
                stack.append((i, []))
                continue
            if t == ")":
                if not stack:
                    raise self.err("unexpected ')'", i)
                node = stack.pop()
            else:
                node = i
            if not stack:
                if i + 1 < len(toks):
                    raise self.err("trailing input after formula", i + 1)
                return node
            stack[-1][1].append(node)
        raise self.err("unclosed parenthesis", stack[-1][0])

    def fresh(self, name: str) -> str:
        """The internal name of a binder: its own unless a name seen so
        far is the same, else the first name_k that no token of the
        input spells, so no later free use can be captured."""
        if name in self.binders or name in self.free:
            name = _fresh_name(name, self.binders.union(self.free, self.toks))
        self.binders.add(name)
        return name

    def resolve(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        self.free.add(name)
        return name

    def number(self, i: int) -> int | Fraction:
        """The numeral at token i: an int unless it is not integral."""
        num, _, den = self.toks[i].partition("/")
        try:
            if not den:
                return int(num)
            q = Fraction(int(num), int(den))
            return q.numerator if q.denominator == 1 else q
        except ZeroDivisionError:
            raise self.err(f"zero denominator in '{self.toks[i]}'",
                           i) from None
        except ValueError:  # int() refuses strings over its digit limit
            raise self.err(f"numeral longer than "
                           f"{sys.get_int_max_str_digits()} digits",
                           i) from None

    # -- terms --

    def term(self, node) -> Term:
        coeffs: dict[str, int] = {}
        const = list(self.zero)
        self._sum(node, 1, coeffs, const)
        if 0 in coeffs.values():
            self.cancelled = True
            coeffs = {v: c for v, c in coeffs.items() if c}
        return Term(tuple(sorted(coeffs.items())), tuple(const))

    def _sum(self, node, k: int, coeffs: dict, const: list) -> None:
        """Add k times the term at node to coeffs and const."""
        toks = self.toks
        if type(node) is int:
            name = toks[node]
            if not _IDENT.match(name) or name in _RESERVED:
                raise self.err(f"expected a term, got '{name}'", node)
            name = self.resolve(name)
            coeffs[name] = coeffs.get(name, 0) + k
            return
        head, items = node
        if not items or type(items[0]) is not int:
            raise self.err("expected a term", head)
        op = items[0]
        name = toks[op]
        if name == "c":
            vals = items[1:]
            if len(vals) != self.g.n:
                raise self.err(
                    f"constant has {len(vals)} entries, group has rank "
                    f"{self.g.n}", op)
            coords = []
            for v in vals:
                if type(v) is not int or not _RAT.match(toks[v]):
                    raise self.err("constant entries must be rationals",
                                   v if type(v) is int else op)
                coords.append(self.number(v))
            for j, q in enumerate(coords):
                if type(q) is not Fraction:
                    const[j] += k * q
                elif self.g.kinds[j] == "Z":
                    raise self.err(
                        f"non-integer value {q} in a Z coordinate", op)
                else:  # a sum of fractions may be integral: keep it an int
                    q = const[j] + k * q
                    const[j] = q.numerator if q.denominator == 1 else q
        elif name == "+":
            if len(items) < 3:
                raise self.err("'+' needs at least two arguments", op)
            for it in items[1:]:
                self._sum(it, k, coeffs, const)
        elif name == "-":
            if len(items) != 3:
                raise self.err("'-' takes exactly two arguments", op)
            self._sum(items[1], k, coeffs, const)
            self._sum(items[2], -k, coeffs, const)
        elif name == "*":
            if len(items) != 3:
                raise self.err("'*' takes an integer and a term", op)
            m = items[1]
            if type(m) is not int or not _INT.match(toks[m]):
                raise self.err("scalar multiplier must be an integer",
                               m if type(m) is int else op)
            self._sum(items[2], k * self.number(m), coeffs, const)
        else:
            raise self.err(f"unknown term operator '{name}'", op)

    def _int_arg(self, node, what: str) -> int:
        if type(node) is not int or not _INT.match(self.toks[node]):
            raise self.err(f"{what} must be an integer",
                           node if type(node) is int else node[0])
        return self.number(node)

    def level(self, node) -> int:
        k = self._int_arg(node, "level")
        if not 0 <= k <= self.g.n:
            raise self.err(f"level {k} outside 0..{self.g.n}", node)
        return k

    def modulus(self, node) -> int:
        m = self._int_arg(node, "modulus")
        if m < 2:
            raise self.err(f"modulus {m} must be >= 2", node)
        return m

    # -- formulas --

    def formula(self, node) -> Formula:
        toks = self.toks
        if type(node) is int:
            if toks[node] == "true":
                return BoolConst(True)
            if toks[node] == "false":
                return BoolConst(False)
            raise self.err(f"expected a formula, got '{toks[node]}'", node)
        head, items = node
        if not items:
            raise self.err("empty form", head)
        if type(items[0]) is not int:
            raise self.err("expected an operator symbol", head)
        op = items[0]
        name = toks[op]

        if name in RELS:
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
            return RelEq(k, self.term(items[2]), Term((), self.zero))
        if name == "not":
            self._arity(op, items, 1)
            return Not(self.formula(items[1]))
        if name in ("and", "or"):
            if len(items) < 3:
                raise self.err(f"'{name}' needs at least two arguments", op)
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
            if (type(binder) is int or len(binder[1]) != 1
                    or type(binder[1][0]) is not int):
                raise self.err(f"'{name}' binder must be a single (v)", op)
            vtok = binder[1][0]
            var = toks[vtok]
            if not _IDENT.match(var) or var in _RESERVED:
                raise self.err(f"bad variable name '{var}'", vtok)
            internal = self.fresh(var)
            self.scopes.append({var: internal})
            body = self.formula(items[2])
            self.scopes.pop()
            cls = Exists if name == "exists" else Forall
            return cls(internal, body)
        raise self.err(f"unknown operator '{name}'", op)

    def _arity(self, op: int, items, n: int) -> None:
        if len(items) != n + 1:
            raise self.err(f"'{self.toks[op]}' takes {n} arguments, got "
                           f"{len(items) - 1}", op)


def parse(g: GroupSpec, text: str) -> Formula:
    p = _Parser(g, text)
    f = p.formula(p.read())
    if not p.cancelled:  # `fresh` shadows no enclosing or earlier name
        object.__setattr__(f, "_scanned", (frozenset(p.free), frozenset(
            p.binders), not p.binders.isdisjoint(p.free)))
    # a binder textually before a free use of the same name slips past the
    # scope stack; freshening restores the no-shadowing invariant
    return _freshen(g, f)


# --- traversal ------------------------------------------------------------


def _parts(f: Formula) -> tuple:
    """The subformulas of f in order, () for atoms and constants: the only
    code that knows a node's children or refuses a value that is none."""
    cls = f.__class__
    if cls is And or cls is Or:
        return f.items
    if cls is Not or cls is Exists or cls is Forall:
        return (f.body,)
    if cls is Implies or cls is Iff:
        return (f.left, f.right)
    if cls is BoolConst or cls in ATOMS:
        return ()
    raise FormulaError(f"unknown formula node {f!r}")


class _Key:
    """A `_rename` walk key: a node and the map carried down to it."""

    __slots__ = ("node", "m")

    def __init__(self, node: Formula, m=None) -> None:
        self.node, self.m = node, m


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


def _shape(f: Formula) -> tuple:
    """The pieces a node prints as, in order: strings, and the
    subformulas between them."""
    cls = f.__class__
    kids = _parts(f)
    if kids:
        # the connectives and quantifiers print as their class names
        spaced = [x for k in kids for x in (" ", k)]
        spaced[0] = f"({cls.__name__.lower()} "
        if cls is Exists or cls is Forall:
            spaced[0] += f"({f.var}) "
        return (*spaced, ")")
    if cls is BoolConst:
        return ("true" if f.value else "false",)
    sides = f"{_print_term(f.left)} {_print_term(f.right)})"
    if cls is Cmp:
        return (f"({f.rel} {sides}",)
    if cls is Congr:
        return (f"(congr {f.modulus} {sides}",)
    if cls is RelCmp:
        return (f"({'lt@' if f.rel == LT else 'le@'} {f.level} {sides}",)
    if cls is RelCongr:
        return (f"(congr@ {f.level} {f.modulus} {sides}",)
    if not f.right.coeffs and not any(f.right.const):
        return (f"(insub {f.level} {_print_term(f.left)})",)
    return (f"(eq@ {f.level} {sides}",)


def print_formula(f: Formula) -> str:
    # `_scan` refuses a value that is no formula node, which `_shape`
    # would print as text if it were a string
    _scan(f)
    return sc.preorder_text(f, _shape)


# --- structural utilities ---------------------------------------------------


def _scan(f: Formula) -> tuple:
    """The free names of f and its binders' names, as frozensets, and
    whether some binder reuses a free name of f or the name of an enclosing
    binder.  Walked once per interned formula, so once for all equal
    ones, and kept on it outside its fields."""
    hit = getattr(f, "_scanned", None)
    if hit is None:
        hit = _scan_walk(f)
        object.__setattr__(f, "_scanned", hit)
    return hit


def _scan_walk(f: Formula) -> tuple:
    free, binders, shadows = set(), set(), False
    # the names of the binders around a node, and how many bind each
    path, bound = [], {}
    todo = [(f, 0)]  # a node and its number of enclosing binders
    while todo:
        node, depth = todo.pop()
        while len(path) > depth:
            bound[path.pop()] -= 1
        cls = node.__class__
        if cls in ATOMS:
            for v, _ in node.left.coeffs + node.right.coeffs:
                if not bound.get(v):
                    free.add(v)
            continue
        if cls is Exists or cls is Forall:
            v = node.var
            shadows = shadows or bound.get(v, 0) > 0
            binders.add(v)
            path.append(v)
            bound[v] = bound.get(v, 0) + 1
            depth += 1
        todo += [(k, depth) for k in _parts(node)]
    return (frozenset(free), frozenset(binders),
            shadows or not binders.isdisjoint(free))


def free_vars(f: Formula) -> frozenset:
    return _scan(f)[0]


def all_names(f: Formula) -> frozenset:
    """Every variable name occurring in f, bound or free."""
    return frozenset.union(*_scan(f)[:2])


def is_quantifier_free(f: Formula) -> bool:
    return not _scan(f)[1]


def _fresh_name(base: str, used) -> str:
    if base not in used:
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


def _rename(g: GroupSpec, f: Formula, m: dict, rebind) -> Formula:
    """f with each free name in m replaced by its term, in one walk that
    carries the map down.  At a binder, rebind(var, body, m) is its name
    and the map under it, or None to keep the binder as it is; m gets its
    outer term for var back once the binder is rebuilt."""
    def step(key):
        node, m = key.node, key.m
        cls = node.__class__
        if cls in ATOMS:
            sides = []
            for t in (node.left, node.right):
                out = t_const(t.const)
                for v, c in t.coeffs:
                    out = t_add(g, out, t_scale(g, c, m.get(v) or t_var(g, v)))
                sides.append(out)
            return cls(*[getattr(node, k) for k in node._fields[:-2]], *sides)
        if cls is Exists or cls is Forall:
            v, outer = node.var, m.get(node.var)
            out = rebind(v, node.body, m)
            if out is None:
                return node
            new, under = out

            def build(rs):
                m.pop(v, None)
                if outer is not None:
                    m[v] = outer
                return cls(new, *rs)

            return Join(build, [_Key(k, under) for k in _parts(node)])
        kids = [_Key(k, m) for k in _parts(node)]
        if not kids:
            return node
        if cls is And or cls is Or:
            return Join(lambda rs: cls(tuple(rs)), kids)
        return Join(lambda rs: cls(*rs), kids)

    return walk(_Key(f, m), step)


def substitute(g: GroupSpec, f: Formula, name: str, repl: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable.  A
    binder that would capture is renamed clear of the terms still to
    substitute, the names they replace and the names of its body."""
    def rebind(v, body, m):
        m = {k: t for k, t in m.items() if k != v}
        near = set(m).union(*(t.vars() for t in m.values()))
        new = _fresh_name(v, near | all_names(body)) if v in near else v
        if new != v:
            m[v] = t_var(g, new)
        return (new, m) if m else None

    return _rename(g, f, {name: repl}, rebind)


def _freshen(g: GroupSpec, f: Formula) -> Formula:
    """Rename bound variables so no binder shadows another name, each to
    the first name_k still unused, in preorder; f itself when none does."""
    free, binders, shadows = _scan(f)
    if not shadows:
        return f
    used = set(free) | binders
    names: dict = {}  # base -> its candidates v_2, v_3, ...

    def rebind(v, body, m):
        # one map, with a term for each free name and enclosing binder, that
        # _rename restores; used only grows, so candidates are never rewound
        new = v
        if v in m:
            todo = names.setdefault(
                v, (f"{v}_{k}" for k in itertools.count(2)))
            new = next(n for n in todo if n not in used)
            used.add(new)
        m[v] = t_var(g, new)
        return new, m

    return _rename(g, f, {v: t_var(g, v) for v in free}, rebind)


# --- lowering to scalar coordinates ----------------------------------------


def scalarize(g: GroupSpec, env: Mapping[str, Element]) -> dict:
    """Split a group-variable environment into scalar coordinates."""
    out = {}
    for name, a in env.items():
        for j, q in enumerate(a, start=1):
            out[sc.SVar(name, j)] = q
    return out


def _lower_atom(g: GroupSpec, f: Formula) -> sc.SFormula:
    k = getattr(f, "level", g.n)
    table = dict(f.left.coeffs)
    for v, c in f.right.coeffs:
        table[v] = table.get(v, 0) - c
    coeffs = sorted((v, c) for v, c in table.items() if c)
    content = math.gcd(*[c for _, c in coeffs])
    # coordinate j < k of left - right, as the parts the `scalars` cores
    # normalize, times the denominator of its constant (1 on discrete ones),
    # a positive factor that keeps a dense atom's truth value
    diffs = []
    for j in range(k):
        q = f.left.const[j] - f.right.const[j]
        den = q.denominator
        row = tuple((sc.SVar(v, j + 1), den * c) for v, c in coeffs)
        diffs.append((g.kinds[j] == "Z", row, q.numerator, den * content))
    if isinstance(f, (Congr, RelCongr)):
        # m times the quotient is coordinatewise: only discrete coordinates
        # impose a condition
        return sc.mk_and([sc.congr_core(f.modulus, *d) for d in diffs if d[0]])
    rel = EQ if isinstance(f, RelEq) else f.rel
    # (d_1, ..., d_k) <lex 0: some d_j < 0 and every earlier d_i = 0, so
    # the strict order needs no equation for d_k
    eqs = []
    for d in diffs[:-1] if rel == LT else diffs:
        eqs.append(sc.eq_core(*d))
        if eqs[-1] is sc.FALSE:  # so is every later case
            diffs = diffs[:len(eqs)]
            break
    if rel == EQ:
        return sc.mk_and(eqs)
    cases = [sc.mk_and(eqs[:j] + [sc.lt_core(*d)])
             for j, d in enumerate(diffs)]
    if rel == LE and sc.FALSE not in eqs:
        cases.append(sc.mk_and(eqs))
    return sc.mk_or(cases)


def lower(g: GroupSpec, f: Formula) -> sc.SFormula:
    """Translate into the per-coordinate scalar language.

    Each group variable x becomes scalar variables x.1 ... x.n, most
    significant first.  Comparisons expand lexicographically, level-k
    atoms look only at the first k coordinates, congruences become
    per-discrete-coordinate congruences, and quantifiers become blocks
    of scalar quantifiers."""
    memo = sc.operation_memo()

    def step(node):
        cls = node.__class__
        if cls in ATOMS:
            # an atom lowers once per operation, under a key tagged "lower"
            if memo is None:
                return _lower_atom(g, node)
            k = ("lower", g, node)
            out = memo.get(k)
            if out is None:
                out = memo[k] = _lower_atom(g, node)
            return out
        if cls is And or cls is Or:
            # a run of nested conjunctions (disjunctions) is one Join: mk_and
            # (mk_or) flattens it anyway, and stops at its first FALSE (TRUE)
            kids, todo = [], list(reversed(_parts(node)))
            while todo:
                k = todo.pop()
                if k.__class__ is cls:
                    todo += reversed(_parts(k))
                else:
                    kids.append(k)
            if cls is And:
                return Join(sc.mk_and, kids, sc.FALSE)
            return Join(sc.mk_or, kids, sc.TRUE)
        kids = _parts(node)
        if cls is Not:
            return Join(lambda rs: sc.mk_not(rs[0]), kids)
        if cls is Implies:
            return Join(lambda rs: sc.mk_or([sc.mk_not(rs[0]), rs[1]]), kids)
        if cls is Iff:
            return Join(lambda rs: sc.mk_and([
                sc.mk_or([sc.mk_not(rs[0]), rs[1]]),
                sc.mk_or([sc.mk_not(rs[1]), rs[0]])]), kids)
        if cls is BoolConst:
            return sc.SBool(node.value)
        ctor = sc.mk_exists if cls is Exists else sc.mk_forall

        def block(rs):
            body = rs[0]
            for j in range(g.n, 0, -1):
                body = ctor(sc.SVar(node.var, j), body)
            return body

        return Join(block, kids)

    return walk(_freshen(g, f), step)
