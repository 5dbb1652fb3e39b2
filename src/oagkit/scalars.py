"""Scalar (lowered) formulas.

Lowering a group formula replaces each group variable x by one scalar
variable per coordinate (x.1 most significant).  Every atom of a lowered
formula lives entirely inside a single coordinate, so each atom is a
linear constraint over variables of one sort: a discrete coordinate
behaves like the integers with congruences, a dense one like the
rationals without them.

Atoms are kept in a canonical homogeneous form (expr < 0, expr = 0,
expr ~ 0 mod m) over the integers, and the smart constructors normalize
aggressively: ground atoms evaluate away, contents are divided out,
discrete strict bounds are tightened to integers, and a dense atom,
whose truth value survives multiplication by a positive integer, is
kept as its coprime integer multiple.  `Fraction` is for values only:
coordinates, roots and evaluation.  The constructors also charge an
optional node budget so quantifier elimination can fail fast instead of
blowing up.

All expression and formula nodes are hash-consed: structurally equal
terms are the same object, equality and hashing are identity, and each
node caches its free-variable set.  Elimination output is therefore a
DAG with heavy sharing.  Its traversals (here evaluation, atom
collection and printing; in `qe` normal form, elimination and its
helpers) run on one iterative walker, `walk`, with one memo per call
keyed on the node, so they take DAG size, not tree size, at any depth;
`s_subst` still recurses.  `formulas` lowers and renames its (not
interned) group formulas on `walk` too, and prints them with
`preorder_text`.  Each interned class keeps a process-global plain
dict from key to a weak reference, `_Ref`, which drops its entry when
its object dies; there is no lock, so interning is single-threaded.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import PRINT_LIMIT, BudgetExceeded, FormulaError, OutputTooLarge
from .groups import GroupSpec


class SVar:
    """Scalar variable: coordinate `coord` (1-based) of group variable
    `base`.  Immutable; compares, hashes and prints as the pair would in
    a frozen dataclass, with the hash computed once."""

    __slots__ = ("base", "coord", "_hash")

    def __init__(self, base: str, coord: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coord", coord)
        object.__setattr__(self, "_hash", hash((base, coord)))

    def __eq__(self, other):
        if other.__class__ is SVar:
            return self.base == other.base and self.coord == other.coord
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SVar(base={self.base!r}, coord={self.coord!r})"

    def __str__(self) -> str:
        return f"{self.base}.{self.coord}"

    def __setattr__(self, name, value):
        raise AttributeError("SVar is immutable")

    def __delattr__(self, name):
        raise AttributeError("SVar is immutable")


def _var_key(item):
    v, _ = item
    return (v.base, v.coord)


class _Ref(weakref.ref):
    """An intern table's entry: a weak reference to the object stored
    under key in table.  Its callback, `_drop`, removes the entry when the
    object dies, but only while the entry is still this reference, so a
    newer object interned under the same key survives a late callback."""

    __slots__ = ("key", "table")


def _drop(ref):
    if ref.table.get(ref.key) is ref:
        del ref.table[ref.key]


# Each interned class has a `_table` dict from key to `_Ref`, and names in
# `_fields` the slots `_make` fills.  A constructor looks its key up as
# `cls._table.get(key, _GONE)()`: the live object, or None (`_GONE()` is
# None, as a dead ref's call is).  Interned objects are always true, so
# `... or _make(...)` builds only on a miss.
_GONE = type(None)
_new, _set = object.__new__, object.__setattr__


def _make(cls, key, *values):
    """A new cls object with values for its `_fields`, stored under key."""
    obj = _new(cls)
    for name, value in zip(cls._fields, values):
        _set(obj, name, value)
    table = cls._table
    ref = table[key] = _Ref(obj, _drop)
    ref.key = key
    ref.table = table
    return obj


class LinExpr:
    """Integer-coefficient linear expression plus an integer constant.
    Interned in `_table` on (coeffs, const): equal coefficient tuples and
    constants yield the same object.  The constant is stored as given:
    callers pass an int."""

    __slots__ = ("coeffs", "const", "vars_set", "__weakref__")
    _table: dict = {}
    _fields = ("coeffs", "const", "vars_set")

    def __new__(cls, coeffs, const):
        coeffs = tuple(coeffs)
        key = (coeffs, const)
        return cls._table.get(key, _GONE)() or _make(
            cls, key, coeffs, const, frozenset(v for v, _ in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LinExpr is immutable")

    def is_ground(self) -> bool:
        return not self.coeffs

    def coeff(self, v: SVar) -> int:
        for w, c in self.coeffs:
            if w == v:
                return c
        return 0

    def vars(self) -> tuple:
        return tuple(v for v, _ in self.coeffs)

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        parts.append(str(self.const))
        return " + ".join(parts)


def lin(coeffs: Mapping[SVar, int] | Iterable, const=0) -> LinExpr:
    if isinstance(coeffs, Mapping):
        items = coeffs.items()
    else:
        items = coeffs
    merged: dict[SVar, int] = {}
    for v, c in items:
        merged[v] = merged.get(v, 0) + c
    cleaned = tuple(sorted(((v, c) for v, c in merged.items() if c != 0),
                           key=_var_key))
    return LinExpr(cleaned, const)


def lin_var(v: SVar) -> LinExpr:
    return LinExpr(((v, 1),), 0)


def lin_const(q) -> LinExpr:
    return LinExpr((), q)


def lin_add(a: LinExpr, b: LinExpr) -> LinExpr:
    m = dict(a.coeffs)
    for v, c in b.coeffs:
        m[v] = m.get(v, 0) + c
    return lin(m, a.const + b.const)


def lin_neg(a: LinExpr) -> LinExpr:
    return LinExpr(tuple((v, -c) for v, c in a.coeffs), -a.const)


def lin_scale(k, a: LinExpr) -> LinExpr:
    if k == 0:
        return lin_const(0)
    return LinExpr(tuple((v, k * c) for v, c in a.coeffs), k * a.const)


def lin_subst(e: LinExpr, v: SVar, repl: LinExpr, den: int = 1) -> LinExpr:
    """den * e with v replaced by repl/den (den > 0); e itself when v
    does not occur."""
    c = e.coeff(v)
    if c == 0:
        return e
    rest = LinExpr(tuple((w, den * k) for w, k in e.coeffs if w != v),
                   den * e.const)
    return lin_add(rest, lin_scale(c, repl))


# --- formula nodes ----------------------------------------------------------


class _Node:
    """Interned immutable formula node: equality is identity.  Each class
    keeps its own `_table`, keyed on the node's fields, and a node's `fv`
    is computed only when it is built."""

    __slots__ = ("fv", "__weakref__")

    def __init_subclass__(cls):
        cls._table, cls._fields = {}, cls.__slots__ + ("fv",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class SBool(_Node):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = bool(value)
        return cls._table.get(value, _GONE)() or _make(
            cls, value, value, frozenset())

    def __repr__(self):
        return "TRUE" if self.value else "FALSE"


class SLt(_Node):
    __slots__ = ("expr",)

    def __new__(cls, expr):
        return cls._table.get(expr, _GONE)() or _make(
            cls, expr, expr, expr.vars_set)

    def __repr__(self):
        return f"({self.expr!r} < 0)"


class SEq(_Node):
    __slots__ = ("expr",)
    __new__ = SLt.__new__

    def __repr__(self):
        return f"({self.expr!r} = 0)"


class SCongr(_Node):
    __slots__ = ("modulus", "expr")

    def __new__(cls, modulus, expr):
        modulus = int(modulus)
        key = (modulus, expr)
        return cls._table.get(key, _GONE)() or _make(
            cls, key, modulus, expr, expr.vars_set)

    def __repr__(self):
        return f"({self.expr!r} ~ 0 mod {self.modulus})"


class SNot(_Node):
    __slots__ = ("body",)

    def __new__(cls, body):
        return cls._table.get(body, _GONE)() or _make(
            cls, body, body, body.fv)

    def __repr__(self):
        return f"~{self.body!r}"


class SAnd(_Node):
    __slots__ = ("items",)

    def __new__(cls, items):
        items = tuple(items)
        return cls._table.get(items, _GONE)() or _make(
            cls, items, items, frozenset().union(*[it.fv for it in items]))

    def __repr__(self):
        return "(" + " & ".join(map(repr, self.items)) + ")"


class SOr(_Node):
    __slots__ = ("items",)
    __new__ = SAnd.__new__

    def __repr__(self):
        return "(" + " | ".join(map(repr, self.items)) + ")"


class SExists(_Node):
    __slots__ = ("var", "body")

    def __new__(cls, var, body):
        key = (var, body)
        return cls._table.get(key, _GONE)() or _make(
            cls, key, var, body, body.fv - {var})

    def __repr__(self):
        return f"(E {self.var} . {self.body!r})"


class SForall(_Node):
    __slots__ = ("var", "body")
    __new__ = SExists.__new__

    def __repr__(self):
        return f"(A {self.var} . {self.body!r})"


SFormula = Union[SBool, SLt, SEq, SCongr, SNot, SAnd, SOr, SExists, SForall]

TRUE = SBool(True)
FALSE = SBool(False)


# --- node budget ------------------------------------------------------------

_local = threading.local()


class budget_scope:
    """Context manager charging scalar-node construction against a limit.
    A scope without a limit opened inside another scope joins it, as a
    nested `operation_scope` does, so an inner call passing no budget
    keeps the caller's limit; entering it yields the open scope."""

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.used = 0

    def __enter__(self):
        self.prev = getattr(_local, "budget", None)
        if self.limit is None and self.prev is not None:
            return self.prev
        _local.budget = self
        return self

    def __exit__(self, *exc):
        _local.budget = self.prev
        return False

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(
                f"node budget exhausted ({self.used} > {self.limit})")


def _charge(amount: int = 1) -> None:
    b = getattr(_local, "budget", None)
    if b is not None:
        b.charge(amount)


# --- operation memo ---------------------------------------------------------


class operation_scope:
    """Context manager holding one elimination memo for the duration of
    a high-level operation.  A nested scope joins the outermost one,
    which drops the memo on exit, so nothing is remembered between
    operations."""

    def __enter__(self):
        self.outermost = getattr(_local, "memo", None) is None
        if self.outermost:
            _local.memo = {}
        return self

    def __exit__(self, *exc):
        if self.outermost:
            _local.memo = None
        return False


def operation(fn):
    """Run fn inside an operation_scope."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        with operation_scope():
            return fn(*args, **kwargs)
    return scoped


def operation_memo() -> Optional[dict]:
    """The memo of the operation open on this thread, or None."""
    return getattr(_local, "memo", None)


# --- sorts ------------------------------------------------------------------


def kind_of(g: GroupSpec, v: SVar) -> str:
    if not 1 <= v.coord <= g.n:
        raise FormulaError(f"scalar variable {v} outside group of rank {g.n}")
    return g.kinds[v.coord - 1]


def atom_kind(g: GroupSpec, expr: LinExpr) -> str:
    """The common sort of an atom's variables.  Atoms never mix sorts
    because lowering keeps every atom inside one coordinate."""
    kinds = {kind_of(g, v) for v in expr.vars_set}
    if len(kinds) != 1:
        raise FormulaError(f"atom mixes sorts: {expr!r}")
    return kinds.pop()


# --- smart constructors -----------------------------------------------------


def _content(e: LinExpr) -> int:
    return math.gcd(*(abs(c) for _, c in e.coeffs)) if e.coeffs else 0


def mk_lt(g: GroupSpec, e: LinExpr) -> SFormula:
    _charge()
    if e.is_ground():
        return SBool(e.const < 0)
    d = _content(e)
    if atom_kind(g, e) != "Z":
        # dense: divide by a common factor of every integer in the atom
        d = math.gcd(d, e.const)
    # integer variables: divide out the content and tighten, using
    # sum(a/d * v) < -c/d  iff  sum(a/d * v) + floor(c/d) < 0
    coeffs = tuple((v, c // d) for v, c in e.coeffs)
    return SLt(LinExpr(coeffs, e.const // d))


def mk_le(g: GroupSpec, e: LinExpr) -> SFormula:
    # e <= 0  ==  not (0 < e); dense sorts need the disjunction with equality
    if e.is_ground():
        return SBool(e.const <= 0)
    if atom_kind(g, e) == "Z":
        return mk_lt(g, lin_add(e, lin_const(-1)))
    return mk_or([mk_lt(g, e), mk_eq(g, e)])


def mk_eq(g: GroupSpec, e: LinExpr) -> SFormula:
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


def mk_congr(g: GroupSpec, m: int, e: LinExpr) -> SFormula:
    _charge()
    if m < 1:
        raise FormulaError(f"congruence modulus {m} must be >= 1")
    if e.is_ground():
        return SBool(e.const % m == 0)
    if atom_kind(g, e) == "Q":
        # dense coordinates are divisible: every congruence is trivial
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


def mk_not(f: SFormula) -> SFormula:
    _charge()
    if isinstance(f, SBool):
        return SBool(not f.value)
    if isinstance(f, SNot):
        return f.body
    return SNot(f)


def _flatten(items, cls, absorb: SBool):
    out = []
    seen = set()
    for it in items:
        if isinstance(it, SBool):
            if it.value == absorb.value:
                return None
            continue
        sub = it.items if isinstance(it, cls) else (it,)
        for s in sub:
            if s not in seen:
                seen.add(s)
                out.append(s)
    return out


def mk_and(items: Iterable[SFormula]) -> SFormula:
    _charge()
    out = _flatten(items, SAnd, FALSE)
    if out is None:
        return FALSE
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return SAnd(out)


def mk_or(items: Iterable[SFormula]) -> SFormula:
    _charge()
    out = _flatten(items, SOr, TRUE)
    if out is None:
        return TRUE
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return SOr(out)


def mk_exists(v: SVar, body: SFormula) -> SFormula:
    _charge()
    if isinstance(body, SBool):
        return body
    return SExists(v, body)


def mk_forall(v: SVar, body: SFormula) -> SFormula:
    _charge()
    if isinstance(body, SBool):
        return body
    return SForall(v, body)


# --- traversal --------------------------------------------------------------


_UNSET = object()


class Join:
    """A composite key's answer in `walk`: fn of the list of its
    children's results, in the order of keys, taken after the first
    result that is stop, or after all of them."""

    __slots__ = ("fn", "keys", "stop")

    def __init__(self, fn, keys, stop=_UNSET) -> None:
        self.fn, self.keys, self.stop = fn, keys, stop


def walk(root, step):
    """Post-order walk from root without recursion: step(key) answers a
    key with its result, or with a Join over child keys.  One memo per
    call, keyed on the key, so each key is stepped once.  A Join's
    children after its stop are never walked: the rewrites stop at the
    first FALSE conjunct or TRUE disjunct, as `mk_and` and `mk_or` stop
    drawing on a generator, so they skip the same later Cooper rows and
    eliminations and build the same nodes in the same order."""
    memo: dict = {}
    top = step(root)
    if top.__class__ is not Join:
        return top
    stack = [(root, top, iter(top.keys), [])]
    while True:
        frame = key, join, todo, done = stack[-1]
        # resumed after a child frame, whose result may be the stop
        for child in todo if not done or done[-1] is not join.stop else ():
            r = memo.get(child, _UNSET)
            if r is _UNSET:
                r = step(child)
                if r.__class__ is Join:
                    stack.append((child, r, iter(r.keys), []))
                    break
                memo[child] = r
            done.append(r)
            if r is join.stop:
                break
        if stack[-1] is frame:
            stack.pop()
            out = memo[key] = join.fn(done)
            if not stack:
                return out
            stack[-1][3].append(out)


def _nothing(results):
    return None


def s_free_vars(f: SFormula) -> frozenset:
    return f.fv


def s_subst(g: GroupSpec, f: SFormula, v: SVar, repl: LinExpr,
            den: int = 1, _memo: Optional[dict] = None) -> SFormula:
    """Substitute repl/den (den > 0) for a variable, renormalizing atoms;
    an atom mentioning the variable is multiplied by den first, which
    keeps its truth value because den > 1 only replaces a dense variable,
    and dense atoms carry no congruences.  Subtrees not mentioning the
    variable are shared, not copied."""
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
    elif isinstance(f, (SExists, SForall)):
        if f.var == v or f.var in repl.vars_set:
            raise FormulaError("substitution under a capturing quantifier")
        body = s_subst(g, f.body, v, repl, den, _memo)
        ctor = mk_exists if isinstance(f, SExists) else mk_forall
        out = ctor(f.var, body)
    else:
        raise FormulaError(f"unknown scalar node {f!r}")
    _memo[f] = out
    return out


def atoms(f: SFormula) -> list:
    """The distinct atoms of a quantifier-free formula in preorder,
    including those under any negation."""
    out: list = []

    def step(node):
        cls = node.__class__
        if cls is SLt or cls is SEq or cls is SCongr:
            out.append(node)
        elif cls is SNot or cls is SAnd or cls is SOr:
            return Join(_nothing, (node.body,) if cls is SNot else node.items)

    walk(f, step)
    return out


def roots_and_modulus(f: SFormula, v: SVar) -> tuple:
    """The sorted roots of f's order atoms in v, and the lcm of the
    moduli of f's congruences in v.  Every atom of f must mention one
    variable: AssertionError otherwise."""
    roots = set()
    modulus = 1
    for atom in atoms(f):
        coeffs = atom.expr.coeffs
        if len(coeffs) > 1:
            raise AssertionError(
                f"atom {atom!r} mentions more than one variable")
        if coeffs[0][0] != v:
            continue
        if isinstance(atom, SCongr):
            modulus = math.lcm(modulus, atom.modulus)
        else:
            roots.add(Fraction(-atom.expr.const, coeffs[0][1]))
    return sorted(roots), modulus


def s_is_qf(f: SFormula) -> bool:
    """Whether f has no quantifier."""
    def step(node):
        cls = node.__class__
        if cls is SNot or cls is SAnd or cls is SOr:
            return Join(all, (node.body,) if cls is SNot else node.items,
                        False)
        return cls is SBool or cls is SLt or cls is SEq or cls is SCongr

    return walk(f, step)


def expr_value(e: LinExpr, env: Mapping[SVar, object]) -> Fraction:
    total = e.const
    for v, c in e.coeffs:
        if v not in env:
            raise FormulaError(f"no value for {v} in evaluation environment")
        total += c * Fraction(env[v])
    return total


def s_eval(g: GroupSpec, f: SFormula, env: Mapping[SVar, object]) -> bool:
    """Evaluate a quantifier-free scalar formula pointwise."""
    def step(node):
        cls = node.__class__
        if cls is SBool:
            return node.value
        if cls is SLt:
            return expr_value(node.expr, env) < 0
        if cls is SEq:
            return expr_value(node.expr, env) == 0
        if cls is SCongr:
            val = expr_value(node.expr, env)
            return val.denominator == 1 and int(val) % node.modulus == 0
        if cls is SNot:
            return Join(lambda rs: not rs[0], (node.body,))
        if cls is SAnd:
            return Join(all, node.items, False)
        if cls is SOr:
            return Join(any, node.items, True)
        raise FormulaError("s_eval requires a quantifier-free formula")

    return walk(f, step)


def _atom_text(f) -> str:
    # order atoms print divided by their coefficient content, which
    # leaves the constant a fraction on dense coordinates
    d = 1 if isinstance(f, SCongr) else _content(f.expr)
    parts = []
    for v, c in f.expr.coeffs:
        c //= d
        parts.append(str(v) if c == 1 else f"(* {c} {v})")
    lhs = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
    if isinstance(f, SCongr):
        return f"(congr {f.modulus} {lhs} (c {-f.expr.const % f.modulus}))"
    op = "<" if isinstance(f, SLt) else "="
    return f"({op} {lhs} (c {Fraction(-f.expr.const, d)}))"


def _shape(f) -> tuple:
    """The pieces f prints as, in order: strings, and the subformulas
    between them."""
    if isinstance(f, SBool):
        return ("true" if f.value else "false",)
    if isinstance(f, (SLt, SEq, SCongr)):
        return (_atom_text(f),)
    if isinstance(f, SNot):
        return "(not ", f.body, ")"
    if isinstance(f, (SAnd, SOr)):
        spaced = [x for it in f.items for x in (" ", it)]
        spaced[0] = "(and " if isinstance(f, SAnd) else "(or "
        return (*spaced, ")")
    if isinstance(f, (SExists, SForall)):
        op = "exists" if isinstance(f, SExists) else "forall"
        return f"({op} ({f.var}) ", f.body, ")"
    raise FormulaError(f"unknown scalar node {f!r}")


def print_scalar(f: SFormula) -> str:
    """Readable s-expression form, scalar variables printed base.coord
    and the constant moved to the right-hand side.  The printed length
    is walked first, and a text longer than PRINT_LIMIT raises
    OutputTooLarge before any of it is built.  The text is then emitted
    in preorder (`preorder_text`)."""
    shapes: dict = {}

    def size(piece):
        if piece.__class__ is str:
            return len(piece)
        shapes[piece] = shape = _shape(piece)
        return Join(sum, shape)

    n = walk(f, size)
    if n > PRINT_LIMIT:
        raise OutputTooLarge(f"printed formula would have {n} characters, "
                             f"more than the limit of {PRINT_LIMIT}")
    return preorder_text(f, shapes.__getitem__)


def preorder_text(root, shape) -> str:
    """The text of root, where shape(node) gives the strings and nodes
    that node prints as, in order.  Emitted in preorder: joining each
    subtree's text into its parent's is quadratic on a deep formula."""
    out: list = []
    todo: list = [root]
    while todo:
        piece = todo.pop()
        if piece.__class__ is str:
            out.append(piece)
        else:
            todo.extend(reversed(shape(piece)))
    return "".join(out)
