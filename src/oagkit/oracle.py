"""Brute-force semantics, independent of the elimination engine.

Three jobs:

* `evaluate` gives the direct pointwise truth value of a
  quantifier-free group formula, using projections and residue maps
  straight from the group model rather than the lowering pipeline.
* `expand_bounded` decides formulas whose quantifiers are syntactically
  bounded, by enumerating the finitely many candidate witnesses.  A
  quantifier qualifies when its body carries constant bounds
  L < k*x < U (any mix of strict and nonstrict) that pin a finite
  lexicographic interval: the bounds agree on every coordinate except
  the last and the last coordinate is discrete.
* `fuzz_corpus` generates reproducible formula streams for the
  differential tests, and `grid_eval`/`s_grid_eval` evaluate formulas
  over a whole integer box at once.  The `grid_axes` grid of sorted
  names x_1 < ... over [-B, B] has one axis per (name, coordinate), in
  that order; a truth table is a Python int with one bit per point,
  row-major: the point whose axes hold v_0, ..., v_{D-1} is the bit
  sum (v_k + B) * (2B + 1) ** (D - 1 - k), the last axis fastest.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from typing import Iterator, Mapping, Optional

from . import formulas as fm
from . import scalars as sc
from .errors import OracleError, Record
from .groups import (
    Element,
    GroupSpec,
    compare,
    compare_quot,
    element,
    neg as g_neg,
    project,
    project_fin,
    sub as g_sub,
    zero,
)

LT, LE, EQ = fm.LT, fm.LE, fm.EQ


# --- boxes ------------------------------------------------------------------


def _box_rationals(bound: int) -> list[Fraction]:
    vals = {Fraction(p, q) for q in range(1, bound + 1)
            for p in range(-bound, bound + 1)}
    return sorted(vals)


class Box(Record):
    """Componentwise finite grid: integers in [-B, B] on discrete
    coordinates, reduced fractions with numerator and denominator in
    [-B, B] on dense ones."""

    bound: int
    cap: int = 2_000_000

    def coord_values(self, kind: str) -> list:
        if kind == "Z":
            return list(range(-self.bound, self.bound + 1))
        return _box_rationals(self.bound)

    def size(self, g: GroupSpec) -> int:
        total = 1
        for kind in g.kinds:
            total *= len(self.coord_values(kind))
        return total

    def points(self, g: GroupSpec) -> Iterator[Element]:
        n = self.size(g)
        if n > self.cap:
            raise OracleError(
                f"box has {n} points, over the cap of {self.cap}")
        axes = [self.coord_values(kind) for kind in g.kinds]
        for combo in itertools.product(*axes):
            yield tuple(combo)

    def assignments(self, g: GroupSpec, names) -> Iterator[dict]:
        names = sorted(names)
        total = self.size(g) ** len(names)
        if total > self.cap:
            raise OracleError(
                f"assignment grid has {total} points, over the cap of "
                f"{self.cap}")
        pools = [list(self.points(g)) for _ in names]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))


# --- exact evaluation -------------------------------------------------------


def _atom_value(g: GroupSpec, f, env: Mapping[str, Element]) -> bool:
    v1 = fm.term_value(g, f.left, env)
    v2 = fm.term_value(g, f.right, env)
    if isinstance(f, fm.Cmp):
        c = compare(g, v1, v2)
        return c < 0 if f.rel == LT else c <= 0 if f.rel == LE else c == 0
    if isinstance(f, fm.RelCmp):
        c = compare_quot(g, project(g, f.level, v1), project(g, f.level, v2))
        return c < 0 if f.rel == LT else c <= 0
    if isinstance(f, fm.RelEq):
        return project(g, f.level, v1) == project(g, f.level, v2)
    if isinstance(f, (fm.Congr, fm.RelCongr)):
        k = f.level if isinstance(f, fm.RelCongr) else g.n
        return (project_fin(g, k, f.modulus, v1)
                == project_fin(g, k, f.modulus, v2))
    raise OracleError(f"unknown atom {f!r}")


def evaluate(g: GroupSpec, f: fm.Formula, env: Mapping[str, Element]) -> bool:
    """Pointwise truth of a quantifier-free formula."""
    return _ev(g, f, dict(env), allow_quant=False)


def _ev(g: GroupSpec, f: fm.Formula, env: dict, allow_quant: bool) -> bool:
    if isinstance(f, fm.BoolConst):
        return f.value
    if isinstance(f, fm.ATOMS):
        return _atom_value(g, f, env)
    if isinstance(f, fm.Not):
        return not _ev(g, f.body, env, allow_quant)
    if isinstance(f, fm.And):
        return all(_ev(g, it, env, allow_quant) for it in f.items)
    if isinstance(f, fm.Or):
        return any(_ev(g, it, env, allow_quant) for it in f.items)
    if isinstance(f, fm.Implies):
        return (not _ev(g, f.left, env, allow_quant)
                or _ev(g, f.right, env, allow_quant))
    if isinstance(f, fm.Iff):
        return (_ev(g, f.left, env, allow_quant)
                == _ev(g, f.right, env, allow_quant))
    if isinstance(f, (fm.Exists, fm.Forall)):
        if not allow_quant:
            raise OracleError("evaluate requires a quantifier-free formula")
        return _expand_quant(g, f, env)
    raise OracleError(f"unknown formula node {f!r}")


def expand_bounded(g: GroupSpec, f: fm.Formula, box: Optional[Box] = None):
    """Ground truth by finite expansion.

    Sentences return a boolean.  A formula with free variables needs
    `box` and returns a table {(sorted (name, value) pairs): bool} over
    the box grid."""
    free = sorted(fm.free_vars(f))
    if not free:
        return _ev(g, f, {}, allow_quant=True)
    if box is None:
        raise OracleError("formula has free variables; supply a box")
    table = {}
    for env in box.assignments(g, free):
        key = tuple(sorted(env.items()))
        table[key] = _ev(g, f, env, allow_quant=True)
    return table


# --- bounded-quantifier candidate extraction --------------------------------


def _conjuncts(f: fm.Formula):
    return f.items if isinstance(f, fm.And) else (f,)


def _as_bound(g: GroupSpec, f: fm.Formula, v: str, env: Mapping[str, Element]):
    """Recognize  const rel k*v + d  or  k*v + d rel const  (ground apart
    from v) and normalize to (k > 0, lower?, value bound on k*v, strict)."""
    if not isinstance(f, fm.Cmp) or f.rel == EQ:
        return None
    sides = []
    for t in (f.left, f.right):
        names = t.vars()
        if any(x != v and x not in env for x in names):
            return None
        sides.append(t)
    lv, rv = (s.coeff(v) for s in sides)
    if (lv == 0) == (rv == 0):
        return None
    if lv == 0:
        cside, tside, lower = sides[0], sides[1], True
    else:
        cside, tside, lower = sides[1], sides[0], False
    k = tside.coeff(v)
    rest = fm.Term(tuple((x, c) for x, c in tside.coeffs if x != v),
                   tside.const)
    bound = g_sub(g, fm.term_value(g, cside, env),
                  fm.term_value(g, rest, env))
    if k < 0:
        k, bound, lower = -k, g_neg(g, bound), not lower
    return (k, lower, bound, f.rel == LT)


def _interval(g: GroupSpec, lo: Element, lo_strict: bool,
              hi: Element, hi_strict: bool) -> Optional[list]:
    """All elements between the bounds, or None when infinite."""
    c = compare(g, lo, hi)
    if c > 0 or (c == 0 and (lo_strict or hi_strict)):
        return []
    if g.n == 0:
        return [()]
    if lo[:-1] != hi[:-1]:
        return None
    prefix = lo[:-1]
    a, b = lo[-1], hi[-1]
    if g.kinds[-1] == "Z":
        start = int(a) + (1 if lo_strict else 0)
        stop = int(b) - (1 if hi_strict else 0)
        return [prefix + (t,) for t in range(start, stop + 1)]
    if a == b:
        return [lo]
    return None


def _divide_exact(g: GroupSpec, w: Element, k: int) -> Optional[Element]:
    coords = []
    for kind, q in zip(g.kinds, w):
        if kind == "Z":
            if int(q) % k != 0:
                return None
            coords.append(int(q) // k)
        else:
            coords.append(Fraction(q) / k)
    return element(g, coords)


def _candidates(g: GroupSpec, v: str, conjuncts,
                env: Mapping[str, Element]) -> Optional[list]:
    by_k: dict[int, list] = {}
    for f in conjuncts:
        b = _as_bound(g, f, v, env)
        if b is not None:
            by_k.setdefault(b[0], []).append(b)
    for k in sorted(by_k):
        lowers = [(val, strict) for _, lower, val, strict in by_k[k] if lower]
        uppers = [(val, strict) for _, lower, val, strict in by_k[k]
                  if not lower]
        if not lowers or not uppers:
            continue
        lo, lo_s = lowers[0]
        for val, strict in lowers[1:]:
            c = compare(g, val, lo)
            if c > 0 or (c == 0 and strict):
                lo, lo_s = val, strict
        hi, hi_s = uppers[0]
        for val, strict in uppers[1:]:
            c = compare(g, val, hi)
            if c < 0 or (c == 0 and strict):
                hi, hi_s = val, strict
        values = _interval(g, lo, lo_s, hi, hi_s)
        if values is None:
            continue
        out = []
        for w in values:
            x = _divide_exact(g, w, k)
            if x is not None:
                out.append(x)
        return out
    return None


def _quant_candidates(g: GroupSpec, f, env: dict) -> tuple[list, fm.Formula]:
    if isinstance(f, fm.Exists):
        cands = _candidates(g, f.var, _conjuncts(f.body), env)
    else:
        body = f.body
        if isinstance(body, fm.Implies):
            cands = _candidates(g, f.var, _conjuncts(body.left), env)
        else:
            cands = _candidates(g, f.var, (), env)
    if cands is not None:
        return cands, f.body
    raise OracleError(
        f"unbounded quantifier over '{f.var}': no constant bounds pin a "
        "finite range")


def _expand_quant(g: GroupSpec, f, env: dict) -> bool:
    cands, body = _quant_candidates(g, f, env)
    results = (_ev(g, body, {**env, f.var: a}, True) for a in cands)
    return any(results) if isinstance(f, fm.Exists) else all(results)


# --- bit grids --------------------------------------------------------------


# `grid_axes` refuses an axis of more than AXIS_CAP values (a box past
# 2^25 - 1) or a grid of more than GRID_CAP points, the largest cap that
# refuses rank 7 at the default box 8; a table of GRID_CAP points is 51 MB
AXIS_CAP, GRID_CAP = 1 << 26, 17 ** 7 - 1


# One grid axis: index i holds the value i - bound, index steps are
# `stride` bits apart, and `full` is the grid's all-points table.
_Axis = namedtuple("_Axis", "bound stride full")


def _repeat(block: int, width: int, count: int) -> int:
    """`count` copies of `block`, one every `width` bits, by doubling."""
    out = 0
    while True:
        if count & 1:
            out = out << width | block
        count >>= 1
        if not count:
            return out
        block, width = block | block << width, 2 * width


def _axis_mask(a: _Axis, lo: int, hi: int, step: int = 1, r: int = 0) -> int:
    """The points whose value v on axis `a` has lo <= v <= hi and
    v = r modulo step: a run of stride blocks, repeated per period."""
    b, st = a.bound, a.stride
    lo = max(lo, -b)
    lo += (r - lo) % step
    count = max((min(hi, b) - lo) // step + 1, 0)
    period = (2 * b + 1) * st
    return _repeat(_repeat((1 << st) - 1, step * st, count) << (lo + b) * st,
                   period, a.full.bit_length() // period)


def _cut(rel, const: int, terms: list, full: int) -> int:
    """The points where sum(c * axis) + const is < 0 (rel LT), = 0 (EQ)
    or divisible by the int rel: on the last axis an interval or a
    residue class, for each value of the other axes.  Int entries of
    terms are bound values and join the constant."""
    const += sum(c * x for x, c in terms if not isinstance(x, _Axis))
    terms = [(x, c) for x, c in terms if isinstance(x, _Axis)]
    if not terms:
        return full if (const < 0 if rel == LT else const == 0 if rel == EQ
                        else const % rel == 0) else 0
    *rest, (a, c) = terms
    out, b = 0, a.bound
    for combo in itertools.product(*(
            [(cx * v, _axis_mask(x, v, v))
             for v in range(-x.bound, x.bound + 1)] for x, cx in rest)):
        k = const + sum(s for s, _ in combo)
        if rel == LT:  # c * v < -k
            mask = (_axis_mask(a, -b, (-k - 1) // c) if c > 0
                    else _axis_mask(a, k // -c + 1, b))
        elif rel == EQ:
            mask = 0 if k % c else _axis_mask(a, -k // c, -k // c)
        else:
            d = math.gcd(c, rel)
            mask = 0 if k % d else _axis_mask(
                a, -b, b, rel // d, -k // d * pow(c // d, -1, rel // d))
        for _, point in combo:
            mask &= point
        out |= mask
    return out


def grid_axes(g: GroupSpec, names, bound: int) -> dict:
    """The bit grid of `names` over [-bound, bound]: env[name] is the
    tuple of its n axes.  All-discrete groups, within the caps above."""
    if "Q" in g.kinds:
        raise OracleError("integer grids need an all-discrete group")
    if bound < 0:
        raise OracleError(f"grid bound must be at least 0, got {bound}")
    size, dims = 2 * bound + 1, len(names) * g.n
    if size ** dims > GRID_CAP or dims and size > AXIS_CAP:
        raise OracleError(f"grid has {size}^{dims} points, over the cap of "
                          f"{AXIS_CAP} values an axis or {GRID_CAP} points")
    full, strides = (1 << size ** dims) - 1, iter(range(dims - 1, -1, -1))
    return {name: tuple(_Axis(bound, size ** next(strides), full)
                        for _ in range(g.n)) for name in sorted(names)}


def grid_eval(g: GroupSpec, f: fm.Formula, env: Mapping[str, tuple]) -> int:
    """Truth table of a formula over a `grid_axes` grid: bit i of the int
    is its truth at point i.  Bounded quantifiers expand to candidates."""
    full = next((a.full for cs in env.values() for a in cs
                 if isinstance(a, _Axis)), 1)
    if isinstance(f, fm.BoolConst):
        return full if f.value else 0
    if isinstance(f, fm.ATOMS):
        return _atom_mask(g, f, env, full)
    if isinstance(f, fm.Not):
        return grid_eval(g, f.body, env) ^ full
    if isinstance(f, fm.And):
        return reduce(and_, (grid_eval(g, it, env) for it in f.items), full)
    if isinstance(f, fm.Or):
        return reduce(or_, (grid_eval(g, it, env) for it in f.items), 0)
    if isinstance(f, fm.Implies):
        return grid_eval(g, f.left, env) ^ full | grid_eval(g, f.right, env)
    if isinstance(f, fm.Iff):
        return grid_eval(g, f.left, env) ^ grid_eval(g, f.right, env) ^ full
    if isinstance(f, (fm.Exists, fm.Forall)):
        # candidate bounds must be ground: they may name the values of
        # enclosing bound variables, never a grid variable's axes
        ground = {v: a for v, a in env.items()
                  if not any(isinstance(x, _Axis) for x in a)}
        cands, body = _quant_candidates(g, f, ground)
        tables = (grid_eval(g, body, {**env, f.var: a}) for a in cands)
        if isinstance(f, fm.Exists):
            return reduce(or_, tables, 0)
        return reduce(and_, tables, full)
    raise OracleError(f"unknown formula node {f!r}")


def _atom_mask(g: GroupSpec, f, env: Mapping, full: int) -> int:
    """An atom's table, coordinate by coordinate of left minus right."""
    d = fm.t_add(g, f.left, fm.t_scale(g, -1, f.right))
    diffs = [(int(d.const[j]), [(env[v][j], c) for v, c in d.coeffs])
             for j in range(getattr(f, "level", g.n))]
    if isinstance(f, (fm.Congr, fm.RelCongr)):
        return reduce(and_, (_cut(f.modulus, *x, full) for x in diffs), full)
    lt, eq = 0, full
    for const, terms in diffs:
        lt |= eq & _cut(LT, const, terms, full)
        eq &= _cut(EQ, const, terms, full)
    rel = EQ if isinstance(f, fm.RelEq) else f.rel
    return lt if rel == LT else lt | eq if rel == LE else eq


def s_grid_eval(g: GroupSpec, f: sc.SFormula, env: Mapping,
                _memo: Optional[dict] = None) -> int:
    """Truth table of a quantifier-free scalar formula over a
    `scalar_axes` grid, bit for bit as `grid_eval`'s.  Shared subformulas
    evaluate once."""
    if _memo is None:
        _memo = {}
    if f in _memo:
        return _memo[f]
    full = next((a.full for a in env.values()), 1)
    if isinstance(f, sc.SBool):
        out = full if f.value else 0
    elif isinstance(f, (sc.SLt, sc.SEq, sc.SCongr)):
        rel = getattr(f, "modulus", LT if isinstance(f, sc.SLt) else EQ)
        out = _cut(rel, f.expr.const, [(env[v], c) for v, c in f.expr.coeffs],
                   full)
    elif isinstance(f, sc.SNot):
        out = s_grid_eval(g, f.body, env, _memo) ^ full
    elif isinstance(f, (sc.SAnd, sc.SOr)):
        op, unit = (and_, full) if isinstance(f, sc.SAnd) else (or_, 0)
        out = reduce(op, (s_grid_eval(g, it, env, _memo) for it in f.items),
                     unit)
    else:
        raise OracleError("scalar grid evaluation requires a quantifier-free "
                          f"formula, got {type(f).__name__}")
    _memo[f] = out
    return out


def scalar_axes(g: GroupSpec, names, bound: int,
                grid: Optional[dict] = None) -> dict:
    """`grid_axes(g, names, bound)` keyed by SVar for s_grid_eval, in the
    same bit order: given as `grid`, its own axes, and no second table."""
    return {sc.SVar(name, j): a
            for name, coords in (grid or grid_axes(g, names, bound)).items()
            for j, a in enumerate(coords, start=1)}


# --- fuzz corpus ------------------------------------------------------------


class FuzzLimits(Record):
    max_coeff: int = 3
    max_modulus: int = 8
    max_depth: int = 2
    window: int = 6
    max_den: int = 2


def _rand_const(g: GroupSpec, rng: random.Random, lim: FuzzLimits) -> Element:
    coords = []
    for kind in g.kinds:
        if kind == "Z":
            coords.append(rng.randint(-lim.window, lim.window))
        else:
            den = rng.randint(1, lim.max_den)
            coords.append(Fraction(rng.randint(-lim.window * den,
                                               lim.window * den), den))
    return element(g, coords)


def _rand_term(g: GroupSpec, rng: random.Random, lim: FuzzLimits,
               names) -> fm.Term:
    coeffs = {}
    for v in names:
        if rng.random() < 0.7:
            c = rng.randint(-lim.max_coeff, lim.max_coeff)
            if c:
                coeffs[v] = c
    const = _rand_const(g, rng, lim) if (rng.random() < 0.8 or not coeffs) \
        else zero(g)
    return fm.term(coeffs, const)


def _rand_atom(g: GroupSpec, rng: random.Random, lim: FuzzLimits,
               names) -> fm.Formula:
    t1 = _rand_term(g, rng, lim, names)
    t2 = _rand_term(g, rng, lim, names)
    kind = rng.choice(["cmp", "cmp", "congr", "relcmp", "relcongr", "releq"])
    if kind == "cmp":
        return fm.Cmp(rng.choice([LT, LE, EQ]), t1, t2)
    if kind == "congr":
        return fm.Congr(rng.randint(2, lim.max_modulus), t1, t2)
    k = rng.randint(0, g.n)
    if kind == "relcmp":
        return fm.RelCmp(k, rng.choice([LT, LE]), t1, t2)
    if kind == "relcongr":
        return fm.RelCongr(k, rng.randint(2, lim.max_modulus), t1, t2)
    return fm.RelEq(k, t1, t2)


def _rand_qf(g: GroupSpec, rng: random.Random, lim: FuzzLimits,
             names, depth: int) -> fm.Formula:
    if depth <= 0 or rng.random() < 0.4:
        return _rand_atom(g, rng, lim, names)
    pick = rng.random()
    if pick < 0.2:
        return fm.Not(_rand_qf(g, rng, lim, names, depth - 1))
    args = tuple(_rand_qf(g, rng, lim, names, depth - 1)
                 for _ in range(rng.randint(2, 3)))
    if pick < 0.6:
        return fm.And(args)
    if pick < 0.9:
        return fm.Or(args)
    return fm.Implies(args[0], args[1])


def _rand_bounded(g: GroupSpec, rng: random.Random, lim: FuzzLimits,
                  outer_names, depth: int) -> fm.Formula:
    v = f"q{depth}_{rng.randint(0, 999)}"
    k = rng.randint(1, lim.max_coeff)
    lo = _rand_const(g, rng, lim)
    # a dense final coordinate admits no finite window wider than a point
    width = rng.randint(0, 2 * lim.window) \
        if g.n and g.kinds[-1] == "Z" else 0
    hi_last = lo[-1] + width if g.n else None
    hi = lo[:-1] + (hi_last,) if g.n else lo
    lo_rel = rng.choice([LT, LE])
    hi_rel = rng.choice([LT, LE])
    tv = fm.t_scale(g, k, fm.t_var(g, v))
    bounds = [fm.Cmp(lo_rel, fm.t_const(lo), tv),
              fm.Cmp(hi_rel, tv, fm.t_const(hi))]
    inner = list(outer_names) + [v]
    if depth > 1 and rng.random() < 0.4:
        body = _rand_bounded(g, rng, lim, inner, depth - 1)
    else:
        body = _rand_qf(g, rng, lim, inner, lim.max_depth)
    if rng.random() < 0.5:
        return fm.Exists(v, fm.And(tuple(bounds + [body])))
    return fm.Forall(v, fm.Implies(fm.And(tuple(bounds)), body))


def _rand_endseg_candidate(g: GroupSpec, rng: random.Random,
                           lim: FuzzLimits) -> fm.Formula:
    x = fm.t_var(g, "x")
    b1 = _rand_const(g, rng, lim)
    shape = rng.randrange(4)
    if shape == 0:
        return fm.Cmp(rng.choice([LT, LE]), fm.t_const(b1), x)
    if shape == 1:
        k = rng.randint(1, lim.max_coeff)
        return fm.Cmp(rng.choice([LT, LE]), fm.t_const(b1),
                      fm.t_scale(g, k, x))
    b2 = _rand_const(g, rng, lim)
    m = rng.randint(2, lim.max_modulus)
    piece = fm.And((fm.Cmp(LE, fm.t_const(b2), x),
                    fm.Congr(m, x, fm.t_const(_rand_const(g, rng, lim)))))
    if shape == 2:
        return fm.Or((fm.Cmp(LT, fm.t_const(b1), x), piece))
    return fm.Or((fm.Cmp(LE, fm.t_const(b1), x), piece,
                  fm.Cmp(LT, fm.t_const(b2), fm.t_scale(g, 2, x))))


def fuzz_corpus(g: GroupSpec, seed: int, count: int,
                limits: FuzzLimits = FuzzLimits(),
                template: str = "mixed") -> list:
    """Deterministic formula stream.  Templates: 'bounded' gives
    sentences and one-free-variable formulas whose quantifiers all
    carry finite syntactic bounds; 'qf' gives quantifier-free formulas
    in up to two variables; 'end-segment' gives one-variable formulas
    post-filtered to define end segments; 'mixed' alternates bounded
    and qf."""
    rng = random.Random(seed)
    out = []
    if template == "end-segment":
        from .segments import is_end_segment
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 200 * count:
                raise OracleError("end-segment corpus generation stalled")
            cand = _rand_endseg_candidate(g, rng, limits)
            if is_end_segment(g, cand, "x"):
                out.append(cand)
        return out
    for i in range(count):
        if template == "qf" or (template == "mixed" and i % 2 == 1):
            names = ["x"] if rng.random() < 0.6 else ["x", "y"]
            out.append(_rand_qf(g, rng, limits, names, limits.max_depth))
        elif template in ("bounded", "mixed"):
            free = ["z"] if rng.random() < 0.5 else []
            depth = 2 if rng.random() < 0.3 else 1
            out.append(_rand_bounded(g, rng, limits, free, depth))
        else:
            raise OracleError(f"unknown corpus template '{template}'")
    return out
