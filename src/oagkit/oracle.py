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
  over whole integer boxes as numpy arrays so the differential tests
  can afford thousands of formulas.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
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


# --- numpy grid evaluation --------------------------------------------------


def grid_axes(g: GroupSpec, names, bound: int) -> dict:
    """One integer axis per (variable, coordinate), mutually
    broadcastable: variable i's coordinate j varies along its own
    dimension.  All-discrete groups only."""
    import numpy as np
    if "Q" in g.kinds:
        raise OracleError("integer grids need an all-discrete group")
    if bound < 0:
        raise OracleError(f"grid bound must be at least 0, got {bound}")
    names = sorted(names)
    total = len(names) * g.n
    vals = np.arange(-bound, bound + 1, dtype=np.int64)
    env = {}
    for i, name in enumerate(names):
        coords = []
        for j in range(g.n):
            shape = [1] * total
            shape[i * g.n + j] = vals.size
            coords.append(vals.reshape(shape))
        env[name] = tuple(coords)
    return env


def _term_arrays(g: GroupSpec, t: fm.Term, env: Mapping[str, tuple]):
    import numpy as np
    out = []
    for j in range(g.n):
        acc = np.int64(int(t.const[j]))
        for v, c in t.coeffs:
            acc = acc + np.int64(c) * env[v][j]
        out.append(acc)
    return out


def _lex_masks(d1, d2, k: int):
    import numpy as np
    lt = np.bool_(False)
    eq = np.bool_(True)
    for j in range(k):
        d = d1[j] - d2[j]
        lt = lt | (eq & (d < 0))
        eq = eq & (d == 0)
    return lt, eq


def grid_eval(g: GroupSpec, f: fm.Formula, env: Mapping[str, tuple]):
    """Vectorized truth table of a formula over integer grids.  The
    environment maps each free variable to a tuple of n broadcastable
    integer arrays; bounded quantifiers expand to candidate loops."""
    import numpy as np
    if isinstance(f, fm.BoolConst):
        return np.bool_(f.value)
    if isinstance(f, fm.ATOMS):
        d1 = _term_arrays(g, f.left, env)
        d2 = _term_arrays(g, f.right, env)
        if isinstance(f, (fm.Cmp, fm.RelCmp, fm.RelEq)):
            k = getattr(f, "level", g.n)
            lt, eq = _lex_masks(d1, d2, k)
            rel = EQ if isinstance(f, fm.RelEq) else f.rel
            if rel == LT:
                return lt
            if rel == LE:
                return lt | eq
            return eq
        k = f.level if isinstance(f, fm.RelCongr) else g.n
        acc = np.bool_(True)
        for j in range(k):
            acc = acc & ((d1[j] - d2[j]) % f.modulus == 0)
        return acc
    if isinstance(f, fm.Not):
        return ~grid_eval(g, f.body, env)
    if isinstance(f, (fm.And, fm.Or)):
        op = np.logical_and if isinstance(f, fm.And) else np.logical_or
        acc = np.bool_(isinstance(f, fm.And))
        for it in f.items:
            acc = op(acc, grid_eval(g, it, env))
        return acc
    if isinstance(f, fm.Implies):
        return ~grid_eval(g, f.left, env) | grid_eval(g, f.right, env)
    if isinstance(f, fm.Iff):
        return grid_eval(g, f.left, env) == grid_eval(g, f.right, env)
    if isinstance(f, (fm.Exists, fm.Forall)):
        # candidate bounds must be ground: grid variables never appear in
        # the recognized bound atoms
        cands, body = _quant_candidates(g, f, {})
        is_ex = isinstance(f, fm.Exists)
        acc = np.bool_(not is_ex)
        for a in cands:
            point = tuple(np.int64(int(q)) for q in a)
            sub = grid_eval(g, body, {**env, f.var: point})
            acc = (acc | sub) if is_ex else (acc & sub)
        return acc
    raise OracleError(f"unknown formula node {f!r}")


def s_grid_eval(g: GroupSpec, f: sc.SFormula, env: Mapping,
                _memo: Optional[dict] = None):
    """Vectorized truth table of a quantifier-free scalar formula; the
    environment maps SVar to broadcastable integer arrays.  Shared
    subformulas evaluate once."""
    import numpy as np
    if _memo is None:
        _memo = {}
    hit = _memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, sc.SBool):
        out = np.bool_(f.value)
    elif isinstance(f, (sc.SLt, sc.SEq, sc.SCongr)):
        e = f.expr
        acc = np.int64(e.const)
        for v, c in e.coeffs:
            acc = acc + np.int64(c) * env[v]
        if isinstance(f, sc.SLt):
            out = acc < 0
        elif isinstance(f, sc.SEq):
            out = acc == 0
        else:
            out = acc % f.modulus == 0
    elif isinstance(f, sc.SNot):
        out = ~s_grid_eval(g, f.body, env, _memo)
    elif isinstance(f, (sc.SAnd, sc.SOr)):
        op = np.logical_and if isinstance(f, sc.SAnd) else np.logical_or
        acc = np.bool_(isinstance(f, sc.SAnd))
        for it in f.items:
            acc = op(acc, s_grid_eval(g, it, env, _memo))
        out = acc
    else:
        raise OracleError("scalar grid evaluation requires a quantifier-free "
                          f"formula, got {type(f).__name__}")
    _memo[f] = out
    return out


def scalar_axes(g: GroupSpec, names, bound: int) -> dict:
    """Flatten grid_axes output to SVar keys for s_grid_eval."""
    env = grid_axes(g, names, bound)
    out = {}
    for name, coords in env.items():
        for j, arr in enumerate(coords, start=1):
            out[sc.SVar(name, j)] = arr
    return out


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
