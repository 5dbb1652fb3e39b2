"""The cell model of a monadic form, and the unary questions asked of it.

A formula whose only free variable is one group variable is eliminated
once (`qe.qf_form`), and each atom of the result mentions one
coordinate.  Those atoms keep their truth values on each cell of a
coordinate's line: a root of its order atoms (an int on Z) or a gap
between two roots, and on Z within those each class modulo L, the lcm
of its moduli.  So the fibre over x.j = t, the form with x.j = t (`pin`
folds each atom by integer arithmetic, and substitutes no expression),
depends only on t's cell and residue.

`Cells` is one form's model of one coordinate: its cells in ascending
order (`line_cells`), their fibres, and what the unary layers read off
them.  `_walk` compares two forms' fibres over their joint cells, so
`holds_somewhere` compares a form with FALSE and `same_points` two
forms.  `qe`, `segments` and `typegen` ask this module.  While an
operation is open (`scalars.operation_scope`), its memo keeps one model
per form and coordinate, with its fibres, under a key tagged "cells",
and `_walk`'s answer for each pair of forms under "walk".
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional

from . import scalars as sc
from .groups import GroupSpec, crt, divisors
from .scalars import (FALSE, SBool, SVar, fold_atom, map_atoms,
                      operation_memo, roots_and_modulus)


def line_cells(discrete: bool, roots: list, w: int):
    """The cells of a line cut at the sorted roots (ints on Z), lazily,
    in ascending order, as triples (t, lo, hi): a representative t, and
    the cell's ends lo and hi (None: unbounded).  A root c is the cell
    (c, c, c).  A gap's ends are the roots around it on Q and its first
    and last integer on Z, where it has w representatives: its first w
    integers (the last w of the gap unbounded below), each standing for
    the integers of the gap congruent to it modulo w.  On Q a gap's
    representative is its midpoint, or one past its finite end, or 0 for
    the whole line."""
    ends = [None] + roots + [None]
    for c, d in zip(ends, ends[1:]):
        if c is not None:
            yield c, c, c
        if not discrete:
            if c is None:
                t = Fraction(0) if d is None else d - 1
            else:
                t = c + 1 if d is None else (c + d) / 2
            yield t, c, d
            continue
        lo = None if c is None else c + 1
        hi = None if d is None else d - 1
        if lo is None:
            top = 0 if hi is None else hi + 1
            reps = range(top - w, top)
        else:
            reps = range(lo, lo + w if hi is None else min(lo + w, hi + 1))
        for t in reps:
            yield t, lo, hi


def pin(psi, x: SVar, t):
    """The quantifier-free form psi with x = t, an integer or, on a dense
    coordinate, a Fraction: the node `s_subst` builds, for the same
    charge, by the atom map with each atom in x folded by integer
    arithmetic (`scalars.fold_atom`).  An atom that mentions x and
    another variable raises AssertionError."""
    return map_atoms(psi, partial(fold_atom, t.numerator, t.denominator), x)


def near_zero(t) -> tuple:
    """Sort key: nearer 0 first, and t before -t for t > 0."""
    return abs(t), t < 0


class Cells:
    """The cell model of coordinate x in a quantifier-free scalar form
    psi whose atoms each mention one variable: its sorted roots, the lcm
    L of its moduli (`modulus`, 1 on Q), and the fibres pinned so far,
    one per cell and residue, keyed on both."""

    __slots__ = ("g", "psi", "x", "discrete", "roots", "modulus", "fibres")

    def __init__(self, g: GroupSpec, psi, x: SVar):
        self.g, self.psi, self.x = g, psi, x
        self.discrete = discrete = g.kinds[x.coord - 1] == "Z"
        self.roots, self.modulus = roots_and_modulus(psi, x, discrete)
        self.fibres: dict = {}

    def pieces(self, m: int = 1) -> Iterator[tuple]:
        """The cells with, on Z, their classes modulo m as well, lazily
        (`line_cells` with w = lcm(L, m))."""
        return line_cells(self.discrete, self.roots, math.lcm(self.modulus, m))

    def fibre(self, t):
        """psi with x = t, pinned once per cell and residue, so a point of
        a finer model (two forms' joint one) finds its cell's fibre."""
        # the cell (gap i below roots[i], or roots[i] itself), residue
        i = bisect_left(self.roots, t)
        key = (i, self.roots[i:i + 1] == [t],
               t % self.modulus if self.discrete else 0)
        hit = self.fibres.get(key)
        if hit is None:
            hit = self.fibres[key] = pin(self.psi, self.x, t)
        return hit

    def changes(self, m: int, r: int) -> list:
        """The s = r (mod m), ascending, at which the fibre over x = s
        differs from the one over s + m, for m a multiple of `period`; x
        is discrete.  Off the roots the fibre depends only on t's gap and
        t modulo L, so a change at s is one at s +- lcm(L, m) too unless a
        root lies between: the least and the greatest change lie within
        lcm(L, m) + m of an integer next to a root, and only those
        candidates are compared, however far apart the roots are."""
        span = math.lcm(self.modulus, m) + m
        cands = set()
        for e in self.roots:
            cands.update(range(e - span + (r - e + span) % m, e + span + 1, m))
        fibre = self.fibre
        return [s for s in sorted(cands)
                if not same_points(self.g, fibre(s), fibre(s + m))]

    def period(self) -> int:
        """The least m such that the fibre over x = t equals the one over
        t + m for every t beyond some bound, both ways; x is discrete.  On
        the unbounded gaps the fibre depends only on t modulo L, so m is
        the least divisor of L (`groups.divisors`) for which the fibres
        over top + i and top + i + m, and over bot - i - m and bot - i,
        are `same_points` for every i < L: top the first integer above the
        greatest root, bot the last below the least."""
        roots, n, fibre, g = self.roots, self.modulus, self.fibre, self.g
        top = roots[-1] + 1 if roots else 0
        bot = roots[0] - 1 if roots else 0
        return next(m for m in divisors(n, sc._charge) if m == n or all(
            same_points(g, fibre(top + i), fibre(top + i + m))
            and same_points(g, fibre(bot - i - m), fibre(bot - i))
            for i in range(n)))

    def least_point(self, t, lo, hi):
        """The point of least `near_zero` order of the piece (t, lo, hi) of
        `pieces()`: on Z the member of t's class modulo L in lo..hi
        nearest 0 from either side, by remainder arithmetic; on Q 0 when
        the cell holds it, else its representative t, since an open gap
        has no point nearest 0."""
        if not self.discrete:
            inside = (lo is None or lo < 0) and (hi is None or 0 < hi)
            return 0 if inside else t
        w = self.modulus
        up = 0 if lo is None else max(lo, 0)
        down = 0 if hi is None else min(hi, 0)
        return min((s for s in (down - (down - t) % w, up + (t - up) % w)
                    if (lo is None or lo <= s) and (hi is None or s <= hi)),
                   key=near_zero)

    def meets(self, t, m: int, lo, hi, s: int, n: int) -> bool:
        """Whether the piece (t, lo, hi) of `pieces(m)` has a point in the
        class s modulo n: on Z some t' in lo..hi with t' = t modulo
        lcm(L, m) and t' = s modulo n (the Chinese remainder theorem); on
        Q always."""
        if not self.discrete:
            return True
        hit = crt(t, math.lcm(self.modulus, m), s, n)
        if hit is None or lo is None or hi is None:
            return hit is not None
        c, period = hit
        return lo + (c - lo) % period <= hi


def cells_of(g: GroupSpec, psi, x: SVar, memo: Optional[dict] = None) -> Cells:
    """psi's cell model of x, one per form and coordinate in memo (the
    open operation's when None) under a key tagged "cells"."""
    if memo is None:
        memo = operation_memo()
        if memo is None:
            return Cells(g, psi, x)
    key = ("cells", g, psi, x)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = Cells(g, psi, x)
    return hit


def holds_somewhere(g: GroupSpec, f) -> bool:
    """Whether a quantifier-free scalar formula, each of whose atoms
    mentions one variable, holds at some point: it differs from FALSE
    somewhere (`_walk`, as in `same_points`)."""
    memo = operation_memo()
    return _walk(g, f, FALSE, {} if memo is None else memo)


def same_points(g: GroupSpec, a, b) -> bool:
    """Whether two quantifier-free scalar formulas, each of whose atoms
    mentions one variable, hold at the same points: they differ nowhere
    (`_walk`, in the open operation's memo, or in one for the call).  An
    atom that mentions two variables raises AssertionError."""
    memo = operation_memo()
    return not _walk(g, a, b, {} if memo is None else memo)


def _walk(g: GroupSpec, a, b, memo: dict) -> bool:
    """Whether the forms a and b differ at some point: whether their
    fibres over the representative of some cell of their joint model of
    their first variable x (the roots of both, and on Z the lcm of both
    moduli) differ somewhere.  Each fibre comes from its form's own cell
    model in memo, so it is pinned once however many forms it is
    compared with.  The same interned node differs nowhere, and two
    distinct truth values differ.  The budget is charged once per
    representative, and the answer is memoized on the pair in memo
    under a key tagged "walk"."""
    if a is b:
        return False
    if a.__class__ is SBool and b.__class__ is SBool:
        return True
    key = ("walk", g, a, b)
    hit = memo.get(key)
    if hit is None:
        x = min(a.fv | b.fv, key=lambda w: (w.base, w.coord))
        ca, cb = cells_of(g, a, x, memo), cells_of(g, b, x, memo)
        hit = False
        for t, _, _ in line_cells(ca.discrete,
                                  sorted(set(ca.roots).union(cb.roots)),
                                  math.lcm(ca.modulus, cb.modulus)):
            sc._charge()
            if _walk(g, ca.fibre(t), cb.fibre(t), memo):
                hit = True
                break
        memo[key] = hit
    return hit
