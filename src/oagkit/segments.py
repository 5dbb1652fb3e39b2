"""Normal forms for unary definable sets.

A definable subset of a lex product splits into finitely many "nice"
pieces: a convex stretch cut out by an upper and a lower divisibility
segment, intersected with congruence conditions.  This module reads
all of it off the input's quantifier-free form, eliminated once: end
segments (a set equal to the hull of its least-value walk), their
stabilizer and divisibility form, and a canonical nice decomposition
whose shape depends only on the defined set, never on the formula.

Every atom of that form mentions one coordinate, so each question about
it is asked of the form's cell model (`cells`), one coordinate at a
time.  Nothing else is eliminated.
"""

from __future__ import annotations

from math import lcm
from typing import Optional, Union

from . import formulas as fm
from .cells import Cells, cells_of, holds_somewhere, line_cells, same_points
from .errors import Record, SegmentError
from .groups import (
    ConvexSubgroup,
    Element,
    GroupSpec,
    add,
    element,
    meet_classes,
    scale,
    unit,
)
from .qe import decide, qf_form
from .scalars import FALSE, SVar, TRUE, mk_or, operation

END = "end"
INITIAL = "initial"
GE = "ge"
GT = "gt"
PLUS_INF = "+inf"
MINUS_INF = "-inf"

Bound = Union[Element, str]


def _is_inf(b) -> bool:
    return b == PLUS_INF or b == MINUS_INF


class DivSegment(Record):
    """One-sided divisibility condition on multiples of the variable.

    direction "end" denotes {x : n*x rel bound at the given level};
    direction "initial" denotes the order dual ({x : n*x <= bound} for
    rel "ge", strict for "gt").  A bound of "-inf"/"+inf" is a sentinel
    for the whole group or the empty set, depending on direction.
    """

    direction: str
    n: int
    level: int
    bound: Bound
    rel: str

    def check(self, g: GroupSpec) -> None:
        if self.direction not in (END, INITIAL):
            raise SegmentError(f"unknown segment direction '{self.direction}'")
        if self.rel not in (GE, GT):
            raise SegmentError(f"unknown segment relation '{self.rel}'")
        if self.n < 1:
            raise SegmentError("segment multiplier must be at least 1")
        if not 0 <= self.level <= g.n:
            raise SegmentError(
                f"segment level {self.level} out of range 0..{g.n}")
        if isinstance(self.bound, str):
            if not _is_inf(self.bound):
                raise SegmentError(f"bad segment bound '{self.bound}'")
        else:
            element(g, self.bound)

    def is_full(self) -> bool:
        want = MINUS_INF if self.direction == END else PLUS_INF
        return self.bound == want

    def is_empty(self) -> bool:
        want = PLUS_INF if self.direction == END else MINUS_INF
        return self.bound == want

    def denote(self, g: GroupSpec, var: str = "x") -> fm.Formula:
        self.check(g)
        if self.is_full():
            return fm.BoolConst(True)
        if self.is_empty():
            return fm.BoolConst(False)
        t = fm.t_var(g, var)
        if self.n != 1:
            t = fm.t_scale(g, self.n, t)
        b = fm.t_const(element(g, self.bound))
        rel = fm.LE if self.rel == GE else fm.LT
        if self.direction == END:
            return fm.RelCmp(self.level, rel, b, t)
        return fm.RelCmp(self.level, rel, t, b)


def full_end_segment() -> DivSegment:
    return DivSegment(END, 1, 0, MINUS_INF, GE)


def empty_end_segment() -> DivSegment:
    return DivSegment(END, 1, 0, PLUS_INF, GE)


def full_initial_segment() -> DivSegment:
    return DivSegment(INITIAL, 1, 0, PLUS_INF, GE)


def empty_initial_segment() -> DivSegment:
    return DivSegment(INITIAL, 1, 0, MINUS_INF, GE)


def dual_div_segment(seg: DivSegment) -> DivSegment:
    """The complement, expressed as a segment of the other direction."""
    direction = INITIAL if seg.direction == END else END
    if _is_inf(seg.bound):
        return DivSegment(direction, seg.n, seg.level, seg.bound, GE)
    rel = GT if seg.rel == GE else GE
    return DivSegment(direction, seg.n, seg.level, seg.bound, rel)


class CongrLiteral(Record):
    """One congruence condition z*x = beta + offset (mod level, modulus).

    sign +1 asserts the congruence, -1 its negation.  The condition
    constrains the discrete coordinates among the first `level` of z*x
    modulo the modulus; offset counts steps by the unit of coordinate
    `level` and is folded into beta by canonical().
    """

    sign: int
    z: int
    level: int
    modulus: int
    beta: Element
    offset: int = 0

    def check(self, g: GroupSpec) -> None:
        if self.sign not in (1, -1):
            raise SegmentError("congruence literal sign must be +1 or -1")
        if self.modulus < 2:
            raise SegmentError("congruence modulus must be at least 2")
        if not 1 <= self.level <= g.n:
            raise SegmentError(
                f"congruence level {self.level} out of range 1..{g.n}")
        if self.z % self.modulus == 0:
            raise SegmentError(
                "congruence multiplier divisible by the modulus is degenerate")
        element(g, self.beta)

    def denote(self, g: GroupSpec, var: str = "x") -> fm.Formula:
        self.check(g)
        t = fm.t_var(g, var)
        if self.z != 1:
            t = fm.t_scale(g, self.z, t)
        b = element(g, self.beta)
        if self.offset:
            b = add(g, b, scale(g, self.offset, unit(g, self.level)))
        atom = fm.RelCongr(self.level, self.modulus, t, fm.t_const(b))
        return atom if self.sign > 0 else fm.Not(atom)

    def canonical(self, g: GroupSpec) -> "CongrLiteral":
        self.check(g)
        m = self.modulus
        z = self.z % m
        b = element(g, self.beta)
        if self.offset:
            b = add(g, b, scale(g, self.offset, unit(g, self.level)))
        vals = []
        for i, kind in enumerate(g.kinds, start=1):
            if i <= self.level and kind == "Z":
                vals.append(int(b[i - 1]) % m)
            else:
                vals.append(0)
        return CongrLiteral(self.sign, z, self.level, m, element(g, vals), 0)


def _lit_key(lit: CongrLiteral):
    return (lit.level, lit.modulus, lit.z, 0 if lit.sign > 0 else 1,
            lit.beta, lit.offset)


def canonical_restriction(g: GroupSpec, lits) -> tuple:
    """Deduplicated, canonically ordered congruence literals."""
    seen = {}
    for lit in lits:
        c = lit.canonical(g)
        seen[c] = None
    return tuple(sorted(seen, key=_lit_key))


class NiceSet(Record):
    """A convex stretch (upper and lower segment) meeting congruences."""

    upper: DivSegment
    lower: DivSegment
    congr: tuple

    def check(self, g: GroupSpec) -> None:
        if self.upper.direction != END:
            raise SegmentError("upper part of a nice set must face upward")
        if self.lower.direction != INITIAL:
            raise SegmentError("lower part of a nice set must face downward")
        self.upper.check(g)
        self.lower.check(g)
        for lit in self.congr:
            lit.check(g)

    def denote(self, g: GroupSpec, var: str = "x") -> fm.Formula:
        self.check(g)
        parts = [self.upper.denote(g, var), self.lower.denote(g, var)]
        parts += [lit.denote(g, var) for lit in self.congr]
        parts = [p for p in parts
                 if not (isinstance(p, fm.BoolConst) and p.value)]
        if not parts:
            return fm.BoolConst(True)
        if any(isinstance(p, fm.BoolConst) and not p.value for p in parts):
            return fm.BoolConst(False)
        if len(parts) == 1:
            return parts[0]
        return fm.And(tuple(parts))


def the_var(g: GroupSpec, phi: fm.Formula, var: Optional[str]) -> str:
    """The distinguished variable: var when phi has no other free
    variable, else phi's only free variable."""
    fv = fm.free_vars(phi)
    if var is not None:
        if not fv <= {var}:
            raise SegmentError(
                f"formula must have no free variables besides '{var}'")
        return var
    if len(fv) != 1:
        raise SegmentError("operation needs a formula with exactly one "
                           f"free variable, got {len(fv)}")
    return next(iter(fv))


def is_end_segment(g: GroupSpec, phi: fm.Formula,
                   var: Optional[str] = None) -> bool:
    """Whether the defined set is closed upward (see `_end_form`)."""
    return _end_form(g, phi, the_var(g, phi, var)) is not None


@operation
def end_hull(g: GroupSpec, phi: fm.Formula,
             var: Optional[str] = None) -> fm.Formula:
    """The smallest end segment the defined set is co-initial in: the
    divisibility form of its least-value walk (`hull_segment`).

    The input set must be nonempty and have no minimum; the hull keeps
    every point that fails to bound the set strictly from below.
    """
    v = the_var(g, phi, var)
    walk = least_prefix(g, phi, v, g.n)
    if walk is None:
        raise SegmentError("end hull of an empty set is undefined")
    if walk[1] and len(walk[0]) == g.n:
        raise SegmentError("set has a minimum; use the minimum directly "
                           "instead of an end hull")
    return hull_segment(g, walk).denote(g, v)


def pad(g: GroupSpec, vals) -> Element:
    """The element of g with the given leading coordinates, zeros after."""
    vals = list(vals)
    return element(g, vals + [0] * (g.n - len(vals)))


def least_prefix(g: GroupSpec, phi: fm.Formula, v: str,
                 k: int) -> Optional[tuple]:
    """`least_prefix_qf` of phi's quantifier-free form."""
    return least_prefix_qf(g, qf_form(g, phi), v, k)


def least_prefix_qf(g: GroupSpec, qf, v: str, k: int) -> Optional[tuple]:
    """(prefix, attained): the least values of x.1..x.k on the set the
    quantifier-free scalar formula qf defines in the coordinates of v;
    None when the set is empty and k >= 1, and when qf is FALSE.

    Coordinate j's value is the least x.j with x.1..x.(j-1) pinned to
    the prefix so far and some deeper point in the set.  The walk stops
    at a coordinate unbounded below, which is left out, and at an
    infimum that is not attained, appended with attained False.  So the
    set has a least element modulo the level-k subgroup exactly when the
    prefix has length k and attained is True.  A set and its end hull
    have the same walk.

    Nothing is eliminated: with the prefix pinned, whether the fibre over
    x.j = t holds somewhere depends only on t's cell (`Cells`), so the
    least value is read off the first cell, in ascending order, whose
    fibre holds (`holds_somewhere`).  It is unbounded below when that
    cell is, the cell's left end, not attained, when it is a gap between
    dense roots, and its representative otherwise, since on Z the first
    L integers of a gap are its representatives.
    """
    if qf is FALSE:
        return None
    prefix: tuple = ()
    psi = qf
    for j in range(1, k + 1):
        cells = cells_of(g, psi, SVar(v, j))
        low = next(((t, lo) for t, lo, _ in cells.pieces()
                    if holds_somewhere(g, cells.fibre(t))), None)
        if low is None and not prefix:
            return None
        if low is None:
            raise AssertionError("a nonempty fibre has an infimum")
        t, lo = low
        if lo is None:
            break
        if t != lo and not cells.discrete:
            return prefix + (lo,), False
        prefix += (t,)
        psi = cells.fibre(t)
    return prefix, True


def co_initial_classes(g: GroupSpec, qf, v: str, walk: tuple, k: int,
                       m: int, decided) -> set:
    """The classes modulo the level-k subgroup plus m*G in which the set
    of qf ∧ D is co-initial in its end hull, as tuples of residues of
    the discrete coordinates among x.1..x.k.  D is the conjunction of
    the finite-quotient classes `decided`; walk is the `least_prefix_qf`
    of qf ∧ D over all coordinates, and has no minimum.

    A class C, like D, is a conjunction of congruences on single
    coordinates, and qf ∧ D ∧ C is co-initial in the hull exactly when
    it has the walk.  The walk is decided at coordinate q: the one after
    the prefix, unbounded below, when the last value is attained, else
    the last one, a dense coordinate whose infimum is not attained.  So
    qf ∧ D ∧ C has the walk exactly when the pinned values x.1..x.(q-1)
    lie in C and some of its points over them have x.q arbitrarily far
    down (attained) or arbitrarily close above the infimum (not
    attained): in a cell of x.q (`Cells`) unbounded below, or in the
    dense gap whose left end is the infimum.  D's congruences on one
    coordinate meet in one class (the Chinese remainder theorem,
    `groups.meet_classes`), so whether a cell has a point in D's class
    is arithmetic (`Cells.meets`), and D's moduli never cut the cells.  The
    residues of x.q..x.k over which the pinned form reaches a true
    ground value are collected in one pass over the fibres of those
    cells: no elimination, for all classes at once.
    """
    fixed = meet_classes(g, decided)
    if fixed is None:
        raise AssertionError("decided classes must meet")
    prefix, attained = walk
    q = len(prefix) + 1 if attained else len(prefix)
    pinned = prefix[:q - 1]
    base = tuple(int(pinned[i]) % m for i in range(min(q - 1, k))
                 if g.kinds[i] == "Z")
    if k < q:
        return {base}
    xs = [SVar(v, i) for i in range(1, g.n + 1)]
    memo: dict = {}

    def collect(cells: Cells, i: int, pieces) -> set:
        # the residues of x.i..x.k at which the form holds somewhere over
        # the pieces of x.i, within D's class
        out: set = set()
        mk = m if i <= k else 1
        s, n = fixed.get(i - 1, (0, 1))
        for t, lo, hi in pieces:
            if not cells.meets(t, mk, lo, hi, s, n):
                continue
            here = (t % m,) if cells.discrete and i <= k else ()
            out.update(here + r for r in classes(cells.fibre(t), i + 1))
            if out and i > k:
                break
        return out

    def classes(psi, i: int) -> set:
        # the residues of x.i..x.k at which psi, a form in x.i..x.n,
        # holds somewhere within D's classes
        if i > g.n:
            return {()} if psi is TRUE else set()
        hit = memo.get((psi, i))
        if hit is None:
            cells = cells_of(g, psi, xs[i - 1])
            hit = memo[(psi, i)] = collect(
                cells, i, cells.pieces(m if i <= k else 1))
        return hit

    for x, t in zip(xs, pinned):
        qf = cells_of(g, qf, x).fibre(t)
    cells = cells_of(g, qf, xs[q - 1])
    if attained:
        pieces = (p for p in cells.pieces(m) if p[1] is None)
    else:
        pieces = (p for p in cells.pieces(m)
                  if p[1] == prefix[-1] and p[0] != p[1])
    try:
        return {base + r for r in collect(cells, q, pieces)}
    finally:  # the closures' cycle would keep the memo until a GC pass
        del collect, classes


def hull_segment(g: GroupSpec, walk: tuple) -> DivSegment:
    """The divisibility form of a nonempty set's end hull, from its
    `least_prefix` over all coordinates: past the prefix the hull's
    fibre is full, since the next coordinate is unbounded below."""
    prefix, attained = walk
    if not prefix:
        return full_end_segment()
    return DivSegment(END, 1, len(prefix), pad(g, prefix),
                      GE if attained else GT)


@operation
def hull_form(g: GroupSpec, phi: fm.Formula, v: str) -> DivSegment:
    """The divisibility form of the end hull of phi's set, from its
    least-value walk: the empty segment for the empty set.  An end
    segment is its own hull, so this is its canonical form."""
    walk = least_prefix(g, phi, v, g.n)
    return empty_end_segment() if walk is None else hull_segment(g, walk)


def _end_form(g: GroupSpec, phi: fm.Formula, v: str) -> Optional[DivSegment]:
    """The divisibility form of phi's set if the set holds the hull of its
    walk, an end segment that holds the set; else None."""
    hull = hull_form(g, phi, v)
    sentence = fm.Forall(v, fm.Implies(hull.denote(g, v), phi))
    return hull if hull.is_empty() or decide(g, sentence) else None


def _div_form(g: GroupSpec, phi: fm.Formula, v: str, op: str) -> DivSegment:
    """`_end_form`, or SegmentError naming op for other sets."""
    seg = _end_form(g, phi, v)
    if seg is None:
        raise SegmentError(f"{op} is defined for end segments only")
    return seg


def stabilizer(g: GroupSpec, phi: fm.Formula,
               var: Optional[str] = None) -> ConvexSubgroup:
    """The largest tail subgroup whose translates preserve the set: the
    level of its divisibility form, 0 for the empty and the full set."""
    return ConvexSubgroup(
        _div_form(g, phi, the_var(g, phi, var), "stabilizer").level)


@operation
def to_div_segment(g: GroupSpec, phi: fm.Formula,
                   var: Optional[str] = None) -> DivSegment:
    """The canonical divisibility form of a definable end segment.

    The level is the stabilizer level; the multiplier is always the
    minimal 1 because the bound lives in the quotient by the stabilizer,
    where the set is principal.  Empty and full sets come back as the
    sentinel segments.  An end segment is its own hull (`_end_form`).
    """
    return _div_form(g, phi, the_var(g, phi, var), "divisibility form")


def is_initial_segment(g: GroupSpec, phi: fm.Formula,
                       var: Optional[str] = None) -> bool:
    """Whether the defined set is closed downward, that is, whether its
    complement is closed upward."""
    return is_end_segment(g, fm.Not(phi), var)


def to_div_segment_initial(g: GroupSpec, phi: fm.Formula,
                           var: Optional[str] = None) -> DivSegment:
    """Divisibility form of an initial segment, via its complement."""
    seg = _end_form(g, fm.Not(phi), the_var(g, phi, var))
    if seg is None:
        raise SegmentError("expected a downward closed set")
    return dual_div_segment(seg)


class _RawPiece:
    """Partial piece during decomposition: missing sides are inherited
    from the enclosing pins when the recursion unwinds."""

    __slots__ = ("upper", "lower", "lits")

    def __init__(self, upper, lower, lits):
        self.upper = upper
        self.lower = lower
        self.lits = lits


@operation
def nice_decompose(g: GroupSpec, phi: fm.Formula,
                   var: Optional[str] = None) -> tuple:
    """Canonical decomposition of a unary definable set into nice pieces.

    Works coordinate by coordinate, most significant first, on the
    quantifier-free form of phi, eliminated once.  Every atom of that
    form mentions a single coordinate x.j.  With x.1..x.(j-1) pins,
    the fibre over a value t of coordinate j is the form with x.j = t as
    well: a condition on the deeper coordinates.  Two fibres are equal
    when no point of the deeper coordinates satisfies exactly one.
    Every test here is on such forms, so none eliminates: the cell model
    answers it (`holds_somewhere`, `same_points`).

    A discrete coordinate is split into residue classes modulo the
    minimal eventual period (refined by the moduli of the limiting
    fibres); each class contributes two constant rays plus finitely many
    exceptional values.  The period is read off the unbounded gaps of
    the coordinate's cells (`Cells.period`), the constant classes and
    ray thresholds off fibres near its roots (`Cells.changes`).  A dense
    coordinate is split at the roots where the fibre changes.  All of this
    depends only on the defined set, so equivalent inputs produce
    identical output.  The pieces are then pruned of redundant literals
    and merged, and checked to be nonempty and to cover the set, all by
    comparing their lowered forms with `same_points`.
    """
    v = the_var(g, phi, var)
    qf = qf_form(g, phi)
    xs = [SVar(v, i) for i in range(1, g.n + 1)]
    memo: dict = {}

    def rec(pins, psi) -> list:
        # the pieces of the set over the pins leading coordinates, psi
        # the form with those pins
        hit = memo.get(pins)
        if hit is not None:
            return hit
        j = len(pins) + 1
        if not holds_somewhere(g, psi):
            out = []
        elif j > g.n:
            out = [_RawPiece(None, None, ())]
        else:
            cells = cells_of(g, psi, xs[j - 1])
            out = (rec_discrete if cells.discrete else rec_dense)(pins, cells)
        memo[pins] = out
        return out

    def over(pins, cells: Cells, t) -> list:
        # the pieces over the pins and x.j = t
        return rec(pins + (t,), cells.fibre(t))

    def check_ray_lits(fps, m: int) -> None:
        for fp in fps:
            if fp.upper is not None or fp.lower is not None:
                raise AssertionError("limiting fibres carry no bounds")
            if any(m % lit.modulus for lit in fp.lits):
                raise AssertionError(
                    "fibre moduli must divide the class modulus")

    def rec_discrete(pins, cells: Cells) -> list:
        j = len(pins) + 1
        m_star = cells.period()
        moduli = m_star
        for r in range(m_star):
            changes = cells.changes(m_star, r)
            reps = (changes[-1] + m_star, changes[0]) if changes else (r,)
            for t in reps:
                for fp in over(pins, cells, t):
                    for lit in fp.lits:
                        moduli = lcm(moduli, lit.modulus)
        m_d = moduli
        out: list = []
        for r in range(m_d):
            cls_lit: tuple = ()
            if m_d > 1:
                cls_lit = (CongrLiteral(1, 1, j, m_d, pad(g, pins + (r,)), 0),)
            changes = cells.changes(m_d, r)
            if not changes:
                fps = over(pins, cells, r)
                check_ray_lits(fps, m_d)
                for fp in fps:
                    out.append(_RawPiece(None, None, cls_lit + fp.lits))
                continue
            # the class's fibres are constant from a_hat up and from
            # b_hat down
            a_hat, b_hat = changes[-1] + m_d, changes[0]
            fps = over(pins, cells, a_hat)
            check_ray_lits(fps, m_d)
            for fp in fps:
                out.append(_RawPiece((j, pad(g, pins + (a_hat,)), GE),
                                     None, cls_lit + fp.lits))
            fps = over(pins, cells, b_hat)
            check_ray_lits(fps, m_d)
            for fp in fps:
                out.append(_RawPiece(None, (j, pad(g, pins + (b_hat,)), GE),
                                     cls_lit + fp.lits))
            a = b_hat + m_d
            while a < a_hat:
                for fp in over(pins, cells, a):
                    up = fp.upper or (j, pad(g, pins + (a,)), GE)
                    low = fp.lower or (j, pad(g, pins + (a,)), GE)
                    out.append(_RawPiece(up, low, fp.lits))
                a += m_d
        return out

    def rec_dense(pins, cells: Cells) -> list:
        # the roots where the fibre changes cut the line: a root survives
        # unless its fibre equals those of the gaps on both sides
        j = len(pins) + 1
        fibre = cells.fibre
        ps = list(cells.pieces())
        survivors = []
        for (a, _, _), (c, lo, _), (b, _, _) in zip(ps, ps[1:], ps[2:]):
            if c == lo and not (same_points(g, fibre(a), fibre(c))
                                and same_points(g, fibre(c), fibre(b))):
                survivors.append(c)
        out: list = []
        for w, lo, hi in line_cells(False, survivors, 1):
            if w == lo:
                continue
            for fp in over(pins, cells, w):
                if fp.upper is not None or fp.lower is not None:
                    raise AssertionError("interval fibres carry no bounds")
                up = None if lo is None else (j, pad(g, pins + (lo,)), GT)
                low = None if hi is None else (j, pad(g, pins + (hi,)), GT)
                out.append(_RawPiece(up, low, fp.lits))
        for c in survivors:
            for fp in over(pins, cells, c):
                up = fp.upper or (j, pad(g, pins + (c,)), GE)
                low = fp.lower or (j, pad(g, pins + (c,)), GE)
                out.append(_RawPiece(up, low, fp.lits))
        return out

    try:
        raw = rec((), qf)
    finally:  # as in co_initial_classes
        del rec, over, rec_discrete, rec_dense, check_ray_lits
    pieces = []
    for rp in raw:
        upper = DivSegment(END, 1, *rp.upper) if rp.upper \
            else full_end_segment()
        lower = DivSegment(INITIAL, 1, *rp.lower) if rp.lower \
            else full_initial_segment()
        pieces.append(NiceSet(upper, lower, canonical_restriction(g, rp.lits)))

    lowered: dict = {}

    def low(ns: NiceSet):
        # a piece's scalar form, lowered once per piece
        hit = lowered.get(ns)
        if hit is None:
            hit = lowered[ns] = fm.lower(g, ns.denote(g, v))
        return hit

    while True:
        pieces = [_prune(g, p, low) for p in pieces]
        pieces.sort(key=_piece_key)
        merged_any = False
        i = 0
        while i < len(pieces) - 1:
            cand = _try_merge(g, pieces[i], pieces[i + 1], low)
            if cand is not None:
                pieces[i:i + 2] = [cand]
                merged_any = True
                i = max(i - 1, 0)
            else:
                i += 1
        if not merged_any:
            break

    for p in pieces:
        if not holds_somewhere(g, low(p)):
            raise AssertionError("nice pieces must be nonempty")
    if not same_points(g, mk_or([low(p) for p in pieces]), qf):
        raise AssertionError("decomposition must cover the set")
    return tuple(pieces)


def _prune(g: GroupSpec, ns: NiceSet, low) -> NiceSet:
    """ns without each congruence literal whose removal keeps its points;
    low gives a piece's scalar form."""
    lits = list(ns.congr)
    i = 0
    while i < len(lits):
        trimmed = NiceSet(ns.upper, ns.lower, tuple(lits[:i] + lits[i + 1:]))
        if same_points(g, low(trimmed),
                       low(NiceSet(ns.upper, ns.lower, tuple(lits)))):
            del lits[i]
        else:
            i += 1
    return NiceSet(ns.upper, ns.lower, tuple(lits))


def _seg_key(s: DivSegment):
    if s.bound == MINUS_INF:
        b = (0, ())
    elif s.bound == PLUS_INF:
        b = (2, ())
    else:
        b = (1, s.bound)
    return (b, s.level, s.n, 0 if s.rel == GE else 1)


def _piece_key(ns: NiceSet):
    return (_seg_key(ns.upper), _seg_key(ns.lower),
            tuple(_lit_key(l) for l in ns.congr))


def _try_merge(g: GroupSpec, a: NiceSet, b: NiceSet, low):
    """The one piece with a's literals whose points are those of a and b
    together, taking one side from each, or None; low gives a piece's
    scalar form."""
    if a.congr != b.congr:
        return None
    union = mk_or([low(a), low(b)])
    for up, down in ((a.upper, b.lower), (b.upper, a.lower)):
        cand = NiceSet(up, down, a.congr)
        if same_points(g, union, low(cand)):
            return cand
    return None
