"""Canonical codes for definable objects, valued in the quotient sorts.

A Code is a structural header plus a sequence of sort-tagged values:
elements of the group itself (MainVal), of a quotient by a level
subgroup (QuotVal), of a finite quotient (FinQuotVal), or symbolic
markers.  Four kinds of objects are coded:

  * one-sided segments (end or initial),
  * unary definable sets, through their canonical nice decomposition,
  * one-variable type descriptors (a cut plus congruence data),
  * finite sets of quotient-element tuples.

Equivalent inputs produce bit-identical codes; `reconstruct` inverts
the first two kinds back to formulas.
"""

from fractions import Fraction
from typing import Iterable, Optional

from . import formulas as fm
from .errors import CodeError, OagError, Record
from .groups import (Element, FiniteQuotientElement, GroupSpec,
                     QuotientElement, element, meet_classes, project,
                     project_fin, quotient_spec, representatives_mod)
from .scalars import operation
from .segments import (CongrLiteral, DivSegment, END, GE, GT, INITIAL,
                       NiceSet, SegmentError, dual_div_segment,
                       empty_end_segment, full_end_segment, hull_form,
                       nice_decompose)

CODE_VERSION = "code-v1"

MARK_PLUS_INF = "plus-inf"
MARK_MINUS_INF = "minus-inf"
MARK_EMPTY = "empty"
MARK_WHOLE = "whole-group"
_MARKER_KINDS = (MARK_PLUS_INF, MARK_MINUS_INF, MARK_EMPTY, MARK_WHOLE)


# --- sort-tagged values -----------------------------------------------------


class MainVal(Record):
    """A value in the main sort: a full group element."""

    value: tuple

    def __str__(self) -> str:
        return f"main({', '.join(map(str, self.value))})"


class QuotVal(Record):
    """A value in a quotient sort: an element of the level-k quotient."""

    value: QuotientElement

    def __str__(self) -> str:
        return f"quot{self.value}"


class FinQuotVal(Record):
    """A value in a finite quotient sort."""

    value: FiniteQuotientElement

    def __str__(self) -> str:
        return f"finquot{self.value}"


class Marker(Record):
    """A symbolic value: an infinity, the empty set or the whole group."""

    kind: str

    def __str__(self) -> str:
        return self.kind


CodeValue = object


class Code(Record):
    """Header describing the coded object's shape, plus its values.

    Headers are nested tuples of strings and small integers only, so a
    Code serializes structurally; like every Record it is interned, so
    equal codes are one object.
    """

    header: tuple
    values: tuple

    def __str__(self) -> str:
        return f"Code[{'; '.join(str(v) for v in self.values)}]"


def _check_value_types(c: Code) -> None:
    if not isinstance(c, Code):
        raise CodeError("expected a Code")
    if not c.header or not isinstance(c.header, tuple):
        raise CodeError("code header must be a nonempty tuple")
    for v in c.values:
        if isinstance(v, Marker):
            if v.kind not in _MARKER_KINDS:
                raise CodeError(f"unknown marker kind '{v.kind}'")
        elif not isinstance(v, (MainVal, QuotVal, FinQuotVal)):
            raise CodeError(f"unknown code value {v!r}")


# --- shared helpers ---------------------------------------------------------


def _element_of(g: GroupSpec, vals) -> Element:
    try:
        return element(g, vals)
    except OagError as e:
        raise CodeError(str(e)) from e


def _pad_quot(g: GroupSpec, level: int, coords) -> Element:
    if len(coords) != level:
        raise CodeError("quotient element arity does not match its level")
    return _element_of(g, tuple(coords) + (0,) * (g.n - level))


def _bound_value(g: GroupSpec, level: int, bound) -> CodeValue:
    a = element(g, bound)
    if level == g.n:
        return MainVal(a)
    return QuotVal(project(g, level, a))


def _value_bound(g: GroupSpec, v: CodeValue):
    """Inverse of _bound_value: recover (level, padded element)."""
    if isinstance(v, MainVal):
        return g.n, _element_of(g, v.value)
    if isinstance(v, QuotVal):
        q = v.value
        if not 0 <= q.level <= g.n:
            raise CodeError(f"quotient level {q.level} out of range")
        return q.level, _pad_quot(g, q.level, q.coords)
    raise CodeError("expected a main-sort or quotient-sort value")


def _residue_coords(g: GroupSpec, fq: FiniteQuotientElement) -> list:
    """The discrete coordinates below fq's level, once fq is well formed."""
    if not 0 <= fq.level <= g.n:
        raise CodeError(f"finite-quotient level {fq.level} out of range")
    if fq.modulus < 1:
        raise CodeError("finite-quotient modulus must be positive")
    zpos = [i for i in range(fq.level) if g.kinds[i] == "Z"]
    if len(fq.residues) != len(zpos):
        raise CodeError("finite-quotient residue count does not match level")
    for r in fq.residues:
        if not 0 <= int(r) < fq.modulus:
            raise CodeError(f"residue {r} out of range for modulus {fq.modulus}")
    return zpos


def beta_of_residues(g: GroupSpec, fq: FiniteQuotientElement) -> Element:
    """The canonical representative of a finite-quotient element."""
    vals = [0] * g.n
    for i, r in zip(_residue_coords(g, fq), fq.residues):
        vals[i] = int(r)
    return _element_of(g, vals)


# --- segment codes ----------------------------------------------------------


def code_segment(g: GroupSpec, seg: DivSegment) -> Code:
    """Code a one-sided segment by the elements that determine it.

    The segment is reduced to its canonical one-sided form first, so any
    well-formed multiplier/bound presentation of the same set yields the
    same code.  An end segment is closed upward by construction, so that
    form is the hull of its least-value walk (`segments.hull_form`), and
    nothing is decided.  A segment with a minimum (in the quotient by its
    level subgroup) is coded by that minimum; one without is coded by its
    cut value.  Initial segments are coded through their complement, with
    the direction recorded in the header.
    """
    try:
        seg.check(g)
    except SegmentError as e:
        raise CodeError(str(e)) from e
    if seg.direction == INITIAL:
        inner = code_segment(g, dual_div_segment(seg))
        return Code(("segment", INITIAL) + inner.header[2:], inner.values)
    if seg.is_full() or seg.is_empty():
        return code_div_form(g, seg)
    return code_div_form(g, hull_form(g, seg.denote(g, "x"), "x"))


def code_div_form(g: GroupSpec, canon: DivSegment) -> Code:
    """The code of an end segment already in its canonical divisibility
    form (`to_div_segment`), such as the hull of a least-value walk."""
    if canon.is_full():
        return Code(("segment", END, "whole", 1), (Marker(MARK_WHOLE),))
    if canon.is_empty():
        return Code(("segment", END, "empty", 1), (Marker(MARK_EMPTY),))
    case = "min" if canon.rel == GE else "cut"
    val = _bound_value(g, canon.level, canon.bound)
    return Code(("segment", END, case, canon.n), (val,))


def _segment_from_code(g: GroupSpec, c: Code) -> DivSegment:
    header = c.header
    if len(header) != 4:
        raise CodeError("malformed segment header")
    _, direction, case, n = header
    if direction not in (END, INITIAL):
        raise CodeError(f"unknown segment direction '{direction}'")
    if not isinstance(n, int) or n < 1:
        raise CodeError("segment header multiplier must be a positive integer")
    if case == "whole":
        endseg = full_end_segment()
    elif case == "empty":
        endseg = empty_end_segment()
    elif case in ("min", "cut"):
        if len(c.values) != 1:
            raise CodeError("segment code must carry exactly one value")
        level, bound = _value_bound(g, c.values[0])
        rel = GE if case == "min" else GT
        endseg = DivSegment(END, n, level, bound, rel)
    else:
        raise CodeError(f"unknown segment case '{case}'")
    if case in ("whole", "empty") and c.values != (
            Marker(MARK_WHOLE if case == "whole" else MARK_EMPTY),):
        raise CodeError("segment marker does not match its header")
    return endseg if direction == END else dual_div_segment(endseg)


# --- set codes --------------------------------------------------------------


def _side_parts(g: GroupSpec, seg: DivSegment):
    if seg.is_empty():
        raise CodeError("a nice piece cannot have an empty side")
    if seg.is_full():
        mark = MARK_MINUS_INF if seg.direction == END else MARK_PLUS_INF
        return ("full",), (Marker(mark),)
    if seg.n != 1:
        raise CodeError("nice pieces carry unit multipliers only")
    tag = "ge" if seg.rel == GE else "gt"
    return (tag,), (_bound_value(g, seg.level, seg.bound),)


@operation
def code_set(g: GroupSpec, phi: fm.Formula, var: Optional[str] = None) -> Code:
    """Code a unary definable set via its canonical nice decomposition.

    Each piece contributes the bound of its upper segment, the bound of
    its lower segment (trivial sides become infinity markers) and the
    finite-quotient class of each congruence literal.  An unsatisfiable
    formula is coded by a single empty marker.  Equivalent formulas get
    bit-identical codes because the decomposition is canonical.
    """
    if var is None and not fm.free_vars(phi):
        var = "x"
    try:
        pieces = nice_decompose(g, phi, var)
    except SegmentError as e:
        raise CodeError(str(e)) from e
    if not pieces:
        return Code(("set", ()), (Marker(MARK_EMPTY),))
    metas = []
    vals = []
    for p in pieces:
        u_meta, u_vals = _side_parts(g, p.upper)
        l_meta, l_vals = _side_parts(g, p.lower)
        lit_meta = []
        lit_vals = []
        for lit in p.congr:
            if lit.offset != 0:
                raise CodeError("non-canonical congruence literal in piece")
            lit_meta.append((lit.sign, lit.z))
            fq = project_fin(g, lit.level, lit.modulus, element(g, lit.beta))
            lit_vals.append(FinQuotVal(fq))
        metas.append((u_meta, l_meta, tuple(lit_meta)))
        vals.extend(u_vals)
        vals.extend(l_vals)
        vals.extend(lit_vals)
    return Code(("set", tuple(metas)), tuple(vals))


def _side_from_code(g: GroupSpec, direction: str, meta, values: tuple,
                    idx: int):
    if not isinstance(meta, tuple) or len(meta) != 1:
        raise CodeError("malformed piece side descriptor")
    tag = meta[0]
    if tag == "full":
        if idx >= len(values):
            raise CodeError("set code ran out of values")
        want = MARK_MINUS_INF if direction == END else MARK_PLUS_INF
        if values[idx] != Marker(want):
            raise CodeError("piece side marker does not match its header")
        seg = full_end_segment() if direction == END else \
            dual_div_segment(empty_end_segment())
        return seg, idx + 1
    if tag not in ("ge", "gt"):
        raise CodeError(f"unknown piece side tag '{tag}'")
    if idx >= len(values):
        raise CodeError("set code ran out of values")
    level, bound = _value_bound(g, values[idx])
    rel = GE if tag == "ge" else GT
    return DivSegment(direction, 1, level, bound, rel), idx + 1


def _set_pieces_from_code(g: GroupSpec, c: Code) -> tuple:
    header = c.header
    if len(header) != 2 or not isinstance(header[1], tuple):
        raise CodeError("malformed set header")
    metas = header[1]
    if not metas:
        if c.values != (Marker(MARK_EMPTY),):
            raise CodeError("empty set code must carry a single empty marker")
        return ()
    pieces = []
    idx = 0
    for meta in metas:
        if not isinstance(meta, tuple) or len(meta) != 3:
            raise CodeError("malformed piece descriptor")
        u_meta, l_meta, lits_meta = meta
        upper, idx = _side_from_code(g, END, u_meta, c.values, idx)
        lower, idx = _side_from_code(g, INITIAL, l_meta, c.values, idx)
        congr = []
        for lm in lits_meta:
            if not (isinstance(lm, tuple) and len(lm) == 2):
                raise CodeError("malformed congruence descriptor")
            sign, z = lm
            if idx >= len(c.values):
                raise CodeError("set code ran out of values")
            v = c.values[idx]
            idx += 1
            if not isinstance(v, FinQuotVal):
                raise CodeError("congruence slot must hold a finite-quotient value")
            fq = v.value
            beta = beta_of_residues(g, fq)
            congr.append(CongrLiteral(sign, z, fq.level, fq.modulus, beta))
        piece = NiceSet(upper, lower, tuple(congr))
        try:
            piece.check(g)
        except SegmentError as e:
            raise CodeError(str(e)) from e
        pieces.append(piece)
    if idx != len(c.values):
        raise CodeError("set code carries surplus values")
    return tuple(pieces)


@operation
def reconstruct(g: GroupSpec, c: Code, var: str = "x") -> fm.Formula:
    """Rebuild a unary formula from a segment or set code.

    For a code produced by `code_set`, the result is equivalent to the
    original formula and codes back to the same bits.  Type and
    finite-set codes describe objects that are not unary sets, so they
    are rejected.
    """
    _check_value_types(c)
    kind = c.header[0]
    if kind == "segment":
        try:
            seg = _segment_from_code(g, c)
            return seg.denote(g, var)
        except SegmentError as e:
            raise CodeError(str(e)) from e
    if kind == "set":
        pieces = _set_pieces_from_code(g, c)
        if not pieces:
            return fm.BoolConst(False)
        parts = tuple(p.denote(g, var) for p in pieces)
        return parts[0] if len(parts) == 1 else fm.Or(parts)
    raise CodeError(f"cannot reconstruct from a '{kind}' code")


# --- type descriptors and their codes ---------------------------------------


CUT_REALIZED = "realized"
CUT_AT_SEGMENT = "at-segment"
CUT_MINUS_INF = "minus-inf"
CUT_PLUS_INF = "plus-inf"
GENERIC = "generic"

DEFAULT_RESIDUE_BOUND = 12


class TypeDescriptor(Record):
    """The data of a definable one-variable type.

    cut: ("realized", element) for a realized type, ("at-segment", code)
    for a cut sitting at the left edge of a coded end segment, or
    ("minus-inf",) / ("plus-inf",) for the unbounded cuts.  cosets lists
    the decided quotient classes (levels strictly ascending; levels not
    listed are generic).  residues lists the decided finite-quotient
    classes, sorted by (level, modulus) with moduli in 2..residue_bound.
    A realized cut determines all congruence data, so it must not carry
    any stored cosets or residues.
    """

    cut: tuple
    cosets: tuple = ()
    residues: tuple = ()
    residue_bound: int = DEFAULT_RESIDUE_BOUND


def _descriptor_structure(g: GroupSpec, p: TypeDescriptor) -> None:
    if not isinstance(p, TypeDescriptor):
        raise CodeError("expected a TypeDescriptor")
    if not isinstance(p.cut, tuple) or not p.cut:
        raise CodeError("descriptor cut must be a tagged tuple")
    tag = p.cut[0]
    if tag == CUT_REALIZED:
        if len(p.cut) != 2:
            raise CodeError("realized cut must carry exactly one element")
        _element_of(g, p.cut[1])
    elif tag == CUT_AT_SEGMENT:
        if len(p.cut) != 2 or not isinstance(p.cut[1], Code):
            raise CodeError("segment cut must carry a segment code")
        seg_code = p.cut[1]
        _check_value_types(seg_code)
        if seg_code.header[0] != "segment" or seg_code.header[1] != END:
            raise CodeError("segment cut must carry an end-segment code")
        _segment_from_code(g, seg_code)
    elif tag in (CUT_MINUS_INF, CUT_PLUS_INF):
        if len(p.cut) != 1:
            raise CodeError("infinite cut carries no data")
    else:
        raise CodeError(f"unknown cut tag '{tag}'")
    if not isinstance(p.residue_bound, int) or p.residue_bound < 2:
        raise CodeError("residue bound must be an integer >= 2")
    seen_levels = []
    for q in p.cosets:
        if not isinstance(q, QuotientElement):
            raise CodeError("cosets must be quotient elements")
        if not 1 <= q.level <= g.n:
            raise CodeError(f"coset level {q.level} out of range")
        _element_of(quotient_spec(g, q.level), q.coords)
        seen_levels.append(q.level)
    if seen_levels != sorted(set(seen_levels)):
        raise CodeError("coset levels must be distinct and ascending")
    seen_keys = []
    for fq in p.residues:
        if not isinstance(fq, FiniteQuotientElement):
            raise CodeError("residues must be finite-quotient elements")
        if not 1 <= fq.level <= g.n:
            raise CodeError(f"residue level {fq.level} out of range")
        if not 2 <= fq.modulus <= p.residue_bound:
            raise CodeError(
                f"residue modulus {fq.modulus} outside 2..{p.residue_bound}")
        _residue_coords(g, fq)
        seen_keys.append((fq.level, fq.modulus))
    if seen_keys != sorted(set(seen_keys)):
        raise CodeError("residues must be sorted by (level, modulus)")


def descriptor_fragment(g: GroupSpec, p: TypeDescriptor,
                        var: str = "x") -> fm.Formula:
    """The finite fragment of the type: cut atom plus stored congruences."""
    tv = fm.t_var(g, var)
    parts = []
    tag = p.cut[0]
    if tag == CUT_REALIZED:
        a = element(g, p.cut[1])
        parts.append(fm.RelEq(g.n, tv, fm.t_const(a)))
    elif tag == CUT_AT_SEGMENT:
        parts.append(reconstruct(g, p.cut[1], var))
    for fq in p.residues:
        lit = CongrLiteral(1, 1, fq.level, fq.modulus, beta_of_residues(g, fq))
        parts.append(lit.denote(g, var))
    for q in p.cosets:
        parts.append(fm.RelEq(q.level, tv, fm.t_const(_pad_quot(g, q.level,
                                                                q.coords))))
    if not parts:
        return fm.BoolConst(True)
    if len(parts) == 1:
        return parts[0]
    return fm.And(tuple(parts))


def descriptor_issue(g: GroupSpec, p: TypeDescriptor) -> Optional[str]:
    """The first coherence violation, or None for a coherent descriptor.
    A structurally malformed descriptor raises CodeError instead.

    Coherent means the finite fragment (`descriptor_fragment`) is
    satisfiable, which is decided by arithmetic, without a sentence.  A
    realized cut carries no other data, and x = a is satisfiable.  Else
    the fragment is S ∧ R ∧ K: the cut's segment S (no condition for an
    unbounded cut or the whole-group sentinel, none satisfiable for the
    empty one), the residues R, and the cosets K.  A residue of level l
    modulo m says x.i = r_i (mod m) for each discrete i <= l, a coset of
    level c says x.i = u_i for each i <= c.

    1. R: congruences on different coordinates are independent, and
       those on one coordinate have a common solution iff every two of
       them agree modulo the gcd of their moduli (the generalized
       Chinese remainder theorem, `groups.meet_classes`).
    2. K: two cosets must agree on the coordinates of the lower one, and
       the pinned values u_1..u_c (c the highest coset level) must meet
       every congruence on those coordinates.  By 1 the coordinates past
       c keep a nonempty class each, so R ∧ K is then satisfiable.
    3. S = {x : n*x >= b at level l} (or > b) is closed upward.
       Lemma: a nonempty set closed upward meets every class of a
       finite-index subgroup H, such as the points of the class that R
       leaves on the coordinates past c.  Take y in the set and a in
       the class.  Some M*e_1 lies in H (M the lcm of the moduli if
       coordinate 1 is discrete, any M if it is dense, since a dense
       coordinate carries no congruence), and for t large
       a + t*M*e_1 > y lies in the class and, being above y, in the
       set.
       Now let h = min(c, l) and compare n*u with b on the first h
       coordinates.  If n*u < b there, or n*u > b, that decides: no
       point of K, or every point of K, is in S.  If they are equal and
       c >= l, the comparison is all of S's condition, met iff S is
       `ge`.  If they are equal and c < l, a point of K is in S iff its
       coordinates c+1..n satisfy n*y >= b' (or >) at level l - c >= 1
       in the group of those coordinates: a nonempty set closed upward
       there (large y_(c+1) are in it), which meets the class of R there
       by the lemma.  So S ∧ R ∧ K is satisfiable iff n*u > b on the
       first h coordinates, or they are equal and S is `ge` or c < l.
       Without cosets c = 0: a segment of level l >= 1 is nonempty, and
       one of level 0 is everything (`ge`) or nothing (`gt`).  This is
       how a `gt` cut at the coset's own value, say x >_1 (3, 0) with
       the coset x.1 = 3 on Z*Q, is unsatisfiable while the `ge` cut
       x >=_1 (3, 0) with that coset is not.
    """
    _descriptor_structure(g, p)
    if p.cut[0] == CUT_REALIZED:
        if p.cosets or p.residues:
            return "realized cut must not carry stored congruence data"
        return None
    classes = meet_classes(g, p.residues)
    if classes is None:
        return "residues disagree: their classes do not meet"
    u: tuple = ()
    for q in p.cosets:
        if tuple(q.coords[:len(u)]) != u:
            return f"cosets at levels {len(u)} and {q.level} disagree"
        u = tuple(q.coords)
    if any(i < len(u) and (u[i] - r) % n for i, (r, n) in classes.items()):
        return f"coset at level {len(u)} contradicts the residues"
    if p.cut[0] == CUT_AT_SEGMENT:
        seg = _segment_from_code(g, p.cut[1])
        if seg.is_empty():
            return "finite fragment is unsatisfiable"
        if not seg.is_full():
            h = min(len(u), seg.level)
            nu = tuple(seg.n * c for c in u[:h])
            b = tuple(seg.bound[:h])
            if nu < b or (nu == b and seg.rel == GT and len(u) >= seg.level):
                return "finite fragment is unsatisfiable"
    return None


def code_type(g: GroupSpec, p: TypeDescriptor) -> Code:
    """Code a coherent type descriptor.

    Values are concatenated in a fixed order: the cut's data, then one
    finite-quotient value per stored residue, then one quotient value
    per decided coset, both runs sorted by level (and modulus).  A
    realized cut dominates: its element is the entire code.
    """
    issue = descriptor_issue(g, p)
    if issue is not None:
        raise CodeError(issue)
    tag = p.cut[0]
    if tag == CUT_REALIZED:
        header = ("type", (CUT_REALIZED,), (), (), p.residue_bound)
        return Code(header, (MainVal(element(g, p.cut[1])),))
    if tag == CUT_MINUS_INF:
        cut_meta: tuple = (CUT_MINUS_INF,)
        cut_vals: tuple = (Marker(MARK_MINUS_INF),)
    elif tag == CUT_PLUS_INF:
        cut_meta = (CUT_PLUS_INF,)
        cut_vals = (Marker(MARK_PLUS_INF),)
    else:
        seg_code = p.cut[1]
        cut_meta = (CUT_AT_SEGMENT,) + seg_code.header
        cut_vals = seg_code.values
    res_meta = tuple((fq.level, fq.modulus) for fq in p.residues)
    cos_meta = tuple(q.level for q in p.cosets)
    values = cut_vals
    values += tuple(FinQuotVal(fq) for fq in p.residues)
    values += tuple(QuotVal(q) for q in p.cosets)
    header = ("type", cut_meta, res_meta, cos_meta, p.residue_bound)
    return Code(header, values)


# --- finite sets of quotient tuples -----------------------------------------


def _quot_sort_key(t):
    return tuple(q.coords for q in t)


def code_finite_set(g: GroupSpec, tuples: Iterable) -> Code:
    """Code a finite set of quotient-element tuples of uniform shape.

    The tuples are deduplicated and sorted lexicographically under the
    product order, so the code does not depend on input order.
    """
    tups = [tuple(t) for t in tuples]
    if not tups:
        raise CodeError("cannot code an empty finite set")
    shape = None
    for t in tups:
        if not t:
            raise CodeError("cannot code an empty tuple")
        for q in t:
            if not isinstance(q, QuotientElement):
                raise CodeError("finite-set entries must be quotient elements")
            if not 0 <= q.level <= g.n:
                raise CodeError(f"quotient level {q.level} out of range")
            _element_of(quotient_spec(g, q.level), q.coords)
        this = tuple(q.level for q in t)
        if shape is None:
            shape = this
        elif this != shape:
            raise CodeError("finite-set tuples must share one shape")
    distinct = sorted(set(tups), key=_quot_sort_key)
    values = tuple(QuotVal(q) for t in distinct for q in t)
    return Code(("finite-set", len(distinct), shape), values)


def enumerate_finite_quotient(g: GroupSpec, k: int, m: int) -> tuple:
    """Every element of the finite quotient by (level-k subgroup + m*G),
    reached as the image of a canonical representative, in a fixed order."""
    if m < 2:
        raise CodeError(f"modulus {m} must be at least 2")
    try:
        reps = representatives_mod(g, k, m)
    except OagError as e:
        raise CodeError(str(e)) from e
    return tuple(project_fin(g, k, m, r) for r in reps)


# --- serialization ----------------------------------------------------------


def _num_to_str(x) -> str:
    return str(Fraction(x))


def _num_from_str(s):
    if not isinstance(s, str):
        raise CodeError(f"expected a number string, got {s!r}")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            q = Fraction(int(num), int(den))
            return q.numerator if q.denominator == 1 else q
        return int(s)
    except (ValueError, ZeroDivisionError) as e:
        raise CodeError(f"bad number string '{s}'") from e


def _header_to_obj(h):
    if isinstance(h, tuple):
        return [_header_to_obj(x) for x in h]
    if isinstance(h, (str, int)):
        return h
    raise CodeError(f"unserializable header entry {h!r}")


# Lists nest at most this deep in the header of any code: a set header
# holds its pieces, a piece its congruence descriptors, and each of those
# is a (sign, multiplier) list.
_HEADER_DEPTH = 5


def _header_from_obj(o):
    def walk(o, depth):
        if isinstance(o, list):
            if depth == _HEADER_DEPTH:
                raise CodeError("code header nests deeper than any code")
            return tuple(walk(x, depth + 1) for x in o)
        if isinstance(o, (str, int)) and not isinstance(o, bool):
            return o
        raise CodeError(f"bad header entry {o!r}")

    return walk(o, 0)


def _value_to_obj(v) -> dict:
    if isinstance(v, MainVal):
        return {"sort": "main", "coords": [_num_to_str(x) for x in v.value]}
    if isinstance(v, QuotVal):
        return {"sort": "quot", "level": v.value.level,
                "coords": [_num_to_str(x) for x in v.value.coords]}
    if isinstance(v, FinQuotVal):
        return {"sort": "finquot", "level": v.value.level,
                "modulus": v.value.modulus,
                "residues": [int(r) for r in v.value.residues]}
    if isinstance(v, Marker):
        return {"sort": "marker", "kind": v.kind}
    raise CodeError(f"unserializable code value {v!r}")


def _value_from_obj(o) -> CodeValue:
    if not isinstance(o, dict) or "sort" not in o:
        raise CodeError(f"bad code value object {o!r}")
    sort = o["sort"]
    try:
        if sort == "main":
            return MainVal(tuple(_num_from_str(s) for s in o["coords"]))
        if sort == "quot":
            return QuotVal(QuotientElement(
                int(o["level"]), tuple(_num_from_str(s) for s in o["coords"])))
        if sort == "finquot":
            return FinQuotVal(FiniteQuotientElement(
                int(o["level"]), int(o["modulus"]),
                tuple(int(r) for r in o["residues"])))
        if sort == "marker":
            kind = o["kind"]
            if kind not in _MARKER_KINDS:
                raise CodeError(f"unknown marker kind '{kind}'")
            return Marker(kind)
    except (KeyError, TypeError, ValueError) as e:
        raise CodeError(f"bad code value object {o!r}") from e
    raise CodeError(f"unknown value sort '{sort}'")


def code_to_obj(c: Code) -> dict:
    """A JSON-ready dictionary with a stable field order and version tag."""
    _check_value_types(c)
    return {"version": CODE_VERSION,
            "header": _header_to_obj(c.header),
            "values": [_value_to_obj(v) for v in c.values]}


def code_from_obj(obj) -> Code:
    if not isinstance(obj, dict):
        raise CodeError("code object must be a dictionary")
    if obj.get("version") != CODE_VERSION:
        raise CodeError(f"unsupported code version {obj.get('version')!r}")
    if "header" not in obj or "values" not in obj:
        raise CodeError("code object must have header and values")
    header = _header_from_obj(obj["header"])
    if not isinstance(header, tuple):
        raise CodeError("code header must be a list")
    values = obj["values"]
    if not isinstance(values, list):
        raise CodeError("code values must be a list")
    c = Code(header, tuple(_value_from_obj(v) for v in values))
    _check_value_types(c)
    return c
