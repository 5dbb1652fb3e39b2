"""Staged construction of a definable type concentrating on a set.

Given a satisfiable unary formula, `generic_type` produces a coherent
TypeDescriptor for a type whose realizations all satisfy the formula.
If the set has a minimum, the type is realized there.  Otherwise the
type sits at the downward edge of the set's end-segment hull: below
every proper definable sub-end-segment, with congruence data decided
subgroup by subgroup in a fixed enumeration order.

A constraint is admissible at a stage exactly when the constrained set
still reaches arbitrarily far down inside the hull; since the order is
total, that co-initiality test captures consistency with the edge
constraints without materializing them.  The minimum, the cosets and
the hull are read off the set's least-value walk
(`segments.least_prefix_qf`).  A fragment of the set is co-initial in
the hull exactly when it is nonempty and its walk equals the set's, and
`segments.co_initial_classes` reads the classes that keep the walk off
the fibres of the fragment's quantifier-free form.  Coherence of the
result is arithmetic (`codes.descriptor_issue`), so `generic_type`
decides no sentence, and neither does `check_descriptor`, which walks
the cells of the fragment's and the set's quantifier-free forms.  Only
`generic_type_trace` builds the fragments as group formulas.
"""

from typing import Optional

from . import formulas as fm
from .cells import holds_somewhere
from .codes import (CUT_AT_SEGMENT, CUT_MINUS_INF, CUT_REALIZED,
                    DEFAULT_RESIDUE_BOUND, TypeDescriptor, beta_of_residues,
                    code_div_form, descriptor_fragment, descriptor_issue)
from .errors import Record, SegmentError, TypeGenError
from .groups import FiniteQuotientElement, GroupSpec, project
from .qe import qf_form
from .scalars import mk_and, operation
from .segments import (CongrLiteral, co_initial_classes, hull_segment,
                       least_prefix_qf, pad, the_var)


class StageState(Record):
    """Snapshot after one enumeration step of the staged construction."""

    index: int
    level: int
    modulus: int
    action: str
    fragment: fm.Formula
    residues: tuple
    cosets: tuple
    cut: tuple


def _var(g: GroupSpec, phi: fm.Formula, var: Optional[str]) -> str:
    """The distinguished variable: var, or "x" for a sentence."""
    if var is None and not fm.free_vars(phi):
        var = "x"
    try:
        return the_var(g, phi, var)
    except SegmentError as e:
        raise TypeGenError(str(e)) from e


@operation
def generic_type(g: GroupSpec, phi: fm.Formula,
                 bound: int = DEFAULT_RESIDUE_BOUND,
                 var: Optional[str] = None) -> TypeDescriptor:
    """The canonical coherent TypeDescriptor concentrating on phi.

    A minimum short-circuits to a realized cut.  Otherwise the cut is
    the set's end-segment hull (the whole group becomes an unbounded
    cut) and each (level, modulus) pair is decided in ascending order:
    the level coset is forced when the descent pins it and left generic
    when it does not, and each finite-quotient class is the least one
    that keeps the fragment co-initial in the hull.  Deterministic: a
    pure function of its arguments."""
    return _decide(g, phi, bound, var)[0]


def _decide(g: GroupSpec, phi: fm.Formula, bound: int,
            var: Optional[str]) -> tuple:
    """generic_type's descriptor, and phi's distinguished variable.

    phi is lowered and eliminated once.  A fragment is co-initial in the
    hull exactly when it has phi's `segments.least_prefix_qf` walk, and
    each decided atom keeps it, so the walk gives every forced coset.
    The fragment's quantifier-free form is phi's form, the cosets (the
    walk's own values, which `segments.co_initial_classes` pins anyway)
    and the classes decided so far, so the classes come from that form
    and that list.  No fragment is built and no sentence is decided."""
    if bound < 2:
        raise TypeGenError(f"residue bound {bound} must be at least 2")
    v = _var(g, phi, var)
    qf = qf_form(g, phi)
    walk = least_prefix_qf(g, qf, v, g.n)
    if walk is None:
        raise TypeGenError("cannot build a type on an unsatisfiable formula")

    # minimum first: a least element realizes the type
    prefix, attained = walk
    if attained and len(prefix) == g.n:
        return TypeDescriptor(cut=(CUT_REALIZED, pad(g, prefix)),
                              residue_bound=bound), v

    hull = hull_segment(g, walk)
    if hull.is_full():
        cut = (CUT_MINUS_INF,)
    else:
        cut = (CUT_AT_SEGMENT, code_div_form(g, hull))
    residues: list = []
    cosets: list = []
    for k in range(1, g.n + 1):
        # the level-k coset: forced iff the walk pins x.1..x.k
        if len(prefix) > k or (len(prefix) == k and attained):
            cosets.append(project(g, k, pad(g, prefix[:k])))
        for m in range(2, bound + 1) if "Z" in g.kinds[:k] else ():
            # the first class in `enumerate_finite_quotient`'s order,
            # which is lexicographic in the residues, that keeps the
            # walk; when a coset at level k or deeper is forced, the
            # walk pins x.1..x.k and the one class is the coset's
            fits = co_initial_classes(g, qf, v, walk, k, m, residues)
            if not fits:
                raise TypeGenError(
                    f"no consistent class modulo {m} at level {k}")
            residues.append(FiniteQuotientElement(k, m, min(fits)))

    # decided by level, then modulus: the residues are in their order
    p = TypeDescriptor(cut=cut, cosets=tuple(cosets),
                       residues=tuple(residues), residue_bound=bound)
    issue = descriptor_issue(g, p)
    if issue is not None:
        raise TypeGenError(f"constructed descriptor is incoherent: {issue}")
    return p, v


@operation
def generic_type_trace(g: GroupSpec, phi: fm.Formula,
                       bound: int = DEFAULT_RESIDUE_BOUND,
                       var: Optional[str] = None):
    """generic_type plus the per-stage trace, for auditing the stages.

    Only the trace builds the fragments.  The descriptor keeps every
    decision, in stage order: the forced coset of a level (at modulus
    1) and the class of each (level, modulus) with a nontrivial finite
    quotient.  So one pass over the stages, with a cursor into each,
    adds each decided atom to the fragment at its stage."""
    p, v = _decide(g, phi, bound, var)
    if p.cut[0] == CUT_REALIZED:
        return p, (StageState(0, 0, 0, "minimum", phi, (), (), p.cut),)
    frag, residues, cosets, tv = phi, (), (), fm.t_var(g, v)
    trace = [StageState(0, 0, 0, "start", frag, residues, cosets, p.cut)]
    for k in range(0, g.n + 1):
        for m in range(1, bound + 1):
            q = p.cosets[len(cosets):len(cosets) + 1]
            fq = p.residues[len(residues):len(residues) + 1]
            action = "coset-generic" if m == 1 and k >= 1 else "trivial"
            if m == 1 and q and q[0].level == k:
                cosets += q
                atom = fm.RelEq(k, tv, fm.t_const(pad(g, q[0].coords)))
                frag, action = fm.And((frag, atom)), "coset-forced"
            elif fq and (fq[0].level, fq[0].modulus) == (k, m):
                residues += fq
                lit = CongrLiteral(1, 1, k, m, beta_of_residues(g, fq[0]))
                frag, action = fm.And((frag, lit.denote(g, v))), "residue"
            trace.append(StageState(len(trace), k, m, action, frag,
                                    residues, cosets, p.cut))
    return p, tuple(trace)


@operation
def check_descriptor(g: GroupSpec, p: TypeDescriptor, phi: fm.Formula,
                     var: Optional[str] = None) -> bool:
    """Whether the descriptor's finite fragment concentrates on phi.

    True iff the descriptor is coherent (`codes.descriptor_issue`, by
    arithmetic) and the fragment (cut atom, stored residues and cosets)
    meets the set.  The fragment's scalar form is quantifier-free, so
    only phi's is eliminated; in their conjunction every atom mentions
    one coordinate, and the cell walk (`cells.holds_somewhere`) answers
    exactly: no sentence is decided.  Structurally malformed descriptors
    raise; semantic violations return False.
    """
    v = _var(g, phi, var)
    if descriptor_issue(g, p) is not None:
        return False
    # it is coherent: leave out what a deeper coset implies, and a class
    # that one of a level as deep and a multiple modulus implies
    c = p.cosets[-1].level if p.cosets else 0
    frag = descriptor_fragment(g, TypeDescriptor(p.cut, p.cosets[-1:], tuple(
        fq for fq in p.residues if fq.level > c and not any(
            fq != r and fq.level <= r.level and r.modulus % fq.modulus == 0
            for r in p.residues))), v)
    return holds_somewhere(g, mk_and([fm.lower(g, frag), qf_form(g, phi)]))
