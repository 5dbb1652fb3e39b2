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
the cells of the checked fragment's quantifier-free form.
"""

from typing import Optional

from . import formulas as fm
from .codes import (CUT_AT_SEGMENT, CUT_MINUS_INF, CUT_REALIZED,
                    DEFAULT_RESIDUE_BOUND, TypeDescriptor, beta_of_residues,
                    code_div_form, descriptor_fragment, descriptor_issue)
from .errors import Record, SegmentError, TypeGenError
from .groups import FiniteQuotientElement, GroupSpec, project
from .qe import _holds_somewhere, eliminate_scalar
from .scalars import operation
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
    pure function of its arguments.
    """
    p, _ = generic_type_trace(g, phi, bound, var)
    return p


@operation
def generic_type_trace(g: GroupSpec, phi: fm.Formula,
                       bound: int = DEFAULT_RESIDUE_BOUND,
                       var: Optional[str] = None):
    """generic_type plus the per-stage trace, for auditing the stages.

    phi is lowered and eliminated once.  A fragment is co-initial in the
    hull exactly when it has phi's `segments.least_prefix_qf` walk, and
    each decided atom keeps it, so the walk gives every forced coset.
    The fragment's quantifier-free form is phi's form, the cosets (the
    walk's own values, which `segments.co_initial_classes` pins anyway)
    and the classes decided so far, so the classes come from that form
    and that list.  The trace keeps the fragment as a formula.  No
    sentence is decided."""
    if bound < 2:
        raise TypeGenError(f"residue bound {bound} must be at least 2")
    if var is None and not fm.free_vars(phi):
        var = "x"
    try:
        v = the_var(g, phi, var)
    except SegmentError as e:
        raise TypeGenError(str(e)) from e
    qf = eliminate_scalar(g, fm.lower(g, phi))
    walk = least_prefix_qf(g, qf, v, g.n)
    if walk is None:
        raise TypeGenError("cannot build a type on an unsatisfiable formula")

    # minimum first: a least element realizes the type
    prefix, attained = walk
    if attained and len(prefix) == g.n:
        cut = (CUT_REALIZED, pad(g, prefix))
        p = TypeDescriptor(cut=cut, residue_bound=bound)
        trace = (StageState(0, 0, 0, "minimum", phi, (), (), cut),)
        return p, trace

    hull = hull_segment(g, walk)
    if hull.is_full():
        cut = (CUT_MINUS_INF,)
    else:
        cut = (CUT_AT_SEGMENT, code_div_form(g, hull))

    frag = phi
    residues: list = []
    cosets: list = []
    trace = [StageState(0, 0, 0, "start", frag, (), (), cut)]
    index = 0
    for k in range(0, g.n + 1):
        nontrivial_fin = any(g.kinds[i] == "Z" for i in range(k))
        for m in range(1, bound + 1):
            index += 1
            action = "trivial"
            if m == 1 and k >= 1:
                # the level-k coset: forced iff the walk pins x.1..x.k
                if len(prefix) > k or (len(prefix) == k and attained):
                    low = pad(g, prefix[:k])
                    cosets.append(project(g, k, low))
                    frag = fm.And((frag, fm.RelEq(k, fm.t_var(g, v),
                                                  fm.t_const(low))))
                    action = "coset-forced"
                else:
                    action = "coset-generic"
            elif m >= 2 and nontrivial_fin:
                # the first class in `enumerate_finite_quotient`'s order,
                # which is lexicographic in the residues, that keeps the
                # walk; when a coset at level k or deeper is forced, the
                # walk pins x.1..x.k and the one class is the coset's
                fits = co_initial_classes(g, qf, v, walk, k, m, residues)
                if not fits:
                    raise TypeGenError(
                        f"no consistent class modulo {m} at level {k}")
                chosen = FiniteQuotientElement(k, m, min(fits))
                residues.append(chosen)
                lit = CongrLiteral(1, 1, k, m, beta_of_residues(g, chosen))
                frag = fm.And((frag, lit.denote(g, v)))
                action = "residue"
            trace.append(StageState(index, k, m, action, frag,
                                    tuple(residues), tuple(cosets), cut))

    p = TypeDescriptor(cut=cut, cosets=tuple(cosets),
                       residues=tuple(sorted(residues,
                                             key=lambda f: (f.level,
                                                            f.modulus))),
                       residue_bound=bound)
    issue = descriptor_issue(g, p)
    if issue is not None:
        raise TypeGenError(f"constructed descriptor is incoherent: {issue}")
    return p, tuple(trace)


@operation
def check_descriptor(g: GroupSpec, p: TypeDescriptor, phi: fm.Formula,
                     var: Optional[str] = None) -> bool:
    """Whether the descriptor's finite fragment concentrates on phi.

    True iff the descriptor is coherent (`codes.descriptor_issue`, by
    arithmetic) and the fragment (cut atom, stored residues and cosets,
    plus membership in the set itself) is satisfiable.  Every atom of
    the fragment's eliminated form mentions one coordinate, so the cell
    walk (`qe._holds_somewhere`) answers that exactly: no sentence is
    decided.  The fragment entails phi because phi is one of its
    conjuncts.  Structurally malformed descriptors raise; semantic
    violations return False.
    """
    if var is None and not fm.free_vars(phi):
        var = "x"
    try:
        v = the_var(g, phi, var)
    except SegmentError as e:
        raise TypeGenError(str(e)) from e
    if descriptor_issue(g, p) is not None:
        return False
    frag = fm.And((descriptor_fragment(g, p, v), phi))
    return _holds_somewhere(g, eliminate_scalar(g, fm.lower(g, frag)))
