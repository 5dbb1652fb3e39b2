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
constraints without materializing them.  The minimum, the cosets, the
hull and co-initiality are all read off `segments.least_prefix`: a
fragment of the set is co-initial in the hull exactly when it is
nonempty and its walk equals the set's.
"""

from dataclasses import dataclass
from math import gcd
from typing import Optional

from . import formulas as fm
from .codes import (CUT_AT_SEGMENT, CUT_MINUS_INF, CUT_REALIZED,
                    DEFAULT_RESIDUE_BOUND, TypeDescriptor, beta_of_residues,
                    code_segment, descriptor_fragment, descriptor_issue,
                    enumerate_finite_quotient)
from .errors import SegmentError, TypeGenError
from .groups import GroupSpec, QuotientElement, project, project_fin
from .qe import entails, satisfiable
from .scalars import operation
from .segments import (CongrLiteral, hull_segment, least_prefix, pad,
                       the_var)


@dataclass(frozen=True)
class StageState:
    """Snapshot after one enumeration step of the staged construction."""

    index: int
    level: int
    modulus: int
    action: str
    fragment: fm.Formula
    residues: tuple
    cosets: tuple
    cut: tuple


def _residue_compatible(g: GroupSpec, a, b) -> bool:
    """Whether two finite-quotient classes can hold simultaneously."""
    d = gcd(a.modulus, b.modulus)
    if d == 1:
        return True
    k = min(a.level, b.level)
    return project_fin(g, k, d, beta_of_residues(g, a)) == \
        project_fin(g, k, d, beta_of_residues(g, b))


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

    A fragment is co-initial in the hull exactly when it is nonempty
    and its `segments.least_prefix` walk equals phi's."""
    if bound < 2:
        raise TypeGenError(f"residue bound {bound} must be at least 2")
    if var is None and not fm.free_vars(phi):
        var = "x"
    try:
        v = the_var(g, phi, var)
    except SegmentError as e:
        raise TypeGenError(str(e)) from e
    if not satisfiable(g, phi):
        raise TypeGenError("cannot build a type on an unsatisfiable formula")

    # minimum first: a least element realizes the type
    walk = least_prefix(g, phi, v, g.n)
    if walk[1] and len(walk[0]) == g.n:
        cut = (CUT_REALIZED, pad(g, walk[0]))
        p = TypeDescriptor(cut=cut, residue_bound=bound)
        trace = (StageState(0, 0, 0, "minimum", phi, (), (), cut),)
        return p, trace

    hull = hull_segment(g, walk)
    if hull.is_full():
        cut = (CUT_MINUS_INF,)
    else:
        cut = (CUT_AT_SEGMENT, code_segment(g, hull))

    def co_initial(psi: fm.Formula) -> bool:
        # psi is part of phi, so psi is co-initial in phi's hull exactly
        # when its hull is the same, that is, when it has phi's walk
        return least_prefix(g, psi, v, g.n) == walk

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
                # the level-k coset: forced iff the descent pins a least one
                low, attained = least_prefix(g, frag, v, k)
                if not attained or len(low) < k:
                    action = "coset-generic"
                else:
                    low = pad(g, low)
                    cosets.append(project(g, k, low))
                    atom = fm.RelEq(k, fm.t_var(g, v), fm.t_const(low))
                    frag = fm.And((frag, atom))
                    action = "coset-forced"
            elif m >= 2 and nontrivial_fin:
                fixed = None
                for q in cosets:
                    if q.level >= k:
                        fixed = project_fin(g, k, m, pad(g, q.coords))
                        break
                if fixed is not None:
                    candidates = [fixed]
                else:
                    candidates = [fq for fq in enumerate_finite_quotient(g, k, m)
                                  if all(_residue_compatible(g, fq, r)
                                         for r in residues)]
                chosen = None
                for fq in candidates:
                    lit = CongrLiteral(1, 1, k, m, beta_of_residues(g, fq))
                    atom = lit.denote(g, v)
                    if co_initial(fm.And((frag, atom))):
                        chosen = fq
                        frag = fm.And((frag, atom))
                        break
                if chosen is None:
                    raise TypeGenError(
                        f"no consistent class modulo {m} at level {k}")
                residues.append(chosen)
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

    True iff the descriptor is coherent and the fragment (cut atom,
    stored residues and cosets, plus membership in the set itself) is
    satisfiable and entails the formula.  Structurally malformed
    descriptors raise; semantic violations return False.
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
    return satisfiable(g, frag) and entails(g, frag, phi)
