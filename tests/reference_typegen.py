"""Reference type generation: the per-candidate co-initiality walk and
the decide-based coherence and concentration checks that
`oagkit.typegen` and `oagkit.codes.descriptor_issue` replaced.

`generic_type_trace` lowers and eliminates the fragment afresh for
every candidate class and keeps the class whose `least_prefix` walk is
the set's; `descriptor_issue` decides the satisfiability of the finite
fragment with Cooper's procedure, and `check_descriptor` that of the
fragment conjoined with the set.  Tests compare the library against
all three.  Nothing here is fast; it is the old code kept as a
specification.
"""

from math import gcd

from oagkit import codes
from oagkit import formulas as fm
from oagkit.codes import (CUT_AT_SEGMENT, CUT_MINUS_INF, CUT_REALIZED,
                          TypeDescriptor, _descriptor_structure, _pad_quot,
                          beta_of_residues, code_segment,
                          descriptor_fragment, enumerate_finite_quotient)
from oagkit.groups import project, project_fin
from oagkit.scalars import operation
from oagkit.segments import (CongrLiteral, hull_segment, least_prefix, pad,
                             the_var)
from oagkit.typegen import StageState
from reference_qe import satisfiable



def residue_compatible(g, a, b) -> bool:
    """Whether two finite-quotient classes can hold simultaneously."""
    d = gcd(a.modulus, b.modulus)
    if d == 1:
        return True
    k = min(a.level, b.level)
    return project_fin(g, k, d, beta_of_residues(g, a)) == \
        project_fin(g, k, d, beta_of_residues(g, b))


def descriptor_issue(g, p):
    """The decide-based coherence check: divisibility among residues of
    one level, cosets against the residues they determine, then the
    satisfiability of the finite fragment, decided."""
    _descriptor_structure(g, p)
    if p.cut[0] == CUT_REALIZED and (p.cosets or p.residues):
        return "realized cut must not carry stored congruence data"
    by_level: dict = {}
    for fq in p.residues:
        by_level.setdefault(fq.level, []).append(fq)
    for level, fqs in by_level.items():
        for small in fqs:
            for big in fqs:
                if small.modulus == big.modulus:
                    continue
                if big.modulus % small.modulus != 0:
                    continue
                reduced = project_fin(g, level, small.modulus,
                                      beta_of_residues(g, big))
                if reduced != small:
                    return (f"residues mod {small.modulus} and {big.modulus} "
                            f"at level {level} disagree")
    for q in p.cosets:
        for fq in p.residues:
            if fq.level <= q.level:
                want = project_fin(g, fq.level, fq.modulus,
                                   _pad_quot(g, q.level, q.coords))
                if want != fq:
                    return (f"coset at level {q.level} contradicts the residue "
                            f"mod {fq.modulus} at level {fq.level}")
    if not satisfiable(g, descriptor_fragment(g, p)):
        return "finite fragment is unsatisfiable"
    return None


@operation
def generic_type_trace(g, phi, bound, var=None):
    """The per-candidate construction: a candidate class is kept when
    the fragment with its atom has the set's `least_prefix` walk."""
    if var is None and not fm.free_vars(phi):
        var = "x"
    v = the_var(g, phi, var)
    walk = least_prefix(g, phi, v, g.n)
    if walk[1] and len(walk[0]) == g.n:
        cut = (CUT_REALIZED, pad(g, walk[0]))
        return (TypeDescriptor(cut=cut, residue_bound=bound),
                (StageState(0, 0, 0, "minimum", phi, (), (), cut),))
    hull = hull_segment(g, walk)
    cut = (CUT_MINUS_INF,) if hull.is_full() else \
        (CUT_AT_SEGMENT, code_segment(g, hull))

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
                                  if all(residue_compatible(g, fq, r)
                                         for r in residues)]
                chosen = None
                for fq in candidates:
                    lit = CongrLiteral(1, 1, k, m, beta_of_residues(g, fq))
                    atom = lit.denote(g, v)
                    if least_prefix(g, fm.And((frag, atom)), v, g.n) == walk:
                        chosen = fq
                        frag = fm.And((frag, atom))
                        break
                if chosen is None:
                    raise AssertionError(
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
    return p, tuple(trace)


@operation
def check_descriptor(g, p, phi, var=None):
    """The decide-based check: coherence by `codes.descriptor_issue`,
    then the satisfiability of the fragment conjoined with phi, closed
    into a sentence and decided."""
    if var is None and not fm.free_vars(phi):
        var = "x"
    v = the_var(g, phi, var)
    if codes.descriptor_issue(g, p) is not None:
        return False
    return satisfiable(g, fm.And((descriptor_fragment(g, p, v), phi)))
