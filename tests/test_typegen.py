"""Tests for the staged construction of definable types."""

import random
import time
from fractions import Fraction

import pytest

import reference_typegen as ref
from reference_qe import count_decides, entails, satisfiable
from oagkit import cells as cm
from oagkit import formulas as fm
from oagkit import qe
from oagkit import segments as sg
from oagkit import typegen as tg
from oagkit.errors import CodeError, TypeGenError
from oagkit.groups import (FiniteQuotientElement, QuotientElement,
                           parse_group, project_fin)
from oagkit.codes import (Code, MainVal, Marker, QuotVal,
                          TypeDescriptor, code_segment, code_type,
                          descriptor_fragment, descriptor_issue)
from oagkit.oracle import FuzzLimits, fuzz_corpus
from oagkit.scalars import operation_memo, operation_scope
from oagkit.segments import DivSegment, END, GE
from oagkit.typegen import StageState, check_descriptor, generic_type, \
    generic_type_trace

Z = parse_group("Z")
ZZ = parse_group("Z*Z")
Q = parse_group("Q")
QZ = parse_group("Q*Z")
ZQ = parse_group("Z*Q")

LIM = FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2, window=6, max_den=2)


# acceptance criterion 07's corpus: its groups, seeds and limits (its
# residue bound is 6)
CRIT07 = (("Z", 71), ("Z*Z", 72), ("Q", 73), ("Z*Q", 74))
CRIT07_LIMITS = FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2,
                           window=6)


def crit07_corpus(spec, seed, count):
    g = parse_group(spec)
    out = [f for f in fuzz_corpus(g, seed, 8 * count, limits=CRIT07_LIMITS,
                                  template="qf")
           if fm.free_vars(f) == frozenset({"x"}) and satisfiable(g, f)]
    return g, out[:count]


def far_roots(radius):
    return (f"(or (and (< x (c -{radius})) (congr 2 x (c 0))) "
            f"(and (<= (c {radius}) x) (congr 3 x (c 0))))")


def unary_corpus(g, seed, count):
    out = []
    for f in fuzz_corpus(g, seed=seed, count=count, limits=LIM,
                         template="qf"):
        if fm.free_vars(f) == frozenset({"x"}) and satisfiable(g, f):
            out.append(f)
    return out


class TestGenericType:
    def test_unbounded_group_descends_through_zero_classes(self):
        p = generic_type(Z, fm.parse(Z, "true"), 4)
        assert p.cut == ("minus-inf",)
        assert p.cosets == ()
        assert p.residues == (FiniteQuotientElement(1, 2, (0,)),
                              FiniteQuotientElement(1, 3, (0,)),
                              FiniteQuotientElement(1, 4, (0,)))
        assert p.residue_bound == 4

    def test_minimum_short_circuits(self):
        phi = fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")
        p, trace = generic_type_trace(Z, phi)
        assert p == TypeDescriptor(cut=("realized", (7,)))
        assert len(trace) == 1 and trace[0].action == "minimum"
        assert check_descriptor(Z, p, phi)

    def test_lexicographic_minimum_found(self):
        phi = fm.parse(ZZ, "(le@ 2 (c 1 1) x)")
        p = generic_type(ZZ, phi)
        assert p.cut == ("realized", (1, 1))

    def test_projected_halfline_pins_the_top_coordinate(self):
        phi = fm.parse(ZZ, "(le@ 2 (c 1 1) (* 2 x))")
        p, trace = generic_type_trace(ZZ, phi, 4)
        assert p.cut == ("at-segment",
                         code_segment(ZZ, DivSegment(END, 1, 1, (1, 0), GE)))
        assert p.cosets == (QuotientElement(1, (1,)),)
        assert p.residues == (
            FiniteQuotientElement(1, 2, (1,)),
            FiniteQuotientElement(1, 3, (1,)),
            FiniteQuotientElement(1, 4, (1,)),
            FiniteQuotientElement(2, 2, (1, 0)),
            FiniteQuotientElement(2, 3, (1, 0)),
            FiniteQuotientElement(2, 4, (1, 0)))
        acts = [(s.level, s.modulus, s.action) for s in trace[1:]]
        assert acts == [
            (0, 1, "trivial"), (0, 2, "trivial"), (0, 3, "trivial"),
            (0, 4, "trivial"),
            (1, 1, "coset-forced"), (1, 2, "residue"), (1, 3, "residue"),
            (1, 4, "residue"),
            (2, 1, "coset-generic"), (2, 2, "residue"), (2, 3, "residue"),
            (2, 4, "residue")]
        assert check_descriptor(ZZ, p, phi)

    def test_edge_coset_matches_segment_code(self):
        phi = fm.parse(ZQ, "(le@ 1 (c 3 0) x)")
        p = generic_type(ZQ, phi, 3)
        assert p.cosets == (QuotientElement(1, (3,)),)
        assert p.cut[0] == "at-segment"
        assert p.cut[1].values == (QuotVal(QuotientElement(1, (3,))),)
        assert p.residues == (
            FiniteQuotientElement(1, 2, (1,)),
            FiniteQuotientElement(1, 3, (0,)),
            FiniteQuotientElement(2, 2, (1,)),
            FiniteQuotientElement(2, 3, (0,)))
        c = code_type(ZQ, p)
        assert c.values[0] == QuotVal(QuotientElement(1, (3,)))
        assert c.values[-1] == QuotVal(QuotientElement(1, (3,)))

    def test_dense_cut_with_no_congruence_data(self):
        p = generic_type(Q, fm.parse(Q, "(< (c 0) x)"), 6)
        assert p.cut[0] == "at-segment"
        assert p.cut[1] == Code(("segment", END, "cut", 1), (MainVal((0,)),))
        assert p.cosets == () and p.residues == ()
        assert check_descriptor(Q, p, fm.parse(Q, "(< (c 0) x)"))

    def test_congruence_constraint_forces_residues(self):
        phi = fm.parse(Z, "(congr 2 x (c 1))")
        p = generic_type(Z, phi, 4)
        assert p.cut == ("minus-inf",)
        assert p.residues[0] == FiniteQuotientElement(1, 2, (1,))
        # mod 4 must refine the mod 2 choice
        assert p.residues[2] == FiniteQuotientElement(1, 4, (1,))
        assert check_descriptor(Z, p, phi)

    def test_dense_top_coordinate_stays_generic(self):
        phi = fm.parse(QZ, "(lt@ 1 (c 1/2 0) x)")
        p, trace = generic_type_trace(QZ, phi, 3)
        assert p.cosets == ()
        acts = {(s.level, s.modulus): s.action for s in trace[1:]}
        assert acts[(1, 1)] == "coset-generic"
        assert acts[(1, 2)] == "trivial"
        assert acts[(2, 2)] == "residue"
        assert check_descriptor(QZ, phi=phi, p=p)

    def test_deterministic_across_runs(self):
        for g, seed in ((Z, 3), (ZZ, 4)):
            for phi in unary_corpus(g, seed, 6)[:3]:
                assert generic_type(g, phi, 4) == generic_type(g, phi, 4)

    def test_every_nontrivial_stage_decides(self):
        phi = fm.parse(Z, "(<= x (c -3))")
        p, trace = generic_type_trace(Z, phi, 5)
        for s in trace[1:]:
            if s.level >= 1 and s.modulus >= 2:
                assert s.action == "residue"
        assert p.cut == ("minus-inf",)

    def test_unsatisfiable_rejected(self):
        with pytest.raises(TypeGenError):
            generic_type(Z, fm.parse(Z, "false"))
        with pytest.raises(TypeGenError):
            generic_type(Z, fm.parse(Z, "(< x x)"))

    def test_bad_bound_rejected(self):
        with pytest.raises(TypeGenError):
            generic_type(Z, fm.parse(Z, "true"), 1)

    def test_arity_rejected(self):
        with pytest.raises(TypeGenError):
            generic_type(Z, fm.parse(Z, "(< x y)"))


class TestLeastValueWalk:
    """generic_type reads the minimum, the cosets, the cut and
    co-initiality off `segments.least_prefix`."""

    def test_no_witness_calls(self, monkeypatch):
        calls = []
        real = qe.witness

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod in (qe, sg, tg):
            monkeypatch.setattr(mod, "witness", counting, raising=False)
        for g, seed, count in ((Z, 3, 6), (ZZ, 4, 6), (Z, 11, 8),
                               (ZZ, 12, 8)):
            for phi in unary_corpus(g, seed, count):
                generic_type(g, phi, 4)
        assert calls == []

    def test_far_roots_cost_nothing_extra(self, monkeypatch):
        # the least values do not move with the roots at -R and R, and
        # neither does the number of fibre pins
        def far_roots(radius):
            return (f"(or (and (< x (c -{radius})) (congr 2 x (c 0))) "
                    f"(and (<= (c {radius}) x) (congr 3 x (c 0))))")

        real = cm.pin
        evaluated = []

        def counting(*args):
            evaluated.append(args)
            return real(*args)

        # every fibre, co_initial_classes' prefix included, is pinned
        # through the cells module's binding
        monkeypatch.setattr(cm, "pin", counting)
        types, counts = [], []
        for radius in (100, 10**6):
            evaluated.clear()
            start = time.process_time()
            types.append(generic_type(Z, fm.parse(Z, far_roots(radius))))
            assert time.process_time() - start < 5
            counts.append(len(evaluated))
        assert types[0] == types[1]
        assert types[0].cut == ("minus-inf",)
        assert counts[0] == counts[1] > 0


class TestStageTrace:
    def test_fragments_stay_satisfiable_and_monotone(self):
        phi = fm.parse(ZZ, "(le@ 2 (c 1 1) (* 2 x))")
        _, trace = generic_type_trace(ZZ, phi, 3)
        assert all(isinstance(s, StageState) for s in trace)
        for s in trace:
            assert satisfiable(ZZ, s.fragment)
        for prev, cur in zip(trace, trace[1:]):
            assert entails(ZZ, cur.fragment, prev.fragment)
            assert cur.index == prev.index + 1

    def test_fragment_entails_the_input_set(self):
        phi = fm.parse(Z, "(congr 3 x (c 2))")
        _, trace = generic_type_trace(Z, phi, 6)
        assert entails(Z, trace[-1].fragment, phi)


class TestCheckDescriptor:
    def test_generated_descriptors_check_out(self):
        for g, seed in ((Z, 11), (ZZ, 12)):
            for phi in unary_corpus(g, seed, 8)[:4]:
                p = generic_type(g, phi, 4)
                assert check_descriptor(g, p, phi, "x")

    def test_crt_violation_fails(self):
        bad = TypeDescriptor(
            cut=("plus-inf",),
            residues=(FiniteQuotientElement(1, 2, (1,)),
                      FiniteQuotientElement(1, 4, (0,))))
        assert check_descriptor(Z, bad, fm.parse(Z, "true")) is False

    def test_realized_outside_the_set_fails(self):
        p = TypeDescriptor(cut=("realized", (3,)))
        assert check_descriptor(Z, p, fm.parse(Z, "(<= (c 5) x)")) is False
        assert check_descriptor(Z, p, fm.parse(Z, "(<= (c 0) x)")) is True

    def test_fragment_must_meet_the_set(self):
        p = TypeDescriptor(cut=("minus-inf",),
                           residues=(FiniteQuotientElement(1, 2, (0,)),))
        assert check_descriptor(Z, p, fm.parse(Z, "(congr 2 x (c 1))")) is False

    def test_malformed_descriptor_raises(self):
        with pytest.raises(CodeError):
            check_descriptor(Z, TypeDescriptor(cut=("nowhere",)),
                             fm.parse(Z, "true"))

    @staticmethod
    def bumped(p):
        # p with the first residue of its first class moved up by one
        fq = p.residues[0]
        moved = FiniteQuotientElement(
            fq.level, fq.modulus,
            ((fq.residues[0] + 1) % fq.modulus,) + fq.residues[1:])
        return TypeDescriptor(p.cut, p.cosets, (moved,) + p.residues[1:],
                              p.residue_bound)

    def test_walk_agrees_with_cooper(self):
        # criterion 07's descriptors, each checked against its own
        # formula, the next formula of its corpus and the negation of its
        # own, and with a bumped residue; the reference closes fragment
        # and formula into a sentence and decides it
        outcomes = {True: 0, False: 0}
        for spec, seed in CRIT07:
            g, fs = crit07_corpus(spec, seed, 30)
            for i, phi in enumerate(fs):
                p = generic_type(g, phi, 6)
                cases = [(p, phi), (p, fs[(i + 1) % len(fs)]),
                         (p, fm.Not(phi))]
                if p.residues:
                    cases.append((self.bumped(p), phi))
                for q, psi in cases:
                    want = ref.check_descriptor(g, q, psi, "x")
                    assert check_descriptor(g, q, psi, "x") == want, \
                        (q, fm.print_formula(psi))
                    outcomes[want] += 1
        assert sum(outcomes.values()) >= 400
        assert min(outcomes.values()) >= 100


class TestOperationMemo:
    """Criterion 07 checks determinism by running generic_type twice; the
    rerun must start without a memo, or it would only replay the first."""

    PHI = "(le@ 2 (c 1 1) (* 2 x))"
    # generic_type of PHI projects nothing by Cooper's method; eliminating
    # the quantifier of this one does
    PROJECTING = "(exists (y) (and (le@ 2 (c 1 1) (* 2 y)) (< y x)))"

    def test_no_memo_survives_an_operation(self):
        generic_type(ZZ, fm.parse(ZZ, self.PHI), 4)
        assert operation_memo() is None
        with pytest.raises(TypeGenError):
            generic_type(Z, fm.parse(Z, "(< x x)"))
        assert operation_memo() is None

    def test_rerun_is_cold(self, monkeypatch):
        calls = []
        cooper = qe._cooper

        def counted(*args):
            calls.append(args)
            return cooper(*args)

        monkeypatch.setattr(qe, "_cooper", counted)
        phi = fm.parse(ZZ, self.PROJECTING)
        first = generic_type(ZZ, phi, 4)
        n = len(calls)
        assert n > 0
        assert generic_type(ZZ, phi, 4) == first
        assert len(calls) == 2 * n
        # inside one open scope the rerun joins it and repeats nothing
        with operation_scope():
            generic_type(ZZ, phi, 4)
            assert len(calls) == 3 * n
            assert generic_type(ZZ, phi, 4) == first
            assert len(calls) == 3 * n


class TestDecides:
    """generic_type, descriptor_issue and check_descriptor decide no
    sentence."""

    def test_far_roots_decide_nothing(self, monkeypatch):
        # the fragment's congruences have lcm 27720; arithmetic does not
        # enumerate them
        decided = count_decides(monkeypatch)
        types = []
        for radius in (100, 10**6):
            phi = fm.parse(Z, far_roots(radius))
            types.append(generic_type(Z, phi))
            assert descriptor_issue(Z, types[-1]) is None
        assert decided == []
        assert types[0] == types[1]
        assert [fq.residues for fq in types[0].residues] == [(0,)] * 11

    def test_corpus_types_decide_nothing(self, monkeypatch):
        cases = [crit07_corpus(spec, seed, 6) for spec, seed in CRIT07]
        decided = count_decides(monkeypatch)
        for g, fs in cases:
            for phi in fs:
                generic_type(g, phi, 6)
        assert decided == []

    def test_check_descriptor_decides_nothing(self, monkeypatch):
        cases = [(g, phi, generic_type(g, phi, 6))
                 for g, fs in (crit07_corpus("Z*Z", 72, 4),
                               crit07_corpus("Z*Q", 74, 4))
                 for phi in fs]
        decided = count_decides(monkeypatch)
        for g, phi, p in cases:
            assert check_descriptor(g, p, phi, "x")
        assert decided == []


def _segment_code(g, case, n, level, vals):
    if case in ("whole", "empty"):
        mark = "whole-group" if case == "whole" else "empty"
        return Code(("segment", END, case, 1), (Marker(mark),))
    val = MainVal(tuple(vals)) if level == g.n else \
        QuotVal(QuotientElement(level, tuple(vals[:level])))
    return Code(("segment", END, case, n), (val,))


def _random_descriptor(g, rng, bound=6):
    """A descriptor read off a random point, then perhaps perturbed: a
    cut at or near the point (or a sentinel, or a realized point), its
    cosets and its residues, and one changed value."""
    def coord(i):
        if g.kinds[i] == "Z":
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2)))

    point = [coord(i) for i in range(g.n)]
    if rng.random() < 0.1:
        cut = ("realized", tuple(point))
        return TypeDescriptor(cut=cut, residue_bound=bound), "realized"
    kind = rng.choice(("minus-inf", "plus-inf", "seg", "seg", "seg",
                       "whole", "empty"))
    tag = kind
    if kind in ("minus-inf", "plus-inf"):
        cut = (kind,)
    elif kind in ("whole", "empty"):
        cut = ("at-segment", _segment_code(g, kind, 1, 0, ()))
    else:
        level = rng.randint(0, g.n)
        n = rng.choice((1, 1, 2))
        bound_vals = [n * c for c in point]
        if rng.random() < 0.3:
            bound_vals = [coord(i) for i in range(g.n)]
        case = rng.choice(("min", "cut"))
        cut = ("at-segment", _segment_code(g, case, n, level, bound_vals))
        tag = "ge" if case == "min" else "gt"
    levels = sorted(rng.sample(range(1, g.n + 1),
                               rng.randint(0, min(2, g.n))))
    cosets = [QuotientElement(k, tuple(point[:k])) for k in levels]
    keys = sorted({(rng.randint(1, g.n), rng.randint(2, bound))
                   for _ in range(rng.randint(0, 4))})
    residues = [project_fin(g, k, m, tuple(point)) for k, m in keys]
    change = rng.random()
    if change < 0.25 and residues:
        i = rng.randrange(len(residues))
        fq = residues[i]
        if fq.residues:
            res = list(fq.residues)
            j = rng.randrange(len(res))
            res[j] = (res[j] + rng.randint(1, fq.modulus - 1)) % fq.modulus
            residues[i] = FiniteQuotientElement(fq.level, fq.modulus,
                                                tuple(res))
    elif change < 0.4 and cosets:
        i = rng.randrange(len(cosets))
        q = cosets[i]
        j = rng.randrange(q.level)
        coords = list(q.coords)
        coords[j] += rng.choice((-1, 1))
        cosets[i] = QuotientElement(q.level, tuple(coords))
    p = TypeDescriptor(cut=cut, cosets=tuple(cosets),
                       residues=tuple(residues), residue_bound=bound)
    return p, ("coset-" if cosets else "") + tag


class TestArithmeticCoherence:
    """`descriptor_issue` by arithmetic against the decide-based check
    it replaced (`reference_typegen.descriptor_issue`)."""

    GROUPS = ("Z", "Z*Z", "Q", "Z*Q", "Q*Z", "Z*Z*Z")

    def test_agrees_on_random_descriptors(self):
        seen = set()
        for i, spec in enumerate(self.GROUPS):
            g = parse_group(spec)
            rng = random.Random(90 + i)
            for _ in range(80):
                p, shape = _random_descriptor(g, rng)
                want = ref.descriptor_issue(g, p) is None
                assert (descriptor_issue(g, p) is None) == want, (g, p)
                seen.add((shape, want))
        assert {("coset-ge", True), ("coset-ge", False),
                ("coset-gt", True), ("coset-gt", False),
                ("ge", True), ("gt", True), ("gt", False),
                ("realized", True), ("whole", True), ("empty", False),
                ("minus-inf", False), ("plus-inf", True)} <= seen, seen

    def test_residues_across_levels(self):
        # moduli 4 and 6 share 2: the level-1 and level-2 classes meet
        # exactly when their first residues agree modulo 2
        for r in range(4):
            p = TypeDescriptor(
                cut=("minus-inf",),
                residues=(FiniteQuotientElement(1, 4, (r,)),
                          FiniteQuotientElement(2, 6, (1, 5))))
            ok = descriptor_issue(ZZ, p) is None
            assert ok == (r % 2 == 1)
            assert ok == (ref.descriptor_issue(ZZ, p) is None)

    def test_coset_against_cut_on_the_pinned_coordinates(self):
        # a coset at level 1 against cuts of level 2 at its own value:
        # the cut leaves the second coordinate free, so both relations
        # are satisfiable; at level 1 only ge is
        for level, case, want in ((2, "min", True), (2, "cut", True),
                                  (1, "min", True), (1, "cut", False),
                                  (0, "cut", False), (0, "min", True)):
            code = _segment_code(ZQ, case, 1, level, (3, Fraction(1, 2)))
            p = TypeDescriptor(cut=("at-segment", code),
                               cosets=(QuotientElement(1, (3,)),))
            assert (descriptor_issue(ZQ, p) is None) == want, (level, case)
            assert (ref.descriptor_issue(ZQ, p) is None) == want

    def test_agrees_on_perturbed_corpus_descriptors(self):
        rng = random.Random(7)
        verdicts = set()
        for spec, seed in CRIT07:
            g, fs = crit07_corpus(spec, seed, 5)
            for phi in fs:
                p = generic_type(g, phi, 6)
                assert descriptor_issue(g, p) is None
                assert ref.descriptor_issue(g, p) is None
                for fq_i, fq in enumerate(p.residues[:3]):
                    if not fq.residues:
                        continue
                    res = ((fq.residues[0] + rng.randint(1, fq.modulus - 1))
                           % fq.modulus,) + fq.residues[1:]
                    bad = p.residues[:fq_i] + (FiniteQuotientElement(
                        fq.level, fq.modulus, res),) + p.residues[fq_i + 1:]
                    q = TypeDescriptor(p.cut, p.cosets, bad, p.residue_bound)
                    want = ref.descriptor_issue(g, q) is None
                    assert (descriptor_issue(g, q) is None) == want, (g, q)
                    verdicts.add(want)
        # a changed class clashes with a class or coset sharing a factor
        # of its modulus, and is harmless without one
        assert verdicts == {False, True}


class TestClassChooser:
    """The classes read off the fibres against the per-candidate walks
    they replaced (`reference_typegen.generic_type_trace`): the same
    descriptor and the same trace, fragments included."""

    def test_crit07_corpus(self):
        for spec, seed in CRIT07:
            g, fs = crit07_corpus(spec, seed, 20)
            for phi in fs:
                assert generic_type_trace(g, phi, 6) == \
                    ref.generic_type_trace(g, phi, 6), fm.print_formula(phi)

    def test_cut_off_corpora(self):
        # fuzzed formulas, also cut off below 1/2 on every coordinate,
        # which gives minima, open cuts and classes below the top level
        cuts = set()
        for i, spec in enumerate(("Q*Z", "Z*Z*Z", "Z*Q*Z")):
            g = parse_group(spec)
            half = fm.Cmp(fm.LT, fm.t_const((1,) * g.n),
                          fm.t_scale(g, 2, fm.t_var(g, "x")))
            for f in unary_corpus(g, 40 + i, 10)[:4]:
                for phi in (f, fm.And((f, half))):
                    if not satisfiable(g, phi):
                        continue
                    got = generic_type_trace(g, phi, 4)
                    assert got == ref.generic_type_trace(g, phi, 4), \
                        fm.print_formula(phi)
                    cuts.add(got[0].cut[0])
        assert cuts == {"realized", "at-segment", "minus-inf"}
