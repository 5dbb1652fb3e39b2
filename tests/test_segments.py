"""Tests for end segments, stabilizers, divisibility form, and the
canonical nice decomposition."""

import gc
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import oagkit.formulas as fm
import reference_qe
import reference_segments as ref
from reference_qe import entails, equivalent, project_decide, satisfiable
from test_typegen import CRIT07, crit07_corpus
from oagkit import cells as cm
from oagkit import qe
from oagkit import segments as sg
from oagkit import typegen as tg
from oagkit.codes import (beta_of_residues, code_segment, code_set,
                          descriptor_fragment, enumerate_finite_quotient,
                          reconstruct)
from oagkit.errors import SegmentError
from oagkit.groups import ConvexSubgroup, crt, element, parse_group
from oagkit.oracle import (Box, FuzzLimits, _rand_endseg_candidate, evaluate,
                           fuzz_corpus, grid_axes, grid_eval)
from oagkit.qe import eliminate
from oagkit.scalars import (FALSE, SCongr, SVar, atoms, budget_scope, lin,
                            mk_and, mk_congr, mk_eq, mk_lt, mk_not, mk_or,
                            operation_memo, operation_scope, s_eval)

Z = parse_group("Z")
ZZ = parse_group("Z*Z")
Q = parse_group("Q")
QZ = parse_group("Q*Z")
ZQ = parse_group("Z*Q")

LIM = FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2, window=6, max_den=2)


def fresh_names(phi, avoid, count):
    """count variable names that occur neither in phi nor in avoid."""
    taken = set(fm.all_names(phi)) | set(avoid)
    out = []
    i = 0
    while len(out) < count:
        cand = "_t%d" % i
        if cand not in taken:
            taken.add(cand)
            out.append(cand)
        i += 1
    return out


def union_formula(g, pieces):
    if not pieces:
        return fm.BoolConst(False)
    fs = tuple(p.denote(g, "x") for p in pieces)
    return fs[0] if len(fs) == 1 else fm.Or(fs)


class TestDivSegment:
    def test_end_ge_denotation(self):
        seg = sg.DivSegment(sg.END, 1, 1, (3,), sg.GE)
        f = seg.denote(Z)
        assert [evaluate(Z, f, {"x": (v,)}) for v in (2, 3, 4)] == \
            [False, True, True]

    def test_end_gt_with_multiplier(self):
        seg = sg.DivSegment(sg.END, 2, 1, (3,), sg.GT)
        f = seg.denote(Z)
        # 2x > 3 over the integers: x >= 2
        assert [evaluate(Z, f, {"x": (v,)}) for v in (1, 2, 5)] == \
            [False, True, True]

    def test_initial_directions(self):
        seg = sg.DivSegment(sg.INITIAL, 1, 1, (3,), sg.GE)
        f = seg.denote(Z)
        assert [evaluate(Z, f, {"x": (v,)}) for v in (2, 3, 4)] == \
            [True, True, False]
        strict = sg.DivSegment(sg.INITIAL, 1, 1, (3,), sg.GT)
        f2 = strict.denote(Z)
        assert [evaluate(Z, f2, {"x": (v,)}) for v in (2, 3, 4)] == \
            [True, False, False]

    def test_level_relativization(self):
        seg = sg.DivSegment(sg.END, 1, 1, (1, 0), sg.GE)
        f = seg.denote(ZZ)
        # level 1 compares only the first coordinate
        assert evaluate(ZZ, f, {"x": (1, -9)})
        assert not evaluate(ZZ, f, {"x": (0, 9)})

    def test_sentinels(self):
        assert sg.full_end_segment().denote(Z) == fm.BoolConst(True)
        assert sg.empty_end_segment().denote(Z) == fm.BoolConst(False)
        assert sg.full_initial_segment().denote(Z) == fm.BoolConst(True)
        assert sg.empty_initial_segment().denote(Z) == fm.BoolConst(False)
        assert sg.full_end_segment().is_full()
        assert sg.empty_end_segment().is_empty()

    def test_dual_is_complement(self):
        for g, seg in [
            (Z, sg.DivSegment(sg.END, 1, 1, (3,), sg.GE)),
            (Z, sg.DivSegment(sg.END, 2, 1, (3,), sg.GT)),
            (Q, sg.DivSegment(sg.END, 1, 1, (Fraction(1, 2),), sg.GT)),
            (ZZ, sg.DivSegment(sg.INITIAL, 1, 1, (2, 0), sg.GE)),
        ]:
            dual = sg.dual_div_segment(seg)
            assert equivalent(g, dual.denote(g), fm.Not(seg.denote(g)))

    def test_validation(self):
        with pytest.raises(SegmentError):
            sg.DivSegment("sideways", 1, 1, (0,), sg.GE).denote(Z)
        with pytest.raises(SegmentError):
            sg.DivSegment(sg.END, 0, 1, (0,), sg.GE).denote(Z)
        with pytest.raises(SegmentError):
            sg.DivSegment(sg.END, 1, 5, (0,), sg.GE).denote(Z)
        with pytest.raises(SegmentError):
            sg.DivSegment(sg.END, 1, 1, (0,), "gte").denote(Z)


class TestCongrLiteral:
    def test_denotation(self):
        lit = sg.CongrLiteral(1, 2, 1, 3, (1,))
        f = lit.denote(Z)
        # 2x = 1 mod 3 holds at x = 2, 5, ...
        assert [evaluate(Z, f, {"x": (v,)}) for v in (0, 1, 2, 5)] == \
            [False, False, True, True]
        neg = sg.CongrLiteral(-1, 2, 1, 3, (1,))
        assert evaluate(Z, neg.denote(Z), {"x": (0,)})

    def test_offset_folds_into_beta(self):
        lit = sg.CongrLiteral(1, 1, 1, 4, (1,), offset=2)
        canon = lit.canonical(Z)
        assert canon.offset == 0 and canon.beta == (3,)
        assert equivalent(Z, lit.denote(Z), canon.denote(Z))

    def test_canonical_reduces_coordinates(self):
        lit = sg.CongrLiteral(1, 5, 1, 3, (7, 9))
        canon = lit.canonical(ZZ)
        assert canon.z == 2 and canon.beta == (1, 0)
        assert equivalent(ZZ, lit.denote(ZZ), canon.denote(ZZ))

    def test_dense_coordinates_unconstrained(self):
        lit = sg.CongrLiteral(1, 1, 2, 2, (1, Fraction(1, 2)))
        canon = lit.canonical(ZQ)
        assert canon.beta == (1, 0)
        f = lit.denote(ZQ)
        assert evaluate(ZQ, f, {"x": (3, Fraction(7, 3))})
        assert not evaluate(ZQ, f, {"x": (2, 0)})

    def test_degenerate_multiplier_rejected(self):
        with pytest.raises(SegmentError):
            sg.CongrLiteral(1, 3, 1, 3, (0,)).canonical(Z)
        with pytest.raises(SegmentError):
            sg.CongrLiteral(1, 1, 1, 1, (0,)).denote(Z)

    def test_restriction_dedupes_and_sorts(self):
        a = sg.CongrLiteral(1, 1, 1, 3, (4,))
        b = sg.CongrLiteral(1, 1, 1, 3, (1,))
        c = sg.CongrLiteral(1, 1, 1, 2, (0,))
        out = sg.canonical_restriction(Z, [a, b, c])
        assert out == (c.canonical(Z), b.canonical(Z))


class TestIsEndSegment:
    def test_double_multiple_bound(self):
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        assert sg.is_end_segment(ZZ, phi)

    def test_congruence_class_is_not(self):
        phi = fm.parse(Z, "(congr 2 x (c 0))")
        assert not sg.is_end_segment(Z, phi)

    def test_whole_group(self):
        assert sg.is_end_segment(Z, fm.parse(Z, "true"), "x")
        assert sg.is_end_segment(ZZ, fm.parse(ZZ, "true"), "x")

    def test_arity_checked(self):
        two = fm.parse(Z, "(< x y)")
        with pytest.raises(SegmentError):
            sg.is_end_segment(Z, two)

    @staticmethod
    def count_projections(monkeypatch):
        """The list every `qe._cooper` and `qe._dense` call is appended
        to."""
        calls = []
        for name in ("_cooper", "_dense"):
            def counted(*args, _real=getattr(qe, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(qe, name, counted)
        return calls

    def test_one_decide_and_no_projection(self, monkeypatch):
        # the end-segment sentence is one closed block over x: decided
        # once, and walked, with no Cooper or dense projection
        projected = self.count_projections(monkeypatch)
        decided = reference_qe.count_decides(monkeypatch)
        assert sg.is_end_segment(ZZ, fm.parse(ZZ, "(< (c 1 1) x)"), "x")
        assert len(decided) == 1
        assert projected == []

    def test_crit05_round_trips_project_nothing(self, monkeypatch):
        corpus = fuzz_corpus(QZ, 55, 35, template="end-segment")
        projected = self.count_projections(monkeypatch)
        for f in corpus:
            seg = sg.to_div_segment(QZ, f, "x")
            reconstruct(QZ, code_segment(QZ, seg), "x")
        assert projected == []


class TestEndHull:
    def test_open_ray_is_its_own_hull(self):
        phi = fm.parse(Q, "(< (c 0) x)")
        hull = sg.end_hull(Q, phi)
        assert equivalent(Q, hull, phi)

    def test_mixed_group_open_ray(self):
        phi = fm.parse(ZQ, "(< (c 0 0) x)")
        assert equivalent(ZQ, sg.end_hull(ZQ, phi), phi)

    def test_congruence_thinned_ray(self):
        # Even-by-even points above (1,1) doubled: the first coordinate
        # of any member is an even number >= 2, so the hull is the set
        # of points at least (2, anything).
        X = fm.parse(ZZ, "(and (<= (c 1 1) (* 2 x)) (congr@ 2 2 x (c 0 0)))")
        hull = sg.end_hull(ZZ, X)
        want = fm.parse(ZZ, "(le@ 1 (c 2 0) x)")
        assert equivalent(ZZ, hull, want)
        # box derivation: containment and co-initiality both hold
        pts = [(a, b) for a in range(-8, 9) for b in range(-8, 9)]
        xm = [p for p in pts if evaluate(ZZ, X, {"x": p})]
        hm = [p for p in pts if evaluate(ZZ, want, {"x": p})]
        assert set(xm) <= set(hm)
        lex_le = lambda u, s: u[0] < s[0] or (u[0] == s[0] and u[1] <= s[1])
        assert all(any(lex_le(u, s) for u in xm) for s in hm)

    def test_hull_is_the_least_end_segment_above_the_set(self):
        # the checks end_hull used to run on itself: the hull is closed
        # upward, contains the set and has the set co-initial in it; and
        # it is the set of points not strictly below the whole set
        seen = 0
        for i, gname in enumerate(("Z", "Q", "Z*Z", "Z*Q", "Q*Z")):
            g = parse_group(gname)
            for phi in fuzz_corpus(g, seed=60 + i, count=20, template="qf",
                                   limits=LIM):
                if fm.free_vars(phi) != frozenset({"x"}):
                    continue
                walk = sg.least_prefix(g, phi, "x", g.n)
                if walk is None or (walk[1] and len(walk[0]) == g.n):
                    continue
                hull = sg.end_hull(g, phi)
                (y,) = fresh_names(fm.And((phi, hull)), ["x"], 1)
                tx, ty = fm.t_var(g, "x"), fm.t_var(g, y)
                phi_y = fm.substitute(g, phi, "x", ty)
                hull_y = fm.substitute(g, hull, "x", ty)
                below = fm.Cmp(fm.LE, ty, tx)
                assert project_decide(g, fm.Forall("x", fm.Forall(
                    y, fm.Implies(fm.And((hull, fm.Cmp(fm.LT, tx, ty))),
                                  hull_y))))
                assert entails(g, phi, hull)
                assert project_decide(g, fm.Forall("x", fm.Implies(
                    hull, fm.Exists(y, fm.And((phi_y, below))))))
                quantified = fm.Not(fm.Forall(
                    y, fm.Implies(below, fm.Not(phi_y))))
                assert equivalent(g, hull, quantified), (g, phi)
                seen += 1
        assert seen >= 10

    def test_empty_set_rejected(self):
        with pytest.raises(SegmentError):
            sg.end_hull(Z, fm.parse(Z, "false"), "x")

    def test_set_with_minimum_rejected(self):
        with pytest.raises(SegmentError):
            sg.end_hull(Z, fm.parse(Z, "(<= (c 3) x)"))


class TestStabilizer:
    def test_double_multiple_bound_level_one(self):
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        assert sg.stabilizer(ZZ, phi) == ConvexSubgroup(1)

    def test_brute_force_agreement(self):
        # derivation for the previous case: among tail subgroups, find
        # the largest whose box translates preserve membership.
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        box = [(a, b) for a in range(-6, 7) for b in range(-6, 7)]
        small = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        best = None
        for k in range(ZZ.n + 1):
            shifts = [d for d in box if all(d[i] == 0 for i in range(k))]
            ok = True
            for x in small:
                if not evaluate(ZZ, phi, {"x": x}):
                    continue
                for d in shifts:
                    y = (x[0] + d[0], x[1] + d[1])
                    if max(map(abs, y)) <= 6 and not evaluate(ZZ, phi, {"x": y}):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = k
                break
        assert best == 1

    def test_discrete_minimum_gives_zero_subgroup(self):
        phi = fm.parse(Z, "(<= (c 3) x)")
        assert sg.stabilizer(Z, phi) == ConvexSubgroup(1)

    def test_whole_group_stabilized_by_itself(self):
        for g in (Z, ZZ, QZ):
            assert sg.stabilizer(g, fm.parse(g, "true"), "x") == \
                ConvexSubgroup(0)

    LEVEL_CASES = [
        (Z, "false"), (Z, "true"), (Z, "(<= (c 3) x)"),
        (Z, "(<= (c 7) (* 2 x))"), (Z, "(and (< (c 0) x) (< x (c 0)))"),
        (ZZ, "false"), (ZZ, "true"), (ZZ, "(<= (c 1 1) (* 2 x))"),
        (ZZ, "(lt@ 1 (c 1 0) x)"), (ZZ, "(<= (c 0 3) x)"),
        (QZ, "false"), (QZ, "true"), (QZ, "(lt@ 1 (c 1 0) x)"),
        (QZ, "(lt@ 1 (c 1/2 0) x)"), (QZ, "(< (c 1/2 0) x)"),
        (QZ, "(or (< x (c 0 0)) (<= (c 0 0) x))"),
        (ZQ, "false"), (ZQ, "true"), (ZQ, "(< (c 1 1/2) x)"),
        (ZQ, "(le@ 1 (c 2 0) x)"), (ZQ, "(<= (c 0 1/3) (* 3 x))"),
    ]

    @staticmethod
    def translation_holds(g, phi, level):
        # every translate by an element of the level's tail subgroup
        # keeps the set
        d, v = "d", "x"
        td, tv = fm.t_var(g, d), fm.t_var(g, v)
        shifted = fm.substitute(g, phi, v, fm.t_add(g, tv, td))
        insub = fm.RelEq(level, td, fm.t_const(element(g, [0] * g.n)))
        return project_decide(g, fm.Forall(d, fm.Forall(
            v, fm.Implies(fm.And((insub, phi)), shifted))))

    def test_level_is_tight(self):
        # the level is the first one whose translation sentence holds, for
        # empty, full and proper sets; level 0 comes from emptiness and
        # fullness instead of a sentence
        for g, text in self.LEVEL_CASES:
            phi = fm.parse(g, text)
            first = next(k for k in range(g.n + 1)
                         if self.translation_holds(g, phi, k))
            assert sg.stabilizer(g, phi, "x").level == first, (g, text)
            empty_or_full = (not satisfiable(g, phi)
                             or project_decide(g, fm.Forall("x", phi)))
            assert (first == 0) == empty_or_full, (g, text)

    def test_proper_segment_decides_no_level_zero_sentence(self, monkeypatch):
        seen = []
        real = sg.decide

        def recording(g, f, *args, **kwargs):
            seen.append(f)
            return real(g, f, *args, **kwargs)

        def level_zero(f):
            if isinstance(f, fm.RelEq):
                return f.level == 0
            if isinstance(f, fm.Not):
                return level_zero(f.body)
            if isinstance(f, (fm.And, fm.Or)):
                return any(level_zero(it) for it in f.items)
            if isinstance(f, (fm.Implies, fm.Iff)):
                return level_zero(f.left) or level_zero(f.right)
            if isinstance(f, (fm.Exists, fm.Forall)):
                return level_zero(f.body)
            return False

        monkeypatch.setattr(sg, "decide", recording)
        for g, text in [(ZZ, "(<= (c 1 1) (* 2 x))"), (QZ, "(< (c 1/2 0) x)"),
                        (ZQ, "(< (c 1 1/2) x)")]:
            phi = fm.parse(g, text)
            seen.clear()
            assert sg.stabilizer(g, phi).level >= 1
            sg.to_div_segment(g, phi)
            assert seen, "the higher levels still go through decide"
            assert not any(level_zero(f) for f in seen), (g, text)

    def test_requires_end_segment(self):
        with pytest.raises(SegmentError):
            sg.stabilizer(Z, fm.parse(Z, "(congr 2 x (c 0))"))


class TestToDivSegment:
    def test_doubled_bound_on_pairs(self):
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        seg = sg.to_div_segment(ZZ, phi)
        assert seg == sg.DivSegment(sg.END, 1, 1, (1, 0), sg.GE)
        assert equivalent(ZZ, seg.denote(ZZ), phi)

    def test_integer_ray(self):
        seg = sg.to_div_segment(Z, fm.parse(Z, "(<= (c 4) x)"))
        assert seg == sg.DivSegment(sg.END, 1, 1, (4,), sg.GE)

    def test_rational_open_ray(self):
        seg = sg.to_div_segment(Q, fm.parse(Q, "(< (c 1) (* 2 x))"))
        assert seg == sg.DivSegment(sg.END, 1, 1, (Fraction(1, 2),), sg.GT)

    def test_trivial_sets_get_sentinels(self):
        assert sg.to_div_segment(Z, fm.parse(Z, "false"), "x") == \
            sg.empty_end_segment()
        assert sg.to_div_segment(Z, fm.parse(Z, "true"), "x") == \
            sg.full_end_segment()

    def test_requires_end_segment(self):
        with pytest.raises(SegmentError):
            sg.to_div_segment(Z, fm.parse(Z, "(congr 2 x (c 0))"))

    @staticmethod
    def record_decides(monkeypatch):
        seen = []
        real = qe.decide

        def recording(g, f, *args, **kwargs):
            seen.append(f)
            return real(g, f, *args, **kwargs)

        monkeypatch.setattr(qe, "decide", recording)
        monkeypatch.setattr(sg, "decide", recording)
        return seen

    def test_two_sentences_only(self, monkeypatch):
        # one sentence: the set holds the hull its walk gives, which holds
        # the set; an empty set has no walk and needs none
        seen = self.record_decides(monkeypatch)
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        seg = sg.to_div_segment(ZZ, phi)
        assert seg == sg.DivSegment(sg.END, 1, 1, (1, 0), sg.GE)
        assert seen == [fm.Forall("x", fm.Implies(seg.denote(ZZ, "x"), phi))]
        seen.clear()
        assert sg.to_div_segment(ZZ, fm.parse(ZZ, "(< x x)")) == \
            sg.empty_end_segment()
        assert seen == []

    def test_stabilizer_tests_the_end_segment_once(self, monkeypatch):
        seen = self.record_decides(monkeypatch)
        phi = fm.parse(QZ, "(lt@ 1 (c 1/2 0) x)")
        assert sg.stabilizer(QZ, phi) == ConvexSubgroup(1)
        assert len(seen) == 1

    def test_mixed_group_open_cut(self):
        phi = fm.parse(ZQ, "(< (c 0 4) (* 3 x))")
        seg = sg.to_div_segment(ZQ, phi)
        assert seg.level == 2 and seg.rel == sg.GT
        assert seg.bound == (0, Fraction(4, 3))
        assert equivalent(ZQ, seg.denote(ZQ), phi)

    @pytest.mark.parametrize("gname", ["Z", "Z*Z", "Q*Z", "Z*Q"])
    def test_fuzzed_round_trips(self, gname):
        g = parse_group(gname)
        corpus = fuzz_corpus(g, seed=11, count=10,
                             template="end-segment", limits=LIM)
        for f in corpus:
            seg = sg.to_div_segment(g, f, "x")
            assert equivalent(g, seg.denote(g, "x"), f)
            if not seg.is_full() and not seg.is_empty():
                assert seg.n == 1
                assert seg.level == sg.stabilizer(g, f, "x").level

    def test_initial_segments_via_duality(self):
        for g, text in [
            (Z, "(< x (c 3))"),
            (Q, "(< (* 2 x) (c 1))"),
            (ZZ, "(lt@ 1 x (c 2 0))"),
        ]:
            phi = fm.parse(g, text)
            seg = sg.to_div_segment_initial(g, phi)
            assert seg.direction == sg.INITIAL
            assert equivalent(g, seg.denote(g), phi)


class TestNiceDecompose:
    def test_shifted_congruence_ray(self):
        phi = fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")
        pieces = sg.nice_decompose(Z, phi)
        assert len(pieces) == 1
        p = pieces[0]
        assert p.upper == sg.DivSegment(sg.END, 1, 1, (7,), sg.GE)
        assert p.lower == sg.full_initial_segment()
        assert p.congr == (sg.CongrLiteral(1, 1, 1, 3, (1,)),)
        # derivation: same extension as the input on a wide window
        f = union_formula(Z, pieces)
        for v in range(-20, 41):
            assert evaluate(Z, f, {"x": (v,)}) == \
                evaluate(Z, phi, {"x": (v,)})

    def test_doubled_bound_single_piece(self):
        phi = fm.parse(ZZ, "(<= (c 1 1) (* 2 x))")
        pieces = sg.nice_decompose(ZZ, phi)
        assert len(pieces) == 1
        p = pieces[0]
        assert p.congr == ()
        assert p.upper == sg.DivSegment(sg.END, 1, 1, (1, 0), sg.GE)
        assert p.lower == sg.full_initial_segment()
        assert equivalent(ZZ, union_formula(ZZ, pieces), phi)

    def test_false_gives_empty_sequence(self):
        for g in (Z, ZZ, Q):
            assert sg.nice_decompose(g, fm.parse(g, "false"), "x") == ()

    def test_trivial_group(self):
        g0 = parse_group("1")
        out = sg.nice_decompose(g0, fm.parse(g0, "true"), "x")
        assert len(out) == 1 and out[0].upper.is_full()
        assert sg.nice_decompose(g0, fm.parse(g0, "false"), "x") == ()

    def test_canonical_across_presentations(self):
        pairs = [
            (Z, "(and (< (c 5) x) (congr 3 x (c 1)))",
             "(and (<= (c 7) x) (or (congr 6 x (c 1)) (congr 6 x (c 4))))"),
            (ZZ,
             "(and (le@ 1 (c 0 0) x) (or (congr@ 2 2 x (c 0 0)) "
             "(congr@ 2 2 x (c 1 0))))",
             "(and (not (lt@ 1 x (c 0 0))) (not (and "
             "(not (congr@ 2 2 x (c 0 0))) (not (congr@ 2 2 x (c 1 0))))))"),
            (Q, "(< (c 1) (* 2 x))", "(< (c 2) (* 4 x))"),
        ]
        for g, s1, s2 in pairs:
            f1, f2 = fm.parse(g, s1), fm.parse(g, s2)
            assert equivalent(g, f1, f2)
            assert sg.nice_decompose(g, f1) == sg.nice_decompose(g, f2)

    def test_modulus_refinement_along_rays(self):
        # first coordinate unbounded with a parity condition deeper in:
        # class literals must refine to the fiber modulus
        phi = fm.parse(ZZ, "(and (le@ 1 (c 0 0) x) (congr@ 2 2 x (c 1 0)))")
        pieces = sg.nice_decompose(ZZ, phi)
        assert equivalent(ZZ, union_formula(ZZ, pieces), phi)
        for p in pieces:
            assert satisfiable(ZZ, p.denote(ZZ))

    def test_dense_point_and_interval_pieces(self):
        phi = fm.parse(QZ, "(or (lt@ 1 (c 1 0) x) (and (eq@ 1 x (c 1 0)) "
                           "(congr@ 2 2 x (c 1 0))))")
        pieces = sg.nice_decompose(QZ, phi)
        assert len(pieces) == 2
        assert equivalent(QZ, union_formula(QZ, pieces), phi)

    def test_piece_shapes_and_invariants(self):
        corpus = []
        for gname in ("Z", "Z*Z"):
            g = parse_group(gname)
            for f in fuzz_corpus(g, seed=5, count=8, template="qf",
                                 limits=LIM):
                if fm.free_vars(f) == frozenset({"x"}):
                    corpus.append((g, f))
        assert corpus
        for g, f in corpus:
            pieces = sg.nice_decompose(g, f, "x")
            assert equivalent(g, union_formula(g, pieces), f)
            for p in pieces:
                assert p.upper.direction == sg.END
                assert p.lower.direction == sg.INITIAL
                assert satisfiable(g, p.denote(g, "x"))
                for lit in p.congr:
                    assert lit == lit.canonical(g)

    BOX_CASES = [
        ("Z", "(or (< x (c -3)) (and (congr 4 x (c 2)) (< (c 0) x)))"),
        ("Z*Z", "(or (lt@ 1 (c 1 0) x) (and (congr@ 2 2 x (c 0 1)) "
                "(le@ 2 (c 0 2) x)))"),
        ("Q", "(or (< x (c -1/2)) (and (< (c 1/3) x) (< x (c 2))) "
              "(= x (c 3)))"),
        ("Z*Q", "(or (< x (c 0 1/2)) (and (< (c 1 0) x) "
                "(congr 2 x (c 1 0))) (and (eq@ 1 x (c -1 0)) "
                "(< (c -1 -2/3) x)))"),
        ("Q*Z", "(or (lt@ 1 (c 1/2 0) x) (and (eq@ 1 x (c -1 0)) "
                "(congr@ 2 2 x (c 0 1))) (and (lt@ 1 (c -2 0) x) "
                "(lt@ 1 x (c -1 0)) (le@ 2 x (c 0 -1))))"),
    ]

    def test_box_agreement_with_oracle(self):
        for gname, text in self.BOX_CASES:
            g = parse_group(gname)
            f = fm.parse(g, text)
            union = union_formula(g, sg.nice_decompose(g, f))
            for p in Box(3).points(g):
                assert evaluate(g, union, {"x": p}) == \
                    evaluate(g, f, {"x": p}), (gname, text, p)
            if "Q" in g.kinds:
                continue
            # on discrete groups the grid reaches further out
            env = grid_axes(g, ["x"], 10)
            got = grid_eval(g, union, env)
            want = grid_eval(g, f, env)
            assert got == want

    def test_far_roots_cost_nothing_extra(self, monkeypatch):
        # the roots at -R and R split nothing: one piece, and the number
        # of fibre comparisons does not depend on R
        def far_roots(radius):
            return (f"(or (and (< x (c -{radius})) (congr 2 x (c 0))) "
                    f"(and (<= (c -{radius}) x) (< x (c {radius})) "
                    f"(congr 2 x (c 0))) "
                    f"(and (<= (c {radius}) x) (congr 2 x (c 0))))")

        real = sg.same_points
        compared = []

        def counting(*args):
            compared.append(args)
            return real(*args)

        # segments compares through its binding, and the cell model's
        # changes and period through the cells module's
        for mod in (sg, cm):
            monkeypatch.setattr(mod, "same_points", counting)
        counts = []
        for radius in (100, 10**6):
            compared.clear()
            start = time.process_time()
            pieces = sg.nice_decompose(Z, fm.parse(Z, far_roots(radius)))
            assert time.process_time() - start < 5
            assert pieces == (sg.NiceSet(
                sg.full_end_segment(), sg.full_initial_segment(),
                (sg.CongrLiteral(1, 1, 1, 2, (0,)),)),)
            counts.append(len(compared))
        assert counts[0] == counts[1] > 0

    def test_quantified_input(self):
        # membership defined through a quantifier still decomposes
        phi = fm.parse(Z, "(exists (y) (and (= x (* 2 y)) (<= (c 0) y)))")
        pieces = sg.nice_decompose(Z, phi)
        assert equivalent(Z, union_formula(Z, pieces), phi)
        assert pieces[0].congr and pieces[0].congr[0].modulus == 2

    def test_arity_error(self):
        with pytest.raises(SegmentError):
            sg.nice_decompose(Z, fm.parse(Z, "(< x y)"))


class TestFibreScan:
    """`Cells.period` and `Cells.changes` at the top coordinate against
    group sentences that decide the same questions (an eventual period, a
    constant class, the two ray thresholds) through quantifiers over the
    whole group."""

    @staticmethod
    def shifted(g, phi, name, m):
        delta = fm.t_const(element(g, [m] + [0] * (g.n - 1)))
        return fm.substitute(g, phi, "x",
                             fm.t_add(g, fm.t_var(g, name), delta))

    @staticmethod
    def in_class(g, name, m, r):
        if m == 1:
            return fm.BoolConst(True)
        rep = fm.t_const(element(g, [r] + [0] * (g.n - 1)))
        return fm.RelCongr(1, m, fm.t_var(g, name), rep)

    def period_holds(self, g, phi, m):
        # from some z on, upward and downward, shifting by m keeps phi
        ty, tz = fm.t_var(g, "y"), fm.t_var(g, "z")
        phi_y = fm.substitute(g, phi, "x", ty)
        up = fm.Implies(fm.RelCmp(1, fm.LE, tz, ty),
                        fm.Iff(phi_y, self.shifted(g, phi, "y", m)))
        down = fm.Implies(fm.RelCmp(1, fm.LE, ty, tz),
                          fm.Iff(phi_y, self.shifted(g, phi, "y", -m)))
        return all(project_decide(g, fm.Exists("z", fm.Forall("y", side)))
                   for side in (up, down))

    def class_constant(self, g, phi, m, r):
        return project_decide(g, fm.Forall("x", fm.Implies(
            self.in_class(g, "x", m, r),
            fm.Iff(phi, self.shifted(g, phi, "x", m)))))

    def threshold(self, g, phi, m, r, upward):
        # the extreme member of the class from which on, towards the
        # tail, every fibre equals its shift by m
        ty = fm.t_var(g, "y")

        def tail_ok(name):
            tn = fm.t_var(g, name)
            side = (fm.RelCmp(1, fm.LE, tn, ty) if upward
                    else fm.RelCmp(1, fm.LE, ty, tn))
            same = fm.Iff(fm.substitute(g, phi, "x", ty),
                          self.shifted(g, phi, "y", m if upward else -m))
            return fm.And((self.in_class(g, name, m, r), fm.Forall(
                "y", fm.Implies(fm.And((self.in_class(g, "y", m, r), side)),
                                same))))

        tx, tz = fm.t_var(g, "x"), fm.t_var(g, "z")
        extreme = (fm.RelCmp(1, fm.LE, tx, tz) if upward
                   else fm.RelCmp(1, fm.LE, tz, tx))
        best = fm.Exists("x", fm.And((tail_ok("x"), fm.Forall(
            "z", fm.Implies(tail_ok("z"), extreme)))))
        return reference_qe.witness(g, best)[0]

    def cases(self):
        out = []
        for gname, seed in (("Z", 3), ("Z*Z", 4), ("Z*Q", 5)):
            g = parse_group(gname)
            corpus = fuzz_corpus(g, seed=seed, count=12, template="qf",
                                 limits=LIM)
            out += [(g, f) for f in corpus
                    if fm.free_vars(f) == frozenset({"x"})][:3]
        for gname, text in TestNiceDecompose.BOX_CASES:
            g = parse_group(gname)
            if g.kinds[0] == "Z":
                out.append((g, fm.parse(g, text)))
        return out

    def test_scan_agrees_with_the_sentences(self):
        cases = self.cases()
        assert len(cases) >= 10
        for g, phi in cases:
            psi = eliminate(g, phi).body
            x = SVar("x", 1)
            cap = 1
            for atom in atoms(psi):
                if isinstance(atom, SCongr):
                    cap = lcm(cap, atom.modulus)
            want = next(m for m in range(1, cap + 1)
                        if cap % m == 0 and self.period_holds(g, phi, m))
            cells = cm.Cells(g, psi, x)
            period = cells.period()
            assert period == want, (g, phi)
            for m in (period, 2 * period):
                for r in range(m):
                    changes = cells.changes(m, r)
                    assert (not changes) == self.class_constant(
                        g, phi, m, r), (g, phi, m, r)
                    if changes:
                        assert changes[-1] + m == self.threshold(
                            g, phi, m, r, True), (g, phi, m, r)
                        assert changes[0] == self.threshold(
                            g, phi, m, r, False), (g, phi, m, r)

    def test_period_is_the_least_passing_divisor(self):
        # `Cells.period` against a plain scan over 1..L for the least
        # divisor under which both unbounded gaps repeat: L a square whose
        # root is the period, a period above the root of L, a power of
        # two, and L = 1019 * 1021 just below 2^20
        x = SVar("x", 1)

        def mod(m, residues):
            return mk_or([mk_congr(Z, m, lin({x: 1}, -r)) for r in residues])
        cases = [
            # x = 0 (mod 6) with moduli 4 and 9: L = 36, period 6
            (mk_and([mod(4, (0, 2)), mod(9, (0, 3, 6))]), 36, 6),
            # x = 0 (mod 12) with moduli 4 and 9, and a root: period 12
            (mk_or([mk_lt(Z, lin({x: 1}, -5)),
                    mk_and([mod(4, (0,)), mod(9, (0, 3, 6))])]), 36, 12),
            (mod(2 ** 11, (0, 2 ** 10)), 2 ** 11, 2 ** 10),
            (mod(2 ** 11, (3,)), 2 ** 11, 2 ** 11),
            (mk_and([mod(1019, (0,)), mod(1021, (4,))]),
             1019 * 1021, 1019 * 1021),
        ]
        for psi, size, want in cases:
            cells = cm.Cells(Z, psi, x)
            assert cells.modulus == size
            fibre, roots = cells.fibre, cells.roots
            top = roots[-1] + 1 if roots else 0
            bot = roots[0] - 1 if roots else 0

            def repeats(m):
                return m == size or all(
                    cm.same_points(Z, fibre(top + i), fibre(top + i + m))
                    and cm.same_points(Z, fibre(bot - i - m), fibre(bot - i))
                    for i in range(size))
            scan = next(m for m in range(1, size + 1)
                        if size % m == 0 and repeats(m))
            assert scan == want
            assert cells.period() == want, size


class TestClassArithmetic:
    """The pieces and the class arithmetic `co_initial_classes` reads
    classes with, against enumeration."""

    def test_meets_agrees_with_enumeration(self):
        # a model whose modulus is w: the class of t is modulo w
        rng = random.Random(3)
        x = SVar("x", 1)
        for _ in range(400):
            w, n = rng.randint(1, 12), rng.randint(1, 12)
            t, s = rng.randint(-20, 20), rng.randint(-20, 20)
            lo = rng.choice((None, rng.randint(-30, 10)))
            hi = rng.choice((None, rng.randint(-10, 30)))
            span = range(-200 if lo is None else lo,
                         (200 if hi is None else hi) + 1)
            cells = cm.Cells(Z, mk_congr(Z, w, lin({x: 1}, 0)), x)
            assert cells.modulus == w
            want = any((u - t) % w == 0 and (u - s) % n == 0 for u in span)
            assert cells.meets(t, 1, lo, hi, s, n) == want, \
                (t, w, lo, hi, s, n)
            members = [u for u in span if (u - t) % w == 0]
            if members:
                assert cells.least_point(t, lo, hi) == min(
                    members, key=lambda u: (abs(u), u < 0)), (t, w, lo, hi)
            hit = crt(t, w, s, n)
            if hit is not None:
                c, period = hit
                assert period == lcm(w, n)
                assert (c - t) % w == 0 and (c - s) % n == 0

    def test_pieces_cover_every_fibre(self):
        # the pieces ascend, and each t in a window has its truth value,
        # and its class modulo m, at the representative of a piece that
        # contains it: on Q exactly one, a root or the open gap around t
        forms = []
        for i, gname in enumerate(("Z", "Q")):
            g = parse_group(gname)
            forms += [(g, f) for f in fuzz_corpus(g, seed=70 + i, count=30,
                                                  template="qf", limits=LIM)
                      if fm.free_vars(f) == frozenset({"x"})]
        x = SVar("x", 1)
        for g, f in forms:
            psi = qe.eliminate(g, f).body
            cells = cm.cells_of(g, psi, x)
            for m in (1, 2, 3, 4):
                pieces = list(cells.pieces(m))
                w = lcm(cells.modulus, m)
                ts = [t for t, _, _ in pieces]
                assert ts == sorted(set(ts))
                if g.kinds[0] == "Q":
                    for t in (Fraction(t, 4) for t in range(-80, 81)):
                        fits = [r for r, lo, hi in pieces if r == lo == t
                                or (r != lo and (lo is None or lo < t)
                                    and (hi is None or t < hi))]
                        assert len(fits) == 1, (f, t)
                        assert s_eval(g, psi, {x: fits[0]}) == \
                            s_eval(g, psi, {x: t})
                    continue
                assert w % m == 0
                for t in range(-40, 41):
                    fits = [r for r, lo, hi in pieces
                            if (lo is None or lo <= t)
                            and (hi is None or t <= hi)
                            and (t - r) % w == 0]
                    assert fits, (f, m, t)
                    assert all(s_eval(g, psi, {x: r}) ==
                               s_eval(g, psi, {x: t}) for r in fits)


class TestLeastPrefix:
    """`least_prefix` against the group sentences it replaces: a least
    element modulo the level-k subgroup (its value through the
    elimination-based `reference_qe.witness`),
    and co-initiality of a fragment in the end hull."""

    GROUPS = ("Z", "Q", "Z*Z", "Z*Q", "Q*Z")
    EXTRA = [
        ("Q", "(< (c 1) (* 2 x))"), ("Z*Q", "(< (c 0 4) (* 3 x))"),
        ("Q*Z", "(lt@ 1 (c 1/2 0) x)"), ("Z", "(congr 2 x (c 1))"),
        ("Z*Q", "(or (< x (c -3 0)) (and (< (c 1 0) x) (< x (c 1 2))))"),
        ("Q*Z", "(and (< (c 0 0) x) (congr 3 x (c 0 1)))"),
    ]

    @staticmethod
    def least(g, phi, k):
        # some member is at or below every member, modulo level k
        tx, ty = fm.t_var(g, "x"), fm.t_var(g, "y")
        below = fm.Forall("y", fm.Implies(fm.substitute(g, phi, "x", ty),
                                          fm.RelCmp(k, fm.LE, tx, ty)))
        return fm.Exists("x", fm.And((phi, below)))

    @staticmethod
    def hull(g, phi):
        ty = fm.t_var(g, "y")
        return fm.Exists("y", fm.And((fm.substitute(g, phi, "x", ty),
                                      fm.Cmp(fm.LE, ty, fm.t_var(g, "x")))))

    @staticmethod
    def co_initial(g, hull, psi):
        # psi reaches at or below every point of the hull
        tx, ty = fm.t_var(g, "x"), fm.t_var(g, "y")
        reach = fm.Exists("x", fm.And((psi, fm.Cmp(fm.LE, tx, ty))))
        return project_decide(g, fm.Forall("y", fm.Implies(
            fm.substitute(g, hull, "x", ty), reach)))

    @staticmethod
    def fragments(g, phi):
        # the residue atoms generic_type tries and the coset atoms it
        # forces, each conjoined to phi
        out = []
        for k in range(1, g.n + 1):
            if "Z" in g.kinds[:k]:
                for fq in enumerate_finite_quotient(g, k, 2):
                    lit = sg.CongrLiteral(1, 1, k, 2, beta_of_residues(g, fq))
                    out.append(fm.And((phi, lit.denote(g, "x"))))
            low, attained = sg.least_prefix(g, phi, "x", k)
            if attained and len(low) == k:
                out.append(fm.And((phi, fm.RelEq(
                    k, fm.t_var(g, "x"), fm.t_const(sg.pad(g, low))))))
        return out

    def cases(self):
        # each fuzzed formula also cut off below 1/2 on every coordinate,
        # which gives minima and open cuts
        out = []
        for i, gname in enumerate(self.GROUPS):
            g = parse_group(gname)
            half = fm.Cmp(fm.LT, fm.t_const(element(g, [1] * g.n)),
                          fm.t_scale(g, 2, fm.t_var(g, "x")))
            qf = [f for f in fuzz_corpus(g, seed=20 + i, count=16,
                                         template="qf", limits=LIM)
                  if fm.free_vars(f) == frozenset({"x"})][:5]
            bounded = [fm.substitute(g, f, "z", fm.t_var(g, "x"))
                       for f in fuzz_corpus(g, seed=30 + i, count=12,
                                            template="bounded", limits=LIM)
                       if fm.free_vars(f) == frozenset({"z"})][:1]
            out += [(g, h) for f in qf + bounded
                    for h in (f, fm.And((f, half)))]
        out += [(parse_group(gname), fm.parse(parse_group(gname), text))
                for gname, text in self.EXTRA]
        return [(g, f) for g, f in out if satisfiable(g, f)]

    def test_walk_agrees_with_the_sentences(self):
        cases = self.cases()
        assert len(cases) >= 40
        kinds = set()
        for g, phi in cases:
            walk = sg.least_prefix(g, phi, "x", g.n)
            for k in range(1, g.n + 1):
                low, attained = sg.least_prefix(g, phi, "x", k)
                assert (low, attained) == (walk[0][:k], walk[1] or
                                           len(walk[0]) > k), (g, phi, k)
                has_min = project_decide(g, self.least(g, phi, k))
                assert has_min == (attained and len(low) == k), (g, phi, k)
                if has_min:
                    w = reference_qe.witness(g, self.least(g, phi, k))
                    assert sg.pad(g, low)[:k] == w[:k], (g, phi, k)
            hull = self.hull(g, phi)
            assert equivalent(g, sg.hull_segment(g, walk).denote(g, "x"),
                              hull), (g, phi)
            if not walk[1]:
                kinds.add("open cut on " + g.kinds[len(walk[0]) - 1])
            elif len(walk[0]) < g.n:
                kinds.add("unbounded below")
            else:
                kinds.add("minimum")
            for psi in self.fragments(g, phi):
                same = sg.least_prefix(g, psi, "x", g.n) == walk
                assert same == self.co_initial(g, hull, psi), (g, psi)
                if not satisfiable(g, psi):
                    assert sg.least_prefix(g, psi, "x", g.n) is None
        assert kinds == {"open cut on Q", "unbounded below", "minimum"}

    def test_empty_set_has_no_walk(self):
        for g in (Z, Q, ZQ, QZ):
            assert sg.least_prefix(g, fm.parse(g, "(< x x)"), "x", g.n) \
                is None


class TestEndSegmentSentence:
    """`is_end_segment` and `is_initial_segment` against the two-variable
    closure sentences they replace: every point above a member is a
    member, every point below a member is a member."""

    GROUPS = ("Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Z*Z*Z")
    EXTRA = [
        ("Z", "(< x x)"), ("Q*Z", "true"), ("Q", "(< (c 1) (* 2 x))"),
        ("Z*Q", "(< (c 0 4) (* 3 x))"), ("Z*Z", "(le@ 1 (c 1 0) x)"),
        ("Z*Z", "(< x (c 3 0))"), ("Q*Z", "(lt@ 1 (c 1/2 0) x)"),
        ("Z*Z", "(and (le@ 1 (c 1 0) x) (congr@ 2 2 x (c 0 0)))"),
        ("Z*Z*Z", "(le@ 2 (c 1 -2 0) x)"),
    ]

    @staticmethod
    def closed(g, phi, upward):
        # every point above (below) a member is a member
        (y,) = fresh_names(phi, ["x"], 1)
        tx, ty = fm.t_var(g, "x"), fm.t_var(g, y)
        beyond = fm.Cmp(fm.LT, tx, ty) if upward else fm.Cmp(fm.LT, ty, tx)
        body = fm.Implies(fm.And((phi, beyond)),
                          fm.substitute(g, phi, "x", ty))
        return project_decide(g, fm.Forall("x", fm.Forall(y, body)))

    def cases(self):
        # accepted and rejected end-segment candidates, and quantifier-free
        # formulas with their negations
        out = []
        for i, gname in enumerate(self.GROUPS):
            g = parse_group(gname)
            rng = random.Random(40 + i)
            out += [("candidate", g, _rand_endseg_candidate(g, rng, LIM))
                    for _ in range(8)]
            qf = [f for f in fuzz_corpus(g, seed=50 + i, count=16,
                                         template="qf", limits=LIM)
                  if fm.free_vars(f) == frozenset({"x"})][:4]
            out += [("qf", g, h) for f in qf for h in (f, fm.Not(f))]
        out += [("fixed", parse_group(gname),
                 fm.parse(parse_group(gname), text))
                for gname, text in self.EXTRA]
        return out

    @staticmethod
    def kind(g, phi):
        walk = sg.least_prefix(g, phi, "x", g.n)
        if walk is None:
            return "empty"
        if not satisfiable(g, fm.Not(phi)):
            return "full"
        prefix, attained = walk
        if not attained:
            return "open cut on " + g.kinds[len(prefix) - 1]
        if len(prefix) < g.n:
            return "unbounded below at %d" % (len(prefix) + 1)
        return "minimum"

    def test_one_sentence_agrees_with_the_closure(self):
        kinds, verdicts = set(), set()
        for source, g, phi in self.cases():
            end = sg.is_end_segment(g, phi, "x")
            assert end == self.closed(g, phi, True), (g, phi)
            assert sg.is_initial_segment(g, phi, "x") == \
                self.closed(g, phi, False), (g, phi)
            if end:
                seg = sg.to_div_segment(g, phi, "x")
                assert equivalent(g, seg.denote(g, "x"), phi), (g, phi)
            else:
                with pytest.raises(SegmentError):
                    sg.to_div_segment(g, phi, "x")
            kinds.add(self.kind(g, phi))
            verdicts.add((source, end))
        assert {("candidate", True), ("candidate", False), ("qf", True),
                ("qf", False)} <= verdicts
        assert {"empty", "full", "open cut on Q", "unbounded below at 1",
                "unbounded below at 2", "minimum"} <= kinds

    def test_trivial_group(self):
        # one point: the walk is empty and the hull full for both sets
        g0 = parse_group("1")
        for text, want in (("true", sg.full_end_segment()),
                           ("false", sg.empty_end_segment())):
            phi = fm.parse(g0, text)
            assert sg.is_end_segment(g0, phi, "x")
            assert sg.is_initial_segment(g0, phi, "x")
            assert sg.to_div_segment(g0, phi, "x") == want


KINDS = ("Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Q*Q", "Z*Z*Z", "Z*Q*Z")


def one_coordinate_form(g, rng, moduli, depth):
    """A random quantifier-free form over x.1..x.n and y.1..y.n whose
    atoms each mention one variable: some roots near -10**6 or 10**6,
    congruences on a discrete variable v modulo moduli[v]."""
    if depth == 0 or rng.random() < 0.25:
        v = SVar(rng.choice("xy"), rng.randint(1, g.n))
        c = rng.randint(-6, 6)
        if rng.random() < 0.2:
            c += rng.choice((-1, 1)) * 10**6
        e = lin({v: rng.choice((1, 2, 3, -1, -2))}, c)
        kind = rng.randrange(3)
        if kind == 2 and g.kinds[v.coord - 1] == "Z":
            return mk_congr(g, moduli[v], e)
        return mk_eq(g, e) if kind == 1 else mk_lt(g, e)
    items = [one_coordinate_form(g, rng, moduli, depth - 1)
             for _ in range(rng.randint(2, 3))]
    r = rng.random()
    if r < 0.4:
        return mk_and(items)
    if r < 0.8:
        return mk_or(items)
    return mk_not(mk_and(items))


class TestFibreWalk:
    """`holds_somewhere` and `same_points` walk fibres instead of
    eliminating; `reference_segments` keeps the elimination."""

    def test_walk_agrees_with_elimination(self):
        rng = random.Random(11)
        verdicts = set()
        for gname in KINDS:
            g = parse_group(gname)
            for _ in range(20):
                moduli = {SVar(b, i): rng.randint(2, 12)
                          for b in "xy" for i in range(1, g.n + 1)}
                f = one_coordinate_form(g, rng, moduli, 3)
                h = one_coordinate_form(g, rng, moduli, 3)
                for a in (f, mk_and([f, h])):
                    got = cm.holds_somewhere(g, a)
                    assert got == ref.holds_somewhere(g, a), (gname, a)
                    verdicts.add(("holds", got))
                for a, b in ((f, h), (f, mk_or([f, mk_and([f, h])]))):
                    got = cm.same_points(g, a, b)
                    assert got == ref.same_points(g, a, b), (gname, a, b)
                    verdicts.add(("same", got))
        assert len(verdicts) == 4

    def test_far_roots_and_large_moduli(self):
        # roots a million apart, lcm 12: one class in the far gap holds
        x, y = SVar("x", 1), SVar("y", 1)
        f = mk_and([mk_lt(Z, lin({x: -1}, 10**6)),
                    mk_congr(Z, 12, lin({x: 1}, -5)),
                    mk_congr(Z, 4, lin({y: 1}, -1)),
                    mk_lt(Z, lin({y: 1}, 10**6))])
        assert cm.holds_somewhere(Z, f)
        assert not cm.holds_somewhere(
            Z, mk_and([f, mk_congr(Z, 8, lin({y: 1}, 0))]))

    def test_two_variable_atom_raises(self):
        two = mk_lt(ZZ, lin({SVar("x", 1): 1, SVar("y", 1): -1}, 0))
        for f in (two, mk_and([mk_lt(ZZ, lin({SVar("x", 2): 1}, 0)), two])):
            with pytest.raises(AssertionError, match="more than one"):
                cm.holds_somewhere(ZZ, f)
            with pytest.raises(AssertionError, match="more than one"):
                cm.same_points(ZZ, f, mk_not(f))

    def test_memo_is_the_operation_memo(self):
        f = mk_or([mk_lt(ZZ, lin({SVar("x", 1): 1}, 3)),
                   mk_congr(ZZ, 3, lin({SVar("x", 2): 1}, 1))])
        assert operation_memo() is None
        assert cm.holds_somewhere(ZZ, f)
        with operation_scope():
            assert cm.holds_somewhere(ZZ, f)
            memo = operation_memo()
            assert memo[("walk", ZZ, f, FALSE)] is True
            assert all(k[0] in ("walk", "cells") for k in memo)


# acceptance criterion 06's corpus: its groups, seeds, counts and limits
CRIT06 = (("Z", 61, 120), ("Z*Z", 62, 90), ("Z*Q", 63, 90))
CRIT06_LIMITS = FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2,
                           window=6)


def crit06_corpus(spec, seed, count):
    g = parse_group(spec)
    out = [f for f in fuzz_corpus(g, seed, 8 * count, limits=CRIT06_LIMITS,
                                  template="qf")
           if fm.free_vars(f) == frozenset({"x"})]
    return g, out[:count]


class TestNiceDecomposeReference:
    """`nice_decompose` against the elimination- and decide-based code it
    replaced (`reference_segments.nice_decompose`), and its closing
    checks."""

    def test_same_pieces_on_crit06(self):
        for spec, seed, count in CRIT06:
            g, corpus = crit06_corpus(spec, seed, count)
            assert len(corpus) == count
            for f in corpus:
                assert sg.nice_decompose(g, f, "x") == \
                    ref.nice_decompose(g, f, "x"), (spec, f)

    def test_same_pieces_on_every_group_kind(self):
        for i, gname in enumerate(KINDS):
            g = parse_group(gname)
            corpus = [f for f in fuzz_corpus(g, 130 + i, 30, limits=LIM,
                                             template="qf")
                      if fm.free_vars(f) == frozenset({"x"})]
            corpus += fuzz_corpus(g, 140 + i, 12, limits=LIM,
                                  template="end-segment")
            for f in corpus:
                assert sg.nice_decompose(g, f, "x") == \
                    ref.nice_decompose(g, f, "x"), (gname, f)

    def test_code_set_decides_nothing(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("code_set must not decide")

        monkeypatch.setattr(qe, "decide", refuse)
        monkeypatch.setattr(sg, "decide", refuse)
        coded = 0
        for spec, seed, count in CRIT06[1:]:
            g, corpus = crit06_corpus(spec, seed, 30)
            for f in corpus:
                code_set(g, f, "x")
                coded += 1
        assert coded == 60 and not calls

    def test_cover_check_fires(self, monkeypatch):
        # a merge that widens its pieces to the whole group
        def widen(g, a, b, low):
            return sg.NiceSet(sg.full_end_segment(),
                              sg.full_initial_segment(), a.congr)

        monkeypatch.setattr(sg, "_try_merge", widen)
        phi = fm.parse(Z, "(or (< x (c 0)) (< (c 5) x))")
        with pytest.raises(AssertionError,
                           match="decomposition must cover the set"):
            sg.nice_decompose(Z, phi)

    def test_nonempty_check_fires(self, monkeypatch):
        # a pruning that empties every piece
        def empty(g, ns, low):
            return sg.NiceSet(sg.empty_end_segment(), ns.lower, ns.congr)

        monkeypatch.setattr(sg, "_prune", empty)
        phi = fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")
        with pytest.raises(AssertionError,
                           match="nice pieces must be nonempty"):
            sg.nice_decompose(Z, phi)


# scalars.nodes_built of coding acceptance criterion 06's corpus, per
# group; node budgets depend on the count, so it may only fall
CODE_SET_NODES_BUILT = {"Z": 3373, "Z*Z": 8736, "Z*Q": 5303}


@pytest.mark.parametrize("spec, seed, count", CRIT06,
                         ids=[spec for spec, _, _ in CRIT06])
def test_code_set_nodes_built_may_only_fall(spec, seed, count):
    g, corpus = crit06_corpus(spec, seed, count)
    with budget_scope(None) as budget:
        for f in corpus:
            code_set(g, f, "x")
    assert budget.used <= CODE_SET_NODES_BUILT[spec]


# scalars.nodes_built of generic_type on type-generation acceptance
# criterion 07's corpora (residue bound 6), per group; it may only fall
GENERIC_TYPE_NODES_BUILT = {"Z": 281, "Z*Z": 471, "Q": 204, "Z*Q": 605}


@pytest.mark.parametrize("spec, seed", CRIT07,
                         ids=[spec for spec, _ in CRIT07])
def test_generic_type_nodes_built_may_only_fall(spec, seed):
    g, corpus = crit07_corpus(spec, seed, 30)
    with budget_scope(None) as budget:
        for f in corpus:
            tg.generic_type(g, f, 6)
    assert budget.used <= GENERIC_TYPE_NODES_BUILT[spec]


def test_segment_closures_leave_no_cyclic_garbage():
    # the nested closures of co_initial_classes and nice_decompose refer
    # to each other; each call drops that cycle, so its memo and the forms
    # in it are freed by reference counting alone
    phi = fm.parse(ZZ, "(and (< x (c 3 0)) (congr 2 x (c 1 0)))")
    psi = fm.parse(ZZ, "(or (< x (c 3 1)) (and (< (c 5 0) x) "
                       "(congr 3 x (c 1 2))))")
    for run in (lambda: tg.generic_type(ZZ, phi, 4),
                lambda: code_set(ZZ, psi, "x")):
        run()
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class _CountingFormulas:
    """The formulas module as a binding, counting the conjunctions built
    and the lower calls made through it."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        real = getattr(fm, name)
        if name not in ("And", "lower"):
            return real

        def counted(*args):
            self.calls[name] += 1
            return real(*args)

        return counted


def test_generic_type_builds_no_fragment(monkeypatch):
    # through typegen's bindings: generic_type takes phi's quantifier-free
    # form once and builds no literal's formula and no conjunction, and
    # check_descriptor lowers its fragment and takes phi's form apart,
    # conjoining no formulas; only the trace builds fragments, which the
    # same probes see
    seen = _CountingFormulas()
    denoted, formed = [], []
    real, real_qf = sg.CongrLiteral.denote, tg.qf_form

    def counting(lit, *args):
        denoted.append(lit)
        return real(lit, *args)

    def counting_qf(g, phi):
        formed.append(phi)
        return real_qf(g, phi)

    monkeypatch.setattr(tg, "fm", seen)
    monkeypatch.setattr(tg, "qf_form", counting_qf)
    monkeypatch.setattr(sg.CongrLiteral, "denote", counting)
    for spec, seed in CRIT07:
        g, corpus = crit07_corpus(spec, seed, 10)
        for phi in corpus:
            seen.calls.clear()
            denoted.clear()
            formed.clear()
            p = tg.generic_type(g, phi, 6)
            assert seen.calls == {} and formed == [phi] and denoted == []
            formed.clear()
            assert tg.check_descriptor(g, p, phi, "x")
            assert seen.calls == {"lower": 1} and formed == [phi]
    seen.calls.clear()
    denoted.clear()
    _, trace = tg.generic_type_trace(Z, fm.parse(Z, "(congr 3 x (c 2))"), 4)
    assert seen.calls["And"] == len(denoted) == 3
    assert trace[-1].fragment.items[1] == denoted[-1].denote(Z, "x")


class TestScalarForms:
    """The scalar form of what a segment, a congruence literal, a nice
    piece or a type's fragment denotes is the conjunction of its
    literals' forms, and inside an operation, where each atom's form
    comes from the memo, the very node `formulas.lower` makes outside
    one, for no more charges, and the second time for its connectives'
    alone."""

    @staticmethod
    def same(g, f):
        with budget_scope(None) as outside:
            want = fm.lower(g, f)
        parts = f.items if isinstance(f, fm.And) else (f,)
        assert mk_and([fm.lower(g, p) for p in parts]) is want, \
            fm.print_formula(f)
        with operation_scope():
            with budget_scope(None) as first:
                assert fm.lower(g, f) is want
            with budget_scope(None) as again:
                assert fm.lower(g, f) is want
        assert first.used <= outside.used
        assert again.used <= 1 + sum(isinstance(p, fm.Not) for p in parts)

    def test_nice_pieces_and_their_sides(self):
        pieces = 0
        for i, spec in enumerate(("Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Z*Q*Z")):
            g = parse_group(spec)
            for f in fuzz_corpus(g, 80 + i, 24, limits=LIM, template="qf"):
                if fm.free_vars(f) != {"x"}:
                    continue
                for p in sg.nice_decompose(g, f, "x"):
                    pieces += 1
                    self.same(g, p.denote(g, "x"))
                    for seg in (p.upper, p.lower):
                        self.same(g, sg.dual_div_segment(seg).denote(g, "x"))
        assert pieces >= 60

    def test_sentinels_and_their_duals(self):
        for g in (Z, QZ, parse_group("Z*Q*Z")):
            for seg in (sg.full_end_segment(), sg.empty_end_segment(),
                        sg.full_initial_segment(),
                        sg.empty_initial_segment()):
                self.same(g, seg.denote(g, "x"))
                self.same(g, sg.dual_div_segment(seg).denote(g, "x"))

    def test_congruence_literals(self):
        # negated, scaled and offset literals on every level
        rng = random.Random(5)
        count = 0
        for g in (Z, ZZ, QZ, ZQ, parse_group("Z*Q*Z")):
            for level in range(1, g.n + 1):
                for m, z, sign, offset in ((2, 1, -1, 0), (3, 2, 1, 1),
                                           (4, -1, -1, -2), (3, 5, 1, 0)):
                    beta = element(g, [rng.randint(-5, 5) for _ in g.kinds])
                    lit = sg.CongrLiteral(sign, z, level, m, beta, offset)
                    self.same(g, lit.denote(g, "x"))
                    count += 1
        assert count == 4 * 10

    def test_crit07_descriptor_fragments(self):
        for spec, seed in CRIT07:
            g, corpus = crit07_corpus(spec, seed, 30)
            for phi in corpus:
                p = tg.generic_type(g, phi, 6)
                self.same(g, descriptor_fragment(g, p, "x"))


class TestOneElimination:
    """Each operation eliminates its input once and nothing more: least
    values and co-initial classes come off the fibre walk."""

    CASES = (("Z", "(exists (y) (and (< y x) (congr 2 y (c 0))))"),
             ("Q", "(< (c 1/2) x)"),
             ("Z*Z", "(lt@ 1 (c 2 0) x)"),
             ("Q*Z", "(lt@ 1 (c 1/2 0) x)"),
             ("Z*Q", "(lt@ 2 (c 1 1/2) x)"))

    def test_eliminations_per_operation(self, monkeypatch):
        real = sg.qf_form
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sg, "qf_form", counting)
        for spec, text in self.CASES:
            g = parse_group(spec)
            phi = fm.parse(g, text)
            qf = real(g, phi)
            walk = sg.least_prefix_qf(g, qf, "x", g.n)
            for run, want in (
                    (lambda: sg.least_prefix_qf(g, qf, "x", g.n), 0),
                    (lambda: sg.co_initial_classes(g, qf, "x", walk, g.n, 2,
                                                   []), 0),
                    (lambda: sg.end_hull(g, phi, "x"), 1),
                    (lambda: sg.to_div_segment(g, phi, "x"), 1),
                    (lambda: sg.nice_decompose(g, phi, "x"), 1)):
                calls.clear()
                run()
                assert len(calls) == want, (spec, text, want)
