"""Tests for canonical codes valued in the quotient sorts."""

import json
import random
from fractions import Fraction

import pytest

from reference_qe import equivalent, satisfiable
from oagkit import formulas as fm
from oagkit.errors import CodeError
from oagkit.groups import (FiniteQuotientElement, QuotientElement,
                           element, parse_group, project_fin)
from oagkit import qe
from oagkit import segments as sg
from oagkit.codes import (Code, FinQuotVal, MainVal, Marker, QuotVal,
                          TypeDescriptor, beta_of_residues, code_div_form,
                          code_finite_set, code_from_obj, code_segment,
                          code_set, code_to_obj, code_type,
                          descriptor_fragment, descriptor_issue,
                          enumerate_finite_quotient, reconstruct)
from oagkit.oracle import FuzzLimits, fuzz_corpus
from oagkit.segments import (DivSegment, END, GE, GT, INITIAL,
                             dual_div_segment, full_end_segment,
                             empty_end_segment, full_initial_segment,
                             to_div_segment)

Z = parse_group("Z")
ZZ = parse_group("Z*Z")
Q = parse_group("Q")
QZ = parse_group("Q*Z")
ZQ = parse_group("Z*Q")
QQ = parse_group("Q*Q")

LIM = FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2, window=6, max_den=2)


class TestSegmentCodes:
    def test_doubled_bound_codes_as_projected_minimum(self):
        seg = DivSegment(END, 2, 2, (1, 1), GE)
        c = code_segment(ZZ, seg)
        assert c == Code(("segment", END, "min", 1),
                         (QuotVal(QuotientElement(1, (1,))),))
        back = reconstruct(ZZ, c)
        assert equivalent(ZZ, back, seg.denote(ZZ, "x"))

    def test_integer_halfline_codes_as_its_minimum(self):
        seg = DivSegment(END, 1, 1, (4,), GE)
        c = code_segment(Z, seg)
        assert c == Code(("segment", END, "min", 1), (MainVal((4,)),))
        assert fm.print_formula(reconstruct(Z, c)) == "(le@ 1 (c 4) x)"

    def test_whole_group_and_empty_markers(self):
        assert code_segment(Z, full_end_segment()) == Code(
            ("segment", END, "whole", 1), (Marker("whole-group"),))
        assert code_segment(Z, empty_end_segment()) == Code(
            ("segment", END, "empty", 1), (Marker("empty"),))
        assert equivalent(Z, reconstruct(Z, code_segment(Z, full_end_segment())),
                          fm.BoolConst(True))

    def test_initial_segment_reuses_complement_values(self):
        lower = DivSegment(INITIAL, 1, 1, (4,), GT)
        c = code_segment(Z, lower)
        assert c.header == ("segment", INITIAL, "min", 1)
        assert c.values == (MainVal((4,)),)
        assert equivalent(Z, reconstruct(Z, c), lower.denote(Z, "x"))

    def test_full_initial_segment_roundtrip(self):
        c = code_segment(ZZ, full_initial_segment())
        assert c.header == ("segment", INITIAL, "empty", 1)
        assert equivalent(ZZ, reconstruct(ZZ, c), fm.BoolConst(True))

    def test_dense_cut_keeps_divided_bound(self):
        seg = DivSegment(END, 3, 2, (0, 4), GT)
        c = code_segment(ZQ, seg)
        assert c == Code(("segment", END, "cut", 1),
                         (MainVal((0, Fraction(4, 3))),))
        assert equivalent(ZQ, reconstruct(ZQ, c), seg.denote(ZQ, "x"))

    @pytest.mark.parametrize("mult", [1, 2, 3])
    @pytest.mark.parametrize("rel", [GE, GT])
    def test_discrete_branch_emits_true_minimum(self, mult, rel):
        for beta in range(-6, 7):
            seg = DivSegment(END, mult, 1, (beta,), rel)
            c = code_segment(Z, seg)
            assert c.header[2] == "min"
            (val,) = c.values
            mu = val.value[0]
            ok = (lambda x: mult * x >= beta) if rel == GE else \
                (lambda x: mult * x > beta)
            expected = min(x for x in range(-30, 31) if ok(x))
            assert mu == expected
            # the minimum is off from the bound by less than one step
            step = mult * mu - beta
            assert (0 <= step < mult) if rel == GE else (1 <= step <= mult)
            assert equivalent(Z, reconstruct(Z, c), seg.denote(Z, "x"))

    def test_fuzzed_end_segments_roundtrip(self):
        for g in (Z, ZZ, QZ):
            for phi in fuzz_corpus(g, seed=23, count=6, limits=LIM,
                                   template="end-segment"):
                seg = to_div_segment(g, phi)
                c = code_segment(g, seg)
                assert equivalent(g, reconstruct(g, c), phi)
                assert code_segment(g, to_div_segment(
                    g, reconstruct(g, c))) == c

    def test_malformed_segment_rejected(self):
        with pytest.raises(CodeError):
            code_segment(Z, DivSegment(END, 0, 1, (4,), GE))
        with pytest.raises(CodeError):
            code_segment(Z, DivSegment(END, 1, 5, (4,), GE))
        with pytest.raises(CodeError):
            code_segment(Z, DivSegment("sideways", 1, 1, (4,), GE))



def _decided_code(g, seg):
    """code_segment as it was: every bounded segment normalized by
    `to_div_segment`, which decides one sentence."""
    if seg.direction == INITIAL:
        inner = _decided_code(g, dual_div_segment(seg))
        return Code(("segment", INITIAL) + inner.header[2:], inner.values)
    if seg.is_full() or seg.is_empty():
        return code_div_form(g, seg)
    return code_div_form(g, to_div_segment(g, seg.denote(g, "x"), "x"))


class TestSegmentCodesWithoutDecide:
    """An end segment is closed upward by construction, so its code comes
    off the hull of its walk: the codes of the decided path, with no
    decide."""

    @staticmethod
    def segments():
        # criterion 05's corpus, normalized, and random presentations with
        # multipliers up to 3 at every level, 0 included, both directions
        out = []
        for spec, seed, count in (("Z", 51, 50), ("Z*Z", 52, 50),
                                  ("Q", 53, 30), ("Z*Q", 54, 35),
                                  ("Q*Z", 55, 35)):
            g = parse_group(spec)
            out += [(g, to_div_segment(g, f, "x")) for f in fuzz_corpus(
                g, seed, count, template="end-segment")]
        rng = random.Random(5)
        for g in (Z, ZZ, QZ, ZQ, Q):
            for _ in range(24):
                bound = element(g, [Fraction(rng.randint(-6, 6),
                                             1 if kind == "Z"
                                             else rng.randint(1, 2))
                                    for kind in g.kinds])
                seg = DivSegment(END, rng.randint(1, 3), rng.randint(0, g.n),
                                 bound, rng.choice((GE, GT)))
                out += [(g, seg), (g, dual_div_segment(seg))]
        return out

    def test_codes_match_the_decided_path(self, monkeypatch):
        cases = self.segments()
        want = [_decided_code(g, seg) for g, seg in cases]

        def refused(*args, **kwargs):
            raise AssertionError("code_segment decided a sentence")

        monkeypatch.setattr(sg, "decide", refused)
        monkeypatch.setattr(qe, "decide", refused)
        assert [code_segment(g, seg) for g, seg in cases] == want
        for g in (Z, ZZ, QZ):
            zero = (0,) * g.n
            assert code_segment(g, DivSegment(END, 2, 0, zero, GT)) == \
                code_segment(g, empty_end_segment())
            assert code_segment(g, DivSegment(END, 2, 0, zero, GE)) == \
                code_segment(g, full_end_segment())


class TestSetCodes:
    def test_strict_bound_with_congruence(self):
        phi = fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")
        c = code_set(Z, phi)
        # the upper bound is the least member of the piece, congruence included
        assert c == Code(
            ("set", ((("ge",), ("full",), ((1, 1),)),)),
            (MainVal((7,)), Marker("plus-inf"),
             FinQuotVal(FiniteQuotientElement(1, 3, (1,)))))
        back = reconstruct(Z, c)
        assert equivalent(Z, back, phi)
        assert code_set(Z, back) == c

    @pytest.mark.parametrize("beta", [-5, 0, 1, 9])
    def test_doubled_inequality_presentations_share_bits(self, beta):
        base = code_set(ZZ, fm.parse(ZZ, "(le@ 2 (c 1 1) (* 2 x))"))
        other = code_set(ZZ, fm.parse(ZZ, f"(le@ 2 (c 1 {beta}) (* 2 x))"))
        assert base == other
        assert base.values[0] == QuotVal(QuotientElement(1, (1,)))

    def test_unsatisfiable_codes_to_empty_marker(self):
        for g in (Z, ZZ, Q):
            c = code_set(g, fm.parse(g, "false"))
            assert c == Code(("set", ()), (Marker("empty"),))
            assert fm.print_formula(reconstruct(g, c)) == "false"

    def test_whole_group_piece(self):
        c = code_set(Z, fm.parse(Z, "true"))
        assert c == Code(("set", ((("full",), ("full",), ()),)),
                         (Marker("minus-inf"), Marker("plus-inf")))
        assert equivalent(Z, reconstruct(Z, c), fm.BoolConst(True))

    def test_pure_congruence_piece(self):
        c = code_set(Z, fm.parse(Z, "(congr 2 x (c 0))"))
        assert c == Code(
            ("set", ((("full",), ("full",), ((1, 1),)),)),
            (Marker("minus-inf"), Marker("plus-inf"),
             FinQuotVal(FiniteQuotientElement(1, 2, (0,)))))

    def test_equivalent_presentations_share_bits(self):
        pairs = [
            (Z, "(and (< (c 5) x) (congr 3 x (c 1)))",
             "(and (<= (c 7) x) (congr 3 x (c 7)))"),
            (Z, "(or (congr 6 x (c 1)) (congr 6 x (c 4)))",
             "(congr 3 x (c 1))"),
            (ZZ, "(not (or (lt@ 2 x (c 0 0)) (congr@ 2 2 x (c 1 1))))",
             "(and (le@ 2 (c 0 0) x) (not (congr@ 2 2 x (c 1 1))))"),
            (Q, "(< (c 1) (* 2 x))", "(< (c 1/2) x)"),
        ]
        for g, a, b in pairs:
            fa, fb = fm.parse(g, a), fm.parse(g, b)
            assert equivalent(g, fa, fb)
            assert code_set(g, fa) == code_set(g, fb)

    def test_inequivalent_formulas_get_distinct_codes(self):
        for g in (Z, ZZ):
            corpus = [f for f in fuzz_corpus(g, seed=31, count=12, limits=LIM,
                                             template="qf")
                      if fm.free_vars(f) == frozenset({"x"})]
            assert len(corpus) >= 4
            codes = [code_set(g, f) for f in corpus]
            for i in range(len(corpus)):
                for j in range(i + 1, len(corpus)):
                    if equivalent(g, corpus[i], corpus[j]):
                        assert codes[i] == codes[j]
                    else:
                        assert codes[i] != codes[j]

    def test_roundtrip_over_corpus(self):
        for g in (Z, ZZ, QZ, ZQ):
            for f in fuzz_corpus(g, seed=37, count=8, limits=LIM,
                                 template="qf"):
                if fm.free_vars(f) != frozenset({"x"}):
                    continue
                c = code_set(g, f)
                back = reconstruct(g, c)
                assert equivalent(g, back, f)
                assert code_set(g, back) == c

    def test_quantified_input(self):
        phi = fm.parse(Z, "(exists (y) (and (= x (* 2 y)) (<= (c 0) y)))")
        c = code_set(Z, phi)
        assert equivalent(Z, reconstruct(Z, c), phi)
        assert any(isinstance(v, FinQuotVal) and v.value.modulus == 2
                   for v in c.values)

    def test_side_serialization_matches_segment_codes(self):
        # a piece's upper bound is already in canonical one-sided form
        phi = fm.parse(ZZ, "(le@ 2 (c 1 1) (* 2 x))")
        c = code_set(ZZ, phi)
        seg_c = code_segment(ZZ, DivSegment(END, 2, 2, (1, 1), GE))
        assert c.values[0] == seg_c.values[0]

    def test_arity_rejected(self):
        with pytest.raises(CodeError):
            code_set(Z, fm.parse(Z, "(< x y)"))


class TestReconstructValidation:
    def test_malformed_codes_rejected(self):
        good = code_set(Z, fm.parse(Z, "(<= (c 0) x)"))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(("set", ()), (Marker("plus-inf"),)))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(good.header, good.values + (MainVal((1,)),)))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(good.header, ()))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(("segment", END, "min", 1), (Marker("empty"),)))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(("segment", END, "sideways", 1),
                                (MainVal((1,)),)))
        with pytest.raises(CodeError):
            reconstruct(Z, Code(("mystery",), ()))
        with pytest.raises(CodeError, match="expected a Code"):
            reconstruct(Z, code_to_obj(good))
        with pytest.raises(CodeError, match="unknown marker kind"):
            reconstruct(Z, Code(good.header, (Marker("nowhere"),)))
        with pytest.raises(CodeError, match="unknown code value"):
            reconstruct(Z, Code(good.header, (0, Marker("plus-inf"))))

    def test_type_codes_are_not_sets(self):
        c = code_type(Z, TypeDescriptor(cut=("realized", (5,))))
        with pytest.raises(CodeError):
            reconstruct(Z, c)

    def test_wrong_group_rejected(self):
        c = code_set(ZZ, fm.parse(ZZ, "(le@ 2 (c 1 1) x)"))
        with pytest.raises(CodeError):
            reconstruct(Q, c)


class TestTypeCodes:
    def test_realized_cut_dominates(self):
        c = code_type(Z, TypeDescriptor(cut=("realized", (5,))))
        assert c == Code(("type", ("realized",), (), (), 12),
                         (MainVal((5,)),))

    def test_unbounded_above_with_zero_residues(self):
        res = tuple(FiniteQuotientElement(1, m, (0,)) for m in range(2, 7))
        p = TypeDescriptor(cut=("plus-inf",), residues=res, residue_bound=6)
        c = code_type(Z, p)
        assert c.header == ("type", ("plus-inf",),
                            ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6)), (), 6)
        assert c.values == (Marker("plus-inf"),) + tuple(
            FinQuotVal(fq) for fq in res)
        frag = descriptor_fragment(Z, p)
        assert satisfiable(Z, frag)

    def test_decided_coset_with_edge_cut(self):
        seg_c = code_segment(ZQ, DivSegment(END, 1, 1, (3, 0), GE))
        p = TypeDescriptor(cut=("at-segment", seg_c),
                           cosets=(QuotientElement(1, (3,)),))
        c = code_type(ZQ, p)
        assert c.header == ("type", ("at-segment", "segment", END, "min", 1),
                            (), (1,), 12)
        assert c.values == (QuotVal(QuotientElement(1, (3,))),
                            QuotVal(QuotientElement(1, (3,))))
        assert satisfiable(ZQ, descriptor_fragment(ZQ, p))

    def test_crt_violation_rejected(self):
        bad = TypeDescriptor(
            cut=("plus-inf",),
            residues=(FiniteQuotientElement(1, 2, (1,)),
                      FiniteQuotientElement(1, 4, (0,))))
        assert descriptor_issue(Z, bad) is not None
        with pytest.raises(CodeError):
            code_type(Z, bad)

    def test_realized_with_stored_data_rejected(self):
        bad = TypeDescriptor(cut=("realized", (5,)),
                             residues=(FiniteQuotientElement(1, 2, (1,)),))
        with pytest.raises(CodeError):
            code_type(Z, bad)

    def test_contradictory_cut_and_coset_rejected(self):
        seg_c = code_segment(ZQ, DivSegment(END, 1, 1, (3, 0), GT))
        p = TypeDescriptor(cut=("at-segment", seg_c),
                           cosets=(QuotientElement(1, (3,)),))
        assert descriptor_issue(ZQ, p) == "finite fragment is unsatisfiable"
        with pytest.raises(CodeError):
            code_type(ZQ, p)

    def test_coset_contradicting_residue_rejected(self):
        bad = TypeDescriptor(cut=("minus-inf",),
                             cosets=(QuotientElement(1, (3,)),),
                             residues=(FiniteQuotientElement(1, 2, (0,)),))
        assert descriptor_issue(Z, bad) is not None
        with pytest.raises(CodeError):
            code_type(Z, bad)

    def test_structurally_bad_descriptors_rejected(self):
        with pytest.raises(CodeError):
            code_type(Z, TypeDescriptor(cut=("nowhere",)))
        with pytest.raises(CodeError):
            code_type(Z, TypeDescriptor(cut=("realized", (1, 2))))
        with pytest.raises(CodeError):
            code_type(ZZ, TypeDescriptor(
                cut=("minus-inf",),
                cosets=(QuotientElement(2, (0, 0)),
                        QuotientElement(1, (0,)))))
        with pytest.raises(CodeError):
            code_type(Z, TypeDescriptor(
                cut=("minus-inf",),
                residues=(FiniteQuotientElement(1, 9, (0,)),),
                residue_bound=6))
        initial = code_segment(Z, DivSegment(INITIAL, 1, 1, (3,), GE))
        inf = ("minus-inf",)
        two = FiniteQuotientElement(1, 2, (0,))
        for bad, message in [
                ("junk", "expected a TypeDescriptor"),
                (TypeDescriptor(cut=()), "cut must be a tagged tuple"),
                (TypeDescriptor(cut=("realized",)), "exactly one element"),
                (TypeDescriptor(cut=("at-segment", "x")),
                 "must carry a segment code"),
                (TypeDescriptor(cut=("at-segment", initial)),
                 "must carry an end-segment code"),
                (TypeDescriptor(cut=("plus-inf", 0)), "carries no data"),
                (TypeDescriptor(cut=inf, residue_bound=1),
                 "residue bound must be"),
                (TypeDescriptor(cut=inf, cosets=((1, (0,)),)),
                 "cosets must be quotient elements"),
                (TypeDescriptor(cut=inf, cosets=(QuotientElement(2, (0, 0)),)),
                 "coset level 2 out of range"),
                (TypeDescriptor(cut=inf, residues=((1, 2, (0,)),)),
                 "residues must be finite-quotient elements"),
                (TypeDescriptor(cut=inf,
                                residues=(FiniteQuotientElement(0, 2, ()),)),
                 "residue level 0 out of range"),
                (TypeDescriptor(cut=inf, residues=(two, two)),
                 "sorted by \\(level, modulus\\)")]:
            with pytest.raises(CodeError, match=message):
                code_type(Z, bad)

    def test_equal_codes_give_equivalent_fragments(self):
        res23 = (FiniteQuotientElement(1, 2, (1,)),
                 FiniteQuotientElement(1, 3, (2,)))
        pool = [
            TypeDescriptor(cut=("realized", (5,))),
            TypeDescriptor(cut=("realized", (5,))),
            TypeDescriptor(cut=("plus-inf",), residues=res23),
            TypeDescriptor(cut=("plus-inf",), residues=tuple(res23)),
            TypeDescriptor(cut=("minus-inf",),
                           residues=(FiniteQuotientElement(1, 2, (1,)),)),
        ]
        coded = [(p, code_type(Z, p)) for p in pool]
        same = 0
        for i in range(len(coded)):
            for j in range(i + 1, len(coded)):
                if coded[i][1] == coded[j][1]:
                    same += 1
                    assert equivalent(Z, descriptor_fragment(Z, coded[i][0]),
                                      descriptor_fragment(Z, coded[j][0]))
        assert same >= 2


class TestFiniteSetCodes:
    def test_pair_sorted(self):
        c = code_finite_set(ZZ, [(QuotientElement(1, (3,)),),
                                 (QuotientElement(1, (1,)),)])
        assert c == Code(("finite-set", 2, (1,)),
                         (QuotVal(QuotientElement(1, (1,))),
                          QuotVal(QuotientElement(1, (3,)))))

    def test_singleton(self):
        c = code_finite_set(ZZ, [(QuotientElement(2, (0, 2)),)])
        assert c == Code(("finite-set", 1, (2,)),
                         (QuotVal(QuotientElement(2, (0, 2))),))

    def test_full_level_lexicographic_order(self):
        c = code_finite_set(ZZ, [(QuotientElement(2, (1, 0)),),
                                 (QuotientElement(2, (0, 9)),)])
        assert [v.value.coords for v in c.values] == [(0, 9), (1, 0)]

    def test_permutation_invariance(self):
        rng = random.Random(7)
        tuples = [(QuotientElement(1, (a,)), QuotientElement(2, (a, b)))
                  for a in range(3) for b in range(-2, 2)]
        base = code_finite_set(ZZ, tuples)
        for _ in range(5):
            shuffled = tuples[:]
            rng.shuffle(shuffled)
            assert code_finite_set(ZZ, shuffled) == base

    def test_duplicates_collapse(self):
        one = (QuotientElement(1, (4,)),)
        assert code_finite_set(Z, [one, one]) == code_finite_set(Z, [one])

    def test_injective_on_distinct_sets(self):
        pool = [(QuotientElement(1, (a,)),) for a in range(-2, 3)]
        seen = {}
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                key = frozenset({pool[i], pool[j]})
                code = code_finite_set(ZZ, [pool[i], pool[j]])
                if key in seen:
                    assert seen[key] == code
                else:
                    for other, oc in seen.items():
                        assert oc != code or other == key
                    seen[key] = code

    def test_rational_coordinates_sort_numerically(self):
        c = code_finite_set(QQ, [(QuotientElement(1, (Fraction(1, 2),)),),
                                 (QuotientElement(1, (Fraction(1, 3),)),)])
        assert [v.value.coords for v in c.values] == [(Fraction(1, 3),),
                                                      (Fraction(1, 2),)]

    def test_shape_mismatch_rejected(self):
        a, b = QuotientElement(1, (1,)), QuotientElement(2, (1, 0))
        with pytest.raises(CodeError):
            code_finite_set(ZZ, [(a,), (b,)])
        with pytest.raises(CodeError):
            code_finite_set(ZZ, [(a,), (a, a)])
        with pytest.raises(CodeError):
            code_finite_set(ZZ, [])
        with pytest.raises(CodeError):
            code_finite_set(ZZ, [()])
        with pytest.raises(CodeError):
            code_finite_set(Z, [(QuotientElement(1, (Fraction(1, 2),)),)])
        with pytest.raises(CodeError, match="must be quotient elements"):
            code_finite_set(ZZ, [((1, (1,)),)])
        with pytest.raises(CodeError, match="level 3 out of range"):
            code_finite_set(ZZ, [(QuotientElement(3, (1, 0, 0)),)])


class TestEnumerateFiniteQuotient:
    def test_two_classes_at_top_level(self):
        out = enumerate_finite_quotient(ZZ, 1, 2)
        assert out == (FiniteQuotientElement(1, 2, (0,)),
                       FiniteQuotientElement(1, 2, (1,)))

    def test_divisible_coordinates_vanish(self):
        assert len(enumerate_finite_quotient(QQ, 2, 5)) == 1
        assert len(enumerate_finite_quotient(QQ, 1, 3)) == 1

    def test_level_zero_is_trivial(self):
        assert len(enumerate_finite_quotient(ZZ, 0, 7)) == 1

    @pytest.mark.parametrize("g,k,m,size", [
        (ZZ, 2, 3, 9), (ZZ, 1, 4, 4), (ZQ, 2, 3, 3), (QZ, 2, 2, 2),
        (QZ, 1, 5, 1),
    ])
    def test_size_counts_discrete_coordinates(self, g, k, m, size):
        out = enumerate_finite_quotient(g, k, m)
        assert len(out) == size
        assert len(set(out)) == size
        for fq in out:
            assert fq.level == k and fq.modulus == m

    def test_images_of_canonical_representatives(self):
        from oagkit.groups import representatives_mod
        reps = representatives_mod(ZZ, 2, 3)
        assert enumerate_finite_quotient(ZZ, 2, 3) == tuple(
            project_fin(ZZ, 2, 3, r) for r in reps)

    def test_small_modulus_rejected(self):
        with pytest.raises(CodeError):
            enumerate_finite_quotient(ZZ, 1, 1)
        with pytest.raises(CodeError):
            enumerate_finite_quotient(ZZ, 3, 2)


def _obj(header, values):
    return {"version": "code-v1", "header": header, "values": values}


def _marker(kind):
    return {"sort": "marker", "kind": kind}


def _fq(level, modulus, *residues):
    return {"sort": "finquot", "level": level, "modulus": modulus,
            "residues": list(residues)}


_MAIN = {"sort": "main", "coords": ["1"]}
_RAYS = [_marker("minus-inf"), _marker("plus-inf")]


def _congr(lit_meta, value):
    # a one-piece set code: both sides full, one congruence descriptor
    return _obj(["set", [[["full"], ["full"], [lit_meta]]]], _RAYS + [value])


# (group, object, message): each object breaks one rule of the code
# format; the message names the rule
MALFORMED = [
    (Z, [], "must be a dictionary"),
    (Z, {"version": "code-v1"}, "must have header and values"),
    (Z, _obj("set", []), "header must be a list"),
    (Z, _obj(["set", []], {}), "values must be a list"),
    (Z, _obj([], []), "header must be a nonempty tuple"),
    (Z, _obj(["set", []], [5]), "bad code value object"),
    (Z, _obj(["set", []], [{"sort": "blob"}]), "unknown value sort"),
    (Z, _obj(["segment", "end", "min", 1],
             [{"sort": "main", "coords": [1]}]), "expected a number string"),
    (Z, _obj(["segment", "end", "min"], [_MAIN]), "malformed segment header"),
    (Z, _obj(["segment", "up", "min", 1], [_MAIN]),
     "unknown segment direction"),
    (Z, _obj(["segment", "end", "min", 0], [_MAIN]),
     "multiplier must be a positive integer"),
    (Z, _obj(["segment", "end", "min", 1], [_MAIN, _MAIN]),
     "exactly one value"),
    (Z, _obj(["segment", "end", "whole", 1], [_marker("empty")]),
     "marker does not match its header"),
    (ZZ, _obj(["segment", "end", "min", 1],
              [{"sort": "quot", "level": 5, "coords": []}]),
     "quotient level 5 out of range"),
    (ZZ, _obj(["segment", "end", "min", 1],
              [{"sort": "quot", "level": 1, "coords": ["1", "2"]}]),
     "arity does not match its level"),
    (Z, _obj(["set"], []), "malformed set header"),
    (Z, _obj(["set", [["ge"]]], [_MAIN]), "malformed piece descriptor"),
    (Z, _obj(["set", [[["ge", 1], ["full"], []]]], [_MAIN]),
     "malformed piece side descriptor"),
    (Z, _obj(["set", [[["up"], ["full"], []]]], [_MAIN]),
     "unknown piece side tag"),
    (Z, _obj(["set", [[["full"], ["full"], []]]], []),
     "set code ran out of values"),
    (Z, _obj(["set", [[["full"], ["full"], []]]], _RAYS[::-1]),
     "piece side marker does not match its header"),
    (Z, _congr([1], _fq(1, 2, 0)), "malformed congruence descriptor"),
    (Z, _obj(["set", [[["full"], ["full"], [[1, 1]]]]], _RAYS),
     "set code ran out of values"),
    (Z, _congr([1, 1], _MAIN), "must hold a finite-quotient value"),
    (Z, _congr([1, 1], _fq(3, 2)), "finite-quotient level 3 out of range"),
    (Z, _congr([1, 1], _fq(1, 0, 0)), "modulus must be positive"),
    (Z, _congr([1, 1], _fq(1, 2)), "residue count does not match level"),
    (Z, _congr([1, 1], _fq(1, 2, 5)), "residue 5 out of range for modulus 2"),
    (Z, _congr([2, 1], _fq(1, 2, 1)), "sign must be"),
]


@pytest.mark.parametrize("g, obj, message", MALFORMED,
                         ids=[m for _, _, m in MALFORMED])
def test_malformed_objects_rejected(g, obj, message):
    """Decoding an object and rebuilding its formula raises a typed
    CodeError naming the broken rule, never another exception."""
    with pytest.raises(CodeError, match=message):
        reconstruct(g, code_from_obj(obj))


def test_level_zero_class_is_the_zero_element():
    # the quotient by the whole group has one class, with no residues
    for g in (Z, ZQ):
        for m in (1, 2, 5):
            assert beta_of_residues(g, FiniteQuotientElement(0, m, ())) == \
                (0,) * g.n


BAD_RESIDUES = [
    # (class on Z*Q, message, whether a descriptor's own level and
    # modulus checks come first)
    (FiniteQuotientElement(3, 3, (0,)),
     "finite-quotient level 3 out of range", True),
    (FiniteQuotientElement(-1, 3, ()),
     "finite-quotient level -1 out of range", True),
    (FiniteQuotientElement(1, 0, (0,)),
     "finite-quotient modulus must be positive", True),
    (FiniteQuotientElement(2, 3, ()),
     "finite-quotient residue count does not match level", False),
    (FiniteQuotientElement(2, 3, (1, 0)),
     "finite-quotient residue count does not match level", False),
    (FiniteQuotientElement(1, 3, (3,)),
     "residue 3 out of range for modulus 3", False),
    (FiniteQuotientElement(2, 4, (-1,)),
     "residue -1 out of range for modulus 4", False),
]


@pytest.mark.parametrize("fq, message, caught_before", BAD_RESIDUES,
                         ids=[str(fq) for fq, _, _ in BAD_RESIDUES])
def test_malformed_residues_keep_their_message(fq, message, caught_before):
    """A malformed finite-quotient class raises the same CodeError from
    `beta_of_residues` and, as a descriptor's residue, from the
    descriptor checks, which build no element."""
    with pytest.raises(CodeError) as err:
        beta_of_residues(ZQ, fq)
    assert str(err.value) == message
    if caught_before:
        return
    p = TypeDescriptor(cut=("minus-inf",), residues=(fq,))
    for check in (descriptor_issue, code_type):
        with pytest.raises(CodeError) as err:
            check(ZQ, p)
        assert str(err.value) == message


class TestSerialization:
    def gallery(self):
        seg_c = code_segment(ZQ, DivSegment(END, 3, 2, (0, 4), GT))
        return [
            code_segment(ZZ, DivSegment(END, 2, 2, (1, 1), GE)),
            seg_c,
            code_set(Z, fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")),
            code_set(Z, fm.parse(Z, "false")),
            code_type(ZQ, TypeDescriptor(
                cut=("at-segment",
                     code_segment(ZQ, DivSegment(END, 1, 1, (3, 0), GE))),
                cosets=(QuotientElement(1, (3,)),))),
            code_finite_set(ZZ, [(QuotientElement(1, (3,)),),
                                 (QuotientElement(1, (1,)),)]),
        ]

    def test_roundtrip_bit_exact(self):
        for c in self.gallery():
            obj = code_to_obj(c)
            assert obj["version"] == "code-v1"
            assert code_from_obj(json.loads(json.dumps(obj))) == c

    def test_rationals_serialize_as_quotient_strings(self):
        c = code_segment(ZQ, DivSegment(END, 3, 2, (0, 4), GT))
        text = json.dumps(code_to_obj(c))
        assert '"4/3"' in text

    def test_byte_level_canonicality(self):
        fa = fm.parse(Z, "(and (< (c 5) x) (congr 3 x (c 1)))")
        fb = fm.parse(Z, "(and (<= (c 7) x) (congr 3 x (c 7)))")
        assert json.dumps(code_to_obj(code_set(Z, fa))) == \
            json.dumps(code_to_obj(code_set(Z, fb)))

    def test_bad_objects_rejected(self):
        good = code_to_obj(code_set(Z, fm.parse(Z, "true")))
        for breakage in [
            {},
            {"version": "code-v0", "header": ["set", []], "values": []},
            {**good, "values": [{"sort": "marker", "kind": "nowhere"}]},
            {**good, "header": None},
            {**good, "values": [{"sort": "main", "coords": ["x"]}]},
            {**good, "values": [{"sort": "quot", "coords": ["1"]}]},
        ]:
            with pytest.raises(CodeError):
                code_from_obj(breakage)

    def test_header_deeper_than_any_code_rejected(self):
        good = code_to_obj(code_set(Z, fm.parse(Z, "(congr 2 x (c 1))")))
        assert code_from_obj(good).header[1][0][2] == ((1, 1),)
        deep: list = []
        for _ in range(2000):
            deep = [deep]
        with pytest.raises(CodeError):
            code_from_obj({**good, "header": deep})

    def test_number_strings(self):
        from oagkit.codes import _num_from_str, _num_to_str
        assert _num_to_str(Fraction(4, 3)) == "4/3"
        assert _num_to_str(7) == "7"
        assert _num_from_str("-3/2") == Fraction(-3, 2)
        assert _num_from_str("12") == 12
        # one numeral per value: an integral quotient reads as an int
        assert type(_num_from_str("-3/2")) is Fraction
        for text, want in (("12", 12), ("4/2", 2), ("-9/3", -3), ("0/5", 0)):
            assert _num_from_str(text) == want
            assert type(_num_from_str(text)) is int
        with pytest.raises(CodeError):
            _num_from_str("1/0")
        with pytest.raises(CodeError):
            _num_from_str("pi")
