"""Elimination engine tests: spec examples, mixed-sort cases, a scaled
differential against the oracle, and witness extraction."""

import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import pytest

import oagkit
import reference_qe
import reference_scalars
from reference_qe import count_decides
from oagkit import cells as cm
from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit import qe
from oagkit import scalars as sc
from oagkit import segments as sg
from oagkit.errors import BudgetExceeded, FormulaError
from oagkit.groups import box_elements, compare, parse_group, unit

Z1 = parse_group("Z")
Z2 = parse_group("Z*Z")
Z3 = parse_group("Z*Z*Z")
Q1 = parse_group("Q")
ZQ = parse_group("Z*Q")
QZ = parse_group("Q*Z")


def body_truth(g, qf, name, a):
    env = fm.scalarize(g, {name: a})
    return sc.s_eval(g, qf.body, env)


class TestEliminate:
    def test_divisibility_definition(self):
        out = qe.eliminate(Z1, fm.parse(Z1, "(exists (y) (= x (* 2 y)))"))
        assert out.free == ("x",)
        for v in range(-8, 9):
            assert body_truth(Z1, out, "x", (v,)) == (v % 2 == 0)

    def test_open_interval_above(self):
        f = fm.parse(Z2, "(exists (y) (and (< (c 0 1) y) (< y x)))")
        out = qe.eliminate(Z2, f)
        for a in box_elements(Z2, 4):
            want = compare(Z2, a, (0, 2)) > 0
            assert body_truth(Z2, out, "x", a) == want

    def test_result_quantifier_free_and_stable(self):
        f = fm.parse(Z2, "(forall (y) (exists (z) (implies (< y x) "
                         "(<= (+ y z) x))))")
        out = qe.eliminate(Z2, f)
        assert sc.s_is_qf(out.body)
        again = qe.eliminate_scalar(Z2, out.body)
        for a in box_elements(Z2, 3):
            env = fm.scalarize(Z2, {"x": a})
            assert sc.s_eval(Z2, again, env) == sc.s_eval(Z2, out.body, env)


class TestDecide:
    def test_interval_without_divisible_element(self):
        f = fm.parse(Z2, "(exists (x) (and (< (c 1 -1) (* 2 x)) "
                         "(< (* 2 x) (c 1 4)) (congr 2 (* 2 x) (c 0 0))))")
        assert qe.decide(Z2, f) is False

    def test_widened_interval_goes_through(self):
        f = fm.parse(Z2, "(exists (x) (and (< (c 1 -1) (* 2 x)) "
                         "(< (* 2 x) (c 2 4))))")
        assert qe.decide(Z2, f) is True

    def test_density_sentence(self):
        s = ("(forall (x) (forall (y) (implies (< x y) "
             "(exists (z) (and (< x z) (< z y))))))")
        assert qe.decide(Q1, fm.parse(Q1, s)) is True
        assert qe.decide(Z1, fm.parse(Z1, s)) is False

    def test_parity_of_first_coordinate(self):
        f = fm.parse(Z2, "(exists (x) (= (* 2 x) (c 1 1)))")
        assert qe.decide(Z2, f) is False
        f = fm.parse(QZ, "(exists (x) (= (* 2 x) (c 1 1)))")
        assert qe.decide(QZ, f) is False
        f = fm.parse(QZ, "(exists (x) (= (* 2 x) (c 1 2)))")
        assert qe.decide(QZ, f) is True

    def test_dense_tail_makes_intervals_inhabited(self):
        s = "(exists (x) (and (< (c 0 0) x) (< x (c 0 1))))"
        assert qe.decide(ZQ, fm.parse(ZQ, s)) is True
        assert qe.decide(Z2, fm.parse(Z2, s)) is False

    def test_dense_above_every_element(self):
        s = ("(forall (x) (exists (y) (and (< x y) "
             "(< y (+ x (c 0 1))))))")
        assert qe.decide(ZQ, fm.parse(ZQ, s)) is True
        assert qe.decide(Z2, fm.parse(Z2, s)) is False

    def test_divisible_group_halving(self):
        assert qe.decide(Q1, fm.parse(Q1,
                         "(forall (x) (exists (y) (= (* 2 y) x)))")) is True
        assert qe.decide(Z1, fm.parse(Z1,
                         "(forall (x) (exists (y) (= (* 2 y) x)))")) is False

    def test_non_sentence_rejected(self):
        with pytest.raises(FormulaError):
            qe.decide(Z1, fm.parse(Z1, "(< x (c 0))"))

    def test_relativized_sentences(self):
        # every element is congruent mod level-1 to one of 0 or e1
        s = ("(forall (x) (or (congr@ 1 2 x (c 0 0)) "
             "(congr@ 1 2 x (c 1 0))))")
        assert qe.decide(Z2, fm.parse(Z2, s)) is True
        s2 = "(forall (x) (congr@ 1 2 x (c 0 0)))"
        assert qe.decide(Z2, fm.parse(Z2, s2)) is False
        # in Q*Z the level-1 quotient is divisible
        s3 = "(forall (x) (congr@ 1 2 x (c 0 0)))"
        assert qe.decide(QZ, fm.parse(QZ, s3)) is True


class TestEquivalent:
    def test_shifted_thresholds_on_doubling(self):
        base = fm.parse(Z2, "(<= (c 1 1) (* 2 z))")
        for beta in (-3, 0, 7):
            other = fm.parse(Z2, f"(<= (c 1 {beta}) (* 2 z))")
            assert qe.equivalent(Z2, base, other) is True
        far = fm.parse(Z2, "(<= (c 2 1) (* 2 z))")
        assert qe.equivalent(Z2, base, far) is False

    def test_reflexive_on_corpus(self):
        for f in orc.fuzz_corpus(Z2, 61, 10, template="qf"):
            assert qe.equivalent(Z2, f, f) is True

    def test_discreteness(self):
        a = fm.parse(Z1, "(< (c 0) x)")
        b = fm.parse(Z1, "(<= (c 1) x)")
        assert qe.equivalent(Z1, a, b) is True
        assert qe.equivalent(Q1, fm.parse(Q1, "(< (c 0) x)"),
                             fm.parse(Q1, "(<= (c 1) x)")) is False

    def test_entails(self):
        wide = fm.parse(Z1, "(< (c 0) x)")
        narrow = fm.parse(Z1, "(< (c 5) x)")
        assert qe.entails(Z1, narrow, wide) is True
        assert qe.entails(Z1, wide, narrow) is False
        assert qe.satisfiable(Z1, fm.parse(Z1, "(and (< x (c 0)) "
                                                "(< (c 0) x))")) is False


def _bumped(g, f):
    """f with the right side of every congruence moved by one on each
    coordinate."""
    cls = f.__class__
    one = fm.t_const((1,) * g.n)
    if cls is fm.Congr:
        return fm.Congr(f.modulus, f.left, fm.t_add(g, f.right, one))
    if cls is fm.RelCongr:
        return fm.RelCongr(f.level, f.modulus, f.left,
                           fm.t_add(g, f.right, one))
    if cls is fm.And or cls is fm.Or:
        return cls(tuple(_bumped(g, it) for it in f.items))
    if cls is fm.Not:
        return fm.Not(_bumped(g, f.body))
    if cls is fm.Exists or cls is fm.Forall:
        return cls(f.var, _bumped(g, f.body))
    if cls is fm.Implies or cls is fm.Iff:
        return cls(_bumped(g, f.left), _bumped(g, f.right))
    return f


def _one_variable_pairs(g, seed, count):
    """Each one-variable formula of every template, with: an equivalent
    rewrite, itself shifted by a unit, with an extra conjunct, its
    negation, and its congruences bumped."""
    rng = random.Random(seed)
    for template in ("qf", "end-segment", "bounded"):
        for f in orc.fuzz_corpus(g, seed, count, template=template):
            free = fm.free_vars(f)
            if len(free) != 1:
                continue
            v, = free
            x = fm.t_var(g, v)
            atom = fm.Cmp(fm.LT, fm.t_const(tuple(rng.randint(-3, 3)
                                                  for _ in range(g.n))), x)
            shift = fm.t_add(g, x, fm.t_const(unit(g, rng.randint(1, g.n))))
            for other in (fm.Or((f, fm.And((f, atom)))),
                          fm.substitute(g, f, v, shift),
                          fm.And((f, atom)), fm.Not(f), _bumped(g, f)):
                yield f, other


class TestOneVariableWalk:
    """`satisfiable`, `equivalent` and `entails` walk the cells of one
    free variable; `reference_qe` decides the closed sentence."""

    @pytest.mark.parametrize("spec", ["Z", "Q", "Z*Z", "Z*Q", "Q*Z",
                                      "Z*Q*Z"])
    def test_walk_agrees_with_the_sentences(self, spec):
        g = parse_group(spec)
        outcomes = {}
        for f, other in _one_variable_pairs(g, 7, 6):
            for name, args in (("equivalent", (f, other)),
                               ("entails", (f, other)),
                               ("satisfiable", (fm.And((f, other)),))):
                got = getattr(qe, name)(g, *args)
                assert got == getattr(reference_qe, name)(g, *args), \
                    (name, *map(fm.print_formula, args))
                outcomes[name, got] = outcomes.get((name, got), 0) + 1
        assert len(outcomes) == 6, outcomes
        assert min(outcomes.values()) >= 10, outcomes

    def test_one_variable_decides_nothing(self, monkeypatch):
        f = fm.parse(ZQ, "(exists (y) (and (< y x) (congr 3 y (c 1 0))))")
        h = fm.parse(ZQ, "(< (c 2 0) x)")
        decided = count_decides(monkeypatch)
        assert qe.satisfiable(ZQ, f) is True
        assert qe.equivalent(ZQ, f, h) is False
        assert qe.entails(ZQ, h, f) is True
        assert decided == []

    def test_sentences_and_two_variables_decide(self, monkeypatch):
        two = fm.parse(ZQ, "(< x y)")
        closed = fm.parse(ZQ, "(exists (x) (< x (c 0 0)))")
        decided = count_decides(monkeypatch)
        assert qe.satisfiable(ZQ, two) is True
        assert qe.equivalent(ZQ, two, fm.parse(ZQ, "(< y x)")) is False
        assert qe.entails(ZQ, two, fm.parse(ZQ, "(<= x y)")) is True
        assert qe.satisfiable(ZQ, closed) is True
        assert qe.equivalent(ZQ, closed, fm.BoolConst(True)) is True
        assert len(decided) == 5


KINDS = ["Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Z*Q*Z"]


class TestPin:
    """`cells.pin` builds the node substitution builds, for the same
    charge: `reference_qe.s_subst_all` substitutes the value."""

    @pytest.mark.parametrize("spec", KINDS)
    def test_pin_is_the_substitution(self, spec):
        g = parse_group(spec)
        pinned = charged = 0
        for template in ("qf", "end-segment", "bounded"):
            for f in orc.fuzz_corpus(g, 5, 12, template=template):
                free = fm.free_vars(f)
                if len(free) != 1:
                    continue
                v, = free
                psi = qe.qf_form(g, f)
                for j in range(1, g.n + 1):
                    x = sc.SVar(v, j)
                    discrete = g.kinds[j - 1] == "Z"
                    roots, modulus = sc.roots_and_modulus(psi, x, discrete)
                    for t, _, _ in cm.line_cells(discrete, roots, modulus):
                        with sc.budget_scope(None) as want:
                            ref = reference_qe.s_subst_all(g, psi, {x: t})
                        with sc.budget_scope(None) as got:
                            out = cm.pin(psi, x, t)
                        assert out is ref, (fm.print_formula(f), x, t)
                        assert got.used == want.used, (fm.print_formula(f),
                                                       x, t)
                        pinned += out is not psi
                        charged += got.used
        assert pinned >= 90 and charged > pinned

    def test_two_variable_atom_raises(self):
        x1, x2, y1 = sc.SVar("x", 1), sc.SVar("x", 2), sc.SVar("y", 1)
        f = sc.mk_or([sc.mk_lt(Z2, sc.lin({x2: 1}, 0)),
                      sc.mk_lt(Z2, sc.lin({x1: 1, y1: -1}, 0))])
        with pytest.raises(AssertionError, match="more than one"):
            cm.pin(f, x1, 0)


def test_cell_roots_are_ints_on_z_and_fractions_on_q():
    for g, kind in ((Z1, int), (Q1, Fraction)):
        psi = qe.qf_form(g, fm.parse(g, "(or (< x (c 3)) (= (* 2 x) (c -4)))"))
        cells = cm.Cells(g, psi, sc.SVar("x", 1))
        assert cells.roots == [-2, 3]
        assert {type(r) for r in cells.roots} == {kind}


class TestGroundFold:
    """`s_subst` folds an atom in the substituted variable alone, under a
    ground value, by arithmetic: each call `qe` makes gives the node and
    the budget charge of `reference_scalars.s_subst`, which builds the
    ground expression and normalizes it."""

    # the fuzz limits of acceptance criterion 01
    LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=6, max_depth=3,
                            window=6)

    def run_against_reference(self, monkeypatch, g, formulas):
        """Eliminate each formula, checking every s_subst call qe makes;
        how many calls had a ground and how many a variable repl."""
        library = qe.s_subst
        seen = {True: 0, False: 0}

        def checked(g, f, v, repl, den=1):
            # a limit opens a scope of its own, even inside an operation
            with sc.budget_scope(10 ** 12) as want:
                ref = reference_scalars.s_subst(g, f, v, repl, den)
            with sc.budget_scope(10 ** 12) as got:
                out = library(g, f, v, repl, den)
            assert out is ref, (sc.print_scalar(f), v, repl)
            assert got.used == want.used, (sc.print_scalar(f), v, repl)
            seen[repl.is_ground()] += 1
            return out

        monkeypatch.setattr(qe, "s_subst", checked)
        for f in formulas:
            qe.eliminate(g, f)
        return seen

    @pytest.mark.parametrize("spec", ["Z", "Z*Z", "Z*Z*Z"])
    def test_window_substitutions_on_bounded_corpora(self, monkeypatch,
                                                      spec):
        g = parse_group(spec)
        corpus = orc.fuzz_corpus(g, 0, 100, limits=self.LIMITS,
                                 template="bounded")
        seen = self.run_against_reference(monkeypatch, g, corpus)
        assert seen[True] >= 100

    @pytest.mark.parametrize("spec", ["Z", "Z*Z"])
    def test_cooper_rows(self, monkeypatch, spec):
        # x projected with y free: Cooper's method, its infinity rows
        # substituted with ground shifts and its bound rows with terms in y
        g = parse_group(spec)
        corpus = [fm.Exists("x", f) for f in
                  orc.fuzz_corpus(g, 3, 80, limits=self.LIMITS,
                                  template="qf")
                  if fm.free_vars(f) == {"x", "y"}]
        seen = self.run_against_reference(monkeypatch, g, corpus)
        assert seen[True] >= 10 and seen[False] >= 10

    @pytest.mark.parametrize("spec", ["Q", "Z*Q", "Q*Z"])
    def test_dense_root_rows(self, monkeypatch, spec):
        # x projected with y free on a dense coordinate: the root rows put
        # x = repl/den, with den > 1 at the root of an atom whose
        # coefficient of x is not +-1
        g = parse_group(spec)
        corpus = [fm.Exists("x", f) for f in
                  orc.fuzz_corpus(g, 3, 80, limits=self.LIMITS,
                                  template="qf")
                  if fm.free_vars(f) == {"x", "y"}]
        library, dens = qe.s_subst, []

        def recording(g, f, v, repl, den=1):
            dens.append(den)
            return library(g, f, v, repl, den)

        monkeypatch.setattr(qe, "s_subst", recording)
        seen = self.run_against_reference(monkeypatch, g, corpus)
        assert seen[False] >= 10 and sum(d > 1 for d in dens) >= 3

    def test_an_atom_in_two_variables_is_not_folded(self):
        x1, y1 = sc.SVar("x", 1), sc.SVar("y", 1)
        for atom in (sc.SLt(sc.lin({x1: 1, y1: -1}, 2)),
                     sc.SEq(sc.lin({x1: 1, y1: -1}, 2)),
                     sc.SCongr(3, sc.lin({x1: 1, y1: 1}, 2))):
            with sc.budget_scope(None) as used:
                out = sc.s_subst(Z2, atom, x1, sc.lin_const(1))
            assert out.fv == {y1} and used.used == 1
            assert out is reference_scalars.s_subst(Z2, atom, x1,
                                                    sc.lin_const(1))

    def test_each_atom_kind_folds_at_its_boundary(self):
        # 2x - 3 < 0, 2x - 4 = 0 and 3x + 1 ~ 0 mod 4 around their roots
        x1 = sc.SVar("x", 1)
        atoms = (sc.SLt(sc.lin({x1: 2}, -3)), sc.SEq(sc.lin({x1: 2}, -4)),
                 sc.SCongr(4, sc.lin({x1: 3}, 1)))
        for atom in atoms:
            for t in range(-4, 5):
                with sc.budget_scope(None) as want:
                    ref = reference_scalars.s_subst(Z1, atom, x1,
                                                    sc.lin_const(t))
                with sc.budget_scope(None) as got:
                    out = sc.s_subst(Z1, atom, x1, sc.lin_const(t))
                assert out is ref and out.__class__ is sc.SBool
                assert got.used == want.used == 1
        # a dense variable at a fraction: the atom is multiplied by den
        for atom in (sc.SLt(sc.lin({x1: 2}, -3)), sc.SEq(sc.lin({x1: 2}, -3))):
            for num, den in ((3, 2), (1, 2), (5, 2), (-3, 2)):
                ref = reference_scalars.s_subst(Q1, atom, x1,
                                                sc.lin_const(num), den)
                assert sc.s_subst(Q1, atom, x1, sc.lin_const(num), den) \
                    is ref


class TestCooperAgainstReference:
    """`qe._cooper` builds each substituted atom with its core and
    substitutes each distinct bound row once; `reference_qe.cooper` adds
    every shift with `lin_add` and substitutes every (bound, shift) pair
    through the old constructors.  On every Cooper call: the very same
    node, for no more budget charge."""

    LIMITS = TestGroundFold.LIMITS
    # the Z*Z*Z open projections past 200,000 charges (one past 1.5 million)
    SLOW = (28, 30, 34)

    def run_against_reference(self, monkeypatch, run):
        """run() with every `qe._cooper` call checked; how many calls,
        and on how many the charge fell."""
        library = qe._cooper
        seen = {"calls": 0, "fell": 0}

        def checked(g, v, f):
            with sc.budget_scope(10 ** 12) as want:
                ref = reference_qe.cooper(g, v, f)
            with sc.budget_scope(10 ** 12) as got:
                out = library(g, v, f)
            assert out is ref, (sc.print_scalar(f), v)
            assert got.used <= want.used, (sc.print_scalar(f), v)
            seen["calls"] += 1
            seen["fell"] += got.used < want.used
            return out

        monkeypatch.setattr(qe, "_cooper", checked)
        run()
        return seen

    @pytest.mark.parametrize("spec,seed,count", [
        ("Z", 101, 400), ("Z*Z", 102, 350), ("Z*Z*Z", 103, 300)])
    def test_crit01_corpora(self, monkeypatch, spec, seed, count):
        # criterion 01's corpora, each formula's existential closure
        # projected block by block (`qe.eliminate` walks or windows them
        # all, with no Cooper call)
        g = parse_group(spec)
        corpus = orc.fuzz_corpus(g, seed, count, limits=self.LIMITS,
                                 template="bounded")
        seen = self.run_against_reference(
            monkeypatch,
            lambda: [reference_qe.satisfiable(g, f) for f in corpus])
        assert seen["calls"] >= 50

    @pytest.mark.parametrize("spec", ["Z", "Z*Z", "Z*Z*Z"])
    def test_open_projections(self, monkeypatch, spec):
        # ∃x φ with y free; on Z*Z*Z (`scripts/open_projections.py`) all
        # but the slow three
        g = parse_group(spec)
        corpus = [f for f in orc.fuzz_corpus(g, 3, 80, limits=self.LIMITS,
                                             template="qf")
                  if fm.free_vars(f) == {"x", "y"}]
        if spec == "Z*Z*Z":
            assert len(corpus) == 36
            corpus = [f for i, f in enumerate(corpus) if i not in self.SLOW]
        seen = self.run_against_reference(
            monkeypatch,
            lambda: [qe.eliminate(g, fm.Exists("x", f)) for f in corpus])
        assert seen["calls"] >= 10
        if spec == "Z*Z*Z":  # two bounds a shift apart repeat a bound row
            assert seen["fell"] > 0


class TestPairWalk:
    """`same_points` and `_holds_somewhere` walk two forms' fibres
    together; `reference_qe` walks their exclusive or, substituting."""

    @staticmethod
    def sides(g, f, other):
        # both forms, a fibre of each without the first coordinate, and
        # the truth values
        a, b = qe.qf_form(g, f), qe.qf_form(g, other)
        out = [a, b, sc.TRUE, sc.FALSE]
        for psi in (a, b):
            if psi.fv:
                x = min(psi.fv, key=lambda w: (w.base, w.coord))
                out.append(reference_qe.s_subst_all(g, psi, {x: 1}))
        return out

    @pytest.mark.parametrize("spec", KINDS)
    def test_walk_agrees_with_the_exclusive_or(self, spec):
        g = parse_group(spec)
        verdicts = {}
        for scoped in (False, True):
            with sc.operation_scope() if scoped else nullcontext():
                for f, other in _one_variable_pairs(g, 7, 4):
                    sides = self.sides(g, f, other)
                    for a in sides:
                        got = cm.holds_somewhere(g, a)
                        assert got == reference_qe.holds_somewhere(g, a), a
                        verdicts["holds", got] = True
                    for a in sides:
                        for b in sides[:2]:
                            got = cm.same_points(g, a, b)
                            assert got == reference_qe.same_points(g, a, b), \
                                (a, b)
                            assert got == cm.same_points(g, b, a)
                            verdicts["same", got] = True
        assert len(verdicts) == 4


class TestWitness:
    def test_congruence_above_threshold(self):
        f = fm.parse(Z1, "(exists (x) (and (< (c 5) x) (congr 3 x (c 1))))")
        w = qe.witness(Z1, f)
        assert w is not None and w[0] > 5 and w[0] % 3 == 1
        assert orc.evaluate(Z1, fm.parse(Z1, "(and (< (c 5) x) "
                                              "(congr 3 x (c 1)))"),
                            {"x": w})

    def test_doubling_threshold(self):
        f = fm.parse(Z2, "(exists (x) (<= (c 1 1) (* 2 x)))")
        w = qe.witness(Z2, f)
        assert w is not None
        assert orc.evaluate(Z2, fm.parse(Z2, "(<= (c 1 1) (* 2 x))"),
                            {"x": w})

    def test_unsatisfiable(self):
        f = fm.parse(Z1, "(exists (x) (and (< x (c 0)) (< (c 0) x)))")
        assert qe.witness(Z1, f) is None

    def test_dense_witnesses(self):
        f = fm.parse(Q1, "(exists (x) (and (< (c 0) x) (< x (c 1))))")
        w = qe.witness(Q1, f)
        assert w is not None and 0 < w[0] < 1
        f = fm.parse(Q1, "(exists (x) (= (* 3 x) (c 1)))")
        assert qe.witness(Q1, f) == (Fraction(1, 3),)

    def test_mixed_group(self):
        f = fm.parse(ZQ, "(exists (x) (and (< (c 0 0) x) (< x (c 0 1))))")
        w = qe.witness(ZQ, f)
        assert w is not None and w[0] == 0 and 0 < w[1] < 1

    def test_quantified_body(self):
        f = fm.parse(Z1, "(exists (x) (forall (y) (implies (< x y) "
                         "(<= (c 6) y))))")
        w = qe.witness(Z1, f)
        assert w is not None and w[0] >= 5

    def test_input_validation(self):
        with pytest.raises(FormulaError):
            qe.witness(Z1, fm.parse(Z1, "(< x (c 0))"))
        with pytest.raises(FormulaError):
            qe.witness(Z1, fm.parse(Z1, "(exists (x) (< x y))"))

    @staticmethod
    def corpus(g):
        # one-variable formulas and sentences of every template, each
        # closed by its variable
        out = []
        for seed in (0, 1):
            for template in ("qf", "end-segment", "bounded"):
                for f in orc.fuzz_corpus(g, seed, 10, template=template):
                    free = fm.free_vars(f)
                    if len(free) <= 1:
                        out.append(fm.Exists(min(free, default="x"), f))
        return out

    @pytest.mark.parametrize("spec", ["1", "Z", "Q", "Z*Z", "Z*Q", "Q*Z",
                                      "Z*Q*Z"])
    def test_walk_agrees_with_the_eliminations(self, spec):
        # the reference eliminates the deeper coordinates for each one
        # and scans a candidate window
        g = parse_group(spec)
        found = set()
        for f in self.corpus(g):
            w = qe.witness(g, f)
            assert w == reference_qe.witness(g, f), fm.print_formula(f)
            found.add(w is None)
        assert found == {True, False}

    def test_eliminates_once_and_decides_nothing(self, monkeypatch):
        calls = {"eliminate": 0, "decide": 0}
        eliminate_scalar, decide = qe.eliminate_scalar, qe.decide

        def eliminating(g, f):
            calls["eliminate"] += 1
            return eliminate_scalar(g, f)

        def deciding(*args, **kwargs):
            calls["decide"] += 1
            return decide(*args, **kwargs)

        monkeypatch.setattr(qe, "eliminate_scalar", eliminating)
        monkeypatch.setattr(qe, "decide", deciding)
        f = fm.parse(ZQ, "(exists (x) (exists (y) (and (= x (* 2 y)) "
                         "(< (c 1 0) y) (congr 3 x (c 1 0)))))")
        w = qe.witness(ZQ, f)
        assert w == (4, 0)
        assert calls == {"eliminate": 1, "decide": 0}


class TestNnf:
    def test_shapes(self):
        x1 = sc.SVar("x", 1)
        x2 = sc.SVar("x", 2)
        lt_z = sc.SLt(sc.lin({x1: 1}))
        lt_q = sc.SLt(sc.lin({x2: 1}))
        assert qe.nnf(ZQ, sc.SNot(lt_z)) == sc.SLt(sc.lin({x1: -1}, -1))
        neg_dense = qe.nnf(ZQ, sc.SNot(lt_q))
        assert isinstance(neg_dense, sc.SOr)
        cg = sc.SCongr(3, sc.lin({x1: 1}))
        assert qe.nnf(ZQ, sc.SNot(cg)) == sc.SNot(cg)

    def test_only_congruences_stay_negated(self):
        for f in orc.fuzz_corpus(Z2, 71, 15, template="qf"):
            low = qe.nnf(Z2, fm.lower(Z2, f))

            def check(node):
                if isinstance(node, sc.SNot):
                    assert isinstance(node.body, sc.SCongr)
                elif isinstance(node, (sc.SAnd, sc.SOr)):
                    for it in node.items:
                        check(it)

            check(low)

    @pytest.mark.parametrize("spec, template", [
        ("Z", "bounded"), ("Z*Z", "bounded"), ("Z*Z*Z", "bounded"),
        ("Z", "qf"), ("Z*Z", "qf"), ("Z*Z*Z", "qf"), ("Q", "qf"),
        ("Z*Q", "qf"), ("Q*Z", "qf")])
    def test_only_congruences_stay_negated_on_the_corpora(self, monkeypatch,
                                                           spec, template):
        # the atom map does not check its input; Cooper's method and the
        # dense projection take nnf's output, in which only congruences
        # are negated: checked on every nnf call of the bounded formulas'
        # eliminations, and on both polarities of each lowered qf formula
        g = parse_group(spec)
        real, outputs = qe.nnf, []

        def recording(g, f, positive=True):
            outputs.append(real(g, f, positive))
            return outputs[-1]

        monkeypatch.setattr(qe, "nnf", recording)
        seed, count = (0, 100) if template == "bounded" else (3, 80)
        for f in orc.fuzz_corpus(g, seed, count, limits=TestGroundFold.LIMITS,
                                 template=template):
            if template == "qf":
                recording(g, fm.lower(g, f))
                recording(g, fm.lower(g, f), False)
            else:
                qe.eliminate(g, f)
        negated = 0
        todo, seen = list(outputs), set()
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            cls = node.__class__
            if cls is sc.SNot:
                assert node.body.__class__ is sc.SCongr, sc.print_scalar(node)
                negated += 1
            elif cls is sc.SAnd or cls is sc.SOr:
                todo.extend(node.items)
            else:
                assert cls in (sc.SBool, sc.SLt, sc.SEq, sc.SCongr), cls
        assert len(outputs) >= count // 2
        assert negated > 0 or "Z" not in spec

    def test_semantics_preserved(self):
        for f in orc.fuzz_corpus(Z2, 72, 10, template="qf"):
            low = fm.lower(Z2, f)
            neg = qe.nnf(Z2, sc.SNot(low))
            for a in box_elements(Z2, 2)[::3]:
                for b in box_elements(Z2, 2)[::5]:
                    env = fm.scalarize(Z2, {"x": a, "y": b})
                    names = {v.base for v in low.fv}
                    env = {k: val for k, val in env.items()
                           if k.base in names}
                    assert sc.s_eval(Z2, neg, env) == \
                        (not sc.s_eval(Z2, low, env))


class TestDifferentialSample:
    """Scaled-down version of the acceptance differential: sentences
    against expand_bounded, open formulas against the grid oracle."""

    def run_group(self, g, seed, count, bound):
        free_checked = sentences = 0
        corpus = orc.fuzz_corpus(g, seed, count, template="bounded")
        axes = {}
        for f in corpus:
            free = sorted(fm.free_vars(f))
            if not free:
                got = qe.decide(g, f)
                want = orc.expand_bounded(g, f)
                assert got == want, fm.print_formula(f)
                sentences += 1
                continue
            out = qe.eliminate(g, f)
            key = tuple(free)
            if key not in axes:
                axes[key] = (orc.grid_axes(g, free, bound),
                             orc.scalar_axes(g, free, bound))
            genv, senv = axes[key]
            want = orc.grid_eval(g, f, genv)
            got = orc.s_grid_eval(g, out.body, senv)
            assert got == want, fm.print_formula(f)
            free_checked += 1
        assert sentences and free_checked

    def test_z1(self):
        self.run_group(Z1, 81, 60, 6)

    def test_z2(self):
        self.run_group(Z2, 82, 40, 4)

    def test_z3(self):
        self.run_group(Z3, 83, 15, 3)


_SET = "(and (< (c 0 2) x) (congr 3 x (c 1 1)))"
_WIDER = "(and (< (c 0 0) x) (congr 3 x (c 1 1)))"

# each charges over 40 nodes on Z*Z; the two-variable `satisfiable`
# decides its closure
ONE_LIMIT = {
    "eliminate": ("(exists (y) (and (< y x) (= x (* 2 y))))",),
    "decide": ("(forall (x) (exists (y) (or (= x (* 2 y)) "
               "(= x (+ (* 2 y) (c 0 1))))))",),
    "satisfiable": (_SET,),
    "satisfiable-closed": ("(and (< x y) (congr 2 (+ x y) (c 1 0)))",),
    "equivalent": (_SET, _WIDER),
    "entails": (_SET, _WIDER),
    "witness": (f"(exists (x) {_SET})",),
}


class TestBudget:
    @pytest.mark.parametrize("case", sorted(ONE_LIMIT))
    def test_the_callers_scope_is_the_only_limit(self, case):
        """No `qe` function takes a budget: each charges the scope its
        caller opened, raises past a small limit, and answers under a
        scope without one as it does with no scope."""
        fn = getattr(qe, case.split("-")[0])
        assert "budget" not in inspect.signature(fn).parameters
        args = [fm.parse(Z2, text) for text in ONE_LIMIT[case]]
        want = fn(Z2, *args)
        with sc.budget_scope(None) as used:
            assert fn(Z2, *args) == want
        assert used.used > 40
        with sc.budget_scope(20):
            with pytest.raises(BudgetExceeded):
                fn(Z2, *args)

    def test_budget_aborts(self):
        f = fm.parse(Z3, "(exists (x) (and (< (c 0 0 -6) (* 5 x)) "
                         "(< (* 5 x) (c 0 0 6)) (exists (y) (and "
                         "(< (c 0 0 -6) (* 7 y)) (< (* 7 y) (c 0 0 6)) "
                         "(congr 8 (+ x y) z)))))")
        with sc.budget_scope(60):
            with pytest.raises(BudgetExceeded):
                qe.eliminate(Z3, f)
        out = qe.eliminate(Z3, f)
        assert sc.s_is_qf(out.body)
        # a scope without a limit inside a limited one keeps its limit
        with sc.budget_scope(60):
            with sc.budget_scope(None):
                with pytest.raises(BudgetExceeded):
                    qe.eliminate(Z3, f)

    @pytest.mark.parametrize("seed,count,index", [(12, 50, 43), (41, 10, 9)])
    def test_mixed_blow_ups_end_in_a_typed_error(self, seed, count, index):
        # bounded Q*Z formulas whose elimination grows without a useful
        # bound (a Cooper step, then a dense step, on the outer block);
        # a node budget turns them into BudgetExceeded within seconds
        f = orc.fuzz_corpus(QZ, seed, count, template="bounded")[index]
        with sc.budget_scope(10**5):
            with pytest.raises(BudgetExceeded):
                qe.eliminate(QZ, f)

    def test_huge_period_meets_the_budget(self):
        # Cooper's shifts 1..10^9+7 are built one row at a time, so the
        # budget is charged before the list of them could exhaust memory
        f = fm.parse(Z1, "(exists (x) (and (congr 1000000007 x (c 3)) "
                         "(< (c 0) x)))")
        start = time.process_time()
        with sc.budget_scope(10**4):
            with pytest.raises(BudgetExceeded):
                qe.decide(Z1, f)
        assert time.process_time() - start < 5

    HUGE = ("(congr 1000000007 x (c 3))", "(congr 1000000007 x (c 4))",
            "(congr 1000000007 (* 2 x) (c 6))")

    def test_huge_modulus_walk_meets_the_budget(self):
        # the walk takes a gap's 10^9+7 classes one at a time, charging
        # the budget for each: the first pair differs at its fourth
        # class, the second never does
        a, b, c = (fm.parse(Z1, t) for t in self.HUGE)
        for other, want in ((b, False), (c, None)):
            start = time.process_time()
            try:
                with sc.budget_scope(10**4):
                    got = qe.equivalent(Z1, a, other)
            except BudgetExceeded:
                got = None
            assert got == want
            assert time.process_time() - start < 5

    def test_huge_modulus_equiv_command(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(oagkit.__file__).parent.parent))
        for other in self.HUGE[1:]:
            proc = subprocess.run(
                [sys.executable, "-m", "oagkit", "equiv", "--group", "Z",
                 "--budget", "10000", self.HUGE[0], other, "--format",
                 "json"], capture_output=True, text=True, env=env,
                timeout=60)
            assert proc.returncode in (0, 1), proc.stderr
            assert "Traceback" not in proc.stderr
            assert json.loads(proc.stdout)["version"] == "oag-v1"


class TestScalarPrinter:
    def test_smoke(self):
        out = qe.eliminate(Z1, fm.parse(Z1, "(exists (y) (= x (* 2 y)))"))
        text = sc.print_scalar(out.body)
        assert "x.1" in text and "congr" in text

    # recorded before scalar constants became integers; dense atoms must
    # still print divided by their content, with the same fractions
    @pytest.mark.parametrize("spec,text,printed", [
        ("Q", "(exists (y) (and (< x (* 2 y)) (< (* 3 y) (c 1))))",
         "(< x.1 (c 2/3))"),
        ("Q", "(exists (y) (and (< (* 2 x) y) (< y (+ (* 4 z) (c 1)))))",
         "(< (+ x.1 (* -2 z.1)) (c 1/2))"),
        ("Q*Q", "(exists (y) (and (<= (* 3 x) y) (< y (c 1/2 2))))",
         "(or (< x.1 (c 1/6)) (and (= x.1 (c 1/6)) (< x.2 (c 2/3))) "
         "(and (or (< x.1 (c 1/6)) (= x.1 (c 1/6))) (< x.2 (c 2/3))) "
         "(and (or (< x.2 (c 2/3)) (= x.2 (c 2/3))) (< x.1 (c 1/6))))"),
        ("Q*Z", "(exists (y) (and (< (c 1/3 0) (* 2 y)) (= x (* 3 y))))",
         "(and (congr 3 x.2 (c 0)) (or (< (* -1 x.1) (c -1/2)) "
         "(and (= x.1 (c 1/2)) (< (* -1 x.2) (c 0)))))"),
        ("Z*Q", "(exists (y) (and (= x (* 2 y)) (< (* 3 y) (c 0 1))))",
         "(or (and (or (< x.1 (c 0)) (and (< x.1 (c 2)) (< (* -1 x.1) (c 2)) "
         "(< x.2 (c 2/3))) (and (= x.2 (c 2/3)) (< x.1 (c 0)))) "
         "(congr 2 x.1 (c 0))) (and (< x.1 (c 1)) (< (* -1 x.1) (c 1)) "
         "(< x.2 (c 2/3))))"),
    ], ids=["Q", "Q-two-vars", "Q*Q", "Q*Z", "Z*Q"])
    def test_dense_answers_print_fractions(self, spec, text, printed):
        g = parse_group(spec)
        out = qe.eliminate(g, fm.parse(g, text))
        assert sc.print_scalar(out.body) == printed


def _qf_atoms(f):
    while isinstance(f, (sc.SExists, sc.SForall)):
        f = f.body
    return sc.atoms(f)


@pytest.mark.parametrize("spec", ["Z*Q", "Q*Z", "Z*Q*Z"])
def test_scalar_constants_are_integers(spec):
    """Every atom of a lowered or eliminated formula has integer
    coefficients and an integer constant, and a dense order atom is
    coprime, an equation with a positive leading coefficient."""
    g = parse_group(spec)
    dense = 0
    for f in orc.fuzz_corpus(g, 29, 12, template="qf"):
        for phi in (f, fm.Exists("x", f)):
            for body in (fm.lower(g, phi), qe.eliminate(g, phi).body):
                for atom in _qf_atoms(body):
                    e = atom.expr
                    assert type(e.const) is int
                    assert all(type(c) is int for _, c in e.coeffs)
                    if isinstance(atom, sc.SCongr) or \
                            sc.atom_kind(g, e) == "Z":
                        continue
                    dense += 1
                    assert math.gcd(e.const, *(c for _, c in e.coeffs)) == 1
                    if isinstance(atom, sc.SEq):
                        assert e.coeffs[0][1] > 0
    assert dense > 0


MEMO_LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2,
                             window=6, max_den=2)


def _memo_corpus(g):
    """Sentences and one-free-variable formulas: bounded ones, and
    quantifier-free ones under an unbounded quantifier, which reach
    Cooper's method and the dense projection."""
    out = list(orc.fuzz_corpus(g, 41, 10, MEMO_LIMITS, template="bounded"))
    for f in orc.fuzz_corpus(g, 43, 10, MEMO_LIMITS, template="qf"):
        out.append(fm.Exists("x", f))
        out.append(fm.Forall("x", fm.Exists("y", f)))
    return out


def _answers(g, corpus):
    out = []
    for f in corpus:
        out.append(sc.print_scalar(qe.eliminate(g, f).body))
        if not fm.free_vars(f):
            out.append(qe.decide(g, f))
    return out


@pytest.mark.parametrize("spec", ["Z", "Z*Z", "Z*Q", "Q*Z"])
def test_operation_memo_is_transparent(spec):
    """decide and eliminate answer byte for byte the same inside one open
    operation scope, where each repeats through the memo, as with no
    scope at all."""
    g = parse_group(spec)
    corpus = _memo_corpus(g)
    assert any(not fm.free_vars(f) for f in corpus)
    assert any(fm.free_vars(f) for f in corpus)
    cold = _answers(g, corpus)
    assert sc.operation_memo() is None
    with sc.operation_scope():
        assert _answers(g, corpus) == cold
        # the second pass answers from the memo
        assert _answers(g, corpus) == cold
        assert sc.operation_memo()
    assert sc.operation_memo() is None


def _open_body(g, f):
    """The lowered body of an existential in NNF, its variable free: an
    open block for `qe._cooper` to project."""
    return qe.nnf(g, fm.lower(g, f.body))


def test_cooper_disjunction_stops_at_first_true(monkeypatch):
    """The first Cooper disjunct, x = 1, already satisfies the body: the
    remaining substitutions are never made."""
    f = fm.parse(Z1, "(exists (x) (and (< (c 0) x) (< x (c 100)) "
                     "(congr 12 x (c 1))))")
    body = _open_body(Z1, f)
    calls = []
    subst = qe.s_subst

    def counted(*args, **kwargs):
        calls.append(args[3])
        return subst(*args, **kwargs)

    monkeypatch.setattr(qe, "s_subst", counted)
    assert qe._cooper(Z1, sc.SVar("x", 1), body) is sc.TRUE
    # period 12 and one lower bound: 12 * (1 + 1) eagerly
    assert 0 < len(calls) < 12 * 2


def test_cooper_tries_infinity_rows_first(monkeypatch):
    """Only the fifth +infinity row, x = -5, satisfies the body, and no
    bound row does: the rows come first, so the body with its bounds is
    never substituted; interleaved, it was substituted 3 times for each
    of the first four residues."""
    f = fm.parse(Z1, "(exists (x) (and (congr 5 x (c 0)) (or "
                     "(< x (c 0)) (< x (c 5)) (< x (c 10)) (< (c 20) x) "
                     "(< (c 25) x) (< (c 30) x) (< (c 35) x))))")
    body = _open_body(Z1, f)
    calls, body_calls = [], []
    subst = qe.s_subst

    def counted(g, body, v, *args, **kwargs):
        calls.append(body)
        if any(isinstance(a, sc.SLt) and a.expr.coeff(v)
               for a in sc.atoms(body)):
            body_calls.append(body)
        return subst(g, body, v, *args, **kwargs)

    monkeypatch.setattr(qe, "s_subst", counted)
    assert qe._cooper(Z1, sc.SVar("x", 1), body) is sc.TRUE
    assert len(calls) > 0
    assert body_calls == []
    assert orc.evaluate(Z1, f.body, {"x": (-5,)})


def test_a_repeated_bound_row_is_substituted_once(monkeypatch):
    """Lower bounds y and y + 1 with period 3 give the bound rows y + 1,
    y + 2, y + 2, y + 3, y + 3 and y + 4; the repeats are disjuncts
    `mk_or` drops, so each distinct row is substituted once."""
    f = fm.parse(Z1, "(exists (x) (and (< y x) (< (+ y (c 1)) x) "
                     "(< x (+ y (c 10))) (< x (+ y (c 20))) "
                     "(congr 3 x (c 0))))")
    body, x = _open_body(Z1, f), sc.SVar("x", 1)
    rows = []
    subst = qe.s_subst

    def counted(g, f, v, repl, den=1):
        if repl.coeffs:
            rows.append(repl)
        return subst(g, f, v, repl, den)

    monkeypatch.setattr(qe, "s_subst", counted)
    with sc.budget_scope(None) as got:
        out = qe._cooper(Z1, x, body)
    with sc.budget_scope(None) as want:
        assert reference_qe.cooper(Z1, x, body) is out
    y = sc.SVar("y", 1)
    assert rows == [sc.lin({y: 1}, k) for k in (1, 2, 3, 4)]
    assert got.used < want.used


def test_two_variable_closed_block_is_projected(monkeypatch):
    """A closed block over two group variables with an atom in both is
    projected by Cooper's method, not walked."""
    calls = []
    cooper = qe._cooper

    def counted(*args):
        calls.append(args)
        return cooper(*args)

    monkeypatch.setattr(qe, "_cooper", counted)
    f = fm.parse(Z1, "(forall (x) (forall (y) (or (< x y) (<= y x))))")
    assert qe.decide(Z1, f) is True
    assert len(calls) > 0


class TestClosedOneVariableBlock:
    """`decide` answers a closed block over one group variable by the
    cell walk; `reference_qe.project_decide` projects it by Cooper's
    method and the dense projection, as every block once was."""

    GROUPS = ("Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Q*Q", "Z*Z*Z", "Z*Q*Z")

    @staticmethod
    def sentences(g):
        # the closures of each formula, and for a formula in one variable
        # the sentence is_end_segment decides: it equals its end hull
        for template in ("qf", "bounded", "end-segment"):
            for phi in orc.fuzz_corpus(g, 31, 10, MEMO_LIMITS,
                                       template=template):
                yield "exists", reference_qe._close(phi, fm.Exists)
                yield "forall", reference_qe._close(phi, fm.Forall)
                free = fm.free_vars(phi)
                if len(free) == 1:
                    v, = free
                    hull = sg.hull_form(g, phi, v)
                    yield "hull", fm.Forall(v, fm.Iff(phi, hull.denote(g, v)))

    def test_decide_agrees_with_the_projection(self):
        verdicts = set()
        for spec in self.GROUPS:
            g = parse_group(spec)
            for shape, f in self.sentences(g):
                got = qe.decide(g, f)
                assert got == reference_qe.project_decide(g, f), \
                    (spec, fm.print_formula(f))
                verdicts |= {(spec, got), (shape, got)}
        assert len(verdicts) == 2 * (len(self.GROUPS) + 3), verdicts


def test_lower_memo_returns_the_same_node():
    texts = [(Z2, "(forall (y) (or (< x y) (congr 3 (+ x y) (c 1 0))))"),
             (ZQ, "(exists (y) (and (le@ 1 x y) (= (* 2 y) (c 1 1/2))))")]
    for g, text in texts:
        f = fm.parse(g, text)
        outside = fm.lower(g, f)
        with sc.operation_scope():
            assert fm.lower(g, f) is outside
            assert fm.lower(g, f) is outside


def test_lower_memo_keys_apart_from_decide():
    """A closed atom is both a sentence and an atom: in one operation,
    deciding it gives a bool and lowering it gives a node."""
    atom = fm.parse(Z2, "(< (c 0 1) (c 1 0))")
    assert isinstance(atom, fm.ATOMS)
    for order in (("decide", "lower"), ("lower", "decide")):
        with sc.operation_scope():
            for step in order * 2:
                if step == "decide":
                    assert qe.decide(Z2, atom) is True
                else:
                    out = fm.lower(Z2, atom)
                    assert isinstance(out, sc.SBool) and out.value


def test_deep_iff_chain_eliminates():
    """The quantifier-free check of the answer visits each shared node
    once; as a tree walk it took seconds at 18 levels."""
    f = fm.parse(Z1, "(< (c 0) x)")
    for i in range(1, 41):
        f = fm.Iff(fm.parse(Z1, f"(< (c {i}) x)"), f)
    out = qe.eliminate(Z1, f)
    assert out.free == ("x",)
    assert sc.s_is_qf(out.body)
