"""Scalar-layer unit tests: canonicalization must preserve semantics."""

import gc
import random
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference_scalars as ref
from oagkit import qe
from oagkit import scalars as sc
from oagkit.errors import BudgetExceeded, FormulaError, OutputTooLarge
from oagkit.groups import parse_group

ZZ = parse_group("Z*Z")
ZQ = parse_group("Z*Q")

X1 = sc.SVar("x", 1)
X2 = sc.SVar("x", 2)
Y1 = sc.SVar("y", 1)


def le(coeffs, const=0):
    return sc.lin(coeffs, const)


class TestLinExpr:
    def test_merge_and_drop_zeros(self):
        e = sc.lin([(X1, 2), (X1, -2), (Y1, 3)], 5)
        assert e.coeffs == ((Y1, 3),)
        assert e.const == 5

    def test_arithmetic(self):
        # the library negates; the references keep addition and scaling
        a = le({X1: 2}, 1)
        b = le({X1: -2, Y1: 1}, 2)
        assert sc.lin_neg(b) == le({X1: 2, Y1: -1}, -2)
        assert ref.lin_add(a, b) == le({Y1: 1}, 3)
        assert ref.lin_scale(3, a) == le({X1: 6}, 3)

    def test_subst(self):
        # 2x + y + 1 at x = y - 1 is 3y - 1: discrete, content 3
        e = le({X1: 2, Y1: 1}, 1)
        repl = le({Y1: 1}, -1)
        assert sc.subst_parts(ZZ, e, X1, repl) == (True, ((Y1, 3),), -1, 3)
        assert ref.lin_subst(e, X1, repl) == le({Y1: 3}, -1)
        # den * e at x = repl/den, on a dense coordinate
        e = le({X2: 2, sc.SVar("y", 2): 4}, 1)
        assert sc.subst_parts(ZQ, e, X2, sc.lin_const(3), 2) == \
            (False, ((sc.SVar("y", 2), 8),), 8, 8)


class TestAtomConstructors:
    def test_lt_ground(self):
        assert sc.mk_lt(ZZ, sc.lin_const(-1)) == sc.TRUE
        assert sc.mk_lt(ZZ, sc.lin_const(0)) == sc.FALSE

    def test_lt_discrete_tightening(self):
        # 2x - 3 < 0 on integers means x <= 1, i.e. x - 2 < 0
        a = sc.mk_lt(ZZ, le({X1: 2}, -3))
        assert a == sc.SLt(le({X1: 1}, -2))

    def test_lt_dense_keeps_fraction(self):
        # 2x - 3 < 0 on a dense coordinate is stored as is and prints
        # divided by its content, with the fraction
        a = sc.mk_lt(ZQ, le({X2: 2}, -3))
        assert a == sc.SLt(le({X2: 2}, -3))
        assert sc.print_scalar(a) == "(< x.2 (c 3/2))"
        assert sc.mk_lt(ZQ, le({X2: 4}, -6)) is a

    def test_le_discrete(self):
        # x <= 0 becomes x - 1 < 0
        a = sc.mk_le(ZZ, le({X1: 1}))
        assert a == sc.SLt(le({X1: 1}, -1))

    def test_le_dense_is_disjunction(self):
        a = sc.mk_le(ZQ, le({X2: 1}))
        assert isinstance(a, sc.SOr)

    def test_eq_content_unsatisfiable_on_z(self):
        assert sc.mk_eq(ZZ, le({X1: 2}, -3)) == sc.FALSE

    def test_eq_sign_normalized(self):
        a = sc.mk_eq(ZQ, le({X2: -2}, 3))
        b = sc.mk_eq(ZQ, le({X2: 2}, -3))
        assert a == b

    def test_congr_reductions(self):
        assert sc.mk_congr(ZZ, 1, le({X1: 5}, 7)) == sc.TRUE
        assert sc.mk_congr(ZZ, 6, le({X1: 4}, 2)) == \
            sc.SCongr(3, le({X1: 2}, 1))
        assert sc.mk_congr(ZZ, 2, le({X1: 2}, 1)) == sc.FALSE
        # dense coordinate: every congruence holds
        assert sc.mk_congr(ZQ, 5, le({X2: 3}, 1)) == sc.TRUE

    def test_congr_ground(self):
        assert sc.mk_congr(ZZ, 3, sc.lin_const(6)) == sc.TRUE
        assert sc.mk_congr(ZZ, 3, sc.lin_const(7)) == sc.FALSE
        assert sc.mk_congr(ZZ, 3, sc.lin_const(Fraction(1, 2))) == sc.FALSE


class TestCoresAgainstReference:
    """The constructors as wrappers over the cores, `qe.nnf`'s negation
    of a literal and the cores on `subst_parts` against the old code in
    `reference_scalars`, which normalizes a built expression: the very
    same node for the same budget charge."""

    Y2 = sc.SVar("y", 2)

    def exprs(self, seed, scales):
        """Random expressions over x and y on coordinate 1 (discrete)
        and 2 (dense on Z*Q), ground ones included; the coefficients are
        multiples of one of scales, so contents above 1 occur."""
        rng = random.Random(seed)
        for _ in range(400):
            v, w = (X1, Y1) if rng.random() < 0.5 else (X2, self.Y2)
            k = rng.choice(scales)
            coeffs = {v: rng.randint(-6, 6) * k, w: rng.randint(-6, 6) * k}
            yield sc.lin(coeffs, rng.randint(-20, 20))

    @staticmethod
    def group(e):
        """Z*Z for a discrete or ground e, Z*Q for a dense one."""
        return ZQ if e.coeffs and e.coeffs[0][0].coord == 2 else ZZ

    def same(self, build, reference):
        with sc.budget_scope(None) as want:
            expected = reference()
        with sc.budget_scope(None) as got:
            out = build()
        assert out is expected
        assert got.used == want.used
        return out

    def test_constructors(self):
        for e in self.exprs(1, (1, 2, 3, 6)):
            g = self.group(e)
            self.same(lambda: sc.mk_lt(g, e), lambda: ref.mk_lt(g, e))
            self.same(lambda: sc.mk_le(g, e), lambda: ref.mk_le(g, e))
            self.same(lambda: sc.mk_eq(g, e), lambda: ref.mk_eq(g, e))
            for m in (1, 2, 4, 6, 7, 12):
                self.same(lambda: sc.mk_congr(g, m, e),
                          lambda: ref.mk_congr(g, m, e))

    def test_mixed_sorts_raise(self):
        e = le({X1: 2, X2: 1}, 1)
        for build in (sc.mk_lt, sc.mk_le, sc.mk_eq, ref.mk_lt, ref.mk_le,
                      ref.mk_eq, lambda g, e: sc.mk_congr(g, 3, e),
                      lambda g, e: ref.mk_congr(g, 3, e)):
            with pytest.raises(FormulaError, match="mixes sorts"):
                build(ZQ, e)

    def test_negated_literals(self):
        shapes = set()
        atoms = [sc.SLt(sc.lin_const(k)) for k in (-1, 0, 2)]
        for e in self.exprs(2, (1, 2, 5)):
            g = self.group(e)
            atoms += [sc.SLt(e), sc.SEq(e), sc.mk_lt(g, e), sc.mk_eq(g, e)]
        for a in atoms:
            if a.__class__ is sc.SBool:
                continue
            g = self.group(a.expr)
            out = self.same(lambda: qe.nnf(g, a, positive=False),
                            lambda: ref.negate(g, a))
            self.same(lambda: qe.nnf(g, sc.SNot(a)), lambda: ref.negate(g, a))
            shapes.add((a.__class__, g is ZZ, out.__class__))
        # discrete and dense SLt and SEq, and a ground SLt built directly
        assert {(sc.SLt, True, sc.SLt), (sc.SLt, False, sc.SOr),
                (sc.SEq, True, sc.SOr), (sc.SEq, False, sc.SOr),
                (sc.SLt, True, sc.SBool)} <= shapes

    def test_subst_parts(self):
        # the parts of den * e at v = repl/den are those of the expression
        # `lin_subst` builds, and each core builds its atom from them
        rng = random.Random(3)
        exprs = list(self.exprs(4, (1, 2)))
        on = {j: [r for r in exprs if all(w.coord == j for w in r.vars_set)]
              for j in (1, 2)}
        count = 0
        for e in exprs:
            g = self.group(e)
            for v in e.vars_set:
                repl = rng.choice(on[v.coord])
                den = rng.choice((1, 1, 2, 3))
                r = ref.lin_subst(e, v, repl, den)
                parts = sc.subst_parts(g, e, v, repl, den)
                assert parts == (v.coord == 1, r.coeffs, r.const,
                                 sc._content(r))
                self.same(lambda: sc.lt_core(*parts), lambda: ref.mk_lt(g, r))
                self.same(lambda: sc.eq_core(*parts), lambda: ref.mk_eq(g, r))
                for m in (2, 6):
                    self.same(lambda: sc.congr_core(m, *parts),
                              lambda: ref.mk_congr(g, m, r))
                count += bool(r.coeffs) and repl.coeffs != ()
        assert count >= 100


class TestConnectives:
    def test_and_absorb_flatten(self):
        a = sc.SLt(le({X1: 1}))
        b = sc.SLt(le({Y1: 1}))
        assert sc.mk_and([a, sc.TRUE, b]) == sc.SAnd((a, b))
        assert sc.mk_and([a, sc.FALSE]) == sc.FALSE
        assert sc.mk_and([sc.mk_and([a, b]), a]) == sc.SAnd((a, b))
        assert sc.mk_and([]) == sc.TRUE

    def test_or_dual(self):
        a = sc.SLt(le({X1: 1}))
        assert sc.mk_or([a, sc.TRUE]) == sc.TRUE
        assert sc.mk_or([a, sc.FALSE]) == a
        assert sc.mk_or([]) == sc.FALSE

    def test_not(self):
        a = sc.SLt(le({X1: 1}))
        assert sc.mk_not(sc.mk_not(a)) == a
        assert sc.mk_not(sc.TRUE) == sc.FALSE

    def test_quantifier_over_ground(self):
        assert sc.mk_exists(X1, sc.TRUE) == sc.TRUE
        assert sc.mk_forall(X1, sc.FALSE) == sc.FALSE


class TestTraversal:
    def test_free_vars(self):
        f = sc.SExists(X1, sc.SAnd((sc.SLt(le({X1: 1, Y1: -1})),
                                    sc.SEq(le({X2: 1})))))
        assert f.fv == {Y1, X2}

    def test_subst_renormalizes(self):
        f = sc.SLt(le({X1: 1, Y1: -1}))
        assert sc.s_subst(ZZ, f, X1, sc.lin_var(Y1)) == sc.FALSE

    def test_subst_under_capture_raises(self):
        f = sc.SExists(X1, sc.SLt(le({X1: 1, Y1: -1})))
        with pytest.raises(Exception):
            sc.s_subst(ZZ, f, Y1, sc.lin_var(X1))

    def test_eval(self):
        f = sc.SAnd((sc.SLt(le({X1: 1}, -2)), sc.SCongr(3, le({X1: 1}, 1))))
        assert sc.s_eval(ZZ, f, {X1: -1})
        assert not sc.s_eval(ZZ, f, {X1: 0})

    def test_eval_congr_fraction_false(self):
        f = sc.SCongr(2, le({X2: 1}))
        assert not sc.s_eval(ZQ, f, {X2: Fraction(1, 2)})
        assert sc.s_eval(ZQ, f, {X2: 4})

    def test_atoms_preorder_once_and_under_negation(self):
        a = sc.SLt(le({X1: 1}, -2))
        b = sc.SEq(le({Y1: 1}))
        c = sc.SCongr(3, le({X1: 1}, 1))
        shared = sc.SOr((b, c))
        # the shared disjunction is reached twice, once under a negation
        # of a compound formula
        f = sc.SAnd((sc.SNot(shared), a, shared, sc.SNot(a)))
        assert sc.atoms(f) == [b, c, a]
        assert sc.atoms(sc.TRUE) == []

    def test_roots_and_modulus_read_one_variable(self):
        f = sc.SAnd((sc.SLt(le({X1: 2}, -3)), sc.SCongr(3, le({X1: 1}, 1)),
                     sc.SNot(sc.SEq(le({X1: 1}, 1))),
                     sc.SCongr(4, le({Y1: 1})), sc.SLt(le({Y1: 1}, 5))))
        assert sc.roots_and_modulus(f, X1) == ([Fraction(-1), Fraction(3, 2)],
                                               3)
        assert sc.roots_and_modulus(f, Y1) == ([Fraction(-5)], 4)
        # on a discrete coordinate a root is the int floor of its value
        roots, _ = sc.roots_and_modulus(f, X1, discrete=True)
        assert roots == [-1, 1]
        assert [type(r) for r in roots] == [int, int]
        assert [type(r) for r in sc.roots_and_modulus(f, X1)[0]] \
            == [Fraction, Fraction]
        with pytest.raises(AssertionError):
            sc.roots_and_modulus(sc.SEq(le({X1: 1, Y1: -1})), X1)


class TestPrinter:
    def test_shared_dag_too_large_to_print_raises(self):
        # each level doubles the printed tree, not the DAG: 2**60 atoms
        f = sc.SLt(le({X1: 1}))
        for i in range(60):
            a, b = sc.SLt(le({Y1: 1}, i)), sc.SLt(le({Y1: -1}, i))
            f = sc.SOr((sc.SAnd((a, f)), sc.SAnd((b, f))))
        with pytest.raises(OutputTooLarge, match="more than the limit"):
            sc.print_scalar(f)

    def test_limit_is_inclusive(self, monkeypatch):
        a = sc.SLt(le({X1: 1}))
        f = sc.SOr((sc.SAnd((a, sc.SLt(le({Y1: 1})))), a))
        text = "(or (and (< x.1 (c 0)) (< y.1 (c 0))) (< x.1 (c 0)))"
        monkeypatch.setattr(sc, "PRINT_LIMIT", len(text))
        assert sc.print_scalar(f) == text
        monkeypatch.setattr(sc, "PRINT_LIMIT", len(text) - 1)
        with pytest.raises(OutputTooLarge):
            sc.print_scalar(f)


class TestIsQf:
    def test_shared_dag_is_walked_once(self):
        # 2**200 paths through 400 distinct nodes
        f = sc.SLt(le({X1: 1}))
        for i in range(200):
            a, b = sc.SLt(le({Y1: 1}, i)), sc.SLt(le({Y1: -1}, i))
            f = sc.SOr((sc.SAnd((a, f)), sc.SAnd((b, sc.SNot(f)))))
        assert sc.s_is_qf(f)
        assert not sc.s_is_qf(sc.SAnd((f, sc.SExists(X1, f))))


class TestDeepChains:
    """Chains ten times deeper than the default recursion limit, built
    with the node constructors, through every walked traversal."""

    DEPTH = 10_000
    Z = parse_group("Z")
    X = sc.SVar("x", 1)
    ATOM = sc.SLt(le({X: 1}, -3))  # x < 3

    @pytest.fixture(scope="class")
    def nots(self):
        out = [self.ATOM]
        for _ in range(self.DEPTH + 1):
            out.append(sc.SNot(out[-1]))
        return out[-2:]  # DEPTH and DEPTH + 1 negations

    @pytest.fixture(scope="class")
    def chain(self):
        # level i: x < 10 + i and ..., or x >= i or ...; at the bottom
        # x = 5.  It holds exactly when 1 <= x <= 9, and constant-side
        # bounds pin x into 1..9.
        atoms, texts = [], []
        for i in range(self.DEPTH):
            if i % 2 == 0:
                atoms.append(sc.SLt(le({self.X: 1}, -10 - i)))
                texts.append(f"(and (< x.1 (c {10 + i})) ")
            else:
                atoms.append(sc.SLt(le({self.X: -1}, i - 1)))
                texts.append(f"(or (< (* -1 x.1) (c {1 - i})) ")
        leaf = sc.SEq(le({self.X: 1}, -5))
        f = leaf
        for i in reversed(range(self.DEPTH)):
            f = (sc.SAnd if i % 2 == 0 else sc.SOr)((atoms[i], f))
        text = "".join(texts) + "(= x.1 (c 5))" + ")" * self.DEPTH
        return f, atoms + [leaf], text

    def test_negations(self, nots):
        even, odd = nots
        negated = sc.mk_le(self.Z, sc.lin_neg(self.ATOM.expr))
        assert qe.nnf(self.Z, even) is self.ATOM
        assert qe.nnf(self.Z, odd) is negated
        assert qe.nnf(self.Z, odd, positive=False) is self.ATOM
        for t in (-4, 2, 3, 7):
            assert sc.s_eval(self.Z, even, {self.X: t}) == (t < 3)
            assert sc.s_eval(self.Z, odd, {self.X: t}) == (t >= 3)
        assert sc.atoms(even) == [self.ATOM]
        assert qe.eliminate_scalar(self.Z, even) is self.ATOM
        assert qe.eliminate_scalar(self.Z, odd) is sc.SNot(self.ATOM)
        assert sc.s_is_qf(odd)
        assert sc.print_scalar(even) == \
            "(not " * self.DEPTH + "(< x.1 (c 3))" + ")" * self.DEPTH

    def test_alternating_chain(self, chain, monkeypatch):
        f, atoms, text = chain
        assert qe.nnf(self.Z, f) is f
        dual = qe.nnf(self.Z, sc.SNot(f))
        for t in (-3, 0, 1, 5, 9, 10, 10 ** 6):
            assert sc.s_eval(self.Z, f, {self.X: t}) == (1 <= t <= 9)
            assert sc.s_eval(self.Z, dual, {self.X: t}) != (1 <= t <= 9)
        assert sc.atoms(f) == atoms
        assert qe.eliminate_scalar(self.Z, f) is f
        assert qe._constant_window(self.X, f) == (1, 9)
        assert sc.s_is_qf(f)
        assert sc.print_scalar(f) == text
        monkeypatch.setattr(sc, "PRINT_LIMIT", len(text) - 1)
        with pytest.raises(OutputTooLarge):
            sc.print_scalar(f)

    def test_substitution_into_a_deep_chain(self):
        # 3,000 alternating levels, each an atom x + y < i over a leaf
        # x + y = 0: x := 5 gives the same chain over y alone
        y = sc.SVar("y", 1)
        f = sc.mk_eq(self.Z, le({self.X: 1, y: 1}))
        want = sc.mk_eq(self.Z, le({y: 1}, 5))
        for i in range(3000):
            mk = sc.mk_and if i % 2 else sc.mk_or
            f = mk([sc.mk_lt(self.Z, le({self.X: 1, y: 1}, -i)), f])
            want = mk([sc.mk_lt(self.Z, le({y: 1}, 5 - i)), want])
        out = sc.s_subst(self.Z, f, self.X, sc.lin_const(5))
        assert out is want
        assert out.fv == {y}

    def test_quantifier_beside_the_chain(self, chain):
        f, _, _ = chain
        deep = f
        for _ in range(self.DEPTH):
            deep = sc.SNot(deep)
        y = sc.SVar("y", 1)
        g = sc.SExists(y, sc.SLt(le({y: 1})))  # true
        assert not sc.s_is_qf(sc.SAnd((deep, g)))
        assert qe.eliminate_scalar(self.Z, sc.SAnd((deep, g))) is f
        # a true disjunct stops the walk before the chain: nothing of
        # it is built
        with sc.budget_scope(None) as budget:
            assert qe.eliminate_scalar(self.Z, sc.SOr((g, deep))) is sc.TRUE
        assert budget.used < 10


class TestIntern:
    """The hash-consing kernel: one live object per structure, kept in
    per-class tables of weak references that shrink as objects die."""

    NODES = (sc.SBool, sc.SLt, sc.SEq, sc.SCongr, sc.SNot, sc.SAnd, sc.SOr,
             sc.SExists, sc.SForall)

    def samples(self):
        """(node, field) for one node of every class."""
        e = le({X1: 2, Y1: -1}, 3)
        lt, eq = sc.SLt(e), sc.SEq(e)
        return [(sc.TRUE, "value"), (lt, "expr"), (eq, "expr"),
                (sc.SCongr(5, e), "modulus"), (sc.SNot(lt), "body"),
                (sc.SAnd((lt, eq)), "items"), (sc.SOr((lt, eq)), "items"),
                (sc.SExists(X1, lt), "var"), (sc.SForall(Y1, eq), "body")]

    def test_equal_structures_are_one_object(self):
        # equal SVars built apart are one object, and key the same entries
        x, y = sc.SVar("x", 1), sc.SVar("y", 1)
        e = sc.LinExpr(((X1, 2), (Y1, -1)), 3)
        assert x is X1
        assert sc.LinExpr([(x, 2), (y, -1)], 3) is e
        assert sc.lin({y: -1, x: 2}, 3) is e
        assert sc.lin([(Y1, -1), (X1, 1), (X1, 1)], 3) is e
        assert sc.lin_neg(sc.lin_neg(e)) is e
        assert e.vars_set == {X1, Y1}
        lt, eq = sc.SLt(e), sc.SEq(e)
        congr = sc.SCongr(5, sc.LinExpr(((X1, 2), (Y1, 4)), 3))
        pairs = [
            (sc.SBool(1), sc.TRUE), (sc.SBool([]), sc.FALSE),
            (sc.mk_lt(ZZ, e), lt), (sc.mk_eq(ZZ, e), eq),
            (sc.mk_congr(ZZ, 5, e), congr), (sc.SCongr(5.0, congr.expr), congr),
            (sc.mk_not(lt), sc.SNot(lt)),
            (sc.mk_and([lt, eq]), sc.SAnd([lt, eq])),
            (sc.mk_or(iter([eq, lt])), sc.SOr((eq, lt))),
            (sc.mk_exists(x, lt), sc.SExists(X1, lt)),
            (sc.mk_forall(y, eq), sc.SForall(Y1, eq)),
        ]
        for a, b in pairs:
            assert a is b
        # one key in two classes gives two nodes
        assert lt is not eq
        assert sc.SAnd((lt, eq)) is not sc.SOr((lt, eq))
        assert sc.SExists(X1, lt) is not sc.SForall(X1, lt)
        fvs = [frozenset(), frozenset(), {X1, Y1}, {X1, Y1}, {X1, Y1},
               {X1, Y1}, {X1, Y1}, {X1, Y1}, {X1, Y1}, {Y1}, {X1}]
        assert [b.fv for _, b in pairs] == fvs

    def test_tables_shrink_back_when_objects_die(self):
        gc.collect()
        tables = [sc.LinExpr._table] + [cls._table for cls in self.NODES]
        before = [len(t) for t in tables]
        v = sc.SVar("transient", 1)
        live = []
        for i in range(10 ** 4):
            e = sc.LinExpr(((v, 1),), 10 ** 9 + i)
            lt, eq = sc.SLt(e), sc.SEq(e)
            live += [sc.SCongr(7, e), sc.SNot(lt), sc.SAnd((lt, eq)),
                     sc.SOr((eq, lt)), sc.SExists(v, lt), sc.SForall(v, eq)]
        grown = [len(t) - n for t, n in zip(tables, before)]
        assert grown == [10 ** 4, 0] + [10 ** 4] * 8
        del live, e, lt, eq
        assert [len(t) for t in tables] == before

    def test_a_late_callback_keeps_the_newer_entry(self):
        e = le({X1: 1}, -(10 ** 9))
        table = sc.SLt._table
        old = sc.SLt(e)
        stale = table[e]
        callback = stale.__callback__
        del old
        assert stale() is None and e not in table
        # the dead reference is still in the table, its callback not yet
        # run: the constructor builds anew and replaces the entry
        table[e] = stale
        new = sc.SLt(e)
        fresh = table[e]
        assert fresh is not stale and fresh() is new
        callback(stale)
        assert table[e] is fresh and sc.SLt(e) is new
        del new
        assert e not in table

    def test_objects_are_immutable(self):
        e = le({X1: 1}, 2)
        for obj, field in [(X1, "base"), (e, "const")] + self.samples():
            before = getattr(obj, field)
            for name in (field, "fv", "other"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
            assert getattr(obj, field) is before

    def test_objects_are_weakly_referenceable(self):
        objs = [le({X1: 1}, 2)] + [node for node, _ in self.samples()]
        keys = weakref.WeakKeyDictionary()
        for obj in objs:
            assert weakref.ref(obj)() is obj
            keys[obj] = True
        assert len(keys) == len(objs) == 10


    def test_svars_are_interned_weakly(self):
        gc.collect()
        table = sc.SVar._table
        before = len(table)
        assert sc.SVar("x", 1) is X1 and sc.SVar("t", 3) is sc.SVar("t", 3)
        assert weakref.ref(X1)() is X1
        live = [sc.SVar(f"transient{i}", 1 + i % 3) for i in range(10 ** 4)]
        assert len(table) == before + 10 ** 4
        assert [sc.SVar(v.base, v.coord) for v in live] == live
        assert all(a is b for a, b in zip(live, [
            sc.SVar(f"transient{i}", 1 + i % 3) for i in range(10 ** 4)]))
        del live
        assert len(table) == before


class TestOperationScope:
    def test_nested_scope_joins_the_outermost(self):
        assert sc.operation_memo() is None
        with sc.operation_scope():
            memo = sc.operation_memo()
            memo["k"] = 1
            with sc.operation_scope():
                assert sc.operation_memo() is memo
            assert sc.operation_memo() is memo
        assert sc.operation_memo() is None

    def test_memo_dropped_on_exception(self):
        @sc.operation
        def fails():
            sc.operation_memo()["k"] = 1
            raise ValueError("inside the operation")

        with pytest.raises(ValueError):
            fails()
        assert sc.operation_memo() is None

    def test_memo_is_thread_local(self):
        seen = []
        with sc.operation_scope():
            t = threading.Thread(
                target=lambda: seen.append(sc.operation_memo()))
            t.start()
            t.join()
        assert seen == [None]


class TestBudget:
    def test_budget_trips(self):
        with pytest.raises(BudgetExceeded):
            with sc.budget_scope(10):
                for _ in range(100):
                    sc.mk_lt(ZZ, le({X1: 1}, -1))

    def test_budget_scope_restores(self):
        with sc.budget_scope(10**9):
            pass
        for _ in range(100):
            sc.mk_lt(ZZ, le({X1: 1}, -1))

    def test_unlimited_scope_joins_an_open_one(self):
        # an inner call passing no budget keeps the caller's limit; at
        # the top an unlimited scope still counts
        with sc.budget_scope(10) as outer:
            with sc.budget_scope(None) as inner:
                assert inner is outer
                with pytest.raises(BudgetExceeded):
                    for _ in range(100):
                        sc.mk_lt(ZZ, le({X1: 1}, -1))
        assert outer.used == 11
        with sc.budget_scope(None) as top:
            with sc.budget_scope(None) as inner:
                sc.mk_lt(ZZ, le({X1: 1}, -1))
        assert inner is top and top.used == 1


@given(st.integers(-9, 9), st.integers(-30, 30), st.integers(-40, 40))
def test_lt_canonicalization_sound_on_z(a, c, x):
    e = sc.lin({X1: a}, c)
    f = sc.mk_lt(ZZ, e)
    want = a * x + c < 0
    got = f.value if isinstance(f, sc.SBool) else sc.s_eval(ZZ, f, {X1: x})
    assert got == want


@given(st.integers(-9, 9), st.integers(-30, 30), st.fractions(
    min_value=-10, max_value=10, max_denominator=8))
def test_lt_canonicalization_sound_on_q(a, c, x):
    e = sc.lin({X2: a}, c)
    f = sc.mk_lt(ZQ, e)
    want = a * x + c < 0
    got = f.value if isinstance(f, sc.SBool) else sc.s_eval(ZQ, f, {X2: x})
    assert got == want


@given(st.integers(-9, 9), st.integers(-30, 30), st.integers(2, 12),
       st.integers(-40, 40))
def test_congr_canonicalization_sound(a, c, m, x):
    e = sc.lin({X1: a}, c)
    f = sc.mk_congr(ZZ, m, e)
    want = (a * x + c) % m == 0
    got = f.value if isinstance(f, sc.SBool) else sc.s_eval(ZZ, f, {X1: x})
    assert got == want


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-30, 30),
       st.integers(-12, 12), st.integers(-12, 12))
def test_eq_canonicalization_sound(a, b, c, x, y):
    e = sc.lin({X1: a, Y1: b}, c)
    f = sc.mk_eq(ZZ, e)
    want = a * x + b * y + c == 0
    got = f.value if isinstance(f, sc.SBool) else \
        sc.s_eval(ZZ, f, {X1: x, Y1: y})
    assert got == want
