"""Oracle semantics: pointwise truth, bounded expansion, grids, fuzz."""

from fractions import Fraction

import numpy as np
import pytest

from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit.errors import OracleError
from oagkit.groups import parse_group

Z1 = parse_group("Z")
Z2 = parse_group("Z*Z")
Q1 = parse_group("Q")
ZQ = parse_group("Z*Q")


class TestEvaluate:
    def test_lex_comparison(self):
        f = fm.parse(Z2, "(< (c 1 -1) (* 2 x))")
        assert orc.evaluate(Z2, f, {"x": (1, 0)})
        assert not orc.evaluate(Z2, f, {"x": (0, 5)})

    def test_relative_congruence(self):
        f = fm.parse(Z2, "(congr@ 1 2 x b)")
        assert orc.evaluate(Z2, f, {"x": (3, 4), "b": (1, 0)})
        assert not orc.evaluate(Z2, f, {"x": (2, 4), "b": (1, 0)})

    def test_dense_divisibility(self):
        f = fm.parse(Q1, "(congr 3 x (c 0))")
        assert orc.evaluate(Q1, f, {"x": (Fraction(1, 2),)})

    def test_relative_comparison(self):
        f = fm.parse(Z2, "(le@ 1 x y)")
        assert orc.evaluate(Z2, f, {"x": (1, 100), "y": (1, -100)})
        assert not orc.evaluate(Z2, f, {"x": (2, 0), "y": (1, 0)})

    def test_quantifier_rejected(self):
        f = fm.parse(Z1, "(exists (x) (< x y))")
        with pytest.raises(OracleError):
            orc.evaluate(Z1, f, {"y": (0,)})

    def test_unbound_variable(self):
        f = fm.parse(Z1, "(< x y)")
        with pytest.raises(Exception):
            orc.evaluate(Z1, f, {"x": (0,)})


class TestExpandBounded:
    def test_congruence_witness(self):
        f = fm.parse(Z1,
                     "(exists (x) (and (<= (c 0) x) (<= x (c 5)) "
                     "(congr 3 x (c 1))))")
        assert orc.expand_bounded(Z1, f) is True

    def test_no_witness(self):
        f = fm.parse(Z1,
                     "(exists (x) (and (<= (c 0) x) (<= x (c 5)) "
                     "(congr 7 x (c 6))))")
        assert orc.expand_bounded(Z1, f) is False

    def test_interval_without_divisible_element(self):
        f = fm.parse(Z2, "(exists (x) (and (< (c 1 -1) (* 2 x)) "
                         "(< (* 2 x) (c 1 4))))")
        assert orc.expand_bounded(Z2, f) is False

    def test_widened_interval_has_divisible_element(self):
        f = fm.parse(Z2, "(exists (x) (and (< (c 2 -1) (* 2 x)) "
                         "(< (* 2 x) (c 2 4))))")
        assert orc.expand_bounded(Z2, f) is True

    def test_forall_implication(self):
        f = fm.parse(Z1, "(forall (x) (implies (and (<= (c 0) x) "
                         "(<= x (c 3))) (< x (c 5))))")
        assert orc.expand_bounded(Z1, f) is True

    def test_unbounded_rejected(self):
        f = fm.parse(Z1, "(exists (x) (< (c 0) x))")
        with pytest.raises(OracleError):
            orc.expand_bounded(Z1, f)

    def test_prefix_mismatch_is_unbounded(self):
        f = fm.parse(Z2, "(exists (x) (and (<= (c 0 0) x) (<= x (c 1 0)) "
                         "(= x x)))")
        with pytest.raises(OracleError):
            orc.expand_bounded(Z2, f)

    def test_dense_singleton_window(self):
        f = fm.parse(ZQ, "(exists (x) (and (<= (c 1 1/2) (* 2 x)) "
                         "(<= (* 2 x) (c 1 1/2)) (= x (c 0 0))))")
        assert orc.expand_bounded(ZQ, f) is False
        h = fm.parse(ZQ, "(exists (x) (and (<= (c 2 1/2) (* 2 x)) "
                         "(<= (* 2 x) (c 2 1/2)) (= (* 4 x) (c 4 1))))")
        assert orc.expand_bounded(ZQ, h) is True

    def test_negative_multiplier_bounds(self):
        # 0 <= -2x <= 6 pins x to {-3,-2,-1,0}
        f = fm.parse(Z1, "(exists (x) (and (<= (c 0) (* -2 x)) "
                         "(<= (* -2 x) (c 6)) (= x (c -2))))")
        assert orc.expand_bounded(Z1, f) is True

    def test_nested_quantifiers(self):
        f = fm.parse(Z1,
                     "(exists (x) (and (<= (c 0) x) (<= x (c 3)) "
                     "(forall (y) (implies (and (<= (c 0) y) (<= y x)) "
                     "(<= y (c 3))))))")
        assert orc.expand_bounded(Z1, f) is True

    def test_free_variable_table(self):
        f = fm.parse(Z1, "(exists (x) (and (<= (c 0) x) (<= x z) "
                         "(congr 2 x (c 1))))")
        table = orc.expand_bounded(Z1, f, box=orc.Box(3))
        assert len(table) == 7
        assert table[(("z", (1,)),)] is True
        assert table[(("z", (0,)),)] is False

    def test_ground_sentences_match_evaluate(self):
        for f in orc.fuzz_corpus(Z2, 41, 15, template="qf"):
            bound = f
            for v in sorted(fm.free_vars(f)):
                bound = fm.substitute(Z2, bound, v, fm.t_const((1, -2)))
            env = {v: (1, -2) for v in fm.free_vars(f)}
            assert orc.expand_bounded(Z2, bound) == orc.evaluate(Z2, f, env)


class TestBox:
    def test_sizes(self):
        assert orc.Box(2).size(Z2) == 25
        rats = orc.Box(2).coord_values("Q")
        assert set(rats) == {Fraction(p, q) for p in range(-2, 3)
                             for q in (1, 2)}
        assert orc.Box(2).size(ZQ) == 5 * len(rats)

    def test_cap(self):
        with pytest.raises(OracleError):
            list(orc.Box(100, cap=1000).points(Z2))

    def test_points_sorted_unique(self):
        pts = list(orc.Box(2).points(Z1))
        assert pts == [(v,) for v in range(-2, 3)]


class TestGrids:
    def test_matches_pointwise(self):
        bound = 3
        env = orc.grid_axes(Z2, ["x", "y"], bound)
        vals = list(range(-bound, bound + 1))
        for f in orc.fuzz_corpus(Z2, 51, 10, template="qf"):
            names = sorted(fm.free_vars(f))
            grid = np.broadcast_to(orc.grid_eval(Z2, f, env),
                                   (len(vals),) * (2 * Z2.n))
            rng = np.random.default_rng(7)
            for _ in range(40):
                idx = tuple(rng.integers(0, len(vals), size=2 * Z2.n))
                point = {"x": (vals[idx[0]], vals[idx[1]]),
                         "y": (vals[idx[2]], vals[idx[3]])}
                want = orc.evaluate(Z2, f, {v: point[v] for v in names})
                assert bool(grid[idx]) == want

    def test_bounded_quantifiers_on_grid(self):
        bound = 2
        env = orc.grid_axes(Z1, ["z"], bound)
        for f in orc.fuzz_corpus(Z1, 52, 10, template="bounded"):
            if "z" not in fm.free_vars(f):
                continue
            grid = np.broadcast_to(orc.grid_eval(Z1, f, env),
                                   (2 * bound + 1,))
            for i, v in enumerate(range(-bound, bound + 1)):
                want = orc.expand_bounded(
                    Z1, fm.substitute(Z1, f, "z", fm.t_const((v,))))
                assert bool(grid[i]) == want

    def test_scalar_axes_shapes(self):
        env = orc.scalar_axes(Z2, ["x"], 2)
        assert len(env) == 2
        total = 1
        for arr in env.values():
            total *= arr.size
        assert total == 25

    def test_dense_group_refused(self):
        with pytest.raises(OracleError):
            orc.grid_axes(ZQ, ["x"], 2)

    def test_negative_bound_refused(self):
        """An empty axis would make every grid comparison vacuously
        equal."""
        with pytest.raises(OracleError):
            orc.grid_axes(Z2, ["x"], -1)
        with pytest.raises(OracleError):
            orc.scalar_axes(Z2, ["x"], -1)

    def test_bound_zero_is_one_point(self):
        env = orc.grid_axes(Z2, ["x", "y"], 0)
        assert [a.size for a in env["x"] + env["y"]] == [1, 1, 1, 1]
        assert all(int(a.flat[0]) == 0 for a in env["x"] + env["y"])


class TestFuzzCorpus:
    def test_deterministic(self):
        a = orc.fuzz_corpus(Z2, 1, 10)
        b = orc.fuzz_corpus(Z2, 1, 10)
        assert a == b
        c = orc.fuzz_corpus(Z2, 2, 10)
        assert a != c

    def test_depth_zero_gives_atoms(self):
        lim = orc.FuzzLimits(max_depth=0)
        for f in orc.fuzz_corpus(Z2, 3, 20, limits=lim, template="qf"):
            assert isinstance(f, fm.ATOMS)

    def test_bounded_template_expands(self):
        for f in orc.fuzz_corpus(Z2, 4, 30, template="bounded"):
            free = fm.free_vars(f)
            if free:
                table = orc.expand_bounded(Z2, f, box=orc.Box(1))
                assert set(table.values()) <= {True, False}
            else:
                assert orc.expand_bounded(Z2, f) in (True, False)

    def test_bounded_template_on_dense_tail(self):
        for f in orc.fuzz_corpus(ZQ, 5, 15, template="bounded"):
            bound = f
            for v in sorted(fm.free_vars(f)):
                bound = fm.substitute(ZQ, bound, v, fm.t_const((0, 0)))
            assert orc.expand_bounded(ZQ, bound) in (True, False)

    def test_moduli_respect_limits(self):
        lim = orc.FuzzLimits(max_modulus=3, max_depth=1)

        def moduli(f):
            if isinstance(f, (fm.Congr, fm.RelCongr)):
                yield f.modulus
            for attr in ("items",):
                for it in getattr(f, attr, ()):
                    yield from moduli(it)
            for attr in ("body", "left", "right"):
                sub = getattr(f, attr, None)
                if isinstance(sub, (fm.BoolConst,) + fm.ATOMS + (
                        fm.Not, fm.And, fm.Or, fm.Implies, fm.Iff,
                        fm.Exists, fm.Forall)):
                    yield from moduli(sub)

        for f in orc.fuzz_corpus(Z2, 6, 30, limits=lim, template="qf"):
            assert all(m <= 3 for m in moduli(f))
