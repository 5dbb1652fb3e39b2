"""Oracle semantics: pointwise truth, bounded expansion, grids, fuzz."""

import itertools
from fractions import Fraction

import pytest

from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit import scalars as sc
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


def _bit(env, bound):
    """The documented bit of a grid point: axes in (sorted name,
    coordinate) order, row-major, the last axis fastest."""
    i = 0
    for name in sorted(env):
        for v in env[name]:
            i = i * (2 * bound + 1) + v + bound
    return i


def _points(g, names, bound):
    """Every assignment of the box [-bound, bound] to `names`."""
    pts = list(itertools.product(range(-bound, bound + 1), repeat=g.n))
    for combo in itertools.product(pts, repeat=len(names)):
        yield dict(zip(names, combo))


# every atom kind, negation, implication and equivalence, over one and two
# free variables, with coefficients of both signs and cut ends at, inside
# and beyond the box edge
GRID_CASES = [
    "(< (c 1 -1) (* 2 x))", "(<= (* -3 x) (c 2 5))", "(= (* 2 x) (c 2 -4))",
    "(= x (c 9 0))", "(congr 3 (* 2 x) (c 1 1))", "(congr 4 (* -2 x) (c 0 2))",
    "(lt@ 1 x (c 1 7))", "(le@ 1 (* -1 x) (c 0 0))", "(eq@ 1 (* 3 x) (c 3 9))",
    "(congr@ 1 2 x (c 1 0))", "(insub 1 x)", "(insub 2 (+ x (c 0 1)))",
    "(lt@ 0 x (c 1 0))", "(le@ 0 (c 1 0) x)", "(eq@ 0 x (c 5 5))",
    "(congr@ 0 3 x (c 1 0))",
    "(not (< x (c 0 2)))", "(implies (< x (c 0 0)) (congr 2 x (c 0 1)))",
    "(iff (<= (c -1 0) x) (congr 3 x (c 1 1)))",
    "(< x y)", "(<= (* 2 x) (+ y (c 0 1)))", "(= (* 2 x) (* -1 y))",
    "(congr 3 (+ x (* 2 y)) (c 1 0))", "(lt@ 1 (* -2 x) y)",
    "(le@ 1 x (+ y (c 1 0)))", "(eq@ 1 x y)", "(congr@ 1 4 x (* 3 y))",
    "(insub 1 (+ x y))", "(= (+ x (* -1 x)) (c 0 0))",
    "(and (< x y) (not (congr 2 y (c 0 0))))",
    "(iff (= x y) (implies (<= y (c 0 0)) (lt@ 1 x (c 1 0))))",
    "(or (< (c 1 1) x) (eq@ 1 y (c -1 0)))", "true", "(not false)",
]


class TestGrids:
    @pytest.mark.parametrize("text", GRID_CASES)
    def test_every_point_of_a_small_box(self, text):
        """grid_eval against `evaluate`, and s_grid_eval of the lowering
        against `s_eval`, at every point of the bound-2 box, by the
        documented bit order."""
        f = fm.parse(Z2, text)
        names = sorted(fm.free_vars(f)) or ["x"]
        grid = orc.grid_axes(Z2, names, 2)
        table = orc.grid_eval(Z2, f, grid)
        low = fm.lower(Z2, f)
        stable = orc.s_grid_eval(Z2, low,
                                 orc.scalar_axes(Z2, names, 2, grid))
        assert 0 <= table < 1 << 5 ** (2 * len(names))
        for env in _points(Z2, names, 2):
            want = orc.evaluate(Z2, f, env)
            assert bool(table >> _bit(env, 2) & 1) == want, env
            scalar = {k: v for k, v in fm.scalarize(Z2, env).items()
                      if k in low.fv}
            assert sc.s_eval(Z2, low, scalar) == want, env
            assert bool(stable >> _bit(env, 2) & 1) == want, env

    def test_matches_pointwise(self):
        grid = orc.grid_axes(Z2, ["x", "y"], 2)
        for f in orc.fuzz_corpus(Z2, 51, 10, template="qf"):
            table = orc.grid_eval(Z2, f, grid)
            for env in _points(Z2, ["x", "y"], 2):
                want = orc.evaluate(
                    Z2, f, {v: env[v] for v in fm.free_vars(f)})
                assert bool(table >> _bit(env, 2) & 1) == want

    def test_wide_one_axis_box(self):
        """Interval ends and residue classes over one axis of a wide box,
        checked at every value."""
        bound = 300
        for text in ("(< (* 7 x) (c 100))", "(<= (* -5 x) (c 999))",
                     "(= (* 3 x) (c -297))", "(congr 6 (* 4 x) (c 2))",
                     "(congr 5 (* -3 x) (c 7))", "(< (c 400) x)",
                     "(<= x (c -301))", "(congr 7 x (c 3))"):
            f = fm.parse(Z1, text)
            table = orc.grid_eval(Z1, f, orc.grid_axes(Z1, ["x"], bound))
            for v in range(-bound, bound + 1):
                assert bool(table >> (v + bound) & 1) == \
                    orc.evaluate(Z1, f, {"x": (v,)}), (text, v)

    def test_bounded_quantifiers_on_grid(self):
        bound = 2
        env = orc.grid_axes(Z1, ["z"], bound)
        for f in orc.fuzz_corpus(Z1, 52, 10, template="bounded"):
            if "z" not in fm.free_vars(f):
                continue
            grid = orc.grid_eval(Z1, f, env)
            table = orc.expand_bounded(Z1, f, box=orc.Box(bound))
            for i, v in enumerate(range(-bound, bound + 1)):
                want = orc.expand_bounded(
                    Z1, fm.substitute(Z1, f, "z", fm.t_const((v,))))
                assert bool(grid >> i & 1) == want
                assert table[(("z", (v,)),)] == want

    def test_a_bound_may_name_an_outer_bound_variable(self):
        """w's bounds name y, which the outer quantifier binds to a
        ground value: the grid table is the pointwise one, true only at
        z = 2."""
        bound = 2
        f = fm.parse(Z1, "(exists (y) (and (< (c 0) y) (< y (c 3)) "
                         "(exists (w) (and (< y w) (< w (c 5)) (= w z)))))")
        grid = orc.grid_eval(Z1, f, orc.grid_axes(Z1, ["z"], bound))
        table = orc.expand_bounded(Z1, f, box=orc.Box(bound))
        for i, v in enumerate(range(-bound, bound + 1)):
            assert bool(grid >> i & 1) == table[(("z", (v,)),)] == (v == 2)

    def test_a_bound_naming_a_grid_variable_is_refused(self):
        f = fm.parse(Z1, "(exists (w) (and (< z w) (< w (c 5)) (= w z)))")
        with pytest.raises(OracleError, match="unbounded quantifier"):
            orc.grid_eval(Z1, f, orc.grid_axes(Z1, ["z"], 2))

    def test_bit_order(self):
        """One point, one bit: the documented index, the same in the
        group grid and the scalar grid, whatever order names come in."""
        genv = orc.grid_axes(Z2, ["y", "x"], 1)
        senv = orc.scalar_axes(Z2, ["y", "x"], 1, genv)
        for x, y in (((-1, -1), (-1, -1)), ((1, 1), (1, 1)),
                     ((0, 1), (-1, 0)), ((1, -1), (0, 1))):
            f = fm.parse(Z2, f"(and (= x (c {x[0]} {x[1]})) "
                             f"(= y (c {y[0]} {y[1]})))")
            one = 1 << _bit({"x": x, "y": y}, 1)
            assert one == 1 << (((x[0] + 1) * 3 + x[1] + 1) * 9
                                + (y[0] + 1) * 3 + y[1] + 1)
            assert orc.grid_eval(Z2, f, genv) == one
            assert orc.s_grid_eval(Z2, fm.lower(Z2, f), senv) == one

    def test_scalar_axes_shapes(self):
        env = orc.scalar_axes(Z2, ["x"], 2)
        assert set(env) == {sc.SVar("x", 1), sc.SVar("x", 2)}
        assert orc.s_grid_eval(Z2, sc.TRUE, env) == (1 << 25) - 1
        assert orc.grid_eval(Z2, fm.parse(Z2, "true"),
                             orc.grid_axes(Z2, ["x"], 2)) == (1 << 25) - 1

    def test_scalar_axes_reuse_the_grid(self):
        """Given the grid, the scalar grid holds the grid's own axes, so
        one all-points table serves both."""
        grid = orc.grid_axes(Z2, ["y", "x"], 2)
        env = orc.scalar_axes(Z2, ["y", "x"], 2, grid)
        assert env == orc.scalar_axes(Z2, ["y", "x"], 2)
        for name, axes in grid.items():
            for j, axis in enumerate(axes, start=1):
                assert env[sc.SVar(name, j)] is axis

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
        for text, want in (("(= x y)", 1), ("(< x (c 0 0))", 0),
                           ("(= x (c 0 0))", 1), ("(congr 2 y (c 1 0))", 0),
                           ("(not (< y x))", 1), ("false", 0)):
            assert orc.grid_eval(Z2, fm.parse(Z2, text), env) == want

    def test_oversized_grid_refused(self):
        """Past GRID_CAP points, or past AXIS_CAP values on an axis, the
        grid is refused before anything is built.  Grids the numpy grid
        answered under a 2 GB address space stay under both: rank 6 at
        bound 8, Z*Z at 9500, Z*Z*Z at 371, Z^4 at 64, Z^5 at 25 and Z at
        2^24."""
        for bound, rank in ((8, 6), (9500, 2), (371, 3), (64, 4), (25, 5),
                            (2 ** 24, 1)):
            assert (2 * bound + 1) ** rank <= orc.GRID_CAP
            assert 2 * bound + 1 <= orc.AXIS_CAP
        assert 17 ** 7 > orc.GRID_CAP and 2 * 10 ** 8 + 1 > orc.AXIS_CAP
        for g, bound in ((parse_group("*".join(["Z"] * 7)), 8),
                         (Z1, 10 ** 8), (Z2, 10 ** 12)):
            with pytest.raises(OracleError, match="cap"):
                orc.grid_axes(g, ["x"], bound)
            with pytest.raises(OracleError, match="cap"):
                orc.scalar_axes(g, ["x"], bound)
        z6 = parse_group("*".join(["Z"] * 6))
        env = orc.grid_axes(z6, ["z"], 8)
        f = fm.parse(z6, "(< z (c 0 0 0 0 0 0))")
        assert bin(orc.grid_eval(z6, f, env)).count("1") == 17 ** 6 // 2


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
