"""Acceptance suite: one test per shipped criterion, in order.

Each test prints a single summary line on success, so `pytest -v -s`
reads as a checklist.  Fuzzed criteria fix their seeds; the timed ones
assert their own wall-clock budgets.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import reference_qe
from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit import qe
from oagkit.codes import (code_finite_set, code_segment, code_set,
                          code_to_obj, reconstruct)
from oagkit.groups import (compare, compute_chi, compute_rj, element,
                           is_n_regular_block, parse_group, project,
                           project_fin, representatives_mod, scale, unit)
from oagkit.segments import stabilizer, to_div_segment
from oagkit.typegen import check_descriptor, generic_type

GROUPS = {name: parse_group(name) for name in
          ("1", "Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Q*Q",
           "Z*Z*Z", "Z*Q*Z", "Q*Z*Q", "Z*Z*Z*Z")}

DIFF_LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=6, max_depth=3,
                             window=6)
UNARY_LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2,
                              window=6)


def _report(num, text):
    print(f"criterion {num}: PASS ({text})")


# --- shared fuzz helpers ----------------------------------------------------


def _rand_element(g, rng, lo=-4, hi=4):
    vals = []
    for kind in g.kinds:
        if kind == "Z":
            vals.append(rng.randint(lo, hi))
        else:
            vals.append(Fraction(rng.randint(lo, hi), rng.randint(1, 3)))
    return element(g, tuple(vals))


def _rand_unary_atom(g, rng):
    tx = fm.t_var(g, "x")
    tc = fm.t_const(_rand_element(g, rng))
    kind = rng.randrange(3)
    if kind == 0:
        return fm.Cmp(rng.choice((fm.LT, fm.LE)), tc, tx)
    if kind == 1:
        return fm.Cmp(rng.choice((fm.LT, fm.LE)), tx, tc)
    return fm.Congr(rng.randint(2, 4), tx, tc)


def _shift_congruences(g, f, rng):
    """Move every congruence right-hand side by a multiple of its
    modulus; returns None when the formula has no congruence atom."""
    changed = False

    def bump(node, m, right):
        nonlocal changed
        changed = True
        w = scale(g, m * rng.randint(-2, 2), _rand_element(g, rng, -2, 2))
        return fm.t_add(g, right, fm.t_const(w))

    def walk(node):
        if isinstance(node, fm.Congr):
            return fm.Congr(node.modulus, node.left,
                            bump(node, node.modulus, node.right))
        if isinstance(node, fm.RelCongr):
            return fm.RelCongr(node.level, node.modulus, node.left,
                               bump(node, node.modulus, node.right))
        if isinstance(node, fm.Not):
            return fm.Not(walk(node.body))
        if isinstance(node, fm.And):
            return fm.And(tuple(walk(i) for i in node.items))
        if isinstance(node, fm.Or):
            return fm.Or(tuple(walk(i) for i in node.items))
        if isinstance(node, fm.Implies):
            return fm.Implies(walk(node.left), walk(node.right))
        if isinstance(node, fm.Iff):
            return fm.Iff(walk(node.left), walk(node.right))
        return node

    out = walk(f)
    return out if changed else None


def _rewrite_equivalent(g, f, rng):
    """A different presentation of the same set, by construction."""
    out = f
    for _ in range(rng.randint(1, 2)):
        mode = rng.randrange(3)
        if mode == 0:
            out = fm.Or((out, fm.And((out, _rand_unary_atom(g, rng)))))
        elif mode == 1:
            shifted = _shift_congruences(g, out, rng)
            out = shifted if shifted is not None else \
                fm.And((out, fm.Or((out, _rand_unary_atom(g, rng)))))
        else:
            out = fm.And((out, fm.Or((out, _rand_unary_atom(g, rng)))))
    return out


def _perturb(g, f, rng):
    """A nearby formula with no equivalence guarantee either way."""
    mode = rng.randrange(3)
    if mode == 0:
        tx = fm.t_var(g, "x")
        step = fm.t_const(unit(g, rng.randint(1, g.n)))
        return fm.substitute(g, f, "x", fm.t_add(g, tx, step))
    if mode == 1:
        return fm.And((f, _rand_unary_atom(g, rng)))
    return fm.Not(f)


def _unary_corpus(g, seed, count, limits, need_satisfiable=False):
    out = []
    for f in orc.fuzz_corpus(g, seed, 8 * count, limits=limits,
                             template="qf"):
        if fm.free_vars(f) != frozenset({"x"}):
            continue
        if need_satisfiable and not qe.satisfiable(g, f):
            continue
        out.append(f)
        if len(out) == count:
            return out
    raise AssertionError(f"corpus ran dry: {len(out)}/{count}")


# --- the criteria -----------------------------------------------------------


class TestAcceptance:
    def test_criterion_01_differential_elimination(self):
        t0 = time.monotonic()
        total = 0
        bad = []
        for spec, seed, count, spot in (("Z", 101, 400, 4),
                                        ("Z*Z", 102, 350, 3),
                                        ("Z*Z*Z", 103, 300, 2)):
            g = GROUPS[spec]
            corpus = orc.fuzz_corpus(g, seed, count, limits=DIFF_LIMITS,
                                     template="bounded")
            axes = {}
            spot_checked = 0
            for f in corpus:
                free = sorted(fm.free_vars(f))
                if not free:
                    ok = qe.decide(g, f) == orc.expand_bounded(g, f)
                else:
                    key = tuple(free)
                    if key not in axes:
                        axes[key] = (orc.grid_axes(g, free, 8),
                                     orc.scalar_axes(g, free, 8))
                    genv, senv = axes[key]
                    want = orc.grid_eval(g, f, genv)
                    got = orc.s_grid_eval(g, qe.eliminate(g, f).body, senv)
                    ok = got == want
                    if ok and spot_checked < spot:
                        # anchor the bit grid to the pointwise expansion
                        # on a small box, point by point in its bit order
                        small = orc.Box(2)
                        table = orc.expand_bounded(g, f, box=small)
                        sgrid = orc.grid_eval(g, f, orc.grid_axes(g, free, 2))
                        for env in small.assignments(g, free):
                            key2 = tuple(sorted(env.items()))
                            bit = 0
                            for name in free:
                                for x in env[name]:
                                    bit = bit * 5 + int(x) + 2
                            ok = ok and table[key2] == bool(sgrid >> bit & 1)
                        spot_checked += 1
                total += 1
                if not ok:
                    bad.append(fm.print_formula(f))
            assert spot_checked == spot
        dt = time.monotonic() - t0
        assert total == 1050 and total >= 1000
        assert not bad, f"{len(bad)} disagreements; first: {bad[0]}"
        assert dt < 300, f"differential suite took {dt:.1f}s"
        _report("01", f"{total} formulas, 0 disagreements, {dt:.1f}s")

    def test_criterion_02_halving_an_interval(self):
        zz = GROUPS["Z*Z"]
        narrow = fm.parse(zz, "(exists (x) (and (lt@ 2 (c 1 -1) (* 2 x)) "
                              "(lt@ 2 (* 2 x) (c 1 4))))")
        wide = fm.parse(zz, "(exists (x) (and (lt@ 2 (c 1 -1) (* 2 x)) "
                            "(lt@ 2 (* 2 x) (c 2 4))))")
        assert qe.decide(zz, narrow) is False
        assert qe.decide(zz, wide) is True
        _report("02", "narrow interval empty of halves, widened one not")

    def test_criterion_03_rank_of_discrete_towers(self):
        for n in range(1, 5):
            g = parse_group("*".join(["Z"] * n))
            rj = compute_rj(g, 3)
            assert len(rj) == n
            assert [c.level for c in rj] == list(range(1, n + 1))
        _report("03", "rank n with jump levels 1..n for n = 1..4")

    def test_criterion_04_one_code_many_presentations(self):
        zz = GROUPS["Z*Z"]
        base = fm.parse(zz, "(le@ 2 (c 1 1) (* 2 z))")
        ref = code_set(zz, base)
        ref_bytes = json.dumps(code_to_obj(ref))
        for beta in (-5, 0, 1, 9):
            other = fm.parse(zz, f"(le@ 2 (c 1 {beta}) (* 2 z))")
            got = code_set(zz, other)
            assert got == ref
            assert json.dumps(code_to_obj(got)) == ref_bytes
        assert stabilizer(zz, base).level == 1
        _report("04", "four lower endpoints, one code; stabilizer level 1")

    def test_criterion_05_end_segment_normal_form(self):
        t0 = time.monotonic()
        checked = 0
        plan = (("Z", 51, 50), ("Z*Z", 52, 50), ("Q", 53, 30),
                ("Z*Q", 54, 35), ("Q*Z", 55, 35))
        for spec, seed, count in plan:
            g = GROUPS[spec]
            corpus = orc.fuzz_corpus(g, seed, count, template="end-segment")
            for f in corpus:
                seg = to_div_segment(g, f, "x")
                assert reference_qe.equivalent(g, seg.denote(g, "x"), f), \
                    fm.print_formula(f)
                back = reconstruct(g, code_segment(g, seg), "x")
                assert reference_qe.equivalent(g, back, f), fm.print_formula(f)
                checked += 1
        dt = time.monotonic() - t0
        assert checked == 200
        assert dt < 180, f"end-segment suite took {dt:.1f}s"
        _report("05", f"{checked} end segments normalized and "
                      f"round-tripped, {dt:.1f}s")

    def test_criterion_06_code_equality_tracks_equivalence(self):
        rng = random.Random(606)
        pairs = same = 0
        plan = (("Z", 61, 120), ("Z*Z", 62, 90), ("Z*Q", 63, 90))
        for spec, seed, count in plan:
            g = GROUPS[spec]
            for i, f in enumerate(_unary_corpus(g, seed, count,
                                                UNARY_LIMITS)):
                if i % 2 == 0:
                    other = _rewrite_equivalent(g, f, rng)
                else:
                    other = _perturb(g, f, rng)
                same_code = code_set(g, f, "x") == code_set(g, other, "x")
                same_set = reference_qe.equivalent(g, f, other)
                assert same_code == same_set, fm.print_formula(f)
                if i % 2 == 0:
                    assert same_set, "rewrites must preserve the set"
                pairs += 1
                same += same_code
        assert pairs == 300
        assert 0 < same < pairs
        _report("06", f"{pairs} pairs, code equality matched the "
                      f"decision procedure every time")

    def test_criterion_07_generic_types_verified_twice(self):
        t0 = time.monotonic()
        total = 0
        plan = (("Z", 71, 35), ("Z*Z", 72, 35), ("Q", 73, 15),
                ("Z*Q", 74, 15))
        for spec, seed, count in plan:
            g = GROUPS[spec]
            for f in _unary_corpus(g, seed, count, UNARY_LIMITS,
                                   need_satisfiable=True):
                p = generic_type(g, f, 6)
                assert check_descriptor(g, p, f, "x"), fm.print_formula(f)
                assert generic_type(g, f, 6) == p, fm.print_formula(f)
                total += 1
        dt = time.monotonic() - t0
        assert total == 100
        assert dt < 180, f"type generation suite took {dt:.1f}s"
        _report("07", f"{total} generic types checked and reproduced, "
                      f"{dt:.1f}s")

    def test_criterion_08_residue_grids_and_finite_sets(self):
        for r in (1, 2, 3):
            g = parse_group("*".join(["Z"] * r))
            for k in range(1, r + 1):
                for m in range(2, 7):
                    reps = representatives_mod(g, k, m)
                    assert len(reps) == m ** k
                    images = {project_fin(g, k, m, a) for a in reps}
                    assert len(images) == m ** k
                    seen = {tuple(x % m for x in pt[:k]) for pt in
                            itertools.product(range(m), repeat=r)}
                    assert {i.residues for i in images} == seen
        rng = random.Random(88)
        zz = GROUPS["Z*Z"]
        sets = 0
        for _ in range(100):
            shape = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
            items = set()
            for _ in range(rng.randint(1, 5)):
                items.add(tuple(project(zz, k, _rand_element(zz, rng))
                                for k in shape))
            items = list(items)
            ref = code_finite_set(zz, items)
            for _ in range(3):
                rng.shuffle(items)
                assert code_finite_set(zz, items) == ref
            sets += 1
        assert sets == 100
        _report("08", "residue grids exact for r <= 3, m <= 6; "
                      "100 finite sets order-blind")

    def test_criterion_09_prime_power_indices(self):
        primes = (2, 3, 5, 7, 11, 13)
        for name, g in GROUPS.items():
            discrete = sum(1 for kind in g.kinds if kind == "Z")
            for p in primes:
                chi = compute_chi(g, p)
                assert isinstance(chi, int) and chi == p ** discrete
        # independent count: a coset of the p-multiples is fixed by the
        # discrete coordinates mod p, dense coordinates absorb anything
        for name, g in GROUPS.items():
            if g.n > 3:
                continue
            for p in (2, 3, 5):
                found = {tuple(int(x) % p
                               for x, kind in zip(pt, g.kinds)
                               if kind == "Z")
                         for pt in orc.Box(p).points(g)}
                assert len(found) == compute_chi(g, p)
        _report("09", "chi finite and equal to p^(discrete coords) on "
                      "all configured groups, p <= 13")

    def test_criterion_10_mixed_kind_regularity(self):
        qz = GROUPS["Q*Z"]
        for n in (2, 3):
            assert is_n_regular_block(qz, 1, 2, n)
        # dense-over-discrete: brute-force witnesses in sampled intervals
        qgrid = sorted({Fraction(p, d) for d in range(1, 37)
                        for p in range(-36, 37)})
        rng = random.Random(1010)
        tested = 0
        for n in (2, 3):
            intervals = 0
            while intervals < 250:
                a = element(qz, (Fraction(rng.randint(-12, 12),
                                          rng.randint(1, 12)),
                                 rng.randint(-12, 12)))
                b = element(qz, (Fraction(rng.randint(-12, 12),
                                          rng.randint(1, 12)),
                                 rng.randint(-12, 12)))
                if compare(qz, a, b) > 0:
                    a, b = b, a
                if a[0] == b[0] and b[1] - a[1] + 1 < n:
                    continue  # fewer than n points, nothing is owed
                witness = self._search_divisible(qz, a, b, n, qgrid)
                assert witness is not None, f"no {n}-divisible point in "\
                                            f"[{a}, {b}]"
                y = element(qz, (witness[0] / n, witness[1] // n))
                assert scale(qz, n, y) == witness
                intervals += 1
                tested += 1
        # discrete-over-discrete fails: the known gap interval
        zz = GROUPS["Z*Z"]
        assert not is_n_regular_block(zz, 1, 2, 2)
        lo, hi = element(zz, (1, -1)), element(zz, (1, 4))
        # any point strictly between has first coordinate 1 and second
        # in (-1, 4), so the box scan is exhaustive
        inside = [pt for pt in orc.Box(6).points(zz)
                  if compare(zz, lo, pt) < 0 and compare(zz, pt, hi) < 0]
        assert sorted(inside) == [(1, 0), (1, 1), (1, 2), (1, 3)]
        assert not any(x % 2 == 0 and z % 2 == 0 for x, z in inside)
        _report("10", f"dense-over-discrete regular on {tested} sampled "
                      f"intervals; discrete gap interval has no half")

    @staticmethod
    def _search_divisible(g, a, b, n, qgrid):
        import bisect
        lo = bisect.bisect_left(qgrid, a[0])
        hi = bisect.bisect_right(qgrid, b[0])
        for q in qgrid[lo:hi]:
            if a[0] < q < b[0]:
                return (q, 0)
            zs = range(a[1], b[1] + 1) if a[0] == b[0] else (
                range(a[1], a[1] + 2 * n) if q == a[0]
                else range(b[1] - 2 * n, b[1] + 1))
            for z in zs:
                x = (q, z)
                if z % n == 0 and compare(g, a, x) <= 0 \
                        and compare(g, x, b) <= 0:
                    return x
        return None
