"""Group model: order axioms, quotient maps, jumps, rank and index."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oagkit import groups
from oagkit.errors import GroupError, OutputTooLarge
from oagkit.groups import (
    EQ, GT, LT,
    ConvexSubgroup, GroupSpec,
    add, box_elements, compare, compute_chi, compute_rj, contains, conv_jump,
    element, is_n_regular_block, leading_position, neg, parse_group, project,
    project_fin, quotient_spec, regular_rank, representatives_mod, rj_levels,
    scale, sub, subgroup_an, subgroup_bn, unit, zero,
)

from helpers_regularity import sample_regularity

Z = parse_group("Z")
ZZ = parse_group("Z*Z")
ZZZ = parse_group("Z*Z*Z")
QZ = parse_group("Q*Z")
ZQ = parse_group("Z*Q")
Q = parse_group("Q")
TRIV = parse_group("1")

SMALL_GROUPS = [Z, ZZ, ZZZ, QZ, ZQ, Q]


def test_parse_group_roundtrip():
    assert str(parse_group("Z*Z*Q")) == "Z*Z*Q"
    assert parse_group("1").n == 0
    assert str(TRIV) == "1"
    with pytest.raises(GroupError):
        parse_group("Z*R")


def test_group_spec_checks_its_kinds():
    assert GroupSpec(("Z", "Q")) == parse_group("Z*Q")
    with pytest.raises(GroupError):
        GroupSpec(("Z", "R"))


def test_group_rank_is_kept_outside_the_fields():
    g = GroupSpec(kinds=("Z", "Q", "Z"))
    assert g.n == 3 and quotient_spec(g, 2).n == 2
    assert quotient_spec(g, 0).n == 0 and parse_group("1").n == 0
    assert GroupSpec._fields == ("kinds",)
    assert repr(g) == "GroupSpec(kinds=('Z', 'Q', 'Z'))"
    # interned: equal specs are one object, hashed by identity
    assert g is parse_group("Z*Q*Z") is GroupSpec(("Z", "Q", "Z"))
    assert quotient_spec(g, 2) is parse_group("Z*Q")
    assert hash(g) == object.__hash__(g)
    with pytest.raises(AttributeError):
        g.n = 2
    assert g.n == 3


def test_a_bad_kind_is_refused_before_interning():
    size = len(GroupSpec._table)
    for kinds in (("R",), ("Z", "z"), ("Q", 1)):
        with pytest.raises(GroupError, match="unknown coordinate kind"):
            GroupSpec(kinds)
    assert len(GroupSpec._table) == size


def test_element_validation():
    assert element(ZZ, [1, -1]) == (1, -1)
    assert element(QZ, [Fraction(1, 2), 3]) == (Fraction(1, 2), 3)
    # integral fractions normalize to int on Z coordinates
    assert element(Z, [Fraction(4, 2)]) == (2,)
    with pytest.raises(GroupError):
        element(Z, [1, 2])
    with pytest.raises(GroupError):
        element(Z, [Fraction(1, 2)])
    with pytest.raises(GroupError):
        element(ZZ, [True, 0])


def test_element_types_and_messages():
    """An exact int takes a shortcut past the Fraction check: the values
    and the types out, and every message, stay as they were."""
    class Small(int):
        pass

    class Ratio(Fraction):
        pass

    out = element(QZ, [3, 4])
    assert out == (3, 4) and type(out[0]) is int and type(out[1]) is int
    out = element(ZZ, [Small(2), Fraction(-6, 3)])
    assert out == (2, -2) and type(out[1]) is int
    assert type(out[0]) is Small
    out = element(QZ, [Ratio(1, 2), Ratio(6, 3)])
    assert out == (Fraction(1, 2), 2) and type(out[1]) is int
    assert type(out[0]) is Fraction
    # a dense value is one numeral: an int when integral, else a Fraction
    for v, want, kind in ((Fraction(6, 2), 3, int), (Small(-4), -4, int),
                          (Ratio(-8, 4), -2, int), (7, 7, int),
                          (Fraction(1, 2), Fraction(1, 2), Fraction),
                          (Ratio(-3, 6), Fraction(-1, 2), Fraction)):
        out = element(Q, [v])[0]
        assert out == want and type(out) is kind, v
    bad = [(Z, True, "bool is not a coordinate value"),
           (QZ, False, "bool is not a coordinate value"),
           (Z, Fraction(1, 2), "non-integer value 1/2 in a Z coordinate"),
           (Z, 2.0, "bad Z coordinate 2.0"), (Z, "3", "bad Z coordinate '3'"),
           (QZ, 0.5, "bad Q coordinate 0.5"),
           (QZ, None, "bad Q coordinate None")]
    for g, v, message in bad:
        values = [v] + [0] * (g.n - 1)
        with pytest.raises(GroupError) as e:
            element(g, values)
        assert str(e.value) == message


def test_compare_examples():
    # most significant coordinate first
    assert compare(ZZ, (0, 5), (1, -9)) == LT
    assert compare(ZZ, (1, 0), (1, 0)) == EQ
    assert compare(ZZ, (1, 1), (1, 0)) == GT
    assert compare(QZ, (Fraction(1, 2), 100), (Fraction(2, 3), -100)) == LT


def _sample_elements(g, count, seed, bound=5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coords = []
        for kind in g.kinds:
            if kind == "Z":
                coords.append(rng.randint(-bound, bound))
            else:
                q = rng.randint(1, 3)
                coords.append(Fraction(rng.randint(-bound * q, bound * q), q))
        out.append(element(g, coords))
    return out


def test_order_axioms_exhaustive_rank1():
    pts = box_elements(Z, 5)
    for a in pts:
        for b in pts:
            ca, cb = compare(Z, a, b), compare(Z, b, a)
            assert ca == -cb
            assert (ca == EQ) == (a == b)


@pytest.mark.parametrize("g", [ZZ, ZZZ, QZ, ZQ])
def test_order_axioms_sampled(g):
    pts = _sample_elements(g, 40, seed=7)
    for a in pts:
        for b in pts:
            assert compare(g, a, b) == -compare(g, b, a)
            for c in pts:
                if compare(g, a, b) != GT and compare(g, b, c) != GT:
                    assert compare(g, a, c) != GT


@pytest.mark.parametrize("g", [ZZ, QZ, ZQ])
def test_translation_invariance(g):
    pts = _sample_elements(g, 25, seed=11)
    for a in pts:
        for b in pts:
            for t in pts[:8]:
                assert compare(g, a, b) == compare(g, add(g, a, t), add(g, b, t))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_group_laws_zz(a1, a2, b1, b2):
    a, b = element(ZZ, [a1, a2]), element(ZZ, [b1, b2])
    assert add(ZZ, a, b) == add(ZZ, b, a)
    assert sub(ZZ, a, b) == add(ZZ, a, neg(ZZ, b))
    assert add(ZZ, a, zero(ZZ)) == a
    assert scale(ZZ, 3, a) == add(ZZ, a, add(ZZ, a, a))


@pytest.mark.parametrize("g", SMALL_GROUPS)
def test_projection_homomorphism(g):
    pts = _sample_elements(g, 20, seed=13)
    for k in range(g.n + 1):
        for a in pts:
            for b in pts[:10]:
                pa, pb = project(g, k, a), project(g, k, b)
                ps = project(g, k, add(g, a, b))
                assert ps.coords == tuple(x + y for x, y in zip(pa.coords, pb.coords))
        for m in (2, 3, 5):
            for a in pts:
                for b in pts[:10]:
                    fa = project_fin(g, k, m, a)
                    fb = project_fin(g, k, m, b)
                    fs = project_fin(g, k, m, add(g, a, b))
                    assert fs.residues == tuple(
                        (x + y) % m for x, y in zip(fa.residues, fb.residues))


def test_projection_modulo_one_is_the_trivial_class():
    # m*G with m = 1 is the whole group: every residue is 0, and m = 0
    # is refused
    for g in SMALL_GROUPS:
        for a in _sample_elements(g, 5, seed=19):
            fq = project_fin(g, g.n, 1, a)
            assert fq.residues == (0,) * len(g.z_positions())
    with pytest.raises(GroupError, match="modulus 0"):
        project_fin(Z, 1, 0, (3,))


def test_projection_composite_coherence():
    # projecting to level k' and then to level k agrees with projecting to k
    for g in SMALL_GROUPS:
        pts = _sample_elements(g, 15, seed=17)
        for k2 in range(g.n + 1):
            inner = quotient_spec(g, k2)
            for k1 in range(k2 + 1):
                for a in pts:
                    once = project(g, k1, a)
                    twice = project(inner, k1, project(g, k2, a).coords)
                    assert once.coords == twice.coords


def test_convexity_sampled():
    g = ZZZ
    pts = _sample_elements(g, 60, seed=19)
    for k in range(g.n + 1):
        sg = ConvexSubgroup(k)
        for a in pts:
            for b in pts[:20]:
                if contains(g, sg, a) and contains(g, sg, b):
                    for lam_num in (1, 2):
                        mid = add(g, a, scale(g, lam_num, sub(g, b, a)))
                        lo, hi = sorted([a, b])
                        if not (compare(g, lo, mid) != GT and compare(g, mid, hi) != GT):
                            continue
                        assert contains(g, sg, mid)


def test_conv_jump():
    a_sub, b_sub = conv_jump(ZZZ, (0, 3, -1))
    assert a_sub.level == 2 and b_sub.level == 1
    assert leading_position(ZZZ, (0, 0, 0)) == 0
    with pytest.raises(GroupError):
        conv_jump(ZZZ, (0, 0, 0))


# --- regularity -------------------------------------------------------------
# The structural criterion is cross-checked against a brute-force interval
# oracle before any expected value is asserted.


def test_regular_block_oracle_agreement_qz():
    # expected (frozen after running the oracle): the full Q*Z block is
    # n-regular for n in {2, 3}
    for n in (2, 3):
        checked, bad = sample_regularity(QZ, n, trials=120, seed=100 + n)
        assert checked > 30
        assert bad == []
        assert is_n_regular_block(QZ, 1, 2, n) is True


def test_regular_block_oracle_agreement_zz():
    # expected (frozen after running the oracle): Z*Z is not 2-regular, and
    # the witness interval ((1,-1),(1,4)) has 4 points and no even element
    assert is_n_regular_block(ZZ, 1, 2, 2) is False
    from helpers_regularity import (divisible_candidates,
                                    find_divisible_in_interval,
                                    interval_point_count)
    a, b = element(ZZ, [1, -1]), element(ZZ, [1, 4])
    assert interval_point_count(ZZ, a, b) == 4
    cands = divisible_candidates(ZZ, 2, 12)
    assert find_divisible_in_interval(cands, a, b) is None


def test_regular_block_subblocks():
    assert is_n_regular_block(ZZ, 1, 1, 2) is True
    assert is_n_regular_block(ZZ, 2, 2, 2) is True
    assert is_n_regular_block(ZQ, 1, 2, 3) is False
    assert is_n_regular_block(parse_group("Q*Q"), 1, 2, 2) is True
    with pytest.raises(GroupError):
        is_n_regular_block(ZZ, 2, 1, 2)
    with pytest.raises(GroupError):
        is_n_regular_block(ZZ, 1, 2, 1)


# --- rank and jumps ---------------------------------------------------------


def test_rank_powers_of_z():
    # rank of Z^n is n with jumps at every level, for n = 1..4
    for n in range(1, 5):
        g = GroupSpec(("Z",) * n)
        rj = compute_rj(g, 3)
        assert len(rj) == n
        assert [s.level for s in rj] == list(range(1, n + 1))


def test_rank_mixed_groups():
    assert [s.level for s in compute_rj(QZ, 2)] == [2]
    assert [s.level for s in compute_rj(ZQ, 2)] == [1, 2]
    assert [s.level for s in compute_rj(Q, 2)] == [1]
    assert compute_rj(TRIV, 2) == ()
    assert regular_rank(parse_group("Q*Q*Z*Q"), 2) == 2
    assert [s.level for s in compute_rj(parse_group("Q*Q*Z*Q"), 2)] == [3, 4]


def test_rank_modulus_independence():
    for g in SMALL_GROUPS + [parse_group("Q*Q"), parse_group("Z*Q*Z")]:
        base = compute_rj(g, 2)
        for n in (3, 4, 5, 6):
            assert compute_rj(g, n) == base


def test_rank_jumps_are_greedy_regular_block_ends():
    # partition the coordinates into maximal n-regular blocks, top-down;
    # every block above the bottom one must not be divisible, and the
    # block ends must be the jump levels
    for rank in range(5):
        for kinds in itertools.product("ZQ", repeat=rank):
            g = GroupSpec(kinds)
            for n in range(2, 7):
                ends = []
                j = 1
                while j <= g.n:
                    m = j
                    while m < g.n and is_n_regular_block(g, j, m + 1, n):
                        m += 1
                    ends.append(m)
                    if m < g.n:
                        assert not all(k == "Q" for k in kinds[j - 1:m])
                    j = m + 1
                assert [s.level for s in compute_rj(g, n)] == ends


def test_rj_levels_excludes_non_definable():
    # the middle level of Q*Z names a convex subgroup that is not definable
    assert rj_levels(QZ) == (2,)
    assert rj_levels(ZQ) == (1, 2)
    assert rj_levels(ZZZ) == (1, 2, 3)
    assert rj_levels(TRIV) == ()


def test_subgroup_an_bn():
    # first discrete position at or below the leading entry
    assert subgroup_an(ZZ, (1, 0), 2).level == 1
    assert subgroup_an(ZZ, (0, 1), 2).level == 2
    assert subgroup_an(QZ, (Fraction(1), 0), 2).level == 2
    assert subgroup_an(Q, (Fraction(1),), 2).level == 1
    assert subgroup_bn(ZZ, (0, 1), 2).level == 1
    assert subgroup_bn(ZZ, (1, 0), 2).level == 0
    assert subgroup_bn(QZ, (Fraction(1), 0), 2).level == 0
    with pytest.raises(GroupError):
        subgroup_an(ZZ, (0, 0), 2)


def test_an_levels_land_in_rj():
    # every jump the operator produces is a definable subgroup level
    for g in SMALL_GROUPS:
        ok_levels = set(rj_levels(g)) | {0}
        for gamma in _sample_elements(g, 40, seed=23):
            if leading_position(g, gamma) == 0:
                continue
            for n in (2, 3):
                assert subgroup_an(g, gamma, n).level in ok_levels
                assert subgroup_bn(g, gamma, n).level in ok_levels | {0}


# --- chi and representatives ------------------------------------------------


def test_chi_formula():
    assert compute_chi(ZZ, 2) == 4
    assert compute_chi(ZZ, 3) == 9
    assert compute_chi(QZ, 5) == 5
    assert compute_chi(Q, 7) == 1
    assert compute_chi(TRIV, 13) == 1
    with pytest.raises(GroupError):
        compute_chi(ZZ, 4)


def _prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5)
            if groups.is_prime(n) != _prime_by_trial_division(n)] == []


def test_is_prime_on_pseudoprimes_and_large_primes():
    # a Carmichael number, and strong pseudoprimes to the bases 2, 3, 5,
    # 7 and to 2..23
    for n in (561, 3215031751, 3825123056546413051):
        assert not groups.is_prime(n)
    for p in (10 ** 18 + 3, 10 ** 20 + 39):
        assert groups.is_prime(p)
        assert compute_chi(ZZ, p) == p * p
    # past the bound where the bases decide, a typed error
    with pytest.raises(GroupError, match="too large"):
        groups.is_prime(groups._PRIME_LIMIT)


def _divisors_by_trial_division(n):
    return sorted({e for d in range(1, math.isqrt(n) + 1) if n % d == 0
                   for e in (d, n // d)})


def test_divisors_agree_with_trial_division():
    """`divisors` yields the same list, in the same order, as trial
    division up to the square root."""
    rng = random.Random(7)
    cases = list(range(1, 5000)) + [rng.randrange(1, 10 ** 8)
                                     for _ in range(100)]
    # prime powers, squares, and products of two primes, below and above
    # the charging threshold of 1024
    cases += [2 ** 33, 3 ** 20 * 7, 99991 ** 2, 99991 * 99989, 2 * 99991,
              1031 ** 2, 1021 * 1031, 1031 ** 2 * 1033 * 6, 1009 * 1013]
    for n in cases:
        assert list(groups.divisors(n)) == _divisors_by_trial_division(n), n


def test_divisors_charge_every_step_past_1024():
    """Each trial division with d >= 1024 is charged before it is taken,
    so a raising charge stops it.  Such a step needs n >= 2^20, so below
    that nothing is charged."""
    rng = random.Random(11)
    for n in [2 ** 20 - 1, 1023 ** 2, 1019 * 1021, 2 ** 19 * 3 // 2] + [
            rng.randrange(2 ** 19, 2 ** 20) for _ in range(50)]:
        steps = []
        assert list(groups.divisors(n, steps.append)) == \
            _divisors_by_trial_division(n)
        assert steps == [], n
    for n in (2 ** 20, 1021 * 1019 * 2 ** 5):
        steps = []
        list(groups.divisors(n, steps.append))
        assert steps == [1] * (math.isqrt(n) - 1023), n

    def stop(k):
        raise RuntimeError(k)
    for n in (1800000000047 * 1800000001087, 10 ** 25 + 13):
        # lazy: 1 comes before any charge
        assert next(groups.divisors(n, stop)) == 1
        with pytest.raises(RuntimeError):
            list(groups.divisors(n, stop))


def test_chi_by_coset_enumeration():
    # independent count of G/pG classes among box elements
    for g in (Z, ZZ, QZ, ZQ):
        for p in (2, 3, 5):
            pts = box_elements(g, p, denominators=(1, 2, 3))
            classes = set()
            for a in pts:
                key = tuple(int(a[i]) % p for i in range(g.n) if g.kinds[i] == "Z")
                classes.add(key)
            assert len(classes) == compute_chi(g, p)


def test_representatives_mod_sizes():
    for g in (Z, ZZ, ZZZ, QZ, ZQ):
        zcount = {k: sum(1 for i in range(k) if g.kinds[i] == "Z")
                  for k in range(g.n + 1)}
        for k in range(g.n + 1):
            for m in (2, 3, 4):
                reps = representatives_mod(g, k, m)
                assert len(reps) == m ** zcount[k]
                assert len(set(reps)) == len(reps)


def test_too_many_representatives_is_typed(monkeypatch):
    """The count m^(discrete coordinates among the first k), times the
    width of the zero representative printed as a list, is checked
    against PRINT_LIMIT characters before any representative is built."""
    with pytest.raises(OutputTooLarge):
        representatives_mod(ZZ, 1, 10**9)
    with pytest.raises(OutputTooLarge):
        representatives_mod(ZZZ, 3, 10**6)
    assert len(representatives_mod(QZ, 1, 10**9)) == 1
    monkeypatch.setattr(groups, "PRINT_LIMIT", 9 * len("[0, 0]"))
    assert len(representatives_mod(ZZ, 2, 3)) == 9
    with pytest.raises(OutputTooLarge):
        representatives_mod(ZZ, 2, 4)
    monkeypatch.setattr(groups, "PRINT_LIMIT", 9 * len("[0, 0]") - 1)
    with pytest.raises(OutputTooLarge):
        representatives_mod(ZZ, 2, 3)


def test_representative_bound_is_sized_to_output(monkeypatch):
    """2^24 representatives on Z*Z would print about 100 MB and are
    refused; 90,000 pass the bound, which the first element built after
    it shows here by raising a marker, so nothing large is built."""

    class Built(Exception):
        pass

    def built(g, vals):
        raise Built

    monkeypatch.setattr(groups, "element", built)
    with pytest.raises(OutputTooLarge):
        representatives_mod(ZZ, 2, 4096)
    with pytest.raises(Built):
        representatives_mod(ZZ, 2, 300)


def test_representatives_are_complete_and_distinct():
    # distinct reps differ modulo (level-k subgroup + mG); every box element
    # matches exactly one rep
    g, k, m = ZZ, 2, 3
    reps = representatives_mod(g, k, m)

    def same_class(a, b):
        return all((a[i] - b[i]) % m == 0 for i in range(k) if g.kinds[i] == "Z")

    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert not same_class(r, s)
    for a in box_elements(g, 4):
        assert sum(1 for r in reps if same_class(a, r)) == 1


def test_unit_vectors():
    assert unit(ZZZ, 2) == (0, 1, 0)
    with pytest.raises(GroupError):
        unit(ZZZ, 4)
