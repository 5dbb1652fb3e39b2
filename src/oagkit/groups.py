"""Concrete ordered abelian groups of bounded regular rank.

The groups handled by this package are finite lexicographic products
K_1 (+) ... (+) K_n where each factor K_i is either the integers ("Z",
discrete) or the rationals ("Q", dense and divisible), ordered with the
most significant coordinate first.  Elements are plain tuples of one
numeral per value: an int wherever the value is integral, and a Fraction
only for a non-integral value in a Q coordinate (`element`).  So equal
elements are equal tuples of the same types, which the interned Records
that hold them (`errors.Record`) need, as `1 == Fraction(1)` but their
reprs differ.  The group specs, convex subgroups and quotient elements
are Records: equal values are one object.

The definable convex subgroups of such a group form a finite chain.  We
represent them by their *level*: level k names the subgroup of elements
whose first k coordinates vanish, so level 0 is the whole group and
level n is the trivial subgroup.  Not every level is definable; see
rj_levels for the ones that are.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import PRINT_LIMIT, GroupError, OutputTooLarge, Record

Kind = str  # "Z" or "Q"
Coord = Union[int, Fraction]
Element = tuple  # tuple[Coord, ...], arity == rank of the group

LT, EQ, GT = -1, 0, 1


class GroupSpec(Record):
    """A finite lexicographic product of Z and Q factors."""

    kinds: tuple[Kind, ...]

    def __new__(cls, kinds: tuple[Kind, ...]) -> GroupSpec:
        for k in kinds:
            if k not in ("Z", "Q"):
                raise GroupError(f"unknown coordinate kind {k!r}")
        g = super().__new__(cls, kinds)
        # the rank, kept outside the fields as formulas keep `_scanned`
        object.__setattr__(g, "n", len(kinds))
        return g

    def __str__(self) -> str:
        return "*".join(self.kinds) if self.kinds else "1"

    def z_positions(self) -> tuple[int, ...]:
        """1-based positions of the discrete coordinates."""
        return tuple(i + 1 for i, k in enumerate(self.kinds) if k == "Z")


def parse_group(text: str) -> GroupSpec:
    """Parse a group spec like "Z*Z*Q"; "1" (or "") is the trivial group."""
    text = text.strip()
    if text in ("1", ""):
        return GroupSpec(())
    parts = [p.strip() for p in text.split("*")]
    for p in parts:
        if p not in ("Z", "Q"):
            raise GroupError(f"bad group spec {text!r}: unknown factor {p!r}")
    return GroupSpec(tuple(parts))


class ConvexSubgroup(Record):
    """The convex subgroup of elements whose first `level` coordinates are 0."""

    level: int

    def __str__(self) -> str:
        return f"conv[{self.level}]"


class QuotientElement(Record):
    """An element of the quotient by the level-k subgroup: a k-prefix."""

    level: int
    coords: tuple

    def __str__(self) -> str:
        return f"({', '.join(map(str, self.coords))})@{self.level}"


class FiniteQuotientElement(Record):
    """An element of the finite quotient by (level-k subgroup + m*G).

    Only the discrete coordinates among the first k survive; `residues`
    lists their values mod m in coordinate order.
    """

    level: int
    modulus: int
    residues: tuple[int, ...]

    def __str__(self) -> str:
        return f"[{', '.join(map(str, self.residues))}]@{self.level}%{self.modulus}"


# --- elements ---------------------------------------------------------------


def element(g: GroupSpec, values: Sequence) -> Element:
    """Validate and normalize a raw sequence into an element of g."""
    if len(values) != g.n:
        raise GroupError(f"element arity {len(values)} != group rank {g.n}")
    out = []
    for kind, v in zip(g.kinds, values):
        if isinstance(v, bool):
            raise GroupError("bool is not a coordinate value")
        if kind == "Z":
            # an exact int skips the ABC check that isinstance makes
            if v.__class__ is not int and isinstance(v, Fraction):
                if v.denominator != 1:
                    raise GroupError(f"non-integer value {v} in a Z coordinate")
                v = int(v)
            if not isinstance(v, int):
                raise GroupError(f"bad Z coordinate {v!r}")
            out.append(v)
        else:
            if not isinstance(v, (int, Fraction)):
                raise GroupError(f"bad Q coordinate {v!r}")
            # one numeral per value: an int unless it is not integral
            out.append(int(v) if v.denominator == 1 else Fraction(v))
    return tuple(out)


def zero(g: GroupSpec) -> Element:
    return element(g, [0] * g.n)


def unit(g: GroupSpec, position: int) -> Element:
    """The unit vector at a 1-based position."""
    if not 1 <= position <= g.n:
        raise GroupError(f"unit position {position} out of range 1..{g.n}")
    return element(g, [1 if i + 1 == position else 0 for i in range(g.n)])


def add(g: GroupSpec, a: Element, b: Element) -> Element:
    return element(g, [x + y for x, y in zip(a, b)])


def sub(g: GroupSpec, a: Element, b: Element) -> Element:
    return element(g, [x - y for x, y in zip(a, b)])


def neg(g: GroupSpec, a: Element) -> Element:
    return element(g, [-x for x in a])


def scale(g: GroupSpec, c: int, a: Element) -> Element:
    if not isinstance(c, int):
        raise GroupError("scalar multipliers must be integers")
    return element(g, [c * x for x in a])


def compare(g: GroupSpec, a: Element, b: Element) -> int:
    """Lexicographic comparison, most significant coordinate first: -1/0/+1."""
    if len(a) != g.n or len(b) != g.n:
        raise GroupError("element arity mismatch in compare")
    for x, y in zip(a, b):
        if x < y:
            return LT
        if x > y:
            return GT
    return EQ


def leading_position(g: GroupSpec, a: Element) -> int:
    """1-based position of the first nonzero coordinate; 0 for the zero element."""
    for i, x in enumerate(a):
        if x != 0:
            return i + 1
    return 0


# --- convex subgroups and quotients ----------------------------------------


def check_level(g: GroupSpec, k: int) -> None:
    if not 0 <= k <= g.n:
        raise GroupError(f"level {k} out of range 0..{g.n}")


def contains(g: GroupSpec, sub_: ConvexSubgroup, a: Element) -> bool:
    check_level(g, sub_.level)
    return all(x == 0 for x in a[: sub_.level])


def conv_jump(g: GroupSpec, gamma: Element) -> tuple[ConvexSubgroup, ConvexSubgroup]:
    """(A, B) where A is the largest convex subgroup avoiding gamma and B the
    smallest containing it.  Undefined for gamma = 0."""
    j = leading_position(g, gamma)
    if j == 0:
        raise GroupError("conv_jump is undefined at the zero element")
    return ConvexSubgroup(j), ConvexSubgroup(j - 1)


def project(g: GroupSpec, k: int, a: Element) -> QuotientElement:
    """Quotient map by the level-k subgroup: truncation to the first k coords."""
    check_level(g, k)
    if len(a) != g.n:
        raise GroupError("element arity mismatch in project")
    return QuotientElement(k, tuple(a[:k]))


def project_fin(g: GroupSpec, k: int, m: int, a: Element) -> FiniteQuotientElement:
    """Quotient map into the finite group by (level-k subgroup + m*G).

    Q coordinates are divisible so they vanish; each Z coordinate among the
    first k is reduced mod m.
    """
    check_level(g, k)
    if m < 1:
        raise GroupError(f"modulus {m} must be >= 1")
    if len(a) != g.n:
        raise GroupError("element arity mismatch in project_fin")
    res = tuple(int(a[i]) % m for i in range(k) if g.kinds[i] == "Z")
    return FiniteQuotientElement(k, m, res)


def crt(a: int, w: int, s: int, m: int):
    """(c, lcm(w, m)) such that t = a (mod w) and t = s (mod m) exactly
    when t = c (mod lcm(w, m)); None when no t satisfies both, that is,
    when a and s differ modulo gcd(w, m) (the Chinese remainder
    theorem)."""
    d = math.gcd(w, m)
    if (s - a) % d:
        return None
    n = w // d * m
    return (a + w * ((s - a) // d * pow(w // d, -1, m // d))) % n, n


def meet_classes(g: GroupSpec, fqs: Iterable[FiniteQuotientElement]):
    """The common points of finite-quotient classes, coordinate by
    coordinate: a dict from each 0-based discrete coordinate i that a
    class constrains to (c, M), the classes meeting in x_i = c (mod M)
    there; None when they have no common point.  Congruences on
    different coordinates are independent, and those on one coordinate
    meet iff every two agree modulo the gcd of their moduli (the
    generalized Chinese remainder theorem), which folding them in one
    at a time with `crt` checks."""
    out: dict = {}
    for fq in fqs:
        zs = [i for i in range(fq.level) if g.kinds[i] == "Z"]
        for i, r in zip(zs, fq.residues):
            hit = crt(*out.get(i, (0, 1)), r, fq.modulus)
            if hit is None:
                return None
            out[i] = hit
    return out


def quotient_spec(g: GroupSpec, k: int) -> GroupSpec:
    """The quotient by the level-k subgroup, itself a lexicographic product."""
    check_level(g, k)
    return GroupSpec(g.kinds[:k])


def compare_quot(g: GroupSpec, a: QuotientElement, b: QuotientElement) -> int:
    if a.level != b.level:
        raise GroupError("quotient levels differ in compare_quot")
    return compare(quotient_spec(g, a.level), a.coords, b.coords)


# --- regularity, jumps and rank ---------------------------------------------


def _check_regularity_modulus(n: int) -> None:
    if n < 2:
        raise GroupError(f"regularity modulus {n} must be >= 2")


def is_n_regular_block(g: GroupSpec, j: int, m: int, n: int) -> bool:
    """Whether the lexicographic block of coordinates j..m (1-based, inclusive)
    is n-regular: every interval with at least n points contains an
    n-divisible element.

    For this family the criterion is structural: the block is n-regular
    exactly when every coordinate strictly before its last one is dense.
    A discrete coordinate above another coordinate creates gaps whose
    points all share the same leading entry, and such an interval can
    dodge every n-divisible element.
    """
    _check_regularity_modulus(n)
    if not 1 <= j <= m <= g.n:
        raise GroupError(f"bad block {j}..{m} for rank {g.n}")
    return all(g.kinds[i - 1] == "Q" for i in range(j, m))


def compute_rj(g: GroupSpec, n: int) -> tuple[ConvexSubgroup, ...]:
    """The jump subgroups of the n-regular rank tower, listed by ascending
    level (so from the whole group downward).

    The tower partitions the coordinates into maximal n-regular blocks;
    each block boundary is a jump.  For this family the result does not
    depend on n >= 2: a block ends at each discrete coordinate and at the
    last one, so the jumps are exactly the definable levels of rj_levels.
    """
    _check_regularity_modulus(n)
    return tuple(ConvexSubgroup(k) for k in rj_levels(g))


def rj_levels(g: GroupSpec) -> tuple[int, ...]:
    """Ascending levels of the definable proper convex subgroups.

    Modulus-independent; level 0 (the whole group) is not included.
    Levels outside this set name convex subgroups that are not definable
    (for example the middle level of Q*Z) and the rank machinery never
    produces them.
    """
    if g.n == 0:
        return ()
    return tuple(k for k in range(1, g.n + 1)
                 if k == g.n or g.kinds[k - 1] == "Z")


def regular_rank(g: GroupSpec, n: int) -> int:
    return len(compute_rj(g, n))


def subgroup_an(g: GroupSpec, gamma: Element, n: int) -> ConvexSubgroup:
    """Smallest convex subgroup C such that B(gamma)/C is n-regular, where
    B(gamma) is the smallest convex subgroup containing gamma."""
    _check_regularity_modulus(n)
    j = leading_position(g, gamma)
    if j == 0:
        raise GroupError("subgroup_an is undefined at the zero element")
    t = next((i for i in range(j, g.n + 1) if g.kinds[i - 1] == "Z"), g.n)
    if j <= t and not is_n_regular_block(g, j, t, n):
        raise AssertionError("the block up to the first discrete "
                             "coordinate must be n-regular")
    return ConvexSubgroup(t)


def subgroup_bn(g: GroupSpec, gamma: Element, n: int) -> ConvexSubgroup:
    """Largest convex subgroup C such that C/A_n(gamma) is n-regular."""
    t = subgroup_an(g, gamma, n).level
    u = next((i for i in range(t - 1, 0, -1) if g.kinds[i - 1] == "Z"), 0)
    return ConvexSubgroup(u)


# --- index invariants --------------------------------------------------------


# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; GroupError at
    or above _PRIME_LIMIT, where its bases no longer decide."""
    if p >= _PRIME_LIMIT:
        raise GroupError(f"{p} is too large to test for primality")
    if p < 2:
        return False
    if any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & -(p - 1)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def divisors(n: int, charge=lambda steps: None):
    """The divisors of n >= 1, ascending, as trial division finds them:
    each d with d * d <= n, then their cofactors n // d.  Each step with
    d >= 1024 is charged (`charge(1)`) before it is taken."""
    big, d = [], 1
    while d * d <= n:
        if d >= 1024:
            charge(1)
        if n % d == 0:
            yield d
            if d * d < n:
                big.append(n // d)
        d += 1
    yield from reversed(big)


def compute_chi(g: GroupSpec, p: int) -> int:
    """The index [G : pG].  Always finite here: each discrete coordinate
    contributes a factor p, dense coordinates are divisible."""
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    return p ** len(g.z_positions())


def representatives_mod(g: GroupSpec, k: int, m: int) -> tuple[Element, ...]:
    """A complete, duplicate-free set of representatives for the finite
    quotient by (level-k subgroup + m*G), in lexicographic residue order.

    Representatives are chosen with residues in [0, m) on the discrete
    coordinates among the first k and zeros everywhere else.  When their
    count times the width of the shortest one printed, the zero element
    as a list, exceeds PRINT_LIMIT characters, OutputTooLarge is raised
    before any is built.
    """
    check_level(g, k)
    if m < 1:
        raise GroupError(f"modulus {m} must be >= 1")
    zpos = [i for i in range(k) if g.kinds[i] == "Z"]
    if m ** len(zpos) * len(repr([0] * g.n)) > PRINT_LIMIT:
        raise OutputTooLarge(f"{m}^{len(zpos)} representatives modulo {m} "
                             f"at level {k} print more than "
                             f"{PRINT_LIMIT} characters")
    out = []
    for combo in itertools.product(range(m), repeat=len(zpos)):
        vals = [0] * g.n
        for pos, r in zip(zpos, combo):
            vals[pos] = r
        out.append(element(g, vals))
    return tuple(out)


def box_elements(g: GroupSpec, bound: int,
                 denominators: Iterable[int] = (1,)) -> list[Element]:
    """All elements with integer parts in [-bound, bound]; Q coordinates
    additionally range over the given denominators.  Test helper."""
    axes = []
    for kind in g.kinds:
        if kind == "Z":
            axes.append([x for x in range(-bound, bound + 1)])
        else:
            vals = sorted({Fraction(p, q) for q in denominators
                           for p in range(-bound * q, bound * q + 1)})
            axes.append(vals)
    return [element(g, combo) for combo in itertools.product(*axes)]
