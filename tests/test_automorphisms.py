"""Automorphisms of a lexicographic product as a check on mixed groups.

Two kinds of map sigma fix the order, every convex subgroup and mG:
shears x_j -> x_j + c*x_i with i < j (c in Z and x_i in Z when x_j is Z,
c in Q when x_j is Q) and scalings x_j -> r*x_j by r in Q>0 on Q
coordinates.  Every atom of the language is then invariant, so the
formula with each group constant mapped by sigma defines the image of
the set: `decide` must answer the same on a sentence and its image,
`equivalent` the same on a pair and its image, and the pieces of
`code_set` of the image must be those of the set's code with each value
mapped by sigma.  This is a relation, not a semantics (a `decide` that
always answered TRUE would pass it); it reaches the Q factors that the
grid oracle refuses.
"""

import random
from fractions import Fraction

import pytest

from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit.codes import (FinQuotVal, MainVal, QuotVal, beta_of_residues,
                          code_set, reconstruct)
from oagkit.groups import element, parse_group, project, project_fin
from oagkit.qe import decide, equivalent
from oagkit.scalars import budget_scope

from test_acceptance import UNARY_LIMITS, _unary_corpus

GROUPS = ("Z*Z", "Z*Q", "Q*Z", "Q*Q", "Z*Q*Z", "Q*Z*Q")
LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2, window=4)
SIGMAS = 3


def random_sigma(g, rng):
    """A random composite of shears and scalings, as a map on elements."""
    steps = []
    # Z has no automorphism but the identity
    while len(steps) < 2 and g.kinds != ("Z",):
        j = rng.randrange(g.n)
        if g.kinds[j] == "Q" and rng.random() < 0.4:
            steps.append((j, None, Fraction(rng.randint(1, 5),
                                            rng.randint(1, 5))))
            continue
        lower = [i for i in range(j) if g.kinds[j] == "Q" or g.kinds[i] == "Z"]
        if lower:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            if g.kinds[j] == "Q":
                c = Fraction(c, rng.randint(1, 3))
            steps.append((j, rng.choice(lower), c))

    def sigma(a):
        v = list(a)
        for j, i, c in steps:
            v[j] = v[j] * c if i is None else v[j] + c * v[i]
        return element(g, v)

    return sigma


def image(f, sigma):
    """f with every group constant mapped by sigma."""
    cls = f.__class__
    if cls in fm.ATOMS:
        sides = [fm.Term(t.coeffs, sigma(t.const)) for t in (f.left, f.right)]
        return cls(*[getattr(f, k) for k in f._fields[:-2]], *sides)
    if cls is fm.BoolConst:
        return f
    if cls is fm.And or cls is fm.Or:
        return cls(tuple(image(it, sigma) for it in f.items))
    if cls is fm.Exists or cls is fm.Forall:
        return cls(f.var, image(f.body, sigma))
    if cls is fm.Not:
        return cls(image(f.body, sigma))
    return cls(image(f.left, sigma), image(f.right, sigma))


def close(f, rng):
    """f closed by a random quantifier per free variable, in random
    order."""
    names = sorted(fm.free_vars(f))
    rng.shuffle(names)
    for v in names:
        f = rng.choice((fm.Exists, fm.Forall))(v, f)
    return f


def test_a_sigma_keeps_the_group_and_moves_constants():
    rng = random.Random(5)
    for spec in GROUPS:
        g = parse_group(spec)
        a = element(g, [Fraction(7, 2) if k == "Q" else 3 for k in g.kinds])
        moved = [random_sigma(g, rng)(a) for _ in range(20)]
        assert all(element(g, b) == b for b in moved)
        assert any(b != a for b in moved), spec


@pytest.mark.parametrize("spec", GROUPS)
def test_decide_and_equivalent_commute_with_automorphisms(spec):
    """Sentences: the corpus closed by random quantifiers, so blocks of
    one and two variables go through projection.  Pairs: a one-variable
    formula against its meet or join with the previous one, compared by
    the cell walk; a pair in two variables is a closed biconditional,
    which the sentences already cover (and which can take seconds on
    rank 3)."""
    g = parse_group(spec)
    rng = random.Random(f"automorphisms {spec}")
    corpus = orc.fuzz_corpus(g, 37, 120, limits=LIMITS, template="qf")
    answers = {True: 0, False: 0}
    with budget_scope(None):
        for n, f in enumerate(corpus):
            sentence = close(f, rng)
            other = corpus[n - 1]
            pair = (f, fm.And((f, other)) if n % 2 else fm.Or((f, other)))
            truth = decide(g, sentence)
            answers[truth] += 1
            one = len(fm.free_vars(pair[1])) == 1
            if one:
                same = equivalent(g, *pair)
                answers[same] += 1
            for _ in range(SIGMAS):
                sigma = random_sigma(g, rng)
                assert decide(g, image(sentence, sigma)) == truth, (
                    fm.print_formula(sentence))
                if one:
                    assert equivalent(g, *(image(h, sigma) for h in pair)) \
                        == same, [fm.print_formula(h) for h in pair]
    assert min(answers.values()) >= 20, answers


UNARY_GROUPS = ("Z", "Q", "Z*Z", "Z*Q", "Q*Z", "Z*Z*Z", "Z*Q*Z")
# (corpus index, sigma index) where the code of the image cuts the same
# set into other pieces than the mapped code: nice_decompose's greedy
# merge is not maximal, and whether it merges depends on residues and
# constants that sigma moves.  Any other difference fails.
SPLIT_DIFFERENTLY = {
    "Z*Q": {(11, 1)},
    "Z*Z*Z": {(3, 0), (3, 1), (3, 2), (35, 0), (35, 2), (93, 0), (93, 1),
              (93, 2)},
}


def pieces(code):
    """A set code's pieces, each its header entry and its values."""
    values = iter(code.values)
    return [(meta, tuple(next(values) for _ in range(2 + len(meta[2]))))
            for meta in code.header[1]]


def map_value(g, v, sigma):
    """A code value moved by sigma: a main value by sigma, a level-k
    quotient value by sigma on its k-prefix, a finite-quotient value by
    sigma on its representative, reduced again; markers stay."""
    if v.__class__ is MainVal:
        return MainVal(sigma(v.value))
    if v.__class__ is QuotVal:
        k, coords = v.value.level, v.value.coords
        return QuotVal(project(g, k, sigma(element(
            g, coords + (0,) * (g.n - k)))))
    if v.__class__ is FinQuotVal:
        fq = v.value
        return FinQuotVal(project_fin(g, fq.level, fq.modulus,
                                      sigma(beta_of_residues(g, fq))))
    return v


@pytest.mark.parametrize("spec", UNARY_GROUPS)
def test_code_set_commutes_with_automorphisms(spec):
    """`code_set` of the image against the set's code with every value
    moved by sigma, as sets of pieces (the piece order follows residue
    numerals, which sigma permutes).  Where the pieces differ, both
    codes must still reconstruct the same set."""
    g = parse_group(spec)
    rng = random.Random(f"code_set {spec}")
    corpus = _unary_corpus(g, 1 + UNARY_GROUPS.index(spec), 100,
                           UNARY_LIMITS)
    differ = set()
    with budget_scope(None):
        for n, f in enumerate(corpus):
            code = code_set(g, f, "x")
            for k in range(SIGMAS):
                sigma = random_sigma(g, rng)
                moved = code_set(g, image(f, sigma), "x")
                want = {(meta, tuple(map_value(g, v, sigma) for v in vals))
                        for meta, vals in pieces(code)}
                if set(pieces(moved)) != want:
                    differ.add((n, k))
                    assert equivalent(g, reconstruct(g, moved), image(
                        reconstruct(g, code), sigma)), fm.print_formula(f)
    assert differ == SPLIT_DIFFERENTLY.get(spec, set())
