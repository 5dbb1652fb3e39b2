"""The Record value classes against their frozen dataclass twins: the
same `repr` and `==` on values taken from the corpora, with `==` and
`hash` by identity because equal values are one interned object, frozen
fields, and a TypeError for every call a dataclass would refuse."""

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit import qe
from oagkit.cli import Config
from oagkit.codes import code_set
from oagkit.errors import Record
from oagkit.groups import compute_rj, parse_group
from oagkit.scalars import SVar
from oagkit.segments import nice_decompose, to_div_segment
from oagkit.typegen import generic_type, generic_type_trace
from reference_records import twin, twin_class

# the fuzz limits of acceptance criterion 06
UNARY = orc.FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2, window=6)
QUANTIFIED = "(forall (y) (implies (< x y) (iff (exists (z) (= z y)) true)))"


def _records(value, out):
    """Every Record in value, through fields and tuples, into out."""
    if isinstance(value, Record):
        out.append(value)
        for f in value._fields:
            _records(getattr(value, f), out)
    elif isinstance(value, tuple):
        for v in value:
            _records(v, out)


@pytest.fixture(scope="module")
def corpus():
    """Records of every class, from criterion 06's formulas (parsed
    twice, so equal values are distinct objects), their codes, nice
    pieces, end segments, generic types and eliminations."""
    top = [Config("Z"), orc.Box(3), UNARY]
    for spec, seed in (("Z", 61), ("Z*Z", 62), ("Z*Q", 63)):
        g = parse_group(spec)
        top += [g, compute_rj(g, 2)]
        texts = [fm.print_formula(f) for f in
                 orc.fuzz_corpus(g, seed, 40, limits=UNARY, template="qf")
                 if fm.free_vars(f) == frozenset({"x"})][:8]
        texts.append(QUANTIFIED)
        for text in texts:
            f = fm.parse(g, text)
            top += [f, fm.parse(g, text), code_set(g, f, "x"),
                    nice_decompose(g, f, "x"), qe.eliminate(g, f)]
            if qe.satisfiable(g, f):
                top += [generic_type(g, f, 6),
                        generic_type_trace(g, f, 6)]
        for f in orc.fuzz_corpus(g, seed, 4, template="end-segment"):
            top.append(to_div_segment(g, f, "x"))
    out = []
    _records(tuple(top), out)
    return out


def _samples(corpus, per_class=25):
    """Up to per_class records of each class, no two printing alike."""
    seen, taken, out = set(), Counter(), []
    for r in corpus:
        key = (type(r), repr(r))
        if key not in seen and taken[type(r)] < per_class:
            seen.add(key)
            taken[type(r)] += 1
            out.append(r)
    return out


def test_the_corpus_reaches_every_record_class(corpus):
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {type(r) for r in corpus} == set(subclasses(Record))
    assert len(set(subclasses(Record))) == 32


def test_repr_is_the_dataclass_one_and_hash_is_identity(corpus):
    for r in corpus:
        t = twin(r)
        assert repr(r) == repr(t)
        assert hash(r) == object.__hash__(r)
        if "__str__" not in vars(type(r)):
            assert str(r) == str(t)


def test_equality_is_the_dataclass_one(corpus):
    """Interned: two Records are equal exactly when their dataclass twins
    are, and exactly when they are one object."""
    by_value = {}
    for r in corpus:
        by_value.setdefault(twin(r), set()).add(id(r))
    assert all(len(ids) == 1 for ids in by_value.values())
    # every formula was parsed twice, so equal values were built apart
    assert len({id(r) for r in corpus}) < len(corpus)
    sample = _samples(corpus)
    twins = [twin(r) for r in sample]
    for (a, ta), (b, tb) in itertools.product(zip(sample, twins), repeat=2):
        assert (a == b) == (ta == tb) == (a is b)
        assert (a != b) == (ta != tb)
    for r in sample:
        assert (r == twin(r)) is False
        assert r != (r,)


def test_rebuilding_from_the_fields_gives_the_same_object(corpus):
    for r in corpus:
        values = [getattr(r, f) for f in r._fields]
        assert type(r)(*values) is r
        assert type(r)(**dict(zip(r._fields, values))) is r


def test_no_record_holds_an_integral_fraction(corpus):
    """One numeral per coordinate value: an integral value is an int."""
    def numerals(value):
        if isinstance(value, Record):
            for f in value._fields:
                yield from numerals(getattr(value, f))
        elif isinstance(value, tuple):
            for v in value:
                yield from numerals(v)
        else:
            yield value

    seen = [q for r in corpus for q in numerals(r) if type(q) is Fraction]
    assert seen and all(q.denominator != 1 for q in seen)


def test_keywords_and_defaults_are_the_dataclass_ones(corpus):
    for r in _samples(corpus, per_class=3):
        cls, t = type(r), twin_class(type(r))
        values = {f: getattr(r, f) for f in r._fields}
        assert cls(**values) is r
        required = [getattr(r, f.name) for f in dataclasses.fields(t)
                    if f.default is dataclasses.MISSING]
        assert repr(cls(*required)) == repr(t(*required))


def test_fields_cannot_be_assigned_or_deleted(corpus):
    for r in _samples(corpus, per_class=1):
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 0


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                               # missing
    (("x",), {}),                           # missing
    (("x", 1, 2), {}),                      # extra
    (("x", 1), {"depth": 2}),               # unknown
    (("x",), {"body": 1, "var": "y"}),      # given twice
])
def test_bad_arguments_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        fm.Exists(*args, **kwargs)
    with pytest.raises(TypeError):
        twin_class(fm.Exists)(*args, **kwargs)


def test_defaults_fill_only_the_trailing_fields():
    assert orc.Box(3) is orc.Box(3, 2_000_000) is orc.Box(bound=3)
    with pytest.raises(TypeError):
        orc.Box(cap=5)
    assert orc.FuzzLimits(window=4) is orc.FuzzLimits(3, 8, 2, 4, 2)
    assert orc.FuzzLimits(3, 5) is orc.FuzzLimits(3, 5, 2, 6, 2)
    with pytest.raises(TypeError):
        orc.FuzzLimits(3, 8, 2, 4, 2, 1)


def test_svar_is_the_dataclass_pair():
    Twin = dataclasses.make_dataclass("SVar", [("base", str), ("coord", int)],
                                      frozen=True)
    pairs = [("x", 1), ("x", 2), ("y", 1), ("x", 1)]
    for a, b in itertools.product(pairs, repeat=2):
        va, vb = SVar(*a), SVar(*b)
        assert (va == vb) == (Twin(*a) == Twin(*b))
        # interned: the hash is identity's, consistent with equality
        if va == vb:
            assert hash(va) == hash(vb)
    for p in pairs:
        assert repr(SVar(*p)) == repr(Twin(*p))
    assert repr(SVar("x", 1)) == "SVar(base='x', coord=1)"
    assert str(SVar("x", 1)) == "x.1"
    assert SVar("x", 1) != ("x", 1)
    with pytest.raises(AttributeError):
        SVar("x", 1).base = "y"
    with pytest.raises(AttributeError):
        del SVar("x", 1).coord
