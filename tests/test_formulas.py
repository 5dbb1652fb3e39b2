"""Parser, printer, substitution and lowering tests."""

import random
import re
import sys
import time
from fractions import Fraction

import pytest

import reference_frontend as ref
from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit import codes, qe, segments
from oagkit import scalars as sc
from oagkit.errors import FormulaError, ParseError
from oagkit.groups import box_elements, parse_group

Z1 = parse_group("Z")
Z2 = parse_group("Z*Z")
Z3 = parse_group("Z*Z*Z")
Q1 = parse_group("Q")
ZQ = parse_group("Z*Q")
QZ = parse_group("Q*Z")
ZQZ = parse_group("Z*Q*Z")

# the fuzz limits of acceptance criterion 01
CRIT01 = orc.FuzzLimits(max_coeff=3, max_modulus=6, max_depth=3, window=6)


def crit01_texts(g, count):
    """A seed-0 sample of criterion 01's bounded formulas, as text."""
    return [fm.print_formula(f) for f in
            orc.fuzz_corpus(g, 0, count, limits=CRIT01, template="bounded")]


def atoms_of(f):
    if isinstance(f, fm.ATOMS):
        yield f
    elif isinstance(f, (fm.And, fm.Or)):
        for it in f.items:
            yield from atoms_of(it)
    elif isinstance(f, (fm.Not, fm.Exists, fm.Forall)):
        yield from atoms_of(f.body)
    elif isinstance(f, (fm.Implies, fm.Iff)):
        yield from atoms_of(f.left)
        yield from atoms_of(f.right)


class TestParse:
    def test_exists_with_equation(self):
        f = fm.parse(Z2, "(exists (x) (= (* 2 x) (c 1 1)))")
        assert isinstance(f, fm.Exists)
        assert f.var == "x"
        body = f.body
        assert isinstance(body, fm.Cmp) and body.rel == fm.EQ
        assert body.left == fm.Term((("x", 2),), (0, 0))
        assert body.right == fm.Term((), (1, 1))

    def test_relative_congruence(self):
        f = fm.parse(Z2, "(congr@ 1 2 x (c 1 0))")
        assert f == fm.RelCongr(1, 2, fm.t_var(Z2, "x"),
                                fm.t_const((1, 0)))

    def test_constant_arity_error(self):
        with pytest.raises(ParseError):
            fm.parse(Z2, "(< x (c 1))")

    def test_fraction_in_discrete_coordinate(self):
        with pytest.raises(ParseError):
            fm.parse(Z2, "(= x (c 1/2 0))")
        f = fm.parse(ZQ, "(= x (c 1 1/2))")
        assert f.right.const == (1, Fraction(1, 2))

    def test_modulus_and_level_validation(self):
        with pytest.raises(ParseError):
            fm.parse(Z2, "(congr 1 x x)")
        with pytest.raises(ParseError):
            fm.parse(Z2, "(lt@ 3 x x)")
        fm.parse(Z2, "(lt@ 0 x x)")

    def test_error_position(self):
        try:
            fm.parse(Z2, "(and (< x x)\n  (congr 1 x x))")
        except ParseError as e:
            assert e.line == 2 and e.column == 10
        else:
            pytest.fail("expected a parse error")

    def test_literals(self):
        assert fm.parse(Z1, "true") == fm.BoolConst(True)
        assert fm.parse(Z1, "(and false (< x x))").items[0] == \
            fm.BoolConst(False)

    def test_insub_sugar(self):
        f = fm.parse(Z2, "(insub 1 x)")
        assert f == fm.RelEq(1, fm.t_var(Z2, "x"), fm.t_const((0, 0)))
        assert fm.print_formula(f) == "(insub 1 x)"

    def test_term_arithmetic_folds(self):
        f = fm.parse(Z1, "(< (+ x (- x x) (* 3 x)) (c 0))")
        assert f.left == fm.Term((("x", 4),), (0,))

    def test_nested_and_flattens(self):
        f = fm.parse(Z1, "(and (< x x) (and (= x x) (<= x x)))")
        assert isinstance(f, fm.And) and len(f.items) == 3

    def test_shadowing_renamed(self):
        f = fm.parse(
            Z1, "(exists (x) (and (< x (c 0)) (exists (x) (< x (c 1)))))")
        inner = f.body.items[1]
        assert f.var == "x" and inner.var == "x_2"
        assert inner.body.left.vars() == ("x_2",)

    def test_renamed_binder_captures_no_free_use(self):
        # x_2 is free in the input, so the renamed binder must skip it
        f = fm.parse(Z1, "(and (< x (c 0)) (exists (x) (< x x_2)))")
        assert fm.free_vars(f) == {"x", "x_2"}
        assert fm.print_formula(f) == \
            "(and (< x (c 0)) (exists (x_3) (< x_3 x_2)))"

    def test_binder_before_free_use(self):
        f = fm.parse(Z1, "(and (exists (x) (< x (c 0))) (< x (c 0)))")
        assert fm.free_vars(f) == {"x"}
        assert f.items[0].var != "x"

    def test_syntax_errors(self):
        for bad in ["", "(< x", "(< x x) junk", "(frob x x)", "(< 3 x)",
                    "(exists x (< x x))", "(* 1/2 x)", ")"]:
            with pytest.raises(ParseError):
                fm.parse(Z1, bad)


class TestPrintRoundTrip:
    def test_fixpoint_corpus(self):
        corpus = []
        for g in (Z1, Z2, Q1, ZQ, QZ):
            corpus += [(g, f) for f in orc.fuzz_corpus(g, 11, 8,
                                                       template="qf")]
            corpus += [(g, f) for f in orc.fuzz_corpus(g, 12, 5,
                                                       template="bounded")]
        corpus += [
            (Z2, fm.parse(Z2, "(exists (x) (= (* 2 x) (c 1 1)))")),
            (Z2, fm.parse(Z2, "(iff (insub 1 x) (le@ 1 x (c 0 0)))")),
            (Q1, fm.parse(Q1, "(forall (x) (implies (< x y) true))")),
        ]
        assert len(corpus) >= 50
        for g, f in corpus:
            s1 = fm.print_formula(f)
            f1 = fm.parse(g, s1)
            s2 = fm.print_formula(f1)
            assert fm.parse(g, s2) == f1
            assert fm.print_formula(fm.parse(g, s2)) == s2

    def test_term_printing(self):
        f = fm.parse(Z2, "(< (+ (* 2 x) y (c 0 1)) (c 0 0))")
        assert fm.print_formula(f) == "(< (+ (* 2 x) y (c 0 1)) (c 0 0))"
        f = fm.parse(Z1, "(= (* -1 x) (c 0))")
        assert fm.print_formula(f) == "(= (* -1 x) (c 0))"


class TestStructural:
    def test_free_vars_under_binder(self):
        f = fm.parse(Z1, "(exists (x) (< x y))")
        assert fm.free_vars(f) == {"y"}

    def test_substitute_example(self):
        f = fm.parse(Z1, "(< x y)")
        repl = fm.term({"y": 1}, (1,))
        out = fm.substitute(Z1, f, "x", repl)
        assert fm.print_formula(out) == "(< (+ y (c 1)) y)"

    def test_substitute_capture_avoiding(self):
        f = fm.parse(Z1, "(exists (x) (< x y))")
        out = fm.substitute(Z1, f, "y", fm.t_var(Z1, "x"))
        assert isinstance(out, fm.Exists) and out.var != "x"
        assert fm.free_vars(out) == {"x"}

    def test_substitute_bound_var_is_noop(self):
        f = fm.parse(Z1, "(exists (x) (< x y))")
        assert fm.substitute(Z1, f, "x", fm.t_const((5,))) == f

    def test_substitute_then_evaluate(self):
        pts = box_elements(Z2, 2)
        corpus = orc.fuzz_corpus(Z2, 21, 12, template="qf")
        for f in corpus:
            names = sorted(fm.free_vars(f))
            for a in pts[::7]:
                bound = f
                for v in names:
                    bound = fm.substitute(Z2, bound, v, fm.t_const(a))
                env = {v: a for v in names}
                assert orc.evaluate(Z2, bound, {}) == orc.evaluate(Z2, f, env)


class TestLower:
    def test_lex_expansion_shape(self):
        f = fm.parse(Z2, "(< x y)")
        low = fm.lower(Z2, f)
        assert isinstance(low, sc.SOr) and len(low.items) == 2

    def test_relative_congruence_lowering(self):
        low = fm.lower(Z2, fm.parse(Z2, "(congr@ 1 2 x (c 1 0))"))
        x1 = sc.SVar("x", 1)
        assert low == sc.SCongr(2, sc.lin({x1: 1}, 1))

    def test_dense_congruence_trivial(self):
        low = fm.lower(Q1, fm.parse(Q1, "(congr 3 x (c 0))"))
        assert low == sc.TRUE

    def test_level_zero_atoms(self):
        assert fm.lower(Z2, fm.parse(Z2, "(lt@ 0 x y)")) == sc.FALSE
        assert fm.lower(Z2, fm.parse(Z2, "(le@ 0 x y)")) == sc.TRUE
        assert fm.lower(Z2, fm.parse(Z2, "(insub 0 x)")) == sc.TRUE

    def test_quantifier_becomes_block(self):
        low = fm.lower(Z2, fm.parse(Z2, "(exists (x) (= x y))"))
        assert isinstance(low, sc.SExists) and low.var == sc.SVar("x", 1)
        assert isinstance(low.body, sc.SExists)
        assert low.body.var == sc.SVar("x", 2)

    def test_mixed_group_congruence_only_on_discrete(self):
        low = fm.lower(QZ, fm.parse(QZ, "(congr 5 x (c 0 0))"))
        x2 = sc.SVar("x", 2)
        assert low == sc.SCongr(5, sc.lin({x2: 1}))


class TestLowerAgreesWithDirectSemantics:
    def check(self, g, formulas, bound, stride):
        pts = box_elements(g, bound, denominators=(1, 2))
        for f in formulas:
            names = sorted(fm.free_vars(f))
            low = fm.lower(g, f)
            if not names:
                continue
            if len(names) == 1:
                combos = [(a,) for a in pts]
            else:
                combos = [(a, b) for a in pts[::stride] for b in pts[::stride]]
            for combo in combos:
                env = dict(zip(names, combo))
                want = orc.evaluate(g, f, env)
                got = sc.s_eval(g, low, fm.scalarize(g, env))
                assert got == want, (str(g), fm.print_formula(f), env)

    def test_on_z2(self):
        self.check(Z2, orc.fuzz_corpus(Z2, 31, 25, template="qf"), 2, 3)

    def test_on_mixed_groups(self):
        for g, seed in ((Z1, 32), (Q1, 33), (ZQ, 34), (QZ, 35)):
            self.check(g, orc.fuzz_corpus(g, seed, 20, template="qf"), 2, 3)

    def test_on_wide_window(self):
        self.check(Z1, orc.fuzz_corpus(Z1, 36, 15, template="qf"), 6, 1)


def outcome(parse, g, text):
    """What a parser makes of text: the formula and its repr, or the
    error's message, line and column."""
    try:
        f = parse(g, text)
    except ParseError as e:
        return ("error", str(e), e.line, e.column)
    return ("formula", f, repr(f))


DEEP = fm.MAX_DEPTH
HANDWRITTEN = [
    "", " \t\r\n", "; only a comment", "(< x y) ; a comment at the end",
    "(< x y);", "(<\tx\ty)", "(and (< x y)\r\n\t(= x (c 1)))\r\n",
    "\r(< x y", "(and (< x y)\n  (congr 1 x x))", "(< x\r\n  (c 1/2))",
    "(and (< x y) ; note\n (< y z", "(< x y) ; (", "(", "((", "(< x (c 1)",
    "(< x y) junk", "(< x y) )", ")", "(< x y))", "(< x y) (", "x y",
    "(" * (DEEP + 1) + ")" * (DEEP + 1),
    "(not " * (DEEP - 1) + "(< x y)" + ")" * (DEEP - 1),
    "(not " * DEEP + "(< x y)" + ")" * DEEP,
    "(and (< x y)\n" + "(" * (DEEP + 1), "(< x y) " + "(" * (DEEP + 1),
    # bad constants
    "(< x (c))", "(< x (c 1 2))", "(< x (c a))", "(< x (c (c 1)))",
    "(< x (c 1/2))", "(< x (c 4/2))", "(< x (c -6/4))", "(< x (c 1.5))", "(< x (c 1/-2))", "(< x (c --1))", "(< x (c 1/2/3))",
    "(< x (+ (c 1/2) 3))", "(< x (+ (c 1/2) (c 1/0)))",
    # bad binders and forms
    "(exists (1) (< x x))", "(exists (x y) (< x x))",
    "(exists ((x)) (< x x))", "(exists () (< x x))", "(forall (and) true)",
    "(exists x (< x x))", "(exists (x))", "(exists (x) true false)",
    "(frob x x)", "(< 3 x)", "(< x true)", "(< and x)", "(c 1)", "x",
    "true", "false", "()", "(())", "((< x y))", "(not)", "(and (< x y))",
    "(implies (< x y))", "(iff true)", "(congr 1 x x)", "(congr x x x)",
    "(congr@ 1 1 x x)", "(lt@ 2 x x)", "(lt@ -1 x x)", "(insub x)",
    "(insub 1 x)", "(eq@ 1 x (c 1))", "(< (+ x) x)", "(< (- x) x)",
    "(< (* 2) x)", "(< (* 1/2 x) x)", "(< (* (c 1) x) x)", "(< () x)",
    "(< (foo x) x)", "(< ((+) x) x)", "(< (+ x (* -2 y) (- y x)) (c 3))",
    # names and shadowing
    "(and (exists (x) (< x (c 0))) (< x (c 1)))",
    "(exists (x) (and (< x (c 0)) (exists (x) (< x (c 1)))))",
    "(and (exists (x) (< x y)) (exists (x) (< y x)) (< x_2 x))",
    "(forall (y) (exists (x) (and (< x y) (forall (y) (< y x)))))",
]


def mutate(text, rng):
    """One to three seeded inserts or deletes of a delimiter, a comment
    start or a character that does not separate tokens."""
    for _ in range(rng.randint(1, 3)):
        ch = rng.choice("();\t\f\xa0\n")
        hits = [i for i, c in enumerate(text) if c == ch]
        if hits and rng.random() < 0.5:
            i = rng.choice(hits)
            text = text[:i] + text[i + 1:]
        else:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + ch + text[i:]
    return text


class TestParseAgainstReference:
    """The regex tokenizer and index reader against the per-character
    tokenizer and token-object reader they replaced: the same formula,
    or the same error message, line and column."""

    @pytest.mark.parametrize("g", [Z1, ZQ])
    def test_handwritten(self, g):
        for text in HANDWRITTEN:
            assert outcome(fm.parse, g, text) == \
                outcome(ref.parse, g, text), repr(text)

    def test_mutated_crit01_texts(self):
        rng = random.Random(0)
        kinds = {"error": 0, "formula": 0}
        for g in (Z1, Z2, Z3):
            for text in crit01_texts(g, 40):
                for _ in range(5):
                    bad = mutate(text, rng)
                    got = outcome(fm.parse, g, bad)
                    assert got == outcome(ref.parse, g, bad), repr(bad)
                    kinds[got[0]] += 1
        assert kinds["error"] >= 300 and kinds["formula"] >= 50, kinds

    def test_whitespace_that_does_not_separate(self):
        for text, msg in (
                ("(<\x0cx y)", "unknown operator '<\x0cx' (line 1, column 2)"),
                ("(< x\xa0y x)",
                 "expected a term, got 'x\xa0y' (line 1, column 4)")):
            with pytest.raises(ParseError) as e:
                fm.parse(Z1, text)
            assert str(e.value) == msg


def regex_tokens(text):
    return [t for t in fm._TOKEN.findall(text) if t[0] != ";"]


class TestTokenizer:
    """The split-based tokenizer yields exactly the non-comment tokens of
    `_TOKEN`, which `err` still uses to place a token."""

    # the separators, `;`, line breaks and spaces that separate nothing,
    # and the characters of tokens
    ALPHABET = [" ", "\t", "\r", "\n", "\r\n", ";", "\x0c", "\x0b",
                "\xa0", "\x85", "\u2028", "(", ")", "/", "-", "0", "7",
                "x", "Q", "_", "@", "<"]

    def test_random_strings(self):
        rng = random.Random(0)
        for _ in range(5000):
            text = "".join(rng.choice(self.ALPHABET)
                           for _ in range(rng.randrange(40)))
            assert fm._Parser(Z1, text).toks == regex_tokens(text), \
                repr(text)

    def test_handwritten_and_mutated_texts(self):
        rng = random.Random(1)
        texts = list(HANDWRITTEN)
        for g in (Z1, Z2, Z3):
            for text in crit01_texts(g, 40):
                texts += [text] + [mutate(text, rng) for _ in range(5)]
        for text in texts:
            assert fm._Parser(Z1, text).toks == regex_tokens(text), \
                repr(text)


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * (INT_DIGITS + 1)


def parse_without_capture_fix(g, text):
    """The reference front end with binder suffixes that avoid only the
    names seen so far, as before the capture fix."""
    toks = ref.tokenize(text)
    node, _ = ref.read_sexp(toks, 0)
    f = ref._Parser(g, frozenset()).formula(node)
    return ref.freshen(g, f, fm.all_names(f))


def test_capture_fix_changes_only_inputs_naming_a_suffix():
    # an input without a name like x_2 parses byte for byte as before,
    # renamed binders included
    cases = [(Z1, t) for t in HANDWRITTEN
             if outcome(fm.parse, Z1, t)[0] == "formula"]
    cases += [(Z2, t) for t in crit01_texts(Z2, 40)]
    cases += [(Z1, "(exists (x) (and (< x y) (exists (x) (< y x))))"),
              (Z1, "(forall (y) (exists (y) (< y (c 1))))")]
    renamed = 0
    for g, text in cases:
        if re.search(r"_\d", text):
            continue
        f = fm.parse(g, text)
        assert repr(f) == repr(parse_without_capture_fix(g, text)), text
        renamed += "_2" in fm.print_formula(f)
    assert renamed >= 3, renamed


class TestNumerals:
    @pytest.mark.parametrize("g", [Z1, Q1])
    def test_zero_denominator(self, g):
        with pytest.raises(ParseError) as e:
            fm.parse(g, "(and (< x (c 0))\n     (< x (c 1/0)))")
        assert str(e.value) == \
            "zero denominator in '1/0' (line 2, column 14)"

    @pytest.mark.skipif(not INT_DIGITS, reason="no integer string limit")
    @pytest.mark.parametrize("text,column", [
        (f"(< x (c {LONG}))", 9), (f"(< x (* {LONG} x))", 9),
        (f"(congr {LONG} x x)", 8), (f"(lt@ {LONG} x x)", 6),
        (f"(congr@ 1 {LONG} x x)", 11)])
    def test_past_the_integer_string_limit(self, text, column):
        with pytest.raises(ParseError) as e:
            fm.parse(Z1, text)
        assert (e.value.line, e.value.column) == (1, column)
        assert "numeral longer than" in str(e.value)

    def test_discrete_constants_read_as_integers(self):
        f = fm.parse(Z2, "(< x (c 4/2 -7))")
        assert f.right.const == (2, -7)
        assert all(type(q) is int for q in f.right.const)
        with pytest.raises(ParseError) as e:
            fm.parse(Z1, "(< x (c 1/2))")
        assert str(e.value) == \
            "non-integer value 1/2 in a Z coordinate (line 1, column 7)"

    def test_dense_constants_are_one_numeral_per_value(self):
        """A dense constant is a Fraction only when it is not integral,
        however it was written, so equal atoms are one object."""
        f = fm.parse(ZQ, "(< (+ x (* 2 y)) (+ (c 1 2) (c 0 1/2)))")
        assert f.right.const == (1, Fraction(5, 2))
        assert type(f.right.const[1]) is Fraction
        assert type(f.left.const[1]) is int
        assert repr(f) == repr(ref.parse(ZQ, fm.print_formula(f)))
        for text in ("(< x (+ (c 1/2) (c 1/2)))", "(< x (c 4/4))",
                     "(< x (+ (c 3/2) (* -1 (c 1/2))))",
                     "(< x (- (* 2 (c 1/2)) (c 0)))"):
            g = fm.parse(Q1, text)
            assert g.right.const == (1,) and type(g.right.const[0]) is int
            assert g is fm.parse(Q1, "(< x (c 1))"), text
        assert fm.t_var(Z1, "x") is fm.t_var(Q1, "x")


def _mixed_atom_texts(g):
    """Atoms of every kind on g, with a fractional constant on each dense
    coordinate."""
    const = " ".join("1/2" if k == "Q" else "3" for k in g.kinds)
    neg = " ".join("-5/3" if k == "Q" else "-1" for k in g.kinds)
    s, t = "(+ (* 2 x) (* -3 y))", f"(+ y (c {const}))"
    out = [f"(< {s} {t})", f"(<= {s} {t})", f"(= {s} {t})",
           f"(congr 3 {s} {t})", f"(< x (c {neg}))", f"(<= (c {neg}) x)",
           f"(= (* 2 x) (c {const}))", f"(< x x)", f"(<= x x)"]
    for k in range(g.n + 1):
        out += [f"(lt@ {k} {s} {t})", f"(le@ {k} {s} {t})",
                f"(eq@ {k} {s} {t})", f"(congr@ {k} 2 {s} {t})",
                f"(insub {k} (- {s} (c {const})))"]
    return out


class TestLowerAgainstReference:
    """Each atom lowered from its coefficient table against the lowering
    through the term difference, `_coord_exprs` and `_lex_*`: the very
    same interned node."""

    @pytest.mark.parametrize("g", [Z1, Z2, Z3])
    def test_crit01_atoms(self, g):
        count = 0
        for text in crit01_texts(g, 40):
            for atom in atoms_of(fm.parse(g, text)):
                assert fm._lower_atom(g, atom) is ref.lower_atom(g, atom)
                count += 1
        assert count >= 100

    @pytest.mark.parametrize("g", [ZQ, QZ])
    def test_every_atom_kind_on_mixed_groups(self, g):
        for text in _mixed_atom_texts(g):
            atom = fm.parse(g, text)
            assert fm._lower_atom(g, atom) is ref.lower_atom(g, atom), text

    def test_freshen_keeps_a_formula_without_shadowing(self):
        for g in (Z1, Z2, Z3):
            for text in crit01_texts(g, 40):
                f = fm.parse(g, text)
                assert fm._freshen(g, f) is f
        f = fm.parse(Z1, "(exists (x) (exists (y) (< x y)))")
        assert fm._freshen(Z1, f) is f

    def test_freshen_renames_a_binder_that_shadows(self):
        f = fm.parse(Z1, "(and (exists (x) (< x (c 0))) (< x (c 1)))")
        assert f.items[0].var == "x_2"
        assert f == ref.parse(Z1, "(and (exists (x) (< x (c 0))) "
                                  "(< x (c 1)))")
        tx = fm.t_var(Z1, "x")
        inner = fm.Exists("x", fm.Cmp(fm.LT, tx, fm.t_const((0,))))
        for f in (fm.And((inner, fm.Cmp(fm.LT, tx, fm.t_const((1,))))),
                  fm.Forall("x", fm.Or((inner, fm.Cmp(fm.EQ, tx, tx))))):
            out = fm._freshen(Z1, f)
            assert out is not f
            assert out == ref.freshen(Z1, f, fm.all_names(f))


class TestLowerAtomCharges:
    """`_lower_atom` calls the `scalars` cores on each coordinate's parts;
    `ref.lower_atom_charged` builds each coordinate's difference and
    normalizes it through the old constructors, and expands every case
    of a comparison.  Each atom gives the very same node; the library
    charges no more, and less only past a FALSE coordinate equation,
    where it stops expanding."""

    def check(self, g, atoms):
        count = fell = 0
        for atom in atoms:
            with sc.budget_scope(None) as want:
                expected = ref.lower_atom_charged(g, atom)
            with sc.budget_scope(None) as got:
                out = fm._lower_atom(g, atom)
            assert out is expected, fm.print_formula(atom)
            assert got.used <= want.used, fm.print_formula(atom)
            if got.used < want.used:
                assert self.has_false_equation(g, atom), \
                    fm.print_formula(atom)
                fell += 1
            count += 1
        return count, fell

    @staticmethod
    def has_false_equation(g, atom):
        """Whether some coordinate equation of a comparison is FALSE."""
        lowered = fm._lower_atom(g, fm.RelEq(getattr(atom, "level", g.n),
                                             atom.left, atom.right))
        return lowered is sc.FALSE

    @pytest.mark.parametrize("g", [Z1, Z2, Z3], ids=str)
    def test_crit01_atoms(self, g):
        atoms = [a for text in crit01_texts(g, 40)
                 for a in atoms_of(fm.parse(g, text))]
        count, fell = self.check(g, atoms)
        assert count >= 100
        assert fell > 0

    @pytest.mark.parametrize("rel,full", [("<", 9), ("<=", 11)])
    def test_a_false_coordinate_equation_ends_the_expansion(self, rel,
                                                            full):
        # 2 x.1 = 1 has no integer solution, so only the first case of
        # 2x <lex (1, 0, 0) is built, and not <='s closing equation: 4
        # charges, where expanding every case charges 9 and 11
        atom = fm.parse(Z3, f"({rel} (* 2 x) (c 1 0 0))")
        with sc.budget_scope(None) as got:
            out = fm._lower_atom(Z3, atom)
        with sc.budget_scope(None) as want:
            expected = ref.lower_atom_charged(Z3, atom)
        assert out is expected
        assert sc.print_scalar(out) == "(< x.1 (c 1))"
        assert (got.used, want.used) == (4, full)

    def test_a_strict_atom_on_three_coordinates_charges_nine(self):
        atom = fm.parse(Z3, "(< x (c 1 2 3))")
        with sc.budget_scope(None) as got:
            fm._lower_atom(Z3, atom)
        with sc.budget_scope(None) as nested:
            ref.lower_atom(Z3, atom)
        assert (got.used, nested.used) == (9, 10)

    @pytest.mark.parametrize("g", [ZQ, QZ], ids=str)
    def test_every_atom_kind_on_mixed_groups(self, g):
        self.check(g, [fm.parse(g, text) for text in _mixed_atom_texts(g)])

    @pytest.mark.parametrize("g", [Q1, ZQZ], ids=str)
    def test_fuzz_corpus_atoms(self, g):
        atoms = [a for template in ("qf", "bounded")
                 for f in orc.fuzz_corpus(g, 41, 30, template=template)
                 for a in atoms_of(f)]
        assert self.check(g, atoms)[0] >= 100

    @pytest.mark.parametrize("m", [0, -3])
    def test_library_congruence_modulus_below_one(self, m):
        # the parser refuses m < 2; atoms built in code reach the cores
        x, c = fm.t_var(Z2, "x"), fm.t_const((1, 2))
        for atom in (fm.Congr(m, x, c), fm.RelCongr(1, m, x, c),
                     fm.RelCongr(2, m, x, c), fm.Congr(m, c, c)):
            with pytest.raises(FormulaError, match="modulus"):
                fm.lower(Z2, atom)
            with pytest.raises(FormulaError, match="modulus"):
                fm.lower(Z2, fm.Exists("x", atom))


class TestScanOnce:
    """`_scan` walks each formula object once and keeps the answer on it,
    outside its fields; the parser keeps its own scan on what it parses,
    so a parsed formula is not walked at all."""

    def count_walks(self, monkeypatch):
        walked = []
        walk = fm._scan_walk

        def counted(f):
            walked.append(f)
            return walk(f)

        monkeypatch.setattr(fm, "_scan_walk", counted)
        return walked

    def test_a_query_scans_each_formula_object_once(self, monkeypatch):
        scan_walk = fm._scan_walk
        walked = self.count_walks(monkeypatch)
        for g in (Z1, Z2, Z3):
            for text in crit01_texts(g, 40):
                del walked[:]
                f = fm.parse(g, text)
                if fm.free_vars(f):
                    qe.eliminate(g, f)
                else:
                    qe.decide(g, f)
                fm.lower(g, f)
                assert walked == [], text
                assert f._scanned == scan_walk(f), text
        # a parsed text whose binder shadows a later free use: the parser's
        # scan says so, and only the freshened result is walked
        del walked[:]
        f = fm.parse(Z1, "(and (exists (x) (< x (c 0))) (< x (c 1)))")
        qe.eliminate(Z1, f)
        fm.lower(Z1, f)
        assert walked == [f] and f._scanned == scan_walk(f)
        assert fm.print_formula(f) == \
            "(and (exists (x_2) (< x_2 (c 0))) (< x (c 1)))"

    def test_the_parsers_scan_is_the_walks(self, monkeypatch):
        # every parsed formula's scan is the one a walk finds.  A name
        # whose coefficients cancel may be no free name, so such a parse
        # is walked instead, and so is a freshened result
        scan_walk = fm._scan_walk
        walked = self.count_walks(monkeypatch)
        cancelled = [
            "(< (- x x) y)", "(exists (y) (< (+ x (* -1 x)) y))",
            "(and (< (- x x) y) (< x y))", "(exists (x) (< (- x x) y))"]
        seen, parsed = [], 0
        for text in HANDWRITTEN + crit01_texts(Z1, 40) + cancelled:
            del walked[:]
            try:
                f = fm.parse(Z1, text)
            except ParseError:
                continue
            parsed += 1
            assert fm._scan(f) == scan_walk(f), text
            assert len(walked) <= 1
            seen += [text] * len(walked)
        assert parsed >= 60, parsed
        assert seen == [
            "(< (+ x (* -2 y) (- y x)) (c 3))",
            "(and (exists (x) (< x (c 0))) (< x (c 1)))",
            "(and (exists (x) (< x y)) (exists (x) (< y x)) (< x_2 x))",
            *cancelled]
        assert fm.free_vars(fm.parse(Z1, cancelled[0])) == {"y"}

    def test_the_kept_scan_changes_no_equality_hash_or_repr(self,
                                                           monkeypatch):
        """Equal formulas are one object, so the scan kept on it is
        walked once for all of them; it is no field, so equality and
        hash stay identity's and repr does not show it, and it cannot be
        assigned."""
        text = "(exists (y) (and (< x y) (forall (zk) (< y zk))))"
        f = fm.parse(Z2, text)
        inner = f.body.items[1]
        assert fm.all_names(inner) == {"y", "zk"}
        walked = self.count_walks(monkeypatch)
        rebuilt = fm.Exists("y", fm.And(tuple(
            type(k)(*[getattr(k, n) for n in k._fields])
            for k in f.body.items)))
        assert rebuilt is f and fm.parse(Z2, text) is f
        assert fm.free_vars(rebuilt) == {"x"}
        assert fm.all_names(rebuilt) == {"x", "y", "zk"}
        assert fm.free_vars(inner.body) == {"y", "zk"} and walked == [
            inner.body]
        assert hash(f) == object.__hash__(f)
        assert f._fields == ("var", "body") and "_scanned" not in repr(f)
        with pytest.raises(AttributeError):
            f._scanned = None

    def test_library_built_shadowing_freshens_as_before(self):
        tx, ty = fm.t_var(Z1, "x"), fm.t_var(Z1, "y")
        zero = fm.t_const((0,))
        inner = fm.Exists("x", fm.And((fm.Cmp(fm.LT, tx, ty),
                                       fm.Exists("y", fm.Cmp(fm.LT, ty,
                                                             tx)))))
        f = fm.Forall("y", fm.Or((inner, fm.Cmp(fm.EQ, tx, zero),
                                  fm.Exists("x", fm.Cmp(fm.LT, tx, ty)))))
        out = fm._freshen(Z1, f)
        assert fm.print_formula(out) == (
            "(forall (y) (or (exists (x_2) (and (< x_2 y) (exists (y_2) "
            "(< y_2 x_2)))) (= x (c 0)) (exists (x_3) (< x_3 y))))")
        assert out == ref.freshen(Z1, f, fm.all_names(f))
        assert fm._freshen(Z1, f) == out and fm._freshen(Z1, out) is out
        assert fm.lower(Z1, f) is fm.lower(Z1, out)


# scalars.nodes_built of parsing and eliminating the sample below with the
# term-level lowering this one replaced; node budgets depend on the count,
# so it may only fall
NODES_BUILT_BEFORE = {"Z": 1548, "Z*Z": 1429, "Z*Z*Z": 2315}


@pytest.mark.parametrize("spec", sorted(NODES_BUILT_BEFORE))
def test_nodes_built_may_only_fall(spec):
    g = parse_group(spec)
    texts = crit01_texts(g, 30)
    with sc.budget_scope(None) as budget:
        for text in texts:
            qe.eliminate_scalar(g, fm.lower(g, fm.parse(g, text)))
    assert budget.used <= NODES_BUILT_BEFORE[spec]


# --- the traversals against the recursions they replaced ---------------------


def traversal_corpus(g):
    out = []
    for template, count in (("qf", 25), ("bounded", 25), ("end-segment", 6)):
        out += orc.fuzz_corpus(g, 7, count, template=template)
    return out


class TestTraversalsAgainstReference:
    """Printing, names, the quantifier-free test, freshening, lowering and
    substitution against the recursive code in `reference_frontend`:
    the same text, `==` formulas and the very same lowered node."""

    @pytest.mark.parametrize("g", [Z1, Z2, ZQ, QZ, ZQZ], ids=str)
    def test_fuzz_corpus(self, g):
        renamed = 0
        for f in traversal_corpus(g):
            assert fm.print_formula(f) == ref.print_formula(f)
            assert fm.free_vars(f) == ref.names(f, False)
            assert fm.all_names(f) == ref.names(f, True)
            assert fm.is_quantifier_free(f) == ref.is_quantifier_free(f)
            assert fm._freshen(g, f) == ref.freshen_if_shadowed(g, f)
            assert fm.lower(g, f) is ref.lower(g, f)
            with sc.operation_scope():
                assert fm.lower(g, f) is ref.lower(g, f)
            names = sorted(fm.all_names(f))
            for v in names:
                for w in names:
                    repl = fm.t_add(g, fm.t_var(g, w),
                                    fm.t_scale(g, 2, fm.t_var(g, v)))
                    out = fm.substitute(g, f, v, repl)
                    assert out == ref.substitute(g, f, v, repl)
                    renamed += not fm.all_names(out) <= (
                        fm.all_names(f) | set(repl.vars()))
        assert renamed > 0  # some binders were renamed to avoid capture

    def test_substitute_renames_capturing_binders(self):
        x, y, z = (fm.t_var(Z1, v) for v in "xyz")
        lt = fm.Cmp(fm.LT, x, y)
        cases = [
            # a binder named like the replacement, shadowed by another
            (fm.Exists("y", fm.And((fm.Exists("y", lt),
                                    fm.Cmp(fm.EQ, x, y)))), y,
             "(exists (y_2) (and (exists (y_2) (< y y_2)) (= y y_2)))"),
            # the fresh name of the outer binder is taken below it
            (fm.Exists("y", fm.Forall("y_2", fm.Cmp(
                fm.LT, x, fm.t_add(Z1, y, fm.t_var(Z1, "y_2"))))), y,
             "(exists (y_3) (forall (y_2) (< y (+ y_2 y_3))))"),
            # two binders, each named like a variable of the replacement
            (fm.Exists("y", fm.Exists("z", fm.Cmp(
                fm.LT, x, fm.t_add(Z1, y, z)))), fm.t_add(Z1, y, z),
             "(exists (y_2) (exists (z_2) (< (+ y z) (+ y_2 z_2))))"),
            # the substituted name bound below a renamed binder
            (fm.Forall("y", fm.Or((fm.Exists("x", lt), lt))), y,
             "(forall (y_2) (or (exists (x) (< x y_2)) (< y y_2)))"),
        ]
        for f, repl, text in cases:
            out = fm.substitute(Z1, f, "x", repl)
            assert out == ref.substitute(Z1, f, "x", repl)
            assert fm.print_formula(out) == text

    def test_freshen_shadowing_chains(self):
        x = fm.t_var(Z1, "x")
        neg = fm.Cmp(fm.LT, x, fm.t_const((0,)))
        chain = fm.Exists("x", fm.Forall("x", fm.Exists("x", neg)))
        cases = [
            (chain,
             "(exists (x) (forall (x_2) (exists (x_3) (< x_3 (c 0)))))"),
            (fm.And((neg, chain)),
             "(and (< x (c 0)) (exists (x_2) (forall (x_3) (exists (x_4) "
             "(< x_4 (c 0))))))"),
            (fm.Or((fm.Cmp(fm.EQ, fm.t_var(Z1, "x_3"), x), chain, chain)),
             "(or (= x_3 x) (exists (x_2) (forall (x_4) (exists (x_5) "
             "(< x_5 (c 0))))) (exists (x_6) (forall (x_7) (exists (x_8) "
             "(< x_8 (c 0))))))"),
        ]
        for f, text in cases:
            out = fm._freshen(Z1, f)
            assert out == ref.freshen_if_shadowed(Z1, f)
            assert fm.print_formula(out) == text
            assert fm._freshen(Z1, out) is out

    def test_an_unknown_node_is_a_formula_error(self):
        for f in ("x", None, fm.Not("x"), fm.And((fm.BoolConst(True), 3))):
            for fn in (fm.free_vars, fm.all_names, fm.is_quantifier_free,
                       fm.print_formula, lambda f: fm.lower(Z1, f)):
                with pytest.raises(FormulaError):
                    fn(f)


# --- library-built formulas deeper than the recursion limit ----------------


class TestDeepChains:
    """Formulas ten times deeper than the default recursion limit, built
    with the node constructors, through every formula-layer traversal
    and the entry points above it.  Each defines x > 0 on Z."""

    DEPTH = 10_000
    X = fm.t_var(Z1, "x")
    POS = fm.Cmp(fm.LT, fm.t_const((0,)), X)  # 0 < x
    POS_TEXT = "(< (c 0) x)"
    MOVED = " (+ y (c 1)))"  # the text of x after substituting y + 1

    def check(self, f, text, moved_text, quantifier_free):
        assert fm.free_vars(f) == {"x"}
        assert fm.all_names(f) == {"x"}
        assert fm.is_quantifier_free(f) is quantifier_free
        assert fm.print_formula(f) == text
        y1 = fm.t_add(Z1, fm.t_var(Z1, "y"), fm.t_const((1,)))
        moved = fm.substitute(Z1, f, "x", y1)
        assert fm.free_vars(moved) == {"y"}
        assert fm.print_formula(moved) == moved_text
        body = qe.eliminate_scalar(Z1, fm.lower(Z1, f))
        for t in range(-3, 4):
            assert sc.s_eval(Z1, body, {sc.SVar("x", 1): t}) == (t > 0)
        sentence = fm.Exists("x", f)
        assert qe.decide(Z1, sentence) is True
        assert qe.satisfiable(Z1, f) is True
        assert qe.equivalent(Z1, f, self.POS) is True
        assert qe.witness(Z1, sentence) == (1,)
        assert segments.to_div_segment(Z1, f, "x") == \
            segments.to_div_segment(Z1, self.POS, "x")
        assert codes.code_set(Z1, f, "x") == codes.code_set(Z1, self.POS, "x")
        return body

    def test_negations(self):
        f = self.POS
        for _ in range(self.DEPTH):
            f = fm.Not(f)
        text = "(not " * self.DEPTH + self.POS_TEXT + ")" * self.DEPTH
        body = self.check(f, text, text.replace(" x)", self.MOVED), True)
        assert body is fm.lower(Z1, self.POS)

    def test_conjunction_chain(self):
        # right-nested binary conjunctions of 0 < x, -1 < x, -2 < x, ...
        f, texts = self.POS, []
        for i in reversed(range(self.DEPTH)):
            f = fm.And((fm.Cmp(fm.LT, fm.t_const((-(i % 3),)), self.X), f))
        for i in range(self.DEPTH):
            texts.append(f"(and (< (c {-(i % 3)}) x) ")
        text = "".join(texts) + self.POS_TEXT + ")" * self.DEPTH
        self.check(f, text, text.replace(" x)", self.MOVED), True)

    def test_shadowing_chain(self):
        # every binder shadows the free x and the binders around it
        chain = self.POS
        for _ in range(self.DEPTH):
            chain = fm.Exists("x", chain)
        f = fm.And((self.POS, chain))
        text = ("(and " + self.POS_TEXT + " " + "(exists (x) " * self.DEPTH
                + self.POS_TEXT + ")" * self.DEPTH + ")")
        # only the first atom's x is free
        moved = text.replace(" x)", self.MOVED, 1)
        body = self.check(f, text, moved, False)
        assert body is fm.lower(Z1, self.POS)
        names, node = [], fm._freshen(Z1, f).items[1]
        while isinstance(node, fm.Exists):
            names.append(node.var)
            node = node.body
        assert names == [f"x_{k}" for k in range(2, self.DEPTH + 2)]
        assert node == fm.Cmp(fm.LT, fm.t_const((0,)),
                              fm.t_var(Z1, f"x_{self.DEPTH + 1}"))

    def test_distinct_binder_chain_scans_in_linear_time(self):
        # ∃x1 … ∃xn (x1 < x): each binder adds one name to the scope
        n = 2 * self.DEPTH
        f = fm.Cmp(fm.LT, fm.t_var(Z1, "x1"), self.X)
        for i in range(n, 0, -1):
            f = fm.Exists(f"x{i}", f)
        start = time.process_time()
        assert fm.free_vars(f) == {"x"}
        assert fm.all_names(f) == {"x"} | {f"x{i}" for i in range(1, n + 1)}
        assert fm.is_quantifier_free(f) is False
        assert time.process_time() - start < 1

    def test_distinct_binder_chain_freshens_in_linear_time(self):
        # ∃x1 … ∃xn (x1 < x5) beside a free x5: only the binder x5 shadows,
        # and one renaming map serves the whole chain
        n = 2 * self.DEPTH
        x5 = fm.t_var(Z1, "x5")
        chain = fm.Cmp(fm.LT, fm.t_var(Z1, "x1"), x5)
        for i in range(n, 0, -1):
            chain = fm.Exists(f"x{i}", chain)
        f = fm.And((fm.Cmp(fm.LT, x5, self.X), chain))
        start = time.process_time()
        out = fm._freshen(Z1, f)
        assert time.process_time() - start < 2
        binders = "".join(f"(exists (x{i if i != 5 else '5_2'}) "
                          for i in range(1, n + 1))
        assert fm.print_formula(out) == \
            "(and (< x5 x) " + binders + "(< x1 x5_2)" + ")" * (n + 1)

    def test_distinct_conjunction_chain_lowers_in_linear_time(self):
        # right-nested binary conjunctions of n distinct atoms c_i < x,
        # and disjunctions: one node, built from one list of the atoms
        n = 10 ** 4
        lows = [fm.Cmp(fm.LT, fm.t_const((i,)), self.X) for i in range(n)]
        for cls, mk in ((fm.And, sc.mk_and), (fm.Or, sc.mk_or)):
            f = lows[-1]
            for atom in reversed(lows[:-1]):
                f = cls((atom, f))
            start = time.process_time()
            out = fm.lower(Z1, f)
            assert time.process_time() - start < 2
            assert out is mk([fm.lower(Z1, atom) for atom in lows])

    def test_distinct_variable_connective_lowers_in_linear_time(self):
        # (and (< v0 (c 0)) ... (< vn-1 (c n-1))) and the disjunction: each
        # node's free variables are one union over its n items
        n = 2 * self.DEPTH
        lows = [fm.Cmp(fm.LT, fm.t_var(Z1, f"v{i}"), fm.t_const((i,)))
                for i in range(n)]
        for cls, mk in ((fm.And, sc.mk_and), (fm.Or, sc.mk_or)):
            start = time.process_time()
            out = fm.lower(Z1, cls(tuple(lows)))
            assert time.process_time() - start < 2
            assert out is mk([fm.lower(Z1, atom) for atom in lows])
            assert len(out.fv) == n

    def test_a_chain_stops_at_its_first_false_conjunct(self, monkeypatch):
        # 2x = 1 (mod 2) lowers to FALSE: nested or not, the atoms after
        # it are never lowered, and the disjunction stops at TRUE alike
        lowered = []
        real = fm._lower_atom

        def counting(g, atom):
            lowered.append(atom)
            return real(g, atom)

        monkeypatch.setattr(fm, "_lower_atom", counting)
        two_x = fm.t_scale(Z1, 2, self.X)
        false = fm.Congr(2, two_x, fm.t_const((1,)))
        true = fm.Congr(2, two_x, fm.t_const((0,)))
        after = fm.Cmp(fm.LT, self.X, fm.t_const((7,)))
        for cls, stop, want in ((fm.And, false, sc.FALSE),
                                (fm.Or, true, sc.TRUE)):
            lowered.clear()
            f = cls((self.POS, cls((stop, cls((after, self.POS))))))
            assert fm.lower(Z1, f) is want
            assert lowered == [self.POS, stop]

    def test_three_thousand_negations_decide(self):
        f = fm.Cmp(fm.LT, self.X, fm.t_const((0,)))  # x < 0
        for _ in range(3000):
            f = fm.Not(f)
        assert qe.decide(Z1, fm.Exists("x", f)) is True
