"""Golden digests of every kind of answer.

What oagkit answers is its contract: elimination and `decide` results,
canonical codes bit for bit, and the byte-stable `oag-v1` envelopes.
This test renders the answers over the corpora the acceptance criteria
build, and over unary corpora of the mixed groups they leave out, and
compares a 16-hex-digit SHA-256 prefix of each render with the one
recorded in `tests/golden/digests.json`.  A change in how an answer is
computed keeps every digest; a change in what is answered fails here,
at the first differing answer of its section.

The file is rewritten only by a change that says why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py --record
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from oagkit import cli, qe
from oagkit import formulas as fm
from oagkit import oracle as orc
from oagkit.codes import (code_segment, code_set, code_to_obj, code_type,
                          reconstruct)
from oagkit.scalars import print_scalar
from oagkit.segments import nice_decompose, to_div_segment
from oagkit.typegen import generic_type
from test_acceptance import (DIFF_LIMITS, GROUPS, UNARY_LIMITS, _perturb,
                             _rewrite_equivalent, _unary_corpus)

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"


def _digest(render: str) -> str:
    return hashlib.sha256(render.encode()).hexdigest()[:16]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _nice(g, f):
    return [{"upper": cli._segment_obj(p.upper),
             "lower": cli._segment_obj(p.lower),
             "congruences": [cli._congr_obj(l) for l in p.congr]}
            for p in nice_decompose(g, f, "x")]


# --- the sections: each yields (label, render) per answer --------------------


def _criterion_01():
    for spec, seed, count in (("Z", 101, 400), ("Z*Z", 102, 350),
                              ("Z*Z*Z", 103, 300)):
        g = GROUPS[spec]
        for f in orc.fuzz_corpus(g, seed, count, limits=DIFF_LIMITS,
                                 template="bounded"):
            if fm.free_vars(f):
                out = qe.eliminate(g, f)
                render = _dumps([list(out.free), print_scalar(out.body)])
            else:
                render = _dumps(qe.decide(g, f))
            yield f"{spec} {fm.print_formula(f)}", render


def _criterion_05():
    for spec, seed, count in (("Z", 51, 50), ("Z*Z", 52, 50), ("Q", 53, 30),
                              ("Z*Q", 54, 35), ("Q*Z", 55, 35)):
        g = GROUPS[spec]
        for f in orc.fuzz_corpus(g, seed, count, template="end-segment"):
            seg = to_div_segment(g, f, "x")
            code = code_segment(g, seg)
            back = reconstruct(g, code, "x")
            yield f"{spec} {fm.print_formula(f)}", _dumps(
                {"segment": cli._segment_obj(seg), "code": code_to_obj(code),
                 "reconstructed": fm.print_formula(back)})


def _criterion_06():
    rng = random.Random(606)
    for spec, seed, count in (("Z", 61, 120), ("Z*Z", 62, 90),
                              ("Z*Q", 63, 90)):
        g = GROUPS[spec]
        for i, f in enumerate(_unary_corpus(g, seed, count, UNARY_LIMITS)):
            other = (_rewrite_equivalent(g, f, rng) if i % 2 == 0
                     else _perturb(g, f, rng))
            yield f"{spec} {fm.print_formula(f)}", _dumps(
                {"code": code_to_obj(code_set(g, f, "x")),
                 "other": code_to_obj(code_set(g, other, "x")),
                 "nice": _nice(g, f)})


def _criterion_07():
    for spec, seed, count in (("Z", 71, 35), ("Z*Z", 72, 35), ("Q", 73, 15),
                              ("Z*Q", 74, 15)):
        g = GROUPS[spec]
        for f in _unary_corpus(g, seed, count, UNARY_LIMITS,
                               need_satisfiable=True):
            p = generic_type(g, f, 6)
            yield f"{spec} {fm.print_formula(f)}", _dumps(
                {"descriptor": cli._descriptor_obj(p),
                 "code": code_to_obj(code_type(g, p))})


def _mixed_unary():
    # the unary group kinds criterion 06 does not cover
    for spec, seed in (("Q", 64), ("Q*Z", 65), ("Z*Q*Z", 66), ("Q*Z*Q", 67)):
        g = GROUPS[spec]
        for f in _unary_corpus(g, seed, 40, UNARY_LIMITS):
            yield f"{spec} {fm.print_formula(f)}", _dumps(
                {"code": code_to_obj(code_set(g, f, "x")),
                 "nice": _nice(g, f)})


CODE_ARGS = ["--group", "Z*Q", "(and (< (c -1 1/2) x) (< x (c 2 0)))",
             "--var", "x"]

CLI_CALLS = (
    ["parse", "--group", "Z*Z", "(forall (y) (or (< x y) (congr 3 y x)))"],
    ["qe", "--group", "Z*Q", "(exists (y) (and (< (* 2 y) x) "
                             "(<= (c 0 1) y)))"],
    ["decide", "--group", "Q*Z", "(forall (x) (exists (y) "
                                 "(and (< x y) (congr 2 y (c 0 1)))))"],
    ["equiv", "--group", "Z*Z", "(congr 2 z (c 0 1))",
     "(not (congr 2 z (c 0 0)))"],
    ["nice", "--group", "Z*Z", "(or (< x (c -1 3)) (and (< (c 2 0) x) "
                               "(congr 3 x (c 0 1))))", "--var", "x"],
    ["endseg", "--group", "Q*Z", "(<= (c 1/2 3) (* 2 x))", "--var", "x"],
    ["code"] + CODE_ARGS,
    ["reconstruct"],  # + the code call's envelope, as text
    ["typegen", "--group", "Z*Z", "(and (< (c 0 5) x) (congr 3 x (c 0 1)))",
     "--var", "x"],
    ["rank", "--group", "Z*Q*Z", "--n", "6"],
    ["chi", "--group", "Z*Z*Q", "2"],
    ["reps", "--group", "Z*Z*Z", "2", "4"],
    ["fuzzcheck", "--group", "Z", "--count", "30", "--seed", "3"],
    ["fuzzcheck", "--group", "Z*Z", "--count", "20", "--budget", "100"],
)


def _cli_envelopes():
    code = None
    for argv in CLI_CALLS:
        if argv == ["reconstruct"]:
            argv = ["reconstruct", "--group", "Z*Q", code, "--var", "y"]
        out = io.StringIO()
        rc = cli.run(argv + ["--format", "json"], out)
        if argv[0] == "code":
            code = out.getvalue().strip()
        yield " ".join(argv), _dumps([rc, out.getvalue()])


SECTIONS = {
    "criterion_01": _criterion_01,
    "criterion_05": _criterion_05,
    "criterion_06": _criterion_06,
    "criterion_07": _criterion_07,
    "mixed_unary": _mixed_unary,
    "cli": _cli_envelopes,
}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_answers_match_their_golden_digests(section):
    want = json.loads(GOLDEN.read_text())[section]
    got = [(label, _digest(render)) for label, render in SECTIONS[section]()]
    assert len(got) == len(want)
    for i, ((label, digest), recorded) in enumerate(zip(got, want)):
        assert digest == recorded, f"{section} answer {i} changed: {label}"


def _record() -> None:
    table = {name: [_digest(render) for _, render in build()]
             for name, build in sorted(SECTIONS.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=0) + "\n")
    print(f"{GOLDEN}: {sum(map(len, table.values()))} digests")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
