"""The four benchmark workloads: input streams, queries and reference checks.

Every input reaches the program as s-expression text, so ``parse`` is part
of each query.  Inputs come from ``oracle.fuzz_corpus`` in the shapes of
acceptance criteria 01, 05, 06 and 07 and are a pure function of the run
seed.  Streams are endless and generated in chunks outside the query
timers, so a run of any length sees no input twice unless the generator
made it twice.

The codes and typegen queries are heavy and heavy-tailed (one query can
cost twenty times the median), so a run covers only a few dozen of them.
Drawing whole formulas per seed made the seed-to-seed spread of their
means wider than any useful bound.  Those two workloads therefore take
their formulas (and the crit-06 rewrites) from fixed corpus seeds and
translate every input by a group element drawn from the run seed: each
seed gets different sets, codes and types, at the same cost.
"""

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from oagkit import cli
from oagkit import codes
from oagkit import formulas as fm
from oagkit import groups as gr
from oagkit import oracle as orc
from oagkit import qe
from oagkit import scalars as sc
from oagkit import segments
from oagkit import typegen

DIFF_LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=6, max_depth=3,
                             window=6)
UNARY_LIMITS = orc.FuzzLimits(max_coeff=3, max_modulus=4, max_depth=2,
                              window=6)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIFT = orc.FuzzLimits(window=12, max_den=2)
GROUPS = {s: gr.parse_group(s)
          for s in ("Z", "Z*Z", "Z*Q", "Q*Z", "Z*Z*Z")}


def derive(*parts) -> int:
    """A stable integer seed from any printable parts."""
    h = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(h[:6], "big")


class Query:
    __slots__ = ("qid", "spec", "args", "expect")

    def __init__(self, qid, spec, args, expect=None):
        self.qid, self.spec, self.args, self.expect = qid, spec, args, expect


class Workload:
    """An endless, seeded stream of queries.

    ``run`` is the timed part.  ``render`` gives the output text whose
    digest is compared byte for byte against the recorded references;
    ``check`` is the reference check that holds for any seed.  Both run
    outside the query timer.
    """

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self._queue = []
        self._chunk = 0
        self._next_qid = 0

    def next_query(self) -> Query:
        while not self._queue:
            self._queue.extend(self.chunk(self._chunk))
            self._chunk += 1
        spec, args, expect = self._queue.pop(0)
        q = Query(self._next_qid, spec, args, expect)
        self._next_qid += 1
        return q

    def prime(self):
        """Set-up: generate the first chunk so the first query can go."""
        self._queue.extend(self.chunk(self._chunk))
        self._chunk += 1

    def chunk(self, index):  # pragma: no cover - abstract
        raise NotImplementedError


# --- shared input helpers -----------------------------------------------


def _rand_const(g, rng, lim):
    vals = []
    for kind in g.kinds:
        if kind == "Z":
            vals.append(rng.randint(-lim.window, lim.window))
        else:
            den = rng.randint(1, lim.max_den)
            vals.append(Fraction(rng.randint(-lim.window * den,
                                             lim.window * den), den))
    return gr.element(g, vals)


def translate(g, f, t):
    """phi(x + t).  Translation by a group element is an order
    automorphism, so the translated set has the same decomposition, the
    same periods and the same number of pieces as the original: a
    different input that costs the same work."""
    x = fm.t_var(g, "x")
    return fm.substitute(g, f, "x", fm.t_add(g, x, fm.t_const(t)))


def interleave(streams):
    """Round-robin merge, so every stretch of a stream has the same mix."""
    out = []
    for row in itertools.zip_longest(*streams):
        out.extend(item for item in row if item is not None)
    return out


def unary_skeletons(g, base_seed, index, count):
    """Chunk `index` of the crit-06/07 unary corpus: quantifier-free
    formulas whose only free variable is x."""
    out = [f for f in orc.fuzz_corpus(g, derive(base_seed, index), 8 * count,
                                      limits=UNARY_LIMITS, template="qf")
           if fm.free_vars(f) == frozenset({"x"})]
    return out[:count]


# --- crit-06 rewrites: equivalent by construction, or merely nearby -------

SMALL = orc.FuzzLimits(max_coeff=3, max_modulus=4, window=4, max_den=3)


def _rand_unary_atom(g, rng):
    tx = fm.t_var(g, "x")
    tc = fm.t_const(_rand_const(g, rng, SMALL))
    kind = rng.randrange(3)
    if kind == 0:
        return fm.Cmp(rng.choice((fm.LT, fm.LE)), tc, tx)
    if kind == 1:
        return fm.Cmp(rng.choice((fm.LT, fm.LE)), tx, tc)
    return fm.Congr(rng.randint(2, 4), tx, tc)


def _shift_congruences(g, f, rng):
    """Move every congruence right-hand side by a multiple of its
    modulus; None when there is no congruence atom."""
    changed = False

    def bump(m, right):
        nonlocal changed
        changed = True
        w = gr.scale(g, m * rng.randint(-2, 2),
                     _rand_const(g, rng, SMALL))
        return fm.t_add(g, right, fm.t_const(w))

    def walk(node):
        if isinstance(node, fm.Congr):
            return fm.Congr(node.modulus, node.left,
                            bump(node.modulus, node.right))
        if isinstance(node, fm.RelCongr):
            return fm.RelCongr(node.level, node.modulus, node.left,
                               bump(node.modulus, node.right))
        if isinstance(node, fm.Not):
            return fm.Not(walk(node.body))
        if isinstance(node, (fm.And, fm.Or)):
            return type(node)(tuple(walk(it) for it in node.items))
        if isinstance(node, (fm.Implies, fm.Iff)):
            return type(node)(walk(node.left), walk(node.right))
        return node

    out = walk(f)
    return out if changed else None


def rewrite_equivalent(g, f, rng):
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


def perturb(g, f, rng):
    mode = rng.randrange(3)
    if mode == 0:
        step = fm.t_const(gr.unit(g, rng.randint(1, g.n)))
        return fm.substitute(g, f, "x", fm.t_add(g, fm.t_var(g, "x"), step))
    if mode == 1:
        return fm.And((f, _rand_unary_atom(g, rng)))
    return fm.Not(f)


# --- qe-bounded (criterion 01) --------------------------------------------


class QeBounded(Workload):
    name = "qe-bounded"
    PLAN = (("Z", 8), ("Z*Z", 7), ("Z*Z*Z", 6))  # crit-01's 400:350:300

    def __init__(self, seed):
        super().__init__(seed)
        self._axes = {}

    def chunk(self, index):
        streams = []
        for spec, count in self.PLAN:
            g = GROUPS[spec]
            corpus = orc.fuzz_corpus(g, derive("qe-bounded", self.seed,
                                               spec, index),
                                     count, limits=DIFF_LIMITS,
                                     template="bounded")
            streams.append([(spec, (fm.print_formula(f),), None)
                            for f in corpus])
        return interleave(streams)

    def run(self, q):
        g = GROUPS[q.spec]
        f = fm.parse(g, q.args[0])
        if fm.free_vars(f):
            return f, qe.eliminate(g, f)
        return f, qe.decide(g, f)

    def render(self, q, result):
        _, out = result
        if isinstance(out, bool):
            return "true" if out else "false"
        return sc.print_scalar(out.body)

    def check(self, q, result):
        f, out = result
        g = GROUPS[q.spec]
        if isinstance(out, bool):
            return out == orc.expand_bounded(g, f)
        free = tuple(sorted(fm.free_vars(f)))
        key = (q.spec, free)
        if key not in self._axes:
            self._axes[key] = (orc.grid_axes(g, free, 8),
                               orc.scalar_axes(g, free, 8))
        genv, senv = self._axes[key]
        want = orc.grid_eval(g, f, genv)
        got = orc.s_grid_eval(g, out.body, senv)
        return bool(np.all(want == got))


# --- codes (criteria 06 and 05) -------------------------------------------


class Codes(Workload):
    name = "codes"
    # per chunk: two pairs on each of Z*Z and Z*Q, one round trip on Q*Z;
    # base seeds are the criteria's own
    PAIRS = (("Z*Z", 62), ("Z*Q", 63))
    ENDSEG = ("Q*Z", 55)

    def chunk(self, index):
        shapes = random.Random(derive("codes", index))
        shifts = random.Random(derive("codes", self.seed, index))
        streams = []
        for spec, base in self.PAIRS:
            g = GROUPS[spec]
            pairs = []
            for i, f in enumerate(unary_skeletons(g, base, index, 2)):
                if i % 2 == 0:
                    other, same = rewrite_equivalent(g, f, shapes), True
                else:
                    other, same = perturb(g, f, shapes), None
                t = _rand_const(g, shifts, SHIFT)
                f, other = translate(g, f, t), translate(g, other, t)
                pairs.append((spec, (fm.print_formula(f),
                                     fm.print_formula(other)), same))
            streams.append(pairs)
        spec, base = self.ENDSEG
        g = GROUPS[spec]
        f = orc.fuzz_corpus(g, derive(base, index), 1,
                            template="end-segment")[0]
        f = translate(g, f, _rand_const(g, shifts, SHIFT))
        streams.append([(spec, (fm.print_formula(f),), None)])
        return interleave(streams)

    def run(self, q):
        g = GROUPS[q.spec]
        if len(q.args) == 2:
            f = fm.parse(g, q.args[0])
            other = fm.parse(g, q.args[1])
            a = codes.code_set(g, f, "x")
            b = codes.code_set(g, other, "x")
            return ("pair", a, b, qe.equivalent(g, f, other))
        f = fm.parse(g, q.args[0])
        seg = segments.to_div_segment(g, f, "x")
        c = codes.code_segment(g, seg)
        back = codes.reconstruct(g, c, "x")
        return ("endseg", c, back, qe.equivalent(g, back, f))

    def render(self, q, result):
        kind, a, b, same = result
        if kind == "pair":
            return json.dumps([codes.code_to_obj(a), codes.code_to_obj(b),
                               same])
        return json.dumps([codes.code_to_obj(a), fm.print_formula(b), same])

    def check(self, q, result):
        kind, a, b, same = result
        if kind == "endseg":
            return same is True
        if q.expect and not same:
            return False  # a rewrite must keep the set
        return (a == b) == same


# --- typegen (criterion 07) -----------------------------------------------


class Typegen(Workload):
    name = "typegen"
    BOUND = 4
    SPEC, BASE = "Z*Z", 72

    def chunk(self, index):
        g = GROUPS[self.SPEC]
        shifts = random.Random(derive("typegen", self.seed, index))
        out = []
        for f in unary_skeletons(g, self.BASE, index, 4):
            if qe.satisfiable(g, f):
                f = translate(g, f, _rand_const(g, shifts, SHIFT))
                out.append((self.SPEC, (fm.print_formula(f),), None))
        return out

    def run(self, q):
        g = GROUPS[q.spec]
        f = fm.parse(g, q.args[0])
        p = typegen.generic_type(g, f, self.BOUND)
        ok = typegen.check_descriptor(g, p, f, "x")
        again = typegen.generic_type(g, f, self.BOUND)
        return p, ok, again

    def render(self, q, result):
        p, ok, again = result
        return f"{p!r} {ok} {again == p}"

    def check(self, q, result):
        p, ok, again = result
        return ok is True and again == p


# --- cli-cold: one cold `python -m oagkit` process per query --------------

TOUR = (
    ("parse", "--group", "Z",
     "(exists (x) (and (< (c 0) x) (< x (c 5)) (congr 2 x (c 0))))"),
    ("decide", "--group", "Z", "(forall (x) (exists (y) (= x (* 2 y))))"),
    ("decide", "--group", "Q", "(forall (x) (exists (y) (= x (* 2 y))))"),
    ("qe", "--group", "Z*Z", "(exists (y) (and (<= y x) (= x (* 2 y))))"),
    ("equiv", "--group", "Z*Z", "(<= (c 1 1) (* 2 z))", "(<= (c 1 7) (* 2 z))"),
    ("nice", "--group", "Z", "(and (< (c 3) x) (congr 3 x (c 1)))",
     "--var", "x"),
    ("endseg", "--group", "Z*Z", "(<= (c 1 1) (* 2 z))", "--var", "z"),
    ("typegen", "--group", "Z", "(and (< (c 5) x) (congr 3 x (c 1)))",
     "--var", "x"),
    ("rank", "--group", "Z*Z*Z"),
    ("chi", "--group", "Z*Q*Z", "3"),
    ("reps", "--group", "Z*Z", "2", "3"),
)
CODE = ("code", "--group", "Z", "(< (c 5) x)", "--var", "x")
RECONSTRUCT = ("reconstruct", "--group", "Z")  # + the code call's stdout


class CliCold(Workload):
    name = "cli-cold"

    def __init__(self, seed):
        super().__init__(seed)
        self.last_code = None
        self.in_process = False

    def chunk(self, index):
        """One shuffled pass over the tour; code and reconstruct stay
        adjacent because one feeds the other."""
        rng = random.Random(derive("cli-cold", self.seed, index))
        units = [[c] for c in TOUR]
        units.append([CODE, RECONSTRUCT])
        units.append([("fuzzcheck", "--group", "Z", "--count", "50",
                       "--seed", str(self.seed))])
        rng.shuffle(units)
        return [(None, argv, None) for u in units for argv in u]

    def argv(self, q):
        args = list(q.args)
        if q.args == RECONSTRUCT:
            args.append(self.last_code or "")
        return args + ["--format", "json"]

    def run(self, q):
        argv = self.argv(q)
        if self.in_process:
            buf = io.StringIO()
            code = cli.run(argv, out=buf)
            out = buf.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
            proc = subprocess.run([sys.executable, "-m", "oagkit", *argv],
                                  cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            code, out = proc.returncode, proc.stdout
        if q.args[0] == "code":
            self.last_code = out.strip()
        return code, out

    def render(self, q, result):
        return result[1]

    def check(self, q, result):
        code, out = result
        if code != 0:
            return False
        try:
            obj = json.loads(out)
        except ValueError:
            return False
        if "error" in obj:
            return False
        if q.args[0] == "fuzzcheck":
            return obj.get("failures") == 0 and obj.get("checked") == 50
        return True


WORKLOADS = {w.name: w for w in (QeBounded, Codes, Typegen, CliCold)}
