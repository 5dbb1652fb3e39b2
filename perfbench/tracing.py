"""Per-layer tracing: wrappers at every layer boundary of oagkit.

Only the benchmark's own files change; nothing under ``src/`` knows it is
traced.  Each wrapped function is replaced in every oagkit module that
binds it by name (``segments.decide`` and ``typegen.decide`` are separate
bindings of ``qe.decide``).  A wrapper records a span only inside a query
and only at the outermost call of its own name, so a recursive function
(``s_subst``, ``nnf``) counts once per outer call.  Spans stay in memory
and are written out when the run ends.
"""

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

# (module, attribute, span name).  The span name is the metric prefix.
SPANNED = (
    ("formulas", "parse", "formulas.parse"),
    ("formulas", "lower", "formulas.lower"),
    ("scalars", "s_subst", "scalars.s_subst"),
    ("scalars", "s_eval", "scalars.s_eval"),
    ("qe", "eliminate", "qe.eliminate"),
    ("qe", "decide", "qe.decide"),
    ("qe", "nnf", "qe.nnf"),
    ("qe", "_eliminate_block", "qe.block"),
    ("qe", "_cooper", "qe.cooper"),
    ("qe", "_dense", "qe.dense"),
    ("qe", "witness", "qe.witness"),
    ("segments", "nice_decompose", "segments.nice_decompose"),
    ("segments", "end_hull", "segments.end_hull"),
    ("segments", "to_div_segment", "segments.to_div_segment"),
    ("codes", "code_set", "codes.code_set"),
    ("codes", "reconstruct", "codes.reconstruct"),
    ("typegen", "generic_type", "typegen.generic_type"),
    ("typegen", "check_descriptor", "typegen.check_descriptor"),
    ("oracle", "grid_eval", "oracle.grid_eval"),
    ("oracle", "s_grid_eval", "oracle.s_grid_eval"),
    ("oracle", "expand_bounded", "oracle.expand_bounded"),
    ("cli", "run", "cli.run"),
)

# Per-layer metrics: (name, unit, better, the end-to-end metric and
# workload it should move).  Every traced run prints all of them; a layer
# a workload never reaches reads 0.
PER_LAYER = (
    ("formulas.parse.calls", "count", "lower", "throughput_qps on qe-bounded, codes"),
    ("formulas.parse.self_s", "s", "lower", "throughput_qps on qe-bounded, codes"),
    ("formulas.lower.calls", "count", "lower", "throughput_qps on qe-bounded (most), codes"),
    ("formulas.lower.self_s", "s", "lower", "throughput_qps on qe-bounded (most), codes"),
    ("scalars.s_subst.calls", "count", "lower", "throughput_qps, latency_tail_ms on typegen, codes; throughput_qps on qe-bounded"),
    ("scalars.s_subst.self_s", "s", "lower", "throughput_qps, latency_tail_ms on typegen, codes; throughput_qps on qe-bounded"),
    ("scalars.s_eval.calls", "count", "lower", "throughput_qps on typegen, codes"),
    ("scalars.s_eval.self_s", "s", "lower", "throughput_qps on typegen, codes"),
    ("scalars.nodes_built", "count", "lower", "throughput_qps on typegen, codes, qe-bounded"),
    ("scalars.linexpr.calls", "count", "lower", "throughput_qps on typegen, codes, qe-bounded"),
    ("qe.eliminate.calls", "count", "lower", "throughput_qps on every in-process workload"),
    ("qe.decide.calls", "count", "lower", "throughput_qps on codes, typegen"),
    ("qe.decide.repeat_share", "ratio", "lower", "caps what a decide memo saves (typegen most, codes)"),
    ("qe.nnf.self_s", "s", "lower", "throughput_qps on typegen, codes"),
    ("qe.block.calls", "count", "lower", "throughput_qps on typegen, codes"),
    ("qe.block.self_s", "s", "lower", "throughput_qps on typegen, codes"),
    ("qe.block.repeat_share", "ratio", "lower", "caps what a block memo saves (typegen, codes)"),
    ("qe.window.calls", "count", "lower", "throughput_qps on qe-bounded"),
    ("qe.window.hit_share", "ratio", "higher", "throughput_qps on qe-bounded"),
    ("qe.cooper.calls", "count", "lower", "throughput_qps, latency_tail_ms on typegen, codes; none on qe-bounded"),
    ("qe.cooper.self_s", "s", "lower", "throughput_qps, latency_tail_ms on typegen, codes; none on qe-bounded"),
    ("qe.cooper.repeat_share", "ratio", "lower", "caps what a Cooper memo saves (typegen, codes)"),
    ("qe.cooper.substs", "count", "lower", "throughput_qps on typegen, codes"),
    ("qe.cooper.substs_max", "count", "lower", "latency_tail_ms on typegen, codes"),
    ("qe.dense.calls", "count", "lower", "throughput_qps on codes (Z*Q, Q*Z part)"),
    ("qe.dense.self_s", "s", "lower", "throughput_qps on codes (Z*Q, Q*Z part)"),
    ("qe.witness.calls", "count", "lower", "latency_p50_ms on codes, typegen"),
    ("qe.witness.self_s", "s", "lower", "latency_p50_ms on codes, typegen"),
    ("segments.nice_decompose.calls", "count", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("segments.nice_decompose.self_s", "s", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("segments.nice_decompose.decides_per_call", "count", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("segments.end_hull.calls", "count", "lower", "latency on codes, typegen"),
    ("segments.end_hull.self_s", "s", "lower", "latency on codes, typegen (includes its assert self-checks)"),
    ("segments.to_div_segment.calls", "count", "lower", "latency_p50_ms on codes"),
    ("segments.to_div_segment.self_s", "s", "lower", "latency_p50_ms on codes"),
    ("codes.code_set.calls", "count", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("codes.code_set.self_s", "s", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("codes.code_set.decides_per_call", "count", "lower", "latency_p50_ms, latency_tail_ms on codes"),
    ("codes.reconstruct.calls", "count", "lower", "latency_p50_ms on codes"),
    ("codes.reconstruct.self_s", "s", "lower", "latency_p50_ms on codes"),
    ("typegen.generic_type.calls", "count", "lower", "throughput_qps on typegen"),
    ("typegen.generic_type.self_s", "s", "lower", "throughput_qps on typegen"),
    ("typegen.generic_type.decides_per_call", "count", "lower", "throughput_qps on typegen"),
    ("typegen.check_descriptor.calls", "count", "lower", "throughput_qps on typegen"),
    ("typegen.check_descriptor.self_s", "s", "lower", "throughput_qps on typegen"),
    ("oracle.grid_eval.self_s", "s", "lower", "no query metric; fuzzcheck call of cli-cold only"),
    ("oracle.s_grid_eval.self_s", "s", "lower", "no query metric; fuzzcheck call of cli-cold only"),
    ("oracle.expand_bounded.self_s", "s", "lower", "no query metric; fuzzcheck call of cli-cold only"),
    ("cli.python_floor_s", "s", "lower", "latency_p50_ms on cli-cold, setup_s everywhere"),
    ("cli.import_s", "s", "lower", "latency_p50_ms on cli-cold, setup_s everywhere"),
    ("cli.run.self_s", "s", "lower", "latency_p50_ms on cli-cold"),
    ("trace.queries", "count", "higher", "sample count of the traced run"),
    ("trace.unwrapped_share", "ratio", "lower", "share of query time outside every wrapped layer (groups, errors, glue)"),
    ("trace.overhead", "ratio", "lower", "traced query time over untraced query time of the same queries"),
)

# A repeat is an input identical to an earlier one in the same run.  Inputs
# are interned nodes; they are remembered by a structural fingerprint, not
# by reference, because holding them would keep them in the intern tables
# and make the traced run faster than the untraced one.
REPEAT_TRACKED = ("qe.decide", "qe.block", "qe.cooper")

_DECIDES_PER_CALL = ("segments.nice_decompose", "codes.code_set",
                     "typegen.generic_type")


class Tracer:
    """Spans and counters of one traced run.

    A span is (name, start_ns, end_ns, parent index, query id); parent -1
    marks a query root.  Nothing is recorded while ``qid`` is None, so
    input generation and reference checks stay out of the trace.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = Counter()
        self.entries = Counter()
        self.counts = Counter()
        self.seen = {name: set() for name in REPEAT_TRACKED}
        self.repeats = Counter()
        self.qid = None
        self.decide_pending = False
        self.originals = {}

    def reset(self):
        """Forget everything recorded; the wrappers stay installed."""
        del self.spans[:], self.stack[:]
        self.depth.clear()
        self.entries.clear()
        self.counts.clear()
        for seen in self.seen.values():
            seen.clear()
        self.repeats.clear()

    # -- recording ---------------------------------------------------------

    def note_input(self, name, key):
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def query(self, qid, fn, *args):
        """Run fn(*args) as query qid under a root span."""
        self.qid = qid
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = ("query", start, end, -1, qid)
            self.qid = None

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn):
        tr = self
        key_of = _KEYS.get(name)
        is_decide = name == "qe.decide"
        is_lower = name == "formulas.lower"
        spans, stack, depth, entries = \
            self.spans, self.stack, self.depth, self.entries
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            qid = tr.qid
            if qid is None:
                return fn(*args, **kwargs)
            entries[name] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            if key_of is not None:
                tr.note_input(name, key_of(*args))
            if is_decide:
                tr.decide_pending = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, start, end, parent, qid)
                if is_decide:
                    tr.decide_pending = False
            if is_lower and tr.decide_pending:
                # decide -> eliminate -> lower: the lowered node is the
                # interned input a decide memo would key on
                tr.decide_pending = False
                tr.note_input("qe.decide", (args[0], fingerprint(out)))
            return out

        return wrapper

    def _count_charge(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(amount=1):
            if tr.qid is not None:
                tr.counts["scalars.nodes_built"] += amount
            return fn(amount)

        return wrapper

    def _count_window(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(v, body):
            out = fn(v, body)
            if tr.qid is not None:
                tr.counts["qe.window.calls"] += 1
                tr.counts["qe.window.hits"] += out is not None
            return out

        return wrapper

    def install(self):
        """Wrap every layer boundary in every oagkit module binding it."""
        mods = oagkit_modules()
        replace = {}
        for mod, attr, name in SPANNED:
            fn = getattr(mods["oagkit." + mod], attr)
            replace[id(fn)] = (fn, self.span_wrapper(name, fn))
        scalars, qe = mods["oagkit.scalars"], mods["oagkit.qe"]
        for fn, make in ((scalars._charge, self._count_charge),
                         (qe._constant_window, self._count_window)):
            replace[id(fn)] = (fn, make(fn))
        for module in mods.values():
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self.originals = {i: fn for i, (fn, _) in replace.items()}

        lin = scalars.LinExpr
        new = lin.__new__
        tr = self

        def counted_new(cls, coeffs, const):
            if tr.qid is not None:
                tr.counts["scalars.linexpr.calls"] += 1
            return new(cls, coeffs, const)

        lin.__new__ = staticmethod(counted_new)

    def unwrapped_bindings(self):
        """Names still bound to an original after install(); must be empty."""
        out = []
        for module in oagkit_modules().values():
            for key, value in vars(module).items():
                orig = self.originals.get(id(value))
                if orig is not None and orig is value:
                    out.append(f"{module.__name__}.{key}")
        return sorted(out)

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        substs = Counter()
        decides_under = Counter()
        query_ns = query_self_ns = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_ns[name] += dur - child_ns[i]
            if name == "query":
                query_ns += dur
                query_self_ns += dur - child_ns[i]
            elif name == "scalars.s_subst" and parent >= 0 \
                    and spans[parent][0] == "qe.cooper":
                substs[parent] += 1
            elif name == "qe.decide":
                above = set()
                p = parent
                while p >= 0:
                    above.add(spans[p][0])
                    p = spans[p][3]
                for owner in _DECIDES_PER_CALL:
                    decides_under[owner] += owner in above

        out = {}
        for _, _, name in SPANNED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_ns[name] / 1e9
        for name in _DECIDES_PER_CALL:
            out[name + ".decides_per_call"] = \
                decides_under[name] / calls[name] if calls[name] else 0.0
        for name in REPEAT_TRACKED:
            out[name + ".repeat_share"] = \
                self.repeats[name] / calls[name] if calls[name] else 0.0
        out["qe.cooper.substs"] = sum(substs.values())
        out["qe.cooper.substs_max"] = max(substs.values(), default=0)
        out["scalars.nodes_built"] = self.counts["scalars.nodes_built"]
        out["scalars.linexpr.calls"] = self.counts["scalars.linexpr.calls"]
        wc = self.counts["qe.window.calls"]
        out["qe.window.calls"] = wc
        out["qe.window.hit_share"] = \
            self.counts["qe.window.hits"] / wc if wc else 0.0
        out["trace.queries"] = calls["query"]
        out["trace.unwrapped_share"] = \
            query_self_ns / query_ns if query_ns else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tquery\n")
            for name, start, end, parent, qid in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{qid}\n")


def self_test(tr):
    """Problems with the installed wrappers; empty when they are sound.

    Fails when a wrapped function is still reachable unwrapped through any
    oagkit module binding it, when a recursive ``s_subst`` counts more than
    once, or when a decide issued through ``segments``' own binding is
    missed.  Leaves the tracer empty.
    """
    mods = oagkit_modules()
    fm, sc = mods["oagkit.formulas"], mods["oagkit.scalars"]
    segments = mods["oagkit.segments"]
    problems = [f"unwrapped binding {name}"
                for name in tr.unwrapped_bindings()]
    g = mods["oagkit.groups"].parse_group("Z*Z")
    phi = fm.parse(g, "(and (or (< x (c 1 0)) (congr 2 x (c 0 1))) "
                      "(not (= x (c 2 2))))")
    low = fm.lower(g, phi)
    tr.query(-1, sc.s_subst, g, low, sc.SVar("x", 1), sc.lin_const(3))
    n = sum(1 for s in tr.spans if s[0] == "scalars.s_subst")
    if tr.entries["scalars.s_subst"] < 2:
        problems.append("self-test substitution did not recurse")
    if n != 1:
        problems.append(f"one recursive s_subst counted {n} times")
    tr.query(-2, segments.is_end_segment, g,
             fm.parse(g, "(< (c 1 1) x)"), "x")
    n = sum(1 for s in tr.spans if s[0] == "qe.decide" and s[4] == -2)
    if n != 1:
        problems.append(f"segments.is_end_segment issued 1 decide, "
                        f"traced {n}")
    tr.reset()
    return problems


_FINGERPRINTS = weakref.WeakKeyDictionary()


def fingerprint(node):
    """Structural hash of an interned scalar node, cached per node without
    keeping it alive.  Equal for identical nodes in one process."""
    hit = _FINGERPRINTS.get(node)
    if hit is not None:
        return hit
    kind = type(node).__name__
    if hasattr(node, "items"):
        key = (kind, tuple(fingerprint(it) for it in node.items))
    elif hasattr(node, "body"):
        key = (kind, getattr(node, "var", None), fingerprint(node.body))
    elif hasattr(node, "expr"):
        key = (kind, getattr(node, "modulus", None), node.expr.coeffs,
               node.expr.const)
    else:
        key = (kind, node.value)
    out = hash(key)
    _FINGERPRINTS[node] = out
    return out


_KEYS = {
    "qe.block": lambda g, block, body: (g, tuple(block), fingerprint(body)),
    "qe.cooper": lambda g, v, f: (g, v, fingerprint(f)),
}


def oagkit_modules():
    for mod, _, _ in SPANNED:
        importlib.import_module("oagkit." + mod)
    return {name: mod for name, mod in sys.modules.items()
            if name == "oagkit" or name.startswith("oagkit.")}
