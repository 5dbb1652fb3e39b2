"""Machine-independent counters of checkouts, written to a BENCH_*.json.

For each checkout given as NAME=PATH, a child process loads the
checkout's `src/oagkit` and, read-only, its `perfbench/workloads.py`
(through `scripts/memo_counts.py`, whose counting operation memos it
reuses), and runs each in-process workload at seeds 0 and 7:
`qe-bounded` 1,000 queries, `codes` and `typegen` 300 each.  Only the
timed work is counted: each query's `Workload.run`, not the drawing of
its query (`next_query`), which calls the engine too.  Per run it
counts:

- the budget charges, each query under its own `budget_scope(None)`;
- `LinExpr` constructions;
- calls of `qe.decide`, `qe._cooper`, `qe._dense` and `cells.pin`,
  counted through a wrapper put in place of every module binding of
  each (`segments.decide` is a binding of `qe.decide`), recursive calls
  included;
- operation-memo hits and lookups per key kind;
- one SHA-256 over every query's render, in query order.

It also runs `scripts/open_projections.py` on the checkout's `src` at
indices 28 and 34 and keeps their charges and answer digests.  Nothing
is written to a checkout but the output file: bytecode is not cached.

Run from anywhere, naming each side by its commit:

    python3 scripts/counters.py --side 47e51d7=../parent \\
        --side this-commit=. --out BENCH_41.json

The file holds the sides' names in order under "commits" (the first is
the parent), each side's counts under "counts", "equal", whether every
side counted the same, and "rose", each count that is higher on a later
side than on the parent: charges, `LinExpr`s, calls and memo lookups,
and the open projections' charges.  The renders and the projections'
answers are the contract, so "renders_equal" says whether every side
rendered the same.  The exit status is 1 if the renders differ or a
count rose; a count that falls is the point of a change.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = (("qe-bounded", 1000), ("codes", 300), ("typegen", 300))
SEEDS = (0, 7)
CALLS = (("qe", "decide"), ("qe", "_cooper"), ("qe", "_dense"),
         ("cells", "pin"))
PROJECTIONS = (28, 34)


def count_calls(calls, timed):
    """Wrap each (module, name) function of the loaded oagkit in every
    oagkit module that binds it, counting its calls into `calls` while
    timed[0] is true."""
    mods = [m for name, m in sys.modules.items()
            if name.startswith("oagkit.") and m is not None]
    for mod_name, attr in CALLS:
        key = f"{mod_name}.{attr}"
        real = getattr(sys.modules[f"oagkit.{mod_name}"], attr)

        @functools.wraps(real)
        def counted(*args, _real=real, _key=key, **kwargs):
            calls[_key] += timed[0]
            return _real(*args, **kwargs)

        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is real:
                    setattr(mod, name, counted)


def measure(root):
    """The counts of one checkout, in this process."""
    sys.path.insert(0, HERE)
    import memo_counts

    workloads = memo_counts.load(root)
    sc = workloads.sc
    made, timed = [0], [False]
    new = sc.LinExpr.__new__

    def counted_new(cls, coeffs, const):
        made[0] += timed[0]
        return new(cls, coeffs, const)

    sc.LinExpr.__new__ = staticmethod(counted_new)
    calls = dict.fromkeys(f"{m}.{a}" for m, a in CALLS)
    count_calls(calls, timed)

    out = {}
    for name, queries in RUNS:
        for seed in SEEDS:
            lookups, hits = Counter(), Counter()
            made[0] = 0
            for key in calls:
                calls[key] = 0
            charges = 0
            renders = hashlib.sha256()
            wl = workloads.WORKLOADS[name](seed)
            for _ in range(queries):
                q = wl.next_query()
                memo_counts.lookups.clear()
                memo_counts.hits.clear()
                timed[0] = True
                with sc.budget_scope(None) as budget:
                    result = wl.run(q)
                timed[0] = False
                lookups.update(memo_counts.lookups)
                hits.update(memo_counts.hits)
                charges += budget.used
                renders.update(wl.render(q, result).encode() + b"\n")
            out[f"{name} seed {seed}"] = {
                "queries": queries, "charges": charges,
                "linexprs": made[0], "calls": dict(calls),
                "memo": {kind: [hits[kind], lookups[kind]]
                         for kind in memo_counts.KINDS},
                "renders_sha256": renders.hexdigest()}
    return out


def projections(root):
    """Charges and answer digest per index of `open_projections.py`."""
    argv = [sys.executable, os.path.join(HERE, "open_projections.py"),
            "--src", os.path.join(root, "src")]
    for i in PROJECTIONS:
        argv += ["--index", str(i)]
    text = subprocess.run(argv, check=True, stdout=subprocess.PIPE,
                          text=True,
                          env=dict(os.environ,
                                   PYTHONDONTWRITEBYTECODE="1")).stdout
    out = {}
    for line in text.splitlines()[1:-1]:  # between the header and total
        index, _, charges, _, digest = line.split()
        out[index] = {"charges": int(charges), "digest": digest}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", metavar="NAME=PATH",
                    help="a checkout and its commit name, parent first "
                         "(may be repeated)")
    ap.add_argument("--out", help="the BENCH_*.json to write")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    if args.child:
        json.dump(measure(os.path.abspath(args.child)), sys.stdout)
        return 0
    if not args.side or not args.out:
        ap.error("give at least one --side and --out")

    names, counts = [], {}
    for side in args.side:
        name, _, path = side.partition("=")
        path = os.path.abspath(path)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", path],
            check=True, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        names.append(name)
        counts[name] = {"workloads": json.loads(child.stdout),
                        "open_projections": projections(path)}
        print(f"{name}: counted {path}", flush=True)
    equal = all(counts[n] == counts[names[0]] for n in names)
    renders_equal = all(renders(counts[n]) == renders(counts[names[0]])
                        for n in names)
    base = amounts(counts[names[0]])
    rose = [f"{n}: {key}: {base[key]} -> {v}" for n in names[1:]
            for key, v in amounts(counts[n]).items() if v > base[key]]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"script": "scripts/counters.py", "commits": names,
                   "machine": f"{platform.machine()}, "
                              f"Python {platform.python_version()}",
                   "equal": equal, "renders_equal": renders_equal,
                   "rose": rose, "counts": counts}, fh, indent=1)
        fh.write("\n")
    for line in rose:
        print(f"rose: {line}")
    print(f"{args.out}: sides {'equal' if equal else 'differ'}, renders "
          f"{'equal' if renders_equal else 'DIFFER'}, {len(rose)} counts "
          f"rose")
    return 0 if renders_equal and not rose else 1


def renders(side):
    """A side's contract: each run's render digest and each open
    projection's answer digest."""
    return ([run["renders_sha256"] for run in side["workloads"].values()],
            [p["digest"] for p in side["open_projections"].values()])


def amounts(side):
    """A side's counts that may only fall, by name, in a fixed order."""
    out = {}
    for run, c in side["workloads"].items():
        out[f"{run} charges"] = c["charges"]
        out[f"{run} linexprs"] = c["linexprs"]
        for key, n in c["calls"].items():
            out[f"{run} {key}"] = n
        for kind, (_, n) in c["memo"].items():
            out[f"{run} memo {kind} lookups"] = n
    for index, p in side["open_projections"].items():
        out[f"open projection {index} charges"] = p["charges"]
    return out


if __name__ == "__main__":
    sys.exit(main())
