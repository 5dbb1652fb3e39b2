"""Same-process A/B timing of two checkouts on benchmark workloads.

Loads the `src/oagkit` of two checkouts side by side, as the packages
`oagkit_a` and `oagkit_b`, each with its own copy of the checkout's
`perfbench/workloads.py` bound to it.  Nothing is written to either
checkout: bytecode is not cached.  Both sides draw the same seed's
queries (the script stops if their inputs differ), and one untimed pass
checks that every query renders the same text on both and lists the
queries whose node budget charge fell or rose from A to B.  Then each
round replays every block of queries through each side's timed
`Workload.run`, the two sides taking turns to go first, and times each
side's block in CPU time.

Run from anywhere, with two checkouts (the parent first):

    python3 scripts/ab_inprocess.py ../parent . --workload qe-bounded \
        --workload codes

For each workload, one after another, it prints the CPU ratio B/A over
all blocks (below 1 means B is faster), the median of the per-block
ratios and how many blocks each side won; the exit status is 1 if any
query rendered differently or charged more on B (a charge may only
fall: node budgets depend on it).  A few heavy blocks can sway the
total, so the median and the wins say whether B is faster on most
blocks.  Interleaving blocks in one process puts both sides under the
same machine load, so it resolves differences of a few percent that the
spread between separate benchmark runs hides.  It still has noise: an
A/A run, a checkout against a copy of itself, reads within about 3% of
1 and can give one side about 64% of the blocks, so a ratio or a share
of wins inside that spread shows no difference.  Only the in-process
workloads (qe-bounded, codes, typegen) can be replayed.
"""

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time

IN_PROCESS = ("qe-bounded", "codes", "typegen")


def load_side(root, tag):
    """The workloads module of the checkout at root, bound to its own
    oagkit loaded as the package oagkit_<tag>."""
    name = f"oagkit_{tag}"
    src = os.path.join(root, "src", "oagkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for file in sorted(os.listdir(src)):
        if file.endswith(".py") and not file.startswith("__"):
            importlib.import_module(f"{name}.{file[:-3]}")
    # workloads.py imports `oagkit`; every submodule it names is already
    # an attribute of pkg, so the alias loads nothing twice
    sys.modules["oagkit"] = pkg
    try:
        path = os.path.join(root, "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}",
                                                      path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["oagkit"]
    return workloads


def block_cpu(wl, queries):
    gc.collect()
    t0 = time.process_time()
    for q in queries:
        wl.run(q)
    return time.process_time() - t0


def compare(sides, name, args):
    """Check and time one workload on both sides; True if every query
    rendered the same on both and none charged B more node budget."""
    runs = []
    for workloads in sides:
        wl = workloads.WORKLOADS[name](args.seed)
        runs.append((workloads, wl, [wl.next_query()
                                     for _ in range(args.queries)]))
    inputs = [[(q.spec, q.args) for q in qs] for _, _, qs in runs]
    if inputs[0] != inputs[1]:
        sys.exit(f"the two checkouts draw different {name} queries for "
                 f"seed {args.seed}")

    rendered, fell, rose = [], [], []
    for i in range(args.queries):
        seen = []
        for workloads, wl, queries in runs:
            with workloads.sc.budget_scope(None) as budget:
                result = wl.run(queries[i])
            seen.append((wl.render(queries[i], result), budget.used))
        (text_a, used_a), (text_b, used_b) = seen
        if text_a != text_b:
            rendered.append(i)
        if used_a != used_b:
            (fell if used_b < used_a else rose).append(
                f"{i} ({used_a} -> {used_b})")
    print(f"{name} seed {args.seed}: {args.queries} queries, "
          f"{len(rendered)} rendered differently, budget charge fell on "
          f"{len(fell)} and rose on {len(rose)}")
    for what, queries in (("rendered differently", rendered),
                          ("charge fell", fell), ("charge rose", rose)):
        if queries:
            print(f"  {what}: {', '.join(map(str, queries))}")

    blocks = [range(i, min(i + args.block, args.queries))
              for i in range(0, args.queries, args.block)]
    totals, wins, ratios = [0.0, 0.0], [0, 0], []
    for r in range(args.rounds):
        for k, span in enumerate(blocks):
            times = [0.0, 0.0]
            order = (0, 1) if (r + k) % 2 == 0 else (1, 0)
            for s in order:
                _, wl, queries = runs[s]
                times[s] = block_cpu(wl, [queries[i] for i in span])
            totals[0] += times[0]
            totals[1] += times[1]
            if times[0] != times[1]:  # a tie counts for neither
                wins[times[1] < times[0]] += 1
            if times[0]:
                ratios.append(times[1] / times[0])
    print(f"CPU A {totals[0]:.3f} s, B {totals[1]:.3f} s, "
          f"ratio B/A {totals[1] / totals[0]:.3f}, "
          f"median block ratio {statistics.median(ratios):.3f}; "
          f"blocks won: A {wins[0]}, B {wins[1]} of {sum(wins)}")
    return not rendered and not rose


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="checkout A (the baseline)")
    ap.add_argument("b", help="checkout B")
    ap.add_argument("--workload", required=True, action="append",
                    choices=IN_PROCESS, help="may be given more than once")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", type=int, default=300)
    ap.add_argument("--block", type=int, default=25,
                    help="queries per timed block")
    ap.add_argument("--rounds", type=int, default=5,
                    help="passes over all blocks")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True

    sides = [load_side(os.path.abspath(root), tag)
             for tag, root in (("a", args.a), ("b", args.b))]
    same = [compare(sides, name, args) for name in args.workload]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
