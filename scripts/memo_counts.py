"""Operation-memo hits and lookups per key kind on benchmark workloads.

Loads the checkout's `src/oagkit` and, read-only, its
`perfbench/workloads.py` (as `scripts/ab_inprocess.py` does), draws a
seed's queries of each workload named and runs them.  Every operation
memo is a dict subclass, installed by patching
`scalars.operation_scope.__enter__`, that counts each `get` on it by the
kind of its key: "block" for `qe._eliminate_block`'s keys, and the tag
of the tagged ones ("cells", "lower", "walk").  A lookup that finds an
entry is a hit.  Nothing is written to the checkout: bytecode is not
cached.

Run from anywhere:

    python3 scripts/memo_counts.py --workload codes --workload typegen \
        --seed 0 --queries 300

For each workload it prints one line of hits/lookups per key kind, "no
lookups" for a kind it never looks up.  `qe-bounded` opens no
operation, so it makes no lookups at all.
"""

import argparse
import importlib.util
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IN_PROCESS = ("qe-bounded", "codes", "typegen")
KINDS = ("block", "cells", "lower", "walk")

lookups, hits = Counter(), Counter()


class CountingMemo(dict):
    """An operation memo that counts its lookups and hits by key kind."""

    def get(self, key, default=None):
        kind = key[0] if isinstance(key[0], str) else "block"
        out = super().get(key, default)
        lookups[kind] += 1
        hits[kind] += out is not None
        return out


def load(root):
    """The checkout's oagkit, with counting memos, and its workloads."""
    sys.path.insert(0, os.path.join(root, "src"))
    from oagkit import scalars as sc

    enter = sc.operation_scope.__enter__

    def counting_enter(self):
        out = enter(self)
        if self.outermost:
            sc._local.memo = CountingMemo()
        return out

    sc.operation_scope.__enter__ = counting_enter
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout to count (default: this one)")
    ap.add_argument("--workload", required=True, action="append",
                    choices=IN_PROCESS, help="may be given more than once")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", type=int, default=300)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True

    workloads = load(os.path.abspath(args.root))
    for name in args.workload:
        lookups.clear()
        hits.clear()
        wl = workloads.WORKLOADS[name](args.seed)
        for _ in range(args.queries):
            wl.run(wl.next_query())
        counts = ", ".join(
            f"{kind} {hits[kind]}/{lookups[kind]}" if lookups[kind]
            else f"{kind} no lookups" for kind in KINDS)
        print(f"{name} seed {args.seed}, {args.queries} queries "
              f"(hits/lookups): {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
