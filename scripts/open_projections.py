"""Open projections over Z*Z*Z: the cost of eliminating ∃x φ with y free.

The formulas are the φ of

    oracle.fuzz_corpus(Z*Z*Z, 3, 80, template="qf",
                       limits=FuzzLimits(max_coeff=3, max_modulus=6,
                                         max_depth=3, window=6))

whose free variables are exactly x and y: 36 of them, numbered 0-35 in
corpus order.  Each ∃x φ is eliminated (`qe.eliminate`) under one node
budget, and the script prints one line per formula: its index, the CPU
seconds of the elimination, the budget charges, the `LinExpr`
constructions and a digest of the answer (the first 16 hex digits of
the SHA-256 of `print_scalar`'s text), or `budget` when the budget ran
out and `too-large` when the answer prints past `PRINT_LIMIT`.  Equal
digests from two checkouts mean the same printed answer.

Run from anywhere; `--src` picks the oagkit to load (by default the
`src` of the checkout holding this script), so one copy of the script
times two checkouts:

    python3 scripts/open_projections.py --src ../parent/src
    python3 scripts/open_projections.py --index 34 --index 30

Each formula runs in this one process, one after another, so keep
`--budget` as it is unless the machine has memory to spare: the budget
is what bounds the largest ones.
"""

import argparse
import hashlib
import os
import sys
import time

SPEC, SEED, COUNT = "Z*Z*Z", 3, 80


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the oagkit package to load")
    ap.add_argument("--budget", type=int, default=1_500_000,
                    help="node budget per formula")
    ap.add_argument("--index", type=int, action="append",
                    help="run only this formula (may be repeated)")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.abspath(args.src))
    from oagkit import formulas as fm
    from oagkit import oracle as orc
    from oagkit import qe
    from oagkit import scalars as sc
    from oagkit.errors import BudgetExceeded, OutputTooLarge
    from oagkit.groups import parse_group

    made = [0]
    new = sc.LinExpr.__new__

    def counted_new(cls, coeffs, const):
        made[0] += 1
        return new(cls, coeffs, const)

    sc.LinExpr.__new__ = staticmethod(counted_new)

    g = parse_group(SPEC)
    limits = orc.FuzzLimits(max_coeff=3, max_modulus=6, max_depth=3,
                            window=6)
    open_ones = [f for f in orc.fuzz_corpus(g, SEED, COUNT, limits=limits,
                                            template="qf")
                 if fm.free_vars(f) == {"x", "y"}]
    wanted = args.index if args.index else range(len(open_ones))
    print(f"{'index':>5} {'cpu_s':>8} {'charges':>9} {'linexprs':>9}  digest")
    totals = [0.0, 0, 0]
    for i in wanted:
        made[0] = 0
        body = None
        start = time.process_time()
        with sc.budget_scope(args.budget) as budget:
            try:
                body = qe.eliminate(g, fm.Exists("x", open_ones[i])).body
            except BudgetExceeded:
                digest = "budget"
        cpu = time.process_time() - start
        if body is not None:
            try:
                digest = hashlib.sha256(
                    sc.print_scalar(body).encode()).hexdigest()[:16]
            except OutputTooLarge:
                digest = "too-large"
        totals[0] += cpu
        totals[1] += budget.used
        totals[2] += made[0]
        print(f"{i:>5} {cpu:>8.3f} {budget.used:>9} {made[0]:>9}  {digest}",
              flush=True)
    print(f"{'total':>5} {totals[0]:>8.3f} {totals[1]:>9} {totals[2]:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
