"""Cold-start A/B timing of two checkouts on the `cli-cold` commands.

Runs every command of `perfbench/workloads.py`'s tour (`TOUR`, then
`CODE` and `RECONSTRUCT` fed the code's output) and `fuzzcheck --count
50` as a cold `python -m oagkit ... --format json` child of each
checkout, with that checkout's `src` on PYTHONPATH and the checkout as
working directory.  Each round runs every command once per side, the two
sides taking turns to go first, and times each child by its CPU time
(user + system, from `getrusage(RUSAGE_CHILDREN)` deltas), which machine
load sways less than wall time.

Run from anywhere, with two checkouts (the parent first):

    python3 scripts/ab_cold.py ../parent . --rounds 11

It prints, per command, the median CPU milliseconds of each side and
their ratio B/A (below 1 means B is faster), then the ratio of the sums
of the medians.  The exit status is 1 if any command printed different
bytes on the two sides.  `cli-cold`'s throughput spreads about 10%
between benchmark runs; pairing the sides command by command resolves
cold-start changes of a few milliseconds that such runs hide, and which
`ab_inprocess.py`, replaying queries in one process, cannot see at all.
Use checkouts whose absolute paths have the same length: the cost of
importing the package has been seen to depend on it.
"""

import argparse
import ast
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tour_commands():
    """TOUR, CODE and RECONSTRUCT as written in perfbench/workloads.py,
    read without importing it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id in ("TOUR", "CODE", "RECONSTRUCT"):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["TOUR"], found["CODE"], found["RECONSTRUCT"]


def run_cold(checkout, argv):
    """stdout of one cold child and its CPU seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "oagkit", *argv,
                           "--format", "json"],
                          cwd=checkout, env=env, capture_output=True,
                          text=True, timeout=300)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc.stdout, (after.ru_utime + after.ru_stime
                         - before.ru_utime - before.ru_stime)


def one_pass(checkout, commands, code, reconstruct):
    """{label: (stdout, cpu seconds)} for every command on one side."""
    out = {}
    for argv in commands:
        out[" ".join(argv[:3])] = run_cold(checkout, list(argv))
    text, cpu = run_cold(checkout, list(code))
    out["code"] = text, cpu
    out["reconstruct"] = run_cold(checkout, [*reconstruct, text.strip()])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="checkout A (the parent)")
    ap.add_argument("b", help="checkout B (the change)")
    ap.add_argument("--rounds", type=int, default=11)
    args = ap.parse_args(argv)
    sides = [os.path.abspath(args.a), os.path.abspath(args.b)]
    if len(sides[0]) != len(sides[1]):
        print(f"warning: checkout paths differ in length ({len(sides[0])} "
              f"and {len(sides[1])})", file=sys.stderr)
    tour, code, reconstruct = tour_commands()
    commands = [*tour, ("fuzzcheck", "--group", "Z", "--count", "50",
                        "--seed", "0")]
    times: dict = {}
    differ = set()
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        got = {}
        for side in order:
            got[side] = one_pass(sides[side], commands, code, reconstruct)
        for label, (text, cpu_a) in got[0].items():
            text_b, cpu_b = got[1][label]
            times.setdefault(label, ([], []))
            times[label][0].append(cpu_a)
            times[label][1].append(cpu_b)
            if text != text_b:
                differ.add(label)
    total_a = total_b = 0.0
    print(f"{'command':<32} {'A ms':>8} {'B ms':>8} {'B/A':>6}")
    for label, (ta, tb) in times.items():
        ma, mb = statistics.median(ta) * 1e3, statistics.median(tb) * 1e3
        total_a, total_b = total_a + ma, total_b + mb
        print(f"{label:<32} {ma:8.1f} {mb:8.1f} {mb / ma:6.3f}")
    print(f"{'total of medians':<32} {total_a:8.1f} {total_b:8.1f} "
          f"{total_b / total_a:6.3f}")
    for label in sorted(differ):
        print(f"stdout differs: {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
