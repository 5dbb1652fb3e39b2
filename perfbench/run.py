"""oagkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Load is a closed loop from one process with
one client: each query is issued only after the previous one finished.
Every process is fresh, so nothing one run caches reaches the next.

--trace 0 prints the end-to-end metrics: setup_s (median of several
set-ups), throughput_qps, latency_p50_ms, latency_tail_ms and peak_rss_mb.
--trace 1 prints the per-layer metrics of a traced run over a fixed prefix
of the seed's queries, and the tracing overhead against an untraced
replay of the same queries.  Every answer is checked against a reference
either way; any failed query makes the run exit with status 1.  The last
line of standard output is one JSON object.
"""

import argparse
import bisect
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# workload: (queries per second of run length, tail percentile).
#
# A run issues a fixed number of queries, --seconds times the pace, so two
# runs of one seed see exactly the same inputs whatever the program's
# speed; a time-bounded loop let the heavy-tailed workloads end on a
# different query each time.  The paces are this commit's queries per
# second of wall time (reference checks included) on a 2-core machine, so
# a run lasts about --seconds here.  Each tail percentile is the highest
# that leaves at least ten queries beyond it at --seconds 25, except on
# qe-bounded: its p99.8 rested on the ten slowest of 5000 queries, which a
# burst of load on the machine could move by a quarter between two sets of
# runs, so it reports p99, with fifty queries beyond it.
WORKLOADS = {"qe-bounded": (200.0, 99.0), "codes": (3.5, 88.0),
             "typegen": (1.6, 75.0), "cli-cold": (2.8, 85.0)}
SETUPS = 5  # set-ups per run; setup_s is their median

# Times are reported at a reference speed.  This machine is shared, and the
# same 2500-query loop ran at anything from 297 to 472 queries/s from one
# run to the next, far beyond any useful bound.  Every worker also times a
# fixed loop that touches no oagkit code (worker.probe_s) every 0.1 s, and
# each query's latency is scaled by PROBE_REF_S over the probe times around
# it (at_reference).  PROBE_REF_S is the probe's time on this machine when
# quiet, so the reported times read as seconds there; the raw values are
# printed too.
#
# The scaling holds only if the probe runs on the CPU the query ran on: the
# probe's speed on the two CPUs of this machine was uncorrelated (0.05
# between 0.1 s samples taken side by side), so a process the scheduler
# moved between them was scaled by the wrong CPU's speed.  run.py therefore
# pins itself, and so every worker and child it starts, to one CPU
# (pin_cpu).  Over six to eight runs of one seed, scaled throughput then
# spread 0.02 on qe-bounded and 0.03 on typegen between the quartiles, as a
# share of the median, against 0.03 and 0.20 unpinned.
PROBE_REF_S = 0.0014
# Probes within this much of a query scale it (at least the five nearest):
# the CPU's speed changes several times a second, so a wider window mixes
# in speeds the query did not run at.
PROBE_WINDOW_S = 0.25
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def percentile(sorted_vals, pct):
    """The Harrell-Davis estimate of a percentile: a mean of all the order
    statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each
    one's slot in [0, 1].  Where a workload has a few dozen queries and a
    sparse tail, the linear interpolation between the two nearest ranks
    jumps whenever two slow queries swap places; on repeated runs of one
    seed this roughly halved the spread of the codes and typegen tails."""
    n = len(sorted_vals)
    p = pct / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    # Simpson's rule over each slot [i/n, (i+1)/n], 16 steps a slot
    steps = 16
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        x0 = i / n
        inner = sum((4 if k % 2 else 2) * pdf(x0 + k * h)
                    for k in range(1, steps))
        weights.append((pdf(x0) + inner + pdf(x0 + steps * h)) * h / 3)
    return sum(w * v for w, v in zip(weights, sorted_vals)) / sum(weights)


def worker(args, deadline):
    """Run one worker process to completion; returns (setup_s, result).

    setup_s is the wall time from spawning the process until it reports
    that the first query could be issued."""
    cmd = [sys.executable, WORKER] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        left = max(1.0, deadline - time.time())
        if not select.select([proc.stdout], [], [], left)[0]:
            raise subprocess.TimeoutExpired(cmd, left)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0 or first.strip() != "ready":
        raise RunError(f"worker exited with {proc.returncode}: "
                       f"{' '.join(args)}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def pin_cpu():
    """Pin this process, and every process it starts, to the one CPU of
    those it may use on which the probe runs fastest right now."""
    if not hasattr(os, "sched_setaffinity"):
        return
    sys.path.insert(0, HERE)
    from worker import probe_s  # the benchmark's own file; no oagkit import

    best = None
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        t = statistics.median(probe_s() for _ in range(5))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def at_reference(res):
    """A worker's query latencies at the reference speed: each is scaled
    by the median probe time within PROBE_WINDOW_S of the query (at least
    the five probes nearest to it)."""
    ends = [t for t, _ in res["probes"]]
    durs = [d for _, d in res["probes"]]
    out = []
    for (start, end), lat in zip(res["spans"], res["latencies"]):
        i = bisect.bisect(ends, start - PROBE_WINDOW_S)
        j = bisect.bisect(ends, end + PROBE_WINDOW_S)
        i, j = min(i, max(0, j - 5)), max(j, min(len(durs), i + 5))
        out.append(lat * PROBE_REF_S / statistics.median(durs[i:j]))
    return out


def measure(a, deadline):
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--refs", a.refs]
    record = ["--record"] if a.record else []
    setup, res = worker(base + record + ["--mode", "measure", "--count",
                                         str(a.queries)], deadline)
    factor = sum(at_reference(res)) / sum(res["latencies"])
    setups = [setup * PROBE_REF_S / statistics.median(
        d for _, d in res["probes"][:5])]  # the run's first probes
    for _ in range(SETUPS - 1):
        s, probe = worker(base + ["--mode", "setup"], deadline)
        setups.append(s * PROBE_REF_S / probe["probe_s"])
    raw = sorted(res["latencies"])
    lat = sorted(at_reference(res))
    correct = res["attempted"] - res["failed"]
    pct = WORKLOADS[a.workload][1]
    tail = percentile(lat, pct)
    beyond = sum(1 for x in lat if x > tail)
    print(f"# {a.workload} seed {a.seed}: {res['attempted']} queries, "
          f"{res['failed']} failed (error_rate "
          f"{res['failed'] / res['attempted']:.4f}); tail = p{pct:g} "
          f"with {beyond} queries beyond it")
    print(f"# times scaled by {factor:.3f} to the reference speed; raw: "
          f"{correct / sum(raw):.4g} queries/s, p50 "
          f"{1000 * percentile(raw, 50.0):.4g} ms, tail "
          f"{1000 * percentile(raw, pct):.4g} ms, first set-up {setup:.4g} s")
    metrics = {
        "setup_s": (statistics.median(setups), "s", ""),
        "throughput_qps": (correct / sum(lat), "1/s", ""),
        "latency_p50_ms": (1000 * percentile(lat, 50.0), "ms", ""),
        "latency_tail_ms": (1000 * tail, "ms", f"p{pct:g}"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", ""),
    }
    return res, metrics, []


def trace(a, deadline):
    sys.path.insert(0, HERE)
    from tracing import PER_LAYER  # noqa: E402  (the benchmark's own file)

    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--refs", a.refs]
    _, res = worker(base + ["--mode", "trace", "--count",
                            str(a.queries)], deadline)
    _, plain = worker(base + ["--mode", "replay", "--count",
                              str(a.queries)], deadline)
    factor = sum(at_reference(res)) / sum(res["latencies"])
    layers = {name: value * factor if name.endswith("_s") else value
              for name, value in res["layers"].items()}
    layers["trace.overhead"] = (sum(at_reference(res))
                                / sum(at_reference(plain)))
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    # the note names the end-to-end metric and workload each should move
    metrics = {name: (layers.get(name, 0), unit, moves)
               for name, unit, _, moves in PER_LAYER}
    print(f"# {a.workload} seed {a.seed}: traced {res['attempted']} "
          f"queries; tracing overhead x{layers['trace.overhead']:.3f}; "
          f"unwrapped share {layers['trace.unwrapped_share']:.3f}")
    return res, metrics, res["self_test"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="directory of recorded output digests")
    ap.add_argument("--record", action="store_true",
                    help="record this run's outputs as the references for "
                         "its seed instead of comparing against them")
    a = ap.parse_args(argv)
    deadline = time.time() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "oagkit",
                                       "__init__.py")):
        print("error: run from a checkout of the repository; "
              "src/oagkit is missing", file=sys.stderr)
        return 2
    pin_cpu()
    # the traced run covers the first half of the queries; its untraced
    # replay takes about the other half of the time
    share = 0.5 if a.trace else 1.0
    a.queries = max(1, round(a.seconds * share * WORKLOADS[a.workload][0]))

    try:
        res, metrics, problems = (trace if a.trace else measure)(a, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:12.6g} {unit:6s} {note}")
    for line in res["failures"] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    correct = res["failed"] == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
