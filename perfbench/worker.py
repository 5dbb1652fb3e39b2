"""One benchmark process: set a workload up, run its queries, report.

Started by run.py, one process per set-up or measurement, so nothing a run
caches reaches the next.  Prints ``ready`` as soon as the first query could
be issued (run.py times set-up up to that line), then one JSON line.

Modes:
  setup    stop after ``ready``
  measure  run the first --count queries, closed loop
  trace    the same with every layer wrapped
  replay   the same untraced, in-process for cli-cold (the tracing
           overhead's base)
"""

import argparse
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
OUT = os.path.join(HERE, "out")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def load_refs(refs_dir, workload, seed):
    path = os.path.join(refs_dir, workload + ".json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed), [])


def save_refs(refs_dir, workload, seed, digests):
    path = os.path.join(refs_dir, workload + ".json")
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data[str(seed)] = digests
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")


PROBE_EVERY_S = 0.1


_CYCLE = tuple((i * 37 + 11) % 128 for i in range(128))


def probe_s():
    """CPU time of a fixed loop that allocates nothing (small cached ints
    only) and touches no oagkit code: how fast this CPU runs Python right
    now, whatever state the process's heap is in.  CPU time, not wall
    time, because a cli-cold child shares the CPU with the probe and would
    otherwise count as the probe's own slowness."""
    t0 = time.thread_time()
    x, cycle = 0, _CYCLE
    for _ in itertools.repeat(None, 100000):
        x = cycle[x]
    return time.thread_time() - t0


class Probe:
    """Times the probe loop every PROBE_EVERY_S of wall time, from a timer
    signal, so a probe also lands inside a long query.  ``spent`` is the
    total probe time, which the query timers subtract: the time the probe
    took from the query, whether it ran in the query's own thread or
    beside a cli-cold child on the same CPU."""

    def __init__(self):
        self.samples = []  # (end time, duration)
        self.spent = 0.0

    def _tick(self, signum, frame):
        d = probe_s()
        self.samples.append((time.perf_counter(), d))
        self.spent += d

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
        return False


class Runner:
    """Issues queries one at a time and checks every answer.

    Records each query's start and end, less any probe time inside it, so
    run.py can scale each query's time to a reference speed."""

    def __init__(self, wl, refs, probe):
        self.wl = wl
        self.refs = refs
        self.probe = probe
        self.spans = []  # (start, end) of each query
        self.latencies = []
        self.failed = 0
        self.failures = []
        self.digests = []

    def one(self, call=None):
        wl = self.wl
        q = wl.next_query()
        spent = self.probe.spent
        t0 = time.perf_counter()
        try:
            result = call(q.qid, wl.run, q) if call else wl.run(q)
            err = None
        except Exception:  # any failure is a counted, reported failure
            result, err = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0 - (self.probe.spent - spent))
        # reference checks, outside the query timer
        why, d = err, None
        if why is None:
            try:
                text = wl.render(q, result)
                d = digest(text)
                if q.qid < len(self.refs) and self.refs[q.qid] != d:
                    why = ("output differs from the recorded reference: "
                           + text[:300])
                elif not wl.check(q, result):
                    why = f"reference check failed: {text[:300]}"
            except Exception:
                why = traceback.format_exc(limit=3)
        self.digests.append(d)
        if why is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"query {q.qid} {q.spec} {q.args!r}: "
                                     f"{why}")

    def report(self):
        return {"attempted": len(self.latencies), "failed": self.failed,
                "latencies": self.latencies, "spans": self.spans,
                "probes": self.probe.samples, "failures": self.failures}


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cold_start_s(code, reps=5):
    """Median wall time of a fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace", "replay"))
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--refs", default=REFS)
    ap.add_argument("--record", action="store_true",
                    help="write the output digests of this run as the "
                         "references for its seed")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oagkit", "__init__.py")):
        print(f"no oagkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.prime()
    print("ready", flush=True)
    if args.mode == "setup":
        probe = statistics.median(probe_s() for _ in range(5))
        print(json.dumps({"probe_s": probe}), flush=True)
        return 0

    refs = [] if args.record else load_refs(args.refs, args.workload,
                                            args.seed)
    out, call, layers = {}, None, {}
    if args.mode == "trace":
        import tracing
        tr = tracing.Tracer()
        tr.install()
        out["self_test"] = tracing.self_test(tr)
        call = tr.query
        if args.workload == "cli-cold":
            floor = cold_start_s("pass")
            layers["cli.python_floor_s"] = floor
            layers["cli.import_s"] = cold_start_s("import oagkit") - floor
    if args.mode != "measure" and args.workload == "cli-cold":
        wl.in_process = True  # the cli layer measured in this process

    with Probe() as probe:
        runner = Runner(wl, refs, probe)
        for _ in range(args.count):
            runner.one(call)

    if args.mode == "measure":
        out["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli-cold")
    if args.mode == "trace":
        layers.update(tr.layer_metrics())
        out["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        tr.write_spans(os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.tsv"))
    out.update(runner.report())
    if args.record and not runner.failed:
        save_refs(args.refs, args.workload, args.seed, runner.digests)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
