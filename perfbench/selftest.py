"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

1. The tracing wrappers: every wrapped function is wrapped in every oagkit
   module that binds it, and a recursive s_subst counts once.
2. The recorded references bite: with one recorded output digest
   corrupted, run.py reports a failed query and exits non-zero.
3. Outputs do not depend on string hashing: each workload's byte-identity
   check passes under two different PYTHONHASHSEED values.

Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
CORRUPT_REFS = os.path.join(HERE, "out", "selftest-refs")
WORKLOADS = ("qe-bounded", "codes", "typegen", "cli-cold")


def run(workload, seed, seconds, refs=REFS, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--refs", refs],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    return proc.returncode, json.loads(last[0])


def recorded_seed(workload):
    with open(os.path.join(REFS, workload + ".json"), encoding="utf-8") as fh:
        return min(json.load(fh), key=int)


def check_wrappers():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    tr = tracing.Tracer()
    tr.install()
    return tracing.self_test(tr)


def check_corruption():
    workload = "qe-bounded"
    seed = recorded_seed(workload)
    shutil.rmtree(CORRUPT_REFS, ignore_errors=True)
    shutil.copytree(REFS, CORRUPT_REFS)
    path = os.path.join(CORRUPT_REFS, workload + ".json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    good = data[seed][3]
    data[seed][3] = ("0" if good[0] != "0" else "1") + good[1:]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    try:
        code, res = run(workload, seed, 1, refs=CORRUPT_REFS)
    finally:
        shutil.rmtree(CORRUPT_REFS, ignore_errors=True)
    if code == 0 or res.get("failed", 0) < 1 or res.get("correct", True):
        return [f"a corrupted reference went unnoticed (exit {code}, {res})"]
    return []


def check_hash_seeds():
    problems = []
    for workload in WORKLOADS:
        seed = recorded_seed(workload)
        for hashseed in ("1", "2"):
            code, res = run(workload, seed, 3, hashseed=hashseed)
            if code != 0 or res.get("failed") != 0:
                problems.append(f"{workload} seed {seed} differs under "
                                f"PYTHONHASHSEED={hashseed}: {res}")
    return problems


def main():
    problems = []
    for name, check in (("wrappers", check_wrappers),
                        ("corrupted reference", check_corruption),
                        ("hash seeds", check_hash_seeds)):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
