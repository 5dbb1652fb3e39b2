"""Replay the mutation checks catalogued in `tests/mutants.json`.

Each entry of the catalogue names a file of the repository, an exact
snippet of it, its replacement, and the pytest node ids of the tests
that must all fail once the snippet is replaced: the mutant those tests
kill.  For each entry the script copies `src`, `tests`, `scripts` (which
`test_tour_output_is_unchanged` runs) and `pyproject.toml` to a
temporary directory, replaces the snippet there,
and runs the named tests on the copy, with the copy's `src` on
PYTHONPATH and no bytecode or pytest cache written.  Nothing in the
checkout changes.

Run from anywhere; the entries run one after another:

    python3 scripts/mutants.py

It prints one line per entry: `killed` when every named test failed,
`SURVIVED` with the named tests that passed, or `ERROR` with the reason
(the snippet does not occur exactly once, or pytest could not run the
named tests), then the entry count and the run time.  The exit status
is 1 if any entry survived or erred.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "tests", "mutants.json")


def replay(entry: dict) -> str:
    """'killed', 'SURVIVED <named tests that passed>' or 'ERROR: <reason>'
    for one entry."""
    with open(os.path.join(ROOT, entry["file"]), encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(entry["old"])
    if found != 1:
        return f"ERROR: the snippet occurs {found} times in {entry['file']}"
    with tempfile.TemporaryDirectory(prefix="oagkit-mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests", "scripts"):
            shutil.copytree(os.path.join(ROOT, name),
                            os.path.join(tmp, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        with open(os.path.join(tmp, entry["file"]), "w",
                  encoding="utf-8") as fh:
            fh.write(text.replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
             "no:cacheprovider", *entry["tests"]],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
    if run.returncode not in (0, 1):
        tail = run.stdout.strip().splitlines()[-1:] or [""]
        return f"ERROR: pytest exit {run.returncode}: {tail[0]}"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M))
    passed = [t for t in entry["tests"] if t not in failed]
    return f"SURVIVED {' '.join(passed)}" if passed else "killed"


def main() -> int:
    with open(CATALOGUE, encoding="utf-8") as fh:
        entries = json.load(fh)
    start = time.monotonic()
    bad = 0
    for entry in entries:
        outcome = replay(entry)
        bad += outcome != "killed"
        print(f"{entry['id']}: {outcome}", flush=True)
    print(f"{len(entries)} mutants, {len(entries) - bad} killed, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
