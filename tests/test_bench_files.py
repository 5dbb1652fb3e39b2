"""The committed counter files stay readable.

Each `BENCH_*.json` at the repository root is written by
`scripts/counters.py`: the names of the commits it counted, parent
first, and each one's counts.  Here only the form is checked, not the
numbers, which the script reproduces.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_counter_file():
    assert FILES


def test_each_file_parses_and_names_its_commits():
    for path in FILES:
        data = json.loads(path.read_text())
        commits = data["commits"]
        assert commits and all(isinstance(c, str) and c for c in commits)
        # the parent is a commit id
        assert re.fullmatch(r"[0-9a-f]{7,40}", commits[0]), path.name
        assert list(data["counts"]) == commits, path.name
        assert data["equal"] == all(data["counts"][c] ==
                                    data["counts"][commits[0]]
                                    for c in commits), path.name
