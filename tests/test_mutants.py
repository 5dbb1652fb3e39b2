"""The mutation catalogue stays replayable.

`tests/mutants.json` lists mutants that named tests must kill, and
`scripts/mutants.py` replays them on copies of the repository.  Here
only the catalogue is checked: every snippet occurs exactly once in its
file, so a refactor that moves the code must move the mutant too, and
every named test file exists.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_ids_are_unique():
    ids = [entry["id"] for entry in CATALOGUE]
    assert len(set(ids)) == len(ids)


def test_every_snippet_matches_exactly_once():
    for entry in CATALOGUE:
        text = (ROOT / entry["file"]).read_text()
        assert text.count(entry["old"]) == 1, entry["id"]
        assert entry["new"] != entry["old"], entry["id"]


def test_every_mutant_names_existing_tests():
    for entry in CATALOGUE:
        assert entry["tests"], entry["id"]
        for test in entry["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (entry["id"], test)
