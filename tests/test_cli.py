"""Tests for the batch command-line surface."""

import ast
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import oagkit
from oagkit import cli
from oagkit.formulas import MAX_DEPTH


def run_json(argv):
    buf = io.StringIO()
    rc = cli.run(argv + ["--format", "json"], out=buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 1, "structured output must be a single line"
    return rc, json.loads(lines[0])


def run_human(argv):
    buf = io.StringIO()
    rc = cli.run(argv, out=buf)
    return rc, buf.getvalue()


class TestStructure:
    def test_version_and_config_echo(self):
        rc, obj = run_json(["decide", "--group", "Z", "(forall (x) (<= x x))"])
        assert rc == 0
        assert obj["version"] == "oag-v1"
        assert obj["command"] == "decide"
        assert obj["config"] == {"group": "Z", "modbound": 12, "box": 8,
                                 "budget": None, "seed": 0}
        assert obj["result"] is True

    def test_key_order_is_stable(self):
        _, obj = run_json(["decide", "(forall (x) (<= x x))"])
        assert list(obj)[:3] == ["version", "command", "config"]

    def test_reruns_byte_identical(self):
        argv = ["typegen", "--group", "Z*Z", "--modbound", "3",
                "(le@ 2 (c 1 1) (* 2 x))", "--format", "json"]
        a, b = io.StringIO(), io.StringIO()
        assert cli.run(argv, out=a) == 0
        assert cli.run(argv, out=b) == 0
        assert a.getvalue() == b.getvalue()

    def test_human_format_plain_lines(self):
        rc, text = run_human(["decide", "(forall (x) (<= x x))"])
        assert rc == 0
        assert text == "result: true\n"


class TestCommands:
    def test_decide_halving_parity(self):
        rc, obj = run_json(["decide", "--group", "Z*Z",
                            "(exists (x) (= (+ x x) (c 1 1)))"])
        assert rc == 0 and obj["result"] is False

    def test_equiv_shifted_bounds(self):
        rc, obj = run_json(["equiv", "--group", "Z*Z",
                            "(le@ 2 (c 1 1) (* 2 x))",
                            "(le@ 2 (c 1 7) (* 2 x))"])
        assert rc == 0 and obj["result"] is True

    def test_parse_echoes_canonical_text(self):
        rc, obj = run_json(["parse", "(and (<= x (c 3)) true)"])
        assert rc == 0
        assert obj["free"] == ["x"]
        assert obj["quantifier_free"] is True

    def test_qe_grounds_out_sentences(self):
        rc, obj = run_json(["qe", "--group", "Q",
                            "(exists (y) (< x (* 2 y)))"])
        assert rc == 0
        assert obj["scalar"] == "true"

    def test_rank_with_three_jumps(self):
        rc, obj = run_json(["rank", "--group", "Z*Z*Z", "--n", "3"])
        assert rc == 0
        assert obj["rank"] == 3
        assert obj["jump_levels"] == [1, 2, 3]
        assert [row["an_level"] for row in obj["subgroup_table"]] == [1, 2, 3]

    def test_chi_counts_discrete_coordinates(self):
        rc, obj = run_json(["chi", "3", "--group", "Z*Q*Z"])
        assert rc == 0 and obj["result"] == 9

    def test_reps_grid(self):
        rc, obj = run_json(["reps", "2", "2", "--group", "Z*Z"])
        assert rc == 0
        assert obj["count"] == 4
        assert obj["representatives"] == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_nice_piece_listing(self):
        rc, obj = run_json(["nice", "(and (< (c 5) x) (congr 3 x (c 1)))"])
        assert rc == 0
        assert obj["count"] == 1
        piece = obj["pieces"][0]
        assert piece["upper"]["bound"] == [7]
        assert piece["upper"]["relation"] == "ge"
        assert piece["congruences"][0]["modulus"] == 3

    def test_endseg_report(self):
        rc, obj = run_json(["endseg", "--group", "Z*Z",
                            "(le@ 2 (c 1 1) (* 2 x))"])
        assert rc == 0
        assert obj["is_end_segment"] is True
        assert obj["stabilizer_level"] == 1
        assert obj["segment"]["bound"] == [1, 0]
        assert obj["code"]["header"] == ["segment", "end", "min", 1]

    def test_endseg_negative(self):
        rc, obj = run_json(["endseg", "(congr 2 x (c 0))"])
        assert rc == 0
        assert obj == {"version": "oag-v1", "command": "endseg",
                       "config": obj["config"], "is_end_segment": False}

    @pytest.mark.parametrize("argv", [
        ["(< x y)"], ["(< x (c 1))", "--var", "y"], ["true"]])
    def test_endseg_variable_errors_are_no_verdict(self, argv):
        # a formula without the one free variable is an error, never a
        # set that fails to be an end segment
        rc, obj = run_json(["endseg"] + argv)
        assert rc == 1
        assert obj["error"]["type"] == "SegmentError"
        assert "is_end_segment" not in obj

    def test_code_then_reconstruct_round_trip(self, tmp_path):
        rc, obj = run_json(["code", "(and (< (c 5) x) (congr 3 x (c 1)))"])
        assert rc == 0
        path = tmp_path / "code.json"
        path.write_text(json.dumps(obj["code"]))
        rc2, back = run_json(["reconstruct", "--file", str(path)])
        assert rc2 == 0
        rc3, verdict = run_json(["equiv", back["formula"],
                                 "(and (< (c 5) x) (congr 3 x (c 1)))"])
        assert rc3 == 0 and verdict["result"] is True

    def test_typegen_reports_checked_descriptor(self):
        rc, obj = run_json(["typegen", "--group", "Z*Z", "--modbound", "4",
                            "(le@ 2 (c 1 1) (* 2 x))"])
        assert rc == 0
        assert obj["checked"] is True
        d = obj["descriptor"]
        assert d["cut"]["kind"] == "at-segment"
        assert d["cosets"] == [{"level": 1, "coords": [1]}]
        assert len(d["residues"]) == 6

    def test_fuzzcheck_clean_run(self):
        rc, obj = run_json(["fuzzcheck", "--group", "Z", "--count", "20",
                            "--box", "4", "--seed", "7"])
        assert rc == 0
        assert obj["checked"] == 20
        assert obj["failures"] == 0
        assert obj["first_counterexample"] is None


class TestErrors:
    def test_domain_error_is_machine_readable(self):
        rc, obj = run_json(["decide", "(< x (c 1))"])
        assert rc == 1
        assert obj["error"]["type"] == "FormulaError"
        assert "Traceback" not in json.dumps(obj)

    def test_parse_error_exit_one(self):
        rc, obj = run_json(["parse", "(("])
        assert rc == 1
        assert obj["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("argv", [
        ["decide", "--group", "Z", "(forall (x) (< x (c 1/0)))"],
        ["decide", "--group", "Q", "(forall (x) (< x (c 1/0)))"],
        ["parse", "--group", "Z", "(< x (c " + "9" * 5000 + "))"],
        ["parse", "--group", "Z", "(congr " + "9" * 5000 + " x x)"]])
    def test_unreadable_numeral_is_a_parse_error(self, argv):
        """A zero denominator raised ZeroDivisionError and a numeral past
        Python's integer string limit a raw ValueError, each a traceback."""
        rc, obj = run_json(argv)
        assert rc == 1
        assert obj["version"] == "oag-v1"
        assert obj["error"]["type"] == "ParseError"
        assert "(line 1, column " in obj["error"]["message"]

    def test_human_error_line(self):
        rc, text = run_human(["parse", "(("])
        assert rc == 1
        assert text.startswith("error (ParseError):")

    def test_usage_error_exit_two(self, capsys):
        assert cli.run(["not-a-command"], out=io.StringIO()) == 2
        assert cli.run([], out=io.StringIO()) == 2
        capsys.readouterr()

    def test_fuzzcheck_refuses_dense_groups(self):
        rc, obj = run_json(["fuzzcheck", "--group", "Z*Q", "--count", "5"])
        assert rc == 1
        assert "all-discrete" in obj["error"]["message"]

    @pytest.mark.parametrize("flags", [["--box", "-1", "--count", "3"],
                                       ["--count", "-3"]])
    def test_fuzzcheck_refuses_negative_box_and_count(self, flags):
        """A negative box gave empty grids and a negative count an empty
        corpus: both used to report a vacuous clean run."""
        rc, obj = run_json(["fuzzcheck", *flags])
        assert rc == 1
        assert obj["error"]["type"] == "OagError"
        assert "checked" not in obj

    def test_fuzzcheck_box_zero_is_one_point(self):
        rc, obj = run_json(["fuzzcheck", "--count", "10", "--box", "0"])
        assert rc == 0
        assert (obj["checked"], obj["failures"]) == (10, 0)

    SET = "(or (< x (c 0 0)) (congr 3 x (c 1 0)))"

    @pytest.mark.parametrize("command", ["nice", "code", "endseg", "typegen"])
    def test_budget_reaches_the_set_commands(self, command):
        rc, obj = run_json([command, "--group", "Z*Z", "--budget", "5",
                            self.SET])
        assert rc == 1
        assert obj["error"]["type"] == "BudgetExceeded"
        # a budget that suffices changes nothing but the echoed config
        _, free = run_json([command, "--group", "Z*Z", self.SET])
        _, roomy = run_json([command, "--group", "Z*Z", "--budget",
                             "1000000", self.SET])
        assert "error" not in free
        assert {**roomy, "config": free["config"]} == free

    def test_reps_too_many_is_typed(self):
        rc, obj = run_json(["reps", "--group", "Z*Z", "1", "1000000000"])
        assert rc == 1
        assert obj["error"]["type"] == "OutputTooLarge"

    def test_reps_too_long_to_print_is_typed(self):
        # 2^24 representatives: within the old count bound, but about
        # 190 MB of JSON
        rc, obj = run_json(["reps", "--group", "Z*Z", "2", "4096"])
        assert rc == 1
        assert obj["error"]["type"] == "OutputTooLarge"

    def test_bad_modbound_rejected(self):
        rc, obj = run_json(["typegen", "--modbound", "1", "(<= (c 0) x)"])
        assert rc == 1

    def test_missing_input_rejected(self):
        rc, obj = run_json(["parse"])
        assert rc == 1
        assert "missing input" in obj["error"]["message"]

    def test_bad_group_rejected(self):
        rc, obj = run_json(["parse", "true", "--group", "Z+Q"])
        assert rc == 1
        assert obj["error"]["type"] == "GroupError"

    def test_reconstruct_rejects_junk_json(self):
        rc, obj = run_json(["reconstruct", "{not json"])
        assert rc == 1
        assert "JSON" in obj["error"]["message"]

    @pytest.mark.parametrize("obj, message", [
        ({"version": "code-v1", "header": ["set", [["ge"]]],
          "values": [{"sort": "main", "coords": ["1"]}]},
         "malformed piece descriptor"),
        ({"version": "code-v1",
          "header": ["set", [[["full"], ["full"], [[1, 1]]]]],
          "values": [{"sort": "marker", "kind": "minus-inf"},
                     {"sort": "marker", "kind": "plus-inf"},
                     {"sort": "finquot", "level": 1, "modulus": 2,
                      "residues": [5]}]},
         "residue 5 out of range for modulus 2"),
    ], ids=["piece", "residue"])
    def test_reconstruct_rejects_malformed_codes(self, obj, message):
        rc, out = run_json(["reconstruct", json.dumps(obj)])
        assert rc == 1
        assert out["error"] == {"type": "CodeError", "message": message}

    def test_missing_file_rejected(self, tmp_path):
        rc, obj = run_json(["decide", "--file", str(tmp_path / "absent")])
        assert rc == 1
        assert obj["error"]["type"] == "OagError"
        assert "cannot read" in obj["error"]["message"]

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"(< x (c 1)) ; caf\xe9")
        rc, obj = run_json(["parse", "--file", str(path)])
        assert rc == 1
        assert obj["error"]["type"] == "OagError"


def nested_nots(depth):
    # (< x (c 0 0 0)) is two levels deep
    k = depth - 2
    return "(not " * k + "(< x (c 0 0 0))" + ")" * k


def nested_exists(depth):
    # every binder adds two levels: the exists form and its conjunction
    s = "(< (c 0 0 0) x)"
    for i in range((depth - 2) // 2):
        s = f"(exists (y{i}) (and (= y{i} y{i}) {s}))"
    return s


def nested_lists(depth):
    return "[" * depth + "]" * depth


def iff_chain(k):
    # the printed answer about doubles with each level
    s = "(< (c 0) x)"
    for i in range(1, k + 1):
        s = f"(iff (< (c {i}) x) {s})"
    return s


class TestLargeOutput:
    def test_answer_too_large_to_print_is_typed(self):
        rc, obj = run_json(["qe", "--group", "Z", iff_chain(18)])
        assert rc == 1
        assert obj["error"]["type"] == "OutputTooLarge"

    def test_deep_chain_fails_fast(self):
        # the elimination is quick; only the printed answer is too large
        rc, obj = run_json(["qe", "--group", "Z", iff_chain(30)])
        assert rc == 1
        assert obj["error"]["type"] == "OutputTooLarge"

    def test_large_answer_prints_as_before(self):
        # the digest of the 380869-character answer, recorded before the
        # printed length was checked
        rc, obj = run_json(["qe", "--group", "Z", iff_chain(12)])
        assert rc == 0
        text = obj["scalar"]
        assert len(text) == 380869
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "215c462ef4b43c844d23f592958bfcce57867b0f27e9443592881bfd72825d0c"


class TestDeepInput:
    @pytest.mark.parametrize("command,text", [
        ("qe", nested_nots(2000)),
        ("code", nested_exists(2000)),
    ], ids=["qe-not", "code-exists"])
    def test_deep_formula_is_a_parse_error(self, command, text):
        rc, obj = run_json([command, "--group", "Z*Z*Z", text])
        assert rc == 1
        assert obj["error"]["type"] == "ParseError"
        assert f"deeper than {MAX_DEPTH}" in obj["error"]["message"]

    @pytest.mark.parametrize("command,text", [
        ("qe", nested_exists(MAX_DEPTH)),
        ("code", nested_nots(MAX_DEPTH)),
        ("nice", nested_nots(MAX_DEPTH)),
        ("typegen", nested_nots(MAX_DEPTH)),
    ], ids=["qe-exists", "code-not", "nice-not", "typegen-not"])
    def test_commands_answer_at_the_limit(self, command, text):
        argv = [command, "--group", "Z*Z*Z", text]
        if command == "typegen":
            argv += ["--modbound", "2"]
        rc, obj = run_json(argv)
        assert rc == 0, obj.get("error")

    def test_reconstruct_deep_header_is_a_code_error(self):
        text = ('{"version": "code-v1", "header": ' + nested_lists(500)
                + ', "values": []}')
        rc, obj = run_json(["reconstruct", text])
        assert rc == 1
        assert obj["error"]["type"] == "CodeError"

    @pytest.mark.parametrize("depth", [2000, 100000])
    def test_reconstruct_deep_json_is_invalid_json(self, depth):
        rc, obj = run_json(["reconstruct", nested_lists(depth)])
        assert rc == 1
        assert "not valid JSON" in obj["error"]["message"]


def _module_env():
    env = dict(os.environ)
    src = str(Path(oagkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_types_input_errors(tmp_path):
    """The same failures, and an answer too large to print, through
    `python -m oagkit`: exit 1 and a JSON error line, no traceback."""
    env = _module_env()
    deep_formula = tmp_path / "formula.txt"
    deep_formula.write_text(nested_nots(2000))
    deep_json = tmp_path / "code.json"
    deep_json.write_text(nested_lists(100000))
    cases = [(["decide", "--file", str(tmp_path / "absent")], "OagError"),
             (["qe", "--file", str(deep_formula)], "ParseError"),
             (["reconstruct", "--file", str(deep_json)], "OagError"),
             (["qe", "--group", "Z", iff_chain(18)], "OutputTooLarge")]
    for argv, kind in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "oagkit"] + argv + ["--format", "json"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == kind


_HUGE = "(congr 1000000007 x (c 3))"


def _limit_child():
    # 2 GB of address space and 5 s of CPU time, then the child is killed
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (5, 5))


@pytest.mark.parametrize("command, text, want", [
    ("nice", _HUGE, None),
    ("code", _HUGE, None),
    ("endseg", f"(or (< (c 5) x) {_HUGE})", None),
    ("typegen", _HUGE, None),
    ("typegen", f"(and (< (c 5) x) {_HUGE})", None),
    ("endseg", _HUGE, {"is_end_segment": False}),
], ids=["nice", "code", "endseg-ray", "typegen", "typegen-ray", "endseg"])
def test_huge_modulus_is_bounded_by_the_budget(command, text, want):
    """A binary-encoded modulus of 10^9+7: the commands that walk its
    classes stop at the node budget, within memory, instead of listing
    every residue first; endseg of the bare class needs no walk.  A child
    killed at its CPU limit has a negative return code and no output."""
    proc = subprocess.run(
        [sys.executable, "-m", "oagkit", command, "--group", "Z", text,
         "--budget", "100000", "--format", "json"],
        capture_output=True, text=True, env=_module_env(),
        preexec_fn=_limit_child, timeout=60)
    assert "Traceback" not in proc.stderr
    obj = json.loads(proc.stdout)
    if want is None:
        assert proc.returncode == 1, proc.stdout
        assert obj["error"]["type"] == "BudgetExceeded"
    else:
        assert proc.returncode == 0, proc.stdout
        assert {k: obj[k] for k in want} == want


def test_reader_closing_early_gets_no_traceback():
    """`oagkit reps … | head -c 150`: the 436187-byte answer overflows
    the pipe, so the reader's close breaks the write; exit 1, no
    traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "oagkit", "reps", "--group", "Z*Z", "2",
         "200", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
    head = proc.stdout.read(150)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1, err
    assert head.startswith(b'{"version": "oag-v1", "command": "reps"')
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decide", "--group", "Z*Z", "(exists (x) (= (+ x x) (c 1 1)))"],
    ["qe", "--group", "Z*Q",
     "(exists (y) (and (= x (* 2 y)) (< (* 3 y) (c 0 1))))"],
    ["code", "--group", "Z",
     "(or (= x (c 2)) (and (< (c 5) x) (congr 3 x (c 1))))"],
    ["nice", "--group", "Z*Q",
     "(or (< x (c 0 1/2)) (and (< (c 1 0) x) (congr 2 x (c 1 0))))"],
    ["typegen", "--group", "Z*Z", "--modbound", "4",
     "(le@ 2 (c 1 1) (* 2 x))"],
    ["endseg", "--group", "Z*Z", "(<= (c 1 1) (* 2 x))", "--var", "x"],
    ["endseg", "--group", "Q*Z", "(lt@ 1 (c 1/2 0) x)", "--var", "x"],
    ["endseg", "--group", "Z*Q", "(< (c 1 1/2) x)", "--var", "x"],
])
def test_same_answers_without_asserts(argv):
    """`python -O` strips assert statements; no answer may depend on
    one."""
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable] + flags + ["-m", "oagkit"] + argv
            + ["--format", "json"],
            capture_output=True, text=True, env=_module_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_no_assert_statements_in_the_package():
    """Self-checks raise AssertionError explicitly, so `python -O` keeps
    them."""
    found = []
    for path in sorted(Path(oagkit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_no_dataclasses_import_in_the_package():
    """Value classes derive from `errors.Record`; importing `dataclasses`
    would cost every cold command its import and class-building time."""
    found = []
    for path in sorted(Path(oagkit.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


_CLI = {"oagkit", "oagkit.cli", "oagkit.errors", "oagkit.groups"}
_FORMULAS = _CLI | {"oagkit.scalars", "oagkit.formulas"}
_QE = _FORMULAS | {"oagkit.qe"}
_SEGMENTS = _QE | {"oagkit.segments"}
_CODES = _SEGMENTS | {"oagkit.codes"}
_Z_CODE = ('{"version": "code-v1", "header": ["set", [[["ge"], ["full"], '
           '[]]]], "values": [{"sort": "main", "coords": ["0"]}, '
           '{"sort": "marker", "kind": "plus-inf"}]}')


_LOADS = [
    (["-c", "import oagkit"], {"oagkit"}, None),
    (["rank", "--group", "Z*Z"], _CLI, "modulus: 2"),
    (["chi", "--group", "Z*Q*Z", "3"], _CLI, "prime: 3"),
    (["reps", "--group", "Z*Z", "2", "3"], _CLI, "level: 2"),
    (["parse", "(< x (c 1))"], _FORMULAS, "formula: (< x (c 1))"),
    (["decide", "--group", "Z*Z", "(exists (x) (= (+ x x) (c 1 1)))"], _QE,
     "result: false"),
    (["qe", "(exists (y) (< x y))"], _QE, 'free: ["x"]'),
    (["equiv", "(< x (c 1))", "(<= x (c 0))"], _QE, "result: true"),
    (["nice", "(<= (c 0) x)"], _SEGMENTS, "count: 1"),
    (["endseg", "(<= (c 0) x)"], _CODES, "is_end_segment: true"),
    (["code", "(<= (c 0) x)"], _CODES, 'code: {"version": "code-v1"'),
    (["reconstruct", _Z_CODE], _CODES, "formula: (le@ 1 (c 0) x)"),
    (["typegen", "(<= (c 0) x)"], _CODES | {"oagkit.typegen"},
     'descriptor: {"cut": {"kind": "realized"'),
    (["fuzzcheck", "--count", "5"], _QE | {"oagkit.oracle"}, "count: 5"),
]


@pytest.mark.parametrize("argv, loads, first", _LOADS,
                         ids=["import" if a[0] == "-c" else a[0]
                              for a, _, _ in _LOADS])
def test_command_loads_only_its_layers(argv, loads, first):
    """A cold command compiles and runs only the modules it uses: a plain
    import loads no submodule, `rank` no eliminator, `decide` no segment,
    code or type layer, only `fuzzcheck` loads the oracle and numpy, and
    none loads `dataclasses`."""
    cmd = argv if argv[0] == "-c" else ["-m", "oagkit", *argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", *cmd],
                          capture_output=True, text=True, env=_module_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    if first is not None:
        assert proc.stdout.splitlines()[0].startswith(first)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if "|" in line}
    assert {m for m in imported if m.split(".")[0] == "oagkit"} == loads
    assert ("numpy" in imported) == (argv[0] == "fuzzcheck")
    assert "dataclasses" not in imported


TOUR_SHA256 = \
    "bf54442f65465746f982171abe2389dbcb340614dd9b6ab01f69f80e6c8fdf81"


def test_tour_output_is_unchanged(tmp_path):
    """scripts/tour.sh walks every command once; its output, byte for
    byte, is the documented one."""
    shim = tmp_path / "oagkit"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m oagkit "$@"\n')
    shim.chmod(0o755)
    env = _module_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    tour = Path(__file__).resolve().parent.parent / "scripts" / "tour.sh"
    proc = subprocess.run(["sh", str(tour)], capture_output=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == TOUR_SHA256
