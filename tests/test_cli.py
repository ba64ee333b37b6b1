import copy
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aprior.cli
from aprior.audit import parse_log
from aprior.kb import build_kb, kb_digest
from conftest import invoke, mixed_scenario_doc, three_node_doc
from oracles import brute_feature_accuracy


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "name": "mix", "kind": "fixed",
        "entries": [
            {"vector": [0, 0], "truth": 11},
            {"vector": [2, 0], "truth": "omega"},
        ],
        "scoring": [{"action": "pull", "truth": 11, "value": 1.0}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_validate_ok(kb_file, kb):
    result = invoke(["validate", str(kb_file)])
    assert result.code == 0
    assert result.out == f"ok digest={kb_digest(kb)}\n"


def test_validate_sibling_overlap(tmp_path):
    doc = three_node_doc()
    doc["objects"].append({"id": 13, "parent": 1, "predicate": [[0, 0], [1, 1]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(["validate", str(path)])
    assert result.code == 1
    assert result.err.startswith("SiblingOverlap: ")


def test_validate_missing_file(tmp_path):
    result = invoke(["validate", str(tmp_path / "nope.json")])
    assert result.code == 2


def run_args(kb_file, scenario_file, out, extra=()):
    return [
        "run", "--kb", str(kb_file), "--scenario", str(scenario_file),
        "--seed", "42", "--trials", "30", "--epsilon", "0.3",
        "--cost", "0.02", "--n-max", "9", "--fixed-n", "3",
        "--out", str(out), *extra,
    ]


def test_run_is_byte_identical_across_invocations(kb_file, scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = invoke(run_args(kb_file, scenario_file, out1))
    r2 = invoke(run_args(kb_file, scenario_file, out2))
    assert r1.code == 0 and r2.code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.out.startswith("trials=30 ") and r1.out == r2.out


def test_run_fixed_n_override_everywhere(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        assert json.loads(line)["n"] == 3


def test_run_omega_trials_never_act(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    result = invoke(run_args(kb_file, scenario_file, out, extra=["--strict"]))
    assert result.code == 0
    for line in out.read_text().splitlines()[1:]:
        trial = json.loads(line)
        if trial["status"] == "unrecognized":
            assert trial["action"] is None


def test_run_csv_format(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.csv"
    result = invoke(run_args(kb_file, scenario_file, out, extra=["--format", "csv"]))
    assert result.code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,truth,n,node,status,agreement,chosen,tags,score"
    assert len(lines) == 31


def tagged_kb_file(tmp_path, tag):
    """The reference KB, with operation 1 (program 1's only one) tagged tag."""
    doc = three_node_doc()
    doc["operations"][0]["action_tag"] = tag
    path = tmp_path / "tagged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_csv_quotes_a_tag_holding_a_comma_and_a_quote(scenario_file, tmp_path):
    kb_file = tagged_kb_file(tmp_path, 'pull,"fast"')
    log, table = tmp_path / "log.jsonl", tmp_path / "log.csv"
    assert invoke(run_args(kb_file, scenario_file, log)).code == 0
    result = invoke(run_args(kb_file, scenario_file, table, extra=["--format", "csv"]))
    assert result.code == 0
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 31 and all(len(row) == 9 for row in rows)
    actions = [json.loads(line)["action"] for line in log.read_text().splitlines()[1:]]
    assert [row[7] for row in rows[1:]] == ["|".join(a["tags"]) if a else "" for a in actions]
    assert 'pull,"fast"' in {row[7] for row in rows}


def test_audit_reads_raw_line_separators_inside_strings(scenario_file, tmp_path):
    # JSON lets U+2028, U+2029 and U+0085 stand raw in a string; only "\n" ends a record
    kb_file = tagged_kb_file(tmp_path, "pull\u2028\u2029\x85fast")
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    escaped = out.read_text(encoding="utf-8")
    raw = "".join(json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True,
                             separators=(",", ":")) + "\n" for line in escaped.splitlines())
    assert "\u2028" in raw and "\u2028" not in escaped
    assert parse_log(raw) == parse_log(escaped)
    # blank lines and CRLF line ends are skipped, as before
    assert parse_log("\n" + raw.replace("\n", "\r\n\n")) == parse_log(escaped)
    out.write_text(raw, encoding="utf-8")
    result = invoke(["audit", str(out), "--kb", str(kb_file)])
    assert result.code == 0 and result.out.startswith("PASS")


def test_an_alphabet_past_the_recursion_limit_sweeps_and_runs(tmp_path):
    # the count-vector walk once recursed one level per symbol: 1200 raised RecursionError
    doc = {"d": 1, "alphabet": 1200, "objects": [{"id": 1, "parent": None, "predicate": [[0, 0]]}],
           "operations": [], "tasks": [], "programs": []}
    kb_file, scenario = tmp_path / "kb.json", tmp_path / "scenario.json"
    kb_file.write_text(json.dumps(doc), encoding="utf-8")
    scenario.write_text(json.dumps({"name": "one", "kind": "fixed",
                                    "entries": [{"vector": [0], "truth": 1}]}), encoding="utf-8")
    result = invoke(["sweep", "--kb", str(kb_file), "--node", "1", "--epsilon", "0.3",
                                  "--n-max", "1", "--mode", "exact"])
    assert_clean_exit(result, 0)
    assert result.out == "n,perr,phi,is_argmax\n1,0.30000000000000004,0.7,1\n"
    out = tmp_path / "log.jsonl"
    result = invoke(["run", "--kb", str(kb_file), "--scenario", str(scenario),
                                  "--seed", "1", "--trials", "5", "--epsilon", "0.3",
                                  "--n-max", "1", "--out", str(out)])
    assert_clean_exit(result, 0)
    assert [json.loads(line)["n"] for line in out.read_text().splitlines()[1:]] == [1] * 5


@pytest.mark.parametrize("alphabet, error", [(2 ** 62, "MemoryError"), (2 ** 63, "OverflowError")])
def test_an_alphabet_too_large_for_the_exact_walk_exits_2(tmp_path, alphabet, error):
    # validate accepts it; planning n and an exact sweep fail before any
    # memory is allocated: a list of 2**62 entries is refused outright, and
    # 2**63 does not fit an index
    doc = {"d": 1, "alphabet": alphabet,
           "objects": [{"id": 1, "parent": None, "predicate": [[0, 0]]}],
           "operations": [], "tasks": [], "programs": []}
    kb_file, scenario = tmp_path / "kb.json", tmp_path / "scenario.json"
    kb_file.write_text(json.dumps(doc), encoding="utf-8")
    scenario.write_text(json.dumps({"name": "one", "kind": "fixed",
                                    "entries": [{"vector": [0], "truth": 1}]}), encoding="utf-8")
    assert_clean_exit(invoke(["validate", str(kb_file)]), 0)
    out = tmp_path / "log.jsonl"
    for args in (["run", "--kb", str(kb_file), "--scenario", str(scenario), "--trials", "5",
                  "--epsilon", "0.3", "--n-max", "1", "--out", str(out)],
                 ["sweep", "--kb", str(kb_file), "--node", "1", "--epsilon", "0.3",
                  "--n-max", "1", "--mode", "exact"]):
        result = invoke(args)
        assert_clean_exit(result, 2)
        assert len(result.err.splitlines()) == 1 and result.out == ""
        assert result.err.startswith(f"{error}: ") and len(result.err) > len(error) + 3
    assert not out.exists()


def sweep_args(kb_file, out=None, **kw):
    args = ["sweep", "--kb", str(kb_file), "--node", "11", "--epsilon",
            str(kw.get("epsilon", 0.3)), "--value", "1.0", "--cost",
            str(kw.get("cost", 0.02)), "--n-max", str(kw.get("n_max", 15)),
            "--mode", kw.get("mode", "auto"), "--seed", "5"]
    if out is not None:
        args += ["--out", str(out)]
    return args


def test_sweep_reference_rows(reference_sweep_output):
    lines = reference_sweep_output.splitlines()
    assert lines[0] == "n,perr,phi,is_argmax"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert float(rows[1][1]) == pytest.approx(0.51, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(0.47, abs=1e-12)
    brute = 1 - brute_feature_accuracy(3, 0.3, 3, 0) ** 2
    assert float(rows[3][1]) == pytest.approx(brute, abs=1e-9)
    assert float(rows[3][2]) == pytest.approx(1 - brute - 0.06, abs=1e-9)
    argmax_rows = [n for n, row in rows.items() if row[3] == "1"]
    assert argmax_rows == [2]


def test_sweep_noiseless_argmax_is_one(kb_file):
    result = invoke(sweep_args(kb_file, epsilon=0.0, n_max=9))
    assert result.code == 0
    first = result.out.splitlines()[1].split(",")
    assert first[0] == "1" and first[3] == "1"


def test_sweep_rejects_internal_node(kb_file):
    # leaf 2 pins only feature 0, so its recognition error is undefined too
    for node, error in (("1", "NotLeaf"), ("2", "UnderconstrainedLeaf")):
        args = sweep_args(kb_file)
        args[args.index("--node") + 1] = node
        result = invoke(args)
        assert result.code == 1
        assert result.err.startswith(f"{error}: ")
        assert "Traceback" not in result.err


def test_sweep_deterministic_with_mc_rows(kb_file, tmp_path, reference_sweep_output):
    out = tmp_path / "s.csv"
    assert invoke(sweep_args(kb_file, out=out)).code == 0
    assert out.read_bytes() == reference_sweep_output.encode()


def test_audit_honest_log(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    result = invoke(["audit", str(out), "--kb", str(kb_file)])
    assert result.code == 0
    assert result.out.startswith("PASS")
    report = json.loads((tmp_path / "log.jsonl.audit.json").read_text())
    assert report["passed"] is True


def test_audit_tampered_log(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    header["digest_after"] ^= 1
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(
        "\n".join([json.dumps(header, sort_keys=True, separators=(",", ":"))] + lines[1:])
        + "\n")
    result = invoke(["audit", str(tampered), "--kb", str(kb_file)])
    assert result.code == 1
    assert result.out.startswith("FAIL closure")


def test_audit_truncated_file(kb_file, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seed": 1, "trunc')
    result = invoke(["audit", str(bad), "--kb", str(kb_file)])
    assert result.code == 2


def test_run_that_runs_out_of_memory_exits_2_with_one_line(kb_file, scenario_file, tmp_path,
                                                          monkeypatch):
    # as `run --trials 1 --fixed-n 30000000` under a small `ulimit -v` does; the
    # episode is replaced, so no memory is exhausted
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(aprior.cli, "run_episode", out_of_memory)
    out = tmp_path / "log.jsonl"
    result = invoke(run_args(kb_file, scenario_file, out))
    assert_clean_exit(result, 2)
    assert (result.out, result.err) == ("", "MemoryError: out of memory\n")
    assert not out.exists()


def assert_clean_exit(result, code):
    """The exit code is the contract's, from sys.exit or a usage error, not a crash."""
    assert result.code == code
    assert "Traceback" not in result.out + result.err


@pytest.mark.parametrize("gap,message", [
    ("non-object entry", "objects entries must be objects, got int"),
    ("boolean k", "program 1: k must be a positive integer"),
    ("non-finite utility", "program 1: utility must be a finite number"),
    ("carriage return in a tag",
     "operation 1: action_tag must be a non-empty string without control characters"),
    ("top-level array", "KB document must be a JSON object"),
], ids=["non-object entry", "boolean k", "non-finite utility", "carriage return in a tag",
        "top-level array"])
def test_validate_rejects_schema_gaps_without_traceback(tmp_path, gap, message):
    doc = three_node_doc()
    if gap == "top-level array":
        doc = []
    elif gap == "non-object entry":
        doc["objects"].append(7)
    elif gap == "boolean k":
        doc["programs"][0]["k"] = True
    elif gap == "non-finite utility":
        doc["programs"][0]["utility"] = float("nan")
    else:  # a raw "\r" would end a row of run --format csv, which leaves it unquoted
        doc["operations"][0]["action_tag"] = "pull\rfast"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = invoke(["validate", str(path)])
    assert_clean_exit(result, 1)
    assert result.err == f"SchemaError: {message}\n"


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "1.5"), ("--epsilon", "-0.1"), ("--fixed-n", "0"), ("--trials", "0"),
    ("--n-max", "0"), ("--value", "-1"), ("--cost", "-0.5"),
])
def test_run_rejects_out_of_range_option(kb_file, scenario_file, tmp_path,
                                         option, value):
    args = run_args(kb_file, scenario_file, tmp_path / "log.jsonl")
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    result = invoke(args)
    assert_clean_exit(result, 2)
    assert f"error: argument {option}: " in result.err
    assert not (tmp_path / "log.jsonl").exists()


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "1.01"), ("--n-max", "0"), ("--value", "-1"), ("--cost", "-0.02"),
])
def test_sweep_rejects_out_of_range_option(kb_file, option, value):
    args = sweep_args(kb_file)
    args[args.index(option) + 1] = value
    result = invoke(args)
    assert_clean_exit(result, 2)
    assert f"error: argument {option}: " in result.err


@pytest.mark.parametrize("command,option,value", [
    ("run", "--value", "nan"), ("run", "--value", "inf"), ("run", "--cost", "inf"),
    ("run", "--cost", "nan"), ("run", "--phi0", "nan"), ("run", "--phi0", "-inf"),
    ("run", "--epsilon", "nan"), ("sweep", "--value", "nan"), ("sweep", "--cost", "inf"),
    ("sweep", "--epsilon", "nan"),
])
def test_non_finite_float_option_is_a_usage_error(kb_file, scenario_file, tmp_path,
                                                  command, option, value):
    out = tmp_path / "out.txt"
    args = (run_args(kb_file, scenario_file, out) if command == "run"
            else sweep_args(kb_file, out=out))
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    result = invoke(args)
    assert_clean_exit(result, 2)
    assert f"error: argument {option}: " in result.err
    assert not out.exists()


def _usage_error_argv(case, args):
    """The run command line args, broken as case says."""
    i = args.index("--trials")
    if case == "no command":
        return []
    if case == "unknown command":
        return ["simulate", *args[1:]]
    if case == "missing option":
        return args[:i] + args[i + 2:]
    if case == "--trials x":
        return args[:i] + ["--trials", "x"] + args[i + 2:]
    return ["--eps" if a == "--epsilon" else a for a in args]  # an abbreviation


@pytest.mark.parametrize("case,named", [
    ("no command", "COMMAND"), ("unknown command", "'simulate'"),
    ("missing option", "--trials"), ("--trials x", "--trials"), ("abbreviation", "--eps"),
])
def test_a_usage_error_exits_2_with_one_message_naming_it(kb_file, scenario_file, tmp_path,
                                                          case, named):
    out = tmp_path / "log.jsonl"
    result = invoke(_usage_error_argv(case, run_args(kb_file, scenario_file, out)))
    assert_clean_exit(result, 2)
    assert result.out == "" and result.err.startswith("usage: aprior")
    errors = [line for line in result.err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and named in errors[0]
    assert not out.exists()


HELP_NOTES = {
    (): {"validate": "Build and validate a KB", "run": "Run one episode",
         "sweep": "Sweep measurement counts", "audit": "Audit an episode log"},
    ("validate",): {"KB_PATH": ""},
    ("run",): {"--kb": "[required]", "--scenario": "[required]", "--seed": "[default: 0]",
               "--trials": "[x>=1; required]", "--value": "[default: 1.0; x>=0]",
               "--cost": "[default: 0.0; x>=0]", "--phi0": "[default: 0.0; finite]",
               "--n-max": "[default: 9; x>=1]", "--epsilon": "[default: 0.0; 0<=x<=1]",
               "--fixed-n": "[x>=1]", "--out": "[required]", "--format": "[default: jsonl]",
               "--strict": "Audit invariants inline"},
    ("sweep",): {"--kb": "[required]", "--node": "[required]",
                 "--epsilon": "[0<=x<=1; required]", "--value": "[default: 1.0; x>=0]",
                 "--cost": "[default: 0.0; x>=0]", "--n-max": "[default: 15; x>=1]",
                 "--mode": "[default: auto]", "--seed": "[default: 0]",
                 "--out": "stdout when omitted"},
    ("audit",): {"LOG_PATH": "", "--kb": "[required]",
                 "--report": "(default: <log>.audit.json)"},
}


@pytest.mark.parametrize("command", HELP_NOTES, ids=lambda c: " ".join(c) or "aprior")
def test_help_lists_every_option_with_its_default(command):
    result = invoke([*command, "--help"])
    assert result.code == 0 and result.err == ""
    # past the usage and the description, an entry per option or command: its
    # line, and the help lines indented under it
    entries = {}
    for line in result.out.split("\n\n", 2)[2].splitlines():
        indent = len(line) - len(line.lstrip())
        if 0 < indent <= 4:
            name = line.split()[0]
            entries[name] = line
        elif indent > 4:
            entries[name] += " " + line.strip()
    assert set(entries) - {"-h,", "COMMAND"} == set(HELP_NOTES[command])
    for name, note in HELP_NOTES[command].items():
        assert note in entries[name], (name, result.out)


def test_an_option_value_may_start_with_a_minus(kb_file, scenario_file, tmp_path):
    # "-1e-3" is --phi0's value, though argparse's own pattern would take it for an option
    out = tmp_path / "log.jsonl"
    result = invoke(run_args(kb_file, scenario_file, out, extra=["--phi0", "-1e-3"]))
    assert_clean_exit(result, 0)
    assert json.loads(out.read_text().splitlines()[0])["config"]["phi0"] == -0.001


def test_importing_the_cli_leaves_out_click_and_the_auditor(kb_file, scenario_file, tmp_path):
    # a fresh interpreter: run never imports aprior.audit, and audit does; neither loads
    # dataclasses (nor inspect, which it imports), and a sweep loads it for SweepRow
    out = tmp_path / "log.jsonl"
    script = """
import json, sys
import aprior.cli
def loaded():
    return [name for name in ("click", "aprior.audit", "dataclasses", "inspect")
            if name in sys.modules]
print(loaded())
for argv in json.loads(sys.argv[1]):
    try:
        aprior.cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    print(loaded())
"""
    argvs = [run_args(kb_file, scenario_file, out), ["audit", str(out), "--kb", str(kb_file)],
             ["sweep", "--kb", str(kb_file), "--node", "11", "--epsilon", "0.3", "--n-max", "3",
              "--mode", "exact", "--out", str(tmp_path / "sweep.csv")]]
    src = str(Path(aprior.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = [line for line in done.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]", "[]", "['aprior.audit']", "['aprior.audit', 'dataclasses', 'inspect']"]


def _malformed_scenario(case: str) -> dict:
    doc = {
        "name": "mix", "kind": "fixed",
        "entries": [{"vector": [0, 0], "truth": 11}, {"vector": [2, 0], "truth": "omega"}],
        "scoring": [{"action": "pull", "truth": 11, "value": 1.0}],
    }
    if case == "NaN scoring value":
        doc["scoring"][0]["value"] = float("nan")
    elif case == "non-object entry":
        doc["entries"].append(7)
    elif case == "non-object scoring row":
        doc["scoring"].append("pull")
    elif case == "boolean vector symbols":
        doc["entries"][0]["vector"] = [False, False]
    elif case == "boolean repeat":
        doc.update(kind="reflex", repeat=True)
    elif case == "boolean weight":
        doc.update(kind="categorical", weights=[True, 1.0])
    elif case == "weights whose sum overflows":
        doc.update(kind="categorical", weights=[1e308, 1e308])
    elif case == "symbol outside the alphabet":
        doc["entries"][1]["vector"] = [5, 0]
    elif case == "boolean truth":
        doc["entries"][0]["truth"] = True
    elif case == "list truth":
        doc["scoring"][0]["truth"] = [11]
    elif case == "scoring not a list":
        doc["scoring"] = 3
    elif case == "top-level array":
        doc = []
    return doc


@pytest.mark.parametrize("case", [
    "NaN scoring value", "non-object entry", "non-object scoring row",
    "boolean vector symbols", "boolean repeat", "boolean weight", "weights whose sum overflows",
    "symbol outside the alphabet", "boolean truth", "list truth", "scoring not a list",
    "top-level array",
])
def test_run_rejects_malformed_scenario_without_traceback(kb_file, tmp_path, case):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_malformed_scenario(case)), encoding="utf-8")
    out = tmp_path / "log.jsonl"
    result = invoke(run_args(kb_file, path, out))
    assert_clean_exit(result, 2)
    assert result.err.startswith("ScenarioError: ") and len(result.err.splitlines()) == 1
    assert not out.exists()


HUGE = "9" * 5000  # over Python's 4300-digit int/str conversion limit


@pytest.mark.parametrize("command", ["validate", "run", "audit"])
def test_oversized_integer_literal_is_malformed_input(kb_file, scenario_file,
                                                      tmp_path, command):
    if command == "validate":
        text = json.dumps(three_node_doc()).replace('"utility": 1.0', f'"utility": {HUGE}', 1)
        assert HUGE in text
        path = tmp_path / "kb.json"
        path.write_text(text, encoding="utf-8")
        args = ["validate", str(path)]
    elif command == "run":
        text = scenario_file.read_text().replace('"value": 1.0', f'"value": {HUGE}')
        assert HUGE in text
        scenario_file.write_text(text, encoding="utf-8")
        args = run_args(kb_file, scenario_file, tmp_path / "out.jsonl")
    else:
        log = tmp_path / "log.jsonl"
        assert invoke(run_args(kb_file, scenario_file, log)).code == 0
        text = log.read_text().replace('"t":0,', f'"t":{HUGE},', 1)
        assert HUGE in text
        log.write_text(text)
        args = ["audit", str(log), "--kb", str(kb_file)]
    result = invoke(args)
    assert_clean_exit(result, 2)


def test_audit_rejects_a_non_object_action(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    lines = out.read_text().splitlines()
    trial = json.loads(lines[1])
    trial["action"] = "x"
    lines[1] = json.dumps(trial)
    out.write_text("\n".join(lines) + "\n")
    result = invoke(["audit", str(out), "--kb", str(kb_file)])
    assert_clean_exit(result, 2)
    assert "MalformedLog" in result.err


DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder's recursion limit


def _honest_log_lines(kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert invoke(run_args(kb_file, scenario_file, out)).code == 0
    return out, out.read_text().splitlines()


def _edit_first_action(lines, edit):
    idx = next(i for i, line in enumerate(lines[1:], 1) if json.loads(line)["action"])
    record = json.loads(lines[idx])
    edit(record)
    lines[idx] = json.dumps(record)


MALFORMED_LOG_EDITS = {
    "denoised a string": lambda r: r.update(denoised="00"),
    "denoised a list of booleans": lambda r: r.update(denoised=[False, False]),
    "depth a string": lambda r: r.update(depth="2"),
    "action.program a list": lambda r: r["action"].update(program=[1]),
    "action.tags an int": lambda r: r["action"].update(tags=5),
    "action.tags a list of lists": lambda r: r["action"].update(tags=[[1]]),
    "node a list": lambda r: r.update(node=[11]),
    "status a list": lambda r: r.update(status=["full"]),
    "gap in t": lambda r: r.update(t=99),
    "chosen a string": lambda r: r.update(chosen="1"),
    "chosen a boolean": lambda r: r.update(chosen=True),
    "eligible a list of strings": lambda r: r.update(eligible=["1"]),
    "candidates a bare id": lambda r: r.update(candidates=[[1]]),
    "candidate phi a string": lambda r: r.update(candidates=[[1, "0.5"]]),
    "phi_chosen a string": lambda r: r.update(phi_chosen="0.5"),
    "n a string": lambda r: r.update(n="x"),
    "agreement above 1": lambda r: r.update(agreement=7),
    "no agreement": lambda r: r.pop("agreement"),
}


@pytest.mark.parametrize("case", [
    "non-UTF-8 log", "deep KB", "deep scenario", "deep log", "truncated log",
    "string digests in the header", *MALFORMED_LOG_EDITS,
])
def test_malformed_input_exits_2_without_traceback(kb_file, scenario_file, tmp_path,
                                                   case):
    if case == "deep KB":
        path = tmp_path / "deep.json"
        path.write_text(DEEP, encoding="utf-8")
        args = ["validate", str(path)]
    elif case == "deep scenario":
        scenario_file.write_text(DEEP, encoding="utf-8")
        args = run_args(kb_file, scenario_file, tmp_path / "out.jsonl")
    else:
        log, lines = _honest_log_lines(kb_file, scenario_file, tmp_path)
        if case == "non-UTF-8 log":
            log.write_bytes(log.read_bytes().replace(b'"full"', b'"f\xffull"', 1))
        elif case == "deep log":
            log.write_text(DEEP + "\n")
        elif case == "truncated log":
            log.write_text("\n".join(lines[:11]) + "\n")  # the header still names 30 trials
        elif case == "string digests in the header":
            header = json.loads(lines[0])
            for key in ("digest_before", "digest_after"):
                header[key] = str(header[key])
            log.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        else:
            _edit_first_action(lines, MALFORMED_LOG_EDITS[case])
            log.write_text("\n".join(lines) + "\n")
        args = ["audit", str(log), "--kb", str(kb_file)]
    result = invoke(args)
    assert_clean_exit(result, 2)
    if case == "deep scenario":
        assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("case", ["another KB", "doctored task lists", "empty tags",
                                  "chosen outside eligible"])
def test_audit_fails_statement1_on_a_log_that_does_not_match_the_kb(
        kb_file, scenario_file, tmp_path, case):
    log, lines = _honest_log_lines(kb_file, scenario_file, tmp_path)
    kb_arg = kb_file
    if case == "another KB":
        doc = three_node_doc()
        doc["programs"][2]["k"] = 1
        kb_arg = tmp_path / "other.json"
        kb_arg.write_text(json.dumps(doc), encoding="utf-8")
    elif case == "doctored task lists":
        header = json.loads(lines[0])
        header["tasks_before"] = header["tasks_after"] = header["tasks_before"][:1]
        lines[0] = json.dumps(header)
    elif case == "empty tags":
        _edit_first_action(lines, lambda r: r["action"].update(tags=[]))
    else:
        _edit_first_action(lines, lambda r: r.update(eligible=[], phi_chosen=-5))
    log.write_text("\n".join(lines) + "\n")
    result = invoke(["audit", str(log), "--kb", str(kb_arg)])
    assert_clean_exit(result, 1)
    assert result.out.startswith("FAIL statement1")


def test_audit_names_the_trial_whose_recognition_was_rewritten(
        kb_file, scenario_file, tmp_path):
    log, lines = _honest_log_lines(kb_file, scenario_file, tmp_path)
    idx = next(i for i, line in enumerate(lines[1:], 1)
               if json.loads(line)["denoised"] == [2, 0])
    record = json.loads(lines[idx])
    assert (record["node"], record["status"]) == (-1, "unrecognized")
    record.update(status="full", node=11, depth=2)
    lines[idx] = json.dumps(record)
    log.write_text("\n".join(lines) + "\n")
    result = invoke(["audit", str(log), "--kb", str(kb_file)])
    assert_clean_exit(result, 1)
    assert result.out.startswith(f"FAIL statement1 trial={record['t']}: node 11, depth 2,")


@pytest.mark.parametrize("command", ["run", "sweep", "audit"])
def test_output_path_in_a_missing_directory_exits_2(kb_file, scenario_file, tmp_path,
                                                   command):
    missing = tmp_path / "missing" / "out"
    if command == "run":
        args = run_args(kb_file, scenario_file, missing)
    elif command == "sweep":
        args = sweep_args(kb_file, out=missing, n_max=9)
    else:
        log, _ = _honest_log_lines(kb_file, scenario_file, tmp_path)
        args = ["audit", str(log), "--kb", str(kb_file), "--report", str(missing)]
    result = invoke(args)
    assert_clean_exit(result, 2)
    assert result.err.startswith("FileNotFoundError: ")
    assert len(result.err.splitlines()) == 1


@pytest.mark.parametrize("command,extra", [
    ("run", ["--cost", "1e308"]),  # the economy: 1 + 1e308 * 9
    ("run", ["--cost", "1e307", "--fixed-n", "20"]),  # the episode: 1 + 1e307 * 20
    ("run", ["--fixed-n", "1" + "0" * 400]),  # an n past the floats, with cost 0.02
    ("sweep", ["--cost", "1e308"]),
])
def test_overflowing_economy_exits_2(kb_file, scenario_file, tmp_path, command, extra):
    out = tmp_path / "out.txt"
    args = (run_args(kb_file, scenario_file, out) if command == "run"
            else sweep_args(kb_file, out=out, n_max=9))
    for option, value in zip(extra[::2], extra[1::2]):
        args[args.index(option) + 1] = value
    result = invoke(args)
    assert_clean_exit(result, 2)
    assert result.err.startswith("ValueError: ")
    assert "overflows" in result.err
    assert not out.exists()


def _member_paths(value, path=()):
    """The path of every member nested in a JSON value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, member in items:
        yield path + (key,)
        yield from _member_paths(member, path + (key,))


# every int below 50, so an alphabet stays cheap to plan and sweep (C(n+a-1, a-1)
# count vectors), or past 2**63, which no index can hold
OTHER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 49), st.sampled_from([2 ** 64, -(2 ** 63)]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(-1, 12), max_size=3),
    st.just({}))


@st.composite
def mutated(draw, doc):
    """doc with one to three members dropped, given another value, or an int nudged."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_member_paths(doc))))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        key, how = path[-1], draw(st.sampled_from(["drop", "retype", "nudge"]))
        if how == "drop":
            del owner[key]
        elif how == "nudge" and type(owner[key]) is int:
            owner[key] += draw(st.integers(-3, 3))
        else:
            owner[key] = draw(OTHER_VALUES)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(mutated(three_node_doc()), st.just(mixed_scenario_doc())),
                 st.tuples(st.just(three_node_doc()), mutated(mixed_scenario_doc()))))
def test_a_mutated_kb_or_scenario_keeps_the_exit_code_contract(fuzz_dir, docs):
    kb, scenario = fuzz_dir / "kb.json", fuzz_dir / "scenario.json"
    for path, doc in zip((kb, scenario), docs):
        path.write_text(json.dumps(doc), encoding="utf-8")
    for args in (["validate", str(kb)],
                 ["run", "--kb", str(kb), "--scenario", str(scenario), "--fixed-n", "3",
                  "--trials", "50", "--epsilon", "0.3", "--out", str(fuzz_dir / "log.jsonl")],
                 ["sweep", "--kb", str(kb), "--node", "11", "--epsilon", "0.3",
                  "--mode", "exact", "--n-max", "3"]):
        result = invoke(args)
        assert result.code in (0, 1, 2), (args[0], result.err)
        assert "Traceback" not in result.err


def test_a_strict_failure_exits_1_with_one_line_and_no_log(tampered_kb, kb_file, scenario_file,
                                                           tmp_path, monkeypatch):
    monkeypatch.setattr(aprior.cli, "load_kb_file", lambda path: tampered_kb)
    out = tmp_path / "log.jsonl"
    result = invoke(run_args(kb_file, scenario_file, out, extra=["--strict"]))
    assert_clean_exit(result, 1)
    assert (result.out, result.err) == (
        "", "strict audit failed: trial 5: knowledge base canonical bytes changed\n")
    assert not out.exists()


def test_a_value_error_past_the_loaders_exits_2_with_one_line(kb_file, scenario_file, tmp_path,
                                                              monkeypatch):
    # main maps every stage's errors, not only the loaders'
    def failing(*args):
        raise ValueError("no report")

    monkeypatch.setattr("aprior.audit.audit_log", failing)
    log, _ = _honest_log_lines(kb_file, scenario_file, tmp_path)
    report = tmp_path / "report.json"
    result = invoke(["audit", str(log), "--kb", str(kb_file), "--report", str(report)])
    assert_clean_exit(result, 2)
    assert (result.out, result.err) == ("", "ValueError: no report\n")
    assert not report.exists()
