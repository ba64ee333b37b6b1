import copy
import json

import pytest
from click.testing import CliRunner

from aprior.cli import main
from aprior.kb import build_kb, kb_digest
from conftest import three_node_doc
from oracles import brute_feature_accuracy


@pytest.fixture
def runner():
    return CliRunner()


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


def test_validate_ok(runner, kb_file, kb):
    result = runner.invoke(main, ["validate", str(kb_file)])
    assert result.exit_code == 0
    assert str(kb_digest(kb)) in result.output


def test_validate_sibling_overlap(runner, tmp_path):
    doc = three_node_doc()
    doc["objects"].append({"id": 13, "parent": 1, "predicate": [[0, 0], [1, 1]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert "SiblingOverlap" in result.output


def test_validate_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def run_args(kb_file, scenario_file, out, extra=()):
    return [
        "run", "--kb", str(kb_file), "--scenario", str(scenario_file),
        "--seed", "42", "--trials", "30", "--epsilon", "0.3",
        "--cost", "0.02", "--n-max", "9", "--fixed-n", "3",
        "--out", str(out), *extra,
    ]


def test_run_is_byte_identical_across_invocations(runner, kb_file, scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = runner.invoke(main, run_args(kb_file, scenario_file, out1))
    r2 = runner.invoke(main, run_args(kb_file, scenario_file, out2))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "trials=30" in r1.output


def test_run_fixed_n_override_everywhere(runner, kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert runner.invoke(main, run_args(kb_file, scenario_file, out)).exit_code == 0
    lines = out.read_text().splitlines()
    for line in lines[1:]:
        assert json.loads(line)["n"] == 3


def test_run_omega_trials_never_act(runner, kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    result = runner.invoke(
        main, run_args(kb_file, scenario_file, out, extra=["--strict"]))
    assert result.exit_code == 0
    for line in out.read_text().splitlines()[1:]:
        trial = json.loads(line)
        if trial["status"] == "unrecognized":
            assert trial["action"] is None


def test_run_csv_format(runner, kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.csv"
    result = runner.invoke(
        main, run_args(kb_file, scenario_file, out, extra=["--format", "csv"]))
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,truth,n,node,status,agreement,chosen,tags,score"
    assert len(lines) == 31


def test_seed_env_fallback(runner, kb_file, scenario_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["run", "--kb", str(kb_file), "--scenario", str(scenario_file),
            "--trials", "10", "--epsilon", "0.3", "--fixed-n", "2"]
    monkeypatch.setenv("APRIOR_SEED", "42")
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    monkeypatch.delenv("APRIOR_SEED")
    r2 = runner.invoke(main, args + ["--out", str(out2), "--seed", "42"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert json.loads(out1.read_text().splitlines()[0])["seed"] == 42
    assert out1.read_bytes() == out2.read_bytes()


def sweep_args(kb_file, out=None, **kw):
    args = ["sweep", "--kb", str(kb_file), "--node", "11", "--epsilon",
            str(kw.get("epsilon", 0.3)), "--value", "1.0", "--cost",
            str(kw.get("cost", 0.02)), "--n-max", str(kw.get("n_max", 15)),
            "--mode", kw.get("mode", "auto"), "--seed", "5"]
    if out is not None:
        args += ["--out", str(out)]
    return args


def test_sweep_reference_rows(runner, kb_file):
    result = runner.invoke(main, sweep_args(kb_file))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "n,perr,phi,is_argmax"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
    assert float(rows[1][1]) == pytest.approx(0.51, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(0.47, abs=1e-12)
    brute = 1 - brute_feature_accuracy(3, 0.3, 3, 0) ** 2
    assert float(rows[3][1]) == pytest.approx(brute, abs=1e-9)
    assert float(rows[3][2]) == pytest.approx(1 - brute - 0.06, abs=1e-9)
    argmax_rows = [n for n, row in rows.items() if row[3] == "1"]
    assert argmax_rows == [2]


def test_sweep_noiseless_argmax_is_one(runner, kb_file):
    result = runner.invoke(main, sweep_args(kb_file, epsilon=0.0, n_max=9))
    assert result.exit_code == 0
    first = result.output.splitlines()[1].split(",")
    assert first[0] == "1" and first[3] == "1"


def test_sweep_rejects_internal_node(runner, kb_file):
    args = sweep_args(kb_file)
    args[args.index("--node") + 1] = "1"
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "NotLeaf" in result.output


def test_sweep_deterministic_with_mc_rows(runner, kb_file, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert runner.invoke(main, sweep_args(kb_file, out=out1)).exit_code == 0
    assert runner.invoke(main, sweep_args(kb_file, out=out2)).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_audit_honest_log(runner, kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert runner.invoke(main, run_args(kb_file, scenario_file, out)).exit_code == 0
    result = runner.invoke(main, ["audit", str(out), "--kb", str(kb_file)])
    assert result.exit_code == 0
    assert result.output.startswith("PASS")
    report = json.loads((tmp_path / "log.jsonl.audit.json").read_text())
    assert report["passed"] is True


def test_audit_tampered_log(runner, kb_file, scenario_file, tmp_path):
    out = tmp_path / "log.jsonl"
    assert runner.invoke(main, run_args(kb_file, scenario_file, out)).exit_code == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    header["digest_after"] ^= 1
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(
        "\n".join([json.dumps(header, sort_keys=True, separators=(",", ":"))] + lines[1:])
        + "\n")
    result = runner.invoke(main, ["audit", str(tampered), "--kb", str(kb_file)])
    assert result.exit_code == 1
    assert result.output.startswith("FAIL closure")


def test_audit_truncated_file(runner, kb_file, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seed": 1, "trunc')
    result = runner.invoke(main, ["audit", str(bad), "--kb", str(kb_file)])
    assert result.exit_code == 2


def assert_clean_exit(result, code):
    """The exit code is the contract's, from sys.exit or a usage error, not a crash."""
    assert result.exit_code == code
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("gap", ["non-object entry", "boolean k", "non-finite utility"])
def test_validate_rejects_schema_gaps_without_traceback(runner, tmp_path, gap):
    doc = three_node_doc()
    if gap == "non-object entry":
        doc["objects"].append(7)
    elif gap == "boolean k":
        doc["programs"][0]["k"] = True
    else:
        doc["programs"][0]["utility"] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = runner.invoke(main, ["validate", str(path)])
    assert_clean_exit(result, 1)
    assert "SchemaError" in result.output


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "1.5"), ("--epsilon", "-0.1"), ("--fixed-n", "0"), ("--trials", "0"),
    ("--n-max", "0"), ("--value", "-1"), ("--cost", "-0.5"),
])
def test_run_rejects_out_of_range_option(runner, kb_file, scenario_file, tmp_path,
                                         option, value):
    args = run_args(kb_file, scenario_file, tmp_path / "log.jsonl")
    if option in args:
        args[args.index(option) + 1] = value
    else:
        args += [option, value]
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    assert f"Invalid value for '{option}'" in result.output
    assert not (tmp_path / "log.jsonl").exists()


@pytest.mark.parametrize("option,value", [
    ("--epsilon", "1.01"), ("--n-max", "0"), ("--value", "-1"), ("--cost", "-0.02"),
])
def test_sweep_rejects_out_of_range_option(runner, kb_file, option, value):
    args = sweep_args(kb_file)
    args[args.index(option) + 1] = value
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    assert f"Invalid value for '{option}'" in result.output
