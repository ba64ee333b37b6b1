"""Golden outputs: the sha256 of a reference episode log, its CSV, two sweep CSVs
and two audit reports.

The log and exact sweep hashes were taken from the CLI before any trial-loop
optimization, the CSV hash and summary line before the CSV was derived
from the log lines, the Monte Carlo sweep hash before that estimator
drew through perception.channel, and the audit report hashes before the
report built its checks with dataclasses.asdict, which CheckResult._asdict
has since replaced, so a change that alters a single byte of any of them
turns these red.
Regenerate them only for a deliberate output change, and say so in
CHANGES.md.
"""
import hashlib
import json

import pytest

from aprior.audit import audit_log, parse_log
from aprior.kb import build_kb
from conftest import invoke, mixed_scenario_doc, three_node_doc

# seed 42, 10k trials, mixed scenario, eps=0.3, c=0.02, auto n (n*=2)
RUN_ARGS = ["run", "--kb", "kb.json", "--scenario", "scenario.json", "--seed", "42",
            "--trials", "10000", "--epsilon", "0.3", "--cost", "0.02"]
RUN_SHA256 = "3d36475e6029dffd4f303b5c154197ff79fcd7faa4af69d386ca527d551fab21"
RUN_CSV_SHA256 = "0e7841c66d22c0f16d7288416543183a3b133e80153ab21aa2c881579501d826"
RUN_SUMMARY = "trials=10000 recognized=88.8% actions=6773 mean_score=0.162600\n"

SWEEP_ARGS = ["sweep", "--kb", "kb.json", "--node", "11", "--epsilon", "0.3",
              "--cost", "0.02", "--n-max", "15", "--mode", "exact"]
SWEEP_SHA256 = "8a027c93b71ef298c723cf28c360eb759da4846db2fbe934b1699778db718748"

# leaf 12 has true symbols 0 and 1, so both replacement branches draw
MC_SWEEP_ARGS = ["sweep", "--kb", "kb.json", "--node", "12", "--epsilon", "0.3",
                 "--cost", "0.02", "--n-max", "3", "--mode", "mc", "--seed", "5"]
MC_SWEEP_SHA256 = "e4ece4442474f8248120c0108ec5031031c976a4efa3d85c2807a813872a1005"

# seed 42, 1000 trials in the C1 configuration (eps=0.3, c=0.02, n=3); the audit
# report of its log, and of that log with digest_after changed, which fails closure
C1_ARGS = ["run", "--kb", "kb.json", "--scenario", "scenario.json", "--seed", "42",
           "--trials", "1000", "--epsilon", "0.3", "--cost", "0.02", "--fixed-n", "3"]
AUDIT_SHA256 = {
    "passing": "2fcd0f7f1e2e60bb1bea80e8dac39065ec504c09a48cde0e196bbd0fa1320c9e",
    "digest_after": "cba758b66ee5e30fd37339e4b4b773386e4e5c65a9dfe87526c672ace6e07616",
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    # the log header records the KB and scenario paths, so they are relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kb.json").write_text(json.dumps(three_node_doc()), encoding="utf-8")
    (tmp_path / "scenario.json").write_text(json.dumps(mixed_scenario_doc()), encoding="utf-8")
    return tmp_path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("extra,expected", [([], RUN_SHA256), (["--strict"], RUN_SHA256),
                                            (["--format", "csv"], RUN_CSV_SHA256)],
                         ids=["False", "True", "csv"])
def test_reference_run_log(workdir, extra, expected):
    result = invoke(RUN_ARGS + ["--out", "log", *extra])
    assert result.code == 0, result.err
    assert result.out == RUN_SUMMARY
    assert sha256((workdir / "log").read_bytes()) == expected


def test_reference_exact_sweep_csv(workdir):
    result = invoke(SWEEP_ARGS)
    assert result.code == 0, result.err
    assert sha256(result.out.encode()) == SWEEP_SHA256


def test_reference_mc_sweep_csv(workdir):
    result = invoke(MC_SWEEP_ARGS)
    assert result.code == 0, result.err
    assert sha256(result.out.encode()) == MC_SWEEP_SHA256


@pytest.mark.parametrize("tamper", AUDIT_SHA256)
def test_reference_audit_report(workdir, tamper):
    result = invoke(C1_ARGS + ["--out", "log"])
    assert result.code == 0, result.err
    header, trials = parse_log((workdir / "log").read_text(encoding="utf-8"))
    if tamper == "digest_after":
        header = dict(header, digest_after=header["digest_after"] ^ 1)
    report = audit_log(header, trials, build_kb(three_node_doc()))
    assert report.passed == (tamper == "passing")
    assert sha256(report.to_json().encode("utf-8")) == AUDIT_SHA256[tamper]
