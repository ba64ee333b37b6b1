"""Golden outputs: the sha256 of a reference episode log, its CSV and two sweep CSVs.

The log and exact sweep hashes were taken from the CLI before any trial-loop
optimization, the CSV hash and summary line before the CSV was derived
from the log lines, and the Monte Carlo sweep hash before that estimator
drew through perception.channel, so a change that alters a single byte of
any of them turns these red.
Regenerate them only for a deliberate output change, and say so in
CHANGES.md.
"""
import hashlib
import json

import pytest
from click.testing import CliRunner

from aprior.cli import main
from conftest import mixed_scenario_doc, three_node_doc

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
    result = CliRunner().invoke(main, RUN_ARGS + ["--out", "log", *extra])
    assert result.exit_code == 0, result.output
    assert result.stdout == RUN_SUMMARY
    assert sha256((workdir / "log").read_bytes()) == expected


def test_reference_exact_sweep_csv(workdir):
    result = CliRunner().invoke(main, SWEEP_ARGS)
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout_bytes) == SWEEP_SHA256


def test_reference_mc_sweep_csv(workdir):
    result = CliRunner().invoke(main, MC_SWEEP_ARGS)
    assert result.exit_code == 0, result.output
    assert sha256(result.stdout_bytes) == MC_SWEEP_SHA256
