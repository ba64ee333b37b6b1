"""Negative controls: each output gate of the benchmark can fail.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""
import dataclasses
import functools
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import deepkb
import gates
import run
import tracing
import workloads
from aprior.audit import MalformedLog, audit_log, parse_log
from aprior.kb import build_kb
from aprior.perception import FULL, PARTIAL, UNRECOGNIZED, identify
from aprior.world import OMEGA, load_scenario
from tracing import Summary, Tracer, self_times

REPO_TESTS = Path(run.ROOT) / "tests"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def c1():
    wl = workloads.C1Mixed(0)
    return wl, wl.unit(0)


@pytest.fixture(scope="module")
def sweep():
    return workloads.SweepN15(0)


def _check(wl, text, digest=None, **kw):
    """Parse, audit and check one log; a log that cannot be parsed fails."""
    try:
        header, records = parse_log(text)
    except MalformedLog as exc:
        return [f"unparseable log: {exc}"]
    report = audit_log(header, records, wl.kb)
    return gates.episode_failures(header, records, report, text, trials=wl.trials,
                                  digest=wl.digest if digest is None else digest, **kw)


def test_untampered_episode_passes(c1):
    wl, unit = c1
    assert unit.failures == []
    assert _check(wl, unit.texts[0], strict_text=unit.texts[0]) == []


def test_tampered_record_fails(c1):
    wl, unit = c1
    lines = unit.texts[0].splitlines()
    idx = next(i for i, line in enumerate(lines[1:], 1) if json.loads(line)["action"])
    record = json.loads(lines[idx])
    record["status"] = UNRECOGNIZED  # an action on an unrecognized trial
    lines[idx] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    tally = gates.Tally()
    tally.record("episode", _check(wl, "\n".join(lines) + "\n"))
    assert tally.failed_frac > 0


def test_truncated_or_reindexed_log_fails(c1):
    wl, unit = c1
    lines = unit.texts[0].splitlines()
    assert _check(wl, "\n".join(lines[:-1]) + "\n")
    lines[1], lines[2] = lines[2], lines[1]
    assert _check(wl, "\n".join(lines) + "\n")


def test_wrong_digest_fails(c1):
    wl, unit = c1
    assert _check(wl, unit.texts[0], digest=wl.digest ^ 1)


def test_flipped_strict_byte_fails(c1):
    wl, unit = c1
    text = unit.texts[0]
    pos = text.index('"agreement":') + len('"agreement":')
    flipped = text[:pos] + ("1" if text[pos] != "1" else "0") + text[pos + 1:]
    tally = gates.Tally()
    tally.record("episode", _check(wl, text, strict_text=flipped))
    assert tally.failed_frac > 0


def test_wrong_hash_fails():
    actual = gates.sha256_texts(["abc"])
    assert gates.hash_failures(actual, actual) == []
    assert gates.hash_failures(None, actual)  # no golden entry is a failure, not a pass
    tally = gates.Tally()
    tally.record("golden", gates.hash_failures("0" * 64, actual))
    assert tally.failed_frac == 1.0


def test_committed_golden_hashes_match():
    for cls in workloads.WORKLOADS.values():
        tally = gates.Tally()
        run.golden_check(cls, tally)
        assert (tally.attempted, tally.failed) == (1, 0), tally.messages


def test_golden_mismatch_fails_for_every_seed(monkeypatch):
    # the golden check runs the reference seed's output, so the run's own
    # seed cannot switch it off
    monkeypatch.setattr(gates, "load_golden", lambda: {"sweep_n15": "0" * 64})
    tally = gates.Tally()
    run.golden_check(workloads.SweepN15, tally)
    assert tally.failed_frac == 1.0
    tally = gates.Tally()
    run.golden_check(workloads.C1Mixed, tally)  # no entry for this workload
    assert tally.failed_frac == 1.0


def test_reference_inputs_match_the_tests():
    repo_conftest = _load("aprior_tests_conftest", REPO_TESTS / "conftest.py")
    assert workloads.REFERENCE_KB == repo_conftest.three_node_doc()
    with mock.patch.dict(sys.modules, {"conftest": repo_conftest}):
        acceptance = _load("aprior_tests_acceptance", REPO_TESTS / "test_acceptance.py")
    kb = build_kb(repo_conftest.three_node_doc())
    assert load_scenario(workloads.MIXED_SCENARIO, kb) == acceptance.mixed_scenario(kb)


def test_exact_sweep_matches_brute_force(sweep):
    assert sweep.preflight == [("exact sweep vs brute-force enumeration", [])]


def test_perturbed_sweep_row_fails(sweep):
    rows = list(sweep.exact_rows)
    assert gates.auto_sweep_failures(rows, sweep.exact_rows, sweep.feature_acc,
                                     sweep.samples, 1.0, 0.02) == []
    bad = list(rows)
    bad[13] = dataclasses.replace(rows[13], perr=rows[13].perr + 0.01,
                                  phi=rows[13].phi - 0.01)
    assert gates.auto_sweep_failures(bad, sweep.exact_rows, sweep.feature_acc,
                                     sweep.samples, 1.0, 0.02)
    tiny = list(rows)
    tiny[4] = dataclasses.replace(rows[4], perr=rows[4].perr + 1e-9, phi=rows[4].phi - 1e-9)
    assert gates.exact_sweep_failures(tiny, [0, 0], 0.3, 3, 1.0, 0.02)
    moved = [dataclasses.replace(r, is_argmax=r.n == 3) for r in rows]
    tally = gates.Tally()
    tally.record("sweep", gates.auto_sweep_failures(moved, sweep.exact_rows, sweep.feature_acc,
                                                    sweep.samples, 1.0, 0.02))
    assert tally.failed_frac > 0


def test_self_time_arithmetic():
    spans = [
        ("agent.step", 0, 100, -1),
        ("perception.measure", 10, 30, 0),
        ("perception.identify", 12, 20, 1),
        ("decision.phi_program", 25, 50, 0),  # overlaps the previous child
        ("rng.next_u64", 90, 120, 0),  # runs past its parent's end
    ]
    # root: 100 minus the union [10, 50] + [90, 100]
    assert self_times(spans) == [50, 12, 8, 25, 30]
    summary = Summary(spans)
    assert summary.layer_self_ns == {"agent": 50, "perception": 20, "decision": 25, "rng": 30}
    assert summary.layer_self_under("perception.measure", "perception") == 20
    assert summary.calls["perception.identify"] == 1


def test_tracer_counts_and_restores(c1):
    import aprior.agent
    import aprior.perception

    wl, _ = c1
    original = aprior.perception.identify
    tracer = Tracer()
    tracer.install(("perception",))
    try:
        assert aprior.perception.identify is not original
        assert aprior.perception.measure is aprior.agent.measure
        state = wl._state(0)
        aprior.agent.step(state, (0, 0))
    finally:
        tracer.remove()
    assert aprior.perception.identify is original
    summary = Summary(tracer.spans())
    assert summary.calls["perception.identify"] == wl.fixed_n + 1
    assert summary.calls["perception.measure"] == 1


def test_tracer_fails_on_a_missing_target(monkeypatch):
    import aprior.perception

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("perception", "aprior.perception", "no_such_function"),))
    original = aprior.perception.identify
    tracer = Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install(("perception",))
    assert aprior.perception.identify is original  # nothing was wrapped


def test_tracer_marks_cache_misses():
    @functools.lru_cache(maxsize=None)
    def square(x):
        return x * x

    tracer = Tracer()
    traced = tracer.wrap("decision.square", square)
    assert [traced(2), traced(2), traced(3)] == [4, 4, 9]
    assert tracer.missed == {0, 2}
    traced.cache_clear()
    assert square.cache_info().currsize == 0


def test_deep_kb_generator():
    assert deepkb.generate(3) == deepkb.generate(3)
    assert deepkb.generate(3) != deepkb.generate(4)
    for seed in range(4):
        kb_doc, scenario_doc = deepkb.generate(seed)
        kb = build_kb(kb_doc)
        scenario = load_scenario(scenario_doc, kb)
        assert {p.reflex_threshold for p in kb.programs.values()} == set(range(1, 6))
        statuses = set()
        for stim in scenario.entries:
            outcome = identify(kb, stim.vector)
            statuses.add(outcome.status)
            assert (stim.truth == OMEGA) == (outcome.status == UNRECOGNIZED)
            if stim.truth != OMEGA:
                assert outcome.node == stim.truth
        assert statuses == {FULL, PARTIAL, UNRECOGNIZED}


def test_run_exits_nonzero_without_library(tmp_path):
    shutil.copytree(Path(workloads.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "c1_mixed",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
