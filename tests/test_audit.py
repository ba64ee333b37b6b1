import copy
import json
import random

import pytest

from aprior.agent import AgentState, run_episode
from aprior.audit import (
    MalformedLog,
    assert_closure,
    assert_reflex,
    assert_statement1,
    audit_log,
    parse_log,
)
from aprior.decision import MeasurementEconomy
from aprior.kb import ROOT, build_kb
from aprior.perception import ChannelParams
from aprior.world import load_scenario
from conftest import mixed_scenario_doc, three_node_doc
from oracles import first_early_fire


MIX = {
    "name": "mix", "kind": "fixed",
    "entries": [
        {"vector": [0, 0], "truth": 11},
        {"vector": [2, 0], "truth": "omega"},
        {"vector": [1, 0], "truth": 2},
        {"vector": [0, 2], "truth": "omega"},
    ],
    "scoring": [],
}


def make_log(kb, seed=7, trials=40, epsilon=0.3, scenario=MIX):
    scenario = load_scenario(scenario, kb)
    state = AgentState(
        kb=kb,
        params=ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim),
        econ=MeasurementEconomy(value=1.0, cost=0.0, phi0=0.0, n_max=9),
        seed=seed, fixed_n=3,
    )
    episode = run_episode(state, scenario, trials)
    return parse_log(episode.to_jsonl())


def test_honest_episode_passes_everything(kb):
    header, trials = make_log(kb)
    report = audit_log(header, trials, kb)
    assert report.passed
    assert report.trials == 40
    assert report.unrecognized_trials > 0


def test_closure_fails_on_tampered_digest(kb):
    header, trials = make_log(kb)
    tampered = dict(header, digest_after=header["digest_after"] ^ 1)
    result = assert_closure(tampered)
    assert not result.passed
    assert "digest" in result.detail


def test_closure_fails_on_tampered_tasks(kb):
    header, trials = make_log(kb)
    tampered = dict(header, tasks_after=header["tasks_after"] + [[99, [[1, 1]]]])
    assert not assert_closure(tampered).passed


def test_statement1_fails_on_action_on_unrecognized(kb):
    header, trials = make_log(kb)
    tampered = copy.deepcopy(trials)
    victim = next(t for t in tampered if t["status"] == "unrecognized")
    victim["action"] = {"program": 1, "tags": ["pull"], "trigger": 11}
    result = assert_statement1(header, tampered, kb)
    assert not result.passed
    assert result.violating_trial == victim["t"]


def test_statement1_fails_on_nonlocal_trigger(kb):
    # a Q12 program firing on a trial recognized as Q11
    header, trials = make_log(kb)
    tampered = copy.deepcopy(trials)
    victim = next(t for t in tampered if t["node"] == 11)
    victim["action"] = {"program": 2, "tags": ["orient", "approach"], "trigger": 12}
    result = assert_statement1(header, tampered, kb)
    assert (result.passed, result.violating_trial) == (False, victim["t"])
    assert result.detail == "trigger 12 != recognized node 11"


def test_statement1_fails_on_a_program_sealed_to_another_trigger(kb):
    # Q11's program logged as firing on Q12, its logged trigger and pick rewritten to agree
    header, trials = make_log(kb, epsilon=0.0, scenario=mixed_scenario_doc())
    tampered = [copy.deepcopy(t) for t in trials]  # twin records share nested values
    after = next(t["t"] for t in trials if t["node"] == 11)  # so program 1's reflex gate is open
    victim = next(t for t in tampered[after:] if t["node"] == 12 and t["action"] is not None)
    victim.update(action={"program": 1, "tags": ["pull"], "trigger": 12}, chosen=1,
                  candidates=[[1, victim["phi_chosen"]]], eligible=[1])
    assert _others_untouched(trials, tampered, victim)
    result = assert_statement1(header, tampered, kb)
    assert (result.passed, result.violating_trial) == (False, victim["t"])
    assert result.detail == "program 1's sealed trigger 11 != recognized node 12"
    report = audit_log(header, tampered, kb)
    assert [c.name for c in report.checks if not c.passed] == ["statement1"]


RECOGNITION_EDITS = {
    # an unrecognized trial passed off as a full recognition of Q11
    "node 11, depth 2, status full != denoised [2, 0]'s node -1, depth 0, status unrecognized": (
        [2, 0], lambda r: r.update(node=11, depth=2, status="full")),
    "node 11, depth 3, status full != denoised [0, 0]'s node 11, depth 2, status full": (
        [0, 0], lambda r: r.update(depth=3)),
    "node 11, depth 2, status full != denoised [1, 0]'s node 2, depth 1, status full": (
        [0, 0], lambda r: r.update(denoised=[1, 0])),
    "denoised [3, 0]: vector (3, 0) has symbols that are not ints in [0, 3)": (
        [2, 0], lambda r: r.update(denoised=[3, 0])),
    "denoised [0, 0, 0]: vector length 3 != 2": ([0, 0], lambda r: r.update(denoised=[0, 0, 0])),
    # 0.0 and False equal 0 as keys: the table lookup alone would find (0, 0)'s outcome, Q11
    "denoised [0.0, False]: vector (0.0, False) has symbols that are not ints in [0, 3)": (
        [0, 0], lambda r: r.update(denoised=[0.0, False])),
}


@pytest.mark.parametrize("detail", RECOGNITION_EDITS)
def test_statement1_rederives_each_trials_recognition(kb, detail):
    denoised, edit = RECOGNITION_EDITS[detail]
    header, trials = make_log(kb, epsilon=0.0)
    tampered = copy.deepcopy(trials)
    victim = next(t for t in tampered if t["denoised"] == denoised)
    edit(victim)
    result = assert_statement1(header, tampered, kb)
    assert (result.passed, result.violating_trial, result.detail) == (False, victim["t"], detail)
    assert not audit_log(header, tampered, kb).passed


def _others_untouched(trials, tampered, victim) -> bool:
    return all(new == old for new, old in zip(tampered, trials) if new is not victim)


ACTION_EDITS = {
    # a pull added to an unrecognized trial, whose record is otherwise untouched
    "action on unrecognized trial": (lambda r: r["status"] == "unrecognized", lambda r: r.update(
        action={"program": 1, "tags": ["pull"], "trigger": 11})),
    "program 999 outside sealed KB": (
        lambda r: r["chosen"] == 1, lambda r: r["action"].update(program=999)),
    "action tags differ from program 1's operation tags": (
        lambda r: r["chosen"] == 1, lambda r: r["action"].update(tags=["orient"])),
}


@pytest.mark.parametrize("detail", ACTION_EDITS)
def test_statement1_names_each_action_fault(kb, detail):
    is_victim, edit = ACTION_EDITS[detail]
    header, trials = make_log(kb)
    tampered = [copy.deepcopy(t) for t in trials]  # twin records share nested values
    victim = next(t for t in tampered if is_victim(t))
    edit(victim)
    assert _others_untouched(trials, tampered, victim)
    result = assert_statement1(header, tampered, kb)
    assert (result.passed, result.violating_trial, result.detail) == (False, victim["t"], detail)
    assert not audit_log(header, tampered, kb).passed


def test_statement1_fails_on_foreign_program(kb):
    header, trials = make_log(kb)
    tampered = [copy.deepcopy(t) for t in trials]  # twin records share nested values
    victim = next(t for t in tampered if t["action"] is not None)
    victim["action"]["program"] = 999
    assert _others_untouched(trials, tampered, victim)
    assert not assert_statement1(header, tampered, kb).passed


def _add_candidate(trial):
    # a second pick with the chosen phi, so only chosen != action.program breaks
    trial["candidates"].append([99, trial["phi_chosen"]])
    trial["eligible"].append(99)
    trial["chosen"] = 99


PICK_EDITS = {
    "action with no chosen program": (True, lambda r: r.update(chosen=None, phi_chosen=None)),
    "chosen 1 with no action": (True, lambda r: r.update(action=None)),
    "chosen 99 != action program 1": (True, _add_candidate),
    "chosen 1 not in eligible []": (True, lambda r: r.update(eligible=[], phi_chosen=-5)),
    "eligible [1, 999] not within the candidate ids": (True, lambda r: r["eligible"].append(999)),
    "phi_chosen -5 != candidate 1's phi": (True, lambda r: r.update(phi_chosen=-5)),
    "phi_chosen 0.5 with no chosen program": (False, lambda r: r.update(phi_chosen=0.5)),
}


@pytest.mark.parametrize("detail", PICK_EDITS)
def test_statement1_fails_when_the_pick_disagrees_with_its_record(kb, detail):
    acting, edit = PICK_EDITS[detail]
    header, trials = make_log(kb)
    assert assert_statement1(header, trials, kb).passed
    tampered = [copy.deepcopy(t) for t in trials]  # twin records share nested values
    victim = next(t for t in tampered
                  if (t["action"] is not None) == acting and t["node"] in (11, ROOT))
    edit(victim)
    assert _others_untouched(trials, tampered, victim)
    result = assert_statement1(header, tampered, kb)
    assert (result.passed, result.violating_trial) == (False, victim["t"])
    assert result.detail.startswith(detail)
    assert not audit_log(header, tampered, kb).passed


def test_reflex_pass_and_thresholds(kb):
    header, trials = make_log(kb, epsilon=0.0)
    # k=3 program on Q2 and k=1 program on Q11 both behave in a clean run
    assert assert_reflex(trials, [kb.programs[3]])[0].passed
    assert assert_reflex(trials, [kb.programs[1]])[0].passed


def test_reflex_fails_on_early_fire(kb):
    header, trials = make_log(kb, epsilon=0.0)
    tampered = copy.deepcopy(trials)
    first_q2 = next(t for t in tampered if t["node"] == 2)
    first_q2["action"] = {"program": 3, "tags": ["approach"], "trigger": 2}
    result, = assert_reflex(tampered, [kb.programs[3]])
    assert not result.passed
    assert result.violating_trial == first_q2["t"]


def test_audit_reflex_results_equal_assert_reflex_per_program():
    doc = three_node_doc()
    doc["programs"] += [
        {"id": 0, "trigger": 12, "operations": [3], "k": 4, "utility": 0.2},
        {"id": 5, "trigger": 11, "operations": [2], "k": 3, "utility": 0.9},
        {"id": 7, "trigger": 12, "operations": [2], "k": 2, "utility": 0.1},
        {"id": 8, "trigger": 2, "operations": [3], "k": 1, "utility": 0.3},
    ]
    kb = build_kb(doc)
    nodes = [*kb.objects, ROOT, 999]
    program_ids = [*kb.programs, 999, None]
    outcomes = set()
    for seed in range(12):
        header, trials = make_log(kb, seed=seed, epsilon=0.2)
        rnd = random.Random(seed)
        for trial in trials:  # seed 0 stays honest
            if seed and rnd.random() < 0.3:
                trial["status"] = rnd.choice(["full", "partial", "unrecognized"])
                trial["node"] = rnd.choice(nodes)
            if seed and rnd.random() < 0.3:
                trial["action"] = rnd.choice([None, {
                    "program": rnd.choice(program_ids), "tags": [], "trigger": trial["node"],
                }])
        report = audit_log(header, trials, kb)
        reflex = [c for c in report.checks if c.name.startswith("reflex[")]
        assert reflex == [assert_reflex(trials, [p])[0] for p in kb.programs.values()]
        for check, p in zip(reflex, kb.programs.values()):
            early = first_early_fire(trials, p.id, p.trigger, p.reflex_threshold)
            assert check.passed == (early is None)
            if early is not None:
                assert check.violating_trial == early[0]
                assert check.detail.startswith(f"fired at recognition {early[1]} <")
        outcomes |= {c.passed for c in reflex}
    assert outcomes == {True, False}


def test_malformed_logs(kb):
    with pytest.raises(MalformedLog):
        parse_log("")
    with pytest.raises(MalformedLog):
        parse_log("{not json\n")
    with pytest.raises(MalformedLog):
        parse_log(json.dumps({"seed": 1}) + "\n")  # header missing keys
    with pytest.raises(MalformedLog):
        # header only, no trials
        parse_log(json.dumps({
            "seed": 1, "trials": 0, "digest_before": 1, "digest_after": 1,
            "tasks_before": [], "tasks_after": [],
        }) + "\n")
    header, trials = make_log(kb, trials=1)
    with pytest.raises(MalformedLog):
        parse_log("\n".join(json.dumps(r) for r in [header, dict(trials[0], action="x")]))
    # one trial: True and 1.0 equal 1, so only their types tell them from a count
    for edit in [
        {"trials": True}, {"trials": 1.0}, {"seed": "x"}, {"seed": None}, {"seed": False},
        {"digest_before": str(header["digest_before"]),
         "digest_after": str(header["digest_after"])},
        {"digest_after": float(header["digest_after"])}, {"tasks_before": {}},
        {"tasks_before": None, "tasks_after": None},
    ]:
        with pytest.raises(MalformedLog):
            parse_log("\n".join(json.dumps(r) for r in [dict(header, **edit), trials[0]]))

    header, trials = make_log(kb)
    i = next(i for i, t in enumerate(trials) if t["action"] is not None)
    action = trials[i]["action"]

    def text(records):
        return "\n".join(json.dumps(r) for r in [header, *records])

    assert parse_log(text(trials)) == (header, trials)
    with pytest.raises(MalformedLog):
        parse_log(text(trials[:10]))  # the header still names 40 trials
    with pytest.raises(MalformedLog):
        parse_log("[" * 100_000)
    for edit in [
        {"t": 99}, {"t": str(i)}, {"node": [11]}, {"node": "11"}, {"node": True},
        {"status": ["full"]}, {"status": "fine"}, {"action": dict(action, program=[1])},
        {"action": dict(action, program=None)}, {"action": dict(action, trigger=True)},
        {"action": dict(action, tags=5)}, {"action": dict(action, tags=[[1]])},
        {"action": {"program": 1, "trigger": 11}}, {"denoised": "20"}, {"denoised": None},
        {"denoised": [2, "0"]}, {"denoised": [True, 0]}, {"denoised": [2.0, 0]},
        {"depth": "2"}, {"depth": True}, {"depth": None},
        {"n": "x"}, {"n": True}, {"n": 0}, {"n": 3.0}, {"agreement": "x"}, {"agreement": 7},
        {"agreement": -0.5}, {"agreement": True}, {"agreement": None},
    ]:
        doctored = [*trials[:i], dict(trials[i], **edit), *trials[i + 1:]]
        with pytest.raises(MalformedLog):
            parse_log(text(doctored))
    unagreed = {key: value for key, value in trials[i].items() if key != "agreement"}
    with pytest.raises(MalformedLog):
        parse_log(text([*trials[:i], unagreed, *trials[i + 1:]]))


def test_report_json_shape(kb):
    header, trials = make_log(kb)
    report = audit_log(header, trials, kb)
    doc = json.loads(report.to_json())
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {"closure", "statement1"}
    assert doc["totals"]["trials"] == 40
