import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

import aprior.agent
import aprior.kb as kb_mod
import aprior.perception
from aprior.agent import (
    AgentState,
    IneligibleProgram,
    do_action,
    eligible_programs,
    planned_n,
    record,
    run_episode,
    step,
)
from aprior.audit import audit_log, parse_log
from aprior.decision import MeasurementEconomy
from aprior.kb import ROOT, build_kb, enumerate_tasks, kb_digest
from aprior.perception import (
    FULL,
    PARTIAL,
    UNRECOGNIZED,
    ChannelParams,
    RecognitionOutcome,
)
from aprior.rng import substream
from aprior.world import FIXED, Scenario, Stimulus, load_scenario
from conftest import TAMPER_TRIAL, episode_with_words, mixed_scenario_doc, three_node_doc
from episode_oracle import reference_episode
from oracles import fnv1a_oracle, reflex_fire_trials


def make_state(kb, epsilon=0.0, fixed_n=1, seed=0, phi0=0.0, cost=0.0, n_max=9):
    return AgentState(
        kb=kb,
        params=ChannelParams(epsilon=epsilon, alphabet=kb.alphabet, dim=kb.dim),
        econ=MeasurementEconomy(value=1.0, cost=cost, phi0=phi0, n_max=n_max),
        seed=seed,
        fixed_n=fixed_n,
    )


DEEPKB_PY = Path(__file__).resolve().parent.parent / "perfbench" / "deepkb.py"

OMEGA_OUT = RecognitionOutcome(ROOT, 0, UNRECOGNIZED)
Q11_OUT = RecognitionOutcome(11, 2, FULL)
Q1_OUT = RecognitionOutcome(1, 1, PARTIAL)


def test_record_and_recurrence(kb):
    state = make_state(kb)
    outcomes = [OMEGA_OUT, Q11_OUT, Q1_OUT, Q11_OUT, OMEGA_OUT]
    assert [record(state, out) for out in outcomes] == [0, 1, 2, 3, 4]
    assert state.trials == 5
    # unrecognized trials are counted as trials, never as recurrences
    assert state.recurrence == {11: 2, 1: 1}


def test_eligible_programs_locality(kb):
    state = make_state(kb)
    assert eligible_programs(state, OMEGA_OUT) == []
    # program 1 triggers on Q11 only; a partial stop at Q1 offers nothing
    record(state, Q1_OUT)
    assert eligible_programs(state, Q1_OUT) == []
    record(state, Q11_OUT)
    assert [p.id for p in eligible_programs(state, Q11_OUT)] == [1]


def test_reflex_gate_counts_current_trial(kb):
    # program 3 on Q2 has threshold k=3
    state = make_state(kb)
    out_q2 = RecognitionOutcome(2, 1, FULL)
    fires = []
    for t in range(5):
        assert record(state, out_q2) == t
        fires.append(bool(eligible_programs(state, out_q2)))
    expected = reflex_fire_trials([True] * 5, k=3)
    assert [t for t, fired in enumerate(fires) if fired] == expected == [2, 3, 4]


def test_do_action_order_and_eligibility(kb):
    state = make_state(kb)
    out_q12 = RecognitionOutcome(12, 2, FULL)
    record(state, out_q12)
    program = do_action(state, kb.programs[2], out_q12)
    assert program is kb.programs[2]
    assert kb.tags[program.id] == ("orient", "approach")
    assert program.trigger == 12
    with pytest.raises(IneligibleProgram):
        do_action(state, kb.programs[1], out_q12)


def test_do_action_rejects_what_eligible_programs_leaves_out(kb):
    # program 3 fires on Q2 from its third recognition (k=3)
    state = make_state(kb)
    out_q2 = RecognitionOutcome(2, 1, FULL)
    for t in range(3):
        record(state, out_q2)
        if t < 2:
            with pytest.raises(IneligibleProgram):
                do_action(state, kb.programs[3], out_q2)
    assert kb.tags[do_action(state, kb.programs[3], out_q2).id] == ("approach",)
    with pytest.raises(IneligibleProgram):
        do_action(state, kb.programs[3], RecognitionOutcome(2, 1, UNRECOGNIZED))
    foreign = kb.programs[3]._replace(id=99)
    with pytest.raises(IneligibleProgram):
        do_action(state, foreign, out_q2)


def test_do_action_rejects_a_copy_with_other_operations(kb):
    # acting out the copy would give ("orient",), not the sealed ("orient", "approach")
    state = make_state(kb)
    out_q12 = RecognitionOutcome(12, 2, FULL)
    record(state, out_q12)
    copy = kb.programs[2]._replace(operations=(2,))
    with pytest.raises(IneligibleProgram):
        do_action(state, copy, out_q12)
    assert do_action(state, kb.programs[2]._replace(), out_q12) is kb.programs[2]


def test_step_unrecognized_leaves_kb_untouched(kb):
    state = make_state(kb)
    digest = kb_digest(kb)
    log = step(state, (2, 0))
    assert log["status"] == UNRECOGNIZED
    assert log["action"] is None
    assert log["chosen"] is None
    assert kb_digest(kb) == digest


def test_step_single_candidate_fires_every_trial(kb):
    state = make_state(kb)
    for t in range(5):
        log = step(state, (0, 0))
        assert log["node"] == 11
        assert log["action"]["program"] == 1
        assert log["action"]["tags"] == ["pull"]
        assert log["t"] == t


def test_step_reflex_schedule(kb):
    # k=3 program on Q2; noiseless stimulus (1, x) recognizes Q2 each trial
    state = make_state(kb)
    fired = [step(state, (1, 0))["action"] is not None for _ in range(5)]
    assert [t for t, f in enumerate(fired) if f] == [2, 3, 4]


def test_step_phi0_blocks_low_quality(kb):
    # program 1 has U=1.0; phi = 1.0*1 - 0 = 1.0, blocked by phi0 = 1.5
    state = make_state(kb, phi0=1.5)
    log = step(state, (0, 0))
    assert log["candidates"] == [[1, 1.0]]
    assert log["eligible"] == []
    assert log["action"] is None


def test_planned_n_uses_reference_leaf(kb):
    state = make_state(kb, epsilon=0.3, fixed_n=None, cost=0.02, n_max=15)
    # smallest-id fully constrained leaf is Q11; golden argmax is 2
    assert planned_n(state) == 2
    fixed = make_state(kb, epsilon=0.3, fixed_n=7)
    assert planned_n(fixed) == 7


def scenario_fixed(kb, vectors_truths):
    return load_scenario(
        {
            "name": "s",
            "kind": "fixed",
            "entries": [{"vector": list(v), "truth": t} for v, t in vectors_truths],
            "scoring": [{"action": "pull", "truth": 11, "value": 1.0}],
        },
        kb,
    )


def test_run_episode_single_trial(kb):
    state = make_state(kb)
    scenario = scenario_fixed(kb, [((0, 0), 11)])
    log = run_episode(state, scenario, 1)
    assert len(log.lines) == 1
    assert log.header["digest_before"] == log.header["digest_after"]
    assert json.loads(log.lines[0])["score"] == 1.0


@pytest.mark.parametrize("vector,message", [((5, 0), "not ints in [0, 3)"),
                                            ((0,), "vector length 1 != 2")])
def test_the_kernel_checks_each_vector_before_it_enters_the_table(kb, vector, message):
    # run_episode trusts its scenario, so a hand-built one reaches the kernel unchecked
    scenario = Scenario(FIXED, (Stimulus(vector, 11),), 1, {}, 0, ())
    with pytest.raises(ValueError, match=re.escape(message)):
        run_episode(make_state(kb), scenario, 1)
    assert kb._recognition == {}


def test_run_episode_deterministic(kb):
    scenario = scenario_fixed(kb, [((0, 0), 11), ((2, 0), "omega")])
    a = run_episode(make_state(kb, epsilon=0.3, fixed_n=3, seed=42), scenario, 50)
    b = run_episode(make_state(kb, epsilon=0.3, fixed_n=3, seed=42), scenario, 50)
    assert a.to_jsonl() == b.to_jsonl()
    c = run_episode(make_state(kb, epsilon=0.3, fixed_n=3, seed=43), scenario, 50)
    assert a.to_jsonl() != c.to_jsonl()


def test_run_episode_closure_and_tasks(kb):
    scenario = scenario_fixed(kb, [((0, 0), 11), ((2, 0), "omega"), ((0, 2), 1)])
    state = make_state(kb, epsilon=0.3, fixed_n=3, seed=7)
    before_tasks = enumerate_tasks(kb)
    log = run_episode(state, scenario, 60, strict=True)
    assert log.header["digest_before"] == log.header["digest_after"]
    assert log.header["tasks_before"] == log.header["tasks_after"]
    assert enumerate_tasks(kb) == before_tasks
    for trial in map(json.loads, log.lines):
        if trial["status"] == "unrecognized":
            assert trial["action"] is None
        if trial["action"]:
            assert trial["action"]["trigger"] == trial["node"]


@pytest.mark.parametrize("fixed_n,utility", [(20, 1.0), (3, 1.7e308)])
def test_state_rejects_a_phi_that_overflows(fixed_n, utility):
    # the economy's bound, 1 + 1e307 * 9, is finite; n=20 or a utility of
    # 1.7e308 takes |utility| + cost * n past the largest float
    doc = three_node_doc()
    doc["programs"][0]["utility"] = utility
    message = f"max |U| + c * n = {utility} + 1e+307 * {fixed_n} overflows"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_state(build_kb(doc), fixed_n=fixed_n, cost=1e307)
    make_state(build_kb(doc), fixed_n=fixed_n, cost=1e306)


@pytest.mark.parametrize("fixed_n", [0, -1, 2.0, True])
def test_state_rejects_a_fixed_n_that_is_not_a_positive_int(kb, fixed_n):
    # 0 and -1 count no measurement; 2.0 and True equal ints but are not counts
    with pytest.raises(ValueError, match=re.escape(f"int >= 1, got {fixed_n!r}")):
        make_state(kb, fixed_n=fixed_n)


@pytest.mark.parametrize("alphabet,dim", [(5, 2), (3, 3)])
def test_state_rejects_channel_params_that_differ_from_its_kb(kb, alphabet, dim):
    # unchecked, alphabet 5 fails partway through an episode, after drawing
    # words, and dim 3 runs an episode while step rejects every stimulus
    params = ChannelParams(epsilon=0.5, alphabet=alphabet, dim=dim)
    message = f"channel alphabet {alphabet} and dim {dim} differ from the KB's 3 and 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        AgentState(kb=kb, params=params, econ=MeasurementEconomy(1.0, 0.0, 0.0, 9), seed=0)


def test_run_episode_rejects_zero_trials(kb):
    scenario = scenario_fixed(kb, [((0, 0), 11)])
    with pytest.raises(ValueError):
        run_episode(make_state(kb), scenario, 0)


def test_strict_run_names_the_trial_that_changed_the_kb(tampered_kb):
    scenario = scenario_fixed(tampered_kb, [((0, 0), 11), ((1, 0), 2)])
    with pytest.raises(AssertionError, match=rf"^trial {TAMPER_TRIAL}: knowledge base"):
        run_episode(make_state(tampered_kb), scenario, 20, strict=True)


def test_strict_run_stops_on_an_action_on_an_unrecognized_stimulus(kb):
    # an entry poisoned to fire program 1 where omega's (2, 0) folds at eps 0 and n 1:
    # one agreeing observation, gate state 0; a plain run of a state sharing that table
    # logs the action
    scenario = scenario_fixed(kb, [((2, 0), "omega")])
    state = make_state(kb)
    state.decisions[((2, 0), 1, 0)] = ([(1, "{")], None)
    with pytest.raises(AssertionError, match=r"^trial 0: action on unrecognized stimulus$"):
        run_episode(state, scenario, 1, strict=True)
    assert run_episode(make_state(kb), scenario, 1).actions == 1


def test_a_strict_failure_leaves_the_state_past_its_trial(tampered_kb):
    # counters and the selection stream stand where a trial-by-trial step leaves them
    scenario = scenario_fixed(tampered_kb, [((0, 0), 11), ((1, 0), 2)])
    state, twin = make_state(tampered_kb), make_state(build_kb(three_node_doc()))
    with pytest.raises(AssertionError):
        run_episode(state, scenario, 20, strict=True)
    for t in range(TAMPER_TRIAL + 1):
        step(twin, scenario.entries[t % 2].vector)
    assert twin.selection_rng.state != substream(0, "selection").state
    assert (state.trials, state.recurrence, state.selection_rng.state) == (
        twin.trials, twin.recurrence, twin.selection_rng.state)


def test_plain_log_of_a_changed_kb_fails_the_closure_audit(tampered_kb):
    scenario = scenario_fixed(tampered_kb, [((0, 0), 11), ((1, 0), 2)])
    log = run_episode(make_state(tampered_kb), scenario, 20)
    report = audit_log(*parse_log(log.to_jsonl()), tampered_kb)
    closure = next(c for c in report.checks if c.name == "closure")
    assert not closure.passed
    assert not report.passed


def test_episodes_on_one_kb_hash_its_canonical_bytes_once(monkeypatch):
    kb = build_kb(three_node_doc())
    passes = []
    original = kb_mod.fnv1a_64

    def counting(data):
        passes.append(data)
        return original(data)

    monkeypatch.setattr(kb_mod, "fnv1a_64", counting)
    kb_mod._canonical_digest.cache_clear()
    scenario = scenario_fixed(kb, [((0, 0), 11), ((1, 0), 2)])
    for seed in (0, 1):
        header = run_episode(make_state(kb, seed=seed), scenario, 5).header
        assert header["digest_before"] == header["digest_after"] == fnv1a_oracle(kb.canonical)
    assert passes == [kb.canonical]


def test_replaced_canonical_bytes_are_hashed_not_recalled(tampered_kb):
    original = tampered_kb.canonical
    assert kb_digest(tampered_kb) == fnv1a_oracle(original)  # now memoized
    scenario = scenario_fixed(tampered_kb, [((0, 0), 11), ((1, 0), 2)])
    header = run_episode(make_state(tampered_kb), scenario, 20).header
    assert tampered_kb.canonical != original
    assert header["digest_before"] == fnv1a_oracle(original)
    assert header["digest_after"] == fnv1a_oracle(tampered_kb.canonical)
    assert kb_digest(tampered_kb) == fnv1a_oracle(tampered_kb.canonical)


def test_state_keeps_counters_not_a_record_per_trial(kb):
    state = make_state(kb, epsilon=0.3, fixed_n=3, seed=11)
    run_episode(state, load_scenario(mixed_scenario_doc(), kb), 1000)
    assert state.trials == 1000
    assert set(state.recurrence) <= set(kb.objects)
    assert len(kb._recognition) <= kb.alphabet ** kb.dim
    # nothing else on the state grows with the trial count: the decision table holds at
    # most one entry per (vector, agreeing count, gate state)
    cap = max((p.reflex_threshold for p in kb.programs.values()), default=0)
    bounds = {"decisions": kb.alphabet ** kb.dim * (state.n + 1) * (cap + 1)}
    for name in AgentState.__slots__:
        value = getattr(state, name)
        if name != "kb" and isinstance(value, (list, dict, set, tuple)):
            bound = bounds.get(name, max(len(kb.objects), kb.alphabet ** kb.dim))
            assert len(value) <= bound, name


def c1_state(kb, seed):
    # the C1 corpus configuration: eps 0.3, fixed n 3, cost 0.02
    return make_state(kb, epsilon=0.3, fixed_n=3, seed=seed, cost=0.02)


def test_tables_are_shared_per_kb_and_bounded(monkeypatch):
    kb = build_kb(three_node_doc())
    scenario = load_scenario(mixed_scenario_doc(), kb)
    states = [c1_state(kb, seed) for seed in range(20)]
    for state in states:
        run_episode(state, scenario, 1000)
    assert all(state.decisions is states[0].decisions for state in states)
    assert 0 < len(kb._recognition) <= kb.alphabet ** kb.dim
    assert list(kb._decisions) == [(3, 0.0, 0.02, 1.0)]
    # a vector's entries: one per agreeing count in [0, n] and gate state in [0, cap]
    for vector, hits, gate in states[0].decisions:
        node = kb._recognition[vector].node
        cap = max((p.reflex_threshold for p in kb.programs_for(node)), default=0)
        assert 0 <= hits <= 3 and 0 <= gate <= cap

    seen = set(kb._recognition)
    identified = []
    original = aprior.perception.identify

    def counting(kb, v):
        identified.append(v)
        return original(kb, v)

    monkeypatch.setattr(aprior.perception, "identify", counting)
    run_episode(c1_state(kb, 20), scenario, 1000)
    assert not seen & set(identified)

    # one entry per distinct set of n = 3 observations; 21 episodes see all 3 ** (2 * 3)
    assert list(kb._observed) == [3]
    assert len(kb._observed[3]) == kb.alphabet ** (kb.dim * 3)
    assert all(len(key) == 3 * kb.dim for key in kb._observed[3])

    # the tables are no part of what the KB is
    fresh = build_kb(three_node_doc())
    assert fresh._recognition == {} and fresh._observed == {} and fresh._decisions == {}
    assert fresh == kb and repr(fresh) == repr(kb)
    assert fresh.canonical == kb.canonical and kb_digest(fresh) == kb_digest(kb)


def test_a_key_space_past_the_bound_keeps_no_observation_sets():
    # 3 ** (2 * 4) = 6561 sets of n = 4 observations exceed OBSERVED_MAX
    kb = build_kb(three_node_doc())
    assert kb.alphabet ** (kb.dim * 4) > aprior.perception.OBSERVED_MAX
    state = make_state(kb, epsilon=0.3, fixed_n=4, seed=0, cost=0.02)
    run_episode(state, load_scenario(mixed_scenario_doc(), kb), 1000)
    assert kb._observed == {4: False}


def test_a_decision_table_miss_runs_the_gate_once(monkeypatch):
    # an entry's picks come from the list its one eligible_programs call gave
    kb = build_kb(three_node_doc())
    calls = []
    original = aprior.agent.eligible_programs

    def counting(state, outcome):
        calls.append(outcome)
        return original(state, outcome)

    monkeypatch.setattr(aprior.agent, "eligible_programs", counting)
    state = c1_state(kb, 0)
    log = run_episode(state, load_scenario(mixed_scenario_doc(), kb), 1000)
    assert log.actions > 0
    assert len(calls) == len(state.decisions)


def c1_log(kb, seed, trials=300, cost=0.02):
    scenario = load_scenario(mixed_scenario_doc(), kb)
    return run_episode(make_state(kb, epsilon=0.3, fixed_n=3, seed=seed, cost=cost),
                       scenario, trials).to_jsonl()


@pytest.mark.parametrize("stimulus", [(1.0, 0.0), (True, 0), (3, 0), (0,)])
def test_step_rejects_an_invalid_stimulus_before_any_draw(stimulus):
    kb = build_kb(three_node_doc())
    state = c1_state(kb, 0)
    words = (state.channel_rng.state, state.selection_rng.state)
    with pytest.raises(ValueError):
        step(state, stimulus)
    assert (state.channel_rng.state, state.selection_rng.state, state.trials) == (*words, 0)
    assert kb._recognition == {} and kb._observed == {}
    assert c1_log(kb, 1) == c1_log(build_kb(three_node_doc()), 1)


@pytest.mark.parametrize("seed", [True, 1.0, "1", None])
def test_state_rejects_a_seed_that_is_not_an_int_before_any_stream(kb, seed, monkeypatch):
    # a bool seed used to reach the header as "seed":true, which parse_log rejects
    monkeypatch.setattr(aprior.agent, "substream", lambda *args: pytest.fail("stream made"))
    with pytest.raises(ValueError, match="seed must be an int"):
        make_state(kb, seed=seed)


@pytest.mark.parametrize("trials", [True, 2.5, 3.0, 0, -1])
def test_run_episode_rejects_a_trial_count_that_is_not_an_int_ge_1(kb, trials, monkeypatch):
    # True used to log "trials":true, which parse_log rejects, and 2.5 to end in a TypeError
    state = c1_state(kb, 0)
    words = (state.channel_rng.state, state.selection_rng.state)
    scenario = load_scenario(mixed_scenario_doc(), kb)
    monkeypatch.setattr(aprior.agent, "substream", lambda *args: pytest.fail("stream made"))
    with pytest.raises(ValueError, match="trials must be an int >= 1"):
        run_episode(state, scenario, trials)
    assert (state.channel_rng.state, state.selection_rng.state, state.trials) == (*words, 0)


@pytest.mark.parametrize("used", ["episode", "step"])
def test_run_episode_rejects_a_state_that_has_run_a_trial(kb, used, monkeypatch):
    # a second episode on one state logged t from 5, which parse_log rejects, and
    # restarted the scenario stream while the channel and selection streams went on
    state = c1_state(kb, 7)
    scenario = load_scenario(mixed_scenario_doc(), kb)
    if used == "episode":
        run_episode(state, scenario, 5)
    else:
        step(state, (0, 0))
    words = (state.channel_rng.state, state.selection_rng.state, state.trials)
    monkeypatch.setattr(aprior.agent, "substream", lambda *args: pytest.fail("stream made"))
    with pytest.raises(ValueError, match=f"has run no trial, not {words[2]}$"):
        run_episode(state, scenario, 5)
    assert (state.channel_rng.state, state.selection_rng.state, state.trials) == words


def test_a_new_economy_replaces_the_kbs_decision_table():
    kb = build_kb(three_node_doc())
    first = c1_state(kb, 0)
    second = make_state(kb, epsilon=0.3, fixed_n=3, seed=0, cost=0.01)
    assert list(kb._decisions) == [(3, 0.0, 0.01, 1.0)]
    assert second.decisions is kb._decisions[(3, 0.0, 0.01, 1.0)]
    assert first.decisions is not second.decisions
    # each state keeps its own table, and its log is the one a fresh KB gives
    scenario = load_scenario(mixed_scenario_doc(), kb)
    for state, cost in ((first, 0.02), (second, 0.01)):
        fresh = build_kb(three_node_doc())
        assert (run_episode(state, scenario, 300).to_jsonl()
                == c1_log(fresh, 0, cost=cost))
    assert first.decisions and second.decisions


def test_state_is_built_from_its_inputs_only(kb):
    init = list(inspect.signature(AgentState).parameters)
    assert init == ["kb", "params", "econ", "seed", "fixed_n"]


# words per named stream at seed 11, counted through SplitMix64.next_u64
# calls before the channel drew its words on local variables
PINNED_WORDS = {3: {"channel": 7820, "selection": 574, "scenario": 1000},
                None: {"channel": 5227, "selection": 687, "scenario": 1000}}


@pytest.mark.parametrize("fixed_n,words", [(3, 9394), (None, 6914)])
def test_episode_draws_a_pinned_number_of_words(kb, fixed_n, words):
    state = make_state(kb, epsilon=0.3, fixed_n=fixed_n, seed=11, cost=0.02)
    _, drawn = episode_with_words(state, load_scenario(mixed_scenario_doc(), kb), 1000)
    assert drawn == PINNED_WORDS[fixed_n]
    assert sum(drawn.values()) == words


def test_deep_kb_reflex_episode_draws_a_pinned_number_of_words():
    # the benchmark's seeded deep tree: 152 programs, reflex schedule, planned n = 8
    spec = importlib.util.spec_from_file_location("perfbench_deepkb", DEEPKB_PY)
    deepkb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(deepkb)
    kb_doc, scenario_doc = deepkb.generate(0)
    kb = build_kb(kb_doc)
    state = AgentState(kb=kb, params=ChannelParams(epsilon=0.2, alphabet=kb.alphabet, dim=kb.dim),
                       econ=MeasurementEconomy(value=1.0, cost=0.01, phi0=0.0, n_max=9),
                       seed=0, fixed_n=None)
    log, drawn = episode_with_words(state, load_scenario(scenario_doc, kb), 144)
    assert json.loads(log.lines[0])["n"] == 8
    assert drawn == {"channel": 5495, "selection": 105, "scenario": 0}


def test_a_mixed_episode_matches_the_reference_episode():
    # the mixed scenario's two omega vectors share a truth; program 2 carries two tags,
    # the second of which scores; on Q11 program 6 outranks program 1 by phi, not by id
    kb_doc = three_node_doc()
    kb_doc["programs"].append({"id": 6, "trigger": 11, "operations": [2], "k": 2,
                               "utility": 1.5})
    scenario_doc = mixed_scenario_doc()
    scenario_doc["scoring"].append({"action": "approach", "truth": 12, "value": 0.5})
    config = {"trials": 200, "epsilon": 0.3, "value": 1.0, "cost": 0.02, "phi0": 0.0,
              "n_max": 9, "fixed_n": 3}
    kb = build_kb(kb_doc)
    state = make_state(kb, epsilon=0.3, fixed_n=3, seed=5, cost=0.02)
    log = run_episode(state, load_scenario(scenario_doc, kb), 200, config=config)
    text = log.to_jsonl()
    assert '"stimulus":[2,0],' in text and '"stimulus":[2,2],' in text
    assert '"eligible":[6,1],' in text and '"score":0.5,' in text
    assert text == reference_episode(kb_doc, scenario_doc, 5, config)[0]
