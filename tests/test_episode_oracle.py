"""Differential tests of run_episode's log.

Random KBs (a in 2..4, d in 1..4, k in 1..5, negative utilities),
scenarios of all three kinds, epsilon at 0, 1 and between, fixed or
planned n, costs of either zero sign, and phi0 values that keep or empty
the eligible list. Two or three episodes run back to back on one sealed
KB, so later ones read the recognition and decision tables earlier ones
filled. Each log must match the library-free reference episode byte for
byte, each named stream must have drawn the oracle's number of words, and
each line built from cached members must parse to the dict step returns.
"""
import copy
import json
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import aprior.agent
from aprior.agent import CHANNEL_USES, AgentState, run_episode, step
from aprior.decision import MeasurementEconomy
from aprior.kb import build_kb
from aprior.perception import OBSERVED_MAX, ChannelParams
from aprior.rng import substream
from aprior.world import load_scenario, next_stimulus
from conftest import episode_with_words, mixed_scenario_doc, three_node_doc, tree_docs
from episode_oracle import descend, reference_episode

TAGS = ("pull", "orient", "approach", "grasp", "échapper")
# 1.0 first: Hypothesis favours the first entry, and a positive utility can act
UTILITIES = (1.0, -1.0, -0.25, -0.0, 0.0, 0.3, 0.8, 2)
COSTS = (0.0, -0.0, 0.01, 0.3)
PHI0S = (-1.0, 0.0, 0.2, 5.0)  # no program's phi (|U| <= 2) passes 5.0


def rarely(draw, value, otherwise):
    """value in about one draw in ten, else a draw from otherwise.

    Keeps draws that seldom or never act (no programs, phi0 = 5.0,
    epsilon 1) in the mix without letting them crowd out the action, tag
    and score paths. The zero draw, which Hypothesis favours, gives otherwise.
    """
    return value if draw(st.integers(0, 9)) == 9 else draw(otherwise)


@st.composite
def episode_cases(draw):
    kb_doc = draw(tree_docs())
    a, d = kb_doc["alphabet"], kb_doc["d"]
    ids = [o["id"] for o in kb_doc["objects"]]
    objects = {o["id"]: (-1 if o["parent"] is None else o["parent"],
                         [tuple(p) for p in o["predicate"]]) for o in kb_doc["objects"]}
    entries, reached = [], []
    for _ in range(draw(st.integers(1, 5))):
        vector = draw(st.lists(st.integers(0, a - 1), min_size=d, max_size=d))
        if draw(st.integers(0, 3)) < 3:  # mostly a vector that meets a drawn node's predicate
            for i, s in objects[draw(st.sampled_from(ids))][1]:
                vector[i] = s
        node, _, status = descend(objects, vector)
        truth = {"full": node, "partial": draw(st.sampled_from([node, "omega"])),
                 "unrecognized": "omega"}[status]
        entries.append({"vector": vector, "truth": truth})
        if status != "unrecognized":
            reached.append(node)
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=4))
    op_ids = list(range(1, len(tags) + 1))
    kb_doc["operations"] = [{"id": pid, "action_tag": tag, "task": pid, "applicable_objects": ids}
                            for pid, tag in zip(op_ids, tags)]
    kb_doc["tasks"] = [{"id": pid, "pairs": [[draw(st.sampled_from(ids)), pid]]}
                       for pid in op_ids]

    def trigger():
        # mostly a node the entries reach, so more episodes act; sometimes
        # any node, so programs off the recognized node stay covered
        if reached and draw(st.integers(0, 3)) < 3:
            return draw(st.sampled_from(reached))
        return draw(st.sampled_from(ids))

    kb_doc["programs"] = draw(st.permutations([
        {"id": gid, "trigger": trigger(),
         "operations": draw(st.lists(st.sampled_from(op_ids), min_size=1, max_size=3)),
         "k": draw(st.integers(1, 5)), "utility": draw(st.sampled_from(UTILITIES))}
        for gid in range(1, rarely(draw, 0, st.integers(1, 12)) + 1)
    ]))

    kind = draw(st.sampled_from(["fixed", "categorical", "reflex"]))
    scenario_doc = {"name": "drawn", "kind": kind, "entries": entries, "scoring": [
        {"action": draw(st.sampled_from(tags)), "truth": draw(st.sampled_from(entries))["truth"],
         "value": draw(st.sampled_from([-1.0, 0.0, 0.5, 1]))}
        for _ in range(draw(st.integers(0, 3)))
    ]}
    if kind == "categorical":
        scenario_doc["weights"] = draw(st.lists(st.sampled_from([0.5, 1, 2.0, 3.5]),
                                                min_size=len(entries), max_size=len(entries)))
    if kind == "reflex":
        scenario_doc["repeat"] = draw(st.integers(1, 4))

    config = {
        "trials": draw(st.integers(1, 40)),
        # at epsilon 1 every symbol is replaced, so few stimuli are recognized
        "epsilon": rarely(draw, 1.0, st.one_of(st.just(0.0), st.floats(0.01, 0.99))),
        "value": draw(st.sampled_from([0.0, 1.0, 2.5])),
        "cost": draw(st.sampled_from(COSTS)),
        "phi0": rarely(draw, 5.0, st.sampled_from(PHI0S[:-1])),
        "n_max": draw(st.integers(1, 6)),
        "fixed_n": draw(st.one_of(st.none(), st.integers(1, 5))),
    }
    return kb_doc, scenario_doc, draw(st.integers(0, 2 ** 64 - 1)), config


@st.composite
def episode_series(draw):
    """A KB, a scenario and 2-3 (seed, config, strict) runs on it.

    The first run is plain; each later one is a strict replay of it or a
    new run with its own seed, n, cost, phi0 and strictness.
    """
    kb_doc, scenario_doc, seed, config = draw(episode_cases())
    runs = [(seed, config, False)]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            runs.append((seed, config, True))
        else:
            other = dict(config, cost=draw(st.sampled_from(COSTS)),
                         phi0=draw(st.sampled_from(PHI0S)),
                         fixed_n=draw(st.one_of(st.none(), st.integers(1, 5))))
            runs.append((draw(st.integers(0, 2 ** 64 - 1)), other, draw(st.booleans())))
    return kb_doc, scenario_doc, runs


def library_episode(kb_doc, scenario_doc, seed, config, kb=None, strict=False):
    """run_episode's state, log and the words it drew from each named stream.

    Runs on kb if given, else on a KB built afresh from kb_doc.
    """
    kb = build_kb(copy.deepcopy(kb_doc)) if kb is None else kb
    scenario = load_scenario(copy.deepcopy(scenario_doc), kb)
    state = AgentState(
        kb=kb, params=ChannelParams(config["epsilon"], kb.alphabet, kb.dim),
        econ=MeasurementEconomy(config["value"], config["cost"], config["phi0"],
                                config["n_max"]),
        seed=seed, fixed_n=config["fixed_n"])
    log, words = episode_with_words(state, scenario, config["trials"], config, strict)
    return state, log, words


def assert_lines_are_the_trials_json(state, log):
    """Each line is step's dict, on a twin state shown the same stimuli, plus truth and score.

    The summary counters are the counts over the parsed lines.
    """
    twin = AgentState(kb=state.kb, params=state.params, econ=state.econ, seed=state.seed,
                      fixed_n=state.fixed_n)
    records = [json.loads(line) for line in log.lines]
    for line, record in zip(log.lines, records):
        trial = step(twin, tuple(record["stimulus"]))
        assert trial == {key: value for key, value in record.items()
                         if key not in ("truth", "score")}
        # == takes -0.0 for 0.0; the bytes keep the sign of a zero
        assert json.dumps(dict(trial, truth=record["truth"], score=record["score"]),
                          sort_keys=True, separators=(",", ":")) == line
    assert log.recognized == sum(1 for r in records if r["status"] != "unrecognized")
    assert log.actions == sum(1 for r in records if r["action"] is not None)
    assert log.score == sum(r["score"] for r in records)


PICK_MEMBERS = ["action", "agreement", "candidates", "chosen", "denoised", "depth", "eligible",
                "n", "node", "phi_chosen"]


def assert_table_structure(state):
    """No float keys; each vector's picks log that vector, and the eligible ids of its entry."""
    kb = state.kb
    # 0.0 == -0.0, so a float key would give both zeros one member
    for vector, (k_max, entries) in state.decisions.items():
        assert type(vector) is tuple and all(type(s) is int for s in vector)
        assert vector in kb._recognition and type(k_max) is int
        node = kb._recognition[vector].node
        assert k_max == max((p.reflex_threshold for p in kb.programs_for(node)), default=0)
        for key, (picks, idle) in entries.items():
            assert [type(x) for x in key] == [int, int]
            ids = [pid for pid, _ in picks]
            # a pick's text opens its log line and holds the members through "phi_chosen",
            # each followed by a comma
            for pid, text in picks if idle is None else [idle]:
                members = json.loads(text[:-1] + "}")
                assert list(members) == PICK_MEMBERS
                assert (members["chosen"], members["eligible"]) == (pid, ids)
                assert (members["denoised"], members["node"]) == (list(vector), node)
            # the no-action pick exists exactly when nothing is eligible
            assert (idle is None) == bool(picks)
            if idle is not None:
                assert idle[0] is None


@settings(max_examples=150, deadline=None)
@given(episode_series())
def test_run_episode_matches_the_reference_episode(series):
    kb_doc, scenario_doc, runs = series
    kb = build_kb(copy.deepcopy(kb_doc))
    for seed, config, strict in runs:
        expected_text, expected_words = reference_episode(kb_doc, scenario_doc, seed, config)
        _, log, words = library_episode(kb_doc, scenario_doc, seed, config, kb, strict)
        assert log.to_jsonl() == expected_text
        assert words == expected_words


@settings(max_examples=100, deadline=None)
@given(episode_cases())
def test_lines_built_from_cached_members_are_the_json_of_each_trial(case):
    state, log, _ = library_episode(*case)
    assert_lines_are_the_trials_json(state, log)
    assert_table_structure(state)


def test_zero_phis_keep_their_sign():
    # at agreement 0 and no cost, utility 0.0 gives phi 0.0 while -0.0 and
    # -1.0 give -0.0; all three are eligible on node 11
    kb_doc = three_node_doc()
    kb_doc["programs"][0]["utility"] = 0.0
    kb_doc["programs"] += [
        {"id": 4, "trigger": 11, "operations": [2], "k": 1, "utility": -0.0},
        {"id": 5, "trigger": 11, "operations": [1, 2], "k": 2, "utility": -1.0},
    ]
    config = {"trials": 300, "epsilon": 0.6, "value": 1.0, "cost": 0.0, "phi0": -2.0,
              "n_max": 9, "fixed_n": 3}
    scenario_doc = {"name": "q11", "kind": "fixed", "entries": [{"vector": [0, 0], "truth": 11}]}
    state, log, _ = library_episode(kb_doc, scenario_doc, 3, config)
    text = log.to_jsonl()
    assert '"agreement":0.0,"candidates":[[1,0.0],[4,-0.0],[5,-0.0]]' in text
    assert '"phi_chosen":0.0,' in text and '"phi_chosen":-0.0,' in text
    assert text == reference_episode(kb_doc, scenario_doc, 3, config)[0]
    assert_lines_are_the_trials_json(state, log)
    assert_table_structure(state)


def test_a_zero_cost_keeps_its_sign_on_a_shared_kb():
    # 0.0 == -0.0 and both hash alike, yet they log different phis: with
    # utility -1 at agreement 0, phi is -0.0 - 0.0 = -0.0 but -0.0 - -0.0 = 0.0
    kb_doc = three_node_doc()
    kb_doc["programs"][0]["utility"] = -1.0
    scenario_doc = {"name": "q11", "kind": "fixed", "entries": [{"vector": [0, 0], "truth": 11}]}
    config = {"trials": 300, "epsilon": 0.6, "value": 1.0, "cost": 0.0, "phi0": -5.0,
              "n_max": 9, "fixed_n": 3}
    kb = build_kb(copy.deepcopy(kb_doc))
    texts = []
    for cost in (0.0, -0.0):
        signed = dict(config, cost=cost)
        _, shared, _ = library_episode(kb_doc, scenario_doc, 3, signed, kb)
        _, fresh, _ = library_episode(kb_doc, scenario_doc, 3, signed)
        assert shared.to_jsonl() == fresh.to_jsonl()
        texts.append(shared.to_jsonl())
    assert '"phi_chosen":-0.0,' in texts[0] and '"phi_chosen":0.0,' in texts[1]


def c1_case(trials, fixed_n=3, scenario_doc=None):
    config = {"trials": trials, "epsilon": 0.3, "value": 1.0, "cost": 0.02, "phi0": 0.0,
              "n_max": 9, "fixed_n": fixed_n}
    return three_node_doc(), scenario_doc or mixed_scenario_doc(), 11, config


REFLEX_DOC = {"name": "reflex", "kind": "reflex", "repeat": 2, "scoring": [],
              "entries": [{"vector": [0, 0], "truth": 11}, {"vector": [1, 2], "truth": 2}]}


@settings(max_examples=60, deadline=None)
@given(episode_cases(), st.sampled_from([CHANNEL_USES, 1, 7, 40]))
# categorical, and more trials than one call holds; 3 ** (2 * 9) observation
# sets, so the key space is bypassed
@example(c1_case(CHANNEL_USES // (2 * 9) + 3, 9), CHANNEL_USES)
@example(c1_case(1, None, REFLEX_DOC), CHANNEL_USES)  # reflex, planned n, one trial
@example(c1_case(20), 7)  # one trial a call, observation table on
@example(c1_case(20, 4), 40)  # five trials a call, bypassed
def test_run_episode_is_step_trial_by_trial(case, bound):
    # one channel call for as many trials' uses as the bound allows, each
    # trial's kernel on its slice of them, gives what a channel call per trial gives
    kb_doc, scenario_doc, seed, config = case
    kb, twin_kb = build_kb(copy.deepcopy(kb_doc)), build_kb(copy.deepcopy(kb_doc))
    states = [AgentState(kb=b, params=ChannelParams(config["epsilon"], b.alphabet, b.dim),
                         econ=MeasurementEconomy(config["value"], config["cost"], config["phi0"],
                                                 config["n_max"]),
                         seed=seed, fixed_n=config["fixed_n"]) for b in (kb, twin_kb)]
    state, twin = states
    scenario = load_scenario(copy.deepcopy(scenario_doc), kb)
    with mock.patch.object(aprior.agent, "CHANNEL_USES", bound):
        log = run_episode(state, scenario, config["trials"])
    rng = substream(seed, "scenario")
    for t, line in enumerate(log.lines):
        trial = json.loads(line)
        assert step(twin, next_stimulus(scenario, t, rng).vector) == {
            key: value for key, value in trial.items() if key not in ("truth", "score")}
    for name in ("channel_rng", "selection_rng"):
        ours, theirs = getattr(state, name), getattr(twin, name)
        assert ours.state == theirs.state
        assert (ours._tail is None) == (theirs._tail is None)
    bypassed = kb.alphabet ** (kb.dim * state.n) > OBSERVED_MAX
    assert (kb._observed[state.n] is False) == bypassed == (twin_kb._observed[state.n] is False)
