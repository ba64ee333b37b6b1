import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aprior.kb import build_kb
from aprior.perception import identify
from aprior.rng import BLOCK, MASK64, SplitMix64
from aprior.world import (
    OMEGA,
    ScenarioError,
    TruthMismatch,
    load_scenario,
    next_stimulus,
    score,
    stimuli,
)
from conftest import mixed_scenario_doc, three_node_doc, tree_docs
from oracles import ScalarStream, matching_leaf, scalar_categorical, state_drawing


def fixed_doc(entries, scoring=None):
    return {"name": "t", "kind": "fixed", "entries": entries, "scoring": scoring or []}


def test_load_fixed_single_entry(kb):
    sc = load_scenario(fixed_doc([{"vector": [0, 0], "truth": 11}]), kb)
    assert len(sc.entries) == 1
    assert sc.entries[0].truth == 11


def test_truth_mismatch(kb):
    with pytest.raises(TruthMismatch):
        load_scenario(fixed_doc([{"vector": [1, 0], "truth": 11}]), kb)
    with pytest.raises(TruthMismatch):
        load_scenario(fixed_doc([{"vector": [0, 0], "truth": OMEGA}]), kb)
    with pytest.raises(TruthMismatch):
        load_scenario(fixed_doc([{"vector": [0, 0], "truth": 999}]), kb)


def test_omega_requires_no_leaf_match(kb):
    sc = load_scenario(fixed_doc([{"vector": [2, 0], "truth": OMEGA}]), kb)
    assert sc.entries[0].truth == OMEGA
    # (0,2) matches internal Q1 but no leaf, so omega is allowed
    sc = load_scenario(fixed_doc([{"vector": [0, 2], "truth": OMEGA}]), kb)
    assert sc.entries[0].truth == OMEGA


def test_loading_keeps_each_omega_outcome_in_the_kbs_table(kb):
    # an episode then finds the omega vectors already identified
    doc = mixed_scenario_doc()
    load_scenario(doc, kb)
    omega = [tuple(e["vector"]) for e in doc["entries"] if e["truth"] == OMEGA]
    assert len(omega) == 2
    assert kb._recognition == {v: identify(kb, v) for v in omega}


def assert_omega_check_agrees_with_leaf_scan(kb):
    for v in itertools.product(range(kb.alphabet), repeat=kb.dim):
        leaf = matching_leaf(kb, v)
        doc = fixed_doc([{"vector": list(v), "truth": OMEGA}])
        if leaf is None:
            assert load_scenario(doc, kb).entries[0].truth == OMEGA
        else:
            with pytest.raises(TruthMismatch, match=rf"matches leaf {leaf}$"):
                load_scenario(doc, kb)


def test_omega_check_agrees_with_leaf_scan_on_every_vector(kb):
    assert_omega_check_agrees_with_leaf_scan(kb)


@settings(max_examples=60, deadline=None)
@given(tree_docs())
def test_omega_check_agrees_with_leaf_scan_on_random_trees(doc):
    assert_omega_check_agrees_with_leaf_scan(build_kb(doc))


def test_schema_errors(kb):
    with pytest.raises(ScenarioError):
        load_scenario({"name": "x", "kind": "bogus", "entries": []}, kb)
    with pytest.raises(ScenarioError):
        load_scenario(fixed_doc([]), kb)
    with pytest.raises(ScenarioError):
        load_scenario(
            {"name": "x", "kind": "categorical",
             "entries": [{"vector": [0, 0], "truth": 11}], "weights": [0.0]}, kb)
    with pytest.raises(ScenarioError):
        load_scenario(
            {"name": "x", "kind": "reflex",
             "entries": [{"vector": [0, 0], "truth": 11}], "repeat": 0}, kb)


def test_fixed_schedule_is_modular(kb):
    sc = load_scenario(fixed_doc([
        {"vector": [0, 0], "truth": 11},
        {"vector": [0, 1], "truth": 12},
    ]), kb)
    rng = SplitMix64(0)
    assert next_stimulus(sc, 3, rng) == sc.entries[1]
    assert next_stimulus(sc, 4, rng) == sc.entries[0]


def test_reflex_schedule_repeats_then_switches(kb):
    doc = {
        "name": "r", "kind": "reflex", "repeat": 3,
        "entries": [
            {"vector": [0, 0], "truth": 11},
            {"vector": [0, 1], "truth": 12},
        ],
    }
    sc = load_scenario(doc, kb)
    rng = SplitMix64(0)
    stimuli = [next_stimulus(sc, t, rng) for t in range(6)]
    assert stimuli[:3] == [sc.entries[0]] * 3
    assert stimuli[3:] == [sc.entries[1]] * 3


def test_categorical_schedule_by_weight(kb):
    doc = {
        "name": "c", "kind": "categorical",
        "entries": [
            {"vector": [0, 0], "truth": 11},
            {"vector": [0, 1], "truth": 12},
        ],
        "weights": [1.0, 1.0],
    }
    sc = load_scenario(doc, kb)
    rng = SplitMix64(123)
    n = 10_000
    first = sum(1 for t in range(n) if next_stimulus(sc, t, rng) is sc.entries[0])
    sigma = math.sqrt(n * 0.25)
    assert abs(first - n / 2) < 3 * sigma


def test_categorical_draw_on_a_cumulative_weight_picks_the_next_entry(kb):
    # the stream's first word is 2**63, so u = 0.5 * 2 = 1.0, the first
    # entry's cumulative weight: the first entry holds only u < 1.0
    doc = {
        "name": "c", "kind": "categorical",
        "entries": [
            {"vector": [0, 0], "truth": 11},
            {"vector": [0, 1], "truth": 12},
        ],
        "weights": [1, 1],
    }
    sc = load_scenario(doc, kb)
    assert next_stimulus(sc, 0, SplitMix64(state_drawing(2 ** 63, 0))) is sc.entries[1]


def test_categorical_weights_must_have_a_finite_sum(kb):
    # each weight is finite, but an inf total would send every draw to the last entry
    doc = mixed_scenario_doc()
    doc["weights"] = [1e308, 1e308, 1, 1, 1, 1]
    with pytest.raises(ScenarioError, match="finite sum, got inf"):
        load_scenario(doc, kb)
    doc["weights"] = [8e307, 8e307, 1, 1, 1, 1]  # a sum still inside the floats
    sc = load_scenario(doc, kb)
    rng = SplitMix64(0)
    first = sum(1 for t in range(1000) if next_stimulus(sc, t, rng) is sc.entries[0])
    assert abs(first - 500) < 3 * math.sqrt(1000 * 0.25)


def test_generated_stimuli_satisfy_truth_invariant(kb):
    # property re-check across all schedule kinds
    docs = [
        fixed_doc([{"vector": [0, 0], "truth": 11}, {"vector": [2, 0], "truth": OMEGA}]),
        {"name": "c", "kind": "categorical",
         "entries": [{"vector": [0, 1], "truth": 12}, {"vector": [2, 2], "truth": OMEGA}],
         "weights": [2.0, 1.0]},
        {"name": "r", "kind": "reflex", "repeat": 2,
         "entries": [{"vector": [1, 0], "truth": 2}]},
    ]
    rng = SplitMix64(9)
    for doc in docs:
        sc = load_scenario(doc, kb)
        for t in range(50):
            stim = next_stimulus(sc, t, rng)
            if stim.truth == OMEGA:
                assert all(
                    not kb.objects[oid].predicate.matches(stim.vector)
                    for oid in kb.objects if kb.is_leaf(oid)
                )
            else:
                assert kb.objects[stim.truth].predicate.matches(stim.vector)


def test_scenario_generation_deterministic(kb):
    doc = {
        "name": "c", "kind": "categorical",
        "entries": [{"vector": [0, 0], "truth": 11}, {"vector": [0, 1], "truth": 12}],
        "weights": [1.0, 3.0],
    }
    sc = load_scenario(doc, kb)
    rng_a, rng_b = SplitMix64(5), SplitMix64(5)
    a = [next_stimulus(sc, t, rng_a) for t in range(20)]
    b = [next_stimulus(sc, t, rng_b) for t in range(20)]
    assert a == b


def test_score_lookup(kb):
    doc = fixed_doc(
        [{"vector": [0, 0], "truth": 11}],
        scoring=[{"action": "pull", "truth": 11, "value": 1.0}],
    )
    sc = load_scenario(doc, kb)
    assert score(sc, "pull", 11) == 1.0
    assert score(sc, None, 11) == 0.0
    assert score(sc, "pull", 12) == 0.0
    assert score(sc, "orient", 11) == 0.0


SCHEDULE_OPS = st.lists(st.one_of(
    st.tuples(st.just("stimuli"), st.integers(0, 3 * BLOCK), st.integers(0, BLOCK + 2)),
    st.tuples(st.just("next_stimulus"), st.integers(0, 3 * BLOCK)),
    st.tuples(st.just("write"), st.integers(0, MASK64)),
), max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["categorical", "reflex"]),
       st.lists(st.floats(5e-324, 1e308), min_size=1, max_size=6),
       st.integers(1, 3), st.integers(0, MASK64), SCHEDULE_OPS)
# a run that crosses a block end, then a write back to the state it started at
@example("categorical", [2.0, 2.0, 2.0, 1.5, 1.0, 1.0], 1, 0,
         [("stimuli", 0, BLOCK + 2), ("write", 0), ("stimuli", 5, 3)])
def test_stimuli_are_the_running_sum_draws_one_word_at_a_time(kind, weights, repeat, state, ops):
    # equal vectors, so each entry is told apart by identity only
    doc = {"name": "s", "kind": kind, "repeat": repeat, "weights": weights,
           "entries": [{"vector": [0, 0], "truth": 11} for _ in weights]}
    try:
        scenario = load_scenario(doc, build_kb(three_node_doc()))
    except ScenarioError:
        assume(False)  # weights whose sum overflows
    entries = scenario.entries
    rng, twin = SplitMix64(state), ScalarStream(state)

    def expected(t):
        if kind == "reflex":
            return entries[(t // repeat) % len(entries)]
        return entries[scalar_categorical([float(w) for w in weights], twin)]

    for op in ops:
        if op[0] == "write":
            rng.state = twin.state = op[1]
            continue
        if op[0] == "next_stimulus":
            first, count = op[1], 1
            got = [next_stimulus(scenario, first, rng)]
        else:
            _, first, count = op
            got = stimuli(scenario, first, count, rng)
        want = [expected(t) for t in range(first, first + count)]
        assert len(got) == count and all(a is b for a, b in zip(got, want))
        assert rng.state == twin.state
    with pytest.raises(ValueError, match="t must be >= 0"):
        stimuli(scenario, -1, 1, rng)
